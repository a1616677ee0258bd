"""Cut generation, the cutting-plane loop, and the geometry around them.

:func:`cutting_plane` is Kelley's loop: solve the LP, add the cuts a
separation oracle returns for its solution ``xbar``, repeat.  The two
oracles for ``C = {g_j <= 0}``:

* :func:`kelley_separator` linearizes every violated constraint at ``xbar``
  itself (:func:`kelley_cut`).  Such cuts are valid for convex ``g`` but in
  general do not touch ``C``.
* :func:`gauge_separator` walks from a strict interior point toward ``xbar``
  until the boundary (:func:`line_search_boundary`), then linearizes the
  active constraints there (:func:`esh_cut`).  These cuts support ``C`` by
  construction, also for non-convex ``g_j`` with a convex sublevel set, as
  long as active gradients do not vanish on the boundary.

ESH's oracle is Kelley's applied to ``gauge(x) <= 1``, the gauge (Minkowski
functional) of ``C`` about the interior point: the line search evaluates it,
``1/lambda*`` at the crossing ``lambda*``, and the ESH cut is Kelley's cut on
it up to scaling.  :func:`check_supporting` runs the same loop on ``max
alpha^T x``.  :func:`gauge_values` evaluates the gauge at any points, for
:func:`gauge_subgradient_check` to certify a normalized supporting cut as a
gauge subgradient inequality.  It and the line search share one ray-crossing
kernel: bisection, one halving of every ray per evaluation while many rays
are open, and for a few rays the midpoints of several halvings evaluated in
one batch, so that each crossing is bit for bit the one that one halving per
evaluation returns.  A point outside some ``g_j``'s domain lies outside
``C``.

:func:`affine_on_segment` and :func:`classify_quadratic` decide when plain
linearization cuts happen to be supporting: exactly when the constraint is
affine along some segment from the separated point into the feasible set; for
a convex quadratic ``x^T A x + b^T x + c0`` that is exactly when ``b`` is
outside the range of ``A``.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from itertools import islice
from typing import Sequence

import numpy as np

from . import expr as ex
from . import lp  # looked up per call, so wrappers installed on gaugecut.lp see probe solves
from .errors import EvalDomainError, PreconditionError, SeparationError
from .lp import Cut
from .model import (
    Constraint,
    Problem,
    QuadraticForm,
    SolverConfig,
    constraint_values,
    max_violation,
    resolve_interior_point,
)

__all__ = [
    "GaugeResult",
    "SupportVerdict",
    "kelley_cut",
    "line_search_boundary",
    "esh_cut",
    "cutting_plane",
    "kelley_separator",
    "gauge_separator",
    "check_supporting",
    "affine_on_segment",
    "classify_quadratic",
    "gauge_subgradient_check",
    "gauge_values",
]

# |max_j g_j| allowed at a returned boundary point
BOUNDARY_TOL = 1e-9
_DOUBLINGS = 60
_BISECTIONS = 100  # halvings per row
# A bisection round evaluates at most about this many midpoints (see _bisect)
_ROUND_POINTS = 64
# Rows bisected together; bounds the size of a round's arrays
_BLOCK_ROWS = 8192

_SUPPORT_TOL = 1e-7
# box doublings of check_supporting's search; 2^30 times the first box
_PROBE_DOUBLINGS = 30


def as_constraints(obj) -> tuple[Constraint, ...]:
    """Accept a Problem, a constraint sequence, or a single expression."""
    if isinstance(obj, Problem):
        return obj.constraints
    if isinstance(obj, ex.Expr):
        return (Constraint("g", obj),)
    if isinstance(obj, Constraint):
        return (obj,)
    return tuple(obj)


@dataclass(frozen=True, eq=False)
class GaugeResult:
    """Outcome of the boundary line search from an interior point.

    ``boundary_point`` is ``interior_point + lambda_star * (separated_point -
    interior_point)`` with ``|max_j g_j| <= BOUNDARY_TOL`` there, taken on the
    feasible side.  ``gauge_value`` is ``1 / lambda_star``: the gauge of the
    separated point in the frame centered at the interior point.
    ``active_set`` lists the constraints active at the boundary point within
    the activity tolerance (never empty: the attaining constraint is always
    included).
    """

    lambda_star: float
    gauge_value: float
    boundary_point: np.ndarray
    active_set: tuple[int, ...]
    interior_point: np.ndarray
    separated_point: np.ndarray


@dataclass(frozen=True, eq=False)
class SupportVerdict:
    """Result of probing whether a valid cut touches the feasible set.

    ``max_violation_gap`` is the smallest slack ``beta - alpha^T x`` over the
    feasible points found; zero (within tolerance) at a supporting cut.  A
    ``True`` verdict carries a feasible ``witness`` where the cut is tight.
    A ``False`` verdict is proven unless the search ran out of iterations or
    doublings; one reached by doubling the box is proven inside the last box
    only (see :func:`check_supporting`).
    """

    supporting: bool
    witness: np.ndarray | None
    max_violation_gap: float


# ---------------------------------------------------------------------------
# Gradient cuts, and the cutting-plane loop over their two oracles
# ---------------------------------------------------------------------------


def kelley_cut(g: ex.Expr, xbar, constraint_name: str | None = None) -> Cut:
    """Linearization cut ``g(xbar) + grad^T (x - xbar) <= 0`` at a point that
    violates ``g <= 0``; strictly separates ``xbar``."""
    xbar = np.asarray(xbar, dtype=float)
    res = ex.eval_grad(g, xbar)
    if res.value <= 0.0:
        raise PreconditionError(
            f"point does not violate the constraint (g = {res.value:.6g} <= 0)"
        )
    if float(np.max(np.abs(res.gradient))) < ex.ZERO_GRADIENT_TOL:
        raise SeparationError(
            "cannot separate: gradient vanishes at the violated point; for a "
            "convex constraint this certifies the feasible set is empty"
        )
    beta = float(res.gradient @ xbar) - res.value
    return Cut(res.gradient, beta, origin="kelley", constraint=constraint_name, point=xbar)


def line_search_boundary(constraints, x0, xbar, cfg: SolverConfig | None = None) -> GaugeResult:
    """Bisect ``max_j g_j`` to zero on the segment from the strict interior
    point ``x0`` to the infeasible ``xbar``.

    This is the gauge evaluation of :func:`gauge_values` for one ray, run to
    the relative bracket width ``cfg.line_search_tol`` and on until
    ``max_j g_j >= -BOUNDARY_TOL`` at the returned point.  Bisection is used
    on purpose: it needs only the sign change guaranteed by the
    preconditions, so it also handles non-convex constraint functions whose
    restriction to the segment is not monotone.  One evaluation of 63
    points covers six halvings, which are then taken on Python floats, and
    the result is the one a halving at a time gives.  The preconditions are
    checked in one evaluation of two points: ``x0`` and the search's first
    bracket end ``x0 + 1.0 * (xbar - x0)``, which is ``xbar`` up to
    rounding.  A point outside the constraints' domain counts as
    infeasible, so such an ``x0`` is not strictly interior.
    """
    cons = as_constraints(constraints)
    if cfg is None:
        cfg = SolverConfig()
    x0 = np.asarray(x0, dtype=float)
    xbar = np.asarray(xbar, dtype=float)
    D = (xbar - x0)[None, :]
    f0, f1 = _fmax_rows(cons, np.vstack((x0, x0 + 1.0 * D)))
    if f0 >= 0.0:
        raise PreconditionError(
            f"interior point is not strictly interior (max_j g_j = {f0:.6g})"
        )
    if f1 <= 0.0:
        raise PreconditionError(
            f"point to separate is feasible (max_j g_j = {f1:.6g})"
        )
    t_star, ok = _boundary_crossings(
        cons, x0, D, tol=cfg.line_search_tol, settle=True, f_one=np.array([f1])
    )
    if not ok[0]:
        raise SeparationError(
            f"line search did not reach |max_j g_j| <= {BOUNDARY_TOL:g} within "
            f"{_BISECTIONS} bisections; the interior point may lie on the "
            "boundary within tolerance"
        )
    lo = float(t_star[0])
    xhat = x0 + lo * (xbar - x0)
    active = [0]  # a single constraint is the attaining one
    if len(cons) > 1:
        gvals = constraint_values(cons, xhat)
        active = [j for j in range(len(cons)) if gvals[j] >= -cfg.activity_tol]
        if not active:
            active = [int(np.argmax(gvals))]
    return GaugeResult(
        lambda_star=lo,
        gauge_value=1.0 / lo,
        boundary_point=xhat,
        active_set=tuple(active),
        interior_point=x0,
        separated_point=xbar,
    )


def esh_cut(constraints, gr: GaugeResult) -> list[Cut]:
    """Gradient cuts of every active constraint at the boundary point of
    ``gr``.  Each one supports the feasible set at that point and strictly
    separates the point the line search started from.

    Emitting cuts for *all* active constraints is valid and at worst
    redundant; the pool deduplicates.
    """
    cons = as_constraints(constraints)
    xhat = gr.boundary_point
    cuts = []
    for j in gr.active_set:
        res = ex.eval_grad(cons[j].expr, xhat)
        if float(np.max(np.abs(res.gradient))) < ex.ZERO_GRADIENT_TOL:
            raise SeparationError(
                f"gradient of active constraint {cons[j].name!r} vanishes at the "
                "boundary point; supporting cuts require nonvanishing gradients "
                "of active constraints on the boundary"
            )
        beta = float(res.gradient @ xhat) - res.value
        cuts.append(
            Cut(res.gradient, beta, origin="esh", constraint=cons[j].name, point=xhat)
        )
    return cuts


def cutting_plane(model: lp.LpModel, separate, eps: float):
    """Kelley's loop on ``model``: solve the LP, add the cuts of ``separate(x,
    eps) -> (violation, cuts)`` at its solution ``x``, and yield ``(solution,
    violation, added)``, ``added`` being the cuts new to the pool.  It ends
    by itself only on an infeasible LP; other stop rules are the caller's."""
    while True:
        sol = lp.lp_solve(model)
        if sol.status == "infeasible":
            return
        violation, cuts = separate(sol.x, eps)
        yield sol, violation, tuple(cut for cut in cuts if lp.add_cut(model, cut))


def kelley_separator(constraints):
    """Kelley's oracle: the violation ``max_j g_j(x)`` and, above ``eps``,
    the linearization of every ``g_j > 0`` at ``x``.  An
    :class:`~gaugecut.errors.EvalDomainError` at ``x`` propagates."""
    cons = as_constraints(constraints)

    def separate(x, eps):
        gvals = constraint_values(cons, x)
        fmax = float(np.max(gvals))
        if fmax <= eps:
            return fmax, []
        return fmax, [kelley_cut(c.expr, x, c.name) for c, g in zip(cons, gvals) if g > 0.0]

    return separate


def gauge_separator(constraints, x0, cfg: SolverConfig | None = None):
    """ESH's oracle, Kelley's on ``gauge(x) <= 1``: the violation ``max_j
    g_j(x)`` (``inf`` outside some ``g_j``'s domain) and, above ``eps``, the
    :func:`esh_cut` cuts where the segment from ``x0`` to ``x`` leaves ``C``."""
    cons = as_constraints(constraints)

    def separate(x, eps):
        fmax = float(_fmax_rows(cons, x[None, :])[0])
        if fmax <= eps:
            return fmax, []
        return fmax, esh_cut(cons, line_search_boundary(cons, x0, x, cfg))

    return separate


# ---------------------------------------------------------------------------
# Gauge evaluation along rays
# ---------------------------------------------------------------------------


def _strict_interior(cons: Sequence[Constraint], x0) -> np.ndarray:
    """``x0`` as an array, once ``max_j g_j(x0) < 0``; as in
    :func:`line_search_boundary`, a point outside some ``g_j``'s domain is
    not strictly interior."""
    x0 = np.asarray(x0, dtype=float)
    f0 = _fmax_rows(cons, x0[None, :])[0]
    if f0 >= 0.0:
        raise PreconditionError(
            f"interior point is not strictly interior (max_j g_j = {f0:.6g})"
        )
    return x0


def _fmax_rows(cons: Sequence[Constraint], P: np.ndarray) -> np.ndarray:
    """``max_j g_j`` at each row of ``P``; a row outside some ``g_j``'s
    domain is outside ``C`` and reads ``+inf``.  A batch that raised is
    evaluated again in halves, down to single rows, so such a row leaves
    the others' values unchanged."""
    try:
        return constraint_values(cons, P).max(axis=0)
    except EvalDomainError:
        if P.shape[0] == 1:
            return np.array([math.inf])
    h = P.shape[0] // 2
    return np.concatenate((_fmax_rows(cons, P[:h]), _fmax_rows(cons, P[h:])))


def _boundary_crossings(
    cons: Sequence[Constraint],
    x0: np.ndarray,
    D: np.ndarray,
    tol: float = 1e-13,
    settle: bool = False,
    f_one: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Per row of ``D``: the parameter ``t* > 0`` where ``max_j g_j(x0 + t d)``
    crosses zero, taken on the feasible side, bisected to a bracket width of
    at most ``tol * t_hi``.  ``settle`` also bisects on until ``max_j g_j >=
    -BOUNDARY_TOL`` at ``t*`` (grids leave it off: there it costs time and
    leaves steep rays open).  ``f_one`` holds ``max_j g_j`` at the first
    bracket ends ``x0 + 1.0 * d`` when the caller has already evaluated them.
    Rows whose ray never leaves the set within the doubling budget, or still
    open after ``_BISECTIONS`` halvings, get ``ok = False`` and a meaningless
    ``t*``.

    The doubling steps evaluate one point per open row.  The bisection (see
    :func:`_bisect`) halves every open row once per evaluation while 22 or
    more rows are open and several times per evaluation below that, and
    returns exactly what halving one midpoint per evaluation would."""
    k = D.shape[0]
    t_lo = np.zeros(k)
    t_hi = np.ones(k)
    f_hi = _fmax_rows(cons, x0 + t_hi[:, None] * D) if f_one is None else f_one
    need = f_hi <= 0.0
    for _ in range(_DOUBLINGS):
        if not np.any(need):
            break
        t_lo[need] = t_hi[need]
        t_hi[need] *= 2.0
        idx = np.nonzero(need)[0]
        f_new = _fmax_rows(cons, x0 + t_hi[idx, None] * D[idx])
        need[idx] = f_new <= 0.0
    ok = ~need
    rows = np.nonzero(ok)[0]
    for start in range(0, rows.size, _BLOCK_ROWS):
        still_open = _bisect(cons, x0, D, rows[start:start + _BLOCK_ROWS], t_lo, t_hi, tol, settle)
        ok[still_open] = False
    return t_lo, ok


def _bisect(cons, x0, D, rows, t_lo, t_hi, tol, settle) -> np.ndarray:
    """Bisect the brackets ``[t_lo, t_hi]`` of ``rows``, writing each closed
    row's ``t_lo``; returns the rows still open after ``_BISECTIONS``
    halvings.

    A round with ``R`` open rows takes ``d`` halvings at once, the most with
    ``R (2^d - 1) <= _ROUND_POINTS`` (at least one).  A wide round, ``d =
    1``, is one plain halving of every row on arrays.  A narrow round, at
    most 21 rows, evaluates in one call every midpoint its ``d`` halvings
    could visit, each computed as the same ``0.5 * (lo + hi)`` of the same
    bracket ends a single halving would use, and then replays the halvings
    row by row on Python floats, which round as numpy's float64 does: a
    midpoint where ``max_j g_j > 0`` becomes ``hi``, any other becomes
    ``lo``.  The stop test runs after every halving, so a row closes with
    the ``t_lo`` of the first halving where it holds, as one halving per
    evaluation would close it, also where the ray leaves and re-enters the
    set."""
    # Dt[:, r] is row r's direction, and a round's points are the transpose
    # of an (n, N) array: numpy builds and evaluates its contiguous
    # coordinates much faster than the strided columns of an (N, n) one, and
    # its elementwise functions give the same values in either layout
    lo, hi, Dt = t_lo[rows], t_hi[rows], D[rows].T.copy()
    f_lo = np.full(rows.size, -math.inf)  # unknown until a halving lands inside
    done = 0
    while rows.size and done < _BISECTIONS:
        R = rows.size
        d = min(max(1, (_ROUND_POINTS // R + 1).bit_length() - 1), _BISECTIONS - done)
        done += d
        if d == 1:
            mid = 0.5 * (lo + hi)
            P = mid * Dt
            P += x0[:, None]
            fm = _fmax_rows(cons, P.T)
            above = fm > 0.0
            hi = np.where(above, mid, hi)
            lo = np.where(above, lo, mid)
            keep = hi - lo > tol * hi
            if settle:
                f_lo = np.where(above, f_lo, fm)
                keep |= f_lo < -BOUNDARY_TOL
        else:
            s = 1 << d
            halves = [s >> j for j in range(1, d + 1)]  # each halving's new width
            # E[r]: row r's bracket cut into s dyadic pieces, one level of
            # halvings at a time; a piece [e[i], e[i + 2h]] has its midpoint at i + h
            E = []
            for a, b in zip(lo.tolist(), hi.tolist()):
                e = [a] * s + [b]
                for h in halves:
                    e[h::2 * h] = [0.5 * (p + q) for p, q in zip(e[:s:2 * h], e[2 * h::2 * h])]
                E.append(e)
            P = np.array(E)[:, 1:s] * Dt[:, :, None]
            P += x0[:, None, None]
            F = _fmax_rows(cons, P.reshape(x0.size, -1).T).tolist()
            keep = np.ones(R, dtype=bool)
            state = []
            for r, (e, fl) in enumerate(zip(E, f_lo.tolist())):
                k = r * (s - 1) - 1  # F[k + i]: max_j g_j at e[i]
                g = 0  # lo is e[g]
                for h in halves:
                    if not F[k + g + h] > 0.0:
                        g += h
                        fl = F[k + g]
                    a, b = e[g], e[g + h]
                    if not (b - a > tol * b or settle and fl < -BOUNDARY_TOL):
                        keep[r] = False
                        break
                state.append((a, b, fl))  # a closed row keeps the lo it closed with
            lo, hi, f_lo = np.array(state).T
        if not keep.all():
            t_lo[rows[~keep]] = lo[~keep]
            rows, lo, hi, f_lo = rows[keep], lo[keep], hi[keep], f_lo[keep]
            Dt = Dt.compress(keep, axis=1)
    return rows


def gauge_values(constraints, x0, points) -> tuple[np.ndarray, np.ndarray]:
    """Gauge of each point in the frame centered at the strict interior point
    ``x0``, evaluated by line search along the ray from ``x0`` through the
    point (boundary crossing at ``t*`` gives gauge ``1/t*``; feasible points
    have ``t* >= 1``).

    Returns ``(phi, ok)``; rows with ``ok == False`` could not bracket a
    boundary crossing (the ray stays feasible forever, e.g. along a recession
    direction) and their ``phi`` is meaningless.  Points outside the
    constraints' domain lie outside the set: their ``phi`` exceeds 1.
    """
    cons = as_constraints(constraints)
    x0 = _strict_interior(cons, x0)
    X = np.atleast_2d(np.asarray(points, dtype=float))
    phi = np.zeros(X.shape[0])
    ok = np.ones(X.shape[0], dtype=bool)
    nonzero = np.nonzero(np.any(X != x0, axis=1))[0]
    if nonzero.size == 0:
        return phi, ok
    t_star, ray_ok = _boundary_crossings(cons, x0, X[nonzero] - x0)
    phi[nonzero] = np.where(ray_ok, 1.0 / np.maximum(t_star, 1e-300), 0.0)
    ok[nonzero] = ray_ok
    return phi, ok


# ---------------------------------------------------------------------------
# Supportingness probes
# ---------------------------------------------------------------------------


def _feasible_witness(cons, cut: Cut, x, tol: float) -> bool:
    f, _ = max_violation(cons, x)
    return f <= tol and abs(cut.violation(x)) <= tol


def check_supporting(
    constraints,
    cut: Cut,
    interior_point=None,
    ascent_iters: int = 60,
    tol: float = _SUPPORT_TOL,
    probe_segment=None,
) -> SupportVerdict:
    """Decide whether the cut holds with equality at some feasible point,
    i.e. whether the support function ``sigma_C(alpha) = max_{x in C}
    alpha^T x`` reaches ``beta``.

    The cut's own generation point is checked first (exact for cuts built at
    a boundary point), then the boundary point of ``probe_segment``, an
    optional (interior, exterior) pair.  Otherwise ``sigma_C(alpha)`` is
    computed by ESH, :func:`cutting_plane` with :func:`gauge_separator`: an
    LP maximizes ``alpha^T x`` over a box centred at the interior point, and
    an infeasible maximizer is pulled back to the boundary by line search,
    which adds its supporting cuts to the LP.  Each LP value ``U`` bounds
    ``sigma_C`` from above within the box; each feasible maximizer or
    boundary point ``x`` gives ``L = alpha^T x`` from below.  The verdict is
    ``True``, with that point as witness, once ``L >= beta - tol``.  Once
    ``U - L <= tol``:

    * a maximizer off every box face is optimal without the box, so
      ``sigma_C <= U < beta`` and ``False`` is proven;
    * otherwise the box is doubled about the interior point, keeping the
      cuts.  If that raised ``U`` by at most ``tol``, the verdict is
      ``False``, proven inside the doubled box only: ``alpha^T x`` over
      ``C`` intersected with the box scaled by ``s`` is concave and
      nondecreasing in ``s`` but may still grow slowly beyond it.

    ``ascent_iters`` bounds the ESH iterations per box (0 skips the search),
    and at most ``_PROBE_DOUBLINGS`` doublings are made.  A ``False`` verdict
    at either limit is not proven.

    The search needs an interior point.  For a :class:`Problem` it comes from
    :func:`resolve_interior_point` (``interior_point``, then the problem's,
    then a search) and the first box is the problem's, made symmetric about
    that point; bare constraints must be given ``interior_point`` and start
    from the box of half-width 1 around it.
    """
    cons = as_constraints(constraints)
    best_x: np.ndarray | None = None
    best_val = -math.inf

    def consider(x: np.ndarray) -> None:
        nonlocal best_x, best_val
        f, _ = max_violation(cons, x)
        v = float(cut.alpha @ x)
        if f <= tol and v > best_val:
            best_val = v
            best_x = x

    if cut.point is not None:
        consider(cut.point)
        if best_x is not None and abs(cut.violation(best_x)) <= tol:
            return SupportVerdict(True, best_x, cut.beta - best_val)

    if probe_segment is not None:
        inside, outside = probe_segment
        consider(line_search_boundary(cons, inside, outside).boundary_point)

    if isinstance(constraints, Problem):
        x0 = resolve_interior_point(constraints, interior_point)
        half = np.maximum(constraints.upper - x0, x0 - constraints.lower)
    elif interior_point is None:
        raise PreconditionError(
            "check_supporting needs interior_point when given bare constraints"
        )
    else:
        x0 = _strict_interior(cons, interior_point)
        half = np.ones(x0.size)

    if ascent_iters > 0 and best_val < cut.beta - tol:
        model = lp.LpModel(x0 - half, x0 + half, -cut.alpha)
        gauge = gauge_separator(cons, x0)

        def separate(x, eps):
            violation, cuts = gauge(x, eps)
            consider(cuts[0].point if cuts else x)
            return violation, cuts

        last_bound = -math.inf  # U at the end of the previous box
        for _ in range(_PROBE_DOUBLINGS + 1):
            # the LP is never infeasible: every cut keeps x0
            for sol, _, _ in islice(cutting_plane(model, separate, 0.0), ascent_iters):
                bound = float(cut.alpha @ sol.x)
                if best_val >= cut.beta - tol or bound - best_val <= tol:
                    break
            else:
                break  # out of iterations: not proven
            margin = lp.FEAS_TOL * (1.0 + half)
            on_face = np.any(sol.x - model.lower <= margin) or np.any(model.upper - sol.x <= margin)
            if best_val >= cut.beta - tol or not on_face or bound <= last_bound + tol:
                break
            last_bound = bound
            half = 2.0 * half
            model.lower, model.upper = x0 - half, x0 + half

    gap = math.inf if best_x is None else cut.beta - best_val
    if best_x is not None and _feasible_witness(cons, cut, best_x, tol):
        return SupportVerdict(True, best_x, gap)
    return SupportVerdict(False, None, gap)


def affine_on_segment(g: ex.Expr, x0, xbar, samples: int = 33) -> bool:
    """True iff ``lambda -> g(x0 + lambda (xbar - x0))`` is affine on [0, 1],
    decided by vanishing second differences at equispaced samples (relative
    to the function scale, floor 1)."""
    x0 = np.asarray(x0, dtype=float)
    xbar = np.asarray(xbar, dtype=float)
    if np.array_equal(x0, xbar):
        raise ValueError("segment endpoints must differ")
    if samples < 3:
        raise ValueError("need at least 3 samples for second differences")
    lams = np.linspace(0.0, 1.0, samples)
    P = x0 + lams[:, None] * (xbar - x0)
    rho = ex.eval_value(g, P)
    second = rho[2:] - 2.0 * rho[1:-1] + rho[:-2]
    scale = max(1.0, float(np.max(np.abs(rho))))
    return bool(np.all(np.abs(second) <= 1e-8 * scale))


def classify_quadratic(q: QuadraticForm) -> str:
    """For convex quadratic ``g = x^T A x + b^T x + c0``: are linearization
    cuts at infeasible points ever supporting to ``{g <= 0}``?

    Returns ``"always_supporting"`` when ``b`` is outside the range of ``A``
    (the sublevel set then has a direction along which ``g`` is affine and
    reaches it), else ``"never_supporting_from_infeasible"``.
    """
    eigmin = float(np.linalg.eigvalsh(q.A).min())
    if eigmin < -1e-9:
        raise ValueError(f"matrix is not positive semi-definite (min eigenvalue {eigmin:.3e})")
    z, *_ = np.linalg.lstsq(q.A, q.b, rcond=None)
    residual = float(np.linalg.norm(q.A @ z - q.b))
    in_range = residual <= 1e-8 * (1.0 + float(np.linalg.norm(q.b)))
    if in_range:
        # minimum exists: 2 A x* + b = 0 at x* = -z/2
        min_val = q.value(-0.5 * z)
        if min_val > 1e-9:
            raise ValueError(f"sublevel set is empty (minimum value {min_val:.6g} > 0)")
        return "never_supporting_from_infeasible"
    return "always_supporting"


def gauge_subgradient_check(
    constraints,
    x0,
    cut: Cut,
    sample_points,
    tol: float = _SUPPORT_TOL,
    sample_gauges: tuple[np.ndarray, np.ndarray] | None = None,
) -> bool:
    """Certify that a supporting cut, rescaled to ``a^T (x - x0) <= 1``, has
    normal ``a`` in the subdifferential of the gauge at the cut's support
    point: ``phi(xhat) + a^T (x - xhat) <= phi(x) + tol`` at every sample.

    Preconditions (violations raise): ``x0`` strictly interior, the cut
    strictly contains ``x0``, and the cut attains equality at its generation
    point within ``tol`` — a cut that merely separates, without touching the
    set, is rejected here.

    Sample points whose gauge cannot be bracketed (rays that never exit the
    set) are skipped with a warning.  ``sample_gauges`` can carry precomputed
    ``gauge_values(constraints, x0, sample_points)`` output to amortize grids
    across many cuts.
    """
    cons = as_constraints(constraints)
    x0 = np.asarray(x0, dtype=float)
    if cut.point is None:
        raise ValueError("cut carries no generation point to certify support at")
    xhat = cut.point
    denom = cut.beta - float(cut.alpha @ x0)
    if denom <= 0.0:
        raise PreconditionError(
            "cut does not strictly contain the interior point; cannot rescale "
            "to the gauge frame"
        )
    support_residual = abs(float(cut.alpha @ xhat) - cut.beta) / denom
    if support_residual > tol:
        raise PreconditionError(
            f"cut does not attain equality at its generation point "
            f"(relative residual {support_residual:.3e}); only supporting cuts "
            "can be gauge subgradients"
        )
    yhat = xhat - x0
    alpha_hat = cut.alpha / float(cut.alpha @ yhat)

    X = np.atleast_2d(np.asarray(sample_points, dtype=float))
    if sample_gauges is None:
        phi, ok = gauge_values(cons, x0, X)
    else:
        phi, ok = sample_gauges
        phi = np.asarray(phi, dtype=float)
        ok = np.asarray(ok, dtype=bool)
    skipped = int(np.count_nonzero(~ok))
    if skipped:
        warnings.warn(
            f"gauge_subgradient_check: skipped {skipped} sample point(s) whose "
            "gauge line search could not bracket a boundary crossing"
        )
    phi_hat_arr, hat_ok = gauge_values(cons, x0, xhat[None, :])
    if not hat_ok[0]:
        raise SeparationError("gauge of the support point could not be evaluated")
    phi_hat = float(phi_hat_arr[0])
    Y = X - x0
    lhs = phi_hat + Y @ alpha_hat - float(alpha_hat @ yhat)
    return bool(np.all(lhs[ok] <= phi[ok] + tol))
