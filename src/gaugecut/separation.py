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
it up to scaling.  The line search's first evaluation holds the separated
point itself, so the oracle reads its violation there and evaluates nothing
else.  :func:`check_supporting` runs the same loop on ``max alpha^T x``.
:func:`gauge_values` evaluates the gauge at any points, for
:func:`gauge_subgradient_check` to certify a normalized supporting cut as a
gauge subgradient inequality.  It and the line search share one ray-crossing
kernel: bisection that evaluates many rays, or several halvings of a few
rays, at once, and returns bit for bit the crossings of one halving per
evaluation (see :func:`_boundary_crossings`).  A point outside some
``g_j``'s domain lies outside ``C``.

:func:`affine_on_segment` and :func:`classify_quadratic` decide when plain
linearization cuts happen to be supporting: exactly when the constraint is
affine along some segment from the separated point into the feasible set; for
a convex quadratic ``x^T A x + b^T x + c0`` that is exactly when ``b`` is
outside the range of ``A``.
"""

from __future__ import annotations

import functools
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
# Newton steps a prediction takes at most from the secant root (see _predict)
_NEWTON_STEPS = 8
# What a wide halving adds to its midpoint for the new hi and lo, by whether
# max_j g_j > 0 there: +inf or -inf leaves that end as it was (see _bisect)
_TO_HI = np.array([math.inf, 0.0])
_TO_LO = np.array([0.0, -math.inf])

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

    ``violation`` is ``max_j g_j`` at the separated point (``inf`` outside
    some ``g_j``'s domain).  ``boundary_point`` is ``interior_point +
    lambda_star * (separated_point - interior_point)`` with ``|max_j g_j| <=
    BOUNDARY_TOL`` there, on the feasible side; ``gauge_value = 1 /
    lambda_star`` is the separated point's gauge about the interior point.
    ``active_set`` lists the constraints active there within the activity
    tolerance (never empty).  A search that stopped at ``violation <= eps``
    (see :func:`line_search_boundary`) has no crossing: ``lambda_star``,
    ``gauge_value`` and ``boundary_point`` are ``None``, ``active_set`` empty.
    """

    lambda_star: float | None
    gauge_value: float | None
    boundary_point: np.ndarray | None
    active_set: tuple[int, ...]
    interior_point: np.ndarray
    separated_point: np.ndarray
    violation: float


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


def line_search_boundary(
    constraints, x0, xbar, cfg: SolverConfig | None = None, eps: float | None = None
) -> GaugeResult:
    """Bisect ``max_j g_j`` to zero on the segment from the strict interior
    point ``x0`` to the infeasible ``xbar``.

    This is the gauge evaluation of :func:`gauge_values` for one ray, run to
    the relative bracket width ``cfg.line_search_tol`` and on until
    ``max_j g_j >= -BOUNDARY_TOL`` at the returned point.  Bisection needs
    only the sign change the preconditions guarantee, so it also handles
    non-convex constraint functions.  The kernel's first evaluation holds
    ``xbar`` itself as the bracket end ``t = 1``, and ``x0``, which it
    checks; ``xbar``'s value there is the result's ``violation``.  Only
    ``violation > 0`` is searched, so the crossing lies below ``t = 1``
    exactly when ``xbar`` is infeasible, also where ``x0 + 1.0 * (xbar -
    x0)`` differs from ``xbar`` by rounding, and then in sign.  The first
    evaluation also takes five halvings; the next follows the crossing
    predicted from the points evaluated so far (:func:`_predict`), and for
    most searches it is the last.  The active set comes from the kernel's
    values at the boundary point, so nothing is evaluated after the kernel
    returns.

    Given ``eps``, an ``xbar`` with ``violation <= eps`` is not searched and
    the result has no crossing (see :class:`GaugeResult`).  Any other
    feasible or non-finite ``xbar`` raises :class:`PreconditionError`.
    """
    cons = as_constraints(constraints)
    if cfg is None:
        cfg = SolverConfig()
    x0 = np.asarray(x0, dtype=float)
    xbar = np.asarray(xbar, dtype=float)
    d = xbar - x0
    t_star, ok, at_t, f1 = _boundary_crossings(
        cons, x0, d[None, :], tol=cfg.line_search_tol, settle=True,
        ends=xbar[None, :], stop=0.0 if eps is None else max(eps, 0.0),
    )
    violation = float(f1[0])
    if eps is not None and violation <= eps:
        return GaugeResult(None, None, None, (), x0, xbar, violation)
    if violation <= 0.0:
        raise PreconditionError(f"point to separate is feasible (max_j g_j = {violation:.6g})")
    if not ok[0]:
        if not np.isfinite(xbar).all():
            raise PreconditionError("point to separate is not finite")
        raise SeparationError(
            f"line search did not reach |max_j g_j| <= {BOUNDARY_TOL:g} within {_BISECTIONS} "
            "bisections: either the crossing lies within "
            f"{2.0 ** -_BISECTIONS / cfg.line_search_tol:.2g} of the segment's length from the "
            "interior point (the interior point lies on the boundary within tolerance, or the "
            "point to separate lies that far outside), or max_j g_j is too steep there to settle"
        )
    lo = float(t_star[0])
    xhat = lo * d + x0  # the point the kernel evaluated, bit for bit
    active = [0]  # a single constraint is the attaining one
    if len(cons) > 1:
        gvals = at_t[0]
        active = [j for j, g in enumerate(gvals) if g >= -cfg.activity_tol]
        if not active:
            active = [gvals.index(max(gvals))]
    return GaugeResult(
        lambda_star=lo,
        gauge_value=1.0 / lo,
        boundary_point=xhat,
        active_set=tuple(active),
        interior_point=x0,
        separated_point=xbar,
        violation=violation,
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
    :func:`esh_cut` cuts where the segment from ``x0`` to ``x`` leaves ``C``.
    Both come from one :func:`line_search_boundary` given ``eps``, whose
    first evaluation holds ``x`` itself: an ``eps``-feasible ``x`` costs
    that one evaluation."""
    cons = as_constraints(constraints)

    def separate(x, eps):
        gr = line_search_boundary(cons, x0, x, cfg, eps)
        return gr.violation, esh_cut(cons, gr)

    return separate


# ---------------------------------------------------------------------------
# Gauge evaluation along rays
# ---------------------------------------------------------------------------


def _constraint_rows(cons: Sequence[Constraint], P: np.ndarray) -> np.ndarray:
    """The ``(J, N)`` values ``g_j`` at the rows of ``P``; a row outside some
    ``g_j``'s domain is outside ``C`` and reads ``+inf`` in every constraint.
    A batch that raised is evaluated again in halves, down to single rows,
    so such a row leaves the others' values unchanged."""
    try:
        return constraint_values(cons, P)
    except EvalDomainError:
        if P.shape[0] == 1:
            return np.full((len(cons), 1), math.inf)
    h = P.shape[0] // 2
    return np.concatenate((_constraint_rows(cons, P[:h]), _constraint_rows(cons, P[h:])), axis=1)


def _fmax_rows(cons: Sequence[Constraint], P: np.ndarray) -> np.ndarray:
    """``max_j g_j`` at each row of ``P``, ``+inf`` outside a domain."""
    return _row_max(_constraint_rows(cons, P))


def _row_max(G: np.ndarray) -> np.ndarray:
    """``max_j`` of ``(J, N)`` per-constraint values, per column."""
    return functools.reduce(np.maximum, G)


def _boundary_crossings(
    cons: Sequence[Constraint],
    x0: np.ndarray,
    D: np.ndarray,
    tol: float = 1e-13,
    settle: bool = False,
    ends: np.ndarray | None = None,
    stop: float = -math.inf,
) -> tuple[np.ndarray, np.ndarray, list | None, np.ndarray]:
    """Per row of ``D``: the parameter ``t* > 0`` where ``max_j g_j(x0 + t d)``
    crosses zero, taken on the feasible side, bisected to a bracket width of
    at most ``tol * t_hi``.  ``settle`` also bisects on until ``max_j g_j >=
    -BOUNDARY_TOL`` at ``t*`` (grids leave it off: there it costs time and
    leaves steep rays open).  Rows whose ray never leaves the set within the
    doubling budget, or still open after ``_BISECTIONS`` halvings, get ``ok
    = False`` and a meaningless ``t*``.  Returns ``(t*, ok, at_t, f1)``:
    ``f1`` is ``max_j g_j`` at each first bracket end; for a narrow call, of
    1 to 21 rows, ``at_t[r]`` lists row ``r``'s per-constraint values at
    ``t*`` where ``ok`` and is ``None`` elsewhere; otherwise ``at_t = None``.

    The first evaluation takes the first bracket ends at ``t = 1`` (the rows
    of ``ends``, else ``x0 + 1.0 * d``), then ``x0``, which must be strictly
    interior, else :class:`PreconditionError`; with no rows it checks ``x0``
    alone.  A row whose first end has ``max_j g_j <= stop`` is not searched
    (``ok = False``).  A narrow call's first evaluation is also each row's
    first round on ``[0, 1]`` (see :func:`_round`), which a row that doubles
    plans afresh.  The doubling steps evaluate one point per open row.  The
    bisection halves every open row once per evaluation while 22 or more
    rows are open, several times below that, and returns exactly what
    halving one midpoint per evaluation would: each ``t*`` with ``ok`` is
    one it evaluated, as ``t* * d + x0``, and ``at_t`` holds the values of
    that evaluation."""
    k = D.shape[0]
    t_lo = np.zeros(k)
    t_hi = t_lo + 1.0
    Dt = np.ascontiguousarray(D.T)  # Dt[:, r] is row r's direction
    # the first ends in the layout of _ray_points (1.0 * d is d), then x0
    P = np.empty((x0.size, k + 1))
    if ends is None:
        np.add(Dt, x0[:, None], out=P[:, :k])
    else:
        P[:, :k] = ends.T
    P[:, k] = x0
    narrow = 0 < k <= _ROUND_POINTS // 3
    if narrow:  # x0 and the first ends are each ray's values at [0, 1]
        rays = [_Ray(0.0, 1.0, -math.inf, 0, [(0.0, k), (1.0, r)], r) for r in range(k)]
        G, f_hi = _round(cons, x0, Dt, rays, False, P)
    else:
        G = _constraint_rows(cons, P.T)
        f_hi = G.max(axis=0)
        del G  # as large as a grid: not kept through the doublings
    del P
    if f_hi[k] >= 0.0:
        raise PreconditionError(
            f"interior point is not strictly interior (max_j g_j = {f_hi[k]:.6g})"
        )
    f1 = f_hi[:k]
    searched = f1 > stop
    need = searched & (f1 <= 0.0)
    for _ in range(_DOUBLINGS):
        if not need.any():
            break
        t_lo[need] = t_hi[need]
        t_hi[need] *= 2.0
        idx = np.nonzero(need)[0]
        Gd = _constraint_rows(cons, _ray_points(x0, t_hi[idx], Dt.take(idx, axis=1)))
        if narrow:  # a ray that doubles plans its first round afresh
            for r, g in zip(idx.tolist(), Gd.T.tolist()):
                ray = rays[r]
                ray.lo, ray.hi = ray.hi, 2.0 * ray.hi
                ray.pts = [ray.pts[1], (ray.hi, g), ray.pts[0], *ray.pts[2:4]]
                ray.plan = None
        need[idx] = _row_max(Gd) <= 0.0
    ok = searched & ~need
    if not narrow:
        rows = np.nonzero(ok)[0]
        for start in range(0, rows.size, _BLOCK_ROWS):
            block = rows[start:start + _BLOCK_ROWS]
            ok[_bisect(cons, x0, Dt, block, t_lo, t_hi, tol, settle)] = False
        return t_lo, ok, None, f1
    bracketed = ok.tolist()
    at_t = [None] * k
    still_open = _rounds(cons, x0, Dt, [ray for ray in rays if bracketed[ray.row]], t_lo, tol,
                         settle, at_t, (G, f_hi))
    if still_open:
        ok[still_open] = False
    return t_lo, ok, at_t, f1


def _ray_points(x0: np.ndarray, t: np.ndarray, Dt: np.ndarray) -> np.ndarray:
    """The points ``x0 + t[r] * Dt[:, r]``, as the rows of the transpose of
    a C-ordered ``(n, N)`` array (see :func:`_bisect` for why)."""
    P = np.multiply(t, Dt, order="C")
    P += x0[:, None]
    return P.T


def _tree(a: float, b: float, depth: int) -> list[float]:
    """The ``2^depth - 1`` midpoints that ``depth`` halvings of ``[a, b]``
    can visit, each the ``0.5 * (lo + hi)`` of the bracket a halving would
    split there, in heap order: level by level from the first halving's,
    each level in increasing order, so the ``i``-th midpoint's halving goes
    on to the ``(2i + 1)``-th below it and the ``(2i + 2)``-th above it."""
    points = [a, b]
    for lo, hi in _tree_brackets(depth):
        points.append(0.5 * (points[lo] + points[hi]))
    return points[2:]


@functools.cache
def _tree_brackets(depth: int) -> tuple[tuple[int, int], ...]:
    """Where the bracket ends of each midpoint of :func:`_tree` are in the
    list ``[a, b]`` followed by the midpoints."""
    brackets = [(0, 1)]
    for i in range(2 ** depth // 2 - 1):  # the i-th midpoint is at i + 2
        lo, hi = brackets[i]
        brackets += [(lo, i + 2), (i + 2, hi)]
    return tuple(brackets[:2 ** depth - 1])


def _predict(a: float, b: float, pts: list) -> float | None:
    """The crossing predicted in ``[a, b]`` from a ray's kept points
    ``pts``, ``(t, per-constraint values)`` with the ends ``a`` and ``b``
    first (see :class:`_Ray`): the smallest root over the ``g_j`` that cross
    zero there, ``g_j(a) <= 0 < g_j(b) < inf``.  Each is the root of the
    polynomial through the points where ``g_j`` is finite and ``t`` is new,
    by Newton steps from the secant root through the two ends, which stands
    where that root is not in ``[a, b]``.  ``None`` when no ``g_j`` crosses
    there, as at a domain edge."""
    roots = []
    ga, gb = pts[0][1], pts[1][1]
    for j, (u, v) in enumerate(zip(ga, gb)):
        if u <= 0.0 < v < math.inf:
            ts, ys = [a, b], [u, v]
            for t, g in pts[2:]:
                if g[j] < math.inf and t not in ts:  # only distinct t divide
                    ts.append(t)
                    ys.append(g[j])
            roots.append(_poly_root(ts, ys, a - u * (b - a) / (v - u), a, b))
    return min(roots, default=None)


def _poly_root(ts: list, ys: list, t: float, a: float, b: float) -> float:
    """The root in ``[a, b]`` of the polynomial through the points ``(ts,
    ys)``, by Newton steps from ``t`` until one leaves it unchanged, at most
    ``_NEWTON_STEPS``; ``t`` is returned where they do not end in ``[a,
    b]``."""
    c = list(ys)  # divided differences, in place: the Newton form's coefficients
    for k in range(1, len(ts)):
        for i in range(len(ts) - 1, k - 1, -1):
            c[i] = (c[i] - c[i - 1]) / (ts[i] - ts[i - k])
    x = t
    for _ in range(_NEWTON_STEPS):
        p, dp = c[-1], 0.0
        for ti, ci in zip(ts[-2::-1], c[-2::-1]):
            dp = dp * (x - ti) + p
            p = p * (x - ti) + ci
        if not dp:  # a flat polynomial
            break
        x, last = x - p / dp, x
        if x == last:
            break
    return x if a <= x <= b else t


def _bisect(cons, x0, Dt, rows, t_lo, t_hi, tol, settle):
    """Bisect the brackets ``[t_lo, t_hi]`` of ``rows`` of a call of 22 or
    more rows, writing each closed row's ``t_lo``; returns the rows still
    open after ``_BISECTIONS`` halvings.  ``Dt[:, r]`` is row ``r``'s
    direction.  A round with 22 or more open rows is one plain halving of
    every row on arrays; the rows that remain below that go to
    :func:`_rounds`, without a prediction."""
    # Dt[:, r] is row r's direction, and a round's points are the transpose
    # of an (n, N) array: numpy builds and evaluates its contiguous
    # coordinates much faster than the strided columns of an (N, n) one, and
    # its elementwise functions give the same values in either layout.
    # A halving moves hi or lo to mid by min and max, not np.where: on a grid
    # the sign of fm is a fair coin per ray, so np.where's per-element branch
    # mispredicts about half the time (on a 4-D grid, the two np.where calls
    # took about 85 us of a 320 us halving of 8192 rows; min and max take
    # 45).  The result is the same: 0 < mid, lo <= mid <= hi < inf and fm is
    # never NaN (a row outside a domain reads +inf), so min(hi, mid + 0.0) is
    # mid, min(hi, mid + inf) hi, max(lo, mid + 0.0) mid and max(lo, mid -
    # inf) lo.  f_lo keeps np.where: only a line search, one ray, settles
    lo, hi, Dt = t_lo[rows], t_hi[rows], Dt.take(rows, axis=1)
    f_lo = np.full(rows.size, -math.inf)  # unknown until a halving lands inside
    done = 0
    while 3 * rows.size > _ROUND_POINTS and done < _BISECTIONS:
        done += 1
        mid = 0.5 * (lo + hi)
        fm = _fmax_rows(cons, _ray_points(x0, mid, Dt))
        above = (fm > 0.0).view(np.uint8)
        hi = np.minimum(hi, mid + _TO_HI.take(above))
        lo = np.maximum(lo, mid + _TO_LO.take(above))
        keep = hi - lo > tol * hi
        if settle:
            f_lo = np.where(above, f_lo, fm)
            keep |= f_lo < -BOUNDARY_TOL
        if not keep.all():
            t_lo[rows[~keep]] = lo[~keep]
            rows, lo, hi, f_lo = rows[keep], lo[keep], hi[keep], f_lo[keep]
            Dt = Dt.compress(keep, axis=1)
    if done == _BISECTIONS:
        return rows
    live = [_Ray(a, b, fl, done, None, r)
            for r, (a, b, fl) in enumerate(zip(lo.tolist(), hi.tolist(), f_lo.tolist()))]
    still_open = _rounds(cons, x0, Dt, live, lo, tol, settle)  # closes rows in lo
    t_lo[rows] = lo
    return rows[still_open]


class _Ray:
    """A row of :func:`_rounds`: its bracket ``[lo, hi]`` after ``n``
    halvings, ``f_lo`` the ``max_j g_j`` at ``lo`` (``-inf`` until a halving
    lands there), its last five evaluated points ``pts``, each ``(t,
    per-constraint values)``, the values a list or a column of the round's
    values, the ends ``lo`` and ``hi`` first and then the latest others (a
    wide call's tail keeps none), its ``row``, which is its column of ``Dt``
    and its index in ``t_lo``, and the ``plan`` of its round (see
    :func:`_round`)."""

    __slots__ = ("lo", "hi", "f_lo", "n", "pts", "row", "plan")

    def __init__(self, lo, hi, f_lo, n, pts, row):
        self.lo, self.hi, self.f_lo, self.n = lo, hi, f_lo, n
        self.pts, self.row, self.plan = pts, row, None


def _kept(pts: list, seen: list, a: float, b: float, G: np.ndarray) -> list:
    """The points a ray keeps after a round that evaluated ``seen``, ``(t,
    column of G)`` in order, and left the bracket ``[a, b]``: the points at
    ``a`` and ``b``, then the three latest others, each with its values as a
    list."""
    ends, others = [None, None], []
    for t, g in [*reversed(seen), *pts]:
        if t == a and ends[0] is None:
            ends[0] = (t, g)
        elif t == b and ends[1] is None:
            ends[1] = (t, g)
        elif len(others) < 3:
            others.append((t, g))
    return [(t, G[:, g].tolist() if type(g) is int else g) for t, g in ends + others]


def _rounds(cons, x0, Dt, live, t_lo, tol, settle, at_t=None, first=None):
    """Bisect the :class:`_Ray` rows ``live``, at most 21, several halvings
    per evaluation, writing each closed row's ``t_lo``; returns the rows
    still open after ``_BISECTIONS`` halvings.  Rows predict only when
    ``at_t`` is given, which then gets each closed row's values at its
    ``t_lo``, and each open row keeps its last points for the prediction
    (see :func:`_kept`).  ``first`` is the first round, if evaluated with
    the first bracket ends, as :func:`_round` returns it; a row that doubled
    has no plan there.

    The halvings are replayed on Python floats, which round as float64
    does, each deciding on the value at its own midpoint ``m = 0.5 * (lo +
    hi)``: where ``max_j g_j > 0`` it becomes ``hi``, elsewhere ``lo``.  The
    replay goes by index from the ``i``-th midpoint of the row's tree to the
    ``(2i + 1)``-th or ``(2i + 2)``-th, then along its path while every
    halving went the way the prediction ``p`` says (``m > p`` for ``hi``).
    A round ends at the first midpoint not evaluated, so a wrong prediction
    costs halvings, never a different crossing.  The stop test runs after
    every halving, so a row closes where one halving per evaluation would,
    also where the ray leaves and re-enters the set."""
    G, F = first or (None, None)
    still_open = []
    while live:
        if G is None:
            G, F = _round(cons, x0, Dt, live, at_t is not None)
        F = F.tolist()
        nxt = []
        for ray in live:
            a, b, fl, n, r = ray.lo, ray.hi, ray.f_lo, ray.n, ray.row
            ga, seen = None, []  # lo's column, once a halving lands there; (m, column)s
            closed = False
            if ray.plan is not None:
                tree, size, path, end, p = ray.plan
                col, i, on = tree, 0, p is not None
                # the plan ends within the row's budget of halvings
                while True:
                    m = 0.5 * (a + b)
                    f = F[col]
                    n += 1
                    seen.append((m, col))
                    above = f > 0.0
                    if above:
                        b = m
                    else:
                        a, ga, fl = m, col, f
                    if not (b - a > tol * b or settle and fl < -BOUNDARY_TOL):
                        closed = True
                        break
                    if on:
                        on = above == (m > p)
                    if i < size:  # the tree's next level, or the path below it
                        i += i + 2 - above
                        if i < size:
                            col = tree + i
                            continue
                        col = path
                    else:
                        col += 1
                    if not (on and col < end):
                        break
            if closed:
                t_lo[r] = a
                if at_t is not None:
                    g = ray.pts[0][1] if ga is None else ga
                    at_t[r] = G[:, g].tolist() if type(g) is int else g
            elif n == _BISECTIONS:
                still_open.append(r)
            else:
                ray.lo, ray.hi, ray.f_lo, ray.n = a, b, fl, n
                if at_t is not None:
                    ray.pts = _kept(ray.pts, seen, a, b, G)
                nxt.append(ray)
        live, G = nxt, None
    return still_open


def _round(cons, x0, Dt, live, predict, lead=None):
    """Plan and evaluate a round of :func:`_rounds`: set each row's
    ``plan``, ``(tree, size, path, end, p)``: its :func:`_tree` at columns
    ``tree`` on, its path at ``path`` to ``end`` and its prediction ``p`` or
    ``None``; return the round's per-constraint values and their ``max_j``.
    The ``L`` columns of ``lead``, if given, are evaluated first and take
    ``L`` of the round's points.  Each of ``R`` rows gets ``B`` of the rest:
    without a prediction (the first round, a wide call's tail, a domain
    edge) the tree of ``d`` halvings, the most with ``2^d - 1 <= B``; with
    one, from :func:`_predict` on the row's kept points, that tree one level
    shallower and below it the midpoints bisection visits if ``p`` is right,
    so a row gains at least ``d - 1`` halvings a round."""
    start = 0 if lead is None else lead.shape[1]
    b_row = (_ROUND_POINTS - start) // len(live)
    d = (b_row + 1).bit_length() - 1
    T, reps = [], [0] * Dt.shape[1]  # reps[r]: points of row r
    for ray in live:
        a, b, n = ray.lo, ray.hi, ray.n
        p = _predict(a, b, ray.pts) if predict else None
        depth = min(d - (p is not None), _BISECTIONS - n)
        tree = len(T)
        T += _tree(a, b, depth)
        path = len(T)
        if p is not None:  # the predicted path, past the tree's levels
            for s in range(depth + min(b_row - (path - tree), _BISECTIONS - n - depth)):
                m = 0.5 * (a + b)
                if m > p:
                    b = m
                else:
                    a = m
                if s >= depth:
                    T.append(m)
        ray.plan = (start + tree, path - tree, start + path, start + len(T), p)
        reps[ray.row] = len(T) - tree
    # live rows stay in order, so T's points are in repeat's order
    Dr = Dt[:, live[0].row, None] if len(live) == 1 else np.repeat(Dt, reps, axis=1)
    P = _ray_points(x0, np.fromiter(T, float, len(T)), Dr)
    if lead is not None:
        P = np.concatenate((lead, P.T), axis=1).T
    G = _constraint_rows(cons, P)
    return G, _row_max(G)


def gauge_values(constraints, x0, points) -> tuple[np.ndarray, np.ndarray]:
    """Gauge of each point in the frame centered at the strict interior point
    ``x0``, evaluated by line search along the ray from ``x0`` through the
    point (boundary crossing at ``t*`` gives gauge ``1/t*``; feasible points
    have ``t* >= 1``).

    Returns ``(phi, ok)``; rows with ``ok == False`` could not bracket a
    boundary crossing (the ray stays feasible forever, e.g. along a recession
    direction) and their ``phi`` is meaningless.  Points outside the
    constraints' domain lie outside the set: their ``phi`` exceeds 1.  The
    kernel checks ``x0``, also when every point equals it.
    """
    cons = as_constraints(constraints)
    x0 = np.asarray(x0, dtype=float)
    X = np.atleast_2d(np.asarray(points, dtype=float))
    phi = np.zeros(X.shape[0])
    ok = np.ones(X.shape[0], dtype=bool)
    nonzero = np.nonzero(np.any(X != x0, axis=1))[0]
    # the directions are built in the (n, k) layout the kernel reads, so it
    # needs no copy of its own
    Dt = np.subtract(X[nonzero].T, x0[:, None], order="C")
    t_star, ray_ok, _, _ = _boundary_crossings(cons, x0, Dt.T)
    phi[nonzero] = np.where(ray_ok, 1.0 / np.maximum(t_star, 1e-300), 0.0)
    ok[nonzero] = ray_ok
    return phi, ok


# ---------------------------------------------------------------------------
# Supportingness probes
# ---------------------------------------------------------------------------


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
    boundary point ``x`` gives ``L = alpha^T x`` from below (only the
    generation point, which can be any point, is evaluated for feasibility).
    The verdict is ``True``, with that point as witness, once ``L >= beta -
    tol``.  Once ``U - L <= tol``:

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

    def consider(x: np.ndarray) -> None:  # x lies in C within tol
        nonlocal best_x, best_val
        v = float(cut.alpha @ x)
        if v > best_val:
            best_val = v
            best_x = x

    if cut.point is not None and max_violation(cons, cut.point)[0] <= tol:
        consider(cut.point)
        if abs(cut.violation(cut.point)) <= tol:
            return SupportVerdict(True, cut.point, cut.beta - best_val)

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
        x0 = np.asarray(interior_point, dtype=float)
        _boundary_crossings(cons, x0, np.empty((0, x0.size)))  # checks x0 alone
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
    # every point consider kept lies in C within tol
    if best_x is not None and abs(cut.violation(best_x)) <= tol:
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
    across many cuts: ``(phi, ok)``, each of shape ``(N,)`` for ``N`` sample
    points, else :class:`ValueError`.  The inequality is checked in blocks of
    ``_BLOCK_ROWS`` samples, so a grid costs no grid-sized temporaries, and
    the first block with a violation decides.
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
        if phi.shape != X.shape[:1] or ok.shape != X.shape[:1]:
            raise ValueError(
                f"sample_gauges must have shape ({X.shape[0]},) for {X.shape[0]} sample "
                f"points; phi has shape {phi.shape} and ok {ok.shape}"
            )
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
    at_hat = float(alpha_hat @ yhat)
    for start in range(0, X.shape[0], _BLOCK_ROWS):
        b = slice(start, start + _BLOCK_ROWS)
        lhs = phi_hat + (X[b] - x0) @ alpha_hat - at_hat
        if not np.all((lhs <= phi[b] + tol) | ~ok[b]):
            return False
    return True
