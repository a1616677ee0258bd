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
one batch: a dyadic tree, and below it the path bisection takes if a
per-constraint interpolation of the crossing is right.  For a few rays the
first evaluation, of the first bracket ends and the interior point, also
holds each ray's first tree, and the kernel hands back the per-constraint
values at each crossing, from which the line search takes its active set.
Each halving still decides on the value at its own midpoint, so each
crossing is bit for bit the one that one halving per evaluation returns; the
prediction only saves evaluations.  A point outside some ``g_j``'s domain
lies outside ``C``.

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
    restriction to the segment is not monotone.  The kernel's first
    evaluation holds the first bracket end ``x0 + 1.0 * (xbar - x0)``, which
    is ``xbar`` up to rounding, then ``x0``, which it checks, and the 31
    midpoints of the first five halvings of ``[0, 1]``.  Each later
    evaluation of up to 64 points covers at least five halvings, and usually
    many more along the path a per-constraint interpolation predicts; they
    are then taken on Python floats, and the result is the one a halving at
    a time gives.  The crossing stays below ``t = 1`` exactly when that end
    is infeasible, so the crossing also tells whether ``xbar`` is.  The
    active set comes from the kernel's values at the boundary point, which
    it evaluated, so nothing is evaluated after the kernel returns.  A
    non-finite ``xbar`` raises :class:`PreconditionError`.
    """
    cons = as_constraints(constraints)
    if cfg is None:
        cfg = SolverConfig()
    x0 = np.asarray(x0, dtype=float)
    xbar = np.asarray(xbar, dtype=float)
    D = (xbar - x0)[None, :]
    t_star, ok, at_t = _boundary_crossings(cons, x0, D, tol=cfg.line_search_tol, settle=True)
    if t_star[0] >= 1.0:  # t_lo leaves [0, 1) only by doubling past a feasible first end
        f1 = _fmax_rows(cons, x0 + 1.0 * D)[0]
        raise PreconditionError(
            f"point to separate is feasible (max_j g_j = {f1:.6g})"
        )
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
    xhat = x0 + lo * (xbar - x0)  # the point lo * d + x0 the kernel evaluated, bit for bit
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
    G = _constraint_rows(cons, P)
    return G[0] if len(G) == 1 else G.max(axis=0)


def _boundary_crossings(
    cons: Sequence[Constraint],
    x0: np.ndarray,
    D: np.ndarray,
    tol: float = 1e-13,
    settle: bool = False,
) -> tuple[np.ndarray, np.ndarray, list | None]:
    """Per row of ``D``: the parameter ``t* > 0`` where ``max_j g_j(x0 + t d)``
    crosses zero, taken on the feasible side, bisected to a bracket width of
    at most ``tol * t_hi``.  ``settle`` also bisects on until ``max_j g_j >=
    -BOUNDARY_TOL`` at ``t*`` (grids leave it off: there it costs time and
    leaves steep rays open).  Rows whose ray never leaves the set within the
    doubling budget, or still open after ``_BISECTIONS`` halvings, get ``ok
    = False`` and a meaningless ``t*``.  Returns ``(t*, ok, at_t)``: for a
    narrow call, of 1 to 21 rows, ``at_t[r]`` lists row ``r``'s
    per-constraint values at its ``t*`` where ``ok`` and is ``None``
    elsewhere; any other call gives ``at_t = None``.

    The first evaluation takes the first bracket ends ``x0 + 1.0 * d``, then
    ``x0``, which must be strictly interior: ``max_j g_j(x0) < 0``, else
    :class:`PreconditionError`.  With no rows it checks ``x0`` alone.  A
    narrow call's first evaluation then takes each row's first round, the
    dyadic tree of :func:`_first_tree`, so a row whose first end is
    infeasible takes its first halvings with no evaluation of its own; one
    that doubles plans its first round in :func:`_rounds`.  A narrow call
    also keeps each row's per-constraint values at its bracket ends for
    :func:`_predict`.  The doubling steps evaluate one point per open row.
    The bisection halves every open row once per evaluation while 22 or more
    rows are open and several times per evaluation below that, and returns
    exactly what halving one midpoint per evaluation would: each ``t*`` with
    ``ok`` is one it evaluated, as the point ``t* * d + x0``, and ``at_t``
    holds the values of that evaluation."""
    k = D.shape[0]
    t_lo = np.zeros(k)
    t_hi = np.ones(k)
    Dt = np.ascontiguousarray(D.T)  # Dt[:, r] is row r's direction
    narrow = 0 < k <= _ROUND_POINTS // 3
    tree, columns = _first_tree(k) if narrow else (np.empty(0), None)
    m = tree.size
    # the first ends in the layout of _ray_points (1.0 * d is d), then x0,
    # then row r's tree at the columns from k + 1 + r * m on
    P = np.empty((x0.size, k + 1 + k * m))
    np.add(Dt, x0[:, None], out=P[:, :k])
    P[:, k] = x0
    if m:
        trees = P[:, k + 1:].reshape(x0.size, k, m)  # a view: it splits the last axis
        np.multiply(Dt[:, :, None], tree, out=trees)
        trees += x0[:, None, None]
    G = _constraint_rows(cons, P.T)
    f_hi = G.max(axis=0)
    if narrow:  # [g(t_lo), g(t_hi)] per row
        ends = [[G[:, k].tolist(), g] for g in G[:, :k].T.tolist()]
    else:
        del G  # as large as a grid: not kept through the doublings
    del P
    if f_hi[k] >= 0.0:
        raise PreconditionError(
            f"interior point is not strictly interior (max_j g_j = {f_hi[k]:.6g})"
        )
    need = f_hi[:k] <= 0.0
    for _ in range(_DOUBLINGS):
        if not need.any():
            break
        t_lo[need] = t_hi[need]
        t_hi[need] *= 2.0
        idx = np.nonzero(need)[0]
        Gd = _constraint_rows(cons, _ray_points(x0, t_hi[idx], Dt.take(idx, axis=1)))
        if narrow:
            for r, g in zip(idx.tolist(), Gd.T.tolist()):
                ends[r] = [ends[r][1], g]
        need[idx] = Gd.max(axis=0) <= 0.0
    ok = ~need
    if not narrow:
        rows = np.nonzero(ok)[0]
        for start in range(0, rows.size, _BLOCK_ROWS):
            block = rows[start:start + _BLOCK_ROWS]
            ok[_bisect(cons, x0, Dt, block, t_lo, t_hi, tol, settle)] = False
        return t_lo, ok, None
    # a row that doubled plans its first round; any other has it in G
    live, ats = [], []
    for r, (a, b, bracketed) in enumerate(zip(t_lo.tolist(), t_hi.tolist(), ok.tolist())):
        if bracketed:
            live.append([a, b, None, -math.inf, 0, *ends[r], None, r, r])
            ats.append({} if b > 1.0 else columns[r])
    at_t = [None] * k
    ok[_rounds(cons, x0, Dt, live, t_lo, tol, settle, at_t, (G, f_hi.tolist(), ats))] = False
    return t_lo, ok, at_t


def _ray_points(x0: np.ndarray, t: np.ndarray, Dt: np.ndarray) -> np.ndarray:
    """The points ``x0 + t[r] * Dt[:, r]``, as the rows of the transpose of
    a C-ordered ``(n, N)`` array (see :func:`_bisect` for why)."""
    P = np.multiply(t, Dt, order="C")
    P += x0[:, None]
    return P.T


def _tree(a: float, b: float, depth: int) -> list[float]:
    """The ``2^depth - 1`` midpoints that ``depth`` halvings of ``[a, b]``
    can visit, in increasing order, each the ``0.5 * (lo + hi)`` of the
    bracket a halving would split there."""
    cut = [a, b]  # [a, b] cut into dyadic pieces, one level of halvings at a time
    for _ in range(depth):
        finer = [a]
        for u, v in zip(cut, cut[1:]):
            finer += (0.5 * (u + v), v)
        cut = finer
    return cut[1:-1]


@functools.cache
def _first_tree(k: int) -> tuple[np.ndarray, list[dict[float, int]]]:
    """The first round of each row of a narrow call of ``k`` rows: the
    dyadic tree on ``[0, 1]`` of the largest depth ``d`` with ``(k + 1) + k
    (2^d - 1) <= _ROUND_POINTS``, so that the first evaluation, of ``k``
    first ends, ``x0`` and ``k`` trees, stays within one round's points and
    on the blocked tape (``d = 5`` for one row, 1 for 21).  Returns the
    tree's midpoints and, per row ``r``, the map from each midpoint to its
    column ``k + 1 + r m + i`` of the first evaluation; neither is to be
    changed."""
    tree = _tree(0.0, 1.0, ((_ROUND_POINTS - 1) // k).bit_length() - 1)
    m = len(tree)
    points = np.array(tree)
    points.flags.writeable = False
    return points, [dict(zip(tree, range(k + 1 + r * m, k + 1 + (r + 1) * m))) for r in range(k)]


def _predict(a: float, b: float, c, ga, gb, gc) -> float | None:
    """The crossing predicted in ``[a, b]`` from the per-constraint values
    ``ga``, ``gb`` at its ends and ``gc`` at ``c``, the end last given up
    (``None`` if unknown): the smallest root over the ``g_j`` that cross
    zero there, each by inverse quadratic interpolation through the three
    points where that root lies in ``[a, b]``, else by the secant through
    the two ends.  ``None`` when some end's values are unknown or, as at a
    domain edge, not finite."""
    roots = []
    # unknown ends give no roots; an unknown third point reads w = u, the secant
    for u, v, w in zip(ga or (), gb or (), gc or ga or ()):
        if u <= 0.0 < v < math.inf:
            t = a - u * (b - a) / (v - u)
            if w != u and w != v and w < math.inf:  # only distinct values divide
                q = (a * v / (u - v) * w / (u - w) + b * u / (v - u) * w / (v - w)
                     + c * u / (w - u) * v / (w - v))
                t = q if a <= q <= b else t
            roots.append(t)
    return min(roots, default=None)


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
    live = [[a, b, None, fl, done, None, None, None, r, c]
            for c, (r, a, b, fl) in enumerate(zip(*(v.tolist() for v in (rows, lo, hi, f_lo))))]
    return _rounds(cons, x0, Dt, live, t_lo, tol, settle)


def _rounds(cons, x0, Dt, live, t_lo, tol, settle, at_t=None, first=None):
    """Bisect at most 21 open rows several halvings per evaluation, writing
    each closed row's ``t_lo``; returns the rows still open after
    ``_BISECTIONS`` halvings.  A row of ``live`` is ``[lo, hi, the end last
    given up, f_lo, halvings, g at those three, row, column of Dt]``, its
    ``g`` per-constraint value lists or ``None`` where unknown.  Rows
    predict only when ``at_t`` is given, which then gets each closed row's
    values at its ``t_lo``.  ``first``, if given, is the first round,
    evaluated with the first bracket ends: its per-constraint values, their
    ``max_j`` as a list and, per row of ``live``, a map from each midpoint
    it holds for the row to its column, empty for a row that doubled, which
    plans its first round in the next.

    Each of ``R`` rows of a round to plan gets ``B = _ROUND_POINTS // R``
    points of one evaluation.  A row without a prediction (see
    :func:`_predict`: the tail of a wide call, a domain edge) spends them on
    the dyadic tree of ``d`` halvings, the most with ``2^d - 1 <= B``.  A
    row with one takes that tree one level shallower and spends the rest of
    its ``B`` below it, on the midpoints bisection visits if the predicted
    crossing is right.  Each midpoint is computed as the same ``0.5 * (lo +
    hi)`` of the same bracket ends a single halving would use.  The halvings
    are then replayed row by row on Python floats, which round as numpy's
    float64 does, each deciding on the value at its own midpoint: one where
    ``max_j g_j > 0`` becomes ``hi``, any other ``lo``.  A row's round ends
    at its first midpoint that was not evaluated, so a wrong prediction
    costs halvings, never a different crossing, and a row gains at least
    ``d - 1`` halvings a round.  The stop test runs after every halving, and
    halvings are counted per row, so a row closes with the ``t_lo`` of the
    first halving where it holds, as one halving per evaluation would close
    it, also where the ray leaves and re-enters the set."""
    G, F, ats = first or (None, None, None)
    still_open = []
    while live:
        if ats is None:
            b_row = _ROUND_POINTS // len(live)
            d = (b_row + 1).bit_length() - 1
            T, ats, reps = [], [], [0] * Dt.shape[1]  # reps[col]: points of that row
            for a, b, c, _, n, ga, gb, gc, _, col in live:
                p = _predict(a, b, c, ga, gb, gc)
                depth = min(d - (p is not None), _BISECTIONS - n)
                pts = _tree(a, b, depth)
                if p is not None:  # the predicted path, past the tree's levels
                    path = []
                    for _ in range(min(b_row - len(pts) + depth, _BISECTIONS - n)):
                        path.append(m := 0.5 * (a + b))
                        a, b = (a, m) if m > p else (m, b)
                    pts += path[depth:]
                # midpoint -> column of G
                ats.append(dict(zip(pts, range(len(T), len(T) + len(pts)))))
                T += pts
                reps[col] = len(pts)
            # live rows stay in the order of their columns, so T's points are in repeat's order
            Dr = Dt[:, live[0][-1], None] if len(live) == 1 else np.repeat(Dt, reps, axis=1)
            G = _constraint_rows(cons, _ray_points(x0, np.array(T), Dr))
            F = G.max(axis=0).tolist()
        nxt = []
        for (a, b, c, fl, n, ga, gb, gc, r, col), at in zip(live, ats):
            while n < _BISECTIONS:
                m = 0.5 * (a + b)
                i = at.get(m)
                if i is None:
                    # a column of G becomes a list; a wide call's tail never predicts
                    ga, gb, gc = ((None,) * 3 if at_t is None else
                                  [G[:, g].tolist() if type(g) is int else g for g in (ga, gb, gc)])
                    nxt.append([a, b, c, fl, n, ga, gb, gc, r, col])
                    break
                n += 1
                if F[i] > 0.0:
                    c, gc, b, gb = b, gb, m, i
                else:
                    c, gc, a, ga, fl = a, ga, m, i, F[i]
                if not (b - a > tol * b or settle and fl < -BOUNDARY_TOL):
                    t_lo[r] = a
                    if at_t is not None:
                        at_t[r] = G[:, ga].tolist() if type(ga) is int else ga
                    break
            else:
                still_open.append(r)
        live, ats = nxt, None
    return still_open


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
    t_star, ray_ok, _ = _boundary_crossings(cons, x0, Dt.T)
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
