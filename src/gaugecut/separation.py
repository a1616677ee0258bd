"""Cut generation and the geometry toolkit around it.

Two ways to separate an infeasible point ``xbar`` from ``C = {g_j <= 0}``:

* :func:`kelley_cut` linearizes a violated constraint at ``xbar`` itself.
  Such cuts are valid for convex ``g`` but in general do not touch ``C``.
* :func:`line_search_boundary` + :func:`esh_cut` first walk from a strict
  interior point toward ``xbar`` until the boundary, then linearize the
  active constraints there.  These cuts support ``C`` by construction, and
  the construction works even when the ``g_j`` are non-convex functions with
  a convex sublevel set, as long as active gradients do not vanish on the
  boundary.

The line search simultaneously evaluates the gauge (Minkowski functional) of
``C`` with respect to the interior point: the boundary crossing at parameter
``lambda*`` gives gauge value ``1/lambda*``.  :func:`gauge_values` extends the
evaluation to arbitrary points (feasible ones get ``lambda* > 1``), which is
what :func:`gauge_subgradient_check` uses to certify that a normalized
supporting cut is a subgradient inequality of the gauge.  Both run on one
ray-crossing kernel.  ``C`` lies inside every ``g_j``'s domain, so the
kernel treats a point where some ``g_j`` cannot be evaluated
(:class:`~gaugecut.errors.EvalDomainError`) as a point outside ``C``.

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
from typing import Sequence

import numpy as np

from . import expr as ex
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
    "check_supporting",
    "affine_on_segment",
    "classify_quadratic",
    "gauge_subgradient_check",
    "gauge_values",
]

# |max_j g_j| allowed at a returned boundary point
BOUNDARY_TOL = 1e-9
_DOUBLINGS = 60
_BISECTIONS = 100

_SUPPORT_TOL = 1e-7


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

    ``max_violation_gap`` is the smallest observed slack ``beta - alpha^T x``
    over the probed boundary candidates; zero (within tolerance) at a
    supporting cut.  The search is a heuristic for arbitrary cuts (false
    negatives possible on nasty geometry); cuts generated at a boundary point
    carry their own witness and are decided exactly.
    """

    supporting: bool
    witness: np.ndarray | None
    max_violation_gap: float


# ---------------------------------------------------------------------------
# Gradient cuts
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
    restriction to the segment is not monotone.  An ``xbar`` outside the
    constraints' domain counts as infeasible.
    """
    cons = as_constraints(constraints)
    if cfg is None:
        cfg = SolverConfig()
    x0 = _strict_interior(cons, x0)
    xbar = np.asarray(xbar, dtype=float)
    f1 = float(_fmax_rows(cons, xbar[None, :])[0])
    if f1 <= 0.0:
        raise PreconditionError(
            f"point to separate is feasible (max_j g_j = {f1:.6g})"
        )
    t_star, ok = _boundary_crossings(
        cons, x0, (xbar - x0)[None, :], tol=cfg.line_search_tol, settle=True
    )
    if not ok[0]:
        raise SeparationError(
            f"line search did not reach |max_j g_j| <= {BOUNDARY_TOL:g} within "
            f"{_BISECTIONS} bisections; the interior point may lie on the "
            "boundary within tolerance"
        )
    lo = float(t_star[0])
    xhat = x0 + lo * (xbar - x0)
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


# ---------------------------------------------------------------------------
# Gauge evaluation along rays
# ---------------------------------------------------------------------------


def _strict_interior(cons: Sequence[Constraint], x0) -> np.ndarray:
    x0 = np.asarray(x0, dtype=float)
    f0, _ = max_violation(cons, x0)
    if f0 >= 0.0:
        raise PreconditionError(
            f"interior point is not strictly interior (max_j g_j = {f0:.6g})"
        )
    return x0


def _fmax_rows(cons: Sequence[Constraint], P: np.ndarray) -> np.ndarray:
    """``max_j g_j`` at each row of ``P``; a row outside some ``g_j``'s
    domain is outside ``C`` and reads ``+inf``.  Rows are evaluated one by
    one only after the batch raised, so such a row leaves the others'
    values unchanged."""
    try:
        return constraint_values(cons, P).max(axis=0)
    except EvalDomainError:
        pass
    out = np.empty(P.shape[0])
    for i, x in enumerate(P):
        try:
            out[i], _ = max_violation(cons, x)
        except EvalDomainError:
            out[i] = math.inf
    return out


def _boundary_crossings(
    cons: Sequence[Constraint],
    x0: np.ndarray,
    D: np.ndarray,
    tol: float = 1e-13,
    settle: bool = False,
) -> tuple[np.ndarray, np.ndarray]:
    """Per row of ``D``: the parameter ``t* > 0`` where ``max_j g_j(x0 + t d)``
    crosses zero, taken on the feasible side, bisected to a bracket width of
    at most ``tol * t_hi``.  ``settle`` also bisects on until ``max_j g_j >=
    -BOUNDARY_TOL`` at ``t*`` (grids leave it off: there it costs time and
    leaves steep rays open).  Rows whose ray never leaves the set within the
    doubling budget, or still open after the bisections, get ``ok = False``."""
    k = D.shape[0]
    t_lo = np.zeros(k)
    t_hi = np.ones(k)
    f_hi = _fmax_rows(cons, x0 + t_hi[:, None] * D)
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
    # the open rows' brackets, compacted whenever a row closes
    rows = np.nonzero(ok)[0]
    lo, hi, Dr = t_lo[rows], t_hi[rows], D[rows]
    f_lo = np.full(rows.size, -math.inf)  # unknown until a bisection lands inside
    for _ in range(_BISECTIONS):
        if rows.size == 0:
            break
        mid = 0.5 * (lo + hi)
        fm = _fmax_rows(cons, x0 + mid[:, None] * Dr)
        above = fm > 0.0
        hi = np.where(above, mid, hi)
        lo = np.where(above, lo, mid)
        still_open = hi - lo > tol * hi
        if settle:
            f_lo = np.where(above, f_lo, fm)
            still_open |= f_lo < -BOUNDARY_TOL
        if not still_open.all():
            t_lo[rows] = lo
            rows, lo, hi = rows[still_open], lo[still_open], hi[still_open]
            Dr, f_lo = Dr[still_open], f_lo[still_open]
    ok[rows] = False
    return t_lo, ok


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


def _tangent_ascent(cons, x0, alpha, start, iters) -> np.ndarray:
    """Maximize ``alpha^T x`` along the boundary: step along the component of
    ``alpha`` tangent to the active constraint, re-project onto the boundary
    by line search along the ray from ``x0``, keep improvements."""
    x = np.array(start, dtype=float)
    step = 0.5 * max(1.0, float(np.linalg.norm(x - x0)))
    for k in range(iters):
        _, j = max_violation(cons, x)
        grad = ex.eval_grad(cons[j].expr, x).gradient
        gg = float(grad @ grad)
        if gg < ex.ZERO_GRADIENT_TOL:
            break
        tangent = alpha - (float(grad @ alpha) / gg) * grad
        tnorm = float(np.linalg.norm(tangent))
        if tnorm < 1e-12:
            break  # alpha parallel to the active gradient: stationary point
        z = x + (step / math.sqrt(k + 1.0)) * tangent / tnorm
        t_z, ok_z = _boundary_crossings(cons, x0, (z - x0)[None, :])
        if ok_z[0]:
            z_proj = x0 + t_z[0] * (z - x0)
            if float(alpha @ z_proj) > float(alpha @ x):
                x = z_proj
                continue
        step *= 0.5
        if step < 1e-12:
            break
    return x


def check_supporting(
    constraints,
    cut: Cut,
    interior_point=None,
    samples: int = 32,
    ascent_iters: int = 60,
    tol: float = _SUPPORT_TOL,
    seed: int = 0,
    probe_segment=None,
) -> SupportVerdict:
    """Search for a feasible point where the cut holds with equality.

    The cut's own generation point is checked first (exact for cuts built at
    a boundary point).  Otherwise ``alpha^T x`` is maximized over the set:
    boundary points are sampled along seeded random rays from the interior
    point, the ray along ``alpha`` included, and the best one is polished by
    tangent ascent along the boundary (step along the component of ``alpha``
    orthogonal to the active gradient, then re-project onto the boundary by
    line search).  ``probe_segment`` optionally adds the boundary point of an
    explicit (interior, exterior) segment to the candidates.  A verdict of
    ``False`` for a cut that was not generated on the boundary is heuristic
    evidence, not a proof.

    The search needs an interior point.  For a :class:`Problem` it comes from
    :func:`resolve_interior_point` (``interior_point``, then the problem's,
    then a search); bare constraints must be given ``interior_point``.
    """
    cons = as_constraints(constraints)
    n = cut.alpha.shape[0]
    best_x: np.ndarray | None = None
    best_val = -math.inf

    def consider(x: np.ndarray) -> None:
        nonlocal best_x, best_val
        f, _ = max_violation(cons, x)
        if f > tol:
            return
        v = float(cut.alpha @ x)
        if v > best_val:
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
    elif interior_point is None:
        raise PreconditionError(
            "check_supporting needs interior_point when given bare constraints"
        )
    else:
        x0 = _strict_interior(cons, interior_point)

    rng = np.random.default_rng(seed)
    directions = [cut.alpha / np.linalg.norm(cut.alpha)]
    if samples > 0:
        extra = rng.standard_normal((samples, n))
        norms = np.linalg.norm(extra, axis=1)
        directions.extend(extra[norms > 0] / norms[norms > 0, None])
    D = np.vstack(directions)
    t_star, ok = _boundary_crossings(cons, x0, D)
    boundary = x0 + t_star[:, None] * D
    skipped = int(np.count_nonzero(~ok))
    if skipped:
        warnings.warn(f"check_supporting: {skipped} probe ray(s) never left the set")
    hit = np.nonzero(ok)[0]
    for i in hit:
        consider(boundary[i])

    # polish the best few boundary samples by tangent ascent
    order = hit[np.argsort(-(boundary[hit] @ cut.alpha))]
    for i in order[:3]:
        consider(_tangent_ascent(cons, x0, cut.alpha, boundary[i], ascent_iters))

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
