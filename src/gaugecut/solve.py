"""Solver loops: Kelley cutting planes, the extended supporting hyperplane
(ESH) loop, their equivalence harness through the gauge, and branch-and-bound
for integer variables.

There is one loop, :func:`~gaugecut.separation.cutting_plane`, and two
separation oracles: Kelley's linearizes at the LP iterate; ESH's linearizes
where a line search from an interior point meets the boundary, which is
Kelley's oracle on ``gauge(x) <= 1``.  The loop stops once the worst
violation is within ``eps_feas``.  Best-first branch and bound runs it at
every node; cuts are valid for the continuous region whatever the
integrality, so all nodes share one pool.
"""

from __future__ import annotations

import csv
import heapq
import io
import json
import math
from dataclasses import dataclass, field
from itertools import islice
from pathlib import Path

import numpy as np

from . import expr as ex
from .errors import SeparationError, SolveStallError
from .lp import Cut, LpBasis, LpModel
from .model import Problem, SolverConfig, constraint_values, resolve_interior_point
from .separation import (
    cutting_plane,
    gauge_separator,
    gauge_subgradient_check,
    gauge_values,
    kelley_separator,
    line_search_boundary,
)
# unused here, but perfbench/tracer.py patches these names in this module too
from .lp import add_cut, lp_solve  # noqa: F401
from .model import max_violation  # noqa: F401
from .separation import esh_cut, kelley_cut  # noqa: F401

__all__ = [
    "IterationRecord",
    "SolveTrace",
    "EquivalenceReport",
    "solve_kelley",
    "solve_esh",
    "solve_bnb",
    "check_esh_kcp_equivalence",
]

# absolute proof gap at which branch and bound stops
BNB_GAP = 1e-6
# how close an LP value must be to an integer to count as integral
INT_TOL = 1e-6


@dataclass(frozen=True, eq=False)
class IterationRecord:
    """One relaxation solve: the iterate, its worst violation, the LP value,
    and the cuts added in response."""

    x: np.ndarray
    violation: float
    objective: float
    cuts: tuple[Cut, ...]


@dataclass(eq=False)
class SolveTrace:
    """Full record of a run.  ``status`` is one of ``optimal_eps``,
    ``infeasible``, ``iteration_limit``, ``error``.  LP objective values are
    nondecreasing along ``iterations`` (they are lower bounds that only
    improve as cuts accumulate)."""

    iterations: list[IterationRecord] = field(default_factory=list)
    status: str = "error"
    x: np.ndarray | None = None
    objective: float | None = None

    @property
    def cuts(self) -> list[Cut]:
        return [cut for rec in self.iterations for cut in rec.cuts]

    def to_json_dict(self) -> dict:
        return {
            "status": self.status,
            "objective": self.objective,
            "x": None if self.x is None else [float(v) for v in self.x],
            "iterations": [
                {
                    "x": [float(v) for v in rec.x],
                    "violation": rec.violation,
                    "objective": rec.objective,
                    "cuts": [cut.to_json() for cut in rec.cuts],
                }
                for rec in self.iterations
            ],
        }

    def to_json(self, path: str | Path | None = None) -> str:
        text = json.dumps(self.to_json_dict(), indent=2)
        if path is not None:
            Path(path).write_text(text, encoding="utf-8")
        return text

    def to_csv(self, path: str | Path | None = None) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["iteration", "objective", "violation"])
        for i, rec in enumerate(self.iterations):
            writer.writerow([i, repr(rec.objective), repr(rec.violation)])
        text = buf.getvalue()
        if path is not None:
            Path(path).write_text(text, encoding="utf-8")
        return text


def _cutting_plane(
    model: LpModel, separate, cfg: SolverConfig
) -> tuple[str, np.ndarray | None, float | None, list[IterationRecord]]:
    """The loop on ``model``'s box until an ``eps_feas``-feasible iterate
    (``optimal_eps``), an iterate whose cuts the pool already holds
    (``stalled``), ``max_iters`` LP solves, or an infeasible LP."""
    records: list[IterationRecord] = []
    x = obj = None
    for sol, violation, added in islice(cutting_plane(model, separate, cfg.eps_feas),
                                        cfg.max_iters):
        x, obj = sol.x, sol.objective_value
        records.append(IterationRecord(x, violation, obj, added))
        if violation <= cfg.eps_feas:
            return "optimal_eps", x, obj, records
        if not added:
            # every new cut deduplicated against the pool: the LP cannot move.
            # Happens only when eps_feas asks for more resolution than the
            # 1e-9 cut deduplication tolerance can deliver.
            return "stalled", x, obj, records
    if len(records) < cfg.max_iters:
        return "infeasible", None, None, records
    return "iteration_limit", x, obj, records


def _separator(p: Problem, cfg: SolverConfig, inner: str):
    """The separation oracle of the inner loop ``inner`` on ``p``."""
    if inner == "kelley":
        return kelley_separator(p.constraints)
    if inner == "esh":
        return gauge_separator(p.constraints, resolve_interior_point(p, cfg.interior_point), cfg)
    raise ValueError(f"inner must be 'kelley' or 'esh', got {inner!r}")


def _solve(p: Problem, cfg: SolverConfig, separate) -> SolveTrace:
    """The loop on the continuous relaxation of ``p``; a stall raises."""
    status, x, obj, records = _cutting_plane(LpModel(p.lower, p.upper, p.objective), separate, cfg)
    if status == "stalled":
        raise SolveStallError(
            "no new cut could be added although the iterate is infeasible; "
            "eps_feas asks for more resolution than the cut deduplication "
            "tolerance (1e-9) can deliver",
            trace=SolveTrace(records, "error", None, None),
        )
    return SolveTrace(records, status, x, obj)


def solve_kelley(p: Problem, cfg: SolverConfig | None = None) -> SolveTrace:
    """Kelley's cutting plane algorithm on the continuous relaxation: solve
    the LP, linearize every violated constraint at the LP iterate, repeat
    until the iterate is ``eps_feas``-feasible.  Integrality is ignored."""
    return _solve(p, cfg or SolverConfig(), kelley_separator(p.constraints))


def solve_esh(p: Problem, cfg: SolverConfig | None = None) -> SolveTrace:
    """Extended supporting hyperplane algorithm: like Kelley's loop, but each
    infeasible iterate is first pulled back to the boundary along the segment
    from an interior point, and the cuts are linearized there.  Every cut
    therefore supports the feasible region.  Also correct for non-convex
    constraint functions with a convex sublevel set, provided active gradients
    do not vanish on the boundary (checked at every visited point)."""
    cfg = cfg or SolverConfig()
    return _solve(p, cfg, _separator(p, cfg, "esh"))


# ---------------------------------------------------------------------------
# ESH / Kelley-on-the-gauge equivalence harness
# ---------------------------------------------------------------------------


@dataclass(eq=False)
class EquivalenceReport:
    """All intermediate quantities of one equivalence check: the ESH cut at
    the boundary point, its rescaling to the gauge frame, and the verdict of
    the subgradient inequality over the sample grid."""

    interior_point: np.ndarray
    separated_point: np.ndarray
    lambda_star: float
    gauge_value: float
    boundary_point: np.ndarray
    active_constraint: str
    subgradient: np.ndarray
    subgradient_dot_shifted: float
    normalized_alpha: np.ndarray
    cut: Cut
    samples_total: int
    samples_skipped: int
    subgradient_ok: bool

    @property
    def passed(self) -> bool:
        return self.subgradient_ok

    def to_json_dict(self) -> dict:
        return {
            "interior_point": [float(v) for v in self.interior_point],
            "separated_point": [float(v) for v in self.separated_point],
            "lambda_star": self.lambda_star,
            "gauge_value": self.gauge_value,
            "boundary_point": [float(v) for v in self.boundary_point],
            "active_constraint": self.active_constraint,
            "subgradient": [float(v) for v in self.subgradient],
            "subgradient_dot_shifted": self.subgradient_dot_shifted,
            "normalized_alpha": [float(v) for v in self.normalized_alpha],
            "cut": self.cut.to_json(),
            "samples_total": self.samples_total,
            "samples_skipped": self.samples_skipped,
            "subgradient_ok": self.subgradient_ok,
        }


def _sample_grid(center: np.ndarray, halfwidth: float, points_per_axis: int) -> np.ndarray:
    axes = [
        np.linspace(c - halfwidth, c + halfwidth, points_per_axis) for c in center
    ]
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.stack([m.ravel() for m in mesh], axis=1)


def check_esh_kcp_equivalence(
    p: Problem,
    cfg: SolverConfig | None = None,
    xbar=None,
    grid_points: int = 21,
    grid_halfwidth: float = 2.0,
) -> EquivalenceReport:
    """Certify numerically that the ESH cut separating ``xbar`` is a gradient
    cut of the gauge function, i.e. a cut Kelley's algorithm could generate on
    the reformulation with the single constraint ``gauge(x) <= 1``.

    The ESH cut ``v^T x <= v^T xhat`` at the boundary point ``xhat`` is
    rescaled to ``alpha^T (x - x0) <= 1`` with ``alpha = gauge(xbar) /
    (v^T (xbar - x0)) * v``; positivity of ``v^T (xbar - x0)`` and
    ``gauge(xbar) > 1`` are asserted, and the subgradient inequality of the
    gauge is then verified at every grid sample.  Because the gauge is
    positively homogeneous, its subdifferential at ``xhat`` and at ``xbar``
    agree, so success certifies the cut as a gauge gradient cut at ``xbar``
    itself.
    """
    cfg = cfg or SolverConfig()
    if xbar is None:
        raise ValueError("xbar is required")
    xbar = np.asarray(xbar, dtype=float)
    x0 = resolve_interior_point(p, cfg.interior_point)
    gr = line_search_boundary(p.constraints, x0, xbar, cfg)
    xhat = gr.boundary_point
    gvals = constraint_values(p.constraints, xhat)
    j = int(np.argmax(gvals))
    v = ex.eval_grad(p.constraints[j].expr, xhat).gradient
    if float(np.max(np.abs(v))) < ex.ZERO_GRADIENT_TOL:
        raise SeparationError(
            f"gradient of active constraint {p.constraints[j].name!r} vanishes "
            "at the boundary point"
        )
    vdot = float(v @ (xbar - x0))
    if vdot <= 0.0:
        raise SeparationError(
            f"subgradient direction test failed (v^T (xbar - x0) = {vdot:.6g} <= 0)"
        )
    phi = gr.gauge_value
    if phi <= 1.0:
        raise SeparationError(f"gauge of the separated point is not > 1 ({phi:.6g})")
    alpha_hat = (phi / vdot) * v
    cut = Cut(v, float(v @ xhat), origin="esh",
              constraint=p.constraints[j].name, point=xhat)

    grid = _sample_grid(x0, grid_halfwidth, grid_points)
    phi_grid, ok = gauge_values(p.constraints, x0, grid)
    subgradient_ok = gauge_subgradient_check(
        p.constraints, x0, cut, grid, sample_gauges=(phi_grid, ok)
    )
    return EquivalenceReport(
        interior_point=x0,
        separated_point=xbar,
        lambda_star=gr.lambda_star,
        gauge_value=phi,
        boundary_point=xhat,
        active_constraint=p.constraints[j].name,
        subgradient=v,
        subgradient_dot_shifted=vdot,
        normalized_alpha=alpha_hat,
        cut=cut,
        samples_total=int(grid.shape[0]),
        samples_skipped=int(np.count_nonzero(~ok)),
        subgradient_ok=subgradient_ok,
    )


# ---------------------------------------------------------------------------
# Branch and bound
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class BnbNode:
    """Box restriction of the root problem with the bound inherited from its
    parent's final LP value, and the parent's final LP basis to start from."""

    bound: float
    depth: int
    lower: np.ndarray
    upper: np.ndarray
    basis: LpBasis | None


def solve_bnb(p: Problem, cfg: SolverConfig | None = None, inner: str = "kelley") -> SolveTrace:
    """Best-first branch and bound over the integer variables; each node runs
    the chosen continuous cutting-plane loop on its restricted box.

    The cut pool is shared globally across nodes: every cut is valid for the
    continuous feasible region itself, never derived from integrality, so
    work done in one node tightens all others.  One LP model serves the whole
    tree: each node sets its box and starts from its parent's final basis,
    whose rows keep their positions because the pool only grows.  Nodes are
    selected by parent bound, ties by depth then creation order — fully
    deterministic.  The recorded per-node objective is the global lower
    bound (best open node) after the node is processed, which is
    nondecreasing by construction.

    A problem without integer variables is delegated to the inner loop
    unchanged.
    """
    cfg = cfg or SolverConfig()
    separate = _separator(p, cfg, inner)
    if not bool(p.integrality.any()):
        return _solve(p, cfg, separate)

    model = LpModel(p.lower, p.upper, p.objective)
    int_idx = np.nonzero(p.integrality)[0]

    counter = 0
    heap: list[tuple[float, int, int, BnbNode]] = []
    heapq.heappush(heap, (-math.inf, 0, counter, BnbNode(-math.inf, 0, p.lower, p.upper, None)))

    incumbent_x: np.ndarray | None = None
    incumbent_val = math.inf
    records: list[IterationRecord] = []
    nodes_processed = 0
    budget_hit = False
    unresolved = False

    while heap:
        if heap[0][0] >= incumbent_val - BNB_GAP:
            break  # every open node is dominated: gap proven
        if nodes_processed >= cfg.max_iters:
            budget_hit = True
            break
        _, _, _, node = heapq.heappop(heap)
        if node.bound >= incumbent_val - BNB_GAP:
            continue
        nodes_processed += 1
        model.lower, model.upper, model.basis = node.lower, node.upper, node.basis
        status, x, obj, node_records = _cutting_plane(model, separate, cfg)
        if status == "infeasible":
            continue
        assert x is not None and obj is not None
        node_cuts = tuple(cut for rec in node_records for cut in rec.cuts)
        fmax = node_records[-1].violation

        frac = np.abs(x[int_idx] - np.round(x[int_idx]))
        integral = bool(np.all(frac <= INT_TOL))
        if status == "optimal_eps" and integral:
            if obj < incumbent_val:
                incumbent_val = obj
                incumbent_x = x
        elif obj >= incumbent_val - BNB_GAP:
            pass  # dominated however the node would resolve
        elif not integral:
            j = int(int_idx[int(np.argmax(frac))])
            _push_children(heap, node, j, x[j], obj, model.basis, counter + 1)
            counter += 2
        else:
            # inner loop stopped short (iteration limit or stall) at an integral
            # point: nothing to branch on, and no eps-feasibility certified
            unresolved = True

        frontier = heap[0][0] if heap else (incumbent_val if incumbent_x is not None else obj)
        records.append(IterationRecord(x, fmax, float(frontier), node_cuts))

    if budget_hit or unresolved:
        status = "iteration_limit"
    elif incumbent_x is None:
        status = "infeasible"
    else:
        status = "optimal_eps"
    return SolveTrace(
        records,
        status,
        incumbent_x,
        None if incumbent_x is None else incumbent_val,
    )


def _push_children(
    heap, node: BnbNode, j: int, xj: float, bound: float, basis: LpBasis | None, counter: int
) -> None:
    """Split on variable ``j``: ``x_j <= floor`` and ``x_j >= ceil``; children
    with an empty box are not created."""
    down = math.floor(xj)
    up = math.ceil(xj)
    if down >= node.lower[j]:
        upper = node.upper.copy()
        upper[j] = min(upper[j], down)
        heapq.heappush(
            heap,
            (bound, node.depth + 1, counter,
             BnbNode(bound, node.depth + 1, node.lower, upper, basis)),
        )
    if up <= node.upper[j]:
        lower = node.lower.copy()
        lower[j] = max(lower[j], up)
        heapq.heappush(
            heap,
            (bound, node.depth + 1, counter + 1,
             BnbNode(bound, node.depth + 1, lower, node.upper, basis)),
        )
