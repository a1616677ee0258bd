"""Span tracer that times gaugecut's layers from outside the package.

Each wrapped public function records one span per call: its name, start,
end, parent span and the benchmark item (operation) it ran for.  Spans are
kept in flat arrays while the run lasts and are written out once at the end.
The wrapper is installed under the name each caller looks up: a function that
``gaugecut.solve`` imported by name is wrapped in ``gaugecut.solve`` as well
as in its home module.
"""

from __future__ import annotations

import json
import time
from array import array
from collections import Counter
from pathlib import Path

import numpy as np

import gaugecut
import gaugecut.expr
import gaugecut.lp
import gaugecut.model
import gaugecut.separation
import gaugecut.solve
from gaugecut.errors import EvalDomainError

EVAL_SPANS = ("expr.eval_value", "expr.eval_grad")
SOLVE_SPANS = ("solve.solve_esh", "solve.solve_bnb", "solve.solve_kelley")


def _note_eval_value(counts, args, result):
    x = np.asarray(args[1])
    if x.ndim == 1:
        counts["expr.eval_value.single_point_calls"] += 1
        counts["expr.eval_value.points"] += 1
    else:
        counts["expr.eval_value.points"] += x.shape[0]


def _note_lp_solve(counts, args, result):
    rows = len(args[0].cuts)
    counts["lp.rows"] += rows
    counts["lp.rows_max"] = max(counts["lp.rows_max"], rows)
    if result.status == "infeasible":
        counts["lp.infeasible_solves"] += 1


def _note_add_cut(counts, args, result):
    if result:
        counts["lp.add_cut.accepted"] += 1


def _note_gauge_values(counts, args, result):
    counts["separation.gauge_values.points"] += np.atleast_2d(np.asarray(args[2])).shape[0]


# (modules to patch, attribute, span name, per-call note)
_TARGETS = (
    ((gaugecut.expr, gaugecut), "eval_value", "expr.eval_value", _note_eval_value),
    ((gaugecut.expr, gaugecut), "eval_grad", "expr.eval_grad", None),
    ((gaugecut.model, gaugecut.separation, gaugecut.solve),
     "constraint_values", "model.constraint_values", None),
    ((gaugecut.model, gaugecut.separation, gaugecut.solve),
     "max_violation", "model.max_violation", None),
    ((gaugecut.lp, gaugecut.solve, gaugecut), "lp_solve", "lp.lp_solve", _note_lp_solve),
    ((gaugecut.lp, gaugecut.solve, gaugecut), "add_cut", "lp.add_cut", _note_add_cut),
    ((gaugecut.separation, gaugecut.solve, gaugecut),
     "line_search_boundary", "separation.line_search_boundary", None),
    ((gaugecut.separation, gaugecut.solve, gaugecut), "esh_cut", "separation.esh_cut", None),
    ((gaugecut.separation, gaugecut.solve, gaugecut), "kelley_cut", "separation.kelley_cut", None),
    ((gaugecut.separation, gaugecut.solve, gaugecut),
     "gauge_values", "separation.gauge_values", _note_gauge_values),
    ((gaugecut.separation, gaugecut.solve, gaugecut),
     "gauge_subgradient_check", "separation.gauge_subgradient_check", None),
    ((gaugecut.separation, gaugecut), "check_supporting", "separation.check_supporting", None),
    ((gaugecut.separation, gaugecut),
     "classify_quadratic", "separation.classify_quadratic", None),
    ((gaugecut.solve, gaugecut), "solve_esh", "solve.solve_esh", None),
    ((gaugecut.solve, gaugecut), "solve_kelley", "solve.solve_kelley", None),
    ((gaugecut.solve, gaugecut), "solve_bnb", "solve.solve_bnb", None),
)


class Tracer:
    """Installs span-recording wrappers on enter and removes them on exit;
    spans accumulate across any number of enters."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op = array("i")
        self.counts: Counter = Counter()
        self.op_id = -1
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self._wrappers: list[tuple[object, str, object]] = []
        for modules, attr, span, note in _TARGETS:
            wrapper = self._wrap(getattr(modules[0], attr), span, note)
            self._wrappers += [(module, attr, wrapper) for module in modules]

    def __enter__(self) -> "Tracer":
        for module, attr, wrapper in self._wrappers:
            self._patches.append((module, attr, getattr(module, attr)))
            setattr(module, attr, wrapper)
        return self

    def __exit__(self, *exc) -> None:
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()

    def _wrap(self, original, span: str, note):
        name_id = self._ids[span] = len(self.names)
        self.names.append(span)
        is_expr = span in EVAL_SPANS
        clock = time.perf_counter
        stack = self._stack
        counts = self.counts

        def wrapper(*args, **kwargs):
            idx = len(self.start)
            self.name.append(name_id)
            self.parent.append(stack[-1] if stack else -1)
            self.op.append(self.op_id)
            self.end.append(0.0)
            stack.append(idx)
            self.start.append(clock())
            try:
                result = original(*args, **kwargs)
            except EvalDomainError:
                if is_expr:
                    counts["expr.domain_errors"] += 1
                raise
            finally:
                self.end[idx] = clock()
                stack.pop()
            if note is not None:
                note(counts, args, result)
            return result

        return wrapper

    # -- analysis ---------------------------------------------------------

    def _self_seconds(self) -> np.ndarray:
        """Each span's duration minus the durations of its direct children."""
        dur = np.frombuffer(self.end, dtype=float) - np.frombuffer(self.start, dtype=float)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        covered = np.zeros_like(dur)
        has_parent = parent >= 0
        np.add.at(covered, parent[has_parent], dur[has_parent])
        return dur - covered

    def _under(self, ancestors: tuple[str, ...], children: tuple[str, ...]) -> int:
        """Number of ``children`` spans that have one of ``ancestors`` above
        them."""
        anc = {self._ids[a] for a in ancestors if a in self._ids}
        kids = {self._ids[c] for c in children if c in self._ids}
        found = 0
        for i, nid in enumerate(self.name):
            if nid not in kids:
                continue
            p = self.parent[i]
            while p >= 0:
                if self.name[p] in anc:
                    found += 1
                    break
                p = self.parent[p]
        return found

    def layer_metrics(self, iterations: int, bnb_records: int) -> dict[str, float]:
        """Per-layer metrics of everything recorded so far.  ``iterations``
        sums the iteration records of the solves; ``bnb_records`` sums those
        of branch-and-bound solves, which hold one record per node that was
        not infeasible."""
        self_s = self._self_seconds()
        ids = np.frombuffer(self.name, dtype=np.int32)
        calls: dict[str, int] = {}
        selfs: dict[str, float] = {}
        for name, nid in self._ids.items():
            mask = ids == nid
            calls[name] = int(np.count_nonzero(mask))
            selfs[name] = float(self_s[mask].sum())
        c = self.counts

        def ratio(a: float, b: float) -> float:
            return a / b if b else 0.0

        # an infeasible node ends on an infeasible LP and leaves no record;
        # only branch and bound meets infeasible LPs on these workloads
        bnb_nodes = bnb_records + c["lp.infeasible_solves"] if bnb_records else 0
        ls_calls = calls["separation.line_search_boundary"]
        probe_calls = calls["separation.check_supporting"]
        return {
            "lp.lp_solve.calls": calls["lp.lp_solve"],
            "lp.lp_solve.self_s": selfs["lp.lp_solve"],
            "lp.rows_per_solve": ratio(c["lp.rows"], calls["lp.lp_solve"]),
            "lp.rows_max": c["lp.rows_max"],
            "lp.infeasible_solves": c["lp.infeasible_solves"],
            "lp.add_cut.calls": calls["lp.add_cut"],
            "lp.add_cut.self_s": selfs["lp.add_cut"],
            "lp.add_cut.accept_ratio": ratio(c["lp.add_cut.accepted"], calls["lp.add_cut"]),
            "expr.eval_value.calls": calls["expr.eval_value"],
            "expr.eval_value.single_point_calls": c["expr.eval_value.single_point_calls"],
            "expr.eval_value.points": c["expr.eval_value.points"],
            "expr.eval_value.self_s": selfs["expr.eval_value"],
            "expr.eval_grad.calls": calls["expr.eval_grad"],
            "expr.eval_grad.self_s": selfs["expr.eval_grad"],
            "expr.domain_errors": c["expr.domain_errors"],
            "model.max_violation.calls": calls["model.max_violation"],
            "model.max_violation.self_s": selfs["model.max_violation"],
            "model.constraint_values.calls": calls["model.constraint_values"],
            "model.constraint_values.self_s": selfs["model.constraint_values"],
            "separation.line_search_boundary.calls": ls_calls,
            "separation.line_search_boundary.self_s": selfs["separation.line_search_boundary"],
            "separation.evals_per_line_search": ratio(
                self._under(("separation.line_search_boundary",), EVAL_SPANS), ls_calls
            ),
            "separation.esh_cut.self_s": selfs["separation.esh_cut"],
            "separation.kelley_cut.self_s": selfs["separation.kelley_cut"],
            "separation.gauge_values.calls": calls["separation.gauge_values"],
            "separation.gauge_values.points": c["separation.gauge_values.points"],
            "separation.gauge_values.self_s": selfs["separation.gauge_values"],
            "separation.gauge_subgradient_check.self_s":
                selfs["separation.gauge_subgradient_check"],
            "separation.check_supporting.self_s": selfs["separation.check_supporting"],
            "separation.evals_per_probe": ratio(
                self._under(("separation.check_supporting",), EVAL_SPANS), probe_calls
            ),
            "solve.self_s": sum(selfs[s] for s in SOLVE_SPANS),
            "solve.iterations": iterations,
            "solve.bnb.nodes": bnb_nodes,
            "solve.bnb.lp_per_node": ratio(
                self._under(("solve.solve_bnb",), ("lp.lp_solve",)), bnb_nodes
            ),
        }

    def write(self, path: Path) -> None:
        """Write every span as ``[name, start_s, end_s, parent, op]`` rows,
        times relative to the first span."""
        t0 = self.start[0] if len(self.start) else 0.0
        rows = [
            [self.name[i], self.start[i] - t0, self.end[i] - t0, self.parent[i], self.op[i]]
            for i in range(len(self.start))
        ]
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({"names": self.names, "spans": rows}), encoding="utf-8")
