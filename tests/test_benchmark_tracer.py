"""The benchmark's tracer (``perfbench/tracer.py``) patches gaugecut's
functions by name in several modules, so ``python3 perfbench/run.py
--trace 1`` dies if a module stops binding one of those names, or if a
per-call note stops finding what it reads in a call's arguments or result.
These tests read the tracer without importing it as a package and change
nothing under ``perfbench/``."""

from collections import Counter
from pathlib import Path
from types import ModuleType

import numpy as np

import gaugecut
import gaugecut.solve
from gaugecut import QuadraticForm

from helpers import make_ball_exp, make_circle

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _load_tracer() -> ModuleType:
    module = ModuleType("perfbench_tracer")
    module.__file__ = str(TRACER)
    exec(compile(TRACER.read_text(encoding="utf-8"), str(TRACER), "exec"), module.__dict__)
    return module


def test_tracer_names_exist_and_tracing_changes_no_result():
    tracer = _load_tracer()
    missing = [f"{module.__name__}.{attr}"
               for modules, attr, _, _ in tracer._TARGETS
               for module in modules if not hasattr(module, attr)]
    assert not missing

    p = make_ball_exp(3)
    plain = gaugecut.solve.solve_esh(p).to_json()
    with tracer.Tracer() as t:
        traced = gaugecut.solve.solve_esh(p).to_json()
    assert traced == plain
    spans = Counter(t.names[i] for i in t.name)
    assert spans["separation.line_search_boundary"] > 0
    assert spans["lp.lp_solve"] > 0


def _workload_calls():
    """One call of every traced entry point the benchmark's workloads make,
    looked up on ``gaugecut`` as they do: what each returned, the solves'
    iteration records and those of the branch and bound."""
    bnb = gaugecut.solve_bnb(make_circle(integer=(True, True)), inner="kelley")
    p = make_circle()
    cons, x0 = p.constraints, p.interior_point
    axis = np.linspace(-2.0, 2.0, 9)
    grid = np.stack(np.meshgrid(axis, axis, indexing="ij"), axis=-1).reshape(-1, 2)
    phi, ok = gaugecut.gauge_values(cons, x0, grid)
    esh_trace = gaugecut.solve_esh(p)
    esh = esh_trace.cuts[0]
    kelley = gaugecut.kelley_cut(cons[0].expr, [1.5, 1.5], "ball")
    verdicts = [gaugecut.check_supporting(p, cut) for cut in (esh, kelley)]
    results = [
        bnb.to_json(),
        phi.tobytes(),
        ok.tobytes(),
        gaugecut.gauge_subgradient_check(cons, x0, esh, grid, sample_gauges=(phi, ok)),
        [(v.supporting, v.max_violation_gap, v.witness is None or v.witness.tobytes())
         for v in verdicts],
        (kelley.alpha.tobytes(), kelley.beta),
        gaugecut.classify_quadratic(QuadraticForm(np.eye(2), np.zeros(2), -1.0)),
    ]
    return results, len(bnb.iterations) + len(esh_trace.iterations), len(bnb.iterations)


def test_every_traced_workload_call_runs_under_the_tracer():
    tracer = _load_tracer()
    plain, _, _ = _workload_calls()
    with tracer.Tracer() as t:
        traced, iterations, bnb_records = _workload_calls()
    assert traced == plain
    metrics = t.layer_metrics(iterations=iterations, bnb_records=bnb_records)
    assert metrics["separation.gauge_values.points"] >= 81
    assert metrics["expr.eval_value.points"] > metrics["expr.eval_value.calls"] > 0
    assert metrics["lp.rows_max"] > 0
    assert metrics["solve.bnb.nodes"] > 0
    assert metrics["separation.evals_per_probe"] > 0
