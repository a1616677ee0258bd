"""The benchmark's tracer (``perfbench/tracer.py``) patches gaugecut's
functions by name in several modules, so ``python3 perfbench/run.py
--trace 1`` dies if a module stops binding one of those names.  This test
reads the tracer without importing it as a package and changes nothing
under ``perfbench/``."""

from collections import Counter
from pathlib import Path
from types import ModuleType

import gaugecut.solve

from helpers import make_ball_exp

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
