"""The benchmark record script: --compare on crafted files."""

import json
import subprocess
import sys
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "bench.py"


def _compare(*paths, code=0):
    done = subprocess.run([sys.executable, str(SCRIPT), "--compare", *map(str, paths)],
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == code, done.stderr
    return done.stdout.splitlines()


def _result(cost, rate=1.0, correct=True, failed=0):
    return {"correct": correct, "attempted": 10, "failed": failed, "metrics": {
        "item_cost": {"value": cost, "unit": "kernel_runs"},
        "pass_rate": {"value": rate, "unit": "ratio"}}}


def _runs(side, seed, results):
    return [{"side": side, "workload": "esh-solve", "seed": seed, "pair": k,
             "position": (side + k) % 2, "result": r} for k, r in enumerate(results)]


def _signatures(items):
    return {"esh-solve": {"1": {"items": items, "grids": []}}}


def _write(path, sides, runs):
    path.write_text(json.dumps({"environment": {}, "settings": {}, "sides": sides,
                                "runs": runs}))
    return path


def test_compare_reports_medians_spread_and_pairs_won(tmp_path):
    parent = [_result(c) for c in (4.0, 4.4, 4.2, 4.6, 4.1)]
    change = [_result(c) for c in (3.9, 4.0, 4.2, 4.1, 3.5)]
    change[4] = _result(3.5, rate=0.9, failed=1)
    sides = [{"commit": "a", "signatures": _signatures(["x", "y"])},
             {"commit": "b", "signatures": _signatures(["x", "z"])}]
    path = _write(tmp_path / "BENCH_pair.json", sides,
                  _runs(0, 1, parent) + _runs(1, 1, change))
    assert _compare(path, code=1) == [
        "esh-solve seed 1 item_cost: parent 4.2 (IQR 0.3, 5 runs), change 4 (5 runs), "
        "change won 4 and lost 0 of 5 pairs",
        "esh-solve seed 1 pass_rate: parent 1 (IQR 0, 5 runs), change 1 (5 runs), "
        "change won 0 and lost 1 of 5 pairs",
        "change esh-solve seed 1 run 4: correct True, failed 1 of 10",
        "esh-solve seed 1: items [1] differ",
    ]


def test_compare_takes_the_parent_from_a_baseline_file(tmp_path):
    base = _write(tmp_path / "BENCH_base.json", [{"commit": "a", "signatures": None}],
                  _runs(0, 2, [_result(2.0), _result(2.2)]))
    later = _write(tmp_path / "BENCH_later.json",
                   [{"commit": "a", "signatures": None}, {"commit": "b", "signatures": None}],
                   _runs(0, 2, [_result(9.0)] * 2)
                   + _runs(1, 2, [_result(2.5, correct=False), _result(1.9)]))
    assert _compare(base, later, code=1) == [
        "esh-solve seed 2 item_cost: parent 2.1 (IQR 0.1, 2 runs), change 2.2 (2 runs), "
        "change won 1 and lost 1 of 2 pairs",
        "esh-solve seed 2 pass_rate: parent 1 (IQR 0, 2 runs), change 1 (2 runs), "
        "change won 0 and lost 0 of 2 pairs",
        "change esh-solve seed 2 run 0: correct False, failed 0 of 10",
    ]


def test_compare_exits_1_only_on_a_bad_run_or_differing_signatures(tmp_path):
    runs = _runs(0, 1, [_result(4.0), _result(4.2)]) + _runs(1, 1, [_result(4.1), _result(4.0)])
    sides = [{"commit": "a", "signatures": _signatures(["x", "y"])},
             {"commit": "b", "signatures": _signatures(["x", "y"])}]
    assert _compare(_write(tmp_path / "BENCH_clean.json", sides, runs))[-1] == (
        "all signatures equal")
    sides[1]["signatures"] = _signatures(["x", "z"])
    assert _compare(_write(tmp_path / "BENCH_differ.json", sides, runs), code=1)[-1] == (
        "esh-solve seed 1: items [1] differ")
