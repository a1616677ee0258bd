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


def test_compare_lists_a_run_that_ended_without_a_result(tmp_path):
    change = [_result(4.1), {"exit_code": 1, "stderr": "Traceback\nRuntimeError: boom\n"}]
    sides = [{"commit": "a", "signatures": None}, {"commit": "b", "signatures": None}]
    path = _write(tmp_path / "BENCH_failed.json", sides,
                  _runs(0, 1, [_result(4.0), _result(4.2)]) + _runs(1, 1, change))
    lines = _compare(path, code=1)
    assert lines[0] == ("esh-solve seed 1 item_cost: parent 4.1 (IQR 0.1, 2 runs), "
                        "change 4.1 (1 runs), change won 0 and lost 1 of 1 pairs")
    assert lines[-1] == (
        "change esh-solve seed 1 run 1: exit code 1, stderr ends 'RuntimeError: boom'")


def test_record_keeps_failed_runs(tmp_path):
    # two stand-in checkouts: one whose run.py exits 1, one whose last line
    # is not JSON; neither can write signatures
    roots = []
    for name, body in (("exits", 'sys.stderr.write("boom\\n")\nsys.exit(1)\n'),
                       ("prints", 'print("no json here")\n')):
        run_py = tmp_path / name / "perfbench" / "run.py"
        run_py.parent.mkdir(parents=True)
        run_py.write_text("import sys\n" + body)
        roots.append(run_py.parent.parent)
    done = subprocess.run([sys.executable, str(SCRIPT), "--label", "failed",
                           "--root", str(roots[0]), "--root", str(roots[1]),
                           "--workloads", "esh-solve", "--seeds", "1", "--seconds", "1"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    data = json.loads((tmp_path / "BENCH_failed.json").read_text())
    assert [(r["side"], r["result"]["exit_code"]) for r in data["runs"]] == [(0, 1), (1, 0)]
    assert data["runs"][0]["result"]["stderr"] == "boom\n"
    assert all(side["signatures"]["exit_code"] == 1 for side in data["sides"])
    lines = _compare(tmp_path / "BENCH_failed.json", code=1)
    assert lines[:2] == ["parent esh-solve seed 1 run 0: exit code 1, stderr ends 'boom'",
                         "change esh-solve seed 1 run 0: exit code 0, stderr ends ''"]
    assert [line.split(":")[0] for line in lines[2:]] == ["parent signatures", "change signatures"]


def test_compare_pools_the_seeds_of_a_workload(tmp_path):
    # seed 1 alone: change won 2 of 3; seed 2 alone: 3 of 3; together 5 of 6
    parent = _runs(0, 1, [_result(c) for c in (4.0, 4.4, 4.2)])
    parent += _runs(0, 2, [_result(c) for c in (3.0, 3.2, 3.1)])
    change = _runs(1, 1, [_result(c) for c in (3.9, 4.5, 4.1)])
    change += _runs(1, 2, [_result(c) for c in (2.9, 3.0, 3.0)])
    sides = [{"commit": "a", "signatures": None}, {"commit": "b", "signatures": None}]
    lines = _compare(_write(tmp_path / "BENCH_seeds.json", sides, parent + change))
    assert [line.split(" item_cost")[0] for line in lines if "item_cost" in line] == [
        "esh-solve seed 1", "esh-solve seed 2", "esh-solve all seeds"]
    assert lines[-2:] == [
        "esh-solve all seeds item_cost: parent 3.6 (IQR about seed medians 0.15, 6 runs), "
        "change 3.45 (6 runs), change won 5 and lost 1 of 6 pairs",
        "esh-solve all seeds pass_rate: parent 1 (IQR about seed medians 0, 6 runs), "
        "change 1 (6 runs), change won 0 and lost 0 of 6 pairs",
    ]


def test_compare_measures_all_seeds_noise_about_each_seeds_median(tmp_path):
    # two seeds whose costs differ by 10 but whose runs each spread by 0.2:
    # the pooled range is that of the runs about their seed's median, so a
    # gain of 1 in every pair reads as wider than the noise
    parent = _runs(0, 1, [_result(c) for c in (5.0, 5.2, 5.1, 4.9)])
    parent += _runs(0, 2, [_result(c) for c in (15.0, 15.2, 15.1, 14.9)])
    change = _runs(1, 1, [_result(c - 1.0) for c in (5.0, 5.2, 5.1, 4.9)])
    change += _runs(1, 2, [_result(c - 1.0) for c in (15.0, 15.2, 15.1, 14.9)])
    sides = [{"commit": "a", "signatures": None, "src_bytes": 100},
             {"commit": "b", "signatures": None, "src_bytes": 90}]
    path = tmp_path / "BENCH_noise.json"
    path.write_text(json.dumps({"environment": {"PYTHONDONTWRITEBYTECODE": "1"},
                                "settings": {}, "sides": sides, "runs": parent + change}))
    lines = _compare(path)
    pooled = [line for line in lines if line.startswith("esh-solve all seeds item_cost")]
    assert pooled == ["esh-solve all seeds item_cost: parent 10.05 (IQR about seed medians 0.15, "
                      "8 runs), change 9.05 (8 runs), change won 8 and lost 0 of 8 pairs"]
    assert "esh-solve seed 1 item_cost: parent 5.05 (IQR 0.15, 4 runs)" in lines[0]


def test_compare_prints_src_bytes_and_bytecode_beside_setup(tmp_path):
    def with_setup(cost, setup):
        r = _result(cost)
        r["metrics"]["setup_s"] = {"value": setup, "unit": "s"}
        return r

    sides = [{"commit": "a", "signatures": None, "src_bytes": 1000},
             {"commit": "b", "signatures": None, "src_bytes": 990}]
    path = tmp_path / "BENCH_setup.json"
    path.write_text(json.dumps({
        "environment": {"PYTHONDONTWRITEBYTECODE": "1"}, "settings": {}, "sides": sides,
        "runs": _runs(0, 1, [with_setup(2.0, 0.3)]) + _runs(1, 1, [with_setup(1.9, 0.29)])}))
    (setup,) = [line for line in _compare(path) if "setup_s" in line]
    assert setup.endswith("; src bytes parent 1000, change 990, PYTHONDONTWRITEBYTECODE=1")


def test_compare_prints_path_lengths_beside_peak_rss_and_flags_a_difference(tmp_path):
    def with_rss(cost, rss):
        r = _result(cost)
        r["metrics"]["peak_rss_mb"] = {"value": rss, "unit": "MB"}
        return r

    runs = _runs(0, 1, [with_rss(2.0, 39.2)]) + _runs(1, 1, [with_rss(1.9, 39.4)])
    for lengths, tail in (((20, 20), "; checkout path length parent 20, change 20"),
                          ((20, 18), "; checkout path length parent 20, change 18 "
                                     "(DIFFER: peak RSS moves with it)")):
        sides = [{"commit": c, "signatures": None, "src_bytes": 100, "path_length": n}
                 for c, n in zip("ab", lengths)]
        path = _write(tmp_path / f"BENCH_rss{lengths[1]}.json", sides, runs)
        lines = _compare(path)
        (rss,) = [line for line in lines if "peak_rss_mb" in line]
        assert rss.endswith(tail)
        assert not any("path length" in line for line in lines if "peak_rss_mb" not in line)
    # files written before path lengths were recorded print none
    sides = [{"commit": c, "signatures": None} for c in "ab"]
    lines = _compare(_write(tmp_path / "BENCH_old.json", sides, runs))
    assert not any("path length" in line for line in lines)
