"""The signature script: equal runs give equal files, and --compare names
the items that differ."""

import copy
import hashlib
import json
import subprocess
import sys
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "bench_signatures.py"


def _run(*args):
    return subprocess.run([sys.executable, str(SCRIPT), *map(str, args)],
                          capture_output=True, text=True, timeout=300)


def test_signatures_repeat_and_compare(tmp_path):
    a, b, c = tmp_path / "a.json", tmp_path / "b.json", tmp_path / "c.json"
    for out in (a, b):
        done = _run("--out", out, "--workloads", "bnb-kelley", "verify", "--seeds", "1",
                    "--seconds", "1")
        assert done.returncode == 0, done.stderr
    sig = json.loads(a.read_text())
    assert json.loads(b.read_text())["signatures"] == sig["signatures"]
    verify = sig["signatures"]["verify"]["1"]
    assert len(verify["grids"]) == len(verify["items"]) > 0
    assert len(verify["raw"]) == len(verify["items"])
    bnb = sig["signatures"]["bnb-kelley"]["1"]
    assert len(bnb["raw"]) == len(bnb["items"])
    assert all(len(entry) == 4 for raw in bnb["raw"] for entry in raw)  # one solve each
    assert _run("--compare", a, b).returncode == 0

    changed = copy.deepcopy(sig)
    changed["signatures"]["bnb-kelley"]["1"]["items"][1] = "0" * 40
    c.write_text(json.dumps(changed))
    done = _run("--compare", a, c)
    assert done.returncode == 1
    assert done.stdout.strip() == "bnb-kelley seed 1: items [1] differ"


def test_verify_verdicts_are_recorded_and_compared(tmp_path):
    a, b, c = tmp_path / "a.json", tmp_path / "b.json", tmp_path / "c.json"
    done = _run("--out", a, "--workloads", "verify", "--seeds", "1", "--seconds", "1")
    assert done.returncode == 0, done.stderr
    sig = json.loads(a.read_text())
    verdicts = sig["signatures"]["verify"]["1"]["verdicts"]
    assert len(verdicts) == len(sig["signatures"]["verify"]["1"]["items"])
    kinds = [kind for item in verdicts for kind, _ in item]
    assert set(kinds) == {"subgradient", "supporting"}
    assert all(type(good) is bool for item in verdicts for _, good in item)

    changed = copy.deepcopy(sig)
    i = next(i for i, item in enumerate(verdicts) if item)
    changed["signatures"]["verify"]["1"]["verdicts"][i][-1][1] ^= True
    b.write_text(json.dumps(changed))
    done = _run("--compare", a, b)
    assert done.returncode == 1
    assert done.stdout.strip() == f"verify seed 1: verdicts of items [{i}] differ"

    # a file written before verdicts were recorded compares as before
    del changed["signatures"]["verify"]["1"]["verdicts"]
    c.write_text(json.dumps(changed))
    assert _run("--compare", a, c).returncode == 0
    assert _run("--compare", c, b).returncode == 0


def _signature_file(path, raw):
    items = [hashlib.sha1(json.dumps(r).encode()).hexdigest() for r in raw]
    path.write_text(json.dumps(
        {"signatures": {"esh-solve": {"1": {"items": items, "raw": raw, "grids": []}}}}))
    return path


def test_compare_tells_structural_from_objective_only_differences(tmp_path):
    def solve(iterations, objective):
        return [["optimal_eps", iterations, iterations + 2,
                 None if objective is None else float(objective).hex()]]

    base = [solve(10, 1.5), solve(8, -2.0), ["SimplexNumericalError"], solve(5, None)]
    a = _signature_file(tmp_path / "a.json", base)

    shifted = [solve(10, 1.5 * (1 + 4e-13)), solve(8, -2.0 * (1 - 1e-13))] + base[2:]
    done = _run("--compare", a, _signature_file(tmp_path / "b.json", shifted))
    assert done.returncode == 1
    assert done.stdout.strip() == (
        "esh-solve seed 1: items [0, 1] differ in objective only (2 of 4, max relative 4e-13)")

    moved = [solve(11, 1.5), base[1], ["SeparationError"], solve(5, 3.0)]
    done = _run("--compare", a, _signature_file(tmp_path / "c.json", moved))
    assert done.returncode == 1
    assert done.stdout.strip() == "esh-solve seed 1: items [0, 2, 3] differ in structure"

    both = [solve(11, 1.5), solve(8, -2.0 * (1 + 1e-15))] + base[2:]
    done = _run("--compare", a, _signature_file(tmp_path / "d.json", both))
    assert done.returncode == 1
    assert done.stdout.splitlines() == [
        "esh-solve seed 1: items [0] differ in structure",
        "esh-solve seed 1: items [1] differ in objective only (1 of 4, max relative 1.11e-15)",
    ]
