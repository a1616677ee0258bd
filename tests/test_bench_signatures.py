"""The signature script: equal runs give equal files, and --compare names
the items that differ."""

import copy
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
    assert _run("--compare", a, b).returncode == 0

    changed = copy.deepcopy(sig)
    changed["signatures"]["bnb-kelley"]["1"]["items"][1] = "0" * 40
    c.write_text(json.dumps(changed))
    done = _run("--compare", a, c)
    assert done.returncode == 1
    assert done.stdout.strip() == "bnb-kelley seed 1: items [1] differ"
