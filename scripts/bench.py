"""Benchmark runs recorded in one file, ``BENCH_<label>.json``.

    python scripts/bench.py --label L [--root DIR [--root DIR]] [--workloads W ...]
                            [--seeds 1-3,7] [--repeat 1] [--seconds 30]
    python scripts/bench.py --compare BENCH_A.json [BENCH_B.json]

The first form runs ``perfbench/run.py --trace 0`` of each checkout (``--root``,
default this one) once per workload, seed and repeat, and keeps the JSON line
each run prints last; a run that exits non-zero or whose last line is not
JSON is kept as its exit code and the tail of its stderr, and so is a
checkout whose signatures could not be written.  Given two checkouts it
runs them in pairs, the first ``--root`` as the parent and the second as the
change, and alternates which side runs first from one pair to the next.  The
file also records the environment (Python, numpy, core count and
``PYTHONDONTWRITEBYTECODE``), each checkout's ``git rev-parse HEAD``,
``src/`` byte count and resolved path length, and each checkout's result
signatures from ``bench_signatures.py``.

The second form prints, per workload, seed and metric, the median of the
parent's and the change's runs, the interquartile range of the parent's runs,
and the pairs the change won (ties count for neither side), and the same over
all seeds of a workload run on more than one, where the range is that of each
parent run's difference from its own seed's parent median.  Beside
``setup_s`` it prints each side's ``src/`` bytes and
``PYTHONDONTWRITEBYTECODE``, where the file records them: without written
bytecode, each set-up compiles ``src/``.  Beside ``peak_rss_mb`` it prints
each side's checkout path length, and flags lengths that differ: peak RSS
moves with it by about a megabyte.  Then it prints any runs that
failed, were not correct or failed operations, and any signatures that are
missing through a failure or differ.  It exits 1 if there are such runs or
signatures, and 0 otherwise.
Given one file, its two sides are compared; given two, the first side of the
first file is the parent and the last side of the second is the change, run
``k`` of a workload and seed pairing with run ``k`` of the other.
Nothing under ``perfbench/`` is changed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from bench_signatures import WORKLOAD_NAMES, _commit, _seeds  # noqa: E402
from bench_signatures import compare as compare_signatures  # noqa: E402

_STDERR_TAIL = 2000  # characters of a failed run's stderr that are kept


def _failure(done: subprocess.CompletedProcess) -> dict:
    return {"exit_code": done.returncode, "stderr": done.stderr[-_STDERR_TAIL:]}


def _run(root: Path, workload: str, seed: int, seconds: float) -> dict:
    """The JSON line ``run.py`` of ``root`` prints last, run from ``root``, or
    for a failed run its :func:`_failure`."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(cmd, cwd=root, capture_output=True, text=True)
    try:
        result = json.loads(done.stdout.strip().splitlines()[-1])
    except (IndexError, ValueError):
        result = None
    return result if done.returncode == 0 and isinstance(result, dict) else _failure(done)


def _signatures(root: Path, workloads, seeds: str, seconds: float) -> dict:
    """Item and grid hashes of ``root`` from ``bench_signatures.py``, without
    the raw signatures, or the :func:`_failure` of that script."""
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "sig.json"
        done = subprocess.run([sys.executable, str(HERE / "bench_signatures.py"), "--out",
                               str(out), "--root", str(root), "--seeds", seeds, "--seconds",
                               str(seconds), "--workloads", *workloads],
                              capture_output=True, text=True)
        if done.returncode:
            return _failure(done)
        sig = json.loads(out.read_text())["signatures"]
    return {w: {s: {k: v for k, v in r.items() if k != "raw"} for s, r in by_seed.items()}
            for w, by_seed in sig.items()}


def _dirty(root: Path) -> bool | None:
    """Whether the sources of ``root`` differ from its ``HEAD``."""
    try:
        done = subprocess.run(["git", "-C", str(root), "status", "--porcelain", "--", "src"],
                              check=True, capture_output=True, text=True)
    except (OSError, subprocess.CalledProcessError):
        return None
    return bool(done.stdout.strip())


def _src_bytes(root: Path) -> int:
    """The bytes of the Python files under ``root/src``: without written
    bytecode, each set-up compiles them, so ``setup_s`` grows with them."""
    return sum(p.stat().st_size for p in (root / "src").rglob("*.py"))


def _notes(data: list[dict]) -> dict[str, str]:
    """What the files record beside two metrics, as far as they do: for
    ``setup_s`` the ``src/`` bytes of the parent and the change and whether
    bytecode was written, for ``peak_rss_mb`` their checkouts' path
    lengths, flagged where they differ."""
    parent, change = data[0]["sides"][0], data[-1]["sides"][-1]
    env = data[-1].get("environment", {})
    notes = {}
    if "src_bytes" in parent or "src_bytes" in change:
        notes["setup_s"] = (
            f"; src bytes parent {parent.get('src_bytes')}, change {change.get('src_bytes')}, "
            f"PYTHONDONTWRITEBYTECODE={env.get('PYTHONDONTWRITEBYTECODE')}")
    if "path_length" in parent or "path_length" in change:
        a, b = parent.get("path_length"), change.get("path_length")
        notes["peak_rss_mb"] = (f"; checkout path length parent {a}, change {b}"
                                + ("" if a == b else " (DIFFER: peak RSS moves with it)"))
    return notes


def record(roots: list[Path], workloads, seeds: str, repeat: int, seconds: float) -> dict:
    runs = []
    for workload in workloads:
        for seed in _seeds(seeds):
            for k in range(repeat):
                order = list(range(len(roots)))
                if k % 2:
                    order.reverse()
                for position, side in enumerate(order):
                    result = _run(roots[side], workload, seed, seconds)
                    runs.append({"side": side, "workload": workload, "seed": seed, "pair": k,
                                 "position": position, "result": result})
                    shown = (f"item_cost {result['metrics']['item_cost']['value']:.4g}"
                             if "metrics" in result else f"exit code {result['exit_code']}")
                    print(f"{workload} seed {seed} run {k} side {side}: {shown}", file=sys.stderr)
    sides = [{"commit": _commit(r), "dirty": _dirty(r), "src_bytes": _src_bytes(r),
              "path_length": len(str(r)), "signatures": _signatures(r, workloads, seeds, seconds)}
             for r in roots]
    env = {"python": platform.python_version(), "numpy": np.__version__,
           "cores": os.cpu_count(), "machine": platform.machine(),
           "PYTHONDONTWRITEBYTECODE": os.environ.get("PYTHONDONTWRITEBYTECODE")}
    settings = {"seconds": seconds, "trace": 0, "seeds": seeds, "repeat": repeat}
    return {"environment": env, "settings": settings, "sides": sides, "runs": runs}


def _directions() -> dict[str, str]:
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, ValueError):
        return {}
    return {m["name"]: m["better"] for m in spec.get("end_to_end", [])}


def _quartiles(values: list[float]) -> tuple[float, float]:
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q3


def _by_key(runs: list[dict]) -> dict[tuple, dict]:
    return {(r["workload"], r["seed"], r["pair"]): r["result"] for r in runs}


def _describe_failure(result: dict) -> str:
    """A failure's exit code and the last line of its stderr."""
    tail = result["stderr"].strip().splitlines()[-1:]
    return f"exit code {result['exit_code']}, stderr ends {tail[0] if tail else ''!r}"


def _noise(a: dict, metric: str) -> list[float]:
    """Each of the parent's runs ``a`` less the median of its own seed's
    runs: spread about the seed medians is run-to-run noise, whereas the
    values of several seeds spread with how the seeds' costs differ."""
    by_seed: dict = {}
    for (_, seed, _), r in a.items():
        if metric in r["metrics"]:
            by_seed.setdefault(seed, []).append(r["metrics"][metric]["value"])
    return [v - statistics.median(vs) for vs in by_seed.values() for v in vs]


def _metric_lines(label: str, a: dict, b: dict, better: dict, notes: dict) -> list[str]:
    """Per metric, a line on the parent's runs ``a`` and the change's runs
    ``b`` (results keyed by workload, seed and pair): each side's median,
    the parent's interquartile range and the pairs the change won and lost.
    Over several seeds the range is that of :func:`_noise`.  ``notes`` maps
    a metric to what is added to its line."""
    lines = []
    pooled = len({k[1] for k in a}) > 1
    for metric in sorted({m for r in [*a.values(), *b.values()] for m in r["metrics"]}):
        pa = [r["metrics"][metric]["value"] for r in a.values() if metric in r["metrics"]]
        pb = [r["metrics"][metric]["value"] for r in b.values() if metric in r["metrics"]]
        if not pa or not pb:
            continue
        q1, q3 = _quartiles(_noise(a, metric))
        sign = -1.0 if better.get(metric, "lower") == "lower" else 1.0
        pairs = [(a[k]["metrics"][metric]["value"], b[k]["metrics"][metric]["value"])
                 for k in sorted(a) if k in b and metric in b[k]["metrics"]]
        won = sum(sign * (y - x) > 0 for x, y in pairs)
        lost = sum(sign * (y - x) < 0 for x, y in pairs)
        lines.append(
            f"{label} {metric}: parent {statistics.median(pa):.4g}"
            f" (IQR{' about seed medians' if pooled else ''} {q3 - q1:.3g}, {len(pa)} runs),"
            f" change {statistics.median(pb):.4g} ({len(pb)} runs), change won {won} and lost"
            f" {lost} of {len(pairs)} pairs" + notes.get(metric, ""))
    return lines


def compare(parent: list[dict], change: list[dict],
            signatures=(None, None), notes: dict | None = None) -> tuple[list[str], bool]:
    """Report lines for the ``runs`` entries of the parent and the change, and
    whether every run ended with a correct result without failed operations,
    no side's signatures failed, and the signatures, where both sides have
    them, are equal.  A workload run on more than one seed also gets its
    lines over all seeds, after those of each seed.  ``notes`` maps a metric
    to what is added to each of its lines."""
    better, notes = _directions(), notes or {}
    runs = {"parent": _by_key(parent), "change": _by_key(change)}
    a, b = ({k: r for k, r in side.items() if "metrics" in r} for side in runs.values())
    lines = []
    workloads = sorted({k[0] for k in a} | {k[0] for k in b},
                       key=lambda w: (WORKLOAD_NAMES.index(w) if w in WORKLOAD_NAMES else 99, w))

    def pick(keep):  # each side's runs whose key passes keep
        return [{k: r for k, r in side.items() if keep(k)} for side in (a, b)]

    for workload in workloads:
        seeds = sorted({k[1] for k in [*a, *b] if k[0] == workload})
        for seed in seeds:
            lines += _metric_lines(f"{workload} seed {seed}",
                                   *pick(lambda k: k[:2] == (workload, seed)), better, notes)
        if len(seeds) > 1:
            lines += _metric_lines(f"{workload} all seeds", *pick(lambda k: k[0] == workload),
                                   better, notes)
    clean = True
    for name, side in runs.items():
        for (workload, seed, k), r in sorted(side.items()):
            if "metrics" not in r:
                clean = False
                lines.append(f"{name} {workload} seed {seed} run {k}: {_describe_failure(r)}")
            elif not r["correct"] or r["failed"]:
                clean = False
                lines.append(f"{name} {workload} seed {seed} run {k}: correct {r['correct']}, "
                             f"failed {r['failed']} of {r['attempted']}")
    for name, s in zip(("parent", "change"), signatures):
        if s is not None and "exit_code" in s:
            clean = False
            lines.append(f"{name} signatures: {_describe_failure(s)}")
    if all(s is not None and "exit_code" not in s for s in signatures):
        differ = compare_signatures(*({"signatures": s} for s in signatures))
        clean = clean and not differ
        lines += differ or ["all signatures equal"]
    return lines, clean


def _side(data: dict, side: int) -> tuple[list[dict], dict | None]:
    side = side % len(data["sides"])
    return [r for r in data["runs"] if r["side"] == side], data["sides"][side]["signatures"]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--label", help="writes BENCH_<label>.json in the current directory")
    ap.add_argument("--root", type=Path, action="append",
                    help="a source checkout to run: once, or twice for parent and change")
    ap.add_argument("--workloads", nargs="+", choices=WORKLOAD_NAMES, default=WORKLOAD_NAMES)
    ap.add_argument("--seeds", default="1-3", help="seeds and ranges such as 1-3,7")
    ap.add_argument("--repeat", type=int, default=1, help="runs (or pairs) per workload and seed")
    ap.add_argument("--seconds", type=float, default=30.0, help="passed to run.py")
    ap.add_argument("--compare", nargs="+", type=Path, metavar="FILE")
    args = ap.parse_args(argv)
    if args.compare:
        if len(args.compare) > 2:
            ap.error("--compare takes one or two files")
        data = [json.loads(p.read_text()) for p in args.compare]
        if len(data) == 1 and len(data[0]["sides"]) != 2:
            ap.error("one file to compare must hold two sides")
        (pa, sa), (pb, sb) = _side(data[0], 0), _side(data[-1], -1)
        lines, clean = compare(pa, pb, (sa, sb), _notes(data))
        print("\n".join(lines))
        return 0 if clean else 1
    roots = [r.resolve() for r in (args.root or [ROOT])]
    if args.label is None or len(roots) > 2:
        ap.error("--label and at most two --root are required unless --compare is given")
    data = record(roots, args.workloads, args.seeds, args.repeat, args.seconds)
    Path(f"BENCH_{args.label}.json").write_text(json.dumps(data, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
