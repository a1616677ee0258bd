"""Result signatures of the benchmark workloads, for bit-identity checks.

    python scripts/bench_signatures.py --out SIG.json [--seeds 1-3] [--seconds 30]
    python scripts/bench_signatures.py --compare A.json B.json

The first form runs every item of each workload in ``perfbench/workloads.py``
(imported, never changed) for each seed, untimed, and writes the SHA-1 of
each item's ``Outcome.signature`` next to the signature itself (status,
iterations, cuts and objective in hex per solve).  For ``verify`` it also
writes the SHA-1 of the ``phi`` and ``ok`` arrays of every ``gauge_values``
grid and, per item, every ``gauge_subgradient_check`` and
``check_supporting`` verdict in call order.  ``--root`` points at another
source checkout, so that two commits can be compared from one place.  The
second form prints the items whose hashes differ, split into structural
differences (status, iterations, cuts or any other entry) and objective-only
ones with their largest relative objective difference, then the grids and
the items whose verdicts differ (files written without verdicts compare
without them), and exits with 1 when any differ.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import subprocess
import sys
import warnings
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOAD_NAMES = ("esh-solve", "bnb-kelley", "verify")


def _sha1(data: bytes) -> str:
    return hashlib.sha1(data).hexdigest()


def _seeds(text: str) -> list[int]:
    """The seeds of ``text``: ranges such as ``1-3`` and single seeds,
    separated by commas."""
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def _signatures(root: Path, workloads, seeds, seconds: float) -> dict:
    os.environ.update({v: "1" for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")})
    sys.path[:0] = [str(root / "src"), str(root / "perfbench")]
    warnings.simplefilter("ignore")  # recession rays are skipped by design, as in run.py

    import gaugecut
    import numpy as np
    from workloads import WORKLOADS

    grids: list[str] = []
    verdicts: list[list] = []  # per item, its verdicts in call order
    gauge_values = gaugecut.gauge_values
    subgradient_check = gaugecut.gauge_subgradient_check
    check_supporting = gaugecut.check_supporting

    def recorded(*args, **kwargs):
        phi, ok = gauge_values(*args, **kwargs)
        grids.append(_sha1(phi.tobytes() + ok.tobytes()))
        return phi, ok

    def subgradient(*args, **kwargs):
        good = subgradient_check(*args, **kwargs)
        verdicts[-1].append(["subgradient", bool(good)])
        return good

    def supporting(*args, **kwargs):
        verdict = check_supporting(*args, **kwargs)
        verdicts[-1].append(["supporting", bool(verdict.supporting)])
        return verdict

    # the workloads look these up on gaugecut
    gaugecut.gauge_values = recorded
    gaugecut.gauge_subgradient_check = subgradient
    gaugecut.check_supporting = supporting
    out: dict = {}
    for name in workloads:
        for seed in seeds:
            wl = WORKLOADS[name](seed, seconds)
            wl.prepare()
            grids.clear()
            verdicts.clear()
            raw = []
            for item in wl.items:
                verdicts.append([])
                raw.append(wl.run(item).signature)
            out.setdefault(name, {})[str(seed)] = {
                "items": [_sha1(repr(sig).encode()) for sig in raw],
                "raw": json.loads(json.dumps(raw)),  # tuples become lists
                "grids": list(grids),
                "verdicts": list(verdicts),
            }
    env = {"python": platform.python_version(), "numpy": np.__version__}
    return {"environment": env, "commit": _commit(root), "seconds": seconds, "signatures": out}


def _commit(root: Path) -> str | None:
    try:
        return subprocess.run(["git", "-C", str(root), "rev-parse", "HEAD"], check=True,
                              capture_output=True, text=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return None


def _split(raw: list) -> tuple[list, list]:
    """A raw signature as its structure and its objectives: a solve's entry
    ``[status, iterations, cuts, objective]`` gives its objective to the
    second list and whether it has one to the first; every other entry (an
    error name, a gauge sum, a verdict) is structure."""
    structure, objectives = [], []
    for entry in raw:
        if isinstance(entry, list) and len(entry) == 4:
            structure.append(entry[:3] + [entry[3] is None])
            objectives.append(entry[3])
        else:
            structure.append(entry)
    return structure, objectives


def _relative_gap(p: list, q: list) -> float:
    """Largest relative difference of two objective lists of equal shape."""
    gap = 0.0
    for u, v in zip(p, q):
        if u != v:
            x, y = float.fromhex(u), float.fromhex(v)
            gap = max(gap, abs(x - y) / max(abs(x), abs(y), sys.float_info.min))
    return gap


def _item_lines(where: str, ra: dict, rb: dict) -> list[str]:
    xa, xb = ra["items"], rb["items"]
    differ = [i for i, (p, q) in enumerate(zip(xa, xb)) if p != q]
    lines = [f"{where}: {len(xa)} items against {len(xb)}"] if len(xa) != len(xb) else []
    if not differ:
        return lines
    if "raw" not in ra or "raw" not in rb:  # files written before raw signatures
        return lines + [f"{where}: items {differ} differ"]
    structural, objective, unknown, worst = [], [], [], 0.0
    for i in differ:
        (sa, oa), (sb, ob) = _split(ra["raw"][i]), _split(rb["raw"][i])
        if sa != sb:
            structural.append(i)
        elif oa != ob:
            objective.append(i)
            worst = max(worst, _relative_gap(oa, ob))
        else:  # equal signatures under different hashes
            unknown.append(i)
    if structural:
        lines.append(f"{where}: items {structural} differ in structure")
    if objective:
        lines.append(f"{where}: items {objective} differ in objective only "
                     f"({len(objective)} of {len(xa)}, max relative {worst:.3g})")
    if unknown:
        lines.append(f"{where}: items {unknown} differ")
    return lines


def compare(a: dict, b: dict) -> list[str]:
    """One line per workload, seed and kind of difference: structural items,
    objective-only items with their largest relative difference, grids, and
    items whose verdicts differ where both files hold verdicts."""
    lines = []
    sa, sb = a["signatures"], b["signatures"]
    for name in sorted(set(sa) | set(sb)):
        for seed in sorted(set(sa.get(name, {})) | set(sb.get(name, {})), key=int):
            ra, rb = sa.get(name, {}).get(seed), sb.get(name, {}).get(seed)
            if ra is None or rb is None:
                lines.append(f"{name} seed {seed}: only in {'B' if ra is None else 'A'}")
                continue
            lines += _item_lines(f"{name} seed {seed}", ra, rb)
            xa, xb = ra["grids"], rb["grids"]
            differ = [i for i, (p, q) in enumerate(zip(xa, xb)) if p != q]
            if len(xa) != len(xb):
                lines.append(f"{name} seed {seed}: {len(xa)} grids against {len(xb)}")
            if differ:
                lines.append(f"{name} seed {seed}: grids {differ} differ")
            va, vb = ra.get("verdicts"), rb.get("verdicts")
            differ = [i for i, (p, q) in enumerate(zip(va or [], vb or [])) if p != q]
            if differ:
                lines.append(f"{name} seed {seed}: verdicts of items {differ} differ")
    return lines


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", type=Path)
    ap.add_argument("--seeds", default="1-3", help="seeds and ranges such as 1-3,7")
    ap.add_argument("--seconds", type=float, default=30.0, help="sets the items, as in run.py")
    ap.add_argument("--workloads", nargs="+", choices=WORKLOAD_NAMES, default=WORKLOAD_NAMES)
    ap.add_argument("--root", type=Path, default=ROOT, help="source checkout to run")
    ap.add_argument("--compare", nargs=2, type=Path, metavar=("A", "B"))
    args = ap.parse_args(argv)
    if args.compare:
        a, b = (json.loads(p.read_text()) for p in args.compare)
        lines = compare(a, b)
        print("\n".join(lines) if lines else "all signatures equal")
        return 1 if lines else 0
    if args.out is None:
        ap.error("--out is required unless --compare is given")
    result = _signatures(args.root.resolve(), args.workloads, _seeds(args.seeds), args.seconds)
    args.out.write_text(json.dumps(result, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
