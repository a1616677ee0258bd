"""gaugecut benchmark: one closed-loop workload per run, checked answers,
end-to-end metrics untraced and per-layer metrics traced.

    python3 perfbench/run.py --workload esh-solve --seed 1 --seconds 30 --trace 0

Run it from the root of a source checkout; it imports gaugecut from ``src``.
The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  ``--seconds`` and the seed fix the
items; each run does that fixed work once, whatever the machine's speed, so
the same arguments always attempt and fail the same operations.
``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json``.  Its time
metric, ``item_cost``, divides each item's time by a reference kernel timed
on the same thread right before and after the item, which takes the shared
machine's drift out of it.  ``--trace 1`` runs each item untraced and then
traced, checks that both give bit-identical solver counts
and objectives, and reports the per-layer metrics.  Spans of the traced pass
are written to ``.perfbench/``.  BLAS runs on one thread.
"""

from __future__ import annotations

import argparse
import gc as garbage
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import warnings
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_REPEATS = 7
REF_KERNEL_S = 0.010  # setup_s is in seconds at the speed where a kernel run takes this
KERNEL_RUNS = 5  # reference-kernel runs per sample; the sample is their median
KERNEL_WARMUP = 5
BLAS_ONE_THREAD = {v: "1" for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}


def _parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def _setup_seconds(args) -> float:
    """Median set-up time of SETUP_REPEATS fresh interpreters that import
    gaugecut and build the workload's Problems.  Each is timed between two
    kernel samples and scaled to the speed at which a kernel run takes
    REF_KERNEL_S, so that the shared machine's drift stays out of it."""
    env = dict(os.environ, **BLAS_ONE_THREAD)
    cmd = [sys.executable, str(HERE / "setup_probe.py"), args.workload, str(args.seed),
           str(args.seconds)]
    times = []
    before = _kernel_sample()
    for _ in range(SETUP_REPEATS):
        t = time.perf_counter()
        # no timeout: Popen.wait polls in steps of up to 50 ms when given one
        subprocess.run(cmd, env=env, check=True)
        elapsed = time.perf_counter() - t
        after = _kernel_sample()
        times.append(elapsed / ((before + after) / 2) * REF_KERNEL_S)
        before = after
    return statistics.median(times)


def _reference_kernel() -> float:
    """About 10 ms of the work gaugecut's hot paths do: interpreted
    arithmetic, dict stores and small numpy array operations."""
    import numpy as np

    a = np.arange(16.0)
    s = 0.0
    d = {}
    for i in range(3000):
        s += i * 0.5 - (i % 7)
        d[i & 63] = s
        a = a * 0.999 + 1.0
        s += float(a @ a) * 1e-9
    return s


def _kernel_sample() -> float:
    """Median wall time of KERNEL_RUNS reference-kernel runs."""
    times = []
    for _ in range(KERNEL_RUNS):
        t = time.perf_counter()
        _reference_kernel()
        times.append(time.perf_counter() - t)
    return statistics.median(times)


def _run_item(workload, i: int, tracer=None):
    garbage.collect()
    if tracer is None:
        return workload.run(workload.items[i])
    tracer.op_id = i
    with tracer:
        return workload.run(workload.items[i])


def _median_or_zero(values) -> float:
    return statistics.median(values) if values else 0.0


def _rate(count: float, seconds: float) -> float:
    return count / seconds if seconds else 0.0


def _details(workload, outcomes, solves) -> dict[str, tuple[float, str]]:
    """Per-workload figures printed for reading, not part of the JSON.  The
    solver counts are fixed by the seed and vary across seeds by more than
    the end-to-end bounds allow, so they are not gated."""
    phases: dict[str, list[float]] = {}
    for o in outcomes:
        for k, v in o.phases.items():
            phases.setdefault(k, []).extend(v)
    solve_times = phases.get("solve", [])
    out = {
        "fail_rate": (sum(o.failed for o in outcomes) / sum(o.attempted for o in outcomes),
                      "ratio"),
        "solves_per_s": (_rate(len(solve_times), sum(solve_times)), "1/s"),
        "solve_s_p50": (_median_or_zero(solve_times), "s"),
        "iterations_per_solve": (statistics.mean(s[0] for s in solves), "count"),
        "cuts_per_solve": (statistics.mean(s[1] for s in solves), "count"),
    }
    if workload.name == "bnb-kelley":
        out["nodes_per_solve"] = (
            statistics.mean(o.bnb_records for o in outcomes if o.solve is not None), "count")
    if workload.name == "verify":
        points = sum(len(fx.grid) for fx, o in zip(workload.items, outcomes)
                     if "grid" in o.phases)
        out["gauge_points_per_s"] = (_rate(points, sum(phases["grid"])), "1/s")
        subgrad = phases.get("subgrad", [])
        out["subgrad_checks_per_s"] = (_rate(len(subgrad), sum(subgrad)), "1/s")
        out["probe_s_p50"] = (_median_or_zero(phases.get("probe", [])), "s")
    return out


def main(argv=None) -> int:
    args = _parse_args(argv)
    if not (SRC / "gaugecut" / "__init__.py").is_file():
        print(f"error: no gaugecut sources under {SRC}", file=sys.stderr)
        return 2
    os.environ.update(BLAS_ONE_THREAD)  # before numpy loads OpenBLAS
    sys.path.insert(0, str(SRC))
    sys.path.insert(1, str(HERE))
    warnings.simplefilter("ignore")  # recession rays are skipped by design

    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    setup_s = None
    if args.trace == 0:
        for _ in range(KERNEL_WARMUP):
            _kernel_sample()
        setup_s = _setup_seconds(args)
    workload = WORKLOADS[args.workload](args.seed, args.seconds)
    workload.prepare()
    n_items = len(workload.items)

    outcomes: list = []
    if args.trace == 0:
        # one pass over the items, with a reference-kernel sample before the
        # first item and after every item
        samples = [_kernel_sample()]
        for i in range(n_items):
            outcomes.append(_run_item(workload, i))
            samples.append(_kernel_sample())
    else:
        from tracer import Tracer

        # each item runs untraced and then traced, back to back, so that the
        # machine's drift mostly cancels out of trace.overhead_frac
        tracer = Tracer()
        pairs = [(_run_item(workload, i), _run_item(workload, i, tracer))
                 for i in range(n_items)]
        outcomes = [p[0] for p in pairs] + [p[1] for p in pairs]
        tracer.write(ROOT / ".perfbench" / f"spans-{args.workload}-seed{args.seed}.json")

    first = outcomes[:n_items]
    attempted = sum(o.attempted for o in outcomes)
    failed = sum(o.failed for o in outcomes)
    wrong = [w for o in outcomes for w in o.wrong]
    solves = [o.solve for o in first if o.solve is not None]  # (iterations, cuts)
    correct = not wrong

    if args.trace == 0:
        costs = [o.seconds / ((samples[i] + samples[i + 1]) / 2) for i, o in enumerate(outcomes)]
        metrics = {
            "setup_s": (setup_s, "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
            "pass_rate": (1.0 - failed / attempted, "ratio"),
            "item_cost": (statistics.fmean(costs), "kernel_runs"),
        }
        raw = {
            "items_per_s": (_rate(n_items, sum(o.seconds for o in outcomes)), "1/s"),
            "kernel_ms_p50": (statistics.median(samples) * 1e3, "ms"),
        }
        shown = {**metrics, **raw, **_details(workload, outcomes, solves)}
    else:
        traced = outcomes[n_items:]
        mismatched = [i for i in range(n_items) if first[i].signature != traced[i].signature]
        if mismatched:
            correct = False
            wrong.append(f"tracing changed the results of items {mismatched}")
        layer = tracer.layer_metrics(
            iterations=sum(s[0] for s in solves),
            bnb_records=sum(o.bnb_records for o in traced),
        )
        traced_s = sum(o.seconds for o in traced)
        layer["lp.lp_solve.share"] = layer["lp.lp_solve.self_s"] / traced_s
        layer["trace.overhead_frac"] = traced_s / sum(o.seconds for o in first) - 1.0
        units = {k: "s" if k.endswith("_s") else
                 "ratio" if k.endswith(("ratio", "share", "frac")) else "count" for k in layer}
        metrics = {k: (v, units[k]) for k, v in layer.items()}
        shown = metrics

    print(f"workload={args.workload} seed={args.seed} items={n_items} "
          f"runs={len(outcomes)} attempted={attempted} failed={failed}")
    for o in first:
        for e in o.errors:
            print(f"failed: {e}")
    for w in wrong:
        print(f"WRONG: {w}")
    for name, (value, unit) in shown.items():
        print(f"{name} = {value:.6g} {unit}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": float(v), "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
