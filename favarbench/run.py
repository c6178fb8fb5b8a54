"""Benchmark favar end to end, or layer by layer with ``--trace 1``.

Usage, from the root of the repository:

    python3 favarbench/run.py --workload fit-factor-heavy --seed 1 --seconds 28 --trace 0

The run sets up its workload several times (import, input generation and
one warm-up call) and reports the median, then repeats whole rounds of the
workload's fixed batch of operations until the next round would end past
``--seconds``, checks every round's outputs, and prints one JSON object as
its last line: ``{"correct", "attempted", "failed", "metrics"}``. With
``--trace 0`` the metrics are the end-to-end ones. With ``--trace 1`` the
run times one untraced round, then traced rounds, reports the per-layer
metrics and writes every span to ``favarbench/runs/``. The exit code is 1
when a check fails and 2 when the program's sources are missing.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
SRC = BENCH_DIR.parent / "src"
RUNS_DIR = BENCH_DIR / "runs"
SETUP_REPEATS = 5

END_TO_END = {"setup_s": "s", "op_s": "s", "rel_err": "ratio", "peak_rss_mb": "MB"}


def run_rounds(wl, inputs, work_dir, seconds, tracer=None, stats=None):
    """Whole rounds until the next one would end past ``seconds``; at least one.

    Each round is checked as soon as it ends, then its outputs are dropped,
    so memory does not grow with the number of rounds.
    """
    rounds = []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        if tracer is None:
            rnd = wl.run_round(inputs, work_dir)
        else:
            with tracer.span("bench.round") as root:
                rnd = wl.run_round(inputs, work_dir)
        wall = time.perf_counter() - t0
        rnd.quality = wl.quality(rnd) if rnd.outputs else None
        rnd.problems = wl.check(rnd, work_dir) if rnd.outputs else []
        rnd.outputs = []
        if tracer is not None:
            stats.add_round(tracer, root, wall)
        rounds.append((wall, rnd))
        if time.perf_counter() - start + wall > seconds:
            return rounds


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if not (SRC / "favar" / "__init__.py").is_file():
        print(f"error: favar sources not found under {SRC}", file=sys.stderr)
        return 2

    # one BLAS thread: the matrices are small, and a busy second BLAS thread
    # on a two-core machine made timings less steady, not faster
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    t_import = time.perf_counter()
    sys.path.insert(0, str(SRC))
    import favar
    import favar.cli

    import layers
    import tracing
    import workloads
    import_s = time.perf_counter() - t_import
    if Path(favar.__file__).resolve().parent != (SRC / "favar").resolve():
        print(f"error: imported favar from {favar.__file__}, not {SRC}", file=sys.stderr)
        return 2
    if args.workload not in workloads.NAMES:
        parser.error(f"--workload must be one of {', '.join(workloads.NAMES)}")

    wl = workloads.make(args.workload)
    setups = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        inputs = wl.make_inputs(args.seed)
        wl.warm_up()
        setups.append(time.perf_counter() - t0)

    work_dir = RUNS_DIR / f"{args.workload}-seed{args.seed}"
    shutil.rmtree(work_dir, ignore_errors=True)
    work_dir.mkdir(parents=True)

    problems = []
    if args.trace:
        start = time.perf_counter()
        rounds = run_rounds(wl, inputs, work_dir, 0.0)
        tracer, stats = tracing.Tracer(), layers.LayerStats()
        for module, attr in layers.patch_targets(favar):
            tracer.patch(module, attr)
        try:
            with tracer.span("bench.setup") as setup_root:
                wl.make_inputs(args.seed)
                wl.warm_up()
            stats.add_setup(tracer, setup_root)
            left = args.seconds - (time.perf_counter() - start)
            rounds += run_rounds(wl, inputs, work_dir, left, tracer, stats)
        finally:
            tracer.unpatch()
        tracer.write(RUNS_DIR / f"trace-{args.workload}-seed{args.seed}.json")
        metrics = stats.metrics(wl.ops_per_round, untraced_wall=rounds[0][0])
        problems += stats.problems + wl.check_trace(metrics)
        units = layers.METRICS
    else:
        rounds = run_rounds(wl, inputs, work_dir, args.seconds)
        metrics = {
            "setup_s": import_s + statistics.median(setups),
            "op_s": statistics.median(wall / rnd.attempted for wall, rnd in rounds),
        }
        units = END_TO_END
    shutil.rmtree(work_dir, ignore_errors=True)

    attempted = sum(rnd.attempted for _, rnd in rounds)
    failed = sum(rnd.failed for _, rnd in rounds)
    qualities = [rnd.quality for _, rnd in rounds if rnd.quality is not None]
    for _, rnd in rounds:
        problems += rnd.problems
        for err in rnd.errors:
            print(f"failed: {err}", file=sys.stderr)
    if not qualities:
        problems.append("no round produced an output to check")
    for q in qualities[1:]:
        if q != qualities[0]:
            problems.append(f"quality changed between rounds: {qualities[0]} -> {q}")
    if not args.trace:
        metrics["rel_err"] = qualities[0]["rel_err"] if qualities else 0.0
        metrics["peak_rss_mb"] = peak_rss_mb()

    for msg in problems:
        print(f"check failed: {msg}", file=sys.stderr)
    quality = ", ".join(f"{k} {v:.6g}" for k, v in (qualities or [{}])[0].items())
    print(f"{args.workload} seed {args.seed}: {attempted} operations, {failed} failed; {quality}")
    print(f"  import {import_s:.3f} s, set-ups (s): " + " ".join(f"{t:.3f}" for t in setups))
    print("  round walls (s): " + " ".join(f"{wall:.3f}" for wall, _ in rounds))
    for name, value in metrics.items():
        print(f"  {name:34s} {value:.6g} {units[name]}")
    correct = not problems
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
