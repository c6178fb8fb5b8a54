"""Time two source trees of favar against each other, round by round.

For each workload of ``favarbench/workloads.py`` asked for, one long-lived
worker process per tree imports favar from that tree, makes the workload's
inputs and runs its warm-up call. The two workers then step in lockstep:
each round one of them runs one round of the workload, then the other runs
the same round on the same inputs, and the order swaps every round, so a
drift of the machine's speed falls on both trees alike. Only one worker
computes at a time. A round is timed by its worker's process CPU time
(``time.process_time``) and by the wall clock (``time.perf_counter``), and
then checked, untimed, by the workload's own checks. The first
``WARM_ROUNDS`` rounds are run and checked but not counted.

The position in which a worker was started has been seen to bias its CPU
time, by about 1% for the second one started on ``rme-cell``, whatever tree
it runs. So the
counted rounds run on two pairs of workers in turn: half on a pair started
old tree first, half on a pair started new tree first. Each tree then holds
each start position for half the rounds, and the bias falls on both alike.

Printed per workload: the median over rounds of the ratio new/old of the
two trees' CPU times in one round, the quartiles of that ratio, the share of
rounds in which the new tree took less CPU, and each tree's median CPU time
per operation; then the same median and quartiles of the wall-clock ratio,
and each worker's peak resident set size (``ru_maxrss``, in MB of 2^20
bytes as in the benchmark's ``peak_rss_mb``), old tree's workers first.

    python3 scripts/time_pair.py OLD_SRC NEW_SRC [--workload NAME ...] [--rounds N]

``OLD_SRC`` and ``NEW_SRC`` are directories holding a ``favar`` package, as
for ``scripts/compare_fits.py``, whose environment (the tree on PYTHONPATH,
one BLAS thread), input seed and check that favar came from the tree the
workers share. No other seed is offered: the seed only draws the
benchmark's sign flips of the panels, which leave every choice, error and
unit of work unchanged. Without ``--workload`` every workload runs. Exits 1
if a round fails or a check fails on either tree, or if a worker imported
favar from outside its tree.
"""

from __future__ import annotations

import argparse
import json
import resource
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

from compare_fits import BENCH, SEED, TreeError, check_tree, tree_env

# rounds each pair of workers runs before the counted ones
WARM_ROUNDS = 2


def worker(name: str) -> None:
    """Serve rounds of workload ``name``: one per line read, one JSON reply per round."""
    replies, sys.stdout = sys.stdout, sys.stderr  # favar's own prints stay off the replies
    sys.path.insert(0, str(BENCH))
    import favar
    import workloads

    wl = workloads.make(name)
    inputs = wl.make_inputs(SEED)
    wl.warm_up()
    ready = {"favar": favar.__file__, "ops": wl.ops_per_round}
    print(json.dumps(ready), file=replies, flush=True)
    with tempfile.TemporaryDirectory() as tmp:
        for _ in sys.stdin:
            t0, w0 = time.process_time(), time.perf_counter()
            rnd = wl.run_round(inputs, Path(tmp))
            cpu, wall = time.process_time() - t0, time.perf_counter() - w0
            problems = rnd.errors + (wl.check(rnd, Path(tmp)) if rnd.outputs else [])
            rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            print(json.dumps({"cpu": cpu, "wall": wall, "rss_mb": rss, "problems": problems}),
                  file=replies, flush=True)


class Worker:
    """One tree's worker process, stepped one round at a time."""

    def __init__(self, src: str, name: str):
        self.proc = subprocess.Popen(
            [sys.executable, __file__, "--worker", name],
            env=tree_env(src), stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )
        ready = self._reply()
        self.favar, self.ops = ready["favar"], ready["ops"]

    def _reply(self) -> dict:
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError(f"worker exited with code {self.proc.wait()}")
        return json.loads(line)

    def step(self) -> dict:
        self.proc.stdin.write("round\n")
        self.proc.stdin.flush()
        return self._reply()

    def close(self) -> None:
        self.proc.stdin.close()
        self.proc.wait(timeout=60)


def pair(srcs: tuple[str, str], name: str, rounds: int,
         first: int) -> tuple[np.ndarray, np.ndarray, int, list[str]]:
    """Seconds of each counted round, (cpu, wall) x rounds x (old, new), on one
    pair of workers started tree ``srcs[first]`` first; each worker's peak RSS
    in MB, (old, new); ops per round; problems."""
    workers = {}
    secs = np.empty((2, WARM_ROUNDS + rounds, 2))
    rss = np.empty(2)
    problems = []
    try:
        for side in (first, 1 - first):
            workers[side] = Worker(srcs[side], name)
            check_tree(srcs[side], workers[side].favar)
        for i in range(secs.shape[1]):
            for side in (0, 1) if i % 2 == 0 else (1, 0):
                reply = workers[side].step()
                secs[:, i, side] = reply["cpu"], reply["wall"]
                rss[side] = reply["rss_mb"]
                problems += [f"{name} {('old', 'new')[side]} round {i}: {p}"
                             for p in reply["problems"]]
    finally:
        for w in workers.values():
            w.close()
    return secs[:, WARM_ROUNDS:], rss, workers[0].ops, problems


def summary(name: str, cpu: np.ndarray, wall: np.ndarray, ops: int, rss: np.ndarray) -> str:
    """Two lines on one workload: ``cpu`` and ``wall`` are rounds x (old, new)
    seconds, ``rss`` is workers x (old, new) peak RSS in MB."""
    ratio = cpu[:, 1] / cpu[:, 0]
    q1, med, q3 = np.percentile(ratio, [25, 50, 75])
    old, new = 1e3 * np.median(cpu, axis=0) / ops
    w1, wmed, w3 = np.percentile(wall[:, 1] / wall[:, 0], [25, 50, 75])
    rss_old, rss_new = (", ".join(f"{mb:.1f}" for mb in rss[:, side]) for side in (0, 1))
    return (f"{name}: {ratio.size} rounds; new/old CPU per round median {med:.3f} "
            f"(quartiles {q1:.3f}-{q3:.3f}); new faster in {int(np.sum(ratio < 1.0))}/"
            f"{ratio.size}; median CPU per operation old {old:.3f} ms, new {new:.3f} ms\n"
            f"{name}: new/old wall per round median {wmed:.3f} (quartiles {w1:.3f}-{w3:.3f}); "
            f"peak RSS per worker old {rss_old} MB, new {rss_new} MB")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("old_src", nargs="?")
    ap.add_argument("new_src", nargs="?")
    ap.add_argument("--workload", action="append",
                    help="a workload of favarbench/workloads.py; repeat for several")
    ap.add_argument("--rounds", type=int, default=40, help="counted rounds per workload")
    ap.add_argument("--worker", help=argparse.SUPPRESS)
    args = ap.parse_args()
    if args.worker:
        worker(args.worker)
        return 0
    if not (args.old_src and args.new_src):
        ap.error("need OLD_SRC and NEW_SRC")
    if args.rounds < 1:
        ap.error("--rounds must be at least 1")
    sys.path[:0] = [str(Path(args.new_src).resolve()), str(BENCH)]
    import workloads  # for its names; the timed rounds run in the workers

    names = args.workload or list(workloads.NAMES)
    unknown = sorted(set(names) - set(workloads.NAMES))
    if unknown:
        ap.error(f"unknown workload {unknown[0]!r}; one of {', '.join(workloads.NAMES)}")
    failed = False
    srcs = (args.old_src, args.new_src)
    # half the counted rounds with each tree's worker started first
    halves = [(first, n) for first, n in ((0, args.rounds - args.rounds // 2),
                                          (1, args.rounds // 2)) if n]
    for name in names:
        try:
            runs = [pair(srcs, name, n, first) for first, n in halves]
        except TreeError as e:
            print(f"error: {e}", file=sys.stderr)
            return 1
        problems = [line for *_, lines in runs for line in lines]
        for line in problems:
            print(f"FAIL {line}")
        failed |= bool(problems)
        cpu, wall = np.concatenate([secs for secs, *_ in runs], axis=1)
        print(summary(name, cpu, wall, runs[0][2], np.array([rss for _, rss, *_ in runs])),
              flush=True)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
