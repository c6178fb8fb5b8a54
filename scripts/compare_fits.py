"""Compare two source trees of favar on the benchmark's panels, fit by fit.

Each tree runs one round of every workload in ``favarbench/workloads.py`` in
a process of its own, with every ``fit`` it makes captured. The two runs are
then matched fit by fit: the final coefficients must be bit-identical, and
the sweep counts and every tuning choice (tau, lambda, r and the chosen grid
indices) equal. Also printed: the sweeps the lambda-CV path solves took (a
path solve's count is that of its slowest row problem) and the largest
relative difference between the two trees' lambda-CV fold scores.

    python3 scripts/compare_fits.py OLD_SRC NEW_SRC [--seed 1]

``OLD_SRC`` and ``NEW_SRC`` are directories holding a ``favar`` package,
such as the ``src`` of two checkouts. Exits 1 if any fit differs.
"""

from __future__ import annotations

import argparse
import os
import pickle
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

BENCH = Path(__file__).resolve().parent.parent / "favarbench"


def collect(seed: int) -> dict:
    """Run one round of each workload; return its fits and path sweeps."""
    sys.path.insert(0, str(BENCH))
    import favar
    import favar.cli
    import favar.forecast
    import favar.varlasso as vl
    import workloads

    fits, path_sweeps = [], [0]
    fit, solve = favar.pipeline.fit, vl._cd_solve

    def capturing_fit(*args, **kwargs):
        out = fit(*args, **kwargs)
        fits.append(out)
        return out

    def counting_solve(*args, **kwargs):
        B, iters = solve(*args, **kwargs)
        if kwargs.get("beta0") is not None:  # only cv_lambda warm-starts
            path_sweeps[0] += int(iters.max(initial=0))
        return B, iters

    for module in (favar, favar.forecast, favar.cli):
        module.fit = capturing_fit
    vl._cd_solve = counting_solve
    result = {}
    with tempfile.TemporaryDirectory() as tmp:
        for name in workloads.NAMES:
            fits.clear()
            path_sweeps[0] = 0
            w = workloads.make(name)
            rnd = w.run_round(w.make_inputs(seed), Path(tmp))
            if rnd.failed:
                raise RuntimeError(f"{name}: {rnd.errors}")
            result[name] = {
                "path_sweeps": path_sweeps[0],
                "fits": [
                    {
                        "A": f.var.A.copy(),
                        "iterations": f.var.iterations.copy(),
                        "tau": f.config["tau"],
                        "lambda": f.config["lambda"],
                        "r": f.r,
                        "tau_index": None if f.tau_report is None else f.tau_report.chosen,
                        "lambda_index": (
                            None if f.lambda_report is None else f.lambda_report.chosen
                        ),
                        "fold_scores": (
                            None if f.lambda_report is None
                            else f.lambda_report.fold_scores.copy()
                        ),
                    }
                    for f in fits
                ],
            }
    return result


def run_tree(src: str, seed: int) -> dict:
    with tempfile.NamedTemporaryFile(suffix=".pkl") as out:
        subprocess.run(
            [sys.executable, __file__, "--collect", out.name, "--seed", str(seed)],
            env={**os.environ, "PYTHONPATH": str(Path(src).resolve()),
                 "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"},
            check=True,
        )
        return pickle.loads(Path(out.name).read_bytes())


def compare(old: dict, new: dict) -> list[str]:
    problems = []
    for name in old:
        o, n = old[name], new[name]
        worst = 0.0
        if len(o["fits"]) != len(n["fits"]):
            problems.append(f"{name}: {len(o['fits'])} fits vs {len(n['fits'])}")
            continue
        for i, (a, b) in enumerate(zip(o["fits"], n["fits"])):
            where = f"{name} fit {i}"
            if not np.array_equal(a["A"], b["A"]):
                diff = float(np.max(np.abs(a["A"] - b["A"])))
                problems.append(f"{where}: var.A differs (max abs {diff:.3e})")
            if not np.array_equal(a["iterations"], b["iterations"]):
                problems.append(f"{where}: var.iterations differ")
            for key in ("tau", "lambda", "r", "tau_index", "lambda_index"):
                if a[key] != b[key]:
                    problems.append(f"{where}: {key} {a[key]!r} vs {b[key]!r}")
            if a["fold_scores"] is not None:
                rel = np.abs(b["fold_scores"] - a["fold_scores"]) / np.abs(a["fold_scores"])
                worst = max(worst, float(rel.max()))
        print(
            f"{name}: {len(o['fits'])} fits; path sweeps {o['path_sweeps']} -> "
            f"{n['path_sweeps']}; largest relative fold-score difference {worst:.2e}"
        )
        for i, f in enumerate(n["fits"]):
            print(
                f"  fit {i}: r={f['r']} tau_index={f['tau_index']} "
                f"lambda_index={f['lambda_index']} sweeps max {int(f['iterations'].max())} "
                f"sum {int(f['iterations'].sum())}"
            )
    return problems


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("old_src", nargs="?")
    ap.add_argument("new_src", nargs="?")
    ap.add_argument("--seed", type=int, default=1, help="the benchmark's sign-flip seed")
    ap.add_argument("--collect", help=argparse.SUPPRESS)
    args = ap.parse_args()
    if args.collect:
        Path(args.collect).write_bytes(pickle.dumps(collect(args.seed)))
        return 0
    if not (args.old_src and args.new_src):
        ap.error("need OLD_SRC and NEW_SRC")
    problems = compare(run_tree(args.old_src, args.seed), run_tree(args.new_src, args.seed))
    for line in problems:
        print(f"DIFF {line}")
    print("identical fits" if not problems else f"{len(problems)} differences")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
