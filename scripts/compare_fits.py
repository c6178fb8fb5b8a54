"""Compare two source trees of favar on the benchmark's panels, fit by fit.

Each tree runs one round of every workload in ``favarbench/workloads.py`` in
a process of its own, with every ``fit`` it makes captured. The two runs are
then matched fit by fit: the final coefficients must be bit-identical, and
the sweep counts and every tuning choice (tau, lambda, r and the chosen grid
indices) equal. The outputs built from the fits must be bit-identical too:
the origins, truncation levels and forecasts of the rolling forecast, and
the RME ratios of the experiment cell. Also printed: the knots the lambda-CV
paths walked, summed over folds and row problems (``-`` for a tree whose
``LambdaCvReport`` has no ``knots``), and the largest relative difference
between the two trees' lambda-CV fold scores.

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
    """Run one round of each workload; return its fits, outputs and path knots."""
    sys.path.insert(0, str(BENCH))
    import favar
    import favar.cli
    import favar.forecast
    import workloads

    fits = []
    fit = favar.pipeline.fit

    def capturing_fit(*args, **kwargs):
        out = fit(*args, **kwargs)
        fits.append(out)
        return out

    for module in (favar, favar.forecast, favar.cli):
        module.fit = capturing_fit
    result = {}
    with tempfile.TemporaryDirectory() as tmp:
        for name in workloads.NAMES:
            fits.clear()
            w = workloads.make(name)
            rnd = w.run_round(w.make_inputs(seed), Path(tmp))
            if rnd.failed:
                raise RuntimeError(f"{name}: {rnd.errors}")
            reports = [f.lambda_report for f in fits if f.lambda_report is not None]
            knots = [getattr(rep, "knots", None) for rep in reports]
            result[name] = {
                "path_knots": (
                    "-" if any(k is None for k in knots) else int(sum(k.sum() for k in knots))
                ),
                "outputs": outputs(name, rnd),
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


def outputs(name: str, rnd) -> dict:
    """The workload results beyond single fits, as arrays to compare exactly."""
    if name == "forecast-rolling":
        run = rnd.outputs[0][1]
        return {key: getattr(run, key).copy() for key in ("origins", "taus", "forecasts")}
    if name == "rme-cell":
        return {f"rme {norm}": np.float64(ratio) for norm, ratio in rnd.outputs[0][1].items()}
    return {}


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
        for key, a in o["outputs"].items():
            if not np.array_equal(a, n["outputs"].get(key)):
                problems.append(f"{name}: {key} differs")
        if o["outputs"]:
            print(f"{name}: compared {', '.join(o['outputs'])}")
        print(
            f"{name}: {len(o['fits'])} fits; path knots {o['path_knots']} -> "
            f"{n['path_knots']}; largest relative fold-score difference {worst:.2e}"
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
