"""Compare two source trees of favar on the benchmark's panels, fit by fit.

Each tree runs one round of every workload in ``favarbench/workloads.py`` in
a process of its own, with every ``fit`` it makes captured. The two runs are
then matched fit by fit: every tuning choice (tau, lambda, r and the chosen
grid indices), the iteration counts and the knots the lambda-CV paths
walked, summed over folds and row problems (``-`` for a tree whose
``LambdaCvReport`` has no ``knots``), must be equal, and so must the
origins and truncation levels of the rolling forecast. The final
coefficients, the tau-CV scores, the lambda-CV fold scores, the forecasts
and the RME ratios of the experiment cell must be bit-identical. Printed
are the path knots, the largest relative difference of each of these
values between the two trees, and each fit's iterations on both trees.

With ``--rounding``, for two trees that walk the same lasso paths with
different arithmetic, the values that must be bit-identical need only
agree to ``ROUNDING_BOUND`` (1e-10) relative: CV scores and RME ratios
entry by entry, ``var.A`` and the forecasts relative to their largest
magnitude, since entries near zero carry no relative precision.

    python3 scripts/compare_fits.py OLD_SRC NEW_SRC [--rounding]

``OLD_SRC`` and ``NEW_SRC`` are directories holding a ``favar`` package,
such as the ``src`` of two checkouts. Exits 1 if any required equality
fails, or if a tree's process imported ``favar`` from anywhere else, such as
an installed copy (``check_tree``, which ``scripts/time_pair.py`` shares).

The workloads' inputs are made with seed 1. No other seed is offered: the
seed only draws the benchmark's sign flips of the panels, and every stage is
exactly sign-equivariant, so another seed prints the same report to the
last digit and checks nothing more.
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
SEED = 1


def collect() -> dict:
    """Run one round of each workload; return where favar came from, and each
    workload's fits, outputs and path knots."""
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
            rnd = w.run_round(w.make_inputs(SEED), Path(tmp))
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
                        "tau_scores": (
                            None if f.tau_report is None else f.tau_report.scores.copy()
                        ),
                    }
                    for f in fits
                ],
            }
    return {"favar": favar.__file__, "workloads": result}


def outputs(name: str, rnd) -> dict:
    """The workload results beyond single fits, as arrays to compare exactly."""
    if name == "forecast-rolling":
        run = rnd.outputs[0][1]
        return {key: getattr(run, key).copy() for key in ("origins", "taus", "forecasts")}
    if name == "rme-cell":
        return {f"rme {norm}": np.float64(ratio) for norm, ratio in rnd.outputs[0][1].items()}
    return {}


def tree_env(src: str) -> dict:
    """The environment of a process that imports favar from ``src``, with one BLAS thread."""
    return {**os.environ, "PYTHONPATH": str(Path(src).resolve()),
            "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


class TreeError(RuntimeError):
    """A tree's process imported favar from outside the tree."""


def check_tree(src: str, favar_file: str) -> None:
    """Raise ``TreeError`` unless ``favar_file``, the favar a tree's process
    imported, lies inside the tree ``src``."""
    tree, found = Path(src).resolve(), Path(favar_file).resolve()
    if tree not in found.parents:
        raise TreeError(f"favar was imported from {found.parent}, not from {tree}")


def run_tree(src: str) -> dict:
    with tempfile.NamedTemporaryFile(suffix=".pkl") as out:
        subprocess.run([sys.executable, __file__, "--collect", out.name], env=tree_env(src),
                       check=True)
        run = pickle.loads(Path(out.name).read_bytes())
    check_tree(src, run["favar"])
    return run["workloads"]


# outputs that are tuning choices, equal in every mode
CHOICE_OUTPUTS = ("origins", "taus")
# each fit's cross-validation score curves, and what to call them
CV_SCORES = {"tau_scores": "tau-CV scores", "fold_scores": "lambda-CV fold scores"}
# largest relative difference --rounding accepts
ROUNDING_BOUND = 1e-10


def relative_difference(a, b) -> float:
    """Largest ``|b - a| / |a|``; entries equal on both sides count 0."""
    diff = np.abs(np.asarray(b, float) - np.asarray(a, float))
    with np.errstate(divide="ignore", invalid="ignore"):
        return float(np.max(np.where(diff == 0.0, 0.0, diff / np.abs(a)), initial=0.0))


def scaled_difference(a, b) -> float:
    """Largest ``|b - a|`` over the largest ``|a|``; equal arrays count 0."""
    diff = np.max(np.abs(np.asarray(b, float) - np.asarray(a, float)), initial=0.0)
    with np.errstate(divide="ignore"):
        return 0.0 if diff == 0.0 else float(diff / np.max(np.abs(a), initial=0.0))


def compare(old: dict, new: dict, bound: float = 0.0) -> list[str]:
    """Match two trees' runs fit by fit. Choices, iterations, path knots and
    the forecast origins and truncation levels must be equal; the CV scores,
    ``var.A`` and the other outputs bit-equal, or within ``bound`` relative
    when it is positive."""
    problems = []

    def bounded(where, what, a, b, value):
        if not (np.array_equal(a, b) or (bound > 0 and value <= bound)):
            problems.append(f"{where}: {what}: largest difference {value:.3e} relative")
        return value

    for name in old:
        o, n = old[name], new[name]
        if len(o["fits"]) != len(n["fits"]):
            problems.append(f"{name}: {len(o['fits'])} fits vs {len(n['fits'])}")
            continue
        if o["path_knots"] != n["path_knots"]:
            problems.append(f"{name}: path knots {o['path_knots']} vs {n['path_knots']}")
        worst = dict.fromkeys(CV_SCORES, 0.0)
        worst_A = worst_out = 0.0
        for i, (a, b) in enumerate(zip(o["fits"], n["fits"])):
            where = f"{name} fit {i}"
            for key in ("tau", "lambda", "r", "tau_index", "lambda_index"):
                if a[key] != b[key]:
                    problems.append(f"{where}: {key} {a[key]!r} vs {b[key]!r}")
            if not np.array_equal(a["iterations"], b["iterations"]):
                problems.append(f"{where}: var.iterations differ")
            diff = scaled_difference(a["A"], b["A"])
            worst_A = max(worst_A, bounded(where, "var.A", a["A"], b["A"], diff))
            for key, what in CV_SCORES.items():
                if a[key] is not None:
                    diff = relative_difference(a[key], b[key])
                    worst[key] = max(worst[key], bounded(where, what, a[key], b[key], diff))
        for key, a in o["outputs"].items():
            b = n["outputs"].get(key)
            if key in CHOICE_OUTPUTS or np.shape(a) != np.shape(b):
                if not np.array_equal(a, b):
                    problems.append(f"{name}: {key} differs")
                continue
            diff = relative_difference(a, b) if np.ndim(a) == 0 else scaled_difference(a, b)
            worst_out = max(worst_out, bounded(name, key, a, b, diff))
        if o["outputs"]:
            print(f"{name}: compared {', '.join(o['outputs'])}")
        print(
            f"{name}: {len(o['fits'])} fits; path knots {o['path_knots']} -> "
            f"{n['path_knots']}; largest relative difference: tau scores "
            f"{worst['tau_scores']:.2e}, fold scores {worst['fold_scores']:.2e}, "
            f"var.A {worst_A:.2e}, outputs {worst_out:.2e}"
        )
        for i, (a, b) in enumerate(zip(o["fits"], n["fits"])):
            print(
                f"  fit {i}: r={b['r']} tau_index={b['tau_index']} "
                f"lambda_index={b['lambda_index']} iterations max "
                f"{int(a['iterations'].max())} -> {int(b['iterations'].max())}, sum "
                f"{int(a['iterations'].sum())} -> {int(b['iterations'].sum())}"
            )
    return problems


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("old_src", nargs="?")
    ap.add_argument("new_src", nargs="?")
    ap.add_argument(
        "--rounding", action="store_true",
        help=f"require equal choices, iterations and knots, and CV scores, coefficients "
        f"and outputs within {ROUNDING_BOUND:g} relative",
    )
    ap.add_argument("--collect", help=argparse.SUPPRESS)
    args = ap.parse_args()
    if args.collect:
        Path(args.collect).write_bytes(pickle.dumps(collect()))
        return 0
    if not (args.old_src and args.new_src):
        ap.error("need OLD_SRC and NEW_SRC")
    try:
        old, new = run_tree(args.old_src), run_tree(args.new_src)
    except TreeError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    problems = compare(old, new, ROUNDING_BOUND if args.rounding else 0.0)
    for line in problems:
        print(f"DIFF {line}")
    same = "same paths up to rounding" if args.rounding else "identical fits"
    print(same if not problems else f"{len(problems)} differences")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
