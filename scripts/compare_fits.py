"""Compare two source trees of favar on the benchmark's panels, fit by fit.

Each tree runs one round of every workload in ``favarbench/workloads.py`` in
a process of its own, with every ``fit`` it makes captured. The two runs are
then matched fit by fit: the final coefficients, the tau-CV scores and the
lambda-CV fold scores must be bit-identical, and the iteration counts and
every tuning choice (tau, lambda, r and the chosen grid indices) equal. The
outputs built from the fits must be bit-identical too: the origins,
truncation levels and forecasts of the rolling forecast, and the RME ratios
of the experiment cell. Also printed: the knots the lambda-CV paths walked,
summed over folds and row problems (``-`` for a tree whose
``LambdaCvReport`` has no ``knots``), the largest relative difference
between the two trees' tau-CV scores and lambda-CV fold scores, and each
fit's iterations on both trees.

With ``--same-choices``, for two trees whose final lasso solvers differ,
the tuning choices, the forecast origins and truncation levels, the tau-CV
scores and the lambda-CV fold scores must still be equal, but the
coefficients, forecasts and RME ratios need not be: the largest ``|var.A|``
difference and the largest relative difference of the forecasts and RMEs
are printed instead, and iteration counts are not compared (sweeps and
knots count different things).

With ``--rounding``, for two trees that walk the same lasso paths with
different arithmetic, the tuning choices, ``var.iterations``, the lambda-CV
path knots and the forecast origins and truncation levels must be equal,
and the tau-CV scores, the lambda-CV fold scores, ``var.A``, the forecasts
and the RME ratios must agree to ``ROUNDING_BOUND`` (1e-10) relative: CV
scores and RME ratios entry by entry, ``var.A`` and the forecasts relative
to their largest magnitude, since entries near zero carry no relative
precision. The largest differences are printed.

    python3 scripts/compare_fits.py OLD_SRC NEW_SRC [--same-choices | --rounding]

``OLD_SRC`` and ``NEW_SRC`` are directories holding a ``favar`` package,
such as the ``src`` of two checkouts. Exits 1 if any required equality
fails.

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
    return result


def outputs(name: str, rnd) -> dict:
    """The workload results beyond single fits, as arrays to compare exactly."""
    if name == "forecast-rolling":
        run = rnd.outputs[0][1]
        return {key: getattr(run, key).copy() for key in ("origins", "taus", "forecasts")}
    if name == "rme-cell":
        return {f"rme {norm}": np.float64(ratio) for norm, ratio in rnd.outputs[0][1].items()}
    return {}


def run_tree(src: str) -> dict:
    with tempfile.NamedTemporaryFile(suffix=".pkl") as out:
        subprocess.run(
            [sys.executable, __file__, "--collect", out.name],
            env={**os.environ, "PYTHONPATH": str(Path(src).resolve()),
                 "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"},
            check=True,
        )
        return pickle.loads(Path(out.name).read_bytes())


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


def compare_rounding(old: dict, new: dict) -> list[str]:
    """``--rounding``: equal choices, iterations and knots; values within ``ROUNDING_BOUND``."""
    problems = []

    def bounded(where, what, value):
        if not value <= ROUNDING_BOUND:
            problems.append(f"{where}: {what} differs by {value:.3e} relative")
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
            worst_A = max(worst_A, bounded(where, "var.A", scaled_difference(a["A"], b["A"])))
            for key, what in CV_SCORES.items():
                if a[key] is not None:
                    diff = relative_difference(a[key], b[key])
                    worst[key] = max(worst[key], bounded(where, what, diff))
        for key, a in o["outputs"].items():
            b = n["outputs"].get(key)
            if key in CHOICE_OUTPUTS or np.shape(a) != np.shape(b):
                if not np.array_equal(a, b):
                    problems.append(f"{name}: {key} differs")
                continue
            diff = relative_difference(a, b) if np.ndim(a) == 0 else scaled_difference(a, b)
            worst_out = max(worst_out, bounded(name, key, diff))
        if o["outputs"]:
            print(f"{name}: compared {', '.join(o['outputs'])}")
        print(
            f"{name}: {len(o['fits'])} fits; path knots {o['path_knots']} -> "
            f"{n['path_knots']}; largest relative difference: tau scores "
            f"{worst['tau_scores']:.2e}, fold scores {worst['fold_scores']:.2e}, "
            f"var.A {worst_A:.2e}, outputs {worst_out:.2e}"
        )
    return problems


def compare(old: dict, new: dict, same_choices: bool = False) -> list[str]:
    problems = []
    for name in old:
        o, n = old[name], new[name]
        worst = dict.fromkeys(CV_SCORES, 0.0)
        worst_A = worst_out = 0.0
        if len(o["fits"]) != len(n["fits"]):
            problems.append(f"{name}: {len(o['fits'])} fits vs {len(n['fits'])}")
            continue
        for i, (a, b) in enumerate(zip(o["fits"], n["fits"])):
            where = f"{name} fit {i}"
            diff = float(np.max(np.abs(a["A"] - b["A"]), initial=0.0))
            worst_A = max(worst_A, diff)
            if not same_choices:
                if not np.array_equal(a["A"], b["A"]):
                    problems.append(f"{where}: var.A differs (max abs {diff:.3e})")
                if not np.array_equal(a["iterations"], b["iterations"]):
                    problems.append(f"{where}: var.iterations differ")
            for key in ("tau", "lambda", "r", "tau_index", "lambda_index"):
                if a[key] != b[key]:
                    problems.append(f"{where}: {key} {a[key]!r} vs {b[key]!r}")
            for key, what in CV_SCORES.items():
                if a[key] is not None:
                    diff = relative_difference(a[key], b[key])
                    worst[key] = max(worst[key], diff)
                    if not np.array_equal(a[key], b[key]):
                        problems.append(f"{where}: {what} differ (max relative {diff:.3e})")
        for key, a in o["outputs"].items():
            b = n["outputs"].get(key)
            if np.array_equal(a, b):
                continue
            if same_choices and key not in CHOICE_OUTPUTS and np.shape(a) == np.shape(b):
                worst_out = max(worst_out, relative_difference(a, b))
            else:
                problems.append(f"{name}: {key} differs")
        if o["outputs"]:
            print(f"{name}: compared {', '.join(o['outputs'])}")
        print(
            f"{name}: {len(o['fits'])} fits; path knots {o['path_knots']} -> "
            f"{n['path_knots']}; largest relative difference: tau scores "
            f"{worst['tau_scores']:.2e}, fold scores {worst['fold_scores']:.2e}"
        )
        if same_choices:
            print(
                f"{name}: largest |var.A| difference {worst_A:.2e}; largest relative "
                f"output difference {worst_out:.2e}"
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
    mode = ap.add_mutually_exclusive_group()
    mode.add_argument(
        "--same-choices", action="store_true",
        help="require equal choices and CV scores only; report coefficient and output "
        "differences",
    )
    mode.add_argument(
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
    old, new = run_tree(args.old_src), run_tree(args.new_src)
    if args.rounding:
        problems = compare_rounding(old, new)
    else:
        problems = compare(old, new, args.same_choices)
    for line in problems:
        print(f"DIFF {line}")
    same = (
        "same paths up to rounding" if args.rounding
        else "same choices" if args.same_choices else "identical fits"
    )
    print(same if not problems else f"{len(problems)} differences")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
