"""Run one relative-mean-error cell: simulate, fit both arms, aggregate.

Usage:
    python scripts/run_rme_cell.py --config cell.txt --out runs/cell --reps 200

The config file uses the same flat key = value format as the CLI, with the
DGP keys (every ``DgpSpec`` field but ``seed``: n, p, var_design, innovation,
nu, factor_design, r, sigma_eps, burn_in) plus optional estimation keys
(every ``ExperimentConfig`` field this script does not set itself: d, tau,
tau_grid_size, n_lambda, n_folds).
Replications run in order in one process, are persisted as JSON and are
skipped on re-runs, so an interrupted sweep resumes where it stopped. The full 200-replication reproduction of the
no-factor tables is exactly:

    n = 100
    p = 50
    var_design = banded        # or erdos_renyi
    innovation = student_t     # gaussian | student_t | lognormal
    nu = 2.1
    factor_design = none
"""

from __future__ import annotations

import argparse
import sys
import time
from dataclasses import fields
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from favar.cli import ExperimentConfig, parse_config, run_experiment  # noqa: E402
from favar.simulate import DgpSpec  # noqa: E402

DGP_KEYS = {f.name for f in fields(DgpSpec)} - {"seed"}
# the runner sets the DGP, --reps, --seed, --norms and --out itself, and
# ExperimentConfig ignores threads
EST_KEYS = {f.name for f in fields(ExperimentConfig)} - {
    "dgp", "reps", "seed", "norms", "out", "threads"
}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--config", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--reps", type=int, default=200)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--norms", default="max_elementwise,l2_col_max")
    args = parser.parse_args(argv)

    raw = parse_config(args.config)
    unknown = set(raw) - DGP_KEYS - EST_KEYS
    if unknown:
        parser.error(f"unknown config keys: {sorted(unknown)}")
    dgp = DgpSpec(seed=0, **{k: v for k, v in raw.items() if k in DGP_KEYS})
    est = {k: v for k, v in raw.items() if k in EST_KEYS}
    try:
        cfg = ExperimentConfig(
            dgp=dgp,
            reps=args.reps,
            seed=args.seed,
            norms=tuple(args.norms.split(",")),
            out=Path(args.out),
            **est,
        )
    except ValueError as e:
        parser.error(str(e))
    start = time.time()
    reports = run_experiment(cfg, verbose=True)
    minutes = (time.time() - start) / 60.0
    label = f"({dgp.n},{dgp.p}) {dgp.innovation}" + (
        f"(nu={dgp.nu})" if dgp.innovation == "student_t" else ""
    )
    for norm, report in reports.items():
        print(f"{label}  {norm}  RME = {report.ratio:.3f}  [{report.count} reps]")
    print(f"done in {minutes:.1f} min; outputs under {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
