"""The four workloads: their inputs, one round of operations, and checks.

A round is a workload's fixed batch of operations; a run repeats whole
rounds. An operation is one ``fit``, one forecast origin or one replication.
Panels are fixed by the seeds below, so the quality metrics repeat from run
to run and every run times the same work. ``--seed`` draws a sign for each
variable of each panel, and the program receives the panel with those
columns negated. The estimator is equivariant to sign flips, so its choices,
errors and work are unchanged, while the numbers it is given differ from
seed to seed. A column permutation would be the richer relabelling, but it
reorders coordinate descent, whose sweep counts on the singular
factor-adjusted Gram matrices then move timings by about 15% from seed to
seed (measured on fit-factor-heavy and forecast-rolling).
"""

from __future__ import annotations

import math
import os
import shutil
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

import favar
import favar.cli

import checks

HEAVY_SEED = 4
FIXED_SEEDS = (1, 2, 3, 4)
FORECAST_SEED = 1
FORECAST_ORIGINS = 6
RME_MASTER_SEED = 2025
RME_REPS = 4


def pinned_lambda(n: int, p: int, d: int) -> float:
    """Penalty of fit-fixed-lambda: 3 * sqrt(log(p d) / n)."""
    return 3.0 * math.sqrt(math.log(p * d) / n)


@dataclass
class Round:
    """What one round attempted, what failed, what it returned and how it checked."""

    attempted: int = 0
    failed: int = 0
    errors: list[str] = field(default_factory=list)
    outputs: list = field(default_factory=list)
    quality: dict | None = None
    problems: list[str] = field(default_factory=list)


@dataclass
class Problem:
    """A panel as the program receives it, with the truth the benchmark keeps."""

    x: favar.PanelSeries
    A: np.ndarray        # true p x (p d) coefficients of the sign-flipped panel


def sign_flipped(spec: favar.DgpSpec, d: int, rng: np.random.Generator) -> Problem:
    panel = favar.simulate_panel(spec)
    signs = rng.choice((-1.0, 1.0), size=spec.p)
    A = np.zeros((spec.p, spec.p * d))
    A[:, : spec.p] = panel.A * np.outer(signs, signs)
    return Problem(favar.PanelSeries.from_values(panel.x.values * signs), A)


def fit_checks(fit: favar.FavarFit, x: np.ndarray) -> list[str]:
    """Every check that applies to one ``fit`` result on the panel ``x``."""
    cfg = fit.config
    tau = cfg["tau"]
    if fit.factors is not None:
        xi = fit.factors.idio
    elif math.isinf(tau):
        xi = x
    else:
        thr = checks.mad(x) * tau
        xi = np.clip(x, -thr, thr)
    out = checks.check_kkt(xi, cfg["d"], fit.var.A, cfg["lambda"], cfg["tol"])
    if fit.lambda_report is not None:
        rep = fit.lambda_report
        out += checks.check_lambda_choice(rep.fold_scores, rep.grid, rep.chosen, cfg["lambda"])
    if fit.tau_report is not None:
        rep = fit.tau_report
        out += checks.check_tau_choice(rep.scores, rep.grid.values, rep.chosen, tau)
    if fit.factors is not None:
        f = fit.factors
        out += checks.check_split(x, tau, f.common, f.idio, f.eigvecs)
    return out


class FitBatch:
    """A fixed batch of ``fit`` calls; quality is the mean coefficient error."""

    def __init__(self, specs, opts, d: int, warm_spec):
        self.specs, self.opts, self.d, self.warm_spec = specs, opts, d, warm_spec
        self.ops_per_round = len(specs)

    def make_inputs(self, seed: int) -> list[Problem]:
        rng = np.random.default_rng(seed)
        return [sign_flipped(spec, self.d, rng) for spec in self.specs]

    def warm_up(self) -> None:
        favar.fit(favar.simulate_panel(self.warm_spec).x, self.opts)

    def run_round(self, problems, work_dir: Path) -> Round:
        rnd = Round()
        for prob in problems:
            rnd.attempted += 1
            try:
                rnd.outputs.append((prob, favar.fit(prob.x, self.opts)))
            except Exception as e:  # a failed fit is counted, the round goes on
                rnd.failed += 1
                rnd.errors.append(f"fit: {type(e).__name__}: {e}")
        return rnd

    @staticmethod
    def _errors(rnd: Round):
        errs = [checks.max_row_l2(fit.var.A, prob.A) for prob, fit in rnd.outputs]
        zero = [checks.max_row_l2(np.zeros_like(prob.A), prob.A) for prob, _ in rnd.outputs]
        return errs, zero

    def quality(self, rnd: Round) -> dict[str, float]:
        errs, zero = self._errors(rnd)
        return {"coef_err": float(np.mean(errs)), "rel_err": float(np.mean(errs) / np.mean(zero))}

    def check(self, rnd: Round, work_dir: Path) -> list[str]:
        out = []
        for prob, fit in rnd.outputs:
            out += fit_checks(fit, prob.x.values)
            if self.opts.lam != "cv" and fit.config["lambda"] != self.opts.lam:
                out.append(f"pinned lambda {self.opts.lam!r} became {fit.config['lambda']!r}")
        return out + checks.check_beats_zero(*self._errors(rnd), "coef_err")

    def check_trace(self, m: dict) -> list[str]:
        calls = m["pipeline.fit.calls"]
        return [] if calls == self.ops_per_round else [f"{calls} fits traced per round"]


class RollingForecast:
    """One ``rolling_forecast`` call; each origin is an operation."""

    def __init__(self):
        self.opts = favar.ForecastOptions(window=120, horizon=1, d=1, r=3)
        n = self.opts.window + FORECAST_ORIGINS - 1 + self.opts.horizon
        self.spec = favar.DgpSpec(n=n, p=10, innovation="student_t", nu=2.1,
                                  factor_design="var1_factors", r=3, seed=FORECAST_SEED)
        self.ops_per_round = FORECAST_ORIGINS

    def make_inputs(self, seed: int) -> Problem:
        return sign_flipped(self.spec, self.opts.d, np.random.default_rng(seed))

    def warm_up(self) -> None:
        spec = replace(self.spec, n=42, p=6)
        favar.rolling_forecast(favar.simulate_panel(spec).x, replace(self.opts, window=40))

    def run_round(self, prob: Problem, work_dir: Path) -> Round:
        rnd = Round(attempted=self.ops_per_round)
        try:
            run = favar.rolling_forecast(prob.x, self.opts)
        except Exception as e:  # the whole call failed: every origin is lost
            rnd.failed = self.ops_per_round
            rnd.errors.append(f"rolling_forecast: {type(e).__name__}: {e}")
            return rnd
        rnd.failed = self.ops_per_round - run.origins.size
        rnd.errors += [f"origin {t}: {why}" for t, why in run.skipped]
        rnd.outputs.append((prob, run))
        return rnd

    def quality(self, rnd: Round) -> dict[str, float]:
        _, run = rnd.outputs[0]
        mae = float(np.mean(run.errors()))
        return {"forecast_mae": mae, "rel_err": mae / float(np.mean(np.abs(run.realized)))}

    def check(self, rnd: Round, work_dir: Path) -> list[str]:
        prob, run = rnd.outputs[0]
        out = checks.check_forecast(run, prob.x.values, self.opts.window, self.opts.horizon)
        return out + checks.check_beats_zero(
            run.errors(), np.abs(run.realized), "forecast_mae"
        )

    def check_trace(self, m: dict) -> list[str]:
        if m["forecast.origins"] == self.ops_per_round == m["pipeline.fit.calls"]:
            return []
        return [f"{m['forecast.origins']} origins from {m['pipeline.fit.calls']} traced fits"]


class RmeCell:
    """One ``run_experiment`` cell into a fresh directory; each replication is an operation."""

    def __init__(self):
        dgp = favar.DgpSpec(n=100, p=10, var_design="banded", innovation="student_t", nu=2.1)
        self.cfg = favar.cli.ExperimentConfig(
            dgp=dgp, reps=RME_REPS, seed=RME_MASTER_SEED, threads=os.cpu_count() or 1
        )
        self.ops_per_round = RME_REPS
        self.rounds = 0

    def make_inputs(self, seed: int) -> favar.cli.ExperimentConfig:
        # the cell's replications are simulated inside run_experiment from its
        # master seed, which stays fixed so that rme_max repeats exactly
        return self.cfg

    def warm_up(self) -> None:
        cfg = replace(self.cfg, dgp=replace(self.cfg.dgp, n=40, p=4), reps=1)
        favar.cli.run_experiment(cfg)

    def run_round(self, cfg, work_dir: Path) -> Round:
        self.rounds += 1
        out = work_dir / f"cell_{self.rounds:03d}"
        shutil.rmtree(out, ignore_errors=True)  # left by an interrupted run
        rnd = Round(attempted=self.ops_per_round)
        try:
            reports = favar.cli.run_experiment(replace(cfg, out=out))
        except Exception as e:  # every replication of the cell is lost
            rnd.failed = self.ops_per_round
            rnd.errors.append(f"run_experiment: {type(e).__name__}: {e}")
            return rnd
        rnd.outputs.append((out, {norm: rep.ratio for norm, rep in reports.items()}))
        return rnd

    def quality(self, rnd: Round) -> dict[str, float]:
        rme_max = rnd.outputs[0][1]["max_elementwise"]
        return {"rme_max": rme_max, "rel_err": rme_max}

    def check(self, rnd: Round, work_dir: Path) -> list[str]:
        out_dir, ratios = rnd.outputs[0]
        problems = checks.check_replications(out_dir, self.cfg.seed, self.cfg.reps, ratios)
        shutil.rmtree(out_dir, ignore_errors=True)
        return problems

    def check_trace(self, m: dict) -> list[str]:
        done = m["cli.reps_computed"]
        return [] if done == self.cfg.reps else [f"{done} of {self.cfg.reps} replications computed"]


def make(name: str):
    if name == "fit-factor-heavy":
        spec = favar.DgpSpec(n=200, p=50, var_design="banded", innovation="student_t",
                             nu=2.1, factor_design="var1_factors", r=3, seed=HEAVY_SEED)
        opts = favar.FitOptions(r=3, d=1)
        return FitBatch([spec], opts, 1, replace(spec, n=60, p=8))
    if name == "fit-fixed-lambda":
        n, p, d = 600, 150, 2
        specs = [favar.DgpSpec(n=n, p=p, var_design="banded", innovation="gaussian",
                               factor_design="var1_factors", r=3, seed=s) for s in FIXED_SEEDS]
        config = {
            "r": 3, "d": d, "tau": "cv", "lambda": pinned_lambda(n, p, d),
            "tau_grid_size": 60, "cv_lags": None, "n_lambda": 50, "n_folds": 5,
            "tol": 1e-7, "max_iter": 100_000,
        }
        opts = favar.refit_options(config)
        return FitBatch(specs, opts, d, replace(specs[0], n=80, p=12))
    if name == "forecast-rolling":
        return RollingForecast()
    if name == "rme-cell":
        return RmeCell()
    raise ValueError(f"unknown workload {name!r}")


NAMES = ("fit-factor-heavy", "fit-fixed-lambda", "forecast-rolling", "rme-cell")
