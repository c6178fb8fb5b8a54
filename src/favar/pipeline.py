"""End-to-end two-stage estimator: truncate, factor fit, Gram build, lasso.

Stages run in a fixed order and any stage failure is re-raised as a
``StageError`` naming the stage. ``r = 0`` is a first-class mode that skips
the factor stage entirely, so the estimator reduces to a plain lasso VAR on
the (possibly truncated) data.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from dataclasses import dataclass

from .factors import FactorFit, fit_factors, select_r
from .moments import GramSystem, build_gram
from .panel import PanelSeries, ScaleVector, mad_scales
from .trunc import TauCvReport, TruncationRule, build_tau_grid, cv_tau, truncate
from .varlasso import _MAX_ITER, _TOL, ConvergenceError, LambdaCvReport, VarFit, cv_lambda, fit_var

import numpy as np


class StageError(RuntimeError):
    """A pipeline stage failed; the message starts with the stage name."""

    def __init__(self, stage: str, message: str):
        super().__init__(f"{stage}: {message}")
        self.stage = stage


@contextmanager
def _stage(name: str):
    try:
        yield
    except StageError:
        raise
    except (ValueError, ArithmeticError, ConvergenceError, np.linalg.LinAlgError) as e:
        raise StageError(name, str(e)) from e


@dataclass(frozen=True)
class FitOptions:
    """Tuning knobs for one fit; strings select cross-validated choices.

    ``tau`` is either "cv", a fixed level on the standardised scale, or
    ``inf`` for no truncation; its CV scores the autocovariances at lags
    0..d. ``lam`` is either "cv" or a fixed penalty.
    ``r`` is a known factor number (0 for none) or "auto" for the
    information-criterion choice (the IC_p2 criterion) over at most ``r_max``
    factors, by default min(8, min(n, p)/2) (see ``select_r``). Every lasso
    solve, in lambda-CV and in the final fit, walks its exact solution path with
    ``varlasso``'s knot budget, and the final fit meets its KKT certificate
    at ``varlasso``'s tolerance; the fit's ``config`` records both.
    """

    r: int | str = 0
    r_max: int | None = None
    d: int = 1
    tau: float | str = "cv"
    tau_grid_size: int = 60
    lam: float | str = "cv"
    n_lambda: int = 50
    n_folds: int = 5

    def __post_init__(self):
        if self.d < 1:
            raise ValueError("VAR order d must be at least 1")
        if isinstance(self.r, str):
            if self.r != "auto":
                raise ValueError('r must be an integer or "auto"')
        elif self.r < 0:
            raise ValueError("r must be non-negative")
        if isinstance(self.tau, str):
            if self.tau != "cv":
                raise ValueError('tau must be a number, inf, or "cv"')
        elif not self.tau > 0.0:
            raise ValueError("fixed tau must be positive")
        if isinstance(self.lam, str):
            if self.lam != "cv":
                raise ValueError('lam must be a number or "cv"')
        elif not 0.0 <= self.lam < math.inf:
            raise ValueError("fixed lambda must be finite and non-negative")
        if self.r_max is not None and self.r_max < 1:
            raise ValueError(f"r_max must be at least 1, got {self.r_max}")
        if self.tau_grid_size < 2:
            raise ValueError(f"tau_grid_size must be at least 2, got {self.tau_grid_size}")
        if self.n_lambda < 1:
            raise ValueError(f"n_lambda must be at least 1, got {self.n_lambda}")
        if self.n_folds < 2:
            raise ValueError(f"n_folds must be at least 2, got {self.n_folds}")


@dataclass(frozen=True, eq=False)
class FavarFit:
    """Everything produced by one fit, plus the resolved configuration.

    ``config`` pins every tuning choice to its resolved value: feeding it
    back through ``refit_options`` reproduces the fit number for number.
    """

    rule: TruncationRule
    scales: ScaleVector
    tau_report: TauCvReport | None
    factors: FactorFit | None
    gram: GramSystem
    lambda_report: LambdaCvReport | None
    var: VarFit
    config: dict

    @property
    def r(self) -> int:
        return self.factors.r if self.factors is not None else 0

    @property
    def idio(self):
        return self.factors.idio if self.factors is not None else None


def refit_options(config: dict) -> FitOptions:
    """Options that replay a previous fit with all tuning pinned.

    The config's ``tol`` and ``max_iter`` are the solver's fixed defaults, which
    no option sets, so they are not read.
    """
    return FitOptions(
        r=config["r"],
        d=config["d"],
        tau=config["tau"],
        lam=config["lambda"],
        tau_grid_size=config["tau_grid_size"],
        n_lambda=config["n_lambda"],
        n_folds=config["n_folds"],
    )


def fit(x: PanelSeries, opts: FitOptions = FitOptions()) -> FavarFit:
    """Run the full two-stage estimator on a panel."""
    skip_truncation = isinstance(opts.tau, float) and math.isinf(opts.tau)
    with _stage("scales"):
        if skip_truncation:
            scales = ScaleVector(np.ones(x.p), method="unit")
        else:
            scales = mad_scales(x)

    tau_report = None
    if opts.tau == "cv":
        with _stage("tau-cv"):
            grid = build_tau_grid(x, scales, opts.tau_grid_size)
            tau_report = cv_tau(x, scales, opts.d, grid)
            tau = tau_report.tau
    else:
        tau = float(opts.tau)

    with _stage("truncate"):
        rule = TruncationRule(tau, scales)
        xt = truncate(x, rule)

    if opts.r == "auto":
        with _stage("factor-number"):
            r = select_r(xt, opts.r_max).chosen
    else:
        r = int(opts.r)

    factors = None
    if r > 0:
        with _stage("factors"):
            factors = fit_factors(xt, r)
        xi = factors.idio
    else:
        xi = xt.values

    with _stage("gram"):
        gram = build_gram(xi, opts.d)

    lambda_report = None
    if opts.lam == "cv":
        with _stage("lambda-cv"):
            lambda_report = cv_lambda(xi, opts.d, n_lambda=opts.n_lambda, n_folds=opts.n_folds)
            lam = lambda_report.lam
    else:
        lam = float(opts.lam)

    with _stage("lasso"):
        var = fit_var(gram, lam)

    config = {
        "r": r,
        "d": opts.d,
        "tau": tau,
        "tau_source": "cv" if opts.tau == "cv" else ("none" if skip_truncation else "fixed"),
        "lambda": lam,
        "lambda_source": "cv" if opts.lam == "cv" else "fixed",
        "tau_grid_size": opts.tau_grid_size,
        "n_lambda": opts.n_lambda,
        "n_folds": opts.n_folds,
        "tol": _TOL,
        "max_iter": _MAX_ITER,
    }
    return FavarFit(
        rule=rule,
        scales=scales,
        tau_report=tau_report,
        factors=factors,
        gram=gram,
        lambda_report=lambda_report,
        var=var,
        config=config,
    )
