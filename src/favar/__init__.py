"""Tail-robust estimation and forecasting for factor-adjusted sparse VARs.

The package splits a high-dimensional panel into a low-rank common component
and a sparse VAR idiosyncratic component, clipping heavy-tailed observations
at a cross-validated level before any moments are formed.
"""

from .evaluate import (
    FluctuationResult,
    RmeReport,
    fluctuation_test,
    matrix_error,
    rme,
)
from .factors import FactorFit, FactorNumberReport, fit_factors, project_common, select_r
from .forecast import (
    ForecastOptions,
    ForecastRun,
    forecast_common,
    forecast_idio,
    rolling_forecast,
)
from .moments import GramSystem, autocov, build_gram
from .panel import PanelSeries, ScaleVector, load_csv, mad_scales, write_csv
from .pipeline import FavarFit, FitOptions, StageError, fit, refit_options
from .simulate import (
    DgpSpec,
    SimulatedPanel,
    draw_innovations,
    make_A,
    make_factor_block,
    simulate_panel,
)
from .trunc import TauCvReport, TauGrid, TruncationRule, build_tau_grid, cv_tau, truncate
from .varlasso import (
    ConvergenceError,
    LambdaCvReport,
    VarFit,
    cv_lambda,
    fit_var,
    kkt_gap,
)

__version__ = "0.1.0"
