"""Rolling-window h-step forecasting for the factor-adjusted VAR.

At each origin the model is refit from scratch on the trailing window only,
so forecasts are strictly causal: nothing dated after the origin enters the
fit. The common part is forecast with the best linear predictor implied by
the window eigenstructure; the idiosyncratic part follows the estimated VAR
recursion, plugging in forecasts where observations are not yet available.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .panel import PanelSeries, _frozen
from .pipeline import FavarFit, FitOptions, StageError, fit
from .trunc import truncate
from .varlasso import VarFit


@dataclass(frozen=True)
class ForecastOptions(FitOptions):
    """Rolling exercise configuration: every FitOptions setting, plus the
    window, the horizon and whether r and tau are re-selected per origin."""

    window: int = 120
    horizon: int = 1
    reselect_r: bool = False
    reselect_tau: bool = True

    def __post_init__(self):
        super().__post_init__()
        if self.window < self.d + 2:
            raise ValueError("window too short for the VAR order")
        if self.horizon < 1:
            raise ValueError("horizon must be at least 1")


@dataclass(frozen=True, eq=False)
class ForecastRun:
    """Aligned per-origin forecasts, components and realised values."""

    T: int
    h: int
    d: int
    origins: np.ndarray            # row index of each forecast origin
    forecasts: np.ndarray          # len(origins) x p, common + idio
    common_part: np.ndarray
    idio_part: np.ndarray
    realized: np.ndarray           # actual observations at origin + h
    taus: np.ndarray               # truncation level used per origin
    skipped: tuple[tuple[int, str], ...]
    names: tuple[str, ...]

    def __post_init__(self):
        object.__setattr__(self, "origins", _frozen(self.origins, dtype=int))
        for name in ("forecasts", "common_part", "idio_part", "realized", "taus"):
            object.__setattr__(self, name, _frozen(getattr(self, name)))

    def errors(self) -> np.ndarray:
        """Absolute forecast errors per origin and variable."""
        return np.abs(self.forecasts - self.realized)


def forecast_common(
    eigvecs: np.ndarray, eigvals: np.ndarray, xt_window: np.ndarray, h: int
) -> np.ndarray:
    """Best linear predictor of the common part h steps past the window end.

    Uses the lag-h autocovariance of the in-window common component (divisor
    equal to the window length) together with the window eigenstructure; at
    h = 0 this collapses to the in-window projection of the last observation.
    """
    if h < 0:
        raise ValueError("horizon must be non-negative")
    E = np.asarray(eigvecs, dtype=float)
    mu = np.asarray(eigvals, dtype=float)
    if np.any(mu <= 0.0) or not np.all(np.isfinite(mu)):
        raise ValueError("singular eigenvalue matrix in the window fit")
    T = xt_window.shape[0]
    if T < h + mu.size + 1:
        raise ValueError(f"window of length {T} too short for horizon {h}")
    chi = (xt_window @ E) @ E.T
    gamma_chi = chi[h:].T @ chi[: T - h] / T
    weights = E @ ((E.T @ xt_window[-1]) / mu)
    return gamma_chi @ weights


def forecast_idio(var: VarFit, recent_xi: np.ndarray, h: int) -> np.ndarray:
    """Iterated VAR forecast h steps ahead from the most recent residuals.

    ``recent_xi`` holds at least d rows, oldest first; forecasts are plugged
    in for lags that fall past the origin.
    """
    if h < 1:
        raise ValueError("horizon must be at least 1")
    recent = np.asarray(recent_xi, dtype=float)
    if recent.ndim != 2 or recent.shape[0] < var.d:
        raise ValueError(f"need the last {var.d} residual rows, got {recent.shape}")
    history = [recent[i] for i in range(recent.shape[0] - var.d, recent.shape[0])]
    blocks = var.A_blocks
    for _ in range(h):
        # lag ell's block meets the ell-th newest row
        history.append(sum(block @ row for block, row in zip(blocks, reversed(history))))
    return history[-1]


def _window_forecast(window_fit: FavarFit, xt_values: np.ndarray, h: int):
    if window_fit.factors is not None:
        common = forecast_common(
            window_fit.factors.eigvecs, window_fit.factors.eigvals, xt_values, h
        )
        xi_window = window_fit.factors.idio
    else:
        common = np.zeros(xt_values.shape[1])
        xi_window = xt_values
    idio = forecast_idio(window_fit.var, xi_window[-window_fit.var.d :], h)
    return common, idio


def rolling_forecast(x: PanelSeries, opts: ForecastOptions = ForecastOptions()) -> ForecastRun:
    """Forecast every origin t = T..n-h from the trailing T observations.

    Failed origins are recorded with their reason and skipped; the run keeps
    only the surviving origin set, identically aligned across repeated calls
    with the same data.
    """
    T, h = opts.window, opts.horizon
    if x.n <= T + h - 1:
        raise ValueError(f"need more than window + horizon = {T + h} rows, got {x.n}")
    r_mode: int | str = opts.r
    tau_mode: float | str = opts.tau
    origins, fcs, commons, idios, realized, taus = [], [], [], [], [], []
    skipped: list[tuple[int, str]] = []
    for t in range(T - 1, x.n - h):
        window = PanelSeries(x.values[t - T + 1 : t + 1], x.names)
        try:
            window_fit = fit(window, replace(opts, r=r_mode, tau=tau_mode))
            xt_values = truncate(window, window_fit.rule).values
            common, idio = _window_forecast(window_fit, xt_values, h)
        except (StageError, ValueError) as e:
            skipped.append((t, str(e)))
            continue
        if r_mode == "auto" and not opts.reselect_r:
            r_mode = window_fit.r
        if tau_mode == "cv" and not opts.reselect_tau:
            tau_mode = window_fit.rule.tau
        origins.append(t)
        commons.append(common)
        idios.append(idio)
        fcs.append(common + idio)
        realized.append(x.values[t + h])
        taus.append(window_fit.rule.tau)
    return ForecastRun(
        T=T,
        h=h,
        d=opts.d,
        origins=np.asarray(origins, dtype=int),
        forecasts=np.asarray(fcs, dtype=float).reshape(len(origins), x.p),
        common_part=np.asarray(commons, dtype=float).reshape(len(origins), x.p),
        idio_part=np.asarray(idios, dtype=float).reshape(len(origins), x.p),
        realized=np.asarray(realized, dtype=float).reshape(len(origins), x.p),
        taus=np.asarray(taus, dtype=float),
        skipped=tuple(skipped),
        names=x.names,
    )


def align_origins(a: ForecastRun, b: ForecastRun) -> tuple[np.ndarray, np.ndarray]:
    """Positions of the origins the two runs have in common."""
    common, ia, ib = np.intersect1d(a.origins, b.origins, return_indices=True)
    if common.size == 0:
        raise ValueError("runs share no origins")
    return ia, ib
