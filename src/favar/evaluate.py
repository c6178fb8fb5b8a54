"""Estimation-error metrics, relative mean errors, and the fluctuation test.

The fluctuation test compares two forecast-error paths through scaled
rolling averages of their difference; the scale is a Bartlett-kernel
long-run variance with bandwidth floor(L^(1/3)). Two-sided 5% critical
values are read from a table simulated once from the limiting Brownian
functional (see scripts/gen_fluctuation_critical_values.py) and shipped
with the package.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .panel import _frozen

_DATA_DIR = Path(__file__).parent / "_data"
CRITICAL_VALUES_FILE = _DATA_DIR / "fluctuation_critical_values.csv"

METRICS = ("max_row_l2", "max_elementwise", "frobenius", "l2_col_max")


@dataclass(frozen=True, eq=False)
class MetricReport:
    """Per-replication errors for one metric, with simple aggregates."""

    metric: str
    errors: np.ndarray

    def __post_init__(self):
        e = np.asarray(self.errors, dtype=float)
        if np.any(e < 0.0):
            raise ValueError("errors must be non-negative")
        object.__setattr__(self, "errors", _frozen(e))

    @property
    def mean(self) -> float:
        return float(np.mean(self.errors))

    @property
    def quantiles(self) -> tuple[float, float, float]:
        q = np.quantile(self.errors, [0.25, 0.5, 0.75])
        return float(q[0]), float(q[1]), float(q[2])


@dataclass(frozen=True)
class RmeReport:
    """Ratio of summed errors of two estimator streams."""

    numerator: float
    denominator: float
    count: int

    @property
    def ratio(self) -> float:
        return self.numerator / self.denominator


@dataclass(frozen=True, eq=False)
class FluctuationResult:
    """Rolling statistic path with its two-sided critical value."""

    mu: float
    m: int
    stats: np.ndarray
    critical_value: float
    reject: np.ndarray
    sigma2: float
    bandwidth: int

    def __post_init__(self):
        object.__setattr__(self, "stats", _frozen(self.stats))
        object.__setattr__(self, "reject", _frozen(self.reject, dtype=bool))

    @property
    def any_reject(self) -> bool:
        return bool(self.reject.any())


def matrix_error(a_hat, a, metric: str) -> float:
    """Difference size under one of the named matrix norms.

    ``max_row_l2`` is the largest Euclidean norm among the rows of the
    difference, ``l2_col_max`` the largest among its columns.
    """
    a_hat = np.asarray(a_hat, dtype=float)
    a = np.asarray(a, dtype=float)
    if a_hat.shape != a.shape:
        raise ValueError(f"shape mismatch: {a_hat.shape} vs {a.shape}")
    diff = a_hat - a
    if metric == "max_row_l2":
        return float(np.max(np.sqrt(np.sum(diff**2, axis=1))))
    if metric == "max_elementwise":
        return float(np.max(np.abs(diff)))
    if metric == "frobenius":
        return float(np.sqrt(np.sum(diff**2)))
    if metric == "l2_col_max":
        return float(np.max(np.sqrt(np.sum(diff**2, axis=0))))
    raise ValueError(f"unknown metric {metric!r}; choose from {METRICS}")


def rme(errs_trunc, errs_plain) -> float:
    """Relative mean error: the ratio of summed errors, not a mean of ratios."""
    num = np.asarray(errs_trunc, dtype=float)
    den = np.asarray(errs_plain, dtype=float)
    if num.shape != den.shape:
        raise ValueError("error streams must have equal length")
    total = float(np.sum(den))
    if total <= 0.0:
        raise ValueError("denominator stream sums to zero")
    return float(np.sum(num)) / total


def bartlett_long_run_variance(x, bandwidth: int | None = None) -> float:
    """Newey-West long-run variance of a demeaned series."""
    x = np.asarray(x, dtype=float)
    L = x.size
    if L < 2:
        raise ValueError("series too short")
    if bandwidth is None:
        bandwidth = int(L ** (1.0 / 3.0))
    z = x - x.mean()
    out = float(z @ z) / L
    for k in range(1, min(bandwidth, L - 1) + 1):
        gamma_k = float(z[k:] @ z[:-k]) / L
        out += 2.0 * (1.0 - k / (bandwidth + 1.0)) * gamma_k
    return out


def load_critical_values(path=CRITICAL_VALUES_FILE) -> tuple[np.ndarray, np.ndarray]:
    mus, cvs = [], []
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        for row in reader:
            mus.append(float(row["mu"]))
            cvs.append(float(row["two_sided_95"]))
    order = np.argsort(mus)
    return np.asarray(mus)[order], np.asarray(cvs)[order]


def critical_value(mu: float, path=CRITICAL_VALUES_FILE) -> float:
    """Two-sided 5% critical value for the given window fraction.

    Linear interpolation between the tabulated window fractions; values of
    mu outside the table are rejected rather than extrapolated.
    """
    mus, cvs = load_critical_values(path)
    if mu < mus[0] or mu > mus[-1]:
        raise ValueError(f"mu={mu} outside the tabulated range [{mus[0]}, {mus[-1]}]")
    return float(np.interp(mu, mus, cvs))


def fluctuation_test(fe_a, fe_b, mu: float = 0.3) -> FluctuationResult:
    """Rolling-window test of equal forecast accuracy between two methods.

    The loss differential is ``fe_a - fe_b``; each statistic is the window
    sum scaled by sqrt(m) and the full-sample long-run standard deviation.
    Negative statistics favour the first method.
    """
    a = np.asarray(fe_a, dtype=float)
    b = np.asarray(fe_b, dtype=float)
    if a.shape != b.shape or a.ndim != 1:
        raise ValueError("forecast-error series must be equal-length vectors")
    if not 0.0 < mu < 1.0:
        raise ValueError("mu must lie strictly between 0 and 1")
    L = a.size
    if L < math.ceil(2.0 / mu):
        raise ValueError(f"series of length {L} too short for mu={mu}")
    m = int(mu * L)
    if m < 2:
        raise ValueError("window would contain fewer than 2 points")
    delta = a - b
    n_windows = L - m + 1
    cv = critical_value(mu)
    if not delta.any():
        stats = np.zeros(n_windows)
        return FluctuationResult(
            mu=mu,
            m=m,
            stats=stats,
            critical_value=cv,
            reject=np.zeros(n_windows, dtype=bool),
            sigma2=0.0,
            bandwidth=int(L ** (1.0 / 3.0)),
        )
    bandwidth = int(L ** (1.0 / 3.0))
    sigma2 = bartlett_long_run_variance(delta, bandwidth)
    if sigma2 <= 0.0:
        raise ValueError("long-run variance of the loss differential is not positive")
    cumsum = np.concatenate([[0.0], np.cumsum(delta)])
    window_sums = cumsum[m:] - cumsum[:-m]
    stats = window_sums / (math.sqrt(sigma2) * math.sqrt(m))
    reject = np.abs(stats) > cv
    return FluctuationResult(
        mu=mu,
        m=m,
        stats=stats,
        critical_value=cv,
        reject=reject,
        sigma2=sigma2,
        bandwidth=bandwidth,
    )
