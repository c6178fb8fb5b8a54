"""Element-wise truncation and cross-validated choice of the truncation level.

The level tau lives on the standardised scale; each variable is clipped at
its own threshold ``sigma_i * tau``. ``tau = inf`` means no truncation. The
cross-validation score compares truncated and untruncated autocovariances
across the two halves of the sample, and the selected tau is the grid
minimiser, with ties broken toward the largest tau (least truncation).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .moments import autocov, max_norm_diff
from .panel import PanelSeries, ScaleVector, _frozen


@dataclass(frozen=True, eq=False)
class TruncationRule:
    """Global level tau plus per-variable scales; thresholds are sigma_i * tau."""

    tau: float
    scales: ScaleVector

    def __post_init__(self):
        tau = float(self.tau)
        if not (tau > 0.0):
            raise ValueError("tau must be positive (use inf for no truncation)")
        object.__setattr__(self, "tau", tau)

    @property
    def thresholds(self) -> np.ndarray:
        return self.scales.sigma * self.tau

    @property
    def is_identity(self) -> bool:
        return math.isinf(self.tau)


@dataclass(frozen=True, eq=False)
class TauGrid:
    """Strictly increasing, equi-spaced candidate levels."""

    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.ndim != 1 or v.size < 2:
            raise ValueError("grid needs at least two points")
        steps = np.diff(v)
        if np.any(steps <= 0.0):
            raise ValueError("grid must be strictly increasing")
        if np.max(steps) - np.min(steps) > 1e-9 * np.max(np.abs(v)):
            raise ValueError("grid must be equi-spaced")
        object.__setattr__(self, "values", _frozen(v))

    @property
    def size(self) -> int:
        return self.values.shape[0]


@dataclass(frozen=True, eq=False)
class TauCvReport:
    """Cross-validation scores over a grid and the index of the chosen level."""

    grid: TauGrid
    scores: np.ndarray
    chosen: int

    def __post_init__(self):
        object.__setattr__(self, "scores", _frozen(self.scores))

    @property
    def tau(self) -> float:
        return float(self.grid.values[self.chosen])


def truncate(x: PanelSeries, rule: TruncationRule) -> PanelSeries:
    """Clip each entry at its per-variable threshold, preserving sign."""
    if rule.scales.p != x.p:
        raise ValueError(f"rule is for {rule.scales.p} variables, panel has {x.p}")
    if rule.is_identity:
        return x
    thr = rule.thresholds
    return PanelSeries(np.clip(x.values, -thr, thr), x.names)


def truncate_values(values: np.ndarray, thresholds: np.ndarray) -> np.ndarray:
    return np.clip(values, -thresholds, thresholds)


def build_tau_grid(x: PanelSeries, s: ScaleVector, J: int = 60) -> TauGrid:
    """Equi-spaced grid from the pooled median to the pooled max of |X/sigma|."""
    if J < 2:
        raise ValueError("grid size must be at least 2")
    if s.p != x.p:
        raise ValueError("scale length does not match panel width")
    ratios = np.abs(x.values / s.sigma)
    lo = float(np.median(ratios))
    hi = float(np.max(ratios))
    if not hi > lo:
        raise ValueError("all standardised magnitudes are equal; no grid to search")
    return TauGrid(np.linspace(lo, hi, J))


def cv_tau(x: PanelSeries, s: ScaleVector, d: int, grid: TauGrid) -> TauCvReport:
    """Two-fold autocovariance matching score, minimised over the grid.

    The sample is split into its first and second half. For each candidate
    tau and each lag h in 0..d, the truncated autocovariance of one fold is
    compared in max norm against the untruncated autocovariance of the other,
    and the two fold terms are summed; the score takes the max over lags.
    """
    if d < 0:
        raise ValueError("lag range d must be non-negative")
    if s.p != x.p:
        raise ValueError("scale length does not match panel width")
    n = x.n
    half = n // 2
    if half < d + 1 or (n - half) < d + 1:
        raise ValueError(f"folds of length {half} and {n - half} too short for lag {d}")
    folds = (x.values[:half], x.values[half:])
    plain = [[autocov(f, h) for h in range(d + 1)] for f in folds]
    scores = np.empty(grid.size)
    for k, tau in enumerate(grid.values):
        thr = s.sigma * tau
        clipped = [truncate_values(f, thr) for f in folds]
        worst = 0.0
        for h in range(d + 1):
            g1 = autocov(clipped[0], h)
            g2 = autocov(clipped[1], h)
            score_h = max_norm_diff(g1, plain[1][h]) + max_norm_diff(g2, plain[0][h])
            worst = max(worst, score_h)
        scores[k] = worst
    minimisers = np.flatnonzero(scores == scores.min())
    chosen = int(minimisers[-1])  # ties resolved toward the largest tau
    return TauCvReport(grid=grid, scores=scores, chosen=chosen)
