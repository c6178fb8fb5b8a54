"""Lagged second-moment matrices and the stacked Gram system for the VAR lasso.

Everything here works with raw (non-centred) second moments: the model is
zero mean, and demeaning is the caller's preprocessing responsibility. Two
divisor conventions coexist and are never mixed: the standalone lag-h moment
divides by n - h, while the Gram system divides by N = n - d.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .panel import PanelSeries, _frozen


def _values(x) -> np.ndarray:
    if isinstance(x, PanelSeries):
        return x.values
    return np.asarray(x, dtype=float)


@dataclass(frozen=True, eq=False)
class GramSystem:
    """Stacked moment matrices feeding the row-wise lasso.

    ``Gamma`` is pd x pd and ``gamma`` pd x p, both divided by N = n - d.
    ``Gamma`` is a Gram matrix, hence symmetric positive semi-definite.
    """

    Gamma: np.ndarray
    gamma: np.ndarray
    N: int
    d: int
    p: int

    def __post_init__(self):
        G = np.asarray(self.Gamma, dtype=float)
        g = np.asarray(self.gamma, dtype=float)
        pd_ = self.p * self.d
        if G.shape != (pd_, pd_):
            raise ValueError(f"Gamma must be {pd_}x{pd_}, got {G.shape}")
        if g.shape != (pd_, self.p):
            raise ValueError(f"gamma must be {pd_}x{self.p}, got {g.shape}")
        if not (np.all(np.isfinite(G)) and np.all(np.isfinite(g))):
            raise ValueError("Gamma or gamma is not finite: the second moments overflow")
        scale = max(1.0, float(np.max(np.abs(G))))
        if np.max(np.abs(G - G.T)) > 1e-10 * scale:
            raise ValueError("Gamma is not symmetric")
        object.__setattr__(self, "Gamma", _frozen(G))
        object.__setattr__(self, "gamma", _frozen(g))


def autocov(x, h: int) -> np.ndarray:
    """Lag-h sample second-moment matrix of a panel or array, divisor n - h, no centring.

    A stack of arrays, (..., n, p), gives the stack of their p x p moments.
    """
    values = _values(x)
    n = values.shape[-2]
    if h < 0 or h >= n:
        raise ValueError(f"lag {h} out of range for {n} observations")
    return np.swapaxes(values[..., h:, :], -1, -2) @ values[..., : n - h, :] / (n - h)


def _segment_gram(values: np.ndarray, segments, d: int):
    """Pooled lagged design/response cross-products over contiguous index segments.

    Row t of a segment's design holds the d most recent lags (newest first)
    and its response row is the series at t. Returns the undivided
    ``(design' design, design' response, rows)``; callers divide and
    symmetrise.
    """
    p = values.shape[1]
    xtx = np.zeros((p * d, p * d))
    xty = np.zeros((p * d, p))
    rows = 0
    for lo, hi in segments:
        m = hi - lo
        if m < d + 1:
            continue
        seg = values[lo:hi]
        design = np.concatenate([seg[d - ell : m - ell] for ell in range(1, d + 1)], axis=1)
        response = seg[d:]
        xtx += design.T @ design
        xty += design.T @ response
        rows += m - d
    return xtx, xty, rows


def build_gram(xi_hat, d: int) -> GramSystem:
    """Assemble the lagged design Gram system from an idiosyncratic series.

    Row t of the design holds the d most recent lags (newest first) and the
    response row is the series at t, for t = d+1..n.
    """
    values = _values(xi_hat)
    n, p = values.shape
    if d < 1:
        raise ValueError("VAR order d must be at least 1")
    if n < d + 2:
        raise ValueError(f"need at least d + 2 = {d + 2} observations, got {n}")
    xtx, xty, N = _segment_gram(values, [(0, n)], d)
    Gamma = xtx / N
    gamma = xty / N
    Gamma = 0.5 * (Gamma + Gamma.T)
    return GramSystem(Gamma=Gamma, gamma=gamma, N=N, d=d, p=p)
