"""Principal-component factor structure estimation and factor-number choice.

The factor space is read off the eigendecomposition of the (truncated)
second-moment matrix. Eigenvectors are sign-fixed so that the largest-
magnitude coordinate of each is positive, making fits reproducible: the
decomposition itself only identifies them up to sign.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .moments import autocov
from .panel import PanelSeries, _frozen

_RANK_TOL = 1e-12


@dataclass(frozen=True, eq=False)
class FactorFit:
    """Leading eigenpairs plus the implied loadings, factors and split.

    ``common + idio`` reconstructs the input panel exactly, and
    ``common = eigvecs @ eigvecs.T @ x`` row by row.
    """

    r: int
    eigvals: np.ndarray      # leading r eigenvalues, descending
    eigvecs: np.ndarray      # p x r, orthonormal columns
    loadings: np.ndarray     # p x r
    factors: np.ndarray      # n x r
    common: np.ndarray       # n x p
    idio: np.ndarray         # n x p

    def __post_init__(self):
        for name in ("eigvals", "eigvecs", "loadings", "factors", "common", "idio"):
            object.__setattr__(self, name, _frozen(getattr(self, name)))


@dataclass(frozen=True, eq=False)
class FactorNumberReport:
    """IC_p2 values over k = 0..r_max and their argmin."""

    r_max: int
    criterion: np.ndarray
    chosen: int


def _sign_fix(vecs: np.ndarray) -> np.ndarray:
    out = vecs.copy()
    for j in range(out.shape[1]):
        k = int(np.argmax(np.abs(out[:, j])))
        if out[k, j] < 0.0:
            out[:, j] = -out[:, j]
    return out


def _eigendecompose(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    gram = autocov(values, 0)
    gram = 0.5 * (gram + gram.T)
    eigvals, eigvecs = np.linalg.eigh(gram)
    order = np.argsort(eigvals)[::-1]
    return eigvals[order], eigvecs[:, order]


def fit_factors(x_trunc: PanelSeries, r: int) -> FactorFit:
    """Estimate an r-factor structure from a (typically truncated) panel.

    Factors are the leading principal components of the second-moment
    matrix; the common part is the orthogonal projection of each row onto
    the leading eigenspace and the idiosyncratic part is the remainder.
    """
    n, p = x_trunc.n, x_trunc.p
    if not 1 <= r <= min(n, p):
        raise ValueError(f"factor number r={r} outside 1..min(n, p)={min(n, p)}")
    eigvals, eigvecs = _eigendecompose(x_trunc.values)
    if eigvals[r - 1] <= _RANK_TOL:
        raise ValueError(
            f"rank deficiency: eigenvalue {r} is {eigvals[r - 1]:.3e}; "
            "reduce the factor number"
        )
    mu = eigvals[:r]
    E = _sign_fix(eigvecs[:, :r])
    loadings = E * np.sqrt(mu)
    factors = x_trunc.values @ E / np.sqrt(mu)
    common = (x_trunc.values @ E) @ E.T
    idio = x_trunc.values - common
    return FactorFit(
        r=r,
        eigvals=mu,
        eigvecs=E,
        loadings=loadings,
        factors=factors,
        common=common,
        idio=idio,
    )


def select_r(x_trunc: PanelSeries, r_max: int | None = None) -> FactorNumberReport:
    """Choose the factor number with the IC_p2 criterion of Bai & Ng (2002).

    The criterion is log V(k) + k * (n+p)/(np) * log(min(n, p)), where V(k)
    is the mean squared principal-component residual using k factors; k = 0
    is included so "no factors" is selectable. ``r_max`` is at most
    min(n, p)/2, and min(8, min(n, p)/2) when left as None.
    """
    n, p = x_trunc.n, x_trunc.p
    if r_max is None:
        r_max = min(8, min(n, p) // 2)
    if not 1 <= r_max <= min(n, p) // 2:
        raise ValueError(f"r_max={r_max} outside 1..min(n, p)/2={min(n, p) // 2}")
    eigvals, _ = _eigendecompose(x_trunc.values)
    total = float(np.sum(eigvals))
    ks = np.arange(r_max + 1)
    # V(k) = mean squared residual = (trace - sum of leading k eigenvalues) / p
    residual = total - np.concatenate([[0.0], np.cumsum(eigvals[:r_max])])
    v = np.maximum(residual / p, np.finfo(float).tiny)
    criterion = np.log(v) + ks * (n + p) / (n * p) * np.log(min(n, p))
    return FactorNumberReport(r_max=r_max, criterion=criterion, chosen=int(np.argmin(criterion)))


def project_common(fit: FactorFit, x_new: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Split a new observation into its common part and the remainder."""
    x_new = np.asarray(x_new, dtype=float)
    if x_new.shape != (fit.eigvecs.shape[0],):
        raise ValueError(
            f"observation has length {x_new.shape}, expected ({fit.eigvecs.shape[0]},)"
        )
    common = fit.eigvecs @ (fit.eigvecs.T @ x_new)
    return common, x_new - common
