"""Seeded data-generating processes for the simulation studies.

Designs, by name:

  VAR coefficients   banded        0.5 on the diagonal, +0.4 / -0.4 on the
                                   sub- / super-diagonal
                     erdos_renyi   directed random graph with link
                                   probability 1/p (no self loops), entries
                                   0.275, then scaled to unit spectral norm
                     none          zero matrix (independent data)
  innovations        gaussian      standard normal
                     student_t     t_nu rescaled to unit variance (nu > 2)
                     lognormal     lognormal(0, 1) centred and rescaled to
                                   zero mean, unit variance
  common component   var1_factors  r factors following a VAR(1), loadings
                                   standard normal, variance-matched to the
                                   idiosyncratic part variable by variable
                     none          no common component
  innovation cov     identity
                     power_decay   [0.9^|i-j|]

All draws come from named Philox streams keyed by the configured seed, so every
replication is reproducible from ``(seed,)`` alone.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from ._rng import (
    STREAM_FACTOR,
    STREAM_FACTOR_BURNIN,
    STREAM_GRAPH,
    STREAM_VAR,
    STREAM_VAR_BURNIN,
    make_rng,
)
from .panel import PanelSeries, _frozen

VAR_DESIGNS = ("banded", "erdos_renyi", "none")
INNOVATIONS = ("gaussian", "student_t", "lognormal")
FACTOR_DESIGNS = ("var1_factors", "none")
SIGMA_DESIGNS = ("identity", "power_decay")

_POWER_DECAY_BASE = 0.9
_FACTOR_SPECTRAL_LEVEL = 0.7


@dataclass(frozen=True)
class DgpSpec:
    """Full description of one simulated panel."""

    n: int
    p: int
    var_design: str = "banded"
    innovation: str = "gaussian"
    nu: float = 3.0
    factor_design: str = "none"
    r: int = 3
    sigma_eps: str = "identity"
    burn_in: int = 500
    seed: int = 0

    def __post_init__(self):
        for name in ("n", "p", "r", "burn_in"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        if isinstance(self.nu, bool) or not isinstance(self.nu, numbers.Real):
            raise ValueError(f"nu must be a number, got {self.nu!r}")
        if self.n < 2 or self.p < 2:
            raise ValueError("need n >= 2 and p >= 2")
        if self.var_design not in VAR_DESIGNS:
            raise ValueError(f"unknown VAR design {self.var_design!r}")
        if self.innovation not in INNOVATIONS:
            raise ValueError(f"unknown innovation law {self.innovation!r}")
        if self.factor_design not in FACTOR_DESIGNS:
            raise ValueError(f"unknown factor design {self.factor_design!r}")
        if self.sigma_eps not in SIGMA_DESIGNS:
            raise ValueError(f"unknown innovation covariance {self.sigma_eps!r}")
        if self.innovation == "student_t" and not self.nu > 2.0:
            raise ValueError("student_t needs nu > 2 so the variance exists")
        if self.factor_design == "var1_factors" and self.r < 1:
            raise ValueError("factor design needs r >= 1")
        if self.burn_in < 100:
            raise ValueError("burn_in must be at least 100")


@dataclass(frozen=True, eq=False)
class SimulatedPanel:
    """Observed panel plus every latent quantity used to build it."""

    x: PanelSeries
    A: np.ndarray
    Lambda: np.ndarray
    F: np.ndarray
    chi: np.ndarray
    xi: np.ndarray
    eps: np.ndarray
    spec: DgpSpec

    def __post_init__(self):
        for name in ("A", "Lambda", "F", "chi", "xi", "eps"):
            object.__setattr__(self, name, _frozen(getattr(self, name)))


def make_A(design: str, p: int, seed: int = 0) -> np.ndarray:
    """VAR(1) transition matrix for one of the named designs."""
    if p < 2:
        raise ValueError("need p >= 2")
    if design == "banded":
        A = 0.5 * np.eye(p)
        A += np.diag(np.full(p - 1, 0.4), k=-1)
        A += np.diag(np.full(p - 1, -0.4), k=1)
        return A
    if design == "erdos_renyi":
        rng = make_rng(seed, STREAM_GRAPH)
        edges = rng.random((p, p)) < 1.0 / p
        np.fill_diagonal(edges, False)
        A0 = 0.275 * edges
        if not A0.any():
            return A0
        return A0 / np.linalg.norm(A0, 2)
    if design == "none":
        return np.zeros((p, p))
    raise ValueError(f"unknown VAR design {design!r}")


def spectral_radius(A: np.ndarray) -> float:
    return float(np.max(np.abs(np.linalg.eigvals(A))))


def stability_gate(A: np.ndarray) -> None:
    rho = spectral_radius(A)
    if rho >= 1.0:
        raise ValueError(f"transition matrix is unstable: spectral radius {rho:.6f} >= 1")


def draw_innovations(
    law: str, n: int, p: int, seed: int, nu: float = 3.0, stream: int = STREAM_VAR
) -> np.ndarray:
    """n x p matrix of iid, zero-mean, unit-variance innovations."""
    rng = make_rng(seed, stream)
    return _draw(rng, law, (n, p), nu)


def _draw(rng: np.random.Generator, law: str, shape, nu: float) -> np.ndarray:
    if law == "gaussian":
        return rng.standard_normal(shape)
    if law == "student_t":
        if not nu > 2.0:
            raise ValueError("student_t needs nu > 2")
        return rng.standard_t(nu, shape) / math.sqrt(nu / (nu - 2.0))
    if law == "lognormal":
        raw = rng.lognormal(0.0, 1.0, shape)
        return (raw - math.exp(0.5)) / math.sqrt(math.exp(2.0) - math.exp(1.0))
    raise ValueError(f"unknown innovation law {law!r}")


def var1_path(A: np.ndarray, innovations: np.ndarray, burn_in: int) -> np.ndarray:
    """Run x_t = A x_{t-1} + e_t from zero and discard the first burn_in steps."""
    total, p = innovations.shape
    if burn_in >= total:
        raise ValueError("burn_in leaves no retained observations")
    out = np.empty((total, p))
    prev = np.zeros(p)
    for t in range(total):
        prev = A @ prev + innovations[t]
        out[t] = prev
    return out[burn_in:]


def make_factor_block(
    n: int,
    p: int,
    r: int,
    law: str,
    seed: int,
    nu: float = 3.0,
    burn_in: int = 500,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Loadings, factor path and factor transition matrix for the VAR(1) design.

    Draw order on the factor stream is fixed: loadings, then the transition
    matrix entries (off-diagonal, then diagonal), then the n retained factor
    innovations; the burn-in prefix has its own stream, so a longer burn-in
    never changes the retained sample. The transition matrix is scaled so its
    largest eigenvalue modulus is 0.7.
    """
    if r < 1:
        raise ValueError("need r >= 1")
    rng = make_rng(seed, STREAM_FACTOR)
    Lambda = rng.standard_normal((p, r))
    D0 = rng.uniform(0.0, 0.3, (r, r))
    D0[np.diag_indices(r)] = rng.uniform(0.5, 0.8, r)
    D = _FACTOR_SPECTRAL_LEVEL * D0 / np.max(np.abs(np.linalg.eigvals(D0)))
    u_main = _draw(rng, law, (n, r), nu)
    u_burn = _draw(make_rng(seed, STREAM_FACTOR_BURNIN), law, (burn_in, r), nu)
    # burn-in draws are consumed newest-first, so a longer burn-in prepends
    # history instead of rewriting the steps adjacent to the sample
    F = var1_path(D, np.concatenate([u_burn[::-1], u_main]), burn_in)
    return Lambda, F, D


def sigma_eps_sqrt(design: str, p: int) -> np.ndarray:
    """Symmetric square root of the innovation covariance."""
    if design == "identity":
        return np.eye(p)
    if design == "power_decay":
        idx = np.arange(p)
        cov = _POWER_DECAY_BASE ** np.abs(idx[:, None] - idx[None, :])
        w, V = np.linalg.eigh(cov)
        return (V * np.sqrt(np.maximum(w, 0.0))) @ V.T
    raise ValueError(f"unknown innovation covariance {design!r}")


def simulate_panel(spec: DgpSpec) -> SimulatedPanel:
    """Generate one panel, keeping every latent truth alongside it."""
    A = make_A(spec.var_design, spec.p, spec.seed)
    stability_gate(A)
    root = sigma_eps_sqrt(spec.sigma_eps, spec.p)
    v_main = draw_innovations(spec.innovation, spec.n, spec.p, spec.seed, spec.nu, STREAM_VAR)
    v_burn = draw_innovations(
        spec.innovation, spec.burn_in, spec.p, spec.seed, spec.nu, STREAM_VAR_BURNIN
    )
    # newest-first burn-in: extending it prepends history (see make_factor_block)
    v = np.concatenate([v_burn[::-1], v_main])
    eps = v if spec.sigma_eps == "identity" else v @ root.T
    xi = var1_path(A, eps, spec.burn_in)
    if spec.factor_design == "var1_factors":
        Lambda, F, _ = make_factor_block(
            spec.n, spec.p, spec.r, spec.innovation, spec.seed, spec.nu, spec.burn_in
        )
        chi0 = F @ Lambda.T
        sd_chi = np.std(chi0, axis=0)
        if np.any(sd_chi <= 0.0):
            raise ValueError("degenerate common component: a variable has zero variance")
        scale = np.std(xi, axis=0) / sd_chi
        chi = chi0 * scale
        Lambda = Lambda * scale[:, None]
    else:
        Lambda = np.zeros((spec.p, 0))
        F = np.zeros((spec.n, 0))
        chi = np.zeros((spec.n, spec.p))
    x = PanelSeries.from_values(chi + xi)
    return SimulatedPanel(
        x=x, A=A, Lambda=Lambda, F=F, chi=chi, xi=xi, eps=eps[spec.burn_in :], spec=spec
    )
