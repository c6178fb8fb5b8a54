"""Row-wise l1-penalised least squares on the Gram system, with CV for lambda.

Each row problem minimises  b' Gamma b - 2 b' gamma_j + lambda |b|_1  by
cyclic coordinate descent. Because the smooth part carries no 1/2, its
gradient is 2(Gamma b - gamma_j) and the soft threshold sits at lambda / 2;
keeping that factor explicit here avoids the classic off-by-two.

One rule stops the solver: a problem is finished at the first sweep where
its first-order optimality (KKT) gap is at most ``10 * tol``. The gap is a
solver-independent certificate; sweep-to-sweep coordinate changes are not
one, since on a singular Gram matrix coordinates can drift along its null
space while the fit and the gap stay put.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .moments import GramSystem, _segment_gram, _values, build_gram
from .panel import _frozen


class ConvergenceError(RuntimeError):
    """Sweep budget exhausted; carries the last iterate and its KKT gap."""

    def __init__(self, message, beta, kkt_gap, iterations):
        super().__init__(message)
        self.beta = beta
        self.kkt_gap = kkt_gap
        self.iterations = iterations


@dataclass(frozen=True, eq=False)
class VarFit:
    """Estimated transition matrices, one p x p block per lag."""

    A: np.ndarray                  # p x (p d), row j solves the j-th problem
    A_blocks: tuple[np.ndarray, ...]
    lam: float
    d: int
    active_set: tuple[np.ndarray, ...]
    iterations: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "A", _frozen(self.A))
        object.__setattr__(self, "A_blocks", tuple(_frozen(b) for b in self.A_blocks))
        object.__setattr__(self, "iterations", _frozen(np.asarray(self.iterations)))

    @property
    def p(self) -> int:
        return self.A.shape[0]

    @property
    def nonzeros(self) -> int:
        return int(np.count_nonzero(self.A))


@dataclass(frozen=True, eq=False)
class LambdaCvReport:
    """Penalty path (decreasing), per-fold validation scores, chosen index.

    ``chosen`` minimises the mean validation score; ``one_se`` is the largest
    penalty whose score stays within one standard error of that minimum, the
    familiar sparser selection rule.
    """

    grid: np.ndarray
    fold_scores: np.ndarray        # n_folds x n_lambda
    mean_scores: np.ndarray
    chosen: int
    one_se: int

    def __post_init__(self):
        object.__setattr__(self, "grid", _frozen(self.grid))
        object.__setattr__(self, "fold_scores", _frozen(self.fold_scores))
        object.__setattr__(self, "mean_scores", _frozen(self.mean_scores))

    @property
    def lam(self) -> float:
        return float(self.grid[self.chosen])

    @property
    def lam_one_se(self) -> float:
        return float(self.grid[self.one_se])


def _soft(x: np.ndarray, s: float) -> np.ndarray:
    return np.sign(x) * np.maximum(np.abs(x) - s, 0.0)


def kkt_gap(Gamma: np.ndarray, gamma_col: np.ndarray, beta: np.ndarray, lam: float) -> float:
    """Worst violation of the subgradient optimality conditions."""
    return float(_kkt_gaps(2.0 * (Gamma @ beta - gamma_col), beta, lam))


def _kkt_gaps(grad: np.ndarray, B: np.ndarray, lam: float) -> np.ndarray:
    """Worst subgradient violation of each column of ``B``, given its gradient."""
    violation = np.where(
        B != 0.0, np.abs(grad + lam * np.sign(B)), np.maximum(np.abs(grad) - lam, 0.0)
    )
    return violation.max(axis=0, initial=0.0)


def _objectives(Gamma, gamma, B, lam, Q=None):
    if Q is None:
        Q = Gamma @ B
    quad = np.einsum("km,km->m", B, Q)
    lin = np.einsum("km,km->m", B, gamma)
    return quad - 2.0 * lin + lam * np.sum(np.abs(B), axis=0)


def _column_objective(Gamma_cols, gamma_col, beta_active, active, lam):
    q = Gamma_cols @ beta_active
    return float(
        beta_active @ q[active] - 2.0 * beta_active @ gamma_col[active]
        + lam * np.abs(beta_active).sum()
    )


def _refine_columns(Gamma, gamma, B, Q, lam, cols):
    """Jump columns to the exact solution of their current sign pattern.

    A cyclic sweep that crosses no thresholds is a Gauss-Seidel sweep on the
    pattern's linear system, so the pattern's exact solution is the fixed
    point the sweeps crawl toward; solving for it directly skips the long
    tail of sweeps on ill-conditioned problems. Coordinates whose solved sign
    disagrees with the pattern are pruned and the system re-solved a few
    times. A jump is only accepted when it lowers the objective, and the
    ordinary sweeps plus the KKT certificate still decide convergence, so a
    wrongly guessed pattern costs time, not correctness.
    """
    half = 0.5 * lam
    for j in cols:
        beta = B[:, j]
        active = np.flatnonzero(beta)
        if active.size == 0:
            continue
        signs = np.sign(beta[active])
        z = None
        for _ in range(6):
            system = Gamma[np.ix_(active, active)]
            rhs = gamma[active, j] - half * signs
            try:
                z = np.linalg.solve(system, rhs)
            except np.linalg.LinAlgError:
                z = None
            if z is None or not np.all(np.isfinite(z)):
                # singular pattern (flat directions): take the min-norm solution
                z = np.linalg.lstsq(system, rhs, rcond=None)[0]
            keep = np.sign(z) == signs
            if keep.all():
                break
            if not keep.any():
                z = None
                break
            active, signs, z = active[keep], signs[keep], None
        if z is None:
            continue
        Gamma_cols = Gamma[:, active]
        old_active = np.flatnonzero(beta)
        old_obj = _column_objective(
            Gamma[:, old_active], gamma[:, j], beta[old_active], old_active, lam
        )
        new_obj = _column_objective(Gamma_cols, gamma[:, j], z, active, lam)
        if new_obj > old_obj - 1e-15 * (1.0 + abs(old_obj)):
            continue
        B[:, j] = 0.0
        B[active, j] = z
        Q[:, j] = Gamma_cols @ z


def _cd_solve(
    Gamma: np.ndarray,
    gamma: np.ndarray,
    lam: float,
    tol: float,
    max_iter: int,
    beta0: np.ndarray | None = None,
    order: str = "forward",
    check_objective: bool = False,
):
    """Cyclic coordinate descent run jointly over every column of ``gamma``.

    Columns are independent problems sharing one Gamma; each is frozen at
    the first sweep after which its KKT gap is at most ``10 * tol``, and
    nothing else is tested. After every sweep the unfinished columns jump to
    the exact solution of their current sign pattern (see
    ``_refine_columns``). With
    ``check_objective`` the jumps are off, so the iteration is plain textbook
    coordinate descent whose objective is asserted never to increase.
    """
    if lam < 0.0:
        raise ValueError("lambda must be non-negative")
    pd_, m = gamma.shape
    diag = np.diag(Gamma).copy()
    dead = diag <= 0.0
    if np.any(dead):
        offending = np.argwhere(gamma[dead] != 0.0)
        if offending.size:
            k = int(np.flatnonzero(dead)[offending[0, 0]])
            raise ValueError(
                f"Gamma[{k},{k}] = 0 but gamma[{k},{int(offending[0, 1])}] != 0: "
                "coordinate problem is unbounded"
            )
    B = np.zeros((pd_, m)) if beta0 is None else np.array(beta0, dtype=float, copy=True)
    Q = Gamma @ B
    half = 0.5 * lam
    target_gap = 10.0 * tol
    sequence = range(pd_) if order == "forward" else range(pd_ - 1, -1, -1)
    sequence = [k for k in sequence if not dead[k]]
    remaining = np.ones(m, dtype=bool)
    iters = np.zeros(m, dtype=int)
    prev_obj = _objectives(Gamma, gamma, B, lam, Q) if check_objective else None
    for sweep in range(1, max_iter + 1):
        for k in sequence:
            dk = diag[k]
            rk = gamma[k] - (Q[k] - dk * B[k])
            delta = _soft(rk, half) / dk - B[k]
            delta[~remaining] = 0.0
            changed = np.flatnonzero(delta)
            if changed.size:
                B[k, changed] += delta[changed]
                Q[:, changed] += np.outer(Gamma[:, k], delta[changed])
        if check_objective:
            obj = _objectives(Gamma, gamma, B, lam, Q)
            slack = 1e-10 * (1.0 + np.abs(prev_obj))
            if np.any(obj > prev_obj + slack):
                raise AssertionError("objective increased across a sweep")
            prev_obj = obj
        done = remaining & (_kkt_gaps(2.0 * (Q - gamma), B, lam) <= target_gap)
        remaining[done] = False
        iters[done] = sweep
        if not remaining.any():
            return B, iters
        if not check_objective:
            _refine_columns(Gamma, gamma, B, Q, lam, np.flatnonzero(remaining))
    worst = float(_kkt_gaps(2.0 * (Q - gamma), B, lam)[remaining].max())
    iters[remaining] = max_iter
    raise ConvergenceError(
        f"{int(remaining.sum())} of {m} problems unconverged after {max_iter} sweeps "
        f"(worst KKT gap {worst:.3e})",
        beta=B,
        kkt_gap=worst,
        iterations=iters,
    )


def lasso_row(
    G: GramSystem,
    j: int,
    lam: float,
    tol: float = 1e-7,
    max_iter: int = 100_000,
    order: str = "forward",
    check_objective: bool = False,
) -> np.ndarray:
    """Solve the j-th row problem; returns the pd coefficient vector."""
    if not 0 <= j < G.p:
        raise ValueError(f"row index {j} outside 0..{G.p - 1}")
    B, _ = _cd_solve(
        G.Gamma,
        G.gamma[:, [j]],
        lam,
        tol,
        max_iter,
        order=order,
        check_objective=check_objective,
    )
    return B[:, 0]


def fit_var(
    G: GramSystem,
    lam: float,
    tol: float = 1e-7,
    max_iter: int = 100_000,
    check_objective: bool = False,
) -> VarFit:
    """Solve all p row problems and assemble the lag blocks."""
    try:
        B, iters = _cd_solve(
            G.Gamma, G.gamma, lam, tol, max_iter, check_objective=check_objective
        )
    except ConvergenceError as e:
        bad = np.flatnonzero(e.iterations >= max_iter)
        raise ConvergenceError(
            f"rows {bad.tolist()} failed to converge: {e}",
            beta=e.beta,
            kkt_gap=e.kkt_gap,
            iterations=e.iterations,
        ) from None
    A = B.T
    blocks = tuple(A[:, ell * G.p : (ell + 1) * G.p] for ell in range(G.d))
    active = tuple(np.flatnonzero(A[i]) for i in range(G.p))
    return VarFit(A=A, A_blocks=blocks, lam=float(lam), d=G.d, active_set=active, iterations=iters)


# lambda path depth: the grid runs down to this fraction of its largest value
_LAMBDA_DEPTH = 1e-3
# floor of the path solves' tol: each stops at an absolute KKT gap of at most
# 10 * max(tol, _PATH_SOLVE_TOL), since its fit only feeds a CV score
_PATH_SOLVE_TOL = 1e-5


def cv_lambda(
    xi_hat,
    d: int,
    n_lambda: int = 50,
    n_folds: int = 5,
    tol: float = 1e-7,
    max_iter: int = 100_000,
) -> LambdaCvReport:
    """Choose lambda by one-step-ahead prediction over contiguous time folds.

    The path starts at the smallest lambda that zeroes the fit on the full
    data and on every training fold, and decreases geometrically down to
    ``_LAMBDA_DEPTH`` (1e-3) times that. Solutions are warm-started along the
    path. Held-out points are predicted from the observed lags immediately
    preceding them; the score is the mean squared prediction error.

    Path solves feed nothing but those validation errors, so each stops once
    its KKT gap is at most ``10 * max(tol, 1e-5)``, an absolute bound not
    scaled by the moment magnitude; refit at the chosen penalty with
    ``fit_var`` (gap at most ``10 * tol``) for a certified solution.
    """
    values = _values(xi_hat)
    n, p = values.shape
    if n_folds < 2:
        raise ValueError("need at least 2 folds")
    if n_lambda < 1:
        raise ValueError("need at least one lambda")
    full = build_gram(values, d)
    blocks = np.array_split(np.arange(n), n_folds)
    if any(b.size == 0 for b in blocks):
        raise ValueError(f"{n_folds} folds over {n} observations leaves an empty fold")
    folds = []
    lam_max = 2.0 * float(np.max(np.abs(full.gamma)))
    for b in blocks:
        lo, hi = int(b[0]), int(b[-1]) + 1
        xtx, xty, rows = _segment_gram(values, [(0, lo), (hi, n)], d)
        if rows == 0:
            raise ValueError("a training fold is too short to form any lagged row")
        Gamma = 0.5 * (xtx + xtx.T) / rows
        gamma = xty / rows
        val_t = b[b >= d]
        if val_t.size == 0:
            raise ValueError("a validation fold has no point with d observed lags")
        va_design = np.concatenate(
            [values[val_t - ell] for ell in range(1, d + 1)], axis=1
        )
        va_resp = values[val_t]
        folds.append((Gamma, gamma, va_design, va_resp))
        lam_max = max(lam_max, 2.0 * float(np.max(np.abs(gamma))))
    grid = np.geomspace(lam_max, lam_max * _LAMBDA_DEPTH, n_lambda)
    fold_scores = np.empty((n_folds, n_lambda))
    for k, (Gamma, gamma, va_design, va_resp) in enumerate(folds):
        B = np.zeros_like(gamma)
        tol_fold = max(tol, _PATH_SOLVE_TOL)
        for i, lam in enumerate(grid):
            B, _ = _cd_solve(Gamma, gamma, float(lam), tol_fold, max_iter, beta0=B)
            resid = va_resp - va_design @ B
            fold_scores[k, i] = float(np.mean(resid**2))
    mean_scores = fold_scores.mean(axis=0)
    chosen = int(np.argmin(mean_scores))  # first minimum, i.e. the largest lambda
    se = float(fold_scores[:, chosen].std(ddof=1) / math.sqrt(n_folds))
    one_se = int(np.flatnonzero(mean_scores <= mean_scores[chosen] + se)[0])
    return LambdaCvReport(
        grid=grid,
        fold_scores=fold_scores,
        mean_scores=mean_scores,
        chosen=chosen,
        one_se=one_se,
    )
