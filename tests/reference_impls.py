"""Independent straight-line re-implementations used as test oracles.

Everything here is deliberately written with plain Python loops and no reuse
of the package's own building blocks, so agreement is meaningful.
"""

import numpy as np


def loop_autocov(values, h):
    """Lag-h second-moment matrix, divisor n - h, via explicit triple loop."""
    n, p = values.shape
    out = np.zeros((p, p))
    for t in range(h, n):
        for i in range(p):
            for j in range(p):
                out[i, j] += values[t, i] * values[t - h, j]
    return out / (n - h)


def loop_truncate(values, thresholds):
    n, p = values.shape
    out = np.empty((n, p))
    for t in range(n):
        for i in range(p):
            v = values[t, i]
            c = thresholds[i]
            if v > c:
                out[t, i] = c
            elif v < -c:
                out[t, i] = -c
            else:
                out[t, i] = v
    return out


def loop_max_abs_diff(a, b):
    worst = 0.0
    for i in range(a.shape[0]):
        for j in range(a.shape[1]):
            worst = max(worst, abs(a[i, j] - b[i, j]))
    return worst


def reference_cv_tau_scores(values, sigma, d, taus):
    """The two-fold truncation CV score, computed entirely with loops."""
    n = values.shape[0]
    half = n // 2
    fold1, fold2 = values[:half], values[half:]
    scores = []
    for tau in taus:
        thr = np.array([s * tau for s in sigma])
        t1, t2 = loop_truncate(fold1, thr), loop_truncate(fold2, thr)
        worst = -np.inf
        for h in range(d + 1):
            term = loop_max_abs_diff(
                loop_autocov(t1, h), loop_autocov(fold2, h)
            ) + loop_max_abs_diff(loop_autocov(t2, h), loop_autocov(fold1, h))
            worst = max(worst, term)
        scores.append(worst)
    return np.array(scores)


def loop_gram(values, d):
    """Stacked design and response built row by row, then plain matmuls."""
    n, p = values.shape
    N = n - d
    X = np.zeros((N, p * d))
    Y = np.zeros((N, p))
    for row, t in enumerate(range(d, n)):
        for ell in range(1, d + 1):
            X[row, (ell - 1) * p : ell * p] = values[t - ell]
        Y[row] = values[t]
    return X.T @ X / N, X.T @ Y / N


def lasso_objective(Gamma, gamma_col, beta, lam):
    return float(beta @ Gamma @ beta - 2.0 * beta @ gamma_col + lam * np.abs(beta).sum())


def loop_kkt_gap(Gamma, gamma_col, beta, lam):
    """Worst subgradient-condition violation, one coordinate at a time."""
    worst = 0.0
    for k in range(beta.shape[0]):
        grad = 0.0
        for m in range(beta.shape[0]):
            grad += Gamma[k, m] * beta[m]
        grad = 2.0 * (grad - gamma_col[k])
        if beta[k] > 0.0:
            violation = abs(grad + lam)
        elif beta[k] < 0.0:
            violation = abs(grad - lam)
        else:
            violation = max(abs(grad) - lam, 0.0)
        worst = max(worst, violation)
    return worst


def proximal_gradient_lasso(Gamma, gamma_col, lam, n_iter=200_000, tol=1e-14):
    """ISTA on the Gram-form objective; independent of coordinate descent."""
    step = 1.0 / (2.0 * np.linalg.eigvalsh(Gamma).max())
    beta = np.zeros_like(gamma_col)
    for _ in range(n_iter):
        grad = 2.0 * (Gamma @ beta - gamma_col)
        z = beta - step * grad
        new = np.sign(z) * np.maximum(np.abs(z) - step * lam, 0.0)
        if np.max(np.abs(new - beta)) < tol:
            return new
        beta = new
    return beta


def loop_max_row_l2(a, b):
    worst = 0.0
    for i in range(a.shape[0]):
        acc = 0.0
        for j in range(a.shape[1]):
            acc += (a[i, j] - b[i, j]) ** 2
        worst = max(worst, acc**0.5)
    return worst
