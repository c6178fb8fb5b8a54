"""Independent straight-line re-implementations used as test oracles.

Everything here is deliberately written with plain Python loops and no reuse
of the package's own building blocks, so agreement is meaningful. The one
exception, ``per_fold_lambda_scores``, walks each lambda-CV fold alone on the
package's path, because what it checks is the walk that stacks the folds.
"""

import numpy as np

from favar.varlasso import _cv_folds, _lasso_path


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


def fresh_active_solution(Gamma, gamma_col, active, signs):
    """Solve Gamma_AA [u v] = [gamma_A signs] afresh; u and v are zero off A."""
    u = np.zeros(gamma_col.shape[0])
    v = np.zeros(gamma_col.shape[0])
    if len(active):
        block = Gamma[np.ix_(active, active)]
        u[active] = np.linalg.solve(block, gamma_col[active])
        v[active] = np.linalg.solve(block, signs)
    return u, v


def per_fold_lambda_scores(values, d, grid, n_folds):
    """lambda-CV fold scores and knots with every fold's path walked on its own.

    Returns the n_folds x len(grid) validation scores and the n_folds x p
    knots, each grid penalty scored off the segment of the path that holds
    it: there the residual is r + mu q, so its sum of squares is
    r'r + mu (2 r'q + mu q'q).
    """
    mu_grid = 0.5 * np.asarray(grid)
    scores = np.zeros((n_folds, mu_grid.size))
    knots = np.zeros((n_folds, values.shape[1]), dtype=int)
    for k, (Gamma, gamma, va_design, va_resp) in enumerate(_cv_folds(values, d, n_folds)):
        for cols, hi, lo, U, V in _lasso_path(Gamma, gamma, mu_grid[-1]):
            for i, j in enumerate(cols):
                knots[k, j] += hi[i] < np.inf
                r = va_resp[:, j] - va_design @ U[:, i]
                q = va_design @ V[:, i]
                for g, mu in enumerate(mu_grid):
                    if lo[i] <= mu < hi[i]:
                        scores[k, g] += r @ r + mu * (2.0 * (r @ q) + mu * (q @ q))
        scores[k] /= va_resp.size
    return scores, knots


def loop_next_event(cu, cv, u, v, signs, live, floor, hi, bar):
    """One column's next event on its segment below the knot ``hi``, by loops.

    On the segment the column's correlations are c(mu) = cu + mu cv and its
    solution is b(mu) = u - mu v, with ``signs`` its active signs (0 off the
    active set). Returns ``(time, kind, k)``: coordinate k joins with sign
    ``kind`` (1 or -1) or leaves (``kind`` 0) at mu = ``time``, or
    ``(0.0, None, None)`` when nothing happens above mu = 0. Candidates:

    - a ``live`` inactive coordinate joins with sign s where s c(mu) reaches
      mu, at mu = s cu / (1 - s cv), if s cu exceeds ``floor`` and that
      slope is positive; both signs are tried;
    - an active coordinate leaves where b(mu) reaches 0, at mu = u / v, if
      it shrinks as mu falls (s v < 0) and reaches 0 above mu = 0 (s u < 0).

    A time at or above ``hi`` is taken at ``hi``. ``bar``, a ``(kind, k)``,
    is the event that would undo the one taken at ``hi``: it may not happen.
    Of tied events a join goes before a leave, then the lower coordinate.
    """
    events = []
    for k in range(len(cu)):
        if signs[k] == 0.0:
            for s in (1.0, -1.0):
                slope = 1.0 - s * cv[k]
                if live[k] and s * cu[k] > floor and slope > 0.0:
                    events.append((min(s * cu[k] / slope, hi), int(s), k))
        elif signs[k] * v[k] < 0.0 and signs[k] * u[k] < 0.0:
            events.append((min(u[k] / v[k], hi), 0, k))
    events = [e for e in events if (e[1], e[2]) != bar]
    if not events:
        return 0.0, None, None
    return max(events, key=lambda e: (e[0], e[1] != 0, -e[2]))
