"""Row-wise l1-penalised least squares on the Gram system, with CV for lambda.

Each row problem minimises  b' Gamma b - 2 b' gamma_j + lambda |b|_1.
Because the smooth part carries no 1/2, its gradient is 2(Gamma b - gamma_j)
and the soft threshold sits at mu = lambda / 2; keeping that factor explicit
here avoids the classic off-by-two.

One solver serves every penalty: each problem walks its exact solution path
(Osborne, Presnell & Turlach 2000; Efron et al. 2004). Between knots the
solution is linear in mu, b_A(mu) = Gamma_AA^-1 (gamma_A - mu s_A) on the
active set A with signs s_A; a knot is where a coordinate joins (its
residual correlation |gamma_k - Gamma_k b| reaches mu) or leaves (its
coefficient reaches 0). Exactly one coordinate changes per knot, so each
walking problem keeps Gamma_AA^-1 and updates it by one rank-one step per
knot (Efron et al. 2004, section 7; Hager 1989) instead of refactorising
its block: O(|A|^2) work per knot, not O(|A|^3). A join that leaves the
block singular to working precision pins its problem to refactorising with
``pinv``, the min-norm solution, from then on. One reader, ``_path_at``,
walks the paths once and reads each column's solution at every requested
penalty off the segment that holds it: ``fit_var`` and ``lasso_row`` ask it
for one penalty, ``cv_lambda`` for its grid, with the row problems of several
training folds stacked as the columns of one walk, and then scores each fold
on its own grid solutions. ``max_iter`` bounds the knots.
The path is exact up to rounding, so ``tol`` is no stopping rule but a
certificate checked once at the end: a row's first-order optimality (KKT)
gap must be at most ``10 * tol`` times its largest ``|gamma_j|``, which
keeps the check invariant to rescaling the data.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .moments import GramSystem, _segment_gram, _values, build_gram
from .panel import _frozen


class ConvergenceError(RuntimeError):
    """A lasso solve failed: its knot budget ran out, or its KKT certificate.

    ``beta`` is the last iterate (pd x columns), ``kkt_gap`` the worst gap
    among the failed columns at the target penalty, and ``iterations`` the
    knots each column walked.
    """

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
        object.__setattr__(self, "iterations", _frozen(self.iterations, dtype=int))

    @property
    def p(self) -> int:
        return self.A.shape[0]

    @property
    def nonzeros(self) -> int:
        return int(np.count_nonzero(self.A))


@dataclass(frozen=True, eq=False)
class LambdaCvReport:
    """Penalty path (decreasing), per-fold validation scores, chosen index.

    ``chosen`` minimises the mean validation score. ``knots`` counts the
    knots each fold's row problems walked down their solution paths.
    """

    grid: np.ndarray
    fold_scores: np.ndarray        # n_folds x n_lambda
    mean_scores: np.ndarray
    chosen: int
    knots: np.ndarray              # n_folds x p

    def __post_init__(self):
        object.__setattr__(self, "grid", _frozen(self.grid))
        object.__setattr__(self, "fold_scores", _frozen(self.fold_scores))
        object.__setattr__(self, "mean_scores", _frozen(self.mean_scores))
        object.__setattr__(self, "knots", _frozen(self.knots, dtype=int))

    @property
    def lam(self) -> float:
        return float(self.grid[self.chosen])


def kkt_gap(Gamma: np.ndarray, gamma_col: np.ndarray, beta: np.ndarray, lam: float) -> float:
    """Worst violation of the subgradient optimality conditions."""
    return float(_kkt_gaps(2.0 * (Gamma @ beta - gamma_col), beta, lam))


def _kkt_gaps(grad: np.ndarray, B: np.ndarray, lam: float) -> np.ndarray:
    """Worst subgradient violation of each column of ``B``, given its gradient."""
    violation = np.where(
        B != 0.0, np.abs(grad + lam * np.sign(B)), np.maximum(np.abs(grad) - lam, 0.0)
    )
    return violation.max(axis=0, initial=0.0)


def _live_coordinates(Gamma: np.ndarray, gamma: np.ndarray) -> np.ndarray:
    """Mask of the coordinates with a positive diagonal entry.

    A dead coordinate (zero diagonal) stays at zero; it must carry no signal,
    or its problem is unbounded.
    """
    live = np.diag(Gamma) > 0.0
    offending = np.argwhere(gamma[~live] != 0.0)
    if offending.size:
        k = int(np.flatnonzero(~live)[offending[0, 0]])
        raise ValueError(
            f"Gamma[{k},{k}] = 0 but gamma[{k},{int(offending[0, 1])}] != 0: "
            "coordinate problem is unbounded"
        )
    return live


# the default KKT certificate tolerance and knot budget of every solve
_TOL, _MAX_ITER = 1e-7, 100_000
# lambda path depth: the grid runs down to this fraction of its largest value
_LAMBDA_DEPTH = 1e-3
# column-coordinates whose event candidates are searched together: a block
# holds _SEARCH_BLOCK // pd columns (16 at pd = 300), which bounds the memory
# of the candidate stack, 3 x pd per column, whatever pd is. Searching all
# columns at once gives the same fits, but on the benchmark's (600, 150) d = 2
# fits it raised peak RSS from 67.1-67.2 to 76.1-76.3 MB (3 runs each, one
# BLAS thread), past that metric's 10% bound
_SEARCH_BLOCK = 16 * 300
# doubles the inverse stack of one lambda-CV walk may reach in the worst case,
# every column's active set at pd (1 MiB): it sets how many folds walk at once
_FOLD_STACK = 2**17
# a coordinate joins a path only above this fraction of its column's largest
# |gamma| (see _lasso_path)
_JOIN_FLOOR = 1e-12
# a join whose Schur complement is at most this fraction of the joining
# diagonal entry leaves its active block singular to working precision
_SCHUR_FLOOR = 1e-10


def _fold_products(Gamma: np.ndarray, fold: np.ndarray, X: np.ndarray) -> np.ndarray:
    """``Gamma[fold[i]] @ X[..., i]`` for every column i of ``X`` (..., pd, m).

    One product per run of equal ``fold``, so one per fold present when the
    columns come in fold order, as every walk keeps them.
    """
    out = np.empty(X.shape)
    cuts = [0, *(np.flatnonzero(fold[1:] != fold[:-1]) + 1), fold.size]
    for lo, hi in zip(cuts[:-1], cuts[1:]):
        out[..., lo:hi] = Gamma[fold[lo]] @ X[..., lo:hi]
    return out


class _ActiveInverses:
    """Each walking column's active set and the inverse of its active Gram block.

    ``Gamma`` is a stack of Gram matrices, (F, pd, pd), and row i of the
    inverse stack serves one column, which reads Gamma only from its fold
    ``fold[i]``: its active coordinates ``idx[i, :size[i]]`` in slot order
    and ``H[i]``, the inverse of its Gamma on them in that order. A single
    (pd, pd) Gamma is a stack of one, and ``fold`` defaults to it. The stack
    is padded to its largest live active set, with index -1 and zero rows
    and columns of ``H``. An event toggles one coordinate k and updates
    ``H[i]`` by one rank-one step ``H += w z z'``, batched over the rows
    (Hager 1989):

    - a join borders the inverse: with a = Gamma[A, k], b = H a and the Schur
      complement s = Gamma_kk - a'b, z = [b; -1] and w = 1 / s;
    - a leave swaps k's slot last and downdates by the Schur formula: z is
      the last column of H and w = -1 / z_last, after which the slot is
      cleared.

    A join with s at most ``_SCHUR_FLOOR`` times Gamma_kk leaves the block
    singular to working precision. From then on the row is pinned: each of
    its events refactorises its gathered block with ``pinv``, so its column
    gets the min-norm solution.
    """

    def __init__(self, Gamma: np.ndarray, first: np.ndarray, fold: np.ndarray | None = None):
        self.Gamma = Gamma.reshape((-1,) + Gamma.shape[-2:])
        self.fold = np.zeros(first.size, dtype=int) if fold is None else fold
        self.idx = first[:, None].copy()
        self.size = np.ones(first.size, dtype=int)
        self.H = (1.0 / self.Gamma[self.fold, first, first])[:, None, None]
        self.pinned = np.zeros(first.size, dtype=bool)

    def keep(self, rows: np.ndarray) -> None:
        """Keep only ``rows`` of the stack, trimmed to their largest active set."""
        w = int(self.size[rows].max(initial=0))
        self.H, self.idx = self.H[rows, :w, :w], self.idx[rows, :w]
        self.size, self.pinned, self.fold = self.size[rows], self.pinned[rows], self.fold[rows]

    def toggle(self, k: np.ndarray) -> None:
        """Row i's coordinate ``k[i]`` joins its active set if outside it, else leaves."""
        n, width = self.idx.shape
        found = self.idx == k[:, None]
        leave = found.any(axis=1)
        end = self.size - leave  # the slot k joins at, or leaves from after the swap
        if np.any(end >= width):
            H = np.zeros((n, width + 1, width + 1))
            H[:, :width, :width] = self.H
            idx = np.full((n, width + 1), -1)
            idx[:, :width] = self.idx
            self.H, self.idx = H, idx
        H, idx, Gamma, fold = self.H, self.idx, self.Gamma, self.fold
        rows = np.arange(n)
        lv = np.flatnonzero(leave)
        if lv.size:
            q, e = found[lv].argmax(axis=1), end[lv]
            H[lv, q], H[lv, e] = H[lv, e], H[lv, q]
            H[lv, :, q], H[lv, :, e] = H[lv, :, e], H[lv, :, q]
            idx[lv, q] = idx[lv, e]
        idx[rows, end] = k
        # pad slots, and a joining k's own, meet zero columns of H
        a = Gamma[fold[:, None], idx, k[:, None]]
        z = np.where(leave[:, None], H[rows, :, end], np.matmul(H, a[:, :, None])[:, :, 0])
        gkk = Gamma[fold, k, k]
        s = gkk - np.sum(a * z, axis=1)
        self.pinned |= ~leave & (s <= _SCHUR_FLOOR * gkk)
        d = np.where(leave, -z[rows, end], s)
        d[self.pinned] = np.inf
        z[rows, end] = np.where(leave, z[rows, end], -1.0)
        H += (z / d[:, None])[:, :, None] * z[:, None, :]
        if lv.size:
            H[lv, e] = 0.0
            H[lv, :, e] = 0.0
            idx[lv, e] = -1
        self.size += 1 - 2 * leave
        for i in np.flatnonzero(self.pinned):
            A = idx[i, : self.size[i]]
            H[i] = 0.0
            H[i, : A.size, : A.size] = np.linalg.pinv(Gamma[fold[i]][np.ix_(A, A)])

    def solve(self, gamma: np.ndarray, S: np.ndarray, cols: np.ndarray):
        """``Gamma_AA^-1 [gamma_A s_A]`` for each row's column ``cols[i]`` and active set A.

        ``S`` holds the active signs. Returns ``[U, V]``, 2 x pd x len(cols),
        zero off each active set.
        """
        idx, c = self.idx, cols[:, None]
        R = np.empty(idx.shape + (2,))
        R[:, :, 0] = gamma[idx, c]
        R[:, :, 1] = S[idx, c]
        sol = self.H @ R
        # pad slots scatter their zeros to an extra last row
        UV = np.zeros((2, gamma.shape[0] + 1, cols.size))
        UV[:, idx, np.arange(cols.size)[:, None]] = np.moveaxis(sol, -1, 0)
        return UV[:, :-1]


def _lasso_path(
    Gamma: np.ndarray,
    gamma: np.ndarray,
    mu_stop: float,
    max_iter: int,
    fold: np.ndarray | None = None,
):
    """Walk the exact solution path of every column of ``gamma`` down to ``mu_stop``.

    ``Gamma`` is a stack of Gram matrices, (F, pd, pd), and column j of
    ``gamma`` is the moment vector of a row problem on ``Gamma[fold[j]]``,
    so one walk can carry the row problems of several lambda-CV folds. A
    single (pd, pd) Gamma is a stack of one, and ``fold`` defaults to it.

    A generator of segments ``(cols, hi, lo, U, V)``: for mu in
    ``[lo[i], hi[i])`` the solution of column ``cols[i]`` at lambda = 2 mu is
    ``U[:, i] - mu * V[:, i]``. The first segment is the path head: every
    column, ``hi = inf`` and ``lo`` its largest ``|gamma|``, above which the
    solution is zero (``U = V = 0``). After it, every unfinished column
    advances one knot per segment, so the segments of a column tile
    ``[mu_stop, inf)`` with no overlap. A column finishes once its segment
    reaches ``mu_stop``. The walk stops after ``max_iter`` knots, finished or
    not, and raises nothing: the columns of its last segment whose ``lo``
    is still above ``mu_stop`` are the unfinished ones, and ``_path_at``
    reports them.

    At a knot the correlations c(mu) = gamma - Gamma b(mu) = cu + mu cv are
    linear too, so the next event of each coordinate has a closed form.
    Events due at or above the current knot (ties, rounding) happen at it.
    The coordinate that changed at a knot is barred only from undoing that
    change there: it may still re-enter later with the opposite sign. The
    event search runs over blocks of ``_SEARCH_BLOCK // pd`` columns, with
    one product ``Gamma_f [U V]`` per fold f present in a block.

    ``U`` and ``V`` come from ``_ActiveInverses``: each walking column's
    active-block inverse, updated by one rank-one step per knot, and
    refactorised with ``pinv`` only in a column whose block a join made
    singular. On the tests' rank-deficient factor Gram walked to lambda = 0
    they stay within 1e-13 relative of a fresh solve at every knot.

    A coordinate joins only if its sign-matched ``cu`` exceeds
    ``_JOIN_FLOOR`` times its column's largest ``|gamma|``. Deep on a
    rank-deficient Gram matrix, the coordinates outside a full-rank active
    set have ``cu`` of rounding size, and letting them join makes spurious
    knots on singular blocks. The correlation of a coordinate kept out this
    way exceeds mu by at most the floor on the rest of the segment, so its
    KKT violation is at most twice the floor.
    """
    Gamma = Gamma.reshape((-1,) + Gamma.shape[-2:])
    pd_, m = gamma.shape
    fold = np.zeros(m, dtype=int) if fold is None else np.asarray(fold)
    live = np.stack([
        _live_coordinates(G, np.where(fold == f, gamma, 0.0)) for f, G in enumerate(Gamma)
    ])
    mu = np.abs(gamma).max(axis=0, initial=0.0)
    floor = _JOIN_FLOOR * mu
    zeros = np.zeros((pd_, m))
    yield np.arange(m), np.full(m, np.inf), mu.copy(), zeros, zeros
    cols = np.flatnonzero(mu > mu_stop)
    S = np.zeros((pd_, m))
    last = np.abs(gamma[:, cols]).argmax(axis=0)
    S[last, cols] = np.sign(gamma[last, cols])
    # event kinds, in the order of the candidate stack: 0 joins at +mu, 1
    # joins at -mu, 2 leaves. At its current knot, column j may not take
    # event ``bar_kind[j]`` on coordinate ``bar_coord[j]``
    bar_kind = np.full(m, 2)
    bar_coord = np.zeros(m, dtype=int)
    bar_coord[cols] = last
    inv = _ActiveInverses(Gamma, last, fold[cols])
    sigma = np.array([1.0, -1.0])[:, None, None]
    width = max(1, _SEARCH_BLOCK // pd_)
    for _ in range(max_iter):
        if cols.size == 0:
            return
        UV = inv.solve(gamma, S, cols)
        U, V = UV
        hi = mu[cols]
        event = np.empty(cols.size, dtype=int)
        lo = np.empty(cols.size)
        # the candidate stack of a block of columns is 3 x pd per column
        for start in range(0, cols.size, width):
            blk = slice(start, start + width)
            c, Ub, Vb = cols[blk], U[:, blk], V[:, blk]
            GU, CV = _fold_products(Gamma, fold[c], UV[:, :, blk])
            CU = gamma[:, c] - GU
            Sc = S[:, c]
            with np.errstate(divide="ignore", invalid="ignore"):
                slope = 1.0 - sigma * CV
                join = np.where(
                    (Sc == 0.0) & live[fold[c]].T & (slope > 0.0) & (sigma * CU > floor[c]),
                    sigma * CU / slope, 0.0,
                )
                leave = np.where((Sc * Vb < 0.0) & (Sc * Ub < 0.0), Ub / Vb, 0.0)
            times = np.minimum(np.concatenate([join, leave[None]]), hi[blk])
            at = np.arange(c.size)
            times[bar_kind[c], bar_coord[c], at] = 0.0
            times = times.reshape(3 * pd_, c.size)
            event[blk] = times.argmax(axis=0)
            lo[blk] = times[event[blk], at]
        yield cols, hi, lo, U, V
        go = lo > mu_stop
        cols, kind, k = cols[go], *np.divmod(event[go], pd_)
        if not go.all():
            inv.keep(np.flatnonzero(go))
        inv.toggle(k)
        old = S[k, cols]
        S[k, cols] = np.where(kind == 2, 0.0, sigma[np.minimum(kind, 1), 0, 0])
        bar_kind[cols] = np.where(kind == 2, (old < 0.0).astype(int), 2)
        bar_coord[cols] = k
        mu[cols] = lo[go]


def _path_at(Gamma: np.ndarray, gamma: np.ndarray, mus: np.ndarray, max_iter: int,
             fold: np.ndarray | None = None):
    """Every column's exact-path solution at each of the decreasing ``mus``.

    Walks ``_lasso_path`` once, down to ``mus[-1]``, and returns ``B``, the
    pd x m x len(mus) solutions (column j's at ``mus[g]`` in ``B[:, j, g]``),
    and the knots each column walked. Each solution is read off the segment
    that holds its mu; above the path head's ``lo`` it is zero.

    The walk's last segment tells whether it finished: a column whose
    segment ends above ``mus[-1]`` ran out of the ``max_iter`` knots. Then
    ``ConvergenceError`` is raised, holding each column's solution at
    ``mus[-1]``, or for an unfinished column its iterate at its last knot,
    and the worst KKT gap of those iterates at lambda = 2 ``mus[-1]``.
    """
    B = np.zeros(gamma.shape + (mus.size,))
    knots = np.zeros(gamma.shape[1], dtype=int)
    for cols, hi, lo, U, V in _lasso_path(Gamma, gamma, mus[-1], max_iter, fold):
        if hi[0] == np.inf:
            continue  # the path head, where every solution is zero
        knots[cols] += 1
        g, i = np.nonzero((mus[:, None] >= lo) & (mus[:, None] < hi))
        B[:, cols[i], g] = U[:, i] - mus[g] * V[:, i]
    left = lo > mus[-1]
    if left.any():
        cols, beta = cols[left], B[:, :, -1].copy()
        beta[:, cols] = U[:, left] - lo[left] * V[:, left]
        fold = np.zeros(gamma.shape[1], dtype=int) if fold is None else fold
        GB = _fold_products(Gamma.reshape((-1,) + Gamma.shape[-2:]), fold[cols], beta[:, cols])
        gap = float(_kkt_gaps(2.0 * (GB - gamma[:, cols]), beta[:, cols], 2.0 * mus[-1]).max())
        raise ConvergenceError(f"rows {cols.tolist()} unfinished after {max_iter} knots "
                               f"(worst KKT gap {gap:.3e})",
                               beta=beta, kkt_gap=gap, iterations=knots)
    return B, knots


def _solve_at(Gamma: np.ndarray, gamma: np.ndarray, lam: float, tol: float, max_iter: int):
    """Every column's lasso solution at ``lam``, read off its exact path.

    Returns the pd x m solutions and the knots each column's path walked.
    Each solution must then meet the KKT certificate: a gap of at most
    ``10 * tol`` times its column's largest ``|gamma|``.
    """
    if not 0.0 <= lam < np.inf:
        raise ValueError(f"lambda must be finite and non-negative, got {lam}")
    B, knots = _path_at(Gamma, gamma, np.array([0.5 * lam]), max_iter)
    B = B[:, :, 0]
    gaps = _kkt_gaps(2.0 * (Gamma @ B - gamma), B, lam)
    bad = np.flatnonzero(gaps > 10.0 * tol * np.abs(gamma).max(axis=0, initial=0.0))
    if bad.size:
        raise ConvergenceError(
            f"rows {bad.tolist()} miss the KKT certificate at tol {tol:g} "
            f"(worst KKT gap {float(gaps[bad].max()):.3e})",
            beta=B,
            kkt_gap=float(gaps[bad].max()),
            iterations=knots,
        )
    return B, knots


def lasso_row(
    G: GramSystem, j: int, lam: float, tol: float = _TOL, max_iter: int = _MAX_ITER
) -> np.ndarray:
    """Solve the j-th row problem; returns the pd coefficient vector."""
    if not 0 <= j < G.p:
        raise ValueError(f"row index {j} outside 0..{G.p - 1}")
    return _solve_at(G.Gamma, G.gamma[:, [j]], lam, tol, max_iter)[0][:, 0]


def fit_var(G: GramSystem, lam: float, tol: float = _TOL, max_iter: int = _MAX_ITER) -> VarFit:
    """Solve all p row problems and assemble the lag blocks."""
    B, knots = _solve_at(G.Gamma, G.gamma, lam, tol, max_iter)
    A = B.T
    blocks = tuple(A[:, ell * G.p : (ell + 1) * G.p] for ell in range(G.d))
    active = tuple(np.flatnonzero(A[i]) for i in range(G.p))
    return VarFit(A=A, A_blocks=blocks, lam=float(lam), d=G.d, active_set=active, iterations=knots)


def _cv_folds(values: np.ndarray, d: int, n_folds: int) -> list[tuple]:
    """``(Gamma, gamma, va_design, va_resp)`` of each contiguous time fold.

    The Gram system is that of the training rows, those outside the fold;
    the validation pairs are the fold's points with d observed lags.
    """
    n = values.shape[0]
    blocks = np.array_split(np.arange(n), n_folds)
    if any(b.size == 0 for b in blocks):
        raise ValueError(f"{n_folds} folds over {n} observations leaves an empty fold")
    folds = []
    for b in blocks:
        lo, hi = int(b[0]), int(b[-1]) + 1
        xtx, xty, rows = _segment_gram(values, [(0, lo), (hi, n)], d)
        if rows == 0:
            raise ValueError("a training fold is too short to form any lagged row")
        val_t = b[b >= d]
        if val_t.size == 0:
            raise ValueError("a validation fold has no point with d observed lags")
        va_design = np.concatenate(
            [values[val_t - ell] for ell in range(1, d + 1)], axis=1
        )
        folds.append((0.5 * (xtx + xtx.T) / rows, xty / rows, va_design, values[val_t]))
    return folds


def cv_lambda(xi_hat, d: int, n_lambda: int = 50, n_folds: int = 5,
              max_iter: int = _MAX_ITER) -> LambdaCvReport:
    """Choose lambda by one-step-ahead prediction over contiguous time folds.

    The grid starts at the smallest lambda that zeroes the fit on the full
    data and on every training fold, and decreases geometrically down to
    ``_LAMBDA_DEPTH`` (1e-3) times that. Held-out points are predicted from
    the observed lags immediately preceding them; the score is the mean
    squared prediction error.

    The training folds' row problems walk their exact solution paths as the
    columns of one ``_lasso_path`` over the stack of the folds' Gram
    matrices, and ``_path_at`` reads every column's solution at every grid
    penalty off the segment that holds it, so the scores carry no solver
    tolerance. Each fold then predicts its own validation points from its
    grid solutions in one product. A walk takes as many folds as keep its
    worst-case inverse stack, columns x pd^2 doubles, within ``_FOLD_STACK``
    (all five folds when p = pd = 10, one when p = pd = 50), so a step's
    fixed cost is paid once for those folds; the rest walk after them. At
    most ``max_iter`` knots per path; refit at the chosen penalty with
    ``fit_var``.
    """
    values = _values(xi_hat)
    if n_folds < 2:
        raise ValueError("need at least 2 folds")
    if n_lambda < 1:
        raise ValueError("need at least one lambda")
    full = build_gram(values, d)
    folds = _cv_folds(values, d, n_folds)
    lam_max = 2.0 * max(float(np.max(np.abs(g))) for g in [full.gamma] + [f[1] for f in folds])
    grid = np.geomspace(lam_max, lam_max * _LAMBDA_DEPTH, n_lambda)
    p = values.shape[1]
    per_walk = max(1, _FOLD_STACK // (p * (p * d) ** 2))
    fold_scores = np.empty((n_folds, n_lambda))
    knots = np.empty((n_folds, p), dtype=int)
    for first in range(0, n_folds, per_walk):
        walk = folds[first : first + per_walk]
        # column c of the walk is row problem c % p of fold c // p
        B, walk_knots = _path_at(np.stack([f[0] for f in walk]), np.hstack([f[1] for f in walk]),
                                 0.5 * grid, max_iter, np.arange(len(walk) * p) // p)
        knots[first : first + len(walk)] = walk_knots.reshape(-1, p)
        for f, (_, _, va_design, va_resp) in enumerate(walk):
            # fold f's solutions at every grid penalty predict its own points
            resid = va_design @ B[:, f * p : (f + 1) * p].reshape(p * d, -1)
            resid = resid.reshape(va_resp.shape + grid.shape) - va_resp[:, :, None]
            fold_scores[first + f] = np.sum(resid * resid, axis=(0, 1)) / va_resp.size
        del B, resid  # free this walk's buffers before the next walk builds its own
    mean_scores = fold_scores.mean(axis=0)
    return LambdaCvReport(
        grid=grid,
        fold_scores=fold_scores,
        mean_scores=mean_scores,
        chosen=int(np.argmin(mean_scores)),  # first minimum, i.e. the largest lambda
        knots=knots,
    )
