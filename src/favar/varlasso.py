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
penalty off the segment that holds it: ``cv_lambda`` asks it for its grid,
with the row problems of several training folds stacked as the columns of
one walk, and then scores each fold on its own grid solutions. Where one
walk holds every fold and the full data's row problems too, it also yields
the full data's solutions at the chosen penalty. ``fit_var`` is the one way
into the solver at a penalty: it reads those solutions, or asks the reader
for that penalty alone, then certifies them and builds the final fit. Every
walk has the fixed knot budget ``_MAX_ITER``. The path is exact up to
rounding, so the fixed tolerance ``_TOL`` is no stopping rule but a
certificate checked once at the end (``_certify``): a row's first-order
optimality (KKT) gap must be at most ``10 * _TOL`` times its largest
``|gamma_j|``, which keeps the check invariant to rescaling the data.
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
    lam: float
    d: int
    iterations: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "A", _frozen(self.A))
        object.__setattr__(self, "iterations", _frozen(self.iterations, dtype=int))

    @property
    def p(self) -> int:
        return self.A.shape[0]

    @property
    def A_blocks(self) -> tuple[np.ndarray, ...]:
        """The d lag blocks of ``A``, read-only p x p views, lag 1 first."""
        p = self.p
        return tuple(self.A[:, ell * p : (ell + 1) * p] for ell in range(self.d))

    @property
    def active_set(self) -> tuple[np.ndarray, ...]:
        """The columns of ``A`` where each row is nonzero."""
        return tuple(np.flatnonzero(row) for row in self.A)

    @property
    def nonzeros(self) -> int:
        return int(np.count_nonzero(self.A))


@dataclass(frozen=True, eq=False)
class LambdaCvReport:
    """Penalty path (decreasing), per-fold validation scores, chosen index.

    ``chosen`` minimises the mean validation score. ``knots`` counts the
    knots each fold's row problems walked down their solution paths.
    ``full_solutions`` and ``full_knots`` are the full data's solutions at
    the chosen penalty and a walk's knots down to it, where lambda-CV's walk
    held the full data (see ``cv_lambda``), else None.
    """

    grid: np.ndarray
    fold_scores: np.ndarray        # n_folds x n_lambda
    mean_scores: np.ndarray
    chosen: int
    knots: np.ndarray              # n_folds x p
    full_solutions: np.ndarray | None  # pd x p
    full_knots: np.ndarray | None      # p

    def __post_init__(self):
        object.__setattr__(self, "grid", _frozen(self.grid))
        object.__setattr__(self, "fold_scores", _frozen(self.fold_scores))
        object.__setattr__(self, "mean_scores", _frozen(self.mean_scores))
        object.__setattr__(self, "knots", _frozen(self.knots, dtype=int))
        if self.full_solutions is not None:
            object.__setattr__(self, "full_solutions", _frozen(self.full_solutions))
            object.__setattr__(self, "full_knots", _frozen(self.full_knots, dtype=int))

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


# the KKT certificate tolerance and the knot budget of every solve
_TOL, _MAX_ITER = 1e-7, 100_000
# lambda path depth: the grid runs down to this fraction of its largest value
_LAMBDA_DEPTH = 1e-3
# column-coordinates whose events are searched together: a block holds
# _SEARCH_BLOCK // pd columns (100 at pd = 300). Its search holds about four
# pd-vectors per column (measured: 10 KB per column at pd = 300), so about
# 1 MB whatever pd is. On the benchmark's (600, 150) d = 2 fits, peak RSS
# read 66.4-66.5 MB with 100-column blocks, 67.0-67.2 MB with 16 to 48, and
# 69.3-69.4 MB with all 150 columns at once (2 runs each, one BLAS thread)
_SEARCH_BLOCK = 100 * 300
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
        np.matmul(Gamma[fold[lo]], X[..., lo:hi], out=out[..., lo:hi])
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

    ``last[i]`` is the slot row i's last event filled (a join) or emptied (a
    leave, after which the slot is padding).
    """

    def __init__(self, Gamma: np.ndarray, first: np.ndarray, fold: np.ndarray | None = None):
        self.Gamma = Gamma.reshape((-1,) + Gamma.shape[-2:])
        self.fold = np.zeros(first.size, dtype=int) if fold is None else fold
        self.idx = first[:, None].copy()
        self.size = np.ones(first.size, dtype=int)
        self.last = np.zeros(first.size, dtype=int)
        self.H = (1.0 / self.Gamma[self.fold, first, first])[:, None, None]
        self.pinned = np.zeros(first.size, dtype=bool)

    def keep(self, rows: np.ndarray) -> None:
        """Keep only ``rows`` of the stack, trimmed to their largest active set."""
        w = int(self.size[rows].max(initial=0))
        self.H, self.idx = self.H[rows, :w, :w], self.idx[rows, :w]
        self.size, self.pinned, self.fold = self.size[rows], self.pinned[rows], self.fold[rows]
        self.last = self.last[rows]

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
        self.last = end
        for i in np.flatnonzero(self.pinned):
            A = idx[i, : self.size[i]]
            H[i] = 0.0
            H[i, : A.size, : A.size] = np.linalg.pinv(Gamma[fold[i]][np.ix_(A, A)])

    def solve(self, gamma: np.ndarray, S: np.ndarray, cols: np.ndarray, hi: np.ndarray):
        """``Gamma_AA^-1 [gamma_A s_A]`` for each row's column ``cols[i]`` and active set A,
        and the row's next leave below its knot ``hi[i]``.

        ``S`` holds the active signs, 1 or -1 on each active set and finite
        elsewhere (pad slots read it against zeros of H). Returns ``[U, V]``,
        2 x pd x len(cols), zero off each active set, and each row's latest
        leave: its time, clamped to ``hi``, and its coordinate, the lowest of
        a tie. The slot of the row's last event may not leave. A row with no
        leave gets time 0.

        Only active coordinates can leave, so the search runs over slots:
        with b = u - mu v and sign s, a coefficient with s v < 0 shrinks as
        mu falls and reaches 0 at mu = u / v, which is a leave if positive.
        """
        idx, c = self.idx, cols[:, None]
        rows = np.arange(cols.size)
        R = np.empty(idx.shape + (2,))
        R[:, :, 0] = gamma[idx, c]
        R[:, :, 1] = S[idx, c]
        sol = self.H @ R
        # pad slots scatter their zeros to an extra last row
        UV = np.zeros((2, gamma.shape[0] + 1, cols.size))
        UV[:, idx, rows[:, None]] = np.moveaxis(sol, -1, 0)
        # a time u / v <= 0 is no leave, but it never exceeds the barred slot's 0
        times = np.zeros(idx.shape)
        np.divide(sol[..., 0], sol[..., 1], out=times, where=R[..., 1] * sol[..., 1] < 0.0)
        np.minimum(times, hi[:, None], out=times)
        times[rows, self.last] = 0.0
        t = times.max(axis=1)
        k = np.min(idx, axis=1, initial=gamma.shape[0], where=times == t[:, None])
        return UV[:, :-1], t, k


def _lasso_path(Gamma: np.ndarray, gamma: np.ndarray, mu_stop: float,
                fold: np.ndarray | None = None):
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
    reaches ``mu_stop``. The walk stops after ``_MAX_ITER`` knots, finished or
    not, and raises nothing: the columns of its last segment whose ``lo``
    is still above ``mu_stop`` are the unfinished ones, and ``_path_at``
    reports them.

    At a knot the correlations c(mu) = gamma - Gamma b(mu) = cu + mu cv are
    linear too, so the next event of each coordinate has a closed form, the
    step-length rule of LARS (Efron et al. 2004, eq. 2.13). An inactive
    coordinate joins where |c(mu)| reaches mu. The join floor below is not
    negative, so it can join only with the sign z of its ``cu``, at
    mu = |cu| / (1 - z cv) if that slope is positive. An active coordinate
    leaves where its coefficient reaches 0, so leaves are searched over each
    column's active slots only (``_ActiveInverses.solve``). Events due at or
    above the current knot (ties, rounding) happen at it. Of tied events a
    join goes before a leave, then the lower coordinate first. The
    coordinate that changed at a knot is barred only from undoing that
    change there: it may still re-enter later with the opposite sign. The
    joins are searched over blocks of ``_SEARCH_BLOCK // pd`` columns, with
    one product ``Gamma_f [U V]`` per fold f present in a block.

    ``U`` and ``V`` come from ``_ActiveInverses``: each walking column's
    active-block inverse, updated by one rank-one step per knot, and
    refactorised with ``pinv`` only in a column whose block a join made
    singular. On the tests' rank-deficient factor Gram walked to lambda = 0
    they stay within 1e-13 relative of a fresh solve at every knot.

    A coordinate joins only if its ``|cu|`` exceeds ``_JOIN_FLOOR`` times
    its column's largest ``|gamma|``. Deep on a
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
    yield np.arange(m), np.full(m, np.inf), mu, *[np.zeros((pd_, m))] * 2
    cols = np.flatnonzero(mu > mu_stop)
    # state[k, j], coordinate k in column j: its sign while active; twice the
    # sign it left with, at the knot after it left; 4 if it is dead; else 0.
    # A coordinate whose cu has sign z may join only if |z + state| = 1: an
    # inactive live one, with either sign unless it left with that sign at
    # the current knot (z = 0 never clears the floor)
    state = np.where(live[fold].T, 0.0, 4.0)
    last = np.abs(gamma[:, cols]).argmax(axis=0)
    state[last, cols] = np.sign(gamma[last, cols])
    changed = np.zeros(m, dtype=int)  # the coordinate of each column's last event
    changed[cols] = last
    inv = _ActiveInverses(Gamma, last, fold[cols])
    width = max(1, _SEARCH_BLOCK // pd_)
    hi = mu[cols]
    for _ in range(_MAX_ITER):
        if cols.size == 0:
            return
        UV, lo, k = inv.solve(gamma, state, cols, hi)
        join_lo, join_k = np.empty(cols.size), np.empty(cols.size, dtype=int)
        sign = np.empty(cols.size)
        for start in range(0, cols.size, width):
            blk = slice(start, start + width)
            c = cols[blk]
            # each coordinate's join time, |cu| / (1 - z cv), is written over cu
            times, slope = _fold_products(Gamma, fold[c], UV[:, :, blk])
            z = gamma[:, c]
            np.subtract(z, times, out=times)
            np.sign(times, out=z)
            np.abs(times, out=times)
            np.multiply(z, slope, out=slope)
            np.subtract(1.0, slope, out=slope)
            gate = state[:, c]
            gate += z
            ok = (np.abs(gate, out=gate) == 1.0) & (slope > 0.0) & (times > floor[c])
            np.divide(times, slope, out=times, where=ok)
            times *= ok
            np.minimum(times, hi[blk], out=times)
            at = np.arange(c.size)
            join_k[blk] = best = times.argmax(axis=0)
            join_lo[blk] = times[best, at]
            sign[blk] = z[best, at]
        join = join_lo >= lo
        lo = np.where(join, join_lo, lo)
        k = np.where(join, join_k, k)
        U, V = UV
        yield cols, hi, lo, U, V
        go = lo > mu_stop
        if not go.all():
            rows = np.flatnonzero(go)
            cols, lo, k, join, sign = cols[rows], lo[rows], k[rows], join[rows], sign[rows]
            inv.keep(rows)
        inv.toggle(k)
        # the last event's bar lapses: a left coordinate's 2 s becomes 0
        prev = changed[cols]
        state[prev, cols] = np.fmod(state[prev, cols], 2.0)
        state[k, cols] = np.where(join, sign, 2.0 * state[k, cols])
        changed[cols] = k
        hi = lo


def _path_at(Gamma: np.ndarray, gamma: np.ndarray, mus: np.ndarray,
             fold: np.ndarray | None = None):
    """Every column's exact-path solution at each of the decreasing ``mus``.

    Walks ``_lasso_path`` once, down to ``mus[-1]``, and returns ``B``, the
    pd x m x len(mus) solutions (column j's at ``mus[g]`` in ``B[:, j, g]``),
    and ``knots``, m x len(mus): ``knots[j, g]`` counts the knots column j
    walked down to ``mus[g]``, its segments that start above ``mus[g]``, which
    is what a walk stopped at ``mus[g]`` walks. Each solution is read off the
    segment that holds its mu; above the path head's ``lo`` it is zero.

    The walk's last segment tells whether it finished: a column whose
    segment ends above ``mus[-1]`` ran out of the ``_MAX_ITER`` knots. Then
    ``ConvergenceError`` is raised, holding each column's solution at
    ``mus[-1]``, or for an unfinished column its iterate at its last knot,
    and the worst KKT gap of those iterates at lambda = 2 ``mus[-1]``.
    """
    B = np.zeros(gamma.shape + (mus.size,))
    knots = np.zeros(B.shape[1:], dtype=int)
    for cols, hi, lo, U, V in _lasso_path(Gamma, gamma, mus[-1], fold):
        if hi[0] == np.inf:
            continue  # the path head, where every solution is zero
        knots[cols] += hi[:, None] > mus
        g, i = np.nonzero((mus[:, None] >= lo) & (mus[:, None] < hi))
        B[:, cols[i], g] = U[:, i] - mus[g] * V[:, i]
    left = lo > mus[-1]
    if left.any():
        cols, beta = cols[left], B[:, :, -1].copy()
        beta[:, cols] = U[:, left] - lo[left] * V[:, left]
        fold = np.zeros(gamma.shape[1], dtype=int) if fold is None else fold
        GB = _fold_products(Gamma.reshape((-1,) + Gamma.shape[-2:]), fold[cols], beta[:, cols])
        gap = float(_kkt_gaps(2.0 * (GB - gamma[:, cols]), beta[:, cols], 2.0 * mus[-1]).max())
        raise ConvergenceError(f"rows {cols.tolist()} unfinished after {_MAX_ITER} knots "
                               f"(worst KKT gap {gap:.3e})",
                               beta=beta, kkt_gap=gap, iterations=knots[:, -1])
    return B, knots


def _certify(Gamma: np.ndarray, gamma: np.ndarray, B: np.ndarray, lam: float,
             knots: np.ndarray) -> None:
    """Raise ``ConvergenceError`` unless every column of ``B`` meets the KKT
    certificate at ``lam``: a gap of at most ``10 * _TOL`` times its column's
    largest ``|gamma|``. ``knots`` are the knots each column walked."""
    gaps = _kkt_gaps(2.0 * (Gamma @ B - gamma), B, lam)
    bad = np.flatnonzero(gaps > 10.0 * _TOL * np.abs(gamma).max(axis=0, initial=0.0))
    if bad.size:
        raise ConvergenceError(
            f"rows {bad.tolist()} miss the KKT certificate at tol {_TOL:g} "
            f"(worst KKT gap {float(gaps[bad].max()):.3e})",
            beta=B,
            kkt_gap=float(gaps[bad].max()),
            iterations=knots,
        )


def fit_var(G: GramSystem, lam: float, cv: LambdaCvReport | None = None) -> VarFit:
    """Solve all p row problems at ``lam`` and assemble the fit.

    ``cv`` is lambda-CV's report on the data of ``G``, chosen ``lam``. The
    solutions are read off it where it holds the full data's, else walked
    down to ``lam``; either way they must meet the KKT certificate
    (``_certify``), which also refuses those of a report on other data.
    """
    if not 0.0 <= lam < np.inf:
        raise ValueError(f"lambda must be finite and non-negative, got {lam}")
    if cv is not None and lam != cv.lam:
        raise ValueError(f"lambda {lam} is not lambda-CV's choice {cv.lam}")
    if cv is None or cv.full_solutions is None:
        B, knots = (a[..., 0] for a in _path_at(G.Gamma, G.gamma, np.array([0.5 * lam])))
    else:
        B, knots = cv.full_solutions, cv.full_knots
    _certify(G.Gamma, G.gamma, B, lam, knots)
    return VarFit(A=B.T, lam=float(lam), d=G.d, iterations=knots)


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
              gram: GramSystem | None = None) -> LambdaCvReport:
    """Choose lambda by one-step-ahead prediction over contiguous time folds.

    The grid starts at the smallest lambda that zeroes the fit on the full
    data and on every training fold, and decreases geometrically down to
    ``_LAMBDA_DEPTH`` (1e-3) times that. Held-out points are predicted from
    the observed lags immediately preceding them; the score is the mean
    squared prediction error. ``gram`` is the full data's Gram system,
    ``build_gram(xi_hat, d)``, built here when not given.

    The training folds' row problems walk their exact solution paths as the
    columns of one ``_lasso_path`` over the stack of the folds' Gram
    matrices, and ``_path_at`` reads every column's solution at every grid
    penalty off the segment that holds it, so the scores carry no solver
    tolerance. Each fold then predicts its own validation points from its
    grid solutions in one product. A walk takes as many members as keep its
    worst-case inverse stack, columns x pd^2 doubles, within ``_FOLD_STACK``
    (131 when p = pd = 10, one when p = pd = 50), so a step's fixed cost is
    paid once for those members; the rest walk after them.

    The members are the training folds, then the full data, which rides
    only where one walk holds every fold and it too (more members per walk
    than ``n_folds``): its solutions at the chosen penalty and their knots
    then go into the report. Elsewhere the full data would walk to the grid
    bottom, deeper than a walk down to the chosen penalty, beside at most a
    few leftover folds, so it does not ride. Given the report, ``fit_var``
    reads or walks, then certifies.
    """
    values = _values(xi_hat)
    if n_folds < 2:
        raise ValueError("need at least 2 folds")
    if n_lambda < 1:
        raise ValueError("need at least one lambda")
    full = build_gram(values, d) if gram is None else gram
    folds = _cv_folds(values, d, n_folds)
    lam_max = 2.0 * max(float(np.max(np.abs(g))) for g in [full.gamma] + [f[1] for f in folds])
    if lam_max == 0.0:
        raise ValueError("gamma is zero on the full data and every training fold: "
                         "the second moments underflow")
    grid = np.geomspace(lam_max, lam_max * _LAMBDA_DEPTH, n_lambda)
    p = values.shape[1]
    per_walk = max(1, _FOLD_STACK // (p * (p * d) ** 2))
    members = [f[:2] for f in folds]
    if per_walk > n_folds:
        members.append((full.Gamma, full.gamma))
    fold_scores = np.empty((n_folds, n_lambda))
    knots = np.empty((n_folds, p), dtype=int)
    ride = None
    for first in range(0, len(members), per_walk):
        walk = members[first : first + per_walk]
        # column c of the walk is row problem c % p of member c // p
        B, walk_knots = _path_at(np.stack([G for G, _ in walk]), np.hstack([g for _, g in walk]),
                                 0.5 * grid, np.arange(len(walk) * p) // p)
        scored = folds[first : first + per_walk]
        knots[first : first + len(scored)] = walk_knots[: len(scored) * p, -1].reshape(-1, p)
        for f, (_, _, va_design, va_resp) in enumerate(scored):
            # fold f's solutions at every grid penalty predict its own points
            resid = va_design @ B[:, f * p : (f + 1) * p].reshape(p * d, -1)
            resid = resid.reshape(va_resp.shape + grid.shape) - va_resp[:, :, None]
            fold_scores[first + f] = np.sum(resid * resid, axis=(0, 1)) / va_resp.size
        if len(walk) > len(scored):
            ride = B[:, -p:].copy(), walk_knots[-p:]
        del B, resid  # free this walk's buffers before the next walk builds its own
    mean_scores = fold_scores.mean(axis=0)
    chosen = int(np.argmin(mean_scores))  # first minimum, i.e. the largest lambda
    return LambdaCvReport(
        grid=grid,
        fold_scores=fold_scores,
        mean_scores=mean_scores,
        chosen=chosen,
        knots=knots,
        full_solutions=None if ride is None else ride[0][:, :, chosen],
        full_knots=None if ride is None else ride[1][:, chosen],
    )
