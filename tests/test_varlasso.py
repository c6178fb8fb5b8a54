import tracemalloc

import numpy as np
import pytest

import favar.varlasso
from favar.factors import fit_factors
from favar.moments import GramSystem, build_gram
from favar.simulate import DgpSpec, simulate_panel
from favar.varlasso import (
    ConvergenceError,
    _FOLD_STACK,
    _JOIN_FLOOR,
    _LAMBDA_DEPTH,
    _ActiveInverses,
    _cv_folds,
    _fold_products,
    _lasso_path,
    _path_at,
    cv_lambda,
    fit_var,
    kkt_gap,
)

from reference_impls import (
    fresh_active_solution,
    lasso_objective,
    loop_kkt_gap,
    loop_next_event,
    per_fold_lambda_scores,
    proximal_gradient_lasso,
)


def random_gram(seed, p=4, d=1, n=200):
    rng = np.random.default_rng(seed)
    return build_gram(rng.standard_normal((n, p)), d)


def path_solutions(Gamma, gamma, mu_grid):
    """Every column's path solution at every grid mu: len(mu_grid) x pd x m."""
    out = np.zeros((mu_grid.size,) + gamma.shape)
    hits = np.zeros((mu_grid.size, gamma.shape[1]), dtype=int)
    for cols, hi, lo, U, V in _lasso_path(Gamma, gamma, mu_grid[-1]):
        g, i = np.nonzero((mu_grid[:, None] >= lo) & (mu_grid[:, None] < hi))
        out[g, :, cols[i]] = (U[:, i] - mu_grid[g] * V[:, i]).T
        np.add.at(hits, (g, cols[i]), 1)
    assert np.all(hits == 1)  # the segments tile the grid
    return out


def factor_gram():
    """Factor-adjusted Gram matrix of a (200,30) r=3 panel: rank pd - 3."""
    spec = DgpSpec(n=200, p=30, var_design="banded", innovation="student_t", nu=2.1,
                   factor_design="var1_factors", r=3, seed=1)
    return build_gram(fit_factors(simulate_panel(spec).x, 3).idio, 1)


def worst_relative_kkt_gap(Gamma, gamma, mu_grid):
    B = path_solutions(Gamma, gamma, mu_grid)
    return max(
        kkt_gap(Gamma, gamma[:, j], B[g, :, j], 2.0 * mu) / (2.0 * mu)
        for g, mu in enumerate(mu_grid)
        for j in range(gamma.shape[1])
    )


def test_large_lambda_kills_solution_exactly():
    gram = random_gram(0, p=5)
    lam = 2.0 * np.max(np.abs(gram.gamma)) * 1.0001
    assert np.all(fit_var(gram, lam).A == 0.0)


def test_lambda_zero_matches_dense_solve():
    gram = random_gram(1, p=4, n=500)
    fit = fit_var(gram, 0.0)
    for j in range(gram.p):
        direct = np.linalg.solve(gram.Gamma, gram.gamma[:, j])
        np.testing.assert_allclose(fit.A[j], direct, atol=1e-6)
        # the KKT certificate at tol 1e-10, tighter than the solver's own
        scale = np.max(np.abs(gram.gamma[:, j]))
        assert kkt_gap(gram.Gamma, gram.gamma[:, j], fit.A[j], 0.0) <= 10 * 1e-10 * scale


def test_matches_proximal_gradient_objective():
    gram = random_gram(2, p=4, d=3, n=300)  # pd = 12
    lam = 0.1
    fit = fit_var(gram, lam)
    for j in range(gram.p):
        beta = fit.A[j]
        reference = proximal_gradient_lasso(gram.Gamma, gram.gamma[:, j], lam)
        ours = lasso_objective(gram.Gamma, gram.gamma[:, j], beta, lam)
        theirs = lasso_objective(gram.Gamma, gram.gamma[:, j], reference, lam)
        assert abs(ours - theirs) < 1e-8
        gap = kkt_gap(gram.Gamma, gram.gamma[:, j], beta, lam)
        assert gap <= 10 * 1e-9
        # the KKT certificate at tol 1e-9, tighter than the solver's own
        assert gap <= 10 * 1e-9 * np.max(np.abs(gram.gamma[:, j]))


def test_kkt_gap_matches_loop_reference():
    gram = random_gram(14, p=4, d=2, n=120)  # pd = 8
    rng = np.random.default_rng(14)
    for lam in (0.0, 0.05, 0.5):
        fit = fit_var(gram, lam)
        for j in range(gram.p):
            draw = rng.standard_normal(8) * (rng.random(8) < 0.5)
            draw[0], draw[1] = 0.0, 0.3  # zero and nonzero entries in every draw
            for beta in (draw, fit.A[j]):
                ours = kkt_gap(gram.Gamma, gram.gamma[:, j], beta, lam)
                reference = loop_kkt_gap(gram.Gamma, gram.gamma[:, j], beta, lam)
                assert ours == pytest.approx(reference, rel=1e-9, abs=1e-14)


def test_kkt_certificate_alone_stops_solver_on_singular_factor_gram(monkeypatch):
    # the factor-adjusted Gram matrix has r = 3 zero eigenvalues, so an
    # iterate can move along its null space without changing the fit or the
    # gap. Row 24's path reaches lambda = 0.002 in 29 knots, every row's
    # within a budget of 40, and the solutions read off them are certified
    gram = factor_gram()
    assert np.linalg.eigvalsh(gram.Gamma)[2] < 1e-12
    monkeypatch.setattr(favar.varlasso, "_MAX_ITER", 40)
    fit = fit_var(gram, 0.002)
    assert fit.iterations[24] == 29
    for j in range(gram.p):
        assert kkt_gap(gram.Gamma, gram.gamma[:, j], fit.A[j], 0.002) <= 10 * 1e-7
    assert np.count_nonzero(fit.A[24]) > 0


def test_kkt_certificate_holds_at_default_tolerance():
    gram = random_gram(3, p=6, d=2, n=150)
    for lam in (0.01, 0.1, 1.0):
        fit = fit_var(gram, lam)
        for j in range(gram.p):
            assert kkt_gap(gram.Gamma, gram.gamma[:, j], fit.A[j], lam) <= 10 * 1e-7


def test_scaling_equivariance():
    rng = np.random.default_rng(5)
    values = rng.standard_normal((100, 4))
    lam = 0.2
    base = fit_var(build_gram(values, 1), lam).A
    for c in (3.7, 1e-4):
        scaled = fit_var(build_gram(c * values, 1), lam * c**2).A
        np.testing.assert_allclose(scaled, base, atol=1e-8)


def test_fit_var_matches_row_by_row_solutions():
    gram = random_gram(7, p=6, d=2, n=200)
    joint = fit_var(gram, 0.1)
    for j in range(gram.p):
        solo, knots = _path_at(gram.Gamma, gram.gamma[:, [j]], np.array([0.05]))
        np.testing.assert_array_equal(joint.A[j], solo[:, 0, 0])
        assert joint.iterations[j] == knots[0, 0]


def test_fit_var_huge_lambda_gives_zero_matrix():
    gram = random_gram(8, p=4)
    fit = fit_var(gram, 1e6)
    assert fit.nonzeros == 0
    assert all(a.size == 0 for a in fit.active_set)


def test_fit_var_refuses_penalty_that_is_not_finite():
    # NaN coefficients would pass the KKT certificate, whose gap test is false on NaN
    gram = random_gram(8, p=4)
    for lam in (np.inf, np.nan, -1.0):
        with pytest.raises(ValueError, match="lambda"):
            fit_var(gram, lam)


def test_fit_var_reads_a_lambda_cv_report_only_at_its_choice_on_its_data():
    values = simulate_panel(DgpSpec(n=120, p=10, seed=4)).x.values
    gram = build_gram(values, 1)
    report = cv_lambda(values, 1, gram=gram)
    assert report.full_solutions is not None  # at p = 10 the full data rides
    ridden, walked = fit_var(gram, report.lam, cv=report), fit_var(gram, report.lam)
    # the same path, walked in a stack of five folds or alone
    np.testing.assert_allclose(ridden.A, walked.A, rtol=0, atol=1e-13)
    np.testing.assert_array_equal(ridden.iterations, walked.iterations)
    with pytest.raises(ValueError, match="is not lambda-CV's choice"):
        fit_var(gram, 0.5 * report.lam, cv=report)
    other = build_gram(simulate_panel(DgpSpec(n=120, p=10, seed=5)).x.values, 1)
    with pytest.raises(ConvergenceError, match="miss the KKT certificate"):
        fit_var(other, report.lam, cv=report)


def test_fit_var_block_shapes():
    gram = random_gram(9, p=3, d=2, n=100)
    fit = fit_var(gram, 0.05)
    assert len(fit.A_blocks) == 2
    assert all(block.shape == (3, 3) for block in fit.A_blocks)
    np.testing.assert_array_equal(np.hstack(fit.A_blocks), fit.A)
    # the blocks are read-only views of the frozen A, not stored copies
    assert all(np.shares_memory(block, fit.A) and not block.flags.writeable
               for block in fit.A_blocks)


def test_banded_support_recovery_with_cv_lambda():
    # the one-standard-error penalty recovers the banded support; the plain
    # minimiser predicts as well but over-selects, as lasso CV always does
    hits = 0
    for seed in range(20):
        spec = DgpSpec(n=2000, p=10, var_design="banded", factor_design="none", seed=seed)
        panel = simulate_panel(spec)
        report = cv_lambda(panel.xi, d=1, n_lambda=30, n_folds=5)
        folds = report.fold_scores.shape[0]
        se = report.fold_scores[:, report.chosen].std(ddof=1) / np.sqrt(folds)
        one_se = np.flatnonzero(report.mean_scores <= report.mean_scores[report.chosen] + se)[0]
        fit = fit_var(build_gram(panel.xi, 1), float(report.grid[one_se]))
        true_support = panel.A != 0.0
        false_negatives = np.count_nonzero(true_support & (fit.A == 0.0))
        false_positives = np.count_nonzero(~true_support & (fit.A != 0.0))
        if false_negatives == 0 and false_positives <= 0.2 * true_support.sum():
            hits += 1
    assert hits >= 16


def test_cv_lambda_path_head_zeroes_every_training_fold():
    rng = np.random.default_rng(10)
    values = rng.standard_normal((80, 4))
    report = cv_lambda(values, d=1, n_lambda=5, n_folds=4)
    # at the path head the penalty dominates every fold's moment vector, so
    # the training fit is zero and the validation error is the response power
    blocks = np.array_split(np.arange(80), 4)
    for k, block in enumerate(blocks):
        val_t = block[block >= 1]
        expected = float(np.mean(values[val_t] ** 2))
        assert report.fold_scores[k, 0] == pytest.approx(expected, rel=1e-12)


def test_cv_lambda_white_noise_prefers_sparse_fits():
    hits = 0
    for seed in range(20):
        spec = DgpSpec(n=600, p=12, var_design="none", factor_design="none", seed=seed)
        panel = simulate_panel(spec)
        report = cv_lambda(panel.xi, d=1, n_lambda=30, n_folds=5)
        fit = fit_var(build_gram(panel.xi, 1), report.lam)
        if fit.nonzeros <= 0.01 * fit.A.size:
            hits += 1
    assert hits >= 16


def test_cv_lambda_single_point_grid():
    rng = np.random.default_rng(11)
    report = cv_lambda(rng.standard_normal((60, 3)), d=1, n_lambda=1, n_folds=3)
    assert report.grid.shape == (1,)
    assert report.fold_scores.shape == (3, 1)
    assert report.chosen == 0


def test_cv_lambda_path_meets_kkt_at_every_grid_lambda():
    # the criterion 4 Gaussian design, where re-entries with the opposite
    # sign occur along the paths
    spec = DgpSpec(n=100, p=50, var_design="banded", factor_design="none", seed=0)
    values = simulate_panel(spec).xi
    report = cv_lambda(values, d=1, n_lambda=50, n_folds=5)
    assert report.knots.shape == (5, 50) and report.knots.min() > 0
    for Gamma, gamma, _, _ in _cv_folds(values, 1, 5):
        assert worst_relative_kkt_gap(Gamma, gamma, 0.5 * report.grid) <= 1e-10


def test_cv_lambda_frees_each_walks_solutions_before_the_next_walk():
    # on the criterion 4 panel each fold walks alone, and its grid solutions
    # are pd x p x n_lambda doubles, 1 MB. Freed before the next walk starts,
    # the traced peak is about 3.9 MB; a walk's buffers kept alive into the
    # next raise it to about 5.3 MB, above the 4.5 MB bound
    spec = DgpSpec(n=100, p=50, var_design="banded", factor_design="none", seed=0)
    values = simulate_panel(spec).xi
    tracemalloc.start()
    try:
        cv_lambda(values, d=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4.5e6


def test_cv_lambda_knot_budget_raises_convergence_error(monkeypatch):
    rng = np.random.default_rng(15)
    monkeypatch.setattr(favar.varlasso, "_MAX_ITER", 2)
    with pytest.raises(ConvergenceError, match="after 2 knots") as exc_info:
        cv_lambda(rng.standard_normal((80, 6)), d=1, n_lambda=10, n_folds=4)
    assert exc_info.value.iterations.max() == 2


def test_lasso_path_walks_rank_deficient_factor_gram_to_its_end():
    # the factor-adjusted Gram matrix has rank pd - r. Walked down to the
    # depth of the lambda-CV grid, the active sets grow to that rank and no
    # further, so no active block turns singular
    gram = factor_gram()
    mu_grid = np.max(np.abs(gram.gamma)) * np.geomspace(1.0, _LAMBDA_DEPTH, 30)
    largest = 0
    for cols, hi, lo, U, V in _lasso_path(gram.Gamma, gram.gamma, mu_grid[-1]):
        assert np.all(np.isfinite(U)) and np.all(np.isfinite(V))
        largest = max(largest, int(np.count_nonzero(V, axis=0).max()))
    assert largest == 30 - 3
    assert worst_relative_kkt_gap(gram.Gamma, gram.gamma, mu_grid) <= 1e-10


def test_fit_var_certifies_small_penalties_on_rank_deficient_factor_gram(monkeypatch):
    # below the lambda-CV depth, rounding leaves the coordinates outside a
    # full-rank active set with correlations of rounding size; none of them
    # may join, or the path makes spurious knots on singular blocks
    gram = factor_gram()
    head = 2.0 * np.max(np.abs(gram.gamma))
    scale = np.max(np.abs(gram.gamma), axis=0)
    monkeypatch.setattr(favar.varlasso, "_MAX_ITER", 1000)
    for lam in (1e-6 * head, 1e-14 * head, 0.0):
        fit = fit_var(gram, lam)
        for j in range(gram.p):
            gap = kkt_gap(gram.Gamma, gram.gamma[:, j], fit.A[j], lam)
            assert gap <= 10 * 1e-7 * scale[j]


def test_singular_join_refactorises_its_column_and_spares_the_rest_of_the_batch():
    # coordinates 0 and 1 are duplicates, so column 0's block turns exactly
    # singular when 1 joins: that column is refactorised with pinv, also when
    # 5 leaves again, and gets the min-norm solution; the others are updated
    rng = np.random.default_rng(16)
    Z = rng.standard_normal((200, 5))
    X = np.column_stack([Z[:, 0], Z])
    Gamma = X.T @ X / 200
    gamma = rng.standard_normal((6, 3))
    inv = _ActiveInverses(Gamma, np.array([0, 1, 4]))
    for k in ([5, 2, 3], [1, 3, 2], [5, 4, 1]):
        inv.toggle(np.array(k))
    S = np.array([[1, 0, 0], [1, 1, -1], [0, -1, 1], [0, 1, 1], [0, 1, -1], [0, 0, 0]], float)
    (U, V), _, _ = inv.solve(gamma, S, np.arange(3), np.full(3, np.inf))
    assert inv.pinned.tolist() == [True, False, False]
    for j in (1, 2):
        A = np.flatnonzero(S[:, j])
        expected = np.linalg.solve(Gamma[np.ix_(A, A)], np.column_stack([gamma[A, j], S[A, j]]))
        np.testing.assert_allclose(U[A, j], expected[:, 0], rtol=1e-12)
        np.testing.assert_allclose(V[A, j], expected[:, 1], rtol=1e-12)
    assert U[0, 0] == pytest.approx((gamma[0, 0] + gamma[1, 0]) / (4 * Gamma[0, 0]))
    assert U[0, 0] == pytest.approx(U[1, 0]) and V[0, 0] == pytest.approx(V[1, 0])
    assert np.all(U[2:, 0] == 0.0) and np.all(U[[0, 5], 1:] == 0.0)


def test_singular_join_inside_a_stack_reads_its_own_fold():
    # the duplicated-coordinate Gamma above sits in fold 1 of a stack whose
    # fold 0 is well-conditioned: only fold 1's column turns singular, and its
    # pinv refactorisation reads fold 1's Gamma, so the min-norm answer holds
    rng = np.random.default_rng(16)
    Z = rng.standard_normal((200, 5))
    X = np.column_stack([Z[:, 0], Z])
    W = rng.standard_normal((200, 6))
    Gamma = np.stack([W.T @ W / 200, X.T @ X / 200])
    gamma = rng.standard_normal((6, 3))
    inv = _ActiveInverses(Gamma, np.array([0, 1, 4]), np.array([1, 0, 0]))
    for k in ([5, 2, 3], [1, 3, 2], [5, 4, 1]):
        inv.toggle(np.array(k))
    S = np.array([[1, 0, 0], [1, 1, -1], [0, -1, 1], [0, 1, 1], [0, 1, -1], [0, 0, 0]], float)
    (U, V), _, _ = inv.solve(gamma, S, np.arange(3), np.full(3, np.inf))
    assert inv.pinned.tolist() == [True, False, False]
    for j in (1, 2):
        A = np.flatnonzero(S[:, j])
        expected = np.linalg.solve(Gamma[0][np.ix_(A, A)], np.column_stack([gamma[A, j], S[A, j]]))
        np.testing.assert_allclose(U[A, j], expected[:, 0], rtol=1e-12)
        np.testing.assert_allclose(V[A, j], expected[:, 1], rtol=1e-12)
    assert U[0, 0] == pytest.approx((gamma[0, 0] + gamma[1, 0]) / (4 * Gamma[1, 0, 0]))
    assert U[0, 0] == pytest.approx(U[1, 0]) and V[0, 0] == pytest.approx(V[1, 0])
    assert np.all(U[2:, 0] == 0.0) and np.all(U[[0, 5], 1:] == 0.0)


def column_segments(Gamma, gamma, mu_stop, fold=None):
    """Each column's path as its list of segments ``(hi, lo, u, v)``."""
    segments = [[] for _ in range(gamma.shape[1])]
    for cols, hi, lo, U, V in _lasso_path(Gamma, gamma, mu_stop, fold):
        for i, j in enumerate(cols):
            segments[j].append((hi[i], lo[i], U[:, i], V[:, i]))
    return segments


def test_stacked_walk_equals_separate_walks():
    # fold 0 is the rank-deficient factor Gram, fold 1 a random Gram with a
    # dead coordinate (zero row, column and moments): walked as one stack,
    # every column takes the same knots, U and V as on its own Gram alone
    factor = factor_gram()
    rand = random_gram(17, p=30, n=300)
    Gamma1, gamma1 = rand.Gamma.copy(), rand.gamma.copy()
    Gamma1[7], Gamma1[:, 7], gamma1[7] = 0.0, 0.0, 0.0
    Gamma = np.stack([factor.Gamma, Gamma1])
    gamma = np.hstack([factor.gamma, gamma1])
    mu_stop = _LAMBDA_DEPTH * np.max(np.abs(gamma))
    stacked = column_segments(Gamma, gamma, mu_stop, np.repeat([0, 1], 30))
    alone = column_segments(factor.Gamma, factor.gamma, mu_stop) + column_segments(
        Gamma1, gamma1, mu_stop
    )
    assert sum(len(path) for path in alone) > 2 * 60
    for together, single in zip(stacked, alone):
        assert len(together) == len(single)
        for (hi, lo, u, v), (hi1, lo1, u1, v1) in zip(together, single):
            assert hi == pytest.approx(hi1, rel=1e-12) and lo == pytest.approx(lo1, rel=1e-12)
            assert np.max(np.abs(u - u1)) <= 1e-12 * max(np.max(np.abs(u1)), 1e-300)
            assert np.max(np.abs(v - v1)) <= 1e-12 * max(np.max(np.abs(v1)), 1e-300)


@pytest.mark.parametrize("n, p, folds_per_walk", [(120, 10, 5), (100, 50, 1)])
def test_cv_lambda_matches_folds_walked_one_by_one(n, p, folds_per_walk):
    # a (120,10) r = 3 panel walks its five folds together, a (100,50) panel
    # each fold on its own; both agree with every fold walked alone
    assert min(5, _FOLD_STACK // (p * p**2)) == folds_per_walk
    spec = DgpSpec(n=n, p=p, var_design="banded", innovation="student_t", nu=2.1,
                   factor_design="var1_factors" if p == 10 else "none", r=3, seed=3)
    panel = simulate_panel(spec)
    values = fit_factors(panel.x, 3).idio if p == 10 else panel.xi
    report = cv_lambda(values, d=1)
    scores, knots = per_fold_lambda_scores(values, 1, report.grid, 5)
    np.testing.assert_allclose(report.fold_scores, scores, rtol=1e-12, atol=0)
    np.testing.assert_array_equal(report.knots, knots)
    assert report.chosen == int(np.argmin(scores.mean(axis=0)))


def leaves_after_matching_fresh_solves(Gamma, gamma, mu_stop, rtol):
    """Check every knot's maintained U and V against its active block solved afresh.

    The active set of a segment is the support of its V, and its signs are
    those of Gamma_AA V_A, which the path keeps at s_A. Returns the number of
    leave events seen.
    """
    size = np.zeros(gamma.shape[1], dtype=int)
    leaves = 0
    for cols, hi, lo, U, V in _lasso_path(Gamma, gamma, mu_stop):
        for i in np.flatnonzero(hi < np.inf):
            j = cols[i]
            A = np.flatnonzero(V[:, i])
            signs = np.sign(Gamma[np.ix_(A, A)] @ V[A, i])
            u, v = fresh_active_solution(Gamma, gamma[:, j], A, signs)
            assert np.max(np.abs(U[:, i] - u)) <= rtol * np.max(np.abs(u))
            assert np.max(np.abs(V[:, i] - v)) <= rtol * np.max(np.abs(v))
            leaves += A.size < size[j]
            size[j] = A.size
    return leaves


def test_updated_inverses_match_fresh_solves_at_every_knot():
    # the rank-one updates accumulate rounding; on the rank-deficient factor
    # Gram walked to lambda = 0 and on the criterion 4 Gaussian design walked
    # to the lambda-CV depth, both with leave events, every knot stays within
    # 1e-11 of a fresh solve (about 1e-13 is seen)
    gram = factor_gram()
    assert leaves_after_matching_fresh_solves(gram.Gamma, gram.gamma, 0.0, 1e-11) > 0
    spec = DgpSpec(n=100, p=50, var_design="banded", factor_design="none", seed=0)
    gram = build_gram(simulate_panel(spec).xi, 1)
    mu_stop = _LAMBDA_DEPTH * np.max(np.abs(gram.gamma))
    assert leaves_after_matching_fresh_solves(gram.Gamma, gram.gamma, mu_stop, 1e-11) > 0


def test_lasso_path_two_events_on_one_knot():
    # a diagonal Gram matrix has the soft-threshold solution, so ties in
    # |gamma_k| put two joins on one knot; column 1 ties two of opposite sign
    Gamma = np.diag([1.0, 2.0, 0.5, 4.0])
    gamma = np.array([[0.8, 0.4], [0.8, -0.4], [0.3, 0.4], [-0.3, 0.1]])
    mu_grid = np.geomspace(1.0, 0.01, 40)
    B = path_solutions(Gamma, gamma, mu_grid)
    soft = np.sign(gamma) * np.maximum(np.abs(gamma) - mu_grid[:, None, None], 0.0)
    np.testing.assert_allclose(B, soft / np.diag(Gamma)[:, None], rtol=0, atol=1e-15)
    knots = {}
    for cols, hi, lo, U, V in _lasso_path(Gamma, gamma, 0.01):
        for j in cols[hi < np.inf]:
            knots[int(j)] = knots.get(int(j), 0) + 1
    assert knots == {0: 4, 1: 4}


def events_checked_against_loop_reference(Gamma, gamma, mu_stop, fold=None):
    """Walk the paths and check each segment against ``loop_next_event``.

    The active signs and the bar are tracked here from the events. On every
    segment the support of V must be the tracked active set, so each knot's
    change is its event, and ``lo`` must equal the reference's time exactly:
    cu and cv come from the walk's own product of each fold's Gamma with
    [U V]. Returns the events taken, each as ``(column, kind, coordinate)``.
    """
    Gamma3 = Gamma.reshape((-1,) + Gamma.shape[-2:])
    pd_, m = gamma.shape
    fold = np.zeros(m, dtype=int) if fold is None else fold
    live = np.diagonal(Gamma3, axis1=1, axis2=2) > 0.0
    floor = _JOIN_FLOOR * np.max(np.abs(gamma), axis=0)
    first = np.argmax(np.abs(gamma), axis=0)
    signs = np.zeros((pd_, m))
    signs[first, np.arange(m)] = np.sign(gamma[first, np.arange(m)])
    bar = [(0, k) for k in first]  # the first coordinate may not leave at once
    events = []
    walk = _lasso_path(Gamma, gamma, mu_stop, fold)
    next(walk)  # the path head
    for cols, hi, lo, U, V in walk:
        GU, CV = _fold_products(Gamma3, fold[cols], np.stack([U, V]))
        CU = gamma[:, cols] - GU
        for i, j in enumerate(cols):
            A = np.flatnonzero(signs[:, j])
            assert np.array_equal(np.flatnonzero(V[:, i]), A)
            time, kind, k = loop_next_event(CU[:, i], CV[:, i], U[:, i], V[:, i], signs[:, j],
                                            live[fold[j]], floor[j], hi[i], bar[j])
            assert lo[i] == time
            if lo[i] > mu_stop:
                bar[j] = (int(signs[k, j]), k) if kind == 0 else (0, k)
                signs[k, j] = kind
                events.append((int(j), kind, int(k)))
    return events


def test_event_search_matches_loop_reference():
    # the diagonal Gram ties joins of both signs on one knot; the factor Gram,
    # walked to lambda = 0, meets the join floor and leaves; the two-fold
    # stack adds a fold with a dead coordinate; a near-collinear Gram meets
    # both bars
    events = events_checked_against_loop_reference(
        np.diag([1.0, 2.0, 0.5, 4.0]),
        np.array([[0.8, 0.4], [0.8, -0.4], [0.3, 0.4], [-0.3, 0.1]]), 0.01,
    )
    # column 1 ties coordinate 1 at -mu and 2 at +mu: the lower coordinate goes first
    assert [e for e in events if e[0] == 1] == [(1, -1, 1), (1, 1, 2), (1, 1, 3)]
    factor = factor_gram()
    events = events_checked_against_loop_reference(factor.Gamma, factor.gamma, 0.0)
    assert {-1, 0, 1} <= {kind for _, kind, _ in events}
    rand = random_gram(17, p=30, n=300)
    Gamma1, gamma1 = rand.Gamma.copy(), rand.gamma.copy()
    Gamma1[7], Gamma1[:, 7], gamma1[7] = 0.0, 0.0, 0.0
    gamma = np.hstack([factor.gamma, gamma1])
    events = events_checked_against_loop_reference(
        np.stack([factor.Gamma, Gamma1]), gamma, _LAMBDA_DEPTH * np.max(np.abs(gamma)),
        np.repeat([0, 1], 30),
    )
    assert {-1, 0, 1} <= {kind for _, kind, _ in events}
    # three columns +-z, two of them off by 1e-11: rounding puts the event
    # that undoes a knot's change due at that knot, so only the bar stops it
    rng = np.random.default_rng(0)
    z = rng.standard_normal(24)
    X = np.column_stack([z, -z, z]) + 1e-11 * rng.standard_normal((24, 3)) * [1, 1, 0]
    y = rng.standard_normal((24, 2))
    events = events_checked_against_loop_reference(X.T @ X / 24, X.T @ y / 24, 0.0)
    assert {-1, 0, 1} <= {kind for _, kind, _ in events}


def test_lasso_path_matches_proximal_gradient_objective():
    gram = random_gram(2, p=4, d=3, n=300)  # pd = 12
    mu_max = np.max(np.abs(gram.gamma))
    mu_grid = np.geomspace(mu_max, 1e-3 * mu_max, 6)
    B = path_solutions(gram.Gamma, gram.gamma, mu_grid)
    for g, mu in enumerate(mu_grid):
        for j in range(gram.p):
            reference = proximal_gradient_lasso(gram.Gamma, gram.gamma[:, j], 2.0 * mu)
            ours = lasso_objective(gram.Gamma, gram.gamma[:, j], B[g, :, j], 2.0 * mu)
            theirs = lasso_objective(gram.Gamma, gram.gamma[:, j], reference, 2.0 * mu)
            assert abs(ours - theirs) < 1e-8


def test_cv_lambda_validates_folds():
    rng = np.random.default_rng(12)
    with pytest.raises(ValueError, match="folds"):
        cv_lambda(rng.standard_normal((30, 3)), d=1, n_folds=1)


def test_zero_diagonal_with_signal_rejected():
    Gamma = np.zeros((2, 2))
    Gamma[1, 1] = 1.0
    gamma = np.array([[0.5, 0.0], [0.2, 0.1]])
    gram = GramSystem(Gamma=Gamma, gamma=gamma, N=10, d=1, p=2)
    with pytest.raises(ValueError, match="unbounded"):
        fit_var(gram, 0.1)
    with pytest.raises(ValueError, match="unbounded"):
        path_solutions(Gamma, gamma, np.array([0.05]))
    # in a stack, only fold 1's columns meet its dead coordinate, and the
    # error names the column of the walk
    stack, moments = np.stack([np.eye(2), Gamma]), np.hstack([gamma, gamma])
    with pytest.raises(ValueError, match=r"gamma\[0,2\] != 0"):
        list(_lasso_path(stack, moments, 0.05, np.array([0, 0, 1, 1])))


def test_zero_diagonal_without_signal_is_fine():
    Gamma = np.zeros((2, 2))
    Gamma[1, 1] = 1.0
    gamma = np.array([[0.0, 0.0], [0.2, 0.1]])
    gram = GramSystem(Gamma=Gamma, gamma=gamma, N=10, d=1, p=2)
    assert fit_var(gram, 0.1).A[0, 0] == 0.0
    # the path keeps the dead coordinate at zero and solves the live one
    B = path_solutions(Gamma, gamma, np.array([0.15, 0.05, 0.01]))
    np.testing.assert_array_equal(B[:, 0], 0.0)
    np.testing.assert_allclose(B[:, 1], [[0.05, 0.0], [0.15, 0.05], [0.19, 0.09]])


def test_convergence_error_carries_iterate_and_gap(monkeypatch):
    gram = random_gram(13, p=6, n=50)
    monkeypatch.setattr(favar.varlasso, "_MAX_ITER", 1)
    with pytest.raises(ConvergenceError, match="after 1 knots") as exc_info:
        fit_var(gram, 0.001)
    err = exc_info.value
    assert err.beta.shape == (6, 6)
    assert err.kkt_gap > 0.0
    # every row stops after its one knot, unfinished
    assert err.kkt_gap == pytest.approx(
        max(kkt_gap(gram.Gamma, gram.gamma[:, j], err.beta[:, j], 0.001) for j in range(6)),
        rel=1e-12,
    )
    np.testing.assert_array_equal(err.iterations, 1)
