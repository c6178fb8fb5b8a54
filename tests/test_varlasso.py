import numpy as np
import pytest

from favar.factors import fit_factors
from favar.moments import GramSystem, build_gram
from favar.simulate import DgpSpec, simulate_panel
from favar.varlasso import (
    ConvergenceError,
    cv_lambda,
    fit_var,
    kkt_gap,
    lasso_row,
)

from reference_impls import lasso_objective, loop_kkt_gap, proximal_gradient_lasso


def random_gram(seed, p=4, d=1, n=200):
    rng = np.random.default_rng(seed)
    return build_gram(rng.standard_normal((n, p)), d)


def test_large_lambda_kills_solution_exactly():
    gram = random_gram(0, p=5)
    lam = 2.0 * np.max(np.abs(gram.gamma)) * 1.0001
    for j in range(gram.p):
        beta = lasso_row(gram, j, lam)
        assert np.all(beta == 0.0)


def test_lambda_zero_matches_dense_solve():
    gram = random_gram(1, p=4, n=500)
    for j in range(gram.p):
        beta = lasso_row(gram, j, 0.0, tol=1e-10)
        direct = np.linalg.solve(gram.Gamma, gram.gamma[:, j])
        np.testing.assert_allclose(beta, direct, atol=1e-6)


def test_matches_proximal_gradient_objective():
    gram = random_gram(2, p=4, d=3, n=300)  # pd = 12
    lam = 0.1
    for j in range(gram.p):
        beta = lasso_row(gram, j, lam, tol=1e-9)
        reference = proximal_gradient_lasso(gram.Gamma, gram.gamma[:, j], lam)
        ours = lasso_objective(gram.Gamma, gram.gamma[:, j], beta, lam)
        theirs = lasso_objective(gram.Gamma, gram.gamma[:, j], reference, lam)
        assert abs(ours - theirs) < 1e-8
        assert kkt_gap(gram.Gamma, gram.gamma[:, j], beta, lam) <= 10 * 1e-9


def test_kkt_gap_matches_loop_reference():
    gram = random_gram(14, p=4, d=2, n=120)  # pd = 8
    rng = np.random.default_rng(14)
    for lam in (0.0, 0.05, 0.5):
        for j in range(gram.p):
            draw = rng.standard_normal(8) * (rng.random(8) < 0.5)
            draw[0], draw[1] = 0.0, 0.3  # zero and nonzero entries in every draw
            for beta in (draw, lasso_row(gram, j, lam)):
                ours = kkt_gap(gram.Gamma, gram.gamma[:, j], beta, lam)
                reference = loop_kkt_gap(gram.Gamma, gram.gamma[:, j], beta, lam)
                assert ours == pytest.approx(reference, rel=1e-9, abs=1e-14)


def test_kkt_certificate_alone_stops_solver_on_singular_factor_gram():
    # the factor-adjusted Gram matrix has r = 3 zero eigenvalues. This row's
    # gap is certified at sweep 368; a sweep-delta test ran on to sweep 389
    # while the coordinates drifted, mostly along the null space
    spec = DgpSpec(n=200, p=30, var_design="banded", innovation="student_t", nu=2.1,
                   factor_design="var1_factors", r=3, seed=1)
    gram = build_gram(fit_factors(simulate_panel(spec).x, 3).idio, 1)
    assert np.linalg.eigvalsh(gram.Gamma)[2] < 1e-12
    beta = lasso_row(gram, 24, 0.002, max_iter=380)
    assert kkt_gap(gram.Gamma, gram.gamma[:, 24], beta, 0.002) <= 10 * 1e-7
    assert np.count_nonzero(beta) > 0


def test_kkt_certificate_holds_at_default_tolerance():
    gram = random_gram(3, p=6, d=2, n=150)
    for lam in (0.01, 0.1, 1.0):
        for j in range(gram.p):
            beta = lasso_row(gram, j, lam)
            assert kkt_gap(gram.Gamma, gram.gamma[:, j], beta, lam) <= 10 * 1e-7


def test_objective_never_increases_across_sweeps():
    gram = random_gram(4, p=5, d=2, n=120)
    for j in range(gram.p):
        lasso_row(gram, j, 0.05, check_objective=True)


def test_scaling_equivariance():
    rng = np.random.default_rng(5)
    values = rng.standard_normal((100, 4))
    lam = 0.2
    base = fit_var(build_gram(values, 1), lam).A
    c = 3.7
    scaled = fit_var(build_gram(c * values, 1), lam * c**2).A
    np.testing.assert_allclose(scaled, base, atol=1e-8)


def test_forward_backward_orderings_agree():
    gram = random_gram(6, p=5, n=400)
    for j in range(gram.p):
        fwd = lasso_row(gram, j, 0.05, tol=1e-9, order="forward")
        bwd = lasso_row(gram, j, 0.05, tol=1e-9, order="backward")
        np.testing.assert_allclose(fwd, bwd, atol=1e-6)


def test_fit_var_matches_row_by_row_solutions():
    gram = random_gram(7, p=6, d=2, n=200)
    joint = fit_var(gram, 0.1)
    for j in range(gram.p):
        solo = lasso_row(gram, j, 0.1)
        np.testing.assert_array_equal(joint.A[j], solo)


def test_fit_var_huge_lambda_gives_zero_matrix():
    gram = random_gram(8, p=4)
    fit = fit_var(gram, 1e6)
    assert fit.nonzeros == 0
    assert all(a.size == 0 for a in fit.active_set)


def test_fit_var_block_shapes():
    gram = random_gram(9, p=3, d=2, n=100)
    fit = fit_var(gram, 0.05)
    assert len(fit.A_blocks) == 2
    assert all(block.shape == (3, 3) for block in fit.A_blocks)
    np.testing.assert_array_equal(np.hstack(fit.A_blocks), fit.A)


def test_banded_support_recovery_with_cv_lambda():
    # the one-standard-error penalty recovers the banded support; the plain
    # minimiser predicts as well but over-selects, as lasso CV always does
    hits = 0
    for seed in range(20):
        spec = DgpSpec(n=2000, p=10, var_design="banded", factor_design="none", seed=seed)
        panel = simulate_panel(spec)
        report = cv_lambda(panel.xi, d=1, n_lambda=30, n_folds=5)
        fit = fit_var(build_gram(panel.xi, 1), report.lam_one_se)
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
        lasso_row(gram, 0, 0.1)


def test_zero_diagonal_without_signal_is_fine():
    Gamma = np.zeros((2, 2))
    Gamma[1, 1] = 1.0
    gamma = np.array([[0.0, 0.0], [0.2, 0.1]])
    gram = GramSystem(Gamma=Gamma, gamma=gamma, N=10, d=1, p=2)
    beta = lasso_row(gram, 0, 0.1)
    assert beta[0] == 0.0


def test_convergence_error_carries_iterate_and_gap():
    gram = random_gram(13, p=6, n=50)
    with pytest.raises(ConvergenceError) as exc_info:
        lasso_row(gram, 0, 0.001, tol=1e-14, max_iter=1)
    err = exc_info.value
    assert err.beta.shape == (6, 1)
    assert err.kkt_gap > 0.0
    assert err.kkt_gap == pytest.approx(
        kkt_gap(gram.Gamma, gram.gamma[:, 0], err.beta[:, 0], 0.001), rel=1e-12
    )
    assert np.max(err.iterations) == 1
