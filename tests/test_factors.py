import numpy as np
import pytest

from favar.factors import fit_factors, project_common, select_r
from favar.panel import PanelSeries
from favar.simulate import DgpSpec, simulate_panel


def random_panel(seed, n=60, p=8):
    rng = np.random.default_rng(seed)
    return PanelSeries.from_values(rng.standard_normal((n, p)))


def test_rank_one_data_recovered_exactly():
    rng = np.random.default_rng(0)
    v = rng.standard_normal(6)
    v /= np.linalg.norm(v)
    f = rng.standard_normal(40)
    panel = PanelSeries.from_values(np.outer(f, v))
    fit = fit_factors(panel, r=1)
    e1 = fit.eigvecs[:, 0]
    assert min(np.linalg.norm(e1 - v), np.linalg.norm(e1 + v)) < 1e-8
    np.testing.assert_allclose(fit.common, panel.values, atol=1e-10)
    np.testing.assert_allclose(fit.idio, 0.0, atol=1e-10)


def test_eigen_residuals_small():
    panel = random_panel(1, n=80, p=10)
    fit = fit_factors(panel, r=4)
    gram = panel.values.T @ panel.values / panel.n
    for j in range(4):
        resid = gram @ fit.eigvecs[:, j] - fit.eigvals[j] * fit.eigvecs[:, j]
        assert np.linalg.norm(resid) <= 1e-8 * fit.eigvals[0]


@pytest.mark.parametrize("seed", range(5))
def test_fit_invariants(seed):
    panel = random_panel(seed, n=50, p=7)
    fit = fit_factors(panel, r=3)
    np.testing.assert_allclose(fit.eigvecs.T @ fit.eigvecs, np.eye(3), atol=1e-10)
    gram_loadings = fit.loadings.T @ fit.loadings
    np.testing.assert_allclose(gram_loadings, np.diag(fit.eigvals), atol=1e-8)
    # the split is complementary by definition (bitwise) and reconstructs to 1 ulp
    np.testing.assert_array_equal(fit.idio, panel.values - fit.common)
    ulp = np.finfo(float).eps * np.max(np.abs(panel.values))
    np.testing.assert_allclose(fit.common + fit.idio, panel.values, rtol=0, atol=2 * ulp)
    np.testing.assert_allclose(
        fit.common, (panel.values @ fit.eigvecs) @ fit.eigvecs.T, atol=1e-12
    )
    # the two factorisations of the common part agree
    np.testing.assert_allclose(fit.factors @ fit.loadings.T, fit.common, atol=1e-8)


def test_eigenvalues_descending_and_sign_convention_deterministic():
    panel = random_panel(2)
    fit_a = fit_factors(panel, r=4)
    fit_b = fit_factors(panel, r=4)
    assert np.all(np.diff(fit_a.eigvals) <= 0)
    np.testing.assert_array_equal(fit_a.eigvecs, fit_b.eigvecs)
    for j in range(4):
        k = np.argmax(np.abs(fit_a.eigvecs[:, j]))
        assert fit_a.eigvecs[k, j] > 0


def test_rank_deficiency_rejected():
    values = np.zeros((10, 4))
    values[:, 0] = np.arange(10.0) + 1.0
    panel = PanelSeries.from_values(values)
    with pytest.raises(ValueError, match="rank deficiency"):
        fit_factors(panel, r=2)


def test_r_out_of_range():
    panel = random_panel(3, n=10, p=4)
    with pytest.raises(ValueError, match="outside"):
        fit_factors(panel, r=5)


def test_common_recovery_improves_with_dimension():
    errors = {}
    for p in (20, 40, 80):
        errs = []
        for seed in range(5):
            spec = DgpSpec(
                n=200, p=p, var_design="banded", factor_design="var1_factors", r=3, seed=seed
            )
            panel = simulate_panel(spec)
            fit = fit_factors(panel.x, 3)
            errs.append(np.linalg.norm(fit.common - panel.chi) / np.linalg.norm(panel.chi))
        errors[p] = np.mean(errs)
    assert errors[40] < 0.5
    assert errors[20] > errors[40] > errors[80]


def test_select_r_pure_noise_prefers_few_factors():
    hits = 0
    for seed in range(50):
        spec = DgpSpec(n=100, p=100, var_design="none", factor_design="none", seed=seed)
        report = select_r(simulate_panel(spec).x, 8)
        if report.chosen <= 2:
            hits += 1
    assert hits >= 45


def test_select_r_strong_three_factor_structure():
    hits = 0
    for seed in range(50):
        spec = DgpSpec(
            n=200, p=100, var_design="none", factor_design="var1_factors", r=3, seed=seed
        )
        report = select_r(simulate_panel(spec).x, 8)
        if report.chosen == 3:
            hits += 1
    assert hits >= 45


def test_select_r_rmax_one():
    report = select_r(random_panel(4, n=30, p=10), 1)
    assert report.chosen in {0, 1}
    assert report.criterion.shape == (2,)


def test_select_r_rmax_validated():
    with pytest.raises(ValueError, match="r_max"):
        select_r(random_panel(5, n=30, p=10), 6)


def test_project_common_orthogonal_input():
    panel = random_panel(6, n=40, p=6)
    fit = fit_factors(panel, r=2)
    x_new = np.random.default_rng(0).standard_normal(6)
    x_perp = x_new - fit.eigvecs @ (fit.eigvecs.T @ x_new)
    common, idio = project_common(fit, x_perp)
    np.testing.assert_allclose(common, 0.0, atol=1e-12)
    np.testing.assert_allclose(idio, x_perp, atol=1e-12)


def test_project_common_eigenvector_input():
    fit = fit_factors(random_panel(7, n=40, p=6), r=2)
    e1 = fit.eigvecs[:, 0]
    common, idio = project_common(fit, e1)
    np.testing.assert_allclose(common, e1, atol=1e-10)
    np.testing.assert_allclose(idio, 0.0, atol=1e-10)


def test_project_common_pythagoras_and_idempotence():
    fit = fit_factors(random_panel(8, n=40, p=6), r=3)
    x_new = np.random.default_rng(1).standard_normal(6)
    common, idio = project_common(fit, x_new)
    np.testing.assert_array_equal(idio, x_new - common)
    np.testing.assert_allclose(common + idio, x_new, rtol=0, atol=4e-16)
    lhs = np.linalg.norm(common) ** 2 + np.linalg.norm(idio) ** 2
    assert abs(lhs - np.linalg.norm(x_new) ** 2) < 1e-10
    again, residual = project_common(fit, common)
    np.testing.assert_allclose(again, common, atol=1e-10)
    np.testing.assert_allclose(residual, 0.0, atol=1e-10)


def test_project_common_length_mismatch():
    fit = fit_factors(random_panel(9, n=40, p=6), r=2)
    with pytest.raises(ValueError, match="length"):
        project_common(fit, np.ones(5))
