import math

import numpy as np
import pytest

from favar.simulate import (
    DgpSpec,
    draw_innovations,
    make_A,
    make_factor_block,
    sigma_eps_sqrt,
    simulate_panel,
    spectral_radius,
    stability_gate,
    var1_path,
)


def test_banded_design_exact_small_matrix():
    expected = np.array([[0.5, -0.4, 0.0], [0.4, 0.5, -0.4], [0.0, 0.4, 0.5]])
    np.testing.assert_array_equal(make_A("banded", 3), expected)


def test_banded_design_spectral_radius_matches_toeplitz_eigenvalues():
    # eigenvalues of the tridiagonal Toeplitz matrix are
    # 0.5 + 2 sqrt(-0.16) cos(k pi / (p+1)), so the largest modulus at p = 4
    # is sqrt(0.25 + 0.64 cos^2(pi/5))
    A = make_A("banded", 4)
    rho = spectral_radius(A)
    expected = math.sqrt(0.25 + 0.64 * math.cos(math.pi / 5.0) ** 2)
    assert rho == pytest.approx(expected, abs=1e-12)
    assert rho < 1.0


def test_none_design_is_zero():
    np.testing.assert_array_equal(make_A("none", 5), np.zeros((5, 5)))


def test_erdos_renyi_unit_spectral_norm_and_no_self_loops():
    for seed in range(10):
        A = make_A("erdos_renyi", 25, seed=seed)
        assert np.all(np.diag(A) == 0.0)
        if A.any():
            assert np.linalg.norm(A, 2) == pytest.approx(1.0, abs=1e-10)
            stability_gate(A)
        nz = A[A != 0.0]
        assert np.allclose(nz / nz.min(), 1.0)  # single edge weight before scaling


def test_erdos_renyi_seeded_determinism():
    np.testing.assert_array_equal(make_A("erdos_renyi", 30, 7), make_A("erdos_renyi", 30, 7))


def test_stability_gate_rejects_unit_radius():
    with pytest.raises(ValueError, match="unstable"):
        stability_gate(np.eye(3))


def test_student_t_normalised_variance():
    draws = draw_innovations("student_t", 100_000, 10, seed=0, nu=3.0)
    assert 0.97 <= draws.var() <= 1.03


def test_lognormal_centred_and_scaled():
    draws = draw_innovations("lognormal", 100_000, 10, seed=0)
    assert -0.01 <= draws.mean() <= 0.01
    assert 0.97 <= draws.var() <= 1.03


def test_innovations_seeded_determinism():
    a = draw_innovations("gaussian", 50, 4, seed=9)
    b = draw_innovations("gaussian", 50, 4, seed=9)
    np.testing.assert_array_equal(a, b)


def test_student_t_requires_finite_variance():
    with pytest.raises(ValueError, match="nu > 2"):
        draw_innovations("student_t", 10, 2, seed=0, nu=2.0)


def test_factor_transition_spectral_level():
    for seed in range(5):
        _, _, D = make_factor_block(50, 12, 3, "gaussian", seed=seed, burn_in=100)
        assert np.max(np.abs(np.linalg.eigvals(D))) == pytest.approx(0.7, abs=1e-10)


def test_var1_path_zero_transition_returns_innovations():
    rng = np.random.default_rng(0)
    innovations = rng.standard_normal((150, 4))
    path = var1_path(np.zeros((4, 4)), innovations, burn_in=50)
    np.testing.assert_array_equal(path, innovations[50:])


def test_factor_paths_positively_autocorrelated():
    _, F, _ = make_factor_block(10_000, 5, 3, "gaussian", seed=3, burn_in=500)
    for j in range(3):
        lag1 = np.corrcoef(F[1:, j], F[:-1, j])[0, 1]
        assert lag1 > 0.0


def test_power_decay_root_squares_back():
    root = sigma_eps_sqrt("power_decay", 6)
    idx = np.arange(6)
    target = 0.9 ** np.abs(idx[:, None] - idx[None, :])
    np.testing.assert_allclose(root @ root, target, atol=1e-12)


def test_simulated_iid_panel_covariance_near_identity():
    spec = DgpSpec(n=500, p=50, var_design="none", factor_design="none", seed=0)
    panel = simulate_panel(spec)
    cov = panel.x.values.T @ panel.x.values / panel.x.n
    assert np.max(np.abs(cov - np.eye(50))) < 0.2


def test_variance_matching_is_exact():
    spec = DgpSpec(n=300, p=20, var_design="banded", factor_design="var1_factors", r=3, seed=4)
    panel = simulate_panel(spec)
    ratio = panel.chi.var(axis=0) / panel.xi.var(axis=0)
    np.testing.assert_allclose(ratio, 1.0, atol=1e-10)


def test_truth_bookkeeping_identities():
    spec = DgpSpec(n=100, p=10, var_design="banded", factor_design="var1_factors", r=2, seed=5)
    panel = simulate_panel(spec)
    np.testing.assert_array_equal(panel.x.values, panel.chi + panel.xi)
    # the idiosyncratic part satisfies its own recursion given the stored draws
    reconstructed = panel.A @ panel.xi[:-1].T + panel.eps[1:].T
    np.testing.assert_allclose(panel.xi[1:], reconstructed.T, atol=1e-12)


def test_simulation_seeded_determinism():
    spec = DgpSpec(n=60, p=8, var_design="erdos_renyi", innovation="student_t", nu=2.1,
                   factor_design="var1_factors", r=3, seed=11)
    a, b = simulate_panel(spec), simulate_panel(spec)
    np.testing.assert_array_equal(a.x.values, b.x.values)
    np.testing.assert_array_equal(a.A, b.A)
    np.testing.assert_array_equal(a.F, b.F)


def test_burn_in_doubling_barely_moves_covariance():
    base = DgpSpec(n=500, p=20, var_design="banded", factor_design="none", seed=6, burn_in=500)
    double = DgpSpec(n=500, p=20, var_design="banded", factor_design="none", seed=6, burn_in=1000)
    cov_a = simulate_panel(base).xi
    cov_b = simulate_panel(double).xi
    ca = cov_a.T @ cov_a / 500
    cb = cov_b.T @ cov_b / 500
    assert np.max(np.abs(ca - cb)) < 0.05


def test_spec_validation():
    with pytest.raises(ValueError, match="nu > 2"):
        DgpSpec(n=50, p=5, innovation="student_t", nu=2.0)
    with pytest.raises(ValueError, match="burn_in"):
        DgpSpec(n=50, p=5, burn_in=10)
    with pytest.raises(ValueError, match="unknown VAR design"):
        DgpSpec(n=50, p=5, var_design="dense")
    for bad in ({"n": 50.0}, {"p": True}, {"r": "3"}, {"burn_in": 500.5}):
        with pytest.raises(ValueError, match=f"{next(iter(bad))} must be an integer"):
            DgpSpec(**{"n": 50, "p": 5, **bad})
    with pytest.raises(ValueError, match="nu must be a number"):
        DgpSpec(n=50, p=5, nu="3")
    assert DgpSpec(n=np.int64(50), p=5, nu=3).nu == 3  # numpy integers and int nu pass


def test_all_generated_matrices_pass_stability_gate():
    for design in ("banded", "erdos_renyi", "none"):
        for p in (10, 50):
            for seed in range(5):
                A = make_A(design, p, seed)
                stability_gate(A)
                assert spectral_radius(A) < 1.0
