import numpy as np
import pytest

from favar.moments import GramSystem, autocov, build_gram, max_norm_diff
from favar.panel import PanelSeries
from favar.simulate import DgpSpec, simulate_panel

from reference_impls import loop_autocov, loop_gram, loop_max_abs_diff


def test_autocov_zero_panel():
    panel = PanelSeries.from_values(np.zeros((10, 3)))
    np.testing.assert_array_equal(autocov(panel, 2), np.zeros((3, 3)))


def test_autocov_hand_example():
    panel = PanelSeries.from_values(np.array([[1.0], [2.0], [3.0]]))
    moment = autocov(panel, 1)
    assert moment.shape == (1, 1)
    assert moment[0, 0] == (1 * 2 + 2 * 3) / 2  # divisor n - h = 2
    # a plain array gives the same moment as the panel holding it
    np.testing.assert_array_equal(autocov(panel.values, 1), moment)


def test_autocov_matches_triple_loop():
    rng = np.random.default_rng(3)
    panel = PanelSeries.from_values(rng.standard_normal((20, 3)))
    got = autocov(panel, 2)
    np.testing.assert_allclose(got, loop_autocov(panel.values, 2), rtol=0, atol=1e-12)


def test_autocov_lag_out_of_range():
    panel = PanelSeries.from_values(np.ones((5, 2)) * [[1.0, 2.0]] * 5)
    with pytest.raises(ValueError, match="out of range"):
        autocov(panel, 5)


def test_autocov_lag0_symmetric_psd():
    rng = np.random.default_rng(4)
    panel = PanelSeries.from_values(rng.standard_normal((25, 4)))
    m = autocov(panel, 0)
    np.testing.assert_allclose(m, m.T, atol=1e-12)
    assert np.linalg.eigvalsh(m).min() >= -1e-10


def test_autocov_quadratic_in_scale():
    rng = np.random.default_rng(5)
    values = rng.standard_normal((15, 3))
    for h in (0, 1, 3):
        base = autocov(PanelSeries.from_values(values), h)
        scaled = autocov(PanelSeries.from_values(2.5 * values), h)
        np.testing.assert_allclose(scaled, 2.5**2 * base, rtol=1e-12)


def test_build_gram_hand_example():
    xi = PanelSeries.from_values(np.array([[1.0], [2.0], [3.0]]))
    gram = build_gram(xi, d=1)
    assert gram.N == 2
    np.testing.assert_allclose(gram.Gamma, [[2.5]])
    np.testing.assert_allclose(gram.gamma, [[4.0]])


def test_build_gram_is_psd():
    rng = np.random.default_rng(6)
    gram = build_gram(rng.standard_normal((40, 5)), d=2)
    assert np.linalg.eigvalsh(gram.Gamma).min() >= -1e-10


def test_build_gram_matches_loop_construction():
    rng = np.random.default_rng(7)
    values = rng.standard_normal((30, 4))
    gram = build_gram(values, d=2)
    Gamma, gamma = loop_gram(values, 2)
    np.testing.assert_allclose(gram.Gamma, Gamma, rtol=0, atol=1e-12)
    np.testing.assert_allclose(gram.gamma, gamma, rtol=0, atol=1e-12)


def test_build_gram_top_left_block_equals_autocov_after_divisor_match():
    rng = np.random.default_rng(8)
    values = rng.standard_normal((12, 3))
    gram = build_gram(values, d=1)
    # d = 1: the design is rows 1..n-1, so the divisors already agree
    block = gram.Gamma[:3, :3]
    reference = autocov(PanelSeries.from_values(values[:-1]), 0)
    np.testing.assert_allclose(block, reference, rtol=0, atol=1e-12)


def test_build_gram_shapes_for_d2():
    gram = build_gram(np.random.default_rng(9).standard_normal((20, 3)), d=2)
    assert gram.Gamma.shape == (6, 6)
    assert gram.gamma.shape == (6, 3)
    assert gram.N == 18


def test_build_gram_insufficient_length():
    with pytest.raises(ValueError, match="at least"):
        build_gram(np.ones((3, 2)), d=2)


def test_gram_from_zero_mean_white_noise_approaches_identity():
    # VAR(1) with zero transition and unit innovations: Gamma tends to I
    errs = []
    for n in (200, 2000):
        total = 0.0
        for seed in range(5):
            spec = DgpSpec(n=n, p=6, var_design="none", seed=seed)
            xi = simulate_panel(spec).xi
            gram = build_gram(xi, d=1)
            total += np.max(np.abs(gram.Gamma - np.eye(6)))
        errs.append(total / 5)
    assert errs[1] < errs[0]
    assert errs[1] < 0.15


def test_max_norm_diff_examples():
    a = np.array([[1.0]])
    assert max_norm_diff(a, a) == 0.0
    assert max_norm_diff(a, np.array([[-2.0]])) == 3.0
    with pytest.raises(ValueError, match="shape mismatch"):
        max_norm_diff(np.ones((2, 2)), np.ones((2, 3)))


def test_max_norm_diff_matches_loop():
    rng = np.random.default_rng(10)
    a, b = rng.standard_normal((5, 5)), rng.standard_normal((5, 5))
    assert max_norm_diff(a, b) == loop_max_abs_diff(a, b)


def test_gram_system_validates_shapes_and_symmetry():
    with pytest.raises(ValueError, match="symmetric"):
        GramSystem(
            Gamma=np.array([[1.0, 0.5], [0.0, 1.0]]),
            gamma=np.zeros((2, 2)),
            N=5,
            d=1,
            p=2,
        )
    with pytest.raises(ValueError, match="Gamma must be"):
        GramSystem(Gamma=np.eye(3), gamma=np.zeros((2, 2)), N=5, d=1, p=2)
