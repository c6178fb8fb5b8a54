import numpy as np
import pytest

from favar.evaluate import (
    CRITICAL_VALUES_FILE,
    MetricReport,
    bartlett_long_run_variance,
    critical_value,
    fluctuation_test,
    matrix_error,
    rme,
)

from reference_impls import loop_max_row_l2


def test_max_row_l2_examples():
    a = np.ones((3, 4))
    assert matrix_error(a, a, "max_row_l2") == 0.0
    b = a.copy()
    b[1, 2] += 3.0
    assert matrix_error(b, a, "max_row_l2") == 3.0


def test_max_row_l2_matches_loop():
    rng = np.random.default_rng(0)
    a, b = rng.standard_normal((4, 8)), rng.standard_normal((4, 8))
    assert matrix_error(a, b, "max_row_l2") == pytest.approx(loop_max_row_l2(a, b), abs=1e-14)


def test_max_row_l2_shape_mismatch():
    with pytest.raises(ValueError, match="shape mismatch"):
        matrix_error(np.ones((2, 2)), np.ones((3, 2)), "max_row_l2")


def test_norm_sandwich_on_random_matrices():
    rng = np.random.default_rng(1)
    for _ in range(20):
        a, b = rng.standard_normal((5, 7)), rng.standard_normal((5, 7))
        low = matrix_error(a, b, "max_elementwise")
        mid = matrix_error(a, b, "max_row_l2")
        high = matrix_error(a, b, "frobenius")
        assert low <= mid + 1e-15
        assert mid <= high + 1e-15


def test_metric_report_aggregates():
    report = MetricReport(metric="max_row_l2", errors=np.array([1.0, 3.0, 2.0, 4.0]))
    assert report.mean == 2.5
    assert report.quantiles[1] == 2.5


def test_rme_identical_streams():
    s = np.array([0.3, 1.2, 0.8])
    assert rme(s, s) == 1.0


def test_rme_ratio_of_sums_not_mean_of_ratios():
    # ratio of sums: (1 + 4) / (2 + 4) = 5/6; a mean of ratios would give 0.75
    assert rme([1.0, 4.0], [2.0, 4.0]) == pytest.approx(5.0 / 6.0)
    assert rme([1.0, 1.0], [2.0, 2.0]) == 0.5


def test_rme_errors():
    with pytest.raises(ValueError, match="equal length"):
        rme([1.0], [1.0, 2.0])
    with pytest.raises(ValueError, match="zero"):
        rme([1.0, 1.0], [0.0, 0.0])


def test_critical_values_table_shipped_and_monotone():
    assert CRITICAL_VALUES_FILE.exists()
    cv_03 = critical_value(0.3)
    assert 2.5 < cv_03 < 3.5
    # larger windows average more, so the critical value falls with mu
    assert critical_value(0.1) > critical_value(0.5) > critical_value(0.9)
    # interpolation between grid points stays between the endpoints
    assert critical_value(0.5) >= critical_value(0.525) >= critical_value(0.55)
    with pytest.raises(ValueError, match="outside"):
        critical_value(0.01)


def test_fluctuation_equal_series_zero_path():
    fe = np.abs(np.random.default_rng(2).standard_normal(100))
    result = fluctuation_test(fe, fe, mu=0.3)
    np.testing.assert_array_equal(result.stats, 0.0)
    assert not result.any_reject
    assert result.m == 30


def test_fluctuation_path_length_and_window():
    rng = np.random.default_rng(3)
    result = fluctuation_test(rng.standard_normal(200), rng.standard_normal(200), mu=0.25)
    assert result.m == 50
    assert result.stats.shape == (200 - 50 + 1,)
    assert result.reject.shape == result.stats.shape


def test_fluctuation_scale_invariance():
    rng = np.random.default_rng(4)
    fe_a = np.abs(rng.standard_normal(300))
    fe_b = np.abs(rng.standard_normal(300))
    base = fluctuation_test(fe_a, fe_b, mu=0.3)
    scaled = fluctuation_test(17.0 * fe_a, 17.0 * fe_b, mu=0.3)
    np.testing.assert_allclose(scaled.stats, base.stats, atol=1e-10)


def test_fluctuation_detects_persistent_gap():
    rng = np.random.default_rng(5)
    fe_b = np.abs(rng.standard_normal(400)) + 1.0
    fe_a = fe_b.copy()
    fe_a[150:300] += 2.0  # method a much worse on a stretch
    result = fluctuation_test(fe_a, fe_b, mu=0.3)
    assert result.any_reject
    assert result.stats.max() > result.critical_value


def test_fluctuation_constant_nonzero_differential_rejected():
    fe_a = np.full(100, 2.0)
    fe_b = np.full(100, 1.0)
    with pytest.raises(ValueError, match="not positive"):
        fluctuation_test(fe_a, fe_b, mu=0.3)


def test_fluctuation_length_checks():
    with pytest.raises(ValueError, match="too short"):
        fluctuation_test(np.ones(5), np.zeros(5), mu=0.3)
    with pytest.raises(ValueError, match="mu"):
        fluctuation_test(np.ones(100), np.zeros(100), mu=1.2)


def test_long_run_variance_iid_near_one():
    rng = np.random.default_rng(6)
    values = [bartlett_long_run_variance(rng.standard_normal(4000)) for _ in range(10)]
    assert 0.9 < np.mean(values) < 1.1


def test_fluctuation_moderate_size_check():
    # a cheap 100-trial version of the full size study in the acceptance suite
    rng = np.random.default_rng(7)
    rejections = 0
    for _ in range(100):
        delta = rng.standard_normal(500)
        result = fluctuation_test(delta, np.zeros(500), mu=0.3)
        rejections += result.any_reject
    assert rejections <= 15
