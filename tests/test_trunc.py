import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from favar.moments import autocov
from favar.panel import PanelSeries, ScaleVector, mad_scales
from favar.trunc import TauGrid, TruncationRule, build_tau_grid, cv_tau, truncate

from reference_impls import reference_cv_tau_scores


def rule_for(panel, tau):
    return TruncationRule(tau, ScaleVector(np.ones(panel.p)))


def test_truncate_clips_and_keeps_sign():
    panel = PanelSeries.from_values(np.array([[5.0, -5.0], [1.5, -1.5]]))
    out = truncate(panel, rule_for(panel, 2.0))
    np.testing.assert_array_equal(out.values, [[2.0, -2.0], [1.5, -1.5]])


def test_truncate_infinite_tau_is_identity():
    panel = PanelSeries.from_values(np.array([[5.0], [-7.0], [1e9]]))
    out = truncate(panel, rule_for(panel, math.inf))
    np.testing.assert_array_equal(out.values, panel.values)


def test_truncate_scales_thresholds_per_variable():
    panel = PanelSeries.from_values(np.array([[10.0, 10.0], [-10.0, -10.0]]))
    rule = TruncationRule(2.0, ScaleVector(np.array([1.0, 3.0])))
    out = truncate(panel, rule)
    np.testing.assert_array_equal(out.values, [[2.0, 6.0], [-2.0, -6.0]])


finite_panels = hnp.arrays(
    np.float64,
    st.tuples(st.integers(2, 8), st.integers(1, 5)),
    elements=st.floats(-1e6, 1e6, allow_nan=False),
)


@given(finite_panels, st.floats(0.01, 100.0))
@settings(deadline=None, max_examples=100)
def test_truncate_idempotent(values, tau):
    panel = PanelSeries.from_values(values)
    rule = rule_for(panel, tau)
    once = truncate(panel, rule)
    twice = truncate(once, rule)
    np.testing.assert_array_equal(twice.values, once.values)


@given(finite_panels, st.floats(0.01, 50.0), st.floats(1.0, 10.0))
@settings(deadline=None, max_examples=100)
def test_truncate_monotone_in_tau(values, tau, factor):
    panel = PanelSeries.from_values(values)
    small = truncate(panel, rule_for(panel, tau)).values
    large = truncate(panel, rule_for(panel, tau * factor)).values
    assert np.all(np.abs(small) <= np.abs(large) + 1e-15)


def test_tau_grid_endpoints_from_pooled_ratios():
    # pooled |x / sigma| = {1, 1, 3}
    panel = PanelSeries.from_values(np.array([[1.0], [-1.0], [3.0]]))
    grid = build_tau_grid(panel, ScaleVector(np.ones(1)), J=2)
    np.testing.assert_array_equal(grid.values, [1.0, 3.0])


def test_tau_grid_equi_spacing():
    panel = PanelSeries.from_values(np.array([[1.0], [-1.0], [3.0]]))
    grid = build_tau_grid(panel, ScaleVector(np.ones(1)), J=3)
    np.testing.assert_array_equal(grid.values, [1.0, 2.0, 3.0])


def test_tau_grid_degenerate_rejected():
    panel = PanelSeries.from_values(np.array([[2.0, -2.0], [-2.0, 2.0]]))
    with pytest.raises(ValueError, match="equal"):
        build_tau_grid(panel, ScaleVector(np.ones(2)), J=5)


def test_tau_grid_rejects_tiny_J():
    panel = PanelSeries.from_values(np.array([[1.0], [2.0], [3.0]]))
    with pytest.raises(ValueError, match="at least 2"):
        build_tau_grid(panel, ScaleVector(np.ones(1)), J=1)


def test_grid_type_enforces_spacing():
    with pytest.raises(ValueError, match="equi-spaced"):
        TauGrid(np.array([1.0, 2.0, 10.0]))
    with pytest.raises(ValueError, match="increasing"):
        TauGrid(np.array([3.0, 2.0, 1.0]))


def test_cv_tau_inactive_truncation_gives_constant_scores_and_largest_tau():
    rng = np.random.default_rng(0)
    panel = PanelSeries.from_values(rng.uniform(-1.0, 1.0, (40, 3)))
    scales = ScaleVector(np.ones(3))
    # every grid point is above max |x| / sigma, so no clipping ever happens
    grid = TauGrid(np.linspace(5.0, 9.0, 4))
    report = cv_tau(panel, scales, d=1, grid=grid)
    assert np.all(report.scores == report.scores[0])
    assert report.chosen == grid.size - 1
    assert report.tau == 9.0


def test_cv_tau_matches_straight_line_reference():
    rng = np.random.default_rng(42)
    panel = PanelSeries.from_values(rng.standard_normal((50, 4)))
    scales = mad_scales(panel)
    grid = build_tau_grid(panel, scales, J=3)
    report = cv_tau(panel, scales, d=1, grid=grid)
    expected = reference_cv_tau_scores(panel.values, scales.sigma, 1, grid.values)
    np.testing.assert_allclose(report.scores, expected, rtol=0, atol=1e-10)


def test_cv_tau_single_outlier_prefers_interior_tau():
    rng = np.random.default_rng(5)
    values = rng.standard_normal((100, 4))
    values[30, 2] = 1e6
    panel = PanelSeries.from_values(values)
    scales = mad_scales(panel)
    grid = build_tau_grid(panel, scales, J=20)
    report = cv_tau(panel, scales, d=1, grid=grid)
    assert report.chosen < grid.size - 1
    assert report.scores[-1] > report.scores[report.chosen]


def test_cv_tau_no_clipping_at_grid_max_reproduces_plain_moments():
    rng = np.random.default_rng(9)
    panel = PanelSeries.from_values(rng.standard_normal((30, 3)))
    scales = mad_scales(panel)
    grid = build_tau_grid(panel, scales, J=5)
    thr = scales.sigma * grid.values[-1]
    clipped = np.clip(panel.values, -thr, thr)
    np.testing.assert_array_equal(clipped, panel.values)
    for h in (0, 1, 2):
        np.testing.assert_array_equal(
            autocov(clipped[:15], h), autocov(panel.values[:15], h)
        )


def test_cv_tau_column_permutation_invariant():
    rng = np.random.default_rng(11)
    values = rng.standard_normal((60, 4))
    panel = PanelSeries.from_values(values)
    scales = mad_scales(panel)
    grid = build_tau_grid(panel, scales, J=4)
    base = cv_tau(panel, scales, d=1, grid=grid).scores

    perm = [2, 0, 3, 1]
    permuted = PanelSeries.from_values(values[:, perm])
    scales_p = ScaleVector(scales.sigma[perm])
    report_p = cv_tau(permuted, scales_p, d=1, grid=grid)
    np.testing.assert_allclose(report_p.scores, base, rtol=0, atol=1e-12)


def test_cv_tau_fold_too_short():
    panel = PanelSeries.from_values(np.arange(8.0).reshape(4, 2) + [[0.0, 1.0]] * 4)
    scales = ScaleVector(np.ones(2))
    grid = TauGrid(np.array([1.0, 2.0]))
    with pytest.raises(ValueError, match="too short"):
        cv_tau(panel, scales, d=3, grid=grid)


def test_rule_rejects_nonpositive_tau():
    with pytest.raises(ValueError, match="positive"):
        TruncationRule(0.0, ScaleVector(np.ones(2)))
