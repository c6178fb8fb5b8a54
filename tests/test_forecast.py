import math

import numpy as np
import pytest

from favar.factors import fit_factors, project_common
from favar.forecast import (
    ForecastOptions,
    align_origins,
    forecast_common,
    forecast_idio,
    rolling_forecast,
)
from favar.moments import build_gram
from favar.panel import PanelSeries
from favar.varlasso import fit_var


def test_horizon_zero_reduces_to_projection():
    rng = np.random.default_rng(0)
    panel = PanelSeries.from_values(rng.standard_normal((80, 6)))
    fitted = fit_factors(panel, r=2)
    prediction = forecast_common(fitted.eigvecs, fitted.eigvals, panel.values, h=0)
    projected, _ = project_common(fitted, panel.values[-1])
    np.testing.assert_allclose(prediction, projected, atol=1e-10)


def test_rank_one_ar_factor_best_linear_predictor():
    # noiseless single-factor data with an AR(1) factor: the h=1 predictor
    # must recover phi * chi_t up to sampling error in the autocovariances
    rng = np.random.default_rng(1)
    phi = 0.8
    T = 500
    f = np.empty(T + 200)
    f[0] = rng.standard_normal()
    shocks = rng.standard_normal(T + 200)
    for t in range(1, T + 200):
        f[t] = phi * f[t - 1] + shocks[t]
    f = f[200:]
    v = rng.standard_normal(5)
    v /= np.linalg.norm(v)
    values = np.outer(f, v)
    panel = PanelSeries.from_values(values)
    fitted = fit_factors(panel, r=1)
    prediction = forecast_common(fitted.eigvecs, fitted.eigvals, panel.values, h=1)
    target = phi * values[-1]
    assert np.linalg.norm(prediction - target) <= 0.02 * np.linalg.norm(target)


def test_zero_window_gives_zero_forecast():
    window = np.zeros((50, 4))
    E = np.eye(4)[:, :2]
    prediction = forecast_common(E, np.ones(2), window, h=1)
    np.testing.assert_array_equal(prediction, np.zeros(4))


def test_forecast_common_rejects_singular_eigenvalues():
    with pytest.raises(ValueError, match="singular"):
        forecast_common(np.eye(3)[:, :1], np.zeros(1), np.zeros((10, 3)), h=1)


def test_forecast_idio_zero_transition():
    gram = build_gram(np.random.default_rng(1).standard_normal((30, 3)), 1)
    var = fit_var(gram, 1e9)  # forces the zero matrix
    out = forecast_idio(var, np.ones((1, 3)), h=3)
    np.testing.assert_array_equal(out, np.zeros(3))


def test_forecast_idio_two_steps_is_squared_matrix():
    rng = np.random.default_rng(2)
    gram = build_gram(rng.standard_normal((200, 3)), 1)
    var = fit_var(gram, 0.01)
    xi_t = rng.standard_normal(3)
    out = forecast_idio(var, xi_t[None, :], h=2)
    expected = var.A_blocks[0] @ (var.A_blocks[0] @ xi_t)
    np.testing.assert_allclose(out, expected, atol=1e-12)


def test_forecast_idio_matches_hand_unrolled_var2():
    rng = np.random.default_rng(3)
    gram = build_gram(rng.standard_normal((300, 2)), 2)
    var = fit_var(gram, 0.005)
    A1, A2 = var.A_blocks
    xi_prev, xi_t = rng.standard_normal(2), rng.standard_normal(2)
    # hand-unrolled three-step recursion
    f1 = A1 @ xi_t + A2 @ xi_prev
    f2 = A1 @ f1 + A2 @ xi_t
    f3 = A1 @ f2 + A2 @ f1
    out = forecast_idio(var, np.vstack([xi_prev, xi_t]), h=3)
    np.testing.assert_allclose(out, f3, atol=1e-12)


def test_forecast_idio_needs_enough_lags():
    gram = build_gram(np.random.default_rng(4).standard_normal((50, 3)), 2)
    var = fit_var(gram, 0.1)
    with pytest.raises(ValueError, match="residual rows"):
        forecast_idio(var, np.ones((1, 3)), h=1)


@pytest.mark.parametrize(
    "bad, message",
    [({"tau": "bogus"}, "tau"), ({"lam": -0.5}, "lambda"), ({"r": -2}, "r must"),
     ({"d": 0}, "order")],
    ids=["tau", "lam", "r", "d"],
)
def test_forecast_options_validate_fit_settings(bad, message):
    with pytest.raises(ValueError, match=message):
        ForecastOptions(**bad)


def test_rolling_forecast_single_origin_at_boundary():
    rng = np.random.default_rng(5)
    panel = PanelSeries.from_values(rng.standard_normal((41, 3)))
    opts = ForecastOptions(window=40, horizon=1, d=1, r=0, tau=math.inf, lam=0.1)
    run = rolling_forecast(panel, opts)
    assert run.origins.tolist() == [39]
    np.testing.assert_array_equal(run.realized[0], panel.values[40])


def test_origins_are_read_only_row_indices():
    rng = np.random.default_rng(5)
    panel = PanelSeries.from_values(rng.standard_normal((44, 3)))
    opts = ForecastOptions(window=40, horizon=1, d=1, r=0, tau=math.inf, lam=0.1)
    run = rolling_forecast(panel, opts)
    assert run.origins.dtype.kind == "i"
    assert not run.origins.flags.writeable
    np.testing.assert_array_equal(panel.values[run.origins + 1], run.realized)


def test_combined_forecast_identity_per_origin():
    rng = np.random.default_rng(11)
    panel = PanelSeries.from_values(rng.standard_normal((55, 4)))
    opts = ForecastOptions(window=45, horizon=2, d=1, r=2, tau="cv",
                           tau_grid_size=10, lam=0.05)
    run = rolling_forecast(panel, opts)
    assert run.origins.size > 0
    np.testing.assert_array_equal(run.forecasts, run.common_part + run.idio_part)


def test_rolling_forecast_white_noise_predictions_near_zero():
    rng = np.random.default_rng(6)
    panel = PanelSeries.from_values(rng.standard_normal((220, 10)))
    opts = ForecastOptions(
        window=200, horizon=1, d=1, r=0, tau=math.inf, lam="cv", n_lambda=20, n_folds=4
    )
    run = rolling_forecast(panel, opts)
    assert run.origins.size == 20
    assert np.mean(np.abs(run.forecasts)) < 0.1


def test_rolling_forecast_strict_causality():
    rng = np.random.default_rng(7)
    values = rng.standard_normal((60, 4))
    opts = ForecastOptions(window=40, horizon=1, d=1, r=1, tau="cv",
                           tau_grid_size=10, lam=0.05)
    base = rolling_forecast(PanelSeries.from_values(values), opts)
    bumped = values.copy()
    bumped[45] += 25.0  # dated after origins 39..44
    run = rolling_forecast(PanelSeries.from_values(bumped), opts)
    for pos, origin in enumerate(base.origins):
        if origin < 45:
            match = np.flatnonzero(run.origins == origin)
            np.testing.assert_array_equal(
                run.forecasts[match[0]], base.forecasts[pos]
            )
    # origins at or past the bump see different windows and move
    assert not np.array_equal(
        run.forecasts[run.origins >= 45], base.forecasts[base.origins >= 45]
    )


def test_paired_runs_align_on_identical_origins():
    rng = np.random.default_rng(8)
    draws = rng.standard_t(2.1, (70, 4)) / math.sqrt(2.1 / 0.1)
    panel = PanelSeries.from_values(draws)
    common = dict(window=50, horizon=1, d=1, r=0, lam=0.1, tau_grid_size=15)
    run_trunc = rolling_forecast(panel, ForecastOptions(tau="cv", **common))
    run_plain = rolling_forecast(panel, ForecastOptions(tau=math.inf, **common))
    ia, ib = align_origins(run_trunc, run_plain)
    np.testing.assert_array_equal(run_trunc.origins[ia], run_plain.origins[ib])
    assert ia.size == run_trunc.origins.size == run_plain.origins.size
    assert run_trunc.errors().shape == (ia.size, 4)


def test_one_step_var_reduction_matches_textbook_forecast():
    rng = np.random.default_rng(9)
    values = rng.standard_normal((80, 5))
    panel = PanelSeries.from_values(values)
    opts = ForecastOptions(window=79, horizon=1, d=1, r=0, tau=math.inf, lam=0.02)
    run = rolling_forecast(panel, opts)
    from favar.pipeline import FitOptions, fit as fit_pipeline

    window_fit = fit_pipeline(
        PanelSeries.from_values(values[:79]), FitOptions(r=0, d=1, tau=math.inf, lam=0.02)
    )
    expected = window_fit.var.A_blocks[0] @ values[78]
    np.testing.assert_allclose(run.forecasts[0], expected, atol=1e-10)
