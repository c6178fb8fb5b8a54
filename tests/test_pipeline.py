import importlib
import math
from pathlib import Path

import numpy as np
import pytest

from favar.moments import build_gram
from favar.panel import PanelSeries
from favar.pipeline import FitOptions, StageError, fit, refit_options
from favar.simulate import DgpSpec, simulate_panel
from favar.varlasso import fit_var


def noise_panel(seed, n=120, p=6):
    rng = np.random.default_rng(seed)
    return PanelSeries.from_values(rng.standard_normal((n, p)))


def test_no_factors_no_truncation_reduces_to_plain_lasso_var():
    panel = noise_panel(0)
    result = fit(panel, FitOptions(r=0, d=1, tau=math.inf, lam=0.1))
    direct = fit_var(build_gram(panel.values, 1), 0.1)
    np.testing.assert_array_equal(result.var.A, direct.A)
    assert result.factors is None
    assert result.config["tau_source"] == "none"


def test_config_snapshot_replays_identically():
    spec = DgpSpec(n=150, p=8, var_design="banded", factor_design="var1_factors", r=2, seed=1)
    panel = simulate_panel(spec)
    first = fit(panel.x, FitOptions(r=2, d=1, tau="cv", lam="cv", n_lambda=20, n_folds=4))
    replay = fit(panel.x, refit_options(first.config))
    np.testing.assert_array_equal(replay.var.A, first.var.A)
    np.testing.assert_array_equal(replay.factors.loadings, first.factors.loadings)
    assert replay.config["tau"] == first.config["tau"]
    assert replay.config["lambda"] == first.config["lambda"]


def test_fixed_tau_equal_to_cv_choice_reproduces_downstream():
    panel = noise_panel(2)
    via_cv = fit(panel, FitOptions(r=0, d=1, tau="cv", lam=0.2))
    pinned = fit(panel, FitOptions(r=0, d=1, tau=via_cv.config["tau"], lam=0.2))
    np.testing.assert_array_equal(pinned.var.A, via_cv.var.A)
    np.testing.assert_array_equal(pinned.gram.Gamma, via_cv.gram.Gamma)


def test_fit_is_deterministic():
    panel = noise_panel(3)
    opts = FitOptions(r=0, d=2, tau="cv", lam="cv", n_lambda=15, n_folds=3)
    a, b = fit(panel, opts), fit(panel, opts)
    np.testing.assert_array_equal(a.var.A, b.var.A)
    assert a.config == b.config


def test_stage_errors_carry_stage_names():
    constant = PanelSeries.from_values(
        np.column_stack([np.ones(30), np.random.default_rng(0).standard_normal(30)])
    )
    with pytest.raises(StageError, match="^scales:") as excinfo:
        fit(constant, FitOptions(r=0, d=1))
    assert excinfo.value.stage == "scales"


def test_auto_factor_number_flows_through():
    spec = DgpSpec(n=200, p=40, var_design="none", factor_design="var1_factors", r=3, seed=4)
    panel = simulate_panel(spec)
    result = fit(panel.x, FitOptions(r="auto", r_max=6, d=1, tau=math.inf, lam=0.1))
    assert result.r == 3
    assert result.factors is not None


def test_auto_factor_number_defaults_its_maximum_to_the_panel():
    # the largest r_max select_r accepts on a p = 10 panel is 5, below 8
    spec = DgpSpec(n=120, p=10, var_design="none", factor_design="var1_factors", r=2, seed=4)
    result = fit(simulate_panel(spec).x, FitOptions(r="auto", d=1, tau=math.inf, lam=0.1))
    assert 0 <= result.r <= 5
    with pytest.raises(StageError, match="r_max=8 outside 1..min"):
        fit(simulate_panel(spec).x, FitOptions(r="auto", r_max=8, tau=math.inf, lam=0.1))


def test_r0_idio_is_truncated_data():
    panel = noise_panel(5)
    result = fit(panel, FitOptions(r=0, d=1, tau=2.0, lam=0.3))
    assert result.factors is None
    assert result.idio is None
    # the gram was built from the truncated panel itself
    thr = result.rule.thresholds
    clipped = np.clip(panel.values, -thr, thr)
    expected = build_gram(clipped, 1)
    np.testing.assert_array_equal(result.gram.Gamma, expected.Gamma)


def test_options_validation():
    with pytest.raises(ValueError, match="order"):
        FitOptions(d=0)
    with pytest.raises(ValueError, match="auto"):
        FitOptions(r="many")
    with pytest.raises(ValueError, match="tau"):
        FitOptions(tau=-1.0)
    with pytest.raises(ValueError, match="lam"):
        FitOptions(lam="bogus")


@pytest.mark.parametrize("field", ["tau_grid_size", "n_folds"])
def test_options_refuse_cv_sizes_below_two(field):
    FitOptions(**{field: 2})
    with pytest.raises(ValueError, match=f"^{field} must be at least 2, got 1$"):
        FitOptions(**{field: 1})


@pytest.mark.slow
def test_factor_var_gaussian_coefficient_error_is_controlled():
    hits = 0
    for seed in range(20):
        spec = DgpSpec(
            n=200, p=50, var_design="banded", factor_design="var1_factors", r=3, seed=seed
        )
        panel = simulate_panel(spec)
        result = fit(panel.x, FitOptions(r=3, d=1, tau="cv", lam="cv", n_lambda=30, n_folds=5))
        err = float(np.max(np.sqrt(np.sum((result.var.A - panel.A) ** 2, axis=1))))
        hits += err < 1.0
    assert hits >= 18


def test_fit_is_invariant_to_rescaling_the_panel():
    # tau sits on the MAD scale, the lambda grid on the path head and the
    # lasso certificate on max |gamma|, so no choice depends on the units
    spec = DgpSpec(n=200, p=20, var_design="banded", innovation="student_t", nu=2.1,
                   factor_design="var1_factors", r=3, seed=3)
    x = simulate_panel(spec).x
    opts = FitOptions(r="auto", d=1)
    base = fit(x, opts)
    for c in (1e-3, 1e3):
        scaled = fit(PanelSeries.from_values(c * x.values), opts)
        assert scaled.r == base.r
        assert scaled.tau_report.chosen == base.tau_report.chosen
        assert scaled.lambda_report.chosen == base.lambda_report.chosen
        np.testing.assert_allclose(scaled.var.A, base.var.A, rtol=0, atol=1e-10)


def test_every_call_the_benchmark_traces_resolves(monkeypatch):
    # the benchmark traces favar by wrapping these (module, attribute) pairs
    # from outside, so a name a refactor drops breaks its trace
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "favarbench"))
    import favar
    layers = importlib.import_module("layers")
    targets = layers.patch_targets(favar)
    assert targets
    for module, attr in targets:
        assert callable(getattr(module, attr, None)), f"{module.__name__}.{attr}"
