import functools
import importlib
import math
from pathlib import Path

import numpy as np
import pytest

from favar.moments import build_gram
from favar.panel import PanelSeries
import favar.pipeline
import favar.varlasso
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


@pytest.mark.parametrize("tau", ["cv", math.inf])
def test_moments_that_underflow_to_zero_fail_at_lambda_cv(tau):
    # squares of entries near 1e-170 underflow, so every moment is zero and
    # lambda-CV has no penalty path: it names the cause
    x = simulate_panel(DgpSpec(n=150, p=5, seed=2)).x
    tiny = PanelSeries.from_values(x.values * 1e-170)
    with pytest.raises(StageError, match="^lambda-cv: gamma is zero on the full data and "
                                         "every training fold: the second moments underflow$"):
        fit(tiny, FitOptions(tau=tau))


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


def cv_panel(p, seed):
    spec = DgpSpec(n=120, p=p, var_design="banded", innovation="student_t", nu=2.1,
                   factor_design="var1_factors", r=3, seed=seed)
    return simulate_panel(spec).x


def assert_fit_is_its_refit(result):
    direct = fit_var(result.gram, result.config["lambda"])
    np.testing.assert_array_equal(result.var.A, direct.A)
    np.testing.assert_array_equal(result.var.iterations, direct.iterations)


@pytest.mark.parametrize("p, rides", [(10, True), (30, False), (50, False)])
def test_cross_validated_fit_is_the_refit_at_the_chosen_lambda(p, rides):
    # at p = 10 the full data rides lambda-CV's walk of all five folds; at
    # p = 30 a walk holds four folds, and at p = 50 one, so the full data
    # would walk beside the last fold or alone and is refit
    result = fit(cv_panel(p, 3), FitOptions(r=3, d=1))
    assert (result.lambda_report.full_solutions is not None) == rides
    assert_fit_is_its_refit(result)


@pytest.mark.parametrize("p, lam", [(10, "cv"), (50, "cv"), (10, 0.05)],
                         ids=["ridden", "walked", "fixed"])
def test_the_benchmark_hook_sees_every_final_fit(monkeypatch, p, lam):
    # the benchmark traces the final fit by wrapping pipeline.fit_var with
    # functools.wraps, whether it is read off lambda-CV's walk or walked
    original = favar.pipeline.fit_var
    seen = []

    @functools.wraps(original)
    def wrapped(*args, **kwargs):
        seen.append(original(*args, **kwargs))
        return seen[-1]

    monkeypatch.setattr(favar.pipeline, "fit_var", wrapped)
    result = fit(cv_panel(p, 3), FitOptions(r=3, d=1, lam=lam))
    assert len(seen) == 1 and seen[0] is result.var


def test_ridden_fit_reaches_fit_through_the_report_alone(monkeypatch):
    # the benchmark wraps cv_lambda with functools.wraps, which copies the
    # function's __dict__: a fit handed over through function state would
    # carry one panel's fit into the next
    original = favar.pipeline.cv_lambda

    @functools.wraps(original)
    def wrapped(*args, **kwargs):
        return original(*args, **kwargs)

    monkeypatch.setattr(favar.pipeline, "cv_lambda", wrapped)
    for seed in (1, 2):
        assert_fit_is_its_refit(fit(cv_panel(10, seed), FitOptions(r=3, d=1)))


def test_ridden_fit_must_meet_the_kkt_certificate(monkeypatch):
    original = favar.varlasso._path_at
    walks = []

    def counted(*args, **kwargs):
        walks.append(args[2].size)  # the number of penalties read off the walk
        return original(*args, **kwargs)

    monkeypatch.setattr(favar.varlasso, "_path_at", counted)
    monkeypatch.setattr(favar.varlasso, "_kkt_gaps",
                        lambda grad, B, lam: np.full(B.shape[1], np.inf))
    with pytest.raises(StageError, match="^lasso: .* miss the KKT certificate") as excinfo:
        fit(cv_panel(10, 3), FitOptions(r=3, d=1))
    assert excinfo.value.stage == "lasso"
    assert walks == [50], "a ridden fit walks no second path"


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
