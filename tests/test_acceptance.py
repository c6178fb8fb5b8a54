"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with  pytest tests/test_acceptance.py -v -s  to see the per-criterion
lines as they complete. The table-reproduction test is the long one (several
minutes); everything else is fast.
"""

import math
import time

import numpy as np
import pytest

import favar.evaluate as ev
from favar.cli import ExperimentConfig, main, run_experiment
from favar.factors import fit_factors, project_common
from favar.forecast import ForecastOptions, rolling_forecast
from favar.moments import build_gram
from favar.panel import PanelSeries, ScaleVector, mad_scales
from favar.pipeline import FitOptions, fit
from favar.simulate import DgpSpec, make_A, simulate_panel, spectral_radius, stability_gate
from favar.trunc import TruncationRule, build_tau_grid, cv_tau, truncate
from favar.varlasso import fit_var, kkt_gap

from reference_impls import (
    lasso_objective,
    proximal_gradient_lasso,
    reference_cv_tau_scores,
)


def announce(number, message):
    print(f"\n[criterion {number}] PASS: {message}")


def test_criterion_01_lasso_oracle_equivalence():
    start = time.time()
    tol = 1e-9
    rng_master = np.random.default_rng(314)
    for instance in range(20):
        p = int(rng_master.integers(3, 7))
        d = int(rng_master.integers(1, 4))
        if p * d > 20:
            d = max(1, 20 // p)
        n = 30 * p * d
        data = np.random.default_rng(1000 + instance).standard_normal((n, p))
        gram = build_gram(data, d)
        assert np.linalg.eigvalsh(gram.Gamma).min() > 1e-3  # strictly PD instance
        j = instance % p
        scale = np.max(np.abs(gram.gamma[:, j]))
        # unpenalised: must match the dense linear solve
        beta0 = fit_var(gram, 0.0).A[j]
        direct = np.linalg.solve(gram.Gamma, gram.gamma[:, j])
        assert np.max(np.abs(beta0 - direct)) < 1e-6
        # penalised: objective agrees with an independent proximal-gradient run
        lam = 0.05 * (1 + instance % 3)
        beta = fit_var(gram, lam).A[j]
        reference = proximal_gradient_lasso(gram.Gamma, gram.gamma[:, j], lam)
        ours = lasso_objective(gram.Gamma, gram.gamma[:, j], beta, lam)
        theirs = lasso_objective(gram.Gamma, gram.gamma[:, j], reference, lam)
        assert abs(ours - theirs) < 1e-8
        # the KKT conditions to 10 * tol, absolute and as a certificate
        # relative to the row's largest |gamma_j|
        for b, penalty in ((beta, lam), (beta0, 0.0)):
            gap = kkt_gap(gram.Gamma, gram.gamma[:, j], b, penalty)
            assert gap <= 10 * tol and gap <= 10 * tol * scale
    elapsed = time.time() - start
    assert elapsed < 10.0
    announce(1, f"lasso matches dense solve and proximal-gradient oracle ({elapsed:.1f}s)")


def test_criterion_02_truncation_cv_correctness():
    rng = np.random.default_rng(42)
    panel = PanelSeries.from_values(rng.standard_normal((50, 4)))
    scales = mad_scales(panel)
    grid = build_tau_grid(panel, scales, J=3)
    report = cv_tau(panel, scales, d=1, grid=grid)
    expected = reference_cv_tau_scores(panel.values, scales.sigma, 1, grid.values)
    np.testing.assert_allclose(report.scores, expected, rtol=0, atol=1e-10)

    # 1000 random cases: 500 idempotence checks and 500 monotonicity checks
    case_rng = np.random.default_rng(7)
    for _ in range(500):
        n = int(case_rng.integers(2, 12))
        p = int(case_rng.integers(1, 6))
        values = case_rng.standard_normal((n, p)) * 10.0 ** case_rng.integers(-2, 3)
        tau = float(case_rng.uniform(0.05, 5.0))
        x = PanelSeries.from_values(values)
        rule = TruncationRule(tau, ScaleVector(np.abs(case_rng.standard_normal(p)) + 0.1))
        once = truncate(x, rule)
        np.testing.assert_array_equal(truncate(once, rule).values, once.values)
    for _ in range(500):
        n = int(case_rng.integers(2, 12))
        p = int(case_rng.integers(1, 6))
        values = case_rng.standard_normal((n, p)) * 10.0 ** case_rng.integers(-2, 3)
        x = PanelSeries.from_values(values)
        scales_r = ScaleVector(np.abs(case_rng.standard_normal(p)) + 0.1)
        tau_small = float(case_rng.uniform(0.05, 2.0))
        tau_large = tau_small * float(case_rng.uniform(1.0, 8.0))
        small = truncate(x, TruncationRule(tau_small, scales_r)).values
        large = truncate(x, TruncationRule(tau_large, scales_r)).values
        assert np.all(np.abs(small) <= np.abs(large) + 1e-15)
    announce(2, "cv scores match the straight-line oracle; 1000 property cases hold")


def test_criterion_03_factor_invariants_and_eigen_growth():
    rng = np.random.default_rng(11)
    for _ in range(50):
        n = int(rng.integers(20, 80))
        p = int(rng.integers(4, 12))
        r = int(rng.integers(1, min(4, p)))
        panel = PanelSeries.from_values(rng.standard_normal((n, p)))
        f = fit_factors(panel, r)
        np.testing.assert_allclose(f.eigvecs.T @ f.eigvecs, np.eye(r), atol=1e-10)
        off = f.loadings.T @ f.loadings - np.diag(f.eigvals)
        assert np.max(np.abs(off)) <= 1e-8 * np.trace(np.diag(f.eigvals))
        np.testing.assert_array_equal(f.idio, panel.values - f.common)
        ulp = np.finfo(float).eps * np.max(np.abs(panel.values))
        np.testing.assert_allclose(f.common + f.idio, panel.values, rtol=0, atol=2 * ulp)
        x_new = rng.standard_normal(p)
        common, idio = project_common(f, x_new)
        again, _ = project_common(f, common)
        np.testing.assert_allclose(again, common, atol=1e-10)
        pythag = np.linalg.norm(common) ** 2 + np.linalg.norm(idio) ** 2
        assert abs(pythag - np.linalg.norm(x_new) ** 2) < 1e-10

    # leading eigenvalues grow linearly with the cross-section size
    means = {}
    for p in (25, 50, 100):
        tops = []
        for seed in range(5):
            spec = DgpSpec(
                n=500, p=p, var_design="banded", factor_design="var1_factors", r=3,
                seed=seed,
            )
            x = simulate_panel(spec).x
            eigvals = np.linalg.eigvalsh(x.values.T @ x.values / x.n)
            tops.append(np.mean(eigvals[-3:]))
        means[p] = float(np.mean(tops))
    for small, large in ((25, 50), (50, 100)):
        ratio = means[large] / means[small]
        assert 2.0 / 1.5 <= ratio <= 2.0 * 1.5
    announce(3, f"invariants hold on 50 panels; eigenvalue growth ratios "
                f"{means[50] / means[25]:.2f}, {means[100] / means[50]:.2f}")


@pytest.mark.slow
def test_criterion_04_scaled_table_reproduction(tmp_path):
    start = time.time()
    cells = {
        "student_t": (0.30, 0.65),
        "gaussian": (0.90, 1.15),
    }
    ratios = {}
    for law in cells:
        dgp = DgpSpec(
            n=100, p=50, var_design="banded", innovation=law, nu=2.1,
            factor_design="none", seed=0,
        )
        cfg = ExperimentConfig(
            dgp=dgp,
            reps=50,
            seed=2024,
            d=1,
            norms=("max_elementwise",),
            n_lambda=50,
            n_folds=5,
            out=tmp_path / law,
        )
        ratios[law] = run_experiment(cfg)["max_elementwise"].ratio
    elapsed = time.time() - start
    print(
        f"\n[criterion 4] measured RME(max): t2.1 = {ratios['student_t']:.3f} "
        f"(band [0.30, 0.65]), normal = {ratios['gaussian']:.3f} "
        f"(band [0.90, 1.15]); {elapsed / 60:.1f} min"
    )
    assert elapsed < 1200.0
    for law, (lo, hi) in cells.items():
        assert lo <= ratios[law] <= hi, (
            f"{law}: RME {ratios[law]:.3f} outside [{lo}, {hi}]"
        )
    announce(4, f"RME(max) t2.1 = {ratios['student_t']:.3f}, "
                f"normal = {ratios['gaussian']:.3f} ({elapsed / 60:.1f} min)")


@pytest.mark.slow
def test_criterion_05_heavy_tail_dominance():
    wins = 0
    for seed in range(20):
        spec = DgpSpec(
            n=200, p=50, var_design="banded", innovation="student_t", nu=2.1,
            factor_design="var1_factors", r=3, seed=100 + seed,
        )
        panel = simulate_panel(spec)
        base = dict(r=3, d=1, lam="cv", n_lambda=30, n_folds=5)
        fit_trunc = fit(panel.x, FitOptions(tau="cv", **base))
        fit_plain = fit(panel.x, FitOptions(tau=math.inf, **base))
        err_trunc = ev.matrix_error(fit_trunc.var.A, panel.A, "max_row_l2")
        err_plain = ev.matrix_error(fit_plain.var.A, panel.A, "max_row_l2")
        wins += err_trunc < err_plain
    assert wins >= 16
    announce(5, f"truncated fit beats untruncated in {wins}/20 heavy-tail pairs")


def test_criterion_06_simulation_moment_checks():
    from favar.simulate import draw_innovations

    t3 = draw_innovations("student_t", 100_000, 10, seed=1, nu=3.0)
    assert 0.97 <= t3.var() <= 1.03
    logn = draw_innovations("lognormal", 100_000, 10, seed=1)
    assert 0.97 <= logn.var() <= 1.03
    assert abs(logn.mean()) <= 0.01
    for design in ("banded", "erdos_renyi", "none"):
        for p in (10, 50, 100):
            for seed in range(3):
                A = make_A(design, p, seed)
                stability_gate(A)
                assert spectral_radius(A) < 1.0
    announce(6, "innovation moments normalised; every design passes the stability gate")


def test_criterion_07_forecast_causality_and_reduction():
    rng = np.random.default_rng(21)
    values = rng.standard_normal((60, 4))
    opts = ForecastOptions(window=40, horizon=1, d=1, r=1, tau="cv",
                           tau_grid_size=10, lam=0.05)
    base = rolling_forecast(PanelSeries.from_values(values), opts)
    bumped = values.copy()
    bumped[45] += 40.0
    run = rolling_forecast(PanelSeries.from_values(bumped), opts)
    for pos, origin in enumerate(base.origins):
        if origin < 45:
            match = int(np.flatnonzero(run.origins == origin)[0])
            np.testing.assert_array_equal(run.forecasts[match], base.forecasts[pos])

    # r = 0, tau = inf, d = 1, h = 1 collapses to the textbook VAR forecast
    panel = PanelSeries.from_values(rng.standard_normal((80, 5)))
    fc = rolling_forecast(
        panel, ForecastOptions(window=79, horizon=1, d=1, r=0, tau=math.inf, lam=0.02)
    )
    window_fit = fit(
        PanelSeries.from_values(panel.values[:79]),
        FitOptions(r=0, d=1, tau=math.inf, lam=0.02),
    )
    expected = window_fit.var.A_blocks[0] @ panel.values[78]
    np.testing.assert_allclose(fc.forecasts[0], expected, atol=1e-10)
    announce(7, "post-origin perturbations never leak; one-step VAR reduction exact")


def test_criterion_08_fluctuation_test_size():
    rng = np.random.default_rng(33)
    rejections = 0
    trials = 500
    for _ in range(trials):
        delta = rng.standard_normal(500)
        result = ev.fluctuation_test(delta, np.zeros(500), mu=0.3)
        rejections += result.any_reject
    rate = rejections / trials
    assert rate <= 0.10
    announce(8, f"family-wise rejection rate {rate:.3f} under the null (limit 0.10)")


def test_criterion_09_cli_determinism(tmp_path):
    dgp_file = tmp_path / "dgp.txt"
    dgp_file.write_text(
        "n = 80\np = 6\nvar_design = banded\ninnovation = student_t\nnu = 2.1\n"
        "factor_design = none\nburn_in = 200\n"
    )
    outs = []
    for tag in ("one", "two"):
        out = tmp_path / tag
        assert main(["simulate", "--dgp", str(dgp_file), "--reps", "3", "--seed", "5",
                     "--out", str(out)]) == 0
        outs.append(out)
    for rep in range(3):
        for name in ("x.csv", "truth_A.csv", "truth_xi.csv"):
            a = (outs[0] / f"rep_{rep:04d}" / name).read_bytes()
            b = (outs[1] / f"rep_{rep:04d}" / name).read_bytes()
            assert a == b

    # replication sweeps are thread-count invariant, numeric file for file
    dgp = DgpSpec(n=60, p=6, var_design="banded", innovation="gaussian",
                  factor_design="none", burn_in=200, seed=0)
    results = {}
    for threads in (1, 3):
        out = tmp_path / f"threads_{threads}"
        cfg = ExperimentConfig(
            dgp=dgp, reps=4, seed=9, d=1, norms=("max_elementwise",),
            n_lambda=8, n_folds=3, tau_grid_size=10, threads=threads, out=out,
        )
        run_experiment(cfg)
        results[threads] = {
            p.name: p.read_bytes()
            for p in sorted(out.rglob("*"))
            if p.is_file() and p.name != "manifest.json"
        }
    assert results[1] == results[3]
    announce(9, "byte-identical outputs across repeats and thread counts")
