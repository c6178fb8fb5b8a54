"""Each check passes on the program's real output and fails on a tampered copy.

Run from the root of the repository:

    python3 -m unittest discover -s favarbench -p "test_*.py"
"""

from __future__ import annotations

import json
import sys
import tempfile
import unittest
from dataclasses import replace
from pathlib import Path

import numpy as np

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR.parent / "src"))

import favar  # noqa: E402
import favar.cli  # noqa: E402
from favar._rng import derive_seed  # noqa: E402

import checks  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def small_panel(seed=3, n=80, p=6, r=1, innovation="student_t"):
    spec = favar.DgpSpec(n=n, p=p, innovation=innovation, nu=2.5,
                         factor_design="var1_factors", r=r, seed=seed)
    return favar.simulate_panel(spec)


class FitChecks(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.panel = small_panel()
        cls.x = cls.panel.x.values
        cls.fit = favar.fit(cls.panel.x, favar.FitOptions(r=1, d=1, n_lambda=15))

    def test_real_fit_passes_every_check(self):
        self.assertEqual(workloads.fit_checks(self.fit, self.x), [])

    def test_perturbed_coefficient_breaks_kkt(self):
        cfg = self.fit.config
        A = self.fit.var.A.copy()
        A[0, 0] += 1e-3
        self.assertTrue(checks.check_kkt(self.fit.factors.idio, 1, A, cfg["lambda"], cfg["tol"]))
        self.assertFalse(checks.check_kkt(self.fit.factors.idio, 1, self.fit.var.A,
                                          cfg["lambda"], cfg["tol"]))

    def test_kkt_uses_the_given_series(self):
        cfg = self.fit.config
        other = self.fit.factors.idio * 1.01
        self.assertTrue(checks.check_kkt(other, 1, self.fit.var.A, cfg["lambda"], cfg["tol"]))

    def test_lambda_choice_must_be_first_minimiser(self):
        rep = self.fit.lambda_report
        lam = self.fit.config["lambda"]
        self.assertEqual(checks.check_lambda_choice(rep.fold_scores, rep.grid, rep.chosen, lam), [])
        later = rep.chosen + 1
        scores, grid = rep.fold_scores, rep.grid
        self.assertTrue(checks.check_lambda_choice(scores, grid, later, grid[later]))
        self.assertTrue(checks.check_lambda_choice(scores, grid, rep.chosen, lam * 1.01))
        tied = np.array([[2.0, 1.0, 1.0, 3.0]])
        grid = np.array([4.0, 3.0, 2.0, 1.0])
        self.assertEqual(checks.check_lambda_choice(tied, grid, 1, 3.0), [])
        self.assertTrue(checks.check_lambda_choice(tied, grid, 2, 2.0))

    def test_tau_choice_must_be_largest_minimiser(self):
        rep = self.fit.tau_report
        tau = self.fit.config["tau"]
        self.assertEqual(checks.check_tau_choice(rep.scores, rep.grid.values, rep.chosen, tau), [])
        scores, grid = np.array([3.0, 1.0, 1.0, 2.0]), np.array([1.0, 2.0, 3.0, 4.0])
        self.assertEqual(checks.check_tau_choice(scores, grid, 2, 3.0), [])
        self.assertTrue(checks.check_tau_choice(scores, grid, 1, 2.0))
        self.assertTrue(checks.check_tau_choice(scores, grid, 2, 2.5))

    def test_split_must_rebuild_the_clipped_panel(self):
        f, tau = self.fit.factors, self.fit.config["tau"]
        self.assertEqual(checks.check_split(self.x, tau, f.common, f.idio, f.eigvecs), [])
        idio = f.idio.copy()
        idio[5, 2] += 1e-6
        self.assertTrue(checks.check_split(self.x, tau, f.common, idio, f.eigvecs))
        self.assertTrue(checks.check_split(self.x, tau * 1.1, f.common, f.idio, f.eigvecs))
        self.assertTrue(checks.check_split(self.x, tau, f.common, f.idio, f.eigvecs * 1.01))

    def test_coefficient_error_must_beat_zero(self):
        A = np.zeros((6, 6))
        A[:, :] = self.panel.A
        err = checks.max_row_l2(self.fit.var.A, A)
        zero = checks.max_row_l2(np.zeros_like(A), A)
        self.assertEqual(checks.check_beats_zero([err], [zero], "coef_err"), [])
        self.assertTrue(checks.check_beats_zero([zero], [zero], "coef_err"))
        self.assertTrue(checks.check_beats_zero([2 * zero], [zero], "coef_err"))


class ForecastChecks(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.x = small_panel(seed=5, n=43, p=5).x
        cls.opts = favar.ForecastOptions(window=40, horizon=1, r=1, n_lambda=10)
        cls.fc = favar.rolling_forecast(cls.x, cls.opts)

    def test_real_run_passes(self):
        self.assertEqual(self.fc.origins.size, 3)
        self.assertEqual(checks.check_forecast(self.fc, self.x.values, 40, 1), [])

    def test_missing_or_skipped_origin_fails(self):
        run = self.fc
        dropped = replace(run, origins=run.origins[1:], forecasts=run.forecasts[1:],
                          common_part=run.common_part[1:], idio_part=run.idio_part[1:],
                          realized=run.realized[1:], taus=run.taus[1:],
                          skipped=((int(run.origins[0]), "stage failed"),))
        problems = checks.check_forecast(dropped, self.x.values, 40, 1)
        self.assertEqual(len(problems), 2)

    def test_forecast_must_be_common_plus_idio(self):
        bad = self.fc.forecasts.copy()
        bad[1, 3] += 1e-6
        bad_run = replace(self.fc, forecasts=bad)
        self.assertTrue(checks.check_forecast(bad_run, self.x.values, 40, 1))

    def test_realised_values_must_align(self):
        shifted = replace(self.fc, realized=self.x.values[self.fc.origins.astype(int)])
        self.assertTrue(checks.check_forecast(shifted, self.x.values, 40, 1))


class ReplicationChecks(unittest.TestCase):
    def setUp(self):
        self.tmp = tempfile.TemporaryDirectory()
        dgp = favar.DgpSpec(n=40, p=4, innovation="student_t", nu=2.1)
        self.cfg = favar.cli.ExperimentConfig(dgp=dgp, reps=2, seed=77, n_lambda=10,
                                              threads=1, out=Path(self.tmp.name))
        reports = favar.cli.run_experiment(self.cfg)
        self.ratios = {norm: rep.ratio for norm, rep in reports.items()}

    def tearDown(self):
        self.tmp.cleanup()

    def rep_file(self, i):
        return Path(self.tmp.name) / "replications" / f"rep_{i:04d}.json"

    def test_real_cell_passes(self):
        self.assertEqual(checks.check_replications(self.tmp.name, 77, 2, self.ratios), [])

    def test_tampered_replication_file_breaks_the_sum(self):
        rec = json.loads(self.rep_file(1).read_text())
        rec["errors"]["max_elementwise"]["trunc"] *= 1.001
        self.rep_file(1).write_text(json.dumps(rec))
        self.assertTrue(checks.check_replications(self.tmp.name, 77, 2, self.ratios))

    def test_wrong_seed_or_missing_file_fails(self):
        self.assertTrue(checks.check_replications(self.tmp.name, 78, 2, self.ratios))
        self.rep_file(0).unlink()
        self.assertTrue(checks.check_replications(self.tmp.name, 77, 2, self.ratios))

    def test_splitmix64_matches_reference_values(self):
        self.assertEqual(checks.splitmix64(0, 0), 0xE220A8397B1DCDAF)  # published test vector
        for master, index in [(0, 5), (2025, 0), (2025, 3), (2**64 - 1, 7)]:
            self.assertEqual(checks.splitmix64(master, index), derive_seed(master, index))


class Tracing(unittest.TestCase):
    def test_self_time_subtracts_the_union_of_children(self):
        spans = [tracing.Span(0, "root", 0.0, 10.0, children=[1, 2, 3]),
                 tracing.Span(1, "a", 1.0, 4.0, parent=0),
                 tracing.Span(2, "b", 3.0, 5.0, parent=0),    # overlaps a (another thread)
                 tracing.Span(3, "c", 8.0, 12.0, parent=0)]   # runs past the parent's end
        self.assertAlmostEqual(spans[0].self_time(spans), 10.0 - 4.0 - 2.0)
        self.assertAlmostEqual(spans[1].self_time(spans), 3.0)

    def test_patched_calls_nest_and_unpatch_restores(self):
        original = favar.pipeline.cv_tau
        tracer = tracing.Tracer()
        for module, attr in layers.patch_targets(favar):
            tracer.patch(module, attr)
        try:
            with tracer.span("bench.round") as root:
                favar.fit(small_panel().x, favar.FitOptions(r=1, lam=0.1))
        finally:
            tracer.unpatch()
        self.assertIs(favar.pipeline.cv_tau, original)
        names = {sp.name: sp for sp in tracer.under(root)}
        self.assertEqual(names["trunc.cv_tau"].parent, names["pipeline.fit"].id)
        self.assertEqual(names["pipeline.fit"].parent, root.id)
        total = sum(sp.self_time(tracer.spans) for sp in tracer.under(root))
        self.assertAlmostEqual(total, root.duration, places=9)


class Declaration(unittest.TestCase):
    def test_benchmark_json_matches_the_metrics_printed(self):
        path = BENCH_DIR.parent / "BENCHMARK.json"
        if not path.is_file():
            self.skipTest("BENCHMARK.json not present")
        spec = json.loads(path.read_text())
        self.assertEqual([w["name"] for w in spec["workloads"]], list(workloads.NAMES))
        self.assertEqual({m["name"]: m["unit"] for m in spec["end_to_end"]}, run.END_TO_END)
        self.assertEqual({m["name"]: m["unit"] for m in spec["per_layer"]}, layers.METRICS)


if __name__ == "__main__":
    unittest.main()
