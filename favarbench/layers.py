"""Per-layer metrics: which calls are traced, and what is read off their spans.

Layers are named after favar's modules. Times are seconds per operation
(self time unless the name ends in ``.s`` on an entry point, which is
inclusive, next to its ``.self_s``); counts are per round. Index metrics
read -1 on a workload whose stage never runs.
"""

from __future__ import annotations

import statistics
from collections import Counter, defaultdict

import checks
import workloads

# name -> unit
METRICS = {
    "varlasso.cv_lambda.s": "s",
    "varlasso.cv_lambda.calls": "count",
    "varlasso.lambda_index": "index",
    "varlasso.fit_var.s": "s",
    "varlasso.fit_var.sweeps": "count",
    "varlasso.fit_var.sweeps_max": "count",
    "varlasso.nonzeros": "count",
    "varlasso.kkt_gap": "norm",
    "trunc.build_tau_grid.s": "s",
    "trunc.cv_tau.s": "s",
    "trunc.truncate.s": "s",
    "trunc.tau_index": "index",
    "trunc.clip_frac": "ratio",
    "panel.mad_scales.s": "s",
    "factors.fit_factors.s": "s",
    "factors.select_r.s": "s",
    "moments.build_gram.s": "s",
    "pipeline.fit.s": "s",
    "pipeline.fit.self_s": "s",
    "pipeline.fit.calls": "count",
    "forecast.rolling_forecast.s": "s",
    "forecast.rolling_forecast.self_s": "s",
    "forecast.origins": "count",
    "forecast.skipped": "count",
    "cli.run_experiment.s": "s",
    "cli.run_experiment.self_s": "s",
    "cli.reps_computed": "count",
    "simulate.simulate_panel.s": "s",
    "simulate.simulate_panel.calls": "count",
    "evaluate.matrix_error.s": "s",
    "trace.overhead_s": "s",
    "trace.self_share": "ratio",
}

SELF_TIMED = (
    "varlasso.cv_lambda", "varlasso.fit_var", "trunc.build_tau_grid", "trunc.cv_tau",
    "trunc.truncate", "panel.mad_scales", "factors.fit_factors", "factors.select_r",
    "moments.build_gram", "evaluate.matrix_error",
)
ENTRY_POINTS = ("pipeline.fit", "forecast.rolling_forecast", "cli.run_experiment")


def patch_targets(favar):
    """(module, attribute) of each call across a module boundary, as the caller sees it."""
    pipeline_calls = ("mad_scales", "build_tau_grid", "cv_tau", "truncate", "select_r",
                      "fit_factors", "build_gram", "cv_lambda", "fit_var")
    return (
        [(favar, "fit"), (favar, "rolling_forecast"), (favar, "simulate_panel"),
         (favar.cli, "run_experiment")]
        + [(favar.pipeline, name) for name in pipeline_calls]
        + [(favar.varlasso, "build_gram"), (favar.forecast, "fit"), (favar.forecast, "truncate"),
           (favar.cli, "fit"), (favar.cli, "simulate_panel"), (favar.evaluate, "matrix_error")]
    )


class LayerStats:
    """Accumulates the spans of traced rounds, then drops their arguments and
    results so memory stays flat however many rounds run."""

    def __init__(self):
        self.rounds = 0
        self.round_walls: list[float] = []
        self.self_s: Counter = Counter()
        self.total_s: Counter = Counter()
        self.calls: Counter = Counter()
        self.values: defaultdict = defaultdict(list)
        self.setup_sims: list[float] = []
        self.problems: list[str] = []

    def add_setup(self, tracer, root) -> None:
        for sp in tracer.under(root):
            if sp.name == "simulate.simulate_panel":
                self.setup_sims.append(sp.self_time(tracer.spans))
            sp.args = sp.result = None

    def add_round(self, tracer, root, wall: float) -> None:
        self.rounds += 1
        self.round_walls.append(wall)
        v = self.values
        for sp in tracer.under(root):
            if sp is root:
                continue
            own = sp.self_time(tracer.spans)
            self.self_s[sp.name] += own
            self.total_s[sp.name] += sp.duration
            self.calls[sp.name] += 1
            res = sp.result
            if sp.name == "simulate.simulate_panel":
                v["sim_self"].append(own)
            elif sp.name == "cli.run_experiment":
                v["reps"].append(sum(c.name == "simulate.simulate_panel" for c in tracer.under(sp)))
            elif res is None:
                pass
            elif sp.name == "varlasso.cv_lambda":
                v["lambda_index"].append(res.chosen)
            elif sp.name == "trunc.cv_tau":
                v["tau_index"].append(res.chosen)
            elif sp.name == "varlasso.fit_var":
                gram, lam = sp.args[0], sp.args[1]
                v["sweeps"].append(float(res.iterations.mean()))
                v["sweeps_max"].append(int(res.iterations.max()))
                v["nonzeros"].append(res.nonzeros)
                v["kkt_gap"].append(checks.kkt_gap(gram.Gamma, gram.gamma, res.A, lam))
            elif sp.name == "pipeline.fit":
                x = sp.args[0].values
                if not res.rule.is_identity:
                    v["clip_frac"].append(float((abs(x) > res.rule.thresholds).mean()))
                self.problems += workloads.fit_checks(res, x)
            elif sp.name == "forecast.rolling_forecast":
                v["origins"].append(res.origins.size)
                v["skipped"].append(len(res.skipped))
            sp.args = sp.result = None

    def metrics(self, ops_per_round: int, untraced_wall: float) -> dict[str, float]:
        ops = self.rounds * ops_per_round
        v = self.values

        def mean(key, empty=0.0):
            return float(statistics.fmean(v[key])) if v[key] else empty

        m = {f"{name}.s": self.self_s[name] / ops for name in SELF_TIMED}
        for name in ENTRY_POINTS:
            m[f"{name}.s"] = self.total_s[name] / ops
            m[f"{name}.self_s"] = self.self_s[name] / ops
        m["pipeline.fit.calls"] = self.calls["pipeline.fit"] / self.rounds
        m["varlasso.cv_lambda.calls"] = self.calls["varlasso.cv_lambda"] / self.rounds
        m["varlasso.lambda_index"] = mean("lambda_index", -1.0)
        m["trunc.tau_index"] = mean("tau_index", -1.0)
        m["varlasso.fit_var.sweeps"] = mean("sweeps")
        m["varlasso.fit_var.sweeps_max"] = float(max(v["sweeps_max"], default=0))
        m["varlasso.nonzeros"] = mean("nonzeros")
        m["varlasso.kkt_gap"] = float(max(v["kkt_gap"], default=0.0))
        m["trunc.clip_frac"] = mean("clip_frac")
        m["forecast.origins"] = sum(v["origins"]) / self.rounds
        m["forecast.skipped"] = sum(v["skipped"]) / self.rounds
        m["cli.reps_computed"] = sum(v["reps"]) / self.rounds
        sims = self.setup_sims + v["sim_self"]
        m["simulate.simulate_panel.calls"] = len(self.setup_sims) + len(v["sim_self"]) / self.rounds
        m["simulate.simulate_panel.s"] = float(statistics.fmean(sims)) if sims else 0.0
        traced_wall = statistics.median(self.round_walls)
        m["trace.overhead_s"] = (traced_wall - untraced_wall) / ops_per_round
        m["trace.self_share"] = sum(self.self_s.values()) / sum(self.round_walls)
        return {name: float(m[name]) for name in METRICS}
