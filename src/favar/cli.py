"""Command-line orchestration: simulate, estimate, forecast, evaluate, cv-tau.

Every run writes its outputs under a single directory together with a
manifest (config snapshot, seed, file list), so any output directory can be
reproduced from its own manifest alone. Failures print one machine-parsable
line ``error:<category>: <message>`` to stderr and exit non-zero.

Config files are flat ``key = value`` text: one pair per line, ``#`` starts
a comment, values are parsed as int, float, bool or string (quotes optional).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import asdict, dataclass, replace
from pathlib import Path

import numpy as np

from . import evaluate as ev
from ._rng import derive_seed
from .forecast import ForecastOptions, rolling_forecast
from .panel import load_csv, mad_scales, write_csv
from .pipeline import FitOptions, StageError, fit
from .simulate import DgpSpec, simulate_panel
from .trunc import build_tau_grid, cv_tau


class CliError(RuntimeError):
    def __init__(self, category: str, message: str):
        super().__init__(message)
        self.category = category


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would sys.exit; surface one line instead
        raise CliError("usage", message)


# ---------------------------------------------------------------------------
# config files and small CSV helpers

_BOOL_WORDS = {"true": True, "false": False, "yes": True, "no": False}


def parse_config(path) -> dict:
    """Read a flat key = value config file."""
    out: dict = {}
    path = Path(path)
    if not path.exists():
        raise CliError("input", f"config file not found: {path}")
    for lineno, raw in enumerate(path.read_text(encoding="utf-8").splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise CliError("input", f"{path}:{lineno}: expected 'key = value'")
        key, value = (part.strip() for part in line.split("=", 1))
        out[key] = _parse_value(value)
    return out


def _parse_value(text: str):
    if len(text) >= 2 and text[0] == text[-1] and text[0] in "'\"":
        return text[1:-1]
    lowered = text.lower()
    if lowered in _BOOL_WORDS:
        return _BOOL_WORDS[lowered]
    try:
        return int(text)
    except ValueError:
        pass
    try:
        return float(text)
    except ValueError:
        pass
    return text


def _write_matrix(path, matrix, header) -> None:
    matrix = np.atleast_2d(np.asarray(matrix, dtype=float))
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\n")
        for row in matrix:
            fh.write(",".join(format(v, ".17g") for v in row) + "\n")


def _read_vector(path) -> np.ndarray:
    """Flatten every numeric cell of a CSV (header row optional)."""
    path = Path(path)
    if not path.exists():
        raise CliError("input", f"file not found: {path}")
    rows = []
    for raw in path.read_text(encoding="utf-8").splitlines():
        if not raw.strip():
            continue
        cells = []
        for cell in raw.split(","):
            try:
                cells.append(float(cell))
            except ValueError:
                cells = None
                break
        if cells is not None:
            rows.extend(cells)
    if not rows:
        raise CliError("input", f"no numeric data in {path}")
    return np.asarray(rows, dtype=float)


def _manifest(out_dir: Path, subcommand: str, config: dict, files, **extra) -> None:
    payload = {
        "subcommand": subcommand,
        "config": config,
        "files": sorted(str(f) for f in files),
        **extra,
    }
    with open(out_dir / "manifest.json", "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _svg_line_plot(path, series: dict, hlines=(), width=720, height=360) -> None:
    """Tiny dependency-free SVG polyline plot."""
    pad = 40
    ys = np.concatenate([np.asarray(v, float) for v in series.values()] + [np.asarray(hlines, float)])
    lo, hi = float(ys.min()), float(ys.max())
    if hi <= lo:
        hi = lo + 1.0
    span = hi - lo
    lo, hi = lo - 0.05 * span, hi + 0.05 * span

    def sx(i, n):
        return pad + (width - 2 * pad) * (i / max(n - 1, 1))

    def sy(v):
        return height - pad - (height - 2 * pad) * ((v - lo) / (hi - lo))

    colors = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd"]
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
    ]
    for level in hlines:
        y = sy(level)
        parts.append(
            f'<line x1="{pad}" y1="{y:.2f}" x2="{width - pad}" y2="{y:.2f}" '
            'stroke="#888" stroke-dasharray="6,4"/>'
        )
    for color, (label, values) in zip(colors, series.items()):
        values = np.asarray(values, float)
        pts = " ".join(
            f"{sx(i, values.size):.2f},{sy(v):.2f}" for i, v in enumerate(values)
        )
        parts.append(f'<polyline fill="none" stroke="{color}" points="{pts}"><title>{label}</title></polyline>')
    parts.append("</svg>")
    Path(path).write_text("\n".join(parts) + "\n", encoding="utf-8")


# ---------------------------------------------------------------------------
# experiment orchestration (one table cell)


@dataclass(frozen=True)
class ExperimentConfig:
    """One simulation cell: a DGP, a replication count and estimation knobs.

    ``tau`` is the truncated arm's level ("cv" or a fixed value); the
    comparison arm always runs untruncated. Setting ``tau`` to ``inf`` makes
    the two arms identical, which pins the relative error at exactly one.
    Replications run in order in one thread. ``threads`` is accepted so that
    existing callers keep working, and is ignored.
    """

    dgp: DgpSpec
    reps: int = 200
    seed: int = 0
    d: int = 1
    norms: tuple[str, ...] = ("max_elementwise", "l2_col_max")
    tau: float | str = "cv"
    tau_grid_size: int = 60
    cv_lags: int | None = None
    n_lambda: int = 50
    n_folds: int = 5
    threads: int = 1
    out: Path | None = None


def _true_coefficients(panel, d: int) -> np.ndarray:
    p = panel.A.shape[0]
    A = np.zeros((p, p * d))
    A[:, :p] = panel.A
    return A


def _run_replication(cfg: ExperimentConfig, rep: int) -> dict:
    seed = derive_seed(cfg.seed, rep)
    spec = replace(cfg.dgp, seed=seed)
    panel = simulate_panel(spec)
    r_known = spec.r if spec.factor_design == "var1_factors" else 0
    base = dict(
        r=r_known,
        d=cfg.d,
        tau_grid_size=cfg.tau_grid_size,
        cv_lags=cfg.cv_lags,
        lam="cv",
        n_lambda=cfg.n_lambda,
        n_folds=cfg.n_folds,
    )
    fit_trunc = fit(panel.x, FitOptions(tau=cfg.tau, **base))
    fit_plain = fit(panel.x, FitOptions(tau=math.inf, **base))
    truth = _true_coefficients(panel, cfg.d)
    errors = {
        norm: {
            "trunc": ev.matrix_error(fit_trunc.var.A, truth, norm),
            "plain": ev.matrix_error(fit_plain.var.A, truth, norm),
        }
        for norm in cfg.norms
    }
    return {
        "rep": rep,
        "seed": int(seed),
        "tau": fit_trunc.config["tau"],
        "lambda_trunc": fit_trunc.config["lambda"],
        "lambda_plain": fit_plain.config["lambda"],
        "errors": errors,
    }


def _cell_fingerprint(cfg: ExperimentConfig) -> dict:
    """The settings a replication's result depends on, as flat JSON values.

    ``reps``, ``out`` and ``threads`` are left out: a cell may be extended
    with more replications or moved without invalidating finished ones.
    ``dgp.seed`` is left out because each replication draws with a seed
    derived from ``seed``, and ``dgp.nu`` unless the innovations are
    Student-t, the only law that reads it.
    """
    fields = {f"dgp.{k}": v for k, v in asdict(cfg.dgp).items()}
    del fields["dgp.seed"]
    if cfg.dgp.innovation != "student_t":
        del fields["dgp.nu"]
    fields.update(
        seed=cfg.seed, d=cfg.d, norms=list(cfg.norms), tau=cfg.tau,
        tau_grid_size=cfg.tau_grid_size, cv_lags=cfg.cv_lags,
        n_lambda=cfg.n_lambda, n_folds=cfg.n_folds,
    )
    return json.loads(json.dumps(fields))


def _read_replication(path: Path, fingerprint: dict) -> dict | None:
    """A finished replication, or None when the file is missing, unreadable
    or carries no fingerprint.

    A readable file written under another cell configuration is refused
    with ``ValueError`` naming the first differing key.
    """
    try:
        record = json.loads(path.read_text(encoding="utf-8"))
        stored = dict(record["config"])
    except (OSError, ValueError, KeyError, TypeError):
        return None
    differing = [k for k in sorted(set(stored) | set(fingerprint))
                 if stored.get(k) != fingerprint.get(k)]
    if differing:
        key = differing[0]
        raise ValueError(
            f"{path} was computed with {key} = {stored.get(key)!r}, this cell has "
            f"{fingerprint.get(key)!r}; use a fresh output directory"
        )
    return record


def _write_replication(path: Path, record: dict) -> None:
    """Write via a temporary name and an atomic rename, so no half-written
    ``rep_*.json`` is ever left behind."""
    tmp = path.with_name(path.name + ".tmp")
    with open(tmp, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=2, sort_keys=True)
        fh.write("\n")
    os.replace(tmp, path)


def run_experiment(cfg: ExperimentConfig, verbose: bool = False) -> dict[str, ev.RmeReport]:
    """Run (or resume) all replications of a cell, in order, and aggregate the RMEs.

    Per-replication results are persisted as JSON, together with the cell
    fingerprint, when an output directory is configured. Finished
    replications found on disk are not recomputed, so an interrupted sweep
    resumes where it stopped; unreadable ones are recomputed, and ones from
    another configuration are refused.
    """
    rep_dir = None
    if cfg.out is not None:
        rep_dir = Path(cfg.out) / "replications"
        rep_dir.mkdir(parents=True, exist_ok=True)
    fingerprint = _cell_fingerprint(cfg)
    paths = [None if rep_dir is None else rep_dir / f"rep_{i:04d}.json" for i in range(cfg.reps)]
    # read everything first, so a refused directory is left untouched
    results = [None if path is None else _read_replication(path, fingerprint) for path in paths]
    for i, path in enumerate(paths):
        if results[i] is None:
            results[i] = {**_run_replication(cfg, i), "config": fingerprint}
            if path is not None:
                _write_replication(path, results[i])  # finished work survives an interruption
            if verbose:
                print(f"replication {i + 1}/{cfg.reps} done", flush=True)

    reports = {}
    for norm in cfg.norms:
        num = sum(rec["errors"][norm]["trunc"] for rec in results)
        den = sum(rec["errors"][norm]["plain"] for rec in results)
        reports[norm] = ev.RmeReport(numerator=num, denominator=den, count=cfg.reps)

    if cfg.out is not None:
        out = Path(cfg.out)
        with open(out / "rme.csv", "w", encoding="utf-8") as fh:
            fh.write("norm,numerator,denominator,ratio,reps\n")
            for norm, rep in reports.items():
                fh.write(
                    f"{norm},{rep.numerator:.17g},{rep.denominator:.17g},"
                    f"{rep.ratio:.17g},{rep.count}\n"
                )
        files = ["rme.csv"] + [f"replications/rep_{i:04d}.json" for i in range(cfg.reps)]
        _manifest(out, "experiment", {**fingerprint, "reps": cfg.reps}, files)
    return reports


# ---------------------------------------------------------------------------
# subcommands


def _resolve_factors(value: str):
    if value == "auto":
        return "auto"
    try:
        r = int(value)
    except ValueError:
        raise CliError("usage", f"--factors must be an integer or 'auto', got {value!r}")
    if r < 0:
        raise CliError("usage", "--factors must be non-negative")
    return r


def _tau_and_lambda(args) -> tuple[float | str, float | str]:
    """Resolve --tau/--tau-cv and --lambda/--lambda-cv; a -cv flag wins, CV is the default."""
    tau = "cv" if args.tau_cv or args.tau is None else float(args.tau)
    lam = "cv" if args.lambda_cv or args.lam is None else float(args.lam)
    return tau, lam


def _fit_options_from_args(args) -> FitOptions:
    tau, lam = _tau_and_lambda(args)
    return FitOptions(
        r=_resolve_factors(args.factors),
        r_max=args.r_max,
        d=args.d,
        tau=tau,
        tau_grid_size=args.tau_grid_size,
        cv_lags=args.cv_lags,
        lam=lam,
        n_lambda=args.n_lambda,
        n_folds=args.folds,
    )


def cmd_simulate(args) -> int:
    raw = parse_config(args.dgp)
    known = {
        "n", "p", "var_design", "innovation", "nu", "factor_design", "r",
        "sigma_eps", "burn_in",
    }
    unknown = set(raw) - known
    if unknown:
        raise CliError("input", f"unknown DGP config keys: {sorted(unknown)}")
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    (out / "config.txt").write_text(Path(args.dgp).read_text(encoding="utf-8"), encoding="utf-8")
    files = ["config.txt"]
    for rep in range(args.reps):
        seed = derive_seed(args.seed, rep)
        spec = DgpSpec(seed=seed, **raw)
        panel = simulate_panel(spec)
        rep_dir = out / f"rep_{rep:04d}"
        rep_dir.mkdir(exist_ok=True)
        write_csv(panel.x, rep_dir / "x.csv")
        _write_matrix(rep_dir / "truth_A.csv", panel.A, panel.x.names)
        _write_matrix(rep_dir / "truth_chi.csv", panel.chi, panel.x.names)
        _write_matrix(rep_dir / "truth_xi.csv", panel.xi, panel.x.names)
        rep_files = ["x.csv", "truth_A.csv", "truth_chi.csv", "truth_xi.csv"]
        if panel.F.shape[1] > 0:
            factor_names = [f"F{j + 1}" for j in range(panel.F.shape[1])]
            _write_matrix(rep_dir / "truth_Lambda.csv", panel.Lambda, factor_names)
            _write_matrix(rep_dir / "truth_F.csv", panel.F, factor_names)
            rep_files += ["truth_Lambda.csv", "truth_F.csv"]
        files.extend(f"rep_{rep:04d}/{name}" for name in rep_files)
    _manifest(
        out,
        "simulate",
        {"dgp": raw, "reps": args.reps, "seed": args.seed},
        files,
    )
    print(f"wrote {args.reps} replications under {out}")
    return 0


def cmd_estimate(args) -> int:
    x = load_csv(args.input, has_header=not args.no_header)
    opts = _fit_options_from_args(args)
    result = fit(x, opts)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    files = []
    if result.factors is not None:
        factor_names = [f"F{j + 1}" for j in range(result.r)]
        _write_matrix(out / "loadings.csv", result.factors.loadings, factor_names)
        _write_matrix(out / "factors.csv", result.factors.factors, factor_names)
        files += ["loadings.csv", "factors.csv"]
    for ell, block in enumerate(result.var.A_blocks, start=1):
        _write_matrix(out / f"A_{ell}.csv", block, x.names)
        files.append(f"A_{ell}.csv")
    nnz = result.var.nonzeros
    total = result.var.A.size
    summary = [
        f"n {x.n}",
        f"p {x.p}",
        f"r {result.r}",
        f"d {result.config['d']}",
        f"tau {result.config['tau']:.17g} ({result.config['tau_source']})",
        f"lambda {result.config['lambda']:.17g} ({result.config['lambda_source']})",
        f"nonzeros {nnz} of {total} ({nnz / total:.4f})",
    ]
    (out / "summary.txt").write_text("\n".join(summary) + "\n", encoding="utf-8")
    files.append("summary.txt")
    _manifest(
        out,
        "estimate",
        {
            "input": str(args.input),
            "no_header": args.no_header,
            **result.config,
        },
        files,
    )
    print("\n".join(summary))
    return 0


def cmd_forecast(args) -> int:
    x = load_csv(args.input, has_header=not args.no_header)
    tau, lam = _tau_and_lambda(args)
    opts = ForecastOptions(
        window=args.window,
        horizon=args.horizon,
        d=args.order,
        r=_resolve_factors(args.factors),
        r_max=args.r_max,
        reselect_r=args.reselect_r,
        tau=tau,
        reselect_tau=not args.fixed_tau,
        tau_grid_size=args.tau_grid_size,
        lam=lam,
        n_lambda=args.n_lambda,
        n_folds=args.folds,
    )
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    files = []

    def emit(run, suffix=""):
        header = ["origin", *x.names]
        fc = np.column_stack([run.origins, run.forecasts])
        fe = np.column_stack([run.origins, run.errors()])
        _write_matrix(out / f"forecasts{suffix}.csv", fc, header)
        _write_matrix(out / f"fe{suffix}.csv", fe, header)
        files.extend([f"forecasts{suffix}.csv", f"fe{suffix}.csv"])

    run = rolling_forecast(x, opts)
    emit(run)
    if args.baseline:
        base_opts = replace(opts, tau=math.inf)
        emit(rolling_forecast(x, base_opts), suffix="_baseline")
    _manifest(
        out,
        "forecast",
        {
            "input": str(args.input),
            "no_header": args.no_header,
            **asdict(opts),
            "baseline": args.baseline,
        },
        files,
    )
    skipped = len(run.skipped)
    print(f"{run.origins.size} origins forecast, {skipped} skipped, outputs in {out}")
    return 0


def cmd_evaluate(args) -> int:
    if args.metric == "rme":
        errs_a = _read_vector(args.errs_a)
        errs_b = _read_vector(args.errs_b)
        if errs_a.size != errs_b.size:
            raise CliError("input", "error streams have different lengths")
        value = ev.rme(errs_a, errs_b)
        print(f"rme {args.norm} {value:.12g}")
        if args.out:
            out = Path(args.out)
            out.mkdir(parents=True, exist_ok=True)
            with open(out / "rme.csv", "w", encoding="utf-8") as fh:
                fh.write("metric,norm,value,reps\n")
                fh.write(f"rme,{args.norm},{value:.17g},{errs_a.size}\n")
            _manifest(
                out,
                "evaluate",
                {"metric": "rme", "norm": args.norm,
                 "errs_a": str(args.errs_a), "errs_b": str(args.errs_b)},
                ["rme.csv"],
            )
        return 0
    # fluctuation mode: compare two per-origin forecast-error files series by series
    fe_a = load_csv(args.fe_a, has_header=True)
    fe_b = load_csv(args.fe_b, has_header=True)
    if fe_a.names != fe_b.names or fe_a.n != fe_b.n:
        raise CliError("input", "forecast-error files are not aligned")
    cols = list(fe_a.names)
    drop_origin = cols and cols[0] == "origin"
    series_names = cols[1:] if drop_origin else cols
    wanted = series_names if args.series is None else [args.series]
    out = Path(args.out) if args.out else None
    files = []
    rows = []
    stats_by_series = {}
    for name in wanted:
        if name not in series_names:
            raise CliError("input", f"series {name!r} not found")
        j = cols.index(name)
        result = ev.fluctuation_test(fe_a.values[:, j], fe_b.values[:, j], mu=args.mu)
        stats_by_series[name] = result
        direction = "none"
        if result.any_reject:
            worst = result.stats[np.argmax(np.abs(result.stats))]
            direction = "first" if worst < 0 else "second"
        rows.append((name, result.m, int(result.any_reject), direction))
        print(
            f"fluctuation {name} m={result.m} cv={result.critical_value:.3f} "
            f"reject={bool(result.any_reject)} favours={direction}"
        )
    if out is not None:
        out.mkdir(parents=True, exist_ok=True)
        with open(out / "fluctuation_summary.csv", "w", encoding="utf-8") as fh:
            fh.write("series,window,reject,favours\n")
            for name, m, rej, direction in rows:
                fh.write(f"{name},{m},{rej},{direction}\n")
        files.append("fluctuation_summary.csv")
        for name, result in stats_by_series.items():
            stem = f"fluctuation_{name}"
            _write_matrix(out / f"{stem}.csv", result.stats.reshape(-1, 1), ["statistic"])
            files.append(f"{stem}.csv")
            if args.plot:
                _svg_line_plot(
                    out / f"{stem}.svg",
                    {name: result.stats},
                    hlines=(result.critical_value, -result.critical_value),
                )
                files.append(f"{stem}.svg")
        _manifest(
            out,
            "evaluate",
            {"metric": "fluctuation", "mu": args.mu,
             "fe_a": str(args.fe_a), "fe_b": str(args.fe_b), "series": args.series},
            files,
        )
    return 0


def cmd_cv_tau(args) -> int:
    x = load_csv(args.input, has_header=not args.no_header)
    scales = mad_scales(x)
    grid = build_tau_grid(x, scales, args.tau_grid_size)
    report = cv_tau(x, scales, args.cv_lags, grid)
    print(f"tau {report.tau:.12g} (grid index {report.chosen} of {grid.size})")
    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        table = np.column_stack([grid.values, report.scores])
        _write_matrix(out / "tau_scores.csv", table, ["tau", "score"])
        _manifest(
            out,
            "cv-tau",
            {"input": str(args.input), "tau_grid_size": args.tau_grid_size,
             "cv_lags": args.cv_lags, "chosen_tau": report.tau},
            ["tau_scores.csv"],
        )
    return 0


# ---------------------------------------------------------------------------
# argument wiring


def _add_common_fit_flags(sub):
    sub.add_argument("--tau", type=float, default=None,
                     help="fixed truncation level on the standardised scale (inf disables)")
    sub.add_argument("--tau-cv", action="store_true",
                     help="select the truncation level by cross-validation (default)")
    sub.add_argument("--tau-grid-size", type=int, default=60)
    sub.add_argument("--lambda", dest="lam", type=float, default=None,
                     help="fixed l1 penalty")
    sub.add_argument("--lambda-cv", action="store_true",
                     help="select the penalty by cross-validation (default)")
    sub.add_argument("--n-lambda", type=int, default=50)
    sub.add_argument("--folds", type=int, default=5)


def build_parser() -> _Parser:
    parser = _Parser(prog="favar", description=__doc__)
    subs = parser.add_subparsers(dest="command", required=True)

    sim = subs.add_parser("simulate", help="generate seeded panels from a DGP config")
    sim.add_argument("--dgp", required=True, help="flat key=value DGP config file")
    sim.add_argument("--reps", type=int, default=1)
    sim.add_argument("--seed", type=int, default=0)
    sim.add_argument("--out", required=True)
    sim.set_defaults(func=cmd_simulate)

    est = subs.add_parser("estimate", help="fit the two-stage estimator to a panel CSV")
    est.add_argument("--input", required=True)
    est.add_argument("--no-header", action="store_true")
    est.add_argument("--r", "--factors", dest="factors", default="0",
                     help="factor number, or 'auto' for the information criteria")
    est.add_argument("--r-max", type=int, default=8)
    est.add_argument("--d", type=int, default=1, help="VAR order")
    _add_common_fit_flags(est)
    est.add_argument("--cv-lags", type=int, default=None,
                     help="lag range of the tau CV score (defaults to the VAR order)")
    est.add_argument("--out", required=True)
    est.set_defaults(func=cmd_estimate)

    fc = subs.add_parser("forecast", help="rolling-window forecasts from a panel CSV")
    fc.add_argument("--input", required=True)
    fc.add_argument("--no-header", action="store_true")
    fc.add_argument("--window", type=int, default=120)
    fc.add_argument("--horizon", type=int, default=1)
    fc.add_argument("--order", type=int, default=1, help="VAR order d")
    fc.add_argument("--r", "--factors", dest="factors", default="0")
    fc.add_argument("--r-max", type=int, default=8)
    fc.add_argument("--reselect-r", action="store_true",
                    help="re-select the factor number in every window")
    fc.add_argument("--fixed-tau", action="store_true",
                    help="cross-validate tau on the first window only, then reuse it")
    fc.add_argument("--baseline", action="store_true",
                    help="also run the untruncated baseline on the same origins")
    _add_common_fit_flags(fc)
    fc.add_argument("--out", required=True)
    fc.set_defaults(func=cmd_forecast)

    evl = subs.add_parser("evaluate", help="error metrics and the fluctuation test")
    evl.add_argument("--metric", choices=["rme", "fluctuation"], required=True)
    evl.add_argument("--norm", default="max",
                     help="label for the norm used to produce the error streams")
    evl.add_argument("--errs-a", help="CSV of per-replication errors, truncated arm")
    evl.add_argument("--errs-b", help="CSV of per-replication errors, plain arm")
    evl.add_argument("--fe-a", help="per-origin forecast-error CSV, first method")
    evl.add_argument("--fe-b", help="per-origin forecast-error CSV, second method")
    evl.add_argument("--mu", type=float, default=0.3)
    evl.add_argument("--series", default=None, help="restrict the fluctuation test to one series")
    evl.add_argument("--plot", action="store_true", help="emit SVG statistic paths")
    evl.add_argument("--out", default=None)
    evl.set_defaults(func=cmd_evaluate)

    cvt = subs.add_parser("cv-tau", help="cross-validate the truncation level")
    cvt.add_argument("--input", required=True)
    cvt.add_argument("--no-header", action="store_true")
    cvt.add_argument("--tau-grid-size", type=int, default=60)
    cvt.add_argument("--cv-lags", type=int, default=1)
    cvt.add_argument("--out", default=None)
    cvt.set_defaults(func=cmd_cv_tau)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command == "evaluate":
            if args.metric == "rme" and not (args.errs_a and args.errs_b):
                raise CliError("usage", "--metric rme needs --errs-a and --errs-b")
            if args.metric == "fluctuation" and not (args.fe_a and args.fe_b):
                raise CliError("usage", "--metric fluctuation needs --fe-a and --fe-b")
        return args.func(args)
    except CliError as e:
        print(f"error:{e.category}: {e}", file=sys.stderr)
        return 2 if e.category == "usage" else 1
    except StageError as e:
        print(f"error:stage:{e.stage}: {e}", file=sys.stderr)
        return 1
    except (OSError, ValueError) as e:  # a file that cannot be read, parsed or written
        print(f"error:input: {e}", file=sys.stderr)
        return 1
    except Exception as e:
        print(f"error:internal: {type(e).__name__}: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
