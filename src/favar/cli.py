"""Command-line orchestration: simulate, estimate, forecast, evaluate.

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
import re
import sys
from dataclasses import asdict, dataclass, fields, replace
from pathlib import Path

import numpy as np

from . import evaluate as ev
from ._rng import derive_seed
from .forecast import ForecastOptions, align_origins, rolling_forecast
from .panel import load_csv, write_csv, write_table
from .pipeline import FitOptions, StageError, fit
from .simulate import DgpSpec, simulate_panel


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


def _read_vector(path) -> np.ndarray:
    """Flatten every cell of a numeric CSV; a cell that is not a finite number
    is an input error. Line 1 is a header when every cell of it is a name."""
    path = Path(path)
    if not path.exists():
        raise CliError("input", f"file not found: {path}")
    values = []
    for lineno, raw in enumerate(path.read_text(encoding="utf-8").splitlines(), start=1):
        if not raw.strip():
            continue
        cells = raw.split(",")
        if lineno == 1 and all(_is_name(cell) for cell in cells):
            continue
        for j, cell in enumerate(cells, start=1):
            try:
                value = float(cell)
            except ValueError:
                value = math.nan
            if not math.isfinite(value):
                raise CliError("input",
                               f"{path}:{lineno}: column {j}: {cell!r} is not a finite number")
            values.append(value)
    if not values:
        raise CliError("input", f"no numeric data in {path}")
    return np.asarray(values, dtype=float)


def _is_name(cell: str) -> bool:
    """A header cell: neither a number nor one mistyped, like ``0.9x``."""
    try:
        float(cell)
    except ValueError:
        return re.match(r"\s*[+-]?\.?\d", cell) is None
    return False


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


def _flag_manifest(args, files, **extra) -> None:
    """Write the manifest of a subcommand run. Its ``config`` holds the parsed
    flags but ``--out``, each under the flag's name: key ``k`` replays as
    ``--k`` with ``_`` written ``-``, a true value is the bare flag, and
    false and null values are left out."""
    config = {k: v for k, v in vars(args).items() if k not in ("func", "command", "out")}
    _manifest(Path(args.out), args.command, config, files, **extra)


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
    n_lambda: int = 50
    n_folds: int = 5
    threads: int = 1
    out: Path | None = None

    def __post_init__(self):
        if self.reps < 1:
            raise ValueError(f"reps must be at least 1, got {self.reps}")
        if not self.norms or not set(self.norms) <= set(ev.METRICS):
            raise ValueError(f"norms must name one or more of {ev.METRICS}, got {self.norms}")
        self.fit_options()  # refuses bad fit settings before anything is written

    def fit_options(self, r: int = 0) -> FitOptions:
        """The truncated arm's fit settings, for a known factor number ``r``."""
        return FitOptions(r=r, d=self.d, tau=self.tau, tau_grid_size=self.tau_grid_size,
                          n_lambda=self.n_lambda, n_folds=self.n_folds)


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
    opts = cfg.fit_options(r_known)
    fit_trunc = fit(panel.x, opts)
    fit_plain = fit(panel.x, replace(opts, tau=math.inf))
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
    flat = {f"dgp.{k}": v for k, v in asdict(cfg.dgp).items()}
    del flat["dgp.seed"]
    if cfg.dgp.innovation != "student_t":
        del flat["dgp.nu"]
    flat.update((f.name, getattr(cfg, f.name)) for f in fields(cfg)
                if f.name not in ("dgp", "reps", "out", "threads"))
    return json.loads(json.dumps(flat))


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
        write_table(out / "rme.csv", ["norm", "numerator", "denominator", "ratio", "reps"],
                    [(norm, rep.numerator, rep.denominator, rep.ratio, rep.count)
                     for norm, rep in reports.items()])
        files = ["rme.csv"] + [f"replications/rep_{i:04d}.json" for i in range(cfg.reps)]
        _manifest(out, "experiment", {**fingerprint, "reps": cfg.reps}, files)
    return reports


# ---------------------------------------------------------------------------
# subcommands


# each flag that a fixed setting makes inert: (flag, setting, the setting's CV word)
_INERT_WHEN_FIXED = (
    ("r_max", "r", "auto"),
    ("tau_grid_size", "tau", "cv"),
    ("n_lambda", "lambda", "cv"),
    ("n_folds", "lambda", "cv"),
    ("reselect_r", "r", "auto"),
    ("fixed_tau", "tau", "cv"),
)


def _fit_options(args, options=FitOptions, **extra) -> FitOptions:
    """The fit settings of estimate and forecast, one field per flag. A flag
    that a fixed setting makes inert, or a value the options refuse, is a
    usage error; a flag left out takes the options' default."""
    given = {k: v for k, v in vars(args).items() if v is not None and v is not False}
    for flag, setting, word in _INERT_WHEN_FIXED:
        if flag in given and given[setting] != word:
            name = flag.replace("_", "-")
            raise CliError("usage", f"--{name} has no effect with a fixed --{setting}")
    sizes = {k: given[k] for k in ("r_max", "tau_grid_size", "n_lambda", "n_folds") if k in given}
    try:
        return options(r=args.r, d=args.d, tau=args.tau, lam=given["lambda"], **sizes, **extra)
    except ValueError as e:
        raise CliError("usage", str(e)) from e


def cmd_simulate(args) -> int:
    if args.reps < 1:
        raise CliError("usage", f"--reps must be at least 1, got {args.reps}")
    raw = parse_config(args.dgp)
    # each replication's seed derives from --seed, so the file may not set one
    unknown = set(raw) - {f.name for f in fields(DgpSpec) if f.name != "seed"}
    if unknown:
        raise CliError("input", f"unknown DGP config keys: {sorted(unknown)}")
    try:
        spec = DgpSpec(**raw)
    except TypeError as e:  # a required key is missing
        raise CliError("input", f"{args.dgp}: {e}") from None
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    (out / "config.txt").write_text(Path(args.dgp).read_text(encoding="utf-8"), encoding="utf-8")
    files = ["config.txt"]
    for rep in range(args.reps):
        panel = simulate_panel(replace(spec, seed=derive_seed(args.seed, rep)))
        rep_dir = out / f"rep_{rep:04d}"
        rep_dir.mkdir(exist_ok=True)
        write_csv(panel.x, rep_dir / "x.csv")
        write_table(rep_dir / "truth_A.csv", panel.x.names, panel.A)
        write_table(rep_dir / "truth_chi.csv", panel.x.names, panel.chi)
        write_table(rep_dir / "truth_xi.csv", panel.x.names, panel.xi)
        rep_files = ["x.csv", "truth_A.csv", "truth_chi.csv", "truth_xi.csv"]
        if panel.F.shape[1] > 0:
            factor_names = [f"F{j + 1}" for j in range(panel.F.shape[1])]
            write_table(rep_dir / "truth_Lambda.csv", factor_names, panel.Lambda)
            write_table(rep_dir / "truth_F.csv", factor_names, panel.F)
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
    opts = _fit_options(args)
    x = load_csv(args.input, has_header=not args.no_header)
    result = fit(x, opts)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    files = []
    if result.factors is not None:
        factor_names = [f"F{j + 1}" for j in range(result.r)]
        write_table(out / "loadings.csv", factor_names, result.factors.loadings)
        write_table(out / "factors.csv", factor_names, result.factors.factors)
        files += ["loadings.csv", "factors.csv"]
    for ell, block in enumerate(result.var.A_blocks, start=1):
        write_table(out / f"A_{ell}.csv", x.names, block)
        files.append(f"A_{ell}.csv")
    report = result.tau_report
    if report is not None:
        table = np.column_stack([report.grid.values, report.scores])
        write_table(out / "tau_scores.csv", ["tau", "score"], table)
        files.append("tau_scores.csv")
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
    _flag_manifest(args, files, fit=result.config)
    print("\n".join(summary))
    return 0


def cmd_forecast(args) -> int:
    opts = _fit_options(
        args, ForecastOptions, window=args.window, horizon=args.horizon,
        reselect_r=args.reselect_r, reselect_tau=not args.fixed_tau,
    )
    x = load_csv(args.input, has_header=not args.no_header)
    run = rolling_forecast(x, opts)
    if run.origins.size == 0:
        t, reason = run.skipped[0]
        raise StageError("forecast", f"no origin forecast; the first, {t}, failed: {reason}")
    written = [(run, slice(None), "")]
    if args.baseline:
        # both runs are written on the origins they share, so their error
        # files pair row by row; both run before anything is written
        base = rolling_forecast(x, replace(opts, tau=math.inf))
        try:
            rows, base_rows = align_origins(run, base)
        except ValueError:
            t, reason = base.skipped[0]
            raise StageError("forecast", f"the baseline forecast none of the run's origins; "
                             f"its first failed, {t}: {reason}") from None
        written = [(run, rows, ""), (base, base_rows, "_baseline")]
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    files = []
    for each, rows, suffix in written:
        fc = np.column_stack([each.origins[rows], each.forecasts[rows]])
        fe = np.column_stack([each.origins[rows], each.errors()[rows]])
        write_table(out / f"forecasts{suffix}.csv", ["origin", *x.names], fc)
        write_table(out / f"fe{suffix}.csv", ["origin", *x.names], fe)
        files += [f"forecasts{suffix}.csv", f"fe{suffix}.csv"]
    _flag_manifest(args, files)
    skipped = len(run.skipped)
    print(f"{run.origins.size} origins forecast, {skipped} skipped, outputs in {out}")
    return 0


# the longest file name, in bytes, of the common Linux, macOS and Windows file systems
_NAME_MAX = 255


def _check_file_stem(stem: str) -> None:
    """Refuse ``stem`` unless ``stem.csv`` and ``stem.svg`` can name files in one directory."""
    separators = {"\0", os.sep, os.altsep} - {None}
    if any(sep in stem for sep in separators) or len(os.fsencode(stem + ".csv")) > _NAME_MAX:
        raise CliError("input", f"{stem!r} cannot name an output file")


def cmd_evaluate(args) -> int:
    if args.metric == "rme":
        errs_a = _read_vector(args.errs_a)
        errs_b = _read_vector(args.errs_b)
        value = ev.rme(errs_a, errs_b)
        print(f"rme {args.norm} {value:.12g}")
        if args.out:
            out = Path(args.out)
            out.mkdir(parents=True, exist_ok=True)
            write_table(out / "rme.csv", ["metric", "norm", "value", "reps"],
                        [("rme", args.norm, value, errs_a.size)])
            _flag_manifest(args, ["rme.csv"])
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
    if out is not None:
        for name in wanted:
            _check_file_stem(f"fluctuation_{name}")
            if name == "summary":
                raise CliError("input", "series 'summary' would overwrite fluctuation_summary.csv")
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
        write_table(out / "fluctuation_summary.csv",
                    ["series", "window", "reject", "favours"], rows)
        files.append("fluctuation_summary.csv")
        for name, result in stats_by_series.items():
            stem = f"fluctuation_{name}"
            write_table(out / f"{stem}.csv", ["statistic"], result.stats.reshape(-1, 1))
            files.append(f"{stem}.csv")
            if args.plot:
                _svg_line_plot(
                    out / f"{stem}.svg",
                    {name: result.stats},
                    hlines=(result.critical_value, -result.critical_value),
                )
                files.append(f"{stem}.svg")
        _flag_manifest(args, files)
    return 0


# ---------------------------------------------------------------------------
# argument wiring


def _number_or(word: str, number=float):
    """An argparse type taking ``word`` or a number parsed by ``number``."""
    def parse(text: str):
        if text == word:
            return word
        try:
            return number(text)
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"expected {number.__name__} or {word!r}, got {text!r}") from None
    return parse


def _add_fit_flags(sub):
    """The flags of every fit setting, shared by estimate and forecast."""
    sub.add_argument("--input", required=True)
    sub.add_argument("--no-header", action="store_true")
    sub.add_argument("--r", type=_number_or("auto", int), default=0,
                     help="factor number, or 'auto' for the IC_p2 criterion")
    sub.add_argument("--r-max", type=int)
    sub.add_argument("--d", type=int, default=1, help="VAR order")
    sub.add_argument("--tau", type=_number_or("cv"), default="cv",
                     help="truncation level on the standardised scale: 'cv' "
                     "(cross-validated), a number, or inf for none")
    sub.add_argument("--tau-grid-size", type=int)
    sub.add_argument("--lambda", type=_number_or("cv"), default="cv",
                     help="l1 penalty: 'cv' (cross-validated) or a number")
    sub.add_argument("--n-lambda", type=int)
    sub.add_argument("--n-folds", type=int)
    sub.add_argument("--out", required=True)


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
    _add_fit_flags(est)
    est.set_defaults(func=cmd_estimate)

    fc = subs.add_parser("forecast", help="rolling-window forecasts from a panel CSV")
    _add_fit_flags(fc)
    fc.add_argument("--window", type=int, default=120)
    fc.add_argument("--horizon", type=int, default=1)
    fc.add_argument("--reselect-r", action="store_true",
                    help="re-select the factor number in every window")
    fc.add_argument("--fixed-tau", action="store_true",
                    help="cross-validate tau on the first window only, then reuse it")
    fc.add_argument("--baseline", action="store_true",
                    help="also run the untruncated baseline on the same origins")
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

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        # a failure is one stderr line: numpy's floating-point warnings stay off it
        with np.errstate(all="ignore"):
            args = parser.parse_args(argv)
            if args.command == "evaluate":
                if args.metric == "rme" and not (args.errs_a and args.errs_b):
                    raise CliError("usage", "--metric rme needs --errs-a and --errs-b")
                if args.metric == "fluctuation" and not (args.fe_a and args.fe_b):
                    raise CliError("usage", "--metric fluctuation needs --fe-a and --fe-b")
                if args.metric == "fluctuation" and not 0.0 < args.mu < 1.0:
                    raise CliError("usage", f"--mu must lie strictly between 0 and 1, "
                                            f"got {args.mu}")
            return args.func(args)
    except CliError as e:
        print(f"error:{e.category}: {e}", file=sys.stderr)
        return 2 if e.category == "usage" else 1
    except StageError as e:
        print(f"error:stage:{e}", file=sys.stderr)  # str(e) starts with the stage name
        return 1
    except (OSError, ValueError) as e:  # a file that cannot be read, parsed or written
        print(f"error:input: {e}", file=sys.stderr)
        return 1
    except Exception as e:
        print(f"error:internal: {type(e).__name__}: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
