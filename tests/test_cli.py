import importlib.util
import json
import math
import os
import subprocess
import sys
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest

from favar import cli
from favar.cli import ExperimentConfig, main, parse_config, run_experiment
from favar.panel import load_csv
from favar.simulate import DgpSpec, simulate_panel


def write_dgp(tmp_path, **overrides):
    base = {
        "n": 60,
        "p": 6,
        "var_design": "banded",
        "innovation": "gaussian",
        "factor_design": "none",
        "sigma_eps": "identity",
        "burn_in": 200,
    }
    base.update(overrides)
    lines = [f"{key} = {value}" for key, value in base.items()]
    path = tmp_path / "dgp.txt"
    path.write_text("\n".join(lines) + "\n")
    return path


def read_bytes(root: Path) -> dict:
    return {
        str(p.relative_to(root)): p.read_bytes()
        for p in sorted(root.rglob("*"))
        if p.is_file() and p.name != "manifest.json"
    }


def test_parse_config_types(tmp_path):
    path = tmp_path / "c.txt"
    path.write_text("a = 3\nb = 0.5\nc = hello\nd = 'quoted'\ne = true\n# comment\n")
    assert parse_config(path) == {"a": 3, "b": 0.5, "c": "hello", "d": "quoted", "e": True}


def test_simulate_round_trips_byte_identically(tmp_path):
    dgp = write_dgp(tmp_path)
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    for out in (out_a, out_b):
        code = main(["simulate", "--dgp", str(dgp), "--reps", "2", "--seed", "7",
                     "--out", str(out)])
        assert code == 0
    assert read_bytes(out_a) == read_bytes(out_b)
    assert (out_a / "rep_0000" / "x.csv").exists()
    assert (out_a / "rep_0001" / "truth_A.csv").exists()
    assert json.loads((out_a / "manifest.json").read_text())["config"]["reps"] == 2


def test_simulate_rejects_unknown_config_keys(tmp_path, capsys):
    # the file may not set a seed: each replication's derives from --seed
    for key in ("bogus", "seed"):
        dgp = write_dgp(tmp_path, **{key: 1})
        code = main(["simulate", "--dgp", str(dgp), "--out", str(tmp_path / "o")])
        assert code == 1
        assert capsys.readouterr().err.startswith("error:input:")


def test_simulate_refuses_bad_dgp_values_and_reps_before_writing(tmp_path, capsys):
    # a DGP value of the wrong type or a missing size is an input error, a
    # --reps below 1 a usage error, and none of them leaves a run directory
    out = tmp_path / "o"
    cases = [({"n": "ten"}, "1", "error:input: n must be an integer"),
             ({"n": 100.5}, "1", "error:input: n must be an integer"),
             ({"burn_in": True}, "1", "error:input: burn_in must be an integer"),
             ({"nu": "abc"}, "1", "error:input: nu must be a number"),
             ({}, "0", "error:usage: --reps must be at least 1"),
             ({}, "-2", "error:usage: --reps must be at least 1")]
    for overrides, reps, message in cases:
        dgp = write_dgp(tmp_path, **overrides)
        code = main(["simulate", "--dgp", str(dgp), "--reps", reps, "--out", str(out)])
        assert code == (2 if message.startswith("error:usage") else 1)
        assert capsys.readouterr().err.startswith(message)
        assert not out.exists()
    dgp.write_text("p = 5\n")
    assert main(["simulate", "--dgp", str(dgp), "--out", str(out)]) == 1
    assert "'n'" in capsys.readouterr().err.removeprefix("error:input:")
    assert not out.exists()


def test_estimate_artifact_layout(tmp_path):
    dgp = write_dgp(tmp_path, factor_design="var1_factors", r=2, n=120, p=10)
    main(["simulate", "--dgp", str(dgp), "--reps", "1", "--seed", "3", "--out",
          str(tmp_path / "sim")])
    out = tmp_path / "est"
    code = main([
        "estimate", "--input", str(tmp_path / "sim" / "rep_0000" / "x.csv"),
        "--r", "2", "--d", "1", "--tau", "cv", "--n-lambda", "15", "--n-folds", "3",
        "--out", str(out),
    ])
    assert code == 0
    for name in ("loadings.csv", "factors.csv", "A_1.csv", "summary.txt", "manifest.json"):
        assert (out / name).exists()
    summary = (out / "summary.txt").read_text()
    assert "tau" in summary and "lambda" in summary and "nonzeros" in summary
    # the tau-CV curve: one row per point of the default 60-point grid
    table = (out / "tau_scores.csv").read_text().splitlines()
    assert table[0] == "tau,score"
    assert len(table) == 61
    assert "tau_scores.csv" in json.loads((out / "manifest.json").read_text())["files"]
    fixed = tmp_path / "est_fixed"
    code = main(["estimate", "--input", str(tmp_path / "sim" / "rep_0000" / "x.csv"),
                 "--r", "2", "--tau", "2.5", "--lambda", "0.1", "--out", str(fixed)])
    assert code == 0
    assert (fixed / "A_1.csv").exists() and not (fixed / "tau_scores.csv").exists()


def replay_argv(manifest: dict, out) -> list[str]:
    """The command line that reruns a run from its manifest alone: config key
    ``k`` is the flag ``--k``, a true value the bare flag, false and null
    values none."""
    argv = [manifest["subcommand"]]
    for key, value in manifest["config"].items():
        if value is None or value is False:
            continue
        argv.append("--" + key.replace("_", "-"))
        if value is not True:
            argv.append(str(value))
    return argv + ["--out", str(out)]


REPLAY_RUNS = {
    "estimate-cv": ["estimate", "--input", "x.csv", "--tau-grid-size", "8",
                    "--n-lambda", "10", "--n-folds", "3"],
    "estimate-fixed": ["estimate", "--input", "x.csv", "--tau", "inf", "--lambda", "0.05"],
    "forecast": ["forecast", "--input", "x.csv", "--window", "60", "--tau-grid-size", "8",
                 "--n-lambda", "6", "--n-folds", "3", "--baseline", "--fixed-tau"],
    "fluctuation": ["evaluate", "--metric", "fluctuation", "--fe-a", "fa.csv",
                    "--fe-b", "fb.csv", "--mu", "0.25", "--plot"],
    "rme": ["evaluate", "--metric", "rme", "--norm", "l2", "--errs-a", "a.csv",
            "--errs-b", "b.csv"],
}


@pytest.mark.parametrize("name", REPLAY_RUNS)
def test_manifest_replays_identically(tmp_path, monkeypatch, name):
    monkeypatch.chdir(tmp_path)
    main(["simulate", "--dgp", str(write_dgp(tmp_path, n=66, p=4)), "--seed", "4",
          "--out", "sim"])
    x_lines = Path("sim/rep_0000/x.csv").read_text().splitlines(keepends=True)
    Path("x.csv").write_text("".join(x_lines))
    Path("x_bare.csv").write_text("".join(x_lines[1:]))
    rng = np.random.default_rng(0)
    for fe in ("fa.csv", "fb.csv"):
        rows = [f"{i},{abs(rng.standard_normal()):.6f},{abs(rng.standard_normal()):.6f}"
                for i in range(80)]
        Path(fe).write_text("\n".join(["origin,V1,V2", *rows]) + "\n")
    Path("a.csv").write_text("err\n0.5\n1.5\n")
    Path("b.csv").write_text("err\n1.0\n1.0\n")

    assert main([*REPLAY_RUNS[name], "--out", "first"]) == 0
    manifest = json.loads(Path("first/manifest.json").read_text())
    assert main(replay_argv(manifest, "second")) == 0
    first = read_bytes(tmp_path / "first")
    assert first and first == read_bytes(tmp_path / "second")
    assert json.loads(Path("second/manifest.json").read_text()) == manifest


def test_forecast_outputs_and_baseline_alignment(tmp_path):
    dgp = write_dgp(tmp_path, n=70, p=4)
    main(["simulate", "--dgp", str(dgp), "--reps", "1", "--seed", "9", "--out",
          str(tmp_path / "sim")])
    out = tmp_path / "fc"
    code = main([
        "forecast", "--input", str(tmp_path / "sim" / "rep_0000" / "x.csv"),
        "--window", "60", "--horizon", "1", "--d", "1", "--r", "0",
        "--tau", "inf", "--lambda", "0.1", "--out", str(out), "--baseline",
    ])
    assert code == 0
    main_fe = (out / "fe.csv").read_text().splitlines()
    base_fe = (out / "fe_baseline.csv").read_text().splitlines()
    assert main_fe[0] == "origin," + ",".join(f"V{i + 1}" for i in range(4))
    assert len(main_fe) == len(base_fe)
    # identical origins in both runs
    assert [row.split(",")[0] for row in main_fe] == [row.split(",")[0] for row in base_fe]


def test_forecast_of_no_origin_is_a_stage_error(tmp_path, capsys):
    # 20 factors do not fit a 10-variable panel, so every origin is skipped
    rng = np.random.default_rng(3)
    (tmp_path / "x.csv").write_text(
        ",".join(f"V{i + 1}" for i in range(10)) + "\n"
        + "\n".join(",".join(f"{v:.6f}" for v in row) for row in rng.standard_normal((40, 10)))
        + "\n"
    )
    out = tmp_path / "fc"
    code = main(["forecast", "--input", str(tmp_path / "x.csv"), "--window", "30",
                 "--r", "20", "--tau", "inf", "--lambda", "0.1", "--out", str(out)])
    assert code == 1
    assert capsys.readouterr().err == (
        "error:stage:forecast: no origin forecast; the first, 29, failed: "
        "factors: factor number r=20 outside 1..min(n, p)=10\n"
    )
    assert not out.exists()


def test_forecast_baseline_of_no_shared_origin_writes_nothing(tmp_path, capsys):
    # an entry of 1e200 overflows the untruncated moments of every window
    # holding it, so the baseline fails at each origin the clipped run forecasts
    x = simulate_panel(DgpSpec(n=130, p=5, seed=1)).x.values.copy()
    x[50, 0] = 1e200
    np.savetxt(tmp_path / "x.csv", x, delimiter=",", header="V1,V2,V3,V4,V5", comments="")
    out = tmp_path / "fc"
    code = main(["forecast", "--input", str(tmp_path / "x.csv"), "--window", "120",
                 "--tau", "3", "--baseline", "--out", str(out)])
    assert code == 1
    assert capsys.readouterr().err == (
        "error:stage:forecast: the baseline forecast none of the run's origins; its first "
        "failed, 119: gram: Gamma or gamma is not finite: the second moments overflow\n"
    )
    assert not out.exists()


def test_forecast_baseline_written_on_shared_origins(tmp_path):
    # a constant stretch zeroes the MAD of V1 in most windows, so the robust
    # run skips those origins while the untruncated baseline forecasts them
    rng = np.random.default_rng(0)
    x = rng.standard_normal((60, 4))
    x[10:35, 0] = 1.0
    np.savetxt(tmp_path / "x.csv", x, delimiter=",", header="V1,V2,V3,V4", comments="")
    out = tmp_path / "fc"
    code = main([
        "forecast", "--input", str(tmp_path / "x.csv"), "--window", "30", "--r", "0",
        "--tau-grid-size", "8", "--n-lambda", "6", "--n-folds", "3", "--out", str(out),
        "--baseline",
    ])
    assert code == 0
    origins = [
        [row.split(",")[0] for row in (out / name).read_text().splitlines()[1:]]
        for name in ("fe.csv", "fe_baseline.csv")
    ]
    assert origins[0] == origins[1]
    assert 0 < len(origins[0]) < 30
    code = main(["evaluate", "--metric", "fluctuation", "--fe-a", str(out / "fe.csv"),
                 "--fe-b", str(out / "fe_baseline.csv")])
    assert code == 0


def test_evaluate_rme_formatting_contract(tmp_path, capsys):
    (tmp_path / "a.csv").write_text("0.5\n0.5\n")
    (tmp_path / "b.csv").write_text("1.0\n1.0\n")
    code = main(["evaluate", "--metric", "rme", "--norm", "max",
                 "--errs-a", str(tmp_path / "a.csv"), "--errs-b", str(tmp_path / "b.csv")])
    assert code == 0
    assert capsys.readouterr().out.strip() == "rme max 0.5"


def test_evaluate_rme_refuses_unparsable_data_cells(tmp_path, capsys):
    # only line 1 may be a header; a bad cell further down is no row to skip
    (tmp_path / "b.csv").write_text("err\n1.0\n2.0\n3.0\n")
    argv = ["evaluate", "--metric", "rme", "--errs-a", str(tmp_path / "a.csv"),
            "--errs-b", str(tmp_path / "b.csv")]
    for text, lineno in (("err\n1.0\n2.0\nabc\n3.0\n", 4), ("err\n1.0\n2.0,x\n3.0\n", 3)):
        (tmp_path / "a.csv").write_text(text)
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:input:") and f"a.csv:{lineno}:" in err
    (tmp_path / "a.csv").write_text("err\n2.0\n4.0\n6.0\n")
    assert main(argv) == 0
    assert capsys.readouterr().out.strip() == "rme max 2"


def test_evaluate_rme_refuses_non_finite_cells_and_mistyped_headers(tmp_path, capsys):
    # a nan or inf cell is refused, not summed; line 1 is a header only when
    # no cell of it is a number or a mistyped one, else it is data
    (tmp_path / "b.csv").write_text("0.5,0.5\n")
    argv = ["evaluate", "--metric", "rme", "--errs-a", str(tmp_path / "a.csv"),
            "--errs-b", str(tmp_path / "b.csv")]
    for text, lineno, column in (("0.2\nnan\n", 2, 1), ("0.2,inf\n0.3\n", 1, 2),
                                 ("err,-inf\n0.2\n", 1, 1), ("0.9x\n0.2\n0.3\n", 1, 1),
                                 ("0.9,x\n0.2\n", 1, 2)):
        (tmp_path / "a.csv").write_text(text)
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:input:") and f"a.csv:{lineno}: column {column}:" in err
        assert err.count("\n") == 1
    (tmp_path / "a.csv").write_text("0.2\n")
    assert main(argv) == 1
    assert capsys.readouterr().err == "error:input: error streams must have equal length\n"
    (tmp_path / "a.csv").write_text("run a,run b\n0.2\n0.3\n")
    assert main(argv) == 0
    assert capsys.readouterr().out.strip() == "rme max 0.5"


def test_evaluate_fluctuation_outputs(tmp_path, capsys):
    rng = np.random.default_rng(0)
    rows = ["origin,V1,V2"]
    rows += [f"{i},{abs(rng.standard_normal()):.6f},{abs(rng.standard_normal()):.6f}"
             for i in range(80)]
    (tmp_path / "fa.csv").write_text("\n".join(rows) + "\n")
    rows_b = ["origin,V1,V2"]
    rows_b += [f"{i},{abs(rng.standard_normal()):.6f},{abs(rng.standard_normal()):.6f}"
               for i in range(80)]
    (tmp_path / "fb.csv").write_text("\n".join(rows_b) + "\n")
    out = tmp_path / "ev"
    code = main(["evaluate", "--metric", "fluctuation", "--fe-a", str(tmp_path / "fa.csv"),
                 "--fe-b", str(tmp_path / "fb.csv"), "--mu", "0.3", "--out", str(out),
                 "--plot"])
    assert code == 0
    printed = capsys.readouterr().out
    assert "fluctuation V1" in printed and "fluctuation V2" in printed
    assert (out / "fluctuation_summary.csv").exists()
    assert (out / "fluctuation_V1.csv").exists()
    svg = (out / "fluctuation_V1.svg").read_text()
    assert svg.startswith("<svg") and "polyline" in svg


@pytest.mark.parametrize("mu", ["1.0", "0", "nan"])
def test_evaluate_refuses_mu_outside_the_unit_interval_before_reading(tmp_path, capsys, mu):
    # --fe-a names no file: the bad flag is reported, not the missing file
    out = tmp_path / "ev"
    code = main(["evaluate", "--metric", "fluctuation", "--fe-a", str(tmp_path / "none.csv"),
                 "--fe-b", str(tmp_path / "none.csv"), "--mu", mu, "--out", str(out)])
    assert code == 2
    assert capsys.readouterr().err == (
        f"error:usage: --mu must lie strictly between 0 and 1, got {float(mu)}\n"
    )
    assert not out.exists()


@pytest.mark.parametrize("name, why", [("x/y", "cannot name an output file"),
                                       ("x" * 250, "cannot name an output file"),
                                       ("summary", "would overwrite fluctuation_summary.csv")],
                         ids=["separator", "too-long", "summary"])
def test_evaluate_refuses_series_names_that_cannot_name_a_file(tmp_path, capsys, name, why):
    rng = np.random.default_rng(1)
    for fe in ("fa.csv", "fb.csv"):
        rows = [f"origin,{name},z"] + [f"{i},{rng.random():.6f},{rng.random():.6f}"
                                       for i in range(40)]
        (tmp_path / fe).write_text("\n".join(rows) + "\n")
    out = tmp_path / "ev"
    code = main(["evaluate", "--metric", "fluctuation", "--fe-a", str(tmp_path / "fa.csv"),
                 "--fe-b", str(tmp_path / "fb.csv"), "--out", str(out)])
    assert code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:input:") and captured.err.count("\n") == 1
    assert why in captured.err
    assert not out.exists()


def test_unknown_flag_reports_usage_error(capsys):
    code = main(["estimate", "--nonsense"])
    assert code == 2
    assert "error:usage:" in capsys.readouterr().err


def test_missing_input_reports_input_error(tmp_path, capsys):
    code = main(["estimate", "--input", str(tmp_path / "nope.csv"), "--r", "0",
                 "--out", str(tmp_path / "o")])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error:input:")
    assert err.count("\n") == 1


def test_estimate_writes_names_holding_commas_readably(tmp_path):
    rng = np.random.default_rng(8)
    (tmp_path / "x.csv").write_text(
        '"a,b",c\n' + "\n".join(f"{u:.6f},{v:.6f}" for u, v in rng.standard_normal((30, 2)))
        + "\n"
    )
    out = tmp_path / "est"
    code = main(["estimate", "--input", str(tmp_path / "x.csv"), "--tau", "inf",
                 "--lambda", "0.01", "--out", str(out)])
    assert code == 0
    A = load_csv(out / "A_1.csv")
    assert A.names == ("a,b", "c") and A.values.shape == (2, 2)


def test_stage_error_category(tmp_path, capsys):
    # constant first column cannot be scaled, so the scales stage fails
    (tmp_path / "x.csv").write_text("a,b\n" + "\n".join(f"1,{i}" for i in range(20)) + "\n")
    code = main(["estimate", "--input", str(tmp_path / "x.csv"), "--r", "0",
                 "--out", str(tmp_path / "o")])
    assert code == 1
    assert capsys.readouterr().err == (
        "error:stage:scales: column 'a' (index 1) has zero median absolute deviation\n"
    )


def test_overflowing_moments_fail_at_their_stage(tmp_path, capsys):
    # squares of a column near 1e160 overflow: tau-CV and the Gram system refuse them
    x = np.random.default_rng(0).standard_normal((60, 4))
    x[:, 1] *= 1e160
    np.savetxt(tmp_path / "x.csv", x, delimiter=",", header="a,b,c,d", comments="")
    overflow = "is not finite: the second moments overflow"
    for tau, line in (
        ("cv", "tau-cv: tau-CV scores are not finite: the panel's second moments overflow"),
        ("inf", f"gram: Gamma or gamma {overflow}"),
        ("2.5", f"gram: Gamma or gamma {overflow}"),
    ):
        out = tmp_path / f"o_{tau}"
        code = main(["estimate", "--input", str(tmp_path / "x.csv"), "--tau", tau,
                     "--out", str(out)])
        assert code == 1
        assert capsys.readouterr().err == f"error:stage:{line}\n"
        assert not out.exists()


def test_moments_that_underflow_to_zero_fail_at_lambda_cv(tmp_path, capsys):
    # a tau of 1e-300 clips every entry to about 1e-300, whose squares are 0
    x = simulate_panel(DgpSpec(n=150, p=5, seed=2)).x
    np.savetxt(tmp_path / "x.csv", x.values, delimiter=",", header=",".join(x.names),
               comments="")
    out = tmp_path / "o"
    code = main(["estimate", "--input", str(tmp_path / "x.csv"), "--tau", "1e-300",
                 "--out", str(out)])
    assert code == 1
    assert capsys.readouterr().err == (
        "error:stage:lambda-cv: gamma is zero on the full data and every training fold: "
        "the second moments underflow\n"
    )
    assert not out.exists()


def test_failing_run_prints_one_stderr_line(tmp_path):
    # pytest captures numpy's RuntimeWarnings, so only a separate process
    # shows the whole stderr: the overflow must not warn ahead of the error
    x = np.random.default_rng(0).standard_normal((60, 4))
    x[:, 1] *= 1e160
    np.savetxt(tmp_path / "x.csv", x, delimiter=",", header="a,b,c,d", comments="")
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src, "PYTHONWARNINGS": "default"}
    for tau, stage in (("cv", "tau-cv"), ("inf", "gram")):
        done = subprocess.run(
            [sys.executable, "-m", "favar", "estimate", "--input", "x.csv", "--tau", tau,
             "--out", "o"], cwd=tmp_path, env=env, capture_output=True, text=True,
        )
        assert done.returncode == 1
        assert done.stderr.startswith(f"error:stage:{stage}: ")
        assert done.stderr.count("\n") == 1


INERT_FLAGS = {
    "r-max": (["estimate", "--r", "2", "--r-max", "4"], "--r-max", "--r"),
    "r-max-default-r": (["forecast", "--r-max", "4"], "--r-max", "--r"),
    "tau-grid-size": (["estimate", "--tau", "2.5", "--tau-grid-size", "8"],
                      "--tau-grid-size", "--tau"),
    "n-lambda": (["estimate", "--lambda", "0.1", "--n-lambda", "10"], "--n-lambda", "--lambda"),
    "n-folds": (["forecast", "--lambda", "0.1", "--n-folds", "3"], "--n-folds", "--lambda"),
    "reselect-r": (["forecast", "--r", "1", "--reselect-r"], "--reselect-r", "--r"),
    "fixed-tau": (["forecast", "--tau", "inf", "--fixed-tau"], "--fixed-tau", "--tau"),
}


@pytest.mark.parametrize("argv, flag, setting", INERT_FLAGS.values(), ids=INERT_FLAGS.keys())
def test_flags_a_fixed_setting_makes_inert_are_usage_errors(tmp_path, capsys, argv, flag,
                                                             setting):
    (tmp_path / "x.csv").write_text(
        "a,b\n" + "\n".join(f"{i % 7},{(3 * i) % 5}" for i in range(30)) + "\n"
    )
    out = tmp_path / "o"
    code = main([*argv, "--input", str(tmp_path / "x.csv"), "--out", str(out)])
    assert code == 2
    assert capsys.readouterr().err == f"error:usage: {flag} has no effect with a fixed {setting}\n"
    assert not out.exists()


BAD_CV_SIZES = {
    "estimate-grid": (["estimate", "--tau-grid-size", "1"],
                      "tau_grid_size must be at least 2, got 1"),
    "estimate-folds": (["estimate", "--n-folds", "1"], "n_folds must be at least 2, got 1"),
    "forecast-grid": (["forecast", "--tau-grid-size", "1"],
                      "tau_grid_size must be at least 2, got 1"),
    "forecast-folds": (["forecast", "--n-folds", "1"], "n_folds must be at least 2, got 1"),
    "estimate-lambdas": (["estimate", "--n-lambda", "0"], "n_lambda must be at least 1, got 0"),
    "forecast-lambdas": (["forecast", "--n-lambda", "0"], "n_lambda must be at least 1, got 0"),
    "estimate-r-max": (["estimate", "--r", "auto", "--r-max", "0"],
                       "r_max must be at least 1, got 0"),
    "forecast-r-max": (["forecast", "--r", "auto", "--r-max", "0"],
                       "r_max must be at least 1, got 0"),
}


@pytest.mark.parametrize("argv, message", BAD_CV_SIZES.values(), ids=BAD_CV_SIZES.keys())
def test_bad_cv_sizes_are_usage_errors(tmp_path, capsys, argv, message):
    (tmp_path / "x.csv").write_text(
        "a,b\n" + "\n".join(f"{i % 7},{(3 * i) % 5}" for i in range(30)) + "\n"
    )
    out = tmp_path / "o"
    code = main([*argv, "--input", str(tmp_path / "x.csv"), "--out", str(out)])
    assert code == 2
    assert capsys.readouterr().err == f"error:usage: {message}\n"
    assert not out.exists()


def experiment_config(tmp_path, reps=2, threads=1, tau="cv"):
    dgp = DgpSpec(n=60, p=6, var_design="banded", innovation="gaussian",
                  factor_design="none", burn_in=200, seed=0)
    return ExperimentConfig(
        dgp=dgp,
        reps=reps,
        seed=11,
        d=1,
        norms=("max_elementwise",),
        tau=tau,
        n_lambda=8,
        n_folds=3,
        tau_grid_size=10,
        threads=threads,
        out=tmp_path,
    )


def load_cell_runner():
    path = Path(__file__).resolve().parents[1] / "scripts" / "run_rme_cell.py"
    spec = importlib.util.spec_from_file_location("run_rme_cell", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_cell_runner_accepts_every_dgp_field_but_seed(tmp_path, monkeypatch, capsys):
    # every DgpSpec field reaches the cell's DgpSpec, set away from its default;
    # the seed is refused, as each replication's derives from --seed
    runner = load_cell_runner()
    values = {
        "n": 60, "p": 6, "var_design": "erdos_renyi", "innovation": "student_t", "nu": 2.5,
        "factor_design": "var1_factors", "r": 2, "sigma_eps": "power_decay", "burn_in": 100,
    }
    assert set(values) == {f.name for f in fields(DgpSpec)} - {"seed"}
    seen = []
    monkeypatch.setattr(runner, "run_experiment", lambda cfg, verbose: seen.append(cfg) or {})
    config = tmp_path / "cell.txt"
    config.write_text("".join(f"{key} = {value}\n" for key, value in values.items()))
    argv = ["--config", str(config), "--out", str(tmp_path / "cell"), "--reps", "1"]
    assert runner.main(argv) == 0
    assert seen[0].dgp == DgpSpec(seed=0, **values)
    config.write_text(config.read_text() + "seed = 3\n")
    with pytest.raises(SystemExit) as exc_info:
        runner.main(argv)
    assert exc_info.value.code == 2
    assert "unknown config keys: ['seed']" in capsys.readouterr().err


def test_cell_runner_runs_a_fixed_tau_and_refuses_unknown_keys(tmp_path, capsys):
    # tau is an ExperimentConfig field, so a fixed-tau cell runs and records it
    runner = load_cell_runner()
    config = tmp_path / "cell.txt"
    config.write_text("n = 60\np = 6\ntau = 2.5\nn_lambda = 8\nn_folds = 3\n")
    out = tmp_path / "cell"
    argv = ["--config", str(config), "--out", str(out), "--reps", "1"]
    assert runner.main(argv) == 0
    assert json.loads((out / "manifest.json").read_text())["config"]["tau"] == 2.5
    config.write_text(config.read_text() + "bogus = 1\n")
    with pytest.raises(SystemExit) as exc_info:
        runner.main(argv)
    assert exc_info.value.code == 2
    assert "unknown config keys: ['bogus']" in capsys.readouterr().err


def test_run_experiment_identical_arms_give_unit_rme(tmp_path):
    # forcing the "truncated" arm to tau = inf makes both arms the same fit
    cfg = experiment_config(tmp_path / "exp", reps=1, tau=math.inf)
    reports = run_experiment(cfg)
    assert reports["max_elementwise"].ratio == 1.0
    rep_files = sorted((tmp_path / "exp" / "replications").glob("rep_*.json"))
    assert len(rep_files) == 1


def test_experiment_manifest_records_every_cell_setting(tmp_path):
    configs = {}
    for tau in ("cv", math.inf):
        out = tmp_path / f"tau_{tau}"
        run_experiment(experiment_config(out, reps=1, tau=tau))
        configs[tau] = json.loads((out / "manifest.json").read_text())["config"]
        rep = json.loads((out / "replications" / "rep_0000.json").read_text())
        assert configs[tau] == {**rep["config"], "reps": 1}
    assert configs["cv"]["tau"] == "cv"
    assert configs[math.inf]["tau"] == math.inf


def test_run_experiment_resumes_and_matches_fresh_run(tmp_path):
    cfg_partial = experiment_config(tmp_path / "resume", reps=1)
    run_experiment(cfg_partial)
    cfg_full = experiment_config(tmp_path / "resume", reps=3)
    resumed = run_experiment(cfg_full)
    fresh = run_experiment(experiment_config(tmp_path / "fresh", reps=3))
    for norm in resumed:
        assert resumed[norm].numerator == fresh[norm].numerator
        assert resumed[norm].denominator == fresh[norm].denominator
    assert read_bytes(tmp_path / "resume") == read_bytes(tmp_path / "fresh")


def test_run_experiment_thread_count_invariance(tmp_path):
    solo = run_experiment(experiment_config(tmp_path / "t1", threads=1))
    multi = run_experiment(experiment_config(tmp_path / "t2", threads=4))
    assert read_bytes(tmp_path / "t1") == read_bytes(tmp_path / "t2")
    for norm in solo:
        assert solo[norm].ratio == multi[norm].ratio


def test_run_experiment_refuses_directory_of_another_configuration(tmp_path):
    out = tmp_path / "cell"
    cfg = experiment_config(out, reps=1)
    run_experiment(cfg)
    before = read_bytes(out)
    # settings no replication reads are not part of the fingerprint
    unread = replace(cfg, dgp=replace(cfg.dgp, seed=99, nu=5.0))
    assert run_experiment(unread)["max_elementwise"].ratio == run_experiment(cfg)["max_elementwise"].ratio
    assert read_bytes(out) == before
    changed = replace(cfg, reps=2, dgp=replace(cfg.dgp, innovation="student_t", nu=2.1))
    with pytest.raises(ValueError, match="dgp.innovation"):
        run_experiment(changed)
    assert read_bytes(out) == before


def test_run_experiment_rejects_zero_reps_before_writing(tmp_path):
    out = tmp_path / "cell"
    with pytest.raises(ValueError, match="reps"):
        run_experiment(experiment_config(out, reps=0))
    assert not out.exists()


@pytest.mark.parametrize("field, least", [("tau_grid_size", 2), ("n_folds", 2), ("n_lambda", 1)],
                         ids=["tau_grid_size", "n_folds", "n_lambda"])
def test_run_experiment_rejects_bad_cv_sizes_before_writing(tmp_path, field, least):
    out = tmp_path / "cell"
    with pytest.raises(ValueError, match=f"^{field} must be at least {least}"):
        run_experiment(replace(experiment_config(out), **{field: least - 1}))
    assert not out.exists()


@pytest.mark.parametrize("norms", [(), ("max_elementwise", "nope")], ids=["none", "unknown"])
def test_run_experiment_rejects_bad_norms_before_writing(tmp_path, norms):
    out = tmp_path / "cell"
    with pytest.raises(ValueError, match="^norms must name one or more of"):
        run_experiment(replace(experiment_config(out), norms=norms))
    assert not out.exists()


def test_cell_runner_reports_an_unknown_norm_as_a_usage_error(tmp_path, capsys):
    config = tmp_path / "cell.txt"
    config.write_text("n = 60\np = 6\n")
    out = tmp_path / "cell"
    with pytest.raises(SystemExit) as exc_info:
        load_cell_runner().main(["--config", str(config), "--out", str(out), "--reps", "1",
                                 "--norms", "max_elementwise,nope"])
    assert exc_info.value.code == 2
    assert "norms must name one or more of" in capsys.readouterr().err
    assert not out.exists()


def test_run_experiment_resumes_file_carrying_cv_lags(tmp_path, monkeypatch):
    # replication files written before cv_lags was removed store it as null
    cfg = experiment_config(tmp_path / "cell", reps=1)
    fresh = run_experiment(cfg)["max_elementwise"].ratio
    rep_file = tmp_path / "cell" / "replications" / "rep_0000.json"
    record = json.loads(rep_file.read_text())
    record["config"]["cv_lags"] = None
    rep_file.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    before = rep_file.read_bytes()

    def recompute(cfg, rep):
        raise AssertionError("replication recomputed")

    monkeypatch.setattr(cli, "_run_replication", recompute)
    assert run_experiment(cfg)["max_elementwise"].ratio == fresh
    assert rep_file.read_bytes() == before


def test_run_experiment_recomputes_truncated_replication(tmp_path):
    fresh = run_experiment(experiment_config(tmp_path / "fresh", reps=1))
    cfg = experiment_config(tmp_path / "cut", reps=1)
    run_experiment(cfg)
    rep_file = tmp_path / "cut" / "replications" / "rep_0000.json"
    rep_file.write_bytes(rep_file.read_bytes()[:40])
    resumed = run_experiment(cfg)
    assert resumed["max_elementwise"].ratio == fresh["max_elementwise"].ratio
    assert read_bytes(tmp_path / "cut") == read_bytes(tmp_path / "fresh")
    assert [p.name for p in (tmp_path / "cut" / "replications").iterdir()] == ["rep_0000.json"]


def test_directory_as_input_reports_input_error(tmp_path, capsys):
    code = main(["estimate", "--input", str(tmp_path), "--out", str(tmp_path / "o")])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error:input:")
    assert err.count("\n") == 1


def test_unexpected_exception_reports_internal_error(tmp_path, capsys, monkeypatch):
    def broken(args):
        raise RuntimeError("boom")

    monkeypatch.setattr(cli, "cmd_simulate", broken)
    code = main(["simulate", "--dgp", str(write_dgp(tmp_path)), "--out", str(tmp_path / "o")])
    assert code == 1
    assert capsys.readouterr().err == "error:internal: RuntimeError: boom\n"


def test_tau_and_lambda_flags_reach_fit_options(tmp_path, monkeypatch, capsys):
    (tmp_path / "x.csv").write_text(
        "a,b\n" + "\n".join(f"{i % 7},{(3 * i) % 5}" for i in range(30)) + "\n"
    )
    seen = []

    def capture(x, opts):
        seen.append(opts)
        raise RuntimeError("captured")

    monkeypatch.setattr(cli, "fit", capture)
    monkeypatch.setattr(cli, "rolling_forecast", capture)
    flags = ["--input", str(tmp_path / "x.csv"), "--out", str(tmp_path / "o")]
    main(["estimate", *flags, "--tau", "cv", "--lambda", "cv"])
    main(["forecast", "--window", "20", *flags, "--tau", "cv", "--lambda", "cv"])
    main(["estimate", *flags, "--tau", "inf", "--lambda", "0.1"])
    main(["forecast", "--window", "20", *flags])
    assert [(o.tau, o.lam) for o in seen] == [
        ("cv", "cv"), ("cv", "cv"), (math.inf, 0.1), ("cv", "cv"),
    ]
    # a flag is honoured where its setting is cross-validated; one left out
    # takes the options' default
    main(["estimate", *flags, "--r", "auto", "--r-max", "4", "--tau-grid-size", "8",
          "--n-lambda", "10", "--n-folds", "3"])
    main(["forecast", "--window", "20", *flags, "--r", "auto", "--reselect-r", "--fixed-tau"])
    assert [(o.r_max, o.tau_grid_size, o.n_lambda, o.n_folds) for o in seen[2:]] == [
        (None, 60, 50, 5), (None, 60, 50, 5), (4, 8, 10, 3), (None, 60, 50, 5),
    ]
    assert seen[-1].reselect_r and not seen[-1].reselect_tau
    capsys.readouterr()
    # a word the flag does not take, or a value the options refuse
    for bad in (["--tau", "auto"], ["--lambda", "x"], ["--r", "cv"], ["--r", "-1"],
                ["--tau", "0"], ["--lambda", "inf"], ["--lambda", "nan"]):
        assert main(["estimate", *flags, *bad]) == 2
        assert capsys.readouterr().err.startswith("error:usage:")


def test_removed_flags_report_usage_error(tmp_path, capsys):
    dgp = str(write_dgp(tmp_path))
    assert main(["--threads", "2", "simulate", "--dgp", dgp, "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err.startswith("error:usage:")
    assert main(["forecast", "--input", "x.csv", "--cv-lags", "1", "--out", "o"]) == 2
    assert capsys.readouterr().err.startswith("error:usage:")
    assert main(["estimate", "--input", "x.csv", "--cv-lags", "2", "--out", "o"]) == 2
    assert capsys.readouterr().err.startswith("error:usage:")
    assert main(["cv-tau", "--input", "x.csv", "--out", "o"]) == 2
    assert capsys.readouterr().err.startswith("error:usage:")
    for flag, value in (("--tau-cv", None), ("--lambda-cv", None), ("--order", "1"),
                        ("--folds", "3"), ("--factors", "2")):
        for command in ("estimate", "forecast"):
            argv = [command, "--input", "x.csv", flag, *([value] if value else []), "--out", "o"]
            assert main(argv) == 2
            assert capsys.readouterr().err.startswith("error:usage:")


def test_manifests_carry_no_thread_count(tmp_path):
    dgp = write_dgp(tmp_path, n=40, p=3)
    main(["simulate", "--dgp", str(dgp), "--seed", "1", "--out", str(tmp_path / "sim")])
    main(["estimate", "--input", str(tmp_path / "sim" / "rep_0000" / "x.csv"),
          "--tau", "inf", "--lambda", "0.1", "--out", str(tmp_path / "est")])
    for run in ("sim", "est"):
        manifest = json.loads((tmp_path / run / "manifest.json").read_text())
        assert "threads" not in manifest
        assert "threads" not in manifest["config"]
