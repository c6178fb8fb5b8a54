import json
import math
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from favar import cli
from favar.cli import ExperimentConfig, main, parse_config, run_experiment
from favar.simulate import DgpSpec


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
    dgp = write_dgp(tmp_path, bogus=1)
    code = main(["simulate", "--dgp", str(dgp), "--out", str(tmp_path / "o")])
    assert code == 1
    assert capsys.readouterr().err.startswith("error:input:")


def test_estimate_artifact_layout(tmp_path):
    dgp = write_dgp(tmp_path, factor_design="var1_factors", r=2, n=120, p=10)
    main(["simulate", "--dgp", str(dgp), "--reps", "1", "--seed", "3", "--out",
          str(tmp_path / "sim")])
    out = tmp_path / "est"
    code = main([
        "estimate", "--input", str(tmp_path / "sim" / "rep_0000" / "x.csv"),
        "--r", "2", "--d", "1", "--tau-cv", "--n-lambda", "15", "--folds", "3",
        "--out", str(out),
    ])
    assert code == 0
    for name in ("loadings.csv", "factors.csv", "A_1.csv", "summary.txt", "manifest.json"):
        assert (out / name).exists()
    summary = (out / "summary.txt").read_text()
    assert "tau" in summary and "lambda" in summary and "nonzeros" in summary


def test_estimate_manifest_replays_identically(tmp_path):
    dgp = write_dgp(tmp_path, n=100, p=8)
    main(["simulate", "--dgp", str(dgp), "--reps", "1", "--seed", "5", "--out",
          str(tmp_path / "sim")])
    x_csv = str(tmp_path / "sim" / "rep_0000" / "x.csv")
    first = tmp_path / "fit1"
    main(["estimate", "--input", x_csv, "--r", "0", "--d", "1",
          "--n-lambda", "10", "--folds", "3", "--out", str(first)])
    manifest = json.loads((first / "manifest.json").read_text())
    cfg = manifest["config"]
    second = tmp_path / "fit2"
    code = main([
        "estimate", "--input", cfg["input"], "--r", str(cfg["r"]), "--d", str(cfg["d"]),
        "--tau", format(cfg["tau"], ".17g"), "--lambda", format(cfg["lambda"], ".17g"),
        "--out", str(second),
    ])
    assert code == 0
    # numeric artifacts replay bit for bit; summary.txt differs only in the
    # cv-vs-fixed provenance labels
    first_files = read_bytes(first)
    second_files = read_bytes(second)
    first_files.pop("summary.txt")
    second_files.pop("summary.txt")
    assert first_files == second_files


def test_forecast_manifest_replays_identically(tmp_path):
    dgp = write_dgp(tmp_path, n=66, p=4)
    main(["simulate", "--dgp", str(dgp), "--reps", "1", "--seed", "4", "--out",
          str(tmp_path / "sim")])
    first = tmp_path / "fc1"
    main(["forecast", "--input", str(tmp_path / "sim" / "rep_0000" / "x.csv"),
          "--window", "60", "--r", "0", "--tau-grid-size", "8", "--n-lambda", "6",
          "--folds", "3", "--out", str(first)])
    cfg = json.loads((first / "manifest.json").read_text())["config"]
    second = tmp_path / "fc2"
    argv = [
        "forecast", "--input", cfg["input"], "--window", str(cfg["window"]),
        "--horizon", str(cfg["horizon"]), "--order", str(cfg["d"]), "--r", str(cfg["r"]),
        "--r-max", str(cfg["r_max"]), "--tau-grid-size", str(cfg["tau_grid_size"]),
        "--n-lambda", str(cfg["n_lambda"]), "--folds", str(cfg["n_folds"]),
        "--out", str(second),
    ]
    argv += ["--tau-cv"] if cfg["tau"] == "cv" else ["--tau", format(cfg["tau"], ".17g")]
    argv += ["--lambda-cv"] if cfg["lam"] == "cv" else ["--lambda", format(cfg["lam"], ".17g")]
    argv += ["--reselect-r"] * cfg["reselect_r"] + ["--fixed-tau"] * (not cfg["reselect_tau"])
    argv += ["--no-header"] * cfg["no_header"] + ["--baseline"] * cfg["baseline"]
    assert main(argv) == 0
    for name in ("forecasts.csv", "fe.csv"):
        assert (second / name).read_bytes() == (first / name).read_bytes()


def test_cv_tau_subcommand(tmp_path, capsys):
    dgp = write_dgp(tmp_path, innovation="student_t", nu=2.1, n=100, p=5)
    main(["simulate", "--dgp", str(dgp), "--reps", "1", "--seed", "2", "--out",
          str(tmp_path / "sim")])
    out = tmp_path / "cv"
    code = main(["cv-tau", "--input", str(tmp_path / "sim" / "rep_0000" / "x.csv"),
                 "--tau-grid-size", "10", "--cv-lags", "1", "--out", str(out)])
    assert code == 0
    assert "\ntau " in "\n" + capsys.readouterr().out
    table = (out / "tau_scores.csv").read_text().splitlines()
    assert table[0] == "tau,score"
    assert len(table) == 11


def test_forecast_outputs_and_baseline_alignment(tmp_path):
    dgp = write_dgp(tmp_path, n=70, p=4)
    main(["simulate", "--dgp", str(dgp), "--reps", "1", "--seed", "9", "--out",
          str(tmp_path / "sim")])
    out = tmp_path / "fc"
    code = main([
        "forecast", "--input", str(tmp_path / "sim" / "rep_0000" / "x.csv"),
        "--window", "60", "--horizon", "1", "--order", "1", "--r", "0",
        "--tau", "inf", "--lambda", "0.1", "--out", str(out), "--baseline",
    ])
    assert code == 0
    main_fe = (out / "fe.csv").read_text().splitlines()
    base_fe = (out / "fe_baseline.csv").read_text().splitlines()
    assert main_fe[0] == "origin," + ",".join(f"V{i + 1}" for i in range(4))
    assert len(main_fe) == len(base_fe)
    # identical origins in both runs
    assert [row.split(",")[0] for row in main_fe] == [row.split(",")[0] for row in base_fe]


def test_evaluate_rme_formatting_contract(tmp_path, capsys):
    (tmp_path / "a.csv").write_text("0.5\n0.5\n")
    (tmp_path / "b.csv").write_text("1.0\n1.0\n")
    code = main(["evaluate", "--metric", "rme", "--norm", "max",
                 "--errs-a", str(tmp_path / "a.csv"), "--errs-b", str(tmp_path / "b.csv")])
    assert code == 0
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


def test_stage_error_category(tmp_path, capsys):
    # constant first column cannot be scaled, so the scales stage fails
    (tmp_path / "x.csv").write_text("a,b\n" + "\n".join(f"1,{i}" for i in range(20)) + "\n")
    code = main(["estimate", "--input", str(tmp_path / "x.csv"), "--r", "0",
                 "--out", str(tmp_path / "o")])
    assert code == 1
    assert capsys.readouterr().err.startswith("error:stage:scales:")


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


def test_cv_flags_win_over_fixed_values_in_estimate_and_forecast(tmp_path, monkeypatch):
    (tmp_path / "x.csv").write_text(
        "a,b\n" + "\n".join(f"{i % 7},{(3 * i) % 5}" for i in range(30)) + "\n"
    )
    seen = []

    def capture(x, opts):
        seen.append(opts)
        raise RuntimeError("captured")

    monkeypatch.setattr(cli, "fit", capture)
    monkeypatch.setattr(cli, "rolling_forecast", capture)
    flags = ["--input", str(tmp_path / "x.csv"), "--tau", "2", "--tau-cv",
             "--lambda", "0.1", "--lambda-cv", "--out", str(tmp_path / "o")]
    main(["estimate", *flags])
    main(["forecast", "--window", "20", *flags])
    assert [(o.tau, o.lam) for o in seen] == [("cv", "cv"), ("cv", "cv")]


def test_removed_flags_report_usage_error(tmp_path, capsys):
    dgp = str(write_dgp(tmp_path))
    assert main(["--threads", "2", "simulate", "--dgp", dgp, "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err.startswith("error:usage:")
    assert main(["forecast", "--input", "x.csv", "--cv-lags", "1", "--out", "o"]) == 2
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
