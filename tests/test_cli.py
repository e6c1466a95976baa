import json

import pytest

from safebo.cli import main


def tiny_document(**overrides):
    document = {
        "spec": 1,
        "name": "cli-tiny",
        "domain": {"bounds": [[0.0, 1.0]], "resolution": [60]},
        "kernel": {"family": "matern32", "lengthscale": 0.1, "output_scale": 1.0},
        "noise": {"family": "uniform", "low": -1e-3, "high": 1e-3},
        "violation_prob": 0.1,
        "confidence_level": 1e-3,
        "regularization": 1e-2,
        "exploration_threshold": 0.1,
        "subgaussian_scale": 1e-3,
        "norm_bound": 1.0,
        "beta_modes": ["scenario"],
        "seeds": [0],
        "max_iterations": 8,
        "constraint": {"kind": "self", "quantile": 0.4},
        "n_centers": 12,
        "collapse_policy": "reset",
    }
    document.update(overrides)
    return document


def test_presets_lists_bundled_configs(capsys):
    assert main(["presets"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert "paper-synthetic-1" in out
    assert "paper-synthetic-2" in out


def test_run_with_config_writes_outputs(tmp_path, capsys):
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(tiny_document()))
    out_dir = tmp_path / "results"
    code = main(["run", "--config", str(config_path), "--out", str(out_dir)])
    assert code == 0
    assert (out_dir / "run_s0_scenario.csv").exists()
    assert (out_dir / "summary.json").exists()


def test_run_with_preset_and_overrides(tmp_path):
    out_dir = tmp_path / "results"
    code = main(
        [
            "run",
            "--preset", "paper-synthetic-1",
            "--seed", "3",
            "--max-iterations", "5",
            "--mode", "scenario",
            "--out", str(out_dir),
        ]
    )
    assert code == 0
    assert (out_dir / "run_s3_scenario.csv").exists()
    summary = json.loads((out_dir / "summary.json").read_text())
    assert summary["config"]["seeds"] == [3]
    assert summary["config"]["max_iterations"] == 5


def test_run_without_config_is_a_config_error(capsys):
    with pytest.raises(SystemExit) as exited:
        main(["run"])
    assert exited.value.code == 2
    assert "--config" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["presets", "--seed", "3", "--out", "x", "--config", "missing.json"],
        ["run", "--preset", "paper-synthetic-1", "--config", "missing.json"],
        ["scale-study", "--config", "missing.json"],
        ["scale-study", "--seed", "3"],
        ["beta-report", "--trace", "run.csv", "--config", "missing.json"],
        ["beta-report", "--trace", "run.csv", "--seed", "3"],
    ],
    ids=["presets", "run-config-and-preset", "scale-config", "scale-seed", "beta-config",
         "beta-seed"],
)
def test_subcommand_rejects_flags_it_does_not_read(argv, capsys):
    with pytest.raises(SystemExit) as exited:
        main(argv)
    assert exited.value.code == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("jobs", ["0", "-3"])
def test_run_rejects_a_worker_count_below_one(jobs, tmp_path, capsys):
    out_dir = tmp_path / "out"
    assert main(["run", "--preset", "paper-synthetic-1", "--jobs", jobs, "--out", str(out_dir)]) == 2
    assert f"--jobs must be at least 1, got {jobs}" in capsys.readouterr().err
    assert not out_dir.exists()


def test_run_with_invalid_config_exits_two(tmp_path):
    config_path = tmp_path / "broken.json"
    config_path.write_text(json.dumps(tiny_document(spec=7)))
    assert main(["run", "--config", str(config_path)]) == 2


@pytest.mark.parametrize(
    "edit, key",
    [
        (lambda d: d["kernel"].update(lengthscale=float("nan")), "kernel.lengthscale"),
        (lambda d: d.update(violation_prob=float("nan")), "violation_prob"),
        (lambda d: d.update(exploration_threshold=float("inf")), "exploration_threshold"),
        (lambda d: d["domain"].update(bounds=[[1.0, 0.0]]), "domain"),
        (lambda d: d["domain"].update(resolution=[60, 60]), "domain"),
        (lambda d: d.update(noise={"family": "uniform", "lo": 0}), "noise"),
        (lambda d: d.update(noise={"family": "uniform", "low": 1, "high": 0}), "noise"),
        (lambda d: d.update(noise={"family": "gaussian", "variance": float("nan")}), "noise"),
        (lambda d: d.update(violation_prob=1e-12), "violation_prob"),
        (lambda d: d.update(norm_bound=10**400), "norm_bound"),
    ],
    ids=["nan-lengthscale", "nan-violation-prob", "infinite-threshold", "empty-box",
         "resolution-per-missing-bound", "unknown-noise-key", "empty-noise-interval",
         "nan-noise-variance", "degenerate-violation-prob", "integer-too-large-for-a-float"],
)
def test_run_with_unusable_config_exits_two_before_running(tmp_path, capsys, edit, key):
    document = tiny_document()
    edit(document)
    config_path = tmp_path / "config.json"
    # Python's JSON writer spells NaN and infinity as its reader accepts them.
    config_path.write_text(json.dumps(document))
    out_dir = tmp_path / "results"
    assert main(["run", "--config", str(config_path), "--out", str(out_dir)]) == 2
    assert f"config error: invalid experiment config: {key}: " in capsys.readouterr().err
    assert not out_dir.exists()


@pytest.mark.parametrize(
    "text, reason",
    [
        pytest.param(text, "invalid experiment config: document: expected object", id=text)
        for text in ["[]", "3", '"config"', "null"]
    ]
    + [
        pytest.param(b'{"spec": 1,\n"name": "caf\xe9"}', "{path}: line 2: not UTF-8", id="latin-1"),
    ],
)
def test_run_with_non_object_config_exits_two(tmp_path, capsys, text, reason):
    config_path = tmp_path / "config.json"
    if isinstance(text, bytes):
        config_path.write_bytes(text)
    else:
        config_path.write_text(text)
    assert main(["run", "--config", str(config_path), "--seed", "0"]) == 2
    err = capsys.readouterr().err
    assert "config error: " + reason.format(path=config_path) in err
    assert "Traceback" not in err


def test_scale_study_stdout(capsys):
    code = main(["scale-study", "--nu", "0.1", "--nu", "0.05", "--kappa", "1e-3", "--t", "1"])
    assert code == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0].split(",")[0] == "violation_prob"
    assert len(lines) == 3


@pytest.mark.parametrize(
    "flag, value, reason",
    [
        ("--nu", "0", "violation_prob must lie strictly inside (0, 1), got 0.0"),
        ("--nu", "1.5", "violation_prob must lie strictly inside (0, 1), got 1.5"),
        ("--kappa", "0", "confidence must lie strictly inside (0, 1), got 0.0"),
        ("--outputs", "0", "need at least one output, got 0"),
        ("--t", "0", "iteration counter starts at 1, got 0"),
        ("--nu", "1e-12", "scenario count exceeds 1e9; violation level is degenerately small"),
    ],
)
def test_scale_study_rejects_out_of_range_values(capsys, flag, value, reason):
    assert main(["scale-study", flag, value]) == 2
    assert capsys.readouterr().err == f"config error: scale-study: {reason}\n"


def test_scale_study_to_file(tmp_path):
    out = tmp_path / "table.csv"
    assert main(["scale-study", "--t", "1", "--out", str(out)]) == 0
    assert out.read_text().startswith("violation_prob")


def test_beta_report_from_emitted_trace(tmp_path, capsys):
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(tiny_document(max_iterations=6)))
    out_dir = tmp_path / "results"
    main(["run", "--config", str(config_path), "--out", str(out_dir)])
    capsys.readouterr()

    report = tmp_path / "beta.csv"
    code = main(
        ["beta-report", "--trace", str(out_dir / "run_s0_scenario.csv"), "--out", str(report)]
    )
    assert code == 0
    lines = report.read_text().strip().splitlines()
    assert lines[0] == "t,beta_bar,sqrt_t,exceeds_sqrt_envelope"
    assert len(lines) >= 2


def test_beta_report_rejects_foreign_csv(tmp_path, capsys):
    header = "iteration,x0,beta0,beta1\n"
    cases = [
        (b"x,y\n1,2\n", "does not look like an emitted run CSV"),
        ((header + "1,0.5,1.0,abc\n").encode(), "line 2: could not convert string to float"),
        ((header + "1,0.5,1.0,2.0\n2,0.5\n").encode(), "line 3: 2 cells, the header has 4"),
        ((header + "1,0.5,1.0,2.0\n2,0.5,nan,2.0\n").encode(), "line 3: beta is not finite"),
        ((header + "1,0.5,inf,2.0\n").encode(), "line 2: beta is not finite"),
        (header.encode() + b"1,0.5,1.0,2.0\n2,\xff,1.0,2.0\n", "line 3: not UTF-8"),
    ]
    for data, reason in cases:
        alien = tmp_path / "alien.csv"
        alien.write_bytes(data)
        assert main(["beta-report", "--trace", str(alien)]) == 2, reason
        err = capsys.readouterr().err
        assert reason in err and str(alien) in err


def test_beta_report_rejects_empty_trace(tmp_path, capsys):
    empty = tmp_path / "empty.csv"
    empty.write_text("")
    assert main(["beta-report", "--trace", str(empty)]) == 2
    assert "does not look like an emitted run CSV" in capsys.readouterr().err


def test_strict_run_exits_three_on_collapse(tmp_path, capsys):
    # Heavy-tailed noise under the classic multiplier contradicts its own
    # intervals; strict mode must surface that instead of resetting.
    code = main(
        [
            "run",
            "--preset", "paper-synthetic-2",
            "--seed", "1",
            "--mode", "classic_subgaussian",
            "--strict",
            "--out", str(tmp_path / "strict"),
        ]
    )
    assert code == 3
    assert "collapse" in capsys.readouterr().err


def test_log_level_comes_from_environment(monkeypatch):
    import logging

    from safebo.cli import _configure_logging

    monkeypatch.setenv("SAFE_BO_LOG", "debug")
    root = logging.getLogger()
    old = root.level
    try:
        root.handlers.clear()
        _configure_logging()
        assert root.level == logging.DEBUG
    finally:
        root.setLevel(old)
