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


def test_run_with_invalid_config_exits_two(tmp_path):
    config_path = tmp_path / "broken.json"
    config_path.write_text(json.dumps(tiny_document(spec=7)))
    assert main(["run", "--config", str(config_path)]) == 2


def test_scale_study_stdout(capsys):
    code = main(["scale-study", "--nu", "0.1", "--nu", "0.05", "--kappa", "1e-3", "--t", "1"])
    assert code == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0].split(",")[0] == "violation_prob"
    assert len(lines) == 3


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


def test_beta_report_rejects_foreign_csv(tmp_path):
    alien = tmp_path / "alien.csv"
    alien.write_text("x,y\n1,2\n")
    assert main(["beta-report", "--trace", str(alien)]) == 2


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
