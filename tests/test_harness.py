import json
import math

import numpy as np
import pytest

from safebo import ExperimentConfig, metric_matrix, reachable_set, run_single, scaling_study
from safebo.harness import (
    PRESETS,
    ConfigError,
    beta_growth_report,
    build_synthetic_problem,
    emit,
    run_experiment,
    trace_csv_lines,
    validate_config,
)
from safebo.synthetic import RkhsFunction, ShiftedFunction


def tiny_config(**overrides):
    document = {
        "spec": 1,
        "name": "tiny",
        "domain": {"bounds": [[0.0, 1.0]], "resolution": [80]},
        "kernel": {"family": "matern32", "lengthscale": 0.1, "output_scale": 1.0},
        "noise": {"family": "uniform", "low": -1e-3, "high": 1e-3},
        "violation_prob": 0.1,
        "confidence_level": 1e-3,
        "regularization": 1e-2,
        "exploration_threshold": 0.1,
        "subgaussian_scale": 1e-3,
        "norm_bound": 1.0,
        "beta_modes": ["scenario"],
        "seeds": [0, 1],
        "max_iterations": 12,
        "constraint": {"kind": "self", "quantile": 0.4},
        "n_centers": 15,
        "collapse_policy": "reset",
    }
    document.update(overrides)
    return ExperimentConfig.from_dict(document)


class TestConfigValidation:
    def test_presets_validate(self):
        for name in PRESETS:
            validate_config(PRESETS[name])
            ExperimentConfig.from_preset(name)

    def test_round_trip(self):
        config = tiny_config()
        assert ExperimentConfig.from_dict(config.to_dict()) == config

    def test_missing_field_rejected(self):
        document = tiny_config().to_dict()
        del document["noise"]
        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict(document)

    def test_wrong_schema_version_rejected(self):
        document = tiny_config().to_dict()
        document["spec"] = 2
        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict(document)

    def test_unknown_key_rejected(self):
        document = tiny_config().to_dict()
        document["learning_rate"] = 0.1
        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict(document)

    def test_unknown_preset_rejected(self):
        with pytest.raises(ConfigError, match="unknown preset"):
            ExperimentConfig.from_preset("paper-synthetic-99")

    def test_synthetic_2d_preset_can_explore(self):
        # The ground-truth reachable ceiling of every seed, grown from the
        # run's start point at the exploration margin, holds more than it.
        config = ExperimentConfig.from_preset("synthetic-2d", {"max_iterations": 0})
        points = config.build_domain().points
        metric = metric_matrix(config.build_kernel(), points)
        for trace in run_experiment(config).traces:
            truth = trace.ground_truth
            functions = [
                ShiftedFunction.from_config(f) if "base" in f else RkhsFunction.from_config(f)
                for f in truth["functions"]
            ]
            constraints = truth["constraint_indices"]
            values = np.stack([f(points) for f in functions])[constraints]
            start = np.zeros(len(points), dtype=bool)
            start[truth["initial_safe"]] = True
            ceiling = reachable_set(
                values, np.full(len(constraints), config.norm_bound), metric,
                config.exploration_threshold, start,
            )
            assert ceiling.sum() > 1, trace.seed

    def test_preset_overrides_apply(self):
        config = ExperimentConfig.from_preset("paper-synthetic-1", {"seeds": [5]})
        assert config.seeds == (5,)

    def test_integer_valued_numbers_echo_as_floats(self):
        config = tiny_config(norm_bound=1, domain={"bounds": [[0, 1]], "resolution": [80]})
        document = config.to_dict()
        assert document["norm_bound"] == 1.0
        assert isinstance(document["norm_bound"], float)
        assert document["domain"]["bounds"] == [[0.0, 1.0]]
        assert all(isinstance(v, float) for v in document["domain"]["bounds"][0])
        assert document == tiny_config().to_dict()

    def test_defaults_fill_partial_constraint(self):
        config = tiny_config(constraint={"kind": "independent"})
        assert config.constraint == {"kind": "independent", "quantile": 0.4}


class TestSyntheticProblem:
    def test_self_constraint_single_output(self, rng):
        problem = build_synthetic_problem(tiny_config(), rng)
        assert len(problem.functions) == 1
        assert problem.constraint_indices == (0,)
        values = problem.grid_values()
        start = problem.initial_safe[0]
        assert values[0, start] >= 0.0

    def test_independent_constraint_two_outputs(self, rng):
        config = tiny_config(constraint={"kind": "independent", "quantile": 0.4})
        problem = build_synthetic_problem(config, rng)
        assert len(problem.functions) == 2
        assert problem.constraint_indices == (1,)
        start = problem.initial_safe[0]
        assert problem.grid_values()[1, start] >= 0.0

    def test_ground_truth_shared_across_modes(self):
        config = tiny_config(beta_modes=["scenario", "classic_subgaussian"])
        a = run_single(config, 0, "scenario")
        b = run_single(config, 0, "classic_subgaussian")
        assert a.ground_truth == b.ground_truth
        assert a.initial_safe == b.initial_safe

    def test_disabled_mode_rejected(self):
        with pytest.raises(ConfigError, match="not enabled"):
            run_single(tiny_config(), 0, "classic_subgaussian")


class TestRunExperiment:
    def test_runs_all_seed_mode_pairs(self):
        config = tiny_config(beta_modes=["scenario", "classic_subgaussian"])
        result = run_experiment(config)
        assert [(t.seed, t.beta_mode) for t in result.traces] == [
            (0, "scenario"),
            (0, "classic_subgaussian"),
            (1, "scenario"),
            (1, "classic_subgaussian"),
        ]
        assert set(result.summary["aggregate"]) == {"scenario", "classic_subgaussian"}

    def test_zero_iterations_reports_start_only(self, tmp_path):
        result = run_experiment(tiny_config(max_iterations=0))
        for trace in result.traces:
            assert trace.iterations == 0
            assert trace.final_safe_size == 1
            assert trace.final_best_index == trace.initial_safe[0]
        # No experiment gives no lower bound: strict JSON, with null there.
        emit(result, tmp_path)

        def reject(constant):
            raise ValueError(f"non-standard JSON constant {constant}")

        text = (tmp_path / "summary.json").read_text(encoding="utf-8")
        summary = json.loads(text, parse_constant=reject)
        assert [run["final_best_lower"] for run in summary["runs"]] == [None, None]

    def test_parallel_matches_serial(self):
        config = tiny_config()
        serial = run_experiment(config, jobs=1)
        parallel = run_experiment(config, jobs=2)
        assert serial.summary == parallel.summary
        for a, b in zip(serial.traces, parallel.traces):
            assert a.records == b.records

    def test_empty_seed_list_gives_empty_battery(self):
        config = tiny_config(seeds=[])
        for jobs in (1, 2):
            result = run_experiment(config, jobs=jobs)
            assert result.traces == ()
            assert result.summary["runs"] == []
            assert result.summary["aggregate"]["scenario"]["runs"] == 0

    def test_best_lower_series_nondecreasing(self):
        result = run_experiment(tiny_config(max_iterations=30))
        for trace in result.traces:
            series = [rec.best_lower for rec in trace.records]
            finite = [v for v in series if not math.isinf(v)]
            assert finite == sorted(finite)

    def test_violations_use_ground_truth(self):
        result = run_experiment(tiny_config(max_iterations=20))
        for trace in result.traces:
            for rec, flagged in zip(trace.records, trace.violations):
                assert flagged == (min(rec.true_values) < 0.0)


class TestEmit:
    def test_file_layout(self, tmp_path):
        result = run_experiment(tiny_config())
        paths = emit(result, tmp_path)
        names = sorted(p.name for p in paths)
        assert names == [
            "run_s0_scenario.csv",
            "run_s1_scenario.csv",
            "summary.json",
        ]
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert summary["spec"] == 1
        assert len(summary["runs"]) == 2

    def test_empty_trace_emits_header_only(self, tmp_path):
        result = run_experiment(tiny_config(max_iterations=0))
        emit(result, tmp_path)
        lines = (tmp_path / "run_s0_scenario.csv").read_text().strip().splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("t,a0,y0,eps_bar0,m,beta0,")

    def test_column_order(self):
        config = tiny_config(
            constraint={"kind": "independent", "quantile": 0.4}, max_iterations=3
        )
        trace = run_single(config, 0, "scenario")
        header = trace_csv_lines(trace)[0].split(",")
        assert header == [
            "t", "a0", "y0", "y1", "eps_bar0", "eps_bar1", "m",
            "beta0", "beta1", "safe_set_size", "max_width", "best_lower", "violation",
        ]

    def test_reruns_byte_identical(self, tmp_path):
        config = tiny_config()
        first = emit(run_experiment(config), tmp_path / "a")
        second = emit(run_experiment(config), tmp_path / "b")
        for pa, pb in zip(first, second):
            assert pa.read_bytes() == pb.read_bytes()

    def test_row_count_matches_iterations(self, tmp_path):
        result = run_experiment(tiny_config(max_iterations=9))
        emit(result, tmp_path)
        for trace in result.traces:
            path = tmp_path / f"run_s{trace.seed}_{trace.beta_mode}.csv"
            rows = path.read_text().strip().splitlines()
            assert len(rows) == 1 + trace.iterations


class TestScalingStudy:
    def test_halving_violation_level_doubles_count(self):
        rows = scaling_study([0.1, 0.05], [1e-3], [1], [1])
        by_nu = {row["violation_prob"]: row["min_scenarios"] for row in rows}
        ratio = by_nu[0.05] / by_nu[0.1]
        assert 1.9 <= ratio <= 2.1

    def test_confidence_decade_adds_constant(self):
        rows = scaling_study([0.1], [1e-3, 1e-4], [1], [1])
        by_kappa = {row["confidence_level"]: row["min_scenarios"] for row in rows}
        shift = by_kappa[1e-4] - by_kappa[1e-3]
        expected = math.ceil(math.log(10) / -math.log(0.9))
        assert abs(shift - expected) <= 2

    def test_iteration_growth_is_logarithmic(self):
        rows = scaling_study([0.1], [1e-3], [1], [1, 100])
        by_t = {row["iteration"]: row["min_scenarios"] for row in rows}
        shift = by_t[100] - by_t[1]
        expected = math.ceil(2 * math.log(100) / -math.log(0.9))
        assert abs(shift - expected) <= 2

    def test_monotone_along_iterations_and_outputs(self):
        rows = scaling_study([0.1], [1e-3], [1, 2, 3], list(range(1, 30)))
        for k in (1, 2, 3):
            series = [r["min_scenarios"] for r in rows if r["n_outputs"] == k]
            assert series == sorted(series)
        for t in (1, 10, 29):
            series = [r["min_scenarios"] for r in rows if r["iteration"] == t]
            assert series == sorted(series)

    def test_empty_lists_rejected(self):
        with pytest.raises(ValueError):
            scaling_study([], [1e-3], [1], [1])


class TestBetaGrowthReport:
    def test_anchor_never_flags_itself(self):
        rows = beta_growth_report([1.5])
        assert rows[0]["exceeds_sqrt_envelope"] is False

    def test_envelope_flagging(self):
        rows = beta_growth_report([1.0, 1.1, 5.0])
        assert [r["exceeds_sqrt_envelope"] for r in rows] == [False, False, True]
        assert rows[1]["sqrt_t"] == pytest.approx(math.sqrt(2))

    def test_empty_series(self):
        assert beta_growth_report([]) == []

    def test_run_series_monotone_and_within_envelope(self):
        trace = run_single(tiny_config(max_iterations=40), 0, "scenario")
        series = list(trace.beta_bar)
        assert series == sorted(series)
        rows = beta_growth_report(series)
        assert not any(r["exceeds_sqrt_envelope"] for r in rows[1:])
