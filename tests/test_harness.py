import dataclasses
import itertools
import json
import math
import pickle
import random
import re
from pathlib import Path

import numpy as np
import pytest

from safebo import ExperimentConfig, run_single, scaling_study
from safebo import harness
from safebo.harness import (
    CONFIG_SCHEMA,
    PRESETS,
    ConfigError,
    beta_growth_report,
    build_synthetic_problem,
    emit,
    run_experiment,
    trace_csv_lines,
    validate_config,
)
from safebo.kernels import metric_matrix
from safebo.optimizer import reachable_set
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

    def test_required_keys_alone_get_every_default(self):
        config = ExperimentConfig.from_dict(required_document())
        assert config.name == "custom"
        assert config.subgaussian_scale == 0.0 and config.norm_bound == 1.0
        assert config.beta_modes == ("scenario",)
        assert config.constraint == {"kind": "self", "quantile": 0.4}
        assert config.n_centers is None and config.centers() == 40
        assert config.collapse_policy == "reset"

    def test_validation_returns_tuples_floats_and_ints(self):
        document = tiny_config().to_dict() | {
            "domain": {"bounds": [[0, 1]], "resolution": [80.0]},
            "kernel": {"family": "matern32", "lengthscale": 1, "output_scale": 1},
            "noise": {"family": "uniform", "low": -1, "high": [1]},
            "seeds": [0.0, 3],
            "max_iterations": 12.0,
            "norm_bound": 2,
        }
        values = validate_config(document)
        assert values["domain"] == {"bounds": ((0.0, 1.0),), "resolution": (80,)}
        assert type(values["domain"]["resolution"][0]) is int
        assert all(type(v) is float for v in values["domain"]["bounds"][0])
        assert type(values["kernel"]["lengthscale"]) is float
        assert type(values["kernel"]["output_scale"]) is float
        assert values["seeds"] == (0, 3) and all(type(s) is int for s in values["seeds"])
        assert type(values["max_iterations"]) is int and type(values["norm_bound"]) is float
        assert values["beta_modes"] == ("scenario",)
        # Keys the schema does not declare keep their values as given.
        assert values["noise"] == {"family": "uniform", "low": -1, "high": [1]}
        assert type(values["noise"]["low"]) is int
        # The document itself is left as it was.
        assert document["domain"]["resolution"] == [80.0] and document["seeds"] == [0.0, 3]

    def test_defaults_are_not_shared_between_documents(self):
        first = validate_config(required_document())
        second = validate_config(required_document())
        assert first["constraint"] == second["constraint"]
        assert first["constraint"] is not second["constraint"]
        first["constraint"]["kind"] = "independent"
        assert second["constraint"]["kind"] == "self"
        assert CONFIG_SCHEMA["properties"]["constraint"]["default"] == {}
        assert CONFIG_SCHEMA["properties"]["beta_modes"]["default"] == ["scenario"]

    def test_readme_table_matches_schema_defaults(self):
        optional = set(CONFIG_SCHEMA["properties"]) - set(CONFIG_SCHEMA["required"])
        documented = readme_defaults()
        assert set(documented) == optional
        filled = json.loads(json.dumps(validate_config(required_document())))
        for key in optional:
            assert documented[key] == filled.get(key), key

    @pytest.mark.parametrize(
        "overrides, rejected",
        [
            ({"max_iterations": 2}, None),
            ({"max_iterations": 5}, "violation_prob"),
            ({"max_iterations": 1, "constraint": {"kind": "independent"}}, None),
            ({"max_iterations": 2, "constraint": {"kind": "independent"}}, "violation_prob"),
            ({"max_iterations": 100, "beta_modes": ["classic_subgaussian"]}, None),
            ({"max_iterations": 0}, None),
            ({"max_iterations": 1, "violation_prob": 1e-12}, "violation_prob"),
            ({"max_iterations": 10**154, "violation_prob": 0.1}, "max_iterations"),
            ({"max_iterations": 10**200, "violation_prob": 0.1}, "max_iterations"),
        ],
        ids=["self-t2", "self-t5", "independent-t1", "independent-t2", "classic-only",
             "no-iterations", "nu-1e-12", "share-underflows", "share-overflows"],
    )
    def test_violation_level_too_small_to_draw_for_rejected(self, overrides, rejected):
        # At nu = 1e-8 one output needs about 7.4e8 scenarios at t = 1 and
        # more than 1e9 from t = 5 on; two outputs pass 1e9 from t = 2 on,
        # and at nu = 1e-12 one output passes it at t = 1.  Past t = 1e153
        # the confidence share of the last iteration is not a positive float.
        # Only the config is built here: no scenario batch is drawn.
        document = tiny_config().to_dict() | {"violation_prob": 1e-8} | overrides
        if rejected is None:
            ExperimentConfig.from_dict(document)
        else:
            with pytest.raises(ConfigError, match=f"^invalid experiment config: {rejected}: "):
                ExperimentConfig.from_dict(document)


def required_document() -> dict:
    """``tiny_config``'s document cut down to the keys the schema requires."""
    document = tiny_config().to_dict()
    return {key: document[key] for key in CONFIG_SCHEMA["required"]}


def readme_defaults() -> dict:
    """The README's optional-keys table: each key and the first code span of its default.

    A default cell without a code span, such as ``unset: ...``, reads as ``None``.
    """
    text = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    table = text.split("| key | default |\n| --- | --- |\n", 1)[1].split("\n\n", 1)[0]
    rows = {}
    for line in table.splitlines():
        key, cell = re.fullmatch(r"\| `(\w+)` \| (.*) \|", line).groups()
        span = re.match(r"`([^`]*)`", cell)
        rows[key] = json.loads(span.group(1)) if span else None
    return rows


# Values a mutation writes over a document entry: bools next to the numbers
# they compare equal to, an integer-valued float, negatives, boundary values,
# strings the schema's enums hold, and containers of the wrong shape.
REPLACEMENTS = [
    True, False, None, 0, 1, 2, 2.0, 2.5, -1, -1.0, 0.0, 1.0, 1e-3, 300,
    "x", "matern32", "uniform", "independent", "error", "scenario",
    [], [0], [2.0], [True], [[0.0, 1.0]], [[0, 1, 2]], {}, {"kind": "self"},
]
EXTRA_KEYS = ["learning_rate", "name", "quantile", "kind", "output_scale", "dof", "spec"]


def mutate(document, rng: random.Random):
    """One random replacement, deletion or insertion anywhere in ``document``."""
    slots = [(None, None)]
    stack = [document] if isinstance(document, (dict, list)) else []
    while stack:
        node = stack.pop()
        keys = list(node) if isinstance(node, dict) else range(len(node))
        for key in keys:
            slots.append((node, key))
            if isinstance(node[key], (dict, list)):
                stack.append(node[key])
    node, key = rng.choice(slots)
    value = json.loads(json.dumps(rng.choice(REPLACEMENTS)))
    if node is None:
        return value if rng.random() < 0.2 else document
    action = rng.choice(["replace", "replace", "delete", "insert"])
    if action == "replace":
        node[key] = value
    elif action == "delete":
        del node[key]
    elif isinstance(node, dict):
        node[rng.choice(EXTRA_KEYS)] = value
    else:
        node.append(value)
    return document


def schema_nodes(schema):
    yield schema
    for sub in schema.get("properties", {}).values():
        yield from schema_nodes(sub)
    if "items" in schema:
        yield from schema_nodes(schema["items"])


def is_accepted(document) -> bool:
    try:
        validate_config(document)
    except ConfigError:
        return False
    return True


class TestConfigValidator:
    def test_agrees_with_jsonschema_on_mutated_presets(self):
        jsonschema = pytest.importorskip("jsonschema")
        reference = jsonschema.Draft202012Validator(CONFIG_SCHEMA)
        rng = random.Random(8)
        verdicts = []
        for name in sorted(PRESETS):
            for _ in range(1500):
                document = json.loads(json.dumps(PRESETS[name]))
                for _ in range(rng.choice([1, 1, 2, 3])):
                    document = mutate(document, rng)
                expected = reference.is_valid(document)
                assert is_accepted(document) == expected, document
                verdicts.append(expected)
        # Both verdicts occur often enough for the agreement to mean something.
        assert 0.05 < sum(verdicts) / len(verdicts) < 0.5

    def test_schema_uses_only_implemented_keywords(self):
        for node in schema_nodes(CONFIG_SCHEMA):
            assert set(node) <= harness._KEYWORDS, sorted(set(node) - harness._KEYWORDS)
            assert node.get("type", "object") in harness._TYPES
            assert isinstance(node.get("additionalProperties", False), bool)
            assert isinstance(node.get("items", {}), dict)
            if node.get("uniqueItems"):
                items = node["items"]
                assert items.get("type") in ("integer", "number", "string") or "enum" in items

    @pytest.mark.parametrize(
        "path, edit",
        [
            ("kernel.lengthscale", lambda d: d["kernel"].update(lengthscale=0)),
            ("kernel.family", lambda d: d["kernel"].pop("family")),
            ("domain.resolution[0]", lambda d: d["domain"].update(resolution=[1])),
            ("domain.bounds[0][1]", lambda d: d["domain"].update(bounds=[[0.0, "1"]])),
            ("constraint.mode", lambda d: d["constraint"].update(mode="self")),
            ("spec", lambda d: d.update(spec=True)),
            ("seeds[1]", lambda d: d.update(seeds=[0, 1.5])),
            ("norm_bound", lambda d: d.update(norm_bound=10**400)),
            ("kernel.output_scale", lambda d: d["kernel"].update(output_scale=10**400)),
            ("seeds", lambda d: d.update(seeds=[0, 1, 0.0])),
            ("beta_modes", lambda d: d.update(beta_modes=["scenario", "scenario"])),
        ],
    )
    def test_error_names_key_path(self, path, edit):
        document = tiny_config().to_dict()
        edit(document)
        with pytest.raises(ConfigError, match=f"^invalid experiment config: {re.escape(path)}: "):
            validate_config(document)

    def test_scalar_equality_agrees_with_jsonschema(self):
        # uniqueItems compares items by JSON equality: a bool is not a
        # number, and 0 is 0.0.
        jsonschema = pytest.importorskip("jsonschema")
        unique = jsonschema.Draft202012Validator({"uniqueItems": True})
        scalars = [v for v in REPLACEMENTS if not isinstance(v, (list, dict))] + [3, 3.0, 1e-3]
        for a, b in itertools.product(scalars, repeat=2):
            assert harness._same(a, b) == (not unique.is_valid([a, b])), (a, b)

    @pytest.mark.parametrize("key", ["seeds", "beta_modes"])
    def test_repeated_items_agree_with_jsonschema(self, key):
        jsonschema = pytest.importorskip("jsonschema")
        reference = jsonschema.Draft202012Validator(CONFIG_SCHEMA)
        document = json.loads(json.dumps(PRESETS["paper-synthetic-2"]))
        # Each list, and whether it holds distinct valid items.
        lists = {
            "seeds": [([0, 0], False), ([3, 1, 3.0], False), ([0, 1, 2], True),
                      ([2.0, 1], True), ([1, True], False), ([], False)],
            "beta_modes": [(["scenario", "scenario"], False),
                           (["classic_subgaussian", "scenario"], True),
                           (["scenario", "classic_subgaussian", "scenario"], False)],
        }
        for items, valid in lists[key]:
            document[key] = items
            assert is_accepted(document) == reference.is_valid(document) == valid, items

    def test_json_numbers_follow_draft_2020_12(self):
        assert is_accepted(tiny_config().to_dict() | {"spec": 1.0, "max_iterations": 2.0})
        assert not is_accepted(tiny_config().to_dict() | {"spec": True})
        assert not is_accepted(tiny_config().to_dict() | {"norm_bound": True})
        assert not is_accepted(tiny_config().to_dict() | {"max_iterations": 2.5})

    def test_noise_parameters_reject_bools(self):
        # Noise parameters are undeclared keys, so the schema passes JSON
        # true and false through; the family's constructor rejects them.
        document = tiny_config().to_dict()
        document["noise"] = {"family": "uniform", "low": False, "high": True}
        with pytest.raises(ConfigError, match="^invalid experiment config: noise: low must be"):
            ExperimentConfig.from_dict(document)


class TestSyntheticProblem:
    def test_self_constraint_single_output(self, rng):
        problem = build_synthetic_problem(tiny_config(), rng)
        assert len(problem.functions) == 1
        assert problem.constraint_indices == (0,)
        assert problem.values.shape == (1, problem.domain.n_points)
        start = problem.initial_safe[0]
        assert problem.values[0, start] >= 0.0

    def test_independent_constraint_two_outputs(self, rng):
        config = tiny_config(constraint={"kind": "independent", "quantile": 0.4})
        problem = build_synthetic_problem(config, rng)
        assert len(problem.functions) == 2
        assert problem.constraint_indices == (1,)
        start = problem.initial_safe[0]
        assert problem.values.shape == (2, problem.domain.n_points)
        assert problem.values[1, start] >= 0.0

    def test_truth_is_one_grid_table(self, monkeypatch):
        # On paper-synthetic-1 seed 1 the constraint is exactly 0.0 at grid
        # index 91, the quantile point.  Evaluated there as a lone point it
        # read -8.3e-17, and a safe experiment counted as a violation.
        config = ExperimentConfig.from_preset(
            "paper-synthetic-1", {"seeds": [1], "max_iterations": 1, "beta_modes": ["scenario"]}
        )
        streams = np.random.SeedSequence(1).spawn(2)
        problem = build_synthetic_problem(config, np.random.default_rng(streams[0]))
        assert problem.values.shape == (1, 300)
        assert problem.values[0, 91] == 0.0
        assert problem.oracle(91).tolist() == [0.0]
        with pytest.raises(ValueError, match="read-only"):
            problem.oracle(91)[0] = 1.0
        # The functions recorded in summary.json, rebuilt as the benchmark's
        # ceiling does, give the same table bit for bit.
        recorded = json.loads(json.dumps(problem.to_config()))
        functions = [
            ShiftedFunction.from_config(f) if "base" in f else RkhsFunction.from_config(f)
            for f in recorded["functions"]
        ]
        rebuilt = np.stack([f(problem.domain.points) for f in functions])
        assert np.array_equal(rebuilt, problem.values)
        # Started at index 91 alone, the run's one experiment is there, and
        # run_single's violation rule counts it as safe.
        monkeypatch.setattr(
            harness,
            "build_synthetic_problem",
            lambda config, rng: dataclasses.replace(
                build_synthetic_problem(config, rng), initial_safe=(91,)
            ),
        )
        trace = run_single(config, 1, "scenario")
        assert trace.records[0].point == (float(problem.domain.points[91, 0]),)
        assert trace.records[0].true_values == (0.0,)
        assert trace.violations == (False,)

    def test_truth_stays_read_only_through_a_pickle(self, rng):
        # run_experiment(jobs > 1) pickles each seed's problem to a worker.
        problem = build_synthetic_problem(tiny_config(), rng)
        copy = pickle.loads(pickle.dumps(problem))
        assert np.array_equal(copy.values, problem.values)
        with pytest.raises(ValueError, match="read-only"):
            copy.oracle(0)[0] = 1.0

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
        config = tiny_config(max_iterations=0)
        points = config.build_domain().points
        result = run_experiment(config)
        for trace in result.traces:
            assert trace.iterations == 0
            assert trace.final_safe_size == 1
            assert trace.final_best_point == tuple(points[trace.initial_safe[0]])
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

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_builds_each_seeds_ground_truth_once(self, jobs, monkeypatch):
        # Three seeds in two modes: three builds, in the calling process,
        # and every run equal to run_single's, which builds its own.
        config = tiny_config(
            seeds=[0, 1, 2], beta_modes=["scenario", "classic_subgaussian"]
        )
        built = []

        def counted(config, rng):
            built.append(rng)
            return build_synthetic_problem(config, rng)

        monkeypatch.setattr(harness, "build_synthetic_problem", counted)
        result = run_experiment(config, jobs=jobs)
        assert len(built) == 3
        singles = [run_single(config, s, m) for s in (0, 1, 2) for m in config.beta_modes]
        assert len(built) == 3 + 6
        assert result.traces == tuple(singles)

    def test_a_modes_run_does_not_depend_on_the_battery_listing_it(self):
        # paper-synthetic-2 seed 13 in classic mode runs 25 steps with one
        # violation; a battery that lists that mode alone, or first, must
        # repeat that run, so `safebo run --mode` can reproduce it.
        def lines(modes):
            config = ExperimentConfig.from_preset(
                "paper-synthetic-2", {"seeds": [13], "beta_modes": modes}
            )
            return {t.beta_mode: trace_csv_lines(t) for t in run_experiment(config).traces}

        both = lines(["scenario", "classic_subgaussian"])
        classic = both["classic_subgaussian"]
        assert len(classic) == 1 + 25
        assert sum(int(line.rsplit(",", 1)[1]) for line in classic[1:]) == 1
        assert lines(["classic_subgaussian"]) == {"classic_subgaussian": classic}
        assert lines(["classic_subgaussian", "scenario"]) == both

    @pytest.mark.parametrize("jobs", [0, -5])
    def test_rejects_a_worker_count_below_one(self, jobs):
        # Serial runs are jobs=1; a count below 1 is an error, not a
        # silent serial run.
        with pytest.raises(ValueError, match=f"jobs must be at least 1, got {jobs}"):
            run_experiment(tiny_config(), jobs=jobs)

    @pytest.mark.parametrize("jobs", [2.5, 2.0, True, "2"])
    def test_rejects_a_worker_count_that_is_not_an_integer(self, jobs):
        # A float would reach the process pool and fail there; True would
        # compare as 1 and run serially.
        with pytest.raises(ValueError, match=f"jobs must be an integer, got {jobs!r}"):
            run_experiment(tiny_config(), jobs=jobs)

    def test_an_empty_seed_list_is_a_config_error(self):
        # A battery of no seeds would emit a summary of no runs and exit 0.
        with pytest.raises(ConfigError, match="seeds: expected at least 1 items, got 0"):
            tiny_config(seeds=[])

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
