"""Batch experiment runner over synthetic benchmarks.

Configurations are plain JSON documents (schema version ``"spec": 1``)
naming the grid, the kernel, the noise model, the accuracy knobs, and a
seed battery.  Each seed builds its own random ground truth; each
safety-multiplier mode then runs the full loop on that ground truth.
Results land as one CSV per run plus a single JSON summary, written so
that identical configurations reproduce byte-identical files.
"""

from __future__ import annotations

import json
import math
import numbers
import operator
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np
from numpy.random import SeedSequence, default_rng

from . import kernels, noise
from .domain import Domain
from .kernels import Kernel
from .noise import (
    ScenarioSchedule,
    is_integer,
    iteration_confidence,
    min_scenarios,
    model_from_config,
)
from .optimizer import BETA_MODES, OptimizerConfig, SafeOptimizer, StepRecord
from .synthetic import sample_rkhs_function, shift_to_quantile

__all__ = [
    "CONFIG_SCHEMA",
    "ConfigError",
    "ExperimentConfig",
    "ExperimentResult",
    "PRESETS",
    "RunTrace",
    "SyntheticProblem",
    "beta_growth_report",
    "build_synthetic_problem",
    "emit",
    "run_experiment",
    "run_single",
    "scaling_study",
    "trace_csv_lines",
    "validate_config",
]

CONFIG_SCHEMA = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "type": "object",
    "required": [
        "spec",
        "domain",
        "kernel",
        "noise",
        "violation_prob",
        "confidence_level",
        "regularization",
        "exploration_threshold",
        "seeds",
        "max_iterations",
    ],
    "additionalProperties": False,
    # An optional key's ``default`` is its value when a document leaves it
    # out.  ``n_centers`` unset means 40 centers in 1-D and 200 otherwise.
    "properties": {
        "spec": {"const": 1},
        "name": {"type": "string", "default": "custom"},
        "domain": {
            "type": "object",
            "required": ["bounds", "resolution"],
            "additionalProperties": False,
            "properties": {
                "bounds": {
                    "type": "array",
                    "minItems": 1,
                    "items": {
                        "type": "array",
                        "items": {"type": "number"},
                        "minItems": 2,
                        "maxItems": 2,
                    },
                },
                "resolution": {
                    "type": "array",
                    "minItems": 1,
                    "items": {"type": "integer", "minimum": 2},
                },
            },
        },
        "kernel": {
            "type": "object",
            "required": ["family", "lengthscale"],
            "additionalProperties": False,
            "properties": {
                "family": {"enum": list(kernels.FAMILIES)},
                "lengthscale": {"type": "number", "exclusiveMinimum": 0},
                "output_scale": {"type": "number", "exclusiveMinimum": 0},
            },
        },
        "noise": {
            "type": "object",
            "required": ["family"],
            "properties": {"family": {"enum": list(noise.FAMILIES)}},
        },
        "violation_prob": {"type": "number", "exclusiveMinimum": 0, "exclusiveMaximum": 1},
        "confidence_level": {"type": "number", "exclusiveMinimum": 0, "exclusiveMaximum": 1},
        "regularization": {"type": "number", "exclusiveMinimum": 0, "maximum": 1},
        "exploration_threshold": {"type": "number", "exclusiveMinimum": 0},
        "subgaussian_scale": {"type": "number", "minimum": 0, "default": 0.0},
        "norm_bound": {"type": "number", "exclusiveMinimum": 0, "default": 1.0},
        "beta_modes": {
            "type": "array",
            "minItems": 1,
            "items": {"enum": list(BETA_MODES)},
            "uniqueItems": True,
            "default": ["scenario"],
        },
        "seeds": {
            "type": "array",
            "minItems": 1,
            "items": {"type": "integer", "minimum": 0},
            "uniqueItems": True,
        },
        "max_iterations": {"type": "integer", "minimum": 0},
        "constraint": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "kind": {"enum": ["self", "independent"], "default": "self"},
                "quantile": {
                    "type": "number",
                    "exclusiveMinimum": 0,
                    "exclusiveMaximum": 1,
                    "default": 0.4,
                },
            },
            "default": {},
        },
        "n_centers": {"type": "integer", "minimum": 1},
        "collapse_policy": {"enum": ["error", "reset"], "default": "reset"},
    },
}

PRESETS: dict[str, dict] = {
    # 1-D benchmark with small homoscedastic uniform noise; both multiplier
    # modes explore comparably and stay safe.
    "paper-synthetic-1": {
        "spec": 1,
        "name": "paper-synthetic-1",
        "domain": {"bounds": [[0.0, 1.0]], "resolution": [300]},
        "kernel": {"family": "matern32", "lengthscale": 0.1, "output_scale": 1.0},
        "noise": {"family": "uniform", "low": -1e-3, "high": 1e-3},
        "violation_prob": 0.1,
        "confidence_level": 1e-3,
        "regularization": 1e-2,
        "exploration_threshold": 0.1,
        "subgaussian_scale": 1e-3,
        "norm_bound": 1.0,
        "beta_modes": ["scenario", "classic_subgaussian"],
        "seeds": list(range(20)),
        "max_iterations": 200,
        "constraint": {"kind": "self", "quantile": 0.4},
        "n_centers": 40,
        "collapse_policy": "reset",
    },
    # Same benchmark under heteroscedastic heavy-tailed noise; the classic
    # multiplier with a tiny sub-Gaussian scale under-covers and violates,
    # the scenario multiplier stays cautious.
    "paper-synthetic-2": {
        "spec": 1,
        "name": "paper-synthetic-2",
        "domain": {"bounds": [[0.0, 1.0]], "resolution": [300]},
        "kernel": {"family": "matern32", "lengthscale": 0.1, "output_scale": 1.0},
        "noise": {"family": "student_t_scaled", "dof": 10.0, "scale": 0.2},
        "violation_prob": 0.1,
        "confidence_level": 1e-3,
        "regularization": 1e-3,
        "exploration_threshold": 0.1,
        "subgaussian_scale": 1e-5,
        "norm_bound": 1.0,
        "beta_modes": ["scenario", "classic_subgaussian"],
        "seeds": list(range(20)),
        "max_iterations": 200,
        "constraint": {"kind": "self", "quantile": 0.4},
        "n_centers": 40,
        "collapse_policy": "reset",
    },
    # 2-D benchmark with an independent constraint and Gaussian noise,
    # standing in for hardware-style tuning tasks.  A smooth kernel on a fine
    # grid puts neighbours at a kernel metric of about 0.1, so the reachable
    # set of the ground truth grows past the start point on every seed.
    "synthetic-2d": {
        "spec": 1,
        "name": "synthetic-2d",
        "domain": {"bounds": [[0.0, 1.0], [0.0, 1.0]], "resolution": [40, 40]},
        "kernel": {"family": "squared_exponential", "lengthscale": 0.25, "output_scale": 1.0},
        "noise": {"family": "gaussian", "variance": 1e-4},
        "violation_prob": 0.1,
        "confidence_level": 1e-3,
        "regularization": 1e-2,
        "exploration_threshold": 1e-3,
        "subgaussian_scale": 1e-2,
        "norm_bound": 1.0,
        "beta_modes": ["scenario"],
        "seeds": list(range(10)),
        "max_iterations": 200,
        "constraint": {"kind": "independent", "quantile": 0.4},
        "n_centers": 40,
        "collapse_policy": "reset",
    },
}


class ConfigError(Exception):
    """Invalid experiment configuration."""


# ``_check`` implements the draft 2020-12 semantics of the JSON Schema
# keywords in ``_KEYWORDS``, and ``CONFIG_SCHEMA`` uses no others.  Bools are
# not numbers, an integer-valued float is an integer, and ``$schema`` and
# ``default`` are annotations.  JSON has no NaN or infinity, so the ones
# Python's parser admits are not numbers either.  ``uniqueItems`` compares
# items with ``_same``, so it marks only arrays whose items are scalars.
_TYPES = {
    "object": lambda v: isinstance(v, dict),
    "array": lambda v: isinstance(v, list),
    "string": lambda v: isinstance(v, str),
    "number": lambda v: isinstance(v, numbers.Number) and not isinstance(v, bool)
    and (not isinstance(v, float) or math.isfinite(v)),
    "integer": lambda v: (isinstance(v, int) and not isinstance(v, bool))
    or (isinstance(v, float) and v.is_integer()),
}
# The Python value of each declared scalar type.
_CASTS = {"number": float, "integer": int}
# Each bound keyword: the comparison that violates it, and what it asks for.
_BOUNDS = {
    "minimum": (operator.lt, "at least"),
    "exclusiveMinimum": (operator.le, "greater than"),
    "maximum": (operator.gt, "at most"),
    "exclusiveMaximum": (operator.ge, "less than"),
}
_KEYWORDS = frozenset(
    {"$schema", "default", "type", "const", "enum", *_BOUNDS, "minItems", "maxItems", "items",
     "uniqueItems", "required", "properties", "additionalProperties"}
)


def _same(value, constant) -> bool:
    """JSON equality of scalars: a bool never equals a number."""
    return value == constant and isinstance(value, bool) == isinstance(constant, bool)


def _invalid(path: str, reason: str) -> ConfigError:
    return ConfigError(f"invalid experiment config: {path or 'document'}: {reason}")


def _check(value, schema: dict, path: str):
    """``value`` checked against ``schema`` and normalized as ``validate_config`` says."""
    kind = schema.get("type")
    if kind is not None and not _TYPES[kind](value):
        raise _invalid(path, f"expected {kind}, got {value!r}")
    if "const" in schema and not _same(value, schema["const"]):
        raise _invalid(path, f"expected {schema['const']!r}, got {value!r}")
    if "enum" in schema and not any(_same(value, option) for option in schema["enum"]):
        raise _invalid(path, f"{value!r} is not one of {schema['enum']}")
    if _TYPES["number"](value):
        for keyword, (violates, relation) in _BOUNDS.items():
            if keyword in schema and violates(value, schema[keyword]):
                raise _invalid(path, f"must be {relation} {schema[keyword]!r}, got {value!r}")
    if isinstance(value, list):
        if len(value) < schema.get("minItems", 0):
            raise _invalid(path, f"expected at least {schema['minItems']} items, got {len(value)}")
        if len(value) > schema.get("maxItems", len(value)):
            raise _invalid(path, f"expected at most {schema['maxItems']} items, got {len(value)}")
        items = schema.get("items", {})
        normalized = tuple(_check(item, items, f"{path}[{i}]") for i, item in enumerate(value))
        if schema.get("uniqueItems"):
            for i, item in enumerate(value):
                if any(_same(item, earlier) for earlier in value[:i]):
                    raise _invalid(path, f"item {i} repeats an earlier one, {item!r}")
        return normalized
    if isinstance(value, dict):
        properties = schema.get("properties", {})
        prefix = f"{path}." if path else ""
        for key in schema.get("required", ()):
            if key not in value:
                raise _invalid(f"{prefix}{key}", "missing")
        normalized = {}
        for key in value:
            if key in properties:
                normalized[key] = _check(value[key], properties[key], f"{prefix}{key}")
            elif schema.get("additionalProperties", True) is False:
                raise _invalid(f"{prefix}{key}", "unknown key")
            else:
                normalized[key] = value[key]
        for key, sub in properties.items():
            if key not in value and "default" in sub:
                normalized[key] = _check(sub["default"], sub, f"{prefix}{key}")
        return normalized
    try:
        return _CASTS[kind](value) if kind in _CASTS else value
    except OverflowError:
        raise _invalid(path, f"{kind} too large for a float") from None


def validate_config(document: dict) -> dict:
    """Check a raw config document against ``CONFIG_SCHEMA`` and return it normalized.

    Missing keys get their schema ``default``, itself walked; arrays become
    tuples, declared numbers and integers floats and ints, and undeclared
    keys keep their values.  The error names the key path of the first
    offending value, such as ``kernel.lengthscale`` or ``domain.resolution[0]``.
    """
    return _check(document, CONFIG_SCHEMA, "")


@dataclass(frozen=True)
class ExperimentConfig:
    """Validated, immutable view of a config document, one field per key."""

    name: str
    domain: dict
    kernel: dict
    noise: dict
    violation_prob: float
    confidence_level: float
    regularization: float
    exploration_threshold: float
    subgaussian_scale: float
    norm_bound: float
    beta_modes: tuple[str, ...]
    seeds: tuple[int, ...]
    max_iterations: int
    constraint: dict
    collapse_policy: str
    n_centers: int | None = None

    @classmethod
    def from_dict(cls, document: dict) -> "ExperimentConfig":
        values = validate_config(document)
        del values["spec"]
        config = cls(**values)
        # Values the schema admits but the run cannot use: an empty box, a
        # resolution per missing bound, or noise parameters its family rejects.
        for key, build in (("domain", config.build_domain), ("kernel", config.build_kernel),
                           ("noise", lambda: model_from_config(config.noise))):
            try:
                build()
            except (ValueError, TypeError) as err:
                raise _invalid(key, str(err)) from err
        # The scenario count grows with the iteration, so the last one tells
        # whether a violation level is too small to draw for.
        if "scenario" in config.beta_modes and config.max_iterations >= 1:
            outputs = 1 if config.constraint["kind"] == "self" else 2
            schedule = ScenarioSchedule(config.violation_prob, config.confidence_level, outputs)
            try:
                last = iteration_confidence(config.confidence_level, config.max_iterations)
            except OverflowError as err:
                raise _invalid("max_iterations", str(err)) from err
            try:
                min_scenarios(schedule, last)
            except OverflowError as err:
                raise _invalid("violation_prob", str(err)) from err
        return config

    @classmethod
    def from_preset(cls, name: str, overrides: dict | None = None) -> "ExperimentConfig":
        if name not in PRESETS:
            raise ConfigError(
                f"unknown preset {name!r}; available: {sorted(PRESETS)}"
            )
        document = json.loads(json.dumps(PRESETS[name]))
        if overrides:
            document.update(overrides)
        return cls.from_dict(document)

    def to_dict(self) -> dict:
        """The JSON document this config was read from, defaults filled in."""
        # The JSON round trip turns the tuples back into lists.
        document = {"spec": 1, **json.loads(json.dumps(asdict(self)))}
        if self.n_centers is None:
            del document["n_centers"]
        return document

    def build_domain(self) -> Domain:
        return Domain.grid(self.domain["bounds"], self.domain["resolution"])

    def build_kernel(self) -> Kernel:
        return Kernel(**self.kernel)

    def centers(self) -> int:
        if self.n_centers is not None:
            return self.n_centers
        return 40 if len(self.domain["bounds"]) == 1 else 200


@dataclass(frozen=True)
class SyntheticProblem:
    """Ground truth for one seed: functions, their grid table (``values[i, j]`` is output
    ``i`` at grid point ``j``, the truth every reader takes), constraints, and a safe start."""

    domain: Domain
    functions: tuple
    values: np.ndarray
    constraint_indices: tuple[int, ...]
    initial_safe: tuple[int, ...]

    def oracle(self, index: int) -> np.ndarray:
        return self.values[:, index]

    def __setstate__(self, state: dict) -> None:
        # Unpickling, as for a ``jobs > 1`` worker, makes arrays writeable.
        self.__dict__.update(state)
        self.values.flags.writeable = False

    def to_config(self) -> dict:
        return {
            "functions": [f.to_config() for f in self.functions],
            "constraint_indices": list(self.constraint_indices),
            "initial_safe": list(self.initial_safe),
        }


def build_synthetic_problem(
    config: ExperimentConfig, rng: np.random.Generator
) -> SyntheticProblem:
    """Sample the ground truth and pick a safe starting point.

    With a self constraint the single output is the reward shifted so a
    ``1 - q`` share of the grid is safe; otherwise the reward stays
    unshifted and an independently sampled shifted function constrains
    it.  The starting point is drawn from the middle of the safe margin
    distribution, so runs neither start at the optimum nor hug the
    boundary.
    """
    domain = config.build_domain()
    kernel = config.build_kernel()
    n_centers = config.centers()

    reward = sample_rkhs_function(kernel, domain, n_centers, rng)
    quantile = config.constraint["quantile"]
    if config.constraint["kind"] == "self":
        shifted, shifted_values = shift_to_quantile(reward, domain, quantile)
        functions: tuple = (shifted,)
        values = shifted_values[None, :]
        constraint_indices: tuple[int, ...] = (0,)
    else:
        other = sample_rkhs_function(kernel, domain, n_centers, rng)
        constraint, constraint_values = shift_to_quantile(other, domain, quantile)
        functions = (reward, constraint)
        values = np.stack([reward(domain.points), constraint_values])
        constraint_indices = (1,)

    values.flags.writeable = False
    # The quantile point reads exactly 0, so at least one point is eligible.
    margins = values[list(constraint_indices)].min(axis=0)
    eligible = np.flatnonzero(margins >= 0.0)
    ordered = eligible[np.argsort(margins[eligible], kind="stable")]
    lo = int(0.4 * ordered.size)
    hi = max(int(0.7 * ordered.size), lo + 1)
    band = ordered[lo:hi]
    start = int(band[int(rng.integers(band.size))])
    return SyntheticProblem(
        domain=domain,
        functions=functions,
        values=values,
        constraint_indices=constraint_indices,
        initial_safe=(start,),
    )


@dataclass(frozen=True)
class RunTrace:
    """Everything recorded about one (seed, multiplier-mode) run."""

    seed: int
    beta_mode: str
    dim: int
    n_outputs: int
    records: tuple[StepRecord, ...]
    violations: tuple[bool, ...]
    beta_bar: tuple[float, ...]
    termination_reason: str
    final_best_point: tuple[float, ...]
    final_best_lower: float
    final_best_true_reward: float
    initial_safe: tuple[int, ...]
    final_safe_size: int
    ground_truth: dict

    @property
    def iterations(self) -> int:
        return len(self.records)

    @property
    def violation_count(self) -> int:
        return sum(self.violations)


def run_single(config: ExperimentConfig, seed: int, beta_mode: str) -> RunTrace:
    """Execute one seeded run in one safety-multiplier mode.

    The ground truth depends only on the seed, so modes sharing a seed
    optimize the same functions from the same starting point.
    """
    if beta_mode not in config.beta_modes:
        raise ConfigError(f"beta mode {beta_mode!r} not enabled in config")
    return _run(config, seed, beta_mode, _ground_truth(config, seed))


def _streams(seed: int) -> list[SeedSequence]:
    """A seed's streams: the ground truth's, then one per ``BETA_MODES`` entry, listed or not."""
    return SeedSequence(seed).spawn(1 + len(BETA_MODES))


def _ground_truth(config: ExperimentConfig, seed: int) -> SyntheticProblem:
    """The seed's ground truth, drawn from its first stream."""
    return build_synthetic_problem(config, default_rng(_streams(seed)[0]))


def _battery(config: ExperimentConfig):
    """``(config, seed, mode, ground truth)`` per run, in (seed, mode) order.

    Each seed's ground truth is built once, when its first run is due,
    and shared by that seed's modes.
    """
    for seed in config.seeds:
        problem = _ground_truth(config, seed)
        for mode in config.beta_modes:
            yield config, seed, mode, problem


def _run(
    config: ExperimentConfig, seed: int, beta_mode: str, problem: SyntheticProblem
) -> RunTrace:
    """:func:`run_single` on a seed's ground truth, built once for all its modes."""
    run_rng = default_rng(_streams(seed)[1 + BETA_MODES.index(beta_mode)])
    k = len(problem.functions)
    opt_config = OptimizerConfig(
        norm_bounds=(config.norm_bound,) * k,
        regularization=config.regularization,
        exploration_threshold=config.exploration_threshold,
        schedule=ScenarioSchedule(config.violation_prob, config.confidence_level, k),
        max_iterations=config.max_iterations,
        initial_safe=problem.initial_safe,
        beta_mode=beta_mode,
        subgaussian_scale=config.subgaussian_scale,
        constraint_indices=problem.constraint_indices,
        on_collapse=config.collapse_policy,
    )
    optimizer = SafeOptimizer(config.build_kernel(), problem.domain, opt_config)
    final = optimizer.run(problem.oracle, model_from_config(config.noise), run_rng)

    violations = tuple(
        any(rec.true_values[i] < 0.0 for i in problem.constraint_indices)
        for rec in final.records
    )
    beta_bar = tuple(max(rec.betas) for rec in final.records)
    best = optimizer.best_parameter(final)
    return RunTrace(
        seed=seed,
        beta_mode=beta_mode,
        dim=problem.domain.dim,
        n_outputs=k,
        records=final.records,
        violations=violations,
        beta_bar=beta_bar,
        termination_reason=final.termination_reason,
        final_best_point=tuple(problem.domain.points[best].tolist()),
        final_best_lower=float(final.confidence.lower[0, best]),
        final_best_true_reward=float(problem.values[0, best]),
        initial_safe=problem.initial_safe,
        final_safe_size=int(final.safe.sum()),
        ground_truth=problem.to_config(),
    )


@dataclass(frozen=True)
class ExperimentResult:
    config: ExperimentConfig
    traces: tuple[RunTrace, ...]
    summary: dict


def run_experiment(config: ExperimentConfig, jobs: int = 1) -> ExperimentResult:
    """Run the full seed battery in every enabled multiplier mode.

    ``jobs`` > 1 fans runs out to worker processes, no more of them than
    runs; results are merged back in (seed, mode) order either way, so
    parallelism never changes the output.  ``jobs`` that is not an
    integer, or below 1, raises ``ValueError``.
    """
    if not is_integer(jobs):
        raise ValueError(f"jobs must be an integer, got {jobs!r}")
    if jobs < 1:
        raise ValueError(f"jobs must be at least 1, got {jobs}")
    runs, count = _battery(config), len(config.seeds) * len(config.beta_modes)
    if jobs > 1 and count > 1:
        # Imported here: a one-process run does not pay for the pool.
        from concurrent.futures import ProcessPoolExecutor

        # The pool forks every worker at the first submit, used or not.
        with ProcessPoolExecutor(max_workers=min(jobs, count)) as pool:
            traces = tuple(pool.map(_run, *zip(*runs)))
    else:
        traces = tuple(_run(*run) for run in runs)
    return ExperimentResult(config=config, traces=traces, summary=_summarize(config, traces))


def _summarize(config: ExperimentConfig, traces: tuple[RunTrace, ...]) -> dict:
    runs = []
    for trace in traces:
        runs.append(
            {
                "seed": trace.seed,
                "beta_mode": trace.beta_mode,
                "iterations": trace.iterations,
                "termination": trace.termination_reason,
                "violations": trace.violation_count,
                "violation_rate": (
                    trace.violation_count / trace.iterations if trace.iterations else 0.0
                ),
                "final_best_point": list(trace.final_best_point),
                # A run that made no experiment has no finite lower bound.
                "final_best_lower": (
                    trace.final_best_lower if math.isfinite(trace.final_best_lower) else None
                ),
                "final_best_true_reward": trace.final_best_true_reward,
                "final_safe_size": trace.final_safe_size,
                # 1 for a run that never left its start point.
                "distinct_points": len({rec.point for rec in trace.records}),
                "initial_safe": list(trace.initial_safe),
                "beta_bar": list(trace.beta_bar),
                "best_lower": [rec.best_lower for rec in trace.records],
                "ground_truth": trace.ground_truth,
            }
        )
    aggregate = {}
    for mode in config.beta_modes:
        mode_traces = [t for t in traces if t.beta_mode == mode]
        experiments = sum(t.iterations for t in mode_traces)
        violations = sum(t.violation_count for t in mode_traces)
        aggregate[mode] = {
            "runs": len(mode_traces),
            "experiments": experiments,
            "violations": violations,
            "violation_rate": violations / experiments if experiments else 0.0,
            "seeds_with_violations": sorted(
                t.seed for t in mode_traces if t.violation_count
            ),
        }
    return {"spec": 1, "config": config.to_dict(), "runs": runs, "aggregate": aggregate}


def _fmt(value: float) -> str:
    return repr(float(value))


def trace_csv_lines(trace: RunTrace) -> list[str]:
    """CSV lines for one run, stable down to the byte.

    Column order: iteration, point coordinates, observed values per
    output, noise bounds per output, scenario count, multipliers per
    output, safe-set size, acquisition width, running best lower bound,
    violation flag.
    """
    k = trace.n_outputs
    header = (
        ["t"]
        + [f"a{j}" for j in range(trace.dim)]
        + [f"y{i}" for i in range(k)]
        + [f"eps_bar{i}" for i in range(k)]
        + ["m"]
        + [f"beta{i}" for i in range(k)]
        + ["safe_set_size", "max_width", "best_lower", "violation"]
    )
    lines = [",".join(header)]
    for rec, violated in zip(trace.records, trace.violations):
        row = (
            [str(rec.iteration)]
            + [_fmt(v) for v in rec.point]
            + [_fmt(v) for v in rec.observed]
            + [_fmt(v) for v in rec.noise_bound]
            + [str(rec.n_scenarios)]
            + [_fmt(v) for v in rec.betas]
            + [
                str(rec.safe_size),
                _fmt(rec.acquisition_width),
                _fmt(rec.best_lower),
                str(int(violated)),
            ]
        )
        lines.append(",".join(row))
    return lines


def emit(result: ExperimentResult, out_dir: str | Path) -> list[Path]:
    """Write one CSV per run plus ``summary.json``; returns the paths."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    paths = []
    for trace in result.traces:
        path = out / f"run_s{trace.seed}_{trace.beta_mode}.csv"
        path.write_text("\n".join(trace_csv_lines(trace)) + "\n", encoding="utf-8")
        paths.append(path)
    summary_path = out / "summary.json"
    summary_path.write_text(
        json.dumps(result.summary, indent=2, sort_keys=True, allow_nan=False) + "\n",
        encoding="utf-8",
    )
    paths.append(summary_path)
    return paths


def scaling_study(
    violation_levels: list[float],
    confidence_levels: list[float],
    output_counts: list[int],
    iterations: list[int],
) -> list[dict]:
    """Scenario counts over a grid of accuracy knobs and iterations.

    One row per combination, carrying the iteration-adjusted confidence
    and the minimal scenario count.  Halving the violation level roughly
    doubles the count; shrinking the confidence level only adds to it.
    """
    if not (violation_levels and confidence_levels and output_counts and iterations):
        raise ValueError("all parameter lists must be non-empty")
    rows = []
    for nu in violation_levels:
        for kappa in confidence_levels:
            for k in output_counts:
                schedule = ScenarioSchedule(nu, kappa, k)
                for t in iterations:
                    adjusted = iteration_confidence(kappa, t)
                    rows.append(
                        {
                            "violation_prob": nu,
                            "confidence_level": kappa,
                            "n_outputs": k,
                            "iteration": t,
                            "adjusted_confidence": adjusted,
                            "min_scenarios": min_scenarios(schedule, adjusted),
                        }
                    )
    return rows


def beta_growth_report(beta_bar: list[float]) -> list[dict]:
    """Growth diagnostic for a run's multiplier trace.

    Emits the multiplier alongside ``sqrt(t)`` and flags iterations where
    it outgrew ``beta_bar[0] * sqrt(t)``, the empirical square-root
    envelope anchored at the first iteration.
    """
    if not beta_bar:
        return []
    anchor = float(beta_bar[0])
    rows = []
    for idx, value in enumerate(beta_bar):
        t = idx + 1
        rows.append(
            {
                "t": t,
                "beta_bar": float(value),
                "sqrt_t": math.sqrt(t),
                "exceeds_sqrt_envelope": bool(value > anchor * math.sqrt(t)),
            }
        )
    return rows
