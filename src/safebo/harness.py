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
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass
from pathlib import Path

import jsonschema
import numpy as np

from .domain import Domain
from .kernels import Kernel
from .noise import ScenarioSchedule, iteration_confidence, min_scenarios, model_from_config
from .optimizer import BETA_MODES, OptimizerConfig, SafeOptimizer, StepRecord
from .synthetic import sample_rkhs_function, shift_to_quantile

__all__ = [
    "CONFIG_DEFAULTS",
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
    "properties": {
        "spec": {"const": 1},
        "name": {"type": "string"},
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
                "family": {"enum": ["matern32", "squared_exponential"]},
                "lengthscale": {"type": "number", "exclusiveMinimum": 0},
                "output_scale": {"type": "number", "exclusiveMinimum": 0},
            },
        },
        "noise": {
            "type": "object",
            "required": ["family"],
            "properties": {
                "family": {
                    "enum": ["uniform", "gaussian", "sub_gaussian", "student_t_scaled"]
                }
            },
        },
        "violation_prob": {"type": "number", "exclusiveMinimum": 0, "exclusiveMaximum": 1},
        "confidence_level": {"type": "number", "exclusiveMinimum": 0, "exclusiveMaximum": 1},
        "regularization": {"type": "number", "exclusiveMinimum": 0, "maximum": 1},
        "exploration_threshold": {"type": "number", "exclusiveMinimum": 0},
        "subgaussian_scale": {"type": "number", "minimum": 0},
        "norm_bound": {"type": "number", "exclusiveMinimum": 0},
        "beta_modes": {
            "type": "array",
            "minItems": 1,
            "items": {"enum": list(BETA_MODES)},
        },
        "seeds": {"type": "array", "items": {"type": "integer", "minimum": 0}},
        "max_iterations": {"type": "integer", "minimum": 0},
        "constraint": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "kind": {"enum": ["self", "independent"]},
                "quantile": {
                    "type": "number",
                    "exclusiveMinimum": 0,
                    "exclusiveMaximum": 1,
                },
            },
        },
        "n_centers": {"type": "integer", "minimum": 1},
        "collapse_policy": {"enum": ["error", "reset"]},
    },
}

# Values of the optional keys when a document leaves them out; a partial
# ``constraint`` is completed key by key.  ``n_centers`` unset means 40
# centers in 1-D and 200 otherwise.
CONFIG_DEFAULTS = {
    "name": "custom",
    "subgaussian_scale": 0.0,
    "norm_bound": 1.0,
    "beta_modes": ["scenario"],
    "constraint": {"kind": "self", "quantile": 0.4},
    "n_centers": None,
    "collapse_policy": "reset",
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


def validate_config(document: dict) -> None:
    """Check a raw config document against the JSON schema."""
    try:
        jsonschema.validate(document, CONFIG_SCHEMA)
    except jsonschema.ValidationError as err:
        raise ConfigError(f"invalid experiment config: {err.message}") from err


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
    n_centers: int | None
    collapse_policy: str

    @classmethod
    def from_dict(cls, document: dict) -> "ExperimentConfig":
        validate_config(document)
        values = {**CONFIG_DEFAULTS, **document}
        del values["spec"]
        values["domain"] = {
            "bounds": tuple((float(lo), float(hi)) for lo, hi in values["domain"]["bounds"]),
            "resolution": tuple(int(r) for r in values["domain"]["resolution"]),
        }
        constraint = {**CONFIG_DEFAULTS["constraint"], **values["constraint"]}
        values["constraint"] = {**constraint, "quantile": float(constraint["quantile"])}
        values["kernel"] = dict(values["kernel"])
        values["noise"] = dict(values["noise"])
        for key in ("violation_prob", "confidence_level", "regularization",
                    "exploration_threshold", "subgaussian_scale", "norm_bound"):
            values[key] = float(values[key])
        values["beta_modes"] = tuple(values["beta_modes"])
        values["seeds"] = tuple(int(s) for s in values["seeds"])
        values["max_iterations"] = int(values["max_iterations"])
        if values["n_centers"] is not None:
            values["n_centers"] = int(values["n_centers"])
        return cls(**values)

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
        return Kernel.from_config(self.kernel)

    def centers(self) -> int:
        if self.n_centers is not None:
            return self.n_centers
        return 40 if len(self.domain["bounds"]) == 1 else 200


@dataclass(frozen=True)
class SyntheticProblem:
    """Ground truth for one seed: functions, constraints, and a safe start."""

    domain: Domain
    functions: tuple
    constraint_indices: tuple[int, ...]
    initial_safe: tuple[int, ...]

    def oracle(self, point: np.ndarray) -> np.ndarray:
        return np.array([float(f(point)) for f in self.functions])

    def grid_values(self) -> np.ndarray:
        return np.stack([np.asarray(f(self.domain.points)) for f in self.functions])

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
        shifted = shift_to_quantile(reward, domain, quantile)
        functions: tuple = (shifted,)
        constraint_indices: tuple[int, ...] = (0,)
    else:
        other = sample_rkhs_function(kernel, domain, n_centers, rng)
        constraint = shift_to_quantile(other, domain, quantile)
        functions = (reward, constraint)
        constraint_indices = (1,)

    values = np.stack([np.asarray(f(domain.points)) for f in functions])
    margins = values[list(constraint_indices)].min(axis=0)
    eligible = np.flatnonzero(margins >= 0.0)
    if eligible.size == 0:
        raise ConfigError("no safe grid point exists for this ground truth")
    ordered = eligible[np.argsort(margins[eligible], kind="stable")]
    lo = int(0.4 * ordered.size)
    hi = max(int(0.7 * ordered.size), lo + 1)
    band = ordered[lo:hi]
    start = int(band[int(rng.integers(band.size))])
    return SyntheticProblem(
        domain=domain,
        functions=functions,
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
    final_best_index: int
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
    streams = np.random.SeedSequence(seed).spawn(1 + len(config.beta_modes))
    problem = build_synthetic_problem(config, np.random.default_rng(streams[0]))
    run_rng = np.random.default_rng(streams[1 + config.beta_modes.index(beta_mode)])

    schedule = ScenarioSchedule(
        violation_prob=config.violation_prob,
        confidence=config.confidence_level,
        n_outputs=len(problem.functions),
    )
    opt_config = OptimizerConfig(
        norm_bounds=(config.norm_bound,) * len(problem.functions),
        regularization=config.regularization,
        exploration_threshold=config.exploration_threshold,
        schedule=schedule,
        max_iterations=config.max_iterations,
        initial_safe=problem.initial_safe,
        beta_mode=beta_mode,
        subgaussian_scale=config.subgaussian_scale,
        constraint_indices=problem.constraint_indices,
        on_collapse=config.collapse_policy,
    )
    optimizer = SafeOptimizer(config.build_kernel(), problem.domain, opt_config)
    noise_model = model_from_config(config.noise)

    final = optimizer.run(problem.oracle, noise_model, run_rng)

    violations = tuple(
        any(rec.true_values[i] < 0.0 for i in problem.constraint_indices)
        for rec in final.records
    )
    beta_bar = tuple(max(rec.betas) for rec in final.records)
    best = optimizer.best_parameter(final)
    best_point = problem.domain.points[best]
    return RunTrace(
        seed=seed,
        beta_mode=beta_mode,
        dim=problem.domain.dim,
        n_outputs=len(problem.functions),
        records=final.records,
        violations=violations,
        beta_bar=beta_bar,
        termination_reason=final.termination_reason,
        final_best_index=best,
        final_best_point=tuple(float(v) for v in best_point),
        final_best_lower=final.confidence.lower_bound(0, best),
        final_best_true_reward=float(problem.functions[0](best_point)),
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

    ``jobs`` > 1 fans runs out to worker processes; results are merged
    back in (seed, mode) order either way, so parallelism never changes
    the output.
    """
    seeds = [seed for seed in config.seeds for _ in config.beta_modes]
    modes = list(config.beta_modes) * len(config.seeds)
    configs = [config] * len(seeds)
    if jobs > 1 and len(seeds) > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            traces = tuple(pool.map(run_single, configs, seeds, modes))
    else:
        traces = tuple(map(run_single, configs, seeds, modes))
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
