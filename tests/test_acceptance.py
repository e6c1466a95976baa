"""Acceptance suite: one test per release criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one
``ACCEPTANCE`` line per criterion.  Values with independent references
(high-precision tail sums, dense solves, brute-force set loops) are
recomputed here rather than trusted from the implementation under test.
"""

import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import mpmath
import numpy as np
import pytest

import safebo
from safebo import (
    ExperimentConfig,
    Kernel,
    ScenarioSchedule,
    SurrogateModel,
    gaussian,
    iteration_confidence,
    min_scenarios,
    pairwise,
    scenario_bound,
)
from safebo.harness import emit, run_experiment
from safebo.optimizer import expanders, maximizers, safe_set
from tests.test_gp import build_model, dense_posterior_reference
from tests.test_optimizer import (
    expanders_bruteforce,
    maximizers_bruteforce,
    random_fixture,
    safe_set_bruteforce,
)


def report(number: int, description: str, ok: bool, elapsed: float, budget: float):
    status = "PASS" if ok and elapsed < budget else "FAIL"
    print(f"ACCEPTANCE {number:02d} {status}: {description} ({elapsed:.2f}s / {budget:.0f}s budget)")
    assert ok, f"criterion {number} failed: {description}"
    assert elapsed < budget, f"criterion {number} exceeded its {budget:.0f}s budget"


# ---------------------------------------------------------------------------
# Shared seed batteries, computed once.


@pytest.fixture(scope="module")
def synthetic1_scenario_traces():
    config = ExperimentConfig.from_preset(
        "paper-synthetic-1", {"beta_modes": ["scenario"]}
    )
    return run_experiment(config).traces


@pytest.fixture(scope="module")
def synthetic2_traces():
    config = ExperimentConfig.from_preset("paper-synthetic-2")
    return run_experiment(config).traces


def test_criterion_01_scenario_count_values():
    start = time.monotonic()
    first = min_scenarios(ScenarioSchedule(0.1, 1e-3, 1), iteration_confidence(1e-3, 1))
    second = min_scenarios(ScenarioSchedule(0.1, 1e-3, 2), 1e-3)

    def oracle_tail(m, nu, terms):
        with mpmath.workdps(50):
            nu = mpmath.mpf(nu)
            return sum(
                mpmath.binomial(m, s) * nu**s * (1 - nu) ** (m - s) for s in range(terms)
            )

    with mpmath.workdps(50):
        adjusted = 6 * mpmath.mpf(1e-3) / mpmath.pi**2
    ok = (
        first == 71
        and second == 89
        and oracle_tail(71, 0.1, 1) <= adjusted
        and oracle_tail(70, 0.1, 1) > adjusted
        and oracle_tail(89, 0.1, 2) <= mpmath.mpf(1e-3)
        and oracle_tail(88, 0.1, 2) > mpmath.mpf(1e-3)
    )
    report(1, "minimal scenario counts match the high-precision tail oracle",
           ok, time.monotonic() - start, 1.0)


def test_criterion_02_confidence_schedule_sum():
    start = time.monotonic()
    kappa = 1e-3
    horizon = 10**6
    t = np.arange(horizon, 0, -1, dtype=float)  # ascending summands
    partial = float(np.sum(6.0 * kappa / (math.pi**2 * t**2)))
    margin = kappa - partial
    tail_floor = kappa * (6.0 / math.pi**2) / (horizon + 1)
    ok = partial <= kappa and margin >= tail_floor * (1.0 - 1e-12)
    report(2, "confidence shares over 1e6 iterations stay within budget with the tail margin",
           ok, time.monotonic() - start, 1.0)


def test_criterion_03_noise_bound_coverage():
    start = time.monotonic()
    schedule = ScenarioSchedule(0.1, 1e-3, 1)
    model = gaussian(1e-4)
    rng = np.random.default_rng(2024)
    worst = 0.0
    for t in range(1, 51):
        bound = scenario_bound(model, schedule, t, np.zeros(1), rng)
        fresh = model.sample(np.zeros(1), 0, rng, 10_000)
        worst = max(worst, float(np.mean(np.abs(fresh) > bound.magnitudes[0])))
    report(3, f"fresh-draw exceedance of the scenario bound stays below 0.12 (worst {worst:.4f})",
           worst <= 0.12, time.monotonic() - start, 30.0)


def test_criterion_04_gp_matches_dense_reference():
    start = time.monotonic()
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(200):
        dim = int(rng.integers(1, 3))
        t = int(rng.integers(1, 21))
        n = int(rng.integers(2, 51))
        kernel = Kernel(lengthscale=float(rng.uniform(0.05, 1.0)))
        reg = float(rng.uniform(1e-3, 1.0))
        inputs = rng.uniform(0, 1, size=(t, dim))
        targets = rng.standard_normal((2, t))
        queries = rng.uniform(0, 1, size=(n, dim))
        model = build_model(kernel, reg, inputs, targets, queries=queries)
        means, std = model.posterior()
        ref_means, ref_std = dense_posterior_reference(kernel, inputs, targets, queries, reg)
        worst = max(worst, float(np.max(np.abs(means[:, t:] - ref_means))),
                    float(np.max(np.abs(std[t:] - ref_std))))
    report(4, f"posterior matches the dense direct solve on 200 instances (worst gap {worst:.2e})",
           worst <= 1e-8, time.monotonic() - start, 10.0)


def test_criterion_05_spectral_ratio_closed_form():
    start = time.monotonic()
    rng = np.random.default_rng(11)
    worst = 0.0
    for _ in range(100):
        t = int(rng.integers(1, 21))
        kernel = Kernel(lengthscale=float(rng.uniform(0.05, 1.0)))
        reg = float(rng.uniform(1e-3, 1.0))
        inputs = rng.uniform(0, 1, size=(t, 2))
        model = build_model(kernel, reg, inputs, np.zeros((1, t)))
        gram = pairwise(kernel, model.inputs, model.inputs)
        assembled = gram @ np.linalg.inv(gram + reg * np.eye(t))
        reference = float(np.max(np.real(np.linalg.eigvals(assembled))))
        worst = max(worst, abs(model.xi_lambda_max() - reference))

    monotone = True
    for trial in range(10):
        grow_rng = np.random.default_rng(100 + trial)
        points = grow_rng.uniform(0, 1, (20, 1))
        model = SurrogateModel(Kernel(lengthscale=0.2), 0.01, 1, grid=points)
        last = model.xi_lambda_max()
        for index in range(20):
            model = model.with_observation(index, [0.0])
            current = model.xi_lambda_max()
            monotone &= current >= last - 1e-12
            last = current
    report(5, f"spectral ratio matches the assembled eigenproblem (worst gap {worst:.2e}) and grows",
           worst <= 1e-10 and monotone, time.monotonic() - start, 10.0)


def test_criterion_06_nesting_and_multiplier_monotonicity():
    start = time.monotonic()
    from safebo.harness import build_synthetic_problem
    from safebo.noise import model_from_config
    from safebo.optimizer import OptimizerConfig, SafeOptimizer

    config = ExperimentConfig.from_preset(
        "paper-synthetic-1", {"max_iterations": 100, "beta_modes": ["scenario"]}
    )
    nesting_violations = 0
    beta_violations = 0
    for seed in range(20):
        streams = np.random.SeedSequence(seed).spawn(2)
        problem = build_synthetic_problem(config, np.random.default_rng(streams[0]))
        opt_config = OptimizerConfig(
            norm_bounds=(config.norm_bound,) * len(problem.functions),
            regularization=config.regularization,
            exploration_threshold=config.exploration_threshold,
            schedule=ScenarioSchedule(0.1, 1e-3, len(problem.functions)),
            max_iterations=config.max_iterations,
            initial_safe=problem.initial_safe,
            on_collapse="error",
        )
        optimizer = SafeOptimizer(config.build_kernel(), problem.domain, opt_config)
        noise = model_from_config(config.noise)
        rng = np.random.default_rng(streams[1])
        state = optimizer.initial_state()
        prev = state.confidence
        prev_betas = None
        while not state.terminated:
            state = optimizer.step(state, problem.oracle, noise, rng)
            conf = state.confidence
            if np.any(conf.lower < prev.lower) or np.any(conf.upper > prev.upper):
                nesting_violations += 1
            if prev_betas is not None and np.any(state.betas < prev_betas):
                beta_violations += 1
            prev = conf
            prev_betas = state.betas
    ok = nesting_violations == 0 and beta_violations == 0
    report(6, "zero nesting or multiplier-monotonicity violations over 20 runs x 100 iterations",
           ok, time.monotonic() - start, 120.0)


def test_criterion_07_safety_reproduction(synthetic1_scenario_traces, synthetic2_traces):
    start = time.monotonic()
    clean = sum(t.violation_count for t in synthetic1_scenario_traces)

    classic = [t for t in synthetic2_traces if t.beta_mode == "classic_subgaussian"]
    scenario = [t for t in synthetic2_traces if t.beta_mode == "scenario"]
    classic_seeds = [t.seed for t in classic if t.violation_count > 0]
    scenario_rate = (
        sum(t.violation_count for t in scenario)
        / max(1, sum(t.iterations for t in scenario))
    )
    ok = clean == 0 and len(classic_seeds) >= 1 and scenario_rate <= 0.1
    report(
        7,
        "uniform-noise battery violation-free; heavy-tailed battery: classic multiplier "
        f"violates on seeds {classic_seeds}, scenario rate {scenario_rate:.4f}",
        ok,
        time.monotonic() - start,
        600.0,
    )


def test_criterion_08_set_construction_bruteforce():
    start = time.monotonic()
    rng = np.random.default_rng(31337)
    ok = True
    for _ in range(500):
        lower, upper, previous, norms, index, metric, cons = random_fixture(rng)
        fast_s = safe_set(lower, np.isfinite(lower), previous, norms, index, cons)
        ok &= np.array_equal(fast_s, safe_set_bruteforce(lower, previous, norms, metric, cons))
        fast_m = maximizers(upper, lower, fast_s)
        ok &= np.array_equal(fast_m, maximizers_bruteforce(upper, lower, fast_s))
        fast_g = expanders(upper, fast_s, norms, index, cons)
        ok &= np.array_equal(fast_g, expanders_bruteforce(upper, fast_s, norms, metric, cons))
        if not ok:
            break
    report(8, "safe/maximizer/expander sets equal the brute-force loops on 500 fixtures",
           ok, time.monotonic() - start, 30.0)


def test_criterion_09_scaling_laws():
    start = time.monotonic()
    base = min_scenarios(ScenarioSchedule(0.1, 1e-3, 1), iteration_confidence(1e-3, 1))
    halved = min_scenarios(ScenarioSchedule(0.05, 1e-3, 1), iteration_confidence(1e-3, 1))
    ratio = halved / base

    decade = min_scenarios(ScenarioSchedule(0.1, 1e-4, 1), iteration_confidence(1e-4, 1))
    shift = decade - base
    expected_shift = math.ceil(math.log(10.0) / -math.log(0.9))
    ok = 1.9 <= ratio <= 2.1 and abs(shift - expected_shift) <= 2
    report(9, f"halving the violation level scales counts by {ratio:.3f}; "
              f"a confidence decade adds {shift} (expected ~{expected_shift})",
           ok, time.monotonic() - start, 5.0)


def test_criterion_10_multiplier_growth_envelope(synthetic1_scenario_traces):
    start = time.monotonic()
    good = 0
    monotone_all = True
    for trace in synthetic1_scenario_traces:
        series = list(trace.beta_bar)
        monotone_all &= series == sorted(series)
        anchor = series[0]
        within = all(
            series[t - 1] <= anchor * math.sqrt(t)
            for t in range(2, min(len(series), 200) + 1)
        )
        good += within
    ok = monotone_all and good >= 18
    report(10, f"multiplier series monotone and within the sqrt envelope on {good}/20 seeds",
           ok, time.monotonic() - start, 600.0)


# Two runs past the GP's first buffer growth, emitted by a fresh
# interpreter so that the BLAS thread count can be set before numpy
# loads: 130 appends in 1-D, and 110 on a 2-D grid with two outputs,
# whose Gram and projection products are large enough for BLAS to split
# across threads.
EMIT_RUNS = """
import sys
from pathlib import Path
from safebo import ExperimentConfig
from safebo.harness import emit, run_experiment
one_d = ExperimentConfig.from_preset(
    "paper-synthetic-1", {"seeds": [2], "beta_modes": ["scenario"], "max_iterations": 130}
)
two_d = ExperimentConfig.from_dict({
    "spec": 1,
    "name": "two-output-2d",
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
    "seeds": [0],
    "max_iterations": 110,
    "constraint": {"kind": "independent", "quantile": 0.4},
    "n_centers": 40,
    "collapse_policy": "reset",
})
emit(run_experiment(one_d), Path(sys.argv[1]) / "1d")
emit(run_experiment(two_d), Path(sys.argv[1]) / "2d")
"""


def emit_with_blas_threads(threads: int, out_dir: Path) -> list[Path]:
    src = str(Path(safebo.__file__).resolve().parent.parent)
    env = {
        **os.environ,
        "OPENBLAS_NUM_THREADS": str(threads),
        "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]),
    }
    done = subprocess.run(
        [sys.executable, "-c", EMIT_RUNS, str(out_dir)],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr[-2000:]
    return sorted(path for path in out_dir.rglob("*") if path.is_file())


def same_bytes(first: list[Path], second: list[Path]) -> bool:
    return len(first) == len(second) and all(
        a.name == b.name and a.read_bytes() == b.read_bytes()
        for a, b in zip(first, second)
    )


def test_criterion_11_byte_identical_reruns(tmp_path):
    start = time.monotonic()
    config = ExperimentConfig.from_preset(
        "paper-synthetic-1",
        {"seeds": [0, 1], "max_iterations": 60, "beta_modes": ["scenario"]},
    )
    first = emit(run_experiment(config), tmp_path / "first")
    second = emit(run_experiment(config), tmp_path / "second")
    one_thread = emit_with_blas_threads(1, tmp_path / "threads-1")
    two_threads = emit_with_blas_threads(2, tmp_path / "threads-2")
    ok = same_bytes(first, second) and same_bytes(one_thread, two_threads)
    report(11, "identical config and seeds reproduce byte-identical outputs, "
           "whatever the BLAS thread count", ok, time.monotonic() - start, 120.0)
