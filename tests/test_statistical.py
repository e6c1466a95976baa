"""Seed-battery checks of the probabilistic guarantees at desk scale.

These are statistical statements, so the assertions carry the tolerance
slack spelled out with each bound; everything is seeded and therefore
reproducible.
"""

import numpy as np
import pytest

from safebo import Domain, Kernel, OptimizerConfig, SafeOptimizer, ScenarioSchedule
from safebo.noise import model_from_config
from safebo.synthetic import sample_rkhs_function, shift_to_quantile


def containment_run(seed, n_points=60, iterations=25):
    """One synthetic run; returns True when the truth ever left an
    interval at an evaluated point."""
    kernel = Kernel(lengthscale=0.1)
    domain = Domain.grid([(0.0, 1.0)], n_points)
    streams = np.random.SeedSequence(seed).spawn(2)
    _, values = shift_to_quantile(
        sample_rkhs_function(kernel, domain, 25, np.random.default_rng(streams[0])),
        domain,
        0.4,
    )
    start = int(np.argsort(values)[int(0.75 * n_points)])

    config = OptimizerConfig(
        norm_bounds=(1.0,),
        regularization=0.01,
        exploration_threshold=0.05,
        schedule=ScenarioSchedule(0.1, 1e-3, 1),
        max_iterations=iterations,
        initial_safe=(start,),
        on_collapse="reset",
    )
    optimizer = SafeOptimizer(kernel, domain, config)
    noise = model_from_config({"family": "uniform", "low": -1e-3, "high": 1e-3})
    rng = np.random.default_rng(streams[1])

    visited: set[int] = set()

    def oracle(index):
        visited.add(index)
        return values[index : index + 1]

    state = optimizer.initial_state()
    escaped = False
    while not state.terminated:
        state = optimizer.step(state, oracle, noise, rng)
        for idx in visited:
            if not (
                state.confidence.lower[0, idx] - 1e-12
                <= values[idx]
                <= state.confidence.upper[0, idx] + 1e-12
            ):
                escaped = True
    return escaped


@pytest.mark.slow
def test_truth_containment_rate_over_seed_battery():
    # The interval guarantee tolerates a 0.1 per-run failure level; the
    # extra 0.05 covers the 200-sample estimate of that rate.
    escapes = sum(containment_run(seed) for seed in range(200))
    assert escapes / 200 <= 0.1 + 0.05


@pytest.mark.slow
def test_unsafe_experiment_rate_over_seed_battery():
    # 50 runs of up to 100 iterations; the unsafe-experiment share must
    # stay within the violation level plus estimation slack.
    kernel = Kernel(lengthscale=0.1)
    domain = Domain.grid([(0.0, 1.0)], 150)
    total = 0
    unsafe = 0
    for seed in range(50):
        streams = np.random.SeedSequence(seed).spawn(2)
        _, values = shift_to_quantile(
            sample_rkhs_function(kernel, domain, 30, np.random.default_rng(streams[0])),
            domain,
            0.4,
        )
        safe_idx = np.flatnonzero(values >= 0)
        start = int(safe_idx[np.argsort(values[safe_idx])[int(0.55 * safe_idx.size)]])
        config = OptimizerConfig(
            norm_bounds=(1.0,),
            regularization=0.01,
            exploration_threshold=0.1,
            schedule=ScenarioSchedule(0.1, 1e-3, 1),
            max_iterations=100,
            initial_safe=(start,),
            on_collapse="reset",
        )
        optimizer = SafeOptimizer(kernel, domain, config)
        noise = model_from_config({"family": "uniform", "low": -1e-3, "high": 1e-3})
        state = optimizer.run(
            lambda index: values[index : index + 1], noise, np.random.default_rng(streams[1])
        )
        total += len(state.records)
        unsafe += sum(rec.true_values[0] < 0 for rec in state.records)
    assert total > 0
    assert unsafe / total <= 0.1 + 0.03
