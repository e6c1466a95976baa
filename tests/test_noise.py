import math

import mpmath
import numpy as np
import pytest
from scipy.stats import ks_2samp

from safebo import (
    NoiseModel,
    ScenarioSchedule,
    builtin_models,
    gaussian,
    iteration_confidence,
    min_scenarios,
    model_from_config,
    scenario_bound,
    student_t_scaled,
    sub_gaussian_surrogate,
    uniform,
)


def binomial_tail_oracle(m, violation_prob, n_terms, dps=50):
    """High-precision tail sum, independent of the log-space recurrence."""
    with mpmath.workdps(dps):
        nu = mpmath.mpf(violation_prob)
        total = mpmath.mpf(0)
        for s in range(min(m + 1, n_terms)):
            total += mpmath.binomial(m, s) * nu**s * (1 - nu) ** (m - s)
        return total


def min_scenarios_oracle(violation_prob, adjusted, n_terms, start=1):
    """Increment-and-check reference for small answers."""
    m = start
    while binomial_tail_oracle(m, violation_prob, n_terms) > adjusted:
        m += 1
    return m


class TestIterationConfidence:
    def test_values(self):
        assert iteration_confidence(1e-3, 1) == pytest.approx(
            6e-3 / math.pi**2, rel=1e-15
        )
        assert iteration_confidence(1e-3, 10) == pytest.approx(
            6e-3 / (math.pi**2 * 100), rel=1e-15
        )

    def test_partial_sums_stay_below_budget(self):
        t = np.arange(1, 10_001)
        shares = 6e-3 / (math.pi**2 * t.astype(float) ** 2)
        assert np.all(np.cumsum(shares) <= 1e-3)

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            iteration_confidence(1e-3, 0)
        with pytest.raises(ValueError):
            iteration_confidence(0.0, 1)
        with pytest.raises(ValueError):
            iteration_confidence(1.0, 1)


class TestMinScenarios:
    def test_boundary_case_single_scenario(self):
        # (1 - 0.5)^1 = 0.5 meets the target exactly; m = 0 fails.
        schedule = ScenarioSchedule(0.5, 0.5, 1)
        assert min_scenarios(schedule, 0.5) == 1

    def test_single_output_first_iteration(self):
        schedule = ScenarioSchedule(0.1, 1e-3, 1)
        adjusted = iteration_confidence(1e-3, 1)
        assert min_scenarios(schedule, adjusted) == 71
        assert min_scenarios_oracle(0.1, adjusted, 1, start=60) == 71

    def test_two_outputs(self):
        schedule = ScenarioSchedule(0.1, 1e-3, 2)
        assert min_scenarios(schedule, 1e-3) == 89
        assert min_scenarios_oracle(0.1, 1e-3, 2, start=80) == 89

    def test_repeated_queries_are_memoized(self):
        adjusted = iteration_confidence(1e-3, 7)
        first = min_scenarios(ScenarioSchedule(0.1, 1e-3, 2), adjusted)
        hits = min_scenarios.cache_info().hits
        # An equal schedule built separately hits the same entry.
        assert min_scenarios(ScenarioSchedule(0.1, 1e-3, 2), adjusted) == first
        assert min_scenarios.cache_info().hits == hits + 1

    @pytest.mark.parametrize(
        "nu,adjusted,k",
        [
            (0.1, 1e-3, 1),
            (0.1, 1e-3, 2),
            (0.1, 1e-3, 3),
            (0.05, 1e-4, 2),
            (0.3, 0.01, 3),
            (0.01, 1e-2, 1),
            (0.5, 0.9, 2),
        ],
    )
    def test_exact_minimality_against_oracle(self, nu, adjusted, k):
        schedule = ScenarioSchedule(nu, 0.5, k)  # confidence unused here
        m = min_scenarios(schedule, adjusted)
        assert binomial_tail_oracle(m, nu, k) <= adjusted
        assert binomial_tail_oracle(m - 1, nu, k) > adjusted

    def test_nondecreasing_in_iteration(self):
        schedule = ScenarioSchedule(0.1, 1e-3, 1)
        counts = [
            min_scenarios(schedule, iteration_confidence(1e-3, t))
            for t in range(1, 60)
        ]
        assert counts == sorted(counts)

    def test_nondecreasing_in_outputs(self):
        counts = [
            min_scenarios(ScenarioSchedule(0.1, 1e-3, k), 1e-3) for k in range(1, 6)
        ]
        assert counts == sorted(counts)

    def test_large_batch_no_overflow(self):
        # Small violation level pushes the count into the tens of thousands;
        # the log-space tail must stay finite and exact.
        schedule = ScenarioSchedule(1e-3, 0.5, 2)
        m = min_scenarios(schedule, 1e-6)
        assert binomial_tail_oracle(m, 1e-3, 2) <= 1e-6
        assert binomial_tail_oracle(m - 1, 1e-3, 2) > 1e-6

    def test_degenerate_violation_level_guard(self):
        schedule = ScenarioSchedule(1e-12, 0.5, 1)
        with pytest.raises(OverflowError):
            min_scenarios(schedule, 1e-6)


class TestBuiltinModels:
    def test_catalog_families(self):
        catalog = builtin_models()
        assert set(catalog) == {"uniform", "gaussian", "sub_gaussian", "student_t_scaled"}

    def test_gaussian_sample_variance(self, rng):
        model = gaussian(1e-4)
        draws = model.sample(np.zeros(1), 0, rng, 1_000_000)
        assert 0.9e-4 <= draws.var() <= 1.1e-4

    def test_student_t_vanishes_at_origin(self, rng):
        model = student_t_scaled(10.0, 0.2)
        draws = model.sample(np.zeros(2), 0, rng, 100)
        assert np.all(draws == 0.0)

    def test_sub_gaussian_aliases_gaussian_draws(self):
        a = sub_gaussian_surrogate(1e-5).sample(np.zeros(1), 0, np.random.default_rng(7), 50)
        b = gaussian(1e-10).sample(np.zeros(1), 0, np.random.default_rng(7), 50)
        assert np.array_equal(a, b)

    def test_homoscedastic_models_ignore_location(self):
        # Kolmogorov-Smirnov on two distant locations must not reject.
        for name, model in [
            ("uniform", uniform(-1e-3, 1e-3)),
            ("gaussian", gaussian(1e-4)),
        ]:
            assert model.homoscedastic, name
            left = model.sample(np.array([0.0]), 0, np.random.default_rng(1), 10_000)
            right = model.sample(np.array([100.0]), 0, np.random.default_rng(2), 10_000)
            assert ks_2samp(left, right).pvalue > 0.01, name

    def test_heteroscedastic_flag(self):
        assert not student_t_scaled().homoscedastic

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            student_t_scaled(dof=0.0)
        with pytest.raises(ValueError):
            uniform(1.0, -1.0)
        with pytest.raises(ValueError):
            gaussian(-1.0)

    def test_wire_descriptors_round_trip(self):
        for config in [
            {"family": "uniform", "low": -1e-3, "high": 1e-3},
            {"family": "gaussian", "variance": 1e-4},
            {"family": "student_t_scaled", "dof": 10.0, "scale": 0.2},
        ]:
            model = model_from_config(config)
            assert model.to_config() == config
        # sub_gaussian is gaussian(scale**2), so it reads back as that.
        alias = model_from_config({"family": "sub_gaussian", "scale": 1e-5})
        assert alias.to_config() == {"family": "gaussian", "variance": 1e-5 * 1e-5}

    def test_unknown_family_rejected(self):
        with pytest.raises(ValueError, match="unknown noise family"):
            model_from_config({"family": "cauchy"})


class TestScenarioBound:
    def test_zero_noise_model(self, rng):
        silent = NoiseModel("silent", {}, True, lambda a, i, r, n: np.zeros(n))
        schedule = ScenarioSchedule(0.1, 1e-3, 2)
        bound = scenario_bound(silent, schedule, 1, np.zeros(1), rng)
        assert bound.magnitudes == pytest.approx(np.zeros(2))

    def test_injected_stream_takes_max_abs(self, rng):
        # A stream of 71 values, the batch size at t = 1, peaking at -1.2.
        stream = iter(np.linspace(0.5, -1.2, 71))
        injected = NoiseModel(
            "stream", {}, True,
            lambda a, i, r, n: np.array([next(stream) for _ in range(n)]),
        )
        schedule = ScenarioSchedule(0.1, 1e-3, 1)
        bound = scenario_bound(injected, schedule, 1, np.zeros(1), rng)
        assert bound.n_scenarios == 71
        assert bound.magnitudes[0] == 1.2
        assert next(stream, None) is None

    def test_uniform_bound_within_support(self, rng):
        schedule = ScenarioSchedule(0.1, 1e-3, 1)
        bound = scenario_bound(uniform(-1e-3, 1e-3), schedule, 1, np.zeros(1), rng)
        assert 0.0 < bound.magnitudes[0] <= 1e-3
        assert bound.n_scenarios == 71

    def test_reproducible_bit_for_bit(self):
        schedule = ScenarioSchedule(0.1, 1e-3, 2)
        runs = [
            scenario_bound(
                gaussian(1e-4), schedule, 3, np.array([0.5]), np.random.default_rng(99)
            )
            for _ in range(2)
        ]
        assert np.array_equal(runs[0].magnitudes, runs[1].magnitudes)

    def test_bound_is_max_abs_of_the_replayed_draws(self):
        # Replaying the generator yields the batch: each output's
        # n_scenarios draws in turn, the bound being their largest |draw|.
        schedule = ScenarioSchedule(0.1, 1e-3, 2)
        model = gaussian(1e-4)
        bound = scenario_bound(model, schedule, 1, np.zeros(1), np.random.default_rng(4))
        replay = np.random.default_rng(4)
        draws = [model.sample(np.zeros(1), i, replay, bound.n_scenarios) for i in range(2)]
        assert np.array_equal(bound.magnitudes, np.abs(draws).max(axis=1))

    def test_propagates_non_finite_draws(self, rng):
        broken = NoiseModel("broken", {}, True, lambda a, i, r, n: np.full(n, np.nan))
        schedule = ScenarioSchedule(0.1, 1e-3, 1)
        with pytest.raises(ValueError, match="non-finite"):
            scenario_bound(broken, schedule, 1, np.zeros(1), rng)

    def test_empirical_coverage_tracks_violation_level(self):
        # Bounds from the schedule should be exceeded by fresh draws at a
        # rate comfortably below the violation level plus sampling slack.
        schedule = ScenarioSchedule(0.1, 1e-3, 1)
        model = gaussian(1e-4)
        rng = np.random.default_rng(5)
        for t in (1, 7, 25):
            bound = scenario_bound(model, schedule, t, np.zeros(1), rng)
            fresh = model.sample(np.zeros(1), 0, rng, 10_000)
            exceed = np.mean(np.abs(fresh) > bound.magnitudes[0])
            assert exceed <= 0.12
