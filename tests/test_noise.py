import itertools
import json
import math

import mpmath
import numpy as np
import pytest
from scipy.stats import ks_2samp

from safebo import (
    ScenarioSchedule,
    gaussian,
    iteration_confidence,
    min_scenarios,
    scenario_bound,
    student_t_scaled,
    uniform,
)
from safebo.harness import CONFIG_SCHEMA
from safebo.noise import NoiseModel, _log_binomial_tail, model_from_config, sub_gaussian_surrogate


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


class TestScenarioSchedule:
    @pytest.mark.parametrize("n_outputs", [1.0, 2.5, True, np.True_])
    def test_rejects_an_output_count_that_is_not_an_integer(self, n_outputs):
        # A float count would pass construction and fail in min_scenarios.
        with pytest.raises(ValueError, match="n_outputs must be an integer"):
            ScenarioSchedule(0.1, 1e-3, n_outputs)

    def test_accepts_a_numpy_integer(self):
        assert ScenarioSchedule(0.1, 1e-3, np.int64(2)).n_outputs == 2


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

    def test_minimal_against_a_linear_scan(self):
        # Every count from zero up is tried with the same tail predicate:
        # the search returns the first that meets the target.
        for nu, kappa, k, t in itertools.product(
            [0.5, 0.2, 0.1, 0.05, 0.01], [0.1, 1e-3, 1e-6], [1, 2, 3], [1, 10, 100]
        ):
            adjusted = iteration_confidence(kappa, t)
            m = 0
            while _log_binomial_tail(m, nu, k) > math.log(adjusted):
                m += 1
            assert min_scenarios(ScenarioSchedule(nu, kappa, k), adjusted) == m, (nu, kappa, k, t)

    def test_degenerate_violation_level_guard(self):
        schedule = ScenarioSchedule(1e-12, 0.5, 1)
        with pytest.raises(OverflowError):
            min_scenarios(schedule, 1e-6)


# One wire descriptor per bundled noise family, with the model its constructor builds.
DESCRIPTORS = [
    ({"family": "uniform", "low": -1e-3, "high": 1e-3}, uniform(-1e-3, 1e-3)),
    ({"family": "gaussian", "variance": 1e-4}, gaussian(1e-4)),
    ({"family": "sub_gaussian", "scale": 1e-5}, sub_gaussian_surrogate(1e-5)),
    ({"family": "student_t_scaled", "dof": 10.0, "scale": 0.2}, student_t_scaled(10.0, 0.2)),
]


class TestBuiltinModels:
    def test_catalog_families(self, rng):
        # Every family a config may name builds and samples.
        families = CONFIG_SCHEMA["properties"]["noise"]["properties"]["family"]["enum"]
        assert sorted(families) == sorted(d["family"] for d, _ in DESCRIPTORS)
        for descriptor, _ in DESCRIPTORS:
            draws = model_from_config(descriptor).sample(np.array([0.5]), 0, rng, 20)
            assert draws.shape == (20,), descriptor["family"]

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
            left = model.sample(np.array([0.0]), 0, np.random.default_rng(1), 10_000)
            right = model.sample(np.array([100.0]), 0, np.random.default_rng(2), 10_000)
            assert ks_2samp(left, right).pvalue > 0.01, name

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            student_t_scaled(dof=0.0)
        with pytest.raises(ValueError):
            uniform(1.0, -1.0)
        with pytest.raises(ValueError):
            gaussian(-1.0)
        # A JSON descriptor's parameters are untyped, so NaN and infinity
        # reach the constructors and must not reach the sampler.
        for build in (
            lambda: uniform(-math.inf, 1.0),
            lambda: uniform(0.0, math.nan),
            lambda: gaussian(math.nan),
            lambda: gaussian(math.inf),
            lambda: sub_gaussian_surrogate(math.nan),
            lambda: student_t_scaled(dof=math.nan),
            lambda: student_t_scaled(dof=math.inf),
            lambda: student_t_scaled(scale=math.inf),
        ):
            with pytest.raises(ValueError, match="finite"):
                build()

    @pytest.mark.parametrize(
        "build",
        [
            lambda: uniform(False, True),
            lambda: uniform(-1.0, True),
            lambda: gaussian(True),
            lambda: sub_gaussian_surrogate(True),
            lambda: student_t_scaled(dof=True),
            lambda: student_t_scaled(scale=np.True_),
        ],
        ids=["uniform-both", "uniform-high", "gaussian", "sub-gaussian", "student-t-dof",
             "student-t-scale"],
    )
    def test_bools_are_not_numbers(self, build):
        # A JSON descriptor's true and false would otherwise pass the range
        # checks as 1 and 0.
        with pytest.raises(ValueError, match="must be a number, got"):
            build()

    def test_wire_descriptors_round_trip(self):
        # A descriptor read back from JSON draws what the constructor draws.
        location = np.array([0.7])
        for descriptor, direct_model in DESCRIPTORS:
            model = model_from_config(json.loads(json.dumps(descriptor)))
            wired = model.sample(location, 0, np.random.default_rng(3), 50)
            direct = direct_model.sample(location, 0, np.random.default_rng(3), 50)
            assert np.array_equal(wired, direct), descriptor["family"]

    def test_unknown_family_rejected(self):
        with pytest.raises(ValueError, match="unknown noise family"):
            model_from_config({"family": "cauchy"})


class TestScenarioBound:
    def test_zero_noise_model(self, rng):
        silent = NoiseModel("silent", lambda a, i, r, n: np.zeros(n))
        schedule = ScenarioSchedule(0.1, 1e-3, 2)
        bound = scenario_bound(silent, schedule, 1, np.zeros(1), rng)
        assert bound.magnitudes == pytest.approx(np.zeros(2))

    def test_injected_stream_takes_max_abs(self, rng):
        # A stream of 71 values, the batch size at t = 1, peaking at -1.2.
        stream = iter(np.linspace(0.5, -1.2, 71))
        injected = NoiseModel(
            "stream", lambda a, i, r, n: np.array([next(stream) for _ in range(n)])
        )
        schedule = ScenarioSchedule(0.1, 1e-3, 1)
        bound = scenario_bound(injected, schedule, 1, np.zeros(1), rng)
        assert bound.n_scenarios == 71
        assert bound.magnitudes[0] == 1.2
        assert next(stream, None) is None

    @pytest.mark.parametrize("peak", [5, 8500])
    def test_batch_beyond_one_chunk_takes_max_abs_over_every_chunk(self, peak):
        # At t = 2 with nu = kappa = 1e-3 the batch is 8788 draws, more than
        # one chunk of 8192: the sampler is asked for 8192, then 596.  The
        # peak |draw| sits in the first chunk or in the second.
        stream = np.random.default_rng(8).uniform(-1.0, 1.0, 8788)
        stream[peak] = -3.0
        sizes = []

        def sampler(location, output, rng, size):
            start = sum(sizes)
            sizes.append(size)
            return stream[start : start + size]

        schedule = ScenarioSchedule(1e-3, 1e-3, 1)
        bound = scenario_bound(
            NoiseModel("recording", sampler), schedule, 2, np.zeros(1), np.random.default_rng(0)
        )
        assert bound.n_scenarios == 8788
        assert sizes == [8192, 596]
        assert bound.magnitudes[0] == 3.0

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
        broken = NoiseModel("broken", lambda a, i, r, n: np.full(n, np.nan))
        schedule = ScenarioSchedule(0.1, 1e-3, 1)
        with pytest.raises(ValueError, match="non-finite"):
            scenario_bound(broken, schedule, 1, np.zeros(1), rng)

    def test_rejects_draws_of_the_wrong_shape(self, rng):
        # One scalar standing in for a batch of 71 would void the bound.
        scalar = NoiseModel("scalar", lambda a, i, r, n: r.normal())
        schedule = ScenarioSchedule(0.1, 1e-3, 1)
        with pytest.raises(ValueError, match="shape"):
            scenario_bound(scalar, schedule, 1, np.zeros(1), rng)
        column = NoiseModel("column", lambda a, i, r, n: np.zeros((n, 1)))
        with pytest.raises(ValueError, match=r"shape \(5, 1\)"):
            column.sample(np.zeros(1), 0, rng, 5)

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
