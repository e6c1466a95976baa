import math
import tracemalloc

import numpy as np
import pytest

from safebo import (
    Domain,
    Kernel,
    OptimizerConfig,
    SafeOptimizer,
    ScenarioSchedule,
    metric_matrix,
    reachable_set,
    uniform,
)
from safebo.frontier import GridIndex
from safebo.kernels import FAMILIES
from safebo.noise import NoiseModel
from safebo.optimizer import (
    EmptyAcquisitionSet,
    acquire,
    classic_beta,
    expanders,
    maximizers,
    safe_set,
)

# ---------------------------------------------------------------------------
# Brute-force references: direct transcriptions of the set definitions as
# nested loops, kept deliberately dumb.


def safe_set_bruteforce(lower, bounded, previous, norms, metric, constraints):
    n = metric.shape[0]
    result = np.zeros(n, dtype=bool)
    for b in range(n):
        ok_all = True
        for i in constraints:
            ok_i = False
            for a in range(n):
                if not previous[a] or not bounded[i][a]:
                    continue
                if lower[i][a] - norms[i] * metric[a, b] >= 0.0:
                    ok_i = True
                    break
            if not ok_i:
                ok_all = False
                break
        result[b] = ok_all or previous[b]
    return result


def maximizers_bruteforce(upper, lower, bounded, safe):
    n = safe.shape[0]
    threshold = -math.inf
    for a in range(n):
        if safe[a] and bounded[0][a]:
            threshold = max(threshold, lower[0][a])
    result = np.zeros(n, dtype=bool)
    for a in range(n):
        if not safe[a]:
            continue
        u = upper[0][a] if bounded[0][a] else math.inf
        result[a] = u >= threshold
    return result


def expanders_bruteforce(upper, bounded, safe, norms, metric, constraints):
    n = safe.shape[0]
    result = np.zeros(n, dtype=bool)
    for a in range(n):
        if not safe[a]:
            continue
        for b in range(n):
            if safe[b]:
                continue
            for i in constraints:
                u = upper[i][a] if bounded[i][a] else math.inf
                if u - norms[i] * metric[a, b] >= 0.0:
                    result[a] = True
    return result


def random_points(rng):
    """Random 1-D or 2-D points, a tight cluster, or a 1-D or 2-D ``Domain.grid``."""
    layout = int(rng.integers(5))
    if layout == 4:
        # Metrics far below the output scale, where radii are tiny.
        return rng.uniform(0, 10 ** rng.uniform(-4, -1), size=(int(rng.integers(2, 13)), 2))
    if layout == 0:
        n = int(rng.integers(2, 13))
        return rng.uniform(0, 1, size=(n, 1)) + np.arange(n)[:, None] * 1e-6
    if layout == 1:
        return rng.uniform(0, 1, size=(int(rng.integers(2, 13)), 2))
    if layout == 2:
        return Domain.grid([(0.0, 1.0)], int(rng.integers(2, 16))).points
    resolution = [int(rng.integers(2, 5)), int(rng.integers(2, 5))]
    return Domain.grid([(0.0, 1.0), (-0.5, 0.5)], resolution).points


def random_fixture(rng):
    """Set-rule inputs: the set functions take ``index``, the loops ``metric``.

    Bounds are drawn in units of ``L * sqrt(2 * output_scale)``, the
    largest reach any metric can need, so some are negative, some reach a
    neighbour and some cover the whole grid.  A few bounds are exact ties,
    ``L * metric[s, j]`` for a pair, which the rules must accept.
    """
    family = FAMILIES[int(rng.integers(len(FAMILIES)))]
    kernel = Kernel(
        family,
        lengthscale=float(rng.uniform(0.05, 0.8)),
        output_scale=float(10 ** rng.uniform(-1, 1)),
    )
    points = random_points(rng)
    n = points.shape[0]
    k = int(rng.integers(1, 4))
    metric = metric_matrix(kernel, points)
    norms = rng.uniform(0.5, 2.0, size=k)
    reach = norms[:, None] * math.sqrt(2.0 * kernel.output_scale)
    scale = 10 ** rng.uniform(-2, 0.1)
    lower = rng.uniform(-0.5, 1.2, size=(k, n)) * reach * scale
    upper = lower + rng.uniform(0, 0.5, size=(k, n)) * reach * scale
    bounded = rng.random((k, n)) < 0.8
    previous = rng.random(n) < 0.4
    previous[int(rng.integers(n))] = True
    for _ in range(int(rng.integers(0, 4))):
        i, s, j = int(rng.integers(k)), int(rng.choice(np.flatnonzero(previous))), int(rng.integers(n))
        lower[i, s] = norms[i] * metric[s, j]
        upper[i, s] = max(upper[i, s], lower[i, s])
        i, s, j = int(rng.integers(k)), int(rng.integers(n)), int(rng.integers(n))
        upper[i, s] = norms[i] * metric[s, j]
        lower[i, s] = min(lower[i, s], upper[i, s])
    n_constraints = int(rng.integers(1, k + 1))
    constraints = tuple(sorted(rng.choice(k, size=n_constraints, replace=False).tolist()))
    index = GridIndex(kernel, points)
    return lower, upper, bounded, previous, norms, index, metric, constraints


class TestSetEquivalence:
    def test_matches_bruteforce_on_random_fixtures(self):
        rng = np.random.default_rng(42)
        for _ in range(200):
            lower, upper, bounded, previous, norms, index, metric, cons = random_fixture(rng)
            fast = safe_set(lower, bounded, previous, norms, index, cons)
            slow = safe_set_bruteforce(lower, bounded, previous, norms, metric, cons)
            assert np.array_equal(fast, slow)

            fast_m = maximizers(upper, lower, bounded, fast)
            slow_m = maximizers_bruteforce(upper, lower, bounded, fast)
            assert np.array_equal(fast_m, slow_m)

            fast_g = expanders(upper, bounded, fast, norms, index, cons)
            slow_g = expanders_bruteforce(upper, bounded, fast, norms, metric, cons)
            assert np.array_equal(fast_g, slow_g)


class TestSafeSet:
    def setup_method(self):
        self.kernel = Kernel(lengthscale=0.1)
        self.domain = Domain.grid([(0.0, 1.0)], 21)
        self.metric = metric_matrix(self.kernel, self.domain.points)
        self.index = GridIndex(self.kernel, self.domain.points)

    def test_expansion_radius_from_single_anchor(self):
        n = self.domain.n_points
        lower = np.full((1, n), -1.0)
        lower[0, 10] = 0.5
        bounded = np.ones((1, n), dtype=bool)
        previous = np.zeros(n, dtype=bool)
        previous[10] = True
        result = safe_set(lower, bounded, previous, np.array([1.0]), self.index, (0,))
        expected = (self.metric[10] <= 0.5) | previous
        assert np.array_equal(result, expected)

    def test_no_certification_keeps_previous(self):
        n = self.domain.n_points
        lower = np.full((1, n), -0.1)
        bounded = np.ones((1, n), dtype=bool)
        previous = np.zeros(n, dtype=bool)
        previous[[3, 4]] = True
        result = safe_set(lower, bounded, previous, np.array([1.0]), self.index, (0,))
        assert np.array_equal(result, previous)

    def test_disjoint_constraint_expansions_intersect_to_nothing(self):
        n = self.domain.n_points
        lower = np.full((2, n), -1.0)
        lower[0, 2] = 0.2   # reaches only near index 2
        lower[1, 18] = 0.2  # reaches only near index 18
        bounded = np.ones((2, n), dtype=bool)
        previous = np.zeros(n, dtype=bool)
        previous[[2, 18]] = True
        result = safe_set(
            lower, bounded, previous, np.array([1.0, 1.0]), self.index, (0, 1)
        )
        assert np.array_equal(result, previous)

    def test_every_exact_tie_is_kept(self):
        # One anchor whose lower bound is exactly L times its metric to
        # one outside point, for every anchor and outside point of a 2-D
        # grid: that point must be certified, as the dense scan says.
        for family in FAMILIES:
            kernel = Kernel(family, lengthscale=0.3, output_scale=2.5)
            domain = Domain.grid([(0.0, 1.0), (0.0, 1.0)], 7)
            metric = metric_matrix(kernel, domain.points)
            index = GridIndex(kernel, domain.points)
            n = domain.n_points
            previous = np.zeros(n, dtype=bool)
            previous[[16, 17, 23, 24, 25, 31]] = True
            norms = np.array([1.3])
            bounded = np.ones((1, n), dtype=bool)
            for s in np.flatnonzero(previous):
                for j in np.flatnonzero(~previous):
                    lower = np.full((1, n), -1.0)
                    lower[0, s] = norms[0] * metric[s, j]
                    result = safe_set(lower, bounded, previous, norms, index, (0,))
                    assert result[j]
                    assert np.array_equal(
                        result, dense_safe_set(lower, bounded, previous, norms, metric, (0,))
                    )

    def test_empty_previous_rejected(self):
        with pytest.raises(ValueError, match="non-empty"):
            safe_set(
                np.zeros((1, 3)),
                np.ones((1, 3), dtype=bool),
                np.zeros(3, dtype=bool),
                np.array([1.0]),
                GridIndex(self.kernel, self.domain.points[:3]),
                (0,),
            )


class TestMaximizers:
    def test_equal_intervals_keep_everything(self):
        n = 4
        lower = np.full((1, n), 0.1)
        upper = np.full((1, n), 0.9)
        bounded = np.ones((1, n), dtype=bool)
        safe = np.array([True, True, False, True])
        assert np.array_equal(
            maximizers(upper, lower, bounded, safe), safe
        )

    def test_dominant_point_is_singleton(self):
        lower = np.array([[0.8, 0.0, 0.1]])
        upper = np.array([[1.0, 0.5, 0.7]])
        bounded = np.ones((1, 3), dtype=bool)
        safe = np.ones(3, dtype=bool)
        assert np.array_equal(
            maximizers(upper, lower, bounded, safe), [True, False, False]
        )

    def test_two_point_fixture(self):
        lower = np.array([[0.5, 0.2]])
        upper = np.array([[1.0, 0.4]])
        bounded = np.ones((1, 2), dtype=bool)
        safe = np.ones(2, dtype=bool)
        assert np.array_equal(maximizers(upper, lower, bounded, safe), [True, False])

    def test_unbounded_upper_always_qualifies(self):
        lower = np.array([[0.9, 0.0]])
        upper = np.array([[1.0, 0.0]])
        bounded = np.array([[True, False]])
        safe = np.ones(2, dtype=bool)
        assert np.array_equal(maximizers(upper, lower, bounded, safe), [True, True])


class TestExpanders:
    def setup_method(self):
        self.kernel = Kernel(lengthscale=0.1)
        self.domain = Domain.grid([(0.0, 1.0)], 11)
        self.metric = metric_matrix(self.kernel, self.domain.points)
        self.index = GridIndex(self.kernel, self.domain.points)

    def test_full_safe_set_has_no_expanders(self):
        n = self.domain.n_points
        upper = np.ones((1, n))
        bounded = np.ones((1, n), dtype=bool)
        mask = expanders(
            upper, bounded, np.ones(n, dtype=bool), np.array([1.0]), self.index, (0,)
        )
        assert not mask.any()

    def test_unbounded_upper_reaches_everything(self):
        n = self.domain.n_points
        upper = np.zeros((1, n))
        bounded = np.zeros((1, n), dtype=bool)
        safe = np.zeros(n, dtype=bool)
        safe[5] = True
        mask = expanders(upper, bounded, safe, np.array([1.0]), self.index, (0,))
        assert np.array_equal(mask, safe)

    def test_reach_one_neighbor(self):
        # The anchor's upper bound 0.3 against the metric to its one outside point.
        points = np.array([[0.0], [0.05]])
        kernel = Kernel(lengthscale=0.2)
        metric = metric_matrix(kernel, points)
        upper = np.array([[0.3, 0.0]])
        bounded = np.ones((1, 2), dtype=bool)
        safe = np.array([True, False])
        mask = expanders(upper, bounded, safe, np.array([1.0]), GridIndex(kernel, points), (0,))
        assert mask[0] == (0.3 - metric[0, 1] >= 0)

    def test_roundoff_band_matches_bruteforce(self):
        # Upper bounds one ulp on either side of L times the metric to the
        # nearest outside point: below it the frontier cannot decide and
        # the ball query must.  The grid's equidistant neighbours put
        # other outside points at that metric up to roundoff.
        for family in FAMILIES:
            kernel = Kernel(family, lengthscale=0.3, output_scale=2.5)
            domain = Domain.grid([(0.0, 1.0), (0.0, 1.0)], 9)
            metric = metric_matrix(kernel, domain.points)
            index = GridIndex(kernel, domain.points)
            safe = np.zeros(domain.n_points, dtype=bool)
            safe[[30, 31, 39, 40, 41, 49, 50]] = True
            near = index.frontier(safe).near
            norms = np.array([1.7])
            for direction in (-np.inf, np.inf):
                upper = np.nextafter(norms[0] * near, direction)[None, :]
                bounded = np.ones((1, domain.n_points), dtype=bool)
                fast = expanders(upper, bounded, safe, norms, index, (0,))
                slow = expanders_bruteforce(upper, bounded, safe, norms, metric, (0,))
                assert np.array_equal(fast, slow)
            assert fast[safe].all()


class TestAcquire:
    def test_singleton(self):
        widths = np.array([[0.5]])
        assert acquire(widths, np.array([1.0]), np.array([True])) == 0

    def test_tied_widths_take_lowest_index(self):
        widths = np.array([[0.2, 0.9, 0.9]])
        std = np.ones(3)
        assert acquire(widths, std, np.ones(3, dtype=bool)) == 1

    def test_sigma_breaks_ties_before_index(self):
        widths = np.array([[0.9, 0.9]])
        std = np.array([0.5, 1.0])
        assert acquire(widths, std, np.ones(2, dtype=bool)) == 1

    def test_unbounded_width_wins(self):
        widths = np.array([[5.0, np.inf, 10.0]])
        std = np.ones(3)
        assert acquire(widths, std, np.ones(3, dtype=bool)) == 1

    def test_empty_candidates(self):
        with pytest.raises(EmptyAcquisitionSet):
            acquire(np.zeros((1, 3)), np.ones(3), np.zeros(3, dtype=bool))

    def test_candidate_mask_respected(self):
        widths = np.array([[1.0, 2.0, 3.0]])
        candidates = np.array([True, True, False])
        assert acquire(widths, np.ones(3), candidates) == 1


class TestClassicBeta:
    def test_zero_history_value(self):
        # 1 + 1e-3 * sqrt(2 * (0 + 1 + ln 10)), frozen from arithmetic.
        assert classic_beta(1.0, 1e-3, 0.0, 0.1) == pytest.approx(
            1.0025700525648298, abs=1e-12
        )

    def test_zero_scale_degenerates_to_norm(self):
        for gain in (0.0, 5.0, 50.0):
            assert classic_beta(1.0, 0.0, gain, 0.1) == 1.0

    def test_monotone_in_information_gain(self):
        values = [classic_beta(1.0, 1e-2, g, 0.1) for g in (0.0, 1.0, 4.0, 9.0)]
        assert values == sorted(values)
        assert values[0] < values[-1]

    def test_rejects_negative_scale(self):
        with pytest.raises(ValueError):
            classic_beta(1.0, -1e-3, 0.0, 0.1)


class TestReachableSet:
    def setup_method(self):
        self.kernel = Kernel(lengthscale=0.1)
        self.domain = Domain.grid([(0.0, 1.0)], 10)
        self.metric = metric_matrix(self.kernel, self.domain.points)
        self.seed = np.zeros(10, dtype=bool)
        self.seed[0] = True

    def test_huge_margin_freezes_seed(self):
        values = np.ones((1, 10))
        result = reachable_set(values, np.array([1.0]), self.metric, 10.0, self.seed)
        assert np.array_equal(result, self.seed)

    def test_zero_margin_positive_function_covers_connected_grid(self):
        # A long lengthscale makes adjacent grid points metrically close,
        # so constant positive values hop one step at a time to cover all.
        metric = metric_matrix(Kernel(lengthscale=0.5), self.domain.points)
        values = np.full((1, 10), 0.9)
        result = reachable_set(values, np.array([1.0]), metric, 0.0, self.seed)
        assert result.all()

    def test_fixpoint_is_stable(self, rng):
        values = rng.uniform(-0.2, 0.9, size=(1, 10))
        first = reachable_set(values, np.array([1.0]), self.metric, 0.05, self.seed)
        again = reachable_set(values, np.array([1.0]), self.metric, 0.05, first)
        assert np.array_equal(first, again)

    def test_matches_bruteforce_fixpoint(self, rng):
        for _ in range(20):
            values = rng.uniform(-0.5, 1.0, size=(1, 10))
            fast = reachable_set(values, np.array([1.0]), self.metric, 0.1, self.seed)

            current = self.seed.copy()
            while True:
                nxt = current.copy()
                for b in range(10):
                    ok = False
                    for a in range(10):
                        if current[a] and values[0][a] - 0.1 - self.metric[a, b] >= 0:
                            ok = True
                            break
                    nxt[b] = nxt[b] or ok
                if np.array_equal(nxt, current):
                    break
                current = nxt
            assert np.array_equal(fast, current)

    def test_matches_bruteforce_fixpoint_several_constraints(self, rng):
        # Each constraint may be covered by a different anchor, added in a
        # different sweep.
        domain = Domain.grid([(0.0, 1.0), (0.0, 1.0)], 6)
        metric = metric_matrix(Kernel(lengthscale=0.4), domain.points)
        norms = np.array([1.0, 0.7])
        n = domain.n_points
        seed = np.zeros(n, dtype=bool)
        seed[14] = True
        for _ in range(20):
            values = rng.uniform(-0.3, 1.0, size=(2, n))
            fast = reachable_set(values, norms, metric, 0.05, seed)

            current = seed.copy()
            while True:
                nxt = current.copy()
                for b in range(n):
                    nxt[b] |= all(
                        any(
                            current[a] and values[c][a] - 0.05 - norms[c] * metric[a, b] >= 0
                            for a in range(n)
                        )
                        for c in range(2)
                    )
                if np.array_equal(nxt, current):
                    break
                current = nxt
            assert np.array_equal(fast, current)


# ---------------------------------------------------------------------------
# Loop-level behavior.


def toy_setup(max_iterations=30, beta_mode="scenario", noise=None, delta=0.1):
    kernel = Kernel(lengthscale=0.15)
    domain = Domain.grid([(0.0, 1.0)], 40)
    schedule = ScenarioSchedule(0.1, 1e-3, 1)
    config = OptimizerConfig(
        norm_bounds=(1.0,),
        regularization=0.01,
        exploration_threshold=delta,
        schedule=schedule,
        max_iterations=max_iterations,
        initial_safe=(20,),
        beta_mode=beta_mode,
        subgaussian_scale=1e-3,
    )
    optimizer = SafeOptimizer(kernel, domain, config)
    noise = noise or uniform(-1e-3, 1e-3)

    def oracle(point):
        # Smooth bump, safely positive around the center.
        return np.array([0.6 * math.exp(-((point[0] - 0.5) ** 2) / 0.08)])

    return optimizer, oracle, noise


class TestStep:
    def test_zero_noise_observations_match_truth(self):
        silent = NoiseModel("silent", lambda a, i, r, n: np.zeros(n))
        optimizer, oracle, _ = toy_setup(max_iterations=5)
        state = optimizer.run(oracle, silent, np.random.default_rng(0))
        for rec in state.records:
            assert rec.observed == pytest.approx(rec.true_values)

    def test_termination_below_delta_skips_experiment(self):
        optimizer, oracle, noise = toy_setup(max_iterations=500, delta=1.9)
        # Huge threshold: terminates before any experiment once intervals
        # tighten below it; with delta nearly the prior width it stops fast.
        state = optimizer.run(oracle, noise, np.random.default_rng(0))
        assert state.terminated
        assert state.termination_reason in ("width_below_delta", "max_iterations")
        if state.termination_reason == "width_below_delta":
            assert state.proposed_index is not None
            final_widths = state.confidence.widths()[:, state.proposed_index]
            assert final_widths.max() < 1.9

    def test_max_iterations_zero_returns_empty(self):
        optimizer, oracle, noise = toy_setup(max_iterations=0)
        state = optimizer.run(oracle, noise, np.random.default_rng(0))
        assert state.terminated and state.records == ()
        assert int(state.safe.sum()) == 1

    def test_seeded_runs_identical(self):
        optimizer, oracle, noise = toy_setup(max_iterations=25)
        a = optimizer.run(oracle, noise, np.random.default_rng(7))
        b = optimizer.run(oracle, noise, np.random.default_rng(7))
        assert len(a.records) == len(b.records)
        for ra, rb in zip(a.records, b.records):
            assert ra == rb

    def test_evaluations_stay_in_safe_set(self):
        optimizer, oracle, noise = toy_setup(max_iterations=40)
        state = optimizer.initial_state()
        visited = []
        while not state.terminated:
            prev_records = len(state.records)
            state = optimizer.step(state, oracle, noise, np.random.default_rng(prev_records))
            if len(state.records) > prev_records:
                rec = state.records[-1]
                assert state.safe[rec.point_index]
                visited.append(rec.point_index)
        assert visited

    def test_safe_set_monotone_and_best_lower_nondecreasing(self):
        optimizer, oracle, noise = toy_setup(max_iterations=40)
        rng = np.random.default_rng(3)
        state = optimizer.initial_state()
        prev_safe = state.safe.copy()
        prev_best = -math.inf
        while not state.terminated:
            state = optimizer.step(state, oracle, noise, rng)
            assert np.all(prev_safe <= state.safe)
            prev_safe = state.safe.copy()
            if state.records:
                best = state.records[-1].best_lower
                assert best >= prev_best
                prev_best = best

    def test_terminated_state_passes_through(self):
        optimizer, oracle, noise = toy_setup(max_iterations=1)
        state = optimizer.run(oracle, noise, np.random.default_rng(0))
        assert state.terminated
        again = optimizer.step(state, oracle, noise, np.random.default_rng(1))
        assert again is state

    def test_classic_mode_skips_the_spectral_ratio(self, monkeypatch):
        from safebo.gp import SurrogateModel

        def unused(self):
            raise AssertionError("classic multiplier does not read the spectral ratio")

        monkeypatch.setattr(SurrogateModel, "xi_lambda_max", unused)
        optimizer, oracle, noise = toy_setup(max_iterations=15, beta_mode="classic_subgaussian")
        state = optimizer.run(oracle, noise, np.random.default_rng(0))
        assert state.records and state.xi_lambda == 0.0

    def test_posterior_is_carried_on_the_grid(self):
        from tests.test_gp import dense_posterior_reference

        optimizer, oracle, noise = toy_setup(max_iterations=20)
        state = optimizer.run(oracle, noise, np.random.default_rng(2))
        model = state.model
        assert model.t == 20
        means, std = model.posterior()
        ref_means, ref_std = dense_posterior_reference(
            model.kernel, model.inputs, model.targets, optimizer.domain.points,
            model.regularization,
        )
        assert means == pytest.approx(ref_means, abs=1e-10)
        assert std == pytest.approx(ref_std, abs=1e-10)


def dense_safe_set(lower, bounded, previous, norms, metric, constraints):
    """The set rule over the whole dense metric, as one vectorized scan."""
    certified = np.ones(previous.shape[0], dtype=bool)
    for i in constraints:
        anchors = previous & bounded[i]
        if not anchors.any():
            return previous.copy()
        certified &= (lower[i][anchors, None] - norms[i] * metric[anchors, :] >= 0.0).any(axis=0)
    return certified | previous


def dense_expanders(upper, bounded, safe, norms, metric, constraints):
    """The expander rule over the whole dense metric, as one vectorized scan."""
    if safe.all():
        return np.zeros(safe.shape[0], dtype=bool)
    reach = np.zeros((int(safe.sum()), int((~safe).sum())), dtype=bool)
    for i in constraints:
        reach |= upper[i][safe, None] - norms[i] * metric[np.ix_(safe, ~safe)] >= 0.0
        reach |= ~bounded[i][safe, None]
    mask = np.zeros(safe.shape[0], dtype=bool)
    mask[safe] = reach.any(axis=1)
    return mask


def bump_2d(point):
    return np.array([0.8 * math.exp(-((point[0] - 0.5) ** 2 + (point[1] - 0.5) ** 2) / 0.1)])


def grid_2d_optimizer(resolution, kernel, max_iterations):
    domain = Domain.grid([(0.0, 1.0), (0.0, 1.0)], resolution)
    config = OptimizerConfig(
        norm_bounds=(1.0,),
        regularization=0.01,
        exploration_threshold=1e-3,
        schedule=ScenarioSchedule(0.1, 1e-3, 1),
        max_iterations=max_iterations,
        initial_safe=((resolution // 2) * (resolution + 1),),
    )
    return SafeOptimizer(kernel, domain, config)


class TestLocalSetsAlongRuns:
    @pytest.mark.parametrize("family", FAMILIES)
    def test_each_step_matches_the_dense_scan(self, family):
        # The sets of a real run on a 2-D grid, step by step, against the
        # dense scan of the same intervals.
        kernel = Kernel(family, lengthscale=0.25, output_scale=1.5)
        optimizer = grid_2d_optimizer(25, kernel, 40)
        metric = metric_matrix(kernel, optimizer.domain.points)
        norms, cons = optimizer._norms, optimizer.config.constraint_indices
        state = optimizer.initial_state()
        rng = np.random.default_rng(5)
        while not state.terminated:
            previous = state
            state = optimizer.step(state, bump_2d, uniform(-1e-3, 1e-3), rng)
            conf = state.confidence
            if previous.records:
                expected = dense_safe_set(
                    conf.lower, conf.bounded, previous.safe, norms, metric, cons
                )
                assert np.array_equal(state.safe, expected)
            assert np.array_equal(
                expanders(conf.upper, conf.bounded, state.safe, norms, optimizer.index, cons),
                dense_expanders(conf.upper, conf.bounded, state.safe, norms, metric, cons),
            )
        assert state.safe.sum() > 1

    def test_memory_stays_linear_on_a_large_grid(self):
        # One dense n x n float64 metric on this 100 x 100 grid would be
        # 800 MB.  tracemalloc sees numpy's buffers and Python objects;
        # the KD-trees' own C++ storage, O(n), is not traced.
        tracemalloc.start()
        try:
            optimizer = grid_2d_optimizer(100, Kernel(lengthscale=0.2), 6)
            state = optimizer.run(bump_2d, uniform(-1e-3, 1e-3), np.random.default_rng(0))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(state.records) == 6
        assert state.safe.sum() > 100
        assert peak < 64 * 2**20


class TestBestParameter:
    def test_singleton_safe_set(self):
        optimizer, oracle, noise = toy_setup(max_iterations=0)
        state = optimizer.initial_state()
        assert optimizer.best_parameter(state) == 20

    def test_argmax_of_lower_bound(self):
        optimizer, _, _ = toy_setup()
        state = optimizer.initial_state()
        lower = np.full((1, 40), -1.0)
        lower[0, 7] = 0.7
        lower[0, 9] = 0.3
        conf = state.confidence.__class__(
            lower=lower, upper=lower + 1.0, bounded=np.ones((1, 40), dtype=bool)
        )
        safe = np.zeros(40, dtype=bool)
        safe[[5, 7, 9]] = True
        from dataclasses import replace

        state = replace(state, confidence=conf, safe=safe)
        assert optimizer.best_parameter(state) == 7

    def test_ties_take_lowest_index(self):
        optimizer, _, _ = toy_setup()
        state = optimizer.initial_state()
        conf = state.confidence.__class__(
            lower=np.zeros((1, 40)),
            upper=np.ones((1, 40)),
            bounded=np.ones((1, 40), dtype=bool),
        )
        safe = np.zeros(40, dtype=bool)
        safe[[11, 4, 30]] = True
        from dataclasses import replace

        state = replace(state, confidence=conf, safe=safe)
        assert optimizer.best_parameter(state) == 4


class TestOptimizerConfig:
    def make(self, **overrides):
        base = dict(
            norm_bounds=(1.0,),
            regularization=0.01,
            exploration_threshold=0.1,
            schedule=ScenarioSchedule(0.1, 1e-3, 1),
            max_iterations=10,
            initial_safe=(0,),
        )
        base.update(overrides)
        return OptimizerConfig(**base)

    def test_defaults_single_output_self_constrained(self):
        assert self.make().constraint_indices == (0,)

    def test_defaults_multi_output_constraints(self):
        cfg = self.make(
            norm_bounds=(1.0, 1.0, 1.0), schedule=ScenarioSchedule(0.1, 1e-3, 3)
        )
        assert cfg.constraint_indices == (1, 2)

    def test_rejects_empty_seed(self):
        with pytest.raises(ValueError, match="non-empty"):
            self.make(initial_safe=())

    def test_rejects_bad_delta(self):
        with pytest.raises(ValueError, match="threshold"):
            self.make(exploration_threshold=0.0)

    def test_rejects_mismatched_schedule(self):
        with pytest.raises(ValueError, match="match"):
            self.make(schedule=ScenarioSchedule(0.1, 1e-3, 2))

    def test_rejects_unknown_mode(self):
        with pytest.raises(ValueError, match="beta mode"):
            self.make(beta_mode="thompson")

    def test_rejects_nonpositive_norm_bounds(self):
        for bad in (0.0, -1.0):
            with pytest.raises(ValueError, match="norm bounds must be positive"):
                self.make(norm_bounds=(bad,))
