import dataclasses
import itertools
import json
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from safebo import (
    ConfidenceState,
    Domain,
    Kernel,
    OptimizerConfig,
    SafeOptimizer,
    ScenarioSchedule,
    uniform,
    update_intervals,
)
from safebo.frontier import GridIndex
from safebo.harness import ExperimentConfig, run_single
from safebo.kernels import FAMILIES, metric_matrix
from safebo.noise import NoiseModel, scenario_bound
from safebo.optimizer import (
    EmptyAcquisitionSet,
    acquire,
    classic_beta,
    expanders,
    maximizers,
    reachable_set,
    safe_set,
)

ROOT = Path(__file__).resolve().parent.parent

# ---------------------------------------------------------------------------
# Brute-force references: direct transcriptions of the set definitions as
# nested loops, kept deliberately dumb.


def safe_set_bruteforce(lower, previous, norms, metric, constraints):
    n = metric.shape[0]
    result = np.zeros(n, dtype=bool)
    for b in range(n):
        ok_all = True
        for i in constraints:
            ok_i = False
            for a in range(n):
                if not previous[a] or lower[i][a] == -math.inf:
                    continue
                if lower[i][a] - norms[i] * metric[a, b] >= 0.0:
                    ok_i = True
                    break
            if not ok_i:
                ok_all = False
                break
        result[b] = ok_all or previous[b]
    return result


def maximizers_bruteforce(upper, lower, safe):
    n = safe.shape[0]
    threshold = -math.inf
    for a in range(n):
        if safe[a] and lower[0][a] != -math.inf:
            threshold = max(threshold, lower[0][a])
    result = np.zeros(n, dtype=bool)
    for a in range(n):
        if not safe[a]:
            continue
        result[a] = upper[0][a] == math.inf or upper[0][a] >= threshold
    return result


def expanders_bruteforce(upper, safe, norms, metric, constraints):
    n = safe.shape[0]
    result = np.zeros(n, dtype=bool)
    for a in range(n):
        if not safe[a]:
            continue
        for b in range(n):
            if safe[b]:
                continue
            for i in constraints:
                u = upper[i][a]
                if u == math.inf or u - norms[i] * metric[a, b] >= 0.0:
                    result[a] = True
    return result


def random_lattice(rng, sizes, extent=1.0):
    """The product of random sorted axis coordinates in ``[0, extent)``."""
    return Domain(tuple(np.sort(rng.uniform(0, extent, size=size)) for size in sizes))


def random_domain(rng):
    """Random 1-D or 2-D lattices, a tight one, or a 1-D or 2-D ``Domain.grid``."""
    layout = int(rng.integers(5))
    if layout == 4:
        # Metrics far below the output scale, where radii are tiny.
        sizes = [int(rng.integers(2, 5)), int(rng.integers(1, 5))]
        return random_lattice(rng, sizes, extent=10 ** rng.uniform(-4, -1))
    if layout == 0:
        return random_lattice(rng, [int(rng.integers(2, 13))])
    if layout == 1:
        return random_lattice(rng, [int(rng.integers(2, 5)), int(rng.integers(1, 5))])
    if layout == 2:
        return Domain.grid([(0.0, 1.0)], int(rng.integers(2, 16)))
    resolution = [int(rng.integers(2, 5)), int(rng.integers(2, 5))]
    return Domain.grid([(0.0, 1.0), (-0.5, 0.5)], resolution)


def random_fixture(rng):
    """Set-rule inputs: the set functions take ``index``, the loops ``metric``.

    Bounds are drawn in units of ``L * sqrt(2 * output_scale)``, the
    largest reach any metric can need, so some are negative, some reach a
    neighbour and some cover the whole grid.  A few bounds are exact ties,
    ``L * metric[s, j]`` for a pair, which the rules must accept.  About
    a fifth of the intervals are still the whole line, ``(-inf, +inf)``.
    """
    family = FAMILIES[int(rng.integers(len(FAMILIES)))]
    kernel = Kernel(
        family,
        lengthscale=float(rng.uniform(0.05, 0.8)),
        output_scale=float(10 ** rng.uniform(-1, 1)),
    )
    domain = random_domain(rng)
    n = domain.n_points
    k = int(rng.integers(1, 4))
    metric = metric_matrix(kernel, domain.points)
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
    index = GridIndex(kernel, domain)
    lower[~bounded] = -math.inf
    upper[~bounded] = math.inf
    return lower, upper, previous, norms, index, metric, constraints


class TestSetEquivalence:
    def test_matches_bruteforce_on_random_fixtures(self):
        rng = np.random.default_rng(42)
        for _ in range(200):
            lower, upper, previous, norms, index, metric, cons = random_fixture(rng)
            fast = safe_set(lower, np.isfinite(lower), previous, norms, index, cons)
            slow = safe_set_bruteforce(lower, previous, norms, metric, cons)
            assert np.array_equal(fast, slow)

            fast_m = maximizers(upper, lower, fast)
            slow_m = maximizers_bruteforce(upper, lower, fast)
            assert np.array_equal(fast_m, slow_m)

            fast_g = expanders(upper, fast, norms, index, cons)
            slow_g = expanders_bruteforce(upper, fast, norms, metric, cons)
            assert np.array_equal(fast_g, slow_g)


class TestSafeSet:
    def setup_method(self):
        self.kernel = Kernel(lengthscale=0.1)
        self.domain = Domain.grid([(0.0, 1.0)], 21)
        self.metric = metric_matrix(self.kernel, self.domain.points)
        self.index = GridIndex(self.kernel, self.domain)

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
            index = GridIndex(kernel, domain)
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
                GridIndex(self.kernel, Domain((self.domain.axes[0][:3],))),
                (0,),
            )


class TestMaximizers:
    def test_equal_intervals_keep_everything(self):
        n = 4
        lower = np.full((1, n), 0.1)
        upper = np.full((1, n), 0.9)
        safe = np.array([True, True, False, True])
        assert np.array_equal(maximizers(upper, lower, safe), safe)

    def test_dominant_point_is_singleton(self):
        lower = np.array([[0.8, 0.0, 0.1]])
        upper = np.array([[1.0, 0.5, 0.7]])
        safe = np.ones(3, dtype=bool)
        assert np.array_equal(maximizers(upper, lower, safe), [True, False, False])

    def test_two_point_fixture(self):
        lower = np.array([[0.5, 0.2]])
        upper = np.array([[1.0, 0.4]])
        safe = np.ones(2, dtype=bool)
        assert np.array_equal(maximizers(upper, lower, safe), [True, False])

    def test_unbounded_upper_always_qualifies(self):
        lower = np.array([[0.9, -np.inf]])
        upper = np.array([[1.0, np.inf]])
        safe = np.ones(2, dtype=bool)
        assert np.array_equal(maximizers(upper, lower, safe), [True, True])

    def test_holds_the_best_safe_point_of_updated_intervals(self):
        # update_intervals leaves lower <= upper at every point, reset and
        # pinned crossings included, so the safe point with the best reward
        # lower bound is a maximizer: the loop's acquisition set is never
        # empty.  Each round moves some bands clear of their intervals
        # (resets) and some just past an endpoint, by under the collapse
        # tolerance (pinned).
        rng = np.random.default_rng(37)
        k, n = 2, 40
        resets = pinned = 0
        for _ in range(50):
            state = ConfidenceState.unbounded(k, n)
            means = rng.normal(size=(k, n))
            for _ in range(4):
                std = rng.uniform(0.0, 1.0, size=n)
                betas = rng.uniform(0.5, 2.0, size=k)
                half = betas[:, None] * std
                pick = rng.random((k, n))
                clear = state.upper + half + 10.0
                just_past = state.upper + half + 1e-13
                means = np.where(pick < 0.2, clear, np.where(pick < 0.4, just_past, means))
                means = np.where(np.isfinite(means), means, rng.normal(size=(k, n)))
                before = state
                state = update_intervals(state, means, std, betas, on_collapse="reset")
                lower, upper = state.lower, state.upper
                assert (lower <= upper).all()
                resets += int((lower > before.upper).sum())
                pinned += int(((lower == upper) & (std > 0)).sum())
                for _ in range(5):
                    safe = rng.random(n) < rng.uniform(0.05, 1.0)
                    safe[int(rng.integers(n))] = True
                    inside = safe.nonzero()[0]
                    best = inside[lower[0, inside].argmax()]
                    assert maximizers(upper, lower, safe)[best]
        assert resets > 500 and pinned > 500

    def test_empty_safe_set_has_no_maximizers(self):
        lower = np.array([[0.9, 0.0]])
        upper = np.array([[1.0, 0.5]])
        safe = np.zeros(2, dtype=bool)
        assert not maximizers(upper, lower, safe).any()


class TestExpanders:
    def setup_method(self):
        self.kernel = Kernel(lengthscale=0.1)
        self.domain = Domain.grid([(0.0, 1.0)], 11)
        self.metric = metric_matrix(self.kernel, self.domain.points)
        self.index = GridIndex(self.kernel, self.domain)

    def test_full_safe_set_has_no_expanders(self):
        n = self.domain.n_points
        upper = np.ones((1, n))
        mask = expanders(upper, np.ones(n, dtype=bool), np.array([1.0]), self.index, (0,))
        assert not mask.any()

    @pytest.mark.filterwarnings("error")
    def test_full_and_empty_safe_sets_have_no_expanders(self):
        # Nothing lies outside a full set and an empty one holds no anchor,
        # whatever the upper bounds, infinite ones included.
        rng = np.random.default_rng(5)
        for _ in range(40):
            _, upper, _, norms, index, _, cons = random_fixture(rng)
            n = upper.shape[1]
            for safe in (np.ones(n, dtype=bool), np.zeros(n, dtype=bool)):
                for bounds in (upper, np.full_like(upper, np.inf)):
                    mask = expanders(bounds, safe, norms, index, cons)
                    assert mask.shape == (n,) and not mask.any()

    def test_unbounded_upper_reaches_everything(self):
        n = self.domain.n_points
        upper = np.full((1, n), np.inf)
        safe = np.zeros(n, dtype=bool)
        safe[5] = True
        mask = expanders(upper, safe, np.array([1.0]), self.index, (0,))
        assert np.array_equal(mask, safe)

    def test_reach_one_neighbor(self):
        # The anchor's upper bound 0.3 against the metric to its one outside point.
        domain = Domain((np.array([0.0, 0.05]),))
        kernel = Kernel(lengthscale=0.2)
        metric = metric_matrix(kernel, domain.points)
        upper = np.array([[0.3, 0.0]])
        safe = np.array([True, False])
        mask = expanders(upper, safe, np.array([1.0]), GridIndex(kernel, domain), (0,))
        assert mask[0] == (0.3 - metric[0, 1] >= 0)

    def test_roundoff_band_matches_bruteforce(self):
        # Upper bounds one ulp on either side of L times the metric to the
        # nearest outside point: below it the frontier cannot decide and
        # the box query must.  The grid's equidistant neighbours put
        # other outside points at that metric up to roundoff.
        for family in FAMILIES:
            kernel = Kernel(family, lengthscale=0.3, output_scale=2.5)
            domain = Domain.grid([(0.0, 1.0), (0.0, 1.0)], 9)
            metric = metric_matrix(kernel, domain.points)
            index = GridIndex(kernel, domain)
            safe = np.zeros(domain.n_points, dtype=bool)
            safe[[30, 31, 39, 40, 41, 49, 50]] = True
            near = index.frontier(safe).near
            norms = np.array([1.7])
            for direction in (-np.inf, np.inf):
                upper = np.nextafter(norms[0] * near, direction)[None, :]
                fast = expanders(upper, safe, norms, index, (0,))
                slow = expanders_bruteforce(upper, safe, norms, metric, (0,))
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

    def test_width_tie_goes_to_larger_std_then_lowest_index(self):
        # Six candidates share the largest width over the two outputs,
        # 0.9 (index 5 is wider but no candidate).  Of those, 2, 4 and 6
        # share the largest std and the lowest index is taken: 2, then 4
        # once 2 is no candidate.  With equal stds the lowest index wins.
        widths = np.array([[0.7, 0.9, 0.1, 0.9, 0.9, 2.0, 0.2, 0.9],
                           [0.9, 0.3, 0.9, 0.3, 0.2, 0.1, 0.9, 0.1]])
        std = np.array([0.5, 0.4, 0.6, 0.1, 0.6, 0.9, 0.6, 0.3])
        candidates = np.array([True, True, True, True, True, False, True, False])
        assert acquire(widths, std, candidates) == 2
        candidates[2] = False
        assert acquire(widths, std, candidates) == 4
        assert acquire(widths, np.ones(8), candidates) == 0


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

    def test_iterated_safe_set_reaches_the_dense_fixpoint(self):
        # The loop's safe-set rule on the true values less the margin,
        # applied until the set stops growing, is the dense fixpoint.
        rng = np.random.default_rng(31)
        layouts = itertools.product((1, 2, 3), (True, False), (1, 2), (False, True))
        grew = short = 0
        for dims, uniform_axes, k, with_margin in list(layouts) * 10:
            sizes = [int(rng.integers(2, 7)) for _ in range(dims)]
            if uniform_axes:
                domain = Domain.grid([(0.0, 1.0)] * dims, sizes)
            else:
                domain = random_lattice(rng, sizes)
            kernel = Kernel(
                FAMILIES[int(rng.integers(len(FAMILIES)))],
                lengthscale=float(rng.uniform(0.2, 1.0)),
                output_scale=float(10 ** rng.uniform(-1, 1)),
            )
            n = domain.n_points
            norms = rng.uniform(0.5, 2.0, size=k)
            reach = norms[:, None] * math.sqrt(2.0 * kernel.output_scale)
            values = rng.uniform(-0.5, 1.0, size=(k, n)) * reach
            margin = float(rng.uniform(0.0, 0.1)) * reach.min() if with_margin else 0.0
            seed = np.zeros(n, dtype=bool)
            seed[int(values.min(axis=0).argmax())] = True
            index = GridIndex(kernel, domain)
            lower = values - margin
            current = seed
            while True:
                grown = safe_set(lower, np.isfinite(lower), current, norms, index, tuple(range(k)))
                if np.array_equal(grown, current):
                    break
                current = grown
            metric = metric_matrix(kernel, domain.points)
            assert np.array_equal(current, reachable_set(values, norms, metric, margin, seed))
            grew += int(current.sum() > 1)
            short += int(1 < current.sum() < n)
        # Most sets grow past the seed, and some stop short of the grid.
        assert grew > 150 and short > 40

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

    def oracle(index):
        # Smooth bump, safely positive around the center.
        point = domain.points[index]
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
            # Every candidate the acquisition saw is narrower than delta.
            conf = state.confidence
            cons = optimizer.config.constraint_indices
            candidates = maximizers(conf.upper, conf.lower, state.safe) | expanders(
                conf.upper, state.safe, optimizer._norms, optimizer.index, cons
            )
            assert candidates.any()
            assert (conf.upper - conf.lower)[:, candidates].max() < 1.9

    def test_max_iterations_zero_returns_empty(self):
        optimizer, oracle, noise = toy_setup(max_iterations=0)
        state = optimizer.run(oracle, noise, np.random.default_rng(0))
        assert state.terminated and state.records == ()
        assert int(state.safe.sum()) == 1
        # A step loop from the fresh state runs no experiment either.
        fresh = optimizer.initial_state()
        assert optimizer.step(fresh, oracle, noise, np.random.default_rng(0)) is fresh

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
                index = int(np.searchsorted(optimizer.domain.axes[0], state.records[-1].point[0]))
                assert state.safe[index]
                visited.append(index)
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

    def test_one_infinite_observation_draw_is_rejected(self):
        # The scenario batch is finite; only the size-1 draw of the
        # measurement itself is not.
        def sampler(location, output, rng, size):
            return np.full(size, np.inf) if size == 1 else np.zeros(size)

        optimizer, oracle, _ = toy_setup(max_iterations=5)
        state = optimizer.initial_state()
        with pytest.raises(ValueError, match="'observed' produced non-finite draws"):
            optimizer.step(state, oracle, NoiseModel("observed", sampler), np.random.default_rng(0))

    def test_records_and_states_are_what_their_dataclasses_build(self):
        # The loop fills records and states without their generated
        # __init__; they must not differ from instances it builds.
        optimizer, oracle, noise = toy_setup(max_iterations=6)
        state = optimizer.run(oracle, noise, np.random.default_rng(3))
        assert len(state.records) == 6
        for record in state.records:
            rebuilt = type(record)(**vars(record))
            assert record == rebuilt and hash(record) == hash(rebuilt)
            assert repr(record) == repr(rebuilt) and list(vars(record)) == list(vars(rebuilt))
            with pytest.raises(dataclasses.FrozenInstanceError):
                record.iteration = 0
        rebuilt = type(state)(**vars(state))
        assert list(vars(state)) == list(vars(rebuilt))
        with pytest.raises(dataclasses.FrozenInstanceError):
            state.safe = None
        replaced = dataclasses.replace(state, termination_reason=None)
        assert replaced.records is state.records and not replaced.terminated

    def test_terminated_state_passes_through(self):
        optimizer, oracle, noise = toy_setup(max_iterations=1)
        state = optimizer.run(oracle, noise, np.random.default_rng(0))
        assert state.terminated
        again = optimizer.step(state, oracle, noise, np.random.default_rng(1))
        assert again is state

    @pytest.mark.parametrize("reason", ["width_below_delta"])
    def test_terminal_step_carries_that_steps_intervals_and_sets(self, reason):
        # A step that ends without an experiment still returns the
        # intervals, safe set and multipliers it computed; the model, the
        # noise sums and the records stay those of the state it was given.
        optimizer, oracle, noise = toy_setup(max_iterations=30)
        rng = np.random.default_rng(4)
        state = optimizer.initial_state()
        for _ in range(6):
            state = optimizer.step(state, oracle, noise, rng)
        advanced = optimizer.step(state, oracle, noise, np.random.default_rng(5))
        wide = SafeOptimizer(
            optimizer.kernel, optimizer.domain,
            OptimizerConfig(**{**optimizer.config.__dict__, "exploration_threshold": 10.0}),
        )
        ended = wide.step(state, oracle, noise, np.random.default_rng(5))

        assert ended.termination_reason == reason
        assert len(advanced.records) == len(state.records) + 1
        for name in ("lower", "upper"):
            assert np.array_equal(getattr(ended.confidence, name),
                                  getattr(advanced.confidence, name))
        assert np.array_equal(ended.safe, advanced.safe)
        assert np.array_equal(ended.betas, advanced.betas) and ended.betas.shape == (1,)
        assert ended.model is state.model and ended.records == state.records
        assert np.array_equal(ended.noise_sq_sums, state.noise_sq_sums)

    def test_classic_mode_skips_the_spectral_ratio(self, monkeypatch):
        from safebo.gp import SurrogateModel

        def unused(self):
            raise AssertionError("classic multiplier does not read the spectral ratio")

        def no_batch(*args):
            raise AssertionError("classic multiplier draws no scenario batch")

        monkeypatch.setattr(SurrogateModel, "xi_lambda_max", unused)
        monkeypatch.setattr(SurrogateModel, "xi_trace", unused)
        monkeypatch.setattr("safebo.optimizer.scenario_bound", no_batch)
        optimizer, oracle, noise = toy_setup(max_iterations=15, beta_mode="classic_subgaussian")
        state = optimizer.run(oracle, noise, np.random.default_rng(0))
        assert state.records
        for rec in state.records:
            assert rec.n_scenarios == 0 and rec.noise_bound == (0.0,)

    def test_scenario_mode_draws_one_batch_per_experiment(self, monkeypatch):
        batches = []

        def counted(model, schedule, iteration, location, rng):
            batches.append(iteration)
            return scenario_bound(model, schedule, iteration, location, rng)

        monkeypatch.setattr("safebo.optimizer.scenario_bound", counted)
        optimizer, oracle, noise = toy_setup(max_iterations=15)
        state = optimizer.run(oracle, noise, np.random.default_rng(0))
        assert state.records
        assert batches == [rec.iteration for rec in state.records]
        assert all(rec.n_scenarios > 0 for rec in state.records)

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


class TestSetReuse:
    def test_reused_sets_equal_a_cold_recomputation(self, monkeypatch):
        # paper-synthetic-2 seed 0 in scenario mode freezes on its start
        # point: most steps see the last step's intervals and safe set bit
        # for bit and reuse its sets.  Each reuse is checked against a
        # fresh optimizer that has never seen those inputs.
        from safebo.harness import ExperimentConfig, run_single

        sets, reused = SafeOptimizer._sets, []

        def checked(self, lower, upper, previous):
            kept = self._last_sets
            outputs = sets(self, lower, upper, previous)
            if self._last_sets is kept:
                cold = sets(SafeOptimizer(self.kernel, self.domain, self.config),
                            lower, upper, previous)
                assert np.array_equal(outputs[0], cold[0])
                assert np.array_equal(outputs[1], cold[1])
                assert outputs[2:] == cold[2:]
                # The state gets its own safe set, not the kept one.
                assert outputs[0] is not kept[1][0]
                reused.append(1)
            return outputs

        monkeypatch.setattr(SafeOptimizer, "_sets", checked)
        config = ExperimentConfig.from_preset(
            "paper-synthetic-2", {"seeds": [0], "beta_modes": ["scenario"]}
        )
        trace = run_single(config, 0, "scenario")
        assert trace.iterations == 200 and len(reused) > 100

    @pytest.mark.parametrize("workload", ["heavy-tail-1d", "two-output-2d"])
    def test_each_choice_equals_acquire_on_that_steps_state(self, workload, monkeypatch):
        # At every step, the chosen point and its width must be what
        # acquire makes of the step's intervals, its model's std and
        # candidates derived afresh.  Most heavy-tail steps reuse the kept
        # set stage while the std keeps moving.
        if workload == "heavy-tail-1d":
            config = ExperimentConfig.from_preset(
                "paper-synthetic-2", {"seeds": [0], "beta_modes": ["scenario"]}
            )
        else:
            path = ROOT / "perfbench" / "configs" / "two-output-2d.json"
            config = ExperimentConfig.from_dict(json.loads(path.read_text(encoding="utf-8")))
        step, reused = SafeOptimizer.step, []

        def recomputed(self, state, *args):
            kept = self._last_sets
            successor = step(self, state, *args)
            conf, safe = successor.confidence, successor.safe
            lower, upper = conf.lower, conf.upper
            index, cons = GridIndex(self.kernel, self.domain), self.config.constraint_indices
            norms = np.asarray(self.config.norm_bounds)
            candidates = maximizers(upper, lower, safe)
            candidates |= expanders(upper, safe, norms, index, cons)
            widths = upper - lower
            chosen = acquire(widths, state.model.posterior()[1], candidates)
            record = successor.records[-1]
            assert record.point == tuple(self.domain.points[chosen].tolist())
            assert record.acquisition_width == float(widths[:, chosen].max())
            reused.append(self._last_sets is kept)
            return successor

        monkeypatch.setattr(SafeOptimizer, "step", recomputed)
        trace = run_single(config, 0, "scenario")
        assert len(reused) == trace.iterations == 200
        assert sum(reused) > (100 if workload == "heavy-tail-1d" else 0)

    @pytest.mark.parametrize("changed", ["lower", "upper", "previous"])
    def test_any_changed_input_recomputes(self, changed):
        # The kept sets answer only the inputs they were derived from: a
        # change in any one of the three gives a fresh optimizer's sets,
        # which here differ from the kept ones.
        optimizer, oracle, noise = toy_setup(max_iterations=40)
        rng = np.random.default_rng(3)
        state = optimizer.initial_state()
        for _ in range(8):
            state = optimizer.step(state, oracle, noise, rng)
        inputs = {
            "lower": state.confidence.lower, "upper": state.confidence.upper, "previous": state.safe
        }
        kept = optimizer._sets(**inputs)
        start = np.zeros_like(state.safe)
        start[20] = True
        inputs[changed] = {
            "lower": inputs["lower"] + 0.05, "upper": inputs["lower"] + 1e-3, "previous": start
        }[changed]
        fresh = SafeOptimizer(optimizer.kernel, optimizer.domain, optimizer.config)
        cold = fresh._sets(**inputs)
        outputs = optimizer._sets(**inputs)
        assert np.array_equal(outputs[0], cold[0]) and np.array_equal(outputs[1], cold[1])
        assert outputs[2:] == cold[2:]
        assert not (np.array_equal(outputs[0], kept[0]) and np.array_equal(outputs[1], kept[1]))

    def test_unchanged_intervals_with_a_grown_safe_set_recompute(self):
        # Re-stepping a state with the safe set its step grew keeps the
        # intervals bit for bit but changes the previous safe set: the
        # sets are derived again, and equal a fresh optimizer's.  From a
        # grown set they can grow further, so reusing them would be wrong.
        optimizer, oracle, noise = toy_setup(max_iterations=40)
        rng = np.random.default_rng(3)
        state, grew_again = optimizer.initial_state(), 0
        while not state.terminated:
            advanced = optimizer.step(state, oracle, noise, rng)
            if advanced.safe.sum() > state.safe.sum():
                moved = dataclasses.replace(state, safe=advanced.safe)
                again = optimizer.step(moved, oracle, noise, np.random.default_rng(0))
                fresh = SafeOptimizer(optimizer.kernel, optimizer.domain, optimizer.config)
                cold = fresh.step(moved, oracle, noise, np.random.default_rng(0))
                assert np.array_equal(again.confidence.lower, advanced.confidence.lower)
                assert np.array_equal(again.confidence.upper, advanced.confidence.upper)
                assert np.array_equal(again.safe, cold.safe)
                assert again.records == cold.records
                grew_again += int(again.safe.sum() > advanced.safe.sum())
            state = advanced
        assert grew_again > 0


def dense_safe_set(lower, bounded, previous, norms, metric, constraints):
    """The set rule over the whole dense metric, as one vectorized scan."""
    certified = np.ones(previous.shape[0], dtype=bool)
    for i in constraints:
        anchors = previous & bounded[i]
        if not anchors.any():
            return previous.copy()
        certified &= (lower[i][anchors, None] - norms[i] * metric[anchors, :] >= 0.0).any(axis=0)
    return certified | previous


def dense_expanders(upper, safe, norms, metric, constraints):
    """The expander rule over the whole dense metric, as one vectorized scan."""
    if safe.all():
        return np.zeros(safe.shape[0], dtype=bool)
    reach = np.zeros((int(safe.sum()), int((~safe).sum())), dtype=bool)
    for i in constraints:
        reach |= upper[i][safe, None] - norms[i] * metric[np.ix_(safe, ~safe)] >= 0.0
    mask = np.zeros(safe.shape[0], dtype=bool)
    mask[safe] = reach.any(axis=1)
    return mask


def bump_2d(domain):
    """Oracle of a smooth bump centred on the unit square, at the grid points of ``domain``."""

    def oracle(index):
        point = domain.points[index]
        return np.array([0.8 * math.exp(-((point[0] - 0.5) ** 2 + (point[1] - 0.5) ** 2) / 0.1)])

    return oracle


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
        oracle = bump_2d(optimizer.domain)
        while not state.terminated:
            previous = state
            state = optimizer.step(state, oracle, uniform(-1e-3, 1e-3), rng)
            conf = state.confidence
            expected = dense_safe_set(
                conf.lower, np.isfinite(conf.lower), previous.safe, norms, metric, cons
            )
            assert np.array_equal(state.safe, expected)
            assert np.array_equal(
                expanders(conf.upper, state.safe, norms, optimizer.index, cons),
                dense_expanders(conf.upper, state.safe, norms, metric, cons),
            )
        assert state.safe.sum() > 1

    def test_a_grown_frontier_gives_the_run_a_fresh_one_gives(self, monkeypatch):
        # two-output-2d's settings on a 20 x 20 grid: the same records and
        # final safe set whether each safe-set change grows the frontier or
        # every call grows it afresh from the empty mask.
        config = ExperimentConfig.from_dict(
            {
                "spec": 1,
                "domain": {"bounds": [[0.0, 1.0], [0.0, 1.0]], "resolution": [20, 20]},
                "kernel": {"family": "squared_exponential", "lengthscale": 0.25},
                "noise": {"family": "gaussian", "variance": 1e-4},
                "violation_prob": 0.1,
                "confidence_level": 1e-3,
                "regularization": 1e-2,
                "exploration_threshold": 1e-3,
                "subgaussian_scale": 1e-2,
                "norm_bound": 1.0,
                "beta_modes": ["scenario"],
                "seeds": [0],
                "max_iterations": 60,
                "constraint": {"kind": "independent", "quantile": 0.4},
                "n_centers": 40,
            }
        )
        finals, calls = [], {"empty": 0, "grow": 0}
        run, empty, grow = SafeOptimizer.run, GridIndex._empty, GridIndex._grow
        frontier = GridIndex.frontier

        def recorded(self, *args):
            finals.append(run(self, *args))
            return finals[-1]

        def counted(name, method):
            def wrapper(self, *args):
                calls[name] += 1
                return method(self, *args)

            return wrapper

        monkeypatch.setattr(SafeOptimizer, "run", recorded)
        monkeypatch.setattr(GridIndex, "_empty", counted("empty", empty))
        monkeypatch.setattr(GridIndex, "_grow", counted("grow", grow))
        grown = run_single(config, 0, "scenario")
        assert calls["empty"] == 1 and calls["grow"] > 10

        def fresh(self, mask):
            self._frontier = None
            return frontier(self, mask)

        monkeypatch.setattr(GridIndex, "frontier", fresh)
        calls["empty"] = 0
        fresh_run = run_single(config, 0, "scenario")
        assert calls["empty"] > 10
        assert len(grown.records) == 60
        assert grown.records == fresh_run.records
        assert np.array_equal(finals[0].safe, finals[1].safe)

    def test_runs_on_a_non_uniform_lattice(self):
        # Random axes of different sizes: the sets of each step still match
        # the dense scan, and every experiment lands on a safe lattice point.
        rng = np.random.default_rng(9)
        domain = Domain(tuple(np.sort(rng.uniform(0.0, 1.0, size=size)) for size in (17, 23)))
        kernel = Kernel(lengthscale=0.25)
        config = OptimizerConfig(
            norm_bounds=(1.0,),
            regularization=0.01,
            exploration_threshold=1e-3,
            schedule=ScenarioSchedule(0.1, 1e-3, 1),
            max_iterations=30,
            initial_safe=(int(np.argmin(((domain.points - 0.5) ** 2).sum(axis=1))),),
        )
        optimizer = SafeOptimizer(kernel, domain, config)
        metric = metric_matrix(kernel, domain.points)
        state = optimizer.initial_state()
        oracle = bump_2d(domain)
        while not state.terminated:
            previous = state
            state = optimizer.step(state, oracle, uniform(-1e-3, 1e-3), rng)
            conf = state.confidence
            expected = dense_safe_set(
                conf.lower, np.isfinite(conf.lower), previous.safe, optimizer._norms, metric, (0,)
            )
            assert np.array_equal(state.safe, expected)
            if len(state.records) > len(previous.records):
                point = np.array(state.records[-1].point)
                assert (domain.points[state.safe] == point).all(axis=1).any()
        assert len(state.records) == 30
        assert state.safe.sum() > 1

    def test_memory_stays_linear_on_a_large_grid(self):
        # One dense n x n float64 metric on this 100 x 100 grid would be
        # 800 MB.  tracemalloc sees numpy's buffers and Python objects,
        # so the frontier's storage and its distance transform are traced.
        tracemalloc.start()
        try:
            optimizer = grid_2d_optimizer(100, Kernel(lengthscale=0.2), 6)
            state = optimizer.run(
                bump_2d(optimizer.domain), uniform(-1e-3, 1e-3), np.random.default_rng(0)
            )
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
        conf = state.confidence.__class__(lower=lower, upper=lower + 1.0)
        safe = np.zeros(40, dtype=bool)
        safe[[5, 7, 9]] = True
        from dataclasses import replace

        state = replace(state, confidence=conf, safe=safe)
        assert optimizer.best_parameter(state) == 7

    def test_ties_take_lowest_index(self):
        optimizer, _, _ = toy_setup()
        state = optimizer.initial_state()
        conf = state.confidence.__class__(lower=np.zeros((1, 40)), upper=np.ones((1, 40)))
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

    def test_rejects_an_infinite_threshold(self):
        # Every width is below it, so a run would stop before its first experiment.
        with pytest.raises(ValueError, match="exploration threshold must be finite"):
            self.make(exploration_threshold=math.inf)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("regularization", True),
            ("exploration_threshold", True),
            ("subgaussian_scale", True),
            ("norm_bounds", (True,)),
        ],
    )
    def test_rejects_a_bool_knob(self, field, value):
        # True compares as 1 and passes every range check.
        with pytest.raises(ValueError, match=f"{field} must be a number, got True"):
            self.make(**{field: value})

    def test_rejects_mismatched_schedule(self):
        with pytest.raises(ValueError, match="match"):
            self.make(schedule=ScenarioSchedule(0.1, 1e-3, 2))

    def test_rejects_unknown_mode(self):
        with pytest.raises(ValueError, match="beta mode"):
            self.make(beta_mode="thompson")

    def test_rejects_unknown_collapse_policy(self):
        with pytest.raises(ValueError, match="on_collapse"):
            self.make(on_collapse="bogus")

    def test_rejects_nonpositive_norm_bounds(self):
        for bad in (0.0, -1.0):
            with pytest.raises(ValueError, match="norm bounds must be positive"):
                self.make(norm_bounds=(bad,))

    @pytest.mark.parametrize("bad", [math.inf, math.nan])
    def test_rejects_norm_bounds_that_are_not_finite(self, bad):
        # An infinite bound would make every beta infinite at the first step.
        with pytest.raises(ValueError, match="norm bounds must be positive and finite"):
            self.make(norm_bounds=(1.0, bad), schedule=ScenarioSchedule(0.1, 1e-3, 2))

    @pytest.mark.parametrize("bad", [-1e-3, -math.inf, math.inf, math.nan])
    def test_rejects_a_subgaussian_scale_that_is_negative_or_not_finite(self, bad):
        with pytest.raises(ValueError, match="subgaussian_scale must be finite and nonnegative"):
            self.make(subgaussian_scale=bad, beta_mode="classic_subgaussian")
        with pytest.raises(ValueError, match="subgaussian_scale"):
            self.make(subgaussian_scale=bad)

    @pytest.mark.parametrize("bad", [0.0, -0.5, 1.5, math.nan, math.inf])
    def test_rejects_a_regularization_outside_the_unit_interval(self, bad):
        with pytest.raises(ValueError, match=r"regularization must lie in \(0, 1\]"):
            self.make(regularization=bad)
        assert self.make(regularization=1.0).regularization == 1.0

    @pytest.mark.parametrize("bad", [2.5, 3.0, True, False, "3", None, -1], ids=repr)
    def test_rejects_max_iterations_that_is_not_a_nonnegative_integer(self, bad):
        with pytest.raises(ValueError, match="max_iterations must be a nonnegative integer"):
            self.make(max_iterations=bad)
        assert self.make(max_iterations=np.int64(0)).max_iterations == 0

    @pytest.mark.parametrize("field", ["initial_safe", "constraint_indices"])
    @pytest.mark.parametrize("bad", [1.5, 3.0, True, "1", None], ids=repr)
    def test_rejects_grid_indices_that_are_not_integers(self, field, bad):
        with pytest.raises(ValueError, match="must be integers"):
            self.make(**{field: (bad,)})

    def test_stores_integer_indices_as_python_ints(self):
        cfg = self.make(
            norm_bounds=(1.0, 1.0),
            schedule=ScenarioSchedule(0.1, 1e-3, 2),
            initial_safe=[np.int64(3)],
            constraint_indices=(np.int32(1),),
        )
        assert cfg.initial_safe == (3,) and cfg.constraint_indices == (1,)
        assert type(cfg.initial_safe[0]) is int and type(cfg.constraint_indices[0]) is int
