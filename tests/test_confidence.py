import math

import numpy as np
import pytest

from safebo import ConfidenceState, beta_from_squares, update_intervals
from safebo.confidence import ConfidenceCollapse


def beta_after(history, norm=1.0, reg=0.01, lam=0.0):
    """The multiplier after ``history``, squares accumulated as the loop does."""
    sq_sum = 0.0
    for bound in history:
        sq_sum += bound * bound
    return beta_from_squares(norm, reg, lam, sq_sum)


class TestBeta:
    def test_empty_history_returns_norm_bound(self):
        assert beta_after([]) == 1.0

    def test_single_bound_arithmetic(self):
        # norm 1, lam 1/1.01, reg 0.01, one bound of 1.2:
        # 1 + sqrt(lam / reg) * 1.2, frozen from direct arithmetic.
        value = beta_after([1.2], lam=1.0 / 1.01)
        assert value == pytest.approx(12.94044628251987, abs=1e-10)

    def test_doubling_history_doubles_excess(self):
        base = beta_after([0.3, 0.1, 0.2], lam=0.5)
        doubled = beta_after([0.6, 0.2, 0.4], lam=0.5)
        assert doubled - 1.0 == pytest.approx(2.0 * (base - 1.0), rel=1e-12)


class TestConfidenceState:
    def test_fresh_state_is_unbounded(self):
        state = ConfidenceState.unbounded(2, 5)
        assert np.array_equal(state.lower, np.full((2, 5), -math.inf))
        assert np.array_equal(state.upper, np.full((2, 5), math.inf))
        assert np.array_equal(state.upper - state.lower, np.full((2, 5), math.inf))

    def test_first_update_is_the_band(self):
        state = ConfidenceState.unbounded(1, 3)
        means = np.array([[0.0, 1.0, -1.0]])
        std = np.array([1.0, 0.5, 2.0])
        updated = update_intervals(state, means, std, np.array([2.0]))
        assert np.array_equal(updated.lower, means - 2.0 * std)
        assert np.array_equal(updated.upper, means + 2.0 * std)

    def test_intersection_interval_arithmetic(self):
        # [-1, 1] then [-0.5, 1.5] intersect to [-0.5, 1].
        state = ConfidenceState.unbounded(1, 1)
        state = update_intervals(state, np.array([[0.0]]), np.array([1.0]), np.array([1.0]))
        state = update_intervals(state, np.array([[0.5]]), np.array([1.0]), np.array([1.0]))
        assert state.lower[0, 0] == pytest.approx(-0.5)
        assert state.upper[0, 0] == pytest.approx(1.0)
        assert state.upper[0, 0] - state.lower[0, 0] == pytest.approx(1.5)

    def test_idempotent_update(self, rng):
        state = ConfidenceState.unbounded(2, 8)
        means = rng.standard_normal((2, 8))
        std = rng.uniform(0.1, 1.0, 8)
        betas = np.array([1.5, 2.5])
        once = update_intervals(state, means, std, betas)
        twice = update_intervals(once, means, std, betas)
        assert np.array_equal(once.lower, twice.lower)
        assert np.array_equal(once.upper, twice.upper)

    def test_nesting_is_exact_under_random_updates(self, rng):
        state = ConfidenceState.unbounded(2, 30)
        for _ in range(40):
            means = rng.standard_normal((2, 30)) * 0.1
            std = rng.uniform(0.5, 2.0, 30)
            betas = rng.uniform(1.0, 3.0, 2)
            updated = update_intervals(state, means, std, betas)
            assert np.all(updated.lower >= state.lower)
            assert np.all(updated.upper <= state.upper)
            state = updated

    def test_widths_nonincreasing(self, rng):
        state = ConfidenceState.unbounded(1, 10)
        widths = state.upper - state.lower
        for _ in range(20):
            state = update_intervals(
                state,
                rng.standard_normal((1, 10)) * 0.05,
                rng.uniform(0.5, 1.5, 10),
                np.array([2.0]),
            )
            new_widths = state.upper - state.lower
            assert np.all(new_widths <= widths)
            widths = new_widths

    def test_collapse_raises_by_default(self):
        state = ConfidenceState.unbounded(1, 1)
        state = update_intervals(state, np.array([[0.0]]), np.array([0.1]), np.array([1.0]))
        with pytest.raises(ConfidenceCollapse) as err:
            update_intervals(state, np.array([[5.0]]), np.array([0.1]), np.array([1.0]))
        assert err.value.point == 0
        assert err.value.output == 0

    def test_collapse_reset_replaces_with_fresh_band(self, caplog):
        state = ConfidenceState.unbounded(1, 2)
        state = update_intervals(state, np.array([[0.0, 0.0]]), np.array([0.1, 1.0]), np.array([1.0]))
        import logging

        with caplog.at_level(logging.WARNING, logger="safebo.confidence"):
            updated = update_intervals(
                state,
                np.array([[5.0, 0.0]]),
                np.array([0.1, 1.0]),
                np.array([1.0]),
                on_collapse="reset",
            )
        assert "collapse" in caplog.text
        assert updated.lower[0, 0] == pytest.approx(4.9)
        assert updated.upper[0, 0] == pytest.approx(5.1)
        # The healthy interval is untouched.
        assert updated.lower[0, 1] == pytest.approx(-1.0)
        assert updated.upper[0, 1] == pytest.approx(1.0)

    def test_rejects_negative_std(self):
        state = ConfidenceState.unbounded(1, 1)
        with pytest.raises(ValueError, match="nonnegative"):
            update_intervals(state, np.array([[0.0]]), np.array([-1.0]), np.array([1.0]))

    @pytest.mark.parametrize(
        "std, betas, match",
        [
            (np.ones((2, 3)), np.ones(2), "std must have shape"),
            (np.ones(1), np.ones(2), "std must have shape"),
            (np.ones(3), np.ones(1), "betas must have shape"),
            (np.ones(3), np.ones((2, 1)), "betas must have shape"),
        ],
        ids=["std-k-by-n", "std-length-1", "betas-length-1", "betas-column"],
    )
    def test_rejects_misshaped_std_and_betas(self, std, betas, match):
        state = ConfidenceState.unbounded(2, 3)
        with pytest.raises(ValueError, match=match):
            update_intervals(state, np.zeros((2, 3)), std, betas)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
    @pytest.mark.parametrize("name", ["means", "std", "betas"])
    def test_rejects_non_finite_inputs(self, name, bad):
        # A NaN passes every comparison-based check and would come back
        # as a NaN interval; an infinite band would bound nothing.
        state = ConfidenceState.unbounded(2, 3)
        inputs = {"means": np.zeros((2, 3)), "std": np.ones(3), "betas": np.ones(2)}
        inputs[name].flat[-1] = bad
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            update_intervals(state, inputs["means"], inputs["std"], inputs["betas"])
