"""Observation-noise models and scenario-based high-probability bounds.

The only assumption placed on observation noise is that it can be
sampled.  Before each experiment, a batch of independent noise samples
("scenarios") is drawn at the upcoming evaluation point, and the largest
absolute draw per output becomes a bound on the next measurement's
noise.  The batch size is the smallest integer whose binomial tail

    sum_{s=0}^{n_outputs - 1} C(m, s) nu^s (1 - nu)^(m - s)

drops below an iteration-adjusted confidence level, which makes the
bound fail with probability at most ``nu``, at every iteration
simultaneously, with confidence ``1 - kappa``.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, Mapping

import numpy as np

__all__ = [
    "NoiseModel",
    "ScenarioBound",
    "ScenarioSchedule",
    "gaussian",
    "iteration_confidence",
    "min_scenarios",
    "model_from_config",
    "scenario_bound",
    "student_t_scaled",
    "sub_gaussian_surrogate",
    "uniform",
]

# Stop searching for a scenario count past this; reaching it means the
# violation level is degenerately close to zero.
_SCENARIO_CAP = 10**9

_CHUNK = 8192


@dataclass(frozen=True)
class NoiseModel:
    """Samplable observation-noise distribution, possibly input dependent.

    ``sampler(location, output, rng, size)`` returns ``size`` independent
    draws of the noise on ``output`` at ``location``; ``family`` names the
    distribution in error messages.
    """

    family: str
    sampler: Callable[[np.ndarray, int, np.random.Generator, int], np.ndarray]

    def sample(
        self, location: np.ndarray, output: int, rng: np.random.Generator, size: int = 1
    ) -> np.ndarray:
        draws = np.asarray(
            self.sampler(np.asarray(location, dtype=float), output, rng, size), dtype=float
        )
        if draws.shape != (size,):
            raise ValueError(
                f"noise model {self.family!r} returned draws of shape {draws.shape}, "
                f"not ({size},)"
            )
        if not np.all(np.isfinite(draws)):
            raise ValueError(f"noise model {self.family!r} produced non-finite draws")
        return draws


def uniform(low: float, high: float) -> NoiseModel:
    """Homoscedastic uniform noise on ``[low, high]``."""
    if not low < high:
        raise ValueError("uniform noise needs low < high")

    def sampler(location, output, rng, size):
        return rng.uniform(low, high, size)

    return NoiseModel("uniform", sampler)


def gaussian(variance: float) -> NoiseModel:
    """Homoscedastic zero-mean Gaussian noise with the given variance."""
    if variance < 0:
        raise ValueError("variance must be nonnegative")
    std = math.sqrt(variance)

    def sampler(location, output, rng, size):
        return rng.normal(0.0, std, size)

    return NoiseModel("gaussian", sampler)


def sub_gaussian_surrogate(scale: float) -> NoiseModel:
    """``gaussian(scale**2)``: the normal with standard deviation ``scale``.

    The zero-mean normal attains the moment-generating-function bound of
    the scale-``R`` sub-Gaussian family, so it is the conservative
    samplable stand-in when only a sub-Gaussian constant is known.
    """
    if scale < 0:
        raise ValueError("scale must be nonnegative")
    return gaussian(scale * scale)


def student_t_scaled(dof: float = 10.0, scale: float = 0.2) -> NoiseModel:
    """Heteroscedastic heavy-tailed noise ``scale * |a| * T_dof``.

    ``|a|`` is the Euclidean norm of the evaluation point, so the noise
    vanishes at the origin and grows with distance from it.
    """
    if dof <= 0:
        raise ValueError("degrees of freedom must be positive")
    if scale < 0:
        raise ValueError("scale must be nonnegative")

    def sampler(location, output, rng, size):
        magnitude = scale * float(np.linalg.norm(location))
        return magnitude * rng.standard_t(dof, size)

    return NoiseModel("student_t_scaled", sampler)


def model_from_config(config: Mapping) -> NoiseModel:
    """Build a noise model from its wire descriptor, e.g. from JSON.

    The descriptor's ``family`` picks the constructor and its other keys
    are that constructor's keyword arguments.
    """
    constructors = {
        "uniform": uniform,
        "gaussian": gaussian,
        "sub_gaussian": sub_gaussian_surrogate,
        "student_t_scaled": student_t_scaled,
    }
    config = dict(config)
    try:
        family = config.pop("family")
    except KeyError:
        raise ValueError("noise descriptor needs a 'family' key") from None
    if family not in constructors:
        raise ValueError(f"unknown noise family {family!r}")
    return constructors[family](**config)


@dataclass(frozen=True)
class ScenarioSchedule:
    """Accuracy knobs shared by every scenario batch of a run.

    ``violation_prob`` is the tolerated per-iteration probability that a
    bound underestimates the realized noise; ``confidence`` is the budget
    for that statement failing, spread over all iterations.
    """

    violation_prob: float
    confidence: float
    n_outputs: int

    def __post_init__(self) -> None:
        if not 0.0 < self.violation_prob < 1.0:
            raise ValueError("violation_prob must lie strictly inside (0, 1)")
        if not 0.0 < self.confidence < 1.0:
            raise ValueError("confidence must lie strictly inside (0, 1)")
        if self.n_outputs < 1:
            raise ValueError("need at least one output")


@dataclass(frozen=True)
class ScenarioBound:
    """Per-output noise magnitude bound produced by one scenario batch."""

    n_scenarios: int
    magnitudes: np.ndarray


def iteration_confidence(confidence: float, iteration: int) -> float:
    """Confidence share ``6 * kappa / (pi^2 * t^2)`` of iteration ``t``.

    The shares sum to at most ``kappa`` over all iterations, which is
    what lets per-iteration statements hold simultaneously.
    """
    if not 0.0 < confidence < 1.0:
        raise ValueError("confidence must lie strictly inside (0, 1)")
    if iteration < 1:
        raise ValueError("iteration counter starts at 1")
    return 6.0 * confidence / (math.pi**2 * iteration**2)


def _log_binomial_tail(m: int, violation_prob: float, n_terms: int) -> float:
    """Log of ``sum_{s<n_terms} C(m, s) nu^s (1-nu)^(m-s)``, stable for large m.

    The few terms are shifted by their largest before exponentiating, so
    none overflows, and summed with ``math.fsum``.
    """
    log_nu, log_rest = math.log(violation_prob), math.log1p(-violation_prob)
    log_terms = [
        math.lgamma(m + 1) - math.lgamma(s + 1) - math.lgamma(m - s + 1)
        + s * log_nu + (m - s) * log_rest
        for s in range(min(m + 1, n_terms))
    ]
    top = max(log_terms)
    return top + math.log(math.fsum(math.exp(term - top) for term in log_terms))


@functools.lru_cache(maxsize=4096)
def min_scenarios(schedule: ScenarioSchedule, adjusted_confidence: float) -> int:
    """Smallest scenario count whose binomial tail meets the confidence.

    The search starts from the single-output closed form
    ``ceil(log(kappa_t) / log(1 - nu))``, which is a valid lower bound for
    any output count, then gallops and bisects upward.  The returned
    count is exactly minimal: the tail inequality fails one below it.
    Pure in its arguments, so results are memoized: every run of a
    battery asks for the same counts at the same iterations.
    """
    if not 0.0 < adjusted_confidence < 1.0:
        raise ValueError("adjusted confidence must lie strictly inside (0, 1)")
    nu = schedule.violation_prob
    k = schedule.n_outputs
    log_target = math.log(adjusted_confidence)

    def holds(m: int) -> bool:
        return _log_binomial_tail(m, nu, k) <= log_target

    analytic = math.ceil(log_target / math.log1p(-nu))
    m = max(analytic, k, 1)
    if m > _SCENARIO_CAP:
        raise OverflowError(
            "scenario count exceeds 1e9; violation level is degenerately small"
        )
    if holds(m):
        # The analytic start can overshoot by a rounding step; walk back.
        while m > 1 and holds(m - 1):
            m -= 1
        return m

    lo, step = m, 1
    while True:
        hi = lo + step
        if hi > _SCENARIO_CAP:
            raise OverflowError(
                "scenario count exceeds 1e9; violation level is degenerately small"
            )
        if holds(hi):
            break
        lo, step = hi, step * 2
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if holds(mid):
            hi = mid
        else:
            lo = mid
    return hi


def scenario_bound(
    model: NoiseModel,
    schedule: ScenarioSchedule,
    iteration: int,
    location: np.ndarray,
    rng: np.random.Generator,
) -> ScenarioBound:
    """Draw a scenario batch at ``location`` and bound each output's noise.

    The batch holds ``min_scenarios`` draws per output at the iteration's
    confidence share, and the bound for output ``i`` is the largest
    absolute value among its draws.  Draws stream through in chunks and
    only the running maximum is retained.
    """
    if iteration < 1:
        raise ValueError("iteration counter starts at 1")
    m = min_scenarios(schedule, iteration_confidence(schedule.confidence, iteration))
    location = np.asarray(location, dtype=float)

    magnitudes = np.zeros(schedule.n_outputs)
    for i in range(schedule.n_outputs):
        remaining = m
        peak = 0.0
        while remaining > 0:
            chunk = min(remaining, _CHUNK)
            draws = model.sample(location, i, rng, chunk)
            peak = max(peak, float(np.max(np.abs(draws))))
            remaining -= chunk
        magnitudes[i] = peak
    return ScenarioBound(n_scenarios=m, magnitudes=magnitudes)
