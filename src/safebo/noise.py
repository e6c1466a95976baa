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
    "FAMILIES",
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
        if not np.isfinite(draws).all():
            raise ValueError(f"noise model {self.family!r} produced non-finite draws")
        return draws


def _reject_bools(**params) -> None:
    """JSON true and false compare as 1 and 0, which pass the range checks."""
    for name, value in params.items():
        if isinstance(value, (bool, np.bool_)):
            raise ValueError(f"{name} must be a number, got {value!r}")


def uniform(low: float, high: float) -> NoiseModel:
    """Homoscedastic uniform noise on ``[low, high]``."""
    _reject_bools(low=low, high=high)
    if not -math.inf < low < high < math.inf:
        raise ValueError("uniform noise needs finite low < high")

    def sampler(location, output, rng, size):
        return rng.uniform(low, high, size)

    return NoiseModel("uniform", sampler)


def gaussian(variance: float) -> NoiseModel:
    """Homoscedastic zero-mean Gaussian noise with the given variance."""
    _reject_bools(variance=variance)
    if not 0 <= variance < math.inf:
        raise ValueError("variance must be finite and nonnegative")
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
    _reject_bools(scale=scale)
    if not 0 <= scale < math.inf:
        raise ValueError("scale must be finite and nonnegative")
    return gaussian(scale * scale)


def student_t_scaled(dof: float = 10.0, scale: float = 0.2) -> NoiseModel:
    """Heteroscedastic heavy-tailed noise ``scale * |a| * T_dof``.

    ``|a|`` is the Euclidean norm of the evaluation point, so the noise
    vanishes at the origin and grows with distance from it.
    """
    _reject_bools(dof=dof, scale=scale)
    if not 0 < dof < math.inf:
        raise ValueError("degrees of freedom must be finite and positive")
    if not 0 <= scale < math.inf:
        raise ValueError("scale must be finite and nonnegative")

    def sampler(location, output, rng, size):
        magnitude = scale * math.sqrt(location.dot(location))
        return magnitude * rng.standard_t(dof, size)

    return NoiseModel("student_t_scaled", sampler)


# The constructor of each noise family, by the name a descriptor gives it.
FAMILIES = {
    "uniform": uniform,
    "gaussian": gaussian,
    "sub_gaussian": sub_gaussian_surrogate,
    "student_t_scaled": student_t_scaled,
}


def model_from_config(config: Mapping) -> NoiseModel:
    """Build a noise model from its wire descriptor, e.g. from JSON.

    The descriptor's ``family`` picks the constructor in ``FAMILIES`` and
    its other keys are that constructor's keyword arguments.
    """
    config = dict(config)
    try:
        family = config.pop("family")
    except KeyError:
        raise ValueError("noise descriptor needs a 'family' key") from None
    if family not in FAMILIES:
        raise ValueError(f"unknown noise family {family!r}")
    return FAMILIES[family](**config)


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
            raise ValueError(
                f"violation_prob must lie strictly inside (0, 1), got {self.violation_prob!r}"
            )
        if not 0.0 < self.confidence < 1.0:
            raise ValueError(f"confidence must lie strictly inside (0, 1), got {self.confidence!r}")
        if self.n_outputs < 1:
            raise ValueError(f"need at least one output, got {self.n_outputs!r}")


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
        raise ValueError(f"confidence must lie strictly inside (0, 1), got {confidence!r}")
    if iteration < 1:
        raise ValueError(f"iteration counter starts at 1, got {iteration!r}")
    share = 6.0 * confidence / (math.pi**2 * iteration**2)
    if share == 0.0:
        raise OverflowError(f"the confidence share of iteration {iteration!r} underflows to 0")
    return share


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

    Gallops and then bisects upward from a count below the single-output
    closed form ``ceil(log(kappa_t) / log(1 - nu))``, where the tail
    inequality provably fails.  The returned count is exactly minimal:
    the tail inequality fails one below it.  Pure in its arguments, so
    results are memoized: every run of a battery asks for the same
    counts at the same iterations.
    """
    if not 0.0 < adjusted_confidence < 1.0:
        raise ValueError(
            f"adjusted confidence must lie strictly inside (0, 1), got {adjusted_confidence!r}"
        )
    nu = schedule.violation_prob
    k = schedule.n_outputs
    log_target = math.log(adjusted_confidence)

    def holds(m: int) -> bool:
        return _log_binomial_tail(m, nu, k) <= log_target

    # The search starts where the tail inequality fails.  With at most
    # k - 1 scenarios the tail is the whole binomial sum, 1.  Its s = 0
    # term, (1 - nu)^m, alone exceeds kappa_t for every m < A =
    # log(kappa_t) / log(1 - nu); and ceil(A') - 2 < A' - 1 < A for a
    # computed A' that rounding moves by less than one from A.  Capping A'
    # keeps that, and the gallop stops at the cap.
    closed_form = min(log_target / math.log1p(-nu), _SCENARIO_CAP)
    lo, step = max(math.ceil(closed_form) - 2, k - 1), 1
    while True:
        hi = min(lo + step, _SCENARIO_CAP)
        if holds(hi):
            break
        if hi == _SCENARIO_CAP:
            raise OverflowError(
                "scenario count exceeds 1e9; violation level is degenerately small"
            )
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
        for start in range(0, m, _CHUNK):
            draws = model.sample(location, i, rng, min(_CHUNK, m - start))
            magnitudes[i] = max(magnitudes[i], np.abs(draws).max())
    return ScenarioBound(n_scenarios=m, magnitudes=magnitudes)
