"""Safety multipliers and running intersected confidence intervals.

The half-width multiplier combines a known kernel-norm bound with the
accumulated scenario noise bounds,

    beta_i = norm_bound_i + sqrt(lambda_max / reg) * ||bounds_{i,1:t}||_2,

where ``lambda_max`` is the top eigenvalue of ``K (K + reg I)^{-1}``.
Intervals are intersected across iterations, so they can only shrink;
an empty intersection means an interval assumption failed and is
reported as :class:`ConfidenceCollapse` (or repaired, when configured).
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "ConfidenceCollapse",
    "ConfidenceState",
    "beta_from_squares",
    "update_intervals",
]

logger = logging.getLogger(__name__)

# Interval overshoot tolerated as roundoff before declaring a collapse.
_COLLAPSE_TOL = 1e-12


class ConfidenceCollapse(RuntimeError):
    """Raised when intersected intervals become empty beyond roundoff."""

    def __init__(self, output: int, point: int, gap: float):
        super().__init__(
            f"confidence interval collapsed at point {point}, output {output} "
            f"(lower exceeds upper by {gap:.3e})"
        )
        self.output = output
        self.point = point
        self.gap = gap


def beta_from_squares(
    norm_bound: float, regularization: float, xi_lambda_max: float, bound_sq_sum: float
) -> float:
    """Safety multiplier from a pre-accumulated sum of squared noise bounds.

    Accumulating the squares in a scalar keeps the multiplier exactly
    non-decreasing across iterations even in floating point.
    """
    return norm_bound + math.sqrt(xi_lambda_max / regularization) * math.sqrt(bound_sq_sum)


@dataclass(frozen=True)
class ConfidenceState:
    """Intersected confidence intervals per output and grid point.

    Fresh states are unbounded.  Unboundedness is tracked with a mask
    instead of infinities so that no arithmetic ever mixes infinite
    endpoints; the stored ``lower``/``upper`` values are meaningless
    wherever ``bounded`` is false.
    """

    lower: np.ndarray
    upper: np.ndarray
    bounded: np.ndarray

    @classmethod
    def unbounded(cls, n_outputs: int, n_points: int) -> "ConfidenceState":
        return cls(
            lower=np.zeros((n_outputs, n_points)),
            upper=np.zeros((n_outputs, n_points)),
            bounded=np.zeros((n_outputs, n_points), dtype=bool),
        )

    def lower_bound(self, output: int, point: int) -> float:
        """Interval minimum; ``-inf`` when still unbounded."""
        if not self.bounded[output, point]:
            return -math.inf
        return float(self.lower[output, point])

    def upper_bound(self, output: int, point: int) -> float:
        """Interval maximum; ``+inf`` when still unbounded."""
        if not self.bounded[output, point]:
            return math.inf
        return float(self.upper[output, point])

    def width(self, output: int, point: int) -> float:
        """Interval width, ``+inf`` when still unbounded."""
        if not self.bounded[output, point]:
            return math.inf
        return float(self.upper[output, point] - self.lower[output, point])

    def widths(self) -> np.ndarray:
        """All widths at once, ``+inf`` where unbounded."""
        out = np.full(self.lower.shape, np.inf)
        np.subtract(self.upper, self.lower, out=out, where=self.bounded)
        return out

    def lower_filled(self, fill: float = -np.inf) -> np.ndarray:
        """Lower endpoints with unbounded entries replaced by ``fill``."""
        return np.where(self.bounded, self.lower, fill)


def update_intervals(
    state: ConfidenceState,
    means: np.ndarray,
    std: np.ndarray,
    betas: np.ndarray,
    *,
    on_collapse: str = "error",
) -> ConfidenceState:
    """Intersect the state with the bands ``means +- betas * std``.

    Endpoints move monotonically: lower bounds only rise, upper bounds
    only fall, so successive states are nested.  A crossing beyond
    roundoff either raises :class:`ConfidenceCollapse` (``"error"``, the
    library default) or replaces the offending interval with the fresh
    band and logs a warning (``"reset"``, meant for long experiment
    batches that must survive a failed interval assumption).
    """
    if on_collapse not in ("error", "reset"):
        raise ValueError("on_collapse must be 'error' or 'reset'")
    means = np.asarray(means, dtype=float)
    std = np.asarray(std, dtype=float)
    betas = np.asarray(betas, dtype=float)
    if np.any(std < 0):
        raise ValueError("standard deviations must be nonnegative")
    if means.shape != state.lower.shape:
        raise ValueError("means must have shape (n_outputs, n_points)")

    half = betas[:, None] * std[None, :]
    band_lo = means - half
    band_hi = means + half

    new_lo = np.where(state.bounded, np.maximum(state.lower, band_lo), band_lo)
    new_hi = np.where(state.bounded, np.minimum(state.upper, band_hi), band_hi)

    gap = new_lo - new_hi
    crossed = gap > 0.0
    if crossed.any():
        broken = gap > _COLLAPSE_TOL
        if broken.any():
            if on_collapse == "error":
                i, a = np.argwhere(broken)[0]
                raise ConfidenceCollapse(int(i), int(a), float(gap[i, a]))
            logger.warning(
                "confidence collapse at %d interval(s); resetting to the fresh band",
                int(broken.sum()),
            )
            new_lo = np.where(broken, band_lo, new_lo)
            new_hi = np.where(broken, band_hi, new_hi)
        # Sub-roundoff crossings pin the interval to a point inside the
        # previous one, preserving the nesting guarantee.
        slight = crossed & ~broken
        if slight.any():
            mid = 0.5 * (new_lo + new_hi)
            pinned = np.clip(mid, state.lower, state.upper)
            new_lo = np.where(slight, pinned, new_lo)
            new_hi = np.where(slight, pinned, new_hi)

    return ConfidenceState(
        lower=new_lo,
        upper=new_hi,
        bounded=np.ones_like(state.bounded),
    )
