"""Safety multipliers and running intersected confidence intervals.

The half-width multiplier combines a known kernel-norm bound with the
accumulated scenario noise bounds,

    beta_i = norm_bound_i + sqrt(xi / reg) * ||bounds_{i,1:t}||_2,

where the paper's ``xi`` is the top eigenvalue of ``K (K + reg I)^{-1}``.
The loop passes the trace bound ``xi_tr = T / (T + reg)``,
``T = tr K = t k(a, a)``.  For the positive semi-definite Gram matrix
``lam <= ||K||_F <= tr K``, so ``xi_tr`` is at least that eigenvalue and
the multipliers are at least the paper's
(:meth:`safebo.gp.SurrogateModel.xi_trace`).  Since ``lam >= k(a, a)``,
the noise term exceeds the paper's by at most
``sqrt(1 + reg / k(a, a)) - 1``, relatively: 0.5% at ``reg = 0.01`` and
``k(a, a) = 1``.
Intervals start at the whole real line and are intersected across
iterations, so they can only shrink; an empty intersection means an
interval assumption failed and is reported as :class:`ConfidenceCollapse`
(or repaired, when configured).
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
    norm_bound: float, regularization: float, xi: float, bound_sq_sum: float
) -> float:
    """Safety multiplier from a pre-accumulated sum of squared noise bounds.

    ``xi`` is the spectral ratio, the top eigenvalue of
    ``K (K + reg I)^{-1}``, or any upper bound on it; the loop passes the
    trace bound (``lam <= ||K||_F <= tr K``), whose noise term exceeds
    the paper's by at most ``sqrt(1 + reg / k(a, a)) - 1``, relatively.
    Accumulating the squares in a scalar keeps the multiplier exactly
    non-decreasing across iterations even in floating point, as long as
    the ratio does not decrease.
    """
    return norm_bound + math.sqrt(xi / regularization) * math.sqrt(bound_sq_sum)


@dataclass(frozen=True)
class ConfidenceState:
    """Intersected confidence intervals per output and grid point.

    A fresh state is the whole real line, ``lower = -inf`` and
    ``upper = +inf``, as in SafeOpt before any data.  IEEE arithmetic
    keeps the infinities honest: the first intersection returns the band
    itself, an infinite width is ``+inf``, an infinite upper bound passes
    every threshold and an infinite lower bound certifies nothing.
    """

    lower: np.ndarray
    upper: np.ndarray

    @classmethod
    def unbounded(cls, n_outputs: int, n_points: int) -> "ConfidenceState":
        return cls(
            lower=np.full((n_outputs, n_points), -math.inf),
            upper=np.full((n_outputs, n_points), math.inf),
        )


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
    only fall, so successive states are nested; intersecting a fresh
    state returns the band itself, bit for bit.  A crossing beyond
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
    # Counted, not ``.all()``/``.any()``: those run a Python frame per call.
    for name, values in (("means", means), ("std", std), ("betas", betas)):
        if np.count_nonzero(np.isfinite(values)) != values.size:
            raise ValueError(f"{name} must be finite")
    if np.count_nonzero(std < 0):
        raise ValueError("standard deviations must be nonnegative")
    if np.count_nonzero(betas < 0):
        raise ValueError("multipliers must be nonnegative")
    k, n = state.lower.shape
    if means.shape != (k, n):
        raise ValueError("means must have shape (n_outputs, n_points)")
    if std.shape != (n,):
        raise ValueError("std must have shape (n_points,)")
    if betas.shape != (k,):
        raise ValueError("betas must have shape (n_outputs,)")

    half = betas[:, None] * std
    new_lo = means - half
    new_hi = means + half
    np.maximum(state.lower, new_lo, out=new_lo)
    np.minimum(state.upper, new_hi, out=new_hi)

    crossed = new_lo > new_hi
    if np.count_nonzero(crossed):
        gap = new_lo - new_hi
        broken = gap > _COLLAPSE_TOL
        if np.count_nonzero(broken):
            if on_collapse == "error":
                i, a = np.argwhere(broken)[0]
                raise ConfidenceCollapse(int(i), int(a), float(gap[i, a]))
            logger.warning(
                "confidence collapse at %d interval(s); resetting to the fresh band",
                int(broken.sum()),
            )
            new_lo = np.where(broken, means - half, new_lo)
            new_hi = np.where(broken, means + half, new_hi)
        # Sub-roundoff crossings pin the interval to a point inside the
        # previous one, preserving the nesting guarantee.
        slight = crossed & ~broken
        if np.count_nonzero(slight):
            mid = 0.5 * (new_lo + new_hi)
            pinned = np.clip(mid, state.lower, state.upper)
            new_lo = np.where(slight, pinned, new_lo)
            new_hi = np.where(slight, pinned, new_hi)

    return ConfidenceState(new_lo, new_hi)
