"""Stationary covariance kernels, kernel matrices, and the induced metric.

Everything else in this package measures similarity between candidate
parameters through one of these kernels.  The kernel also induces a
metric, ``d(a, b) = sqrt(2 * (k(a, a) - k(a, b)))``, which converts a
bound on a function's kernel norm into a bound on how much the function
can change between two points.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "FAMILIES",
    "Kernel",
    "metric_matrix",
    "paired_metric",
    "pairwise",
]

FAMILIES = ("matern32", "squared_exponential")

_SQRT3 = float(np.sqrt(3.0))

# Radicand slack tolerated before the metric reports a broken kernel.
_METRIC_TOL = 1e-12

# Below this squared metric over 2 * output_scale, the Matérn inverse uses
# the branch-point series of Lambert W_{-1}: there ``u - log(1 + u)``
# cancels to about u**2 / 2, and Newton's residual loses relative accuracy
# like 1e-16 / u, while five series terms stay within 2e-11 relative.
_SERIES_BELOW = 1e-4

# Newton steps of the Matérn inverse.  From its start above the root the
# iteration decreases monotonically; three steps reach 2e-13 relative
# between the series threshold and 1 - 1e-15, the others are margin.
_NEWTON_STEPS = 5


@dataclass(frozen=True)
class Kernel:
    """Stationary kernel with constant diagonal ``k(a, a) = output_scale``.

    Parameters
    ----------
    family : str
        ``"matern32"`` (default) or ``"squared_exponential"``.
    lengthscale : float
        Positive correlation length.
    output_scale : float
        Positive variance scale, the value of ``k(a, a)``.
    """

    family: str = "matern32"
    lengthscale: float = 0.1
    output_scale: float = 1.0

    def __post_init__(self) -> None:
        if self.family not in FAMILIES:
            raise ValueError(f"unknown kernel family {self.family!r}")
        if not self.lengthscale > 0.0:
            raise ValueError("lengthscale must be positive")
        if not self.output_scale > 0.0:
            raise ValueError("output_scale must be positive")

    def profile(self, dists: np.ndarray) -> np.ndarray:
        """Kernel value as a function of Euclidean distance."""
        r = np.asarray(dists, dtype=float) / self.lengthscale
        if self.family == "matern32":
            u = _SQRT3 * r
            return self.output_scale * (1.0 + u) * np.exp(-u)
        return self.output_scale * np.exp(-0.5 * r * r)

    def radius(self, metric: np.ndarray) -> np.ndarray:
        """Euclidean distance at which the kernel metric reaches ``metric``.

        The inverse of the profile: with ``x = metric**2 / (2 * output_scale)``
        it solves ``1 - exp(-r**2 / 2) = x`` in closed form and
        ``1 - (1 + u) exp(-u) = x``, ``u = sqrt(3) r``, by Newton's method
        on ``u - log(1 + u) = -log(1 - x)`` (``-(1 + u)`` is the lower
        branch of Lambert W at ``(x - 1) / e``).  Infinite from
        ``sqrt(2 * output_scale)``, the supremum of the metric, on.
        Accurate to about 1e-10 relative.
        """
        x = np.minimum(np.asarray(metric, dtype=float) ** 2 / (2.0 * self.output_scale), 1.0)
        with np.errstate(divide="ignore", invalid="ignore"):
            target = -np.log1p(-x)
            if self.family == "squared_exponential":
                return self.lengthscale * np.sqrt(2.0 * target)
            # u - log(1 + u) is convex and increasing, and this start lies
            # above its root, so Newton decreases monotonically onto it.
            u = target + np.sqrt(2.0 * target)
            for _ in range(_NEWTON_STEPS):
                u = u - (u - np.log1p(u) - target) * (1.0 + u) / u
        u = np.where(x < 1.0, u, np.inf)
        small = x < _SERIES_BELOW
        if small.any():
            s = np.sqrt(2.0 * x[small])
            u[small] = s * (1 + s * (1 / 3 + s * (11 / 72 + s * (43 / 540 + s * 769 / 17280))))
        return self.lengthscale / _SQRT3 * u

    def to_config(self) -> dict:
        return {
            "family": self.family,
            "lengthscale": self.lengthscale,
            "output_scale": self.output_scale,
        }


def _as_points(x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if x.ndim == 1:
        x = x[None, :]
    if x.ndim != 2:
        raise ValueError("points must be vectors or (n, d) arrays")
    return x


def pairwise(kernel: Kernel, x: np.ndarray, y: np.ndarray | None = None) -> np.ndarray:
    """Kernel matrix between the rows of ``x`` and ``y`` (``x`` itself if omitted)."""
    x = _as_points(x)
    y = x if y is None else _as_points(y)
    if x.shape[1] != y.shape[1]:
        raise ValueError(f"dimension mismatch: {x.shape[1]} vs {y.shape[1]}")
    total = np.zeros((x.shape[0], y.shape[0]))
    for k in range(x.shape[1]):
        diff = np.subtract.outer(x[:, k], y[:, k])
        diff *= diff
        total += diff
    return kernel.profile(np.sqrt(total, out=total))


def metric_matrix(kernel: Kernel, x: np.ndarray, y: np.ndarray | None = None) -> np.ndarray:
    """Pairwise kernel metric between rows of ``x`` and ``y``.

    Dense and O(n²) in time and memory; the loop never builds it.  Its
    only callers are perfbench's reachability ceiling and the tests'
    oracles; :func:`paired_metric` gives the same bits one pair at a time.
    """
    return _metric(kernel, pairwise(kernel, x, y))


def paired_metric(kernel: Kernel, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Kernel metric between row ``p`` of ``x`` and row ``p`` of ``y``, per ``p``.

    Each entry has the bits of the same pair's :func:`metric_matrix`
    entry: the squared coordinate differences are summed left to right,
    as :func:`pairwise` sums them, and the profile and square root are the same.
    """
    x = _as_points(x)
    y = _as_points(y)
    if x.shape != y.shape:
        raise ValueError(f"paired shapes differ: {x.shape} vs {y.shape}")
    diff = x - y
    squares = diff * diff
    total = squares[:, 0].copy()
    for k in range(1, squares.shape[1]):
        total += squares[:, k]
    return _metric(kernel, kernel.profile(np.sqrt(total)))


def _metric(kernel: Kernel, values: np.ndarray) -> np.ndarray:
    radicand = 2.0 * (kernel.output_scale - values)
    if radicand.size and radicand.min() < -_METRIC_TOL * kernel.output_scale:
        raise ValueError("kernel metric radicand is negative; invalid kernel")
    return np.sqrt(np.maximum(radicand, 0.0))
