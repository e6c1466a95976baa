"""Synthetic ground truth with known kernel-norm budget.

Benchmarks need functions whose kernel norm is known exactly, because
the optimizer's guarantees are stated relative to that norm.  A random
kernel expansion ``f(a) = sum_j c_j k(a, x_j)`` has squared norm
``c' K c`` over its centers, so rescaling the coefficients pins the norm
to one.  Constraints are built by shifting such a function so that a
chosen share of the grid stays nonnegative.

A function evaluates its points in chunks of ``_CHUNK`` rows, so the
kernel matrix it builds holds ``_CHUNK`` rows of one column per center
instead of one row per grid point.  Each value is one row of a
matrix-vector product, and the BLAS kernel sums each row alike as long as
a chunk boundary never splits the groups of four rows it works in: with
``_CHUNK`` a multiple of four the values are those of the one-shot
product, bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .domain import Domain
from .kernels import Kernel, pairwise

__all__ = [
    "RkhsFunction",
    "ShiftedFunction",
    "nearest_rank_quantile",
    "sample_rkhs_function",
    "shift_to_quantile",
]

# Rows of points evaluated per kernel matrix; a multiple of four, so the
# values equal the one-shot product bit for bit (see above).
_CHUNK = 2048

_MAX_RESAMPLE = 32


@dataclass(frozen=True)
class RkhsFunction:
    """Kernel expansion ``sum_j coefficients[j] * k(a, centers[j])``."""

    kernel: Kernel
    centers: np.ndarray
    coefficients: np.ndarray
    rkhs_norm: float

    def __call__(self, points: np.ndarray) -> np.ndarray:
        points = np.asarray(points, dtype=float)
        if points.ndim != 2:
            raise ValueError("points must be an (m, d) array")
        values = np.empty(points.shape[0])
        for start in range(0, points.shape[0], _CHUNK):
            chunk = pairwise(self.kernel, points[start : start + _CHUNK], self.centers)
            values[start : start + _CHUNK] = chunk @ self.coefficients
        return values

    def to_config(self) -> dict:
        return {
            "kernel": self.kernel.to_config(),
            "centers": self.centers.tolist(),
            "coefficients": self.coefficients.tolist(),
            "rkhs_norm": self.rkhs_norm,
        }

    @classmethod
    def from_config(cls, config: dict) -> "RkhsFunction":
        return cls(
            kernel=Kernel(**config["kernel"]),
            centers=np.asarray(config["centers"], dtype=float),
            coefficients=np.asarray(config["coefficients"], dtype=float),
            rkhs_norm=float(config["rkhs_norm"]),
        )


@dataclass(frozen=True)
class ShiftedFunction:
    """A base function minus a constant threshold."""

    base: RkhsFunction
    offset: float

    def __call__(self, points: np.ndarray) -> np.ndarray:
        return self.base(points) - self.offset

    def to_config(self) -> dict:
        return {"base": self.base.to_config(), "offset": self.offset}

    @classmethod
    def from_config(cls, config: dict) -> "ShiftedFunction":
        return cls(RkhsFunction.from_config(config["base"]), float(config["offset"]))


def sample_rkhs_function(
    kernel: Kernel, domain: Domain, n_centers: int, rng: np.random.Generator
) -> RkhsFunction:
    """Random unit-norm kernel expansion over the domain's box.

    Centers are uniform in the box and coefficients standard normal,
    then rescaled so the squared norm ``c' K c`` equals one.  Degenerate
    draws (duplicate centers, numerically singular center matrix) are
    resampled.
    """
    if n_centers < 1:
        raise ValueError("need at least one center")
    lows = np.array([b[0] for b in domain.bounds])
    highs = np.array([b[1] for b in domain.bounds])

    for _ in range(_MAX_RESAMPLE):
        centers = rng.uniform(lows, highs, size=(n_centers, domain.dim))
        if _has_duplicate_rows(centers):
            continue
        coefficients = rng.standard_normal(n_centers)
        center_gram = pairwise(kernel, centers)
        sq_norm = float(coefficients @ center_gram @ coefficients)
        if not sq_norm > 0:
            continue
        try:
            np.linalg.cholesky(
                center_gram + 1e-10 * kernel.output_scale * np.eye(n_centers)
            )
        except np.linalg.LinAlgError:
            continue
        coefficients = coefficients / math.sqrt(sq_norm)
        norm = math.sqrt(float(coefficients @ center_gram @ coefficients))
        return RkhsFunction(
            kernel=kernel, centers=centers, coefficients=coefficients, rkhs_norm=norm
        )
    raise RuntimeError("could not sample a non-degenerate center set")


def _has_duplicate_rows(points: np.ndarray) -> bool:
    """Whether two rows of ``points`` are equal.

    A lexicographic sort puts equal rows next to each other.  Unlike
    ``np.unique(points, axis=0)`` this leaves ``numpy.ma`` unimported.
    """
    ordered = points[np.lexsort(points.T)]
    return bool((ordered[1:] == ordered[:-1]).all(axis=1).any())


def nearest_rank_quantile(values: np.ndarray, q: float) -> float:
    """Quantile without interpolation: exactly ``ceil((1-q)*n)`` values
    are greater than or equal to the result (up to ties)."""
    if not 0.0 < q < 1.0:
        raise ValueError("quantile level must lie strictly inside (0, 1)")
    ordered = np.sort(np.asarray(values, dtype=float))
    n = ordered.shape[0]
    keep = math.ceil((1.0 - q) * n)
    return float(ordered[n - keep])


def shift_to_quantile(f: RkhsFunction, domain: Domain, q: float) -> tuple:
    """Shift ``f`` down so its level-``q`` grid quantile sits at exactly zero.

    Returns the shifted function and its grid values, from one grid
    evaluation of ``f``.  The shifted function is nonnegative on the top
    ``1 - q`` share of grid points and keeps the argmax of ``f``.
    """
    values = f(domain.points)
    threshold = nearest_rank_quantile(values, q)
    return ShiftedFunction(base=f, offset=threshold), values - threshold
