"""Finite candidate-parameter grids.

The optimizer, the set computations, and the synthetic benchmarks all
operate on a finite, index-addressable list of candidate points.  A
:class:`Domain` holds that list together with the box it was drawn from.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["Domain", "has_duplicate_rows"]


def has_duplicate_rows(points: np.ndarray) -> bool:
    """Whether two rows of ``points`` are equal.

    A lexicographic sort puts equal rows next to each other.  Unlike
    ``np.unique(points, axis=0)`` this leaves ``numpy.ma`` unimported.
    """
    ordered = points[np.lexsort(points.T)]
    return bool((ordered[1:] == ordered[:-1]).all(axis=1).any())


@dataclass(frozen=True)
class Domain:
    """Ordered list of candidate points inside a bounding box.

    ``points`` has shape ``(n_points, dim)``; ``bounds`` is one
    ``(low, high)`` pair per dimension.  Points must be unique and lie
    inside the box.
    """

    points: np.ndarray
    bounds: tuple[tuple[float, float], ...]

    def __post_init__(self) -> None:
        points = np.asarray(self.points, dtype=float)
        if points.ndim != 2 or points.shape[0] == 0:
            raise ValueError("domain needs a non-empty (n, d) point array")
        bounds = tuple((float(lo), float(hi)) for lo, hi in self.bounds)
        if len(bounds) != points.shape[1]:
            raise ValueError("one bounds pair per dimension required")
        lows = np.array([b[0] for b in bounds])
        highs = np.array([b[1] for b in bounds])
        if np.any(lows >= highs):
            raise ValueError("each bounds pair must satisfy low < high")
        if np.any(points < lows) or np.any(points > highs):
            raise ValueError("all points must lie within the bounds")
        if has_duplicate_rows(points):
            raise ValueError("duplicate points in domain")
        object.__setattr__(self, "points", points)
        object.__setattr__(self, "bounds", bounds)

    @property
    def n_points(self) -> int:
        return self.points.shape[0]

    @property
    def dim(self) -> int:
        return self.points.shape[1]

    @classmethod
    def grid(
        cls,
        bounds: list[tuple[float, float]] | tuple[tuple[float, float], ...],
        resolution: int | list[int] | tuple[int, ...],
    ) -> "Domain":
        """Uniform grid over a box, ``resolution`` points per dimension.

        Points are ordered lexicographically with the first dimension
        varying slowest, so grid indices are stable across runs.
        """
        bounds = tuple((float(lo), float(hi)) for lo, hi in bounds)
        if isinstance(resolution, int):
            resolution = (resolution,) * len(bounds)
        resolution = tuple(int(r) for r in resolution)
        if len(resolution) != len(bounds):
            raise ValueError("one resolution per dimension required")
        if any(r < 2 for r in resolution):
            raise ValueError("resolution must be at least 2 per dimension")
        axes = [np.linspace(lo, hi, r) for (lo, hi), r in zip(bounds, resolution)]
        mesh = np.meshgrid(*axes, indexing="ij")
        points = np.stack([m.ravel() for m in mesh], axis=1)
        return cls(points=points, bounds=bounds)
