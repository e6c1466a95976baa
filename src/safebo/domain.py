"""Finite candidate-parameter lattices.

The optimizer, the set computations, and the synthetic benchmarks all
operate on a finite, index-addressable list of candidate points.  A
:class:`Domain` is the lattice those points form: the product of one
increasing coordinate axis per dimension.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .noise import is_integer

__all__ = ["Domain"]


@dataclass(frozen=True)
class Domain:
    """The product of per-dimension coordinate axes.

    ``axes`` holds one non-empty, strictly increasing 1-D array per
    dimension.  ``points`` has shape ``(n_points, dim)`` and lists the
    product with the first axis varying slowest, so grid indices are
    stable across runs; ``bounds`` is each axis's ``(first, last)`` pair.
    """

    axes: tuple[np.ndarray, ...]
    points: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        axes = tuple(np.asarray(axis, dtype=float) for axis in self.axes)
        if not axes or any(
            axis.ndim != 1 or axis.size == 0 or not (axis[1:] > axis[:-1]).all() for axis in axes
        ):
            raise ValueError("domain needs non-empty, strictly increasing 1-D axes")
        mesh = np.meshgrid(*axes, indexing="ij")
        object.__setattr__(self, "axes", axes)
        object.__setattr__(self, "points", np.stack([m.ravel() for m in mesh], axis=1))

    @property
    def bounds(self) -> tuple[tuple[float, float], ...]:
        return tuple((float(axis[0]), float(axis[-1])) for axis in self.axes)

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

        ``resolution`` is one integer, Python or numpy, for every
        dimension, or a sequence of them; a float or bool raises.
        """
        bounds = tuple((float(lo), float(hi)) for lo, hi in bounds)
        resolution = (resolution,) * len(bounds) if np.ndim(resolution) == 0 else tuple(resolution)
        if not all(is_integer(r) for r in resolution):
            raise ValueError(f"resolution must be integers, got {resolution!r}")
        resolution = tuple(int(r) for r in resolution)
        if len(resolution) != len(bounds):
            raise ValueError("one resolution per dimension required")
        if any(r < 2 for r in resolution):
            raise ValueError("resolution must be at least 2 per dimension")
        if any(not lo < hi for lo, hi in bounds):
            raise ValueError("each bounds pair must satisfy low < high")
        return cls(tuple(np.linspace(lo, hi, r) for (lo, hi), r in zip(bounds, resolution)))
