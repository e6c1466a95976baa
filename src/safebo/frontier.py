"""Which grid points a bound at a point can reach under the kernel metric.

The set rules compare a bound ``b`` at a point ``s`` against
``L * d(s, j)`` for points ``j`` outside a mask: ``s`` reaches ``j`` when
``b - L * d(s, j) >= 0``.  For a stationary kernel ``d`` grows with the
Euclidean distance, so a bound can only reach points inside a ball, and
a point whose bound does not reach the nearest outside point reaches
none.  :class:`GridIndex` answers these questions without the dense
``n x n`` metric:

* a :class:`Frontier` per mask holds the outside points, a KD-tree over
  them, and for every inside point the metric to its Euclidean-nearest
  outside point together with a lower bound on its metric to any outside
  point;
* bounds below ``L`` times that lower bound are dropped, the remaining
  points run a ball query whose radius inverts the kernel profile, and
  every pair the query returns is decided by the dense expression.

The metric of a pair is computed by :func:`~safebo.kernels.paired_metric`,
bit for bit the ``metric_matrix`` entry, and the filters only drop pairs
that are out of reach by a margin far above roundoff, so every decision
equals the dense one.  Memory is O(n): pairs are decided in batches of at
most ``max(_PAIR_BUDGET, n)``.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np
from scipy.spatial import cKDTree

from .kernels import Kernel, paired_metric

__all__ = ["Frontier", "GridIndex"]

# Margins on the squared metric, relative and in units of 2 * output_scale.
# A computed squared metric is off by less than 1e-14 in either unit, so
# bounds widened by these margins, and lower bounds narrowed by them, hold
# for every computed metric.
_REL_SLACK = 1e-9
_ABS_SLACK = 1e-12

# Relative outward widening of query radii, above the 1e-10 error of
# Kernel.radius and the roundoff of the tree's distances.
_RADIUS_WIDEN = 1e-6

# Anchor-by-point pairs decided at once; bounds memory when a radius
# covers most of the grid.
_PAIR_BUDGET = 1 << 17


@dataclass(frozen=True)
class Frontier:
    """The outside of one mask, as the set rules query it.

    ``outside`` lists the grid indices outside the mask and ``tree``
    indexes their points (``None`` when nothing is outside).  ``near``
    and ``floor`` are per grid index and meaningful on the mask only:
    ``near`` is the exact metric to the Euclidean-nearest outside point,
    ``floor`` a lower bound on the computed metric to any outside point.
    """

    outside: np.ndarray
    tree: cKDTree | None
    near: np.ndarray
    floor: np.ndarray


class GridIndex:
    """The grid's points under one kernel, with the frontier of the last mask.

    The frontier is rebuilt only when asked for a different mask, so the
    loop, which asks for each safe set twice, builds one per change.
    """

    def __init__(self, kernel: Kernel, points: np.ndarray):
        self.kernel = kernel
        self.points = np.ascontiguousarray(points, dtype=float)
        # Upper bound on every computed metric: the radicand never exceeds
        # 2 * output_scale, since the profile is nonnegative.
        self.metric_sup = float(np.sqrt(2.0 * kernel.output_scale))
        self._mask: np.ndarray | None = None
        self._frontier: Frontier | None = None

    def frontier(self, mask: np.ndarray) -> Frontier:
        """The frontier of ``mask``, rebuilt only if the mask changed."""
        if self._mask is None or not np.array_equal(mask, self._mask):
            self._frontier = self._build(mask)
            self._mask = mask.copy()
        return self._frontier

    def _build(self, mask: np.ndarray) -> Frontier:
        outside = np.flatnonzero(~mask)
        near = np.zeros(mask.shape[0])
        floor = np.zeros(mask.shape[0])
        if outside.size == 0:
            return Frontier(outside, None, near, floor)
        tree = cKDTree(self.points[outside])
        inside = np.flatnonzero(mask)
        _, nearest = tree.query(self.points[inside])
        near[inside] = paired_metric(
            self.kernel, self.points[inside], self.points[outside[nearest]]
        )
        # Every other outside point is at least as far in Euclidean
        # distance, up to the tree's roundoff, and the metric grows with
        # the distance; the margins cover that roundoff and the metric's.
        scale = 2.0 * self.kernel.output_scale
        floor_sq = near[inside] ** 2 * (1.0 - _REL_SLACK) - _ABS_SLACK * scale
        floor[inside] = np.sqrt(np.maximum(floor_sq, 0.0))
        return Frontier(outside, tree, near, floor)

    def covered(
        self, frontier: Frontier, anchors: np.ndarray, bounds: np.ndarray, norm: float
    ) -> np.ndarray:
        """Per outside point: does some anchor ``a`` have ``bounds[a] - norm * d >= 0``?"""
        hit = np.zeros(frontier.outside.size, dtype=bool)
        keep = bounds - norm * frontier.floor[anchors] >= 0.0
        anchors, bounds = anchors[keep], bounds[keep]
        if anchors.size == 0:
            return hit
        if (bounds - norm * self.metric_sup >= 0.0).any():
            hit[:] = True
            return hit
        for rows, cols, ok in self._pairs(frontier, anchors, bounds, norm):
            hit[cols[ok]] = True
        return hit

    def reaches(
        self, frontier: Frontier, anchors: np.ndarray, bounds: np.ndarray, norm: float
    ) -> np.ndarray:
        """Per anchor: is ``bounds[a] - norm * d >= 0`` for some outside point?

        Meant for anchors whose bound lies between ``norm`` times their
        ``floor`` and their ``near``, the band the frontier cannot decide.
        """
        found = np.zeros(anchors.size, dtype=bool)
        for rows, cols, ok in self._pairs(frontier, anchors, bounds, norm):
            found[rows[ok]] = True
        return found

    def _pairs(self, frontier: Frontier, anchors: np.ndarray, bounds: np.ndarray, norm: float):
        """Chunks of ``(anchor rows, outside positions, reached)`` in query reach.

        The ball around each anchor has the Euclidean radius where the
        metric reaches ``bounds / norm``, widened outward; only the pairs
        inside it are evaluated, with the dense expression.
        """
        scale = 2.0 * self.kernel.output_scale
        target_sq = (bounds / norm) ** 2 * (1.0 + _REL_SLACK) + _ABS_SLACK * scale
        radii = self.kernel.radius(np.sqrt(target_sq)) * (1.0 + _RADIUS_WIDEN)
        step = max(1, _PAIR_BUDGET // frontier.outside.size)
        for start in range(0, anchors.size, step):
            chunk = slice(start, start + step)
            balls = frontier.tree.query_ball_point(self.points[anchors[chunk]], radii[chunk])
            sizes = np.fromiter(map(len, balls), dtype=np.intp, count=len(balls))
            cols = np.fromiter(
                itertools.chain.from_iterable(balls), dtype=np.intp, count=int(sizes.sum())
            )
            rows = np.repeat(np.arange(start, start + sizes.size), sizes)
            metric = paired_metric(
                self.kernel, self.points[anchors[rows]], self.points[frontier.outside[cols]]
            )
            yield rows, cols, bounds[rows] - norm * metric >= 0.0
