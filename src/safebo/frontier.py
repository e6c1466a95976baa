"""Which grid points a bound at a point can reach under the kernel metric.

The set rules compare a bound ``b`` at a point ``s`` against
``L * d(s, j)`` for points ``j`` outside a mask: ``s`` reaches ``j`` when
``b - L * d(s, j) >= 0``.  For a stationary kernel ``d`` grows with the
Euclidean distance, so a bound can only reach points inside a ball, and
a point whose bound does not reach the nearest outside point reaches
none.  :class:`GridIndex` answers these questions on the lattice of a
:class:`~safebo.domain.Domain` without the dense ``n x n`` metric:

* a :class:`Frontier` per mask holds the outside points, and for every
  inside point the metric to a Euclidean-nearest outside point together
  with a lower bound on its metric to any outside point.  The nearest
  outside point comes from an exact separable Euclidean distance
  transform on the lattice (Maurer et al., IEEE PAMI 2003): one pass
  per axis, with the axes' own coordinates, so the lattice need not be
  uniform;
* bounds below ``L`` times that lower bound are dropped, the remaining
  points enumerate the lattice box around them whose half-width inverts
  the kernel profile, and every outside point of the box inside the
  ball is decided by the dense expression.

The metric of a pair is computed by :func:`~safebo.kernels.paired_metric`,
bit for bit the ``metric_matrix`` entry, and the filters only drop pairs
that are out of reach by a margin far above roundoff, so every decision
equals the dense one.  Memory is O(n): pairs and candidates are handled in
batches of at most ``max(_PAIR_BUDGET, n)``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .domain import Domain
from .kernels import Kernel, paired_metric

__all__ = ["Frontier", "GridIndex"]

# Margins on the squared metric, relative and in units of 2 * output_scale.
# A computed squared metric is off by less than 1e-14 in either unit, so
# bounds widened by these margins, and lower bounds narrowed by them, hold
# for every computed metric.
_REL_SLACK = 1e-9
_ABS_SLACK = 1e-12

# Relative outward widening of query radii, above the 1e-10 error of
# Kernel.radius and the roundoff of the distances the box and ball use.
_RADIUS_WIDEN = 1e-6

# Pairs, or transform candidates, handled at once; bounds memory when a
# radius covers most of the grid.
_PAIR_BUDGET = 1 << 17


@dataclass(frozen=True)
class Frontier:
    """The outside of one mask, as the set rules query it.

    ``outside`` lists the grid indices outside the mask and ``position``
    maps each grid index to its place in ``outside`` (-1 inside).
    ``near`` and ``floor`` are per grid index and meaningful on the mask
    only: ``near`` is the exact metric to a Euclidean-nearest outside
    point, ``floor`` a lower bound on the computed metric to any outside
    point.
    """

    outside: np.ndarray
    position: np.ndarray
    near: np.ndarray
    floor: np.ndarray


class GridIndex:
    """A domain's lattice under one kernel, with the frontier of the last mask.

    The frontier is rebuilt only when asked for a different mask, so the
    loop, which asks for each safe set twice, builds one per change.
    """

    def __init__(self, kernel: Kernel, domain: Domain):
        self.kernel = kernel
        self.points = domain.points
        self.axes = domain.axes
        self.shape = tuple(axis.size for axis in self.axes)
        self.strides = np.array(
            [math.prod(self.shape[k + 1 :]) for k in range(len(self.shape))], dtype=np.intp
        )
        self._budget = max(_PAIR_BUDGET, len(self.points))
        # Upper bound on every computed metric: the radicand never exceeds
        # 2 * output_scale, since the profile is nonnegative.
        self.metric_sup = float(np.sqrt(2.0 * kernel.output_scale))
        self._mask: np.ndarray | None = None
        self._frontier: Frontier | None = None

    def frontier(self, mask: np.ndarray) -> Frontier:
        """The frontier of ``mask``, rebuilt only if the mask changed."""
        last = self._mask
        if last is None or last.shape != mask.shape or not (last == mask).all():
            self._frontier = self._build(mask)
            self._mask = mask.copy()
        return self._frontier

    def _build(self, mask: np.ndarray) -> Frontier:
        outside = (~mask).nonzero()[0]
        position = np.full(mask.shape[0], -1, dtype=np.intp)
        position[outside] = np.arange(outside.size)
        near = np.zeros(mask.shape[0])
        floor = np.zeros(mask.shape[0])
        if outside.size == 0:
            return Frontier(outside, position, near, floor)
        inside = mask.nonzero()[0]
        nearest = self._nearest_outside(~mask, inside)
        near[inside] = paired_metric(self.kernel, self.points[inside], self.points[nearest])
        # Every other outside point is at least as far in Euclidean
        # distance, up to the transform's roundoff, and the metric grows
        # with the distance; the margins cover that roundoff and the metric's.
        scale = 2.0 * self.kernel.output_scale
        floor_sq = near[inside] ** 2 * (1.0 - _REL_SLACK) - _ABS_SLACK * scale
        floor[inside] = np.sqrt(np.maximum(floor_sq, 0.0))
        return Frontier(outside, position, near, floor)

    def _nearest_outside(self, outside: np.ndarray, inside: np.ndarray) -> np.ndarray:
        """Per index in ``inside``, the grid index of a Euclidean-nearest outside point.

        The squared distance to the nearest outside point is separable
        over the axes.  Along the last axis, the nearest outside point of
        a line lies at the last outside index before or the first after;
        each earlier axis then takes the minimum of ``(c_i - c_j)**2 + g_j``
        over the line through a point, carrying the argmin.  The first
        axis, the last pass, is taken at ``inside`` only.
        """
        out = outside.reshape(self.shape)
        coords = self.axes[-1]
        m = coords.size
        idx = np.arange(m)
        left = np.maximum.accumulate(np.where(out, idx, -1), axis=-1)
        right = np.minimum.accumulate(np.where(out, idx, m)[..., ::-1], axis=-1)[..., ::-1]
        to_left = np.where(left >= 0, (coords - coords[np.maximum(left, 0)]) ** 2, np.inf)
        to_right = np.where(right < m, (coords[np.minimum(right, m - 1)] - coords) ** 2, np.inf)
        take_right = to_right < to_left
        sq = np.where(take_right, to_right, to_left).ravel()
        arg = np.arange(outside.size) + (np.where(take_right, right, left) - idx).ravel()
        if len(self.shape) == 1:
            return arg[inside]
        for k in range(len(self.shape) - 2, -1, -1):
            at = inside if k == 0 else np.arange(outside.size)
            sq, arg = self._axis_min(sq, arg, k, at)
        return arg

    def _axis_min(self, sq: np.ndarray, arg: np.ndarray, k: int, at: np.ndarray):
        """Per grid index in ``at``: ``min_j (c_i - c_j)**2 + sq_j`` over its axis-``k`` line.

        Returns the minima and ``arg`` at the argmins.  The points are
        taken in chunks, so a candidate block holds at most the budget.
        """
        coords = self.axes[k]
        along = np.arange(coords.size) * self.strides[k]
        i = at // self.strides[k] % coords.size
        first = at - along[i]
        best_sq = np.empty(at.size)
        best_arg = np.empty(at.size, dtype=np.intp)
        per = max(1, self._budget // coords.size)
        for start in range(0, at.size, per):
            chunk = slice(start, start + per)
            line = first[chunk, None] + along
            candidates = (coords[i[chunk], None] - coords) ** 2 + sq[line]
            j = candidates.argmin(axis=1)
            rows = np.arange(j.size)
            best_sq[chunk] = candidates[rows, j]
            best_arg[chunk] = arg[line[rows, j]]
        return best_sq, best_arg

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
        """Chunks of ``(anchor rows, outside positions, reached)`` in reach.

        The ball around each anchor has the Euclidean radius where the
        metric reaches ``bounds / norm``, widened outward.  Its bounding
        box on the lattice is found per axis by bisecting the axis
        coordinates; the box's outside points inside the ball are
        evaluated with the dense expression.
        """
        scale = 2.0 * self.kernel.output_scale
        target_sq = (bounds / norm) ** 2 * (1.0 + _REL_SLACK) + _ABS_SLACK * scale
        radii = self.kernel.radius(np.sqrt(target_sq)) * (1.0 + _RADIUS_WIDEN)
        centers = self.points[anchors]
        lows, sizes = [], []
        for k, axis in enumerate(self.axes):
            low = np.searchsorted(axis, centers[:, k] - radii, side="left")
            lows.append(low)
            sizes.append(np.searchsorted(axis, centers[:, k] + radii, side="right") - low)
        boxes = np.prod(sizes, axis=0)
        ends = np.cumsum(boxes)
        leads = ends - boxes
        start = 0
        while start < anchors.size:
            # As many anchors as fit the budget; a box holds at most n
            # points, so at least one does.
            stop = int(np.searchsorted(ends, leads[start] + self._budget, side="right"))
            rows = np.repeat(np.arange(start, stop), boxes[start:stop])
            offset = np.arange(leads[start], ends[stop - 1]) - leads[rows]
            flat = np.zeros(rows.size, dtype=np.intp)
            for k in range(len(self.axes) - 1, -1, -1):
                offset, digit = np.divmod(offset, sizes[k][rows])
                flat += (lows[k][rows] + digit) * self.strides[k]
            keep = frontier.position[flat] >= 0
            rows, flat = rows[keep], flat[keep]
            diff = centers[rows] - self.points[flat]
            squares = diff * diff
            keep = squares.sum(axis=1) <= radii[rows] ** 2
            rows, flat = rows[keep], flat[keep]
            metric = paired_metric(self.kernel, centers[rows], self.points[flat])
            yield rows, frontier.position[flat], bounds[rows] - norm * metric >= 0.0
            start = stop
