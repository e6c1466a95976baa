"""Which grid points a bound at a point can reach under the kernel metric.

The set rules compare a bound ``b`` at a point ``s`` against
``L * d(s, j)`` for points ``j`` outside a mask: ``s`` reaches ``j`` when
``b - L * d(s, j) >= 0``.  For a stationary kernel ``d`` grows with the
Euclidean distance, so a bound can only reach points inside a ball, and
a point whose bound does not reach the nearest outside point reaches
none.  :class:`GridIndex` decides both questions the set rules ask, which
outside points some anchor covers and which anchors reach some outside
point, on the lattice of a :class:`~safebo.domain.Domain` without the
dense ``n x n`` metric:

* a :class:`Frontier` per mask holds the mask, and for every inside
  point the metric to a Euclidean-nearest outside point.  Its arrays,
  like every answer of the index, are indexed by grid point.  The nearest
  outside point comes from an exact separable Euclidean distance
  transform on the lattice (Maurer et al., IEEE PAMI 2003): one pass
  per axis, with the axes' own coordinates, so the lattice need not be
  uniform.  Safe sets only grow, so every frontier is grown from a
  subset's: only the last-axis lines that hold an absorbed point are
  scanned again, and only the stale points, those absorbed and those
  whose recorded nearest outside point was absorbed, take the first
  axis's pass and get a new metric.  Every other inside point keeps its
  nearest point, which is still outside and, since the outside only
  shrank, still a Euclidean-nearest one;
* an anchor whose bound reaches the metric to its nearest outside point
  reaches, one whose squared reach, ``(b / L)**2`` widened by a margin,
  falls short of that metric squared reaches nothing, and only the band
  between the two goes to a ball query: the anchors enumerate the
  lattice box around them whose half-width inverts the kernel profile
  at the reach, and every outside point of the box inside the ball is
  decided by the dense expression.

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

# Margins on the squared reach, relative and in units of 2 * output_scale.
# A computed squared metric is off by less than 1e-14 in either unit, and
# the metric to the nearest outside point is at most the metric to any,
# so a reach widened by these margins holds every outside point it reaches.
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
    """One mask, as the set rules query it; every array is per grid index.

    ``mask`` is a private copy of the inside points.  ``near`` is
    meaningful on the mask only: the exact metric to a Euclidean-nearest
    outside point.  A full mask has no outside point, so ``near`` is
    ``+inf`` there and no bound reaches.
    """

    mask: np.ndarray
    near: np.ndarray


class GridIndex:
    """A domain's lattice under one kernel, with the frontier of the last mask.

    The loop asks for each safe set twice, and each new safe set adds
    points to the last.  So an equal mask returns the kept frontier, a
    mask that only adds points grows it, and any other mask grows from
    the mask with no point inside: there every point is outside and its
    own nearest outside point, so every line holding a point of the mask
    is scanned and every point of it is stale.
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
        # The last axis's coordinates, then +inf and -inf: a scan's index ``m``
        # (no outside point after) and ``-1`` (none before) read as infinitely far.
        self._ends = np.concatenate((self.axes[-1], [np.inf, -np.inf]))
        self._frontier: Frontier | None = None

    def frontier(self, mask: np.ndarray) -> Frontier:
        """The frontier of ``mask``, grown from the kept one or from the empty mask's.

        ``mask`` must be a bool array with one entry per grid point.
        """
        n = self.points.shape[0]
        if mask.shape != (n,) or mask.dtype != bool:
            raise ValueError(f"mask must be bool of shape ({n},), got {mask.dtype} {mask.shape}")
        # Out while it changes: a growth that raises leaves nothing to grow from.
        kept, self._frontier = self._frontier, None
        if kept is None or np.count_nonzero(kept.mask & ~mask):
            kept = self._empty(n)
        absorbed = mask ^ kept.mask
        if np.count_nonzero(absorbed):
            kept = self._grow(absorbed, mask, kept.near)
        self._frontier = kept
        return kept

    def _empty(self, n: int) -> Frontier:
        """The empty mask's frontier; resets the scan kept with the frontier.

        Per grid index: the squared distance to, and the grid index of, the nearest
        outside point of its last-axis line, and its nearest outside point.
        """
        self._line_sq = np.zeros(n)
        self._line_arg = np.arange(n)
        self._nearest = np.arange(n)
        return Frontier(np.zeros(n, dtype=bool), np.zeros(n))

    def _grow(self, absorbed: np.ndarray, mask: np.ndarray, near: np.ndarray) -> Frontier:
        """The frontier of ``mask`` from ``near`` of ``mask`` less ``absorbed``."""
        if mask.all():
            return Frontier(mask.copy(), np.full(mask.shape[0], np.inf))
        self._scan_lines(absorbed, mask)
        stale = absorbed[self._nearest].nonzero()[0]
        nearest = self._nearest_outside(stale)
        self._nearest[stale] = nearest
        near = near.copy()
        near[stale] = paired_metric(self.kernel, self.points[stale], self.points[nearest])
        return Frontier(mask.copy(), near)

    def _scan_lines(self, absorbed: np.ndarray, mask: np.ndarray) -> None:
        """Scan again the last-axis lines that hold an absorbed point.

        Along a line, the nearest outside point lies at the last outside
        index before or the first after.  The other lines keep their scan.
        """
        coords = self.axes[-1]
        m = coords.size
        rows = np.logical_or.reduce(absorbed.reshape(-1, m), axis=1).nonzero()[0]
        out = ~mask.reshape(-1, m)[rows]
        idx = np.arange(m)
        left = np.maximum.accumulate(np.where(out, idx, -1), axis=-1)
        right = np.minimum.accumulate(np.where(out, idx, m)[..., ::-1], axis=-1)[..., ::-1]
        to_left = (coords - self._ends[left]) ** 2
        to_right = (self._ends[right] - coords) ** 2
        take_right = to_right < to_left
        sq = np.where(take_right, to_right, to_left)
        arg = np.where(take_right, right, left) + m * rows[:, None]
        self._line_sq.reshape(-1, m)[rows] = sq
        self._line_arg.reshape(-1, m)[rows] = arg

    def _nearest_outside(self, stale: np.ndarray) -> np.ndarray:
        """Per index in ``stale``, the grid index of a Euclidean-nearest outside point.

        The squared distance to the nearest outside point is separable
        over the axes.  From the last-axis scan, each earlier axis takes
        the minimum of ``(c_i - c_j)**2 + g_j`` over the line through a
        point, carrying the argmin.  The middle axes' passes run at every
        point; the first axis, the last pass, runs at ``stale`` only.
        """
        sq, arg = self._line_sq, self._line_arg
        if len(self.shape) == 1:
            return arg[stale]
        for k in range(len(self.shape) - 2, 0, -1):
            sq, arg = self._axis_min(sq, arg, k, np.arange(sq.size))
        return self._axis_min(sq, arg, 0, stale)[1]

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

    def _reach(self, bounds: np.ndarray, norm: float) -> np.ndarray:
        """Per bound, a squared metric at or above each computed ``d**2`` it reaches."""
        scale = 2.0 * self.kernel.output_scale
        # A bound near the largest float overflows to an infinite reach.
        with np.errstate(over="ignore"):
            return (np.maximum(bounds, 0.0) / norm) ** 2 * (1.0 + _REL_SLACK) + _ABS_SLACK * scale

    def covered(
        self, frontier: Frontier, anchors: np.ndarray, bounds: np.ndarray, norm: float
    ) -> np.ndarray:
        """Per grid point: is it outside, with some anchor ``a`` at ``bounds[a] - norm * d >= 0``?

        The answer is False at every point of the frontier's mask.
        """
        hit = np.zeros(frontier.mask.shape[0], dtype=bool)
        reach = self._reach(bounds, norm)
        # An infinite reach against a full mask's infinite near is nan: not kept.
        with np.errstate(invalid="ignore"):
            keep = reach - frontier.near[anchors] ** 2 >= 0.0
        if keep.any():
            for _, j, ok in self._pairs(frontier, anchors[keep], bounds[keep], norm, reach[keep]):
                hit[j[ok]] = True
        return hit

    def reaches(
        self, frontier: Frontier, anchors: np.ndarray, bounds: np.ndarray, norm: float
    ) -> np.ndarray:
        """Per anchor: is ``bounds[a] - norm * d >= 0`` for some outside point?

        An anchor with ``bounds[a] - norm * near[a] >= 0`` does: that is
        the dense expression at an outside point.  One whose reach falls
        short of ``near[a] ** 2`` does not.  Only the band between them
        goes to the ball query.  On a full mask, whose ``near`` is
        infinite, no anchor reaches, an infinite bound included.
        """
        reach = self._reach(bounds, norm)
        with np.errstate(invalid="ignore"):
            found = bounds - norm * frontier.near[anchors] >= 0.0
            band = (~found & (reach - frontier.near[anchors] ** 2 >= 0.0)).nonzero()[0]
        if band.size:
            for rows, cols, ok in self._pairs(
                frontier, anchors[band], bounds[band], norm, reach[band]
            ):
                found[band[rows[ok]]] = True
        return found

    def _pairs(
        self,
        frontier: Frontier,
        anchors: np.ndarray,
        bounds: np.ndarray,
        norm: float,
        reach: np.ndarray,
    ):
        """Chunks of ``(anchor rows, grid indices, reached)`` in reach.

        The ball around each anchor has the Euclidean radius where the
        metric reaches ``sqrt(reach)``, widened outward.  Its bounding
        box on the lattice is found per axis by bisecting the axis
        coordinates; the box's points outside the frontier's mask and
        inside the ball are evaluated with the dense expression.
        """
        radii = self.kernel.radius(np.sqrt(reach)) * (1.0 + _RADIUS_WIDEN)
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
            keep = ~frontier.mask[flat]
            rows, flat = rows[keep], flat[keep]
            diff = centers[rows] - self.points[flat]
            squares = diff * diff
            keep = squares.sum(axis=1) <= radii[rows] ** 2
            rows, flat = rows[keep], flat[keep]
            metric = paired_metric(self.kernel, centers[rows], self.points[flat])
            yield rows, flat, bounds[rows] - norm * metric >= 0.0
            start = stop
