"""Regularized Gaussian-process surrogate shared across several outputs.

All outputs are modeled with the same kernel and the same evaluation
inputs, so they share one Gram matrix, one Cholesky factor, and one
posterior standard deviation; only the posterior means differ.  Models
are persistent: appending an observation returns a new model and leaves
the old one untouched, so snapshots can be queried concurrently.

A model is bound to a fixed query grid and conditions on grid points,
named by index.  Consecutive observations of one grid point form a run,
and the model keeps one row per run: ``c`` Gaussian observations at one
input condition a GP exactly as one observation of their mean with
noise ``reg / c`` (Binois, Gramacy & Ludkovski, JCGS 2018).  So the
factored matrix is ``K + reg C^{-1}`` over the ``r <= t`` runs, ``C``
their counts, and the model carries ``P = L^{-1} K(X, grid)`` and
``z = L^{-1} ybar`` for its Cholesky factor ``L``, one row per run
(rank-1 bordering, Rasmussen & Williams 2006, Alg. 2.1).  For grid
point ``j`` the forward solve ``w = L^{-1} k(X, x_j)`` is column ``j``
of ``P``, so an append evaluates at most one kernel row, a new point's
``k(x_j, grid)``, and never forms ``L`` or its inverse.  The grid
posterior is carried too: the last rows ``z_r`` and ``p_r`` add
``z_r p_r`` to the means and take ``p_r^2`` off the variance.

An append that starts a run, a new point or a revisit of an earlier
run's point, borders a row: one ``O(r n)`` product, ``w P``.  A revisit
of a point last bordered at row ``s`` costs less: ``pivot_s p_s``
already is ``k(x_j, grid) - w_{<s} P_{<s}``, since the rows below ``s``
are shared, so the append subtracts only rows ``s .. r-1``, in
``O((r - s) n)``, and evaluates no kernel at all.  The new row keeps
what bordering it took that does not depend on its count: ``w w``,
``w z``, the residual ``rho = k(x_j, grid) - w P`` and the grid
posterior without the row.  An immediate repeat, which extends the
last run, rewrites the last row from those alone, in ``O(k n)``: the
pivot ``sqrt(k(a, a) + reg / c - w w)``, ``z_r`` from the new mean,
``p_r = rho / pivot`` and the posterior.  It evaluates no kernel, adds
no row to ``P`` and copies nothing of length ``t``.  A history with no
immediate repeat borders exactly as one row per observation would.

So the last row is held apart from the rest, which no append changes.
``P`` is held in fixed blocks of 64 rows.  Full blocks are shared along
a chain of appends and never written again; an append that starts a
run writes the previous last row into the last block, copying only that
partial block when a sibling has claimed the row, and an append that
fills a block starts a new one, copying nothing.  So memory peaks at
the live ``P`` plus one block, and ``w P`` is one matrix-vector product
per block, in block order.  The rows per run (grid index, count, mean
targets, ``z`` and the pivot, the diagonal of ``L`` kept for the
log-determinant) are one small read-only array, which an append that
starts a run copies into a new one a row longer, as it does the grid
posterior.  The observations themselves, one per append in time order,
are a linked log that an append extends in ``O(1)``; :attr:`indices`,
:attr:`inputs` and :attr:`targets` read it.  The Gram matrix is not
carried: the spectral ratio the loop reads is bounded through
``lam <= ||K||_F <= tr K = t k(a, a)``, which needs only ``t``.
"""

from __future__ import annotations

import math

import numpy as np

from .kernels import Kernel, pairwise
from .noise import _reject_bools, is_integer

__all__ = ["SurrogateModel"]

# Rows per block of the carried projection.
_GROWTH = 64


class SurrogateModel:
    """GP posterior state over ``n_outputs`` functions with shared variance.

    A new model holds no observations; :meth:`with_observation` grows it.

    Parameters
    ----------
    kernel : Kernel
        Covariance shared by every output.
    regularization : float
        Diagonal regularizer of the Gram matrix, in ``(0, 1]``.
    n_outputs : int
        Number of modeled functions.
    grid : ndarray
        ``(n, d)`` query points the model is bound to; :meth:`posterior`
        evaluates there from carried state.
    """

    def __init__(self, kernel: Kernel, regularization: float, n_outputs: int, grid: np.ndarray):
        _reject_bools(regularization=regularization)
        if not 0.0 < regularization <= 1.0:
            raise ValueError("regularization must lie in (0, 1]")
        if not is_integer(n_outputs):
            raise ValueError(f"n_outputs must be an integer, got {n_outputs!r}")
        if n_outputs < 1:
            raise ValueError("need at least one output")
        self.kernel = kernel
        self.regularization = float(regularization)
        self.n_outputs = int(n_outputs)
        self.grid = np.asarray(grid, dtype=float)
        if self.grid.ndim != 2:
            raise ValueError("grid must be an (n, d) array")

        self.t = 0
        k, n = self.n_outputs, self.grid.shape[0]
        # Observations, newest first: (older log, grid index, values) or None.
        self._log = None
        # One row per run but the last: [grid index | count | means | z | pivot],
        # pivots the diagonal of L.
        self._rows = _frozen(np.zeros((0, 2 * k + 3)))
        self._z_cols = slice(k + 2, 2 * k + 2)
        self._proj_blocks = _Blocks(n)
        # The last run's row, a tuple laid out as the rows, and its row of P;
        # None with no observations.
        self._last = self._last_p = None
        # What bordered the last row, whatever its count: the residual
        # rho = k(a, grid) - w P, w.w, w z, and the grid posterior without it.
        self._border = None
        # The grid posterior, shared with callers: never written in place.
        self._means = _frozen(np.zeros((self.n_outputs, n)))
        self._var = _frozen(np.full(n, float(kernel.output_scale)))

    def _observations(self) -> list:
        """``(grid index, values)`` per observation, oldest first."""
        out, node = [], self._log
        while node is not None:
            node, index, values = node
            out.append((index, values))
        out.reverse()
        return out

    @property
    def indices(self) -> np.ndarray:
        """``(t,)`` grid indices of the evaluated points, one per observation."""
        return np.array([index for index, _ in self._observations()], dtype=np.intp)

    @property
    def inputs(self) -> np.ndarray:
        """``(t, d)`` evaluated points, read-only."""
        return _frozen(self.grid[self.indices])

    @property
    def targets(self) -> np.ndarray:
        """``(n_outputs, t)`` observed values, read-only."""
        values = [values for _, values in self._observations()]
        return _frozen(np.array(values, dtype=float).reshape(self.t, self.n_outputs).T)

    def _run_rows(self) -> np.ndarray:
        """The ``(r, 2k+3)`` rows of every run, the last one included."""
        if self._last is None:
            return self._rows
        return np.vstack((self._rows, self._last))

    def with_observation(self, index: int, values: np.ndarray) -> "SurrogateModel":
        """New model with grid point ``index`` evaluated, one value per output.

        The observation is logged, and then one of two cases follows.
        An ``index`` equal to the last one extends the last run: its row
        takes count ``c + 1`` and the new mean target, and is rewritten
        from what bordering it kept, ``w w``, ``w z``, the residual
        ``rho`` and the grid posterior without the row, in ``O(k n)``.
        No kernel is evaluated and no row is added to ``P``.  Any other
        index starts a run of count 1.  It commits the last row to the
        carried rows and borders a new one with the forward solve, column
        ``index`` of ``P``, gathered from the blocks.  A new index
        evaluates one kernel row over the grid.  A revisited index starts
        from its last run's row and evaluates no kernel.  Either way the
        pivot is ``sqrt(k(a, a) + reg / c - w w)`` and the grid posterior
        is updated by the new last row.  The Gram matrix is not carried:
        :meth:`xi_trace` bounds the spectral ratio through
        ``lam <= ||K||_F <= tr K = t k(a, a)``, from ``t`` alone.  An
        index that is not an integer in ``[0, n)``, such as a bool, a
        float or a negative one, raises ``ValueError`` instead of
        wrapping around.  The committed row is written in place in the
        child's blocks: shared blocks are written where no other model
        reads the row; otherwise only the partial last block is copied
        first.
        """
        n, k = self.grid.shape[0], self.n_outputs
        if not is_integer(index) or not 0 <= index < n:
            raise ValueError(f"index must be a grid index in [0, {n}), got {index!r}")
        index = int(index)
        values = np.asarray(values, dtype=float).ravel()
        targets = values.tolist()
        if values.shape != (k,) or not all(map(math.isfinite, targets)):
            raise ValueError("targets must be finite, one per output")

        last = self._last
        child = object.__new__(type(self))
        child.__dict__ = self.__dict__.copy()
        child.t = self.t + 1
        child._log = (self._log, index, targets)
        # Per-output arithmetic is on Python floats, rounded as numpy's.
        if last is not None and last[0] == index:
            # An immediate repeat: the last run takes one more observation.
            count = last[1] + 1.0
            mean = [m + (y - m) / count for m, y in zip(last[2 : k + 2], targets)]
        else:
            count, mean = 1.0, targets
            child._border = self._bordered(child, index)
        rho, ww, wz, base_means, base_var = child._border
        # The bordered pivot equals posterior variance plus the run's
        # noise, so it stays strictly positive.
        noise = self.regularization / count
        pivot = math.sqrt(max(float(self.kernel.output_scale) + noise - ww, noise * 1e-12))
        z_row = [(m - c) / pivot for m, c in zip(mean, wz)]
        p_row = rho / pivot
        child._last, child._last_p = (index, count, *mean, *z_row, pivot), _frozen(p_row)
        # The grid-length rows are updated in place of temporaries.
        means = np.multiply.outer(z_row, p_row)
        means += base_means
        var = p_row * p_row
        np.subtract(base_var, var, out=var)
        child._means, child._var = _frozen(means), _frozen(var)
        return child

    def _bordered(self, child: "SurrogateModel", index: int) -> tuple:
        """Commit this model's last row into ``child`` and border a run at
        ``index`` on all ``r`` rows: ``(rho, w w, w z, means, var)``, the
        last two this model's grid posterior."""
        rows = self._rows
        if self._last is not None:
            r = rows.shape[0] + 1
            child._proj_blocks, slot = self._proj_blocks.extended(r - 1)
            slot[:] = self._last_p
            rows = np.empty((r, rows.shape[1]))
            rows[: r - 1] = self._rows
            rows[r - 1] = self._last
            child._rows = rows = _frozen(rows)
        r, blocks = rows.shape[0], child._proj_blocks.blocks
        # The forward solve w is column ``index`` of P, gathered from the
        # blocks into a contiguous buffer: BLAS sums a strided operand in
        # another order.
        w = np.empty(r)
        for start in range(0, r, _GROWTH):
            w[start : start + _GROWTH] = blocks[start // _GROWTH][: r - start, index]
        seen = (rows[:, 0] == index).nonzero()[0]
        if seen.size:
            # A revisit: row s, the point's last run, was bordered with
            # the same w below s, so pivot_s * P_s already is the kernel
            # row minus rows 0 .. s-1.
            s = int(seen[-1])
            rho = np.multiply(blocks[s // _GROWTH][s % _GROWTH], rows[s, -1])
        else:
            s = 0
            rho = pairwise(self.kernel, self.grid[index, None], self.grid)[0]
        for start in range(s - s % _GROWTH, r, _GROWTH):
            skip = max(s - start, 0)
            rho -= w[start + skip : start + _GROWTH] @ blocks[start // _GROWTH][skip : r - start]
        # z is strided too, and read through a contiguous copy.
        wz = w @ rows[:, self._z_cols].copy()
        return _frozen(rho), float(w @ w), wz.tolist(), self._means, self._var

    def posterior(self) -> tuple[np.ndarray, np.ndarray]:
        """Posterior means and shared standard deviation on the bound grid.

        Returns ``(means, std)`` with shapes ``(n_outputs, n)`` and
        ``(n,)``, read from the carried posterior; both are read-only.
        With no observations this is the prior: zero mean and
        ``sqrt(k(a, a))``.
        """
        std = np.maximum(self._var, 0.0)
        return self._means, _frozen(np.sqrt(std, out=std))

    def xi_lambda_max(self) -> float:
        """Largest eigenvalue of ``K (K + reg I)^{-1}``, exactly.

        Computed through the closed form ``lam / (lam + reg)`` where
        ``lam`` is the top eigenvalue of the Gram matrix; both matrices
        share eigenvectors, so the spectra map through that scalar
        function.  The Gram matrix is assembled from the evaluated
        points on each call and handed to a dense eigensolver, so this
        is for inspection; the loop reads :meth:`xi_trace`.
        Returns 0 with an empty history.
        """
        if self.t == 0:
            return 0.0
        inputs = self.inputs
        lam = float(np.linalg.eigvalsh(pairwise(self.kernel, inputs, inputs))[-1])
        return lam / (lam + self.regularization)

    def xi_trace(self) -> float:
        """Upper bound ``T / (T + reg)`` on :meth:`xi_lambda_max`, ``T = tr K``.

        For the positive semi-definite Gram matrix ``lam <= ||K||_F <=
        tr K = t k(a, a)``, and ``x / (x + reg)`` grows with ``x``, so
        this is at least the exact ratio.  Since ``lam`` is at least the
        diagonal ``k(a, a)``, the ratio of the two is at most
        ``1 + reg / k(a, a)``.  Written ``1 / (1 + reg / (t k(a, a)))``,
        in which every rounding is monotone in ``t``: the bound never
        decreases along appends, to the last bit.  Returns 0 with an
        empty history.
        """
        if self.t == 0:
            return 0.0
        return 1.0 / (1.0 + self.regularization / (self.t * float(self.kernel.output_scale)))

    def log_det_information_gain(self) -> float:
        """Half log-determinant of ``I + K / reg`` over all ``t`` observations,
        zero on empty history.

        With ``r`` runs of counts ``c``, ``det(K_t + reg I) = reg^(t - r)
        prod(c) det(K_r + reg C^{-1})``, and the last factor is the
        product of the squared pivots, so the gain is
        ``(sum log c + 2 sum log pivot - r log reg) / 2``.
        """
        rows = self._run_rows()
        log_det = 2.0 * float(np.log(rows[:, -1]).sum()) + float(np.log(rows[:, 1]).sum())
        return 0.5 * (log_det - rows.shape[0] * np.log(self.regularization))


def _frozen(array: np.ndarray) -> np.ndarray:
    array.setflags(write=False)
    return array


class _Blocks:
    """The leading rows of a ``(t, width)`` matrix in ``_GROWTH``-row blocks,
    shared along a chain of appends: the committed rows of the projection
    ``P``, the one carried array too large to copy per append.

    A model of ``t`` committed rows reads the first ``t`` rows of the
    first ``ceil(t / _GROWTH)`` blocks.  ``used`` counts the rows written
    so far.  Full blocks are never written again, so every model that
    reads one shares it.  A commit writes row ``t`` into the last block
    in place while ``used == t``, so no other model reads that row,
    copies only that partial block otherwise, and starts a new block,
    copying nothing, when the last one is full: no model ever sees its
    rows change (a persistent vector).
    """

    def __init__(self, width: int, blocks: tuple[np.ndarray, ...] = ()):
        self.width = width
        self.blocks = blocks
        self.used = 0

    def extended(self, t: int) -> tuple["_Blocks", np.ndarray]:
        """Blocks of which the first ``t`` rows are this chain's, and their
        row ``t``, claimed for the caller to write."""
        full, filled = divmod(t, _GROWTH)
        blocks = self
        if filled == 0:
            blocks = _Blocks(self.width, self.blocks[:full] + (np.zeros((_GROWTH, self.width)),))
        elif self.used > t:
            last = np.zeros((_GROWTH, self.width))
            last[:filled] = self.blocks[full][:filled]
            blocks = _Blocks(self.width, self.blocks[:full] + (last,))
        blocks.used = t + 1
        return blocks, blocks.blocks[full][filled]
