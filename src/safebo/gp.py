"""Regularized Gaussian-process surrogate shared across several outputs.

All outputs are modeled with the same kernel and the same evaluation
inputs, so they share one Gram matrix, one Cholesky factor, and one
posterior standard deviation; only the posterior means differ.  Models
are persistent: appending an observation returns a new model and leaves
the old one untouched, so snapshots can be queried concurrently.

A model is bound to a fixed query grid and conditions on grid points,
named by index.  It carries ``P = L^{-1} K(X, grid)`` and
``z = L^{-1} y`` for its Cholesky factor ``L`` and adds one row to each
per append (rank-1 bordering, Rasmussen & Williams 2006, Alg. 2.1).
For grid point ``j`` the forward solve ``w = L^{-1} k(X, x_j)`` is
column ``j`` of ``P``, and for a new point the border ``k(X, x_j)`` is
the new kernel row ``k(x_j, grid)`` at the observed indices: an append
evaluates at most one kernel row and never forms ``L`` or its inverse.  The grid posterior is
carried too: the new rows ``z_t`` and ``p_t`` add ``z_t p_t`` to the
means and take ``p_t^2`` off the variance, so an append costs one
``O(t n)`` product, ``w P``, and reading the posterior ``O(k n)``.  A
revisit of a point last evaluated at row ``s`` costs less: ``pivot_s
p_s`` already is ``k(x_j, grid) - w_{<s} P_{<s}``, since the rows below
``s`` are shared, so the append subtracts only rows ``s .. t-1``, in
``O((t - s) n)``.  Its border ``k(x_j, X)`` is row ``s``'s border, then
``k(x_j, x_j)``, then the kernel at the ``t - s - 1`` points observed
since: an immediate repeat evaluates no kernel at all.
``P`` is held in fixed blocks of 64 rows.  Full blocks are shared along
a chain of appends and never written again; an append writes its row
into the last block, copying only that partial block when a sibling has
claimed the row, and an append that fills a block starts a new one,
copying nothing.  So memory peaks at the live ``P`` plus one block, and
``w P`` is one matrix-vector product per block, in block order.  The
rows per observation (grid index, targets, ``z`` and the pivot, the
diagonal of ``L`` kept for the log-determinant) are one small read-only
array, which an append copies into a new one a row longer, as it does
the grid posterior; a chain of retained models holds one such array
each.  The Gram matrix is carried as its borders, row ``r``'s
``k(x_r, X_{<r})`` one read-only array per row, shared along a chain as
the full blocks of ``P`` are: ``t (t - 1) / 2`` floats.  Each border
updates the squared Frobenius norm, which bounds the spectral ratio the
loop reads.  A model also keeps column ``j`` of ``P`` for its last
point ``j``, ``t`` floats, so an immediate repeat reads ``w``
without gathering it across the blocks.
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
        # One row per observation: [grid index | values | z | pivot], pivots the diagonal of L.
        self._obs = _frozen(np.zeros((0, 2 * k + 2)))
        self._z_cols = slice(k + 1, 2 * k + 1)
        # Row r's Gram border k(x_r, X_{<r}), one read-only array per row.
        self._borders: tuple[np.ndarray, ...] = ()
        self._gram_fro_sq = 0.0
        self._proj_blocks = _Blocks(n)
        # Column j of P for the last observed point j.
        self._last_column = _frozen(np.zeros(0))
        # The grid posterior, shared with callers: never written in place.
        self._means = _frozen(np.zeros((self.n_outputs, n)))
        self._var = _frozen(np.full(n, float(kernel.output_scale)))

    @property
    def indices(self) -> np.ndarray:
        """``(t,)`` grid indices of the evaluated points."""
        return self._obs[:, 0].astype(np.intp)

    @property
    def inputs(self) -> np.ndarray:
        """``(t, d)`` evaluated points, read-only."""
        return _frozen(self.grid[self.indices])

    @property
    def targets(self) -> np.ndarray:
        """``(n_outputs, t)`` observed values, read-only."""
        return self._obs[:, 1 : self.n_outputs + 1].T

    def with_observation(self, index: int, values: np.ndarray) -> "SurrogateModel":
        """New model with grid point ``index`` evaluated, one value per output.

        The forward solve is column ``index`` of the carried projection
        and the Gram border is read off the one new kernel row; both
        extend the carried rows by a rank-1 border and update the grid
        posterior, and the border adds ``2 |border|^2 + k(a, a)^2`` to
        the carried squared Frobenius norm.  A revisited index starts
        from its last projection row and that row's border, and
        evaluates the kernel only at the points observed since; an
        immediate repeat copies its forward solve from the column this
        model kept for its last point.  An index that is not an integer
        in ``[0, n)``, such as a bool, a float or a negative one, raises
        ``ValueError`` instead of wrapping around.  The new projection
        row is computed in place in the child's blocks: shared blocks
        are written where no other model reads the row; otherwise only
        the partial last block is copied first.
        """
        n, k = self.grid.shape[0], self.n_outputs
        if not is_integer(index) or not 0 <= index < n:
            raise ValueError(f"index must be a grid index in [0, {n}), got {index!r}")
        values = np.asarray(values, dtype=float).ravel()
        if values.shape != (k,) or np.count_nonzero(np.isfinite(values)) != k:
            raise ValueError("targets must be finite, one per output")

        t, rows = self.t, self._obs
        child = object.__new__(type(self))
        child.__dict__ = self.__dict__.copy()
        child.t = t + 1
        blocks = self._proj_blocks.blocks
        # Row t of P is computed in place, in the child's blocks.
        child._proj_blocks, p_row = self._proj_blocks.extended(t)
        diag = float(self.kernel.output_scale)
        # The forward solve w is column ``index`` of P, in a buffer one
        # longer that the child keeps as its last point's column.  An
        # immediate repeat, read off the last row, copies the column this
        # model kept; another index scans the rows and gathers it from
        # the blocks.  Contiguous either way: BLAS sums a strided operand
        # in another order.
        column = np.empty(t + 1)
        w = column[:t]
        if t and rows[-1, 0] == index:
            s = t - 1
            w[:] = self._last_column
        else:
            seen = (rows[:, 0] == index).nonzero()[0]
            s = int(seen[-1]) if seen.size else -1
            for start in range(0, t, _GROWTH):
                w[start : start + _GROWTH] = blocks[start // _GROWTH][: t - start, index]
        cross = np.empty(t)
        if s >= 0:
            # A revisit: row s, the point's last one, was bordered with
            # the same w below s, so pivot_s * P_s already is the kernel
            # row minus rows 0 .. s-1.  Its border is row s's, then
            # k(a, a), then the kernel at the points observed since: each
            # entry has the bits of pairwise's row over all t, whose
            # diagonal entry is output_scale.
            cross[:s] = self._borders[s]
            cross[s] = diag
            if s + 1 < t:
                since = rows[s + 1 :, 0].astype(np.intp)
                cross[s + 1 :] = pairwise(self.kernel, self.grid[index, None], self.grid[since])[0]
            np.multiply(blocks[s // _GROWTH][s % _GROWTH], rows[s, -1], out=p_row)
        else:
            s = 0
            p_row[:] = pairwise(self.kernel, self.grid[index, None], self.grid)[0]
            p_row.take(rows[:, 0].astype(np.intp), out=cross)
        child._borders = self._borders + (_frozen(cross),)
        child._gram_fro_sq = self._gram_fro_sq + 2.0 * float(cross @ cross) + diag * diag

        # The bordered pivot equals posterior variance plus the
        # regularizer, so it stays strictly positive.
        pivot = math.sqrt(
            max(diag + self.regularization - float(w @ w), self.regularization * 1e-12)
        )
        obs = np.empty((t + 1, 2 * k + 2))
        obs[:t] = rows
        new = obs[t]
        new[0], new[-1] = index, pivot
        new[1 : k + 1] = values
        z_row = new[self._z_cols]
        # z is strided too, and read through a contiguous copy.
        np.subtract(values, w @ rows[:, self._z_cols].copy(), out=z_row)
        z_row /= pivot
        child._obs = _frozen(obs)
        # The grid-length rows are updated in place of temporaries.
        for start in range(s - s % _GROWTH, t, _GROWTH):
            skip = max(s - start, 0)
            p_row -= w[start + skip : start + _GROWTH] @ blocks[start // _GROWTH][skip : t - start]
        p_row /= pivot
        column[t] = p_row[index]
        child._last_column = _frozen(column)
        means = z_row[:, None] * p_row
        means += self._means
        var = p_row * p_row
        np.subtract(self._var, var, out=var)
        child._means, child._var = _frozen(means), _frozen(var)
        return child

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
        is for inspection; the loop reads :meth:`xi_frobenius`.
        Returns 0 with an empty history.
        """
        if self.t == 0:
            return 0.0
        inputs = self.inputs
        lam = float(np.linalg.eigvalsh(pairwise(self.kernel, inputs, inputs))[-1])
        return lam / (lam + self.regularization)

    def xi_frobenius(self) -> float:
        """Upper bound ``F / (F + reg)`` on :meth:`xi_lambda_max`, ``F = ||K||_F``.

        ``lam <= ||K||_2 <= ||K||_F`` (Horn & Johnson, *Matrix Analysis*,
        5.6) and ``x / (x + reg)`` grows with ``x``, so this is at least
        the exact ratio.  Since ``lam`` is at least the diagonal
        ``k(a, a)``, the ratio of the two is at most ``1 + reg / k(a, a)``.
        Read from the carried ``||K||_F^2``, which no append decreases,
        and written ``1 / (1 + reg / F)``, in which every rounding is
        monotone in ``F``: the bound never decreases along appends, to
        the last bit.  Returns 0 with an empty history.
        """
        if self.t == 0:
            return 0.0
        return 1.0 / (1.0 + self.regularization / math.sqrt(self._gram_fro_sq))

    def log_det_information_gain(self) -> float:
        """Half log-determinant of ``I + K / reg``, zero on empty history."""
        # log det(K + reg I) from the factor's pivots, then rescale.
        log_det = 2.0 * float(np.log(self._obs[:, -1]).sum())
        return 0.5 * (log_det - self.t * np.log(self.regularization))


def _frozen(array: np.ndarray) -> np.ndarray:
    array.setflags(write=False)
    return array


class _Blocks:
    """The leading rows of a ``(t, width)`` matrix in ``_GROWTH``-row blocks,
    shared along a chain of appends: the projection ``P``, the one carried
    array too large to copy per append.

    A model of ``t`` observations reads the first ``t`` rows of the first
    ``ceil(t / _GROWTH)`` blocks.  ``used`` counts the rows written so
    far.  Full blocks are never written again, so every model that reads
    one shares it.  An append writes row ``t`` into the last block in
    place while ``used == t``, so no other model reads that row, copies
    only that partial block otherwise, and starts a new block, copying
    nothing, when the last one is full: no model ever sees its rows
    change (a persistent vector).
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
