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
column ``j`` of ``P``, and the border ``k(X, x_j)`` is the new kernel
row ``k(x_j, grid)`` at the observed indices: an append evaluates one
kernel row and never forms ``L`` or its inverse.  The grid posterior is
carried too: the new rows ``z_t`` and ``p_t`` add ``z_t p_t`` to the
means and take ``p_t^2`` off the variance, so an append costs one
``O(t n)`` product, ``w P``, and reading the posterior ``O(k n)``.
``P`` is held in fixed blocks of 64 rows.  Full blocks are shared along
a chain of appends and never written again; an append writes its row
into the last block, copying only that partial block when a sibling has
claimed the row, and an append that fills a block starts a new one,
copying nothing.  So memory peaks at the live ``P`` plus one block, and
``w P`` is one matrix-vector product per block, in block order.  The
Gram matrix and one row per observation (grid index, targets, ``z`` and
the pivot, the diagonal of ``L`` kept for the log-determinant) hold
``O(t^2)`` floats, independent of the grid; they are shared the same
way in one buffer each, which an append that finds it full copies
into one with 64 more rows.
"""

from __future__ import annotations

import math

import numpy as np

from .kernels import Kernel, pairwise

__all__ = ["SurrogateModel"]

# Rows per block of the carried projection, and rows the other carried
# buffers grow by when an append finds them full.
_GROWTH = 64

# Power iteration stops once the Kato-Temple bound certifies the Rayleigh
# quotient to this relative accuracy.  A run that converges without a
# certifiable gap, or takes more steps than this, is settled by a dense
# eigensolver.
_POWER_RTOL = 1e-12
_POWER_MAX_ITERATIONS = 64

# A spectral gap below this share of the top eigenvalue is too small to
# trust a certificate built on it under roundoff.
_GAP_RTOL = 1e-8


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
        if not 0.0 < regularization <= 1.0:
            raise ValueError("regularization must lie in (0, 1]")
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
        self._obs_rows = _Rows(np.zeros((0, 2 * k + 2)))
        self._z_cols = slice(k + 1, 2 * k + 1)
        self._gram_rows = _Rows(np.zeros((0, 0)), square=True)
        self._gram_fro_sq = 0.0
        self._proj_blocks = _Blocks(n)
        # The grid posterior, shared with callers: never written in place.
        self._means = _frozen(np.zeros((self.n_outputs, n)))
        self._var = _frozen(np.full(n, float(kernel.output_scale)))

        # Top Gram eigenpair with its certified upper bound, computed on
        # first use; a start vector and second-eigenvalue bound handed
        # down by the parent model, if it computed its own, warm-start
        # that computation.
        self._eigen: tuple[float, np.ndarray, float] | None = None
        self._warm: tuple[np.ndarray | None, float] = (None, math.inf)

    @property
    def indices(self) -> np.ndarray:
        """``(t,)`` grid indices of the evaluated points."""
        return self._obs_rows.data[: self.t, 0].astype(np.intp)

    @property
    def inputs(self) -> np.ndarray:
        """``(t, d)`` evaluated points, read-only."""
        return _frozen(self.grid[self.indices])

    @property
    def targets(self) -> np.ndarray:
        """``(n_outputs, t)`` observed values, read-only."""
        return _frozen(self._obs_rows.data[: self.t, 1 : self.n_outputs + 1].T)

    def with_observation(self, index: int, values: np.ndarray) -> "SurrogateModel":
        """New model with grid point ``index`` evaluated, one value per output.

        The forward solve is column ``index`` of the carried projection
        and the Gram border is read off the one new kernel row; both
        extend the carried rows by a rank-1 border and update the grid
        posterior.  An index that is not an integer in ``[0, n)``, such
        as a bool, a float or a negative one, raises ``ValueError``
        instead of wrapping around.  Shared buffers are written in place
        where no other model reads the row, and copied otherwise.
        """
        n, integer = self.grid.shape[0], isinstance(index, (int, np.integer))
        if not integer or isinstance(index, bool) or not 0 <= index < n:
            raise ValueError(f"index must be a grid index in [0, {n}), got {index!r}")
        values = np.asarray(values, dtype=float).ravel()
        if values.shape != (self.n_outputs,) or not np.isfinite(values).all():
            raise ValueError("targets must be finite, one per output")

        t = self.t
        child = object.__new__(type(self))
        child.__dict__ = self.__dict__.copy()
        child.t = t + 1
        p_row = pairwise(self.kernel, self.grid[index, None], self.grid)[0]
        cross = p_row[self.indices]
        diag = float(self.kernel.output_scale)
        child._gram_rows = self._gram_rows.extended(t)
        gram = child._gram_rows.data
        gram[t, :t] = gram[:t, t] = cross
        gram[t, t] = diag
        child._gram_fro_sq = self._gram_fro_sq + 2.0 * float(cross @ cross) + diag * diag
        child._eigen, child._warm = None, (None, math.inf)
        if self._eigen is not None:
            # Cauchy interlacing: the child's second eigenvalue is at most
            # this model's top one.
            _, vec, upper = self._eigen
            child._warm = (np.concatenate((vec, [0.0])), upper * (1.0 + _POWER_RTOL))

        # The column and z are strided; the products read contiguous
        # copies, because BLAS sums a strided operand in another order.
        blocks = self._proj_blocks.blocks
        w = np.concatenate([block[:, index] for block in blocks])[:t] if t else np.zeros(0)
        # The bordered pivot equals posterior variance plus the
        # regularizer, so it stays strictly positive.
        pivot = math.sqrt(
            max(diag + self.regularization - float(w @ w), self.regularization * 1e-12)
        )
        z_row = (values - w @ self._obs_rows.data[:t, self._z_cols].copy()) / pivot
        child._obs_rows = self._obs_rows.extended(t)
        child._obs_rows.data[t] = (index, *values, *z_row, pivot)
        # The grid-length rows are updated in place of temporaries.
        for start, block in zip(range(0, t, _GROWTH), blocks):
            p_row -= w[start : start + _GROWTH] @ block[: t - start]
        p_row /= pivot
        child._proj_blocks = self._proj_blocks.extended(t, p_row)
        means = z_row[:, None] * p_row
        means += self._means
        child._means, child._var = _frozen(means), _frozen(self._var - p_row * p_row)
        return child

    def posterior(self) -> tuple[np.ndarray, np.ndarray]:
        """Posterior means and shared standard deviation on the bound grid.

        Returns ``(means, std)`` with shapes ``(n_outputs, n)`` and
        ``(n,)``, read from the carried posterior; both are read-only.
        With no observations this is the prior: zero mean and
        ``sqrt(k(a, a))``.
        """
        return self._means, _frozen(np.sqrt(np.maximum(self._var, 0.0)))

    def xi_lambda_max(self) -> float:
        """Largest eigenvalue of ``K (K + reg I)^{-1}``.

        Computed through the closed form ``lam / (lam + reg)`` where
        ``lam`` is the top eigenvalue of the Gram matrix; both matrices
        share eigenvectors, so the spectra map through that scalar
        function.  ``lam`` comes from power iteration, warm-started at
        the parent model's top eigenvector when the parent computed it.
        Returns 0 with an empty history.
        """
        if self.t == 0:
            return 0.0
        if self._eigen is None:
            gram = self._gram_rows.view(self.t)
            self._eigen = _top_eigenpair(gram, *self._warm, self._gram_fro_sq)
        lam = self._eigen[0]
        return lam / (lam + self.regularization)

    def log_det_information_gain(self) -> float:
        """Half log-determinant of ``I + K / reg``, zero on empty history."""
        # log det(K + reg I) from the factor's pivots, then rescale.
        log_det = 2.0 * float(np.log(self._obs_rows.data[: self.t, -1]).sum())
        return 0.5 * (log_det - self.t * np.log(self.regularization))


def _frozen(array: np.ndarray) -> np.ndarray:
    array.flags.writeable = False
    return array


class _Rows:
    """The leading rows of a buffer, shared along a chain of appends.

    A model of ``t`` observations reads ``data[:t]``, or ``data[:t, :t]``
    when the buffer is square.  ``used`` counts the rows written so far.
    An append writes row ``t`` in place while ``used == t`` and the buffer
    has room, so no other model reads that row, and otherwise into a fresh
    buffer with ``_GROWTH`` rows to spare: no model ever sees its rows
    change (a persistent vector).
    """

    def __init__(self, rows: np.ndarray, square: bool = False):
        self.square = square
        self.used = rows.shape[0]
        capacity = self.used + _GROWTH
        self.data = np.zeros((capacity, capacity if square else rows.shape[1]))
        self.data[: self.used, : rows.shape[1]] = rows

    def view(self, t: int) -> np.ndarray:
        return self.data[:t, :t] if self.square else self.data[:t]

    def extended(self, t: int) -> "_Rows":
        """Rows of which the first ``t`` are this buffer's and row ``t``,
        and column ``t`` of a square buffer, are the caller's to write."""
        rows = self
        if self.used > t or t == self.data.shape[0]:
            rows = _Rows(self.view(t), self.square)
        rows.used = t + 1
        return rows


class _Blocks:
    """The leading rows of a ``(t, width)`` matrix in ``_GROWTH``-row blocks,
    shared along a chain of appends.

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

    def extended(self, t: int, row: np.ndarray) -> "_Blocks":
        """Blocks of which the first ``t`` rows are this chain's and row
        ``t`` is ``row``."""
        full, filled = divmod(t, _GROWTH)
        blocks = self
        if filled == 0:
            blocks = _Blocks(self.width, self.blocks[:full] + (np.zeros((_GROWTH, self.width)),))
        elif self.used > t:
            last = np.zeros((_GROWTH, self.width))
            last[:filled] = self.blocks[full][:filled]
            blocks = _Blocks(self.width, self.blocks[:full] + (last,))
        blocks.blocks[full][filled] = row
        blocks.used = t + 1
        return blocks


def _top_eigenpair(
    matrix: np.ndarray,
    start: np.ndarray | None = None,
    second: float = math.inf,
    fro_sq: float | None = None,
) -> tuple[float, np.ndarray, float]:
    """Top eigenvalue, a unit eigenvector, and a certified upper bound.

    Power iteration from ``start`` (all-ones by default) until the
    Kato-Temple bound ``lam <= theta + |r|^2 / (theta - mu)`` pins the
    Rayleigh quotient ``theta`` to ``_POWER_RTOL``.  ``mu`` bounds the
    second eigenvalue: the smaller of ``second``, a bound the caller
    knows (by interlacing, say), and ``sqrt(||A||_F^2 - theta^2)``, which
    holds because ``theta`` never exceeds the top eigenvalue; a caller
    that carries ``||A||_F^2`` passes it as ``fro_sq``.  Without such a
    bound no start vector can rule out a larger eigenvalue it is blind
    to (a disjoint cluster of evaluations, say), so an uncertified run
    falls back to a dense eigensolver.
    """
    n = matrix.shape[0]
    vec = np.ones(n) if start is None else np.asarray(start, dtype=float)
    vec = vec / math.sqrt(vec @ vec)
    if fro_sq is None:
        fro_sq = float(np.einsum("ij,ij->", matrix, matrix))
    last = -math.inf
    for _ in range(_POWER_MAX_ITERATIONS):
        # A BLAS matrix-vector product, as in the append: BLAS hands each
        # entry to one thread, so the bits do not depend on the thread
        # count (criterion 11 compares runs under one and two threads).
        image = matrix @ vec
        lam = float(vec @ image)
        residual = image - lam * vec
        res_sq = float(residual @ residual)
        gap = lam - min(second, math.sqrt(max(fro_sq - lam * lam, 0.0)))
        if gap > _GAP_RTOL * lam:
            if res_sq <= _POWER_RTOL * lam * gap:
                return lam, vec, lam + res_sq / gap
        elif lam - last <= _POWER_RTOL * lam:
            break  # converged, but with no gap to certify it by
        norm = math.sqrt(image @ image)
        if norm == 0.0:
            return 0.0, vec, 0.0
        last = lam
        vec = image / norm
    values, vectors = np.linalg.eigh(matrix)
    return float(values[-1]), vectors[:, -1], float(values[-1])
