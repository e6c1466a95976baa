"""Regularized Gaussian-process surrogate shared across several outputs.

All outputs are modeled with the same kernel and the same evaluation
inputs, so they share one Gram matrix, one Cholesky factor, and one
posterior standard deviation; only the posterior means differ.  Models
are persistent: appending an observation returns a new model and leaves
the old one untouched, so snapshots can be queried concurrently.

A model is bound to a fixed query grid.  It carries the projection
``P = L^{-1} K(X, grid)`` and ``z = L^{-1} y`` of its Cholesky factor
``L``; an append adds one row to each (rank-1 bordering, Rasmussen &
Williams 2006, Alg. 2.1), so the grid posterior costs ``O(t n)`` per
step instead of a triangular solve against the grid.
"""

from __future__ import annotations

import copy
import math

import numpy as np
from scipy.linalg import cholesky, solve_triangular

from .kernels import Kernel, pairwise

__all__ = ["SurrogateModel"]

# Full refactorization cadence for the incrementally updated Cholesky
# factor and grid projection, bounding accumulated drift on long runs.
_REFACTOR_EVERY = 64

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

        self.inputs = np.zeros((0, self.grid.shape[1]))
        self.targets = np.zeros((self.n_outputs, 0))
        self._gram = self._chol = np.zeros((0, 0))
        self._z = np.zeros((0, self.n_outputs))
        self._proj = np.zeros((0, self.grid.shape[0]))
        self._appends = 0

        # Top Gram eigenpair with its certified upper bound, computed on
        # first use; a start vector and second-eigenvalue bound handed
        # down by the parent model warm-start that computation.
        self._eigen: tuple[float, np.ndarray, float] | None = None
        self._warm: tuple[np.ndarray, float] | None = None

    @property
    def t(self) -> int:
        """Number of stored observations."""
        return self.inputs.shape[0]

    def _refactor(self) -> None:
        """Factorize the Gram matrix from scratch and recompute the carried solves."""
        self._appends = 0
        shifted = self._gram + self.regularization * np.eye(self.t)
        self._chol = cholesky(shifted, lower=True)
        self._z = solve_triangular(self._chol, self.targets.T, lower=True)
        cross = pairwise(self.kernel, self.inputs, self.grid)
        self._proj = solve_triangular(self._chol, cross, lower=True)

    def with_observation(self, point: np.ndarray, values: np.ndarray) -> "SurrogateModel":
        """New model with one more evaluation appended.

        ``values`` holds one observation per output.  The cached Cholesky
        factor is extended by a rank-1 border, and the carried solves
        by the matching row; the first observation and every 64th
        append after it factorize from scratch instead, which bounds
        numerical drift.
        """
        point = np.asarray(point, dtype=float).ravel()
        values = np.asarray(values, dtype=float).ravel()
        if values.shape != (self.n_outputs,):
            raise ValueError("one observed value per output required")
        if not np.all(np.isfinite(values)):
            raise ValueError("targets must be finite")
        if point.shape != (self.grid.shape[1],):
            raise ValueError("point dimension does not match the grid")

        t = self.t
        child = copy.copy(self)
        child.inputs = np.vstack([self.inputs, point[None, :]])
        child.targets = np.hstack([self.targets, values[:, None]])
        cross = pairwise(self.kernel, child.inputs[:t], point[None, :])[:, 0]
        diag = float(self.kernel.output_scale)
        child._gram = np.zeros((t + 1, t + 1))
        child._gram[:t, :t] = self._gram
        child._gram[:t, t] = cross
        child._gram[t, :t] = cross
        child._gram[t, t] = diag
        child._eigen = child._warm = None
        if self._eigen is not None:
            # Cauchy interlacing: the child's second eigenvalue is at most
            # this model's top one.
            _, vec, upper = self._eigen
            child._warm = (np.append(vec, 0.0), upper * (1.0 + _POWER_RTOL))

        child._appends = self._appends + 1
        if t == 0 or child._appends >= _REFACTOR_EVERY:
            child._refactor()
            return child
        w = solve_triangular(self._chol, cross, lower=True)
        # The bordered pivot equals posterior variance plus the
        # regularizer, so it stays strictly positive.
        pivot = np.sqrt(
            max(diag + self.regularization - float(w @ w), self.regularization * 1e-12)
        )
        child._chol = np.zeros((t + 1, t + 1))
        child._chol[:t, :t] = self._chol
        child._chol[t, :t] = w
        child._chol[t, t] = pivot
        child._z = np.vstack([self._z, ((values - w @ self._z) / pivot)[None, :]])
        row = pairwise(self.kernel, point[None, :], self.grid)[0]
        child._proj = np.vstack([self._proj, ((row - w @ self._proj) / pivot)[None, :]])
        return child

    def posterior(self) -> tuple[np.ndarray, np.ndarray]:
        """Posterior means and shared standard deviation on the bound grid.

        Returns ``(means, std)`` with shapes ``(n_outputs, n)`` and
        ``(n,)``, read from the carried projection.  With no
        observations this is the prior: zero mean and ``sqrt(k(a, a))``.
        """
        means = self._z.T @ self._proj  # (n_outputs, n)
        var = float(self.kernel.output_scale) - np.einsum("ij,ij->j", self._proj, self._proj)
        return means, np.sqrt(np.maximum(var, 0.0))

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
            start, second = self._warm if self._warm is not None else (None, math.inf)
            self._eigen = _top_eigenpair(self._gram, start, second)
            self._warm = None
        lam = self._eigen[0]
        return lam / (lam + self.regularization)

    def log_det_information_gain(self) -> float:
        """Half log-determinant of ``I + K / reg``, zero on empty history."""
        # log det(K + reg I) through the cached factor, then rescale.
        log_det = 2.0 * float(np.sum(np.log(np.diag(self._chol))))
        return 0.5 * (log_det - self.t * np.log(self.regularization))


def _top_eigenpair(
    matrix: np.ndarray, start: np.ndarray | None = None, second: float = math.inf
) -> tuple[float, np.ndarray, float]:
    """Top eigenvalue, a unit eigenvector, and a certified upper bound.

    Power iteration from ``start`` (all-ones by default) until the
    Kato-Temple bound ``lam <= theta + |r|^2 / (theta - mu)`` pins the
    Rayleigh quotient ``theta`` to ``_POWER_RTOL``.  ``mu`` bounds the
    second eigenvalue: the smaller of ``second``, a bound the caller
    knows (by interlacing, say), and ``sqrt(||A||_F^2 - theta^2)``, which
    holds because ``theta`` never exceeds the top eigenvalue.  Without
    such a bound no start vector
    can rule out a larger eigenvalue it is blind to (a disjoint cluster
    of evaluations, say), so an uncertified run falls back to a dense
    eigensolver.
    """
    n = matrix.shape[0]
    vec = np.ones(n) if start is None else np.asarray(start, dtype=float)
    vec = vec / np.linalg.norm(vec)
    # einsum keeps these small products off threaded BLAS, whose thread
    # wake-ups cost more than the arithmetic at the sizes a run reaches.
    fro_sq = float(np.einsum("ij,ij->", matrix, matrix))
    last = -math.inf
    for _ in range(_POWER_MAX_ITERATIONS):
        image = np.einsum("ij,j->i", matrix, vec)
        lam = float(vec @ image)
        residual = image - lam * vec
        res_sq = float(residual @ residual)
        gap = lam - min(second, math.sqrt(max(fro_sq - lam * lam, 0.0)))
        if gap > _GAP_RTOL * lam:
            if res_sq <= _POWER_RTOL * lam * gap:
                return lam, vec, lam + res_sq / gap
        elif lam - last <= _POWER_RTOL * lam:
            break  # converged, but with no gap to certify it by
        norm = float(np.linalg.norm(image))
        if norm == 0.0:
            return 0.0, vec, 0.0
        last = lam
        vec = image / norm
    values, vectors = np.linalg.eigh(matrix)
    return float(values[-1]), vectors[:, -1], float(values[-1])
