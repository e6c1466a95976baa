"""Kernels, the induced metric, and what it buys us.

The whole safety story rests on one inequality: a function with kernel
norm at most B cannot change between two points by more than
B * d(a, b), where d is the kernel metric.  This script pokes at the
kernel, the metric, and the Gram matrices everything else consumes.
"""

import numpy as np

from safebo import Domain, Kernel, gram, metric_matrix, pairwise

kernel = Kernel(family="matern32", lengthscale=0.1)

print("== kernel values ==")
print(f"k(a, a)              = {pairwise(kernel, [0.3], [0.3])[0, 0]:.6f}")
print(f"k at one lengthscale = {pairwise(kernel, [0.0], [0.1])[0, 0]:.6f}")
print(f"k at ten lengthscales= {pairwise(kernel, [0.0], [1.0])[0, 0]:.2e}")

print("\n== induced metric ==")
offsets = np.array([0.0, 0.01, 0.05, 0.1, 0.3, 1.0])
for r, d in zip(offsets, metric_matrix(kernel, [0.0], offsets[:, None])[0]):
    print(f"  d(0, {r:4.2f}) = {d:.4f}")
print("The metric saturates near sqrt(2) =", round(np.sqrt(2), 4),
      "once points decorrelate.")

print("\n== continuity margin in practice ==")
# A norm-1 function moving from a point with lower bound 0.5 can only
# fall below zero past metric distance 0.5; that radius is exactly what
# the optimizer certifies as safe around a trusted point.
domain = Domain.grid([(0.0, 1.0)], 101)
dists = metric_matrix(kernel, domain.points)
anchor = 50
radius = 0.5
certified = dists[anchor] <= radius
print(f"anchor x={domain.points[anchor, 0]:.2f}, lower bound {radius}:"
      f" {certified.sum()} of {domain.n_points} grid points certified")

print("\n== Gram matrices stay positive semi-definite ==")
rng = np.random.default_rng(0)
for trial in range(3):
    pts = rng.uniform(0, 1, size=(8, 2))
    g = gram(kernel, pts)
    np.linalg.cholesky(g + 1e-10 * np.eye(8))
    eigs = np.linalg.eigvalsh(g)
    print(f"  trial {trial}: eigenvalues in [{eigs.min():.2e}, {eigs.max():.3f}]")
print("Cholesky succeeded with the standard 1e-10 jitter each time.")
