"""The shared-variance GP surrogate behind the confidence intervals.

One kernel and one evaluation history serve every output: means differ,
the posterior standard deviation is shared.  The script also tracks the
spectral ratio lam_max(K) / (lam_max(K) + reg), the quantity that scales
the accumulated noise bounds inside the paper's safety multiplier.  The
loop reads its upper bound F / (F + reg) with F = ||K||_F instead.
"""

import numpy as np

from safebo import Kernel, SurrogateModel

kernel = Kernel(lengthscale=0.1)
# A model is bound to the grid it is queried on and conditions on grid
# points by index; x = 0.5 is grid point 5.
grid = np.linspace(0, 1, 11)[:, None]
model = SurrogateModel(kernel, regularization=0.01, n_outputs=2, grid=grid)
rng = np.random.default_rng(3)

truth = lambda x: np.array([np.sin(8 * x), np.cos(5 * x)])

print("t | sigma(0.50) | mean0(0.50) | spectral ratio | info gain")
print("--+-------------+-------------+----------------+----------")
for t in range(13):
    means, std = model.posterior()
    print(f"{t:2d}|   {std[5]:9.4f} | {means[0, 5]:11.4f} | {model.xi_lambda_max():14.6f}"
          f" | {model.log_det_information_gain():8.3f}")
    j = int(rng.integers(3, 8))  # x in 0.3 .. 0.7
    y = truth(grid[j, 0]) + rng.normal(0, 1e-2, size=2)
    model = model.with_observation(j, y)

print()
print("sigma falls monotonically at every grid point as data arrive, the")
print("spectral ratio only grows, and both outputs share the same sigma:")

means, std = model.posterior()
for x, m0, m1, s in zip(grid[:, 0], means[0], means[1], std):
    bar = "#" * int(40 * s)
    print(f"  x={x:.1f}  mean0={m0:+.3f}  mean1={m1:+.3f}  sigma={s:.3f} {bar}")

print()
print("Appending returns a new model; the old snapshot is untouched:")
before = model.t
bigger = model.with_observation(9, truth(grid[9, 0]))
print(f"  old t={before} (still {model.t} after append), new t={bigger.t}")
