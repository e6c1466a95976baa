"""Intersected confidence intervals and the safety multiplier.

Each iteration contributes a band mean +- beta * sigma; the running
interval is the intersection of everything seen so far, so it can only
shrink.  Before any data the interval is the whole line, (-inf, +inf).
The multiplier beta pays for the noise through the accumulated
scenario bounds and for model complexity through the kernel norm.
"""

import numpy as np

from safebo import (
    ConfidenceState,
    Kernel,
    ScenarioSchedule,
    SurrogateModel,
    beta_from_squares,
    scenario_bound,
    uniform,
    update_intervals,
)

kernel = Kernel(lengthscale=0.1)
reg = 0.01
grid = np.linspace(0, 1, 9)[:, None]
model = SurrogateModel(kernel, reg, 1, grid=grid)
noise = uniform(-1e-3, 1e-3)
schedule = ScenarioSchedule(0.1, 1e-3, 1)
rng = np.random.default_rng(11)

state = ConfidenceState.unbounded(1, len(grid))
truth = lambda x: 0.4 * np.sin(6 * x)

bound_sq_sum = 0.0  # squared noise bounds, accumulated as the loop does
print("t | beta    | width at x=0.5 | interval at x=0.5")
for t in range(1, 9):
    means, std = model.posterior()
    betas = np.array([beta_from_squares(1.0, reg, model.xi_lambda_max(), bound_sq_sum)])
    state = update_intervals(state, means, std, betas)
    lo, hi = state.lower[0, 4], state.upper[0, 4]
    print(f"{t} | {betas[0]:.5f} | {hi - lo:14.4f} | [{lo:+.4f}, {hi:+.4f}]")

    j = int(rng.integers(3, 6))  # x in 0.375 .. 0.625
    bound = scenario_bound(noise, schedule, t, grid[j], rng)
    bound_sq_sum += float(bound.magnitudes[0] * bound.magnitudes[0])
    y = truth(grid[j, 0]) + noise.sample(grid[j], 0, rng, 1)[0]
    model = model.with_observation(j, [y])

print()
print("Widths never grow (nesting), beta never shrinks (the bound history")
print("only accumulates), and the truth stays inside every interval:")
final_vals = truth(grid[:, 0])
ok = bool(np.all((state.lower[0] <= final_vals) & (final_vals <= state.upper[0])))
print("containment at all grid points:", ok)
