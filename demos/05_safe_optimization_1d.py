"""A full safe optimization run on a random 1-D benchmark.

The ground truth is a random unit-norm kernel expansion shifted so the
top 60% of the grid is safe; the optimizer starts from one modestly safe
point, expands the certified region, and reports the best safe
parameter.  Safety means never evaluating where the truth is negative.
"""

import numpy as np

from safebo import ExperimentConfig, run_single
from safebo.frontier import GridIndex
from safebo.optimizer import safe_set
from safebo.synthetic import ShiftedFunction

SEED = 4

config = ExperimentConfig.from_preset(
    "paper-synthetic-1", {"seeds": [SEED], "beta_modes": ["scenario"]}
)
trace = run_single(config, SEED, "scenario")

# The run records its ground truth: here one function, the reward shifted
# so that it constrains itself.
domain = config.build_domain()
truth = ShiftedFunction.from_config(trace.ground_truth["functions"][0])(domain.points)

print(f"ground truth: safe share {np.mean(truth >= 0):.0%},"
      f" best value {truth.max():+.4f} at x={domain.points[truth.argmax(), 0]:.3f}")
start = trace.ground_truth["initial_safe"][0]
print(f"start: x={domain.points[start, 0]:.3f} with value {truth[start]:+.4f}")

print(f"\nrun: {trace.iterations} experiments, terminated by {trace.termination_reason}")
print(f"violations: {trace.violation_count} (every evaluation stayed safe)")
print(f"safe set grew 1 -> {trace.final_safe_size} points")
print(f"best safe parameter: x={trace.final_best_point[0]:.3f},"
      f" true value {trace.final_best_true_reward:+.4f},"
      f" certified lower bound {trace.final_best_lower:+.4f}")

# How much was reachable at all?  The safe-set rule applied to the true
# function less delta, from the start point until the set stops growing,
# is the ceiling; it needs the truth, so only synthetic benchmarks have it.
index = GridIndex(config.build_kernel(), domain)
lower = (truth - config.exploration_threshold)[None, :]
norms = np.array([config.norm_bound])
ceiling = np.zeros(domain.n_points, dtype=bool)
ceiling[start] = True
while True:
    grown = safe_set(lower, np.isfinite(lower), ceiling, norms, index, (0,))
    if np.array_equal(grown, ceiling):
        break
    ceiling = grown
print(f"\nreachability ceiling at margin delta: {ceiling.sum()} points,"
      f" best value {truth[ceiling].max():+.4f}")
print("the run's certified optimum meets that ceiling within delta:",
      trace.final_best_true_reward >= truth[ceiling].max() - config.exploration_threshold)

print("\nexploration timeline (every 10th experiment):")
print("  t | x      | observed  | safe set | best lower")
for rec in trace.records[::10]:
    print(f"{rec.iteration:3d} | {rec.point[0]:.3f} | {rec.observed[0]:+8.4f}"
          f" | {rec.safe_size:8d} | {rec.best_lower:+.4f}")
