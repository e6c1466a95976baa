"""A full safe optimization run on a random 1-D benchmark.

The ground truth is a random unit-norm kernel expansion shifted so the
top 60% of the grid is safe; the optimizer starts from one modestly safe
point, expands the certified region, and reports the best safe
parameter.  Safety means never evaluating where the truth is negative.
"""

import numpy as np

from safebo import ExperimentConfig, run_single
from safebo.harness import build_synthetic_problem
from safebo.kernels import metric_matrix
from safebo.optimizer import reachable_set

SEED = 4

config = ExperimentConfig.from_preset(
    "paper-synthetic-1", {"seeds": [SEED], "beta_modes": ["scenario"]}
)
trace = run_single(config, SEED, "scenario")

streams = np.random.SeedSequence(SEED).spawn(2)
problem = build_synthetic_problem(config, np.random.default_rng(streams[0]))
truth = problem.values[0]

print(f"ground truth: safe share {np.mean(truth >= 0):.0%},"
      f" best value {truth.max():+.4f} at x={problem.domain.points[truth.argmax(), 0]:.3f}")
start = problem.initial_safe[0]
print(f"start: x={problem.domain.points[start, 0]:.3f} with value {truth[start]:+.4f}")

print(f"\nrun: {trace.iterations} experiments, terminated by {trace.termination_reason}")
print(f"violations: {trace.violation_count} (every evaluation stayed safe)")
print(f"safe set grew 1 -> {trace.final_safe_size} points")
print(f"best safe parameter: x={trace.final_best_point[0]:.3f},"
      f" true value {trace.final_best_true_reward:+.4f},"
      f" certified lower bound {trace.final_best_lower:+.4f}")

# How much was reachable at all?  The diagnostic fixpoint uses the true
# function, so it is only available on synthetic benchmarks like this.
metric = metric_matrix(config.build_kernel(), problem.domain.points)
seed_mask = np.zeros(problem.domain.n_points, dtype=bool)
seed_mask[start] = True
ceiling = reachable_set(truth[None, :], np.array([1.0]), metric,
                        config.exploration_threshold, seed_mask)
print(f"\nreachability ceiling at margin delta: {ceiling.sum()} points,"
      f" best value {truth[ceiling].max():+.4f}")
print("the run's certified optimum meets that ceiling within delta:",
      trace.final_best_true_reward >= truth[ceiling].max() - config.exploration_threshold)

print("\nexploration timeline (every 10th experiment):")
print("  t | x      | observed  | safe set | best lower")
for rec in trace.records[::10]:
    print(f"{rec.iteration:3d} | {rec.point[0]:.3f} | {rec.observed[0]:+8.4f}"
          f" | {rec.safe_size:8d} | {rec.best_lower:+.4f}")
