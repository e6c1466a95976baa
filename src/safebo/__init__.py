"""Safe Bayesian optimization on finite grids, robust across noise models.

The optimizer keeps high-probability confidence intervals around every
modeled output and only ever evaluates points certified safe by those
intervals.  Instead of assuming sub-Gaussian observation noise, the
interval half-widths are driven by scenario batches drawn from whatever
noise distribution the application can sample, making the same loop
usable under uniform, Gaussian, or heteroscedastic heavy-tailed noise.

The top level re-exports the names the README and the demos use;
everything else, the dense O(n²) helpers ``kernels.metric_matrix`` and
``optimizer.reachable_set`` among them, is imported from its submodule.
"""

from .confidence import ConfidenceState, beta_from_squares, update_intervals
from .domain import Domain
from .gp import SurrogateModel
from .harness import ExperimentConfig, run_single, scaling_study
from .kernels import Kernel, pairwise
from .noise import (
    ScenarioSchedule,
    gaussian,
    iteration_confidence,
    min_scenarios,
    scenario_bound,
    student_t_scaled,
    uniform,
)
from .optimizer import OptimizerConfig, SafeOptimizer

__version__ = "0.1.0"

__all__ = [
    "ConfidenceState",
    "Domain",
    "ExperimentConfig",
    "Kernel",
    "OptimizerConfig",
    "SafeOptimizer",
    "ScenarioSchedule",
    "SurrogateModel",
    "beta_from_squares",
    "gaussian",
    "iteration_confidence",
    "min_scenarios",
    "pairwise",
    "run_single",
    "scaling_study",
    "scenario_bound",
    "student_t_scaled",
    "uniform",
    "update_intervals",
]
