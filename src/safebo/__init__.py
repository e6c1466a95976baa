"""Safe Bayesian optimization on finite grids, robust across noise models.

The optimizer keeps high-probability confidence intervals around every
modeled output and only ever evaluates points certified safe by those
intervals.  Instead of assuming sub-Gaussian observation noise, the
interval half-widths are driven by scenario batches drawn from whatever
noise distribution the application can sample, making the same loop
usable under uniform, Gaussian, or heteroscedastic heavy-tailed noise.
"""

from .confidence import (
    ConfidenceCollapse,
    ConfidenceState,
    beta_from_squares,
    update_intervals,
)
from .domain import Domain
from .frontier import GridIndex
from .gp import SurrogateModel
from .harness import (
    PRESETS,
    ConfigError,
    ExperimentConfig,
    ExperimentResult,
    RunTrace,
    beta_growth_report,
    build_synthetic_problem,
    emit,
    run_experiment,
    run_single,
    scaling_study,
)
from .kernels import Kernel, gram, metric_matrix, pairwise
from .noise import (
    NoiseModel,
    ScenarioBound,
    ScenarioSchedule,
    builtin_models,
    gaussian,
    iteration_confidence,
    min_scenarios,
    model_from_config,
    scenario_bound,
    student_t_scaled,
    sub_gaussian_surrogate,
    uniform,
)
from .optimizer import (
    EmptyAcquisitionSet,
    OptimizerConfig,
    OptimizerState,
    SafeOptimizer,
    StepRecord,
    acquire,
    classic_beta,
    expanders,
    maximizers,
    reachable_set,
    safe_set,
)
from .synthetic import (
    RkhsFunction,
    ShiftedFunction,
    nearest_rank_quantile,
    sample_rkhs_function,
    shift_to_quantile,
)

__version__ = "0.1.0"

__all__ = [
    "ConfidenceCollapse",
    "ConfidenceState",
    "ConfigError",
    "Domain",
    "EmptyAcquisitionSet",
    "ExperimentConfig",
    "ExperimentResult",
    "GridIndex",
    "Kernel",
    "NoiseModel",
    "OptimizerConfig",
    "OptimizerState",
    "PRESETS",
    "RkhsFunction",
    "RunTrace",
    "SafeOptimizer",
    "ScenarioBound",
    "ScenarioSchedule",
    "ShiftedFunction",
    "StepRecord",
    "SurrogateModel",
    "acquire",
    "beta_from_squares",
    "beta_growth_report",
    "builtin_models",
    "build_synthetic_problem",
    "classic_beta",
    "emit",
    "expanders",
    "gaussian",
    "gram",
    "iteration_confidence",
    "maximizers",
    "metric_matrix",
    "min_scenarios",
    "model_from_config",
    "nearest_rank_quantile",
    "pairwise",
    "reachable_set",
    "run_experiment",
    "run_single",
    "safe_set",
    "sample_rkhs_function",
    "scaling_study",
    "scenario_bound",
    "shift_to_quantile",
    "student_t_scaled",
    "sub_gaussian_surrogate",
    "uniform",
    "update_intervals",
]
