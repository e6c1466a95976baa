"""Safe exploration loop on a finite grid.

A run maintains, per candidate point, intersected confidence intervals
for the reward (output 0) and every constraint.  From those it derives:

* the safe set: points certified nonnegative for all constraints by a
  lower bound at an already-safe point minus the kernel-metric margin;
* the maximizer set: safe points whose reward upper bound still reaches
  the best safe reward lower bound;
* the expander set: safe points whose optimistic constraint value could
  certify at least one point outside the safe set.

Each iteration evaluates the most uncertain point among maximizers and
expanders, stopping once that uncertainty falls below the exploration
threshold.  Experiments are only ever run inside the safe set.

Two safety-multiplier modes are available: scenario bounds accumulated
from the noise model (works for any samplable noise), and the classic
multiplier for homoscedastic sub-Gaussian noise, kept for comparisons.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .confidence import ConfidenceState, beta_from_squares, update_intervals
from .domain import Domain
from .gp import SurrogateModel
from .frontier import GridIndex
from .kernels import Kernel
from .noise import NoiseModel, ScenarioSchedule, scenario_bound

__all__ = [
    "BETA_MODES",
    "EmptyAcquisitionSet",
    "OptimizerConfig",
    "OptimizerState",
    "SafeOptimizer",
    "StepRecord",
    "acquire",
    "classic_beta",
    "expanders",
    "maximizers",
    "reachable_set",
    "safe_set",
]


# Safety-multiplier modes: scenario bounds, or the classic sub-Gaussian baseline.
BETA_MODES = ("scenario", "classic_subgaussian")


class EmptyAcquisitionSet(RuntimeError):
    """Raised when neither maximizers nor expanders offer a candidate."""


def safe_set(
    lower: np.ndarray,
    bounded: np.ndarray,
    previous: np.ndarray,
    norm_bounds: np.ndarray,
    index: GridIndex,
    constraints: tuple[int, ...],
) -> np.ndarray:
    """Points certified safe from the previous safe set, union the previous set.

    A point survives constraint ``i`` when some previously safe point has
    a lower bound large enough to cover the metric distance between them.
    The previous safe set is always kept: certification can lag behind
    while lower bounds are still loose, and exploration must never lose
    its anchor.  Only points outside it are tested, against the anchors
    whose bound reaches past the frontier (see :mod:`safebo.frontier`).
    """
    previous = np.asarray(previous, dtype=bool)
    if not previous.any():
        raise ValueError("previous safe set must be non-empty")
    frontier = index.frontier(previous)
    if frontier.outside.size == 0:
        return previous.copy()
    certified = np.ones(frontier.outside.size, dtype=bool)
    for i in constraints:
        anchors = np.flatnonzero(previous & bounded[i])
        if anchors.size == 0:
            return previous.copy()
        certified &= index.covered(frontier, anchors, lower[i][anchors], norm_bounds[i])
        if not certified.any():
            break
    result = previous.copy()
    result[frontier.outside[certified]] = True
    return result


def maximizers(
    upper: np.ndarray,
    lower: np.ndarray,
    bounded: np.ndarray,
    safe: np.ndarray,
) -> np.ndarray:
    """Safe points whose reward upper bound reaches the best safe lower bound.

    Points with a still-unbounded upper interval qualify regardless of
    the threshold, and points with unbounded lower intervals contribute
    nothing to it.
    """
    safe = np.asarray(safe, dtype=bool)
    anchored = safe & bounded[0]
    threshold = lower[0][anchored].max() if anchored.any() else -math.inf
    reaches = np.where(bounded[0], upper[0] >= threshold, True)
    return safe & reaches


def expanders(
    upper: np.ndarray,
    bounded: np.ndarray,
    safe: np.ndarray,
    norm_bounds: np.ndarray,
    index: GridIndex,
    constraints: tuple[int, ...],
) -> np.ndarray:
    """Safe points that could certify something outside the safe set.

    A safe point expands when, under at least one constraint, its upper
    bound optimistically reaches an outside point.  An unbounded upper
    interval reaches everything.  Reaching the nearest outside point
    decides most points; only bounds in the roundoff band between the
    frontier's ``floor`` and ``near`` need a ball query.
    """
    safe = np.asarray(safe, dtype=bool)
    mask = np.zeros(safe.shape[0], dtype=bool)
    if safe.all() or not safe.any():
        return mask
    frontier = index.frontier(safe)
    inside = np.flatnonzero(safe)
    for i in constraints:
        bound = upper[i][inside]
        found = ~bounded[i][inside] | (bound - norm_bounds[i] * frontier.near[inside] >= 0.0)
        band = ~found & (bound - norm_bounds[i] * frontier.floor[inside] >= 0.0)
        if band.any():
            found[band] = index.reaches(frontier, inside[band], bound[band], norm_bounds[i])
        mask[inside[found]] = True
    return mask


def acquire(widths: np.ndarray, std: np.ndarray, candidates: np.ndarray) -> int:
    """Most uncertain candidate: largest width over outputs.

    Ties break deterministically: unbounded widths first, then larger
    posterior standard deviation, then the lowest grid index.
    """
    candidates = np.asarray(candidates, dtype=bool)
    if not candidates.any():
        raise EmptyAcquisitionSet("no maximizer or expander candidates")
    worst = widths.max(axis=0)
    indices = np.flatnonzero(candidates)
    scores = worst[indices]
    if np.isinf(scores).any():
        pool = indices[np.isinf(scores)]
    else:
        pool = indices[scores == scores.max()]
    if pool.shape[0] > 1:
        pool = pool[std[pool] == std[pool].max()]
    return int(pool[0])


def classic_beta(
    norm_bound: float, noise_scale: float, info_gain: float, violation_prob: float
) -> float:
    """Safety multiplier for homoscedastic sub-Gaussian noise.

    ``norm_bound + noise_scale * sqrt(2 * (info_gain + 1 + log(1 / p)))``
    with the half log-determinant information gain of the current Gram
    matrix.  Used only as the comparison baseline.
    """
    if noise_scale < 0:
        raise ValueError("noise scale must be nonnegative")
    return norm_bound + noise_scale * math.sqrt(
        2.0 * (info_gain + 1.0 + math.log(1.0 / violation_prob))
    )


def reachable_set(
    constraint_values: np.ndarray,
    norm_bounds: np.ndarray,
    metric: np.ndarray,
    margin: float,
    seed: np.ndarray,
) -> np.ndarray:
    """Fixpoint of margin-``delta`` expansion under the true constraints.

    Only computable for synthetic benchmarks, where the ground-truth
    constraint values are available on the whole grid.  Serves as a
    diagnostic ceiling on what safe exploration could ever certify.
    Each sweep tests only the points added by the previous one, against
    the points not yet in the set; what earlier anchors covered is kept
    per constraint.
    """
    constraint_values = np.atleast_2d(np.asarray(constraint_values, dtype=float))
    current = np.asarray(seed, dtype=bool).copy()
    if not current.any():
        raise ValueError("seed set must be non-empty")
    covered = np.zeros(constraint_values.shape, dtype=bool)
    fresh = current.copy()
    while True:
        anchors = np.flatnonzero(fresh)
        rest = np.flatnonzero(~current)
        block = metric[np.ix_(anchors, rest)]
        for ci in range(constraint_values.shape[0]):
            values = constraint_values[ci][anchors, None]
            cover = values - margin - norm_bounds[ci] * block
            covered[ci, rest] |= (cover >= 0.0).any(axis=0)
        fresh = np.zeros_like(current)
        fresh[rest] = covered[:, rest].all(axis=0)
        if not fresh.any():
            return current
        current |= fresh


@dataclass(frozen=True)
class OptimizerConfig:
    """Everything a run needs besides the kernel, the grid, and the noise.

    ``norm_bounds`` gives the kernel-norm budget per output (reward
    first).  ``constraint_indices`` names the outputs that must stay
    nonnegative; with a single output the reward constrains itself.
    ``beta_mode`` selects between ``"scenario"`` and
    ``"classic_subgaussian"`` safety multipliers, the latter using
    ``subgaussian_scale``.
    """

    norm_bounds: tuple[float, ...]
    regularization: float
    exploration_threshold: float
    schedule: ScenarioSchedule
    max_iterations: int
    initial_safe: tuple[int, ...]
    beta_mode: str = "scenario"
    subgaussian_scale: float = 0.0
    constraint_indices: tuple[int, ...] | None = None
    on_collapse: str = "error"

    def __post_init__(self) -> None:
        if len(self.initial_safe) == 0:
            raise ValueError("initial safe set must be non-empty")
        if not self.exploration_threshold > 0:
            raise ValueError("exploration threshold must be positive")
        if self.max_iterations < 0:
            raise ValueError("max_iterations must be nonnegative")
        if self.beta_mode not in BETA_MODES:
            raise ValueError(f"unknown beta mode {self.beta_mode!r}")
        if not all(b > 0 for b in self.norm_bounds):
            raise ValueError("norm bounds must be positive")
        n = len(self.norm_bounds)
        if self.schedule.n_outputs != n:
            raise ValueError("schedule output count must match norm bounds")
        constraints = self.constraint_indices
        if constraints is None:
            constraints = (0,) if n == 1 else tuple(range(1, n))
        constraints = tuple(int(i) for i in constraints)
        if not constraints or any(i < 0 or i >= n for i in constraints):
            raise ValueError("constraint indices must name existing outputs")
        object.__setattr__(self, "constraint_indices", constraints)
        object.__setattr__(self, "norm_bounds", tuple(float(b) for b in self.norm_bounds))

    @property
    def n_outputs(self) -> int:
        return len(self.norm_bounds)


@dataclass(frozen=True)
class StepRecord:
    """One executed experiment."""

    iteration: int
    point_index: int
    point: tuple[float, ...]
    observed: tuple[float, ...]
    true_values: tuple[float, ...]
    noise_bound: tuple[float, ...]
    n_scenarios: int
    betas: tuple[float, ...]
    safe_size: int
    acquisition_width: float
    best_lower: float


@dataclass(frozen=True)
class OptimizerState:
    """Snapshot after an iteration; never mutated in place."""

    model: SurrogateModel
    confidence: ConfidenceState
    safe: np.ndarray
    betas: np.ndarray
    xi_lambda: float
    noise_sq_sums: np.ndarray
    records: tuple[StepRecord, ...] = ()
    terminated: bool = False
    termination_reason: str | None = None
    proposed_index: int | None = None


class SafeOptimizer:
    """Driver binding a kernel, a grid, and a configuration to the loop."""

    def __init__(self, kernel: Kernel, domain: Domain, config: OptimizerConfig):
        self.kernel = kernel
        self.domain = domain
        self.config = config
        if any(i < 0 or i >= domain.n_points for i in config.initial_safe):
            raise ValueError("initial safe indices outside the grid")
        self.index = GridIndex(kernel, domain.points)
        self._norms = np.asarray(config.norm_bounds, dtype=float)

    def initial_state(self) -> OptimizerState:
        n = self.domain.n_points
        k = self.config.n_outputs
        safe = np.zeros(n, dtype=bool)
        safe[list(self.config.initial_safe)] = True
        return OptimizerState(
            model=SurrogateModel(
                self.kernel, self.config.regularization, k, grid=self.domain.points
            ),
            confidence=ConfidenceState.unbounded(k, n),
            safe=safe,
            betas=np.zeros(k),
            xi_lambda=0.0,
            noise_sq_sums=np.zeros(k),
        )

    def _beta_vector(self, state: OptimizerState, xi_lambda: float) -> np.ndarray:
        cfg = self.config
        if cfg.beta_mode == "scenario":
            return np.array(
                [
                    beta_from_squares(
                        self._norms[i],
                        cfg.regularization,
                        xi_lambda,
                        float(state.noise_sq_sums[i]),
                    )
                    for i in range(cfg.n_outputs)
                ]
            )
        info_gain = state.model.log_det_information_gain()
        return np.array(
            [
                classic_beta(
                    self._norms[i],
                    cfg.subgaussian_scale,
                    info_gain,
                    cfg.schedule.violation_prob,
                )
                for i in range(cfg.n_outputs)
            ]
        )

    def step(
        self,
        state: OptimizerState,
        oracle,
        noise_model: NoiseModel,
        rng: np.random.Generator,
    ) -> OptimizerState:
        """Run one loop body and return the successor state.

        ``oracle`` maps a parameter vector to the vector of true output
        values; observation noise is drawn here, so the oracle stays
        deterministic.  The successor either carries one more experiment
        or a termination flag; terminated states pass through unchanged.
        """
        if state.terminated:
            return state
        cfg = self.config

        means, std = state.model.posterior()
        if cfg.beta_mode == "scenario":
            # The top Gram eigenvalue only grows as evaluations accumulate;
            # keeping the running max shields against eigensolver jitter.
            xi_lambda = max(state.xi_lambda, state.model.xi_lambda_max())
        else:
            # Only the scenario multiplier reads the spectral ratio.
            xi_lambda = state.xi_lambda
        betas = self._beta_vector(state, xi_lambda)
        conf = update_intervals(
            state.confidence, means, std, betas, on_collapse=cfg.on_collapse
        )

        safe = safe_set(
            conf.lower, conf.bounded, state.safe, self._norms, self.index, cfg.constraint_indices
        )
        maxim = maximizers(conf.upper, conf.lower, conf.bounded, safe)
        expand = expanders(
            conf.upper, conf.bounded, safe, self._norms, self.index, cfg.constraint_indices
        )

        state = replace(
            state,
            confidence=conf,
            safe=safe,
            betas=betas,
            xi_lambda=xi_lambda,
        )

        widths = conf.widths()
        try:
            chosen = acquire(widths, std, maxim | expand)
        except EmptyAcquisitionSet:
            return replace(state, terminated=True, termination_reason="stalled")

        acq_width = float(widths[:, chosen].max())
        if acq_width < cfg.exploration_threshold:
            return replace(
                state,
                terminated=True,
                termination_reason="width_below_delta",
                proposed_index=chosen,
            )

        point = self.domain.points[chosen]
        measurement = len(state.records) + 1
        if cfg.beta_mode == "scenario":
            bound = scenario_bound(noise_model, cfg.schedule, measurement, point, rng)
            magnitudes = bound.magnitudes
            n_scen = bound.n_scenarios
        else:
            magnitudes = np.zeros(cfg.n_outputs)
            n_scen = 0

        truth = np.asarray(oracle(point), dtype=float).ravel()
        if truth.shape != (cfg.n_outputs,):
            raise ValueError("oracle must return one value per output")
        eps = np.array(
            [float(noise_model.sample(point, i, rng, 1)[0]) for i in range(cfg.n_outputs)]
        )
        observed = truth + eps

        model = state.model.with_observation(point, observed)
        sq_sums = state.noise_sq_sums + magnitudes * magnitudes

        best = self.best_parameter(state)
        record = StepRecord(
            iteration=measurement,
            point_index=chosen,
            point=tuple(float(v) for v in point),
            observed=tuple(float(v) for v in observed),
            true_values=tuple(float(v) for v in truth),
            noise_bound=tuple(float(v) for v in magnitudes),
            n_scenarios=n_scen,
            betas=tuple(float(v) for v in betas),
            safe_size=int(safe.sum()),
            acquisition_width=acq_width,
            best_lower=state.confidence.lower_bound(0, best),
        )

        new_state = replace(
            state,
            model=model,
            noise_sq_sums=sq_sums,
            records=state.records + (record,),
        )
        if len(new_state.records) >= cfg.max_iterations:
            new_state = replace(
                new_state, terminated=True, termination_reason="max_iterations"
            )
        return new_state

    def run(
        self,
        oracle,
        noise_model: NoiseModel,
        rng: np.random.Generator,
    ) -> OptimizerState:
        """Iterate :meth:`step` from a fresh state until termination."""
        state = self.initial_state()
        if self.config.max_iterations == 0:
            return replace(state, terminated=True, termination_reason="max_iterations")
        while not state.terminated:
            state = self.step(state, oracle, noise_model, rng)
        return state

    def best_parameter(self, state: OptimizerState) -> int:
        """Grid index maximizing the reward lower bound over the safe set.

        Ties, including the all-unbounded start, resolve to the lowest
        safe index.
        """
        safe_idx = np.flatnonzero(state.safe)
        lower = state.confidence.lower_filled()[0][safe_idx]
        return int(safe_idx[int(np.argmax(lower))])
