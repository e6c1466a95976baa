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
from dataclasses import dataclass

import numpy as np

from .confidence import ConfidenceState, beta_from_squares, update_intervals
from .domain import Domain
from .gp import SurrogateModel
from .frontier import GridIndex
from .kernels import Kernel
from .noise import (
    NoiseModel,
    ScenarioBound,
    ScenarioSchedule,
    _reject_bools,
    is_integer,
    scenario_bound,
)

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
    """Raised by :func:`acquire` on an empty candidate mask, which the loop never passes."""


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
    Only ``bounded`` intervals anchor; the loop passes ``isfinite(lower)``.
    """
    previous = np.asarray(previous, dtype=bool)
    if not previous.any():
        raise ValueError("previous safe set must be non-empty")
    frontier = index.frontier(previous)
    certified = ~previous
    for i in constraints:
        if not certified.any():
            break
        anchors = (previous & bounded[i]).nonzero()[0]
        certified &= index.covered(frontier, anchors, lower[i][anchors], norm_bounds[i])
    return previous | certified


def maximizers(upper: np.ndarray, lower: np.ndarray, safe: np.ndarray) -> np.ndarray:
    """Safe points whose reward upper bound reaches the best safe lower bound.

    An infinite upper bound reaches any threshold, and an infinite lower
    bound raises none; an empty safe set has no maximizers.  Where
    ``lower <= upper``, as :func:`~safebo.confidence.update_intervals`
    leaves every interval, the safe point with the best lower bound is
    among them, so the loop's acquisition set is never empty.
    """
    safe = np.asarray(safe, dtype=bool)
    return safe & (upper[0] >= lower[0][safe].max(initial=-math.inf))


def expanders(
    upper: np.ndarray,
    safe: np.ndarray,
    norm_bounds: np.ndarray,
    index: GridIndex,
    constraints: tuple[int, ...],
) -> np.ndarray:
    """Safe points that could certify something outside the safe set.

    A safe point expands when, under at least one constraint, its upper
    bound optimistically reaches an outside point, as
    :meth:`~safebo.frontier.GridIndex.reaches` decides.  An infinite
    upper bound reaches every outside point there is.
    """
    safe = np.asarray(safe, dtype=bool)
    mask = np.zeros(safe.shape[0], dtype=bool)
    frontier = index.frontier(safe)
    inside = safe.nonzero()[0]
    for i in constraints:
        mask[inside[index.reaches(frontier, inside, upper[i][inside], norm_bounds[i])]] = True
    return mask


def acquire(widths: np.ndarray, std: np.ndarray, candidates: np.ndarray) -> int:
    """Most uncertain candidate: largest width over outputs.

    Widths are ``upper - lower``, ``+inf`` before the first update.
    Ties break deterministically: larger posterior standard deviation,
    then the lowest grid index.
    """
    indices = np.asarray(candidates, dtype=bool).nonzero()[0]
    if indices.size < 2:
        # A lone candidate is the choice: no width or std to compare.
        if not indices.size:
            raise EmptyAcquisitionSet("no maximizer or expander candidates")
        return int(indices[0])
    # ufunc reductions: the ndarray methods run a Python frame per call.
    scores = np.maximum.reduce(widths.take(indices, axis=1), axis=0)
    pool = indices[scores == np.maximum.reduce(scores)]
    if pool.size > 1:
        spread = std[pool]
        pool = pool[spread == np.maximum.reduce(spread)]
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
    Dense and O(n²) on the full ``metric`` matrix, off the loop's path:
    its only callers are perfbench's ceiling and the tests' oracles.
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
        _reject_bools(
            regularization=self.regularization,
            exploration_threshold=self.exploration_threshold,
            subgaussian_scale=self.subgaussian_scale,
        )
        for bound in self.norm_bounds:
            _reject_bools(norm_bounds=bound)
        if not self.exploration_threshold > 0:
            raise ValueError("exploration threshold must be positive")
        if self.exploration_threshold == math.inf:
            raise ValueError("exploration threshold must be finite")
        if not 0.0 < self.regularization <= 1.0:
            raise ValueError("regularization must lie in (0, 1]")
        if not is_integer(self.max_iterations) or self.max_iterations < 0:
            raise ValueError(
                f"max_iterations must be a nonnegative integer, got {self.max_iterations!r}"
            )
        if not 0.0 <= self.subgaussian_scale < math.inf:
            raise ValueError("subgaussian_scale must be finite and nonnegative")
        if self.beta_mode not in BETA_MODES:
            raise ValueError(f"unknown beta mode {self.beta_mode!r}")
        if self.on_collapse not in ("error", "reset"):
            raise ValueError(f"unknown on_collapse policy {self.on_collapse!r}")
        if not all(0.0 < b < math.inf for b in self.norm_bounds):
            raise ValueError("norm bounds must be positive and finite")
        n = len(self.norm_bounds)
        if self.schedule.n_outputs != n:
            raise ValueError("schedule output count must match norm bounds")
        constraints = self.constraint_indices
        if constraints is None:
            constraints = (0,) if n == 1 else tuple(range(1, n))
        constraints = _integers(constraints, "constraint indices")
        if not constraints or any(i < 0 or i >= n for i in constraints):
            raise ValueError("constraint indices must name existing outputs")
        object.__setattr__(self, "constraint_indices", constraints)
        object.__setattr__(self, "initial_safe", _integers(self.initial_safe, "initial safe"))
        object.__setattr__(self, "norm_bounds", tuple(float(b) for b in self.norm_bounds))

    @property
    def n_outputs(self) -> int:
        return len(self.norm_bounds)


@dataclass(frozen=True)
class StepRecord:
    """One executed experiment."""

    iteration: int
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
    noise_sq_sums: np.ndarray
    records: tuple[StepRecord, ...] = ()
    termination_reason: str | None = None

    @property
    def terminated(self) -> bool:
        return self.termination_reason is not None


class SafeOptimizer:
    """Driver binding a kernel, a lattice, and a configuration to the loop.

    It keeps the frontier of the last safe set it saw and the inputs and
    outputs of its last set stage; both are reused only for bit-equal inputs.
    """

    def __init__(self, kernel: Kernel, domain: Domain, config: OptimizerConfig):
        self.kernel = kernel
        self.domain = domain
        self.config = config
        if any(i < 0 or i >= domain.n_points for i in config.initial_safe):
            raise ValueError("initial safe indices outside the grid")
        self.index = GridIndex(kernel, domain)
        self._norms = np.asarray(config.norm_bounds, dtype=float)
        # The last set stage: the bytes of its inputs (lower, upper, previous
        # safe set) and its outputs (safe set, candidates, safe size, best index).
        self._last_sets: tuple | None = None

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
            noise_sq_sums=np.zeros(k),
            termination_reason="max_iterations" if self.config.max_iterations == 0 else None,
        )

    def _multipliers(self, state: OptimizerState) -> np.ndarray:
        """One multiplier per output for the step from ``state``.

        Scenario mode reads the Frobenius bound ``xi_frobenius`` in place
        of the paper's ``xi = lam / (lam + reg)``, so ``betas`` are at
        least the paper's.  The bound and the noise sums never decrease
        along a run, so neither do the multipliers.
        """
        cfg = self.config
        if cfg.beta_mode == "classic_subgaussian":
            gain = state.model.log_det_information_gain()
            nu = cfg.schedule.violation_prob
            betas = [classic_beta(b, cfg.subgaussian_scale, gain, nu) for b in cfg.norm_bounds]
        else:
            xi = state.model.xi_frobenius()
            sums, reg = state.noise_sq_sums.tolist(), cfg.regularization
            betas = [beta_from_squares(b, reg, xi, s) for b, s in zip(cfg.norm_bounds, sums)]
        return np.array(betas)

    def _experiment(self, index: int, measurement: int, oracle, noise_model: NoiseModel, rng):
        """Scenario batch (scenario mode only), oracle at ``index``, one noise draw per output.

        Returns ``(truth, observed, bound)``; the classic bound is zero.
        """
        cfg = self.config
        k, point = self._norms.size, self.domain.points[index]
        if cfg.beta_mode == "scenario":
            bound = scenario_bound(noise_model, cfg.schedule, measurement, point, rng)
        else:
            bound = ScenarioBound(0, np.zeros(k))
        truth = np.asarray(oracle(index), dtype=float).ravel()
        if truth.shape != (k,):
            raise ValueError("oracle must return one value per output")
        eps = np.empty(k)
        for i in range(k):
            eps[i] = noise_model.sample(point, i, rng, 1)[0]
        return truth, truth + eps, bound

    def _sets(self, lower: np.ndarray, upper: np.ndarray, previous: np.ndarray) -> tuple:
        """``(safe, candidates, safe size, best index)`` of this step's intervals.

        All four are pure functions of the intervals and the previous
        safe set, so a step whose three inputs hold the same bits as the
        last set stage's, as in a run that no longer moves its intervals,
        takes that stage's outputs.  The safe set is handed out as a
        copy, so no state shares the kept one.
        """
        # The inputs' bytes: equal bytes are equal bits, -0.0 apart from 0.0.
        key = (lower.shape, lower.tobytes(), upper.tobytes(), previous.tobytes())
        if self._last_sets is not None and self._last_sets[0] == key:
            safe, candidates, safe_size, best = self._last_sets[1]
            return safe.copy(), candidates, safe_size, best
        cons = self.config.constraint_indices
        safe = safe_set(lower, np.isfinite(lower), previous, self._norms, self.index, cons)
        candidates = maximizers(upper, lower, safe) | expanders(
            upper, safe, self._norms, self.index, cons
        )
        safe_size = int(np.count_nonzero(safe))
        best = _best_index(safe, lower)
        self._last_sets = (key, (safe.copy(), candidates, safe_size, best))
        return safe, candidates, safe_size, best

    def step(
        self,
        state: OptimizerState,
        oracle,
        noise_model: NoiseModel,
        rng: np.random.Generator,
    ) -> OptimizerState:
        """Run one loop body and return the successor state.

        The stages, in order: posterior, multipliers, intervals, sets
        (safe, maximizers, expanders), acquisition, experiment, append.
        Only the multipliers and the experiment branch on ``beta_mode``.
        ``oracle`` maps a grid index to the vector of true output values
        there; observation noise is drawn here, so the oracle stays
        deterministic.  The successor carries this step's intervals, safe
        set and multipliers, and either one more experiment or a
        termination reason; terminated states pass through unchanged.
        """
        if state.termination_reason is not None:
            return state
        cfg = self.config
        means, std = state.model.posterior()
        betas = self._multipliers(state)
        conf = update_intervals(
            state.confidence, means, std, betas, on_collapse=cfg.on_collapse
        )
        lower, upper = conf.lower, conf.upper
        safe, candidates, safe_size, best = self._sets(lower, upper, state.safe)

        model, sums, records = state.model, state.noise_sq_sums, state.records
        widths = upper - lower
        chosen = acquire(widths, std, candidates)
        # The chosen column's widest output, read without a numpy reduction.
        acq_width = max(widths[:, chosen].tolist())
        reason = "width_below_delta" if acq_width < cfg.exploration_threshold else None
        if reason is None:
            point = self.domain.points[chosen]
            measurement = len(records) + 1
            truth, observed, bound = self._experiment(chosen, measurement, oracle, noise_model, rng)
            records += (
                _frozen_instance(
                    StepRecord,
                    iteration=measurement,
                    point=tuple(point.tolist()),
                    observed=tuple(observed.tolist()),
                    true_values=tuple(truth.tolist()),
                    noise_bound=tuple(bound.magnitudes.tolist()),
                    n_scenarios=bound.n_scenarios,
                    betas=tuple(betas.tolist()),
                    safe_size=safe_size,
                    acquisition_width=acq_width,
                    best_lower=float(lower[0, best]),
                ),
            )
            model = model.with_observation(chosen, observed)
            sums = sums + bound.magnitudes * bound.magnitudes
            reason = "max_iterations" if measurement >= cfg.max_iterations else None
        return _frozen_instance(
            OptimizerState,
            model=model,
            confidence=conf,
            safe=safe,
            betas=betas,
            noise_sq_sums=sums,
            records=records,
            termination_reason=reason,
        )

    def run(
        self,
        oracle,
        noise_model: NoiseModel,
        rng: np.random.Generator,
    ) -> OptimizerState:
        """Iterate :meth:`step`, whose ``oracle`` takes grid indices, until termination."""
        state = self.initial_state()
        while state.termination_reason is None:
            state = self.step(state, oracle, noise_model, rng)
        return state

    def best_parameter(self, state: OptimizerState) -> int:
        """Grid index maximizing the reward lower bound over the safe set.

        Ties, including the fresh state's all ``-inf`` lower bounds,
        resolve to the lowest safe index.
        """
        return _best_index(state.safe, state.confidence.lower)


def _frozen_instance(cls, **fields):
    """``cls(**fields)`` for a frozen dataclass whose ``__init__`` only
    stores its fields, all of which are given.

    A frozen dataclass's generated ``__init__`` stores each field through
    ``object.__setattr__``, one call per field; this fills the instance's
    ``__dict__`` in one.  The instance is the same: equal, hashable and
    frozen, and ``dataclasses.replace`` builds its copies through
    ``__init__``.
    """
    instance = object.__new__(cls)
    instance.__dict__.update(fields)
    return instance


def _integers(entries, what: str) -> tuple[int, ...]:
    """``entries`` as Python ints; a bool, float or string entry raises ``ValueError``."""
    for i in entries:
        if not is_integer(i):
            raise ValueError(f"{what} entries must be integers, got {i!r}")
    return tuple(int(i) for i in entries)


def _best_index(safe: np.ndarray, lower: np.ndarray) -> int:
    """:meth:`SafeOptimizer.best_parameter` of a safe set and its lower bounds."""
    safe_idx = safe.nonzero()[0]
    return int(safe_idx[lower[0, safe_idx].argmax()])
