"""Where the benchmark measures: one (module, attribute) per metric.

``BOUNDARIES`` are the only hooks of an untraced run: the set-up calls
and ``SafeOptimizer.step``.  ``LAYERS`` are the per-layer metrics of a
traced run.  Each entry names the function it is measured at, so a later
change that renames or removes that function shows as that metric
missing.  Work counts are computed from the call's arguments or result,
never read from inside the package.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from tracer import Metric

STEP = ("safebo.optimizer", "SafeOptimizer.step")

# Calls whose summed duration is the set-up part of ``setup_s``: config
# validation (once by the caller, once per run inside the battery), the
# ground truth with its grid, and the optimizer with its metric matrix.
SETUP = (
    ("safebo.harness", "ExperimentConfig.from_dict"),
    ("safebo.harness", "build_synthetic_problem"),
    ("safebo.optimizer", "SafeOptimizer.__init__"),
)

BOUNDARIES = [Metric(f"setup.{attr}", "s", module, attr, "total_s") for module, attr in SETUP] + [
    Metric("step.total_s", "s", *STEP, "total_s"),
    Metric("step.calls", "count", *STEP, "calls"),
]


def _metric_bytes(args: dict, result) -> int:
    x = args["x"]
    y = args["y"] if args["y"] is not None else x
    return len(x) * len(y) * 8


def _safe_set_pairs(args: dict, result) -> int:
    """Anchor-by-point pairs compared: anchors * n per constraint."""
    previous = np.asarray(args["previous"], dtype=bool)
    pairs = 0
    for i in args["constraints"]:
        anchors = int((previous & args["bounded"][i]).sum())
        if anchors == 0:
            break
        pairs += anchors * previous.shape[0]
    return pairs


def _expander_pairs(args: dict, result) -> int:
    """Safe-by-outside pairs compared: |S| * |outside| per constraint."""
    safe = np.asarray(args["safe"], dtype=bool)
    inside = int(safe.sum())
    return inside * (safe.shape[0] - inside) * len(args["constraints"])


def _emitted_bytes(args: dict, result) -> int:
    return sum(Path(p).stat().st_size for p in result)


def _m(name, unit, module, attr, stat="self_s", value=None) -> Metric:
    return Metric(name, unit, f"safebo.{module}", attr, stat, value)


LAYERS = [
    # gp: should move experiments_per_s and step_ms_p50 on heavy-tail-1d.
    _m("gp.xi_lambda_max.self_s", "s", "gp", "SurrogateModel.xi_lambda_max"),
    _m("gp.posterior.self_s", "s", "gp", "SurrogateModel.posterior"),
    _m("gp.posterior.calls", "count", "gp", "SurrogateModel.posterior", "calls"),
    _m("gp.history_max", "count", "gp", "SurrogateModel.posterior", "max",
       lambda a, r: a["self"].t),
    _m("gp.with_observation.self_s", "s", "gp", "SurrogateModel.with_observation"),
    _m("gp.log_det_information_gain.self_s", "s", "gp",
       "SurrogateModel.log_det_information_gain"),
    # kernels: pairwise should move step_ms_tail on wide-grid-1d; the
    # metric matrix setup_s and peak_rss_mb there.
    _m("kernels.pairwise.self_s", "s", "kernels", "pairwise"),
    _m("kernels.pairwise.calls", "count", "kernels", "pairwise", "calls"),
    _m("kernels.metric_matrix.self_s", "s", "kernels", "metric_matrix"),
    _m("kernels.metric_matrix.bytes", "B", "kernels", "metric_matrix", "sum", _metric_bytes),
    # noise: should move experiments_per_s on two-output-2d, then
    # heavy-tail-1d.  calls against distinct is the wasted-work ratio.
    _m("noise.min_scenarios.self_s", "s", "noise", "min_scenarios"),
    _m("noise.min_scenarios.calls", "count", "noise", "min_scenarios", "calls"),
    _m("noise.min_scenarios.distinct", "count", "noise", "min_scenarios", "distinct",
       lambda a, r: (a["schedule"], a["adjusted_confidence"])),
    _m("noise.scenario_bound.self_s", "s", "noise", "scenario_bound"),
    _m("noise.sample.self_s", "s", "noise", "NoiseModel.sample"),
    _m("noise.draws", "count", "noise", "NoiseModel.sample", "sum", lambda a, r: a["size"]),
    # confidence: should move step_ms_p50 on wide-grid-1d.
    _m("confidence.update_intervals.self_s", "s", "confidence", "update_intervals"),
    _m("confidence.beta_from_squares.self_s", "s", "confidence", "beta_from_squares"),
    # optimizer sets: should move wall_s, step_ms_tail and peak_rss_mb on
    # wide-grid-1d and two-output-2d.
    _m("optimizer.safe_set.self_s", "s", "optimizer", "safe_set"),
    _m("optimizer.safe_set.pairs", "count", "optimizer", "safe_set", "sum", _safe_set_pairs),
    _m("optimizer.expanders.self_s", "s", "optimizer", "expanders"),
    _m("optimizer.expanders.pairs", "count", "optimizer", "expanders", "sum", _expander_pairs),
    _m("optimizer.maximizers.self_s", "s", "optimizer", "maximizers"),
    _m("optimizer.acquire.self_s", "s", "optimizer", "acquire"),
    _m("optimizer.classic_beta.self_s", "s", "optimizer", "classic_beta"),
    # The loop body minus every traced stage inside it.
    _m("optimizer.step.self_s", "s", "optimizer", "SafeOptimizer.step"),
    _m("optimizer.step.calls", "count", "optimizer", "SafeOptimizer.step", "calls"),
    # synthetic and harness: should move setup_s and wall_s.
    _m("synthetic.sample_rkhs_function.self_s", "s", "synthetic", "sample_rkhs_function"),
    _m("synthetic.shift_to_quantile.self_s", "s", "synthetic", "shift_to_quantile"),
    _m("harness.build_synthetic_problem.self_s", "s", "harness", "build_synthetic_problem"),
    _m("harness.run_experiment.self_s", "s", "harness", "run_experiment"),
    _m("harness.emit.self_s", "s", "harness", "emit"),
    _m("harness.emit.bytes", "B", "harness", "emit", "sum", _emitted_bytes),
]
