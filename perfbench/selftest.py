"""Self-test of the benchmark: ``python3 perfbench/selftest.py``.

Runs two tiny batteries, one per output count, untraced and traced, and
checks that:

* every span's self time is at most its total time;
* the self times add up to the traced battery's wall time, give or take
  the tracing overhead;
* ``noise.draws`` equals the draws the emitted CSVs imply: ``m`` scenarios
  and one observation per output per experiment;
* traced and untraced runs emit the same bytes, and the output checks
  pass on them;
* a hook whose function does not exist is reported missing by name and
  leaves the package untouched;
* the metric names and units match ``BENCHMARK.json``.

Exits 0 when every check passes and 1 otherwise, listing the failures.
"""

from __future__ import annotations

import json
import shutil
import sys
import time

import repetition
import run


def tiny(workload: str, **overrides) -> dict:
    document = run.workload_document(workload, 0)
    document.update(overrides)
    return document


def check_battery(name: str, document: dict, failures: list[str]) -> None:
    import checks
    from layers import BOUNDARIES, LAYERS
    from tracer import Tracer

    out_dir = run.OUT / f"selftest-{name}"
    walls, outputs = {}, {}
    # Config validation runs outside every per-layer span; timing it too
    # leaves only the benchmark's own few statements uncovered.
    validation = [m for m in BOUNDARIES if m.attr == "ExperimentConfig.from_dict"]
    tracers = {
        "warm-up": Tracer([]),
        "untraced": Tracer(BOUNDARIES),
        "traced": Tracer(LAYERS + validation),
    }
    try:
        for label, tracer in tracers.items():
            shutil.rmtree(out_dir, ignore_errors=True)
            walls[label] = repetition.run_battery(document, out_dir, tracer)
            outputs[label] = (checks.digests(out_dir), *checks.read_outputs(out_dir))
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)

    traced = tracers["traced"]
    for hook, stats in traced.stats.items():
        if stats.self_ns > stats.total_ns or stats.self_ns < 0:
            failures.append(f"{name}: {hook} self {stats.self_ns} ns outside [0, {stats.total_ns}]")
    self_s = sum(stats.self_ns for stats in traced.stats.values()) / 1e9
    overhead = max(walls["traced"] - walls["untraced"], 0.0)
    gap = walls["traced"] - self_s
    if not -1e-6 <= gap <= overhead + 1e-3:
        failures.append(
            f"{name}: self times sum to {self_s:.4f} s against a traced wall of "
            f"{walls['traced']:.4f} s (overhead {overhead:.4f} s)"
        )

    digests, summary, tables = outputs["traced"]
    if digests != outputs["untraced"][0]:
        failures.append(f"{name}: traced and untraced runs emitted different bytes")
    for run_name, found in checks.run_problems(summary, tables).items():
        failures.append(f"{name}: {run_name}: {'; '.join(found)}")
    draws = traced.read()["noise.draws"]
    expected = checks.scenario_draws(tables)
    if draws != expected:
        failures.append(f"{name}: noise.draws {draws}, CSVs imply {expected}")
    print(
        f"{name}: traced {walls['traced']:.3f} s, untraced {walls['untraced']:.3f} s, "
        f"self-time sum {self_s:.3f} s, {draws} noise draws"
    )


def check_missing_hook(failures: list[str]) -> None:
    import safebo.gp
    from tracer import Metric, Tracer

    original = safebo.gp.SurrogateModel.posterior
    tracer = Tracer(
        [
            Metric("gone.self_s", "s", "safebo.gp", "SurrogateModel.no_such_method"),
            Metric("gone_module.self_s", "s", "safebo.no_such_module", "anything"),
            Metric("gp.posterior.calls", "count", "safebo.gp", "SurrogateModel.posterior", "calls"),
        ]
    )
    with tracer:
        wrapped = safebo.gp.SurrogateModel.posterior is not original
    missing = [name for name, _ in tracer.missing]
    if missing != ["gone.self_s", "gone_module.self_s"]:
        failures.append(f"missing hooks reported as {tracer.missing}")
    if set(tracer.read()) != {"gp.posterior.calls"}:
        failures.append(f"a missing hook produced a value: {tracer.read()}")
    if not wrapped or safebo.gp.SurrogateModel.posterior is not original:
        failures.append("installing or removing a hook did not rebind the method")


def check_metric_names(failures: list[str]) -> None:
    from layers import LAYERS

    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    declared = {m["name"]: m["unit"] for m in spec["per_layer"]}
    produced = {m.name: m.unit for m in LAYERS}
    produced.update(
        {"confidence.collapse_resets": "count", "run.violations": "count", "trace.overhead_s": "s"}
    )
    if declared != produced:
        failures.append(f"per_layer in BENCHMARK.json differs from layers.py: {declared} vs {produced}")
    if {w["name"] for w in spec["workloads"]} != set(run.WORKLOADS):
        failures.append("workloads in BENCHMARK.json differ from run.WORKLOADS")


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    failures: list[str] = []
    start = time.perf_counter()
    check_battery("1-output", tiny("heavy-tail-1d", seeds=[1], max_iterations=8), failures)
    check_battery("2-output", tiny("two-output-2d", seeds=[0], max_iterations=8,
                                   beta_modes=["scenario", "classic_subgaussian"]), failures)
    check_missing_hook(failures)
    check_metric_names(failures)
    for failure in failures:
        print(f"FAILED {failure}")
    print(f"{'FAILED' if failures else 'passed'} in {time.perf_counter() - start:.1f} s")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
