"""Benchmark of the safe-BO loop: ``python3 perfbench/run.py --workload NAME``.

Each workload is one seed battery, driven through the calls ``safebo run``
makes: ``ExperimentConfig.from_dict`` -> ``run_experiment(config,
jobs=1)`` -> ``emit``.  The battery runs again and again for
``--seconds``, each repetition in a fresh process (``repetition.py``), so
each pays the import and starts with empty caches, as a user's run does.
Every repetition's files are checked, hashed and deleted.  Run from the
repository root; the package is imported from ``src/``.  BLAS threads are
inherited, never pinned: the thread count changes both speed and emitted
bytes, so it is printed with the digests and keys the reference digests
in ``reference.json``.

``--trace 0`` times three boundaries only: the set-up calls,
``SafeOptimizer.step`` and the whole battery.  It prints the end-to-end
metrics.  ``--trace 1`` alternates untraced repetitions with traced ones,
which wrap every function in ``layers.LAYERS``, and prints the per-layer
metrics with ``trace.overhead_s``, the traced minus the untraced battery
time.

The batteries' problem seeds are fixed, so the deterministic metrics
(``coverage``, ``regret``) and the digests compare exactly between
commits; ``--seed`` rotates the order in which they run, which reorders
``summary.json``.  The last line of standard output is the JSON result;
lines before it, starting with ``#``, report what the figures do not.
``python3 perfbench/selftest.py`` checks the tracer itself, and
``python3 perfbench/record.py`` re-records the reference digests.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

# name -> (preset or config file under perfbench/, overrides).  Sized so a
# repetition takes a few seconds with two BLAS threads on two cores.
WORKLOADS = {
    # The paper's heavy-tailed case: scenario runs to t=200 on n=300, short
    # classic runs with collapse resets.  The GP does most of the work.
    "heavy-tail-1d": ("paper-synthetic-2", {"seeds": [0, 1, 2]}),
    # The O(n^2) wall: the safe set reaches almost the whole ceiling of a
    # 3000-point grid, so safe-set and expander work dominate each step.
    "wide-grid-1d": (
        "paper-synthetic-1",
        {
            "domain": {"bounds": [[0.0, 1.0]], "resolution": [3000]},
            "exploration_threshold": 0.02,
            "max_iterations": 150,
            "beta_modes": ["scenario"],
            "seeds": [0],
        },
    ),
    # Two outputs on a 2-D grid with mixed load; both seeds ask for the same
    # scenario counts.  The bundled synthetic-2d preset cannot leave its
    # start point, so this config is owned here.
    "two-output-2d": ("configs/two-output-2d.json", {}),
}

# Percentiles tried for the step-latency tail, highest first; the first
# with at least ten steps beyond it in one repetition is reported.
TAIL_PERCENTILES = (99.9, 99.5, 99.0, 98.0, 97.5, 95.0, 90.0, 75.0, 50.0)

# A repetition that has not ended by then is stopped and counted failed.
REPETITION_TIMEOUT_S = 150


@dataclass
class Repetition:
    traced: bool
    elapsed_s: float
    failed_runs: int
    problems: dict[str, list[str]]
    digests: dict[str, str] = field(default_factory=dict)
    measured: dict = field(default_factory=dict)
    summary: dict = field(default_factory=dict)
    experiments: int = 0
    violations: int = 0


def workload_document(name: str, seed: int) -> dict:
    """The workload's config document, seeds rotated to start at ``--seed``."""
    from safebo.harness import PRESETS

    source, overrides = WORKLOADS[name]
    if source in PRESETS:
        document = json.loads(json.dumps(PRESETS[source]))
    else:
        document = json.loads((BENCH / source).read_text(encoding="utf-8"))
    document.update(json.loads(json.dumps(overrides)))
    seeds = document["seeds"]
    shift = seed % len(seeds)
    document["seeds"] = seeds[shift:] + seeds[:shift]
    return document


def blas_setting() -> str:
    """The BLAS build and the thread environment, as inherited."""
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    env = " ".join(
        f"{var}={os.environ.get(var, 'unset')}"
        for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")
    )
    return f"{blas['name']} {blas['version']}; {env}; nproc={len(os.sched_getaffinity(0))}"


def run_repetition(document: dict, traced: bool, out_dir: Path) -> Repetition:
    """One battery in a fresh process, then the checks on what it emitted."""
    import checks

    n_runs = len(document["seeds"]) * len(document["beta_modes"])
    shutil.rmtree(out_dir, ignore_errors=True)
    start = time.perf_counter()
    try:
        done = subprocess.run(
            [sys.executable, str(BENCH / "repetition.py"), "--out", str(out_dir),
             "--trace", str(int(traced))],
            input=json.dumps(document), capture_output=True, text=True, cwd=ROOT,
            timeout=REPETITION_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        return Repetition(traced, time.perf_counter() - start, n_runs,
                          {"battery": [f"no result within {REPETITION_TIMEOUT_S} s"]})
    elapsed = time.perf_counter() - start
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        return Repetition(traced, elapsed, n_runs,
                          {"battery": [f"repetition exited with {done.returncode}"]})
    summary, tables = checks.read_outputs(out_dir)
    problems = checks.run_problems(summary, tables)
    return Repetition(
        traced=traced,
        elapsed_s=elapsed,
        failed_runs=sum(1 for name in problems if name.endswith(".csv")),
        problems=problems,
        digests=checks.digests(out_dir),
        measured=json.loads(done.stdout.splitlines()[-1]),
        summary=summary,
        experiments=sum(r["iterations"] for r in summary["runs"]),
        violations=sum(r["violations"] for r in summary["runs"]),
    )


def repeat(document: dict, seconds: float, trace: bool, out_dir: Path) -> list[Repetition]:
    """Repetitions until ``seconds`` are used, at least two.

    Untraced and traced repetitions alternate when ``trace`` is set.  A
    repetition that fails ends the loop.
    """
    reps: list[Repetition] = []
    start = time.perf_counter()
    while len(reps) < 2 or (
        time.perf_counter() - start + max(r.elapsed_s for r in reps) <= seconds
    ):
        reps.append(run_repetition(document, trace and len(reps) % 2 == 1, out_dir))
        if "battery" in reps[-1].problems:
            break
    shutil.rmtree(out_dir, ignore_errors=True)
    return reps


def tail_percentile(steps_per_rep: int) -> float:
    for p in TAIL_PERCENTILES:
        if steps_per_rep * (100.0 - p) / 100.0 >= 10:
            return p
    return TAIL_PERCENTILES[-1]


def end_to_end(reps: list[Repetition], coverage: float, regret: float, notes: list[str]):
    import numpy as np

    runs = [r.measured for r in reps]
    setup = [
        m["import_s"] + sum(v for k, v in m["figures"].items() if k.startswith("setup."))
        for m in runs
    ]
    out = {
        "setup_s": (statistics.median(setup), "s"),
        "wall_s": (statistics.median(m["wall_s"] for m in runs), "s"),
        "peak_rss_mb": (statistics.median(m["peak_rss_mb"] for m in runs), "MB"),
        "coverage": (coverage, "ratio"),
        "regret": (regret, "reward"),
    }
    if "step.total_s" not in runs[0]["figures"]:
        return out
    steps = np.array([ns for m in runs for ns in m["step_ns"]], dtype=float) / 1e6
    per_rep = len(runs[0]["step_ns"])
    p = tail_percentile(per_rep)
    notes.append(
        f"step_ms_tail is p{p:g} of {steps.size} steps ({per_rep} per repetition, "
        f"{len(runs)} repetitions)"
    )
    step_s = sum(m["figures"]["step.total_s"] for m in runs)
    out["experiments_per_s"] = (sum(r.experiments for r in reps) / step_s, "1/s")
    out["step_ms_p50"] = (float(np.median(steps)), "ms")
    out["step_ms_tail"] = (float(np.percentile(steps, p)), "ms")
    return out


def per_layer(reps: list[Repetition]):
    from layers import LAYERS

    traced = [r.measured for r in reps if r.traced]
    plain = [r.measured for r in reps if not r.traced]
    out = {}
    for metric in LAYERS:
        values = [m["figures"][metric.name] for m in traced if metric.name in m["figures"]]
        if values:
            out[metric.name] = (statistics.median(values), metric.unit)
    out["confidence.collapse_resets"] = (
        statistics.median(m["collapse_resets"] for m in traced), "count"
    )
    out["run.violations"] = (reps[0].violations, "count")
    overhead = statistics.median(m["wall_s"] for m in traced) - statistics.median(
        m["wall_s"] for m in plain
    )
    out["trace.overhead_s"] = (overhead, "s")
    return out


def reference_status(setting: str, battery: str, digests: dict[str, str]) -> str:
    reference = json.loads((BENCH / "reference.json").read_text(encoding="utf-8"))
    stored = reference["digests"].get(setting, {}).get(battery)
    if stored is None:
        return "have no reference for this BLAS setting"
    if stored == digests:
        return "equal the reference"
    changed = sorted(k for k in set(stored) | set(digests) if stored.get(k) != digests.get(k))
    return f"DIFFER from the reference in {', '.join(changed)}"


def battery_key(workload: str, document: dict) -> str:
    return f"{workload} seeds={document['seeds']}"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0, help="rotation of the battery's seeds")
    parser.add_argument("--seconds", type=float, default=30.0, help="time to keep repeating")
    parser.add_argument(
        "--trace", type=int, choices=(0, 1), default=0, help="1 prints per-layer metrics"
    )
    args = parser.parse_args(argv)

    if not (SRC / "safebo" / "__init__.py").is_file():
        print(f"perfbench: no package sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import safebo

    if not Path(safebo.__file__).resolve().is_relative_to(SRC.resolve()):
        print(f"perfbench: safebo imported from {safebo.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import checks

    document = workload_document(args.workload, args.seed)
    setting = blas_setting()
    reps = repeat(document, args.seconds, bool(args.trace), OUT / args.workload)

    battery = battery_key(args.workload, document)
    notes = [f"{battery}; {setting}"]
    for r in reps:
        notes += [f"check failed: {name}: {'; '.join(found)}" for name, found in r.problems.items()]
    notes += sorted(
        {f"missing metric {name}: {hook} not found" for r in reps for name, hook in r.measured.get("missing", [])}
    )
    correct = all(not r.problems for r in reps)
    metrics = {}
    if correct:
        # The dense ground-truth ceiling is computed here, outside every
        # repetition, so it inflates neither a timing nor the peak RSS.
        summary = reps[0].summary
        ceiling = checks.ceilings(summary)
        if max(size for size, _ in ceiling.values()) <= 1:
            notes.append(f"check failed: no seed's reachable ceiling exceeds 1: {ceiling}")
            correct = False
        if any(r.digests != reps[0].digests for r in reps):
            notes.append("check failed: emitted bytes differ between repetitions")
            correct = False
        notes.append(f"digests {reference_status(setting, battery, reps[0].digests)}")
        coverage, regret = checks.coverage_and_regret(summary, ceiling)
        figures = (
            per_layer(reps) if args.trace else end_to_end(reps, coverage, regret, notes)
        )
        metrics = {name: {"value": value, "unit": unit} for name, (value, unit) in figures.items()}
    for note in notes:
        print(f"# {note}")
    result = {
        "correct": correct,
        "attempted": len(reps) * len(document["seeds"]) * len(document["beta_modes"]),
        "failed": sum(r.failed_runs for r in reps),
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
