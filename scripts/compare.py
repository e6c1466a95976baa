"""Compare two checkouts on the benchmark, in order-alternating pairs.

    python3 scripts/compare.py PARENT_DIR CHANGE_DIR [--out FILE]

For each workload of ``BENCHMARK.json``, in turn, it runs 10 pairs of
``python3 perfbench/run.py --workload W --trace 0 --seconds S``, with S
the benchmark's ``run_seconds``, one in each directory, each from that
directory so that each side imports its own ``src/``.  Odd pairs
(1-based) run the parent first, even pairs the change.  Then it runs
the gate batteries of ``gate_digests.py`` beside this script once per
side, in a child that imports that side's ``src/``, and reports whether
the 36 digests are equal and how the change's 24 decision records
differ from the parent's.

It prints, or writes to ``--out``, a JSON document in the layout of the
``BENCH_*.json`` records: ``host``, ``command``, ``method``, ``bytes``,
``decisions`` and ``runs``.  ``host`` names the numpy build by
``gate_digests.py``'s ``build_fingerprint``.  Per workload, ``runs`` gives the pairs, per side
the failed and attempted experiments and the crashed runs (a run that
exits non-zero or prints no result), whether every run passed
perfbench's checks, and per end-to-end metric the pairs in which both
sides report it, both sides' medians and interquartile ranges (25th and
75th percentiles) over those pairs, ``change_better_pairs`` (pairs the
change wins in the metric's ``better`` direction; ties count for
neither), ``rel_change_pct``, ``(change - parent) / parent`` of the
medians, the median and interquartile range of the same relative change
taken pair by pair (``pair_rel_change_pct_median`` and ``_iqr``), which
host load that drifts across the pairs does not widen, and a
``verdict``, the first of these that holds:

* ``gain``: the change wins at least 9 of every 10 compared pairs, and
  its median is better than the parent's by more than the parent's
  interquartile distance;
* ``worse``: the change's median is worse than the parent's by more than
  the metric's ``bound`` in ``BENCHMARK.json``, relative to the parent's;
* ``unresolved``: the parent's interquartile distance is wider than that
  bound, relative to its median, so its runs cannot tell such a change;
* ``within_bound``: any other case.

``change``, ``claim`` and ``no_regression`` are left to the author.

The BLAS thread setting and the rest of the environment are inherited by
every run.  Each side should be a copy of the files, such as ``git
archive`` makes, not a worktree.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
SIDES = ("parent", "change")
PAIRS = 10
SECONDS = float(BENCHMARK["run_seconds"])
GATE = ROOT / "scripts" / "gate_digests.py"


def order(pair: int) -> tuple[str, str]:
    """The sides of 1-based ``pair`` in the order they run."""
    return SIDES if pair % 2 else SIDES[::-1]


# Runs the gate batteries of the gate_digests.py named by argv[1] and
# prints their record, on the safebo that PYTHONPATH names.
GATE_CHILD = """
import importlib.util, json, sys
spec = importlib.util.spec_from_file_location("gate_digests", sys.argv[1])
module = importlib.util.module_from_spec(spec)
spec.loader.exec_module(module)
digests, decisions = module.run_gates()
json.dump({"batteries": digests, "decisions": decisions}, sys.stdout)
"""


def run_once(directory: Path, workload: str) -> dict:
    """``perfbench/run.py``'s JSON result in ``directory``; a run that exits
    non-zero or prints none is crashed and incorrect, with no metrics."""
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--trace", "0",
         "--seconds", f"{SECONDS:g}"],
        cwd=directory, capture_output=True, text=True,
    )
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        sys.stderr.write(done.stderr)
        return {"correct": False, "crashed": True, "attempted": 0, "failed": 0, "metrics": {}}
    return json.loads(lines[-1])


def _quartiles(values: list[float]) -> tuple[float, float]:
    """25th and 75th percentiles, interpolated between the sorted values."""
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q3


def verdict(before: list[float], after: list[float], better: str, bound: float) -> str:
    """The verdict on one metric's paired runs: ``before[i]`` and ``after[i]``
    are the parent's and the change's run in pair ``i``."""
    sign = 1.0 if better == "higher" else -1.0
    p_med, c_med = statistics.median(before), statistics.median(after)
    q1, q3 = _quartiles(before)
    wins = sum(sign * (c - p) > 0 for p, c in zip(before, after))
    if 10 * wins >= 9 * len(before) and sign * (c_med - p_med) > q3 - q1:
        return "gain"
    if sign * (p_med - c_med) > bound * abs(p_med):
        return "worse"
    if q3 - q1 > bound * abs(p_med):
        return "unresolved"
    return "within_bound"


def summarize(results: dict[str, list[dict]], metrics: list[dict]) -> dict:
    """One workload's entry of ``runs`` from each side's results, pair by pair.

    ``results[side][i]`` is that side's result in pair ``i``; ``metrics``
    are ``BENCHMARK.json``'s end-to-end entries, with their ``better``
    direction and ``bound``.  A metric is compared over the pairs in
    which both sides report it.  A relative change from a parent of 0
    is 0 when the change is 0 too and undefined otherwise, and a paired
    figure with an undefined pair is ``None``.
    """
    parent, change = results["parent"], results["change"]
    entry = {
        "pairs": len(parent),
        "failed": {side: sum(r["failed"] for r in results[side]) for side in SIDES},
        "attempted": {side: sum(r["attempted"] for r in results[side]) for side in SIDES},
        "crashed": {side: sum(r.get("crashed", False) for r in results[side]) for side in SIDES},
        "correct": all(r["correct"] for side in SIDES for r in results[side]),
    }
    for metric in metrics:
        name, sign = metric["name"], 1.0 if metric["better"] == "higher" else -1.0
        pairs = [
            (p["metrics"][name]["value"], c["metrics"][name]["value"])
            for p, c in zip(parent, change)
            if name in p["metrics"] and name in c["metrics"]
        ]
        if not pairs:
            continue
        before, after = [p for p, _ in pairs], [c for _, c in pairs]
        p_med, c_med = statistics.median(before), statistics.median(after)
        if p_med:
            rel = round(100.0 * (c_med - p_med) / p_med, 1)
        else:
            rel = 0.0 if c_med == p_med else None
        paired = [(c - p) / p if p else 0.0 if c == p else None for p, c in pairs]
        if None in paired:
            pair_median = pair_iqr = None
        else:
            pair_median = round(100.0 * statistics.median(paired), 2)
            pair_iqr = [round(100.0 * q, 2) for q in _quartiles(paired)]
        entry[name] = {
            "pairs": len(pairs),
            "parent_median": round(p_med, 6),
            "change_median": round(c_med, 6),
            "parent_iqr": [round(q, 6) for q in _quartiles(before)],
            "change_iqr": [round(q, 6) for q in _quartiles(after)],
            "change_better_pairs": sum(sign * (c - p) > 0 for p, c in pairs),
            "rel_change_pct": rel,
            "pair_rel_change_pct_median": pair_median,
            "pair_rel_change_pct_iqr": pair_iqr,
            "verdict": verdict(before, after, metric["better"], metric["bound"]),
        }
    return entry


def gate_script():
    """``gate_digests.py`` beside this script, as a module; it needs numpy only."""
    spec = importlib.util.spec_from_file_location("gate_digests", GATE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def gate_record(directory: Path) -> dict:
    """``directory``'s gate batteries, run once in a child that imports its
    ``src/``: ``{"batteries": digests, "decisions": decision records}``."""
    env = {**os.environ, "PYTHONPATH": str(directory / "src")}
    done = subprocess.run(
        [sys.executable, "-c", GATE_CHILD, str(GATE)],
        env=env, capture_output=True, text=True, check=True,
    )
    return json.loads(done.stdout)


def gate_report(parent: dict, change: dict) -> tuple[dict, dict]:
    """The ``bytes`` and ``decisions`` entries from both sides' gate records:
    the digests that differ, and the change's decision records against
    the parent's as ``decision_differences`` reads them, which holds
    across numpy and BLAS builds where the bytes need not."""
    digests = parent["batteries"], change["batteries"]
    differing = sorted(
        k for k in digests[0].keys() | digests[1].keys() if digests[0].get(k) != digests[1].get(k)
    )
    differences = gate_script().decision_differences(change["decisions"], parent["decisions"])
    return (
        {"gate_digests": len(digests[1]), "equal": not differing, "differing": differing},
        {"runs": len(change["decisions"]), "equal": not differences, "differences": differences},
    )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path, help="the parent commit's files")
    parser.add_argument("change", type=Path, help="the change's files")
    parser.add_argument("--out", type=Path, help="write the document here, not to stdout")
    args = parser.parse_args(argv)
    dirs = {"parent": args.parent.resolve(), "change": args.change.resolve()}

    import numpy as np

    command = f"python3 perfbench/run.py --workload NAME --trace 0 --seconds {SECONDS:g}"
    runs = {}
    for workload in (w["name"] for w in BENCHMARK["workloads"]):
        results = {side: [] for side in SIDES}
        for pair in range(1, PAIRS + 1):
            for side in order(pair):
                results[side].append(run_once(dirs[side], workload))
            print(f"# {workload}: pair {pair} of {PAIRS} done", file=sys.stderr)
        runs[workload] = summarize(results, BENCHMARK["end_to_end"])

    gate_bytes, decisions = gate_report(*(gate_record(dirs[side]) for side in SIDES))
    document = {
        "host": {
            "cores": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "numpy": np.__version__,
            "build": gate_script().build_fingerprint(),
            "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS", "unset (inherited)"),
        },
        "command": command,
        "method": (
            f"{PAIRS} order-alternating pairs of parent and change per workload, each "
            "side in its own copy of the files, workloads in turn; odd pairs (1-based) run the "
            "parent first. Medians over the pairs in which both sides report the metric; "
            "parent_iqr/change_iqr are the 25th and 75th percentiles of each side's runs over "
            "those pairs; change_better_pairs counts pairs the change wins (ties count for "
            "neither); rel_change_pct is (change - parent) / parent of the medians; "
            "pair_rel_change_pct_median/_iqr are the median and the 25th and 75th percentiles "
            "of that relative change taken pair by pair; verdict is "
            "gain (at least 9/10 pairs won and a median gap wider than the parent's IQR), "
            "worse (median worse by more than the metric's bound), unresolved (parent IQR "
            "wider than the bound) or within_bound, the first that holds. The gate batteries "
            "run once per side; decisions lists the change's decision records that differ "
            "from the parent's."
        ),
        "bytes": gate_bytes,
        "decisions": decisions,
        "runs": {f"seconds{SECONDS:g}": runs},
    }
    text = json.dumps(document, indent=2) + "\n"
    if args.out:
        args.out.write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
