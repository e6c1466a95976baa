"""Compare two checkouts on the benchmark, in order-alternating pairs.

    python3 scripts/compare.py PARENT_DIR CHANGE_DIR [--out FILE]

For each workload of ``BENCHMARK.json``, in turn, it runs 10 pairs of
``python3 perfbench/run.py --workload W --trace 0 --seconds S``, with S
the benchmark's ``run_seconds``, one in each directory, each from that
directory so that each side imports its own ``src/``.  Odd pairs
(1-based) run the parent first, even pairs the change.  Then it runs
``gate_digests.py`` beside this script on each side's ``src/`` and
reports whether the 36 digests are equal.

It prints, or writes to ``--out``, a JSON document in the layout of the
``BENCH_*.json`` records: ``host``, ``command``, ``method``, ``bytes`` and
``runs``.  Per workload, ``runs`` gives the pairs, per side the failed
and attempted experiments and the crashed runs (a run that exits non-zero
or prints no result), whether every run passed perfbench's checks, and
per end-to-end metric the pairs in which both sides report it, both
sides' medians and interquartile ranges (25th and 75th percentiles) over
those pairs, ``change_better_pairs`` (pairs the change wins in the
metric's ``better`` direction; ties count for neither) and
``rel_change_pct``, ``(change - parent) / parent`` of the medians, and
a ``verdict``, the first of these that holds:

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


def order(pair: int) -> tuple[str, str]:
    """The sides of 1-based ``pair`` in the order they run."""
    return SIDES if pair % 2 else SIDES[::-1]


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
    which both sides report it.
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
        entry[name] = {
            "pairs": len(pairs),
            "parent_median": round(p_med, 6),
            "change_median": round(c_med, 6),
            "parent_iqr": [round(q, 6) for q in _quartiles(before)],
            "change_iqr": [round(q, 6) for q in _quartiles(after)],
            "change_better_pairs": sum(sign * (c - p) > 0 for p, c in pairs),
            "rel_change_pct": rel,
            "verdict": verdict(before, after, metric["better"], metric["bound"]),
        }
    return entry


def gate_digests(directory: Path) -> dict[str, str]:
    """The 36 gate digests of ``directory``'s package."""
    env = {**os.environ, "PYTHONPATH": str(directory / "src")}
    done = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "gate_digests.py")],
        env=env, capture_output=True, text=True, check=True,
    )
    return json.loads(done.stdout)


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

    digests = {side: gate_digests(dirs[side]) for side in SIDES}
    differing = sorted(
        k for k in set(digests["parent"]) | set(digests["change"])
        if digests["parent"].get(k) != digests["change"].get(k)
    )
    document = {
        "host": {
            "cores": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "numpy": np.__version__,
            "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS", "unset (inherited)"),
        },
        "command": command,
        "method": (
            f"{PAIRS} order-alternating pairs of parent and change per workload, each "
            "side in its own copy of the files, workloads in turn; odd pairs (1-based) run the "
            "parent first. Medians over the pairs in which both sides report the metric; "
            "parent_iqr/change_iqr are the 25th and 75th percentiles of each side's runs over "
            "those pairs; change_better_pairs counts pairs the change wins (ties count for "
            "neither); rel_change_pct is (change - parent) / parent of the medians; verdict is "
            "gain (at least 9/10 pairs won and a median gap wider than the parent's IQR), "
            "worse (median worse by more than the metric's bound), unresolved (parent IQR "
            "wider than the bound) or within_bound, the first that holds."
        ),
        "bytes": {
            "gate_digests": len(digests["change"]),
            "equal": not differing,
            "differing": differing,
        },
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
