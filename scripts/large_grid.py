"""Time the large-grid runs and digest their traces, one JSON line per run.

Three ``synthetic-2d`` runs in scenario mode, each through ``run_single``
in a fresh interpreter:

* 300 x 300, seed 2, 200 iterations: the set stage at scale;
* the same at seed 1;
* 150 x 150, seed 2, 1000 iterations: the GP append over a long horizon.

Each line gives the run, the wall time of ``run_single``, the peak RSS of
its process (``ru_maxrss``), the iterations, the termination reason, the
final safe-set size, the true reward at the reported point and the sha256
of the run's CSV, the bytes ``safebo run`` writes for it.  The gate
batteries (``gate_digests.py``) stop at 40 x 40; equal digests here mean
byte-identical traces at scale.

``safebo`` is imported from ``PYTHONPATH``, so the same script measures
any checkout; run from the repository root:

    PYTHONPATH=src python3 scripts/large_grid.py
    PYTHONPATH=/path/to/other/checkout/src python3 scripts/large_grid.py

The BLAS thread setting, the malloc environment and the interpreter's
``-W`` warning options are inherited.
"""

from __future__ import annotations

import json
import subprocess
import sys

RUNS = (
    {"resolution": 300, "seed": 2, "max_iterations": 200},
    {"resolution": 300, "seed": 1, "max_iterations": 200},
    {"resolution": 150, "seed": 2, "max_iterations": 1000},
)

# One run, described by the JSON in its first argument.
CHILD = """
import hashlib
import json
import resource
import sys
import time

from safebo import harness

run = json.loads(sys.argv[1])
overrides = {
    "domain": {"bounds": [[0.0, 1.0], [0.0, 1.0]], "resolution": [run["resolution"]] * 2},
    "seeds": [run["seed"]],
    "max_iterations": run["max_iterations"],
}
config = harness.ExperimentConfig.from_preset("synthetic-2d", overrides)
start = time.perf_counter()
trace = harness.run_single(config, run["seed"], "scenario")
wall = time.perf_counter() - start
csv = "\\n".join(harness.trace_csv_lines(trace)) + "\\n"
print(json.dumps({
    **run,
    "wall_s": round(wall, 3),
    "peak_rss_mb": round(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1),
    "iterations": trace.iterations,
    "termination": trace.termination_reason,
    "final_safe_size": trace.final_safe_size,
    "best_true_reward": trace.final_best_true_reward,
    "csv_sha256": hashlib.sha256(csv.encode("utf-8")).hexdigest(),
}), flush=True)
"""


def results():
    """Each run's line, parsed, in the order of ``RUNS``."""
    for run in RUNS:
        child = subprocess.run(
            [sys.executable, *(f"-W{option}" for option in sys.warnoptions), "-c", CHILD,
             json.dumps(run)],
            check=True,
            stdout=subprocess.PIPE,
            text=True,
        )
        yield json.loads(child.stdout)


def main() -> None:
    for result in results():
        print(json.dumps(result), flush=True)


if __name__ == "__main__":
    main()
