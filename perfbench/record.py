"""Record reference digests: ``python3 perfbench/record.py``.

Runs every seed rotation of every workload's battery once, untraced, and
stores the sha256 of each emitted file in ``reference.json`` under the
current BLAS setting, together with the facts of the machine it ran on.
Settings recorded earlier are kept.  Re-record when a change is meant to
alter emitted bytes, and state the change with it.
"""

from __future__ import annotations

import json
import os
import platform
import shutil
import sys
from pathlib import Path

import repetition
import run

NOTE = (
    "The BLAS thread count changes both the speed and the emitted bytes: "
    "with two OpenBLAS threads on two cores the heavy-tail-1d battery took "
    "about 3x as long as with OPENBLAS_NUM_THREADS=1, and the two-output-2d "
    "and wide-grid-1d digests differed between the two settings.  Digests "
    "are therefore keyed by the BLAS build and the inherited thread "
    "environment; within one setting, repeated runs are byte-identical."
)


def caches() -> dict:
    """Sizes of the unified L2 and L3 caches, as the kernel reports them."""
    out = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        level = (index / "level").read_text().strip()
        if level in ("2", "3") and (index / "type").read_text().strip() == "Unified":
            out[f"l{level}_cache"] = (index / "size").read_text().strip()
    return out


def machine() -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    with open("/proc/cpuinfo", encoding="utf-8") as cpuinfo:
        models = [line.split(":", 1)[1].strip() for line in cpuinfo if line.startswith("model name")]
    return {
        "cpu": models[0] if models else platform.processor(),
        "nproc": len(os.sched_getaffinity(0)),
        **caches(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": {key: blas.get(key) for key in ("name", "version", "openblas configuration")},
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS", "unset"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS", "unset"),
    }


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    import checks
    from tracer import Tracer

    path = run.BENCH / "reference.json"
    reference = json.loads(path.read_text(encoding="utf-8"))
    setting = run.blas_setting()
    batteries = reference["digests"].setdefault(setting, {})
    reference.setdefault("machines", {})[setting] = machine()
    reference["note"] = NOTE
    out_dir = run.OUT / "record"
    try:
        for workload in run.WORKLOADS:
            seeds = run.workload_document(workload, 0)["seeds"]
            for seed in range(len(seeds)):
                document = run.workload_document(workload, seed)
                shutil.rmtree(out_dir, ignore_errors=True)
                repetition.run_battery(document, out_dir, Tracer([]))
                summary, tables = checks.read_outputs(out_dir)
                problems = checks.run_problems(summary, tables)
                if problems:
                    print(f"{workload}: output checks failed: {problems}", file=sys.stderr)
                    return 1
                key = run.battery_key(workload, document)
                batteries[key] = checks.digests(out_dir)
                print(f"recorded {key}")
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
    path.write_text(json.dumps(reference, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
