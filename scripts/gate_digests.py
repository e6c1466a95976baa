"""Print the gate record, ``gate_digests.json``, as one JSON document.

The gate batteries are the three benchmark workloads as
``perfbench/run.py --seed 0`` builds them (``workload_document(name, 0)``),
and the presets ``paper-synthetic-1``, ``paper-synthetic-2`` and
``synthetic-2d`` at seeds 0, 1 and 2, each seed emitted on its own: 36
files from 24 runs.  Each battery runs through the calls ``safebo run``
makes, into a temporary directory that is removed afterwards.

The document holds:

* ``numpy`` and ``build``: the numpy version and :func:`build_fingerprint`
  of the build that produced it;
* ``batteries``: the sha256 of every file, keyed ``<battery>/<file>``;
* ``decisions``: per run, keyed ``<battery>/<csv name without .csv>``, what
  the loop decided (the acquired grid indices, safe-set sizes and scenario
  counts per step, the termination and the violation count) and two
  floats, the final multiplier per output and ``final_best_lower``;
* ``large_grid``: the three ``large_grid.py`` runs' sizes, final safe-set
  sizes and CSV digests.

``safebo`` is imported from ``PYTHONPATH``, so the same script records any
checkout; run from the repository root, this re-records the file:

    PYTHONPATH=src python3 scripts/gate_digests.py > scripts/gate_digests.json

Equal digests mean byte-identical emitted files, which hold on one numpy
and BLAS build.  The decisions hold across builds: ``tests/test_scripts.py``
compares them exactly and the two floats within a relative
``DECISION_RTOL``, from the same battery run as the digests.  It compares
the large-grid runs only under ``pytest -m large_grid``, and names both
fingerprints when bytes differ.  A change that alters emitted bytes
re-records the file in the same commit and says why in CHANGES.md.  The
BLAS thread setting is inherited; the record does not depend on it.
"""

from __future__ import annotations

import ctypes
import hashlib
import importlib.util
import json
import math
import re
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
PRESETS = ("paper-synthetic-1", "paper-synthetic-2", "synthetic-2d")
SEEDS = (0, 1, 2)
# The large-grid fields recorded: the run's size and what its bytes decide.
LARGE_GRID_KEYS = ("resolution", "seed", "max_iterations", "final_safe_size", "csv_sha256")
# Relative tolerance of a decision record's floats.  Across the four
# OpenBLAS kernels and numpy's two SIMD levels this host can run, they
# move by at most 6.2e-14; the multipliers once moved by 2.5e-11, before
# they read the trace bound.  1e-9 is 40 times the larger figure, and the
# tie tolerance ROADMAP item 1 proposes.
DECISION_RTOL = 1e-9
# Runs that pick among candidates of bit-equal width at the given step, by
# their posterior stds' last ulp: from that step on, another build may
# decide otherwise.
KNOWN_TIES = {"synthetic-2d/s2/run_s2_scenario": 80}
# A decision record's per-step lists.
STEPWISE = ("points", "safe_sizes", "scenarios")


def build_fingerprint() -> dict:
    """The numpy build's enabled SIMD dispatch targets and its OpenBLAS core.

    Both pick the machine code numpy and its BLAS run, so the same numpy
    version can round differently on another host.  The core is read from
    the OpenBLAS bundled in ``numpy.libs``; it is ``"unknown"`` where that
    library or its ``scipy_openblas_get_corename64_`` is missing.  It
    needs numpy only: ``safebo`` is imported where the batteries run, so
    ``compare.py`` loads this script without it.
    """
    from numpy._core import _multiarray_umath as umath

    dispatch = [name for name in umath.__cpu_dispatch__ if umath.__cpu_features__.get(name)]
    core = "unknown"
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(libs.glob("libscipy_openblas64_*.so")):
        try:
            corename = ctypes.CDLL(str(path)).scipy_openblas_get_corename64_
        except (OSError, AttributeError):
            continue
        corename.restype = ctypes.c_char_p
        core = corename().decode()
        break
    return {"dispatch": dispatch, "openblas_core": core}


def perfbench_run():
    """``perfbench/run.py`` as a module, without putting ``perfbench`` on the path."""
    spec = importlib.util.spec_from_file_location("perfbench_run", ROOT / "perfbench" / "run.py")
    module = importlib.util.module_from_spec(spec)
    # Its dataclasses look their module up by name.
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


def batteries():
    """``(name, config document)`` of every gate battery."""
    from safebo import harness

    run = perfbench_run()
    for name in run.WORKLOADS:
        yield name, run.workload_document(name, 0)
    for preset in PRESETS:
        for seed in SEEDS:
            document = json.loads(json.dumps(harness.PRESETS[preset]))
            document["seeds"] = [seed]
            yield f"{preset}/s{seed}", document


def decision(trace, index: dict) -> dict:
    """What one run decided; ``index`` maps a grid point's coordinates to
    its grid index."""
    records = trace.records
    return {
        "points": [index[rec.point] for rec in records],
        "safe_sizes": [rec.safe_size for rec in records],
        "scenarios": [rec.n_scenarios for rec in records],
        "termination": trace.termination_reason,
        "violations": trace.violation_count,
        "final_betas": list(records[-1].betas) if records else [],
        "final_best_lower": trace.final_best_lower,
    }


def _first_step(mine: list, theirs: list) -> int:
    """The 1-based step at which two different per-step lists first differ."""
    first = next((i for i, (a, b) in enumerate(zip(mine, theirs)) if a != b), None)
    return (min(len(mine), len(theirs)) if first is None else first) + 1


def decision_differences(actual: dict, recorded: dict) -> list[str]:
    """One line per run whose decisions differ from the record.

    Steps, termination, violations and the number of final multipliers
    must be equal; the final multipliers and ``final_best_lower`` equal
    within ``DECISION_RTOL``.  A run of ``KNOWN_TIES`` whose steps first
    differ at its tie step or later is not a difference.
    """
    out = []
    for name in sorted(actual.keys() | recorded.keys()):
        if name not in actual or name not in recorded:
            out.append(f"{name}: {'not run' if name in recorded else 'not recorded'}")
            continue
        mine, theirs = actual[name], recorded[name]
        step = min(
            (_first_step(mine[key], theirs[key]) for key in STEPWISE if mine[key] != theirs[key]),
            default=None,
        )
        if step is not None and step >= KNOWN_TIES.get(name, math.inf):
            continue
        if step is not None:
            out.append(f"{name}: differs from step {step}")
        for key in ("termination", "violations"):
            if mine[key] != theirs[key]:
                out.append(f"{name}: {key} {mine[key]!r}, recorded {theirs[key]!r}")
        counts = len(mine["final_betas"]), len(theirs["final_betas"])
        floats = zip(mine["final_betas"] + [mine["final_best_lower"]],
                     theirs["final_betas"] + [theirs["final_best_lower"]])
        if counts[0] != counts[1]:
            out.append(f"{name}: {counts[0]} final betas, recorded {counts[1]}")
        elif not all(math.isclose(a, b, rel_tol=DECISION_RTOL, abs_tol=0.0) for a, b in floats):
            out.append(f"{name}: final betas or best lower beyond a relative {DECISION_RTOL:g}")
    return out


def run_gates() -> tuple[dict[str, str], dict[str, dict]]:
    """Every gate battery, run once: ``(batteries, decisions)`` of the record."""
    from safebo import harness

    digests, decisions = {}, {}
    for name, document in batteries():
        config = harness.ExperimentConfig.from_dict(document)
        result = harness.run_experiment(config, jobs=1)
        points = config.build_domain().points.tolist()
        index = {tuple(point): i for i, point in enumerate(points)}
        for trace in result.traces:
            decisions[f"{name}/run_s{trace.seed}_{trace.beta_mode}"] = decision(trace, index)
        with tempfile.TemporaryDirectory() as directory:
            for path in sorted(harness.emit(result, directory)):
                digests[f"{name}/{path.name}"] = hashlib.sha256(path.read_bytes()).hexdigest()
    return digests, decisions


def large_grid_entries() -> list[dict]:
    """The recorded fields of each ``large_grid.py`` run, in its order."""
    spec = importlib.util.spec_from_file_location("large_grid", ROOT / "scripts" / "large_grid.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return [{key: run[key] for key in LARGE_GRID_KEYS} for run in module.results()]


def main() -> None:
    digests, decisions = run_gates()
    document = {
        "numpy": np.__version__,
        "build": build_fingerprint(),
        "batteries": digests,
        "decisions": decisions,
        "large_grid": large_grid_entries(),
    }
    # Each list of numbers on one line, so a re-recorded run reads as a
    # changed line; floats keep their repr, which reads back exactly.
    text = re.sub(
        r"\[[^\[\]{}\"]*\]",
        lambda match: json.dumps(json.loads(match.group(0))),
        json.dumps(document, indent=2),
    )
    print(text)


if __name__ == "__main__":
    main()
