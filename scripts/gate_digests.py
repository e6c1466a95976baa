"""Print the sha256 digest of every gate-battery file as one JSON object.

The gate batteries are the three benchmark workloads as
``perfbench/run.py --seed 0`` builds them (``workload_document(name, 0)``),
and the presets ``paper-synthetic-1``, ``paper-synthetic-2`` and
``synthetic-2d`` at seeds 0, 1 and 2, each seed emitted on its own: 36
files.  Each battery runs through the calls ``safebo run`` makes, into a
temporary directory that is removed afterwards.  Keys are
``<battery>/<file>``.

``safebo`` is imported from ``PYTHONPATH``, so the same script digests any
checkout; run from the repository root:

    PYTHONPATH=src python3 scripts/gate_digests.py
    PYTHONPATH=/path/to/other/checkout/src python3 scripts/gate_digests.py

Equal output means byte-identical emitted files.  The BLAS thread setting
is inherited; the digests do not depend on it.

``gate_digests.json`` beside this script records the expected digests:
these 36 under ``batteries``, the three ``large_grid.py`` runs' CSV
digests and final safe-set sizes under ``large_grid``, and the numpy
version and :func:`build_fingerprint` of the build that produced them.
``tests/test_scripts.py`` compares both against fresh runs, the
large-grid runs only under ``pytest -m large_grid``, and names both
fingerprints when they differ.  A change that alters emitted bytes
re-records the file in the same commit, from this script's and
``large_grid.py``'s output, and says why in CHANGES.md.
"""

from __future__ import annotations

import ctypes
import hashlib
import importlib.util
import json
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
PRESETS = ("paper-synthetic-1", "paper-synthetic-2", "synthetic-2d")
SEEDS = (0, 1, 2)


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


def digests() -> dict[str, str]:
    """sha256 of every gate-battery file, keyed ``<battery>/<file>``."""
    from safebo import harness

    out = {}
    for name, document in batteries():
        result = harness.run_experiment(harness.ExperimentConfig.from_dict(document), jobs=1)
        with tempfile.TemporaryDirectory() as directory:
            for path in sorted(harness.emit(result, directory)):
                out[f"{name}/{path.name}"] = hashlib.sha256(path.read_bytes()).hexdigest()
    return out


def main() -> None:
    print(json.dumps(digests(), indent=2))


if __name__ == "__main__":
    main()
