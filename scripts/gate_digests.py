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
is inherited.
"""

from __future__ import annotations

import hashlib
import importlib.util
import json
import sys
import tempfile
from pathlib import Path

from safebo import harness

ROOT = Path(__file__).resolve().parent.parent
PRESETS = ("paper-synthetic-1", "paper-synthetic-2", "synthetic-2d")
SEEDS = (0, 1, 2)


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
    run = perfbench_run()
    for name in run.WORKLOADS:
        yield name, run.workload_document(name, 0)
    for preset in PRESETS:
        for seed in SEEDS:
            document = json.loads(json.dumps(harness.PRESETS[preset]))
            document["seeds"] = [seed]
            yield f"{preset}/s{seed}", document


def main() -> None:
    digests = {}
    for name, document in batteries():
        result = harness.run_experiment(harness.ExperimentConfig.from_dict(document), jobs=1)
        with tempfile.TemporaryDirectory() as out:
            for path in sorted(harness.emit(result, out)):
                digests[f"{name}/{path.name}"] = hashlib.sha256(path.read_bytes()).hexdigest()
    print(json.dumps(digests, indent=2))


if __name__ == "__main__":
    main()
