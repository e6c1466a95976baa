"""The byte-gate scripts under ``scripts/`` and the digests they record.

``gate_digests.py`` loads ``perfbench/run.py`` by path and reads its
workloads, so a rename there would break the gate with nothing else
failing; ``large_grid.py`` runs its child program from a string.  Both
scripts' output is compared with ``scripts/gate_digests.json``: the 36
gate files on every run, the three large-grid runs (about 16 s) only
under ``pytest -m large_grid``.
"""

import importlib.util
import json
import os
from pathlib import Path

import numpy as np
import pytest

import safebo
from safebo import harness

ROOT = Path(__file__).resolve().parent.parent
RECORDED = json.loads((ROOT / "scripts" / "gate_digests.json").read_text(encoding="utf-8"))


def load_script(name):
    spec = importlib.util.spec_from_file_location(name, ROOT / "scripts" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_gate_digests_yields_its_twelve_batteries():
    gate = load_script("gate_digests")
    batteries = list(gate.batteries())
    presets = [
        f"{preset}/s{seed}"
        for preset in ("paper-synthetic-1", "paper-synthetic-2", "synthetic-2d")
        for seed in (0, 1, 2)
    ]
    workloads = ["heavy-tail-1d", "wide-grid-1d", "two-output-2d"]
    assert sorted(name for name, _ in batteries) == sorted(workloads + presets)
    for name, document in batteries:
        config = harness.ExperimentConfig.from_dict(document)
        if name in presets:
            assert config.seeds == (int(name[-1]),)


def differing_message(differing):
    return (
        f"{len(differing)} differ from scripts/gate_digests.json: {', '.join(differing)}; "
        f"recorded with numpy {RECORDED['numpy']}, run with numpy {np.__version__}"
    )


def test_gate_batteries_emit_the_recorded_bytes():
    actual, recorded = load_script("gate_digests").digests(), RECORDED["batteries"]
    assert len(recorded) == 36
    differing = sorted(
        name for name in actual.keys() | recorded.keys() if actual.get(name) != recorded.get(name)
    )
    assert not differing, differing_message(differing)


@pytest.mark.large_grid
def test_large_grid_runs_emit_the_recorded_bytes(monkeypatch):
    # The child interpreters import the safebo these tests import.
    src = str(Path(safebo.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    monkeypatch.setenv("PYTHONPATH", path)
    keys = ("resolution", "seed", "max_iterations", "final_safe_size", "csv_sha256")
    actual = [{key: result[key] for key in keys} for result in load_script("large_grid").results()]
    differing = [
        f"{run['resolution']}^2 seed {run['seed']}"
        for run, recorded in zip(actual, RECORDED["large_grid"], strict=True)
        if run != recorded
    ]
    assert not differing, differing_message(differing)


def test_large_grid_child_compiles():
    large = load_script("large_grid")
    compile(large.CHILD, "large_grid.CHILD", "exec")
    assert [run["resolution"] for run in large.RUNS] == [300, 300, 150]
