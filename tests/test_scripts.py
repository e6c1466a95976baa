"""The byte-gate scripts under ``scripts/`` still load what they run, without running it.

``gate_digests.py`` loads ``perfbench/run.py`` by path and reads its
workloads, so a rename there would break the gate with nothing else
failing; ``large_grid.py`` runs its child program from a string.
"""

import importlib.util
from pathlib import Path

from safebo import harness

ROOT = Path(__file__).resolve().parent.parent


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


def test_large_grid_child_compiles():
    large = load_script("large_grid")
    compile(large.CHILD, "large_grid.CHILD", "exec")
    assert [run["resolution"] for run in large.RUNS] == [300, 300, 150]
