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


def perfbench_result(metrics, correct=True, failed=0):
    """One ``perfbench/run.py`` result holding ``metrics``, six runs attempted."""
    return {
        "correct": correct,
        "attempted": 6,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": "-"} for name, value in metrics.items()},
    }


def test_compare_summarizes_pairs_on_fixed_inputs():
    compare = load_script("compare")
    assert [compare.order(pair) for pair in (1, 2, 3)] == [
        ("parent", "change"), ("change", "parent"), ("parent", "change")
    ]
    metrics = [
        {"name": "wall_s", "better": "lower", "bound": 0.25},
        {"name": "experiments_per_s", "better": "higher", "bound": 0.25},
        {"name": "coverage", "better": "higher", "bound": 0.01},
        {"name": "regret", "better": "lower", "bound": 0.01},
        {"name": "step_ms_p50", "better": "lower", "bound": 0.25},
        {"name": "setup_s", "better": "lower", "bound": 0.25},
        {"name": "step_ms_tail", "better": "lower", "bound": 0.25},
        {"name": "peak_rss_mb", "better": "lower", "bound": 0.05},
    ]
    parent = [
        {"wall_s": w, "experiments_per_s": 10.0, "coverage": 0.5, "regret": 0.0, "step_ms_p50": 1.0,
         "step_ms_tail": tail, "peak_rss_mb": 40.0}
        for w, tail in ((1.0, 2.0), (2.0, 2.1), (3.0, 2.2), (4.0, 2.3))
    ]
    change = [
        {"wall_s": w, "experiments_per_s": e, "coverage": 0.5, "regret": 0.0, "step_ms_p50": s,
         "step_ms_tail": tail, "peak_rss_mb": 43.0}
        for w, e, s, tail in (
            (0.5, 11.0, 0.8, 1.0), (2.0, 9.0, 0.9, 1.1), (3.5, 10.0, 1.0, 1.2), (1.0, 12.0, 2.0, 1.3)
        )
    ]
    # The change's third run failed its checks and reports no step latency.
    del change[2]["step_ms_p50"]
    results = {
        "parent": [perfbench_result(m) for m in parent],
        "change": [perfbench_result(m, correct=i != 2, failed=int(i == 2))
                   for i, m in enumerate(change)],
    }
    # A fifth pair in which the parent's run crashed.
    results["parent"].append(
        {"correct": False, "crashed": True, "attempted": 0, "failed": 0, "metrics": {}}
    )
    results["change"].append(perfbench_result({"wall_s": 0.1, "step_ms_p50": 0.1}))
    entry = compare.summarize(results, metrics)

    assert entry["pairs"] == 5 and entry["correct"] is False
    assert entry["failed"] == {"parent": 0, "change": 1}
    assert entry["crashed"] == {"parent": 1, "change": 0}
    assert entry["attempted"] == {"parent": 24, "change": 30}
    # Ties count for neither side; lower is better for wall time.  The
    # crashed pair reports nothing, so wall time is compared over four.
    assert entry["wall_s"] == {
        "pairs": 4, "parent_median": 2.5, "change_median": 1.5,
        "parent_iqr": [1.75, 3.25], "change_iqr": [0.875, 2.375],
        "change_better_pairs": 2, "rel_change_pct": -40.0, "verdict": "unresolved",
    }
    assert entry["experiments_per_s"]["change_better_pairs"] == 2
    assert entry["experiments_per_s"]["rel_change_pct"] == 5.0
    for name in ("coverage", "regret"):
        assert entry[name]["change_better_pairs"] == 0 and entry[name]["rel_change_pct"] == 0.0
    # Compared over the three pairs that report it on both sides.
    assert entry["step_ms_p50"]["pairs"] == 3
    assert entry["step_ms_p50"]["change_median"] == 0.9
    assert entry["step_ms_p50"]["change_better_pairs"] == 2
    assert entry["step_ms_p50"]["rel_change_pct"] == -10.0
    # No pair reports it: no entry.
    assert "setup_s" not in entry
    # Verdicts: every pair won by more than the parent's IQR of 0.15 ms; 7.5%
    # more memory against a 5% bound; wall time's IQR (60% of its median) is
    # wider than its bound; the rest move less than their bounds.
    assert entry["step_ms_tail"]["verdict"] == "gain"
    assert entry["peak_rss_mb"]["verdict"] == "worse"
    for name in ("experiments_per_s", "coverage", "regret", "step_ms_p50"):
        assert entry[name]["verdict"] == "within_bound", name

    # A gain needs 9 of every 10 pairs and a median gap wider than the
    # parent's IQR: 8 of 10 or a gap of exactly the IQR is no gain.
    parent_runs = [1.0 + 0.01 * i for i in range(10)]
    faster = [p - 0.1 for p in parent_runs]
    assert compare.verdict(parent_runs, faster, "lower", 0.25) == "gain"
    assert compare.verdict(parent_runs, faster[:9] + [1.2], "lower", 0.25) == "gain"
    assert compare.verdict(parent_runs, faster[:8] + [1.2, 1.2], "lower", 0.25) == "within_bound"
    assert compare.verdict([1.0, 2.0, 3.0], [0.0, 1.0, 2.0], "lower", 1.0) == "within_bound"
    assert compare.verdict([1.0, 2.0, 3.0], [1.1, 2.1, 3.1], "higher", 1.0) == "within_bound"
    # Worse by more than the bound, relative to the parent's median, in
    # either direction; a median that barely moves within a wide IQR is
    # unresolved.
    assert compare.verdict([10.0] * 10, [10.6] * 10, "lower", 0.05) == "worse"
    assert compare.verdict([10.0] * 10, [10.4] * 10, "lower", 0.05) == "within_bound"
    assert compare.verdict([10.0] * 10, [9.4] * 10, "higher", 0.05) == "worse"
    assert compare.verdict([8.0, 10.0, 12.0], [10.0] * 3, "lower", 0.05) == "unresolved"


def test_compare_counts_a_run_that_prints_no_result_as_crashed(tmp_path):
    # No perfbench/run.py here: the interpreter exits non-zero at once.
    compare = load_script("compare")
    assert compare.run_once(tmp_path, "heavy-tail-1d") == {
        "correct": False, "crashed": True, "attempted": 0, "failed": 0, "metrics": {}
    }
