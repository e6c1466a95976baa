"""The benchmark under ``perfbench/`` still finds every function it measures.

The benchmark traces the package from outside, by module, attribute and
argument name, so renaming or re-signing a hooked function silently
breaks it.  Renaming an argument or attribute that a metric's value
reads (``bounded``, ``self.t``, ``size``, ``schedule``) only shows when
a traced battery runs, so one tiny battery runs traced here.  The checks
run in subprocesses, as the benchmark does, and only read ``perfbench/``.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "perfbench"


def run_python(args, cwd):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    return subprocess.run(
        [sys.executable, *args], cwd=cwd, env=env, capture_output=True, text=True, timeout=300
    )


def test_selftest_passes():
    done = run_python([str(BENCH / "selftest.py")], ROOT)
    assert done.returncode == 0, done.stdout[-2000:] + done.stderr[-2000:]


def test_every_hook_resolves():
    code = (
        "from layers import BOUNDARIES, LAYERS\n"
        "from tracer import Tracer\n"
        "with Tracer(LAYERS + BOUNDARIES) as tracer:\n"
        "    print(tracer.missing)\n"
    )
    done = run_python(["-c", code], BENCH)
    assert done.returncode == 0, done.stderr[-2000:]
    assert done.stdout.strip() == "[]"


def test_traced_battery_reports_every_layer(tmp_path):
    from safebo.harness import PRESETS

    document = json.loads(json.dumps(PRESETS["paper-synthetic-1"]))
    document.update(seeds=[0], max_iterations=10, beta_modes=["scenario", "classic_subgaussian"])
    done = subprocess.run(
        [sys.executable, str(BENCH / "repetition.py"), "--out", str(tmp_path), "--trace", "1"],
        input=json.dumps(document), cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr[-2000:]
    result = json.loads(done.stdout.splitlines()[-1])
    assert result["missing"] == []
    code = "from layers import LAYERS\nprint(' '.join(metric.name for metric in LAYERS))\n"
    names = run_python(["-c", code], BENCH).stdout.split()
    assert names and [name for name in names if name not in result["figures"]] == []
