"""The benchmark under ``perfbench/`` still finds every function it measures.

The benchmark traces the package from outside, by module, attribute and
argument name, so renaming or re-signing a hooked function silently
breaks it.  Both checks run in subprocesses, as the benchmark does, and
only read ``perfbench/``.
"""

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
