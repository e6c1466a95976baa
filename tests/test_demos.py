"""Smoke test: every narrative demo, and the README quickstart, runs to completion."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
README = ROOT / "README.md"


def test_demos_found():
    assert len(DEMOS) >= 7


def readme_quickstart() -> str:
    """The ``python`` block under the README's "Library quickstart" heading."""
    section = README.read_text(encoding="utf-8").split("## Library quickstart\n", 1)[1]
    return section.split("```python\n", 1)[1].split("```", 1)[0]


@pytest.mark.parametrize(
    "demo", DEMOS + [README], ids=[d.stem for d in DEMOS] + ["readme_quickstart"]
)
def test_demo_exits_cleanly(demo, tmp_path):
    if demo == README:
        demo = tmp_path / "quickstart.py"
        demo.write_text(readme_quickstart(), encoding="utf-8")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    done = subprocess.run(
        [sys.executable, str(demo)],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert done.returncode == 0, done.stderr[-2000:]
