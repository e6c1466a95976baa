import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import safebo

MODULES = ["safebo"] + [
    f"safebo.{info.name}" for info in pkgutil.iter_modules(safebo.__path__)
]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    missing = [attr for attr in exported if not hasattr(module, attr)]
    assert missing == []
    assert len(set(exported)) == len(exported)


RUN_WITHOUT_SCIPY = """
import sys

import numpy as np

import safebo
import safebo.cli
import safebo.harness
from safebo import Domain, Kernel, OptimizerConfig, SafeOptimizer, ScenarioSchedule, uniform

domain = Domain.grid([(0.0, 1.0), (0.0, 1.0)], 12)
config = OptimizerConfig(
    norm_bounds=(1.0,),
    regularization=0.01,
    exploration_threshold=1e-3,
    schedule=ScenarioSchedule(0.1, 1e-3, 1),
    max_iterations=8,
    initial_safe=(78,),
)
state = SafeOptimizer(Kernel(lengthscale=0.3), domain, config).run(
    lambda p: np.array([0.8 - np.sum((p - 0.5) ** 2)]),
    uniform(-1e-3, 1e-3),
    np.random.default_rng(0),
)
assert len(state.records) == 8 and state.safe.sum() > 1
print(sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
"""


def test_runtime_loads_no_scipy():
    # A fresh interpreter: the test session itself imports scipy.
    src = str(Path(safebo.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    done = subprocess.run(
        [sys.executable, "-c", RUN_WITHOUT_SCIPY], env=env, capture_output=True, text=True
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"
