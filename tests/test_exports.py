import importlib
import json
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


RUN_ON_NUMPY_ONLY = """
import json
import sys

started_with = set(sys.modules)

import numpy as np

import safebo
import safebo.cli
import safebo.harness
from safebo import Domain, Kernel, OptimizerConfig, SafeOptimizer, ScenarioSchedule, uniform
from safebo.harness import ExperimentConfig, run_experiment

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
    lambda i: np.array([0.8 - np.sum((domain.points[i] - 0.5) ** 2)]),
    uniform(-1e-3, 1e-3),
    np.random.default_rng(0),
)
assert len(state.records) == 8 and state.safe.sum() > 1
battery = ExperimentConfig.from_preset(
    "paper-synthetic-1", {"seeds": [0], "max_iterations": 5, "beta_modes": ["scenario"]}
)
assert run_experiment(battery, jobs=1).traces[0].iterations > 0

# Cython's extension modules register helper modules that no import made;
# they carry no module spec.
loaded = {
    name.split(".")[0]
    for name, module in sys.modules.items()
    if name not in started_with and getattr(module, "__spec__", None) is not None
}
print(json.dumps({
    "third_party": sorted(loaded - set(sys.stdlib_module_names)),
    "forbidden": sorted({"jsonschema", "concurrent.futures", "scipy"} & set(sys.modules)),
}))
"""


def test_runtime_loads_no_scipy():
    # A fresh interpreter: the test session itself imports scipy and
    # jsonschema.  Beyond the standard library, the runtime, a one-process
    # battery included, loads numpy and nothing else; the process pool is
    # imported only for jobs > 1.
    src = str(Path(safebo.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    done = subprocess.run(
        [sys.executable, "-c", RUN_ON_NUMPY_ONLY], env=env, capture_output=True, text=True
    )
    assert done.returncode == 0, done.stderr
    report = json.loads(done.stdout)
    assert report["third_party"] == ["numpy", "safebo"]
    assert report["forbidden"] == []
