"""Import budgets: each process loads only the modules it runs.

Every case runs in a fresh interpreter, because this test process has
long since imported everything.  ``repro route`` must not load numpy,
and a serving or predicting engine must not load the training, data,
analysis or simulation code.
"""

import importlib.metadata
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.embedded import DeployedModel
from repro.zoo import build_arch1, build_fftnet

SRC = str(Path(repro.__file__).resolve().parent.parent)


def run_fresh(code: str):
    """Run ``code`` in a fresh interpreter; the JSON value of ``result``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    done = subprocess.run(
        [sys.executable, "-c",
         code + "\nimport json; print(json.dumps(result))"],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


def loaded_after(code: str) -> set[str]:
    """``sys.modules`` of a fresh interpreter after it runs ``code``."""
    return set(run_fresh(code + "\nimport sys; result = sorted(sys.modules)"))


def test_import_repro_loads_no_numpy():
    assert "numpy" not in loaded_after("import repro")


def test_route_path_loads_no_numpy_and_no_engine():
    loaded = loaded_after(
        "import repro.cli, repro.router\n"
        "from repro.router import RouterConfig, RouterServer\n"
        "from repro.serving import DEFAULT_PORT"
    )
    assert "repro.router.server" in loaded
    for name in ("numpy", "repro.runtime", "repro.engine", "repro.nn"):
        assert name not in loaded


#: Training, data, analysis and simulation code no inference needs.
NOT_ON_THE_ENGINE_PATH = (
    "repro.pipeline",
    "repro.data",
    "repro.zoo",
    "repro.router",
    "repro.io.arch_parser",
    "repro.io.model_builder",
    "repro.io.params",
    "repro.analysis.numerics",
    "repro.analysis.storage",
    "repro.analysis.truenorth",
    "repro.embedded.cost_model",
    "repro.embedded.energy",
    "repro.embedded.profiler",
    "repro.embedded.runtime_model",
    "repro.embedded.platform",
    "repro.embedded.memory",
    "repro.nn.optim",
    "repro.nn.trainer",
    "repro.nn.losses",
    "repro.nn.convert",
    "repro.nn.callbacks",
    "repro.nn.metrics",
)


def test_engine_predict_and_stream_load_no_training_stack(tmp_path):
    fc, wave = tmp_path / "fc.npz", tmp_path / "wave.npz"
    rng = np.random.default_rng(0)
    DeployedModel.from_model(build_arch1(rng=rng).eval()).save(fc)
    DeployedModel.from_model(
        build_fftnet(channels=4, depth=2, classes=3, rng=rng).eval()
    ).save(wave)
    loaded = loaded_after(
        "import numpy as np\n"
        "from repro.engine import Engine, EngineConfig\n"
        f"models = {{'fc': {str(fc)!r}, 'wave': {str(wave)!r}}}\n"
        "with Engine(EngineConfig(models=models, default_model='fc')) as e:\n"
        "    e.predict(np.zeros((2, 256)))\n"
        "    wave = e.session('wave')\n"
        "    wave.push(wave.open(), np.zeros((4, 1)))"
    )
    assert "repro.streaming.state" in loaded
    assert sorted(set(NOT_ON_THE_ENGINE_PATH) & loaded) == []


def test_every_exported_name_resolves_to_its_table_entry():
    # With every module already imported, each name in each package's
    # __all__ must resolve, and to what the package's lazy table says:
    # importing a submodule binds its name in the package, which would
    # shadow an export of the same name from another module.
    failures = run_fresh(
        "import importlib, pkgutil, repro\n"
        "names = ['repro'] + [m.name for m in\n"
        "    pkgutil.walk_packages(repro.__path__, 'repro.')]\n"
        "modules = [importlib.import_module(n) for n in names]\n"
        "result = []\n"
        "for pkg in modules:\n"
        "    if not hasattr(pkg, '__path__'):\n"
        "        continue\n"
        "    for name in pkg.__all__:\n"
        "        try:\n"
        "            value = getattr(pkg, name)\n"
        "        except AttributeError as exc:\n"
        "            result.append(f'{pkg.__name__}.{name}: {exc}')\n"
        "            continue\n"
        "        if name == '__version__':\n"
        "            continue  # a literal in repro/__init__.py, not lazy\n"
        "        if value is not pkg.__getattr__(name):\n"
        "            result.append(f'{pkg.__name__}.{name} is shadowed')"
    )
    assert failures == []


def test_star_import_exports_the_version():
    assert run_fresh("from repro import *\nresult = __version__") == (
        repro.__version__
    )


def test_dir_lists_lazy_names_before_they_load():
    listed, loaded = run_fresh(
        "import sys, repro.nn\n"
        "result = [dir(repro.nn), 'repro.nn.trainer' in sys.modules]"
    )
    assert {"Linear", "Trainer", "functional"} <= set(listed)
    assert not loaded


def test_mock_patch_reaches_a_submodule_not_yet_loaded():
    assert run_fresh(
        "from unittest import mock\n"
        "with mock.patch('repro.runtime.plan.bc_conv_kernel') as fake:\n"
        "    from repro.runtime import plan\n"
        "    result = plan.bc_conv_kernel is fake"
    )


def test_installed_version_is_the_package_version():
    try:
        installed = importlib.metadata.version("repro")
    except importlib.metadata.PackageNotFoundError:
        pytest.skip("repro is not installed")
    assert installed == repro.__version__
