"""Import hygiene: what loading the package and its entry points pulls in.

Checked through ``sys.modules`` in a fresh interpreter, never through
timings, so the contract holds on any host: ``import repro`` and
``python -m repro info`` load no layer (nor networkx or scipy), and the
campaign and service packages load no autograd or nn code.
"""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[1]

HEAVY = ("networkx", "scipy", "repro.core", "repro.analysis", "repro.layout",
         "repro.onn")


def _loaded_after(code: str) -> set:
    """The modules loaded once ``code`` has run in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src"))
    probe = (f"import contextlib, io, json, sys\n{code}\n"
             "print(json.dumps(sorted(sys.modules)))")
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                         text=True, env=env, cwd=REPO_ROOT, timeout=120,
                         check=True)
    return set(json.loads(out.stdout.strip().splitlines()[-1]))


def test_import_repro_loads_no_layer():
    loaded = _loaded_after("import repro")
    assert sorted(loaded & set(HEAVY)) == []


@pytest.mark.parametrize("package", ["repro.campaign", "repro.service"])
def test_campaign_and_service_load_no_autograd(package):
    loaded = _loaded_after(f"import {package}")
    assert sorted(loaded & {"repro.nn", "repro.autograd"}) == []


def test_experiments_common_loads_no_other_experiment():
    loaded = _loaded_after(
        "from repro.experiments.common import ExperimentScale")
    others = {f"repro.experiments.{name}"
               for name in ("table1", "table2", "table3", "ablations")}
    assert sorted(loaded & others) == []


def test_cli_info_loads_no_layer():
    loaded = _loaded_after(
        "import runpy\n"
        "sys.argv = ['repro', 'info']\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    try:\n"
        "        runpy.run_module('repro', run_name='__main__')\n"
        "    except SystemExit as exc:\n"
        "        assert exc.code == 0, exc.code")
    assert sorted(loaded & set(HEAVY)) == []


@pytest.mark.parametrize("package",
                         ["repro", "repro.photonics", "repro.experiments"])
def test_every_public_name_resolves(package):
    module = importlib.import_module(package)
    for name in module.__all__:
        assert getattr(module, name) is not None, name
    namespace = {}
    exec(f"from {package} import *", namespace)
    assert set(module.__all__) <= set(namespace)
    with pytest.raises(AttributeError):
        module.no_such_name


def test_lazy_names_are_the_defining_objects():
    import repro
    import repro.autograd.backend as backend

    assert repro.set_default_backend is backend.set_default_backend
    assert repro.photonics.AMF is repro.photonics.pdk.AMF
