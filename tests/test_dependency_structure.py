"""numpy and scipy are test dependencies only; networkx is optional.

The package's one float LP solver moved to ``tests/test_lp.py`` as the
cross-check of ``lp_throughput_exact``, so ``pyproject.toml`` lists numpy
and scipy under the ``test`` extra.  networkx is the ``nx`` extra: only
:mod:`repro.platform.nxinterop` and :mod:`repro.extensions.overlay_search`
use it.  These tests import ``repro`` modules in a fresh interpreter and
read ``sys.modules``.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

#: the only modules that may load networkx
NETWORKX_USERS = ("repro.platform.nxinterop", "repro.extensions.overlay_search")

IMPORT_EVERYTHING = """
import importlib, json, pkgutil, sys
import repro
skip = set(sys.argv[2:])
names = [info.name for info in pkgutil.walk_packages(repro.__path__, "repro.")
         if not info.name.endswith("__main__") and info.name not in skip]
for name in names:
    importlib.import_module(name)
loaded = sorted(name for name in sys.modules
                if name.split(".")[0] in sys.argv[1].split(","))
print(json.dumps({"modules": names, "loaded": loaded}))
"""


def _import_all(packages, skip=()):
    """Import every ``repro`` module but *skip* in a fresh interpreter;
    return its module names and the loaded modules of *packages*."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run(
        [sys.executable, "-c", IMPORT_EVERYTHING, ",".join(packages), *skip],
        env=env, capture_output=True, text=True, check=True)
    return json.loads(done.stdout.splitlines()[-1])


def test_no_repro_module_imports_numpy_or_scipy():
    report = _import_all(("numpy", "scipy"))
    assert "repro.core.lp" in report["modules"]
    assert "repro.cli" in report["modules"]
    assert report["loaded"] == []


def test_only_the_interop_modules_load_networkx():
    report = _import_all(("networkx",), skip=NETWORKX_USERS)
    assert "repro.platform" in report["modules"]
    assert "repro.extensions" in report["modules"]
    assert not set(NETWORKX_USERS) & set(report["modules"])
    assert report["loaded"] == []
