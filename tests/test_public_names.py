import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import lockern

MODULES = ["lockern"] + sorted(m.name for m in pkgutil.iter_modules(lockern.__path__, "lockern."))


@pytest.mark.parametrize("name", MODULES)
def test_every_all_name_resolves(name):
    # a module without __all__ (the CLI) exports nothing by name
    module = importlib.import_module(name)
    assert [n for n in getattr(module, "__all__", []) if not hasattr(module, n)] == []


def test_import_loads_no_scipy(tmp_path):
    # numpy is the only runtime dependency: a fresh interpreter that imports
    # the package, every submodule and the CLI holds no scipy module
    assert "lockern.cli" in MODULES
    code = (
        "import importlib, sys\n"
        f"for name in {MODULES!r}:\n"
        "    importlib.import_module(name)\n"
        "print(sorted(m for m in sys.modules if m.partition('.')[0] == 'scipy'))\n"
    )
    path = [str(Path(lockern.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    done = subprocess.run([sys.executable, "-c", code], cwd=tmp_path, env=env, check=True,
                          capture_output=True, text=True, timeout=120)
    assert done.stdout.strip() == "[]"
