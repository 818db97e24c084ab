import importlib
import pkgutil

import pytest

import lockern

MODULES = ["lockern"] + sorted(m.name for m in pkgutil.iter_modules(lockern.__path__, "lockern."))


@pytest.mark.parametrize("name", MODULES)
def test_every_all_name_resolves(name):
    # a module without __all__ (the CLI) exports nothing by name
    module = importlib.import_module(name)
    assert [n for n in getattr(module, "__all__", []) if not hasattr(module, n)] == []
