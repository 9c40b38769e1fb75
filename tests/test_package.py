import importlib
import pkgutil

import pytest

import wavetrig as wt

SUBMODULES = sorted(m.name for m in pkgutil.iter_modules(wt.__path__) if m.name != "__main__")


@pytest.mark.parametrize("name", ["wavetrig", *(f"wavetrig.{m}" for m in SUBMODULES)])
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    missing = [attr for attr in getattr(module, "__all__", ()) if not hasattr(module, attr)]
    assert not missing, f"{name}.__all__ names {missing}"
