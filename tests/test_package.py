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


def test_the_top_level_exports_only_the_pipelines_api():
    # the nodal reference and the single-step wrapper stay in their modules
    for name, module in [("apply_laplacian", "grid"), ("h1_seminorm_sq", "grid"), ("l2_norm_sq", "grid"),
                         ("step", "dynamics"), ("WaveState", "dynamics")]:
        assert name not in wt.__all__ and not hasattr(wt, name)
        assert hasattr(importlib.import_module(f"wavetrig.{module}"), name)
