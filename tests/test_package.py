import importlib
import pkgutil

import pytest

import mfpod

_MODULES = ["mfpod"] + [f"mfpod.{info.name}" for info in pkgutil.iter_modules(mfpod.__path__)]


@pytest.mark.parametrize("name", _MODULES)
def test_exported_names_resolve_and_appear_once(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    assert len(set(exported)) == len(exported), sorted(n for n in exported if exported.count(n) > 1)
    assert [n for n in exported if not hasattr(module, n)] == []
