"""Every public name the package and its modules export resolves."""

import importlib
import pkgutil

import pytest

import nhsteer

MODULES = sorted(f"nhsteer.{info.name}" for info in pkgutil.iter_modules(nhsteer.__path__))


@pytest.mark.parametrize("name", ["nhsteer", *MODULES])
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    missing = [entry for entry in module.__all__ if not hasattr(module, entry)]
    assert missing == []
    assert len(set(module.__all__)) == len(module.__all__)
    namespace = {}
    exec(f"from {name} import *", namespace)
    assert set(module.__all__) <= set(namespace)
