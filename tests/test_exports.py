"""Every public name the package and its modules export resolves, and the
package imports nothing at run time beyond the standard library and numpy."""

import ast
import importlib
import pkgutil
import sys
from pathlib import Path

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


@pytest.mark.parametrize("name", ["nhsteer", *MODULES])
def test_modules_import_only_the_standard_library_and_numpy(name):
    source = Path(importlib.import_module(name).__file__).read_text()
    roots = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            roots.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            roots.add(node.module.split(".")[0])
    assert roots - set(sys.stdlib_module_names) - {"numpy", "nhsteer"} == set()
