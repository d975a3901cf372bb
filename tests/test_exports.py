"""Every public name the package and its modules export resolves, the
package imports nothing at run time beyond the standard library and numpy,
only ``orthopoly`` integrates products of signals, only ``_planfile`` types
the fields of a plan file, the CLI writes its output through one sink, and a
plan does not load the CSV kernel."""

import ast
import importlib
import os
import pkgutil
import subprocess
import sys
from collections import Counter
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


PRODUCT_RULES = {"_factors", "_running_factors", "_product_integrals"}


def _tree(name):
    return ast.parse(Path(importlib.import_module(name).__file__).read_text())


def _identifiers(tree):
    """Every name a module defines, reads, imports or takes as an attribute."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield node.name
        elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name


@pytest.mark.parametrize("name", ["nhsteer", *MODULES])
def test_only_orthopoly_names_the_product_rules(name):
    named = PRODUCT_RULES & set(_identifiers(_tree(name)))
    assert named == (PRODUCT_RULES if name == "nhsteer.orthopoly" else set())


COERCIONS = {"float", "int", "bool", "tuple"}


@pytest.mark.parametrize("name", ["nhsteer", *MODULES])
def test_plan_readers_coerce_nothing_and_only_planfile_refuses_a_plan_file(name):
    # the typing rules of the plan-file format live in _planfile: a from_json_dict body
    # calls none of float, int, bool or tuple, and no other module raises PlanFileError
    tree = _tree(name)
    readers = [node for node in ast.walk(tree) if isinstance(node, ast.FunctionDef) and node.name == "from_json_dict"]
    coerced = [
        (reader.lineno, call.func.id)
        for reader in readers
        for call in ast.walk(reader)
        if isinstance(call, ast.Call) and isinstance(call.func, ast.Name) and call.func.id in COERCIONS
    ]
    raised = [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Raise) and node.exc is not None and "PlanFileError" in set(_identifiers(node.exc))
    ]
    assert coerced == []
    assert bool(raised) == (name == "nhsteer._planfile")


@pytest.mark.parametrize("name", ["nhsteer.optimal_energy", "nhsteer.fuel_l1"])
def test_costs_and_fuel_import_no_private_orthopoly_name(name):
    private = []
    for node in ast.walk(_tree(name)):
        if isinstance(node, ast.ImportFrom) and node.module in ("orthopoly", "nhsteer.orthopoly"):
            private += [alias.name for alias in node.names if alias.name.startswith("_")]
        elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id == "orthopoly":
            private += [node.attr] if node.attr.startswith("_") else []
    assert private == []


def test_the_coupling_is_one_function_wherever_it_is_exported():
    coupling = nhsteer.orthopoly.coupling_displacement
    assert nhsteer.coupling_displacement is nhsteer.dynamics.coupling_displacement is coupling


@pytest.mark.parametrize("name", ["nhsteer", *MODULES])
def test_no_module_imports_io(name):
    imported = set()
    for node in ast.walk(_tree(name)):
        if isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            imported.add(node.module)
    assert "io" not in imported


def test_only_the_cli_sink_opens_or_writes_files():
    file_calls = {"open", "write_text", "write_bytes"}
    tree = _tree("nhsteer.cli")
    emit = next(node for node in tree.body if isinstance(node, ast.FunctionDef) and node.name == "_emit")
    inside = Counter(n for n in _identifiers(emit) if n in file_calls)
    outside = Counter(n for n in _identifiers(tree) if n in file_calls) - inside
    assert "open" in inside and outside == Counter()


def test_a_cold_plan_does_not_import_the_csv_kernel(tmp_path):
    # the kernel and its tables are built at the first CSV write, not at start-up
    script = (
        "import sys, nhsteer.cli\n"
        "code = nhsteer.cli.main(['plan', 'nhi', '--from', '0,0,0', '--to', '0,0,1', '--out', 'plan.json'])\n"
        "print(code, 'nhsteer._csvtext' in sys.modules)\n"
    )
    src = str(Path(nhsteer.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
    env.pop("NHSTEER_OUT_DIR", None)
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, cwd=tmp_path, env=env, check=False)
    assert proc.stdout == "0 False\n", proc.stderr
