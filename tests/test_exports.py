"""Every public name the package and its modules export resolves, the
package imports nothing at run time beyond the standard library and numpy,
only ``orthopoly`` integrates products of signals, only ``_planfile`` types
the fields of a plan file, numpy's error state is set only where a number is
computed, the bilinear RK4 core has one driver, ``simulate_plan`` builds no
phase block, the CLI writes its output through one sink and never holds a
whole simulation, and a plan does not load the CSV kernel."""

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


ERRSTATE_OWNERS = {"nhsteer.dynamics", "nhsteer.orthopoly"}


@pytest.mark.parametrize("name", ["nhsteer", *MODULES])
def test_numpy_error_state_is_set_only_where_the_number_is_computed(name):
    # the integrators and the integrals refuse their own overflow, so no caller guards them;
    # the planner's one np.errstate covers the sum of its translation's squared inputs
    tree = _tree(name)
    sites = [
        (top.name, [ast.unparse(stmt) for stmt in node.body])
        for top in tree.body
        for node in ast.walk(top)
        if isinstance(node, ast.With)
        and any("errstate" in set(_identifiers(item.context_expr)) for item in node.items)
    ]
    assert len(sites) == list(_identifiers(tree)).count("errstate")  # every use is a with statement
    if name in ERRSTATE_OWNERS:
        return
    translation_cost = [("_plan_bilinear", ["cost += float(np.sum(np.square(v))) * duration"])]
    assert sites == (translation_cost if name == "nhsteer.steering" else [])


CORE_DRIVERS = {"_bilinear_chunks", "_replay"}


def test_the_bilinear_core_has_one_driver():
    # _replay alone runs _bilinear_chunks; the whole-block trajectories and a SimulationResult's
    # streamed replay are its only callers, so no second phase loop drives the core
    users = {
        (name, getattr(top, "name", "<module>"), ref)
        for name in ["nhsteer", *MODULES]
        for top in _tree(name).body
        if not isinstance(top, (ast.Import, ast.ImportFrom))
        for ref in _identifiers(top)
        if ref in CORE_DRIVERS and ref != getattr(top, "name", None)
    }
    assert users == {
        ("nhsteer.dynamics", "_replay", "_bilinear_chunks"),
        ("nhsteer.dynamics", "_trajectories", "_replay"),
        ("nhsteer.steering", "SimulationResult", "_replay"),
    }


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


def test_the_cli_replays_a_steering_plan_through_one_chunk_block():
    # a SimulationResult allocates every sample of every phase when its trajectories are read;
    # the CLI streams a steering plan through its terminal or to_csv instead
    names = set(_identifiers(_tree("nhsteer.cli")))
    assert "SimulationResult" in names
    assert {"trajectories", "merged", "_trajectories"} & names == set()


def test_simulate_plan_builds_no_phase_block():
    # simulate_plan reaches the terminal through a SimulationResult's one chunk block; the whole
    # block of _trajectories is built only when its trajectories are read
    tree = _tree("nhsteer.steering")
    simulate = next(node for node in tree.body if isinstance(node, ast.FunctionDef) and node.name == "simulate_plan")
    assert "_trajectories" not in set(_identifiers(simulate))
    assert "SimulationResult" in set(_identifiers(simulate))


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
