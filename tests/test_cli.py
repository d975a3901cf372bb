import argparse
import itertools
import json
import math
import os
import string
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

import nhsteer
from nhsteer import cli, dynamics, steering
from nhsteer.cli import _glue_negative_values, main

GOLDEN = Path(__file__).parent / "golden"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# planning round trips


def test_plan_and_verify_nhi(tmp_path, capsys):
    plan_file = tmp_path / "plan.json"
    code, out, err = run(
        capsys,
        "plan", "nhi", "--from", "0,0,0", "--to", "0,0,1",
        "--family", "legendre", "--out", str(plan_file),
    )
    assert code == 0
    assert "wrote" in err
    data = json.loads(plan_file.read_text())
    assert data["system"] == "nhi"
    scales = [
        term["scale"]
        for sig in data["phases"][-1]["inputs"]
        for term in sig["terms"]
    ]
    # the unit transfer needs amplitude sqrt(15)/2 on both shapes
    assert any(abs(abs(s) - 1.9364916731037085) < 1e-12 for s in scales)
    assert all(abs(abs(s) - 1.9364916731037085) < 1e-12 for s in scales)

    code, out, err = run(capsys, "verify", "--plan", str(plan_file))
    assert code == 0
    assert "endpoint error" in out
    assert "within tolerance" in out


def test_plan_interval_with_negative_bound(tmp_path, capsys):
    plan_file = tmp_path / "plan.json"
    code, _, _ = run(
        capsys,
        "plan", "nhi", "--from", "0,0,0", "--to", "1,2,-0.5",
        "--interval", "-1,1", "--family", "chebyshev_second",
        "--out", str(plan_file),
    )
    assert code == 0
    code, out, _ = run(capsys, "verify", "--plan", str(plan_file))
    assert code == 0


def test_glue_negative_values():
    argv = ["plan", "nhi", "--interval", "-1,1", "--from", "0,0,0"]
    glued = _glue_negative_values(argv)
    assert "--interval=-1,1" in glued
    assert "--from" in glued  # 0,0,0 is not negative, left alone


def test_plan_optimal_round_trip(tmp_path, capsys):
    plan_file = tmp_path / "opt.json"
    code, _, _ = run(
        capsys,
        "plan", "nhi", "--from", "0,0,0", "--to", "0,0,1",
        "--optimal", "--out", str(plan_file),
    )
    assert code == 0
    data = json.loads(plan_file.read_text())
    assert data["closed_form"] == "chebyshev_minimum_energy"
    assert data["cost"] == 1.0
    code, out, _ = run(capsys, "verify", "--plan", str(plan_file))
    assert code == 0


def test_plan_optimal_rejects_direct_motion(capsys):
    code, _, err = run(
        capsys, "plan", "nhi", "--from", "0,0,0", "--to", "1,0,1", "--optimal"
    )
    assert code == 1
    assert "direct coordinates" in err


def test_plan_and_verify_gnhi(tmp_path, capsys):
    plan_file = tmp_path / "gnhi.json"
    code, _, _ = run(
        capsys,
        "plan", "gnhi", "--m", "3",
        "--from", "0,0,0,0,0,0", "--to", "1,-2,0.5,1.5,-0.75,2",
        "--family", "trig", "--out", str(plan_file),
    )
    assert code == 0
    code, out, _ = run(capsys, "verify", "--plan", str(plan_file))
    assert code == 0


def test_plan_gnhi_bad_arity(capsys):
    code, _, err = run(
        capsys, "plan", "gnhi", "--m", "3", "--from", "0,0,0", "--to", "1,2,3"
    )
    assert code == 1
    assert "lexicographic" in err


def test_plan_and_verify_so3_both_modes(tmp_path, capsys):
    target = "0.36,0.48,-0.8,-0.8,0.6,0,0.48,0.64,0.6"
    for mode in ("constant", "underactuated"):
        plan_file = tmp_path / f"so3_{mode}.json"
        code, _, _ = run(
            capsys,
            "plan", "so3", "--from", "identity", "--to", target,
            "--duration", "2", "--mode", mode, "--out", str(plan_file),
        )
        assert code == 0, mode
        data = json.loads(plan_file.read_text())
        assert data["system"] == "so3" and data["mode"] == mode
        code, out, _ = run(capsys, "verify", "--plan", str(plan_file))
        assert code == 0, mode
        assert "within tolerance" in out


def test_verify_flags_tampered_plan(tmp_path, capsys):
    plan_file = tmp_path / "plan.json"
    run(capsys, "plan", "nhi", "--from", "0,0,0", "--to", "0,0,1", "--out", str(plan_file))
    data = json.loads(plan_file.read_text())
    data["predicted_endpoint"]["x3"] = 1.1  # no longer what the inputs produce
    plan_file.write_text(json.dumps(data))
    code, out, _ = run(capsys, "verify", "--plan", str(plan_file))
    assert code == 1
    assert "exceeds tolerance" in out


# ---------------------------------------------------------------------------
# simulation output


def test_simulate_csv_schema(tmp_path, capsys):
    plan_file = tmp_path / "plan.json"
    run(capsys, "plan", "nhi", "--from", "0.5,-0.25,0", "--to", "1,1,1", "--out", str(plan_file))
    csv_file = tmp_path / "traj.csv"
    code, _, _ = run(
        capsys, "simulate", "--plan", str(plan_file), "--steps", "200", "--out", str(csv_file)
    )
    assert code == 0
    lines = csv_file.read_text().strip().splitlines()
    assert lines[0] == "t,x1,x2,x3,u1,u2"
    first = [float(v) for v in lines[1].split(",")]
    assert first[:4] == [0.0, 0.5, -0.25, 0.0]


def test_simulate_so3_csv(tmp_path, capsys):
    plan_file = tmp_path / "so3.json"
    run(
        capsys,
        "plan", "so3", "--from", "identity",
        "--to", "0.36,0.48,-0.8,-0.8,0.6,0,0.48,0.64,0.6",
        "--duration", "2", "--out", str(plan_file),
    )
    code, out, _ = run(capsys, "simulate", "--plan", str(plan_file), "--steps", "100")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("t,g11,g12,g13,g21,")
    assert len(lines) == 102  # header + steps + 1 samples


# ---------------------------------------------------------------------------
# fuel reports


def test_fuel_single_family_json(capsys):
    code, out, _ = run(capsys, "fuel", "--target", "1", "--family", "legendre")
    assert code == 0
    data = json.loads(out)
    assert abs(data["c"] - 3.75) < 1e-12
    assert abs(data["min_fuel"] - 3.3980884896942447) < 1e-12
    assert abs(data["grid_min_fuel"] - data["min_fuel"]) < 1e-6


def test_fuel_compare_csv(tmp_path, capsys):
    out_file = tmp_path / "fuel.csv"
    code, _, _ = run(
        capsys,
        "fuel", "--target", "1",
        "--compare", "trig,legendre,chebyshev_first",
        "--out", str(out_file),
    )
    assert code == 0
    lines = out_file.read_text().strip().splitlines()
    assert lines[0] == "family,odd,even,c1,c2,c,b1,b2,min_fuel,grid_min_fuel,sim_error"
    families = [line.split(",")[0] for line in lines[1:]]
    assert families == ["trig", "legendre", "chebyshev_first"]  # sorted by fuel


def test_fuel_compare_passes_jacobi_params(capsys):
    # --jacobi used to be dropped, so a jacobi entry failed with "jacobi pairs need jacobi_params"
    code, out, _ = run(capsys, "fuel", "--target", "1", "--compare", "legendre,jacobi", "--jacobi", "0.5,0.5")
    assert code == 0
    rows = {line.split(",")[0]: line.split(",") for line in out.strip().splitlines()[1:]}
    assert set(rows) == {"legendre", "jacobi"}
    code, out, _ = run(capsys, "fuel", "--target", "1", "--family", "jacobi", "--jacobi", "0.5,0.5")
    assert code == 0
    assert rows["jacobi"][8] == repr(json.loads(out)["min_fuel"])


@pytest.mark.parametrize(
    "argv",
    [
        ("plan", "nhi", "--from", "0,0,0", "--to", "0,0,1e308"),
        ("plan", "nhi", "--from", "-1e308,0,0", "--to", "1e308,0,0"),
        ("plan", "nhi", "--from", "0,0,0", "--to", "1e308,-1e308,0"),
        # a plan whose simulation overflowed: verify failed with "inputs overflow the integrator"
        ("plan", "nhi", "--from", "0,0,0", "--to", "1e154,-1e154,0"),
        ("plan", "nhi", "--from", "0,0,0", "--to", "0,0,1e308", "--optimal"),
        ("plan", "gnhi", "--m", "3", "--from", "0,0,0,0,0,0", "--to", "0,0,0,1e308,1e308,0"),
        ("fuel", "--target", "1e308"),
        ("fuel", "--target", "1e308", "--family", "chebyshev_second"),
    ],
)
def test_overflowing_plans_and_fuel_reports_exit_one(capsys, argv):
    # these used to write Infinity or NaN (or print a RuntimeWarning) and exit 0
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = run(capsys, *argv)
    assert code == 1
    assert out == ""
    assert err.startswith("error: ") and "Traceback" not in err and "Warning" not in err
    assert not caught


@pytest.mark.parametrize(
    "argv",
    [
        ("fuel", "--target", "1", "--compare", "trig,legendre", "--pair", "2,3"),
        ("fuel", "--target", "1", "--family", "trig", "--pair", "2,3"),
        ("plan", "nhi", "--from", "0,0,0", "--to", "0,0,1", "--family", "trig", "--pair", "2,3"),
    ],
)
def test_a_zero_coupling_pair_is_named_by_fuel_as_by_plan(capsys, argv):
    # sin(2 pi t) and cos(3 pi t) have opposite parity but zero coupling
    code, out, err = run(capsys, *argv)
    assert code == 1
    assert out == ""
    assert err == "error: pair (2, 3) of family 'trig' has zero coupling displacement; it cannot steer\n"


def test_fuel_rejects_zero_target(capsys):
    code, _, err = run(capsys, "fuel", "--target", "0")
    assert code == 1
    assert "error:" in err


# ---------------------------------------------------------------------------
# published-value reproduction

def test_paper_repro_report(capsys):
    code, out, _ = run(capsys, "paper-repro")
    assert code == 0
    lines = out.strip().splitlines()
    assert sum(1 for ln in lines if ln.rstrip().endswith(" ok")) == 8
    assert sum(1 for ln in lines if ln.rstrip().endswith("paper-deviation")) == 3
    assert lines[-1] == "8 ok, 3 paper-deviation, 0 fail"


def test_paper_repro_deterministic(capsys):
    _, first, _ = run(capsys, "paper-repro")
    _, second, _ = run(capsys, "paper-repro")
    assert first == second


def test_plan_output_deterministic(capsys):
    argv = ("plan", "nhi", "--from", "0.1,0.2,0.3", "--to", "-1,2,-3", "--family", "trig")
    _, first, _ = run(capsys, *argv)
    _, second, _ = run(capsys, *argv)
    assert first == second


# ---------------------------------------------------------------------------
# exit codes and environment


def test_usage_errors_exit_two(capsys):
    code, _, _ = run(capsys, "plan", "nhi", "--from", "0,0", "--to", "0,0,1")
    assert code == 2  # triple needed
    code, _, _ = run(capsys, "plan", "nhi", "--from", "0,0,0", "--to", "0,0,1", "--family", "fourier")
    assert code == 2  # not a family choice
    code, _, _ = run(capsys, "frobnicate")
    assert code == 2  # unknown command


def test_domain_errors_exit_one(capsys):
    code, _, err = run(
        capsys,
        "plan", "so3", "--from", "identity", "--to", "1,0,0,0,1,0",  # 6 floats, not 9
        "--duration", "2",
    )
    assert code == 1
    assert "error:" in err


@pytest.mark.parametrize("command", ["simulate", "verify"])
def test_jacobi_plan_with_an_exponent_below_minus_half_is_refused(tmp_path, capsys, command):
    # the arc-variable integrand sin(s/2)^(2b+1) is infinite at s = 0 for b < -1/2,
    # so plan refuses what simulate and verify refuse (plan used to exit 0)
    plan_file = tmp_path / "plan.json"
    code, out, err = run(
        capsys, "plan", "nhi", "--from", "0,0,0", "--to", "0,0,1",
        "--family", "jacobi", "--jacobi", "-0.9,-0.9", "--out", str(plan_file),
    )
    assert code == 1
    assert out == ""
    assert err.startswith("error: ") and "exponent -0.9 is below -1/2" in err
    assert not plan_file.exists()
    # a hand-edited plan file still reaches simulate and verify: the alpha = -0.5 plan
    # with its exponents set to -0.9 (this used to print numpy RuntimeWarnings and
    # "state coordinates must be finite")
    run(
        capsys, "plan", "nhi", "--from", "0,0,0", "--to", "0,0,1",
        "--family", "jacobi", "--jacobi", "-0.5,-0.5", "--out", str(plan_file),
    )
    plan = json.loads(plan_file.read_text())
    for phase in plan["phases"]:
        for signal in phase["inputs"]:
            for term in signal["terms"]:
                term["alpha"] = term["beta"] = -0.9
    plan_file.write_text(json.dumps(plan))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = run(capsys, command, "--plan", str(plan_file))
    assert code == 1
    assert out == ""
    assert err.startswith("error: ") and "exponent -0.9 is below -1/2" in err
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]


def test_jacobi_plan_with_exponent_minus_half_verifies(tmp_path, capsys):
    plan_file = tmp_path / "plan.json"
    run(
        capsys, "plan", "nhi", "--from", "0,0,0", "--to", "0,0,1",
        "--family", "jacobi", "--jacobi", "-0.5,-0.5", "--out", str(plan_file),
    )
    code, out, _ = run(capsys, "verify", "--plan", str(plan_file))
    assert code == 0
    assert "within tolerance" in out


@pytest.mark.parametrize("mode", ["constant", "underactuated"])
@pytest.mark.parametrize("duration", ["nan", "inf", "-inf"])
def test_so3_plan_refuses_non_finite_duration(capsys, mode, duration):
    # a NaN duration used to pass `duration <= 0` and write "duration": NaN, which is not JSON
    code, out, err = run(
        capsys, "plan", "so3", "--from", "identity", "--to", "identity", f"--duration={duration}", "--mode", mode
    )
    assert code == 1
    assert out == ""
    assert err.startswith("error: duration must be positive and finite")


def test_module_entry_point_prints_what_main_prints(capsys):
    argv = ["plan", "nhi", "--from", "0,0,0", "--to", "0,0,1"]
    code, out, _ = run(capsys, *argv)
    src = str(Path(nhsteer.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
    proc = subprocess.run([sys.executable, "-m", "nhsteer.cli", *argv], capture_output=True, env=env, check=False)
    assert (proc.returncode, code) == (0, 0)
    assert proc.stdout == out.encode()


@pytest.mark.parametrize("command", ["verify", "simulate"])
def test_missing_plan_file_exits_one(tmp_path, capsys, command):
    code, out, err = run(capsys, command, "--plan", str(tmp_path / "absent.json"))
    assert code == 1
    assert err.startswith("error:") and "Traceback" not in err
    assert out == ""


@pytest.mark.parametrize("command", ["verify", "simulate"])
@pytest.mark.parametrize(
    "content",
    ['{"system": "nhi"}', '{"system": "so3", "mode": "constant"}', "[1, 2]", "not json"],
)
def test_malformed_plan_file_exits_one(tmp_path, capsys, command, content):
    plan_file = tmp_path / "plan.json"
    plan_file.write_text(content)
    code, out, err = run(capsys, command, "--plan", str(plan_file))
    assert code == 1
    assert err.startswith("error:") and "Traceback" not in err
    assert out == ""


@pytest.mark.parametrize("command", ["verify", "simulate"])
@pytest.mark.parametrize(
    "system, edit",
    [
        pytest.param("gnhi", lambda d: d["initial_state"].pop("x12"), id="gnhi-start-lacks-x12"),
        pytest.param("gnhi", lambda d: d["predicted_endpoint"].pop("x3"), id="gnhi-end-lacks-x3"),
        pytest.param("gnhi", lambda d: d["initial_state"].update(x4=0.0), id="gnhi-start-extra-x4"),
        pytest.param(
            "nhi",
            lambda d: d["predicted_endpoint"].update(x12=d["predicted_endpoint"].pop("x3")),
            id="nhi-end-x12-for-x3",
        ),
    ],
)
def test_plan_file_with_mismatched_coordinates_exits_one(tmp_path, capsys, command, system, edit):
    plan_file = tmp_path / "plan.json"
    if system == "gnhi":
        argv = ["plan", "gnhi", "--m", "3", "--from", "0,0,0,0,0,0", "--to", "1,-2,0.5,1.5,-0.75,2"]
    else:
        argv = ["plan", "nhi", "--from", "0,0,0", "--to", "1,2,3"]
    assert run(capsys, *argv, "--out", str(plan_file))[0] == 0
    data = json.loads(plan_file.read_text())
    edit(data)
    plan_file.write_text(json.dumps(data))
    code, out, err = run(capsys, command, "--plan", str(plan_file))
    assert code == 1
    assert err.startswith("error:") and "Traceback" not in err
    assert out == ""


def _edit_golden(tmp_path, name, edit):
    """A copy of the golden plan ``name`` with ``edit`` applied to its JSON text."""
    plan_file = tmp_path / "plan.json"
    plan_file.write_text(edit((GOLDEN / name).read_text()))
    return plan_file


def _set(path, value):
    """An edit of a plan's JSON text that sets the leaf at ``path`` to ``value``."""

    def edit(text):
        data = json.loads(text)
        node = data
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value
        return json.dumps(data)

    return edit


_TERM = ("phases", 0, "inputs", 0, "terms", 0)
_SILENT_READINGS = {
    # a term index of 1.5 was read as 1, "no" as true, "x1" as ('x', '1'), and an
    # unknown plan family or a three-entry interval was accepted: verify exited 0
    "index 1.5": (_set(("phases", 0, "inputs", 1, "terms", 0, "index"), 1.5),
                  "phases[0].inputs[1].terms[0].index: expected an integer, got 1.5"),
    "weighted no": (_set((*_TERM, "weighted"), "no"),
                    "phases[0].inputs[0].terms[0].weighted: expected true or false, got \"no\""),
    "moves x1": (_set(("phases", 0, "moves"), "x1"), 'phases[0].moves: expected a list, got "x1"'),
    "family nonsense": (_set(("family",), "nonsense"), "family: expected one of "),
    "three-entry interval": (_set(("phases", 0, "interval"), [-1.0, 0.0, 1.0]),
                             "phases[0].interval: expected a list of 2, got [-1.0, 0.0, 1.0]"),
    # these ended in OverflowError tracebacks
    "10^400 scale": (_set((*_TERM, "scale"), 10**400),
                     "phases[0].inputs[0].terms[0].scale: expected a finite number, got 1000"),
    "10^400 start": (_set(("initial_state", "x2"), 10**400), "initial_state.x2: expected a finite number, got 1000"),
    "infinite index": (_set((*_TERM, "index"), math.inf),
                       "phases[0].inputs[0].terms[0].index: expected an integer, got Infinity"),
}


@pytest.mark.parametrize("command", ["verify", "simulate"])
@pytest.mark.parametrize("case", sorted(_SILENT_READINGS))
def test_a_mistyped_plan_field_is_refused_by_its_json_path(tmp_path, capsys, command, case):
    edit, message = _SILENT_READINGS[case]
    plan_file = _edit_golden(tmp_path, "plan_nhi_legendre.json", edit)
    code, out, err = run(capsys, command, "--plan", str(plan_file), "--steps", "100")
    assert (code, out) == (1, "")
    assert err.startswith(f"error: plan file {plan_file}: {message}")
    assert err.count("\n") == 1


@pytest.mark.parametrize(
    "path, message",
    [
        (("duration",), "duration: expected a finite number, got 1000"),
        (("g1", 0, 1), "g1[0][1]: expected a finite number, got 1000"),
        (("params", "r"), "params.r: expected a finite number, got 1000"),
        (("cost",), "cost: expected a finite number, got 1000"),
    ],
)
def test_an_attitude_plan_field_beyond_the_float_range_is_refused(tmp_path, capsys, path, message):
    # float(10**400) raised OverflowError, a traceback
    plan_file = _edit_golden(tmp_path, "plan_so3_underactuated.json", _set(path, 10**400))
    code, out, err = run(capsys, "verify", "--plan", str(plan_file), "--steps", "100")
    assert (code, out) == (1, "")
    assert err.startswith(f"error: plan file {plan_file}: {message}")


_MUTANTS = [None, "x", -1, 0, 1e308, math.nan, math.inf, [], {}, True, 10**400]


def _leaves(node, path=()):
    """The path of every scalar leaf of a JSON document."""
    if isinstance(node, (dict, list)):
        for key, child in node.items() if isinstance(node, dict) else enumerate(node):
            yield from _leaves(child, (*path, key))
    else:
        yield path


@pytest.mark.parametrize("name", ["plan_nhi_legendre.json", "plan_gnhi_m3_trig.json", "plan_so3_underactuated.json"])
def test_every_mutated_leaf_of_a_plan_file_exits_cleanly(tmp_path, capsys, name):
    # every scalar leaf in turn set to each value of _MUTANTS: verify returns 0 or 1 and
    # raises nothing (warnings are errors here); an exit 1 is one error: line, or a
    # simulation that ran and missed the tolerance
    plan = json.loads((GOLDEN / name).read_text())
    plan_file = tmp_path / "plan.json"
    bad = []
    for path in _leaves(plan):
        parent = plan
        for key in path[:-1]:
            parent = parent[key]
        original = parent[path[-1]]
        for value in _MUTANTS:
            parent[path[-1]] = value
            plan_file.write_text(json.dumps(plan))
            try:
                code, out, err = run(capsys, "verify", "--plan", str(plan_file), "--steps", "100")
            except Exception as exc:  # an exception escaping main is what this test counts
                capsys.readouterr()
                bad.append((path, value, repr(exc)))
                continue
            refused = code == 1 and out == "" and err.startswith("error: ") and err.count("\n") == 1
            missed = code == 1 and err == "" and out.endswith("exceeds tolerance 1e-06\n")
            if not ((code == 0 and err == "") or refused or missed):
                bad.append((path, value, code, err))
        parent[path[-1]] = original
    assert bad == [], f"{len(bad)} mutants escaped, e.g. {bad[:3]}"


@pytest.mark.parametrize("m", ["100000000", "1" + "0" * 400], ids=["10^8", "10^400"])
def test_plan_gnhi_counts_the_values_before_it_builds_the_pairs(capsys, monkeypatch, m):
    # from_flat built the m(m-1)/2 pairs before it compared the value count, so both
    # of these ended in MemoryError under a 1.5 GB address-space limit
    build_pairs = dynamics._pairs

    def small_pairs(n):
        assert n <= 8, "_pairs was asked for more channels than a state can have"
        return build_pairs(n)

    monkeypatch.setattr(dynamics, "_pairs", small_pairs)
    code, out, err = run(capsys, "plan", "gnhi", "--m", m, "--from", "0,0,0", "--to", "0,0,0")
    assert (code, out) == (1, "")
    assert err.startswith("error: expected ") and f" values for m={m}: " in err


def test_a_gnhi_plan_file_builds_no_more_names_than_it_has(tmp_path, capsys, monkeypatch):
    # m was the count of two-character keys of initial_state, and its m(m-1)/2 pair
    # names were built before they were compared: 2000 keys cost 1.3 s and 366 MB
    build_names = steering.pair_names
    keys = ["".join(pair) for pair in itertools.product(string.ascii_letters + string.digits, repeat=2)][:3000]

    def bounded_names(m):
        assert m * (m - 1) // 2 <= len(keys), f"pair_names({m}) outgrows the plan file"
        return build_names(m)

    monkeypatch.setattr(steering, "pair_names", bounded_names)
    plan_file = _edit_golden(tmp_path, "plan_gnhi_m3_trig.json", _set(("initial_state",), dict.fromkeys(keys, 0.0)))
    code, out, err = run(capsys, "verify", "--plan", str(plan_file), "--steps", "100")
    assert (code, out) == (1, "")
    assert err.startswith(f"error: plan file {plan_file}: initial_state: expected an object naming x1, x2, ")


def test_out_dir_env(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("NHSTEER_OUT_DIR", str(tmp_path))
    code, _, err = run(
        capsys,
        "plan", "nhi", "--from", "0,0,0", "--to", "0,0,1", "--out", "sub/plan.json",
    )
    assert code == 0
    assert (tmp_path / "sub" / "plan.json").exists()


# ---------------------------------------------------------------------------
# the Jacobi exponent cap and hostile arguments


@pytest.mark.parametrize(
    "argv",
    [
        ("plan", "nhi", "--from", "0,0,0", "--to", "0,0,1", "--family", "jacobi", "--jacobi", "300,300"),
        ("fuel", "--target", "1", "--family", "jacobi", "--jacobi", "300,300"),
    ],
)
def test_jacobi_exponents_above_the_cap_exit_one(capsys, argv):
    # the coupling's Gauss-Jacobi rule overflowed 2.0 ** (a + b + 1) with a traceback
    code, out, err = run(capsys, *argv)
    assert (code, out) == (1, "")
    assert err == "error: jacobi parameters above 100 are not supported, got (300.0, 300.0)\n"


def test_jacobi_plan_at_the_exponent_cap_verifies(tmp_path, capsys):
    plan_file = tmp_path / "plan.json"
    argv = ("plan", "nhi", "--from", "0,0,0", "--to", "0,0,1", "--family", "jacobi", "--jacobi", "100,100")
    assert run(capsys, *argv, "--out", str(plan_file))[0] == 0
    code, out, _ = run(capsys, "verify", "--plan", str(plan_file))
    assert code == 0
    assert "within tolerance" in out


def test_non_finite_jacobi_exponents_get_the_finiteness_message(capsys):
    # nan != nan, so the parity rule used to answer first with "alpha == beta"
    code, _, err = run(capsys, "plan", "nhi", "--from", "0,0,0", "--to", "0,0,1", "--family", "jacobi", "--jacobi", "nan,nan")
    assert code == 1
    assert err == "error: jacobi parameters must be finite with alpha, beta > -1, got (nan, nan)\n"


_TO = ("--from", "0,0,0", "--to", "0,0,1")
_GNHI = ("plan", "gnhi", "--m", "3", "--from", "0,0,0,0,0,0", "--to", "1,-2,0.5,1.5,-0.75,2")
_SO3 = ("plan", "so3", "--from", "identity", "--to")
_ROT = "0.36,0.48,-0.8,-0.8,0.6,0,0.48,0.64,0.6"
_HALF_TURN = "-1,0,0,0,-1,0,0,0,1"

HOSTILE = [
    # Jacobi exponents: above the cap, non-finite, at the bound, missing
    (1, ("plan", "nhi", *_TO, "--family", "jacobi", "--jacobi", "300,300")),
    (1, ("fuel", "--target", "1", "--family", "jacobi", "--jacobi", "300,300")),
    (1, ("fuel", "--target", "1", "--compare", "legendre,jacobi", "--jacobi", "300,300")),
    (1, (*_GNHI, "--family", "jacobi", "--jacobi", "2000,2000")),
    (1, ("plan", "nhi", *_TO, "--family", "jacobi", "--jacobi", "1e308,1e308")),
    (1, ("plan", "nhi", *_TO, "--family", "jacobi", "--jacobi", "nan,nan")),
    (1, ("plan", "nhi", *_TO, "--family", "jacobi", "--jacobi", "inf,inf")),
    (1, ("plan", "nhi", *_TO, "--family", "jacobi", "--jacobi", "-1,-1")),
    (1, ("plan", "nhi", *_TO, "--family", "jacobi")),
    (2, ("plan", "nhi", *_TO, "--family", "jacobi", "--jacobi", "1,2,3")),
    # targets
    (1, ("plan", "nhi", "--from", "0,0,0", "--to", "0,0,nan")),
    (1, ("plan", "nhi", "--from", "0,0,0", "--to", "0,0,inf")),
    (1, ("fuel", "--target", "nan")),
    (1, ("fuel", "--target", "inf")),
    (1, ("fuel", "--target", "-1e308")),
    (0, ("fuel", "--target", "1e8", "--compare", "trig,legendre,chebyshev_first")),
    # splits
    (1, ("plan", "nhi", *_TO, "--optimal", "--split", "nan")),
    (1, ("plan", "nhi", *_TO, "--optimal", "--split", "inf")),
    (0, ("plan", "nhi", *_TO, "--optimal", "--split", "1e300")),
    # durations
    (0, (*_SO3, _ROT, "--duration", "1e300")),
    (1, (*_SO3, _ROT, "--duration", "0")),
    (1, (*_SO3, _ROT, "--duration", "-1", "--mode", "underactuated")),
    (1, (*_SO3, _ROT, "--duration", "nan", "--mode", "underactuated")),
    (1, (*_SO3, _ROT, "--duration", "1e15", "--mode", "underactuated")),
    (1, (*_SO3, _ROT, "--duration", "1e20", "--mode", "underactuated")),
    (1, (*_SO3, _ROT, "--duration", "1e160", "--mode", "underactuated")),
    (1, (*_SO3, _ROT, "--duration", "1e300", "--mode", "underactuated")),
    # intervals
    (1, ("plan", "nhi", *_TO, "--interval", "0,nan")),
    (1, ("plan", "nhi", *_TO, "--interval", "0,inf")),
    (1, ("plan", "nhi", *_TO, "--interval", "1,1")),
    (1, ("plan", "nhi", *_TO, "--interval", "0,2")),
    # pair indices and channel counts
    (1, ("plan", "nhi", *_TO, "--pair", "0,1")),
    (1, ("plan", "nhi", *_TO, "--pair", "1,65")),
    (1, ("fuel", "--target", "1", "--pair", "65,2")),
    (2, ("plan", "nhi", *_TO, "--pair", "1,x")),
    (1, ("plan", "gnhi", "--m", "1", "--from", "0", "--to", "1")),
    (1, ("plan", "gnhi", "--m", "9", "--from", ",".join(["0"] * 45), "--to", ",".join(["1"] * 45))),
    # rotations
    (1, (*_SO3, "1,1,0,0,1,0,0,0,1", "--duration", "1")),
    (1, (*_SO3, "-1,0,0,0,1,0,0,0,1", "--duration", "1")),
    (1, (*_SO3, "nan,0,0,0,1,0,0,0,1", "--duration", "1")),
    (1, (*_SO3, "1,2,x", "--duration", "1")),
    (1, (*_SO3, _HALF_TURN, "--duration", "1")),
    (0, (*_SO3, _HALF_TURN, "--duration", "1", "--accept-pi-tiebreak")),
    (0, (*_SO3, _HALF_TURN, "--duration", "1", "--mode", "underactuated")),
    # plan files
    (1, ("verify", "--plan", "{tmp}/absent.json")),
    (1, ("simulate", "--plan", "{tmp}/malformed.json")),
    (1, ("verify", "--plan", "{tmp}")),
    # --out paths that cannot be written: a directory, or under a file
    (1, ("plan", "nhi", *_TO, "--out", "{tmp}")),
    (1, ("plan", "nhi", *_TO, "--out", "{tmp}/malformed.json/plan.json")),
    (1, ("plan", "nhi", *_TO, "--out", "{tmp}/malformed.json/sub/plan.json")),
    (1, ("simulate", "--plan", "{golden}/plan_nhi_legendre.json", "--steps", "200", "--out", "{tmp}")),
    (1, ("simulate", "--plan", "{golden}/plan_nhi_legendre.json", "--steps", "200", "--out", "{tmp}/malformed.json/traj.csv")),
    (1, ("fuel", "--target", "1", "--out", "{tmp}")),
    (1, ("fuel", "--target", "1", "--out", "{tmp}/malformed.json/fuel.json")),
    (1, ("fuel", "--target", "1", "--compare", "legendre,trig", "--out", "{tmp}")),
]


# rows whose message is checked too
HOSTILE_MESSAGES = {
    ("plan", "nhi", *_TO, "--family", "jacobi", "--jacobi", "1,2,3"): "argument --jacobi: expected ALPHA,BETA",
}


@pytest.mark.parametrize("expected, argv", HOSTILE, ids=[" ".join(argv) for _, argv in HOSTILE])
def test_hostile_arguments_exit_cleanly(tmp_path, capsys, expected, argv):
    (tmp_path / "malformed.json").write_text("not json")
    message = HOSTILE_MESSAGES.get(argv, "")
    argv = [arg.replace("{tmp}", str(tmp_path)).replace("{golden}", str(GOLDEN)) for arg in argv]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, _, err = run(capsys, *argv)
    assert code == expected, err
    assert "Traceback" not in err and "math domain error" not in err and not caught
    if expected:
        assert "error: " in err and message in err


@pytest.mark.parametrize("exc", [MemoryError(), MemoryError("Unable to allocate 1.49 GiB for an array")])
def test_running_out_of_memory_is_an_error_line(capsys, monkeypatch, exc):
    def exhausted(*args, **kwargs):
        raise exc

    monkeypatch.setattr(cli, "simulate_plan", exhausted)
    code, out, err = run(capsys, "verify", "--plan", str(GOLDEN / "plan_nhi_legendre.json"))
    assert (code, out) == (1, "")
    assert err == f"error: {str(exc) or 'MemoryError'}\n"


@pytest.mark.parametrize("target", ["identity", "0,-1,0,1,0,0,0,0,1"])
def test_third_axis_targets_plan_phase_zero_and_verify(tmp_path, capsys, target):
    path = str(tmp_path / "plan.json")
    code, _, err = run(capsys, *_SO3, target, "--duration", "1", "--mode", "underactuated", "--out", path)
    assert code == 0, err
    assert json.loads(Path(path).read_text())["params"]["phi"] == 0.0
    code, out, err = run(capsys, "verify", "--plan", path)
    assert code == 0, out + err


# ---------------------------------------------------------------------------
# the output sink

# steps per phase of the merged gnhi m = 8 export below: 8 phases, 8001 rows
SINK_STEPS = 1000


def _traced_peak(fn) -> int:
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.fixture(scope="module")
def gnhi8(tmp_path_factory):
    """The gnhi m = 8 plan file and its merged trajectory at ``SINK_STEPS``."""
    target = np.random.default_rng(4).uniform(-2.0, 2.0, 36)
    plan = nhsteer.plan_gnhi(nhsteer.GnhiState.zeros(8), nhsteer.GnhiState.from_flat(8, target), family="legendre")
    plan_file = tmp_path_factory.mktemp("gnhi8") / "plan.json"
    plan_file.write_text(plan.to_json())
    return plan_file, nhsteer.simulate_plan(plan, steps=SINK_STEPS).merged


def test_trajectory_csv_peak_memory_is_one_block(tmp_path, gnhi8):
    assert _traced_peak(lambda: gnhi8[1].to_csv(tmp_path / "traj.csv")) < 8e6


def test_simulate_out_peak_memory_is_the_trajectories(tmp_path, capsys, gnhi8):
    plan_file, merged = gnhi8
    nbytes = merged.t.nbytes + sum(col.nbytes for col in merged.columns.values())
    argv = ["simulate", "--plan", str(plan_file), "--steps", str(SINK_STEPS), "--out", str(tmp_path / "traj.csv")]
    codes = []
    peak = _traced_peak(lambda: codes.append(main(argv)))
    assert codes == [0], capsys.readouterr().err
    assert peak <= nbytes + 8e6


def test_a_failed_simulation_leaves_the_out_file_as_it_was(tmp_path, capsys):
    # a plan file tampered so that its first input overflows the integrator
    plan_file = tmp_path / "plan.json"
    code, _, err = run(capsys, "plan", "nhi", "--from", "0,0,0", "--to", "1,-1,0.5", "--out", str(plan_file))
    assert code == 0, err
    data = json.loads(plan_file.read_text())
    for channel, scale in zip(data["phases"][0]["inputs"], (1e300, -1e300)):
        channel["terms"][0]["scale"] = scale
    plan_file.write_text(json.dumps(data))
    existing = tmp_path / "traj.csv"
    existing.write_bytes(b"t,x1,x2,x3,u1,u2\n0.0,0.0,0.0,0.0,1.0,2.0\n")
    code, out, err = run(capsys, "simulate", "--plan", str(plan_file), "--out", str(existing))
    assert (code, out) == (1, "")
    assert err.startswith("error: ") and "wrote" not in err
    assert existing.read_bytes() == b"t,x1,x2,x3,u1,u2\n0.0,0.0,0.0,0.0,1.0,2.0\n"


@pytest.mark.parametrize("rows", [1023, 1024, 1025, 2049])
def test_simulate_writes_the_same_bytes_to_stdout_and_out(tmp_path, capsys, rows):
    argv = ["simulate", "--plan", str(GOLDEN / "plan_nhi_legendre.json"), "--steps", str(rows - 1)]
    code, out, _ = run(capsys, *argv)
    assert code == 0 and out.count("\n") == 1 + rows
    path = tmp_path / "traj.csv"
    code, _, err = run(capsys, *argv, "--out", str(path))
    assert (code, err) == (0, f"wrote {path}\n")
    assert path.read_bytes() == out.encode()


# ---------------------------------------------------------------------------
# help and usage text

USAGE_GOLDEN = GOLDEN / "cli_usage.json"

USAGE_CASES = [
    ("--help",),
    ("plan", "--help"),
    ("plan", "nhi", "--help"),
    ("plan", "gnhi", "--help"),
    ("plan", "so3", "--help"),
    ("simulate", "--help"),
    ("verify", "--help"),
    ("fuel", "--help"),
    ("paper-repro", "--help"),
    # usage errors
    (),
    ("plan",),
    ("frobnicate",),
    ("plan", "frobnicate"),
    ("plan", "nhi", "--to", "0,0,1"),
    ("plan", "nhi", "--from", "0,0", "--to", "0,0,1"),
    ("plan", "nhi", "--from", "0,0,0", "--to", "0,0,1", "--family", "fourier"),
    ("verify",),
    ("simulate", "--plan", "p.json", "--steps", "x"),
]


def _usage(capsys, argv) -> dict:
    code, out, err = run(capsys, *argv)
    return {"code": code, "stdout": out, "stderr": err}


@pytest.mark.parametrize("argv", USAGE_CASES, ids=[" ".join(argv) or "(none)" for argv in USAGE_CASES])
def test_help_and_usage_text_is_unchanged(capsys, monkeypatch, argv):
    monkeypatch.setenv("COLUMNS", "80")
    assert _usage(capsys, argv) == json.loads(USAGE_GOLDEN.read_text())[" ".join(argv)]


@pytest.mark.parametrize(
    "argv, flags",
    [
        (("verify", "--plan", str(GOLDEN / "plan_nhi_legendre.json"), "--steps", "100"), ["--plan", "--steps"]),
        (
            ("plan", "nhi", *_TO),
            ["--from", "--to", "--family", "--pair", "--interval", "--jacobi", "--optimal", "--split", "--out"],
        ),
    ],
)
def test_a_command_adds_only_the_arguments_of_its_own_parsers(capsys, monkeypatch, argv, flags):
    added = []
    add_argument = argparse.ArgumentParser.add_argument

    def spy(self, *args, **kwargs):
        added.extend(args)
        return add_argument(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "add_argument", spy)
    code, _, err = run(capsys, *argv)
    assert code == 0, err
    # every parser is built with its own -h: the top level, its commands, and the systems of plan
    parsers = 1 + 5 + 3 * (argv[0] == "plan")
    assert sorted(added) == sorted(["-h", "--help"] * parsers + flags)


if __name__ == "__main__":
    import contextlib
    import io

    # prints the text of USAGE_GOLDEN for the current parser
    os.environ["COLUMNS"] = "80"
    table = {}
    for argv in USAGE_CASES:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(list(argv))
        table[" ".join(argv)] = {"code": code, "stdout": out.getvalue(), "stderr": err.getvalue()}
    print(json.dumps(table, indent=1))
