import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

import nhsteer
from nhsteer.cli import _glue_negative_values, main


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


def test_out_dir_env(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("NHSTEER_OUT_DIR", str(tmp_path))
    code, _, err = run(
        capsys,
        "plan", "nhi", "--from", "0,0,0", "--to", "0,0,1", "--out", "sub/plan.json",
    )
    assert code == 0
    assert (tmp_path / "sub" / "plan.json").exists()
