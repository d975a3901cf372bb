import collections
import dataclasses
import json
import math
import re

import numpy as np
import pytest
import mpmath
from numpy.testing import assert_allclose

from nhsteer.dynamics import Rotation, _rotation_quaternion, exp_rotation, integrate_so3, log_rotation
from nhsteer import so3_control
from nhsteer.errors import ConvergenceError, DomainError, IntegrabilityError, SingularityError
from nhsteer.orthopoly import Harmonic
from nhsteer.so3_control import (
    AttitudePlan,
    constant_omega_plan,
    costate_residual,
    simulate_attitude,
    so3_sl_residual,
    underactuated_flow,
    underactuated_plan,
    weighted_rate_plan,
)


def _random_rotation(rng, scale=1.0):
    return Rotation(exp_rotation(rng.normal(size=3) * scale))


# ---------------------------------------------------------------------------
# constant-rate planner


def test_constant_rate_reaches_random_targets():
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(20):
        g0, g1 = _random_rotation(rng), _random_rotation(rng)
        duration = float(rng.uniform(0.5, 3.0))
        plan = constant_omega_plan(g0, g1, duration)
        _, err = simulate_attitude(plan, steps=2000)
        worst = max(worst, err)
        assert costate_residual(plan, [0.0, duration / 2, duration]) < 1e-12
    assert worst < 1e-10


def test_constant_rate_cost():
    v = np.array([0.3, -0.2, 0.5])
    g1 = Rotation(exp_rotation(v))
    plan = constant_omega_plan(Rotation.identity(), g1, 2.0)
    # T * ||v/T||^2 = ||v||^2 / T
    assert_allclose(plan.cost, (v @ v) / 2.0, atol=1e-12)
    assert_allclose(
        [plan.params["w1"], plan.params["w2"], plan.params["w3"]], v / 2.0, atol=1e-12
    )


def test_constant_rate_rejects_bad_duration():
    g1 = Rotation(exp_rotation(np.array([0.1, 0.2, 0.3])))
    with pytest.raises(ValueError):
        constant_omega_plan(Rotation.identity(), g1, 0.0)


def test_plan_json_dict_shape():
    g1 = Rotation(exp_rotation(np.array([0.4, -0.1, 0.2])))
    plan = constant_omega_plan(Rotation.identity(), g1, 2.0)
    data = plan.to_json_dict()
    assert data["mode"] == "constant"
    assert data["duration"] == 2.0
    assert len(data["g0"]) == 3 and len(data["g0"][0]) == 3
    assert set(data["params"]) == {"w1", "w2", "w3"}
    assert isinstance(data["cost"], float)


@pytest.mark.parametrize("planner", [constant_omega_plan, underactuated_plan])
def test_plan_json_round_trip_rebuilds_the_rate_laws(planner):
    g1 = Rotation(exp_rotation(np.array([0.3, -0.2, 0.25])))
    plan = planner(Rotation.identity(), g1, 2.0)
    assert plan.mode == "constant" or plan.params["r"] != 0.0
    clone = AttitudePlan.from_json_dict(plan.to_json_dict())
    assert clone.to_json_dict() == plan.to_json_dict()
    want = integrate_so3(plan.omega, plan.g0, (0.0, plan.duration), steps=500)
    got = integrate_so3(clone.omega, clone.g0, (0.0, clone.duration), steps=500)
    for name in want.state_names + want.input_names:
        assert np.array_equal(got.columns[name], want.columns[name])


def test_weighted_plan_json_cannot_rebuild_its_rates():
    g1 = Rotation(exp_rotation(np.array([0.3, -0.2, 0.25])))
    plan = weighted_rate_plan(Rotation.identity(), g1, 2.0, lambda t: 1.0 + t)
    with pytest.raises(ValueError):
        AttitudePlan.from_json_dict(plan.to_json_dict())


# ---------------------------------------------------------------------------
# weighted-rate planner


def test_weighted_rate_plan_exact_endpoint_and_cost():
    g0 = Rotation(exp_rotation(np.array([0.1, 0.4, -0.2])))
    g1 = Rotation(exp_rotation(np.array([-0.5, 0.2, 0.9])))
    plan = weighted_rate_plan(g0, g1, 2.0, lambda t: 1.0 + t * t)
    _, err = simulate_attitude(plan, steps=4000)
    assert err < 1e-9
    # integral of 1/(1+t^2) over [0, 2] is arctan 2
    assert_allclose(plan.params["rate_integral"], math.atan(2.0), atol=1e-12)
    c = np.array([plan.params["c1"], plan.params["c2"], plan.params["c3"]])
    assert_allclose(plan.cost, (c @ c) * math.atan(2.0), atol=1e-12)
    assert costate_residual(plan, np.linspace(0.0, 2.0, 9)) < 1e-12


def test_weighted_rate_plan_rejects_sign_changing_weight():
    g0 = Rotation.identity()
    g1 = Rotation(exp_rotation(np.array([0.1, 0.2, 0.3])))
    with pytest.raises(ValueError):
        weighted_rate_plan(g0, g1, 2.0, lambda t: 1.0 - t)


def test_weighted_rate_plan_refuses_a_weight_that_dips_below_zero_between_samples():
    # the 257 samples of [0, 2] step by 1/128; q < 0 only within 1e-3 of 1.00390625, between two of them
    g0 = Rotation.identity()
    g1 = Rotation(exp_rotation(np.array([0.1, 0.2, 0.3])))
    with pytest.raises(ValueError, match="must be positive on") as info:
        weighted_rate_plan(g0, g1, 2.0, lambda t: (t - 1.00390625) ** 2 - 1e-6)
    assert isinstance(info.value.__cause__, IntegrabilityError)
    assert "1/q" in str(info.value)


def test_weighted_rate_constant_weight_matches_constant_planner():
    rng = np.random.default_rng(21)
    g0, g1 = _random_rotation(rng), _random_rotation(rng)
    flat = weighted_rate_plan(g0, g1, 2.0, lambda t: 1.0)
    const = constant_omega_plan(g0, g1, 2.0)
    assert_allclose(
        [flat.params["c1"], flat.params["c2"], flat.params["c3"]],
        [const.params["w1"], const.params["w2"], const.params["w3"]],
        atol=1e-10,
    )
    assert_allclose(flat.cost, const.cost, atol=1e-10)


# ---------------------------------------------------------------------------
# underactuated planner


def test_closed_flow_matches_integrator():
    r, phi, c = 0.8, 0.3, 1.0 + math.pi
    g0 = exp_rotation(np.array([0.05, -0.3, 0.6]))
    omega = (
        Harmonic("cos", c - 1.0, phi, r),
        Harmonic("sin", c - 1.0, phi, -r),
        Harmonic("cos", 0.0, 0.0, 1.0),
    )
    traj = integrate_so3(omega, Rotation(g0), (0.0, 2.0), steps=4000)
    g_end = np.array(
        [[traj.columns[f"g{i}{j}"][-1] for j in (1, 2, 3)] for i in (1, 2, 3)]
    )
    closed = underactuated_flow(r, phi, c, 2.0, g0)
    assert np.max(np.abs(g_end - closed)) < 5e-13


def test_costate_residual_reads_the_plan_rate_laws():
    # rates of c = 1.7 against a costate p3 = 2 c' of c' = 1.8: p' - omega x p = 2 (c - c') (omega2, -omega1, 0)
    r, phi, c = 0.6, 0.4, 1.7
    plan = underactuated_plan(Rotation.identity(), Rotation.identity(), 1.0)
    wrong = dataclasses.replace(
        plan, omega=so3_control._underactuated_rates(r, phi, c), params={"r": r, "phi": phi, "c": c + 0.1}
    )
    ts = np.linspace(0.0, 2.0, 41)
    arg = (c - 1.0) * ts + phi
    want = float(np.max(np.maximum(np.abs(0.2 * r * np.sin(arg)), np.abs(0.2 * r * np.cos(arg)))))
    assert_allclose(costate_residual(wrong, ts), want, rtol=1e-12)
    assert costate_residual(dataclasses.replace(wrong, params={**wrong.params, "c": c}), ts) < 1e-15


def test_a_constant_rate_is_a_harmonic_of_frequency_zero():
    # record the grid of a 4000-step attitude integration: each rate is evaluated
    # once, on the nodes followed by both Magnus stage grids
    seen = []

    def recorder(t):
        seen.append(np.array(t, dtype=float))
        return np.ones_like(seen[-1])

    integrate_so3((recorder,) * 3, interval=(0.0, 2.0), steps=4000)
    assert [len(g) for g in seen] == [4001 + 4000 + 4000] * 3
    grid = seen[0]
    for v in (1.0, -0.37, 1e-300, 1e300):
        rate = Harmonic("cos", 0.0, 0.0, v)
        assert rate(0.7) == v
        assert np.all(rate(grid) == v)
        assert np.all(rate.derivative(grid) == 0.0)


def test_underactuated_shooting_random_targets():
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(12):
        g0 = _random_rotation(rng, scale=0.9)
        g1 = _random_rotation(rng, scale=0.9)
        duration = float(rng.uniform(1.0, 3.0))
        plan = underactuated_plan(g0, g1, duration)
        _, err = simulate_attitude(plan, steps=4000)
        worst = max(worst, err)
        assert costate_residual(plan, np.linspace(0.0, duration, 11)) < 1e-9
        # the third channel spins at exactly unit rate
        assert plan.omega[2](0.7) == 1.0
        # the transverse channels trace a circle of radius r
        tt = np.linspace(0.0, duration, 50)
        mag = plan.omega[0](tt) ** 2 + plan.omega[1](tt) ** 2
        assert np.max(np.abs(mag - plan.params["r"] ** 2)) < 1e-12
        assert_allclose(plan.cost, 0.5 * plan.params["r"] ** 2 * duration, atol=1e-12)
    assert worst < 1e-8


def test_underactuated_trivial_target_needs_no_steering():
    g0 = Rotation(exp_rotation(np.array([0.2, 0.1, -0.4])))
    duration = 1.5
    drift = Rotation(exp_rotation(duration * np.array([0.0, 0.0, 1.0])) @ g0.matrix)
    plan = underactuated_plan(g0, drift, duration)
    assert plan.params["r"] == 0.0
    assert plan.cost == 0.0
    _, err = simulate_attitude(plan, steps=2000)
    assert err < 1e-12


_README_TARGET = np.array([[0.36, 0.48, -0.8], [-0.8, 0.6, 0.0], [0.48, 0.64, 0.6]])


@pytest.mark.parametrize("duration", [1e15, 1e20, 1e100, 1e150])
def test_underactuated_plan_at_a_very_long_duration_is_not_a_plan_at_rest(duration):
    # the rest test used to compare the angle over T, so every target passed it once T > pi 1e14
    with pytest.raises(ConvergenceError):
        underactuated_plan(np.eye(3), _README_TARGET, duration)


@pytest.mark.parametrize("duration", [1.4e154, 1e160, 1e300])
def test_underactuated_plan_names_a_duration_that_overflows_the_residual(duration):
    with pytest.raises(DomainError, match=re.escape(f"duration {duration!r} overflows")):
        underactuated_plan(np.eye(3), _README_TARGET, duration)


@pytest.mark.parametrize("angle", [0.0, 0.7, -2.0, math.pi])
@pytest.mark.parametrize("duration", [0.3, 1.0, 2.0, 5.0])
def test_third_axis_targets_report_phase_zero(angle, duration):
    # any phase closes the loop, and the residual at phase zero is the reported one
    g1 = exp_rotation(np.array([0.0, 0.0, angle]))
    plan = underactuated_plan(np.eye(3), g1, duration)
    r, phi, c = (plan.params[k] for k in ("r", "phi", "c"))
    assert phi == 0.0
    gap = so3_control._shooting_residual((r, 0.0, c), duration, _rotation_quaternion(g1.T))
    assert math.sqrt(sum(v * v for v in gap)) == pytest.approx(plan.params["residual"], abs=1e-14)
    _, err = simulate_attitude(plan, steps=4000)
    assert err < 1e-9


def test_shooting_residual_matches_the_matrix_flow():
    # the quaternion residual against log(flow g1^T) on matrices; every fifth relative
    # rotation is within 1e-9 of a half-turn (the tie-break) and every fifth within
    # 1e-13 of the identity (the 2 vec branch of the logarithm)
    rng = np.random.default_rng(11)
    for k in range(600):
        duration = (0.3, 1.0, 2.0, 5.0)[k % 4]
        params = (rng.uniform(-3.0, 3.0), rng.uniform(-math.pi, math.pi), rng.uniform(-8.0, 8.0))
        g0 = _random_rotation(rng, scale=2.0).matrix
        pred = underactuated_flow(*params, duration, g0)
        axis = rng.normal(size=3)
        axis /= np.linalg.norm(axis)
        if k % 5 == 3:
            angle = math.pi - (1e-9, 1e-11, 0.0)[k % 3]
        elif k % 5 == 4:
            angle = rng.uniform(0.0, 1e-13)
        else:
            angle = rng.uniform(0.0, math.pi)
        g1 = exp_rotation(angle * axis).T @ pred
        want = log_rotation(pred @ g1.T, accept_pi_tiebreak=True)
        got = so3_control._shooting_residual(params, duration, _rotation_quaternion(g0 @ g1.T))
        assert np.max(np.abs(np.array(got) - want)) <= 1e-13 * max(1.0, np.linalg.norm(want)), (k, got, want)


def test_underactuated_shooting_calls_no_matrix_routine(monkeypatch):
    # the README target: the loop and the start amplitude r0 run on quaternions in plain floats
    calls = collections.Counter()

    def spy(name, fn):
        def counted(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return counted

    for name in ("exp_rotation", "log_rotation", "underactuated_flow"):
        monkeypatch.setattr(so3_control, name, spy(name, getattr(so3_control, name)))
    monkeypatch.setattr(np.linalg, "solve", spy("solve", np.linalg.solve))
    g1 = np.array([[0.36, 0.48, -0.8], [-0.8, 0.6, 0.0], [0.48, 0.64, 0.6]])
    plan = underactuated_plan(np.eye(3), g1, 2.0)
    assert plan.params["iterations"] == 9
    assert all(calls[name] == 0 for name in ("exp_rotation", "log_rotation", "underactuated_flow", "solve")), calls


def test_start_amplitude_is_the_angle_left_by_the_pure_third_axis_turn():
    # r0 T = |residual at (0, 0, 1)| is the angle of g1 (exp(T E3) g0)^T, the inverse rotation
    rng = np.random.default_rng(3)
    for duration in (0.3, 1.0, 2.0, 5.0):
        g0, g1 = (_random_rotation(rng, scale=2.0).matrix for _ in range(2))
        gap = so3_control._shooting_residual((0.0, 0.0, 1.0), duration, _rotation_quaternion(g0 @ g1.T))
        angle = np.linalg.norm(log_rotation(g1 @ (exp_rotation(duration * np.array([0.0, 0.0, 1.0])) @ g0).T))
        assert_allclose(math.sqrt(sum(v * v for v in gap)), angle, rtol=1e-14)


@pytest.mark.parametrize(
    "gram",
    [
        [[1.0, 0.0, 0.0], [0.0, -1.0, 0.0], [0.0, 0.0, 1.0]],  # second pivot negative
        [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, -1.0]],  # third pivot negative
        [[1.0, 2.0, 0.0], [2.0, 1.0, 0.0], [0.0, 0.0, 1.0]],  # second pivot 1 - 4 after elimination
    ],
)
def test_damped_solve_gives_up_on_a_pivot_that_is_not_positive(gram):
    assert so3_control._damped_solve(gram, [1.0, 1.0, 1.0], 0.0) is None
    assert so3_control._damped_solve(gram, [1.0, 1.0, 1.0], 10.0) is not None


def _quaternion_rotation(q):
    w, x, y, z = q / np.linalg.norm(q)
    return np.array(
        [
            [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
            [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
            [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)],
        ]
    )


_PROBE_QUATERNIONS = np.random.default_rng(0).normal(size=(200, 4))


@pytest.mark.xfail(
    strict=True,
    raises=ConvergenceError,
    reason="defect (b): underactuated shooting stalls on these targets; ROADMAP direction 2 (one scalar root) fixes it",
)
@pytest.mark.parametrize(
    "target, duration",
    [
        pytest.param(_quaternion_rotation(_PROBE_QUATERNIONS[43]), 5.0, id="probe-k43-T5"),
        pytest.param(_quaternion_rotation(_PROBE_QUATERNIONS[125]), 1.0, id="probe-k125-T1"),
        pytest.param(_quaternion_rotation(_PROBE_QUATERNIONS[159]), 5.0, id="probe-k159-T5"),
        # 0.368 rad at T = 0.3; the shooting stalls at residual 4.2e-3
        pytest.param(
            exp_rotation(np.array([0.13624107791516032, -0.2802135821380453, 0.19510988617953484])),
            0.3,
            id="small-rotation-T0.3",
        ),
    ],
)
def test_underactuated_shooting_reaches_defect_b_targets(target, duration):
    plan = underactuated_plan(np.eye(3), target, duration)
    _, err = simulate_attitude(plan, steps=4000)
    assert err < 1e-8


# ---------------------------------------------------------------------------
# differential certificates


def test_sl_residual_unit_weight():
    # with unit weight the pair reduces to w'' + (c-1)^2 w = 0
    c = 2.3
    w1 = Harmonic("cos", c - 1.0, 0.4, 0.7)
    w2 = Harmonic("sin", c - 1.0, 0.4, -0.7)
    for t in (0.1, 0.9, 2.2):
        r1, r2 = so3_sl_residual(1.0, c, w1, w2, t)
        assert abs(r1) < 1e-10 and abs(r2) < 1e-10


def test_sl_residual_constant_weight_two():
    # q = 2, c = 3 gives 4 w'' + w = 0, solved by cos(t/2)
    w1 = Harmonic("cos", 0.5, 0.0, 1.0)
    w2 = Harmonic("sin", 0.5, 0.0, -1.0)
    for t in (0.3, 1.7):
        r1, r2 = so3_sl_residual(2.0, 3.0, w1, w2, t)
        assert abs(r1) < 1e-10 and abs(r2) < 1e-10


def test_sl_residual_detects_wrong_frequency():
    w2 = Harmonic("sin", 1.3, 0.0, -0.7)
    bad = Harmonic("cos", 0.9, 0.0, 1.0)
    r1, _ = so3_sl_residual(1.0, 2.3, bad, w2, 0.5)
    assert abs(r1) > 1e-3


def test_sl_residual_singularity_guard():
    w1 = Harmonic("cos", 0.5, 0.0, 1.0)
    w2 = Harmonic("sin", 0.5, 0.0, -1.0)
    with pytest.raises(SingularityError):
        so3_sl_residual(lambda t: 3.0 - t, 2.0, w1, w2, 1.0)  # q(1) = c


def test_sl_residual_callable_weight_path():
    c = 2.3
    r1, r2 = so3_sl_residual(
        lambda t: 1.0,
        c,
        Harmonic("cos", c - 1.0, 0.4, 0.7),
        Harmonic("sin", c - 1.0, 0.4, -0.7),
        0.8,
    )
    assert abs(r1) < 1e-4 and abs(r2) < 1e-4  # finite-difference path


@pytest.mark.parametrize(
    "planner", [constant_omega_plan, underactuated_plan, lambda g0, g1, T: weighted_rate_plan(g0, g1, T, 1.0)]
)
@pytest.mark.parametrize("duration", [math.nan, math.inf, -math.inf, 0.0])
def test_planners_refuse_non_finite_or_non_positive_durations(planner, duration):
    with pytest.raises(ValueError, match="duration must be positive and finite"):
        planner(np.eye(3), np.eye(3), duration)


def test_underactuated_plan_refuses_a_nan_residual(monkeypatch):
    # `norm >= bound` is False for NaN, so a NaN residual used to pass as converged
    monkeypatch.setattr(so3_control, "_shooting_residual", lambda *args: np.full(3, math.nan))
    g1 = exp_rotation(np.array([0.3, -0.2, 0.5]))
    with pytest.raises(ConvergenceError):
        underactuated_plan(np.eye(3), g1, 1.0)


def test_simulate_attitude_reports_the_frobenius_error():
    # the underactuated rates turn their axis, so 100 Magnus steps end well above roundoff
    g1 = Rotation(exp_rotation(np.array([0.4, 0.1, -0.3])))
    plan = underactuated_plan(np.eye(3), g1, 1.0)
    traj, err = simulate_attitude(plan, steps=100)
    g_end = np.array([[traj.columns[f"g{i}{j}"][-1] for j in (1, 2, 3)] for i in (1, 2, 3)])
    assert 1e-9 < err == pytest.approx(np.linalg.norm(g_end - g1.matrix), rel=1e-14)
    assert err > np.max(np.abs(g_end - g1.matrix))


def test_weighted_rate_plan_refuses_a_nan_weight():
    # `min(q) <= 0` is False for NaN, so a NaN weight used to pass the positivity check
    with pytest.raises(ValueError, match="must be positive"):
        weighted_rate_plan(np.eye(3), np.eye(3), 1.0, lambda t: math.nan)


@pytest.mark.parametrize("duration", [1e-160, 1e-300, 1e-308])
def test_tiny_durations_get_finite_rates_and_cost(duration):
    # ||omega||^2 overflowed with numpy RuntimeWarnings, and the cost came out inf: plan so3 wrote
    # "cost": Infinity, which its own reader refused
    g1 = exp_rotation(np.array([0.3, -1.2, 0.5]))
    angle = log_rotation(g1)
    constant = constant_omega_plan(np.eye(3), g1, duration)
    weighted = weighted_rate_plan(np.eye(3), g1, duration, lambda t: 0.5)
    for plan, names, length in (
        (constant, ("w1", "w2", "w3"), duration),
        (weighted, ("c1", "c2", "c3"), weighted.params["rate_integral"]),
    ):
        assert [plan.params[name] for name in names] == [float(x) / length for x in angle]
        with mpmath.workdps(40):
            want = mpmath.fsum(mpmath.mpf(float(x)) ** 2 for x in angle) / mpmath.mpf(length)
            assert abs((plan.cost - want) / want) <= 1e-15
    assert AttitudePlan.from_json_dict(json.loads(constant.to_json())).cost == constant.cost


@pytest.mark.parametrize(
    "planner, duration",
    [
        (constant_omega_plan, 1e-310),
        (constant_omega_plan, 5e-324),
        (lambda g0, g1, T: weighted_rate_plan(g0, g1, T, lambda t: 0.5), 1e-310),
    ],
)
def test_durations_whose_rates_overflow_are_refused(planner, duration):
    with pytest.raises(DomainError, match="a rate over .* is not finite"):
        planner(np.eye(3), exp_rotation(np.array([0.3, -1.2, 0.5])), duration)


def test_a_rate_integral_that_underflows_is_refused():
    # over [0, 5e-324] the integral of 1/q is zero, and the rates divided by it with a numpy RuntimeWarning
    with pytest.raises(DomainError, match=r"the integral of 1/q over \[0, 5e-324\] underflows to 0.0"):
        weighted_rate_plan(np.eye(3), exp_rotation(np.array([0.3, -1.2, 0.5])), 5e-324, lambda t: 2.0)
