import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from nhsteer.dynamics import Rotation, exp_rotation, integrate_so3
from nhsteer.errors import SingularityError
from nhsteer.orthopoly import Harmonic
from nhsteer.so3_control import (
    AttitudePlan,
    ConstantRate,
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
        ConstantRate(1.0),
    )
    traj = integrate_so3(omega, Rotation(g0), (0.0, 2.0), steps=4000, scheme="magnus4")
    g_end = np.array(
        [[traj.columns[f"g{i}{j}"][-1] for j in (1, 2, 3)] for i in (1, 2, 3)]
    )
    closed = underactuated_flow(r, phi, c, 2.0, g0)
    assert np.max(np.abs(g_end - closed)) < 5e-13


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
