import json
import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from nhsteer.dynamics import GnhiState, NhiState, integrate_nhi
from nhsteer.errors import CapabilityError, DomainError, PlannerError
from nhsteer.orthopoly import (
    CHEBYSHEV_FIRST,
    CHEBYSHEV_SECOND,
    JACOBI,
    LEGENDRE,
    SHIFTED_INTERVAL,
    basis_signal,
)
from nhsteer.steering import (
    SteeringPlan,
    default_pair,
    pair_signals,
    plan_gnhi,
    plan_nhi,
    scale_pair,
    simulate_plan,
)

FAMILIES = [LEGENDRE, CHEBYSHEV_FIRST, CHEBYSHEV_SECOND, "trig"]


# ---------------------------------------------------------------------------
# shape pairs


def test_default_pairs():
    assert default_pair(LEGENDRE) == (1, 2)
    assert default_pair(CHEBYSHEV_FIRST) == (1, 2)
    assert default_pair("trig") == (1, 1)


def test_pair_signals_parity_sorted():
    odd, even = pair_signals(LEGENDRE, (2, 3))  # indices arrive unordered
    assert odd.terms[0].element.index == 3
    assert even.terms[0].element.index == 2


def test_pair_signals_weighting():
    odd, even = pair_signals(CHEBYSHEV_FIRST, (1, 2))
    assert odd.terms[0].weighted and even.terms[0].weighted
    odd, even = pair_signals(LEGENDRE, (1, 2))
    assert not odd.terms[0].weighted and not even.terms[0].weighted


def test_pair_signals_validation():
    with pytest.raises(ValueError):
        pair_signals(LEGENDRE, (0, 1))  # constant shape would move x1 permanently
    with pytest.raises(ValueError):
        pair_signals(LEGENDRE, (1, 3))  # both odd: coupling vanishes by parity
    with pytest.raises(ValueError):
        pair_signals(JACOBI, (1, 2), jacobi_params=(0.3, 0.1))  # needs alpha == beta
    with pytest.raises(ValueError):
        pair_signals("trig", (1, 0))  # cos index 0 is constant
    with pytest.raises(CapabilityError):
        pair_signals(CHEBYSHEV_FIRST, (1, 2), interval=SHIFTED_INTERVAL)


# ---------------------------------------------------------------------------
# planar planning


def test_unit_transfer_amplitudes_and_cost():
    plan = plan_nhi((0.0, 0.0, 0.0), (0.0, 0.0, 1.0), family=LEGENDRE)
    move = plan.phases[-1]
    scales = [sig.terms[0].scale for sig in move.inputs]
    assert_allclose(np.abs(scales), math.sqrt(15.0) / 2.0, atol=1e-12)
    assert_allclose(plan.cost, 4.0, atol=1e-12)
    assert plan.predicted_endpoint == {"x1": 0.0, "x2": 0.0, "x3": 1.0}


@pytest.mark.parametrize("family", FAMILIES)
def test_plans_reach_their_targets(family):
    x0 = (0.4, -1.2, 0.7)
    xf = (-2.0, 1.5, -3.0)
    plan = plan_nhi(x0, xf, family=family)
    end = simulate_plan(plan, steps=4000).terminal
    for name, want in plan.predicted_endpoint.items():
        assert abs(end[name] - want) < 1e-6, (family, name)
    assert plan.predicted_endpoint == {"x1": -2.0, "x2": 1.5, "x3": -3.0}


def test_plans_on_the_shifted_interval():
    plan = plan_nhi((0.0, 0.0, 0.0), (0.0, 0.0, 1.0), family=LEGENDRE, interval=SHIFTED_INTERVAL)
    move = plan.phases[-1]
    scales = [sig.terms[0].scale for sig in move.inputs]
    assert_allclose(np.abs(scales), math.sqrt(15.0), atol=1e-12)  # 1/15 coupling
    end = simulate_plan(plan, steps=4000).terminal
    assert abs(end["x3"] - 1.0) < 1e-6


def test_jacobi_family_plan():
    plan = plan_nhi(
        (0.0, 0.0, 0.0), (1.0, -0.5, 2.0), family=JACOBI, jacobi_params=(0.5, 0.5)
    )
    end = simulate_plan(plan, steps=4000).terminal
    for name, want in plan.predicted_endpoint.items():
        assert abs(end[name] - want) < 1e-6


@pytest.mark.xfail(
    strict=True,
    reason="RK4 in the arc variable converges at order about 2a + 2 for weight exponent a: "
    "cos(s/2)^(2a+1) is not smooth at s = pi, so this plan ends 7.6e-5 off at 4000 steps",
)
def test_weighted_jacobi_plan_with_a_small_exponent_meets_verify_tolerance():
    plan = plan_nhi((0.0, 0.0, 0.0), (0.0, 0.0, 1.0), family=JACOBI, jacobi_params=(-0.45, -0.45))
    end = simulate_plan(plan, steps=4000).terminal
    for name, want in plan.predicted_endpoint.items():
        assert abs(end[name] - want) <= 1e-6, name


def test_planners_refuse_jacobi_exponents_below_minus_half():
    # simulate_plan refuses such weighted inputs, so the planners do not write them
    params, refusal = (-0.9, -0.9), "exponent -0.9 is below -1/2"
    with pytest.raises(CapabilityError, match=refusal):
        plan_nhi((0.0, 0.0, 0.0), (0.0, 0.0, 1.0), family=JACOBI, jacobi_params=params)
    cross = GnhiState.from_flat(3, [0.0, 0.0, 0.0, 0.0, 0.0, 1.0])
    with pytest.raises(CapabilityError, match=refusal):
        plan_gnhi(GnhiState.zeros(3), cross, family=JACOBI, jacobi_params=params)
    # translations use constant (unweighted) inputs and still plan and simulate
    translation = GnhiState.from_flat(3, [1.0, -1.0, 0.5, 0.0, 0.0, 0.0])
    for plan in (
        plan_nhi((0.0, 0.0, 0.0), (1.0, -1.0, 0.0), family=JACOBI, jacobi_params=params),
        plan_gnhi(GnhiState.zeros(3), translation, family=JACOBI, jacobi_params=params),
    ):
        end = simulate_plan(plan, steps=200).terminal
        for name, want in plan.predicted_endpoint.items():
            assert abs(end[name] - want) < 1e-12


def test_jacobi_params_given_as_a_list():
    # the coupling cache key must not depend on the container type
    as_list = plan_nhi((0.0, 0.0, 0.0), (0.0, 0.0, 1.0), family=JACOBI, jacobi_params=[0.5, 0.5])
    as_tuple = plan_nhi((0.0, 0.0, 0.0), (0.0, 0.0, 1.0), family=JACOBI, jacobi_params=(0.5, 0.5))
    assert as_list.to_json() == as_tuple.to_json()
    sf = GnhiState.from_flat(3, [0.0, 0.0, 0.0, 1.0, -0.5, 0.25])
    plan = plan_gnhi(GnhiState.zeros(3), sf, family=JACOBI, jacobi_params=[0.5, 0.5])
    assert plan.to_json() == plan_gnhi(
        GnhiState.zeros(3), sf, family=JACOBI, jacobi_params=(0.5, 0.5)
    ).to_json()


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_states_are_rejected(bad):
    with pytest.raises(DomainError):
        plan_nhi((0.0, 0.0, 0.0), (0.0, 0.0, bad))
    with pytest.raises(DomainError):
        plan_nhi((bad, 0.0, 0.0), (0.0, 0.0, 1.0))
    with pytest.raises(DomainError):
        plan_gnhi(GnhiState.zeros(3), GnhiState.from_flat(3, [0.0, 0.0, 0.0, bad, 0.0, 0.0]))
    with pytest.raises(DomainError):
        plan_gnhi(GnhiState.zeros(3), GnhiState.from_flat(3, [0.0, bad, 0.0, 0.0, 0.0, 0.0]))


def test_negative_displacement_swaps_channels():
    up = plan_nhi((0.0, 0.0, 0.0), (0.0, 0.0, 1.0), family=LEGENDRE)
    down = plan_nhi((0.0, 0.0, 0.0), (0.0, 0.0, -1.0), family=LEGENDRE)
    up_odd = up.phases[-1].inputs[0].terms[0].element.index
    down_odd = down.phases[-1].inputs[0].terms[0].element.index
    assert up_odd != down_odd  # the odd shape changes channel
    end = simulate_plan(down, steps=4000).terminal
    assert abs(end["x3"] + 1.0) < 1e-6


def test_family_independence():
    x0 = (1.0, -0.5, 0.25)
    xf = (-0.75, 2.0, 1.5)
    endpoints = []
    for family in FAMILIES:
        end = simulate_plan(plan_nhi(x0, xf, family=family), steps=4000).terminal
        endpoints.append([end["x1"], end["x2"], end["x3"]])
    spread = np.max(np.abs(np.array(endpoints) - np.array(endpoints)[0]))
    assert spread < 2e-6


def test_non_interference_of_single_phases():
    plan = plan_nhi((0.5, -0.25, 0.1), (1.5, 2.0, -0.75), family=LEGENDRE)
    state = dict(plan.initial)
    for phase in plan.phases:
        traj = integrate_nhi(
            phase.inputs,
            x0=NhiState(state["x1"], state["x2"], state["x3"]),
            interval=phase.interval,
            steps=4000,
        )
        end = traj.terminal
        for name in phase.fixes:
            assert abs(end[name] - state[name]) < 1e-8, (name, phase.moves)
        state = {k: end[k] for k in ("x1", "x2", "x3")}


def test_weighted_plans_have_infinite_energy():
    plan = plan_nhi((0.0, 0.0, 0.0), (0.0, 0.0, 1.0), family=CHEBYSHEV_FIRST)
    assert math.isinf(plan.cost)
    data = plan.to_json_dict()
    assert data["cost"] is None
    clone = SteeringPlan.from_json_dict(json.loads(plan.to_json()))
    assert math.isinf(clone.cost)
    end = simulate_plan(clone, steps=4000).terminal
    assert abs(end["x3"] - 1.0) < 1e-6


def test_plan_json_round_trip_is_lossless():
    plan = plan_nhi((0.1, 0.2, 0.3), (-0.4, 0.5, -0.6), family=CHEBYSHEV_SECOND)
    text = plan.to_json()
    clone = SteeringPlan.from_json(text)
    assert clone == plan
    assert clone.to_json() == text  # byte-stable serialization


# ---------------------------------------------------------------------------
# generalized planning


def test_gnhi_m2_matches_planar_planner():
    s0 = GnhiState.from_flat(2, [0.0, 0.0, 0.0])
    sf = GnhiState.from_flat(2, [1.0, 2.0, 0.5])
    plan = plan_gnhi(s0, sf, family=LEGENDRE)
    end = simulate_plan(plan, steps=4000).terminal
    assert abs(end["x1"] - 1.0) < 1e-6
    assert abs(end["x2"] - 2.0) < 1e-6
    assert abs(end["x12"] - 0.5) < 1e-6


@pytest.mark.parametrize("family", FAMILIES)
def test_gnhi_m3_reaches_all_six_coordinates(family):
    s0 = GnhiState.zeros(3)
    sf = GnhiState.from_flat(3, [1.0, -2.0, 0.5, 1.5, -0.75, 2.0])
    plan = plan_gnhi(s0, sf, family=family)
    end = simulate_plan(plan, steps=4000).terminal
    for name, want in plan.predicted_endpoint.items():
        assert abs(end[name] - want) < 1e-6, (family, name)


def test_gnhi_row_phases_leave_other_rows_alone():
    s0 = GnhiState.zeros(3)
    sf = GnhiState.from_flat(3, [0.0, 0.0, 0.0, 1.0, 2.0, 3.0])
    plan = plan_gnhi(s0, sf, family=LEGENDRE)
    result = simulate_plan(plan, steps=2000)
    # every phase after the first targets exactly one cross coordinate
    for phase, traj in zip(plan.phases, result.trajectories):
        end = traj.terminal
        for name, value in phase.endpoint.items():
            assert abs(end[name] - value) < 1e-8


def test_gnhi_m_mismatch():
    s0 = GnhiState.zeros(3)
    sf = GnhiState.zeros(4)
    with pytest.raises(ValueError):
        plan_gnhi(s0, sf)


# ---------------------------------------------------------------------------
# amplitude solving


def test_scale_pair_hits_requested_displacement():
    u1 = basis_signal(LEGENDRE, 1)
    u2 = basis_signal(LEGENDRE, 2)
    for target in (0.8, -1.3):
        s1, s2 = scale_pair(u1, u2, target)
        end = integrate_nhi(
            (basis_signal(LEGENDRE, 1, scale=s1), basis_signal(LEGENDRE, 2, scale=s2)),
            steps=4000,
        ).terminal
        assert abs(end["x3"] - target) < 1e-6
    assert scale_pair(u1, u2, 0.0) == (0.0, 0.0)


def test_scale_pair_rejects_degenerate_coupling():
    u1 = basis_signal(LEGENDRE, 1)
    with pytest.raises(PlannerError):
        scale_pair(u1, u1, 1.0)  # antisymmetry makes the coupling vanish


# ---------------------------------------------------------------------------
# simulation plumbing


def test_merged_trajectory_is_continuous():
    plan = plan_nhi((0.0, 0.0, 0.0), (1.0, 1.0, 1.0), family=LEGENDRE)
    result = simulate_plan(plan, steps=500)
    t = result.merged.t
    assert np.all(np.diff(t) > 0)
    total = sum(ph.interval[1] - ph.interval[0] for ph in plan.phases)
    assert_allclose(t[-1] - t[0], total, atol=1e-12)
    assert result.terminal == result.merged.terminal


@pytest.mark.parametrize("m", [2, 3])
def test_a_plan_with_no_phases_simulates_at_rest(m):
    start = [0.5 * k - 1.0 for k in range(m * (m + 1) // 2)]
    if m == 2:
        plan = plan_nhi(start, start)
    else:
        plan = plan_gnhi(GnhiState.from_flat(m, start), GnhiState.from_flat(m, start))
    assert plan.phases == ()
    result = simulate_plan(plan, steps=200)
    assert result.terminal == plan.initial
    assert result.merged.interval == (0.0, 2.0) and result.merged.steps == 200
    assert not np.any([result.merged.columns[name] for name in result.merged.input_names])


# ---------------------------------------------------------------------------
# pair validation and the m = 2 naming view


def _translation_and_cross_targets(m):
    n_pairs = m * (m - 1) // 2
    translation = GnhiState.from_flat(m, [1.0] * m + [0.0] * n_pairs)
    cross = GnhiState.from_flat(m, [0.0] * m + [1.0] * n_pairs)
    return translation, cross


@pytest.mark.parametrize("m", [2, 3])
def test_equal_parity_pair_is_rejected_for_every_m(m):
    # from rest a translation moves no cross coordinate, so no pair phase runs
    translation, _ = _translation_and_cross_targets(m)
    with pytest.raises(ValueError):
        plan_gnhi(GnhiState.zeros(m), translation, pair=(2, 4))
    if m == 2:
        with pytest.raises(ValueError):
            plan_nhi((0.0, 0.0, 0.0), (1.0, 1.0, 0.0), pair=(2, 4))


@pytest.mark.parametrize("m", [2, 3])
def test_zero_coupling_pair_fails_only_when_a_pair_phase_runs(m):
    # sin(2 pi t) and cos(3 pi t) have opposite parity but zero coupling
    translation, cross = _translation_and_cross_targets(m)
    plan = plan_gnhi(GnhiState.zeros(m), translation, family="trig", pair=(2, 3))
    assert [phase.moves for phase in plan.phases] == [tuple(f"x{i + 1}" for i in range(m))]
    end = simulate_plan(plan, steps=500).terminal
    for name, want in plan.predicted_endpoint.items():
        assert abs(end[name] - want) < 1e-9
    with pytest.raises(PlannerError):
        plan_gnhi(GnhiState.zeros(m), cross, family="trig", pair=(2, 3))
    if m == 2:
        assert len(plan_nhi((0.0, 0.0, 0.0), (1.0, 1.0, 0.0), family="trig", pair=(2, 3)).phases) == 1
        with pytest.raises(PlannerError):
            plan_nhi((0.0, 0.0, 0.0), (0.0, 0.0, 1.0), family="trig", pair=(2, 3))


@pytest.mark.parametrize(
    "x0, xf, family",
    [
        ((0.0, 0.0, 0.0), (1.0, 2.0, 0.5), LEGENDRE),
        ((0.3, -0.2, 0.7), (1.0, -0.5, -1.25), CHEBYSHEV_FIRST),  # channel swap
        ((0.1, 0.2, 0.3), (0.1, 0.2, -2.0), "trig"),
        ((0.5, 0.5, 0.0), (-1.0, 2.0, 0.0), CHEBYSHEV_SECOND),
    ],
)
def test_gnhi_m2_is_the_planar_planner_renamed(x0, xf, family):
    nhi = plan_nhi(x0, xf, family=family)
    gnhi = plan_gnhi(GnhiState.from_flat(2, x0), GnhiState.from_flat(2, xf), family=family)
    renamed = gnhi.to_json().replace('"x12"', '"x3"').replace('"system": "gnhi"', '"system": "nhi"')
    assert renamed == nhi.to_json()
    nhi_run = simulate_plan(nhi, steps=300).merged
    gnhi_run = simulate_plan(gnhi, steps=300).merged
    assert np.array_equal(gnhi_run.t, nhi_run.t)
    for g_name, n_name in zip(
        gnhi_run.state_names + gnhi_run.input_names, nhi_run.state_names + nhi_run.input_names
    ):
        assert np.array_equal(gnhi_run.columns[g_name], nhi_run.columns[n_name])
