import math

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy import integrate as sp_integrate

from nhsteer.dynamics import coupling_displacement
from nhsteer.errors import DomainError
from nhsteer.optimal_energy import (
    cheb_cost,
    cheb_extremal_inputs,
    cheb_optimal_inputs,
    WeightedCost,
    el_residual,
    solution_to_plan,
    unit_cost,
    weighted_cost,
)
from nhsteer.orthopoly import (
    CANONICAL_INTERVAL,
    CHEBYSHEV_FIRST,
    CHEBYSHEV_SECOND,
    LEGENDRE,
    SHIFTED_INTERVAL,
    BasisElement,
    Harmonic,
    InputSignal,
    Term,
    basis_signal,
    combine_signals,
    inner_product,
    integrate,
    scale_signal,
    weight_fn,
)
from nhsteer.steering import scale_pair, simulate_plan


def _signal_integral(sig: InputSignal) -> float:
    return sum(
        integrate(term.smooth, sig.interval, term.exponents, box=sig.interval)
        for term in sig.terms
    )


# ---------------------------------------------------------------------------
# the closed-form family


@pytest.mark.parametrize("a", [0.5, 1.0, 2.0, -1.5])
@pytest.mark.parametrize("lam", [1, 2, 3])
def test_cost_displacement_law(a, lam):
    sol = cheb_extremal_inputs(a, lam=lam)
    assert_allclose(sol.cost, lam * abs(a), atol=1e-12)
    # the analytic coupling and a full simulation both land on a
    assert_allclose(coupling_displacement(sol.u1, sol.u2), a, atol=1e-9)
    end = simulate_plan(solution_to_plan(sol), steps=4000).terminal
    assert abs(end["x3"] - a) < 1e-6
    assert abs(end["x1"]) < 1e-8 and abs(end["x2"]) < 1e-8
    # actually evaluating the weighted energy recovers the stated cost
    assert_allclose(weighted_cost(sol.u1, sol.u2, cheb_cost()), lam * abs(a), atol=1e-9)


def test_order_one_is_cheapest():
    costs = [cheb_extremal_inputs(1.0, lam=lam).cost for lam in (1, 2, 3, 4)]
    assert costs[0] == min(costs)
    assert cheb_optimal_inputs(1.0).cost == costs[0]


def test_coefficient_radius():
    sol = cheb_extremal_inputs(2.5, lam=3, split=0.4)
    radius = math.sqrt(2.0 * 3 * 2.5 / math.pi)
    assert_allclose(math.hypot(sol.b1, sol.b2), radius, atol=1e-12)
    assert_allclose(sol.b1, radius * math.cos(0.4), atol=1e-12)
    assert_allclose(sol.b2, radius * math.sin(0.4), atol=1e-12)


@pytest.mark.parametrize("split", [0.0, 0.3, 1.1, math.pi / 2, 2.7])
def test_split_invariance(split):
    base = cheb_optimal_inputs(1.0)
    sol = cheb_optimal_inputs(1.0, split=split)
    assert sol.cost == base.cost
    assert_allclose(coupling_displacement(sol.u1, sol.u2), 1.0, atol=1e-9)
    end = simulate_plan(solution_to_plan(sol), steps=4000).terminal
    assert abs(end["x3"] - 1.0) < 1e-8


@pytest.mark.parametrize("lam", [1, 2])
def test_inputs_have_zero_mean(lam):
    sol = cheb_extremal_inputs(1.0, lam=lam, split=0.9)
    assert abs(_signal_integral(sol.u1)) < 1e-9
    assert abs(_signal_integral(sol.u2)) < 1e-9


def test_negative_displacement_swaps_channels():
    sol = cheb_extremal_inputs(-1.0)
    assert sol.swapped
    assert_allclose(coupling_displacement(sol.u1, sol.u2), -1.0, atol=1e-9)
    # the swap exchanges the channel contents of the positive solution
    pos = cheb_extremal_inputs(1.0)
    assert sol.u1 == pos.u2 and sol.u2 == pos.u1


def test_validation():
    with pytest.raises(ValueError):
        cheb_extremal_inputs(0.0)
    with pytest.raises(ValueError):
        cheb_extremal_inputs(1.0, lam=0)
    with pytest.raises(ValueError):
        cheb_extremal_inputs(1.0, lam=1.5)  # type: ignore[arg-type]


def test_solution_to_plan_structure():
    sol = cheb_optimal_inputs(1.0)
    plan = solution_to_plan(sol, x0=(0.5, -0.5, 0.25))
    assert plan.closed_form == "chebyshev_minimum_energy"
    assert plan.family == CHEBYSHEV_FIRST
    assert plan.phases[0].moves == ("x3",)
    assert plan.phases[0].fixes == ("x1", "x2")
    assert plan.predicted_endpoint == {"x1": 0.5, "x2": -0.5, "x3": 1.25}
    assert plan.cost == 1.0


# ---------------------------------------------------------------------------
# stationarity


def test_el_residual_on_closed_forms():
    cost = cheb_cost()
    nodes = np.linspace(-0.98, 0.98, 50)
    for a in (1.0, -2.0):
        for lam in (1, 2, 3):
            sol = cheb_extremal_inputs(a, lam=lam, split=0.35)
            lam_eff = -lam if sol.swapped else lam
            worst = max(
                max(abs(r) for r in el_residual(sol.u1, sol.u2, cost, lam_eff, t))
                for t in nodes
            )
            assert worst < 1e-6, (a, lam)


def test_el_residual_on_circular_inputs():
    # under the plain energy the stationary inputs are circular sinusoids
    cost = unit_cost()
    for c in (math.pi, 2 * math.pi):
        u1 = Harmonic("cos", c, 0.0, 1.0)
        u2 = Harmonic("sin", c, 0.0, 1.0)
        worst = max(
            max(abs(r) for r in el_residual(u1, u2, cost, c / 2.0, t))
            for t in np.linspace(-0.97, 0.97, 50)
        )
        assert worst < 1e-6


def test_el_residual_flags_non_extremals():
    cost = cheb_cost()
    sol = cheb_optimal_inputs(1.0)
    r1, r2 = el_residual(sol.u1, sol.u2, cost, 2.0, 0.3)  # wrong multiplier
    assert max(abs(r1), abs(r2)) > 1e-2


def test_el_residual_rejects_endpoints():
    cost = cheb_cost()
    sol = cheb_optimal_inputs(1.0)
    with pytest.raises(ValueError):
        el_residual(sol.u1, sol.u2, cost, 1.0, 1.0)


# ---------------------------------------------------------------------------
# optimality against random admissible competitors


def test_no_random_competitor_beats_the_closed_form():
    rng = np.random.default_rng(11)
    cost = cheb_cost()
    a = 1.0
    best = cheb_optimal_inputs(a).cost
    for _ in range(40):
        coeffs = rng.uniform(-1.0, 1.0, size=8)
        u1 = InputSignal(
            terms=(
                Term(BasisElement(CHEBYSHEV_FIRST, 2), scale=coeffs[0], weighted=True),
                Term(BasisElement(CHEBYSHEV_FIRST, 4), scale=coeffs[1], weighted=True),
                Term(BasisElement(CHEBYSHEV_SECOND, 1), scale=coeffs[2]),
                Term(BasisElement(CHEBYSHEV_SECOND, 3), scale=coeffs[3]),
            ),
            interval=CANONICAL_INTERVAL,
        )
        u2 = InputSignal(
            terms=(
                Term(BasisElement(CHEBYSHEV_FIRST, 2), scale=coeffs[4], weighted=True),
                Term(BasisElement(CHEBYSHEV_FIRST, 4), scale=coeffs[5], weighted=True),
                Term(BasisElement(CHEBYSHEV_SECOND, 1), scale=coeffs[6]),
                Term(BasisElement(CHEBYSHEV_SECOND, 3), scale=coeffs[7]),
            ),
            interval=CANONICAL_INTERVAL,
        )
        if abs(coupling_displacement(u1, u2)) < 1e-6:
            continue
        s1, s2 = scale_pair(u1, u2, a)
        competitor = weighted_cost(scale_signal(u1, s1), scale_signal(u2, s2), cost)
        assert competitor >= best - 1e-9


# ---------------------------------------------------------------------------
# weighted_cost against scipy's quad


def _quad(f, lo, hi, **kw):
    return sp_integrate.quad(f, lo, hi, epsabs=1e-13, epsrel=1e-13, limit=200, **kw)[0]


def _two_term_pair(interval):
    u1 = combine_signals(
        basis_signal(LEGENDRE, 1, interval=interval, scale=1.3),
        basis_signal(LEGENDRE, 4, interval=interval, scale=-0.4),
    )
    u2 = combine_signals(
        basis_signal(LEGENDRE, 2, interval=interval, scale=0.7),
        basis_signal(LEGENDRE, 3, interval=interval, scale=0.9),
    )
    return u1, u2


def test_weighted_cost_under_unit_cost_matches_quad():
    u1, u2 = _two_term_pair(CANONICAL_INTERVAL)
    want = _quad(lambda t: 0.5 * (u1(t) ** 2 + u2(t) ** 2), -1.0, 1.0)
    assert_allclose(weighted_cost(u1, u2, unit_cost()), want, rtol=1e-12)


@pytest.mark.parametrize("cost", [unit_cost(), cheb_cost()], ids=["unit", "cheb"])
def test_an_overflowing_weighted_cost_is_refused(cost):
    # each channel's inner product came out inf with numpy RuntimeWarnings
    sig = basis_signal(LEGENDRE, 1, scale=1e200)
    with pytest.raises(DomainError, match="the inner product is not finite"):
        weighted_cost(sig, sig, cost)


def test_a_weighted_cost_near_the_float_limit_is_finite():
    # both channels are finite, but their sum overflowed: the cost came out inf with no refusal
    sig = basis_signal(LEGENDRE, 1, scale=1.6e154)
    assert weighted_cost(sig, sig, unit_cost()) == 1.7066666666666665e308  # (1.6e154)^2 * 2 / 3, correctly rounded


def test_weighted_cost_with_callable_channel_weights_matches_quad():
    u1, u2 = _two_term_pair(SHIFTED_INTERVAL)
    cost = WeightedCost(a1=lambda t: 1.0 + t * t, a2=np.exp, interval=SHIFTED_INTERVAL)
    want = _quad(lambda t: 0.5 * ((1.0 + t * t) * u1(t) ** 2 + math.exp(t) * u2(t) ** 2), 0.0, 1.0)
    assert_allclose(weighted_cost(u1, u2, cost), want, rtol=1e-12)


def test_weighted_cost_of_bare_callable_inputs_matches_quad():
    # np.sin takes arrays; math.cos only scalars
    want_unit = _quad(lambda t: 0.5 * (math.sin(t) ** 2 + math.cos(t) ** 2), -1.0, 1.0)
    assert_allclose(weighted_cost(np.sin, math.cos, unit_cost()), want_unit, rtol=1e-12)
    want_cheb = _quad(
        lambda t: 0.5 * (math.sin(t) ** 2 + math.exp(t) ** 2), -1.0, 1.0, weight="alg", wvar=(0.5, 0.5)
    )
    assert_allclose(weighted_cost(np.sin, math.exp, cheb_cost()), want_cheb, rtol=1e-10)


def test_weighted_cost_of_bare_callables_on_a_box_of_their_own():
    # 1/2 * integral over [0, 2] of t^2 + 1
    assert weighted_cost(lambda t: t, lambda t: 1 + 0 * t, unit_cost((0, 2))) == pytest.approx(7.0 / 3.0, rel=1e-14)


def test_weighted_cost_is_half_the_channel_inner_products():
    u1, u2 = _two_term_pair(SHIFTED_INTERVAL)
    w = weight_fn(CHEBYSHEV_SECOND, SHIFTED_INTERVAL)
    for cost in (cheb_cost(SHIFTED_INTERVAL), unit_cost(SHIFTED_INTERVAL), WeightedCost(w, 2.5, SHIFTED_INTERVAL)):
        channels = inner_product(u1, u1, cost.a1) + inner_product(u2, u2, cost.a2)
        assert weighted_cost(u1, u2, cost) == 0.5 * channels


def test_weighted_cost_refuses_a_reversed_box():
    with pytest.raises(ValueError, match="positive length"):
        weighted_cost(lambda t: t, lambda t: 1.0 + 0.0 * t, unit_cost((2.0, 0.0)))


@pytest.mark.parametrize("a", [math.nan, math.inf, -math.inf, 0.0])
def test_extremal_inputs_refuse_zero_and_non_finite_targets(a):
    with pytest.raises(ValueError, match="nonzero and finite"):
        cheb_extremal_inputs(a)


@pytest.mark.parametrize("split", [math.nan, math.inf])
def test_extremal_inputs_refuse_a_non_finite_split(split):
    # a NaN split used to give NaN amplitudes, written by `plan nhi --optimal` as invalid JSON
    with pytest.raises(ValueError, match="split must be finite"):
        cheb_extremal_inputs(1.0, split=split)
