import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from nhsteer.dynamics import integrate_nhi
from nhsteer.errors import IntegrabilityError, PlannerError
from nhsteer.fuel_l1 import (
    FuelConstants,
    compare_families,
    fuel_constants,
    fuel_min,
    fuel_min_lp,
)
from nhsteer.orthopoly import (
    CHEBYSHEV_FIRST,
    CHEBYSHEV_SECOND,
    LEGENDRE,
    SHIFTED_INTERVAL,
    basis_signal,
    scale_signal,
)
from nhsteer.steering import pair_signals


def _constants(family, pair, a=1.0):
    odd, even = pair_signals(family, pair)
    return fuel_constants(odd, even, a), odd, even


# ---------------------------------------------------------------------------
# frozen closed-form values


def test_legendre_unit_transfer_constants():
    consts, _, _ = _constants(LEGENDRE, (1, 2))
    assert_allclose(consts.c1, 1.0, atol=1e-12)
    assert_allclose(consts.c2, 4.0 / (3.0 * math.sqrt(3.0)), atol=1e-12)  # 0.76980036
    assert_allclose(consts.c, 15.0 / 4.0, atol=1e-12)
    report = fuel_min(consts)
    assert_allclose(report.min_fuel, 3.3980884896942447, atol=1e-12)


def test_trig_unit_transfer_constants():
    consts, _, _ = _constants("trig", (1, 1))
    assert_allclose(consts.c1, 4.0 / math.pi, atol=1e-12)
    assert_allclose(consts.c2, 4.0 / math.pi, atol=1e-12)
    assert_allclose(consts.c, -math.pi / 2.0, atol=1e-12)  # coupling is -2/pi
    report = fuel_min(consts)
    assert_allclose(report.min_fuel, 2.0 * math.sqrt(8.0 / math.pi), atol=1e-12)
    assert report.b2 < 0.0  # the sign of c lands on the even coefficient


def test_first_kind_unit_transfer_constants():
    consts, _, _ = _constants(CHEBYSHEV_FIRST, (1, 2))
    assert_allclose(consts.c1, 2.0, atol=1e-12)
    assert_allclose(consts.c2, 2.0, atol=1e-10)
    assert_allclose(consts.c, 0.75, atol=1e-12)
    report = fuel_min(consts)
    assert_allclose(report.min_fuel, 2.0 * math.sqrt(3.0), atol=1e-10)


# ---------------------------------------------------------------------------
# structural properties


KNOWN_GOOD = [
    (LEGENDRE, (1, 2)),
    (LEGENDRE, (3, 2)),
    (LEGENDRE, (3, 4)),
    (CHEBYSHEV_FIRST, (1, 2)),
    (CHEBYSHEV_FIRST, (3, 2)),
    (CHEBYSHEV_SECOND, (1, 2)),
    (CHEBYSHEV_SECOND, (3, 2)),
    ("trig", (1, 1)),
]


@pytest.mark.parametrize("family,pair", KNOWN_GOOD)
def test_grid_cross_check_agrees(family, pair):
    rng = np.random.default_rng(5)
    for a in (1.0, float(rng.uniform(0.2, 3.0)), -float(rng.uniform(0.2, 3.0))):
        consts, _, _ = _constants(family, pair, a)
        report = fuel_min(consts)
        assert abs(report.grid_min_fuel - report.min_fuel) < 1e-6
        assert report.grid_min_fuel >= report.min_fuel - 1e-12


@pytest.mark.parametrize("family,pair", KNOWN_GOOD)
def test_optimal_transfer_is_feasible(family, pair):
    a = -1.3
    consts, odd, even = _constants(family, pair, a)
    report = fuel_min(consts)
    end = integrate_nhi(
        (scale_signal(odd, report.b1), scale_signal(even, report.b2)), steps=4000
    ).terminal
    assert abs(end["x3"] - a) < 1e-6
    assert abs(end["x1"]) < 1e-8
    assert abs(end["x2"]) < 1e-8


def test_scale_covariance():
    consts1, _, _ = _constants(LEGENDRE, (1, 2), a=0.8)
    consts2, _, _ = _constants(LEGENDRE, (1, 2), a=1.6)
    assert_allclose(consts2.c, 2.0 * consts1.c, atol=1e-12)
    r1, r2 = fuel_min(consts1), fuel_min(consts2)
    assert_allclose(r2.min_fuel, math.sqrt(2.0) * r1.min_fuel, atol=1e-9)


def test_coefficient_product_constraint():
    for family, pair in KNOWN_GOOD:
        consts, _, _ = _constants(family, pair, a=0.9)
        report = fuel_min(consts, family=family, pair=pair)
        assert_allclose(report.b1 * report.b2, consts.c, atol=1e-10)
        assert report.b1 > 0.0
        assert report.family == family and report.pair == pair


# ---------------------------------------------------------------------------
# family comparison


def test_compare_families_ranking():
    specs = [(LEGENDRE, (1, 2)), (CHEBYSHEV_FIRST, (1, 2)), ("trig", (1, 1))]
    reports = compare_families(specs, a=1.0)
    fuels = [r.min_fuel for r in reports]
    assert fuels == sorted(fuels)
    assert [r.family for r in reports] == ["trig", LEGENDRE, CHEBYSHEV_FIRST]
    for r in reports:
        assert r.sim_error is not None and r.sim_error < 1e-6


def test_compare_families_negative_target():
    reports = compare_families([(LEGENDRE, (1, 2))], a=-2.0)
    assert reports[0].b2 < 0.0
    assert reports[0].sim_error < 1e-6


# ---------------------------------------------------------------------------
# validation


def test_fuel_constants_validation():
    odd, even = pair_signals(LEGENDRE, (1, 2))
    with pytest.raises(ValueError):
        fuel_constants(odd, even, 0.0)
    with pytest.raises(ValueError):
        fuel_constants(lambda t: t, even, 1.0)
    shifted = basis_signal(LEGENDRE, 1, interval=SHIFTED_INTERVAL)
    with pytest.raises(ValueError):
        fuel_constants(shifted, even, 1.0)
    with pytest.raises(PlannerError):
        fuel_constants(odd, odd, 1.0)  # zero coupling by antisymmetry


def test_fuel_min_validation():
    bad = FuelConstants(c1=0.0, c2=1.0, c=1.0, coupling=1.0, a=1.0, interval=(-1.0, 1.0))
    with pytest.raises(ValueError):
        fuel_min(bad)


# ---------------------------------------------------------------------------
# general exponents


def test_lp_reduces_to_l1():
    odd, even = pair_signals(LEGENDRE, (1, 2))
    closed = fuel_min(fuel_constants(odd, even, 1.0))
    lp = fuel_min_lp(odd, even, 1.0, p=1.0)
    assert_allclose(lp.min_value, closed.min_fuel, atol=1e-9)
    assert_allclose(lp.b1, closed.b1, rtol=1e-6)


def test_lp_quadratic_has_closed_form():
    # for p = 2 the minimum is 2|c| sqrt(norm1 * norm2) = sqrt(15) here
    odd, even = pair_signals(LEGENDRE, (1, 2))
    lp = fuel_min_lp(odd, even, 1.0, p=2.0)
    assert_allclose(lp.c1p, 2.0 / 3.0, atol=1e-12)
    assert_allclose(lp.c2p, 2.0 / 5.0, atol=1e-12)
    assert_allclose(lp.min_value, math.sqrt(15.0), atol=1e-9)


def test_lp_intermediate_exponent_is_stationary():
    odd, even = pair_signals(LEGENDRE, (1, 2))
    lp = fuel_min_lp(odd, even, 1.0, p=1.5)

    def objective(b):
        return b**1.5 * lp.c1p + (abs(lp.c) / b) ** 1.5 * lp.c2p

    assert objective(lp.b1 * 1.01) >= lp.min_value - 1e-12
    assert objective(lp.b1 / 1.01) >= lp.min_value - 1e-12
    assert_allclose(objective(lp.b1), lp.min_value, rtol=1e-12)


def test_lp_rejects_non_integrable_powers():
    odd, even = pair_signals(CHEBYSHEV_FIRST, (1, 2))
    with pytest.raises(IntegrabilityError):
        fuel_min_lp(odd, even, 1.0, p=2.0)  # squared endpoint weight is not integrable


def test_lp_rejects_small_p():
    odd, even = pair_signals(LEGENDRE, (1, 2))
    with pytest.raises(ValueError):
        fuel_min_lp(odd, even, 1.0, p=0.5)


@pytest.mark.parametrize("a", [math.nan, math.inf, -math.inf])
def test_fuel_constants_refuse_non_finite_targets(a):
    odd, even = pair_signals(LEGENDRE, (1, 2))
    with pytest.raises(ValueError, match="nonzero and finite"):
        fuel_constants(odd, even, a)


def test_fuel_min_lp_refuses_a_nan_exponent():
    odd, even = pair_signals(LEGENDRE, (1, 2))
    with pytest.raises(ValueError, match="at least 1"):
        fuel_min_lp(odd, even, 1.0, math.nan)


def test_compare_families_refuses_a_nan_simulation(monkeypatch):
    # `err > 1e-6` is False for NaN, so a NaN endpoint used to pass the simulation gate
    import nhsteer.fuel_l1 as fuel_l1

    def nan_endpoint(*args, **kwargs):
        traj = integrate_nhi(*args, **kwargs)
        for column in traj.columns.values():
            column[-1] = math.nan
        return traj

    monkeypatch.setattr(fuel_l1, "integrate_nhi", nan_endpoint)
    with pytest.raises(PlannerError):
        compare_families([(LEGENDRE, (1, 2))], 1.0)
