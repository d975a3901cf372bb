import math
from dataclasses import replace

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose
from test_fuel_digests import GROUPS, LOWER_INDICES, TARGET

from nhsteer import fuel_l1
from nhsteer.dynamics import integrate_nhi
from nhsteer.errors import DomainError, IntegrabilityError, PlannerError
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
    JACOBI,
    LEGENDRE,
    SHIFTED_INTERVAL,
    TRIG_COS,
    TRIG_SIN,
    basis_signal,
    scale_signal,
)
from nhsteer.steering import pair_signals


def _constants(family, pair, a=1.0):
    odd, even = pair_signals(family, pair)
    return fuel_constants(odd, even, a), odd, even


def _assert_near_mp_minimum(got, c, n1, n2, p=1.0, rtol=1e-15):
    """(b1, b2, J*) within ``rtol`` of the AM-GM minimum in 40 digits, for the float inputs as they are.

    J* is the p-th power of a root, so it is held to p * rtol.
    """
    with mpmath.workdps(40):
        c, n1, n2, p = (mpmath.mpf(x) for x in (c, n1, n2, p))
        r1, r2 = n1 ** (1 / p), n2 ** (1 / p)
        b1, b2 = mpmath.sqrt(abs(c) * r2 / r1), mpmath.sign(c) * mpmath.sqrt(abs(c) * r1 / r2)
        want = (b1, b2, 2 * mpmath.sqrt(abs(c) * r1 * r2) ** p)
        errors = [float(abs((g - w) / w)) for g, w in zip(got, want)]
    assert all(math.isfinite(g) for g in got)
    assert max(errors[:2]) <= rtol and errors[2] <= float(p) * rtol, errors


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


def test_the_grid_follows_grid_points_and_its_shared_base_is_read_only(monkeypatch):
    monkeypatch.setattr(fuel_l1, "GRID_POINTS", 7)
    consts, _, _ = _constants(LEGENDRE, (1, 2), -2.5)
    c1, c2, c = consts.c1, consts.c2, consts.c
    grid = math.sqrt(abs(c)) * np.logspace(-2.0, 2.0, 7)
    assert fuel_min(consts).grid_min_fuel == float(np.min(grid * c1 + (abs(c) / grid) * c2))
    with pytest.raises(ValueError):
        fuel_l1._grid_base(7)[0] = 1.0


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


@pytest.mark.parametrize("a", [1e308, -1e308])
def test_fuel_analysis_refuses_overflowing_constants(a):
    # c = a / coupling used to come out infinite
    odd, even = pair_signals(LEGENDRE, (1, 2))
    with pytest.raises(DomainError, match="over the coupling"):
        fuel_constants(odd, even, a)
    # |c| c1 c2 overflows, but J* = 2 sqrt(|c| c1 c2) does not: the minimum used to be refused
    odd, even = pair_signals(CHEBYSHEV_SECOND, (1, 2))
    consts = fuel_constants(odd, even, a)
    report = fuel_min(consts)
    _assert_near_mp_minimum((report.b1, report.b2, report.min_fuel), consts.c, consts.c1, consts.c2)
    assert report.min_fuel == pytest.approx(3.3714e154, rel=1e-4)


def test_fuel_analysis_refuses_a_shape_whose_norm_or_coupling_overflows():
    # the coupling came out nan with numpy RuntimeWarnings, and the refusal read
    # "the target 1.0 over the coupling nan overflows"
    big = basis_signal(JACOBI, 7, scale=-1e300, jacobi_params=(5, 60))
    for u1, u2 in ((big, big), (big, basis_signal(JACOBI, 8, jacobi_params=(5, 60)))):
        with pytest.raises(DomainError, match="coupling .* is not finite"):
            fuel_constants(u1, u2, 1.0)
    # a finite coupling beside a norm above the largest float
    small, big = basis_signal(TRIG_SIN, 1, scale=1e-300), basis_signal(TRIG_COS, 1, scale=1.5e308)
    with pytest.raises(DomainError, match="the L1 norm"):
        fuel_constants(small, big, 1.0)
    with pytest.raises(DomainError, match="the L3 norm"):
        fuel_min_lp(small, big, 1.0, 3.0)


def test_fuel_min_lp_refuses_a_minimum_or_coefficient_that_overflows():
    # |c|^(p/2) raised a bare OverflowError
    odd, even = pair_signals(LEGENDRE, (1, 2))
    with pytest.raises(DomainError, match=r"J\* of the L3 fuel minimum for c = .* is not finite"):
        fuel_min_lp(odd, even, 1e300, 3.0)
    # c2p / c1p overflows, but b1 ~ 1e200 does not: it used to be refused beside b2 = 0
    u1, u2 = basis_signal(LEGENDRE, 1, scale=1e-200), basis_signal(LEGENDRE, 2, scale=1e200)
    rep = fuel_min_lp(u1, u2, 1.0, 1.0)
    _assert_near_mp_minimum((rep.b1, rep.b2, rep.min_value), rep.c, rep.c1p, rep.c2p)
    assert rep.b1 == pytest.approx(1.6990442448471226e200, rel=1e-15)


@pytest.mark.parametrize(
    "c1,c2,c,name,how",
    [
        # b2 was -0.0, and the grid minimum 9.49e-120 fell below the minimum 1.373e-118
        (4.95585334411085e-201, 2.0112828243748652e206, -4.728477576719535e-243, "b2", "to zero"),
        (3.217890288475277e-291, 5.775547203278553e103, -1.2610279971203571e-257, "b2", "to zero"),
        (2.0112828243748652e206, 4.95585334411085e-201, 4.728477576719535e-243, "b1", "to zero"),
        # b2 was -5e-324, so b1 b2 was 1.864 c, and the grid minimum 1.643e-220 fell below the minimum 3.062e-220
        (3.217890288475277e-291, 5.775547203278553e103, -1.2610279971203571e-253, "b2", "below the normal range, to 5e-324"),
        (3.217890288475277e-291, 5.775547203278553e103, -1.2610279971203571e-224, "b2", "below the normal range, to 8.38"),
        (3.217890288475277e-291, 5.775547203278553e103, -1.2610279971203571e-250, "b2", "below the normal range, to 8.4e-323"),
    ],
)
def test_a_coefficient_that_underflows_is_refused(c1, c2, c, name, how):
    consts = FuelConstants(c1=c1, c2=c2, c=c, coupling=1.0, a=1.0, interval=(-1.0, 1.0))
    with pytest.raises(DomainError, match=rf"{name} of the fuel minimum for c = .* underflows {how}"):
        fuel_min(consts)
    with pytest.raises(DomainError, match=rf"{name} of the L1 fuel minimum for c = .* underflows {how}"):
        fuel_l1._amgm_minimum(c, c1, c2, 1.0, "L1 fuel minimum")


def test_compare_families_passes_jacobi_params_to_jacobi_entries_only():
    specs = [(LEGENDRE, (1, 2)), (JACOBI, (1, 2))]
    reports = {r.family: r for r in compare_families(specs, 1.0, jacobi_params=(0.5, 0.5))}
    odd, even = pair_signals(JACOBI, (1, 2), jacobi_params=(0.5, 0.5))
    assert reports[JACOBI].min_fuel == fuel_min(fuel_constants(odd, even, 1.0)).min_fuel
    assert reports[LEGENDRE].min_fuel == compare_families(specs[:1], 1.0)[0].min_fuel


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


@pytest.mark.parametrize("a", [1e8, 1e10, -1e12, 1e15])
def test_compare_families_tolerances_scale_with_the_target(a):
    # an absolute 1e-6 on x3 refused a trig transfer to 1e8 that missed by 1.1e-14 relative
    specs = [("trig", (1, 1)), (LEGENDRE, (1, 2)), (CHEBYSHEV_FIRST, (1, 2))]
    reports = compare_families(specs, a)
    assert len(reports) == 3
    assert all(r.sim_error <= 1e-12 * abs(a) for r in reports)


def test_compare_families_still_refuses_a_tampered_coefficient(monkeypatch):
    import nhsteer.fuel_l1 as fuel_l1

    def tampered(*args, **kwargs):
        report = fuel_min(*args, **kwargs)
        return replace(report, b1=report.b1 * (1.0 + 1e-5))

    monkeypatch.setattr(fuel_l1, "fuel_min", tampered)
    for a in (1.0, 1e8):
        with pytest.raises(PlannerError, match="missed its target"):
            compare_families([(LEGENDRE, (1, 2))], a)


# ---------------------------------------------------------------------------
# the Lp minimum in closed form

LP_SHAPES = [
    (LEGENDRE, (2, 3), (-1.0, 1.0)),
    (CHEBYSHEV_SECOND, (1, 2), SHIFTED_INTERVAL),
    ("trig", (2, 2), (-1.0, 1.0)),
]


def _rel(got, want):
    return abs(got - want) / abs(want)


@pytest.mark.parametrize("family, pair, interval", LP_SHAPES)
@pytest.mark.parametrize("p", [1.5, 2.0, 3.0, 4.0])
@pytest.mark.parametrize("a", [0.37, -12.5, 1e-3])
def test_lp_minimum_is_the_closed_form(family, pair, interval, p, a):
    # b1^p c1p + (|c|/b1)^p c2p is least where both terms are equal
    odd, even = pair_signals(family, pair, interval=interval)
    rep = fuel_min_lp(odd, even, a, p)
    b1 = (abs(rep.c) ** p * rep.c2p / rep.c1p) ** (1.0 / (2.0 * p))
    assert _rel(rep.b1, b1) <= 1e-15
    assert _rel(rep.b2, rep.c / b1) <= 1e-15
    assert _rel(rep.min_value, 2.0 * math.sqrt(abs(rep.c) ** p * rep.c1p * rep.c2p)) <= 1e-15


@pytest.mark.parametrize("family, pair, interval", LP_SHAPES)
@pytest.mark.parametrize("a", [0.37, -12.5, 1e-3])
def test_lp_at_one_is_fuel_min(family, pair, interval, a):
    odd, even = pair_signals(family, pair, interval=interval)
    lp = fuel_min_lp(odd, even, a, 1.0)
    l1 = fuel_min(fuel_constants(odd, even, a))
    assert (lp.c1p, lp.c2p, lp.c) == (l1.c1, l1.c2, l1.c)
    assert (lp.b1, lp.b2, lp.min_value) == (l1.b1, l1.b2, l1.min_fuel)


def test_lp_minimum_computes_no_l1_norm(monkeypatch):
    import nhsteer.fuel_l1 as fuel_l1
    import nhsteer.orthopoly as orthopoly

    calls = []

    def spy(signal):
        calls.append(signal)
        return orthopoly.lp_norm(signal, 1.0)

    monkeypatch.setattr(fuel_l1, "l1_norm", spy)
    monkeypatch.setattr(orthopoly, "l1_norm", spy)
    odd, even = pair_signals(LEGENDRE, (2, 3))
    fuel_min_lp(odd, even, 0.37, 2.0)
    assert calls == []


def test_lp_minimum_for_a_huge_target_is_exact():
    odd, even = pair_signals(LEGENDRE, (2, 3))
    rep = fuel_min_lp(odd, even, 1e100, 4.0)
    assert math.isfinite(rep.b1) and math.isfinite(rep.min_value)
    assert _rel(rep.b1 * rep.b2, rep.c) <= 1e-15
    assert _rel(rep.b1, math.sqrt(abs(rep.c)) * (rep.c2p / rep.c1p) ** 0.125) <= 1e-15
    assert _rel(rep.min_value, 2.0 * rep.c**2 * math.sqrt(rep.c1p * rep.c2p)) <= 1e-15


# ---------------------------------------------------------------------------
# one range-safe AM-GM minimum behind fuel_min and fuel_min_lp


@pytest.mark.parametrize("scale", [1e160, 1e-160, 1e170, 1e-170])
def test_unbalanced_shapes_get_their_finite_minimum(scale):
    # fuel_min refused "b2 of the fuel minimum for c = 3.75"; fuel_min_lp at p = 1 put b2 3.0e-5 off where
    # c2p / c1p was subnormal, and raised ZeroDivisionError where it underflowed
    u1, u2 = basis_signal(LEGENDRE, 1, scale=scale), basis_signal(LEGENDRE, 2, scale=1.0 / scale)
    consts = fuel_constants(u1, u2, 1.0)
    report = fuel_min(consts)
    _assert_near_mp_minimum((report.b1, report.b2, report.min_fuel), consts.c, consts.c1, consts.c2)
    lp = fuel_min_lp(u1, u2, 1.0, 1.0)
    _assert_near_mp_minimum((lp.b1, lp.b2, lp.min_value), lp.c, lp.c1p, lp.c2p)


@pytest.mark.parametrize("name", sorted(GROUPS))
def test_lp_at_one_is_fuel_min_bit_for_bit(name):
    family, interval, params = GROUPS[name]
    for n in LOWER_INDICES[::3]:
        pair = (n, n) if family == "trig" else (n, n + 1)
        odd, even = pair_signals(family, pair, interval, params)
        lp, l1 = fuel_min_lp(odd, even, TARGET, 1.0), fuel_min(fuel_constants(odd, even, TARGET))
        assert (lp.b1, lp.b2, lp.min_value) == (l1.b1, l1.b2, l1.min_fuel), pair


@settings(max_examples=150, derandomize=True, deadline=None)
@given(
    exponent=st.integers(-150, 150),
    p=st.sampled_from([1.0, 1.5, 2.0, 3.0, 4.0]),
    a=st.sampled_from([0.37, -12.5, 1e-3, 1e100]),
)
def test_lp_minimum_agrees_with_mpmath_across_shape_scales(exponent, p, a):
    # shapes scaled by 10^(e/p) and 10^(-e/p): their Lp norms span 1e-150 to 1e150 at every p, and the
    # coupling stays the pair's own, since a zero-coupling refusal is absolute
    odd, even = pair_signals(LEGENDRE, (2, 3))
    u1, u2 = scale_signal(odd, 10.0 ** (exponent / p)), scale_signal(even, 10.0 ** (-exponent / p))
    rep = fuel_min_lp(u1, u2, a, p)
    _assert_near_mp_minimum((rep.b1, rep.b2, rep.min_value), rep.c, rep.c1p, rep.c2p, p)


@pytest.mark.parametrize("exponent", [-150, -100, -4, -3, -2, 0, 2, 3, 4, 100, 150])
def test_the_grid_is_centred_on_the_minimum_of_unbalanced_shapes(exponent):
    # the grid was sqrt(|c|) times four decades: 0.86% above the minimum at a scale of 1e2, 56 times at 1e4
    scale = 10.0**exponent
    u1, u2 = basis_signal(LEGENDRE, 1, scale=scale), basis_signal(LEGENDRE, 2, scale=1.0 / scale)
    report = fuel_min(fuel_constants(u1, u2, 1.0))
    assert 0.0 <= report.grid_min_fuel / report.min_fuel - 1.0 <= 1e-6


def _full_grid_min(constants):
    """The minimum over every grid point, each formed by the expression the grid was swept with."""
    c1, c2, c = constants.c1, constants.c2, constants.c
    k = round(0.5 * (math.log10(c2) - math.log10(c1)))
    grid = math.sqrt(abs(c)) * 10.0 ** (k // 2) * 10.0 ** (k - k // 2) * np.logspace(-2.0, 2.0, fuel_l1.GRID_POINTS)
    with np.errstate(all="ignore"):  # an extreme grid over- or underflows
        return float(np.min(grid * c1 + (abs(c) / grid) * c2))


@settings(max_examples=200, derandomize=True, deadline=None)
@given(
    e1=st.floats(-150.0, 150.0),
    e2=st.floats(-150.0, 150.0),
    equal=st.booleans(),
    ec=st.floats(-100.0, 100.0),
    sign=st.sampled_from([1.0, -1.0]),
)
def test_the_bisected_grid_minimum_is_the_full_grid_minimum(e1, e2, equal, ec, sign):
    c1 = 10.0**e1
    consts = FuelConstants(c1=c1, c2=c1 if equal else 10.0**e2, c=sign * 10.0**ec, coupling=1.0, a=1.0, interval=(-1.0, 1.0))
    assert fuel_min(consts).grid_min_fuel == _full_grid_min(consts)


@pytest.mark.parametrize("name", sorted(GROUPS))
def test_the_bisected_grid_minimum_is_the_full_grid_minimum_on_every_digest_group(name):
    family, interval, params = GROUPS[name]
    for n in LOWER_INDICES[::3]:
        odd, even = pair_signals(family, (n, n) if family == "trig" else (n, n + 1), interval, params)
        consts = fuel_constants(odd, even, TARGET)
        assert fuel_min(consts).grid_min_fuel == _full_grid_min(consts), n


@settings(max_examples=200, derandomize=True, deadline=None)
@given(
    e1=st.floats(-300.0, 300.0),
    e2=st.floats(-300.0, 300.0),
    ec=st.floats(-300.0, 300.0),
    sign=st.sampled_from([1.0, -1.0]),
)
def test_the_grid_minimum_is_the_full_grid_minimum_beyond_the_normal_range(e1, e2, ec, sign):
    # a part that underflows rounds coarsely, and one that overflows is infinite: there the grid is evaluated whole
    consts = FuelConstants(c1=10.0**e1, c2=10.0**e2, c=sign * 10.0**ec, coupling=1.0, a=1.0, interval=(-1.0, 1.0))
    with np.errstate(all="ignore"):
        try:
            report = fuel_min(consts)
        except DomainError:  # the optimum itself overflows
            return
    assert report.grid_min_fuel == _full_grid_min(consts)


@pytest.mark.parametrize(
    "c1,c2,c",
    [
        (8.5e157, 8.4e157, 1e300),  # J* = 1.7e308: the grid's ends overflow
        (3.217890288475277e-291, 5.775547203278553e103, -4.5e-219),  # b2 = -5.0e-307: the grid's end is subnormal
    ],
)
def test_a_grid_beyond_the_normal_range_is_evaluated_whole(c1, c2, c):
    consts = FuelConstants(c1=c1, c2=c2, c=c, coupling=1.0, a=1.0, interval=(-1.0, 1.0))
    with np.errstate(all="ignore"):
        assert fuel_min(consts).grid_min_fuel == _full_grid_min(consts)
