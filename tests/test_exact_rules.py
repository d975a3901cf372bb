"""Integrals of family terms are summed by fixed exact rules, never adaptively.

Every coupling, energy, inner product and L1 integrand built from Legendre,
Chebyshev, Jacobi and trig terms is a polynomial times a Jacobi weight or a
trig polynomial, so ``orthopoly`` sums it on Gauss-Jacobi nodes or by the
trapezoid rule.  Every running integral of a family term has an exact form:
a polynomial times a Jacobi weight, a trig polynomial, or for a weighted
term of index 0 an incomplete beta function summed by its continued
fraction.  Here both adaptive routines are replaced by functions that raise,
and the planners, fuel analysis, running integrals, norms, costs and inner
products must still complete.
"""

import os
import subprocess
import sys
from pathlib import Path

import mpmath as mp
import numpy as np
import pytest

from nhsteer import orthopoly
from nhsteer.dynamics import GnhiState, coupling_displacement
from nhsteer.fuel_l1 import fuel_constants, fuel_min
from nhsteer.optimal_energy import cheb_cost, cheb_optimal_inputs, unit_cost, weighted_cost
from nhsteer.orthopoly import (
    CANONICAL_INTERVAL,
    CHEBYSHEV_FIRST,
    CHEBYSHEV_SECOND,
    JACOBI,
    LEGENDRE,
    SHIFTED_INTERVAL,
    TRIG_COS,
    TRIG_SIN,
    BasisElement,
    Term,
    basis_signal,
    combine_signals,
    inner_product,
    l1_norm,
    weight_fn,
)
from nhsteer.steering import PLAN_FAMILIES, pair_signals, plan_gnhi, plan_nhi

ALPHAS = (-0.45, 0.05, 1.7)


@pytest.fixture
def no_adaptive_quadrature(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("adaptive quadrature reached")

    monkeypatch.setattr(orthopoly, "integrate", refuse)
    monkeypatch.setattr(orthopoly, "integrate_smooth", refuse)


def _planner_cases():
    """(family, jacobi_params, interval) for every planner family; singular weights only on [-1, 1]."""
    for family in PLAN_FAMILIES:
        for params in [(a, a) for a in ALPHAS] if family == JACOBI else [None]:
            for interval in (CANONICAL_INTERVAL, SHIFTED_INTERVAL):
                odd, even = pair_signals(family, None, CANONICAL_INTERVAL, params)
                if interval == SHIFTED_INTERVAL and (odd.is_singular or even.is_singular):
                    continue
                yield family, params, interval


PLANNER_CASES = list(_planner_cases())


@pytest.mark.usefixtures("no_adaptive_quadrature")
@pytest.mark.parametrize("family,params,interval", PLANNER_CASES)
def test_planners_use_exact_rules_only(family, params, interval):
    plan = plan_nhi((0.2, -0.1, 0.3), (1.0, 2.0, -3.0), family=family, interval=interval, jacobi_params=params)
    assert len(plan.phases) == 2
    for m in range(2, 9):
        start = [0.1 * k for k in range(m * (m + 1) // 2)]
        target = [1.0 + 0.5 * k * (-1) ** k for k in range(m * (m + 1) // 2)]
        plan = plan_gnhi(
            GnhiState.from_flat(m, start),
            GnhiState.from_flat(m, target),
            family=family,
            interval=interval,
            jacobi_params=params,
        )
        assert len(plan.phases) == m


@pytest.mark.usefixtures("no_adaptive_quadrature")
@pytest.mark.parametrize("family,params,interval", PLANNER_CASES)
def test_fuel_analysis_uses_exact_rules_only(family, params, interval):
    odd, even = pair_signals(family, None, interval, params)
    report = fuel_min(fuel_constants(odd, even, 2.5), family=family)
    assert report.min_fuel > 0.0


@pytest.mark.usefixtures("no_adaptive_quadrature")
def test_l1_norms_use_exact_rules_only():
    cases = [(LEGENDRE, False, None), (TRIG_SIN, False, None), (TRIG_COS, False, None)]
    cases += [(fam, w, None) for fam in (CHEBYSHEV_FIRST, CHEBYSHEV_SECOND) for w in (False, True)]
    cases += [(JACOBI, True, (a, a)) for a in ALPHAS + (-0.9,)]
    cases += [(JACOBI, False, (a, a)) for a in ALPHAS + (-0.9,)]
    for family, weighted, params in cases:
        for n in ((0,) if weighted else ()) + (1, 2, 7, 24, 64):
            for interval in (CANONICAL_INTERVAL, SHIFTED_INTERVAL):
                assert l1_norm(basis_signal(family, n, interval, weighted=weighted, jacobi_params=params)) > 0.0


@pytest.mark.usefixtures("no_adaptive_quadrature")
@pytest.mark.parametrize(
    "family,params", [(CHEBYSHEV_FIRST, None), (CHEBYSHEV_SECOND, None)] + [(JACOBI, (a, a)) for a in ALPHAS + (-0.9,)]
)
def test_weighted_zeroth_running_integrals_use_exact_rules_only(family, params):
    for lo, hi in (CANONICAL_INTERVAL, SHIFTED_INTERVAL):
        sig = basis_signal(family, 0, (lo, hi), weighted=True, jacobi_params=params)
        run = sig.running_integral(lo + (hi - lo) * np.array([0.0, 0.1, 0.5, 0.9, 1.0]))
        assert run[0] == 0.0 and np.all(np.diff(run) > 0.0)


@pytest.mark.usefixtures("no_adaptive_quadrature")
def test_unweighted_jacobi_running_integral_matches_mpmath():
    # coupling of weighted P_1 against unweighted P_2 at alpha = beta = -0.45; the weighted
    # running integral X_1 vanishes at 1, so the coupling is -2 * integral of X_2 u_1
    a = -0.45
    u1 = basis_signal(JACOBI, 1, weighted=True, jacobi_params=(a, a))
    u2 = basis_signal(JACOBI, 2, jacobi_params=(a, a))
    with mp.workdps(40):
        alpha = mp.mpf(a)
        # P_2 = c2 x^2 + c0 (even), so X_2 = c2 (x^3 + 1) / 3 + c0 (x + 1); P_1 = (alpha + 1) x
        c0 = mp.jacobi(2, alpha, alpha, 0)
        c2 = mp.jacobi(2, alpha, alpha, 1) - c0

        def x2_u1(x):
            return (c2 * (x**3 + 1) / 3 + c0 * (x + 1)) * (1 - x * x) ** alpha * (alpha + 1) * x

        want = float(-2 * mp.quad(x2_u1, [-1, 0, 1]))
    assert coupling_displacement(u1, u2) == pytest.approx(want, rel=1e-14, abs=0.0)


@pytest.mark.usefixtures("no_adaptive_quadrature")
@pytest.mark.parametrize("a", (-0.9,) + ALPHAS)
def test_weighted_index_zero_coupling_matches_mpmath(a):
    # X_0 is an incomplete beta function, not a polynomial, so the coupling of weighted
    # P_0 against weighted P_1 is integrated by parts; either operand order
    u0 = basis_signal(JACOBI, 0, weighted=True, jacobi_params=(a, a))
    u1 = basis_signal(JACOBI, 1, weighted=True, jacobi_params=(a, a))
    with mp.workdps(40):
        alpha = mp.mpf(a)

        def x0_u1_minus_x1_u0(u, side):
            # x = side * cos(theta) on each half, theta = u^5, so that (1 - x^2)^alpha dx is
            # smooth at the ends even for alpha = -0.9; X_1 = -(1 - x^2)^(alpha + 1) / 2
            theta = u**5
            s = mp.sin(theta)
            # X_0(-cos theta), and X_0(cos theta) by symmetry (betainc near 1 is inaccurate)
            x0 = 2 ** (2 * alpha + 1) * mp.betainc(alpha + 1, alpha + 1, 0, mp.sin(theta / 2) ** 2)
            if side > 0:
                x0 = 2 ** (2 * alpha + 1) * mp.beta(alpha + 1, alpha + 1) - x0
            x = side * mp.cos(theta)
            return (x0 * (alpha + 1) * x + s ** (2 * alpha + 2) / 2) * s ** (2 * alpha + 1) * 5 * u**4

        end = (mp.pi / 2) ** (mp.mpf(1) / 5)
        want = float(sum(mp.quad(lambda u: x0_u1_minus_x1_u0(u, side), [0, end]) for side in (-1, 1)))
    assert coupling_displacement(u0, u1) == pytest.approx(want, rel=1e-13, abs=0.0)
    assert coupling_displacement(u1, u0) == pytest.approx(-want, rel=1e-13, abs=0.0)


@pytest.mark.usefixtures("no_adaptive_quadrature")
def test_weighted_costs_use_exact_rules_only():
    solution = cheb_optimal_inputs(1.7, split=0.3)
    assert weighted_cost(solution.u1, solution.u2, cheb_cost()) == pytest.approx(1.7, rel=1e-14)
    for family, params in [(LEGENDRE, None), (CHEBYSHEV_SECOND, None), ("trig", None), (JACOBI, (0.05, 0.05))]:
        for interval in (CANONICAL_INTERVAL, SHIFTED_INTERVAL):
            odd, even = pair_signals(family, None, interval, params)
            assert weighted_cost(odd, combine_signals(odd, even), unit_cost(interval)) > 0.0


@pytest.mark.usefixtures("no_adaptive_quadrature")
def test_inner_products_use_exact_rules_only():
    for family, params in [
        (LEGENDRE, None),
        (CHEBYSHEV_FIRST, None),
        (CHEBYSHEV_SECOND, None),
        (JACOBI, (-0.45, -0.45)),
        (JACOBI, (1.0, 2.0)),
    ]:
        for interval in (CANONICAL_INTERVAL, SHIFTED_INTERVAL):
            w = weight_fn(family, interval, params)
            p = [BasisElement(family, n, interval, params) for n in range(6)]
            assert inner_product(p[3], p[3], w) > 0.0
            assert inner_product(p[2], p[5], w) == pytest.approx(0.0, abs=1e-14)
            assert inner_product(Term(p[1], 2.0), basis_signal(family, 4, interval, jacobi_params=params)) != 0.0
    for interval in (CANONICAL_INTERVAL, SHIFTED_INTERVAL):
        sin3, cos2 = BasisElement(TRIG_SIN, 3, interval), BasisElement(TRIG_COS, 2, interval)
        assert inner_product(sin3, sin3) == pytest.approx(0.5 * (interval[1] - interval[0]), rel=1e-15)
        assert inner_product(sin3, cos2) == pytest.approx(0.0, abs=1e-15)


def test_no_quadrature_rule_is_built_at_import():
    code = "import nhsteer.orthopoly as o; print(o._gauss_jacobi.cache_info().currsize)"
    env = dict(os.environ, PYTHONPATH=str(Path(orthopoly.__file__).parents[1]))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env)
    assert out.stdout.strip() == "0"
