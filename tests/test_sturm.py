import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from nhsteer import orthopoly
from nhsteer.errors import DomainError
from nhsteer.orthopoly import (
    CHEBYSHEV_FIRST,
    CHEBYSHEV_SECOND,
    JACOBI,
    JACOBI_EXPONENT_CAP,
    LEGENDRE,
    TRIG_COS,
    TRIG_SIN,
    BasisElement,
    Harmonic,
    InputSignal,
    Term,
    evaluate,
)
from nhsteer.sturm import (
    certify_pair,
    chebyshev_nodes,
    family_sl_problem,
    jacobi_pairing,
    sl_residual,
    value_and_derivatives,
)


def test_chebyshev_nodes_are_interior_and_ordered():
    pts = chebyshev_nodes(50)
    assert len(pts) == 50
    assert np.all(pts > -1.0) and np.all(pts < 1.0)
    shifted = chebyshev_nodes(10, interval=(0.0, 1.0))
    assert np.all(shifted > 0.0) and np.all(shifted < 1.0)


@pytest.mark.parametrize("family", [LEGENDRE, CHEBYSHEV_FIRST, CHEBYSHEV_SECOND, TRIG_SIN, TRIG_COS])
def test_family_residuals_vanish(family):
    pts = chebyshev_nodes(50)
    start = 1 if family == TRIG_SIN else 0
    for n in range(start, 9):
        problem = family_sl_problem(family, n)
        el = BasisElement(family, n)
        worst = max(abs(sl_residual(problem, el, t)) for t in pts)
        assert worst < 1e-6, (family, n, worst)


@pytest.mark.parametrize("alpha", [-0.5, 0.0, 0.5])
@pytest.mark.parametrize("beta", [-0.5, 0.0, 0.5])
def test_jacobi_residuals_vanish(alpha, beta):
    pts = chebyshev_nodes(50)
    for n in range(9):
        problem = family_sl_problem(JACOBI, n, (alpha, beta))
        el = BasisElement(JACOBI, n, jacobi_params=(alpha, beta))
        worst = max(abs(sl_residual(problem, el, t)) for t in pts)
        assert worst < 1e-6, (alpha, beta, n, worst)


def test_wrong_eigenvalue_leaves_a_visible_residual():
    problem = family_sl_problem(LEGENDRE, 4)  # lambda = 20
    worst = max(abs(sl_residual(problem, BasisElement(LEGENDRE, 3), t)) for t in chebyshev_nodes(20))
    assert worst > 1e-2


@pytest.mark.parametrize("family", [LEGENDRE, CHEBYSHEV_FIRST, CHEBYSHEV_SECOND])
def test_residual_sees_a_perturbed_recurrence(monkeypatch, family):
    # The derivatives come from the Jacobi rule, not from the equation, so a
    # wrong element value must leave a residual of about lambda * 1e-3.
    exact = orthopoly._family_rows

    def perturbed(fam, params, indices, tau):
        rows = exact(fam, params, indices, tau)
        return {n: row + 1e-3 * tau**n if fam == family else row for n, row in rows.items()}

    monkeypatch.setattr(orthopoly, "_family_rows", perturbed)
    n = 4
    problem = family_sl_problem(family, n)
    worst = max(abs(sl_residual(problem, BasisElement(family, n), t)) for t in chebyshev_nodes(50))
    assert worst >= 1e-2


def test_sl_residual_rejects_endpoints():
    problem = family_sl_problem(LEGENDRE, 2)
    with pytest.raises(DomainError):
        sl_residual(problem, BasisElement(LEGENDRE, 2), 1.0)


def test_sl_residual_refuses_a_weight_that_underflows():
    # at the outermost of 50 Chebyshev nodes (1 - t ~ 4.9e-4) the weight (1-t)^100 (1+t)^100 is 0.0
    params = (100.0, 100.0)
    t = float(chebyshev_nodes(50)[0])
    with pytest.raises(DomainError, match=f"w\\(t\\) = 0.0 at t = {t!r}"):
        sl_residual(family_sl_problem(JACOBI, 3, params), BasisElement(JACOBI, 3, jacobi_params=params), t)


def test_value_and_derivatives_dispatch():
    el = BasisElement(LEGENDRE, 3)
    v, d1, d2 = value_and_derivatives(el, 0.4)
    # P3 = (5t^3 - 3t)/2
    assert_allclose(v, (5 * 0.4**3 - 3 * 0.4) / 2)
    assert_allclose(d1, (15 * 0.4**2 - 3) / 2)
    assert_allclose(d2, 15 * 0.4)
    h = Harmonic("sin", 2.0)
    v, d1, d2 = value_and_derivatives(h, 0.3)
    assert_allclose([v, d1, d2], [math.sin(0.6), 2 * math.cos(0.6), -4 * math.sin(0.6)])
    # plain callables fall back to finite differences
    v, d1, d2 = value_and_derivatives(lambda t: t**3, 0.5)
    assert_allclose(v, 0.125)
    assert_allclose(d1, 0.75, atol=1e-6)
    assert_allclose(d2, 3.0, atol=1e-4)


# ---------------------------------------------------------------------------
# weighted-energy pairings


def test_pairing_eigenvalue_round_trip():
    for alpha, beta in [(-0.5, -0.5), (0.0, 0.0), (-0.25, -0.75), (-0.5, 0.0)]:
        for n in range(6):
            pairing = jacobi_pairing(alpha, beta, n)
            assert 4.0 * pairing.lam**2 == pytest.approx(n * (n + alpha + beta + 1.0), abs=1e-14)


def test_pairing_guards():
    with pytest.raises(DomainError):
        jacobi_pairing(0.5, -0.5, 2)  # alpha must not exceed 0
    with pytest.raises(ValueError):
        jacobi_pairing(-0.5, -0.5, -1)


def test_chebyshev_point_pairing_certified():
    pairing = jacobi_pairing(-0.5, -0.5, 4)
    # eta = zeta = -1/2 and order2 = n, so the partner exists in-family
    assert pairing.k2 is not None
    assert pairing.k2.index == 4
    report = certify_pair(pairing)
    assert report.residual_k1 < 1e-6
    assert report.residual_k2 < 1e-6
    assert report.nodes == 50


CAP = float(JACOBI_EXPONENT_CAP)


@pytest.mark.parametrize("params", [(CAP, CAP), (CAP, -0.5), (-0.5, CAP)])
def test_jacobi_residuals_vanish_at_the_exponent_cap(params):
    # the coefficient P has exponents one above the cap; 20 nodes keep w = (1-t)^a (1+t)^b above underflow
    pts = chebyshev_nodes(20)
    for n in range(9):
        problem = family_sl_problem(JACOBI, n, params)
        el = BasisElement(JACOBI, n, jacobi_params=params)
        scale = max(1.0, max(abs(problem.lam * evaluate(el, t)) for t in pts))
        worst = max(abs(sl_residual(problem, el, t)) for t in pts)
        assert worst < 1e-12 * scale, (params, n, worst / scale)


def test_legendre_point_pairing_certified():
    pairing = jacobi_pairing(0.0, 0.0, 5)
    # eta = zeta = -1 is not an admissible weight: no second channel shape
    assert pairing.k2 is None
    report = certify_pair(pairing)
    assert report.residual_k1 < 1e-6
    assert report.residual_k2 is None


def test_first_kind_weight_operator_matches_chebyshev_ode():
    # With a1 = a2 = sqrt(1 - t^2), the operator a1 (a2 y')' equals
    # (1 - t^2) y'' - t y', and y = b1 T_{2k} + b2 sqrt(1-t^2) U_{2k-1}
    # is its eigenfunction with eigenvalue -(2k)^2.
    pairing = jacobi_pairing(-0.5, -0.5, 4)
    a1, a2 = pairing.a1, pairing.a2
    k = 2
    b1, b2 = 0.6, -0.8
    y = InputSignal(
        terms=(
            Term(element=BasisElement(CHEBYSHEV_FIRST, 2 * k), scale=b1),
            Term(element=BasisElement(CHEBYSHEV_SECOND, 2 * k - 1), scale=b2, weighted=True),
        ),
        interval=(-1.0, 1.0),
    )
    for t in chebyshev_nodes(30):
        val, d1, d2 = value_and_derivatives(y, t)
        a2_val, a2_d1, _ = value_and_derivatives(a2, t)
        product_form = float(a1(t)) * a2_val * (a2_d1 / a2_val * d1 + d2)
        ode_form = (1.0 - t * t) * d2 - t * d1
        assert_allclose(product_form, ode_form, atol=1e-8)
        assert_allclose(product_form, -(2.0 * k) ** 2 * val, atol=1e-8)
