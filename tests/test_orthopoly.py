import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose
from scipy import integrate as sp_integrate
from scipy import special as sp_special

from nhsteer import orthopoly
from nhsteer.errors import CapabilityError, DomainError, IntegrabilityError
from nhsteer.orthopoly import (
    CANONICAL_INTERVAL,
    CHEBYSHEV_FIRST,
    CHEBYSHEV_SECOND,
    INDEX_CAP,
    JACOBI,
    JACOBI_EXPONENT_CAP,
    LEGENDRE,
    SHIFTED_INTERVAL,
    TRIG_COS,
    TRIG_SIN,
    BasisElement,
    Harmonic,
    InputSignal,
    Term,
    _arc_angle,
    _arc_integrand,
    _arc_time,
    _arc_weigh,
    _eval_array,
    _eval_canonical,
    _family_rows,
    _gauss_jacobi,
    _sign_cuts,
    _stacked_values,
    _to_canonical,
    _weigh,
    basis_signal,
    combine_signals,
    constant_signal,
    coupling_displacement,
    element_parity,
    evaluate,
    inner_product,
    integrate,
    integrate_smooth,
    l1_norm,
    lp_norm,
    scale_signal,
    shift,
    weight_exponents,
    weight_fn,
)
from nhsteer.sturm import value_and_derivatives

POLY_FAMILIES = [LEGENDRE, CHEBYSHEV_FIRST, CHEBYSHEV_SECOND]


# ---------------------------------------------------------------------------
# evaluation against independent references


@pytest.mark.parametrize("n", [0, 1, 2, 3, 5, 8, 13])
def test_evaluate_matches_scipy(n):
    t = np.linspace(-1.0, 1.0, 41)
    assert_allclose(evaluate(BasisElement(LEGENDRE, n), t), sp_special.eval_legendre(n, t), atol=1e-12)
    assert_allclose(evaluate(BasisElement(CHEBYSHEV_FIRST, n), t), sp_special.eval_chebyt(n, t), atol=1e-12)
    assert_allclose(evaluate(BasisElement(CHEBYSHEV_SECOND, n), t), sp_special.eval_chebyu(n, t), atol=1e-11)
    alpha, beta = 0.3, -0.4
    assert_allclose(
        evaluate(BasisElement(JACOBI, n, jacobi_params=(alpha, beta)), t),
        sp_special.eval_jacobi(n, alpha, beta, t),
        atol=1e-11,
    )


def test_shifted_elements_are_composed_with_affine_map():
    # P2(2t - 1) = 6t^2 - 6t + 1 on [0, 1]
    el = BasisElement(LEGENDRE, 2, interval=SHIFTED_INTERVAL)
    t = np.linspace(0.0, 1.0, 17)
    assert_allclose(evaluate(el, t), 6.0 * t * t - 6.0 * t + 1.0, atol=1e-13)
    assert shift(BasisElement(LEGENDRE, 2)) == el


def test_jacobi_exponents_above_the_cap_are_refused():
    cap = float(JACOBI_EXPONENT_CAP)
    assert BasisElement(JACOBI, 3, jacobi_params=(cap, -0.5)).jacobi_params == (cap, -0.5)
    for params in [(cap + 0.5, 0.0), (0.0, 300.0), (1e308, 1e308)]:
        with pytest.raises(CapabilityError, match=f"above {JACOBI_EXPONENT_CAP}"):
            BasisElement(JACOBI, 3, jacobi_params=params)
    # weighted terms at such exponents used to evaluate to nan with overflow warnings
    with pytest.raises(CapabilityError):
        basis_signal(JACOBI, 3, weighted=True, jacobi_params=(2000.0, 2000.0))
    # a pure weight goes one higher: the self-adjoint coefficient of the family at the cap
    assert weight_fn(JACOBI, jacobi_params=(cap + 1.0, cap + 1.0))(0.5) > 0.0
    assert BasisElement(JACOBI, 0, jacobi_params=(cap + 1.0, cap + 1.0)).index == 0
    with pytest.raises(CapabilityError, match=f"above {JACOBI_EXPONENT_CAP + 1}"):
        weight_fn(JACOBI, jacobi_params=(cap + 1.5, 0.0))


def test_trig_family_values():
    t = np.linspace(-1.0, 1.0, 23)
    assert_allclose(evaluate(BasisElement(TRIG_SIN, 2), t), np.sin(2 * np.pi * t), atol=1e-13)
    assert_allclose(evaluate(BasisElement(TRIG_COS, 3), t), np.cos(3 * np.pi * t), atol=1e-13)


def test_element_validation():
    with pytest.raises(CapabilityError):
        BasisElement(LEGENDRE, INDEX_CAP + 1)
    with pytest.raises(ValueError):
        BasisElement(TRIG_SIN, 0)  # identically zero
    with pytest.raises(ValueError):
        BasisElement(JACOBI, 2, jacobi_params=(-1.5, 0.0))
    with pytest.raises(ValueError):
        BasisElement("hermite", 1)
    with pytest.raises(DomainError):
        evaluate(BasisElement(LEGENDRE, 3), 1.5)


def test_weight_validation_matches_element_validation():
    # jacobi_params belong to the jacobi family only, and are stored as a float pair
    with pytest.raises(ValueError):
        weight_fn(LEGENDRE, jacobi_params=(1, 2))
    with pytest.raises(ValueError):
        weight_fn(CHEBYSHEV_FIRST, jacobi_params=[0.5, 0.5])
    with pytest.raises(ValueError):
        weight_fn(JACOBI, jacobi_params=(-1.0, 0.5))
    with pytest.raises(ValueError):
        weight_fn(JACOBI)
    w = weight_fn(JACOBI, jacobi_params=[1, 0.5])
    assert w.terms[0].element.jacobi_params == (1.0, 0.5)
    assert hash(w) == hash(weight_fn(JACOBI, jacobi_params=(1.0, 0.5)))
    assert BasisElement(JACOBI, 2, jacobi_params=[1, 0.5]).jacobi_params == (1.0, 0.5)


WEIGHT_CASES = [(f, None) for f in (LEGENDRE, CHEBYSHEV_FIRST, CHEBYSHEV_SECOND, TRIG_SIN, TRIG_COS)]
WEIGHT_CASES += [(JACOBI, (0.5, 0.5)), (JACOBI, (-0.45, 0.3))]


@pytest.mark.parametrize("interval", [CANONICAL_INTERVAL, SHIFTED_INTERVAL])
@pytest.mark.parametrize("family, params", WEIGHT_CASES)
def test_a_weight_is_the_weighted_index_0_term_of_its_family(family, params, interval):
    lo, hi = interval
    t = np.linspace(lo, hi, 259)[1:-1]  # 257 interior points: the first-kind weight is singular at the ends
    tau = t if interval == CANONICAL_INTERVAL else 2.0 * t - 1.0
    a, b = weight_exponents(family, params)
    w = weight_fn(family, interval, params)
    index0 = Term(BasisElement(TRIG_COS if family == TRIG_SIN else family, 0, interval, params), weighted=True)
    np.testing.assert_array_equal(w(t), index0.value(t))
    # the same bits as a separate weight evaluator: ones times (1 - tau)^a (1 + tau)^b, left to right
    ones = np.ones_like(tau)
    np.testing.assert_array_equal(w(t), ones if a == b == 0.0 else ones * (1.0 - tau) ** a * (1.0 + tau) ** b)
    # value and slopes are those of the weighted zeroth Jacobi term of the weight's exponents
    jacobi0 = Term(BasisElement(JACOBI, 0, interval, (a, b)), weighted=True)
    for x in t[::16]:
        assert value_and_derivatives(w, x) == value_and_derivatives(jacobi0, x)


# ---------------------------------------------------------------------------
# orthogonality, norms, parity


def _norm_constant(family, n, jacobi_params=None):
    if family == LEGENDRE:
        return 2.0 / (2.0 * n + 1.0)
    if family == CHEBYSHEV_FIRST:
        return math.pi if n == 0 else math.pi / 2.0
    if family == CHEBYSHEV_SECOND:
        return math.pi / 2.0
    if family == JACOBI:
        a, b = jacobi_params
        if n == 0:  # general formula has a removable 0/0 when a + b = -1
            return 2.0 ** (a + b + 1.0) * sp_special.beta(a + 1.0, b + 1.0)
        return (
            2.0 ** (a + b + 1.0)
            / (2.0 * n + a + b + 1.0)
            * math.gamma(n + a + 1.0)
            * math.gamma(n + b + 1.0)
            / (math.gamma(n + a + b + 1.0) * math.gamma(n + 1.0))
        )
    raise AssertionError(family)


@pytest.mark.parametrize("family", POLY_FAMILIES)
def test_orthogonality_and_norms(family):
    w = weight_fn(family)
    for n in range(11):
        fn = BasisElement(family, n)
        for m in range(n, 11):
            fm = BasisElement(family, m)
            val = inner_product(fn, fm, w)
            expected = _norm_constant(family, n) if n == m else 0.0
            assert abs(val - expected) < 1e-9, (family, n, m, val)


@pytest.mark.parametrize("alpha", [-0.5, 0.0, 0.5])
@pytest.mark.parametrize("beta", [-0.5, 0.0, 0.5])
def test_jacobi_orthogonality_grid(alpha, beta):
    w = weight_fn(JACOBI, jacobi_params=(alpha, beta))
    for n in range(7):
        fn = BasisElement(JACOBI, n, jacobi_params=(alpha, beta))
        for m in range(n, 7):
            fm = BasisElement(JACOBI, m, jacobi_params=(alpha, beta))
            val = inner_product(fn, fm, w)
            expected = _norm_constant(JACOBI, n, (alpha, beta)) if n == m else 0.0
            assert abs(val - expected) < 1e-9, (alpha, beta, n, m, val)


def test_trig_orthogonality():
    # sin(n pi t) and cos(m pi t) are orthonormal-with-norm-1 over [-1, 1]
    for n in range(1, 6):
        for m in range(1, 6):
            s_n = BasisElement(TRIG_SIN, n)
            c_m = BasisElement(TRIG_COS, m)
            assert abs(inner_product(s_n, c_m)) < 1e-9
            val = inner_product(s_n, BasisElement(TRIG_SIN, m))
            assert abs(val - (1.0 if n == m else 0.0)) < 1e-9
            val = inner_product(c_m, BasisElement(TRIG_COS, n))
            assert abs(val - (1.0 if n == m else 0.0)) < 1e-9


def test_parity():
    rng = np.random.default_rng(11)
    t = rng.uniform(-1.0, 1.0, size=100)
    for family in POLY_FAMILIES:
        for n in range(11):
            el = BasisElement(family, n)
            sign = element_parity(el)
            assert sign == (1 if n % 2 == 0 else -1)
            assert_allclose(evaluate(el, -t), sign * evaluate(el, t), atol=1e-12)
    assert element_parity(BasisElement(TRIG_SIN, 3)) == -1
    assert element_parity(BasisElement(TRIG_COS, 3)) == 1
    assert element_parity(BasisElement(JACOBI, 2, jacobi_params=(0.3, 0.1))) is None
    el = BasisElement(JACOBI, 3, jacobi_params=(0.25, 0.25))
    assert element_parity(el) == -1
    assert_allclose(evaluate(el, -t), -evaluate(el, t), atol=1e-12)


# ---------------------------------------------------------------------------
# derivatives


def test_first_kind_derivative_identity():
    # dT_n/dt = n U_{n-1} at 100 interior points
    t = np.linspace(-0.99, 0.99, 100)
    for n in range(1, 11):
        lhs = basis_signal(CHEBYSHEV_FIRST, n).derivative(t)
        rhs = n * evaluate(BasisElement(CHEBYSHEV_SECOND, n - 1), t)
        assert_allclose(lhs, rhs, atol=1e-10)


@pytest.mark.parametrize("family", POLY_FAMILIES + [TRIG_SIN, TRIG_COS])
def test_derivatives_match_finite_differences(family):
    h = 1e-6
    t = np.linspace(-0.9, 0.9, 19)
    for n in range(1, 7):
        sig = basis_signal(family, n)
        fd1 = (sig(t + h) - sig(t - h)) / (2.0 * h)
        assert_allclose(sig.derivative(t), fd1, rtol=1e-6, atol=1e-5)
        h2 = 1e-5
        fd2 = (sig(t + h2) - 2.0 * sig(t) + sig(t - h2)) / (h2 * h2)
        assert_allclose(sig.second_derivative(t), fd2, rtol=1e-4, atol=1e-4)


def test_jacobi_derivative_reduction():
    # d/dt P_n^(a,b) = (n + a + b + 1)/2 * P_{n-1}^(a+1,b+1)
    a, b = 0.3, -0.4
    t = np.linspace(-0.95, 0.95, 15)
    for n in range(1, 7):
        sig = basis_signal(JACOBI, n, jacobi_params=(a, b))
        expected = (n + a + b + 1.0) / 2.0 * sp_special.eval_jacobi(n - 1, a + 1.0, b + 1.0, t)
        assert_allclose(sig.derivative(t), expected, atol=1e-11)


def test_legendre_endpoint_derivative_is_the_limit():
    # P_n'(1) = n(n+1)/2
    for n in range(1, 8):
        sig = basis_signal(LEGENDRE, n)
        assert_allclose(sig.derivative(1.0), n * (n + 1) / 2.0, atol=1e-10)
        assert_allclose(sig.derivative(-1.0), (-1.0) ** (n - 1) * n * (n + 1) / 2.0, atol=1e-10)


def test_second_kind_derivative_endpoint_value():
    # U_n'(+-1) = (+-1)^(n+1) n (n+1) (n+2) / 3
    for n in range(1, 9):
        sig = basis_signal(CHEBYSHEV_SECOND, n)
        for end in (1.0, -1.0):
            assert_allclose(sig.derivative(end), end ** (n + 1) * n * (n + 1) * (n + 2) / 3.0, rtol=1e-13)


_DERIVATIVE_POINTS = np.array([-1.0, 1.0, -(1.0 - 1e-9), 1.0 - 1e-9, -0.7, 0.0, 0.3, 0.91])


@pytest.mark.parametrize(
    "family, params, rel",
    [
        (LEGENDRE, None, 5e-14),
        (CHEBYSHEV_FIRST, None, 5e-14),
        (CHEBYSHEV_SECOND, None, 5e-14),
        (JACOBI, (0.3, -0.4), 5e-13),
        (JACOBI, (-0.45, -0.45), 5e-13),
        (JACOBI, (1.7, 2.2), 5e-13),
    ],
)
@pytest.mark.parametrize("n", [1, 2, 5, 20, 64])
def test_derivatives_match_mpmath(family, params, rel, n):
    # errors are measured against max |E^(k)(+-1)|, the size of the k-th derivative on [-1, 1]
    sig = basis_signal(family, n, jacobi_params=params)
    with mp.workdps(50):
        if family == JACOBI:
            a, b = (mp.mpf(p) for p in params)
            exact = lambda x: _mp_jacobi(n, a, b, x)  # noqa: E731
        else:
            special = {LEGENDRE: mp.legendre, CHEBYSHEV_FIRST: mp.chebyt, CHEBYSHEV_SECOND: mp.chebyu}[family]
            exact = lambda x: special(n, x)  # noqa: E731
        for order, fn in ((1, sig.derivative), (2, sig.second_derivative)):
            got = fn(_DERIVATIVE_POINTS)
            if order > n:
                assert np.all(got == 0.0)
                continue
            want = [mp.diff(exact, mp.mpf(t), order) for t in _DERIVATIVE_POINTS]
            scale = max(abs(w) for w in want[:2])
            worst = max(abs(mp.mpf(g) - w) for g, w in zip(got, want))
            assert worst <= rel * scale, (order, float(worst / scale))


def test_shifted_derivative_chain_rule():
    sig = basis_signal(LEGENDRE, 3, interval=SHIFTED_INTERVAL)
    base = basis_signal(LEGENDRE, 3)
    t = np.linspace(0.05, 0.95, 9)
    assert_allclose(sig.derivative(t), 2.0 * base.derivative(2 * t - 1), atol=1e-12)
    assert_allclose(sig.second_derivative(t), 4.0 * base.second_derivative(2 * t - 1), atol=1e-11)


# ---------------------------------------------------------------------------
# quadrature


def test_integrate_smooth_against_scipy():
    f = lambda t: np.exp(t) * np.cos(3.0 * t)
    ours = integrate_smooth(f, -1.0, 2.0)
    ref, _ = sp_integrate.quad(lambda t: math.exp(t) * math.cos(3.0 * t), -1.0, 2.0)
    assert_allclose(ours, ref, atol=1e-11)


def test_integrate_smooth_refuses_a_divergent_integrand():
    with pytest.raises(IntegrabilityError):
        integrate_smooth(lambda t: 1.0 / np.abs(t), -1.0, 1.0)


def test_integrate_smooth_interval_order():
    with pytest.raises(ValueError, match="reversed"):
        integrate_smooth(np.cos, 1.0, -1.0)
    assert integrate_smooth(np.cos, 0.25, 0.25) == 0.0


def test_arc_map_helpers_invert_and_scale():
    s = np.linspace(0.0, np.pi, 33)
    for box in (CANONICAL_INTERVAL, SHIFTED_INTERVAL):
        half = 0.5 * (box[1] - box[0])
        t = _arc_time(box, s)
        assert t[0] == box[0] and t[-1] == box[1]
        assert_allclose(_arc_angle(box, t), s, rtol=0.0, atol=2e-8)  # arccos loses digits at its ends
        assert np.array_equal(_arc_integrand(np.exp, box, s), np.exp(t) * half * np.sin(s))
        sig = basis_signal(CHEBYSHEV_FIRST, 3, interval=box, weighted=True)
        assert np.array_equal(_arc_integrand(sig, box, s), sig.theta_factor(s))


def _per_term_rows(channels, v, arc=None):
    """One channel at a time and one term at a time, each element by its own recurrence."""
    rows = []
    for u in channels:
        if not isinstance(u, InputSignal):
            if arc is None:
                rows.append(_eval_array(u, v))
            else:
                rows.append(_eval_array(u, _arc_time(arc, v)) * (0.5 * (arc[1] - arc[0])) * np.sin(v))
            continue
        half = 0.5 * (u.interval[1] - u.interval[0])
        acc = None if arc is None else np.zeros_like(v)
        for term in u.terms:
            el, (a, b) = term.element, term.exponents
            tau = _to_canonical(u.interval, v) if arc is None else -np.cos(v)
            e = term.scale * _eval_canonical(el.family, el.index, el.jacobi_params, tau)
            value = _weigh(e, tau, a, b) if arc is None else _arc_weigh(e * half * 2.0 ** (a + b + 1.0), v, a, b)
            acc = value if acc is None else acc + value
        rows.append(np.zeros_like(v) if acc is None else acc)
    return np.stack(rows)


def _batch_channels(box, arc):
    jac = (0.3, 0.3)
    channels = [
        combine_signals(basis_signal(LEGENDRE, 5, box), basis_signal(LEGENDRE, 0, box, -0.5), basis_signal(LEGENDRE, 2, box, 3.0)),
        combine_signals(basis_signal(TRIG_SIN, 3, box), basis_signal(TRIG_COS, 2, box, 0.25)),
        basis_signal(LEGENDRE, 2, box, -1.5),
        InputSignal(terms=(), interval=box),
        combine_signals(
            basis_signal(JACOBI, 4, box, weighted=True, jacobi_params=jac),
            basis_signal(CHEBYSHEV_SECOND, 3, box, 2.0, weighted=True),
            basis_signal(JACOBI, 1, box, -0.75, jacobi_params=jac),
        ),
        basis_signal(CHEBYSHEV_SECOND, 6, box, weighted=True),
        np.exp,
        lambda t: math.cos(float(t)),  # scalar only: evaluated point by point
    ]
    if arc and box == CANONICAL_INTERVAL:  # singular weights only where the arc map takes them
        channels.append(combine_signals(basis_signal(CHEBYSHEV_FIRST, 3, weighted=True), basis_signal(CHEBYSHEV_SECOND, 2, weighted=True)))
    return channels


@pytest.mark.parametrize("arc", [False, True])
@pytest.mark.parametrize("box", [CANONICAL_INTERVAL, SHIFTED_INTERVAL])
def test_stacked_values_equal_the_per_signal_and_per_term_values(box, arc):
    channels = _batch_channels(box, arc)
    v = np.linspace(0.0, np.pi, 257) if arc else np.linspace(box[0], box[1], 257)
    got = _stacked_values(channels, v, box if arc else None)
    def one(u):
        if not arc:
            return _eval_array(u, v)
        return u.theta_factor(v) if isinstance(u, InputSignal) else _arc_integrand(u, box, v)

    assert np.array_equal(got, np.stack([one(u) for u in channels]))
    assert np.array_equal(got, _per_term_rows(channels, v, box if arc else None))


def test_stacked_values_share_work_across_intervals_on_the_plain_map():
    channels = _batch_channels(CANONICAL_INTERVAL, False) + _batch_channels(SHIFTED_INTERVAL, False)
    v = np.linspace(0.0, 1.0, 129)
    assert np.array_equal(_stacked_values(channels, v), _per_term_rows(channels, v))


def test_family_rows_keep_only_the_rows_asked_for():
    tau = np.linspace(-1.0, 1.0, 33)
    rows = _family_rows(JACOBI, (1.7, 1.7), {0, 3, 9}, tau)
    assert sorted(rows) == [0, 3, 9]
    for n, row in rows.items():
        assert np.array_equal(row, _eval_canonical(JACOBI, n, (1.7, 1.7), tau))


def test_inner_product_coerces_each_operand_once(monkeypatch):
    f, g, w = BasisElement(CHEBYSHEV_FIRST, 5), BasisElement(CHEBYSHEV_FIRST, 7), weight_fn(CHEBYSHEV_FIRST)
    want = inner_product(basis_signal(CHEBYSHEV_FIRST, 5), basis_signal(CHEBYSHEV_FIRST, 7), w)
    built = []
    post_init = InputSignal.__post_init__

    def counted(self):
        built.append(self)
        post_init(self)

    monkeypatch.setattr(InputSignal, "__post_init__", counted)
    got = inner_product(f, g, w)
    assert len(built) == 2  # f and g once each; the weight is already a signal
    assert got == want


def test_integrate_with_endpoint_weights_matches_beta_function():
    # int_{-1}^{1} (1-t)^a (1+t)^b dt = 2^(a+b+1) B(a+1, b+1)
    for a, b in [(-0.5, -0.5), (0.5, 0.5), (0.3, -0.4), (-0.5, 1.5)]:
        val = integrate(lambda t: np.ones_like(t), CANONICAL_INTERVAL, exponents=(a, b))
        expected = 2.0 ** (a + b + 1.0) * sp_special.beta(a + 1.0, b + 1.0)
        assert_allclose(val, expected, atol=1e-10)


def test_integrate_partial_interval_with_weight():
    # int_0^1 (1-t^2)^(-1/2) dt = pi/2
    val = integrate(
        lambda t: np.ones_like(t), (0.0, 1.0), exponents=(-0.5, -0.5), box=CANONICAL_INTERVAL
    )
    assert_allclose(val, math.pi / 2.0, atol=1e-11)


def test_non_integrable_weight_raises():
    with pytest.raises(IntegrabilityError):
        integrate(lambda t: np.ones_like(t), CANONICAL_INTERVAL, exponents=(-1.0, 0.0))


# ---------------------------------------------------------------------------
# terms, signals, running integrals


def _quadrature_running_integral(sig, t):
    lo = sig.interval[0]
    exps = sig.terms[0].exponents if sig.terms else (0.0, 0.0)
    return integrate(
        lambda s: sig.terms[0].smooth(s) if sig.terms else np.zeros_like(s),
        (lo, t),
        exponents=exps,
        box=sig.interval,
    )


@pytest.mark.parametrize("interval", [CANONICAL_INTERVAL, SHIFTED_INTERVAL])
@pytest.mark.parametrize(
    "family,weighted",
    [
        (LEGENDRE, False),
        (CHEBYSHEV_FIRST, False),
        (CHEBYSHEV_SECOND, False),
        (TRIG_SIN, False),
        (TRIG_COS, False),
    ],
)
def test_running_integrals_match_quadrature(family, weighted, interval):
    lo, hi = interval
    probes = lo + (hi - lo) * np.array([0.12, 0.5, 0.83, 1.0])
    for n in range(1, 5):
        sig = basis_signal(family, n, interval=interval, scale=1.3, weighted=weighted)
        for t in probes:
            assert_allclose(sig.running_integral(t), _quadrature_running_integral(sig, t), atol=1e-10)


def test_weighted_running_integrals_match_quadrature():
    # closed forms for T_n w and U_n w' exist on the canonical interval only
    for family, n in [(CHEBYSHEV_FIRST, 1), (CHEBYSHEV_FIRST, 3), (CHEBYSHEV_SECOND, 2)]:
        sig = basis_signal(family, n, scale=0.7, weighted=True)
        for t in (-0.4, 0.2, 0.9, 1.0):
            assert_allclose(sig.running_integral(t), _quadrature_running_integral(sig, t), atol=1e-10)


def test_weighted_jacobi_running_integral_closed_form_matches_quadrature():
    sig = basis_signal(JACOBI, 2, scale=1.0, weighted=True, jacobi_params=(0.5, 0.5))
    assert_allclose(sig.running_integral(0.3), _quadrature_running_integral(sig, 0.3), atol=1e-9)


@pytest.mark.parametrize(
    "params", [(-0.45, -0.45), (1.7, 0.5), (-0.9, -0.9), (-0.8, 0.3), (-0.9, 60.0), (60.0, 0.05), (10.0, 10.0)]
)
def test_weighted_jacobi_index_zero_running_integral_matches_mpmath(params):
    # the integral of (1 - x)^a (1 + x)^b from -1 is 2^(a+b+1) times an incomplete beta function,
    # summed by its continued fraction; exponents at or below -0.8 used to fail to converge
    a, b = params
    sig = basis_signal(JACOBI, 0, scale=1.3, weighted=True, jacobi_params=params)
    t = np.array([-0.9, -0.2, 0.4, 0.95, 1.0])
    with mp.workdps(30):
        want = [1.3 * float(2 ** mp.mpf(a + b + 1) * mp.betainc(b + 1, a + 1, 0, (mp.mpf(x) + 1) / 2)) for x in t]
    assert_allclose(sig.running_integral(t), want, rtol=1e-13, atol=0.0)


def test_weighted_jacobi_index_zero_integral_and_l1_norm_at_singular_exponents():
    sig = basis_signal(JACOBI, 0, weighted=True, jacobi_params=(-0.9, -0.9))
    with mp.workdps(40):
        want = float(2 ** mp.mpf(-0.8) * mp.beta(mp.mpf(0.1), mp.mpf(0.1)))
    assert_allclose(sig.integral(), want, rtol=1e-13, atol=0.0)
    assert_allclose(l1_norm(sig), want, rtol=1e-13, atol=0.0)


def test_arcsine_running_integrals_of_the_weighted_zeroth_chebyshev_terms():
    t = np.array([-1.0, -0.7, 0.0, 0.3, 0.99, 1.0])
    first = basis_signal(CHEBYSHEV_FIRST, 0, scale=1.3, weighted=True)
    assert_allclose(first.running_integral(t), 1.3 * (np.arcsin(t) + 0.5 * np.pi), rtol=1e-15, atol=1e-15)
    second = basis_signal(CHEBYSHEV_SECOND, 0, scale=1.3, weighted=True)
    want = 1.3 * (0.5 * (t * np.sqrt(1.0 - t * t) + np.arcsin(t)) + 0.25 * np.pi)
    assert_allclose(second.running_integral(t), want, rtol=1e-15, atol=1e-15)
    shifted = basis_signal(CHEBYSHEV_SECOND, 0, SHIFTED_INTERVAL, scale=1.3, weighted=True)
    assert_allclose(shifted.running_integral(0.5 * (t + 1.0)), 0.5 * want, rtol=1e-15, atol=1e-15)


def test_signal_arithmetic_and_json_round_trip():
    s1 = basis_signal(LEGENDRE, 1, scale=2.0)
    s2 = basis_signal(LEGENDRE, 2, scale=-0.5)
    combo = combine_signals(s1, scale_signal(s2, 3.0))
    t = np.linspace(-1.0, 1.0, 7)
    assert_allclose(combo(t), 2.0 * evaluate(BasisElement(LEGENDRE, 1), t) - 1.5 * evaluate(BasisElement(LEGENDRE, 2), t))
    clone = InputSignal.from_json_dict(combo.to_json_dict())
    assert clone == combo


def test_constant_signal():
    sig = constant_signal(LEGENDRE, 4.2)
    assert_allclose(sig(0.37), 4.2)
    assert_allclose(sig.integral(), 8.4)  # 4.2 over an interval of length 2
    trig = constant_signal(TRIG_SIN, 1.0)
    assert_allclose(trig(np.array([-0.5, 0.5])), [1.0, 1.0])


def test_weighted_signal_values_and_singularities():
    sig = basis_signal(CHEBYSHEV_FIRST, 2, weighted=True)
    assert sig.is_singular and sig.is_weighted
    t = 0.3
    expected = sp_special.eval_chebyt(2, t) / math.sqrt(1.0 - t * t)
    assert_allclose(sig(t), expected, atol=1e-12)
    with pytest.raises(DomainError):
        sig(1.0)
    smooth = basis_signal(CHEBYSHEV_SECOND, 2, weighted=True)
    assert not smooth.is_singular
    assert_allclose(smooth(1.0), 0.0, atol=1e-12)  # weight vanishes at the ends


def test_theta_factor_is_smooth_at_the_ends():
    sig = basis_signal(CHEBYSHEV_FIRST, 2, weighted=True)
    # u(t(s)) dt/ds with t = -cos s: the endpoint singularity cancels
    s = np.array([0.0, 1e-8, math.pi / 3.0, math.pi])
    vals = sig.theta_factor(s)
    assert np.all(np.isfinite(vals))
    mid = math.pi / 3.0
    t_mid = -math.cos(mid)
    assert_allclose(vals[2], sig(t_mid) * math.sin(mid), atol=1e-12)


@pytest.mark.parametrize("family", [CHEBYSHEV_FIRST, CHEBYSHEV_SECOND])
def test_derivatives_of_a_weighted_term_refuse_the_endpoints(family):
    sig = basis_signal(family, 2, weighted=True)
    for t in (-1.0, 1.0, np.array([0.0, 1.0])):
        with pytest.raises(DomainError, match="interior points"):
            sig.derivative(t)
        with pytest.raises(DomainError, match="interior points"):
            sig.second_derivative(t)


def test_signal_derivatives_match_finite_differences():
    sig = combine_signals(
        basis_signal(CHEBYSHEV_FIRST, 3, scale=1.2, weighted=True),
        basis_signal(CHEBYSHEV_SECOND, 2, scale=-0.7),
    )
    h = 1e-6
    for t in (-0.6, 0.1, 0.75):
        fd1 = (sig(t + h) - sig(t - h)) / (2.0 * h)
        assert_allclose(sig.derivative(t), fd1, rtol=1e-6, atol=1e-5)
        h2 = 1e-5
        fd2 = (sig(t + h2) - 2.0 * sig(t) + sig(t - h2)) / (h2 * h2)
        assert_allclose(sig.second_derivative(t), fd2, rtol=1e-3, atol=1e-3)


# ---------------------------------------------------------------------------
# inner products and L1 norms


def test_inner_product_accepts_mixed_operands():
    w = weight_fn(CHEBYSHEV_FIRST)
    el = BasisElement(CHEBYSHEV_FIRST, 2)
    # T2 against itself through three input styles
    direct = inner_product(el, el, w)
    via_signal = inner_product(basis_signal(CHEBYSHEV_FIRST, 2), el, w)
    via_callable = inner_product(lambda t: sp_special.eval_chebyt(2, t), el, w, interval=CANONICAL_INTERVAL)
    assert_allclose(direct, math.pi / 2.0, atol=1e-10)
    assert_allclose(via_signal, direct, atol=1e-10)
    assert_allclose(via_callable, direct, atol=1e-10)


def test_inner_product_of_a_bare_callable_against_the_first_kind_weight():
    el = BasisElement(CHEBYSHEV_FIRST, 3)
    want = sp_integrate.quad(
        lambda t: math.exp(t) * sp_special.eval_chebyt(3, t), -1.0, 1.0,
        weight="alg", wvar=(-0.5, -0.5), epsabs=1e-13, epsrel=1e-13,
    )[0]
    got = inner_product(np.exp, el, weight_fn(CHEBYSHEV_FIRST))
    assert_allclose(got, want, rtol=1e-9)
    # a scalar-only callable is evaluated point by point, to the same value
    assert_allclose(inner_product(math.exp, el, weight_fn(CHEBYSHEV_FIRST)), got, rtol=1e-14)


def test_inner_product_interval_conflict():
    a = basis_signal(LEGENDRE, 1)
    b = basis_signal(LEGENDRE, 1, interval=SHIFTED_INTERVAL)
    with pytest.raises(ValueError):
        inner_product(a, b)


def test_inner_product_takes_a_number_weight_as_a_constant_factor():
    p2 = basis_signal(LEGENDRE, 2, interval=SHIFTED_INTERVAL)
    assert inner_product(p2, p2, 2.5) == 2.5 * inner_product(p2, p2) == pytest.approx(2.5 / 5.0, rel=1e-15)


def test_inner_product_of_bare_callables_on_any_finite_box():
    assert inner_product(lambda t: t, lambda t: t, 1.0, interval=(0.0, 2.0)) == pytest.approx(8.0 / 3.0, rel=1e-14)
    def antiderivative(t):  # of e^t cos t
        return 0.5 * math.exp(t) * (math.cos(t) + math.sin(t))

    want = antiderivative(0.5) - antiderivative(-3.0)
    assert inner_product(np.exp, np.cos, interval=(-3.0, 0.5)) == pytest.approx(want, rel=1e-12)
    with pytest.raises(ValueError, match="different intervals"):
        inner_product(basis_signal(LEGENDRE, 1), np.exp, interval=(0.0, 2.0))
    for box in ((0.0, math.inf), (math.nan, 1.0)):
        with pytest.raises(DomainError, match="finite"):
            inner_product(np.exp, np.exp, interval=box)
        with pytest.raises(DomainError, match="finite"):
            coupling_displacement(np.sin, np.cos, box)


@pytest.mark.parametrize("box", [(2.0, 0.0), (1.0, 1.0)])
def test_reversed_or_empty_boxes_are_refused(box):
    # inner_product used to return the oriented Gauss sum (-2.0 on (2, 0)) while
    # the callable form and the coupling returned 0.0
    with pytest.raises(ValueError, match="positive length"):
        inner_product(1.0, 1.0, interval=box)
    with pytest.raises(ValueError, match="positive length"):
        inner_product(lambda t: 1.0 + 0.0 * t, 1.0, interval=box)
    with pytest.raises(ValueError, match="positive length"):
        coupling_displacement(lambda t: t, lambda t: 1.0 + 0.0 * t, box)


@pytest.mark.parametrize("number", [1.0, 2])
def test_coupling_refuses_a_number_operand(number):
    with pytest.raises(ValueError, match="cannot interpret"):
        coupling_displacement(number, basis_signal(LEGENDRE, 1))
    with pytest.raises(ValueError, match="cannot interpret"):
        coupling_displacement(basis_signal(LEGENDRE, 1), number)


def test_l1_norms():
    assert_allclose(l1_norm(basis_signal(LEGENDRE, 1)), 1.0, atol=1e-10)
    # int |P2| over [-1,1] = 4/(3 sqrt 3)
    assert_allclose(l1_norm(basis_signal(LEGENDRE, 2)), 4.0 / (3.0 * math.sqrt(3.0)), atol=1e-10)
    assert_allclose(l1_norm(basis_signal(TRIG_COS, 1)), 4.0 / math.pi, atol=1e-10)
    # int |T1| w dt = int_0^pi |cos s| ds = 2
    assert_allclose(l1_norm(basis_signal(CHEBYSHEV_FIRST, 1, weighted=True)), 2.0, atol=1e-10)


# ---------------------------------------------------------------------------
# L1/Lp norms against references built apart from the package


def _cuts_sum(roots, antiderivative) -> float:
    """Sum of |F(b) - F(a)| over the panels between sorted roots on [-1, 1]."""
    cuts = np.concatenate(([-1.0], np.sort(np.real(roots)), [1.0]))
    return float(np.sum(np.abs(np.diff(antiderivative(cuts)))))


def _legendre_lp(n: int, p: int = 1) -> float:
    u = np.polynomial.Legendre.basis(n)
    return _cuts_sum(u.roots(), (u**p).integ())


def _second_kind_weighted_l1(n: int) -> float:
    # int |U_n| sqrt(1 - t^2) dt = int_0^pi |sin(k th)| sin(th) dth, k = n + 1
    k = n + 1

    def anti(th):
        return 0.5 * (np.sin((k - 1) * th) / (k - 1) - np.sin((k + 1) * th) / (k + 1))

    edges = np.pi * np.arange(k + 1) / k
    return float(np.sum(np.abs(np.diff(anti(edges)))))


def _jacobi_weighted_l1(n: int, g: float) -> float:
    roots, _ = sp_special.roots_jacobi(n, g, g)
    cuts = np.concatenate(([-1.0], np.sort(roots), [1.0]))
    total = 0.0
    for k, (a, b) in enumerate(zip(cuts[:-1], cuts[1:])):
        # on an end panel quad's algebraic weight carries the singular factor
        if k == 0:
            weight, factor = {"weight": "alg", "wvar": (g, 0.0)}, (lambda t: (1 - t) ** g)
        elif k == len(cuts) - 2:
            weight, factor = {"weight": "alg", "wvar": (0.0, g)}, (lambda t: (1 + t) ** g)
        else:
            weight, factor = {}, (lambda t: (1 - t * t) ** g)
        value, _ = sp_integrate.quad(
            lambda t: sp_special.eval_jacobi(n, g, g, t) * factor(t), a, b, epsabs=0.0, epsrel=1e-13, limit=200, **weight
        )
        total += abs(value)
    return total


def _l1_reference(family: str, n: int, weighted: bool, g: float) -> float:
    if family == LEGENDRE:
        return _legendre_lp(n)
    if family in (TRIG_SIN, TRIG_COS):
        return 4.0 / math.pi
    if family == CHEBYSHEV_FIRST:
        if weighted:
            return 2.0
        u = np.polynomial.Chebyshev.basis(n)
        return _cuts_sum(u.roots(), u.integ())
    if family == CHEBYSHEV_SECOND:
        if weighted:
            return _second_kind_weighted_l1(n)
        # U_n has zeros cos(k pi / (n + 1)) and antiderivative T_{n+1} / (n + 1)
        zeros = np.cos(np.pi * np.arange(1, n + 1) / (n + 1))
        return _cuts_sum(zeros, np.polynomial.Chebyshev.basis(n + 1) / (n + 1))
    return _jacobi_weighted_l1(n, g)


def test_l1_norm_finds_every_sign_change_at_degree_64():
    reference = _legendre_lp(64)
    assert abs(reference - 0.151548392600939) < 1e-14
    assert abs(l1_norm(basis_signal(LEGENDRE, 64)) - reference) < 1e-12
    # int |T_64| w dt = int_0^pi |cos 64 s| ds = 2
    assert abs(l1_norm(basis_signal(CHEBYSHEV_FIRST, 64, weighted=True)) - 2.0) < 1e-12
    assert abs(l1_norm(basis_signal(CHEBYSHEV_SECOND, 64, weighted=True)) - _second_kind_weighted_l1(64)) < 1e-12
    # int |sin 64 pi t| = int |cos 64 pi t| = 4/pi over [-1, 1], half that over [0, 1]
    for family in (TRIG_SIN, TRIG_COS):
        assert abs(l1_norm(basis_signal(family, 64)) - 4.0 / math.pi) < 1e-12
        assert abs(l1_norm(basis_signal(family, 64, interval=SHIFTED_INTERVAL)) - 2.0 / math.pi) < 1e-12


def _single_term_cases():
    """(family, interval, weighted, jacobi_params) of every family; singular weights on [-1, 1] only."""
    for interval in (CANONICAL_INTERVAL, SHIFTED_INTERVAL):
        yield LEGENDRE, interval, False, None
        yield CHEBYSHEV_SECOND, interval, False, None
        yield CHEBYSHEV_SECOND, interval, True, None
        yield TRIG_SIN, interval, False, None
        yield TRIG_COS, interval, False, None
        yield JACOBI, interval, False, (0.3, -0.4)
        for g in (-0.45, 0.05, 1.7):
            if g > 0 or interval == CANONICAL_INTERVAL:
                yield JACOBI, interval, True, (g, g)
    yield CHEBYSHEV_FIRST, CANONICAL_INTERVAL, False, None
    yield CHEBYSHEV_FIRST, CANONICAL_INTERVAL, True, None


@pytest.mark.parametrize("family, interval, weighted, params", list(_single_term_cases()))
def test_single_term_cuts_are_the_known_zeros(family, interval, weighted, params):
    # adding a zero constant makes the same function a combined signal, which is scanned and bisected
    lo, hi = interval
    zero = constant_signal(family, 0.0, interval=interval, jacobi_params=params)
    for n in range(1, INDEX_CAP + 1):
        term = basis_signal(family, n, interval=interval, scale=1.3, weighted=weighted, jacobi_params=params)
        known = _sign_cuts(term)
        scanned = _sign_cuts(combine_signals(term, zero))
        assert known.shape == scanned.shape, n
        assert np.max(np.abs(known - scanned)) <= 1e-15 * (hi - lo), n


def test_l1_norm_of_a_single_term_never_evaluates_it(monkeypatch):
    # its cuts are its known zeros and its panel signs follow from them
    calls = []
    call = InputSignal.__call__
    monkeypatch.setattr(InputSignal, "__call__", lambda self, t: calls.append(t) or call(self, t))
    for family, interval, weighted, params in _single_term_cases():
        l1_norm(basis_signal(family, 40, interval=interval, scale=-0.7, weighted=weighted, jacobi_params=params))
        assert not calls, family


def _evaluated_sign_l1(signal):
    """``l1_norm`` with every panel's sign read from the signal at the panel midpoint."""
    cuts = _sign_cuts(signal)
    keep = np.diff(cuts) >= 1e-14
    signs = np.where(np.asarray(signal(0.5 * (cuts[:-1] + cuts[1:]))) >= 0, 1.0, -1.0)
    return float(np.sum((signs * np.diff(signal.running_integral(cuts)))[keep]))


def _sign_route_cases():
    """(family, jacobi_params, weighted) of every family; trig weights are 1, so trig is unweighted only."""
    for family in (LEGENDRE, CHEBYSHEV_FIRST, CHEBYSHEV_SECOND):
        for weighted in (False, True):
            yield family, None, weighted
    for params in ((0.3, 0.3), (1.7, 2.2), (-0.45, 0.8), (5.0, 60.0)):
        for weighted in (False, True):
            yield JACOBI, params, weighted
    yield TRIG_SIN, None, False
    yield TRIG_COS, None, False


@pytest.mark.parametrize("interval", [CANONICAL_INTERVAL, SHIFTED_INTERVAL])
@pytest.mark.parametrize("family, params, weighted", list(_sign_route_cases()))
def test_known_zero_signs_give_the_evaluated_sign_norms(family, params, weighted, interval):
    # where the scale is 0 or subnormal the evaluated signs are all +1 and differ from the known
    # ones, but every panel's running-integral difference is then a signed zero: compare norms.
    # At -1e300 the running integral both routes share overflows to inf or nan for large terms,
    # which l1_norm refuses.
    for n in range(1 if family == TRIG_SIN else 0, INDEX_CAP + 1):
        for scale in (1.0, -2.5, 0.0, 1e-300, -1e300, 3e-310):
            signal = basis_signal(family, n, interval=interval, scale=scale, weighted=weighted, jacobi_params=params)
            with np.errstate(over="ignore", invalid="ignore"):
                want = _evaluated_sign_l1(signal)
            if math.isfinite(want):
                assert repr(l1_norm(signal)) == repr(want), (n, scale)
            else:
                with pytest.raises(DomainError, match="the L1 norm"):
                    l1_norm(signal)


def test_lp_norm_cubic_at_degree_64():
    assert_allclose(lp_norm(basis_signal(LEGENDRE, 64), 3.0), _legendre_lp(64, 3), rtol=1e-12)
    assert_allclose(
        lp_norm(basis_signal(LEGENDRE, 64, interval=SHIFTED_INTERVAL), 3.0), 0.5 * _legendre_lp(64, 3), rtol=1e-12
    )


def test_lp_norm_of_mixed_weights():
    # u = 2t sqrt(1 - t^2) + 0.3: int u^2 = 4 (2/3 - 2/5) + 0.18, the cross term is odd
    u = combine_signals(basis_signal(CHEBYSHEV_SECOND, 1, weighted=True), constant_signal(LEGENDRE, 0.3))
    assert_allclose(lp_norm(u, 2.0), 16.0 / 15.0 + 0.18, rtol=1e-13)


@pytest.mark.parametrize("p, name", [(1.0, "L1"), (2.0, "L2"), (3.0, "L3")])
def test_an_overflowing_norm_is_refused_naming_the_norm(p, name):
    # the running integral is inf at every cut after the first, so the L1 panel
    # differences were inf - inf: nan with numpy RuntimeWarnings
    sig = basis_signal(JACOBI, 7, scale=-1e300, jacobi_params=(5, 60))
    with pytest.raises(DomainError, match=f"the {name} norm"):
        lp_norm(sig, p)
    # finite running integrals, but a norm above the largest float
    with pytest.raises(DomainError, match=f"the {name} norm"):
        lp_norm(basis_signal(TRIG_COS, 1, scale=1.5e308), p)
    with pytest.raises(DomainError, match="the L1 norm"):
        l1_norm(combine_signals(basis_signal(TRIG_COS, 1, scale=1.5e308), basis_signal(TRIG_COS, 3, scale=1e307)))
    # a finite norm whose sign scan overflows midway comes back without a warning
    legendre = combine_signals(basis_signal(LEGENDRE, 3, scale=1.5e308), basis_signal(LEGENDRE, 1, scale=1.5e308))
    assert_allclose(l1_norm(legendre), 0.85 * 1.5e308, rtol=1e-14)


def test_an_overflowing_coupling_or_inner_product_is_refused_naming_it():
    # the coupling came out nan, and the inner product inf, with numpy RuntimeWarnings
    big = basis_signal(JACOBI, 7, scale=-1e300, jacobi_params=(5, 60))
    with pytest.raises(DomainError, match="the coupling displacement of the pair is not finite: it is nan"):
        coupling_displacement(big, basis_signal(JACOBI, 8, jacobi_params=(5, 60)))
    sig = basis_signal(LEGENDRE, 1, scale=1e200)
    with pytest.raises(DomainError, match="the inner product is not finite: it is inf"):
        inner_product(sig, sig)


def test_lp_norm_rejects_non_integrable_powers_up_front():
    with pytest.raises(IntegrabilityError):
        lp_norm(basis_signal(CHEBYSHEV_FIRST, 3, weighted=True), 2.0)
    with pytest.raises(IntegrabilityError):
        lp_norm(basis_signal(JACOBI, 2, weighted=True, jacobi_params=(-0.6, 0.0)), 2.0)
    with pytest.raises(ValueError):
        lp_norm(basis_signal(LEGENDRE, 2), 0.0)


@settings(max_examples=60, deadline=None)
@given(
    family=st.sampled_from(
        [(LEGENDRE, False), (CHEBYSHEV_FIRST, False), (CHEBYSHEV_FIRST, True), (CHEBYSHEV_SECOND, False),
         (CHEBYSHEV_SECOND, True), (TRIG_SIN, False), (TRIG_COS, False), (JACOBI, True)]
    ),
    n=st.integers(min_value=1, max_value=INDEX_CAP),
    shifted=st.booleans(),
    g=st.sampled_from([-0.3, 0.5, 1.7]),
)
def test_l1_norm_matches_reference(family, n, shifted, g):
    family, weighted = family
    interval = SHIFTED_INTERVAL if shifted else CANONICAL_INTERVAL
    params = (g, g) if family == JACOBI else None
    signal = basis_signal(family, n, interval=interval, weighted=weighted, jacobi_params=params)
    reference = (0.5 if shifted else 1.0) * _l1_reference(family, n, weighted, g)
    # every panel is exact (closed-form running integrals); the Jacobi reference is scipy's quad at 1e-13
    rtol = 1e-13 if family == JACOBI else 1e-12
    assert_allclose(l1_norm(signal), reference, rtol=rtol)


# ---------------------------------------------------------------------------
# the Gauss-Jacobi rule and the weighted Jacobi L1 norm against mpmath


def _mp_jacobi(n: int, a, b, x):
    """P_n^(a, b)(x) by the three-term recurrence (mpmath.jacobi fails to converge exactly at a root)."""
    p_prev, p = mp.mpf(1), (a + b + 2) / 2 * x + (a - b) / 2
    if n == 0:
        return p_prev
    for k in range(1, n):
        m = k + 1
        c = 2 * m + a + b
        step = ((c - 1) * (a * a - b * b) + (c - 2) * (c - 1) * c * x) * p - 2 * (m + a - 1) * (m + b - 1) * c * p_prev
        p_prev, p = p, step / (2 * m * (m + a + b) * (c - 2))
    return p


def _mp_roots(n: int, a, b, guesses) -> list:
    """Roots of P_n^(a, b) polished from ``guesses`` by Newton steps in the working precision."""
    roots = []
    for x0 in guesses:
        r = mp.mpf(x0)
        for _ in range(2):
            r -= _mp_jacobi(n, a, b, r) / ((n + a + b + 1) / 2 * _mp_jacobi(n - 1, a + 1, b + 1, r))
        roots.append(r)
    return roots


def _mp_norm(j: int, a: float, b: float) -> float:
    """The orthogonality norm of P_j^(a, b) against (1 - x)^a (1 + x)^b."""
    a, b = mp.mpf(a), mp.mpf(b)
    if j == 0:
        return float(2 ** (a + b + 1) * mp.gamma(a + 1) * mp.gamma(b + 1) / mp.gamma(a + b + 2))
    return float(
        2 ** (a + b + 1) / (2 * j + a + b + 1) * mp.gamma(j + a + 1) * mp.gamma(j + b + 1)
        / (mp.gamma(j + a + b + 1) * mp.factorial(j))
    )


# Chebyshev first kind is (-1/2, -1/2), where the textbook k = 0 diagonal and
# k = 1 off-diagonal coefficients of the Jacobi matrix are 0/0.
GAUSS_JACOBI_CASES = [
    (0.0, 0.0, 20),
    (0.0, 0.0, 40),
    (0.0, 0.0, 70),
    (-0.5, -0.5, 40),
    (0.5, 0.5, 30),
    (-0.9, -0.9, 30),
    (1.7, 1.7, 30),
    (1.0, 2.0, 5),
]


@pytest.mark.parametrize("a,b,n", GAUSS_JACOBI_CASES)
def test_gauss_jacobi_rule_matches_scipy(a, b, n):
    x, w = _gauss_jacobi(a, b, n)
    want_x, want_w = sp_special.roots_jacobi(n, a, b)
    assert_allclose(x, want_x, rtol=0.0, atol=1e-15)
    # scipy's own weights are off by up to ~1e-12 here (Legendre n = 40: 3.8e-13 against mpmath)
    assert_allclose(w, want_w, rtol=3e-12)


@pytest.mark.parametrize("a,b,n", GAUSS_JACOBI_CASES)
def test_gauss_jacobi_rule_integrates_the_orthogonality_relations(a, b, n):
    x, w = _gauss_jacobi(a, b, n)
    degrees = np.arange(2 * n)
    vals = sp_special.eval_jacobi(degrees[:, None], a, b, x[None, :])
    gram = (vals * w) @ vals.T
    norms = np.array([_mp_norm(j, a, b) for j in degrees])
    err = np.abs(gram - np.diag(norms)) / np.sqrt(np.outer(norms, norms))
    exact = degrees[:, None] + degrees[None, :] <= 2 * n - 1
    assert np.max(err[exact]) < 1e-12


@pytest.mark.parametrize("n", [40, 70])
def test_gauss_legendre_weights_match_mpmath(n):
    x, w = _gauss_jacobi(0.0, 0.0, n)
    with mp.workdps(40):
        zero = mp.mpf(0)
        roots = _mp_roots(n, zero, zero, x)
        want = [2 / ((1 - r * r) * ((n + 1) / mp.mpf(2) * _mp_jacobi(n - 1, 1, 1, r)) ** 2) for r in roots]
    assert_allclose(w, np.array([float(v) for v in want]), rtol=5e-14)


def _mp_weighted_jacobi_l1(n: int, g: float) -> float:
    """int |(1 - t^2)^g P_n^(g, g)| over [-1, 1] from the antiderivative
    -(1 - t^2)^(g+1) P_{n-1}^(g+1, g+1) / (2n), at 40-digit roots."""
    with mp.workdps(40):
        a = mp.mpf(g)

        def anti(t):
            return -((1 - t) * (1 + t)) ** (a + 1) * _mp_jacobi(n - 1, a + 1, a + 1, t) / (2 * n)

        roots = _mp_roots(n, a, a, sp_special.roots_jacobi(n, g, g)[0])
        vals = [mp.mpf(0)] + [anti(r) for r in roots] + [mp.mpf(0)]
        return float(sum(abs(v - u) for u, v in zip(vals, vals[1:])))


@pytest.mark.parametrize("n", [2, 5, 17, 40])
@pytest.mark.parametrize("g", [-0.9, -0.3, 0.5, 1.7])
def test_weighted_jacobi_l1_norm_matches_mpmath(g, n):
    signal = basis_signal(JACOBI, n, weighted=True, jacobi_params=(g, g))
    assert_allclose(l1_norm(signal), _mp_weighted_jacobi_l1(n, g), rtol=5e-14)


@pytest.mark.parametrize("alpha", [20.0, 90.0])
def test_energy_of_a_sharply_weighted_jacobi_term_matches_mpmath(alpha):
    # (1 - t^2)^(2 alpha) concentrates near t = 0, a hard case for a rule that is not exact
    signal = basis_signal(JACOBI, 2, weighted=True, jacobi_params=(alpha, alpha))
    with mp.workdps(30):
        a = mp.mpf(alpha)
        want = mp.quad(lambda t: (1 - t * t) ** (2 * a) * _mp_jacobi(2, a, a, t) ** 2, [-1, -0.5, 0, 0.5, 1])
    assert_allclose(inner_product(signal, signal), float(want), rtol=1e-12)


def test_harmonic_helper():
    h = Harmonic("cos", 2.0, 0.3, 1.5)
    t = 0.7
    assert_allclose(h(t), 1.5 * math.cos(2.0 * t + 0.3))
    assert_allclose(h.derivative(t), -3.0 * math.sin(2.0 * t + 0.3))
    assert_allclose(h.second_derivative(t), -6.0 * math.cos(2.0 * t + 0.3))


@pytest.mark.parametrize("params", [(math.nan, 0.0), (0.0, math.nan), (math.inf, 0.5), (0.5, -math.inf), (-1.0, 0.0)])
def test_jacobi_parameters_must_be_finite_and_above_minus_one(params):
    with pytest.raises(ValueError, match="jacobi parameters"):
        BasisElement(JACOBI, 2, jacobi_params=params)
    with pytest.raises(ValueError, match="jacobi parameters"):
        weight_fn(JACOBI, jacobi_params=params)


# ---------------------------------------------------------------------------
# one recurrence per family and node set within a coupling or an inner product


def _count_steps(monkeypatch):
    """A list whose length is the number of recurrence steps taken from now on."""
    steps, recurrence = [], orthopoly._recurrence

    def spied(family, params, tau):
        first, step = recurrence(family, params, tau)
        return first, lambda k, cur, prev: steps.append(k) or step(k, cur, prev)

    monkeypatch.setattr(orthopoly, "_recurrence", spied)
    return steps


def test_a_coupling_runs_one_recurrence_per_family_and_node_set(monkeypatch):
    u1, u2 = basis_signal(LEGENDRE, 24), basis_signal(LEGENDRE, 25)
    want = coupling_displacement(u1, u2)  # builds the 26-node rule outside the count
    steps = _count_steps(monkeypatch)
    assert coupling_displacement(u1, u2) == want
    assert steps == list(range(1, 26))  # one pass up to P_26, where each of the four factors ran its own: 96 steps
    steps.clear()
    assert inner_product(u2, u2) == inner_product(u2, u2) and len(steps) == 2 * 24  # once per call, not per factor


def test_the_row_memo_is_fresh_within_exact_rules_only_and_reset_when_they_raise(monkeypatch):
    seen = []

    def refusing(*args):
        seen.append(orthopoly._ROW_MEMO.get())
        raise DomainError("refused")

    u, v = basis_signal(LEGENDRE, 3), basis_signal(LEGENDRE, 4)
    coupling_displacement(u, v)
    assert orthopoly._ROW_MEMO.get() is None
    with monkeypatch.context() as patched:
        patched.setattr(orthopoly, "_gauss_jacobi", refusing)  # the exact rule, asked for inside the memo
        for call in (coupling_displacement, inner_product):
            with pytest.raises(DomainError, match="refused"):
                call(u, v)
            assert orthopoly._ROW_MEMO.get() is None
    assert seen == [{}, {}]
    with pytest.raises(DomainError, match="refused"):
        coupling_displacement(u, refusing)  # adaptive quadrature, whose nodes never repeat, keeps no rows
    assert seen[2] is None and orthopoly._ROW_MEMO.get() is None
    with pytest.raises(DomainError, match="coupling displacement"):
        coupling_displacement(scale_signal(u, 1e200), scale_signal(v, 1e200))
    assert orthopoly._ROW_MEMO.get() is None


def test_memo_rows_are_read_only_and_shared_by_equal_nodes():
    tau = np.linspace(-1.0, 1.0, 7)
    with orthopoly._row_memo({}):
        rows = _family_rows(LEGENDRE, None, {2, 5}, tau)
        again = _family_rows(LEGENDRE, None, {5}, tau.copy())
    assert again[5] is rows[5]
    assert rows[5].tolist() == _family_rows(LEGENDRE, None, {5}, tau)[5].tolist()
    with pytest.raises(ValueError, match="read-only"):
        rows[2][0] = 0.0
