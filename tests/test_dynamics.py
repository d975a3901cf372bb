import io
import math
import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy import integrate as sp_integrate
from scipy.spatial.transform import Rotation as ScipyRotation

import nhsteer.dynamics as dynamics
from nhsteer.errors import AmbiguityError, CapabilityError, DomainError
from nhsteer.dynamics import (
    GnhiState,
    NhiState,
    Rotation,
    coupling_displacement,
    exp_rotation,
    hat,
    integrate_gnhi,
    integrate_nhi,
    integrate_so3,
    log_rotation,
    pair_names,
    project_rotation,
    vee,
)
from nhsteer.dynamics import _exp_rotations
from nhsteer.orthopoly import (
    CHEBYSHEV_FIRST,
    CHEBYSHEV_SECOND,
    JACOBI,
    LEGENDRE,
    SHIFTED_INTERVAL,
    BasisElement,
    Harmonic,
    InputSignal,
    Term,
    basis_signal,
    constant_signal,
    scale_signal,
)
from nhsteer.so3_control import ConstantRate


# ---------------------------------------------------------------------------
# planar system


def test_closed_form_circular_inputs():
    # u = (cos t, sin t) from the origin: x1 = sin t, x2 = 1 - cos t,
    # x3 = t - sin t.
    T = 2.5
    u = (Harmonic("cos", 1.0), Harmonic("sin", 1.0))
    traj = integrate_nhi(u, interval=(0.0, T), steps=4000)
    end = traj.terminal
    assert_allclose(end["x1"], math.sin(T), atol=1e-12)
    assert_allclose(end["x2"], 1.0 - math.cos(T), atol=1e-12)
    assert_allclose(end["x3"], T - math.sin(T), atol=1e-12)


def test_published_simulation_inputs_reach_unit_displacement():
    s = math.sqrt(15.0) / 2.0
    legendre_pair = (
        basis_signal(LEGENDRE, 1, scale=s),
        basis_signal(LEGENDRE, 2, scale=s),
    )
    end = integrate_nhi(legendre_pair, steps=4000).terminal
    assert abs(end["x1"]) < 1e-6 and abs(end["x2"]) < 1e-6
    assert abs(end["x3"] - 1.0) < 1e-6

    b = math.sqrt(2.0 / math.pi)
    cheb_pair = (
        basis_signal(CHEBYSHEV_FIRST, 2, scale=b, weighted=True),
        basis_signal(CHEBYSHEV_SECOND, 1, scale=-b),
    )
    end = integrate_nhi(cheb_pair, steps=4000).terminal
    assert abs(end["x1"]) < 1e-6 and abs(end["x2"]) < 1e-6
    assert abs(end["x3"] - 1.0) < 1e-6


def test_rk4_is_order_four():
    u = (Harmonic("cos", 2.0, 0.4), Harmonic("sin", 3.0, -0.1))
    x0 = NhiState(0.3, -0.2, 0.1)
    ref = integrate_nhi(u, x0, interval=(0.0, 2.0), steps=12000).terminal
    errs = []
    for steps in (300, 600):
        end = integrate_nhi(u, x0, interval=(0.0, 2.0), steps=steps).terminal
        errs.append(max(abs(end[k] - ref[k]) for k in ("x1", "x2", "x3")))
    assert errs[0] / errs[1] >= 8.0  # order-4: halving h cuts error ~16x


def test_integrate_nhi_validation():
    u = (constant_signal(LEGENDRE, 1.0), constant_signal(LEGENDRE, 1.0))
    with pytest.raises(ValueError):
        integrate_nhi(u, steps=50)  # too coarse
    with pytest.raises(ValueError):
        integrate_nhi((u[0],), steps=200)  # needs exactly two inputs


def test_singular_weight_requires_canonical_interval():
    sig = basis_signal(CHEBYSHEV_FIRST, 2, weighted=True, interval=SHIFTED_INTERVAL)
    smooth = basis_signal(CHEBYSHEV_SECOND, 1, interval=SHIFTED_INTERVAL)
    with pytest.raises(CapabilityError):
        integrate_nhi((sig, smooth), steps=200)


def test_a_callable_beside_a_weighted_signal_is_integrated_in_the_arc_variable():
    # the weighted input moves both channels onto s; the callable takes u(t(s)) dt/ds
    weighted = basis_signal(CHEBYSHEV_FIRST, 1, weighted=True)
    as_signal = integrate_nhi((weighted, basis_signal(LEGENDRE, 2)), steps=400)
    as_callable = integrate_nhi((weighted, lambda t: 1.5 * t * t - 0.5), steps=400)
    assert as_callable.scheme == as_signal.scheme == "rk4_reparam"
    assert_allclose(as_callable.t, as_signal.t, rtol=0.0, atol=0.0)
    for name in ("x1", "x2", "x3", "u1", "u2"):
        assert_allclose(as_callable.columns[name], as_signal.columns[name], rtol=0.0, atol=1e-15)


def test_trajectory_csv_schema():
    u = (constant_signal(LEGENDRE, 1.0), constant_signal(LEGENDRE, -1.0))
    traj = integrate_nhi(u, NhiState(1.0, 2.0, 3.0), steps=100)
    buf = io.StringIO()
    traj.to_csv(buf)
    lines = buf.getvalue().split("\n")
    assert lines[0] == "t,x1,x2,x3,u1,u2"
    assert len(lines) == 1 + 101 + 1  # header + rows + trailing newline
    first = lines[1].split(",")
    assert float(first[1]) == 1.0 and float(first[2]) == 2.0 and float(first[3]) == 3.0


# ---------------------------------------------------------------------------
# coupling functional


def test_coupling_values():
    p1, p2 = basis_signal(LEGENDRE, 1), basis_signal(LEGENDRE, 2)
    assert_allclose(coupling_displacement(p1, p2), 4.0 / 15.0, atol=1e-12)
    s1 = basis_signal(LEGENDRE, 1, interval=SHIFTED_INTERVAL)
    s2 = basis_signal(LEGENDRE, 2, interval=SHIFTED_INTERVAL)
    assert_allclose(coupling_displacement(s1, s2), 1.0 / 15.0, atol=1e-12)
    t2w = basis_signal(CHEBYSHEV_FIRST, 2, weighted=True)
    u1 = basis_signal(CHEBYSHEV_SECOND, 1)
    assert_allclose(coupling_displacement(t2w, u1), -math.pi / 2.0, atol=1e-12)
    sin1 = basis_signal("trig_sin", 1)
    cos1 = basis_signal("trig_cos", 1)
    assert_allclose(coupling_displacement(sin1, cos1), -2.0 / math.pi, atol=1e-12)


def _as_signal(operand):
    if isinstance(operand, InputSignal):
        return operand
    term = Term(element=operand) if isinstance(operand, BasisElement) else operand
    return InputSignal(terms=(term,), interval=term.element.interval)


@pytest.mark.parametrize(
    "u1,u2",
    [
        (BasisElement(LEGENDRE, 1), basis_signal(LEGENDRE, 2)),
        (basis_signal(CHEBYSHEV_SECOND, 1), Term(BasisElement(CHEBYSHEV_FIRST, 2), scale=0.7, weighted=True)),
        (BasisElement(LEGENDRE, 3), Term(BasisElement(CHEBYSHEV_SECOND, 2), scale=-1.3, weighted=True)),
        (Term(BasisElement("trig_sin", 2), scale=2.0), BasisElement("trig_cos", 1)),
        (BasisElement(LEGENDRE, 1, SHIFTED_INTERVAL), Term(BasisElement(LEGENDRE, 2, SHIFTED_INTERVAL), scale=1.5)),
        (
            Term(BasisElement(JACOBI, 1, jacobi_params=(-0.45, -0.45)), weighted=True),
            BasisElement(JACOBI, 2, jacobi_params=(-0.45, -0.45)),
        ),
    ],
)
def test_coupling_takes_elements_and_terms_like_signals(u1, u2):
    want = coupling_displacement(_as_signal(u1), _as_signal(u2))
    assert coupling_displacement(u1, u2) == want
    assert coupling_displacement(u2, u1) == -want


def test_coupling_bilinear_and_antisymmetric():
    rng = np.random.default_rng(3)
    u1 = basis_signal(LEGENDRE, 1, scale=1.0)
    u2 = basis_signal(LEGENDRE, 2, scale=1.0)
    base = coupling_displacement(u1, u2)
    for _ in range(10):
        a, b = rng.uniform(-3.0, 3.0, size=2)
        scaled = coupling_displacement(scale_signal(u1, a), scale_signal(u2, b))
        assert_allclose(scaled, a * b * base, atol=1e-10)
    assert_allclose(coupling_displacement(u2, u1), -base, atol=1e-10)


def test_coupling_matches_simulation():
    u1 = basis_signal(LEGENDRE, 1, scale=1.7)
    u2 = basis_signal(LEGENDRE, 4, scale=-0.9)
    predicted = coupling_displacement(u1, u2)
    end = integrate_nhi((u1, u2), steps=4000).terminal
    assert abs(predicted - end["x3"]) < 1e-6


def test_coupling_accepts_plain_callables():
    val = coupling_displacement(
        lambda t: np.cos(math.pi * t), lambda t: np.sin(math.pi * t), interval=(-1.0, 1.0)
    )
    assert_allclose(val, 2.0 / math.pi, atol=1e-9)


def _quad(f, lo, hi):
    return sp_integrate.quad(f, lo, hi, epsabs=1e-13, epsrel=1e-13, limit=200)[0]


def test_coupling_of_scalar_only_callables_matches_quad():
    # math.sin and math.cos refuse arrays, so every evaluation goes point by point
    lo, hi = -1.0, 1.0

    def x1(t):
        return _quad(math.sin, lo, t)

    def x2(t):
        return _quad(math.cos, lo, t)

    want = _quad(lambda t: x1(t) * math.cos(t) - x2(t) * math.sin(t), lo, hi)
    assert_allclose(coupling_displacement(math.sin, math.cos, (lo, hi)), want, rtol=1e-10)
    p2 = basis_signal(LEGENDRE, 2)
    mixed = _quad(lambda t: x1(t) * p2(t) - float(p2.running_integral(t)) * math.sin(t), lo, hi)
    assert_allclose(coupling_displacement(math.sin, p2), mixed, rtol=1e-10)


# ---------------------------------------------------------------------------
# generalized system


def test_pair_names_order():
    assert pair_names(3) == ["x12", "x13", "x23"]
    assert pair_names(4) == ["x12", "x13", "x14", "x23", "x24", "x34"]


def test_gnhi_state_round_trip_and_validation():
    s = GnhiState.from_flat(3, [1.0, 2.0, 3.0, 0.1, 0.2, 0.3])
    assert s.m == 3
    assert_allclose(s.flat(), [1.0, 2.0, 3.0, 0.1, 0.2, 0.3])
    bad = np.zeros((3, 3))
    bad[0, 1], bad[1, 0] = 1.0, 1.0  # not antisymmetric
    with pytest.raises(ValueError):
        GnhiState(x=np.zeros(3), xx=bad)
    with pytest.raises(ValueError):
        GnhiState.zeros(1)


def test_gnhi_embeds_the_planar_system():
    # inputs only in channels 1 and 2: x12 must follow the planar x3
    u1 = basis_signal(LEGENDRE, 1, scale=1.3)
    u2 = basis_signal(LEGENDRE, 2, scale=0.8)
    zero = scale_signal(u1, 0.0)
    nhi_end = integrate_nhi((u1, u2), steps=2000).terminal
    gnhi_end = integrate_gnhi((u1, u2, zero), GnhiState.zeros(3), steps=2000).terminal
    assert_allclose(gnhi_end["x12"], nhi_end["x3"], atol=1e-12)
    assert gnhi_end["x13"] == 0.0 and gnhi_end["x23"] == 0.0


@pytest.mark.parametrize(
    "u",
    [
        (basis_signal(LEGENDRE, 1, scale=1.3), basis_signal(LEGENDRE, 2, scale=-0.8)),
        (
            basis_signal(CHEBYSHEV_FIRST, 1, weighted=True),
            basis_signal(CHEBYSHEV_FIRST, 2, weighted=True, scale=0.6),
        ),
    ],
)
def test_integrate_gnhi_m2_is_integrate_nhi_renamed(u):
    nhi = integrate_nhi(u, (0.3, -0.2, 0.7), steps=500)
    gnhi = integrate_gnhi(u, GnhiState.from_flat(2, [0.3, -0.2, 0.7]), steps=500)
    assert nhi.state_names == ("x1", "x2", "x3") and gnhi.state_names == ("x1", "x2", "x12")
    assert gnhi.scheme == nhi.scheme and np.array_equal(gnhi.t, nhi.t)
    for g_name, n_name in zip(gnhi.state_names + gnhi.input_names, nhi.state_names + nhi.input_names):
        assert np.array_equal(gnhi.columns[g_name], nhi.columns[n_name])


def test_gnhi_capability_margin():
    with pytest.raises(CapabilityError):
        GnhiState.zeros(9)


def test_gnhi_csv_header():
    zero = constant_signal(LEGENDRE, 0.0)
    traj = integrate_gnhi((zero, zero, zero), GnhiState.zeros(3), steps=100)
    buf = io.StringIO()
    traj.to_csv(buf)
    assert buf.getvalue().split("\n")[0] == "t,x1,x2,x3,x12,x13,x23,u1,u2,u3"


# ---------------------------------------------------------------------------
# rotations


def test_hat_vee_round_trip():
    v = np.array([0.3, -1.2, 0.7])
    assert_allclose(vee(hat(v)), v)
    assert_allclose(hat(v) @ np.array([1.0, 0, 0]), np.cross(v, [1.0, 0, 0]))
    with pytest.raises(ValueError):
        vee(np.eye(3))


def test_exp_rotation_matches_scipy():
    rng = np.random.default_rng(5)
    for _ in range(10):
        v = rng.normal(size=3) * rng.uniform(0.01, 3.0)
        assert_allclose(exp_rotation(v), ScipyRotation.from_rotvec(v).as_matrix(), atol=1e-12)
    assert_allclose(exp_rotation(np.zeros(3)), np.eye(3))


def test_log_rotation_round_trip():
    rng = np.random.default_rng(6)
    for _ in range(20):
        v = rng.normal(size=3)
        v = v / np.linalg.norm(v) * rng.uniform(1e-6, math.pi - 1e-3)
        assert_allclose(log_rotation(exp_rotation(v)), v, atol=1e-9)


def test_log_rotation_half_turn():
    v = np.array([0.0, 0.0, math.pi])
    with pytest.raises(AmbiguityError):
        log_rotation(exp_rotation(v))
    got = log_rotation(exp_rotation(v), accept_pi_tiebreak=True)
    assert_allclose(np.abs(got), np.abs(v), atol=1e-9)
    assert_allclose(exp_rotation(got), exp_rotation(v), atol=1e-9)


def test_log_rotation_accepts_a_rotation():
    assert np.array_equal(log_rotation(Rotation.identity()), np.zeros(3))
    g = exp_rotation(np.array([0.2, -0.4, 0.1]))
    assert np.array_equal(log_rotation(Rotation(g)), log_rotation(g))


def test_project_rotation():
    rng = np.random.default_rng(7)
    g = exp_rotation(rng.normal(size=3))
    noisy = g + 1e-6 * rng.normal(size=(3, 3))
    proj = project_rotation(noisy)
    assert_allclose(proj.T @ proj, np.eye(3), atol=1e-12)
    assert np.max(np.abs(proj - g)) < 1e-5


def test_rotation_type_validation():
    with pytest.raises(ValueError):
        Rotation(np.eye(3) * 1.5)
    r = Rotation.identity()
    assert r.drift() < 1e-15


# ---------------------------------------------------------------------------
# attitude integration


def test_constant_rate_flow_matches_exponential():
    w = np.array([0.4, -0.7, 1.1])
    omega = tuple(ConstantRate(float(c)) for c in w)
    g0 = exp_rotation(np.array([0.2, 0.5, -0.3]))
    T = 1.7
    traj = integrate_so3(omega, Rotation(g0), (0.0, T), steps=400)
    g_end = np.array([[traj.columns[f"g{i}{j}"][-1] for j in (1, 2, 3)] for i in (1, 2, 3)])
    assert_allclose(g_end, exp_rotation(T * w) @ g0, atol=1e-12)


def test_every_attitude_sample_stays_orthogonal():
    omega = (Harmonic("cos", 2.0), Harmonic("sin", 3.0), ConstantRate(0.5))
    traj = integrate_so3(omega, interval=(0.0, 3.0), steps=1000)
    n = len(traj.t)
    mats = np.stack(
        [traj.columns[f"g{i}{j}"] for i in (1, 2, 3) for j in (1, 2, 3)], axis=1
    ).reshape(n, 3, 3)
    dets = np.linalg.det(mats)
    assert np.max(np.abs(dets - 1.0)) < 1e-9
    drift = np.max(np.abs(np.einsum("nij,nik->njk", mats, mats) - np.eye(3)))
    assert drift < 1e-9


def test_magnus_scheme_beats_midpoint():
    omega = (Harmonic("cos", 3.0), Harmonic("sin", 2.0), ConstantRate(1.0))
    ref = integrate_so3(omega, interval=(0.0, 2.0), steps=16000, scheme="magnus4")
    ref_end = np.array([[ref.columns[f"g{i}{j}"][-1] for j in (1, 2, 3)] for i in (1, 2, 3)])

    def end_error(scheme, steps):
        traj = integrate_so3(omega, interval=(0.0, 2.0), steps=steps, scheme=scheme)
        end = np.array([[traj.columns[f"g{i}{j}"][-1] for j in (1, 2, 3)] for i in (1, 2, 3)])
        return np.max(np.abs(end - ref_end))

    assert end_error("magnus4", 500) < end_error("lie_midpoint", 500) / 100.0
    # magnus4 is order four: halving the step shrinks the error ~16x
    assert end_error("magnus4", 250) / end_error("magnus4", 500) >= 8.0


def test_so3_csv_header():
    omega = tuple(ConstantRate(c) for c in (0.1, 0.2, 0.3))
    traj = integrate_so3(omega, steps=100)
    buf = io.StringIO()
    traj.to_csv(buf)
    assert buf.getvalue().split("\n")[0] == "t,g11,g12,g13,g21,g22,g23,g31,g32,g33,w1,w2,w3"


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_rotation_refuses_non_finite_entries(bad):
    with pytest.raises(ValueError):
        Rotation(np.full((3, 3), bad))
    g = np.eye(3)
    g[0, 0] = bad
    with pytest.raises(ValueError):
        Rotation(g)


# ---------------------------------------------------------------------------
# batched exponentials: the same bits as the per-step scalar formula


def _spread_vectors(rng, n, lo, hi):
    """n random directions with lengths log-uniform over [10^lo, 10^hi]."""
    d = rng.normal(size=(n, 3))
    d /= np.linalg.norm(d, axis=1)[:, None]
    return d * 10.0 ** rng.uniform(lo, hi, size=(n, 1))


def test_batched_exponentials_equal_the_scalar_formula_exactly():
    rng = np.random.default_rng(2024)
    cut = 1e-8  # the series branch of exp_rotation
    rows = [
        _spread_vectors(rng, 3000, -10.0, 1.0),
        np.zeros((3, 3)),
        np.array([[0.0, 0.0, -0.0], [cut, 0.0, 0.0], [0.0, -cut, 0.0]]),
        _spread_vectors(rng, 200, np.log10(cut) - 1e-6, np.log10(cut)),
        _spread_vectors(rng, 200, np.log10(cut), np.log10(cut) + 1e-6),
        np.array([[np.nextafter(cut, 0.0), 0.0, 0.0], [0.0, 0.0, np.nextafter(cut, 1.0)]]),
    ]
    v = np.concatenate(rows)
    got = _exp_rotations(v)
    assert got.shape == (len(v), 3, 3)
    want = np.stack([exp_rotation(row) for row in v])
    differ = np.argwhere(got != want)
    assert differ.size == 0, f"{len(np.unique(differ[:, 0]))} of {len(v)} rows differ, first {v[differ[0, 0]]!r}"


def _reference_so3(omega, g0, interval, steps, scheme):
    """The per-step integrator: one scalar exponential and one product per step."""
    lo, hi = interval
    h = (hi - lo) / steps
    t = np.linspace(lo, hi, steps + 1)
    sq3 = np.sqrt(3.0)
    if scheme == "magnus4":
        wa = np.stack([f(t[:-1] + (0.5 - sq3 / 6.0) * h) for f in omega])
        wb = np.stack([f(t[:-1] + (0.5 + sq3 / 6.0) * h) for f in omega])
        vecs = 0.5 * h * (wa + wb).T - (sq3 / 12.0) * h * h * np.cross(wa.T, wb.T)
    else:
        vecs = h * np.stack([f(t[:-1] + 0.5 * h) for f in omega]).T
    g = np.array(g0, dtype=float)
    out = [g]
    eye = np.eye(3)
    for k in range(steps):
        g = exp_rotation(vecs[k]) @ g
        if (k + 1) % 256 == 0 and np.max(np.abs(g.T @ g - eye)) > 1e-12:
            g = project_rotation(g)
        out.append(g)
    if np.max(np.abs(g.T @ g - eye)) > 1e-12:
        out[-1] = project_rotation(g)
    return np.stack(out)


def _samples(traj):
    return np.stack([traj.columns[f"g{i}{j}"] for i in (1, 2, 3) for j in (1, 2, 3)], axis=1).reshape(-1, 3, 3)


@pytest.mark.parametrize("scheme", ["magnus4", "lie_midpoint"])
@pytest.mark.parametrize("case", range(7))
def test_integrate_so3_samples_equal_the_per_step_loop(scheme, case):
    rng = np.random.default_rng(100 + case)
    coef = rng.normal(size=(3, 3)) * 10.0 ** rng.uniform(-6.0, 1.0)
    if case == 0:
        coef[:] = 0.0  # every step vector is exactly zero
    if case == 1:
        coef[2] = 0.0  # one rate stays zero
    omega = tuple(
        (lambda t, c=c: c[0] + c[1] * np.sin(2.0 * t) + c[2] * t * t) for c in coef
    )
    g0 = exp_rotation(rng.normal(size=3))
    steps = {5: 4000, 6: 200}.get(case, 600)
    if case in (4, 6):
        # a start 2e-10 off the group: re-projected at step 256 (case 4) or at the end (case 6)
        g0 = g0 * (1.0 + 1e-10)
    traj = integrate_so3(omega, Rotation(g0), (0.0, 2.5), steps=steps, scheme=scheme)
    want = _reference_so3(omega, g0, (0.0, 2.5), steps, scheme)
    assert np.array_equal(_samples(traj), want)


def test_integrate_so3_never_calls_the_scalar_exponential(monkeypatch):
    def spy(v):
        raise AssertionError("integrate_so3 called exp_rotation")

    monkeypatch.setattr(dynamics, "exp_rotation", spy)
    omega = (Harmonic("cos", 2.0), Harmonic("sin", 3.0), ConstantRate(0.5))
    for scheme in ("magnus4", "lie_midpoint"):
        integrate_so3(omega, interval=(0.0, 1.0), steps=300, scheme=scheme)


# ---------------------------------------------------------------------------
# non-finite rates, inputs and intervals are refused


def _nan_after_half(t):
    return np.where(np.asarray(t) > 0.5, np.nan, 1.0)


def _zero(t):
    return 0.0 * np.asarray(t, dtype=float)


@pytest.mark.parametrize("scheme", ["magnus4", "lie_midpoint"])
def test_integrate_so3_refuses_non_finite_rates(scheme):
    with pytest.raises(DomainError, match="finite"):
        integrate_so3((_nan_after_half, _zero, _zero), steps=200, scheme=scheme)
    with pytest.raises(DomainError, match="finite"):
        integrate_so3((_zero, _zero, lambda t: np.full(np.shape(t), np.inf)), steps=200, scheme=scheme)


@pytest.mark.parametrize("interval", [(0.0, math.inf), (-math.inf, 1.0), (math.nan, 1.0), (0.0, math.nan)])
def test_integrate_so3_refuses_non_finite_intervals(interval):
    with pytest.raises(DomainError, match="finite"):
        integrate_so3((_zero, _zero, _zero), interval=interval, steps=200)


def test_bilinear_integrators_refuse_non_finite_inputs():
    with pytest.raises(DomainError, match="finite"):
        integrate_nhi((_nan_after_half, _zero), interval=(0.0, 1.0))
    with pytest.raises(DomainError, match="finite"):
        integrate_gnhi((_zero, _zero, _nan_after_half), GnhiState.zeros(3), interval=(0.0, 1.0))
    with pytest.raises(DomainError, match="finite"):
        integrate_nhi((_zero, _zero), interval=(0.0, math.inf))


def _const(value):
    return lambda t: np.full(np.shape(t), value)


@pytest.mark.parametrize("scheme", ["magnus4", "lie_midpoint"])
def test_integrate_so3_refuses_finite_rates_that_overflow(scheme):
    # the step vectors (magnus4) or their angles (lie_midpoint) overflow to inf, and the
    # samples came out NaN with numpy overflow warnings
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError, match="overflow"):
            integrate_so3((_const(1e200), _const(-1e200), _zero), steps=200, scheme=scheme)
        trajectory = integrate_so3((_const(1e100), _const(-1e100), _zero), steps=200, scheme=scheme)
    assert np.isfinite([trajectory.columns[name] for name in trajectory.state_names]).all()


def test_bilinear_integrators_refuse_finite_inputs_that_overflow():
    # x1 u2 - x2 u1 overflows to inf - inf, and x3 came out NaN with numpy overflow warnings
    big = (_const(1e200), _const(-1e200))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError, match="overflow"):
            integrate_nhi(big, interval=(0.0, 1.0), steps=200)
        with pytest.raises(DomainError, match="overflow"):
            integrate_gnhi((*big, _zero), GnhiState.zeros(3), interval=(0.0, 1.0), steps=200)
        end = integrate_nhi((_const(1e100), _const(-1e100)), interval=(0.0, 1.0), steps=200).terminal
    assert np.isfinite(list(end.values())).all()


@pytest.mark.parametrize("params", [(-0.9, -0.9), (-0.6, 0.3), (0.3, -0.51)])
def test_weighted_jacobi_exponent_below_minus_half_is_refused(params):
    sig = basis_signal(JACOBI, 1, weighted=True, jacobi_params=params)
    smooth = basis_signal(LEGENDRE, 2)
    low = min(params)
    with pytest.raises(CapabilityError, match=f"exponent {low!r}"):
        integrate_nhi((sig, smooth), steps=200)
    with pytest.raises(CapabilityError, match=f"exponent {low!r}"):
        integrate_gnhi((smooth, smooth, sig), GnhiState.zeros(3), steps=200)


def test_weighted_jacobi_exponent_minus_half_still_integrates():
    sig = basis_signal(JACOBI, 1, weighted=True, jacobi_params=(-0.5, -0.5))
    end = integrate_nhi((sig, basis_signal(LEGENDRE, 2)), steps=200).terminal
    assert all(np.isfinite(list(end.values())))
