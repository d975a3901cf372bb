import io
import math
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
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
    CANONICAL_INTERVAL,
    CHEBYSHEV_FIRST,
    CHEBYSHEV_SECOND,
    JACOBI,
    LEGENDRE,
    SHIFTED_INTERVAL,
    TRIG_COS,
    TRIG_SIN,
    BasisElement,
    Harmonic,
    InputSignal,
    Term,
    basis_signal,
    constant_signal,
    scale_signal,
)


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


def test_nhi_state_from_array_returns_a_state_as_it_is():
    state = NhiState(1.0, -2.0, 0.5)
    assert NhiState.from_array(state) is state
    assert NhiState.from_array([1, -2, 0.5]) == state


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


def _csv_one_row_at_a_time(traj) -> str:
    names = ["t", *traj.state_names, *traj.input_names]
    cols = [traj.t] + [traj.columns[n] for n in names[1:]]
    rows = [",".join(names)] + [",".join(repr(float(v)) for v in row) for row in zip(*cols)]
    return "\n".join(rows) + "\n"


# rows within one CSV block (682 rows of six cells) and across one to three block edges
@pytest.mark.parametrize("rows", [101, 1023, 1024, 1025, 2049])
def test_trajectory_csv_to_a_path_matches_a_file_object(tmp_path, rows):
    traj = integrate_nhi((basis_signal(LEGENDRE, 1), basis_signal(LEGENDRE, 2)), steps=rows - 1)
    buf = io.StringIO()
    traj.to_csv(buf)
    traj.to_csv(tmp_path / "traj.csv")
    assert buf.getvalue() == _csv_one_row_at_a_time(traj)
    assert (tmp_path / "traj.csv").read_bytes() == buf.getvalue().encode()


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


def _spread_vectors(rng, n, lo, hi):
    """n random directions with lengths log-uniform over [10^lo, 10^hi]."""
    d = rng.normal(size=(n, 3))
    d /= np.linalg.norm(d, axis=1)[:, None]
    return d * 10.0 ** rng.uniform(lo, hi, size=(n, 1))


def test_exp_rotation_matches_scipy():
    rng = np.random.default_rng(5)
    spread = np.random.default_rng(2024)
    cut = 1e-8  # the series branch of the Rodrigues coefficients
    rows = [
        rng.normal(size=(10, 3)) * rng.uniform(0.01, 3.0, size=(10, 1)),
        _spread_vectors(spread, 3000, -10.0, 1.0),
        np.zeros((3, 3)),
        np.array([[0.0, 0.0, -0.0], [cut, 0.0, 0.0], [0.0, -cut, 0.0]]),
        _spread_vectors(spread, 200, np.log10(cut) - 1e-6, np.log10(cut)),
        _spread_vectors(spread, 200, np.log10(cut), np.log10(cut) + 1e-6),
        np.array([[np.nextafter(cut, 0.0), 0.0, 0.0], [0.0, 0.0, np.nextafter(cut, 1.0)]]),
    ]
    v = np.concatenate(rows)
    want = ScipyRotation.from_rotvec(v).as_matrix()
    batched = _exp_rotations(v)
    assert batched.shape == (len(v), 3, 3)
    assert_allclose(batched, want, atol=1e-12)
    for row, mat in zip(v, want):
        assert_allclose(exp_rotation(row), mat, atol=1e-12)
    assert_allclose(exp_rotation(np.zeros(3)), np.eye(3))
    for bad in (np.zeros(4), np.zeros((1, 3))):
        with pytest.raises(ValueError, match="exp_rotation expects a 3-vector"):
            exp_rotation(bad)


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


def test_project_rotation_turns_a_reflection_into_a_rotation():
    proj = project_rotation(np.diag([1.0, 1.0, -1.0]))
    assert_allclose(np.linalg.det(proj), 1.0, rtol=0.0, atol=1e-12)
    assert_allclose(proj.T @ proj, np.eye(3), atol=1e-12)


def test_rotation_type_validation():
    with pytest.raises(ValueError):
        Rotation(np.eye(3) * 1.5)
    r = Rotation.identity()
    assert r.drift() < 1e-15


# ---------------------------------------------------------------------------
# attitude integration


def test_constant_rate_flow_matches_exponential():
    w = np.array([0.4, -0.7, 1.1])
    omega = tuple(Harmonic("cos", 0.0, 0.0, float(c)) for c in w)
    g0 = exp_rotation(np.array([0.2, 0.5, -0.3]))
    T = 1.7
    traj = integrate_so3(omega, Rotation(g0), (0.0, T), steps=400)
    g_end = np.array([[traj.columns[f"g{i}{j}"][-1] for j in (1, 2, 3)] for i in (1, 2, 3)])
    assert_allclose(g_end, exp_rotation(T * w) @ g0, atol=1e-12)


def test_every_attitude_sample_stays_orthogonal():
    omega = (Harmonic("cos", 2.0), Harmonic("sin", 3.0), Harmonic("cos", 0.0, 0.0, 0.5))
    traj = integrate_so3(omega, interval=(0.0, 3.0), steps=1000)
    n = len(traj.t)
    mats = np.stack(
        [traj.columns[f"g{i}{j}"] for i in (1, 2, 3) for j in (1, 2, 3)], axis=1
    ).reshape(n, 3, 3)
    dets = np.linalg.det(mats)
    assert np.max(np.abs(dets - 1.0)) < 1e-9
    drift = np.max(np.abs(np.einsum("nij,nik->njk", mats, mats) - np.eye(3)))
    assert drift < 1e-9


def test_magnus_step_is_fourth_order():
    omega = (Harmonic("cos", 3.0), Harmonic("sin", 2.0), Harmonic("cos", 0.0, 0.0, 1.0))
    ref = integrate_so3(omega, interval=(0.0, 2.0), steps=16000)
    ref_end = np.array([[ref.columns[f"g{i}{j}"][-1] for j in (1, 2, 3)] for i in (1, 2, 3)])

    def end_error(steps):
        traj = integrate_so3(omega, interval=(0.0, 2.0), steps=steps)
        end = np.array([[traj.columns[f"g{i}{j}"][-1] for j in (1, 2, 3)] for i in (1, 2, 3)])
        return np.max(np.abs(end - ref_end))

    # order four: halving the step shrinks the error ~16x
    assert end_error(250) / end_error(500) >= 8.0


def test_so3_csv_header():
    omega = tuple(Harmonic("cos", 0.0, 0.0, c) for c in (0.1, 0.2, 0.3))
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
# batched exponentials: the samples of one exponential and one product per step


def _reference_so3(omega, g0, interval, steps):
    """The per-step integrator: one exponential and one product per step."""
    lo, hi = interval
    h = (hi - lo) / steps
    t = np.linspace(lo, hi, steps + 1)
    sq3 = np.sqrt(3.0)
    wa = np.stack([f(t[:-1] + (0.5 - sq3 / 6.0) * h) for f in omega])
    wb = np.stack([f(t[:-1] + (0.5 + sq3 / 6.0) * h) for f in omega])
    vecs = 0.5 * h * (wa + wb).T - (sq3 / 12.0) * h * h * np.cross(wa.T, wb.T)
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


@pytest.mark.parametrize("scheme", ["magnus4"])
@pytest.mark.parametrize("case", range(8))
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
    steps = {5: 4000, 6: 200, 7: 512}.get(case, 600)
    if case in (4, 6, 7):
        # a start 2e-10 off the group: re-projected at step 256 (cases 4 and 7, whose last chunk
        # ends at the last step) or at the end (case 6)
        g0 = g0 * (1.0 + 1e-10)
    traj = integrate_so3(omega, Rotation(g0), (0.0, 2.5), steps=steps)
    want = _reference_so3(omega, g0, (0.0, 2.5), steps)
    assert traj.scheme == scheme
    assert np.array_equal(_samples(traj), want)


def test_integrate_so3_never_calls_the_scalar_exponential(monkeypatch):
    def spy(v):
        raise AssertionError("integrate_so3 called exp_rotation")

    monkeypatch.setattr(dynamics, "exp_rotation", spy)
    omega = (Harmonic("cos", 2.0), Harmonic("sin", 3.0), Harmonic("cos", 0.0, 0.0, 0.5))
    integrate_so3(omega, interval=(0.0, 1.0), steps=300)


# ---------------------------------------------------------------------------
# non-finite rates, inputs and intervals are refused


def _nan_after_half(t):
    return np.where(np.asarray(t) > 0.5, np.nan, 1.0)


def _zero(t):
    return 0.0 * np.asarray(t, dtype=float)


@pytest.mark.parametrize("scheme", ["magnus4"])
def test_integrate_so3_refuses_non_finite_rates(scheme):
    with pytest.raises(DomainError, match="finite"):
        integrate_so3((_nan_after_half, _zero, _zero), steps=200)
    with pytest.raises(DomainError, match="finite"):
        integrate_so3((_zero, _zero, lambda t: np.full(np.shape(t), np.inf)), steps=200)
    assert integrate_so3((_zero, _zero, _zero), steps=200).scheme == scheme


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


@pytest.mark.parametrize("scheme", ["magnus4"])
def test_integrate_so3_refuses_finite_rates_that_overflow(scheme):
    # the step vectors overflow to inf, and the samples came out NaN with numpy overflow warnings
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError, match="overflow"):
            integrate_so3((_const(1e200), _const(-1e200), _zero), steps=200)
        trajectory = integrate_so3((_const(1e100), _const(-1e100), _zero), steps=200)
    assert trajectory.scheme == scheme
    assert np.isfinite([trajectory.columns[name] for name in trajectory.state_names]).all()


def test_tiny_rates_over_a_huge_interval_integrate_as_their_rescaled_problem():
    # (sqrt(3)/12) h * h overflows past h ~ 1e154, which refused rates as tiny as 1e-300; the step
    # angles h w are those of the problem on [0, 1], and dropping the commutator would miss by 1.6e-6
    T = 1e300
    unit = (lambda t: np.cos(3.0 * t), lambda t: np.sin(3.0 * t), _const(0.5))
    huge = (lambda t: np.cos(3.0 * (t / T)) / T, lambda t: np.sin(3.0 * (t / T)) / T, _const(0.5 / T))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        want, got = integrate_so3(unit, steps=400), integrate_so3(huge, interval=(0.0, T), steps=400)
    assert max(abs(got.terminal[n] - want.terminal[n]) for n in want.state_names) < 1e-14


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


def test_an_input_that_overflows_where_it_is_evaluated_is_refused_without_a_warning():
    # the weighted second kind times 1.7e308 overflows at the inner nodes; the
    # refusal used to come after a numpy overflow warning
    big = basis_signal(CHEBYSHEV_SECOND, 0, scale=1.7e308, weighted=True)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError, match="inputs must be finite"):
            integrate_nhi((big, basis_signal(LEGENDRE, 1)), steps=200)


def test_zero_channels_beside_an_overflowing_direct_coordinate_still_raise():
    # the cross coordinate of the two zero signals stays finite, x1 does not
    zero = InputSignal(terms=())
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError, match="inputs overflow the integrator"):
            integrate_gnhi((_const(1e308), zero, zero, _zero), GnhiState.zeros(4), steps=200)


@pytest.mark.parametrize("box", [(2.0, 0.0), (1.0, 1.0)])
def test_integrators_refuse_reversed_or_empty_intervals(box):
    with pytest.raises(ValueError, match="positive length"):
        integrate_nhi((np.cos, np.sin), interval=box, steps=200)
    with pytest.raises(ValueError, match="positive length"):
        integrate_so3((_zero, _zero, np.cos), interval=box, steps=200)


def test_np_dot_running_product_is_bit_equal_to_matmul():
    # integrate_so3 forms its running product with np.dot, which skips the
    # gufunc overhead of np.matmul; the attitude samples are those of np.matmul
    # only while both reach the same BLAS kernel.  A failure here after a numpy
    # or BLAS upgrade explains a moved attitude golden.
    rng = np.random.default_rng(11)
    for _ in range(3):
        rots = _exp_rotations(rng.normal(scale=0.05, size=(4000, 3)))
        by_dot, by_matmul = np.empty((4001, 3, 3)), np.empty((4001, 3, 3))
        by_dot[0] = by_matmul[0] = exp_rotation(rng.normal(size=3))
        for k, rot in enumerate(rots):
            np.dot(rot, by_dot[k], out=by_dot[k + 1])
            np.matmul(rot, by_matmul[k], out=by_matmul[k + 1])
        assert np.array_equal(by_dot, by_matmul)


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


# ---------------------------------------------------------------------------
# the block core against the column-by-column core it replaced


def _reference_bilinear(u, x0, xx0, cross_names, interval, steps):
    """The bilinear core with one new array per column, kept as the reference for the block core."""
    if steps < dynamics._MIN_STEPS:
        raise ValueError(f"steps must be at least {dynamics._MIN_STEPS}")
    interval = dynamics._infer_interval(u, interval)
    dynamics._check_simulable(u, interval)
    reparam = any(isinstance(sig, InputSignal) and sig.is_weighted for sig in u)
    t_nodes, h, u_nodes, u_mid = dynamics._grids(u, interval, steps, reparam)
    if not (np.isfinite(u_nodes).all() and np.isfinite(u_mid).all()):
        raise DomainError("inputs must be finite on the interval")
    m = len(u)
    u0 = u_nodes[:, :-1]
    u1 = u_nodes[:, 1:]
    state_names = [f"x{i + 1}" for i in range(m)]
    with np.errstate(over="ignore", invalid="ignore"):
        s_sum = u0 + 4.0 * u_mid + u1
        x = np.empty((m, steps + 1))
        x[:, 0] = x0
        x[:, 1:] = x[:, :1] + (h / 6.0) * np.cumsum(s_sum, axis=1)
        x_start = x[:, :-1]
        columns = dict(zip(state_names, x))
        zero = [isinstance(sig, InputSignal) and not sig.terms for sig in u]
        for name, (i, j), start in zip(cross_names, dynamics._pairs(m), xx0):
            path = columns[name] = np.empty(steps + 1)
            path[0] = start
            if zero[i] and zero[j]:  # every increment would be +0.0
                path[1:] = start + 0.0
                continue
            incr = (h / 6.0) * (x_start[i] * s_sum[j] - x_start[j] * s_sum[i]) + (
                h * h / 6.0
            ) * (
                (u0[i] * u_mid[j] - u0[j] * u_mid[i])
                + (u_mid[i] * u1[j] - u_mid[j] * u1[i])
            )
            path[1:] = start + np.cumsum(incr)
    if not all(np.isfinite(col).all() for col in columns.values()):
        raise DomainError("inputs overflow the integrator: a state coordinate is not finite")
    input_names = tuple(f"u{i + 1}" for i in range(m))
    columns.update(zip(input_names, u_nodes.copy()))  # frees the midpoint values
    return dynamics.Trajectory(
        t=t_nodes,
        columns=columns,
        state_names=(*state_names, *cross_names),
        input_names=input_names,
        scheme="rk4_reparam" if reparam else "rk4",
        interval=interval,
    )


def _outcome(core, *args):
    """A core's trajectory, or the type and message of what it raised."""
    try:
        return core(*args)
    except (ValueError, DomainError, CapabilityError) as exc:
        return type(exc), str(exc)


# input scales from tiny to past the point where the states overflow, on all of
# the grid or on part of it; starts of both signed zeros
_SCALES = st.one_of(
    st.floats(-3.0, 3.0).map(lambda e: 10.0**e),
    st.floats(3.0, 308.0).map(lambda e: 10.0**e),
    st.sampled_from([0.0, 1e150, 3e153, 1e154, 1e300, 1e305, 1.7e308]),
).flatmap(lambda s: st.sampled_from([s, -s]))
_STARTS = st.sampled_from([0.0, -0.0, 0.75, -2.5, 1e300, -1e-300])
_SIGNAL_FAMILIES = (LEGENDRE, CHEBYSHEV_FIRST, CHEBYSHEV_SECOND, JACOBI, TRIG_SIN, TRIG_COS)


@st.composite
def _channel(draw, box):
    kind = draw(st.sampled_from(["zero", "signal", "signal", "callable"]))
    if kind == "zero":
        return InputSignal(terms=(), interval=box)
    scale = draw(_SCALES)
    if kind == "callable":
        rate = draw(st.sampled_from([0.5, 3.0, 40.0]))
        return lambda t, c=scale, w=rate: c * np.cos(w * np.asarray(t, dtype=float))
    family = draw(st.sampled_from(_SIGNAL_FAMILIES))
    weighted = family in (CHEBYSHEV_FIRST, CHEBYSHEV_SECOND, JACOBI) and draw(st.booleans())
    params = (1.5, 1.5) if family == JACOBI else None
    index = draw(st.integers(1 if family == TRIG_SIN else 0, 5))
    return basis_signal(family, index, box, scale, weighted, params)


@st.composite
def _bilinear_cases(draw):
    m = draw(st.integers(2, 8))
    box = draw(st.sampled_from([CANONICAL_INTERVAL, SHIFTED_INTERVAL]))
    u = tuple(draw(_channel(box)) for _ in range(m))
    x0 = tuple(draw(_STARTS) for _ in range(m))
    xx0 = tuple(draw(_STARTS) for _ in range(m * (m - 1) // 2))
    steps = draw(st.sampled_from([100, 137, 256, 99]))
    return u, x0, xx0, tuple(pair_names(m)), None, steps


def _assert_same_trajectory(got, want):
    assert (got.state_names, got.input_names, got.scheme, got.interval) == (
        want.state_names,
        want.input_names,
        want.scheme,
        want.interval,
    )
    assert got.t.tobytes() == want.t.tobytes()
    for name in (*want.state_names, *want.input_names):
        assert got.columns[name].tobytes() == want.columns[name].tobytes(), name  # signed zeros too


def _assert_same_outcome(case):
    # through integrate_gnhi, and for m = 2 through integrate_nhi as well, its cross coordinate named x3
    u, x0, xx0, cross_names, interval, steps = case
    arms = [(cross_names, lambda: integrate_gnhi(u, GnhiState.from_flat(len(u), [*x0, *xx0]), interval, steps))]
    if len(u) == 2:
        arms.append((("x3",), lambda: integrate_nhi(u, (*x0, *xx0), interval, steps)))
    for names, integrate in arms:
        with warnings.catch_warnings():
            # the column core let an overflow in evaluating the inputs warn; the block core does not
            warnings.simplefilter("ignore", RuntimeWarning)
            want = _outcome(_reference_bilinear, u, x0, xx0, names, interval, steps)
        got = _outcome(integrate)
        if isinstance(want, tuple):
            assert got == want
        else:
            _assert_same_trajectory(got, want)


@settings(max_examples=120, derandomize=True, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(_bilinear_cases())
def test_block_core_is_bit_equal_to_the_column_core(case):
    _assert_same_outcome(case)


@pytest.mark.parametrize("length", [1.0, 1e6, 1e300])
def test_block_core_is_bit_equal_on_long_intervals(length):
    # steps longer than 6 scale the running sums up after they are summed, so a
    # direct state can overflow mid-grid and end finite; the cross passes it
    # enters carry the overflow to their last sample
    wave = lambda t: np.sin(2.0 * np.pi * np.asarray(t, dtype=float) / length)  # x1 rises, then returns
    for scale in (1.0, 1e-290, 1e10, 1e300):
        u = (lambda t, c=scale: c * wave(t), _zero, lambda t: np.cos(np.asarray(t) / length))
        _assert_same_outcome((u, (0.0, -0.0, 1.0), (-0.0, 0.0, 2.0), ("x12", "x13", "x23"), (0.0, length), 300))
