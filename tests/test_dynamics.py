import io
import math

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.spatial.transform import Rotation as ScipyRotation

from nhsteer.errors import AmbiguityError, CapabilityError
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
from nhsteer.orthopoly import (
    CHEBYSHEV_FIRST,
    CHEBYSHEV_SECOND,
    LEGENDRE,
    SHIFTED_INTERVAL,
    Harmonic,
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
