"""State types and integrators for the bilinear and attitude models.

Models:

* ``integrate_nhi``  —  x1' = u1, x2' = u2, x3' = x1 u2 - x2 u1
* ``integrate_gnhi`` —  x_i' = u_i, x_ij' = x_i u_j - x_j u_i  (i < j)
* ``integrate_so3``  —  g' = hat(omega) g on the rotation group

The bilinear integrators implement classical RK4, but since the inputs
depend on time only, the stage combinations collapse to closed-form per-step
updates that vectorize over the whole grid (see ``_bilinear_paths``).  Inputs
carrying endpoint weight factors are integrated in the arc variable
t = mid - half*cos(s), where the weight times dt/ds is smooth, keeping the
full fourth order; the trajectory then samples t non-uniformly and the input
columns record the effective integrand u * dt/ds on the s-grid.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import AmbiguityError, CapabilityError, DomainError
from .orthopoly import (
    CANONICAL_INTERVAL,
    InputSignal,
    integrate,
    integrate_smooth,
)

__all__ = [
    "NhiState",
    "GnhiState",
    "Rotation",
    "Trajectory",
    "pair_names",
    "integrate_nhi",
    "integrate_gnhi",
    "integrate_so3",
    "coupling_displacement",
    "hat",
    "vee",
    "exp_rotation",
    "log_rotation",
    "project_rotation",
]

_MIN_STEPS = 100


@dataclass(frozen=True)
class NhiState:
    x1: float = 0.0
    x2: float = 0.0
    x3: float = 0.0

    def __post_init__(self):
        if not np.all(np.isfinite([self.x1, self.x2, self.x3])):
            raise DomainError("state coordinates must be finite")

    @classmethod
    def from_array(cls, arr) -> "NhiState":
        arr = np.asarray(arr, dtype=float)
        if arr.shape != (3,):
            raise ValueError("NhiState needs exactly three coordinates")
        return cls(float(arr[0]), float(arr[1]), float(arr[2]))


def pair_names(m: int) -> list[str]:
    """Cross-coordinate names x12, x13, ..., in lexicographic order (1-based)."""
    return [f"x{i}{j}" for i in range(1, m + 1) for j in range(i + 1, m + 1)]


@dataclass
class GnhiState:
    """m direct coordinates plus the antisymmetric matrix of cross terms."""

    x: np.ndarray
    xx: np.ndarray

    def __post_init__(self):
        self.x = np.asarray(self.x, dtype=float).copy()
        self.xx = np.asarray(self.xx, dtype=float).copy()
        m = self.x.shape[0] if self.x.ndim == 1 else -1
        if self.x.ndim != 1 or m < 2:
            raise ValueError("x must be a vector with at least two entries")
        if m > 8:
            raise CapabilityError("at most 8 input channels are supported")
        if self.xx.shape != (m, m):
            raise ValueError("xx must be an m-by-m matrix")
        if not (np.all(np.isfinite(self.x)) and np.all(np.isfinite(self.xx))):
            raise DomainError("state coordinates must be finite")
        scale = max(1.0, float(np.max(np.abs(self.xx))))
        if np.max(np.abs(self.xx + self.xx.T)) > 1e-12 * scale:
            raise ValueError("xx must be antisymmetric")

    @property
    def m(self) -> int:
        return self.x.shape[0]

    @classmethod
    def zeros(cls, m: int) -> "GnhiState":
        return cls(np.zeros(m), np.zeros((m, m)))

    @classmethod
    def from_flat(cls, m: int, values) -> "GnhiState":
        """Build from [x1..xm, x12, x13, ..., x(m-1)m]."""
        values = np.asarray(values, dtype=float)
        n_pairs = m * (m - 1) // 2
        if values.shape != (m + n_pairs,):
            raise ValueError(f"expected {m + n_pairs} values for m={m}")
        xx = np.zeros((m, m))
        k = m
        for i in range(m):
            for j in range(i + 1, m):
                xx[i, j] = values[k]
                xx[j, i] = -values[k]
                k += 1
        return cls(values[:m], xx)

    def flat(self) -> np.ndarray:
        vals = [self.xx[i, j] for i in range(self.m) for j in range(i + 1, self.m)]
        return np.concatenate([self.x, np.array(vals)])


@dataclass(frozen=True)
class Rotation:
    """A validated member of the rotation group."""

    matrix: np.ndarray

    def __post_init__(self):
        mat = np.asarray(self.matrix, dtype=float).copy()
        if mat.shape != (3, 3):
            raise ValueError("rotation matrix must be 3x3")
        if np.max(np.abs(mat.T @ mat - np.eye(3))) > 1e-8:
            raise ValueError("matrix is not orthogonal")
        if abs(np.linalg.det(mat) - 1.0) > 1e-8:
            raise ValueError("matrix determinant is not +1")
        object.__setattr__(self, "matrix", mat)

    @classmethod
    def identity(cls) -> "Rotation":
        return cls(np.eye(3))

    def drift(self) -> float:
        """Max-norm departure from orthogonality, for diagnostics."""
        return float(np.max(np.abs(self.matrix.T @ self.matrix - np.eye(3))))


@dataclass
class Trajectory:
    """Sampled trajectory: time grid plus named columns (states, then inputs)."""

    t: np.ndarray
    columns: dict[str, np.ndarray]
    state_names: tuple[str, ...]
    input_names: tuple[str, ...]
    scheme: str
    interval: tuple[float, float]

    @property
    def steps(self) -> int:
        return len(self.t) - 1

    @property
    def terminal(self) -> dict[str, float]:
        return {name: float(self.columns[name][-1]) for name in self.state_names}

    def to_csv(self, path) -> None:
        names = ["t", *self.state_names, *self.input_names]
        cols = [self.t] + [self.columns[n] for n in names[1:]]
        lines = [",".join(names)]
        for row in zip(*cols):
            lines.append(",".join(repr(float(v)) for v in row))
        text = "\n".join(lines) + "\n"
        if hasattr(path, "write"):
            path.write(text)
        else:
            with open(path, "w", newline="") as fh:
                fh.write(text)


# ---------------------------------------------------------------------------
# Input evaluation helpers
# ---------------------------------------------------------------------------


def _eval_vec(f, ts: np.ndarray) -> np.ndarray:
    try:
        vals = np.asarray(f(ts), dtype=float)
        if vals.shape != ts.shape:
            raise TypeError
        return vals
    except (TypeError, ValueError):
        return np.array([float(f(t)) for t in ts])


def _infer_interval(inputs, interval):
    sig_intervals = {u.interval for u in inputs if isinstance(u, InputSignal)}
    if interval is not None:
        interval = (float(interval[0]), float(interval[1]))
        sig_intervals.add(interval)
    if len(sig_intervals) > 1:
        raise ValueError("inputs live on different intervals")
    if not sig_intervals:
        raise ValueError("interval cannot be inferred from bare callables; pass it")
    return sig_intervals.pop()


def _needs_reparam(inputs) -> bool:
    return any(isinstance(u, InputSignal) and u.is_weighted for u in inputs)


def _check_singular_support(inputs, interval):
    for u in inputs:
        if isinstance(u, InputSignal) and u.is_singular and interval != CANONICAL_INTERVAL:
            raise CapabilityError(
                "inputs with singular endpoint weights are only supported on "
                f"the canonical interval {CANONICAL_INTERVAL}"
            )


def _grids(inputs, interval, steps, reparam):
    """Node/midpoint times and per-channel values (effective values if reparam)."""
    lo, hi = interval
    if reparam:
        half = 0.5 * (hi - lo)
        mid = 0.5 * (hi + lo)
        s_nodes = np.linspace(0.0, np.pi, steps + 1)
        s_mid = 0.5 * (s_nodes[:-1] + s_nodes[1:])
        t_nodes = mid - half * np.cos(s_nodes)
        h = np.pi / steps

        def eff(u, s):
            if isinstance(u, InputSignal):
                return np.asarray(u.theta_factor(s), dtype=float)
            t = mid - half * np.cos(s)
            return _eval_vec(u, t) * half * np.sin(s)

        u_nodes = np.stack([eff(u, s_nodes) for u in inputs])
        u_mid = np.stack([eff(u, s_mid) for u in inputs])
        return t_nodes, h, u_nodes, u_mid
    t_nodes = np.linspace(lo, hi, steps + 1)
    t_mid = 0.5 * (t_nodes[:-1] + t_nodes[1:])
    h = (hi - lo) / steps
    u_nodes = np.stack([_eval_vec(u, t_nodes) for u in inputs])
    u_mid = np.stack([_eval_vec(u, t_mid) for u in inputs])
    return t_nodes, h, u_nodes, u_mid


def _bilinear_paths(u_nodes, u_mid, h, x0, xx0, pairs):
    """Classical-RK4 paths of the direct and cross coordinates.

    With inputs depending on time only, the four stages combine exactly into
    a Simpson update for each direct coordinate and, for each cross
    coordinate, a Simpson term in the direct states plus an h^2 correction
    in the stage inputs; this reproduces RK4 to the last bit while running
    as pure array arithmetic.
    """
    u0 = u_nodes[:, :-1]
    u1 = u_nodes[:, 1:]
    s_sum = u0 + 4.0 * u_mid + u1
    steps = u_mid.shape[1]
    m = u_nodes.shape[0]
    x = np.empty((m, steps + 1))
    x[:, 0] = x0
    x[:, 1:] = x0[:, None] + (h / 6.0) * np.cumsum(s_sum, axis=1)
    x_start = x[:, :-1]
    cross = {}
    for (i, j) in pairs:
        incr = (h / 6.0) * (x_start[i] * s_sum[j] - x_start[j] * s_sum[i]) + (
            h * h / 6.0
        ) * (
            (u0[i] * u_mid[j] - u0[j] * u_mid[i])
            + (u_mid[i] * u1[j] - u_mid[j] * u1[i])
        )
        path = np.empty(steps + 1)
        path[0] = xx0[(i, j)]
        path[1:] = xx0[(i, j)] + np.cumsum(incr)
        cross[(i, j)] = path
    return x, cross


def integrate_nhi(u, x0=NhiState(), interval=None, steps: int = 2000) -> Trajectory:
    """Integrate the three-state bilinear model driven by two inputs."""
    u = tuple(u)
    if len(u) != 2:
        raise ValueError("the three-state model takes exactly two inputs")
    if steps < _MIN_STEPS:
        raise ValueError(f"steps must be at least {_MIN_STEPS}")
    if not isinstance(x0, NhiState):
        x0 = NhiState.from_array(np.asarray(x0, dtype=float))
    interval = _infer_interval(u, interval)
    _check_singular_support(u, interval)
    reparam = _needs_reparam(u)
    t_nodes, h, u_nodes, u_mid = _grids(u, interval, steps, reparam)
    x, cross = _bilinear_paths(
        u_nodes, u_mid, h, np.array([x0.x1, x0.x2]), {(0, 1): x0.x3}, [(0, 1)]
    )
    columns = {
        "x1": x[0],
        "x2": x[1],
        "x3": cross[(0, 1)],
        "u1": u_nodes[0],
        "u2": u_nodes[1],
    }
    return Trajectory(
        t=t_nodes,
        columns=columns,
        state_names=("x1", "x2", "x3"),
        input_names=("u1", "u2"),
        scheme="rk4_reparam" if reparam else "rk4",
        interval=interval,
    )


def integrate_gnhi(u, s0: GnhiState, interval=None, steps: int = 2000) -> Trajectory:
    """Integrate the m-input generalization with all cross coordinates."""
    u = tuple(u)
    m = s0.m
    if len(u) != m:
        raise ValueError(f"state has m={m} direct coordinates but {len(u)} inputs given")
    if steps < _MIN_STEPS:
        raise ValueError(f"steps must be at least {_MIN_STEPS}")
    interval = _infer_interval(u, interval)
    _check_singular_support(u, interval)
    reparam = _needs_reparam(u)
    t_nodes, h, u_nodes, u_mid = _grids(u, interval, steps, reparam)
    pairs = [(i, j) for i in range(m) for j in range(i + 1, m)]
    xx0 = {(i, j): s0.xx[i, j] for (i, j) in pairs}
    x, cross = _bilinear_paths(u_nodes, u_mid, h, s0.x.copy(), xx0, pairs)
    columns = {}
    state_names = []
    for i in range(m):
        name = f"x{i + 1}"
        columns[name] = x[i]
        state_names.append(name)
    for (i, j) in pairs:
        name = f"x{i + 1}{j + 1}"
        columns[name] = cross[(i, j)]
        state_names.append(name)
    input_names = []
    for i in range(m):
        name = f"u{i + 1}"
        columns[name] = u_nodes[i]
        input_names.append(name)
    return Trajectory(
        t=t_nodes,
        columns=columns,
        state_names=tuple(state_names),
        input_names=tuple(input_names),
        scheme="rk4_reparam" if reparam else "rk4",
        interval=interval,
    )


# ---------------------------------------------------------------------------
# Rotation-group helpers
# ---------------------------------------------------------------------------


def hat(v) -> np.ndarray:
    """Map a 3-vector to the skew matrix with hat(v) w = v x w."""
    v = np.asarray(v, dtype=float)
    if v.shape != (3,):
        raise ValueError("hat expects a 3-vector")
    return np.array(
        [
            [0.0, -v[2], v[1]],
            [v[2], 0.0, -v[0]],
            [-v[1], v[0], 0.0],
        ]
    )


def vee(mat) -> np.ndarray:
    """Inverse of ``hat``; rejects matrices that are not skew-symmetric."""
    mat = np.asarray(mat, dtype=float)
    if mat.shape != (3, 3):
        raise ValueError("vee expects a 3x3 matrix")
    scale = max(1.0, float(np.max(np.abs(mat))))
    if np.max(np.abs(mat + mat.T)) > 1e-10 * scale:
        raise ValueError("matrix is not skew-symmetric")
    return np.array(
        [
            0.5 * (mat[2, 1] - mat[1, 2]),
            0.5 * (mat[0, 2] - mat[2, 0]),
            0.5 * (mat[1, 0] - mat[0, 1]),
        ]
    )


def exp_rotation(v) -> np.ndarray:
    """Matrix exponential of hat(v) via the Rodrigues formula."""
    v = np.asarray(v, dtype=float)
    theta = float(np.linalg.norm(v))
    k = hat(v)
    if theta < 1e-8:
        # series for sin(t)/t and (1-cos t)/t^2
        c1 = 1.0 - theta * theta / 6.0
        c2 = 0.5 - theta * theta / 24.0
    else:
        c1 = np.sin(theta) / theta
        c2 = (1.0 - np.cos(theta)) / (theta * theta)
    return np.eye(3) + c1 * k + c2 * (k @ k)


def log_rotation(mat, accept_pi_tiebreak: bool = False) -> np.ndarray:
    """Rotation vector v with exp_rotation(v) equal to the given matrix.

    Uses quaternion extraction from the largest diagonal combination, which
    stays well-conditioned for angles near pi.  At an angle of exactly pi
    the sign of the axis is not determined by the matrix; that raises
    ``AmbiguityError`` unless ``accept_pi_tiebreak`` picks the representative
    whose first nonzero axis component is positive.
    """
    mat = np.asarray(mat, dtype=float)
    if isinstance(mat, Rotation):
        mat = mat.matrix
    if mat.shape != (3, 3):
        raise ValueError("log_rotation expects a 3x3 matrix")
    tr = float(np.trace(mat))
    choices = [tr, mat[0, 0], mat[1, 1], mat[2, 2]]
    best = int(np.argmax(choices))
    if best == 0:
        w = 0.5 * np.sqrt(max(1.0 + tr, 0.0))
        q = np.array(
            [mat[2, 1] - mat[1, 2], mat[0, 2] - mat[2, 0], mat[1, 0] - mat[0, 1]]
        ) / (4.0 * w)
    else:
        i = best - 1
        j = (i + 1) % 3
        k = (i + 2) % 3
        s = np.sqrt(max(1.0 + mat[i, i] - mat[j, j] - mat[k, k], 0.0))
        q = np.zeros(3)
        q[i] = 0.5 * s
        q[j] = (mat[j, i] + mat[i, j]) / (2.0 * s)
        q[k] = (mat[k, i] + mat[i, k]) / (2.0 * s)
        w = (mat[k, j] - mat[j, k]) / (2.0 * s)
    if w < 0.0:
        w = -w
        q = -q
    s_norm = float(np.linalg.norm(q))
    if s_norm < 1e-12:
        return 2.0 * q
    if w < 1e-12:
        if not accept_pi_tiebreak:
            raise AmbiguityError(
                "rotation angle is pi; the axis sign is ambiguous "
                "(pass accept_pi_tiebreak=True to pick a representative)"
            )
        for comp in q:
            if comp != 0.0:
                if comp < 0.0:
                    q = -q
                break
    theta = 2.0 * float(np.arctan2(s_norm, w))
    return (theta / s_norm) * q


def project_rotation(mat) -> np.ndarray:
    """Closest rotation matrix in the Frobenius sense (polar factor)."""
    u, _, vt = np.linalg.svd(np.asarray(mat, dtype=float))
    r = u @ vt
    if np.linalg.det(r) < 0:
        u[:, -1] = -u[:, -1]
        r = u @ vt
    return r


_SQ3 = np.sqrt(3.0)


def integrate_so3(
    omega,
    g0=None,
    interval=(0.0, 1.0),
    steps: int = 2000,
    scheme: str = "magnus4",
) -> Trajectory:
    """Integrate g' = hat(omega(t)) g and sample the matrix entries.

    ``omega`` is a triple of scalar rate callables.  The default scheme is a
    two-stage fourth-order Magnus/commutator step (exact for constant
    rates); ``lie_midpoint`` gives the classical second-order geometric
    step.  Both move by rotation exponentials, so every sample stays on the
    group to roundoff; if accumulated drift ever exceeds 1e-12 the state is
    polar-projected back.
    """
    omega = tuple(omega)
    if len(omega) != 3:
        raise ValueError("omega must be a triple of rate callables")
    if steps < _MIN_STEPS:
        raise ValueError(f"steps must be at least {_MIN_STEPS}")
    if scheme not in ("magnus4", "lie_midpoint"):
        raise ValueError("scheme must be 'magnus4' or 'lie_midpoint'")
    if g0 is None:
        g0 = Rotation.identity()
    if not isinstance(g0, Rotation):
        g0 = Rotation(np.asarray(g0, dtype=float))
    lo, hi = float(interval[0]), float(interval[1])
    if hi <= lo:
        raise ValueError("interval must have positive length")
    h = (hi - lo) / steps
    t_nodes = np.linspace(lo, hi, steps + 1)
    w_nodes = np.stack([_eval_vec(f, t_nodes) for f in omega])
    if scheme == "magnus4":
        ta = t_nodes[:-1] + (0.5 - _SQ3 / 6.0) * h
        tb = t_nodes[:-1] + (0.5 + _SQ3 / 6.0) * h
        wa = np.stack([_eval_vec(f, ta) for f in omega])
        wb = np.stack([_eval_vec(f, tb) for f in omega])
        steps_vec = 0.5 * h * (wa + wb).T - (_SQ3 / 12.0) * h * h * np.cross(
            wa.T, wb.T
        )
    else:
        tm = t_nodes[:-1] + 0.5 * h
        wm = np.stack([_eval_vec(f, tm) for f in omega])
        steps_vec = h * wm.T
    g = g0.matrix.copy()
    samples = np.empty((steps + 1, 3, 3))
    samples[0] = g
    eye = np.eye(3)
    for k in range(steps):
        g = exp_rotation(steps_vec[k]) @ g
        if (k + 1) % 256 == 0 and np.max(np.abs(g.T @ g - eye)) > 1e-12:
            g = project_rotation(g)
        samples[k + 1] = g
    if np.max(np.abs(g.T @ g - eye)) > 1e-12:
        g = project_rotation(g)
        samples[-1] = g
    columns = {}
    state_names = []
    for i in range(3):
        for j in range(3):
            name = f"g{i + 1}{j + 1}"
            columns[name] = samples[:, i, j]
            state_names.append(name)
    input_names = ("w1", "w2", "w3")
    for idx, name in enumerate(input_names):
        columns[name] = w_nodes[idx]
    return Trajectory(
        t=t_nodes,
        columns=columns,
        state_names=tuple(state_names),
        input_names=input_names,
        scheme=scheme,
        interval=(lo, hi),
    )


# ---------------------------------------------------------------------------
# Coupling displacement
# ---------------------------------------------------------------------------


def _running_of(u, lo: float):
    if isinstance(u, InputSignal):
        return u.running_integral

    def run(ts):
        ts = np.atleast_1d(np.asarray(ts, dtype=float))
        return np.array([integrate_smooth(u, lo, float(t)) for t in ts])

    return run


def coupling_displacement(u1, u2, interval=None) -> float:
    """Net change of the cross coordinate from rest: integral of X1 u2 - X2 u1.

    X_i is the running integral of u_i from the left endpoint.  For signal
    inputs the running integrals come from their closed forms and the
    endpoint weights are handled by the structured quadrature; bare
    callables fall back to nested adaptive integration.
    """
    interval = _infer_interval((u1, u2), interval)
    lo, hi = interval
    run1 = _running_of(u1, lo)
    run2 = _running_of(u2, lo)
    total = 0.0
    for sig, other_run, sign in ((u2, run1, +1.0), (u1, run2, -1.0)):
        if isinstance(sig, InputSignal):
            for term in sig.terms:
                def f(ts, term=term, other_run=other_run):
                    return np.asarray(other_run(ts), dtype=float) * np.asarray(
                        term.smooth(ts), dtype=float
                    )

                total += sign * integrate(f, interval, term.exponents, box=interval)
        else:
            def f(ts, sig=sig, other_run=other_run):
                ts = np.atleast_1d(np.asarray(ts, dtype=float))
                vals = np.array([float(sig(t)) for t in ts])
                return np.asarray(other_run(ts), dtype=float) * vals

            total += sign * integrate_smooth(f, lo, hi)
    return total
