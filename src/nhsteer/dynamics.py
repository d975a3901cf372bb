"""State types and integrators for the bilinear and attitude models.

Models:

* ``integrate_gnhi`` —  x_i' = u_i, x_ij' = x_i u_j - x_j u_i  (i < j)
* ``integrate_nhi``  —  its m = 2 case, with x12 named x3:
  x1' = u1, x2' = u2, x3' = x1 u2 - x2 u1
* ``integrate_so3``  —  g' = hat(omega) g on the rotation group

Both bilinear integrators are views of one core, ``_integrate_bilinear``,
which serves every m >= 2 and names the cross coordinates as asked; the
pairs (i, j), i < j, always come in the lexicographic order of ``_pairs``.
The core implements classical RK4, but since the inputs depend on time only,
the stage combinations collapse to closed-form per-step updates that
vectorize over the whole grid.  Inputs carrying endpoint weight factors are
integrated in the arc variable t = mid - half*cos(s), where the weight
(1-tau)^a (1+tau)^b times dt/ds is cos(s/2)^(2a+1) sin(s/2)^(2b+1) up to a
constant.  That is smooth, keeping the full fourth order, when 2a + 1 and
2b + 1 are nonnegative integers; otherwise the order drops to about
min(4, 2a + 2) (2b + 2 at the other end): weighted Jacobi plans at
a = b = -0.45 end 7.6e-5 off at 4000 steps.  The trajectory samples t
non-uniformly and the input columns record the effective integrand
u * dt/ds on the s-grid.  Weight exponents below -1/2 make that integrand
infinite at an endpoint and are refused with ``CapabilityError``.

``integrate_so3`` computes every step's Magnus vector and every step's
Rodrigues exponential as array operations over the whole grid
(``_exp_rotations``, bit-identical to ``exp_rotation`` row by row); only the
3x3 running product stays in a Python loop.  All three integrators refuse
non-finite interval bounds and non-finite input or rate values with
``DomainError`` before integrating.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import AmbiguityError, CapabilityError, DomainError
from .orthopoly import (
    CANONICAL_INTERVAL,
    InputSignal,
    _eval_array,
    _factors,
    _infer_interval,
    _product_integrals,
    _running_factors,
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


def _pairs(m: int) -> list[tuple[int, int]]:
    """Channel pairs (i, j), i < j, in the lexicographic order of the cross coordinates."""
    return [(i, j) for i in range(m) for j in range(i + 1, m)]


def pair_names(m: int) -> list[str]:
    """Cross-coordinate names x12, x13, ..., in lexicographic order (1-based)."""
    return [f"x{i + 1}{j + 1}" for i, j in _pairs(m)]


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
        pairs = _pairs(m)
        if values.shape != (m + len(pairs),):
            raise ValueError(
                f"expected {m + len(pairs)} values for m={m}: "
                "x1..xm then x_ij in lexicographic order"
            )
        xx = np.zeros((m, m))
        for k, (i, j) in enumerate(pairs, start=m):
            xx[i, j] = values[k]
            xx[j, i] = -values[k]
        return cls(values[:m], xx)

    def flat(self) -> np.ndarray:
        vals = [self.xx[i, j] for i, j in _pairs(self.m)]
        return np.concatenate([self.x, np.array(vals)])


@dataclass(frozen=True)
class Rotation:
    """A validated member of the rotation group."""

    matrix: np.ndarray

    def __post_init__(self):
        mat = np.asarray(self.matrix, dtype=float).copy()
        if mat.shape != (3, 3):
            raise ValueError("rotation matrix must be 3x3")
        if not np.all(np.isfinite(mat)):
            raise ValueError("rotation matrix entries must be finite")
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
# The bilinear core
# ---------------------------------------------------------------------------


def _finite_interval(interval) -> tuple[float, float]:
    lo, hi = float(interval[0]), float(interval[1])
    if not (np.isfinite(lo) and np.isfinite(hi)):
        raise DomainError(f"interval bounds must be finite, got {(lo, hi)}")
    return lo, hi


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
            return _eval_array(u, t) * half * np.sin(s)

        u_nodes = np.stack([eff(u, s_nodes) for u in inputs])
        u_mid = np.stack([eff(u, s_mid) for u in inputs])
        return t_nodes, h, u_nodes, u_mid
    t_nodes = np.linspace(lo, hi, steps + 1)
    t_mid = 0.5 * (t_nodes[:-1] + t_nodes[1:])
    h = (hi - lo) / steps
    u_nodes = np.stack([_eval_array(u, t_nodes) for u in inputs])
    u_mid = np.stack([_eval_array(u, t_mid) for u in inputs])
    return t_nodes, h, u_nodes, u_mid


def _check_simulable(u, interval) -> None:
    """``CapabilityError`` for endpoint weights the arc-variable integrator cannot take."""
    signals = [sig for sig in u if isinstance(sig, InputSignal)]
    if interval != CANONICAL_INTERVAL and any(sig.is_singular for sig in signals):
        raise CapabilityError(
            "inputs with singular endpoint weights are only supported on "
            f"the canonical interval {CANONICAL_INTERVAL}"
        )
    low = min((min(term.exponents) for sig in signals for term in sig.terms), default=0.0)
    if low < -0.5:
        raise CapabilityError(
            f"weight exponent {low!r} is below -1/2: the arc-variable integrand "
            "cos(s/2)^(2a+1) sin(s/2)^(2b+1) is infinite at an endpoint, so it cannot be simulated"
        )


def _integrate_bilinear(u, x0, xx0, cross_names, interval, steps) -> Trajectory:
    """Classical-RK4 trajectory of the m-input model, m = len(u).

    ``x0`` holds the m direct coordinates, ``xx0`` the cross coordinates in
    the order of ``_pairs(m)`` and ``cross_names`` their column names.  With
    inputs depending on time only, the four stages combine exactly into a
    Simpson update for each direct coordinate and, for each cross
    coordinate, a Simpson term in the direct states plus an h^2 correction
    in the stage inputs; this reproduces RK4 to the last bit while running
    as pure array arithmetic.  Each cross coordinate gets its own 1-D pass:
    one stacked (pairs x steps) array costs more time and memory at m = 8.
    """
    if steps < _MIN_STEPS:
        raise ValueError(f"steps must be at least {_MIN_STEPS}")
    interval = _finite_interval(_infer_interval(u, interval))
    _check_simulable(u, interval)
    reparam = any(isinstance(sig, InputSignal) and sig.is_weighted for sig in u)
    t_nodes, h, u_nodes, u_mid = _grids(u, interval, steps, reparam)
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
        for name, (i, j), start in zip(cross_names, _pairs(m), xx0):
            incr = (h / 6.0) * (x_start[i] * s_sum[j] - x_start[j] * s_sum[i]) + (
                h * h / 6.0
            ) * (
                (u0[i] * u_mid[j] - u0[j] * u_mid[i])
                + (u_mid[i] * u1[j] - u_mid[j] * u1[i])
            )
            path = np.empty(steps + 1)
            path[0] = start
            path[1:] = start + np.cumsum(incr)
            columns[name] = path
    if not all(np.isfinite(col).all() for col in columns.values()):
        raise DomainError("inputs overflow the integrator: a state coordinate is not finite")
    input_names = tuple(f"u{i + 1}" for i in range(m))
    columns.update(zip(input_names, u_nodes))
    return Trajectory(
        t=t_nodes,
        columns=columns,
        state_names=(*state_names, *cross_names),
        input_names=input_names,
        scheme="rk4_reparam" if reparam else "rk4",
        interval=interval,
    )


def integrate_nhi(u, x0=NhiState(), interval=None, steps: int = 2000) -> Trajectory:
    """Integrate the three-state bilinear model driven by two inputs.

    This is the m = 2 case of ``integrate_gnhi`` with the cross coordinate
    named x3 instead of x12.
    """
    u = tuple(u)
    if len(u) != 2:
        raise ValueError("the three-state model takes exactly two inputs")
    if not isinstance(x0, NhiState):
        x0 = NhiState.from_array(np.asarray(x0, dtype=float))
    return _integrate_bilinear(u, (x0.x1, x0.x2), (x0.x3,), ("x3",), interval, steps)


def integrate_gnhi(u, s0: GnhiState, interval=None, steps: int = 2000) -> Trajectory:
    """Integrate the m-input generalization with all cross coordinates."""
    u = tuple(u)
    m = s0.m
    if len(u) != m:
        raise ValueError(f"state has m={m} direct coordinates but {len(u)} inputs given")
    return _integrate_bilinear(u, s0.x, s0.flat()[m:], pair_names(m), interval, steps)


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


def _exp_rotations(v: np.ndarray) -> np.ndarray:
    """``exp_rotation`` of every row of an (n, 3) array, as one (n, 3, 3) stack.

    Each matrix equals ``exp_rotation(v[k])`` bit for bit: the angle is a
    row-wise dot product, the way ``np.linalg.norm`` reduces one vector
    (``norm(v, axis=1)``, ``einsum`` and ``sum(v * v)`` round differently in
    the last bit), and the series branch is picked per row.
    """
    n = v.shape[0]
    theta = np.sqrt((v[:, None, :] @ v[:, :, None])[:, 0, 0])
    k = np.zeros((n, 3, 3))
    k[:, 0, 1] = -v[:, 2]
    k[:, 0, 2] = v[:, 1]
    k[:, 1, 0] = v[:, 2]
    k[:, 1, 2] = -v[:, 0]
    k[:, 2, 0] = -v[:, 1]
    k[:, 2, 1] = v[:, 0]
    small = theta < 1e-8
    safe = np.where(small, 1.0, theta)
    c1 = np.where(small, 1.0 - theta * theta / 6.0, np.sin(safe) / safe)
    c2 = np.where(small, 0.5 - theta * theta / 24.0, (1.0 - np.cos(safe)) / (safe * safe))
    return np.eye(3) + c1[:, None, None] * k + c2[:, None, None] * (k @ k)


def log_rotation(mat, accept_pi_tiebreak: bool = False) -> np.ndarray:
    """Rotation vector v with exp_rotation(v) equal to the given matrix.

    Uses quaternion extraction from the largest diagonal combination, which
    stays well-conditioned for angles near pi.  At an angle of exactly pi
    the sign of the axis is not determined by the matrix; that raises
    ``AmbiguityError`` unless ``accept_pi_tiebreak`` picks the representative
    whose first nonzero axis component is positive.
    """
    if isinstance(mat, Rotation):
        mat = mat.matrix
    mat = np.asarray(mat, dtype=float)
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
    group to roundoff; drift is checked every 256 steps and at the end, and
    a state more than 1e-12 off the group is polar-projected back.

    The step vectors of all steps and their exponentials are built at once,
    as one (steps, 3, 3) stack; the loop only multiplies the running
    product, so the samples equal those of one ``exp_rotation`` per step bit
    for bit.  Non-finite interval bounds or rate values raise
    ``DomainError``.
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
    lo, hi = _finite_interval(interval)
    if hi <= lo:
        raise ValueError("interval must have positive length")
    h = (hi - lo) / steps
    t_nodes = np.linspace(lo, hi, steps + 1)
    if scheme == "magnus4":
        stage_times = (t_nodes[:-1] + (0.5 - _SQ3 / 6.0) * h, t_nodes[:-1] + (0.5 + _SQ3 / 6.0) * h)
    else:
        stage_times = (t_nodes[:-1] + 0.5 * h,)
    w_nodes, *stages = [np.stack([_eval_array(f, t) for f in omega]) for t in (t_nodes, *stage_times)]
    if not all(np.isfinite(w).all() for w in (w_nodes, *stages)):
        raise DomainError("rates must be finite on the interval")
    with np.errstate(over="ignore", invalid="ignore"):
        if scheme == "magnus4":
            wa, wb = stages
            steps_vec = 0.5 * h * (wa + wb).T - (_SQ3 / 12.0) * h * h * np.cross(wa.T, wb.T)
        else:
            steps_vec = h * stages[0].T
        rots = _exp_rotations(steps_vec)
    if not np.isfinite(rots).all():
        raise DomainError("rates overflow the integrator: a step rotation is not finite")
    samples = np.empty((steps + 1, 3, 3))
    samples[0] = g0.matrix
    g = samples[0]
    eye = np.eye(3)
    # the running product is the only sequential part; each step writes its sample in place
    for k, (rot, out) in enumerate(zip(rots, samples[1:]), start=1):
        g = np.matmul(rot, g, out=out)
        if k % 256 == 0 and np.max(np.abs(g.T @ g - eye)) > 1e-12:
            out[...] = project_rotation(g)
    if np.max(np.abs(g.T @ g - eye)) > 1e-12:
        samples[-1] = project_rotation(g)
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


def coupling_displacement(u1, u2, interval=None) -> float:
    """Net change of the cross coordinate from rest: integral of X1 u2 - X2 u1.

    X_i is the running integral of u_i from the left endpoint.  Elements,
    terms and signals expand term by term, X_i into closed forms (a
    polynomial times a Jacobi weight, or a trig polynomial), so each product
    of family terms is summed exactly on Gauss-Jacobi nodes or by the
    trapezoid rule; bare callables, mixed trig and polynomial products and
    terms without such a closed form go through adaptive quadrature.
    """
    interval = _infer_interval((u1, u2), interval)
    total = 0.0
    for part in _product_integrals((_running_factors(u1, interval), _factors(u2)), interval):
        total += part
    for part in _product_integrals((_running_factors(u2, interval), _factors(u1)), interval):
        total -= part
    return total
