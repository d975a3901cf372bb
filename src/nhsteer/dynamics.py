"""State types and integrators for the bilinear and attitude models.

Models:

* ``integrate_gnhi`` —  x_i' = u_i, x_ij' = x_i u_j - x_j u_i  (i < j)
* ``integrate_nhi``  —  its m = 2 case, with x12 named x3:
  x1' = u1, x2' = u2, x3' = x1 u2 - x2 u1
* ``integrate_so3``  —  g' = hat(omega) g on the rotation group

Both bilinear integrators are views of one core, ``_bilinear_chunks``, which
serves every m >= 2; the pairs (i, j), i < j, always come in the
lexicographic order of ``_pairs``.  The core implements classical RK4, but
since the inputs depend on time only, the stage combinations collapse to
closed-form per-step updates that vectorize over a grid.  It integrates a
phase in chunks of at most N steps into one reused float block of N + 1
columns whose rows are the direct states, the cross states and the inputs,
written in place: each chunk evaluates its inputs once, on its nodes and
midpoints together, starts from the sample the chunk before ended on, and
seeds its first ``np.cumsum`` summand with the running sums carried from
there, so that every chunk has the bits of the whole grid.  A cross
coordinate of two zero channels skips its pass, and the overflow check reads
only the last sample of each state row.  One driver, ``_replay``, runs the
core over (inputs, interval) legs, each starting where the one before ended:
``_trajectories`` gives each leg one chunk in its slice of one block
(``integrate_nhi``, ``integrate_gnhi`` and the trajectories of a
``steering.SimulationResult``), and the ``terminal`` and ``to_csv`` of a
``SimulationResult`` reuse one block of ``_CHUNK_STEPS`` + 1 columns for
every chunk, keeping only the final state or streaming the CSV
(``_write_csv``, also behind ``Trajectory.to_csv``).

Inputs carrying endpoint weight factors are integrated in the arc variable s
of ``orthopoly``'s map t = mid - half*cos(s), where the weight (1-tau)^a
(1+tau)^b times dt/ds is cos(s/2)^(2a+1) sin(s/2)^(2b+1) up to a constant.
That is smooth, keeping the full fourth order, when 2a + 1 and 2b + 1 are
nonnegative integers; otherwise the order drops to about min(4, 2a+2) (2b+2
at the other end): weighted Jacobi plans at a = b = -0.45 end 7.6e-5 off at
4000 steps.  The trajectory samples t non-uniformly and the input columns
record u * dt/ds on the s-grid.  Weight exponents below -1/2 make that
integrand infinite at an endpoint and are refused with ``CapabilityError``.

``integrate_so3`` takes one step rule, the two-stage fourth-order Magnus
step, and computes every step's Magnus vector and every step's Rodrigues
exponential as array operations over the whole grid (``_exp_rotations``, of
which ``exp_rotation`` is the one-row case); only the 3x3 running product
stays in a Python loop, as ``ndarray.dot`` (the C routine of ``np.dot``,
bit-equal to ``np.matmul``, without the gufunc overhead of ``np.matmul`` or
the ``__array_function__`` dispatch of ``np.dot``), in chunks of 256 steps
that each end in the drift check.  The quaternion helpers live here too,
with the one rotation logarithm ``_quaternion_log`` (w >= 0, the half-turn
tie-break) behind ``log_rotation`` and the shooting residual of
``so3_control``.  All three integrators refuse reversed or empty intervals
(``ValueError``) and non-finite bounds, inputs or rates (``DomainError``)
before integrating.
"""

from __future__ import annotations

import contextlib
import math
from dataclasses import dataclass

import numpy as np

from .errors import AmbiguityError, CapabilityError, DomainError
from .orthopoly import (
    CANONICAL_INTERVAL,
    InputSignal,
    _arc_time,
    _infer_interval,
    _stacked_values,
    coupling_displacement,
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
# steps per chunk of a streamed phase: a phase of the default 4000 steps is one chunk
_CHUNK_STEPS = 4096
_CSV_BLOCK_CELLS = 4096


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
        """The state of the three coordinates ``arr``; a state is returned as it is."""
        if isinstance(arr, NhiState):
            return arr
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
        count = m + m * (m - 1) // 2  # compared before the m(m - 1)/2 pairs are built
        if values.shape != (count,):
            raise ValueError(f"expected {count} values for m={m}: x1..xm then x_ij in lexicographic order")
        xx = np.zeros((m, m))
        for k, (i, j) in enumerate(_pairs(m), start=m):
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
        # the entries are bounded first, so that the product cannot overflow
        if np.max(np.abs(mat)) > 2.0 or np.max(np.abs(mat.T @ mat - np.eye(3))) > 1e-8:
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
        """A header line, then one line of ``repr`` floats per sample (``_write_csv``)."""
        names = [*self.state_names, *self.input_names]
        _write_csv(path, ["t", *names], [(self.t, [self.columns[n] for n in names])])


def _write_csv(path, names, pieces) -> None:
    """A header line of ``names``, then one line of ``repr`` floats per sample
    of each (t, columns) piece, to a text handle or to the file ``path``.

    Rows go out in blocks of about ``_CSV_BLOCK_CELLS`` cells, each turned
    into text at once by ``_csvtext.csv_block``, so ``pieces`` may be
    computed as they are written.
    """
    from ._csvtext import csv_block  # at the first CSV write, off the start-up path

    block = max(1, _CSV_BLOCK_CELLS // len(names))  # rows
    last = np.arange(block * len(names)) % len(names) == len(names) - 1
    with contextlib.nullcontext(path) if hasattr(path, "write") else open(path, "w", newline="") as fh:
        fh.write(",".join(names) + "\n")
        for t, columns in pieces:
            cols = [np.asarray(c, dtype=float) for c in (t, *columns)]
            for lo in range(0, len(cols[0]), block):
                cells = np.stack([col[lo : lo + block] for col in cols], axis=1).ravel()
                fh.write(csv_block(cells, last[: len(cells)]))


# ---------------------------------------------------------------------------
# The bilinear core
# ---------------------------------------------------------------------------


def _grids(inputs, interval, steps, reparam, k0=0, k1=None):
    """Node times, the step, and per-channel values at the nodes and midpoints of steps k0 ... k1.

    The grid is uniform in a variable v: v = t on the plain map, and on the
    arc map of ``orthopoly`` (``reparam``) v = s, where a channel's value is
    its effective integrand u(t) dt/ds.  Node k is ``np.linspace``'s: k times
    the step plus the start (k / steps times the length where the step
    underflows), the last node the end itself, so a chunk of the grid has the
    bits of the whole one.  Every channel is evaluated once, on the nodes
    followed by the midpoints, and the rows are sliced.
    """
    k1 = steps if k1 is None else k1
    lo, hi = (0.0, np.pi) if reparam else interval
    step = (hi - lo) / steps
    nodes = np.arange(k0, k1 + 1, dtype=float)
    if step:
        nodes *= step
    else:
        nodes /= steps
        nodes *= hi - lo
    nodes += lo
    if k1 == steps:
        nodes[-1] = hi
    points = np.concatenate((nodes, 0.5 * (nodes[:-1] + nodes[1:])))
    values = _stacked_values(inputs, points, interval if reparam else None)
    t_nodes = _arc_time(interval, nodes) if reparam else nodes
    return t_nodes, step, values[:, : k1 - k0 + 1], values[:, k1 - k0 + 1 :]


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


def _coordinates(state) -> tuple[int, list[str], list[float]]:
    """(m, coordinate names, values) of an ``NhiState``, whose cross coordinate is x3, or a ``GnhiState``."""
    if isinstance(state, NhiState):
        return 2, ["x1", "x2", "x3"], [state.x1, state.x2, state.x3]
    m = state.m
    return m, [f"x{i + 1}" for i in range(m)] + pair_names(m), state.flat().tolist()


def _check_steps(steps) -> None:
    """``ValueError`` for fewer than ``_MIN_STEPS`` steps, before anything is allocated."""
    if steps < _MIN_STEPS:
        raise ValueError(f"steps must be at least {_MIN_STEPS}")


def _bilinear_chunks(u, x0, xx0, interval, reparam, steps, block):
    """Classical-RK4 chunks of one phase of the m-input model, m = len(u), in ``block``.

    ``x0`` holds the m direct coordinates and ``xx0`` the cross coordinates
    in the order of ``_pairs(m)``; ``interval`` and ``reparam`` are those
    ``_replay`` checked.  With inputs depending on time only, the four stages
    combine exactly into a Simpson update for each direct coordinate and,
    for each cross coordinate, a Simpson term in the direct states plus an
    h^2 correction in the stage inputs; this reproduces RK4 to the last bit
    while running as pure array arithmetic.  Each cross coordinate gets its
    own 1-D pass: one stacked (pairs x steps) array costs more time and
    memory at m = 8.  A pass whose channels are both zero signals (no terms)
    is skipped: after sample 0 its path is ``start + 0.0``, as the sum of
    its +0.0 increments is.

    ``block`` is a float array of 2m + m(m-1)/2 rows (the direct states,
    the cross states in ``_pairs`` order, then the inputs on the nodes) and
    N + 1 columns, N <= steps.  The steps go in chunks of at most N, the
    first the shortest, so the last chunk ends in the last column; each
    yields (its node times, the block's columns 0 ... n) once its rows are
    written, column 0 holding the sample the chunk before ended on.  A
    direct state is x0 + (h / 6) * cumsum and a cross path start + cumsum,
    and ``np.cumsum`` adds in sequence, so a chunk whose first summand is
    seeded with the running sum carried from the chunk before has the bits
    of the whole grid.  Each operation writes into its destination with the
    operands, order and grouping of the plain expressions: the direct
    states by ``np.cumsum(..., out=)``, each cross pass through three
    scratch vectors reused by every pass and then its own path row.  The
    overflow check reads the last sample of each state row only: a running
    sum that is inf or nan stays so, and a direct state that overflows
    mid-grid makes every cross pass it enters non-finite from there on.
    Inputs that overflow where they are evaluated are refused as not
    finite, without a numpy warning.
    """
    m, n_cross, width = len(u), len(xx0), block.shape[1] - 1
    x, paths, inputs = block[:m], block[m : m + n_cross], block[m + n_cross :]
    x[:, 0], paths[:, 0] = x0, xx0
    x_first = x[:, :1].copy()
    zero = [isinstance(sig, InputSignal) and not sig.terms for sig in u]
    a, b, c = np.empty((3, width))
    x_sum, path_sum = np.empty(m), np.empty(n_cross)  # the running sums carried into the next chunk

    def advance(k0, k1):
        """Steps k0 ... k1 into columns 1 ... k1 - k0, from the sample in column 0; their node times.

        The chunk's arrays other than the block are freed on return, before the next chunk's.
        """
        n = k1 - k0
        with np.errstate(over="ignore", invalid="ignore"):
            t_nodes, h, u_nodes, u_mid = _grids(u, interval, steps, reparam, k0, k1)
            if not (np.isfinite(u_nodes).all() and np.isfinite(u_mid).all()):
                raise DomainError("inputs must be finite on the interval")
            u0 = u_nodes[:, :-1]
            u1 = u_nodes[:, 1:]
            s_sum = np.multiply(4.0, u_mid)  # u0 + 4.0 * u_mid + u1
            np.add(u0, s_sum, out=s_sum)
            np.add(s_sum, u1, out=s_sum)
            x_new = x[:, 1 : n + 1]
            first = s_sum[:, 0].copy()
            if k0:
                s_sum[:, 0] += x_sum
            np.cumsum(s_sum, axis=1, out=x_new)  # x0 + (h / 6.0) * cumsum
            s_sum[:, 0], x_sum[:] = first, x_new[:, -1]
            np.multiply(h / 6.0, x_new, out=x_new)
            np.add(x_first, x_new, out=x_new)
            x_start = x[:, :n]
            sa, sb, sc = a[:n], b[:n], c[:n]
            for k, (path, (i, j), start) in enumerate(zip(paths, _pairs(m), xx0)):
                tail = path[1 : n + 1]
                if zero[i] and zero[j]:  # every increment would be +0.0
                    tail[...] = start + 0.0
                    continue
                # incr = (h / 6.0) * (x_start[i] * s_sum[j] - x_start[j] * s_sum[i])
                #   + (h * h / 6.0) * ((u0[i] * u_mid[j] - u0[j] * u_mid[i]) + (u_mid[i] * u1[j] - u_mid[j] * u1[i]))
                # with tail as the fourth operand; then tail = start + cumsum(incr)
                np.multiply(x_start[i], s_sum[j], out=sa)
                np.multiply(x_start[j], s_sum[i], out=sb)
                np.subtract(sa, sb, out=sa)
                np.multiply(h / 6.0, sa, out=sa)
                np.multiply(u0[i], u_mid[j], out=sb)
                np.multiply(u0[j], u_mid[i], out=sc)
                np.subtract(sb, sc, out=sb)
                np.multiply(u_mid[i], u1[j], out=sc)
                np.multiply(u_mid[j], u1[i], out=tail)
                np.subtract(sc, tail, out=sc)
                np.add(sb, sc, out=sb)
                np.multiply(h * h / 6.0, sb, out=sb)
                np.add(sa, sb, out=sa)
                if k0:
                    sa[0] += path_sum[k]
                np.cumsum(sa, out=tail)
                path_sum[k] = tail[-1]
                np.add(start, tail, out=tail)
        if k1 == steps and not np.isfinite(block[: m + n_cross, n]).all():
            raise DomainError("inputs overflow the integrator: a state coordinate is not finite")
        inputs[:, : n + 1] = u_nodes
        return t_nodes

    k0, k1, n = 0, (steps - 1) % width + 1, 0
    while k0 < steps:
        if k0:
            block[:, 0] = block[:, n]
        n = k1 - k0
        yield advance(k0, k1), block[:, : n + 1]
        k0, k1 = k1, k1 + width


def _replay(legs, state, steps, blocks):
    """(interval, reparam, chunks) of each (inputs, interval) leg from ``state``, integrated into its block of ``blocks``.

    ``state`` is an ``NhiState`` or a ``GnhiState``.  A leg's chunks, those of
    ``_bilinear_chunks``, start where the leg before ended, in the last column
    of its block, so they must be consumed before the next leg's.
    """
    m, _, values = _coordinates(state)
    for (u, interval), block in zip(legs, blocks):
        u = tuple(u)
        if len(u) != m:
            if isinstance(state, NhiState):
                raise ValueError("the three-state model takes exactly two inputs")
            raise ValueError(f"state has m={m} direct coordinates but {len(u)} inputs given")
        interval = _infer_interval(u, interval)
        _check_simulable(u, interval)
        reparam = any(isinstance(sig, InputSignal) and sig.is_weighted for sig in u)
        yield interval, reparam, _bilinear_chunks(u, values[:m], values[m:], interval, reparam, steps, block)
        values = block[: len(values), -1].tolist()


def _trajectories(legs, state, steps) -> list[Trajectory]:
    """The ``Trajectory`` of each leg of ``_replay`` from ``state``, as one chunk in its slice of one block.

    The block has shape (legs, 2m + m(m-1)/2, steps + 1); its rows are the columns.
    """
    _check_steps(steps)
    m, names, _ = _coordinates(state)
    inputs = tuple(f"u{i + 1}" for i in range(m))
    block = np.empty((len(legs), m + len(names), steps + 1))
    return [
        Trajectory(
            t=t_nodes,
            columns=dict(zip((*names, *inputs), rows)),
            state_names=tuple(names),
            input_names=inputs,
            scheme="rk4_reparam" if reparam else "rk4",
            interval=interval,
        )
        for (interval, reparam, ((t_nodes, _),)), rows in zip(_replay(legs, state, steps, block), block)
    ]


def integrate_nhi(u, x0=NhiState(), interval=None, steps: int = 2000) -> Trajectory:
    """Integrate the three-state bilinear model driven by two inputs.

    This is the m = 2 case of ``integrate_gnhi`` with the cross coordinate
    named x3 instead of x12.
    """
    return _trajectories([(u, interval)], NhiState.from_array(x0), steps)[0]


def integrate_gnhi(u, s0: GnhiState, interval=None, steps: int = 2000) -> Trajectory:
    """Integrate the m-input generalization with all cross coordinates."""
    return _trajectories([(u, interval)], s0, steps)[0]


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
    if v.shape != (3,):
        raise ValueError("exp_rotation expects a 3-vector")
    return _exp_rotations(v[None])[0]


def _exp_rotations(v: np.ndarray) -> np.ndarray:
    """Rodrigues exponentials of every row of an (n, 3) array, as one (n, 3, 3) stack.

    The angle is a row-wise dot product, the way ``np.linalg.norm`` reduces
    one vector, and below 1e-8 sin(t)/t and (1-cos t)/t^2 come from their
    series, picked per row.  ``exp_rotation`` is its one-row case.
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


def _rotation_quaternion(mat: np.ndarray) -> tuple[float, float, float, float]:
    """Quaternion (w, x, y, z) of a 3x3 rotation matrix, either sign.

    Extracted from the largest of the trace and the three diagonal entries,
    which stays well-conditioned for angles near pi.
    """
    m = mat.tolist()
    tr = m[0][0] + m[1][1] + m[2][2]
    choices = [tr, m[0][0], m[1][1], m[2][2]]
    best = choices.index(max(choices))
    if best == 0:
        w = 0.5 * math.sqrt(max(1.0 + tr, 0.0))
        d = 4.0 * w
        return (w, (m[2][1] - m[1][2]) / d, (m[0][2] - m[2][0]) / d, (m[1][0] - m[0][1]) / d)
    i = best - 1
    j = (i + 1) % 3
    k = (i + 2) % 3
    s = math.sqrt(max(1.0 + m[i][i] - m[j][j] - m[k][k], 0.0))
    q = [0.0, 0.0, 0.0]
    q[i] = 0.5 * s
    q[j] = (m[j][i] + m[i][j]) / (2.0 * s)
    q[k] = (m[k][i] + m[i][k]) / (2.0 * s)
    return ((m[k][j] - m[j][k]) / (2.0 * s), q[0], q[1], q[2])


def _quaternion_product(p: tuple, q: tuple) -> tuple:
    """Hamilton product p q of quaternions (w, x, y, z); the matrix of p q is R(p) R(q)."""
    pw, px, py, pz = p
    qw, qx, qy, qz = q
    return (
        pw * qw - px * qx - py * qy - pz * qz,
        pw * qx + px * qw + py * qz - pz * qy,
        pw * qy - px * qz + py * qw + pz * qx,
        pw * qz + px * qy - py * qx + pz * qw,
    )


def _quaternion_log(q: tuple) -> tuple[float, float, float]:
    """Rotation vector of the unit quaternion q = (w, x, y, z), in plain floats.

    The sign with w >= 0 is taken; a vector part below 1e-12 gives 2 (x, y, z),
    and at a half-turn (w below 1e-12) the axis is the representative whose
    first nonzero component is positive.
    """
    w, x, y, z = q
    if w < 0.0:
        w, x, y, z = -w, -x, -y, -z
    s = math.sqrt(x * x + y * y + z * z)
    if s < 1e-12:
        return (2.0 * x, 2.0 * y, 2.0 * z)
    if w < 1e-12:
        first = x if x != 0.0 else y if y != 0.0 else z
        if first < 0.0:
            x, y, z = -x, -y, -z
    scale = 2.0 * math.atan2(s, w) / s
    return (scale * x, scale * y, scale * z)


def log_rotation(mat, accept_pi_tiebreak: bool = False) -> np.ndarray:
    """Rotation vector v with exp_rotation(v) equal to the given matrix.

    The matrix's quaternion (``_rotation_quaternion``) goes through
    ``_quaternion_log``.  At an angle of exactly pi the sign of the axis is
    not determined by the matrix; that raises ``AmbiguityError`` unless
    ``accept_pi_tiebreak`` picks the representative whose first nonzero
    axis component is positive.
    """
    if isinstance(mat, Rotation):
        mat = mat.matrix
    mat = np.asarray(mat, dtype=float)
    if mat.shape != (3, 3):
        raise ValueError("log_rotation expects a 3x3 matrix")
    w, x, y, z = q = _rotation_quaternion(mat)
    if not accept_pi_tiebreak and abs(w) < 1e-12 <= math.sqrt(x * x + y * y + z * z):
        raise AmbiguityError(
            "rotation angle is pi; the axis sign is ambiguous "
            "(pass accept_pi_tiebreak=True to pick a representative)"
        )
    return np.array(_quaternion_log(q))


def project_rotation(mat) -> np.ndarray:
    """Closest rotation matrix in the Frobenius sense (polar factor)."""
    u, _, vt = np.linalg.svd(np.asarray(mat, dtype=float))
    r = u @ vt
    if np.linalg.det(r) < 0:
        u[:, -1] = -u[:, -1]
        r = u @ vt
    return r


_SQ3 = np.sqrt(3.0)


def integrate_so3(omega, g0=None, interval=(0.0, 1.0), steps: int = 2000) -> Trajectory:
    """Integrate g' = hat(omega(t)) g and sample the matrix entries.

    ``omega`` is a triple of scalar rate callables.  Each step is the
    two-stage fourth-order Magnus/commutator step (exact for constant
    rates), which moves by a rotation exponential, so every sample stays on
    the group to roundoff; drift is checked every 256 steps and at the end,
    and a state more than 1e-12 off the group is polar-projected back.

    The step vectors of all steps and their exponentials are built at once,
    as one (steps, 3, 3) stack; the loop only multiplies the running
    product.  The commutator term is (√3/12) h^2 (w_a x w_b); where h^2
    overflows, as at durations near 1e300, it is (√3/12) (h w_a) x (h w_b),
    so tiny rates over a huge interval integrate as their rescaled problem
    does.  Non-finite interval bounds or rate values raise ``DomainError``.
    """
    omega = tuple(omega)
    if len(omega) != 3:
        raise ValueError("omega must be a triple of rate callables")
    _check_steps(steps)
    if g0 is None:
        g0 = Rotation.identity()
    if not isinstance(g0, Rotation):
        g0 = Rotation(np.asarray(g0, dtype=float))
    lo, hi = _infer_interval((), interval)
    h = (hi - lo) / steps
    t_nodes = np.linspace(lo, hi, steps + 1)
    stage_times = (t_nodes[:-1] + (0.5 - _SQ3 / 6.0) * h, t_nodes[:-1] + (0.5 + _SQ3 / 6.0) * h)
    with np.errstate(over="ignore", invalid="ignore"):
        rates = _stacked_values(omega, np.concatenate((t_nodes, *stage_times)))
        if not np.isfinite(rates).all():
            raise DomainError("rates must be finite on the interval")
        w_nodes, wa, wb = np.split(rates, [steps + 1, 2 * steps + 1], axis=1)
        hh = (_SQ3 / 12.0) * h * h  # past h ~ 1e154 this overflows: cross the step angles h * w instead
        cross = hh * np.cross(wa.T, wb.T) if math.isfinite(hh) else (_SQ3 / 12.0) * np.cross(h * wa.T, h * wb.T)
        steps_vec = 0.5 * h * (wa + wb).T - cross
        rots = _exp_rotations(steps_vec)
    if not np.isfinite(rots).all():
        raise DomainError("rates overflow the integrator: a step rotation is not finite")
    samples = np.empty((steps + 1, 3, 3))
    samples[0] = g0.matrix
    g = samples[0]
    eye = np.eye(3)
    # the running product is the only sequential part; each step writes its sample in place,
    # and each full chunk of 256 steps ends in the drift check
    for first in range(0, steps, 256):
        for rot, out in zip(rots[first : first + 256], samples[first + 1 : first + 257]):
            g = rot.dot(g, out)
        if first + 256 <= steps and np.max(np.abs(g.T @ g - eye)) > 1e-12:
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
        columns[name] = w_nodes[idx].copy()
    return Trajectory(
        t=t_nodes,
        columns=columns,
        state_names=tuple(state_names),
        input_names=input_names,
        scheme="magnus4",
        interval=(lo, hi),
    )
