"""Constructive steering of the bilinear models by orthogonal-family pairs.

The planner moves the direct coordinates with constant inputs (the cross
coordinates pick up an exactly computable byproduct), then drives each cross
coordinate with a zero-mean odd/even pair of family elements scaled so the
coupling displacement lands on the target.  Because every pair input has
zero mean and definite parity, the direct coordinates return to where they
started and untargeted cross coordinates provably do not move at all; the
predicted endpoints are exact, not approximations.

A negative cross target is handled by swapping which channel carries the
odd shape, which flips the sign of the coupling displacement.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import CapabilityError, IntegrabilityError, PlannerError
from .orthopoly import (
    CANONICAL_INTERVAL,
    CHEBYSHEV_FIRST,
    CHEBYSHEV_SECOND,
    JACOBI,
    LEGENDRE,
    TRIG_COS,
    TRIG_SIN,
    BasisElement,
    InputSignal,
    Term,
    basis_signal,
    constant_signal,
    element_parity,
    inner_product,
    scale_signal,
)
from .dynamics import (
    GnhiState,
    NhiState,
    Trajectory,
    coupling_displacement,
    integrate_gnhi,
    integrate_nhi,
    pair_names,
)

__all__ = [
    "PLAN_FAMILIES",
    "Phase",
    "SteeringPlan",
    "SimulationResult",
    "default_pair",
    "pair_signals",
    "plan_nhi",
    "plan_gnhi",
    "scale_pair",
    "simulate_plan",
]

PLAN_FAMILIES = (LEGENDRE, CHEBYSHEV_FIRST, CHEBYSHEV_SECOND, "trig", JACOBI)

_WEIGHTED_FAMILIES = (CHEBYSHEV_FIRST, CHEBYSHEV_SECOND, JACOBI)

_ZERO_COUPLING = 1e-14

_coupling_cache: dict = {}


def default_pair(family: str) -> tuple[int, int]:
    """The lowest usable index pair: (1, 2) for polynomials, (1, 1) for trig."""
    return (1, 1) if family == "trig" else (1, 2)


def pair_signals(
    family: str,
    pair=None,
    interval=CANONICAL_INTERVAL,
    jacobi_params=None,
) -> tuple[InputSignal, InputSignal]:
    """Unit-scale (odd, even) zero-mean signals for a planner family.

    For ``trig`` the pair means (sine index, cosine index); for polynomial
    families the two indices must have opposite parity and the elements of
    singular-weight families carry their own weight so that both signals
    integrate to zero.
    """
    if family not in PLAN_FAMILIES:
        raise ValueError(f"family must be one of {PLAN_FAMILIES}")
    if pair is None:
        pair = default_pair(family)
    i, j = int(pair[0]), int(pair[1])
    interval = (float(interval[0]), float(interval[1]))
    if family == "trig":
        if j == 0:
            raise ValueError("cosine index 0 is constant and cannot steer")
        odd = basis_signal(TRIG_SIN, i, interval=interval)
        even = basis_signal(TRIG_COS, j, interval=interval)
        return odd, even
    if i == 0 or j == 0:
        raise ValueError("index 0 is the constant element and cannot steer")
    if family == JACOBI:
        if jacobi_params is None:
            raise ValueError("jacobi pairs need jacobi_params")
        alpha, beta = map(float, jacobi_params)
        if alpha != beta:
            raise ValueError(
                "jacobi pairs require alpha == beta so elements have definite parity"
            )
    weighted = family in _WEIGHTED_FAMILIES
    sig_i = basis_signal(family, i, interval=interval, weighted=weighted, jacobi_params=jacobi_params)
    sig_j = basis_signal(family, j, interval=interval, weighted=weighted, jacobi_params=jacobi_params)
    par_i = element_parity(sig_i.terms[0].element)
    par_j = element_parity(sig_j.terms[0].element)
    if par_i == par_j:
        raise ValueError(f"pair {pair} has equal parity and zero coupling by symmetry")
    odd, even = (sig_i, sig_j) if par_i == -1 else (sig_j, sig_i)
    if (odd.is_singular or even.is_singular) and interval != CANONICAL_INTERVAL:
        raise CapabilityError(
            "singular-weight pairs are only supported on the canonical interval"
        )
    return odd, even


def _pair_coupling(family, pair, interval, jacobi_params) -> float:
    params = None if jacobi_params is None else tuple(float(x) for x in jacobi_params)
    key = (family, tuple(pair), interval, params)
    if key not in _coupling_cache:
        odd, even = pair_signals(family, pair, interval, jacobi_params)
        _coupling_cache[key] = coupling_displacement(odd, even, interval)
    return _coupling_cache[key]


def _signal_energy(sig: InputSignal) -> float:
    if not sig.terms:
        return 0.0
    try:
        return inner_product(sig, sig)
    except IntegrabilityError:
        return math.inf


@dataclass(frozen=True)
class Phase:
    """One leg of a plan: inputs on an interval plus its exact effect."""

    interval: tuple[float, float]
    inputs: tuple[InputSignal, ...]
    moves: tuple[str, ...]
    fixes: tuple[str, ...]
    endpoint: dict

    def to_json_dict(self) -> dict:
        return {
            "interval": list(self.interval),
            "inputs": [sig.to_json_dict() for sig in self.inputs],
            "moves": list(self.moves),
            "fixes": list(self.fixes),
            "endpoint": {k: float(v) for k, v in self.endpoint.items()},
        }

    @staticmethod
    def from_json_dict(data: dict) -> "Phase":
        return Phase(
            interval=tuple(float(x) for x in data["interval"]),
            inputs=tuple(InputSignal.from_json_dict(d) for d in data["inputs"]),
            moves=tuple(data["moves"]),
            fixes=tuple(data["fixes"]),
            endpoint={k: float(v) for k, v in data["endpoint"].items()},
        )


@dataclass(frozen=True)
class SteeringPlan:
    """A sequence of phases with exact predicted endpoint and input energy.

    ``cost`` is the plain integral of the squared inputs summed over phases;
    plans whose inputs carry an inverse-square-root endpoint weight have
    infinite energy (their virtue is elsewhere), recorded as ``math.inf``.
    ``closed_form`` marks plans produced by an analytic construction rather
    than the generic planner.
    """

    system: str
    family: str
    interval: tuple[float, float]
    initial: dict
    phases: tuple[Phase, ...]
    predicted_endpoint: dict
    cost: float
    closed_form: str | None = None

    def to_json_dict(self) -> dict:
        out = {
            "system": self.system,
            "family": self.family,
            "interval": list(self.interval),
            "initial_state": {k: float(v) for k, v in self.initial.items()},
            "phases": [ph.to_json_dict() for ph in self.phases],
            "predicted_endpoint": {k: float(v) for k, v in self.predicted_endpoint.items()},
            "cost": None if math.isinf(self.cost) else float(self.cost),
        }
        if self.closed_form is not None:
            out["closed_form"] = self.closed_form
        return out

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2) + "\n"

    @staticmethod
    def from_json_dict(data: dict) -> "SteeringPlan":
        cost = data.get("cost")
        return SteeringPlan(
            system=data["system"],
            family=data["family"],
            interval=tuple(float(x) for x in data["interval"]),
            initial={k: float(v) for k, v in data["initial_state"].items()},
            phases=tuple(Phase.from_json_dict(d) for d in data["phases"]),
            predicted_endpoint={k: float(v) for k, v in data["predicted_endpoint"].items()},
            cost=math.inf if cost is None else float(cost),
            closed_form=data.get("closed_form"),
        )

    @staticmethod
    def from_json(text: str) -> "SteeringPlan":
        return SteeringPlan.from_json_dict(json.loads(text))


def _two_channel_phases(x0_vals, xf_vals, names, family, pair, interval, jacobi_params):
    """Shared planner core for the three-state model (any coordinate naming)."""
    lo, hi = interval
    duration = hi - lo
    n1, n2, n3 = names
    phases: list[Phase] = []
    cost = 0.0
    cur = list(x0_vals)
    dx1 = xf_vals[0] - cur[0]
    dx2 = xf_vals[1] - cur[1]
    if dx1 != 0.0 or dx2 != 0.0:
        v1 = dx1 / duration
        v2 = dx2 / duration
        u1 = constant_signal(family if family != "trig" else TRIG_COS, v1, interval, jacobi_params)
        u2 = constant_signal(family if family != "trig" else TRIG_COS, v2, interval, jacobi_params)
        byproduct = cur[0] * dx2 - cur[1] * dx1
        cur = [xf_vals[0], xf_vals[1], cur[2] + byproduct]
        moves = tuple(
            name
            for name, changed in ((n1, dx1 != 0.0), (n2, dx2 != 0.0), (n3, byproduct != 0.0))
            if changed
        )
        fixes = tuple(n for n in names if n not in moves)
        phases.append(
            Phase(
                interval=interval,
                inputs=(u1, u2),
                moves=moves,
                fixes=fixes,
                endpoint={n1: cur[0], n2: cur[1], n3: cur[2]},
            )
        )
        cost += (v1 * v1 + v2 * v2) * duration
    delta3 = xf_vals[2] - cur[2]
    if delta3 != 0.0:
        odd, even = pair_signals(family, pair, interval, jacobi_params)
        coupling = _pair_coupling(family, pair if pair is not None else default_pair(family), interval, jacobi_params)
        if abs(coupling) < _ZERO_COUPLING:
            raise PlannerError(
                f"pair {pair} of family {family!r} has zero coupling displacement"
            )
        ratio = delta3 / coupling
        s = math.sqrt(abs(ratio))
        if ratio >= 0.0:
            u1, u2 = scale_signal(odd, s), scale_signal(even, s)
        else:
            u1, u2 = scale_signal(even, s), scale_signal(odd, s)
        cur = [cur[0], cur[1], xf_vals[2]]
        phases.append(
            Phase(
                interval=interval,
                inputs=(u1, u2),
                moves=(n3,),
                fixes=(n1, n2),
                endpoint={n1: cur[0], n2: cur[1], n3: cur[2]},
            )
        )
        cost += _signal_energy(u1) + _signal_energy(u2)
    predicted = {n1: cur[0], n2: cur[1], n3: cur[2]}
    return tuple(phases), predicted, cost


def plan_nhi(
    x0,
    xf,
    family: str = LEGENDRE,
    pair=None,
    interval=None,
    jacobi_params=None,
) -> SteeringPlan:
    """Steer the three-state model from x0 to xf exactly.

    Phase one translates (x1, x2) with constant inputs; phase two drives x3
    with a scaled zero-mean odd/even pair, leaving (x1, x2) fixed.  Either
    phase is omitted when its targets are already met.
    """
    if not isinstance(x0, NhiState):
        x0 = NhiState.from_array(np.asarray(x0, dtype=float))
    if not isinstance(xf, NhiState):
        xf = NhiState.from_array(np.asarray(xf, dtype=float))
    interval = CANONICAL_INTERVAL if interval is None else (float(interval[0]), float(interval[1]))
    phases, predicted, cost = _two_channel_phases(
        (x0.x1, x0.x2, x0.x3),
        (xf.x1, xf.x2, xf.x3),
        ("x1", "x2", "x3"),
        family,
        pair,
        interval,
        jacobi_params,
    )
    return SteeringPlan(
        system="nhi",
        family=family,
        interval=interval,
        initial={"x1": x0.x1, "x2": x0.x2, "x3": x0.x3},
        phases=phases,
        predicted_endpoint=predicted,
        cost=cost,
    )


def plan_gnhi(
    s0,
    sf,
    family: str = LEGENDRE,
    interval=None,
    pair=None,
    jacobi_params=None,
) -> SteeringPlan:
    """Steer the m-input generalization through all its cross coordinates.

    After a constant translation phase, cross coordinates are cleared row by
    row: phase i drives channel i with the odd shape and every channel k > i
    with one common even shape, so the only cross coordinates that move are
    exactly the (i, k) targets — all other pairs cancel pointwise or by the
    zero mean of the shapes.
    """
    if not isinstance(s0, GnhiState):
        raise ValueError("s0 must be a GnhiState")
    if not isinstance(sf, GnhiState):
        raise ValueError("sf must be a GnhiState")
    m = s0.m
    if sf.m != m:
        raise ValueError("initial and target states have different m")
    if m > 8:
        raise CapabilityError("at most eight input channels are supported")
    interval = CANONICAL_INTERVAL if interval is None else (float(interval[0]), float(interval[1]))
    names = [f"x{i + 1}" for i in range(m)] + pair_names(m)
    if m == 2:
        phases, predicted, cost = _two_channel_phases(
            (s0.x[0], s0.x[1], s0.xx[0, 1]),
            (sf.x[0], sf.x[1], sf.xx[0, 1]),
            ("x1", "x2", "x12"),
            family,
            pair,
            interval,
            jacobi_params,
        )
        return SteeringPlan(
            system="gnhi",
            family=family,
            interval=interval,
            initial=dict(zip(names, s0.flat())),
            phases=phases,
            predicted_endpoint=predicted,
            cost=cost,
        )
    lo, hi = interval
    duration = hi - lo
    const_family = TRIG_COS if family == "trig" else family
    phases: list[Phase] = []
    cost = 0.0
    cur_x = s0.x.copy()
    cur_xx = s0.xx.copy()

    def state_dict():
        vals = list(cur_x) + [cur_xx[i, j] for i in range(m) for j in range(i + 1, m)]
        return dict(zip(names, (float(v) for v in vals)))

    dx = sf.x - cur_x
    if np.any(dx != 0.0):
        inputs = tuple(
            constant_signal(const_family, dx[i] / duration, interval, jacobi_params)
            for i in range(m)
        )
        moves = [f"x{i + 1}" for i in range(m) if dx[i] != 0.0]
        for i in range(m):
            for j in range(i + 1, m):
                byproduct = cur_x[i] * dx[j] - cur_x[j] * dx[i]
                if byproduct != 0.0:
                    moves.append(f"x{i + 1}{j + 1}")
                cur_xx[i, j] += byproduct
                cur_xx[j, i] -= byproduct
        cur_x = sf.x.copy()
        fixes = tuple(n for n in names if n not in moves)
        phases.append(
            Phase(
                interval=interval,
                inputs=inputs,
                moves=tuple(moves),
                fixes=fixes,
                endpoint=state_dict(),
            )
        )
        cost += float(np.sum((dx / duration) ** 2)) * duration
    odd, even = pair_signals(family, pair, interval, jacobi_params)
    coupling = _pair_coupling(family, pair if pair is not None else default_pair(family), interval, jacobi_params)
    if abs(coupling) < _ZERO_COUPLING:
        raise PlannerError(f"pair {pair} of family {family!r} has zero coupling displacement")
    zero = InputSignal(terms=(), interval=interval)
    for i in range(m - 1):
        deltas = {k: sf.xx[i, k] - cur_xx[i, k] for k in range(i + 1, m)}
        if all(v == 0.0 for v in deltas.values()):
            continue
        s_i = math.sqrt(max(abs(v) for v in deltas.values()) / abs(coupling))
        inputs = [zero] * m
        inputs[i] = scale_signal(odd, s_i)
        moves = []
        for k in range(i + 1, m):
            s_k = deltas[k] / (s_i * coupling)
            inputs[k] = scale_signal(even, s_k)
            if deltas[k] != 0.0:
                moves.append(f"x{i + 1}{k + 1}")
            cur_xx[i, k] += deltas[k]
            cur_xx[k, i] -= deltas[k]
        fixes = tuple(n for n in names if n not in moves)
        phases.append(
            Phase(
                interval=interval,
                inputs=tuple(inputs),
                moves=tuple(moves),
                fixes=fixes,
                endpoint=state_dict(),
            )
        )
        cost += sum(_signal_energy(sig) for sig in inputs)
    predicted = state_dict()
    return SteeringPlan(
        system="gnhi",
        family=family,
        interval=interval,
        initial=dict(zip(names, s0.flat())),
        phases=tuple(phases),
        predicted_endpoint=predicted,
        cost=cost,
    )


def scale_pair(u1, u2, target: float, interval=None) -> tuple[float, float]:
    """Scales (s1, s2) so that (s1 u1, s2 u2) moves the cross coordinate by target.

    Uses the sign-carrying convention: s1 = sqrt(|c|) and s2 = sign(c) sqrt(|c|)
    with c = target / coupling_displacement(u1, u2).
    """
    target = float(target)
    if target == 0.0:
        return (0.0, 0.0)
    coupling = coupling_displacement(u1, u2, interval)
    if abs(coupling) < _ZERO_COUPLING:
        raise PlannerError("the pair has zero coupling displacement; it cannot steer")
    ratio = target / coupling
    root = math.sqrt(abs(ratio))
    return (root, math.copysign(root, ratio))


@dataclass
class SimulationResult:
    """Per-phase trajectories plus the merged time series and final state."""

    trajectories: list[Trajectory]
    merged: Trajectory
    terminal: dict


def _merge_trajectories(trajs: list[Trajectory], names, input_names) -> Trajectory:
    offset = 0.0
    t_parts = []
    col_parts: dict[str, list[np.ndarray]] = {n: [] for n in (*names, *input_names)}
    for idx, tr in enumerate(trajs):
        lo = tr.interval[0]
        sel = slice(1, None) if idx > 0 else slice(None)
        t_parts.append(offset + (tr.t[sel] - lo))
        for n in (*names, *input_names):
            col_parts[n].append(tr.columns[n][sel])
        offset += tr.interval[1] - tr.interval[0]
    schemes = {tr.scheme for tr in trajs}
    return Trajectory(
        t=np.concatenate(t_parts),
        columns={n: np.concatenate(parts) for n, parts in col_parts.items()},
        state_names=tuple(names),
        input_names=tuple(input_names),
        scheme=schemes.pop() if len(schemes) == 1 else "mixed",
        interval=(0.0, offset),
    )


def simulate_plan(plan: SteeringPlan, steps: int = 4000) -> SimulationResult:
    """Integrate every phase of a plan in sequence from its stored start state."""
    if plan.system == "nhi":
        names = ("x1", "x2", "x3")
        state = NhiState(plan.initial["x1"], plan.initial["x2"], plan.initial["x3"])
        input_names = ("u1", "u2")
        trajs = []
        for phase in plan.phases:
            tr = integrate_nhi(phase.inputs, state, interval=phase.interval, steps=steps)
            trajs.append(tr)
            end = tr.terminal
            state = NhiState(end["x1"], end["x2"], end["x3"])
        if not trajs:
            zero = InputSignal(terms=(), interval=plan.interval)
            trajs = [integrate_nhi((zero, zero), state, interval=plan.interval, steps=steps)]
        merged = _merge_trajectories(trajs, names, input_names)
        return SimulationResult(trajectories=trajs, merged=merged, terminal=trajs[-1].terminal)
    if plan.system == "gnhi":
        names = tuple(plan.predicted_endpoint.keys())
        m = sum(1 for n in names if len(n) == 2)
        state = GnhiState.from_flat(m, [plan.initial[n] for n in names])
        input_names = tuple(f"u{i + 1}" for i in range(m))
        trajs = []
        for phase in plan.phases:
            tr = integrate_gnhi(phase.inputs, state, interval=phase.interval, steps=steps)
            trajs.append(tr)
            end = tr.terminal
            state = GnhiState.from_flat(m, [end[n] for n in names])
        if not trajs:
            zero = InputSignal(terms=(), interval=plan.interval)
            trajs = [
                integrate_gnhi(tuple([zero] * m), state, interval=plan.interval, steps=steps)
            ]
        merged = _merge_trajectories(trajs, names, input_names)
        return SimulationResult(trajectories=trajs, merged=merged, terminal=trajs[-1].terminal)
    raise ValueError(f"unknown plan system {plan.system!r}")
