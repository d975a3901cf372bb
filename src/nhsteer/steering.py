"""Constructive steering of the bilinear models by orthogonal-family pairs.

One planner core, ``_plan_bilinear``, serves every m >= 2; ``plan_gnhi``
calls it with cross coordinates x12, x13, ... and ``plan_nhi`` is its m = 2
view with x12 named x3.  The core moves the direct coordinates with constant
inputs (the cross coordinates pick up an exactly computable byproduct), then
drives each cross coordinate with a zero-mean odd/even pair of family
elements scaled so the coupling displacement lands on the target.  Because
every pair input has zero mean and definite parity, the direct coordinates
return to where they started and untargeted cross coordinates provably do
not move at all; the predicted endpoints are exact, not approximations.

For m = 2 both channels carry one balanced scale, and a negative target is
handled by swapping which channel carries the odd shape, which flips the
sign of the coupling displacement.  ``simulate_plan`` replays either kind of
plan through the matching public integrator, every phase writing into its
slice of one block.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
from dataclasses import dataclass

import numpy as np

from . import _planfile
from .errors import CapabilityError, DomainError, IntegrabilityError, PlannerError
from .orthopoly import (
    CANONICAL_INTERVAL,
    CHEBYSHEV_FIRST,
    CHEBYSHEV_SECOND,
    JACOBI,
    LEGENDRE,
    TRIG_COS,
    TRIG_SIN,
    InputSignal,
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
    _MIN_STEPS,
    _check_simulable,
    _pairs,
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
# The simulator's cross update forms x_i (u0 + 4 u_mid + u1)_j, six times
# x_i u_j, and subtracts two such products.
_CROSS_UPDATE_FACTOR = 12.0


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
    weighted = family in _WEIGHTED_FAMILIES
    sig_i = basis_signal(family, i, interval=interval, weighted=weighted, jacobi_params=jacobi_params)
    sig_j = basis_signal(family, j, interval=interval, weighted=weighted, jacobi_params=jacobi_params)
    par_i = element_parity(sig_i.terms[0].element)
    par_j = element_parity(sig_j.terms[0].element)
    if par_i is None:
        raise ValueError("jacobi pairs require alpha == beta so elements have definite parity")
    if par_i == par_j:
        raise ValueError(f"pair {pair} has equal parity and zero coupling by symmetry")
    odd, even = (sig_i, sig_j) if par_i == -1 else (sig_j, sig_i)
    if (odd.is_singular or even.is_singular) and interval != CANONICAL_INTERVAL:
        raise CapabilityError(
            "singular-weight pairs are only supported on the canonical interval"
        )
    return odd, even


def _nonzero_coupling(coupling: float, what: str = "the pair") -> float:
    """The coupling a caller computed, checked.

    ``DomainError`` if it overflowed, ``PlannerError`` if it is too small to steer with.
    """
    if not math.isfinite(coupling):
        raise DomainError(f"the coupling displacement of {what} is not finite: it is {coupling!r}")
    if abs(coupling) < _ZERO_COUPLING:
        raise PlannerError(f"{what} has zero coupling displacement; it cannot steer")
    return coupling


def _signal_energy(sig: InputSignal) -> float:
    """The plain energy of ``sig``: infinite for a non-integrable weight; an overflow raises ``DomainError``."""
    try:
        with np.errstate(over="ignore"):
            energy = inner_product(sig, sig)
    except IntegrabilityError:
        return math.inf
    if not math.isfinite(energy):
        raise DomainError("the target is too far: the input energy overflows")
    return energy


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
    def from_json_dict(data, names) -> "Phase":
        """Rebuild a phase of a plan whose coordinates are ``names``; its endpoint names them all, in order."""
        data = _planfile.document(data)
        return Phase(
            interval=data.reals("interval", 2),
            inputs=data.items("inputs", InputSignal.from_json_dict),
            moves=data.names("moves", names),
            fixes=data.names("fixes", names),
            endpoint=data.mapping("endpoint", names),
        )


def _phase(interval, inputs, names, values, moves) -> Phase:
    """A phase that moves ``moves``, fixes the other ``names``, ends at ``values`` and can be simulated."""
    _check_simulable(inputs, interval)
    if not all(map(math.isfinite, [*values, *(term.scale for sig in inputs for term in sig.terms)])):
        raise DomainError("the target is too far: an input scale or the endpoint overflows")
    return Phase(
        interval=interval,
        inputs=tuple(inputs),
        moves=tuple(moves),
        fixes=tuple(n for n in names if n not in moves),
        endpoint=dict(zip(names, values)),
    )


def _plan_coordinates(system: str, names) -> list[str]:
    """A plan's coordinates in order; for gnhi, those of the m channels that ``names`` has room for."""
    if system == "nhi":
        return ["x1", "x2", "x3"]
    if system == "gnhi":
        m = (math.isqrt(8 * len(names) + 1) - 1) // 2  # m(m + 1)/2 <= len(names): built no larger
        return [f"x{i + 1}" for i in range(m)] + pair_names(m)
    raise ValueError(f"unknown plan system {system!r}")


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
    def from_json_dict(data) -> "SteeringPlan":
        """Rebuild a plan; its start and endpoint must name the system's coordinates in order."""
        data = _planfile.document(data)
        system = data.choice("system", ("nhi", "gnhi"))
        names = _plan_coordinates(system, data.child("initial_state").value)
        return SteeringPlan(
            system=system,
            family=data.choice("family", PLAN_FAMILIES),
            interval=data.reals("interval", 2),
            initial=data.mapping("initial_state", names),
            phases=data.items("phases", lambda phase: Phase.from_json_dict(phase, names)),
            predicted_endpoint=data.mapping("predicted_endpoint", names),
            cost=math.inf if data.value.get("cost") is None else data.real("cost"),
            closed_form=data.choice("closed_form") if "closed_form" in data.value else None,
        )

    @staticmethod
    def from_json(text: str) -> "SteeringPlan":
        return SteeringPlan.from_json_dict(json.loads(text))


def _check_cross_updates(x_scale, u_scale, pairs, cross_name) -> None:
    """``DomainError`` naming the first cross coordinate whose update overflows the simulator.

    ``x_scale`` bounds each direct coordinate over a phase and ``u_scale``
    is each channel's input scale; the update of x_ij needs twelve times
    x_i u_j and x_j u_i to be finite.
    """
    if math.isfinite(_CROSS_UPDATE_FACTOR * max(x_scale) * max(u_scale)):
        return
    for i, j in pairs:
        for a, b in ((i, j), (j, i)):
            if not math.isfinite(_CROSS_UPDATE_FACTOR * x_scale[a] * u_scale[b]):
                raise DomainError(
                    f"the target is too far: x{a + 1} u{b + 1} in the update of "
                    f"{cross_name[i, j]} overflows the simulator"
                )


def _plan_bilinear(system, start, target, cross_names, family, pair, interval, jacobi_params):
    """Shared planner for every m >= 2; ``plan_nhi`` and ``plan_gnhi`` are views.

    ``start`` and ``target`` are flat lists of floats, the m direct
    coordinates then the cross coordinates in the order of ``_pairs(m)``;
    ``cross_names`` names the cross coordinates.  The pair is validated up
    front for every m, but its coupling is only computed once a pair phase
    runs, so translation-only targets never need it.
    """
    interval = CANONICAL_INTERVAL if interval is None else (float(interval[0]), float(interval[1]))
    odd, even = pair_signals(family, pair, interval, jacobi_params)
    m = len(start) - len(cross_names)
    pairs = _pairs(m)
    names = [f"x{i + 1}" for i in range(m)] + list(cross_names)
    cross_name = dict(zip(pairs, cross_names))
    duration = interval[1] - interval[0]
    const_family = TRIG_COS if family == "trig" else family
    cur_x = list(start[:m])
    cur_xx = dict(zip(pairs, start[m:]))
    target_xx = dict(zip(pairs, target[m:]))
    phases: list[Phase] = []
    cost = 0.0

    dx = [xf - x for xf, x in zip(target[:m], cur_x)]
    if any(d != 0.0 for d in dx):
        v = [d / duration for d in dx]
        moves = [f"x{i + 1}" for i in range(m) if dx[i] != 0.0]
        for i, j in pairs:
            byproduct = cur_x[i] * dx[j] - cur_x[j] * dx[i]
            if byproduct != 0.0:
                moves.append(cross_name[i, j])
            cur_xx[i, j] += byproduct
        cur_x = list(target[:m])
        inputs = [constant_signal(const_family, vi, interval, jacobi_params) for vi in v]
        phases.append(_phase(interval, inputs, names, [*cur_x, *cur_xx.values()], moves))
        # np.sum, not sum: from m = 8 on its pairwise order sets the last digit
        with np.errstate(over="ignore"):
            cost += float(np.sum(np.square(v))) * duration
        if not math.isfinite(cost):
            raise DomainError("the translation is too far: its input energy overflows")
        # constant inputs move each direct coordinate in a line
        x_scale = [max(abs(x), abs(xf)) for x, xf in zip(start[:m], target[:m])]
        _check_cross_updates(x_scale, [abs(vi) for vi in v], pairs, cross_name)
    coupling = None
    zero = InputSignal(terms=(), interval=interval)
    for i, row in itertools.groupby(pairs, key=lambda ij: ij[0]):
        deltas = {k: target_xx[i, k] - cur_xx[i, k] for _, k in row}
        if all(d == 0.0 for d in deltas.values()):
            continue
        if coupling is None:
            coupling = _nonzero_coupling(
                coupling_displacement(odd, even, interval), f"pair {pair} of family {family!r}"
            )
        if m == 2:
            # one balanced scale on both channels, swapped for a negative target,
            # and the endpoint set to the target itself (m >= 3 adds the delta)
            ratio = deltas[1] / coupling
            scale = math.sqrt(abs(ratio))
            inputs = [scale_signal(odd, scale), scale_signal(even, scale)]
            if ratio < 0.0:
                inputs.reverse()
            cur_xx[0, 1] = target_xx[0, 1]
        else:
            s_i = math.sqrt(max(abs(d) for d in deltas.values()) / abs(coupling))
            inputs = [zero] * m
            inputs[i] = scale_signal(odd, s_i)
            for k, d in deltas.items():
                inputs[k] = scale_signal(even, d / (s_i * coupling))
                cur_xx[i, k] += d
        moves = [cross_name[i, k] for k, d in deltas.items() if d != 0.0]
        phases.append(_phase(interval, inputs, names, [*cur_x, *cur_xx.values()], moves))
        energies = [_signal_energy(sig) for sig in inputs]
        if math.inf not in energies and math.isinf(sum(energies)):
            raise DomainError("the target is too far: the input energy overflows")
        # a direct coordinate leaves cur_x by at most its input scale times the duration
        u_scale = [sum(abs(term.scale) for term in sig.terms) for sig in inputs]
        _check_cross_updates([abs(x) + u * duration for x, u in zip(cur_x, u_scale)], u_scale, pairs, cross_name)
        cost += sum(energies)
    return SteeringPlan(
        system=system,
        family=family,
        interval=interval,
        initial=dict(zip(names, start)),
        phases=tuple(phases),
        predicted_endpoint=dict(zip(names, [*cur_x, *cur_xx.values()])),
        cost=cost,
    )


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
    phase is omitted when its targets are already met.  This is the m = 2
    case of ``plan_gnhi`` with the cross coordinate named x3 instead of x12.
    """
    if not isinstance(x0, NhiState):
        x0 = NhiState.from_array(np.asarray(x0, dtype=float))
    if not isinstance(xf, NhiState):
        xf = NhiState.from_array(np.asarray(xf, dtype=float))
    start, target = [x0.x1, x0.x2, x0.x3], [xf.x1, xf.x2, xf.x3]
    return _plan_bilinear("nhi", start, target, ["x3"], family, pair, interval, jacobi_params)


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
    zero mean of the shapes.  For m = 2 the single pair phase scales both
    channels by one common factor instead and swaps them for a negative
    target, exactly as ``plan_nhi`` does.
    """
    if not isinstance(s0, GnhiState):
        raise ValueError("s0 must be a GnhiState")
    if not isinstance(sf, GnhiState):
        raise ValueError("sf must be a GnhiState")
    if sf.m != s0.m:
        raise ValueError("initial and target states have different m")
    start, target, cross = s0.flat().tolist(), sf.flat().tolist(), pair_names(s0.m)
    return _plan_bilinear("gnhi", start, target, cross, family, pair, interval, jacobi_params)


def scale_pair(u1, u2, target: float, interval=None) -> tuple[float, float]:
    """Scales (s1, s2) so that (s1 u1, s2 u2) moves the cross coordinate by target.

    Uses the sign-carrying convention: s1 = sqrt(|c|) and s2 = sign(c) sqrt(|c|)
    with c = target / coupling_displacement(u1, u2).
    """
    target = float(target)
    if target == 0.0:
        return (0.0, 0.0)
    with np.errstate(over="ignore", invalid="ignore"):
        coupling = _nonzero_coupling(coupling_displacement(u1, u2, interval))
    ratio = target / coupling
    root = math.sqrt(abs(ratio))
    return (root, math.copysign(root, ratio))


@dataclass
class SimulationResult:
    """Per-phase trajectories and the final state; ``merged``, the phases end to end, is built on first access.

    The columns of every phase are rows of the one block ``simulate_plan``
    allocated, so keeping one phase's trajectory (or one column) keeps the
    whole simulation's block alive; copy a column to keep it alone.
    """

    trajectories: list[Trajectory]
    terminal: dict

    def _end_to_end(self):
        """Each phase on the joint time axis, without the sample it shares with the phase before."""
        offset = 0.0
        for idx, tr in enumerate(self.trajectories):
            lo, hi = tr.interval
            sel = slice(1, None) if idx > 0 else slice(None)
            yield Trajectory(
                t=offset + (tr.t[sel] - lo),
                columns={n: tr.columns[n][sel] for n in (*tr.state_names, *tr.input_names)},
                state_names=tr.state_names,
                input_names=tr.input_names,
                scheme=tr.scheme,
                interval=(offset, offset + (hi - lo)),
            )
            offset += hi - lo

    @functools.cached_property
    def merged(self) -> Trajectory:
        parts = list(self._end_to_end())
        schemes = {tr.scheme for tr in parts}
        return Trajectory(
            t=np.concatenate([tr.t for tr in parts]),
            columns={n: np.concatenate([tr.columns[n] for tr in parts]) for n in parts[0].columns},
            state_names=parts[0].state_names,
            input_names=parts[0].input_names,
            scheme=schemes.pop() if len(schemes) == 1 else "mixed",
            interval=(0.0, parts[-1].interval[1]),
        )

    def to_csv(self, path) -> None:
        """The CSV of ``merged``, written phase after phase without building it."""
        first, *rest = self._end_to_end()
        first.to_csv(path, *rest)


def simulate_plan(plan: SteeringPlan, steps: int = 4000) -> SimulationResult:
    """Integrate every phase of a plan in sequence from its stored start state.

    Every phase writes its rows into its own slice of one float block of
    shape (phases, 2m + m(m-1)/2, steps + 1), through the ``out=`` of the
    public integrator; a plan without phases integrates zero inputs into a
    block of one.
    """
    if steps < _MIN_STEPS:
        raise ValueError(f"steps must be at least {_MIN_STEPS}")
    names = _plan_coordinates(plan.system, plan.predicted_endpoint)
    if plan.system == "nhi":
        m, integrate, state_of = 2, integrate_nhi, NhiState.from_array
    else:
        m = sum(1 for n in names if len(n) == 2)
        integrate, state_of = integrate_gnhi, functools.partial(GnhiState.from_flat, m)
    state = state_of([plan.initial[n] for n in names])
    legs = [(ph.inputs, ph.interval) for ph in plan.phases]
    if not legs:
        legs = [((InputSignal(terms=(), interval=plan.interval),) * m, plan.interval)]
    block = np.empty((len(legs), m + len(names), steps + 1))
    trajs = []
    for (inputs, interval), out in zip(legs, block):
        trajs.append(integrate(inputs, state, interval=interval, steps=steps, out=out))
        end = trajs[-1].terminal
        state = state_of([end[n] for n in names])
    return SimulationResult(trajectories=trajs, terminal=trajs[-1].terminal)
