"""Kinematic attitude steering: g' = hat(omega) g with designed rate laws.

Three planners, all exact in the boundary conditions:

* ``constant_omega_plan``   — one fixed axis/rate from the relative log.
* ``weighted_rate_plan``    — rates c_i / q(t) minimizing integral q ||omega||^2.
* ``underactuated_plan``    — omega3 pinned to 1; the free rates are the
  sinusoids omega1 = r cos((c-1) t + phi), omega2 = -r sin((c-1) t + phi),
  whose flow has the closed form
      g(t) = exp(-t (c-1) E3) exp(t hat(r cos phi, -r sin phi, c)) g0,
  so the boundary condition reduces to a three-parameter shooting problem
  solved with a damped (Levenberg) Newton iteration on (r, phi, c).  The
  residual is the rotation vector of the endpoint miss, composed on unit
  quaternions in plain floats with the quaternion helpers and logarithm of
  ``dynamics`` (``underactuated_flow`` is the matrix form), and each damped
  step is a closed-form 3x3 Cholesky solve.

The underactuated extremals satisfy the costate system p' = omega x p with
p = (2 omega1, 2 omega2, 2c); ``costate_residual`` checks that along any
plan.  ``so3_sl_residual`` checks the equivalent second-order self-adjoint
form d/dt[(q/(c-q)) d/dt(q w)] + (c-q) w = 0 for rate-weighted problems.
``simulate_attitude`` replays any plan with the Magnus-4 step of
``dynamics.integrate_so3``.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from . import _planfile
from .errors import ConvergenceError, DomainError, IntegrabilityError, SingularityError
from .dynamics import Rotation, exp_rotation, integrate_so3, log_rotation
from .dynamics import _quaternion_log, _quaternion_product, _rotation_quaternion
from .orthopoly import Harmonic, _eval_array, integrate_smooth
from .sturm import value_and_derivatives

__all__ = [
    "AttitudePlan",
    "constant_omega_plan",
    "weighted_rate_plan",
    "underactuated_plan",
    "underactuated_flow",
    "simulate_attitude",
    "costate_residual",
    "so3_sl_residual",
]

_SHOOT_TOL = 1e-12  # residual at which a shooting start stops iterating
_SHOOT_MAX_ITER = 100


@dataclass(frozen=True)
class AttitudePlan:
    """Rate laws moving an attitude g0 to g1 over [0, duration]."""

    mode: str
    g0: Rotation
    g1: Rotation
    duration: float
    omega: tuple
    params: dict
    cost: float

    def to_json_dict(self) -> dict:
        return {
            "system": "so3",
            "mode": self.mode,
            "duration": self.duration,
            "g0": [[float(v) for v in row] for row in self.g0.matrix],
            "g1": [[float(v) for v in row] for row in self.g1.matrix],
            "params": {k: float(v) for k, v in self.params.items()},
            "cost": float(self.cost),
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2) + "\n"

    @staticmethod
    def from_json_dict(data) -> "AttitudePlan":
        """Rebuild a constant or underactuated plan (a weighted plan's q is not in its JSON)."""
        data = _planfile.document(data)
        mode = data.choice("mode", ("constant", "underactuated"))
        rates = data.child("params")
        if mode == "constant":
            omega = _constant_rates([rates.real(k) for k in ("w1", "w2", "w3")])
        else:
            omega = _underactuated_rates(rates.real("r"), rates.real("phi"), rates.real("c"))
        return AttitudePlan(
            mode=mode,
            g0=Rotation(data.reals("g0", 3, 3)),
            g1=Rotation(data.reals("g1", 3, 3)),
            duration=data.real("duration"),
            omega=omega,
            params=data.mapping("params"),
            cost=data.real("cost"),
        )


def _boundary(g0, g1, duration) -> tuple[Rotation, Rotation, float]:
    """Both attitudes as rotations, and the duration, which must be positive and finite."""
    g0, g1 = (g if isinstance(g, Rotation) else Rotation(np.asarray(g, dtype=float)) for g in (g0, g1))
    duration = float(duration)
    if not 0.0 < duration < math.inf:
        raise ValueError(f"duration must be positive and finite, got {duration!r}")
    return g0, g1, duration


def constant_omega_plan(g0, g1, duration: float, accept_pi_tiebreak: bool = False) -> AttitudePlan:
    """Steer with a single constant rate vector: omega = log(g1 g0^T) / T.

    The relative-rotation logarithm raises ``AmbiguityError`` at an exact
    half-turn unless the tie-break is accepted.  Cost is T ||omega||^2.
    """
    g0, g1, duration = _boundary(g0, g1, duration)
    rel = g1.matrix @ g0.matrix.T
    v = log_rotation(rel, accept_pi_tiebreak=accept_pi_tiebreak) / duration
    omega = _constant_rates(v)
    return AttitudePlan(
        mode="constant",
        g0=g0,
        g1=g1,
        duration=duration,
        omega=omega,
        params={"w1": v[0], "w2": v[1], "w3": v[2]},
        cost=duration * float(v @ v),
    )


@dataclass(frozen=True)
class _ScaledReciprocal:
    """c / q(t) as a callable (q captured by closure index)."""

    c: float
    q: object

    def __call__(self, t):
        out = self.c / _eval_array(self.q, t)
        return float(out) if out.ndim == 0 else out


def weighted_rate_plan(g0, g1, duration: float, q, accept_pi_tiebreak: bool = False) -> AttitudePlan:
    """Minimize integral q(t) ||omega||^2 subject to the boundary attitudes.

    The extremal rates are omega_i = c_i / q(t) with a constant vector c;
    the boundary condition fixes c = log(g1 g0^T) / integral(1/q), and the
    cost is ||c||^2 integral(1/q).  ``q`` must be positive on [0, T]: a q
    that is not positive at 257 samples, or whose 1/q fails to integrate
    (it vanishes or dips below zero between them), raises ``ValueError``.
    """
    g0, g1, duration = _boundary(g0, g1, duration)
    samples = np.linspace(0.0, duration, 257)
    if not np.min(_eval_array(q, samples)) > 0.0:
        raise ValueError("the rate weight q must be positive on [0, T]")
    try:
        rate_integral = integrate_smooth(_ScaledReciprocal(1.0, q), 0.0, duration)
    except IntegrabilityError as err:  # q vanishes or dips below zero between the samples
        raise ValueError(
            "the rate weight q must be positive on [0, T]: it is positive at 257 samples, "
            f"but the integral of 1/q does not converge ({err})"
        ) from err
    v = log_rotation(g1.matrix @ g0.matrix.T, accept_pi_tiebreak=accept_pi_tiebreak)
    c = v / rate_integral
    omega = tuple(_ScaledReciprocal(float(c[i]), q) for i in range(3))
    return AttitudePlan(
        mode="weighted",
        g0=g0,
        g1=g1,
        duration=duration,
        omega=omega,
        params={"c1": c[0], "c2": c[1], "c3": c[2], "rate_integral": rate_integral},
        cost=float(c @ c) * rate_integral,
    )


_E3 = np.array([0.0, 0.0, 1.0])


def _constant_rates(w) -> tuple:
    """omega = w, a constant rate vector, as frequency-0 harmonics."""
    return tuple(Harmonic("cos", 0.0, 0.0, float(v)) for v in w)


def _underactuated_rates(r: float, phi: float, c: float) -> tuple:
    """omega1 = r cos((c-1) t + phi), omega2 = -r sin((c-1) t + phi), omega3 = 1."""
    return (
        Harmonic("cos", c - 1.0, phi, r),
        Harmonic("sin", c - 1.0, phi, -r),
        Harmonic("cos", 0.0, 0.0, 1.0),
    )


def underactuated_flow(r: float, phi: float, c: float, t: float, g0: np.ndarray) -> np.ndarray:
    """Closed-form attitude at time t under the sinusoidal underactuated law."""
    body = t * np.array([r * math.cos(phi), -r * math.sin(phi), c])
    return exp_rotation(-t * (c - 1.0) * _E3) @ exp_rotation(body) @ g0


def _shooting_residual(params, duration: float, rel: tuple) -> tuple:
    """Rotation vector of exp(-T (c-1) E3) exp(T hat(r cos phi, -r sin phi, c)) g0 g1^T.

    ``rel`` is the unit quaternion (w, x, y, z) of g0 g1^T.  The flow is taken
    on quaternions in plain floats and its logarithm is ``dynamics._quaternion_log``,
    the one of ``log_rotation(..., accept_pi_tiebreak=True)``
    (``underactuated_flow`` is the matrix form).
    """
    r, phi, c = params
    v1, v2, v3 = duration * (r * math.cos(phi)), duration * (-r * math.sin(phi)), duration * c
    theta = math.sqrt(v1 * v1 + v2 * v2 + v3 * v3)
    if not theta < math.inf:
        raise DomainError(f"the duration {duration!r} overflows the shooting residual")
    # sin(theta/2)/theta, by its series where the quotient loses accuracy
    k = 0.5 - theta * theta / 48.0 if theta < 1e-8 else math.sin(0.5 * theta) / theta
    half_turn = -0.5 * duration * (c - 1.0)
    turn = (math.cos(half_turn), 0.0, 0.0, math.sin(half_turn))
    body = (math.cos(0.5 * theta), k * v1, k * v2, k * v3)
    return _quaternion_log(_quaternion_product(_quaternion_product(turn, body), rel))


def _dot(u, v) -> float:
    return u[0] * v[0] + u[1] * v[1] + u[2] * v[2]


def _damped_solve(gram: list, rhs: list, mu: float):
    """Solve (gram + mu I) x = rhs for a symmetric 3x3 ``gram`` by closed-form Cholesky.

    Returns None where a pivot is not positive (or is NaN), the case in
    which the caller raises the damping.
    """
    d0 = gram[0][0] + mu
    if not d0 > 0.0:
        return None
    l00 = math.sqrt(d0)
    l10, l20 = gram[1][0] / l00, gram[2][0] / l00
    d1 = gram[1][1] + mu - l10 * l10
    if not d1 > 0.0:
        return None
    l11 = math.sqrt(d1)
    l21 = (gram[2][1] - l20 * l10) / l11
    d2 = gram[2][2] + mu - l20 * l20 - l21 * l21
    if not d2 > 0.0:
        return None
    l22 = math.sqrt(d2)
    y0 = rhs[0] / l00
    y1 = (rhs[1] - l10 * y0) / l11
    y2 = (rhs[2] - l20 * y0 - l21 * y1) / l22
    x2 = y2 / l22
    x1 = (y1 - l21 * x2) / l11
    return ((y0 - l10 * x1 - l20 * x2) / l00, x1, x2)


def underactuated_plan(g0, g1, duration: float) -> AttitudePlan:
    """Steer with omega3 pinned to one and extremal sinusoids in the plane.

    Shooting unknowns are (r, phi, c).  The residual is the rotation vector
    of the endpoint miss, measured on unit quaternions.  The initial rate
    amplitude is its angle at (0, 0, 1), the pure third-axis turn, over T;
    the phase starts at zero, and c starts one whole oscillation above the
    drift (c = 1 + 2 pi / T); a few damped-Newton iterations on the
    closed-form flow, each step a closed-form 3x3 Cholesky solve, polish the
    boundary residual to roundoff.  Cost is r^2 T / 2.
    """
    g0, g1, duration = _boundary(g0, g1, duration)
    rel = _rotation_quaternion(g0.matrix @ g1.matrix.T)
    gap = _shooting_residual((0.0, 0.0, 1.0), duration, rel)
    angle = math.sqrt(_dot(gap, gap))
    r0 = angle / duration
    # g1 is g0 turned by T about the third axis: the plan at rest in the plane needs no shooting
    best = ((0.0, 0.0, 1.0), angle, 0) if angle < 1e-14 else None
    inits = [] if best else [
        (r0, 0.0, 1.0 + 2.0 * math.pi / duration),
        (r0, 0.0, 1.0 - 2.0 * math.pi / duration),
        (r0, 0.0, 1.0 + 4.0 * math.pi / duration),
        (max(r0, 0.5), 0.0, 1.0),
    ]
    for params in inits:
        err = _shooting_residual(params, duration, rel)
        norm = math.sqrt(_dot(err, err))
        mu = 1e-6
        iterations = 0
        for _ in range(_SHOOT_MAX_ITER):
            iterations += 1
            if norm < _SHOOT_TOL:
                break
            cols = []  # the finite-difference Jacobian, column by column
            for k in range(3):
                h = 1e-7 * max(1.0, abs(params[k]))
                bumped = list(params)
                bumped[k] += h
                cols.append([(e - e0) / h for e, e0 in zip(_shooting_residual(bumped, duration, rel), err)])
            gram = [[_dot(u, v) for v in cols] for u in cols]
            rhs = [-_dot(u, err) for u in cols]
            accepted = False
            for _ in range(60):
                step = _damped_solve(gram, rhs, mu)
                if step is None:
                    mu *= 10.0
                    continue
                trial = tuple(p + d for p, d in zip(params, step))
                trial_err = _shooting_residual(trial, duration, rel)
                trial_norm = math.sqrt(_dot(trial_err, trial_err))
                if trial_norm < norm:
                    params, err, norm = trial, trial_err, trial_norm
                    mu = max(mu / 3.0, 1e-12)
                    accepted = True
                    break
                mu *= 10.0
            if not accepted:
                break
        if best is None or norm < best[1]:
            best = (params, norm, iterations)
        if norm < _SHOOT_TOL:
            break
    params, norm, iterations = best
    if not norm < 1e-10:
        raise ConvergenceError(
            f"underactuated shooting stalled at residual {norm:.3e}",
            best_residual=norm,
        )
    r, phi, c = (float(v) for v in params)
    if r < 0.0:
        r, phi = -r, phi + math.pi
    # for a third-axis target every phase closes the loop (a turn of the plane
    # about the third axis maps roots to roots), so the phase is reported as zero
    phi = 0.0 if rel[1] == rel[2] == 0.0 else math.atan2(math.sin(phi), math.cos(phi))
    return AttitudePlan(
        mode="underactuated",
        g0=g0,
        g1=g1,
        duration=duration,
        omega=_underactuated_rates(r, phi, c),
        params={"r": r, "phi": phi, "c": c, "residual": norm, "iterations": iterations},
        cost=0.5 * r * r * duration,
    )


def simulate_attitude(plan: AttitudePlan, steps: int = 4000):
    """Integrate a plan's rate laws; returns (trajectory, terminal error).

    The error is the Frobenius norm of the difference between the integrated
    terminal attitude and the plan's target, the figure ``nhsteer verify``
    prints.
    """
    traj = integrate_so3(plan.omega, plan.g0, (0.0, plan.duration), steps=steps)
    g_end = np.array([[traj.columns[f"g{i}{j}"][-1] for j in (1, 2, 3)] for i in (1, 2, 3)])
    err = float(np.sqrt(np.sum((g_end - plan.g1.matrix) ** 2)))
    return traj, err


def costate_residual(plan: AttitudePlan, t) -> float:
    """Max norm of p' - omega x p over the time(s) t, from the plan's own rate laws.

    The rates omega are evaluated at all t at once.  Constant and
    underactuated plans carry p = 2 omega, with the third entry 2c for an
    underactuated plan (omega3 = 1), and p' = 2 omega' from the rates'
    ``Harmonic.derivative``; weighted plans carry the constant costate
    c = (c1, c2, c3), parallel to the rates c / q(t).
    """
    ts = np.atleast_1d(np.asarray(t, dtype=float))
    w = np.array([_eval_array(f, ts) for f in plan.omega])
    if plan.mode == "weighted":
        p, dp = np.array([[plan.params[k]] for k in ("c1", "c2", "c3")]), 0.0
    elif plan.mode in ("constant", "underactuated"):
        p = 2.0 * w
        if plan.mode == "underactuated":
            p[2] = 2.0 * plan.params["c"]
        dp = 2.0 * np.array([f.derivative(ts) for f in plan.omega])
    else:
        raise ValueError(f"unknown plan mode {plan.mode!r}")
    return float(np.max(np.abs(dp - np.cross(w, p, axis=0)), initial=0.0))


def so3_sl_residual(q, c: float, omega1, omega2, t: float) -> tuple[float, float]:
    """Residuals of the rate-weighted self-adjoint form at a point.

    Checks d/dt[(q/(c-q)) d/dt(q w)] + (c-q) w for w = omega1 and omega2.
    ``q`` may be a number (constant weight) or a callable; derivatives fall
    back to finite differences when no analytic ones are available.
    Raises ``SingularityError`` where c - q(t) vanishes.
    """
    t = float(t)
    c = float(c)
    q_val, q_d1, q_d2 = value_and_derivatives(q, t)
    gap = c - q_val
    if abs(gap) < 1e-12 * max(1.0, abs(c)):
        raise SingularityError("c - q(t) vanishes; the self-adjoint form is singular here")
    out = []
    for w in (omega1, omega2):
        w_val, w_d1, w_d2 = value_and_derivatives(w, t)
        front = q_val / gap
        front_d = q_d1 * c / (gap * gap)
        inner = q_d1 * w_val + q_val * w_d1
        inner_d = q_d2 * w_val + 2.0 * q_d1 * w_d1 + q_val * w_d2
        out.append(front_d * inner + front * inner_d + gap * w_val)
    return (out[0], out[1])
