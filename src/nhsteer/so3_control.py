"""Kinematic attitude steering: g' = hat(omega) g with designed rate laws.

Three planners, all exact in the boundary conditions:

* ``constant_omega_plan``   — one fixed axis/rate from the relative log.
* ``weighted_rate_plan``    — rates c_i / q(t) minimizing integral q ||omega||^2.
* ``underactuated_plan``    — omega3 pinned to 1; the free rates are the
  sinusoids omega1 = r cos((c-1) t + phi), omega2 = -r sin((c-1) t + phi),
  whose flow has the closed form
      g(t) = exp(-t (c-1) E3) exp(t hat(r cos phi, -r sin phi, c)) g0,
  so the boundary condition reduces to a three-parameter shooting problem
  solved with a damped (Levenberg) Newton iteration on (r, phi, c).

The underactuated extremals satisfy the costate system p' = omega x p with
p = (2 omega1, 2 omega2, 2c); ``costate_residual`` checks that along any
plan.  ``so3_sl_residual`` checks the equivalent second-order self-adjoint
form d/dt[(q/(c-q)) d/dt(q w)] + (c-q) w = 0 for rate-weighted problems.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, SingularityError
from .dynamics import (
    Rotation,
    exp_rotation,
    hat,
    integrate_so3,
    log_rotation,
    vee,
)
from .orthopoly import Harmonic, _eval_array, integrate_smooth
from .sturm import value_and_derivatives

__all__ = [
    "AttitudePlan",
    "ConstantRate",
    "hat",
    "vee",
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
class ConstantRate:
    """A constant rate as a vectorized callable with analytic derivatives."""

    value: float

    def __call__(self, t):
        t = np.asarray(t, dtype=float)
        out = np.full(np.shape(t), self.value)
        return float(out) if out.ndim == 0 else out

    def derivative(self, t):
        t = np.asarray(t, dtype=float)
        out = np.zeros(np.shape(t))
        return float(out) if out.ndim == 0 else out

    def second_derivative(self, t):
        return self.derivative(t)


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
    def from_json_dict(data: dict) -> "AttitudePlan":
        """Rebuild a constant or underactuated plan (a weighted plan's q is not in its JSON)."""
        params = {k: float(v) for k, v in data["params"].items()}
        if data["mode"] == "constant":
            omega = tuple(ConstantRate(params[k]) for k in ("w1", "w2", "w3"))
        elif data["mode"] == "underactuated":
            omega = _underactuated_rates(params["r"], params["phi"], params["c"])
        else:
            raise ValueError(f"cannot rebuild rate laws for mode {data['mode']!r}")
        return AttitudePlan(
            mode=data["mode"],
            g0=Rotation(np.array(data["g0"], dtype=float)),
            g1=Rotation(np.array(data["g1"], dtype=float)),
            duration=float(data["duration"]),
            omega=omega,
            params=params,
            cost=float(data["cost"]),
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
    omega = tuple(ConstantRate(float(v[i])) for i in range(3))
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
    cost is ||c||^2 integral(1/q).  ``q`` must be positive on [0, T].
    """
    g0, g1, duration = _boundary(g0, g1, duration)
    samples = np.linspace(0.0, duration, 257)
    if not np.min(_eval_array(q, samples)) > 0.0:
        raise ValueError("the rate weight q must be positive on [0, T]")
    rate_integral = integrate_smooth(_ScaledReciprocal(1.0, q), 0.0, duration)
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


def _underactuated_rates(r: float, phi: float, c: float) -> tuple:
    """omega1 = r cos((c-1) t + phi), omega2 = -r sin((c-1) t + phi), omega3 = 1."""
    return (
        Harmonic("cos", c - 1.0, phi, r),
        Harmonic("sin", c - 1.0, phi, -r),
        ConstantRate(1.0),
    )


def underactuated_flow(r: float, phi: float, c: float, t: float, g0: np.ndarray) -> np.ndarray:
    """Closed-form attitude at time t under the sinusoidal underactuated law."""
    body = t * np.array([r * math.cos(phi), -r * math.sin(phi), c])
    return exp_rotation(-t * (c - 1.0) * _E3) @ exp_rotation(body) @ g0


def _shooting_residual(params: np.ndarray, duration: float, g0: np.ndarray, g1: np.ndarray) -> np.ndarray:
    r, phi, c = params
    pred = underactuated_flow(r, phi, c, duration, g0)
    return log_rotation(pred @ g1.T, accept_pi_tiebreak=True)


def underactuated_plan(g0, g1, duration: float) -> AttitudePlan:
    """Steer with omega3 pinned to one and extremal sinusoids in the plane.

    Shooting unknowns are (r, phi, c).  The initial rate amplitude comes
    from the log of what remains after the pure third-axis turn, the phase
    starts at zero, and c starts one whole oscillation above the drift
    (c = 1 + 2 pi / T); a few damped-Newton iterations on the closed-form
    flow polish the boundary residual to roundoff.  Cost is r^2 T / 2.
    """
    g0, g1, duration = _boundary(g0, g1, duration)
    g0m, g1m = g0.matrix, g1.matrix
    residual_gap = log_rotation(
        g1m @ (exp_rotation(duration * _E3) @ g0m).T, accept_pi_tiebreak=True
    )
    r0 = float(np.linalg.norm(residual_gap)) / duration
    if r0 < 1e-14:
        return AttitudePlan(
            mode="underactuated",
            g0=g0,
            g1=g1,
            duration=duration,
            omega=_underactuated_rates(0.0, 0.0, 1.0),
            params={"r": 0.0, "phi": 0.0, "c": 1.0, "residual": 0.0, "iterations": 0},
            cost=0.0,
        )
    best = None
    inits = [
        np.array([r0, 0.0, 1.0 + 2.0 * math.pi / duration]),
        np.array([r0, 0.0, 1.0 - 2.0 * math.pi / duration]),
        np.array([r0, 0.0, 1.0 + 4.0 * math.pi / duration]),
        np.array([max(r0, 0.5), 0.0, 1.0]),
    ]
    for init in inits:
        params = init.copy()
        err = _shooting_residual(params, duration, g0m, g1m)
        norm = float(np.linalg.norm(err))
        mu = 1e-6
        iterations = 0
        for _ in range(_SHOOT_MAX_ITER):
            iterations += 1
            if norm < _SHOOT_TOL:
                break
            jac = np.empty((3, 3))
            for k in range(3):
                h = 1e-7 * max(1.0, abs(params[k]))
                bumped = params.copy()
                bumped[k] += h
                jac[:, k] = (_shooting_residual(bumped, duration, g0m, g1m) - err) / h
            accepted = False
            for _ in range(60):
                try:
                    step = np.linalg.solve(jac.T @ jac + mu * np.eye(3), -jac.T @ err)
                except np.linalg.LinAlgError:
                    mu *= 10.0
                    continue
                trial = params + step
                trial_err = _shooting_residual(trial, duration, g0m, g1m)
                trial_norm = float(np.linalg.norm(trial_err))
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
    phi = math.atan2(math.sin(phi), math.cos(phi))
    return AttitudePlan(
        mode="underactuated",
        g0=g0,
        g1=g1,
        duration=duration,
        omega=_underactuated_rates(r, phi, c),
        params={"r": r, "phi": phi, "c": c, "residual": norm, "iterations": iterations},
        cost=0.5 * r * r * duration,
    )


def simulate_attitude(plan: AttitudePlan, steps: int = 4000, scheme: str = "magnus4"):
    """Integrate a plan's rate laws; returns (trajectory, terminal error).

    The error is the Frobenius norm of the difference between the integrated
    terminal attitude and the plan's target, the figure ``nhsteer verify``
    prints.
    """
    traj = integrate_so3(plan.omega, plan.g0, (0.0, plan.duration), steps=steps, scheme=scheme)
    g_end = np.array([[traj.columns[f"g{i}{j}"][-1] for j in (1, 2, 3)] for i in (1, 2, 3)])
    err = float(np.sqrt(np.sum((g_end - plan.g1.matrix) ** 2)))
    return traj, err


def costate_residual(plan: AttitudePlan, t) -> float:
    """Max norm of p' - omega x p at time(s) t for the plan's costate law.

    Constant and weighted plans carry constant costates parallel to the
    rate axis; underactuated plans carry p = (2 omega1, 2 omega2, 2c).
    """
    ts = np.atleast_1d(np.asarray(t, dtype=float))
    worst = 0.0
    if plan.mode == "underactuated":
        r = plan.params["r"]
        phi = plan.params["phi"]
        c = plan.params["c"]
        for tv in ts:
            arg = (c - 1.0) * tv + phi
            w = np.array([r * math.cos(arg), -r * math.sin(arg), 1.0])
            p = np.array([2.0 * w[0], 2.0 * w[1], 2.0 * c])
            dp = np.array(
                [
                    -2.0 * r * (c - 1.0) * math.sin(arg),
                    -2.0 * r * (c - 1.0) * math.cos(arg),
                    0.0,
                ]
            )
            worst = max(worst, float(np.max(np.abs(dp - np.cross(w, p)))))
        return worst
    if plan.mode == "constant":
        v = np.array([plan.params["w1"], plan.params["w2"], plan.params["w3"]])
        p = 2.0 * v
        return float(np.max(np.abs(np.cross(v, p))))
    if plan.mode == "weighted":
        cvec = np.array([plan.params["c1"], plan.params["c2"], plan.params["c3"]])
        for tv in ts:
            w = np.array([float(f(tv)) for f in plan.omega])
            worst = max(worst, float(np.max(np.abs(np.cross(w, cvec)))))
        return worst
    raise ValueError(f"unknown plan mode {plan.mode!r}")


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
