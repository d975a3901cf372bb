"""Sub-optimal minimum-fuel transfers built on a fixed pair of shapes.

Fix zero-mean shapes (P, Q) with coupling displacement D and drive the model
with u1 = b1 P, u2 = b2 Q.  Reaching cross displacement ``a`` forces
b1 b2 = c = a / D, and the fuel  J = integral |u1| + |u2| = |b1| c1 + |b2| c2
(c_i the L1 norms of the shapes) is minimized at

    |b1| = sqrt(|c| c2 / c1),   |b2| = sqrt(|c| c1 / c2),   J* = 2 sqrt(|c| c1 c2)

by the arithmetic-geometric inequality.  ``fuel_min`` reports the closed form
and cross-checks it against a dense logarithmic grid; ``compare_families``
ranks several shape pairs for the same target and refuses to return a report
whose transfer does not survive simulation.  ``fuel_min_lp`` solves the Lp
fuel in closed form by the same inequality, J* = 2 |c|^(p/2) sqrt(c1p c2p).

The coupling D is summed exactly by ``dynamics.coupling_displacement`` (Gauss-
Jacobi nodes, or the trapezoid rule for trig shapes).  Shape norms come from
``orthopoly.l1_norm`` / ``lp_norm``: sign changes are found first (a
degree-sized scan in s, t = -cos s, then batched bisection) and each
constant-sign panel is summed from closed-form running integrals (every
planner family, weighted Jacobi included) or integrated in s by a doubled
fixed Gauss rule, so |u| never meets a kink.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import PlannerError
from .dynamics import coupling_displacement, integrate_nhi
from .orthopoly import InputSignal, _infer_interval, l1_norm, lp_norm, scale_signal
from .steering import _nonzero_coupling, pair_signals

__all__ = [
    "FuelConstants",
    "FuelReport",
    "LpFuelReport",
    "fuel_constants",
    "fuel_min",
    "compare_families",
    "fuel_min_lp",
    "GRID_POINTS",
]

GRID_POINTS = 10000


@dataclass(frozen=True)
class FuelConstants:
    """L1 norms of the two shapes and the forced coefficient product."""

    c1: float
    c2: float
    c: float
    coupling: float
    a: float
    interval: tuple[float, float]


def _shape_constants(u1, u2, a: float, interval, norm) -> FuelConstants:
    """Checked target, interval, coupling and ``norm`` of each shape, as ``FuelConstants``."""
    a = float(a)
    if not 0.0 < abs(a) < math.inf:
        raise ValueError(f"the displacement target must be nonzero and finite, got {a!r}")
    if not isinstance(u1, InputSignal) or not isinstance(u2, InputSignal):
        raise ValueError("fuel analysis expects InputSignal shapes")
    interval = _infer_interval((u1, u2), interval)
    coupling = _nonzero_coupling(coupling_displacement(u1, u2, interval))
    return FuelConstants(
        c1=norm(u1),
        c2=norm(u2),
        c=a / coupling,
        coupling=coupling,
        a=a,
        interval=interval,
    )


def fuel_constants(u1, u2, a: float, interval=None) -> FuelConstants:
    """Compute (c1, c2, c) for the shape pair and target displacement ``a``."""
    return _shape_constants(u1, u2, a, interval, l1_norm)


@dataclass(frozen=True)
class FuelReport:
    """Optimal coefficients and fuel for one shape pair, grid-verified."""

    c1: float
    c2: float
    c: float
    b1: float
    b2: float
    min_fuel: float
    grid_min_fuel: float
    a: float
    family: str | None = None
    pair: tuple[int, int] | None = None
    sim_error: float | None = None

    def to_json_dict(self) -> dict:
        out = {
            "family": self.family,
            "pair": None if self.pair is None else list(self.pair),
            "a": self.a,
            "c1": self.c1,
            "c2": self.c2,
            "c": self.c,
            "b1": self.b1,
            "b2": self.b2,
            "min_fuel": self.min_fuel,
            "grid_min_fuel": self.grid_min_fuel,
        }
        if self.sim_error is not None:
            out["sim_error"] = self.sim_error
        return out


def fuel_min(constants: FuelConstants, family=None, pair=None) -> FuelReport:
    """Closed-form fuel minimum plus an independent grid cross-check.

    The grid sweeps 10000 logarithmically spaced |b1| values over four
    decades around sqrt(|c|) and must land within 1e-6 of the closed form —
    a deliberately redundant route kept as a live verification.
    """
    c1, c2, c = constants.c1, constants.c2, constants.c
    if not (c1 > 0.0) or not (c2 > 0.0):
        raise ValueError("fuel constants must be positive")
    if c == 0.0:
        raise ValueError("the coefficient product constraint is degenerate")
    b1 = math.sqrt(abs(c) * c2 / c1)
    b2 = math.copysign(math.sqrt(abs(c) * c1 / c2), c)
    min_fuel = 2.0 * math.sqrt(abs(c) * c1 * c2)
    grid = math.sqrt(abs(c)) * np.logspace(-2.0, 2.0, GRID_POINTS)
    fuel = grid * c1 + (abs(c) / grid) * c2
    grid_min = float(np.min(fuel))
    return FuelReport(
        c1=c1,
        c2=c2,
        c=c,
        b1=b1,
        b2=b2,
        min_fuel=min_fuel,
        grid_min_fuel=grid_min,
        a=constants.a,
        family=family,
        pair=None if pair is None else (int(pair[0]), int(pair[1])),
    )


def compare_families(specs, a: float, interval=None) -> list[FuelReport]:
    """Rank shape pairs by fuel for a common target, verifying each by simulation.

    ``specs`` is an iterable of (family, pair) entries understood by
    ``steering.pair_signals``.  Every report's (b1, b2) transfer is integrated
    from the origin in 4000 RK4 steps; a report is only returned if the
    simulated endpoint hits the target within 1e-6 with the direct coordinates
    back at rest, otherwise the whole comparison fails loudly.
    """
    a = float(a)
    reports = []
    for family, pair in specs:
        box = interval
        odd, even = pair_signals(family, pair, interval=box if box is not None else (-1.0, 1.0))
        consts = fuel_constants(odd, even, a, interval=box)
        report = fuel_min(consts, family=family, pair=pair)
        tr = integrate_nhi(
            (scale_signal(odd, report.b1), scale_signal(even, report.b2)),
            steps=4000,
        )
        end = tr.terminal
        err = abs(end["x3"] - a)
        if not (err <= 1e-6 and abs(end["x1"]) <= 1e-8 and abs(end["x2"]) <= 1e-8):
            raise PlannerError(
                f"fuel transfer for {family!r} pair {pair} missed its target "
                f"(x3 error {err:.3e})"
            )
        reports.append(replace(report, sim_error=err))
    reports.sort(key=lambda r: r.min_fuel)
    return reports


@dataclass(frozen=True)
class LpFuelReport:
    p: float
    c1p: float
    c2p: float
    c: float
    b1: float
    b2: float
    min_value: float


def fuel_min_lp(u1, u2, a: float, p: float, interval=None) -> LpFuelReport:
    """Minimize integral(|u1|^p + |u2|^p) subject to the displacement constraint.

    With c1p, c2p the integrals of |u1|^p, |u2|^p and b1 b2 = c, the value is
    b1^p c1p + (|c|/b1)^p c2p >= 2 |c|^(p/2) sqrt(c1p c2p) by the
    arithmetic-geometric inequality, with equality at
    b1 = sqrt(|c|) (c2p/c1p)^(1/(2p)); p = 1 is ``fuel_min``'s closed form.
    Exponent combinations that make |u|^p non-integrable raise
    ``IntegrabilityError``.
    """
    p = float(p)
    if not 1.0 <= p < math.inf:
        raise ValueError(f"p must be at least 1 and finite, got {p!r}")
    consts = _shape_constants(u1, u2, a, interval, lambda u: lp_norm(u, p))
    c1p, c2p, c = consts.c1, consts.c2, consts.c
    if not (c1p > 0.0) or not (c2p > 0.0):
        raise ValueError("shape Lp norms must be positive")
    b1 = math.sqrt(abs(c)) * (c2p / c1p) ** (0.5 / p)
    b2 = math.copysign(abs(c) / b1, c)
    min_value = 2.0 * abs(c) ** (0.5 * p) * math.sqrt(c1p * c2p)
    return LpFuelReport(p=p, c1p=c1p, c2p=c2p, c=c, b1=b1, b2=b2, min_value=min_value)
