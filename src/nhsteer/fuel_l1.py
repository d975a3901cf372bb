"""Sub-optimal minimum-fuel transfers built on a fixed pair of shapes.

Fix zero-mean shapes (P, Q) with coupling displacement D and drive the model
with u1 = b1 P, u2 = b2 Q.  Reaching cross displacement ``a`` forces
b1 b2 = c = a / D, and the fuel  J = integral |u1| + |u2| = |b1| c1 + |b2| c2
(c_i the L1 norms of the shapes) is minimized at

    |b1| = sqrt(|c| c2 / c1),   |b2| = sqrt(|c| c1 / c2),   J* = 2 sqrt(|c| c1 c2)

by the arithmetic-geometric inequality.  ``fuel_min`` reports the closed form
and cross-checks it against a dense logarithmic grid; ``compare_families``
ranks several shape pairs for the same target and refuses to return a report
whose transfer does not survive simulation.

Shape norms come from ``orthopoly.l1_norm`` / ``lp_norm``: sign changes are
found first (a degree-sized scan in s, t = -cos s, then batched bisection) and
each constant-sign panel is summed from closed-form running integrals or
integrated in s by a doubled fixed Gauss rule, so |u| never meets a kink.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import PlannerError
from .dynamics import coupling_displacement, integrate_nhi
from .orthopoly import InputSignal, l1_norm, lp_norm, scale_signal
from .steering import _ZERO_COUPLING, pair_signals

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


def fuel_constants(u1, u2, a: float, interval=None) -> FuelConstants:
    """Compute (c1, c2, c) for the shape pair and target displacement ``a``."""
    a = float(a)
    if a == 0.0:
        raise ValueError("the displacement target must be nonzero")
    if not isinstance(u1, InputSignal) or not isinstance(u2, InputSignal):
        raise ValueError("fuel analysis expects InputSignal shapes")
    if interval is None:
        interval = u1.interval
    interval = (float(interval[0]), float(interval[1]))
    if u1.interval != interval or u2.interval != interval:
        raise ValueError("shapes live on a different interval")
    coupling = coupling_displacement(u1, u2, interval)
    if abs(coupling) < _ZERO_COUPLING:
        raise PlannerError("the pair has zero coupling displacement; it cannot steer")
    return FuelConstants(
        c1=l1_norm(u1),
        c2=l1_norm(u2),
        c=a / coupling,
        coupling=coupling,
        a=a,
        interval=interval,
    )


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


def compare_families(specs, a: float, interval=None, steps: int = 4000) -> list[FuelReport]:
    """Rank shape pairs by fuel for a common target, verifying each by simulation.

    ``specs`` is an iterable of (family, pair) entries understood by
    ``steering.pair_signals``.  Every report's (b1, b2) transfer is
    integrated from the origin; a report is only returned if the simulated
    endpoint hits the target within 1e-6 with the direct coordinates back at
    rest, otherwise the whole comparison fails loudly.
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
            steps=steps,
        )
        end = tr.terminal
        err = abs(end["x3"] - a)
        if err > 1e-6 or abs(end["x1"]) > 1e-8 or abs(end["x2"]) > 1e-8:
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

    Solved by a golden-section search over |b1| on a log scale (no closed
    form is assumed); p = 1 reproduces ``fuel_min`` to solver precision.
    Exponent combinations that make |u|^p non-integrable raise
    ``IntegrabilityError``.
    """
    p = float(p)
    if p < 1.0:
        raise ValueError("p must be at least 1")
    consts = fuel_constants(u1, u2, a, interval)
    c = consts.c
    c1p = lp_norm(u1, p)
    c2p = lp_norm(u2, p)
    if not (c1p > 0.0) or not (c2p > 0.0):
        raise ValueError("shape Lp norms must be positive")

    def objective(log_b: float) -> float:
        b = 10.0**log_b
        return b**p * c1p + (abs(c) / b) ** p * c2p

    center = 0.5 * math.log10(abs(c))
    lo, hi = center - 3.0, center + 3.0
    phi = (math.sqrt(5.0) - 1.0) / 2.0
    x1 = hi - phi * (hi - lo)
    x2 = lo + phi * (hi - lo)
    f1, f2 = objective(x1), objective(x2)
    for _ in range(200):
        if f1 <= f2:
            hi, x2, f2 = x2, x1, f1
            x1 = hi - phi * (hi - lo)
            f1 = objective(x1)
        else:
            lo, x1, f1 = x1, x2, f2
            x2 = lo + phi * (hi - lo)
            f2 = objective(x2)
        if hi - lo < 1e-14:
            break
    log_b = 0.5 * (lo + hi)
    b1 = 10.0**log_b
    b2 = math.copysign(abs(c) / b1, c)
    return LpFuelReport(
        p=p, c1p=c1p, c2p=c2p, c=c, b1=b1, b2=b2, min_value=objective(log_b)
    )
