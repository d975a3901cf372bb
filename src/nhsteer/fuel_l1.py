"""Sub-optimal minimum-fuel transfers built on a fixed pair of shapes.

Fix zero-mean shapes (P, Q) with coupling displacement D and drive the model
with u1 = b1 P, u2 = b2 Q.  Reaching cross displacement ``a`` forces
b1 b2 = c = a / D, and the fuel  J = integral |u1| + |u2| = |b1| c1 + |b2| c2
(c_i the L1 norms of the shapes) is minimized at

    |b1| = sqrt(|c| c2 / c1),   |b2| = sqrt(|c| c1 / c2),   J* = 2 sqrt(|c| c1 c2)

by the arithmetic-geometric inequality.  ``fuel_min`` cross-checks it against
a dense logarithmic grid (four decades built once per point count, read-only,
centred on the decade of |b1|, searched by bisection, exact by convexity);
``compare_families`` ranks shape pairs for one target and refuses a report
whose transfer does not survive simulation.
``fuel_min_lp`` solves the Lp fuel by the same inequality and the same
range-safe helper, so at p = 1 the two agree bit for bit.

The coupling D is summed exactly by ``orthopoly.coupling_displacement`` (Gauss-
Jacobi nodes, or the trapezoid rule for trig shapes).  Shape norms come from
``orthopoly.l1_norm`` / ``lp_norm``: a shape is a single term, so its sign
changes are its known zeros (Gauss-Jacobi nodes, or the trig closed forms);
only a combined signal is scanned and bisected.  The signs of a shape's panels
alternate across those zeros from the known sign of its last panel, so the
L1 norm never evaluates the shape.  Each constant-sign panel is
summed from closed-form running integrals (every planner family, weighted
Jacobi included) or integrated in s by a doubled fixed Gauss rule, so |u|
never meets a kink.
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass, replace

import numpy as np

from .errors import DomainError, PlannerError, _finite, _finite_ldexp
from .dynamics import coupling_displacement, integrate_nhi
from .orthopoly import JACOBI, InputSignal, l1_norm, lp_norm, scale_signal
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


def _shape_constants(u1, u2, a: float, interval, norm, what: str = "the pair") -> FuelConstants:
    """Checked target, interval, coupling and ``norm`` of each shape, as ``FuelConstants``.

    A zero coupling raises ``PlannerError`` naming the shapes as ``what``, and
    one that overflows, or a norm that does, ``DomainError``.
    """
    a = float(a)
    if not 0.0 < abs(a) < math.inf:
        raise ValueError(f"the displacement target must be nonzero and finite, got {a!r}")
    if not isinstance(u1, InputSignal) or not isinstance(u2, InputSignal):
        raise ValueError("fuel analysis expects InputSignal shapes")
    coupling = _nonzero_coupling(coupling_displacement(u1, u2, interval), what)
    c = _finite(a / coupling, "the target %r over the coupling %r", a, coupling)
    return FuelConstants(
        c1=norm(u1),
        c2=norm(u2),
        c=c,
        coupling=coupling,
        a=a,
        interval=u1.interval,  # the coupling has checked that it is the interval of both and of ``interval``
    )


def fuel_constants(u1, u2, a: float, interval=None) -> FuelConstants:
    """Compute (c1, c2, c) for the shape pair and target displacement ``a``."""
    return _shape_constants(u1, u2, a, interval, l1_norm)


def _pair_constants(family: str, pair, a: float, interval, jacobi_params) -> tuple:
    """The shapes of ``pair`` in ``family`` and their ``fuel_constants``; a zero coupling names them as ``plan`` does."""
    odd, even = pair_signals(family, pair, interval or (-1.0, 1.0), jacobi_params)
    return odd, even, _shape_constants(odd, even, a, interval, l1_norm, f"pair {pair} of family {family!r}")


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


@functools.cache
def _grid_base(points: int) -> np.ndarray:
    """``points`` logarithmically spaced values from 1e-2 to 1e2, built once per count and read-only."""
    base = np.logspace(-2.0, 2.0, points)
    base.setflags(write=False)
    return base


def fuel_min(constants: FuelConstants, family=None, pair=None) -> FuelReport:
    """Closed-form fuel minimum plus an independent grid cross-check.

    The grid holds ``GRID_POINTS`` (10000) logarithmically spaced |b1| values over four decades (built
    once per point count, read-only) around the decade of |b1|, sqrt(|c|) 10^round(log10(c2/c1)/2), and
    its minimum must land within 1e-6 of the closed form — a deliberately redundant route kept as a live
    check.  Its fuel is convex in |b1|, with second differences (8.5e-7 of it) far above rounding, so
    bisecting on "the next point is lower" finds that minimum exactly in about 28 points, each formed as
    a whole-grid array would form it.  Where a grid value leaves the normal range, all are evaluated.
    """
    c1, c2, c = constants.c1, constants.c2, constants.c
    b1, b2, min_fuel = _amgm_minimum(c, c1, c2, 1.0, "fuel minimum")
    k = round(0.5 * (math.log10(c2) - math.log10(c1)))
    scale, base = math.sqrt(abs(c)) * 10.0 ** (k // 2) * 10.0 ** (k - k // 2), _grid_base(GRID_POINTS)
    fuel = lambda g: g * c1 + (abs(c) / g) * c2  # at |b1| = g, in the order of operations of a whole-grid array
    ends, tiny = (scale * base.item(0), scale * base.item(-1)), sys.float_info.min
    if ends[0] >= tiny and all(tiny <= x < 2.0**1023 for g in ends for x in (g, abs(c) / g, g * c1, abs(c) / g * c2)):
        lo, hi = 0, GRID_POINTS - 1
        while lo < hi:  # the first point whose successor is not lower
            mid = (lo + hi) // 2
            lo, hi = (mid + 1, hi) if fuel(scale * base.item(mid + 1)) < fuel(scale * base.item(mid)) else (lo, mid)
        grid_min = float(fuel(scale * base.item(lo)))
    else:  # a value beyond the normal range rounds coarsely or overflows: rounding may break the convexity
        grid_min = float(np.min(fuel(scale * base)))
    return FuelReport(c1=c1, c2=c2, c=c, b1=b1, b2=b2, min_fuel=min_fuel, grid_min_fuel=grid_min, a=constants.a,
                      family=family, pair=None if pair is None else (int(pair[0]), int(pair[1])))


def compare_families(specs, a: float, interval=None, jacobi_params=None) -> list[FuelReport]:
    """Rank shape pairs by fuel for a common target, verifying each by simulation.

    ``specs`` is an iterable of (family, pair) entries understood by
    ``steering.pair_signals``; ``jacobi_params`` goes to the ``jacobi``
    entries only.  Every report's (b1, b2) transfer is integrated from the
    origin in 4000 RK4 steps; a report is only returned if the simulated
    endpoint hits the target within 1e-6 max(1, |a|) with the direct
    coordinates back at rest within 1e-8 max(1, |b1|, |b2|), otherwise the
    whole comparison fails loudly.
    """
    a = float(a)
    reports = []
    for family, pair in specs:
        odd, even, consts = _pair_constants(family, pair, a, interval, jacobi_params if family == JACOBI else None)
        report = fuel_min(consts, family=family, pair=pair)
        tr = integrate_nhi((scale_signal(odd, report.b1), scale_signal(even, report.b2)), steps=4000)
        end = tr.terminal
        err = abs(end["x3"] - a)
        rest = 1e-8 * max(1.0, abs(report.b1), abs(report.b2))
        if not (err <= 1e-6 * max(1.0, abs(a)) and abs(end["x1"]) <= rest and abs(end["x2"]) <= rest):
            raise PlannerError(f"fuel transfer for {family!r} pair {pair} missed its target (x3 error {err:.3e})")
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
    b1 = sqrt(|c|) (c2p/c1p)^(1/(2p)); at p = 1, b1, b2 and J* are ``fuel_min``'s bits.
    Exponent combinations that make |u|^p non-integrable raise
    ``IntegrabilityError``.
    """
    p = float(p)
    if not 1.0 <= p < math.inf:
        raise ValueError(f"p must be at least 1 and finite, got {p!r}")
    consts = _shape_constants(u1, u2, a, interval, lambda u: lp_norm(u, p))
    b1, b2, min_value = _amgm_minimum(consts.c, consts.c1, consts.c2, p, "L%g fuel minimum" % p)
    return LpFuelReport(p=p, c1p=consts.c1, c2p=consts.c2, c=consts.c, b1=b1, b2=b2, min_value=min_value)


def _root(n: float, p: float) -> tuple[float, int]:
    """n^(1/p) as m^(1/p) 2^(rho/p) and j, where frexp(n) = (m, j p + rho): frexp(n) itself at p = 1."""
    m, e = math.frexp(n)
    j, rho = divmod(e, p)
    return m ** (1.0 / p) * 2.0 ** (rho / p), int(j)


def _amgm_minimum(c: float, n1: float, n2: float, p: float, what: str) -> tuple[float, float, float]:
    """(b1, b2, J*) least in |b1|^p n1 + |b2|^p n2 with b1 b2 = c; ``DomainError`` names one that overflows,
    or a coefficient that underflows below the normal range.

    With r = n^(1/p): |b1| = sqrt(|c| r2 / r1), |b2| = sqrt(|c| r1 / r2), J* = 2 sqrt(|c| r1 r2)^p.  Each root is of a
    mantissa product, scaled back by a power of two: the plain expression's bits where it stays normal, else finite.
    """
    if not (n1 > 0.0) or not (n2 > 0.0):
        raise ValueError("fuel constants must be positive")
    if c == 0.0:
        raise ValueError("the coefficient product constraint is degenerate")
    (mc, ec), (m1, e1), (m2, e2) = math.frexp(abs(c)), _root(n1, p), _root(n2, p)

    def root(m: float, e: int, name: str) -> float:  # sqrt(m 2^e), refused as ``name`` where it overflows
        return _finite_ldexp(math.sqrt(math.ldexp(m, e % 2)), e // 2, "%s of the %s for c = %r", name, what, c)

    b1, b2 = root(mc * m2 / m1, ec + e2 - e1, "b1"), root(mc * m1 / m2, ec + e1 - e2, "b2")
    for name, b in (("b1", b1), ("b2", b2)):
        if b < sys.float_info.min:  # a subnormal b has too few bits for b1 b2 to be c
            how = "to zero" if b == 0.0 else f"below the normal range, to {b!r}"
            raise DomainError(f"{name} of the {what} for c = {c!r} underflows {how}: it cannot reach the target")
    s = root(mc * m1 * m2, ec + e1 + e2, "J*")  # J* = 2 s^p, so an infinite s is an infinite J*
    power = s**p if s < 2.0 ** (1023.0 / p) else math.inf  # a float power above the range raises
    return b1, math.copysign(b2, c), _finite(2.0 * power, "J* of the %s for c = %r", what, c)
