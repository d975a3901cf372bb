"""Closed-form minimum-energy steering of the three-state bilinear model.

For the weighted energy  J = 1/2 * integral of sqrt(1-t^2) (u1^2 + u2^2)
over [-1, 1], the extremals that move the cross coordinate by ``a`` while
returning (x1, x2) to rest are the Chebyshev combinations

    u1 =  b1 T_{2k}(t) / sqrt(1-t^2) + b2 U_{2k-1}(t)
    u2 =  b2 T_{2k}(t) / sqrt(1-t^2) - b1 U_{2k-1}(t)

with (b1^2 + b2^2) pi / 2 = k |a|; the achieved cost is k |a|, so k = 1 is
optimal, and the split between b1 and b2 is a free phase that changes
nothing measurable.  Negative targets swap the two channels.  The (b1, b2)
combination satisfies the Euler-Lagrange system

    d/dt (a1 u1) + 2 lambda u2 = 0,     d/dt (a2 u2) - 2 lambda u1 = 0

with a1 = a2 = sqrt(1-t^2) and 2 lambda = 2k, which ``el_residual`` checks
pointwise for any candidate pair.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .orthopoly import (
    CANONICAL_INTERVAL,
    CHEBYSHEV_FIRST,
    CHEBYSHEV_SECOND,
    BasisElement,
    InputSignal,
    Term,
    inner_product,
    weight_fn,
)
from .steering import SteeringPlan, _phase
from .sturm import value_and_derivatives

__all__ = [
    "WeightedCost",
    "ChebOptimalSolution",
    "cheb_cost",
    "unit_cost",
    "cheb_extremal_inputs",
    "cheb_optimal_inputs",
    "weighted_cost",
    "el_residual",
    "solution_to_plan",
]


@dataclass(frozen=True)
class WeightedCost:
    """Channel weights of the energy 1/2 * integral (a1 u1^2 + a2 u2^2)."""

    a1: object
    a2: object
    interval: tuple[float, float] = CANONICAL_INTERVAL


def cheb_cost(interval=CANONICAL_INTERVAL) -> WeightedCost:
    """The sqrt(1-t^2)-weighted cost whose extremals are Chebyshev inputs."""
    w = weight_fn(CHEBYSHEV_SECOND, interval=interval)
    return WeightedCost(a1=w, a2=w, interval=tuple(float(x) for x in interval))


def unit_cost(interval=CANONICAL_INTERVAL) -> WeightedCost:
    """The plain L2 energy (both weights identically one)."""
    return WeightedCost(a1=1.0, a2=1.0, interval=tuple(float(x) for x in interval))


@dataclass(frozen=True)
class ChebOptimalSolution:
    """A closed-form extremal: inputs, coefficients, and its exact cost."""

    a: float
    lam: int
    split: float
    b1: float
    b2: float
    u1: InputSignal
    u2: InputSignal
    cost: float
    swapped: bool


def _cheb_pair(b_t: float, b_u: float, order: int) -> InputSignal:
    terms = []
    if b_t != 0.0:
        terms.append(Term(BasisElement(CHEBYSHEV_FIRST, 2 * order), scale=b_t, weighted=True))
    if b_u != 0.0:
        terms.append(Term(BasisElement(CHEBYSHEV_SECOND, 2 * order - 1), scale=b_u))
    return InputSignal(terms=tuple(terms), interval=CANONICAL_INTERVAL)


def cheb_extremal_inputs(a: float, lam: int = 1, split: float = 0.0) -> ChebOptimalSolution:
    """The order-``lam`` extremal moving the cross coordinate by ``a``.

    ``split`` rotates the (b1, b2) pair; every split gives the same
    displacement and the same cost lam * |a|.
    """
    a = float(a)
    if not 0.0 < abs(a) < math.inf:
        raise ValueError(f"the displacement target must be nonzero and finite, got {a!r}")
    if not isinstance(lam, (int, np.integer)) or lam < 1:
        raise ValueError("lam must be a positive integer")
    lam = int(lam)
    split = float(split)
    if not abs(split) < math.inf:
        raise ValueError(f"the split must be finite, got {split!r}")
    radius = math.sqrt(2.0 * lam * abs(a) / math.pi)
    b1 = radius * math.cos(split)
    b2 = radius * math.sin(split)
    u1 = _cheb_pair(b1, b2, lam)
    u2 = _cheb_pair(b2, -b1, lam)
    swapped = a < 0.0
    if swapped:
        u1, u2 = u2, u1
    return ChebOptimalSolution(
        a=a,
        lam=lam,
        split=split,
        b1=b1,
        b2=b2,
        u1=u1,
        u2=u2,
        cost=lam * abs(a),
        swapped=swapped,
    )


def cheb_optimal_inputs(a: float, split: float = 0.0) -> ChebOptimalSolution:
    """The minimum-cost member of the extremal family (order one)."""
    return cheb_extremal_inputs(a, lam=1, split=split)


def weighted_cost(u1, u2, cost: WeightedCost) -> float:
    """Evaluate 1/2 * integral (a1 u1^2 + a2 u2^2) over the cost interval.

    Each channel is ``orthopoly.inner_product(u, u, a)`` on the cost
    interval, so signal inputs and weights expand term by term, endpoint
    weights combine analytically (a ``weight_fn`` channel weight is a
    weighted index-0 term, whose exponents add to the inputs'), a number
    weight is a constant factor, and products of family terms are summed by
    exact Gauss rules.  Any other callable weight or a plain callable input
    enters the product as it is and goes through adaptive quadrature (such an
    input must be bounded).  Each channel is halved first, exactly, so two
    finite channels have a finite sum.
    """
    return 0.5 * inner_product(u1, u1, cost.a1, cost.interval) + 0.5 * inner_product(u2, u2, cost.a2, cost.interval)


def el_residual(u1, u2, cost: WeightedCost, lam: float, t: float) -> tuple[float, float]:
    """Residuals of the Euler-Lagrange system at an interior point.

    r1 = d/dt(a1 u1) + 2 lam u2 and r2 = d/dt(a2 u2) - 2 lam u1; both vanish
    identically along genuine extremals of the weighted energy.  Values and
    slopes of weights and inputs come from ``sturm.value_and_derivatives``.
    """
    t = float(t)
    lo, hi = cost.interval
    if not (lo < t < hi):
        raise ValueError("el_residual is defined at interior points only")
    a1_val, a1_slope, _ = value_and_derivatives(cost.a1, t)
    a2_val, a2_slope, _ = value_and_derivatives(cost.a2, t)
    u1_val, u1_slope, _ = value_and_derivatives(u1, t)
    u2_val, u2_slope, _ = value_and_derivatives(u2, t)
    r1 = a1_slope * u1_val + a1_val * u1_slope + 2.0 * lam * u2_val
    r2 = a2_slope * u2_val + a2_val * u2_slope - 2.0 * lam * u1_val
    return (r1, r2)


def solution_to_plan(solution: ChebOptimalSolution, x0=(0.0, 0.0, 0.0)) -> SteeringPlan:
    """Wrap a closed-form solution as a one-phase plan (cost is the weighted one)."""
    x1, x2, x3 = (float(v) for v in x0)
    endpoint = [x1, x2, x3 + solution.a]
    phase = _phase(CANONICAL_INTERVAL, (solution.u1, solution.u2), ["x1", "x2", "x3"], endpoint, ["x3"])
    return SteeringPlan(
        system="nhi",
        family=CHEBYSHEV_FIRST,
        interval=CANONICAL_INTERVAL,
        initial={"x1": x1, "x2": x2, "x3": x3},
        phases=(phase,),
        predicted_endpoint=phase.endpoint,
        cost=solution.cost,
        closed_form="chebyshev_minimum_energy",
    )
