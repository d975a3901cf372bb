"""Sturm-Liouville certification of the supported families.

Every family here solves (1/w) (P y')' + lambda y = 0 on (-1, 1).  A
polynomial family with weight exponents (a, b) is the Jacobi problem

    P = (1-t)^(a+1) (1+t)^(b+1),  w = (1-t)^a (1+t)^b,  lambda = n (n + a + b + 1)

(legendre a = b = 0, chebyshev_first -1/2, chebyshev_second +1/2, jacobi
alpha, beta); trig_sin/cos have P = w = 1 and lambda = n^2 pi^2.

``sl_residual`` plugs a candidate function into that expression.  Its y'
and y'' come from ``value_and_derivatives``, which for family elements is
the Jacobi derivative rule of ``orthopoly`` and never the equation itself,
so a residual at roundoff is evidence, not an identity.
``jacobi_pairing`` builds the coefficient pair (a1, a2) whose weighted-energy
problem has Jacobi extremals, together with the partner family that shares
the same eigenvalue, and ``certify_pair`` checks both numerically.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .orthopoly import (
    CANONICAL_INTERVAL,
    JACOBI,
    TRIG_COS,
    TRIG_SIN,
    BasisElement,
    InputSignal,
    Term,
    WeightFn,
    weight_fn,
)

__all__ = [
    "SLProblem",
    "JacobiPairing",
    "PairingReport",
    "chebyshev_nodes",
    "family_sl_problem",
    "sl_residual",
    "jacobi_pairing",
    "certify_pair",
    "value_and_derivatives",
]

_FD_STEP = 1e-5


def chebyshev_nodes(count: int, interval=CANONICAL_INTERVAL) -> np.ndarray:
    """``count`` strictly interior Chebyshev-spaced points of the interval."""
    if count < 1:
        raise ValueError("need at least one node")
    lo, hi = float(interval[0]), float(interval[1])
    k = np.arange(count)
    tau = np.cos((2 * k + 1) * np.pi / (2 * count))
    return 0.5 * (hi + lo) + 0.5 * (hi - lo) * tau


def value_and_derivatives(y, t: float) -> tuple[float, float, float]:
    """(y, y', y'') at a scalar t; the one derivative dispatcher of the package.

    A number is a constant.  A weight (1 - tau)^a (1 + tau)^b is the weighted
    zeroth Jacobi term of its exponents, and basis elements and terms become
    one-term signals: all of these use the Jacobi derivative rule of
    ``orthopoly``.  Anything with ``derivative`` and ``second_derivative``
    methods uses them; any other callable falls back to central differences
    with step 1e-5 (good to ~1e-6 for smooth functions).
    """
    if isinstance(y, (int, float)):
        return float(y), 0.0, 0.0
    if isinstance(y, WeightFn):
        y = Term(BasisElement(JACOBI, 0, y.interval, y.exponents), weighted=True)
    if isinstance(y, BasisElement):
        y = Term(y)
    if isinstance(y, Term):
        y = InputSignal((y,), y.element.interval)
    if hasattr(y, "derivative") and hasattr(y, "second_derivative"):
        return float(y(t)), float(y.derivative(t)), float(y.second_derivative(t))
    h = _FD_STEP
    f0 = float(y(t))
    fp = float(y(t + h))
    fm = float(y(t - h))
    return f0, (fp - fm) / (2.0 * h), (fp - 2.0 * f0 + fm) / (h * h)


@dataclass(frozen=True)
class SLProblem:
    """Coefficients of (1/w) (P y')' + lambda y with its eigenvalue.

    ``p`` is anything ``value_and_derivatives`` takes.
    """

    p: object
    w: object
    lam: float
    interval: tuple[float, float] = CANONICAL_INTERVAL


def family_sl_problem(family: str, index: int, jacobi_params=None) -> SLProblem:
    """The self-adjoint problem solved by the family's ``index``-th element.

    Every polynomial family takes the Jacobi form of its weight exponents
    (a, b): P = (1-t)^(a+1) (1+t)^(b+1), w = (1-t)^a (1+t)^b and
    lambda = n (n + a + b + 1).
    """
    n = int(index)
    if n < 0:
        raise ValueError("index must be nonnegative")
    w = weight_fn(family, jacobi_params=jacobi_params)
    if family in (TRIG_SIN, TRIG_COS):
        return SLProblem(p=w, w=w, lam=float(n * n) * math.pi**2)
    a, b = w.exponents
    p = weight_fn(JACOBI, jacobi_params=(a + 1.0, b + 1.0))
    return SLProblem(p=p, w=w, lam=float(n * (n + a + b + 1.0)))


def sl_residual(problem: SLProblem, y, t: float) -> float:
    """Residual of the self-adjoint equation at an interior point t.

    Computes (P'(t) y' + P(t) y'') / w(t) + lambda y; an eigenfunction
    makes this vanish identically.
    """
    lo, hi = problem.interval
    t = float(t)
    if not (lo < t < hi):
        raise DomainError("sl_residual is defined at interior points only")
    val, d1, d2 = value_and_derivatives(y, t)
    p_val, dp_val, _ = value_and_derivatives(problem.p, t)
    return (dp_val * d1 + p_val * d2) / float(problem.w(t)) + problem.lam * val


@dataclass(frozen=True)
class JacobiPairing:
    """Coefficient pair whose extremals are Jacobi-type in both channels.

    ``a1`` is the reciprocal family weight (1-t)^(-alpha) (1+t)^(-beta);
    ``a2`` is (1-t)^(alpha+1) (1+t)^(beta+1).  The first channel's shape is
    k1 = P_n^(alpha, beta).  The second channel shares the eigenvalue
    4 lambda^2 = n (n + alpha + beta + 1) through the exponent-flipped
    parameters (eta, zeta) = (-alpha - 1, -beta - 1) at order
    l = n + alpha + beta + 1; k2 is constructible only when l is a
    nonnegative integer and eta, zeta > -1, and is None otherwise.
    """

    alpha: float
    beta: float
    n: int
    lam: float
    eta: float
    zeta: float
    order2: float
    a1: WeightFn
    a2: WeightFn
    k1: BasisElement
    k2: BasisElement | None


def jacobi_pairing(alpha: float, beta: float, n: int) -> JacobiPairing:
    """Build the weighted-energy pairing for parameters (alpha, beta).

    Requires -1 < alpha, beta <= 0 so that both coefficient functions are
    integrable weights; ``n`` is the order of the first channel's shape.
    """
    alpha = float(alpha)
    beta = float(beta)
    if not (-1.0 < alpha <= 0.0) or not (-1.0 < beta <= 0.0):
        raise DomainError("jacobi pairing requires alpha, beta in (-1, 0]")
    n = int(n)
    if n < 0:
        raise ValueError("n must be a nonnegative integer")
    lam_sq4 = n * (n + alpha + beta + 1.0)
    lam = 0.5 * math.sqrt(max(lam_sq4, 0.0))
    eta = -alpha - 1.0
    zeta = -beta - 1.0
    order2 = n + alpha + beta + 1.0
    a1 = weight_fn(JACOBI, jacobi_params=(-alpha, -beta))
    a2 = weight_fn(JACOBI, jacobi_params=(alpha + 1.0, beta + 1.0))
    k1 = BasisElement(JACOBI, n, jacobi_params=(alpha, beta))
    k2 = None
    l_int = round(order2)
    if abs(order2 - l_int) < 1e-12 and l_int >= 0 and eta > -1.0 and zeta > -1.0:
        k2 = BasisElement(JACOBI, int(l_int), jacobi_params=(eta, zeta))
    return JacobiPairing(
        alpha=alpha,
        beta=beta,
        n=n,
        lam=lam,
        eta=eta,
        zeta=zeta,
        order2=order2,
        a1=a1,
        a2=a2,
        k1=k1,
        k2=k2,
    )


@dataclass(frozen=True)
class PairingReport:
    residual_k1: float
    residual_k2: float | None
    nodes: int


def certify_pair(pairing: JacobiPairing) -> PairingReport:
    """Max self-adjoint residual of each channel shape over 50 interior Chebyshev nodes.

    The first channel is checked against the (alpha, beta) Jacobi problem
    with eigenvalue 4 lambda^2; the second, when constructible, against the
    (eta, zeta) problem at the shared eigenvalue.  Residuals of genuine
    pairs sit at roundoff.
    """
    pts = chebyshev_nodes(50)
    prob1 = family_sl_problem(JACOBI, pairing.n, (pairing.alpha, pairing.beta))
    res1 = max(abs(sl_residual(prob1, pairing.k1, t)) for t in pts)
    res2 = None
    if pairing.k2 is not None:
        prob2 = family_sl_problem(
            JACOBI, pairing.k2.index, (pairing.eta, pairing.zeta)
        )
        # Shared eigenvalue: l (l + eta + zeta + 1) equals n (n + alpha + beta + 1).
        res2 = max(abs(sl_residual(prob2, pairing.k2, t)) for t in pts)
    return PairingReport(residual_k1=res1, residual_k2=res2, nodes=len(pts))
