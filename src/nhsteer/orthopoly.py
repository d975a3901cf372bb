"""Orthogonal function families and the integration machinery built on them.

Supported families on the canonical interval [-1, 1] (or shifted to [0, 1]):

* ``legendre``           P_n,  weight 1
* ``chebyshev_first``    T_n,  weight (1 - t^2)^(-1/2)
* ``chebyshev_second``   U_n,  weight (1 - t^2)^(+1/2)
* ``jacobi``             P_n^(alpha, beta), weight (1 - t)^alpha (1 + t)^beta
* ``trig_sin``           sin(n pi t), weight 1
* ``trig_cos``           cos(n pi t), weight 1

Derivatives (``evaluate_derivative``, ``InputSignal.derivative`` and their
second-order versions) come from one rule for every polynomial family,
d/dt P_n^(a,b) = (n + a + b + 1)/2 P_{n-1}^(a+1,b+1) (DLMF 18.9.15), applied
to the family's Jacobi form and accurate up to and at the endpoints; trig
elements use their closed forms, and a weighted term adds its weight's
derivatives by the Leibniz rule.  No derivative is taken from a
differential equation, so ``sturm.sl_residual`` checks the recurrences.

Which rule serves which integrand:

* Products of family terms (``inner_product``, ``optimal_energy.weighted_cost``
  and ``dynamics.coupling_displacement``) go through ``_product_integrals``.
  A polynomial of degree D against (1 - t)^a (1 + t)^b is summed on
  floor(D/2) + 1 Gauss-Jacobi nodes (``_gauss_jacobi``, built on first use
  and cached), a trig polynomial of index sum K by the K + 1 point trapezoid
  sum over its period; both exact.
* Running integrals of terms are exact (``_term_running_integral_canonical``):
  a polynomial times a Jacobi weight, a trig polynomial or an arcsine form.
* ``integrate``, adaptive Gauss-Legendre in s with t = -cos(s) for endpoint
  weights, serves bare callables, mixed trig and polynomial products and
  weighted Jacobi of index 0, whose antiderivative is an incomplete beta
  function.
* L1/Lp norms go panel by panel between the sign changes (a degree-sized
  scan in s and batched bisection): closed-form running integrals at p = 1,
  otherwise a 40-node Gauss-Legendre rule in s checked against 20 nodes,
  and ``integrate_smooth`` for a panel where the two disagree.

Degrees are capped at 64; beyond that the
recurrences are still fine but we refuse rather than pretend the rest of the
package (planning, quadrature tolerances) has been validated there.
"""

from __future__ import annotations

import functools
import heapq
import itertools
import math
import operator
from dataclasses import dataclass, replace

import numpy as np

from .errors import CapabilityError, DomainError, IntegrabilityError

__all__ = [
    "LEGENDRE",
    "CHEBYSHEV_FIRST",
    "CHEBYSHEV_SECOND",
    "JACOBI",
    "TRIG_SIN",
    "TRIG_COS",
    "FAMILIES",
    "INDEX_CAP",
    "CANONICAL_INTERVAL",
    "SHIFTED_INTERVAL",
    "BasisElement",
    "WeightFn",
    "Term",
    "InputSignal",
    "Harmonic",
    "evaluate",
    "evaluate_derivative",
    "evaluate_second_derivative",
    "shift",
    "weight_fn",
    "weight_exponents",
    "element_parity",
    "basis_signal",
    "constant_signal",
    "scale_signal",
    "combine_signals",
    "inner_product",
    "integrate",
    "integrate_smooth",
    "l1_norm",
    "lp_norm",
]

LEGENDRE = "legendre"
CHEBYSHEV_FIRST = "chebyshev_first"
CHEBYSHEV_SECOND = "chebyshev_second"
JACOBI = "jacobi"
TRIG_SIN = "trig_sin"
TRIG_COS = "trig_cos"

FAMILIES = (LEGENDRE, CHEBYSHEV_FIRST, CHEBYSHEV_SECOND, JACOBI, TRIG_SIN, TRIG_COS)

INDEX_CAP = 64

CANONICAL_INTERVAL = (-1.0, 1.0)
SHIFTED_INTERVAL = (0.0, 1.0)

_EDGE_TOL = 1e-12


def _check_interval(interval) -> tuple[float, float]:
    interval = (float(interval[0]), float(interval[1]))
    if interval not in (CANONICAL_INTERVAL, SHIFTED_INTERVAL):
        raise ValueError(
            f"interval must be {CANONICAL_INTERVAL} or {SHIFTED_INTERVAL}, got {interval}"
        )
    return interval


def _check_family_fields(obj) -> None:
    """Validate and normalize family, interval and jacobi_params of an element or weight."""
    if obj.family not in FAMILIES:
        raise ValueError(f"unknown family {obj.family!r}")
    object.__setattr__(obj, "interval", _check_interval(obj.interval))
    if obj.family == JACOBI:
        if obj.jacobi_params is None:
            raise ValueError("the jacobi family requires jacobi_params=(alpha, beta)")
        alpha, beta = map(float, obj.jacobi_params)
        if not (-1.0 < alpha < math.inf and -1.0 < beta < math.inf):
            raise ValueError(f"jacobi parameters must be finite with alpha, beta > -1, got {(alpha, beta)}")
        object.__setattr__(obj, "jacobi_params", (alpha, beta))
    elif obj.jacobi_params is not None:
        raise ValueError("jacobi_params is only valid for the jacobi family")


@dataclass(frozen=True)
class BasisElement:
    """One member of an orthogonal family on a fixed interval."""

    family: str
    index: int
    interval: tuple[float, float] = CANONICAL_INTERVAL
    jacobi_params: tuple[float, float] | None = None

    def __post_init__(self):
        _check_family_fields(self)
        if not isinstance(self.index, (int, np.integer)):
            raise ValueError("index must be an integer")
        if self.index < 0:
            raise ValueError("index must be nonnegative")
        if self.index > INDEX_CAP:
            raise CapabilityError(
                f"index {self.index} exceeds the supported cap of {INDEX_CAP}"
            )
        if self.family == TRIG_SIN and self.index == 0:
            raise ValueError("trig_sin index 0 is the zero function")


def shift(element: BasisElement) -> BasisElement:
    """Return the same element precomposed with tau = 2t - 1, living on [0, 1]."""
    if element.interval != CANONICAL_INTERVAL:
        raise ValueError("shift expects an element on the canonical interval")
    return replace(element, interval=SHIFTED_INTERVAL)


def element_parity(element: BasisElement):
    """Parity on the canonical variable: +1 even, -1 odd, None if indefinite."""
    if element.family == TRIG_SIN:
        return -1
    if element.family == TRIG_COS:
        return +1
    if element.family == JACOBI:
        alpha, beta = element.jacobi_params
        if alpha != beta:
            return None
        return -1 if element.index % 2 else +1
    return -1 if element.index % 2 else +1


# ---------------------------------------------------------------------------
# Evaluation by recurrence
# ---------------------------------------------------------------------------


def _legendre_all(n: int, tau: np.ndarray) -> list[np.ndarray]:
    vals = [np.ones_like(tau)]
    if n >= 1:
        vals.append(tau.copy())
    for k in range(1, n):
        vals.append(((2 * k + 1) * tau * vals[k] - k * vals[k - 1]) / (k + 1))
    return vals


def _chebyshev_t_all(n: int, tau: np.ndarray) -> list[np.ndarray]:
    vals = [np.ones_like(tau)]
    if n >= 1:
        vals.append(tau.copy())
    for k in range(1, n):
        vals.append(2.0 * tau * vals[k] - vals[k - 1])
    return vals


def _chebyshev_u_all(n: int, tau: np.ndarray) -> list[np.ndarray]:
    vals = [np.ones_like(tau)]
    if n >= 1:
        vals.append(2.0 * tau)
    for k in range(1, n):
        vals.append(2.0 * tau * vals[k] - vals[k - 1])
    return vals


def _jacobi_all(n: int, alpha: float, beta: float, tau: np.ndarray) -> list[np.ndarray]:
    vals = [np.ones_like(tau)]
    if n >= 1:
        vals.append(0.5 * (alpha + beta + 2.0) * tau + 0.5 * (alpha - beta))
    for k in range(1, n):
        m = k + 1
        c = 2.0 * m + alpha + beta
        a1 = 2.0 * m * (m + alpha + beta) * (c - 2.0)
        a2 = (c - 1.0) * (alpha * alpha - beta * beta)
        a3 = (c - 2.0) * (c - 1.0) * c
        a4 = 2.0 * (m + alpha - 1.0) * (m + beta - 1.0) * c
        vals.append(((a2 + a3 * tau) * vals[k] - a4 * vals[k - 1]) / a1)
    return vals


def _eval_canonical(family: str, index: int, params, tau: np.ndarray) -> np.ndarray:
    if family == LEGENDRE:
        return _legendre_all(index, tau)[index]
    if family == CHEBYSHEV_FIRST:
        return _chebyshev_t_all(index, tau)[index]
    if family == CHEBYSHEV_SECOND:
        return _chebyshev_u_all(index, tau)[index]
    if family == JACOBI:
        alpha, beta = params
        return _jacobi_all(index, alpha, beta, tau)[index]
    if family == TRIG_SIN:
        return np.sin(index * np.pi * tau)
    if family == TRIG_COS:
        return np.cos(index * np.pi * tau)
    raise ValueError(f"unknown family {family!r}")


def _deriv_canonical(family: str, index: int, params, tau: np.ndarray, order: int) -> np.ndarray:
    """The ``order``-th derivative (1 or 2) of the element in the canonical variable.

    Trig elements use their closed forms.  Every polynomial family is
    E_n = kappa_n P_n^(a,b) for its weight exponents (a, b), with
    kappa_n = E_n(1) n! / (a+1)_n (1 for Legendre and Jacobi), so one rule
    (DLMF 18.9.15) serves all of them, endpoints included:
    d^k E_n = kappa_n 2^-k (n+a+b+1)_k P_{n-k}^(a+k,b+k).
    """
    n = index
    if family == TRIG_SIN:
        arg = n * np.pi * tau
        return n * np.pi * np.cos(arg) if order == 1 else -((n * np.pi) ** 2) * np.sin(arg)
    if family == TRIG_COS:
        arg = n * np.pi * tau
        return -n * np.pi * np.sin(arg) if order == 1 else -((n * np.pi) ** 2) * np.cos(arg)
    if n < order:
        return np.zeros_like(tau)
    a, b = weight_exponents(family, params)
    coef = 1.0
    if family in (CHEBYSHEV_FIRST, CHEBYSHEV_SECOND):
        end_value = n + 1.0 if family == CHEBYSHEV_SECOND else 1.0
        coef = end_value * math.prod(j / (j + a) for j in range(1, n + 1))
    for j in range(order):
        coef *= 0.5 * (n + a + b + (j + 1.0))
    return coef * _jacobi_all(n - order, a + order, b + order, tau)[n - order]


def _to_canonical(element_interval: tuple[float, float], t):
    """Map points of the element's interval to the canonical variable tau."""
    t = np.asarray(t, dtype=float)
    lo, hi = element_interval
    if np.any(t < lo - _EDGE_TOL) or np.any(t > hi + _EDGE_TOL):
        raise DomainError(f"evaluation point outside [{lo}, {hi}]")
    if element_interval == CANONICAL_INTERVAL:
        tau = t
    else:
        tau = 2.0 * t - 1.0
    return np.clip(tau, -1.0, 1.0)


def _unwrap(value: np.ndarray, t):
    if np.isscalar(t) or (isinstance(t, np.ndarray) and t.ndim == 0):
        return float(np.asarray(value).reshape(()))
    return value


def evaluate(element: BasisElement, t):
    """Evaluate the element at ``t`` (scalar or array) on its own interval."""
    return Term(element).value(t)


def evaluate_derivative(element: BasisElement, t):
    """First derivative with respect to the element's own variable ``t``."""
    return InputSignal((Term(element),), element.interval).derivative(t)


def evaluate_second_derivative(element: BasisElement, t):
    """Second derivative with respect to the element's own variable ``t``."""
    return InputSignal((Term(element),), element.interval).second_derivative(t)


# ---------------------------------------------------------------------------
# Weights
# ---------------------------------------------------------------------------


def weight_exponents(family: str, jacobi_params=None) -> tuple[float, float]:
    """Endpoint exponents (a, b) of the family weight (1-tau)^a (1+tau)^b."""
    if family in (LEGENDRE, TRIG_SIN, TRIG_COS):
        return (0.0, 0.0)
    if family == CHEBYSHEV_FIRST:
        return (-0.5, -0.5)
    if family == CHEBYSHEV_SECOND:
        return (0.5, 0.5)
    if family == JACOBI:
        if jacobi_params is None:
            raise ValueError("jacobi weight requires jacobi_params")
        return (float(jacobi_params[0]), float(jacobi_params[1]))
    raise ValueError(f"unknown family {family!r}")


def _weigh(factor, tau, a: float, b: float):
    """factor * (1 - tau)^a * (1 + tau)^b, left to right; a singular endpoint in ``tau`` raises."""
    if a == 0.0 and b == 0.0:
        return factor
    if a < 0 and np.any(tau >= 1.0 - _EDGE_TOL):
        raise DomainError("weight is singular at the right endpoint")
    if b < 0 and np.any(tau <= -1.0 + _EDGE_TOL):
        raise DomainError("weight is singular at the left endpoint")
    return factor * (1.0 - tau) ** a * (1.0 + tau) ** b


def _arc_weigh(factor, s, a: float, b: float):
    """factor * cos(s/2)^(2a+1) * sin(s/2)^(2b+1): the weight times dt/ds under tau = -cos(s), up to a constant."""
    return factor * np.cos(0.5 * s) ** (2.0 * a + 1.0) * np.sin(0.5 * s) ** (2.0 * b + 1.0)


@dataclass(frozen=True)
class WeightFn:
    """A family weight, optionally transported to the shifted interval.

    On [0, 1] the transported weight is w(2t - 1); the exponents stay
    expressed in the canonical variable.
    """

    family: str
    interval: tuple[float, float] = CANONICAL_INTERVAL
    jacobi_params: tuple[float, float] | None = None

    def __post_init__(self):
        _check_family_fields(self)

    @property
    def exponents(self) -> tuple[float, float]:
        return weight_exponents(self.family, self.jacobi_params)

    def __call__(self, t):
        tau = _to_canonical(self.interval, t)
        arr = np.atleast_1d(tau)
        return _unwrap(_weigh(np.ones_like(arr), arr, *self.exponents).reshape(np.shape(tau)), t)

    def log_derivative(self, t):
        """w'(t)/w(t); on the shifted interval the chain-rule factor is included."""
        tau = _to_canonical(self.interval, t)
        a, b = self.exponents
        arr = np.atleast_1d(tau)
        if np.any(np.abs(arr) >= 1.0 - _EDGE_TOL) and (a != 0 or b != 0):
            raise DomainError("weight log-derivative requires interior points")
        out = -a / (1.0 - arr) + b / (1.0 + arr)
        if self.interval == SHIFTED_INTERVAL:
            out = 2.0 * out
        return _unwrap(out.reshape(np.shape(tau)), t)


def weight_fn(family: str, interval=CANONICAL_INTERVAL, jacobi_params=None) -> WeightFn:
    return WeightFn(family=family, interval=_check_interval(interval), jacobi_params=jacobi_params)


# ---------------------------------------------------------------------------
# Gauss-Jacobi rules and adaptive Gauss-Legendre quadrature
# ---------------------------------------------------------------------------


@functools.lru_cache(maxsize=128)
def _gauss_jacobi(a: float, b: float, n: int) -> tuple[np.ndarray, np.ndarray]:
    """The n-node Gauss rule for the weight (1 - x)^a (1 + x)^b on [-1, 1].

    Nodes are the eigenvalues of the Jacobi matrix (Golub & Welsch 1969),
    improved by one Newton step; weights come from the Christoffel formula
    C / ((1 - x^2) P_n'(x)^2) at the improved nodes.  The k = 0 diagonal and
    the k = 1 off-diagonal entries are written in the forms that stay finite
    at a + b = 0 and a + b = -1 (Chebyshev first kind is a = b = -1/2).
    """
    k = np.arange(1.0, n)
    s = 2.0 * k + a + b
    diag = np.full(n, (b - a) / (a + b + 2.0))
    diag[1:] = (b * b - a * a) / (s * (s + 2.0))
    off = 4.0 * (k + a) * (k + b) / (s * s * (s + 1.0))
    off[1:] *= k[1:] * (k[1:] + a + b) / (s[1:] - 1.0)
    x = np.linalg.eigvalsh(np.diag(diag) + np.diag(np.sqrt(off), -1))
    x = x - _jacobi_all(n, a, b, x)[n] / _deriv_canonical(JACOBI, n, (a, b), x, 1)
    slope = _deriv_canonical(JACOBI, n, (a, b), x, 1)
    # C = 2^(a+b+1) G(n+a+1) G(n+b+1) / (G(n+a+b+1) n!), as a product from the n = 1 value
    j = np.arange(2.0, n + 1.0)
    c = 2.0 ** (a + b + 1.0) * math.exp(math.lgamma(a + 2.0) + math.lgamma(b + 2.0) - math.lgamma(a + b + 2.0))
    c *= np.prod((j + a) * (j + b) / (j * (j + a + b)))
    w = c / ((1.0 - x) * (1.0 + x) * slope * slope)
    x.flags.writeable = w.flags.writeable = False
    return x, w


def _eval_array(f, t) -> np.ndarray:
    """Values of ``f`` at the points of ``t``, with the shape of ``t``.

    ``f`` is called once on the whole array; a callable that accepts only
    scalars (it raises, or returns a different shape) is called point by point.
    """
    t = np.asarray(t, dtype=float)
    try:
        vals = np.asarray(f(t), dtype=float)
        if vals.shape == t.shape:
            return vals
    except (TypeError, ValueError):
        pass
    return np.array([float(f(x)) for x in t.ravel()]).reshape(t.shape)


def _gl_panel(f, lo: float, hi: float) -> float:
    half = 0.5 * (hi - lo)
    mid = 0.5 * (hi + lo)
    nodes, weights = _gauss_jacobi(0.0, 0.0, 20)
    return half * float(np.dot(weights, _eval_array(f, mid + half * nodes)))


_ABS_TOL = 1e-12
_REL_TOL = 1e-10
_MAX_PANELS = 4096


def integrate_smooth(f, lo: float, hi: float) -> float:
    """Globally adaptive 20-point Gauss-Legendre integration.

    The worst panel (largest difference between its one-panel and two-panel
    estimates) is split until the summed error estimate meets the tolerance
    max(1e-12, 1e-10 |total|), or 4096 panels are in use.
    Endpoint kinks of algebraic type just cost a geometric cascade of panels;
    an actually divergent integrand runs the panel budget out and raises
    ``IntegrabilityError``.
    """
    lo = float(lo)
    hi = float(hi)
    if hi <= lo:
        if hi == lo:
            return 0.0
        raise ValueError("integration interval is reversed")

    def refined(a: float, b: float):
        m = 0.5 * (a + b)
        coarse = _gl_panel(f, a, b)
        fine = _gl_panel(f, a, m) + _gl_panel(f, m, b)
        return fine, abs(fine - coarse)

    fine, err = refined(lo, hi)
    counter = 0
    heap = [(-err, counter, lo, hi, fine)]
    total, total_err = fine, err
    while heap:
        tol = max(_ABS_TOL, _REL_TOL * abs(total))
        if total_err <= tol or len(heap) >= _MAX_PANELS:
            break
        neg_err, _, a, b, fval = heapq.heappop(heap)
        perr = -neg_err
        # Splitting below roundoff or below representable width cannot help.
        if perr <= 1e-16 * (abs(total) + abs(fval)) or (b - a) <= 1e-15 * (hi - lo):
            heapq.heappush(heap, (neg_err, counter, a, b, fval))
            break
        m = 0.5 * (a + b)
        fl, el = refined(a, m)
        fr, er = refined(m, b)
        total += (fl + fr) - fval
        total_err += (el + er) - perr
        counter += 1
        heapq.heappush(heap, (-el, counter, a, m, fl))
        counter += 1
        heapq.heappush(heap, (-er, counter, m, b, fr))
    if total_err > 1e3 * max(_ABS_TOL, _REL_TOL * abs(total)):
        raise IntegrabilityError(
            "quadrature failed to converge; integrand appears singular"
        )
    return total


def integrate(
    f_smooth,
    interval: tuple[float, float],
    exponents: tuple[float, float] = (0.0, 0.0),
    box: tuple[float, float] | None = None,
) -> float:
    """Integrate ``f_smooth(t) * (1 - tau)^a (1 + tau)^b`` over ``interval``.

    ``tau`` is the canonical variable of ``box`` (defaults to ``interval``),
    so endpoint singularities sit at the box edges.  Nonzero exponents are
    handled with the substitution tau = -cos(s), which turns the weight into
    ``2^(a+b+1) cos(s/2)^(2a+1) sin(s/2)^(2b+1)``: smooth when 2a + 1 and
    2b + 1 are nonnegative integers, otherwise a milder endpoint power that
    the adaptive panels resolve by splitting.  Exponents at or below -1 raise
    ``IntegrabilityError``.
    """
    a, b = exponents
    lo, hi = float(interval[0]), float(interval[1])
    if box is None:
        box = (lo, hi)
    blo, bhi = float(box[0]), float(box[1])
    if lo < blo - _EDGE_TOL or hi > bhi + _EDGE_TOL:
        raise ValueError("integration interval must lie inside the box")
    if hi <= lo:
        return 0.0
    if a == 0.0 and b == 0.0:
        return integrate_smooth(f_smooth, lo, hi)
    if a <= -1.0 or b <= -1.0:
        raise IntegrabilityError(
            f"endpoint exponents {exponents} are not integrable"
        )
    half = 0.5 * (bhi - blo)
    mid = 0.5 * (bhi + blo)
    factor = half * 2.0 ** (a + b + 1.0)

    def tau_of(t):
        return np.clip((np.asarray(t, dtype=float) - mid) / half, -1.0, 1.0)

    s_lo = float(np.arccos(-tau_of(lo)))
    s_hi = float(np.arccos(-tau_of(hi)))

    def g(s):
        return _arc_weigh(np.asarray(f_smooth(mid - half * np.cos(s)), dtype=float), s, a, b)

    return factor * integrate_smooth(g, s_lo, s_hi)


# ---------------------------------------------------------------------------
# Terms and input signals
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Term:
    """A scaled basis element, optionally multiplied by its own family weight."""

    element: BasisElement
    scale: float = 1.0
    weighted: bool = False

    def __post_init__(self):
        object.__setattr__(self, "scale", float(self.scale))

    @property
    def exponents(self) -> tuple[float, float]:
        if not self.weighted:
            return (0.0, 0.0)
        return weight_exponents(self.element.family, self.element.jacobi_params)

    def smooth(self, t):
        """The weight-free part scale * E(t); accepts arrays."""
        return self.scale * evaluate(self.element, t)

    def value(self, t):
        tau = _to_canonical(self.element.interval, t)
        arr = np.atleast_1d(tau)
        el = self.element
        base = self.scale * _eval_canonical(el.family, el.index, el.jacobi_params, arr)
        return _unwrap(_weigh(base, arr, *self.exponents).reshape(np.shape(tau)), t)

    def to_json_dict(self) -> dict:
        out = {
            "family": self.element.family,
            "index": int(self.element.index),
            "scale": self.scale,
            "weighted": self.weighted,
        }
        if self.element.jacobi_params is not None:
            out["alpha"], out["beta"] = self.element.jacobi_params
        return out

    @staticmethod
    def from_json_dict(data: dict, interval) -> "Term":
        params = None
        if "alpha" in data:
            params = (float(data["alpha"]), float(data["beta"]))
        element = BasisElement(
            family=data["family"],
            index=int(data["index"]),
            interval=tuple(interval),
            jacobi_params=params,
        )
        return Term(element=element, scale=float(data["scale"]), weighted=bool(data["weighted"]))


def _term_running_integral_canonical(term: Term):
    """The antiderivative F from -1 of a term in the canonical variable.

    As (p, (a, b), d, degree) with F = (1 - tau)^a (1 + tau)^b p(tau) / d and
    ``degree`` the (polynomial degree, trig index) of p, or None for the
    arcsine forms of weighted index 0.  Weighted Jacobi of index n >= 1 uses
    d/dtau [(1-tau)^(a+1) (1+tau)^(b+1) P_{n-1}^(a+1,b+1)] = -2n (1-tau)^a (1+tau)^b P_n^(a,b);
    unweighted Jacobi of index n >= 1 sums P_n on floor(n/2) + 1 Gauss-Legendre
    nodes of [-1, tau], exact for degree n.  None for weighted Jacobi of index 0.
    """
    fam = term.element.family
    n = term.element.index
    a, b = term.exponents
    unweighted = (0.0, 0.0)
    if n == 0 and (a, b) == unweighted:
        return (lambda tau: tau + 1.0), unweighted, 1.0, (1, 0)
    if fam == LEGENDRE:

        def legendre(tau):  # P_{n+1} - P_{n-1} vanishes at -1
            vals = _legendre_all(n + 1, tau)
            return vals[n + 1] - vals[n - 1]

        return legendre, unweighted, 2 * n + 1.0, (n + 1, 0)
    if fam == TRIG_SIN:
        return (lambda tau: ((-1.0) ** n - np.cos(n * np.pi * tau)) / (n * np.pi)), unweighted, 1.0, (0, n)
    if fam == TRIG_COS:
        return (lambda tau: np.sin(n * np.pi * tau) / (n * np.pi)), unweighted, 1.0, (0, n)
    if fam == CHEBYSHEV_FIRST and (a, b) == unweighted:
        if n == 1:
            return (lambda tau: 0.5 * (tau * tau - 1.0)), unweighted, 1.0, (2, 0)

        def first_kind(tau):
            vals = _chebyshev_t_all(n + 1, tau)
            return 0.5 * (vals[n + 1] / (n + 1) - vals[n - 1] / (n - 1)) - (-1.0) ** n / (n * n - 1.0)

        return first_kind, unweighted, 1.0, (n + 1, 0)
    if fam == CHEBYSHEV_FIRST:
        if n == 0:
            return (lambda tau: np.arcsin(tau) + 0.5 * np.pi), unweighted, 1.0, None
        return (lambda tau: -_chebyshev_u_all(n - 1, tau)[n - 1]), (0.5, 0.5), float(n), (n - 1, 0)
    if fam == CHEBYSHEV_SECOND and (a, b) == unweighted:
        end = (-1.0) ** (n + 1)
        return (lambda tau: _chebyshev_t_all(n + 1, tau)[n + 1] - end), unweighted, n + 1.0, (n + 1, 0)
    if fam == CHEBYSHEV_SECOND:
        if n == 0:

            def arcsine(tau):
                root = np.sqrt(np.clip(1.0 - tau * tau, 0.0, None))
                return 0.5 * (tau * root + np.arcsin(tau)) + 0.25 * np.pi

            return arcsine, unweighted, 1.0, None

        def second_kind(tau):
            vals = _chebyshev_u_all(n + 1, tau)
            return vals[n + 1] / (n + 2) - vals[n - 1] / n

        return second_kind, (0.5, 0.5), 2.0, (n + 1, 0)
    if fam == JACOBI and (a, b) != unweighted and n > 0:
        raised = (a + 1.0, b + 1.0)
        return (lambda tau: _jacobi_all(n - 1, *raised, tau)[n - 1]), raised, -2.0 * n, (n - 1, 0)
    if fam == JACOBI and (a, b) == unweighted:

        def gauss_legendre(tau):
            x, w = _gauss_jacobi(0.0, 0.0, n // 2 + 1)
            half = 0.5 * (tau[..., None] + 1.0)
            return half[..., 0] * (_jacobi_all(n, *term.element.jacobi_params, half * (x + 1.0) - 1.0)[n] @ w)

        return gauss_legendre, unweighted, 1.0, (n + 1, 0)
    return None


def _running_quadrature(fn, exponents, box):
    """Running integral of fn * (1 - tau)^a (1 + tau)^b from the left end of ``box``, adaptively per point."""
    return np.vectorize(lambda t: integrate(fn, (box[0], t), exponents, box=box), otypes=[float])


@dataclass(frozen=True)
class InputSignal:
    """A finite combination of (possibly weighted) basis terms on one interval.

    Callable; also knows its derivative and second derivative (the Jacobi
    rule per term, with the Leibniz rule for weighted terms) and its running
    integral (exact per term, adaptive quadrature per point only for
    weighted Jacobi of index 0).
    """

    terms: tuple[Term, ...]
    interval: tuple[float, float] = CANONICAL_INTERVAL

    def __post_init__(self):
        object.__setattr__(self, "interval", _check_interval(self.interval))
        object.__setattr__(self, "terms", tuple(self.terms))
        for term in self.terms:
            if term.element.interval != self.interval:
                raise ValueError("all terms must live on the signal's interval")

    def __call__(self, t):
        if not self.terms:
            out = np.zeros(np.shape(t), dtype=float)
            return _unwrap(np.atleast_1d(out), t)
        acc = self.terms[0].value(t)
        for term in self.terms[1:]:
            acc = acc + term.value(t)
        return acc

    @property
    def is_singular(self) -> bool:
        return any(min(term.exponents) < 0 for term in self.terms)

    @property
    def is_weighted(self) -> bool:
        return any(term.exponents != (0.0, 0.0) for term in self.terms)

    def _derivative(self, t, order: int):
        """The ``order``-th derivative (1 or 2): the Leibniz rule on each term's weight and element."""
        tau = _to_canonical(self.interval, t)
        arr = np.atleast_1d(tau)
        acc = np.zeros_like(arr)
        for term in self.terms:
            el = term.element
            args = (el.family, el.index, el.jacobi_params, arr)
            a, b = term.exponents
            if a == 0.0 and b == 0.0:
                acc = acc + term.scale * _deriv_canonical(*args, order)
                continue
            if np.any(np.abs(arr) >= 1.0 - _EDGE_TOL):
                raise DomainError("derivatives of a weighted term require interior points")
            # the weight w = (1 - tau)^a (1 + tau)^b and its derivatives through rho = w'/w
            w = _weigh(1.0, arr, a, b)
            rho = -a / (1.0 - arr) + b / (1.0 + arr)
            weight = (w, w * rho, w * (rho * rho - a / (1.0 - arr) ** 2 - b / (1.0 + arr) ** 2))
            elem = (_eval_canonical(*args),) + tuple(_deriv_canonical(*args, j) for j in range(1, order + 1))
            leibniz = sum(math.comb(order, j) * weight[order - j] * elem[j] for j in range(order + 1))
            acc = acc + term.scale * leibniz
        if self.interval == SHIFTED_INTERVAL:
            acc = 2.0**order * acc
        return _unwrap(acc.reshape(np.shape(tau)), t)

    def derivative(self, t):
        return self._derivative(t, 1)

    def second_derivative(self, t):
        return self._derivative(t, 2)

    def running_integral(self, t):
        """Integral of the signal from the left endpoint of its interval to t."""
        tau = _to_canonical(self.interval, t)
        arr = np.atleast_1d(tau)
        acc = np.zeros_like(arr)
        lo, hi = self.interval
        scale_dt = 0.5 * (hi - lo)  # dt = scale_dt * dtau
        for term in self.terms:
            closed = _term_running_integral_canonical(term)
            if closed is not None:
                p, (a, b), d, _ = closed
                if (a, b) == (0.5, 0.5):  # the Chebyshev closed forms take their weight as sqrt(1 - tau^2)
                    weight = np.sqrt(np.clip(1.0 - arr * arr, 0.0, None))
                else:
                    weight = _weigh(1.0, arr, a, b)
                acc = acc + term.scale * scale_dt * (weight * p(arr) / d)
            else:
                run = _running_quadrature(term.smooth, term.exponents, self.interval)
                acc = acc + run(lo + scale_dt * (arr + 1.0))
        return _unwrap(acc.reshape(np.shape(tau)), t)

    def integral(self) -> float:
        """Integral over the whole interval."""
        return float(self.running_integral(self.interval[1]))

    def theta_factor(self, s):
        """Value of u(t(s)) * dt/ds under t = mid - half*cos(s), s in [0, pi].

        Each term's weight and the Jacobian combine into half * 2^(a+b+1)
        times the ``_arc_weigh`` factor; reparameterized integrators use this.
        """
        s = np.asarray(s, dtype=float)
        half = 0.5 * (self.interval[1] - self.interval[0])
        arr = np.atleast_1d(s)
        tau = -np.cos(arr)
        acc = np.zeros_like(arr)
        for term in self.terms:
            el = term.element
            e = term.scale * _eval_canonical(el.family, el.index, el.jacobi_params, tau)
            a, b = term.exponents
            acc = acc + _arc_weigh(e * half * 2.0 ** (a + b + 1.0), arr, a, b)
        return _unwrap(acc.reshape(np.shape(s)), s)

    def to_json_dict(self) -> dict:
        return {
            "interval": list(self.interval),
            "terms": [term.to_json_dict() for term in self.terms],
        }

    @staticmethod
    def from_json_dict(data: dict) -> "InputSignal":
        interval = tuple(float(x) for x in data["interval"])
        terms = tuple(Term.from_json_dict(d, interval) for d in data["terms"])
        return InputSignal(terms=terms, interval=interval)


def basis_signal(
    family: str,
    index: int,
    interval=CANONICAL_INTERVAL,
    scale: float = 1.0,
    weighted: bool = False,
    jacobi_params=None,
) -> InputSignal:
    element = BasisElement(
        family=family, index=index, interval=_check_interval(interval), jacobi_params=jacobi_params
    )
    return InputSignal(terms=(Term(element=element, scale=scale, weighted=weighted),), interval=element.interval)


def constant_signal(family: str, value: float, interval=CANONICAL_INTERVAL, jacobi_params=None) -> InputSignal:
    """The constant ``value`` expressed as the zeroth (unweighted) family element."""
    fam = TRIG_COS if family == TRIG_SIN else family
    return basis_signal(fam, 0, interval=interval, scale=value, jacobi_params=jacobi_params)


def scale_signal(signal: InputSignal, factor: float) -> InputSignal:
    terms = tuple(replace(term, scale=term.scale * float(factor)) for term in signal.terms)
    return InputSignal(terms=terms, interval=signal.interval)


def combine_signals(*signals: InputSignal) -> InputSignal:
    if not signals:
        raise ValueError("need at least one signal")
    interval = signals[0].interval
    terms: list[Term] = []
    for sig in signals:
        if sig.interval != interval:
            raise ValueError("signals live on different intervals")
        terms.extend(sig.terms)
    return InputSignal(terms=tuple(terms), interval=interval)


@dataclass(frozen=True)
class Harmonic:
    """scale * cos(freq*t + phase) or the sine version; analytic derivatives."""

    kind: str
    freq: float
    phase: float = 0.0
    scale: float = 1.0

    def __post_init__(self):
        if self.kind not in ("cos", "sin"):
            raise ValueError("kind must be 'cos' or 'sin'")

    def __call__(self, t):
        arg = self.freq * np.asarray(t, dtype=float) + self.phase
        out = self.scale * (np.cos(arg) if self.kind == "cos" else np.sin(arg))
        return _unwrap(np.atleast_1d(out), t)

    def derivative(self, t):
        arg = self.freq * np.asarray(t, dtype=float) + self.phase
        if self.kind == "cos":
            out = -self.scale * self.freq * np.sin(arg)
        else:
            out = self.scale * self.freq * np.cos(arg)
        return _unwrap(np.atleast_1d(out), t)

    def second_derivative(self, t):
        return -self.freq * self.freq * self(t)


# ---------------------------------------------------------------------------
# Inner products and norms
# ---------------------------------------------------------------------------


def _terms(obj):
    """The terms of an element, term or signal operand, or None for anything else."""
    if isinstance(obj, BasisElement):
        obj = Term(element=obj)
    if isinstance(obj, Term):
        return (obj,)
    return obj.terms if isinstance(obj, InputSignal) else None


def _factors(obj) -> tuple:
    """(smooth part, endpoint exponents, degree) of each term of one operand.

    A term's degree is (polynomial degree, trig index).  A weight brings only
    its exponents and a number is a constant factor; any other callable
    enters as it is, with degree None.
    """
    terms = _terms(obj)
    if terms is not None:
        trig = (TRIG_SIN, TRIG_COS)
        return tuple(
            (t.smooth, t.exponents, (0, t.element.index) if t.element.family in trig else (t.element.index, 0))
            for t in terms
        )
    if isinstance(obj, WeightFn):
        return ((None, obj.exponents, (0, 0)),)
    if isinstance(obj, (int, float)):
        return ((float(obj), (0.0, 0.0), (0, 0)),)
    return ((obj, (0.0, 0.0), None),)


def _running_factors(obj, box) -> tuple:
    """The ``_factors`` of the running integral of one operand from the left end of ``box``.

    Terms with a closed-form antiderivative give its parts; other terms and
    bare callables are integrated adaptively per point.
    """
    terms = _terms(obj)
    if terms is None:
        return ((_running_quadrature(obj, (0.0, 0.0), box), (0.0, 0.0), None),)
    factors = []
    for term in terms:
        closed = _term_running_integral_canonical(term)
        if closed is None:
            factors.append((_running_quadrature(term.smooth, term.exponents, box), (0.0, 0.0), None))
            continue
        p, exponents, d, degree = closed
        scale = term.scale * 0.5 * (box[1] - box[0]) / d
        factors.append((lambda t, p=p, c=scale: c * p(_to_canonical(box, t)), exponents, degree))
    return tuple(factors)


def _product(fns, t):
    return functools.reduce(operator.mul, (_eval_array(fn, t) if callable(fn) else fn for fn in fns))


def _product_integrals(factor_lists, box):
    """Integral over ``box`` of each product of one factor per list, in ``itertools.product`` order.

    Each factor is a (smooth part, exponents, degree) triple of ``_factors``;
    exponents add up and smooth parts multiply in list order.  A product of
    family factors is summed by an exact rule: polynomial degree D against
    the summed weight on floor(D/2) + 1 Gauss-Jacobi nodes, trig index sum K
    (no weight) by the K + 1 point trapezoid sum over its period.  Anything
    else (a factor of degree None, trig mixed with a polynomial or a weight)
    goes to ``integrate``.
    """
    half, mid = 0.5 * (box[1] - box[0]), 0.5 * (box[1] + box[0])
    for combo in itertools.product(*factor_lists):
        a = b = 0.0
        fns = []
        for fn, (ea, eb), _ in combo:
            a += ea
            b += eb
            if fn is not None:
                fns.append(fn)
        if a <= -1.0 or b <= -1.0:
            raise IntegrabilityError(f"endpoint exponents {(a, b)} are not integrable")
        degrees = [degree for _, _, degree in combo]
        poly, trig = map(sum, zip(*degrees)) if None not in degrees else (None, None)
        if poly is not None and not trig:
            tau, w = _gauss_jacobi(a, b, poly // 2 + 1)
        elif trig and not poly and a == b == 0.0:
            tau, w = np.linspace(-1.0, 1.0, trig + 1, endpoint=False), np.full(trig + 1, 2.0 / (trig + 1))
        else:
            yield integrate(functools.partial(_product, tuple(fns)), box, (a, b), box=box)
            continue
        yield half * float(w @ _product(fns, mid + half * tau))


def _infer_interval(operands, *given) -> tuple[float, float]:
    """The one interval shared by the operands' elements, terms and signals and the non-None ``given``."""
    found = {(float(i[0]), float(i[1])) for i in given if i is not None}
    for obj in operands:
        if isinstance(obj, Term):
            obj = obj.element
        if isinstance(obj, (BasisElement, InputSignal)):
            found.add(obj.interval)
        elif not callable(obj):
            raise ValueError(f"cannot interpret {type(obj).__name__} as an integrand")
    if len(found) > 1:
        raise ValueError("operands live on different intervals")
    if not found:
        raise ValueError("interval cannot be inferred from bare callables; pass it")
    return found.pop()


def inner_product(f, g, w: WeightFn | None = None, interval=None) -> float:
    """<f, g>_w = integral of f*g*w over the interval.

    ``f`` and ``g`` may be basis elements, terms, input signals, or plain
    callables; the weight's endpoint singularities (and those of weighted
    terms) become the weight of an exact Gauss-Jacobi rule, or of the
    substitution inside ``integrate`` for a plain callable.
    """
    box = _infer_interval(
        (f, g), None if w is None else w.interval, None if interval is None else _check_interval(interval)
    )
    total = 0.0
    for part in _product_integrals(map(_factors, (f, g) if w is None else (w, f, g)), box):
        total += part
    return total


def _sign_cuts(signal: InputSignal) -> np.ndarray:
    """Sorted panel edges: the interval ends and every sign change inside.

    The scan is uniform in s under t = mid - half*cos(s), densest near the
    ends where polynomial zeros cluster, with at least 512 points and about
    16 per possible zero (degree n, or 2n for trig index n).  All brackets
    are then halved together until narrower than 1e-15, at most 90 times.
    """
    lo, hi = signal.interval
    inset = (hi - lo) * 1e-9
    zeros = max((2 if t.element.family in (TRIG_SIN, TRIG_COS) else 1) * t.element.index for t in signal.terms)
    s = np.linspace(0.0, np.pi, max(512, 16 * zeros))
    grid = np.clip(0.5 * (hi + lo) - 0.5 * (hi - lo) * np.cos(s), lo + inset, hi - inset)
    vals = np.asarray(signal(grid), dtype=float)
    k = np.flatnonzero((vals[:-1] != 0.0) & ((vals[:-1] < 0) != (vals[1:] < 0)))
    a, b, negative = grid[k], grid[k + 1], vals[k] < 0
    for _ in range(90):
        if np.all(b - a < 1e-15):
            break
        m = 0.5 * (a + b)
        move_a = (np.asarray(signal(m), dtype=float) < 0) == negative
        a, b = np.where(move_a, m, a), np.where(move_a, b, m)
    return np.unique(np.concatenate(([lo], grid[:-1][vals[:-1] == 0.0], 0.5 * (a + b), [hi])))


def lp_norm(signal: InputSignal, p: float = 1.0) -> float:
    """integral of |u|^p over the signal's interval, panel by constant-sign panel.

    p = 1 with exact running integrals (every term but weighted Jacobi of
    index 0): signed running-integral differences.
    Otherwise a 40-node Gauss rule in s per panel (weights and
    Jacobian folded in as in ``InputSignal.theta_factor``); panels where the
    20-node rule differs by over 1e-13 relative go to ``integrate_smooth``.
    Non-integrable exponent*p <= -1 raises ``IntegrabilityError`` up front.
    """
    p = float(p)
    if not p > 0.0:
        raise ValueError("p must be positive")
    if not signal.terms:
        return 0.0
    if any(min(term.exponents) * p <= -1.0 for term in signal.terms):
        raise IntegrabilityError(f"|u|^{p} is not integrable against the endpoint weights")
    cuts = _sign_cuts(signal)
    keep = np.diff(cuts) >= 1e-14
    if p == 1.0 and all(_term_running_integral_canonical(t) is not None for t in signal.terms):
        signs = np.where(np.asarray(signal(0.5 * (cuts[:-1] + cuts[1:]))) >= 0, 1.0, -1.0)
        return float(np.sum((signs * np.diff(signal.running_integral(cuts)))[keep]))
    lo, hi = signal.interval
    half = 0.5 * (hi - lo)
    s_cuts = np.arccos(np.clip((0.5 * (hi + lo) - cuts) / half, -1.0, 1.0))
    s_lo, s_hi = s_cuts[:-1][keep], s_cuts[1:][keep]

    def g(s):
        # |u|^p dt/ds = |u dt/ds|^p (dt/ds)^(1 - p), with dt/ds = half sin(s) > 0 inside
        return np.abs(signal.theta_factor(s)) ** p * (half * np.sin(s)) ** (1.0 - p)

    def panels(rule):
        pts = 0.5 * (s_hi + s_lo)[:, None] + 0.5 * (s_hi - s_lo)[:, None] * rule[0]
        return 0.5 * (s_hi - s_lo) * (g(pts.ravel()).reshape(pts.shape) @ rule[1])

    fine, coarse = panels(_gauss_jacobi(0.0, 0.0, 40)), panels(_gauss_jacobi(0.0, 0.0, 20))
    for k in np.flatnonzero(np.abs(fine - coarse) > 1e-13 * np.abs(fine)):
        fine[k] = integrate_smooth(g, s_lo[k], s_hi[k])
    return float(np.sum(fine))


def l1_norm(signal: InputSignal) -> float:
    """integral of |u| over the signal's interval (``lp_norm`` at p = 1).

    Sign changes: a degree-sized scan uniform in s, then batched bisection.
    Panels: closed-form running integrals, else a doubled fixed Gauss rule in s.
    """
    return lp_norm(signal, 1.0)
