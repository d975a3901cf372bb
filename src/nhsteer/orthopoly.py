"""Orthogonal function families and the integration machinery built on them.

Supported families on the canonical interval [-1, 1] (or shifted to [0, 1]):

* ``legendre``           P_n,  weight 1
* ``chebyshev_first``    T_n,  weight (1 - t^2)^(-1/2)
* ``chebyshev_second``   U_n,  weight (1 - t^2)^(+1/2)
* ``jacobi``             P_n^(alpha, beta), weight (1 - t)^alpha (1 + t)^beta
* ``trig_sin``           sin(n pi t), weight 1
* ``trig_cos``           cos(n pi t), weight 1

Derivatives (``InputSignal.derivative`` and ``second_derivative``) come from
one rule for every polynomial family, d/dt P_n^(a,b) = (n + a + b + 1)/2
P_{n-1}^(a+1,b+1) (DLMF 18.9.15), applied to the family's Jacobi form and
accurate up to and at the endpoints; trig elements use their closed forms,
and a weighted term adds its weight's derivatives by the Leibniz rule.  No
derivative is taken from a differential equation, so ``sturm.sl_residual``
checks the recurrences.

Which rule serves which integrand:

* Integrals of products of signals are taken here and nowhere else:
  ``inner_product`` (of which ``optimal_energy.weighted_cost`` is half the
  sum over two channels) and ``coupling_displacement`` (re-exported by
  ``dynamics``) both go through ``_product_integrals``.  A polynomial of
  degree D against (1 - t)^a (1 + t)^b is summed on floor(D/2) + 1
  Gauss-Jacobi nodes (``_gauss_jacobi``, built on first use and cached), a
  trig polynomial of index sum K by the K + 1 point trapezoid sum over its
  period; both exact.  The coupling takes the product of a weighted index-0
  running integral (not a polynomial) and a term by parts, so that it too
  meets exact rules only.
* Running integrals of terms are exact (``_term_running_integral_canonical``):
  a polynomial times a Jacobi weight, a trig polynomial, or for a weighted
  index 0 the incomplete beta function by its continued fraction.
* ``integrate``, adaptive Gauss-Legendre in s with t = -cos(s) for endpoint
  weights, serves only bare callables and mixed trig and polynomial products.
  Its arc map t = mid - half*cos(s), the inverse and u(t(s)) dt/ds are
  ``_arc_time``, ``_arc_angle`` and ``_arc_integrand``, which also serve
  ``lp_norm``, ``_sign_cuts`` and the weighted integrator of ``dynamics``.
* L1/Lp norms go panel by panel between the sign changes: a single term's
  known zeros (Gauss-Jacobi nodes, or k/n and (2k+1)/(2n) for trig), and for
  a combined signal a degree-sized scan in s with batched bisection.  Panels
  take closed-form running integrals at p = 1, signed by ``_panel_signs``
  (a single term's signs alternate across its zeros and are not evaluated; a
  combined signal is evaluated at the panel midpoints), otherwise a 40-node
  Gauss-Legendre rule in s checked against 20 nodes, and ``integrate_smooth``
  for a panel where the two disagree.

Degrees are capped at 64; beyond that the
recurrences are still fine but we refuse rather than pretend the rest of the
package (planning, quadrature tolerances) has been validated there.
"""

from __future__ import annotations

import contextvars
import functools
import heapq
import itertools
import math
import operator
from dataclasses import dataclass, replace

import numpy as np

from .errors import CapabilityError, ConvergenceError, DomainError, IntegrabilityError, _finite
from . import _planfile

__all__ = [
    "LEGENDRE",
    "CHEBYSHEV_FIRST",
    "CHEBYSHEV_SECOND",
    "JACOBI",
    "TRIG_SIN",
    "TRIG_COS",
    "FAMILIES",
    "INDEX_CAP",
    "JACOBI_EXPONENT_CAP",
    "CANONICAL_INTERVAL",
    "SHIFTED_INTERVAL",
    "BasisElement",
    "Term",
    "InputSignal",
    "Harmonic",
    "evaluate",
    "shift",
    "weight_fn",
    "weight_exponents",
    "element_parity",
    "basis_signal",
    "constant_signal",
    "scale_signal",
    "combine_signals",
    "inner_product",
    "coupling_displacement",
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
JACOBI_EXPONENT_CAP = 100  # largest Jacobi exponent, with room below the overflow of weights and rules

CANONICAL_INTERVAL = (-1.0, 1.0)
SHIFTED_INTERVAL = (0.0, 1.0)

_EDGE_TOL = 1e-12


def _check_interval(interval) -> tuple[float, float]:
    interval = (float(interval[0]), float(interval[1]))
    if interval not in (CANONICAL_INTERVAL, SHIFTED_INTERVAL):
        raise ValueError(f"interval must be {CANONICAL_INTERVAL} or {SHIFTED_INTERVAL}, got {interval}")
    return interval


@dataclass(frozen=True)
class BasisElement:
    """One member of an orthogonal family on a fixed interval."""

    family: str
    index: int
    interval: tuple[float, float] = CANONICAL_INTERVAL
    jacobi_params: tuple[float, float] | None = None

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError(f"unknown family {self.family!r}")
        object.__setattr__(self, "interval", _check_interval(self.interval))
        if self.family == JACOBI:
            if self.jacobi_params is None:
                raise ValueError("the jacobi family requires jacobi_params=(alpha, beta)")
            alpha, beta = map(float, self.jacobi_params)
            if not (-1.0 < alpha < math.inf and -1.0 < beta < math.inf):
                raise ValueError(f"jacobi parameters must be finite with alpha, beta > -1, got {(alpha, beta)}")
            # index 0, a pure weight, may go one higher: the self-adjoint
            # coefficient of an admitted family has exponents (alpha + 1, beta + 1)
            cap = JACOBI_EXPONENT_CAP + (self.index == 0)
            if max(alpha, beta) > cap:
                raise CapabilityError(f"jacobi parameters above {cap} are not supported, got {(alpha, beta)}")
            object.__setattr__(self, "jacobi_params", (alpha, beta))
        elif self.jacobi_params is not None:
            raise ValueError("jacobi_params is only valid for the jacobi family")
        if not isinstance(self.index, (int, np.integer)):
            raise ValueError("index must be an integer")
        if self.index < 0:
            raise ValueError("index must be nonnegative")
        if self.index > INDEX_CAP:
            raise CapabilityError(f"index {self.index} exceeds the supported cap of {INDEX_CAP}")
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


_ROW_MEMO: contextvars.ContextVar = contextvars.ContextVar("_ROW_MEMO", default=None)


class _row_memo:
    """Within the block ``_family_rows`` keeps its rows in ``memo``, a fresh dict, or in none (None); reset on exit."""

    def __init__(self, memo):
        self.memo = memo

    def __enter__(self):
        self.token = _ROW_MEMO.set(self.memo)

    def __exit__(self, *exc):
        _ROW_MEMO.reset(self.token)


def _recurrence(family: str, params, tau: np.ndarray):
    """(E_1(tau), step) of a polynomial family, where step(k, E_k, E_{k-1}) is E_{k+1}; E_0 is 1."""
    if family == LEGENDRE:
        return tau.copy(), lambda k, cur, prev: ((2 * k + 1) * tau * cur - k * prev) / (k + 1)
    if family in (CHEBYSHEV_FIRST, CHEBYSHEV_SECOND):
        two_tau = 2.0 * tau  # 2.0 * tau * cur is (2.0 * tau) * cur: hoisting it keeps every bit
        first = tau.copy() if family == CHEBYSHEV_FIRST else two_tau
        return first, lambda k, cur, prev: two_tau * cur - prev
    if family == JACOBI:
        alpha, beta = params

        def step(k, cur, prev):
            m = k + 1
            c = 2.0 * m + alpha + beta
            a1 = 2.0 * m * (m + alpha + beta) * (c - 2.0)
            a2 = (c - 1.0) * (alpha * alpha - beta * beta)
            a3 = (c - 2.0) * (c - 1.0) * c
            a4 = 2.0 * (m + alpha - 1.0) * (m + beta - 1.0) * c
            return ((a2 + a3 * tau) * cur - a4 * prev) / a1

        return 0.5 * (alpha + beta + 2.0) * tau + 0.5 * (alpha - beta), step
    raise ValueError(f"unknown family {family!r}")


def _family_rows(family: str, params, indices, tau: np.ndarray) -> dict:
    """{n: E_n(tau)} for each index n in ``indices`` of one family (Jacobi with ``params``).

    A polynomial family runs its three-term recurrence once, up to the
    largest index, holding two rows at a time and keeping only those asked for.
    Inside ``_row_memo`` (one coupling or inner product, minus its adaptive quadrature; off otherwise)
    it keeps all rows, read-only, and extends them, keyed by family, ``repr(params)`` and node bytes.
    """
    if family in (TRIG_SIN, TRIG_COS):
        wave = np.sin if family == TRIG_SIN else np.cos
        return {n: wave(n * np.pi * tau) for n in indices}
    top, memo = max(indices), _ROW_MEMO.get()
    if memo is not None:
        rows = memo.setdefault((family, repr(params), tau.shape, tau.tobytes()), [])
        if len(rows) <= top:
            (first, step), held = _recurrence(family, params, tau), len(rows)
            rows += [np.ones_like(tau), first][held:]
            while len(rows) <= top:
                rows.append(step(len(rows) - 1, rows[-1], rows[-2]))
            for row in rows[held:]:
                row.setflags(write=False)
        return {n: rows[n] for n in indices}
    first, step = _recurrence(family, params, tau)
    prev, cur = np.ones_like(tau), first
    rows = {0: prev} if 0 in indices else {}
    for k in range(1, top + 1):
        if k in indices:
            rows[k] = cur
        if k < top:
            prev, cur = cur, step(k, cur, prev)
    return rows


def _eval_canonical(family: str, index: int, params, tau: np.ndarray) -> np.ndarray:
    return _family_rows(family, params, {index}, tau)[index]


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
    return coef * _eval_canonical(JACOBI, n - order, (a + order, b + order), tau)


def _to_canonical(element_interval: tuple[float, float], t):
    """Map points of the element's interval to the canonical variable tau."""
    t = np.asarray(t, dtype=float)
    lo, hi = element_interval
    if (t < lo - _EDGE_TOL).any() or (t > hi + _EDGE_TOL).any():  # array methods: no np.any dispatch
        raise DomainError(f"evaluation point outside [{lo}, {hi}]")
    tau = t if element_interval == CANONICAL_INTERVAL else 2.0 * t - 1.0
    return tau.clip(-1.0, 1.0)


def _unwrap(value: np.ndarray, t):
    if np.isscalar(t) or (isinstance(t, np.ndarray) and t.ndim == 0):
        return float(np.asarray(value).reshape(()))
    return value


def evaluate(element: BasisElement, t):
    """Evaluate the element at ``t`` (scalar or array) on its own interval."""
    return Term(element).value(t)


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


def _arc_time(box, s):
    """t(s) = mid - half*cos(s), the arc map of ``box`` from s in [0, pi]."""
    return 0.5 * (box[1] + box[0]) - 0.5 * (box[1] - box[0]) * np.cos(s)


def _arc_angle(box, t):
    """s(t) in [0, pi], the inverse of ``_arc_time``, with t clipped to ``box``."""
    return np.arccos(np.clip((0.5 * (box[1] + box[0]) - t) / (0.5 * (box[1] - box[0])), -1.0, 1.0))


def _arc_integrand(u, box, s):
    """u(t(s)) dt/ds on the arc map of ``box``: a signal's ``theta_factor``, a callable's value times half*sin(s)."""
    return _stacked_values([u], s, box)[0].reshape(np.shape(s))


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
    x = x - _eval_canonical(JACOBI, n, (a, b), x) / _deriv_canonical(JACOBI, n, (a, b), x, 1)
    slope = _deriv_canonical(JACOBI, n, (a, b), x, 1)
    # C = 2^(a+b+1) G(n+a+1) G(n+b+1) / (G(n+a+b+1) n!), as a product from the n = 1 value
    j = np.arange(2.0, n + 1.0)
    c = 2.0 ** (a + b + 1.0) * math.exp(math.lgamma(a + 2.0) + math.lgamma(b + 2.0) - math.lgamma(a + b + 2.0))
    c *= np.prod((j + a) * (j + b) / (j * (j + a + b)))
    w = c / ((1.0 - x) * (1.0 + x) * slope * slope)
    x.flags.writeable = w.flags.writeable = False
    return x, w


def _weight_running_integral(a: float, b: float, tau) -> np.ndarray:
    """Integral of (1 - x)^a (1 + x)^b from -1 to tau: 2^(a+b+1) B_y(b+1, a+1) with y = (1 + tau)/2.

    B_y(p, q) = y^p (1 - y)^q h / p, where h is the continued fraction of
    DLMF 8.17.22, evaluated for all points at once by modified Lentz.  It
    converges for tau <= tau0 = (p - q)/(p + q + 2); above tau0 the result is
    the total minus the mirrored piece over [tau, 1], and the total is the sum
    of both pieces at tau0 (rounded to a multiple of 2^-20, so 1 +- tau0 are exact).
    """
    p, q = b + 1.0, a + 1.0
    tau0 = round((p - q) / (p + q + 2.0) * 2.0**20) / 2.0**20
    low = np.append(np.asarray(tau) <= tau0, [True, False])
    t = np.append(tau, [tau0, tau0])
    p, q, y = np.where(low, p, q), np.where(low, q, p), 0.5 * (1.0 + np.where(low, t, -t))
    c, h = np.ones_like(y), 1.0 / (1.0 - (p + q) * y / (p + 1.0))
    d, done = h, np.zeros(y.shape, dtype=bool)
    for m in range(1, 1000):
        k, delta = p + 2.0 * m, 1.0
        for coef in (m * (q - m) * y / ((k - 1.0) * k), -(p + m) * (p + q + m) * y / (k * (k + 1.0))):
            d, c = 1.0 + coef * d, 1.0 + coef / c
            d, c = 1.0 / np.where(d == 0.0, 1e-300, d), np.where(c == 0.0, 1e-300, c)
            delta = delta * d * c
        h, done = np.where(done, h, h * delta), done | (np.abs(delta - 1.0) <= 2.3e-16)
        if done.all():
            break
    else:
        raise ConvergenceError(f"incomplete beta fraction did not converge for exponents {(a, b)}")
    piece = _weigh(h / (2.0 * p), t, a + 1.0, b + 1.0)
    return np.where(low[:-2], piece[:-2], piece[-2] + piece[-1] - piece[:-2]).reshape(np.shape(tau))


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
    lo, hi = float(lo), float(hi)
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
        raise IntegrabilityError("quadrature failed to converge; integrand appears singular")
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
    box = (lo, hi) if box is None else (float(box[0]), float(box[1]))
    if lo < box[0] - _EDGE_TOL or hi > box[1] + _EDGE_TOL:
        raise ValueError("integration interval must lie inside the box")
    if hi <= lo:
        return 0.0
    if a == 0.0 and b == 0.0:
        return integrate_smooth(f_smooth, lo, hi)
    if a <= -1.0 or b <= -1.0:
        raise IntegrabilityError(f"endpoint exponents {exponents} are not integrable")

    def g(s):
        return _arc_weigh(np.asarray(f_smooth(_arc_time(box, s)), dtype=float), s, a, b)

    s_lo, s_hi = (float(_arc_angle(box, t)) for t in (lo, hi))
    return 0.5 * (box[1] - box[0]) * 2.0 ** (a + b + 1.0) * integrate_smooth(g, s_lo, s_hi)


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
    def from_json_dict(data, interval) -> "Term":
        data = _planfile.document(data)
        params = (data.real("alpha"), data.real("beta")) if "alpha" in data.value else None
        element = BasisElement(data.choice("family", FAMILIES), data.index("index"), interval, params)
        return Term(element=element, scale=data.real("scale"), weighted=data.flag("weighted"))


def _term_running_integral_canonical(term: Term):
    """The antiderivative F from -1 of a term in the canonical variable.

    As (p, (a, b), d, degree) with F = (1 - tau)^a (1 + tau)^b p(tau) / d and
    ``degree`` the (polynomial degree, trig index) of p, or None when p is
    not a polynomial.  Every weighted term of index 0 (Chebyshev of both
    kinds, Jacobi) integrates its weight by one incomplete-beta rule,
    ``_weight_running_integral``.  Weighted Jacobi of index n >= 1 uses
    d/dtau [(1-tau)^(a+1) (1+tau)^(b+1) P_{n-1}^(a+1,b+1)] = -2n (1-tau)^a (1+tau)^b P_n^(a,b);
    unweighted Jacobi of index n >= 1 sums P_n on floor(n/2) + 1 Gauss-Legendre
    nodes of [-1, tau], exact for degree n.
    """
    fam = term.element.family
    n = term.element.index
    a, b = term.exponents
    unweighted = (0.0, 0.0)
    if n == 0 and (a, b) == unweighted:
        return (lambda tau: tau + 1.0), unweighted, 1.0, (1, 0)
    if n == 0:
        return functools.partial(_weight_running_integral, a, b), unweighted, 1.0, None
    if fam == LEGENDRE:

        def legendre(tau):  # P_{n+1} - P_{n-1} vanishes at -1
            vals = _family_rows(LEGENDRE, None, {n - 1, n + 1}, tau)
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
            vals = _family_rows(CHEBYSHEV_FIRST, None, {n - 1, n + 1}, tau)
            return 0.5 * (vals[n + 1] / (n + 1) - vals[n - 1] / (n - 1)) - (-1.0) ** n / (n * n - 1.0)

        return first_kind, unweighted, 1.0, (n + 1, 0)
    if fam == CHEBYSHEV_FIRST:
        return (lambda tau: -_eval_canonical(CHEBYSHEV_SECOND, n - 1, None, tau)), (0.5, 0.5), float(n), (n - 1, 0)
    if fam == CHEBYSHEV_SECOND and (a, b) == unweighted:
        end = (-1.0) ** (n + 1)
        return (lambda tau: _eval_canonical(CHEBYSHEV_FIRST, n + 1, None, tau) - end), unweighted, n + 1.0, (n + 1, 0)
    if fam == CHEBYSHEV_SECOND:

        def second_kind(tau):
            vals = _family_rows(CHEBYSHEV_SECOND, None, {n - 1, n + 1}, tau)
            return vals[n + 1] / (n + 2) - vals[n - 1] / n

        return second_kind, (0.5, 0.5), 2.0, (n + 1, 0)
    if (a, b) != unweighted:  # Jacobi
        raised = (a + 1.0, b + 1.0)
        return (lambda tau: _eval_canonical(JACOBI, n - 1, raised, tau)), raised, -2.0 * n, (n - 1, 0)

    def gauss_legendre(tau):
        x, w = _gauss_jacobi(0.0, 0.0, n // 2 + 1)
        half = 0.5 * (tau[..., None] + 1.0)
        return half[..., 0] * (_eval_canonical(JACOBI, n, term.element.jacobi_params, half * (x + 1.0) - 1.0) @ w)

    return gauss_legendre, unweighted, 1.0, (n + 1, 0)


def _stacked_values(channels, v, arc=None) -> np.ndarray:
    """Each channel's values at the points ``v``, one row per channel.

    With ``arc`` None a row is u(v).  With ``arc`` a box, v is the angle of its
    arc map and a row is u(t(v)) dt/dv: a signal's ``theta_factor``, a
    callable's value times half*sin(v).  ``InputSignal.__call__``,
    ``theta_factor`` and ``_arc_integrand`` are its one-row cases.  The signals
    share tau per interval, one ``_family_rows`` per (interval, family, params)
    and the ``_arc_weigh`` powers per exponent pair; each term is formed and
    summed in the per-signal order (a value from its first term, an arc row
    from zero), so every row is bit-identical to the one-row case.
    """
    arr = np.atleast_1d(np.asarray(v, dtype=float))
    wanted, powers = {}, {}
    for sig in channels:
        for term in sig.terms if isinstance(sig, InputSignal) else ():
            el = term.element
            wanted.setdefault((sig.interval, el.family, el.jacobi_params), set()).add(el.index)
    taus = {box: _to_canonical(box, arr) if arc is None else -np.cos(arr) for box, _, _ in wanted}
    rows = {key: _family_rows(key[1], key[2], indices, taus[key[0]]) for key, indices in wanted.items()}
    out = np.empty((len(channels), *arr.shape))
    for row, u in zip(out, channels):
        if not isinstance(u, InputSignal):
            row[...] = _eval_array(u, arr) if arc is None else (
                _eval_array(u, _arc_time(arc, arr)) * (0.5 * (arc[1] - arc[0])) * np.sin(arr)
            )
            continue
        row[...] = 0.0
        for k, term in enumerate(u.terms):
            el, (a, b) = term.element, term.exponents
            value = term.scale * rows[u.interval, el.family, el.jacobi_params][el.index]
            if arc is None:
                value = _weigh(value, taus[u.interval], a, b)
            else:
                if (a, b) not in powers:  # the _arc_weigh factors cos(v/2)^(2a+1) and sin(v/2)^(2b+1)
                    powers[a, b] = (np.cos(0.5 * arr) ** (2.0 * a + 1.0), np.sin(0.5 * arr) ** (2.0 * b + 1.0))
                for factor in (0.5 * (u.interval[1] - u.interval[0]), 2.0 ** (a + b + 1.0), *powers[a, b]):
                    value *= factor
            if k == 0 and arc is None:
                row[...] = value
            else:
                row += value
    return out


@dataclass(frozen=True)
class InputSignal:
    """A finite combination of (possibly weighted) basis terms on one interval.

    Callable; also knows its derivative and second derivative (the Jacobi
    rule per term, with the Leibniz rule for weighted terms) and its running
    integral (exact per term: ``_term_running_integral_canonical``).
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
        return _unwrap(_stacked_values([self], t)[0].reshape(np.shape(t)), t)

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
            p, (a, b), d, _ = _term_running_integral_canonical(term)
            if (a, b) == (0.5, 0.5):  # the Chebyshev closed forms take their weight as sqrt(1 - tau^2)
                weight = np.sqrt(np.clip(1.0 - arr * arr, 0.0, None))
            else:
                weight = _weigh(1.0, arr, a, b)
            acc = acc + term.scale * scale_dt * (weight * p(arr) / d)
        return _unwrap(acc.reshape(np.shape(tau)), t)

    def integral(self) -> float:
        """Integral over the whole interval."""
        return float(self.running_integral(self.interval[1]))

    def theta_factor(self, s):
        """Value of u(t(s)) * dt/ds under t = mid - half*cos(s), s in [0, pi].

        Each term's weight and the Jacobian combine into half * 2^(a+b+1)
        times the ``_arc_weigh`` factor; reparameterized integrators use this.
        """
        return _unwrap(_arc_integrand(self, self.interval, s), s)

    def to_json_dict(self) -> dict:
        return {
            "interval": list(self.interval),
            "terms": [term.to_json_dict() for term in self.terms],
        }

    @staticmethod
    def from_json_dict(data) -> "InputSignal":
        data = _planfile.document(data)
        interval = data.reals("interval", 2)
        terms = data.items("terms", lambda term: Term.from_json_dict(term, interval))
        return InputSignal(terms=terms, interval=interval)


def basis_signal(
    family: str,
    index: int,
    interval=CANONICAL_INTERVAL,
    scale: float = 1.0,
    weighted: bool = False,
    jacobi_params=None,
) -> InputSignal:
    element = BasisElement(family=family, index=index, interval=interval, jacobi_params=jacobi_params)
    return InputSignal(terms=(Term(element=element, scale=scale, weighted=weighted),), interval=element.interval)


def constant_signal(family: str, value: float, interval=CANONICAL_INTERVAL, jacobi_params=None) -> InputSignal:
    """The constant ``value`` expressed as the zeroth (unweighted) family element."""
    fam = TRIG_COS if family == TRIG_SIN else family
    return basis_signal(fam, 0, interval=interval, scale=value, jacobi_params=jacobi_params)


def weight_fn(family: str, interval=CANONICAL_INTERVAL, jacobi_params=None) -> InputSignal:
    """The family weight (1 - tau)^a (1 + tau)^b: the weighted index-0 term of the family.

    ``trig_sin`` has no index 0 and takes the cosine's, as in ``constant_signal``.
    On [0, 1] the weight is w(2t - 1), its exponents still in the canonical variable.
    """
    fam = TRIG_COS if family == TRIG_SIN else family
    return basis_signal(fam, 0, interval=interval, weighted=True, jacobi_params=jacobi_params)


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
    """scale * cos(freq*t + phase) or the sine version; analytic derivatives.

    ``Harmonic("cos", 0.0, 0.0, v)`` is the constant v exactly (0 t + 0 = 0 and cos 0 = 1).
    """

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


def _as_signal(obj):
    """An element or term operand as a one-term ``InputSignal``; anything else as it is."""
    if isinstance(obj, BasisElement):
        obj = Term(element=obj)
    return InputSignal((obj,), obj.element.interval) if isinstance(obj, Term) else obj


def _factors(obj) -> tuple:
    """(smooth part, endpoint exponents, degree) of each term of one ``_as_signal`` operand.

    A term's degree is (polynomial degree, trig index).  A term of index 0
    (a constant, or a weight from ``weight_fn``) has degree (0, 0) and its
    scale as a constant smooth part, and so does a number; any other
    callable enters as it is, with degree None.
    """
    if isinstance(obj, InputSignal):
        factors = []
        for t in obj.terms:
            n = t.element.index
            degree = (0, n) if t.element.family in (TRIG_SIN, TRIG_COS) else (n, 0)
            factors.append((t.smooth if n else t.scale, t.exponents, degree))
        return tuple(factors)
    if isinstance(obj, (int, float)):
        return ((float(obj), (0.0, 0.0), (0, 0)),)
    return ((obj, (0.0, 0.0), None),)


def _running_factors(obj, box) -> tuple:
    """The ``_factors`` of the running integral of one ``_as_signal`` operand from the left end of ``box``.

    Every term gives the parts of its exact antiderivative; a bare callable
    is integrated adaptively per point.
    """
    if not isinstance(obj, InputSignal):
        return ((np.vectorize(lambda t: integrate_smooth(obj, box[0], t), otypes=[float]), (0.0, 0.0), None),)
    factors = []
    for term in obj.terms:
        p, exponents, d, degree = _term_running_integral_canonical(term)
        scale = term.scale * 0.5 * (box[1] - box[0]) / d
        factors.append((lambda t, p=p, c=scale: c * p(_to_canonical(box, t)), exponents, degree))
    return tuple(factors)


def _product(fns, t):
    """The product of the factors at t, with the shape of t (a product of constants too)."""
    product = functools.reduce(operator.mul, (_eval_array(f, t) if callable(f) else f for f in fns))
    return product if np.ndim(product) else np.full(np.shape(t), product)


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
        fns, exponents, degrees = zip(*combo)
        a, b = (sum(e[k] for e in exponents) for k in (0, 1))
        if a <= -1.0 or b <= -1.0:
            raise IntegrabilityError(f"endpoint exponents {(a, b)} are not integrable")
        poly, trig = map(sum, zip(*degrees)) if None not in degrees else (None, None)
        if poly is not None and not trig:
            tau, w = _gauss_jacobi(a, b, poly // 2 + 1)
        elif trig and not poly and a == b == 0.0:
            tau, w = np.linspace(-1.0, 1.0, trig + 1, endpoint=False), np.full(trig + 1, 2.0 / (trig + 1))
        else:
            with _row_memo(None):  # no adaptive node set repeats
                part = integrate(functools.partial(_product, fns), box, (a, b), box=box)
            yield part
            continue
        yield half * float(w @ _product(fns, mid + half * tau))


def _infer_interval(operands, *given) -> tuple[float, float]:
    """The one interval shared by the operands' elements, terms and signals and the non-None ``given``.

    Its bounds must be finite (``DomainError``) and increasing (``ValueError``), so a bare
    callable's box is checked here too.
    """
    found = {(float(i[0]), float(i[1])) for i in given if i is not None}
    for obj in operands:
        sig = _as_signal(obj)
        if isinstance(sig, InputSignal):
            found.add(sig.interval)
        elif not callable(obj):
            raise ValueError(f"cannot interpret {type(obj).__name__} as an integrand")
    if len(found) > 1:
        raise ValueError("operands live on different intervals")
    if not found:
        raise ValueError("interval cannot be inferred from bare callables; pass it")
    interval = found.pop()
    if not (math.isfinite(interval[0]) and math.isfinite(interval[1])):
        raise DomainError(f"interval bounds must be finite, got {interval}")
    if interval[0] >= interval[1]:
        raise ValueError(f"interval must have positive length, got {interval}")
    return interval


def inner_product(f, g, w: InputSignal | float | None = None, interval=None) -> float:
    """<f, g>_w = integral of f*g*w over the interval.

    ``f`` and ``g`` may be basis elements, terms, input signals, or plain
    callables, and the weight ``w`` (a ``weight_fn`` signal) any of these or
    a number, a constant factor.  The interval is the operands' own, or
    ``interval``, any finite box, when all of them are callables or numbers.
    The endpoint singularities of weighted terms, the weight's included,
    become the weight of an exact Gauss-Jacobi rule, or of the substitution
    inside ``integrate`` for a plain callable; overflow is a ``DomainError``.
    """
    operands = tuple(map(_as_signal, (f, g) if w is None else (f, g, w)))
    box = _infer_interval([op for op in operands if not isinstance(op, (int, float))], interval)
    total = 0.0
    with _row_memo({}), np.errstate(over="ignore", invalid="ignore"):
        for part in _product_integrals(map(_factors, operands), box):
            total += part
    return _finite(total, "the inner product")


def coupling_displacement(u1, u2, interval=None) -> float:
    """Net change of the cross coordinate from rest: integral of X1 u2 - X2 u1.

    X_i is the running integral of u_i from the left endpoint.  Elements,
    terms and signals expand term by term into exact antiderivatives, so a
    product of family terms with a polynomial or trig X_i is summed exactly
    on Gauss-Jacobi nodes or by the trapezoid rule.  The running integral of
    a weighted index-0 term (an incomplete beta function) is not a
    polynomial; against a term whose running integral is, its product is
    integrated by parts, X1(hi) X2(hi) = integral of X1 u2 + X2 u1, which
    leaves only exact rules.  Bare callables and mixed trig and polynomial
    products go through adaptive quadrature; overflow is a ``DomainError``.
    Within this call only (off by default) the factors share one recurrence per
    family, parameters and node bytes: a pair (n, n + 1) takes n + 1 steps.
    """
    u1, u2 = _as_signal(u1), _as_signal(u2)
    interval = _infer_interval((u1, u2), interval)
    ops1 = tuple(zip(_running_factors(u1, interval), _factors(u1)))
    ops2 = tuple(zip(_running_factors(u2, interval), _factors(u2)))

    def part(x, f, y, g):
        """Integral of X times the other term: X's running factor x and factor f, the other's y and g."""
        if x[2] is None and f[2] is not None and y[2] is not None:
            ends = next(_product_integrals(((f,),), interval)) * next(_product_integrals(((g,),), interval))
            return ends - next(_product_integrals(((y,), (f,)), interval))
        return next(_product_integrals(((x,), (g,)), interval))

    total = 0.0
    with _row_memo({}), np.errstate(over="ignore", invalid="ignore"):
        for (x1, f1), (x2, f2) in itertools.product(ops1, ops2):
            total += part(x1, f1, x2, f2)
        for (x2, f2), (x1, f1) in itertools.product(ops2, ops1):
            total -= part(x2, f2, x1, f1)
    return _finite(total, "the coupling displacement of the pair")


def _sign_cuts(signal: InputSignal) -> np.ndarray:
    """Sorted panel edges: the interval ends and every sign change inside.

    A single term changes sign at its element's known zeros, which neither
    its scale nor its weight moves: the Gauss-Jacobi nodes of the family's
    exponents (every polynomial family is a multiple of P_n^(a,b)), k/n for
    ``trig_sin`` and (2k+1)/(2n) for ``trig_cos``; it is not evaluated.

    A combined signal is scanned uniformly in s under t = mid - half*cos(s),
    densest near the ends where polynomial zeros cluster, with at least 512
    points and about 16 per possible zero (degree n, or 2n for trig index n).
    All brackets are then halved together until narrower than 1e-15, at most
    90 times.
    """
    lo, hi = signal.interval
    if len(signal.terms) == 1:
        el = signal.terms[0].element
        n = el.index
        if n == 0:
            tau = np.empty(0)
        elif el.family == TRIG_SIN:
            tau = np.arange(1 - n, n) / n
        elif el.family == TRIG_COS:
            tau = (2.0 * np.arange(-n, n) + 1.0) / (2 * n)
        else:
            tau = _gauss_jacobi(*weight_exponents(el.family, el.jacobi_params), n)[0]
        return np.concatenate(([lo], 0.5 * (hi + lo) + 0.5 * (hi - lo) * tau, [hi]))
    inset = (hi - lo) * 1e-9
    zeros = max((2 if t.element.family in (TRIG_SIN, TRIG_COS) else 1) * t.element.index for t in signal.terms)
    s = np.linspace(0.0, np.pi, max(512, 16 * zeros))
    grid = np.clip(_arc_time(signal.interval, s), lo + inset, hi - inset)
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


def _panel_signs(signal: InputSignal, cuts: np.ndarray) -> np.ndarray:
    """The sign, 1.0 or -1.0, of the signal on each panel between ``_sign_cuts``.

    A single term is not evaluated: its signs alternate across its known
    zeros, and its last panel has the sign of its scale times that of the
    element near the right end, +1 for every polynomial family (E_n(1) > 0,
    and the weight is positive inside), (-1)^n for ``trig_cos`` and
    (-1)^(n+1) for ``trig_sin``.  A combined signal is evaluated at the
    panel midpoints.
    """
    if len(signal.terms) != 1:
        return np.where(np.asarray(signal(0.5 * (cuts[:-1] + cuts[1:]))) >= 0, 1.0, -1.0)
    term = signal.terms[0]
    n, family = term.element.index, term.element.family
    last = -1.0 if (family == TRIG_COS and n % 2 == 1) or (family == TRIG_SIN and n % 2 == 0) else 1.0
    if term.scale < 0:
        last = -last
    signs = np.full(len(cuts) - 1, last)
    signs[-2::-2] = -last
    return signs


def lp_norm(signal: InputSignal, p: float = 1.0) -> float:
    """integral of |u|^p over the signal's interval, panel by constant-sign panel.

    p = 1 by exact running integrals: running-integral differences signed by
    ``_panel_signs``, which evaluates only a combined signal.  Otherwise a
    40-node Gauss rule in s per panel (weights and
    Jacobian folded in as in ``InputSignal.theta_factor``); panels where the
    20-node rule differs by over 1e-13 relative go to ``integrate_smooth``.
    Non-integrable exponent*p <= -1 raises ``IntegrabilityError`` up front,
    and a norm that overflows (inf, or nan from inf - inf running integrals)
    raises ``DomainError`` naming it.
    """
    p = float(p)
    if not p > 0.0:
        raise ValueError("p must be positive")
    if not signal.terms:
        return 0.0
    if any(min(term.exponents) * p <= -1.0 for term in signal.terms):
        raise IntegrabilityError(f"|u|^{p} is not integrable against the endpoint weights")
    with np.errstate(over="ignore", invalid="ignore"):
        norm = _lp_panels(signal, p)
    return _finite(norm, "the L%g norm of the signal", p)


def _lp_panels(signal: InputSignal, p: float) -> float:
    """``lp_norm``'s panel sum for a signal with terms and an integrable power p."""
    cuts = _sign_cuts(signal)
    keep = np.diff(cuts) >= 1e-14
    if p == 1.0:
        return float(np.sum((_panel_signs(signal, cuts) * np.diff(signal.running_integral(cuts)))[keep]))
    box = signal.interval
    s_cuts = _arc_angle(box, cuts)
    s_lo, s_hi = s_cuts[:-1][keep], s_cuts[1:][keep]

    def g(s):
        # |u|^p dt/ds = |u dt/ds|^p (dt/ds)^(1 - p), with dt/ds = half sin(s) > 0 inside
        return np.abs(_arc_integrand(signal, box, s)) ** p * (0.5 * (box[1] - box[0]) * np.sin(s)) ** (1.0 - p)

    def panels(rule):
        pts = 0.5 * (s_hi + s_lo)[:, None] + 0.5 * (s_hi - s_lo)[:, None] * rule[0]
        return 0.5 * (s_hi - s_lo) * (g(pts.ravel()).reshape(pts.shape) @ rule[1])

    fine, coarse = panels(_gauss_jacobi(0.0, 0.0, 40)), panels(_gauss_jacobi(0.0, 0.0, 20))
    for k in np.flatnonzero(np.abs(fine - coarse) > 1e-13 * np.abs(fine)):
        fine[k] = integrate_smooth(g, s_lo[k], s_hi[k])
    return float(np.sum(fine))


def l1_norm(signal: InputSignal) -> float:
    """integral of |u| over the signal's interval (``lp_norm`` at p = 1).

    Sign changes: a single term's known zeros; a combined signal is scanned
    uniformly in s, then bisected.  Panels: signed differences of the
    exact running integral, the signs of a single term alternating across its
    zeros without evaluating it, those of a combined signal evaluated at the
    panel midpoints.
    """
    return lp_norm(signal, 1.0)
