"""Orthogonal function families and the integration machinery built on them.

Supported families on the canonical interval [-1, 1] (or shifted to [0, 1]):

* ``legendre``           P_n,  weight 1
* ``chebyshev_first``    T_n,  weight (1 - t^2)^(-1/2)
* ``chebyshev_second``   U_n,  weight (1 - t^2)^(+1/2)
* ``jacobi``             P_n^(alpha, beta), weight (1 - t)^alpha (1 + t)^beta
* ``trig_sin``           sin(n pi t), weight 1
* ``trig_cos``           cos(n pi t), weight 1

Everything that integrates against an endpoint-singular weight works in s,
t = -cos(s), where the integrand is smooth: ``integrate`` adaptively, and the
L1/Lp norms panel by panel between the sign changes (found by a degree-sized
scan in s and batched bisection), by closed-form running integrals or a
doubled fixed Gauss rule.  Degrees are capped at 64; beyond that the
recurrences are still fine but we refuse rather than pretend the rest of the
package (planning, quadrature tolerances) has been validated there.
"""

from __future__ import annotations

import heapq
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
        object.__setattr__(self, "interval", _check_interval(self.interval))
        if self.family == JACOBI:
            if self.jacobi_params is None:
                raise ValueError("jacobi elements require jacobi_params=(alpha, beta)")
            alpha, beta = map(float, self.jacobi_params)
            if alpha <= -1.0 or beta <= -1.0:
                raise ValueError("jacobi parameters must satisfy alpha, beta > -1")
            object.__setattr__(self, "jacobi_params", (alpha, beta))
        elif self.jacobi_params is not None:
            raise ValueError("jacobi_params is only valid for the jacobi family")


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


def _deriv_canonical(family: str, index: int, params, tau: np.ndarray) -> np.ndarray:
    n = index
    if n == 0:
        return np.zeros_like(tau)
    if family == CHEBYSHEV_FIRST:
        # T_n' = n U_{n-1}, entire in tau.
        return n * _chebyshev_u_all(n - 1, tau)[n - 1]
    if family == CHEBYSHEV_SECOND:
        # U_n' = ((n+1) T_{n+1} - tau U_n) / (tau^2 - 1); no finite closed form
        # at the endpoints the way Legendre has, so refuse there.
        if np.any(np.abs(tau) >= 1.0 - _EDGE_TOL):
            raise DomainError(
                "derivative of a second-kind Chebyshev element is not "
                "available at the interval endpoints"
            )
        t_vals = _chebyshev_t_all(n + 1, tau)[n + 1]
        u_vals = _chebyshev_u_all(n, tau)[n]
        return ((n + 1) * t_vals - tau * u_vals) / (tau * tau - 1.0)
    if family == LEGENDRE:
        out = np.empty_like(tau)
        edge = np.abs(tau) >= 1.0 - _EDGE_TOL
        interior = ~edge
        ti = tau[interior]
        out[interior] = n * (
            _legendre_all(n - 1, ti)[n - 1] - ti * _eval_canonical(LEGENDRE, n, None, ti)
        ) / (1.0 - ti * ti)
        if np.any(edge):
            te = tau[edge]
            # P_n'(+-1) = (+-1)^(n-1) n(n+1)/2
            out[edge] = np.sign(te) ** (n - 1) * n * (n + 1) / 2.0
        return out
    if family == JACOBI:
        alpha, beta = params
        inner = _jacobi_all(n - 1, alpha + 1.0, beta + 1.0, tau)[n - 1]
        return 0.5 * (n + alpha + beta + 1.0) * inner
    if family == TRIG_SIN:
        return n * np.pi * np.cos(n * np.pi * tau)
    if family == TRIG_COS:
        return -n * np.pi * np.sin(n * np.pi * tau)
    raise ValueError(f"unknown family {family!r}")


def _second_deriv_canonical(family: str, index: int, params, tau: np.ndarray) -> np.ndarray:
    n = index
    if n == 0:
        return np.zeros_like(tau)
    if family == TRIG_SIN:
        return -((n * np.pi) ** 2) * np.sin(n * np.pi * tau)
    if family == TRIG_COS:
        return -((n * np.pi) ** 2) * np.cos(n * np.pi * tau)
    if family == JACOBI:
        alpha, beta = params
        if n == 1:
            return np.zeros_like(tau)
        inner = _jacobi_all(n - 2, alpha + 2.0, beta + 2.0, tau)[n - 2]
        return 0.25 * (n + alpha + beta + 1.0) * (n + alpha + beta + 2.0) * inner
    # Remaining families satisfy a second-order ODE we can solve for y''.
    if np.any(np.abs(tau) >= 1.0 - _EDGE_TOL):
        raise DomainError("second derivative requires interior points")
    y = _eval_canonical(family, n, params, tau)
    dy = _deriv_canonical(family, n, params, tau)
    one_minus = 1.0 - tau * tau
    if family == CHEBYSHEV_FIRST:
        return (tau * dy - n * n * y) / one_minus
    if family == CHEBYSHEV_SECOND:
        return (3.0 * tau * dy - n * (n + 2) * y) / one_minus
    if family == LEGENDRE:
        return (2.0 * tau * dy - n * (n + 1) * y) / one_minus
    raise ValueError(f"unknown family {family!r}")


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
    tau = _to_canonical(element.interval, t)
    out = _eval_canonical(element.family, element.index, element.jacobi_params, np.atleast_1d(tau))
    return _unwrap(out.reshape(np.shape(tau)), t)


def evaluate_derivative(element: BasisElement, t):
    """First derivative with respect to the element's own variable ``t``."""
    tau = _to_canonical(element.interval, t)
    out = _deriv_canonical(element.family, element.index, element.jacobi_params, np.atleast_1d(tau))
    if element.interval == SHIFTED_INTERVAL:
        out = 2.0 * out
    return _unwrap(out.reshape(np.shape(tau)), t)


def evaluate_second_derivative(element: BasisElement, t):
    """Second derivative with respect to the element's own variable ``t``."""
    tau = _to_canonical(element.interval, t)
    out = _second_deriv_canonical(
        element.family, element.index, element.jacobi_params, np.atleast_1d(tau)
    )
    if element.interval == SHIFTED_INTERVAL:
        out = 4.0 * out
    return _unwrap(out.reshape(np.shape(tau)), t)


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
        if self.family not in FAMILIES:
            raise ValueError(f"unknown family {self.family!r}")
        object.__setattr__(self, "interval", _check_interval(self.interval))
        if self.family == JACOBI:
            if self.jacobi_params is None:
                raise ValueError("jacobi weight requires jacobi_params")
            alpha, beta = map(float, self.jacobi_params)
            if alpha <= -1.0 or beta <= -1.0:
                raise ValueError("jacobi parameters must satisfy alpha, beta > -1")
            object.__setattr__(self, "jacobi_params", (alpha, beta))

    @property
    def exponents(self) -> tuple[float, float]:
        return weight_exponents(self.family, self.jacobi_params)

    def __call__(self, t):
        tau = _to_canonical(self.interval, t)
        a, b = self.exponents
        arr = np.atleast_1d(tau)
        if a < 0 and np.any(arr >= 1.0 - _EDGE_TOL):
            raise DomainError("weight is singular at the right endpoint")
        if b < 0 and np.any(arr <= -1.0 + _EDGE_TOL):
            raise DomainError("weight is singular at the left endpoint")
        out = (1.0 - arr) ** a * (1.0 + arr) ** b
        return _unwrap(out.reshape(np.shape(tau)), t)

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
# Adaptive Gauss-Legendre quadrature
# ---------------------------------------------------------------------------

_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(20)


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
    vals = _eval_array(f, mid + half * _GL_NODES)
    return half * float(np.dot(_GL_WEIGHTS, vals))


def integrate_smooth(
    f,
    lo: float,
    hi: float,
    abs_tol: float = 1e-12,
    rel_tol: float = 1e-10,
    max_panels: int = 4096,
) -> float:
    """Globally adaptive 20-point Gauss-Legendre integration.

    The worst panel (largest difference between its one-panel and two-panel
    estimates) is split until the summed error estimate meets the tolerance.
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
        tol = max(abs_tol, rel_tol * abs(total))
        if total_err <= tol or len(heap) >= max_panels:
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
    if total_err > 1e3 * max(abs_tol, rel_tol * abs(total)):
        raise IntegrabilityError(
            "quadrature failed to converge; integrand appears singular"
        )
    return total


def integrate(
    f_smooth,
    interval: tuple[float, float],
    exponents: tuple[float, float] = (0.0, 0.0),
    box: tuple[float, float] | None = None,
    abs_tol: float = 1e-12,
    rel_tol: float = 1e-10,
) -> float:
    """Integrate ``f_smooth(t) * (1 - tau)^a (1 + tau)^b`` over ``interval``.

    ``tau`` is the canonical variable of ``box`` (defaults to ``interval``),
    so endpoint singularities sit at the box edges.  Nonzero exponents are
    handled with the substitution tau = -cos(s), which turns the weight into
    ``2^(a+b+1) cos(s/2)^(2a+1) sin(s/2)^(2b+1)`` — smooth whenever the
    integral exists at all.  Exponents at or below -1 raise
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
        return integrate_smooth(f_smooth, lo, hi, abs_tol, rel_tol)
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
        t = mid - half * np.cos(s)
        return (
            np.asarray(f_smooth(t), dtype=float)
            * np.cos(0.5 * s) ** (2.0 * a + 1.0)
            * np.sin(0.5 * s) ** (2.0 * b + 1.0)
        )

    return factor * integrate_smooth(g, s_lo, s_hi, abs_tol, rel_tol)


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
        base = self.scale * _eval_canonical(
            self.element.family, self.element.index, self.element.jacobi_params, arr
        )
        a, b = self.exponents
        if a != 0.0 or b != 0.0:
            if a < 0 and np.any(arr >= 1.0 - _EDGE_TOL):
                raise DomainError("weighted term is singular at the right endpoint")
            if b < 0 and np.any(arr <= -1.0 + _EDGE_TOL):
                raise DomainError("weighted term is singular at the left endpoint")
            base = base * (1.0 - arr) ** a * (1.0 + arr) ** b
        return _unwrap(base.reshape(np.shape(tau)), t)

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


def _term_running_integral_canonical(term: Term, tau: np.ndarray):
    """Closed-form antiderivative from -1 in the canonical variable, or None."""
    fam = term.element.family
    n = term.element.index
    w = term.weighted
    if fam == LEGENDRE:
        if n == 0:
            return tau + 1.0
        vals = _legendre_all(n + 1, tau)
        lo = _legendre_all(n + 1, np.array([-1.0]))
        f = (vals[n + 1] - vals[n - 1]) / (2 * n + 1)
        f0 = (lo[n + 1] - lo[n - 1]) / (2 * n + 1)
        return f - f0[0]
    if fam == TRIG_SIN:
        return ((-1.0) ** n - np.cos(n * np.pi * tau)) / (n * np.pi)
    if fam == TRIG_COS:
        if n == 0:
            return tau + 1.0
        return np.sin(n * np.pi * tau) / (n * np.pi)
    if fam == CHEBYSHEV_FIRST and not w:
        if n == 0:
            return tau + 1.0
        if n == 1:
            return 0.5 * (tau * tau - 1.0)
        vals = _chebyshev_t_all(n + 1, tau)
        return (
            0.5 * (vals[n + 1] / (n + 1) - vals[n - 1] / (n - 1))
            - (-1.0) ** n / (n * n - 1.0)
        )
    if fam == CHEBYSHEV_FIRST and w:
        if n == 0:
            return np.arcsin(tau) + 0.5 * np.pi
        u = _chebyshev_u_all(n - 1, tau)[n - 1]
        return -np.sqrt(np.clip(1.0 - tau * tau, 0.0, None)) * u / n
    if fam == CHEBYSHEV_SECOND and not w:
        t_next = _chebyshev_t_all(n + 1, tau)[n + 1]
        return (t_next - (-1.0) ** (n + 1)) / (n + 1)
    if fam == CHEBYSHEV_SECOND and w:
        root = np.sqrt(np.clip(1.0 - tau * tau, 0.0, None))
        if n == 0:
            return 0.5 * (tau * root + np.arcsin(tau)) + 0.25 * np.pi
        vals = _chebyshev_u_all(n + 1, tau)
        return 0.5 * root * (vals[n + 1] / (n + 2) - vals[n - 1] / n)
    return None


@dataclass(frozen=True)
class InputSignal:
    """A finite combination of (possibly weighted) basis terms on one interval.

    Callable; also knows its derivative, second derivative and running
    integral (closed forms where the family admits one, adaptive quadrature
    otherwise).
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

    def derivative(self, t):
        tau = _to_canonical(self.interval, t)
        arr = np.atleast_1d(tau)
        acc = np.zeros_like(arr)
        chain = 2.0 if self.interval == SHIFTED_INTERVAL else 1.0
        for term in self.terms:
            el = term.element
            e = term.scale * _eval_canonical(el.family, el.index, el.jacobi_params, arr)
            de = term.scale * _deriv_canonical(el.family, el.index, el.jacobi_params, arr)
            a, b = term.exponents
            if a == 0.0 and b == 0.0:
                acc = acc + de
            else:
                if np.any(np.abs(arr) >= 1.0 - _EDGE_TOL):
                    raise DomainError("derivative of a weighted term requires interior points")
                wgt = (1.0 - arr) ** a * (1.0 + arr) ** b
                rho = -a / (1.0 - arr) + b / (1.0 + arr)
                acc = acc + wgt * (de + e * rho)
        return _unwrap(chain * acc.reshape(np.shape(tau)), t)

    def second_derivative(self, t):
        tau = _to_canonical(self.interval, t)
        arr = np.atleast_1d(tau)
        acc = np.zeros_like(arr)
        chain = 4.0 if self.interval == SHIFTED_INTERVAL else 1.0
        for term in self.terms:
            el = term.element
            e = term.scale * _eval_canonical(el.family, el.index, el.jacobi_params, arr)
            de = term.scale * _deriv_canonical(el.family, el.index, el.jacobi_params, arr)
            d2e = term.scale * _second_deriv_canonical(el.family, el.index, el.jacobi_params, arr)
            a, b = term.exponents
            if a == 0.0 and b == 0.0:
                acc = acc + d2e
            else:
                if np.any(np.abs(arr) >= 1.0 - _EDGE_TOL):
                    raise DomainError(
                        "second derivative of a weighted term requires interior points"
                    )
                wgt = (1.0 - arr) ** a * (1.0 + arr) ** b
                rho = -a / (1.0 - arr) + b / (1.0 + arr)
                drho = -a / (1.0 - arr) ** 2 - b / (1.0 + arr) ** 2
                acc = acc + wgt * (d2e + 2.0 * de * rho + e * (rho * rho + drho))
        return _unwrap(chain * acc.reshape(np.shape(tau)), t)

    def running_integral(self, t):
        """Integral of the signal from the left endpoint of its interval to t."""
        tau = _to_canonical(self.interval, t)
        arr = np.atleast_1d(tau)
        acc = np.zeros_like(arr)
        lo, hi = self.interval
        scale_dt = 0.5 * (hi - lo)  # dt = scale_dt * dtau
        for term in self.terms:
            closed = _term_running_integral_canonical(term, arr)
            if closed is not None:
                acc = acc + term.scale * scale_dt * np.asarray(closed, dtype=float)
            else:
                a, b = term.exponents
                flat = arr.ravel()
                vals = np.array(
                    [
                        integrate(term.smooth, (lo, lo + scale_dt * (x + 1.0)), (a, b), box=self.interval)
                        for x in flat
                    ]
                )
                acc = acc + vals.reshape(arr.shape)
        return _unwrap(acc.reshape(np.shape(tau)), t)

    def integral(self) -> float:
        """Integral over the whole interval."""
        return float(self.running_integral(self.interval[1]))

    def theta_factor(self, s):
        """Value of u(t(s)) * dt/ds under t = mid - half*cos(s), s in [0, pi].

        The endpoint weights combine with the Jacobian into
        half * 2^(a+b+1) * cos(s/2)^(2a+1) * sin(s/2)^(2b+1), smooth for any
        integrable exponents; this is what reparameterized integrators use.
        """
        s = np.asarray(s, dtype=float)
        lo, hi = self.interval
        half = 0.5 * (hi - lo)
        mid = 0.5 * (hi + lo)
        arr = np.atleast_1d(s)
        tau = -np.cos(arr)
        acc = np.zeros_like(arr)
        for term in self.terms:
            el = term.element
            e = term.scale * _eval_canonical(el.family, el.index, el.jacobi_params, tau)
            a, b = term.exponents
            acc = acc + (
                e
                * half
                * 2.0 ** (a + b + 1.0)
                * np.cos(0.5 * arr) ** (2.0 * a + 1.0)
                * np.sin(0.5 * arr) ** (2.0 * b + 1.0)
            )
        out = acc.reshape(np.shape(s))
        if np.isscalar(s) or out.ndim == 0:
            return float(out)
        return out

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


def _as_terms(obj) -> tuple[tuple, tuple[float, float] | None]:
    """Normalize an operand to a list of (smooth_callable, exponents) factors."""
    if isinstance(obj, BasisElement):
        sig = InputSignal(terms=(Term(element=obj),), interval=obj.interval)
        return tuple(sig.terms), sig.interval
    if isinstance(obj, Term):
        return (obj,), obj.element.interval
    if isinstance(obj, InputSignal):
        return tuple(obj.terms), obj.interval
    if callable(obj):
        return (obj,), None
    raise ValueError(f"cannot interpret {type(obj).__name__} as an inner-product operand")


def inner_product(f, g, w: WeightFn | None = None, interval=None) -> float:
    """<f, g>_w = integral of f*g*w over the interval.

    ``f`` and ``g`` may be basis elements, terms, input signals, or plain
    callables; the weight's endpoint singularities (and those of weighted
    terms) are absorbed by the substitution inside ``integrate``.
    """
    f_terms, f_int = _as_terms(f)
    g_terms, g_int = _as_terms(g)
    intervals = {i for i in (f_int, g_int, None if w is None else w.interval) if i is not None}
    if interval is not None:
        intervals.add(_check_interval(interval))
    if len(intervals) > 1:
        raise ValueError("operands live on different intervals")
    if not intervals:
        raise ValueError("interval cannot be inferred; pass it explicitly")
    box = intervals.pop()
    w_exps = (0.0, 0.0) if w is None else w.exponents
    total = 0.0
    for ft in f_terms:
        for gt in g_terms:
            exps = [w_exps]
            factors = []
            for part in (ft, gt):
                if isinstance(part, Term):
                    exps.append(part.exponents)
                    factors.append(part.smooth)
                else:
                    factors.append(part)
            a = sum(e[0] for e in exps)
            b = sum(e[1] for e in exps)

            def prod(t, fs=tuple(factors)):
                acc = np.asarray(fs[0](t), dtype=float)
                for fn in fs[1:]:
                    acc = acc * np.asarray(fn(t), dtype=float)
                return acc

            total += integrate(prod, box, (a, b), box=box)
    return total


def _gauss_legendre(n: int) -> tuple[np.ndarray, np.ndarray]:
    """numpy's nodes, with weights 2/((1-x^2) P_n'(x)^2): numpy's own are off ~1e-12 at 40 nodes."""
    x = np.polynomial.legendre.leggauss(n)[0]
    vals = _legendre_all(n, x)
    slope = n * (x * vals[n] - vals[n - 1]) / (x * x - 1.0)
    return x, 2.0 / ((1.0 - x * x) * slope * slope)


_PANEL_RULE, _CHECK_RULE = _gauss_legendre(20), _gauss_legendre(40)


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

    p = 1 with closed forms (all families but Jacobi): signed running-integral
    differences.  Otherwise a 40-node Gauss rule in s per panel (weights and
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
    if p == 1.0 and all(_term_running_integral_canonical(t, np.empty(0)) is not None for t in signal.terms):
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

    fine, coarse = panels(_CHECK_RULE), panels(_PANEL_RULE)
    for k in np.flatnonzero(np.abs(fine - coarse) > 1e-13 * np.abs(fine)):
        fine[k] = integrate_smooth(g, s_lo[k], s_hi[k])
    return float(np.sum(fine))


def l1_norm(signal: InputSignal) -> float:
    """integral of |u| over the signal's interval (``lp_norm`` at p = 1).

    Sign changes: a degree-sized scan uniform in s, then batched bisection.
    Panels: closed-form running integrals, else a doubled fixed Gauss rule in s.
    """
    return lp_norm(signal, 1.0)
