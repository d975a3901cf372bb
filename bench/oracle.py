"""Reference values computed apart from nhsteer, with numpy only.

Nothing here imports the package.  Each function rebuilds a quantity the
benchmark's workloads ask nhsteer for, by a route the package does not take:

* L1 and Lp norms of the shapes: exact roots and antiderivatives of
  ``numpy.polynomial`` series for the unweighted polynomials, closed forms
  for trig and weighted Chebyshev shapes, and Golub-Welsch Gauss-Jacobi
  rules on sign-constant panels for weighted Jacobi shapes.
* Coupling constants D = integral of (X_odd u_even - X_even u_odd): exact
  polynomial integration (Legendre), closed-form running integrals under a
  high-order Gauss rule in theta = arccos t (trig, weighted Chebyshev), and
  the Rodrigues identity for Jacobi running integrals under an exact
  Gauss-Jacobi rule.
* Rotations: Rodrigues' formula and quaternions written out by hand.

Shapes follow the package's conventions: standard normalisations (P_n(1) = 1,
T_n(1) = 1, U_n(1) = n + 1, Jacobi P_n^(a,b)(1) = binom(n + a, n)), trig
shapes sin(n pi tau) and cos(n pi tau), and weighted families multiplied by
their own weight (1 - tau)^a (1 + tau)^b.  On the shifted interval [0, 1]
every shape is the canonical one composed with tau = 2t - 1, so norms halve
and coupling constants quarter.
"""

from __future__ import annotations

import math

import numpy as np
from numpy.polynomial import legendre as npleg

CANONICAL = (-1.0, 1.0)
SHIFTED = (0.0, 1.0)

_GL_T, _GL_W = npleg.leggauss(256)
_GL_PANEL_T, _GL_PANEL_W = npleg.leggauss(64)


def _interval_scale(interval) -> float:
    """dt / dtau for the package's two intervals."""
    lo, hi = float(interval[0]), float(interval[1])
    if (lo, hi) == CANONICAL:
        return 1.0
    if (lo, hi) == SHIFTED:
        return 0.5
    raise ValueError(f"unsupported interval {interval}")


def _gauss(lo: float, hi: float, nodes=_GL_T, weights=_GL_W):
    half = 0.5 * (hi - lo)
    return 0.5 * (hi + lo) + half * nodes, half * weights


# ---------------------------------------------------------------------------
# Gauss-Jacobi rules and Jacobi polynomials


def gauss_jacobi(n: int, a: float, b: float) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights for integral over [-1, 1] of f(x) (1-x)^a (1+x)^b.

    Golub-Welsch: eigen-decomposition of the Jacobi matrix of the monic
    Jacobi recurrence.  Exact for polynomials f of degree < 2n.
    """
    k = np.arange(n, dtype=float)
    s = 2.0 * k + a + b
    diag = np.empty(n)
    diag[0] = (b - a) / (a + b + 2.0)
    if n > 1:
        diag[1:] = (b * b - a * a) / (s[1:] * (s[1:] + 2.0))
    off = np.empty(max(n - 1, 0))
    if n > 1:
        off[0] = 4.0 * (1.0 + a) * (1.0 + b) / ((2.0 + a + b) ** 2 * (3.0 + a + b))
        kk = k[2:]
        ss = s[2:]
        off[1:] = (
            4.0 * kk * (kk + a) * (kk + b) * (kk + a + b)
            / (ss * ss * (ss + 1.0) * (ss - 1.0))
        )
    jac = np.diag(diag) + np.diag(np.sqrt(off), 1) + np.diag(np.sqrt(off), -1)
    nodes, vecs = np.linalg.eigh(jac)
    mu0 = math.exp(
        (a + b + 1.0) * math.log(2.0)
        + math.lgamma(a + 1.0)
        + math.lgamma(b + 1.0)
        - math.lgamma(a + b + 2.0)
    )
    return nodes, mu0 * vecs[0, :] ** 2


def _binom(z: float, k: int) -> float:
    out = 1.0
    for i in range(1, k + 1):
        out *= (z - k + i) / i
    return out


def jacobi_poly(n: int, a: float, b: float, x) -> np.ndarray:
    """P_n^(a,b)(x) from its explicit finite sum (no recurrence)."""
    x = np.asarray(x, dtype=float)
    xm = 0.5 * (x - 1.0)
    xp = 0.5 * (x + 1.0)
    out = np.zeros_like(x)
    for s in range(n + 1):
        out = out + _binom(n + a, n - s) * _binom(n + b, s) * xm**s * xp ** (n - s)
    return out


# ---------------------------------------------------------------------------
# Norms of single shapes


def _poly_lp(series: np.ndarray, p: int) -> float:
    """integral over [-1, 1] of |u|^p for a Legendre series u, integer p >= 1."""
    u = npleg.Legendre(series)
    power = u**p
    anti = power.integ()
    roots = [r.real for r in u.roots() if abs(r.imag) < 1e-12 and -1.0 < r.real < 1.0]
    cuts = [-1.0] + sorted(roots) + [1.0]
    return float(sum(abs(anti(b) - anti(a)) for a, b in zip(cuts[:-1], cuts[1:])))


def _wallis(p: int) -> float:
    """integral over [0, pi] of sin^p."""
    return math.sqrt(math.pi) * math.exp(math.lgamma(0.5 * (p + 1)) - math.lgamma(0.5 * p + 1.0))


def _sin_panels_lp(k: int, p: int) -> float:
    """integral over [0, pi] of |sin(k theta)|^p sin(theta), panel by panel."""
    total = 0.0
    for j in range(k):
        th, w = _gauss(j * math.pi / k, (j + 1) * math.pi / k, _GL_PANEL_T, _GL_PANEL_W)
        total += float(np.dot(w, np.abs(np.sin(k * th)) ** p * np.sin(th)))
    return total


def _jacobi_l1(n: int, g: float) -> float:
    """integral over [-1, 1] of |(1 - t^2)^g P_n^(g,g)(t)|, g > -1."""
    roots, _ = gauss_jacobi(n, g, g)
    cuts = [-1.0] + sorted(roots.tolist()) + [1.0]
    end_x, end_w = gauss_jacobi(64, g, 0.0)
    total = 0.0
    for idx, (lo, hi) in enumerate(zip(cuts[:-1], cuts[1:])):
        if idx == len(cuts) - 2:
            # (1 - t)^g on [lo, 1]: t = lo + (1 - lo)(x + 1)/2
            t = lo + 0.5 * (1.0 - lo) * (end_x + 1.0)
            f = (1.0 + t) ** g * jacobi_poly(n, g, g, t)
            val = (0.5 * (1.0 - lo)) ** (g + 1.0) * float(np.dot(end_w, f))
        elif idx == 0:
            # (1 + t)^g on [-1, hi]: mirror of the right end panel
            t = hi - 0.5 * (hi + 1.0) * (end_x + 1.0)
            f = (1.0 - t) ** g * jacobi_poly(n, g, g, t)
            val = (0.5 * (hi + 1.0)) ** (g + 1.0) * float(np.dot(end_w, f))
        else:
            t, w = _gauss(lo, hi, _GL_PANEL_T, _GL_PANEL_W)
            val = float(np.dot(w, (1.0 - t * t) ** g * jacobi_poly(n, g, g, t)))
        total += abs(val)
    return total


def shape_lp(family: str, index: int, p: int = 1, interval=CANONICAL, jacobi_g=None) -> float:
    """integral of |shape|^p over the interval, for a unit planner shape.

    ``family`` is a planner family name; for ``trig`` the odd shape is the
    sine and the even one the cosine, so ``index`` carries a kind prefix:
    pass ``("sin", n)`` or ``("cos", n)``.
    """
    scale = _interval_scale(interval)
    if family == "legendre":
        series = np.zeros(index + 1)
        series[index] = 1.0
        value = _poly_lp(series, p)
    elif family == "trig":
        _, n = index
        value = 2.0 * _wallis(p) / math.pi if n > 0 else 2.0
    elif family == "chebyshev_first":
        if p != 1:
            raise ValueError("weighted first-kind shapes are only L1-integrable")
        value = 2.0 if index > 0 else math.pi
    elif family == "chebyshev_second":
        value = _sin_panels_lp(index + 1, p)
    elif family == "jacobi":
        if p != 1:
            raise ValueError("only L1 norms of Jacobi shapes are provided")
        value = _jacobi_l1(index, float(jacobi_g))
    else:
        raise ValueError(f"unknown family {family!r}")
    return scale * value


# ---------------------------------------------------------------------------
# Coupling constants


def _coupling_legendre(n_odd: int, n_even: int) -> float:
    def series(n):
        c = np.zeros(n + 1)
        c[n] = 1.0
        return npleg.Legendre(c)

    u1, u2 = series(n_odd), series(n_even)
    x1, x2 = u1.integ(lbnd=-1.0), u2.integ(lbnd=-1.0)
    integrand = (x1 * u2 - x2 * u1).integ(lbnd=-1.0)
    return float(integrand(1.0))


def _coupling_trig(n_sin: int, n_cos: int) -> float:
    t, w = _GL_T, _GL_W
    x_sin = ((-1.0) ** n_sin - np.cos(n_sin * np.pi * t)) / (n_sin * np.pi)
    x_cos = np.sin(n_cos * np.pi * t) / (n_cos * np.pi)
    return float(np.dot(w, x_sin * np.cos(n_cos * np.pi * t) - x_cos * np.sin(n_sin * np.pi * t)))


def _coupling_cheb_first(n1: int, n2: int) -> float:
    # t = cos(theta): u_k dt = -cos(n_k theta) d theta, X_k = -sin(n_k theta)/n_k
    th, w = _gauss(0.0, math.pi)
    f = -np.sin(n1 * th) * np.cos(n2 * th) / n1 + np.sin(n2 * th) * np.cos(n1 * th) / n2
    return float(np.dot(w, f))


def _coupling_cheb_second(n1: int, n2: int) -> float:
    # t = cos(theta): u_k = sin((n_k + 1) theta), dt = -sin(theta) d theta and
    # X_k(theta) = integral from theta to pi of sin((n_k + 1) phi) sin(phi).
    th, w = _gauss(0.0, math.pi)

    def running(n):
        k = n + 1
        anti = 0.5 * (np.sin((k - 1) * th) / (k - 1) - np.sin((k + 1) * th) / (k + 1))
        return -anti

    u1, u2 = np.sin((n1 + 1) * th), np.sin((n2 + 1) * th)
    f = (running(n1) * u2 - running(n2) * u1) * np.sin(th)
    return float(np.dot(w, f))


def _coupling_jacobi(n1: int, n2: int, g: float) -> float:
    # X_k(t) = -(1 - t^2)^(g+1) P_{n_k - 1}^(g+1, g+1)(t) / (2 n_k), so the
    # integrand is (1 - t^2)^(2g+1) times a polynomial of degree n1 + n2 - 1.
    x, w = gauss_jacobi(max(n1 + n2, 4), 2.0 * g + 1.0, 2.0 * g + 1.0)
    q1 = -jacobi_poly(n1 - 1, g + 1.0, g + 1.0, x) / (2.0 * n1)
    q2 = -jacobi_poly(n2 - 1, g + 1.0, g + 1.0, x) / (2.0 * n2)
    p1 = jacobi_poly(n1, g, g, x)
    p2 = jacobi_poly(n2, g, g, x)
    return float(np.dot(w, q1 * p2 - q2 * p1))


def coupling(family: str, n_odd: int, n_even: int, interval=CANONICAL, jacobi_g=None) -> float:
    """D(odd, even) for unit planner shapes; the planner's sign convention."""
    if family == "legendre":
        value = _coupling_legendre(n_odd, n_even)
    elif family == "trig":
        value = _coupling_trig(n_odd, n_even)
    elif family == "chebyshev_first":
        value = _coupling_cheb_first(n_odd, n_even)
    elif family == "chebyshev_second":
        value = _coupling_cheb_second(n_odd, n_even)
    elif family == "jacobi":
        value = _coupling_jacobi(n_odd, n_even, float(jacobi_g))
    else:
        raise ValueError(f"unknown family {family!r}")
    scale = _interval_scale(interval)
    return scale * scale * value


def odd_even(family: str, pair) -> tuple[int, int]:
    """(odd index, even index) of a planner pair, in the planner's order."""
    i, j = int(pair[0]), int(pair[1])
    if family == "trig":
        return i, j
    return (i, j) if i % 2 else (j, i)


# ---------------------------------------------------------------------------
# Rotations


def rodrigues(v) -> np.ndarray:
    """exp(hat(v)) written out from the axis-angle form."""
    v = np.asarray(v, dtype=float)
    theta = float(np.sqrt(v @ v))
    if theta == 0.0:
        return np.eye(3)
    k = v / theta
    kx = np.array([[0.0, -k[2], k[1]], [k[2], 0.0, -k[0]], [-k[1], k[0], 0.0]])
    return np.eye(3) + math.sin(theta) * kx + (1.0 - math.cos(theta)) * (kx @ kx)


def quat_to_rot(q) -> np.ndarray:
    """Rotation matrix of a unit quaternion (w, x, y, z)."""
    w, x, y, z = (float(c) for c in q)
    return np.array(
        [
            [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
            [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
            [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)],
        ]
    )


def random_rotation(rng) -> np.ndarray:
    q = rng.normal(size=4)
    return quat_to_rot(q / np.linalg.norm(q))


def underactuated_endpoint(r: float, phi: float, c: float, duration: float, g0) -> np.ndarray:
    """Attitude at ``duration`` under omega = (r cos, -r sin, 1) sinusoids.

    The flow is exp(-T (c-1) E3) exp(T hat(r cos phi, -r sin phi, c)) g0.
    """
    body = duration * np.array([r * math.cos(phi), -r * math.sin(phi), c])
    return rodrigues(np.array([0.0, 0.0, -duration * (c - 1.0)])) @ rodrigues(body) @ np.asarray(g0)
