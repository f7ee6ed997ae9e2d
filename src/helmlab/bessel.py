"""Bessel functions of the first kind and radial Helmholtz modes.

Self-contained evaluation of ``J_nu`` built from the ascending power series
and Miller-style backward recurrence, so the package carries its own oracle
for manufactured solutions instead of depending on an external special
function library.

Evaluation regimes
------------------
* ascending series (https://dlmf.nist.gov/10.2#E2) wherever its alternating
  terms do not grow: ``x <= max(8, 2 sqrt(nu+1))``.  In that zone the largest
  term stays within a few orders of the result and double precision keeps
  ~1e-13 relative accuracy.
* backward recurrence (https://dlmf.nist.gov/10.74#iv) elsewhere, normalized
  with ``J_0 + 2 J_2 + 2 J_4 + ... = 1`` (10.23.3) for integer orders and
  against the closed forms ``J_{1/2}``, ``J_{3/2}`` (10.16.1) for
  half-integer orders.

Orders that are neither integer nor half-integer are supported only inside
the series zone; the guarded box is ``nu <= 500``, ``x <= 1e4``.

Radial modes ``R_l(r) = r^{1-n/2} J_{l+n/2-1}(r)`` solve the radial part of
the Helmholtz equation; the module also evaluates the sharp two-sided
inequalities for ``J_alpha(alpha x)`` on ``x in (0,1)`` and the exact modal
minimization behind the boundary-cost lower bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import HypothesisViolated, RangeGuard

_MAX_ORDER = 500.0
_MAX_ARG = 1.0e4


# ---------------------------------------------------------------------------
# Core evaluation
# ---------------------------------------------------------------------------

def _series_zone(nu: float, x: np.ndarray) -> np.ndarray:
    return x <= max(8.0, 2.0 * math.sqrt(nu + 1.0))


def _series_batch(nu: float, x: np.ndarray) -> np.ndarray:
    """Ascending series; caller guarantees the no-growth zone."""
    x = np.asarray(x, dtype=float)
    out = np.zeros_like(x)
    zero = x == 0.0
    out[zero] = 1.0 if nu == 0.0 else 0.0
    xs = x[~zero]
    if xs.size:
        q = -(xs * xs) / 4.0
        term = np.ones_like(xs)
        total = np.ones_like(xs)
        m = 1
        while m < 500:
            term = term * q / (m * (nu + m))
            total += term
            if np.max(np.abs(term)) < 1e-17 * max(np.max(np.abs(total)), 1e-300):
                break
            m += 1
        lead = np.exp(nu * np.log(xs / 2.0) - math.lgamma(nu + 1.0))
        out[~zero] = lead * total
    return out


def _miller_batch(nu: float, x: np.ndarray) -> np.ndarray:
    """Backward recurrence for integer / half-integer order, batched over x."""
    frac = nu - math.floor(nu)
    if frac not in (0.0, 0.5):
        raise RangeGuard(
            "orders outside the series zone must be integer or half-integer")
    x = np.asarray(x, dtype=float)
    m_target = int(round(nu - frac))
    hi = max(nu, float(np.max(x)))
    top = m_target + 18 + int(math.ceil(hi - nu)) + int(2.0 * math.sqrt(hi) + 8)

    n = x.size
    jp = np.zeros(n)                 # J_{frac+m+1}, unnormalized
    jc = np.full(n, 1e-305)          # J_{frac+m}
    out = np.zeros(n)
    norm_even = np.zeros(n)          # integer: J_0 + 2 sum J_{2k}
    j_half = np.zeros(n)
    j_3half = np.zeros(n)

    for m in range(top, -1, -1):
        if m == m_target:
            out = jc.copy()
        if frac == 0.0:
            if m == 0:
                norm_even += jc
            elif m % 2 == 0:
                norm_even += 2.0 * jc
        else:
            if m == 1:
                j_3half = jc.copy()
            elif m == 0:
                j_half = jc.copy()
        if m == 0:
            break
        jm = (2.0 * (frac + m) / x) * jc - jp
        jp, jc = jc, jm
        big = np.abs(jc) > 1e250
        if np.any(big):
            s = np.where(big, 1e-250, 1.0)
            jc *= s
            jp *= s
            out *= s
            norm_even *= s
            j_half *= s
            j_3half *= s

    if frac == 0.0:
        return out / norm_even
    closed_half = np.sqrt(2.0 / (np.pi * x)) * np.sin(x)
    closed_3half = np.sqrt(2.0 / (np.pi * x)) * (np.sin(x) / x - np.cos(x))
    use_half = np.abs(j_half) >= np.abs(j_3half)
    scale = np.where(use_half,
                     closed_half / np.where(j_half == 0, 1.0, j_half),
                     closed_3half / np.where(j_3half == 0, 1.0, j_3half))
    return out * scale


def bessel_j(order: float, x) -> np.ndarray | float:
    """J_order(x), vectorized over ``x``.

    Relative accuracy ~1e-12 on the guarded box ``order <= 500``,
    ``x <= 1e4``.  Raises :class:`RangeGuard` outside the box or for
    non-(half-)integer orders beyond the series zone.
    """
    if not (0.0 <= order <= _MAX_ORDER):
        raise RangeGuard(f"order {order} outside [0, {_MAX_ORDER:g}]")
    xa = np.asarray(x, dtype=float)
    scalar = xa.ndim == 0
    xa = np.atleast_1d(xa)
    if np.any(xa < 0) or np.any(xa > _MAX_ARG):
        raise RangeGuard(f"argument outside [0, {_MAX_ARG:g}]")
    out = np.empty_like(xa)
    zone = _series_zone(order, xa)
    if np.any(zone):
        out[zone] = _series_batch(order, xa[zone])
    if np.any(~zone):
        out[~zone] = _miller_batch(order, xa[~zone])
    return float(out[0]) if scalar else out


def bessel_j_prime(order: float, x) -> np.ndarray | float:
    """d/dx J_order(x) via the two-sided recurrence 10.6.1."""
    xa = np.atleast_1d(np.asarray(x, dtype=float))
    scalar = np.asarray(x).ndim == 0
    if order == 0.0:
        out = -np.asarray(bessel_j(1.0, xa))
    elif order == 0.5:
        closed_mhalf = np.sqrt(2.0 / (np.pi * xa)) * np.cos(xa)
        out = 0.5 * (closed_mhalf - np.asarray(bessel_j(1.5, xa)))
    elif order >= 1.0:
        out = 0.5 * (np.asarray(bessel_j(order - 1.0, xa))
                     - np.asarray(bessel_j(order + 1.0, xa)))
    else:
        raise RangeGuard("derivative supported for order 0, 1/2, or >= 1")
    return float(out[0]) if scalar else out


# ---------------------------------------------------------------------------
# Radial modes
# ---------------------------------------------------------------------------

def radial_profile(ell: int, k: float, n: int, r: np.ndarray) -> np.ndarray:
    """R_ell(k r) = (k r)^{1-n/2} J_{ell+n/2-1}(k r), finite at r=0."""
    r = np.asarray(r, dtype=float)
    order = ell + n / 2.0 - 1.0
    kr = k * r
    vals = np.zeros_like(r)
    pos = kr > 0
    vals[pos] = kr[pos] ** (1.0 - n / 2.0) * np.asarray(bessel_j(order, kr[pos]))
    if np.any(~pos):
        if ell == 0:
            # limit of (kr)^{1-n/2} J_{n/2-1}(kr) as r -> 0
            vals[~pos] = 0.5 ** (n / 2.0 - 1.0) / math.gamma(n / 2.0)
        else:
            vals[~pos] = 0.0
    return vals


def radial_profile_derivative(ell: int, k: float, n: int, r: np.ndarray) -> np.ndarray:
    """d/dr of r -> R_ell(k r) (the chain-rule factor k included)."""
    r = np.asarray(r, dtype=float)
    order = ell + n / 2.0 - 1.0
    kr = k * r
    pos = kr > 0
    out = np.zeros_like(r)
    j = np.asarray(bessel_j(order, kr[pos]))
    jp = np.asarray(bessel_j_prime(order, kr[pos]))
    t = kr[pos]
    out[pos] = k * ((1.0 - n / 2.0) * t ** (-n / 2.0) * j
                    + t ** (1.0 - n / 2.0) * jp)
    return out


def gauss_legendre(n_nodes: int, a: float, b: float):
    x, w = np.polynomial.legendre.leggauss(n_nodes)
    return 0.5 * (b - a) * x + 0.5 * (a + b), 0.5 * (b - a) * w


def mode_l2_sq(ell: int, k: float, n: int) -> float:
    """int_0^{1/2} R_ell(k r)^2 r^{n-1} dr, the squared L2 norm of the mode
    on B_{1/2}, by 320-point Gauss-Legendre quadrature."""
    r, w = gauss_legendre(320, 0.0, 0.5)
    vals = radial_profile(ell, k, n, r)
    return float(np.sum(w * vals ** 2 * r ** (n - 1)))


def mode_h1_semi_sq(ell: int, k: float, n: int) -> float:
    """Gradient energy on B_{1/2} of R_ell(k r) * (unit spherical
    harmonic), with the quadrature of :func:`mode_l2_sq`."""
    r, w = gauss_legendre(320, 0.0, 0.5)
    vals = radial_profile(ell, k, n, r)
    dvals = radial_profile_derivative(ell, k, n, r)
    lam = ell * (ell + n - 2)
    integ = dvals ** 2 * r ** (n - 1) + lam * vals ** 2 * r ** (n - 3)
    return float(np.sum(w * integ))


# ---------------------------------------------------------------------------
# Two-sided inequalities for J_alpha(alpha x)
# ---------------------------------------------------------------------------

_ALPHA_GRID = (5.0, 10.0, 20.0, 50.0)
_X_GRID = tuple(0.1 * i for i in range(1, 10))


def check_bessel_inequalities() -> dict:
    """Evaluate the three sharp inequalities for J_alpha(alpha x), x in (0,1):

        1 <= J_a(a x) / (x^a J_a(a)) <= exp(a (1-x)),
        0 <  1/x - J_a'(a x)/J_a(a x) < 1,
        J_a(a x)/J_{a+1}(a x) < (2a+2)/(a x),

    plus monotone growth of x -> J_a(a x), on alpha in ``_ALPHA_GRID`` and
    x in ``_X_GRID``.  Returns the minimum slack per inequality, the
    violation count (expected zero) and both grids.
    """
    slacks = {"ratio_lower": np.inf, "ratio_upper": np.inf,
              "logderiv_lower": np.inf, "logderiv_upper": np.inf,
              "neighbour_ratio": np.inf}
    violations = 0
    monotone = True
    for a in _ALPHA_GRID:
        j_at_a = float(bessel_j(a, a))
        prev = None
        for xv in _X_GRID:
            arg = a * xv
            j = float(bessel_j(a, arg))
            jp = float(bessel_j_prime(a, arg))
            jnext = float(bessel_j(a + 1.0, arg))

            ratio = j / (xv ** a * j_at_a)
            s1 = ratio - 1.0
            s2 = math.exp(a * (1.0 - xv)) - ratio
            v = 1.0 / xv - jp / j
            s3 = v
            s4 = 1.0 - v
            s5 = (2 * a + 2) / (a * xv) - j / jnext
            for key, s in (("ratio_lower", s1), ("ratio_upper", s2),
                           ("logderiv_lower", s3), ("logderiv_upper", s4),
                           ("neighbour_ratio", s5)):
                slacks[key] = min(slacks[key], s)
                if s < 0:
                    violations += 1
            if prev is not None and j <= prev:
                monotone = False
            prev = j
    return {"min_slacks": slacks, "violations": violations,
            "monotone_increasing": monotone,
            "alpha_grid": list(_ALPHA_GRID), "x_grid": list(_X_GRID)}


# ---------------------------------------------------------------------------
# Exact modal boundary-cost minimization
# ---------------------------------------------------------------------------

@dataclass
class OptimalityRecord:
    epsilon: float
    alpha_ell: float                  # 1 / ||g_ell||_{H1(B_1/2)}
    g_l2: float                       # ||g_ell||_{L2(B_1/2)}
    min_boundary_norm: float
    bound_2ell: float


def optimality_lower_bound(k: float, ell: int,
                           n: int = 2) -> OptimalityRecord:
    """Minimal boundary norm over all global modes within
    epsilon = 1 / (2^(n/2 + 4) ell) of the normalized single mode,
    evaluated exactly in the modal decomposition.

    The minimizer lives in the single-mode direction (off-mode components
    only increase both the mismatch and the boundary norm), so the minimum is

        (1 + lambda_ell^(1/2))^(1/2) * max(alpha_ell - eps/||g||_L2, 0) * |R_ell(k)|.

    Also evaluates the closed-form lower bound built from the inequality
    toolkit above; requires ``ell >= 3 max(k^2, n)`` and
    ``ell + n/2 - 1 > k``.
    """
    order = ell + n / 2.0 - 1.0
    if ell < 3.0 * max(k * k, n) or order <= k:
        raise HypothesisViolated(
            f"ell={ell} too small for k={k}, n={n} "
            f"(needs >= 3 * max(k^2, n) and order > k)")
    epsilon = 1.0 / (2.0 ** (n / 2.0 + 4.0) * ell)

    g_l2_sq = mode_l2_sq(ell, k, n)
    g_h1_sq = g_l2_sq + mode_h1_semi_sq(ell, k, n)
    alpha_ell = 1.0 / math.sqrt(g_h1_sq)
    lam = ell * (ell + n - 2)

    r_at_1 = k ** (1.0 - n / 2.0) * float(bessel_j(order, k))
    gamma_min = max(alpha_ell - epsilon / math.sqrt(g_l2_sq), 0.0)
    min_norm = math.sqrt(1.0 + math.sqrt(lam)) * gamma_min * abs(r_at_1)

    ratio = float(bessel_j(order, k)) / float(bessel_j(order, k / 2.0))
    bound = (2.0 * math.sqrt(ell) * ratio
             * (2.0 ** (-n / 2.0) / (1.0 + k + math.sqrt(2.0 * ell / k))
                - epsilon * math.sqrt(2.0 * ell + n)))
    return OptimalityRecord(epsilon=epsilon, alpha_ell=alpha_ell,
                            g_l2=math.sqrt(g_l2_sq),
                            min_boundary_norm=min_norm, bound_2ell=bound)
