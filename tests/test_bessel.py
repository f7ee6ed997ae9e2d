import math

import mpmath as mp
import numpy as np
import pytest

from helmlab.bessel import (bessel_j, bessel_j_prime,
                            check_bessel_inequalities, mode_h1_semi_sq,
                            mode_l2_sq, optimality_lower_bound,
                            radial_profile)
from helmlab.errors import HypothesisViolated, RangeGuard

from helpers import mode_l2_sq_series

mp.mp.dps = 60


def _oracle(order: float, x: float) -> float:
    """Declared oracle: the ascending power series evaluated in extended
    precision (valid for every argument at 60 digits), with mpmath's own
    Bessel as the recurrence-side reference for large arguments."""
    if x == 0.0:
        return 1.0 if order == 0.0 else 0.0
    if x <= max(10.0, order):
        nu, xx = mp.mpf(order), mp.mpf(x)
        total = mp.mpf(1)
        term = mp.mpf(1)
        m = 1
        while True:
            term *= -(xx * xx / 4) / (m * (nu + m))
            total += term
            if abs(term) < mp.mpf(10) ** (-50) * abs(total) and m > x:
                break
            m += 1
        return float((xx / 2) ** nu / mp.gamma(nu + 1) * total)
    return float(mp.besselj(mp.mpf(order), mp.mpf(x)))


def test_half_order_closed_form():
    for x in (1.0, 2.0, 5.0):
        exact = math.sqrt(2.0 / (math.pi * x)) * math.sin(x)
        assert abs(bessel_j(0.5, x) - exact) <= 1e-10 * abs(exact)


def test_first_root_of_j0():
    root = float(mp.besseljzero(0, 1))
    assert abs(root - 2.404825557695773) < 1e-9
    assert abs(bessel_j(0.0, root)) <= 1e-6


@pytest.mark.parametrize("order,x", [
    (0.0, 0.5), (0.0, 12.0), (0.0, 50.0), (1.0, 30.0), (3.0, 10.0),
    (7.0, 9999.0), (20.0, 2.0), (20.0, 19.0), (50.0, 5.0), (50.0, 45.0),
    (50.0, 50.0), (120.0, 100.0), (0.5, 200.0), (1.5, 7.0), (10.5, 30.0),
    (33.5, 40.0), (200.0, 15.0), (500.0, 40.0),
])
def test_against_declared_oracle(order, x):
    ref = _oracle(order, x)
    mine = bessel_j(order, x)
    if ref == 0.0:
        assert mine == 0.0
    else:
        assert abs(mine - ref) <= 1e-10 * abs(ref)


def test_derivative_identity():
    for order, x in [(0.0, 3.0), (1.0, 7.0), (5.0, 4.0), (0.5, 2.0)]:
        h = 1e-6
        fd = (_oracle(order, x + h) - _oracle(order, x - h)) / (2 * h)
        assert abs(bessel_j_prime(order, x) - fd) < 1e-8


def test_asymptotic_ratio_in_log_space():
    # log J_a(z) approaches a log(ez/2a) - log sqrt(2 pi a) as a grows
    z = 2.0
    devs = []
    for a in (25.0, 50.0, 100.0, 160.0):
        lhs = math.log(abs(bessel_j(a, z)))
        rhs = a * math.log(math.e * z / (2 * a)) - 0.5 * math.log(2 * math.pi * a)
        devs.append(abs(lhs - rhs))
    assert devs[-1] < devs[0]
    assert devs[-1] < 0.02


def test_range_guard():
    with pytest.raises(RangeGuard):
        bessel_j(600.0, 1.0)
    with pytest.raises(RangeGuard):
        bessel_j(0.0, 2e4)
    with pytest.raises(RangeGuard):
        bessel_j(10.3, 200.0)   # non-(half-)integer beyond the series zone


def test_inequality_scan_clean():
    rep = check_bessel_inequalities()
    assert rep["violations"] == 0
    assert rep["monotone_increasing"]
    assert min(rep["min_slacks"].values()) > 0


def test_inequality_ratio_tight_near_one():
    a = 20.0
    x = 0.999
    ratio = bessel_j(a, a * x) / (x ** a * bessel_j(a, a))
    assert 1.0 <= ratio < 1.05


def test_mode_l2_series_identity():
    for (ell, k, n) in [(6, 3.0, 2), (12, 2.0, 2), (8, 3.0, 3)]:
        quad = mode_l2_sq(ell, k, n)
        series = mode_l2_sq_series(ell, k, n)
        assert abs(quad - series) <= 1e-8 * quad


def test_radial_profile_reduces_to_j_in_2d():
    r = np.linspace(0.0, 1.0, 50)
    vals = radial_profile(3, 5.0, 2, r)
    ref = np.asarray(bessel_j(3.0, 5.0 * r))
    assert np.max(np.abs(vals - ref)) < 1e-12


def test_optimality_eps_zero_variant():
    # the closed-form minimum at the record's epsilon 1 / (2^5 ell); at
    # epsilon -> 0 it tends to alpha_ell |R_ell(k)| (1 + lambda^(1/2))^(1/2)
    rec = optimality_lower_bound(2.0, 12)
    assert rec.epsilon == 1.0 / (2.0 ** 5 * 12)
    lam = 12 * 12
    expected = (rec.alpha_ell - rec.epsilon / rec.g_l2) \
        * abs(radial_profile(12, 2.0, 2, np.array([1.0]))[0]) \
        * math.sqrt(1 + math.sqrt(lam))
    assert abs(rec.min_boundary_norm - expected) < 1e-12 * expected


def test_optimality_bound_positive_and_growth():
    rec = optimality_lower_bound(2.0, 12)
    assert rec.min_boundary_norm >= rec.bound_2ell > 0
    rec2 = optimality_lower_bound(2.0, 24)
    assert rec2.min_boundary_norm / rec.min_boundary_norm >= 2.0 ** 12


def test_optimality_hypothesis_guard():
    with pytest.raises(HypothesisViolated):
        optimality_lower_bound(2.0, 4)


def test_h1_energy_by_parts():
    # int |grad g|^2 = R R' k / 2^(n-1)-type boundary term + k^2 ||g||^2
    ell, k, n = 6, 3.0, 2
    semi = mode_h1_semi_sq(ell, k, n)
    from helmlab.bessel import radial_profile_derivative
    r_half = np.array([0.5])
    bdry = radial_profile(ell, k, n, r_half)[0] \
        * radial_profile_derivative(ell, k, n, r_half)[0] * 0.5 ** (n - 1)
    ref = bdry + k * k * mode_l2_sq(ell, k, n)
    assert abs(semi - ref) < 1e-10 * max(abs(ref), 1.0)
