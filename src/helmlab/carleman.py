"""Weighted-inequality verification on the annulus 1 < |x| < 2.

For compactly supported u with a zero collar and a radially monotone profile
q, the inequality under test bounds

    tau ||e^phi u|| + ||e^phi |x| grad u|| + tau^(1/2) k ||q^(1/2) |x| e^phi u||

by the weighted data norms ||e^phi |x|^2 f|| + max(tau, k) sum_j ||e^phi |x| F^j||
with phi = tau log|x|, i.e. weight |x|^tau, and a constant depending only on
the dimension and the pinch kappa.  The module evaluates both sides with
quadrature; f defaults to the full discrete residual (Delta + k^2 q) u, and a
caller's divergence-mode splitting routes part of the data through the F^j
weights (``divergence_splitting`` in ``tests/helpers.py`` builds one).

Both sample families are ring x angle products: each factor depends on the
radius alone or on the angle alone, so it is evaluated on ``grid.radii`` or
``grid.thetas`` and the field is their outer product, raveled ring-major
like the nodes of a polar grid.  The node-wise formulas they reproduce bit
for bit are the references in ``tests/helpers.py``.

The improved-continuation probe manufactures high-degree solutions on the
annulus with small outer Cauchy data and records the quantities entering the
logarithmic and polynomial (in k^3 eta / M) envelopes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .assembly import (DiscreteOperator, Medium, solve_dirichlet, stiffness,
                       weak_neumann_trace)
from .errors import GeometryViolation, HypothesisViolated, SupportViolation
from .fields import GridField, functional_norm, masked_gradient, norm
from .geometry import Grid, annulus_mask, node_radius

# smallest weight exponent tau of the Carleman estimate
TAU0 = 10.0
# exponents of the logarithmic and polynomial continuation envelopes
MU_HAT = NU_HAT = 0.5
# the domain kind of the samples and the probe, on its polar grid
DOMAIN_KIND = "annulus"


# ---------------------------------------------------------------------------
# Samples
# ---------------------------------------------------------------------------

@dataclass
class CarlemanSample:
    lhs_terms: tuple          # (tau term, gradient term, large-k term)
    rhs_terms: tuple          # (f term, F term incl. max(tau,k))
    ratio: float


def _weighted_l2(grid: Grid, values: np.ndarray) -> float:
    return float(np.sqrt(np.sum(grid.quad_weights * values ** 2)))


def _collar_mask(grid: Grid) -> np.ndarray:
    """Nodes at least 2 rings away from both circles."""
    n_r, n_t = grid.lattice_shape
    ring = np.repeat(np.arange(n_r), n_t)
    return (ring >= 2) & (ring <= n_r - 3)


def check_support(u: GridField) -> None:
    """Raise :class:`SupportViolation` unless ``u`` vanishes on the 2-ring
    collar of the annulus."""
    inside = _collar_mask(u.grid)
    mx = float(np.max(np.abs(u.values), initial=0.0))
    if mx == 0.0:
        return
    if np.max(np.abs(u.values[~inside]), initial=0.0) > 1e-14 * mx:
        raise SupportViolation(
            "sample not zero on a 2-layer collar of the annulus")


def apply_principal(medium: Medium, k: float,
                    values: np.ndarray) -> np.ndarray:
    """(Delta + k^2 q) u on the medium's grid by direct differencing."""
    K = stiffness(medium.grid)
    w = medium.grid.quad_weights
    return (-(K @ values) + w * (k * k * medium.q.values) * values) / w


def _require_annulus(grid: Grid) -> None:
    if grid.spec.kind != DOMAIN_KIND:
        raise GeometryViolation(f"requires an {DOMAIN_KIND} domain, not "
                                f"{grid.spec.kind}")


def tau_rule(tau: float) -> None:
    """Raise :class:`HypothesisViolated` unless tau >= :data:`TAU0`, the
    smallest weight exponent of the estimate."""
    if tau < TAU0:
        raise HypothesisViolated(f"tau={tau:g} below tau0={TAU0:g}")


def carleman_check(u: GridField, medium: Medium, k: float, tau: float,
                   f: Optional[GridField] = None,
                   F: Optional[tuple] = None) -> CarlemanSample:
    """Evaluate both sides of the weighted inequality for one sample.

    Default mode computes f = (Delta + k^2 q) u by direct differencing with
    F = 0; passing f, or (f, F), uses the caller's splitting (the identity
    f + div F = (Delta + k^2 q) u is the caller's responsibility), and F
    without f is :class:`HypothesisViolated`.  Requires an annulus, the
    monotone flag and the :func:`tau_rule`.
    """
    grid = u.grid
    _require_annulus(grid)
    if not medium.monotone_flag:
        raise HypothesisViolated("radially monotone profile required")
    tau_rule(tau)
    if f is None and F is not None:
        raise HypothesisViolated("a divergence splitting needs f with F")
    check_support(u)

    r = node_radius(grid)
    ephi = np.exp(tau * np.log(r))
    q = medium.q.values

    grads = masked_gradient(grid, u.values, np.ones(grid.n_nodes, bool))
    grad_mag = np.sqrt(sum(np.abs(g) ** 2 for g in grads))

    lhs1 = tau * _weighted_l2(grid, ephi * u.values)
    lhs2 = _weighted_l2(grid, ephi * r * grad_mag)
    lhs3 = math.sqrt(tau) * k * _weighted_l2(grid, np.sqrt(q) * r * ephi * u.values)

    fv = apply_principal(medium, k, u.values) if f is None else f.values
    rhs1 = _weighted_l2(grid, ephi * r ** 2 * fv)
    rhs2 = 0.0
    if F is not None:
        Fx, Fy = (c.values for c in F)
        rhs2 = max(tau, k) * (_weighted_l2(grid, ephi * r * Fx)
                              + _weighted_l2(grid, ephi * r * Fy))
    lhs = lhs1 + lhs2 + lhs3
    rhs = rhs1 + rhs2
    ratio = lhs / rhs if rhs > 0 else 0.0
    return CarlemanSample(lhs_terms=(lhs1, lhs2, lhs3), rhs_terms=(rhs1, rhs2),
                          ratio=ratio)


def _radial_bump(radii: np.ndarray, mid: float, halfwidth: float) -> np.ndarray:
    """exp(1 - 1/(1 - t^2)) with t = (r - mid) / halfwidth on |t| < 1, and 0
    elsewhere, at each ring radius."""
    s = np.zeros(radii.size)
    t = (radii - mid) / halfwidth
    inside = np.abs(t) < 1.0
    s[inside] = np.exp(1.0 - 1.0 / (1.0 - t[inside] ** 2))
    return s


def random_compact_sample(grid: Grid, rng: np.random.Generator) -> GridField:
    """Smooth random field with exact compact support inside the annulus,
    three rings clear of either circle: s(r) (c1 cos m theta + c2 sin m
    theta) (1 + sin(omega r + phase) / 2), s a bump in r."""
    _require_annulus(grid)
    r = grid.radii
    r_in, r_out = r[0], r[-1]
    pad = 3 * grid.dr
    a = r_in + pad + rng.uniform(0.0, 0.25 * (r_out - r_in - 2 * pad))
    b = r_out - pad - rng.uniform(0.0, 0.25 * (r_out - r_in - 2 * pad))
    th = grid.thetas
    s = _radial_bump(r, 0.5 * (a + b), 0.5 * (b - a))
    m = int(rng.integers(0, 9))
    c1, c2 = rng.standard_normal(2)
    omega = rng.uniform(0.0, 12.0)
    phase = rng.uniform(0.0, 2 * np.pi)
    ang = c1 * np.cos(m * th) + c2 * np.sin(m * th)
    rad = 1.0 + 0.5 * np.sin(omega * r + phase)
    return GridField(grid, (s[:, None] * ang * rad[:, None]).ravel())


def adapted_compact_sample(medium: Medium, rng: np.random.Generator,
                           tau: float, k: float) -> GridField:
    """Compactly supported sample concentrated where the weighted inequality
    is tight, on the medium's grid.

    The conjugated symbol vanishes at angular order m ~ sqrt(tau^2 + (kr)^2 q)
    with small radial frequency, and the weight turns a flat profile into
    r^-tau; generic bumps drift away from the sharp constant as tau or k
    double, so the uniformity scan draws most samples from this family.
    The support stays three rings clear of either circle.
    """
    grid = medium.grid
    _require_annulus(grid)
    r = grid.radii
    r_in, r_out = r[0], r[-1]
    pad = 3 * grid.dr
    a, b = r_in + pad, r_out - pad
    mid = rng.uniform(a + 0.25 * (b - a), b - 0.25 * (b - a))
    halfwidth = min(mid - a, b - mid) * rng.uniform(0.5, 1.0)
    s = _radial_bump(r, mid, halfwidth)

    ring = np.argmin(np.abs(r - mid))
    q_mid = float(medium.q.values[grid.lattice_id[ring, 0]])
    m_star = math.sqrt(tau * tau + k * k * q_mid * mid * mid)
    m = min(int(round(m_star * rng.uniform(0.85, 1.05))), grid.thetas.size // 3)
    omega = math.sqrt(max(tau * tau + k * k * q_mid * mid * mid - m * m, 0.0))
    amp = np.exp(-tau * (np.log(r) - math.log(mid)))
    rad = amp * s * np.cos(omega * np.log(r) + rng.uniform(0, 2 * np.pi))
    ang = np.cos(m * grid.thetas + rng.uniform(0, 2 * np.pi))
    return GridField(grid, (rad[:, None] * ang).ravel())


# ---------------------------------------------------------------------------
# Improved-continuation probe on the annulus
# ---------------------------------------------------------------------------

@dataclass
class ImprovedProbe:
    u: GridField               # the manufactured solution
    eta: float
    M: float
    lhs_full: float            # ||u|| on the whole annulus
    rhs_log: float
    rhs_poly: float

    def lhs(self, delta: float) -> float:
        """||u|| on the outer sub-annulus r >= r_inner + delta."""
        grid = self.u.grid
        outer = annulus_mask(grid, grid.radii[0] + delta, grid.radii[-1])
        return norm(self.u, "L2", outer)


def improved_ucp_probe(op: DiscreteOperator, ell: int) -> ImprovedProbe:
    """Manufacture a high-degree solution with small outer Cauchy data and
    record the envelope quantities |log x|^(-MU_HAT) M and
    (k^3 eta)^NU_HAT M^(1-NU_HAT), x = k^3 eta / M; the norm on each outer
    sub-annulus is read from the one solve (:meth:`ImprovedProbe.lhs`).

    The solve carries data cos(ell theta) on the inner circle and zero on the
    outer circle, so eta is the outer weak-Neumann norm alone.  Runs on an
    annulus with the monotone flag; :class:`HypothesisViolated` unless
    0 < k^3 eta <= M, k = ``op.k``.  The frequency is guarded when ``op`` is
    assembled (:func:`~helmlab.assembly.assemble`).
    """
    grid, k = op.grid, op.k
    _require_annulus(grid)
    if not op.medium.monotone_flag:
        raise HypothesisViolated("radially monotone profile required")

    gb = np.zeros(grid.boundary_index.size)
    inner_ids = grid.lattice_id[0]
    pos = np.searchsorted(grid.boundary_index, inner_ids)
    gb[pos] = np.cos(ell * grid.thetas)
    u = solve_dirichlet(op, g=gb)

    ell_fun = weak_neumann_trace(op, u)
    eta = functional_norm(ell_fun)           # outer trace itself is zero
    M = norm(u, "H1")
    if not (0.0 < k ** 3 * eta <= M):
        raise HypothesisViolated(
            f"needs 0 < k^3 eta <= M (k^3 eta = {k ** 3 * eta:.3g}, M = {M:.3g})")

    x = k ** 3 * eta / M
    rhs_log = abs(math.log(x)) ** (-MU_HAT) * M
    rhs_poly = (k ** 3 * eta) ** NU_HAT * M ** (1 - NU_HAT)
    return ImprovedProbe(u=u, eta=eta, M=M, lhs_full=norm(u, "L2"),
                         rhs_log=rhs_log, rhs_poly=rhs_poly)
