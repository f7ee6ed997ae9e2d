"""Cached builders shared across test modules (grids and factorizations are
expensive; acceptance and unit tests reuse the same objects), and the
reference quantities and probes that tests compare the package against."""

import math
from functools import lru_cache

import numpy as np
import scipy.linalg
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from helmlab.assembly import (DiscreteOperator, Medium, assemble,
                              radial_derivative, solve_dirichlet, sparse_lu,
                              stiffness, verified_solve, weak_neumann_trace)
from helmlab.bessel import bessel_j
from helmlab.carleman import _collar_mask, apply_principal
from helmlab.errors import GeometryViolation
from helmlab.fields import (BoundaryFunctional, BoundaryTrace, GridField,
                            functional_norm, masked_gradient, norm)
from helmlab.geometry import (BoundaryChart, DomainSpec, Grid, _ellipj,
                              _pencil_bound, annulus_mask, ball_mask,
                              boundary_chart, build_grid)
from helmlab.profiles import make_medium
from helmlab.runge import build_forward_map, svd
from helmlab.spectral import compute_sigma
from helmlab.ucp import BallTriple, ExponentFit, _triple_xy, boundary_distance


def domain_area(spec: DomainSpec) -> float:
    """Analytic measure of a domain (2D area or 3D volume)."""
    if spec.kind == "disk":
        return np.pi * spec.radius ** 2
    if spec.kind == "annulus":
        return np.pi * (spec.r_outer ** 2 - spec.r_inner ** 2)
    if spec.kind == "masked_union":
        # rectangles may overlap: cut the plane at every rectangle edge and
        # sum, exactly rounded, the cells some rectangle covers
        rects = np.sort(np.asarray(spec.rectangles, dtype=float), axis=1)
        xs, ys = np.unique(rects[..., 0]), np.unique(rects[..., 1])
        covered = np.zeros((xs.size - 1, ys.size - 1), dtype=bool)
        for (x0, y0), (x1, y1) in rects:
            covered[np.searchsorted(xs, x0):np.searchsorted(xs, x1),
                    np.searchsorted(ys, y0):np.searchsorted(ys, y1)] = True
        return math.fsum((np.diff(xs)[:, None] * np.diff(ys))[covered])
    a, b = np.asarray(spec.corners, dtype=float)
    return float(np.prod(np.abs(b - a)))


def pairing(ell: BoundaryFunctional, t: BoundaryTrace) -> float:
    """The pairing of a dual trace functional with a trace."""
    return float(ell.dual_values @ t.values)


@lru_cache(maxsize=None)
def disk_grid(h: float):
    return build_grid(DomainSpec("disk", radius=1.0), h)


@lru_cache(maxsize=None)
def disk_setup(k: float, h: float = None, arc: bool = False):
    """(grid, medium, op, chart) for the unit disk at frequency k; with
    ``arc``, the spec's gamma is the arc 0 < theta < 3 pi / 2."""
    if h is None:
        h = min(2 * np.pi / (10.0 * k) * 0.9, 0.05)
    grid = build_grid(DomainSpec("disk", radius=1.0, gamma={
        "angles": [(0.0, 1.5 * np.pi)]}), h) if arc else disk_grid(h)
    medium = make_medium(grid)
    op = assemble(medium, k)
    chart = boundary_chart(grid)
    return grid, medium, op, chart


@lru_cache(maxsize=None)
def disk_pair_svd(k: float, h: float = None, inner: float = 0.5):
    """Forward map and singular system for the nested disk pair."""
    grid, _, op, _ = disk_setup(k, h)
    omega1 = ball_mask(grid, (0, 0), inner)
    fmap = build_forward_map(op, omega1)
    return fmap, svd(fmap)


@lru_cache(maxsize=None)
def disk_arc_map(k: float, h: float = None, inner: float = 0.5):
    """Forward map of the nested disk pair with gamma the arc
    0 < theta < 3 pi / 2; not invariant under rotation, so it is solved by
    SuperLU."""
    grid, _, op, _ = disk_setup(k, h, arc=True)
    return build_forward_map(op, ball_mask(grid, (0, 0), inner))


@lru_cache(maxsize=None)
def convex_map(k: float = 4.0, h: float = 0.1):
    """Forward map of the convex scenario: annulus 0.5 < |x| < 2 with the
    radially monotone q = 1 + r^2/4, data on the outer circle and the
    region 0.5 < |x| < 1."""
    grid = build_grid(DomainSpec("annulus", r_inner=0.5, r_outer=2.0), h)
    medium = make_medium(grid, q_spec={"profile": "radial_quadratic",
                                       "amplitude": 0.25},
                         kappa=2.02, monotone=True)
    op = assemble(medium, k)
    return build_forward_map(op, annulus_mask(grid, 0.5, 1.0))


@lru_cache(maxsize=None)
def disk_spectrum(h: float = 0.03, count: int = 40):
    grid = disk_grid(h)
    medium = make_medium(grid)
    return grid, medium, compute_sigma(medium, count)


@lru_cache(maxsize=None)
def annulus_setup(h: float):
    """Unit-gap annulus with the radially monotone profile q = 1 + r^2/4."""
    grid = build_grid(DomainSpec("annulus", r_inner=1.0, r_outer=2.0), h)
    medium = make_medium(grid, q_spec={"profile": "radial_quadratic",
                                       "amplitude": 0.25},
                         kappa=2.02, monotone=True)
    return grid, medium


@lru_cache(maxsize=None)
def cube_setup(n: int = 16, k: float = 1.0):
    grid = build_grid(DomainSpec("box", corners=((0, 0, 0), (1, 1, 1)),
                                     gamma={"face": "z-"}), 1.0 / n)
    medium = make_medium(grid, q_spec={"profile": "constant", "value": 1.0},
                         kappa=1.01)
    op = assemble(medium, k)
    chart = boundary_chart(grid)
    return grid, medium, op, chart


def modal(chart: BoundaryChart) -> tuple:
    """Oracle eigenpairs ``(lambdas, E)`` of the boundary Laplace--Beltrami
    operator W^-1 L; the columns of ``E`` are weight-orthonormal.  A uniform
    closed curve takes the cos and sin waves with their eigenvalues
    (2 - 2 cos(2 pi m / n)) / s^2, computed here and not read from
    ``chart.symbol()``; every other chart a dense generalized ``eigh``.
    Each call builds the basis anew: build it once per chart and pass it
    to the ``modal_*`` references."""
    w, n = chart.weights, chart.n
    if chart._circulant():
        t = np.arange(n)
        lam, cols = [0.0], [np.full(n, 1.0 / np.sqrt(w[0] * n))]
        for m in range(1, n // 2 + 1):
            lam_m = (2.0 - 2.0 * np.cos(2.0 * np.pi * m / n)) / w[0] ** 2
            waves = [np.cos(2.0 * np.pi * m * t / n)]
            if 2 * m < n:
                waves.append(np.sin(2.0 * np.pi * m * t / n))
            for v in waves:
                lam.append(lam_m)
                cols.append(v / np.sqrt(np.sum(w * v ** 2)))
        return np.asarray(lam), np.column_stack(cols)
    lam, E = scipy.linalg.eigh(chart._surface_stiffness().toarray(),
                               np.diag(w))
    return np.clip(lam, 0.0, None), E


def modal_h_half_gram(chart: BoundaryChart, ids: np.ndarray,
                      basis: tuple) -> np.ndarray:
    """Oracle H^(1/2) Gram: the dense modal product W E (1 + lambda)^(1/2)
    E^T W on the whole chart, symmetrized, then the ``ids`` block (the path
    ``h_half_gram`` took on every chart before the quadrature).  ``basis``
    is ``modal(chart)``."""
    lam, E = basis
    WE = chart.weights[:, None] * E
    G = WE @ ((1.0 + lam)[:, None] ** 0.5 * WE.T)
    G = 0.5 * (G + G.T)
    return G[np.ix_(ids, ids)]


def sqrt_pencil_block_reference(L, w: np.ndarray,
                                ids: np.ndarray) -> np.ndarray:
    """The rational quadrature of ``geometry._sqrt_pencil_block`` on the
    whole chart: at each shift one factor of B + sigma W on every chart node
    and one solve of all ``ids`` columns of W there, then B[ids] times the
    sum (the path the block took before its Schur complement onto
    ``ids``)."""
    M = _pencil_bound(L, w)
    N = math.ceil((math.log(M) + 3.0) * math.log(1e15) / (2.0 * math.pi ** 2))
    sn, cn, dn, Kp = _ellipj((np.arange(N) + 0.5) / N, 1.0 - 1.0 / M)
    W = sp.diags(w, format="csr")
    B = W + L
    rhs = np.zeros((w.size, ids.size))
    rhs[ids, np.arange(ids.size)] = w[ids]
    S = np.zeros_like(rhs)
    for sigma, a in zip((sn / cn) ** 2, dn / cn ** 2):
        A = (B + sigma * W).tocsc()
        S += a * verified_solve(A, sparse_lu(A), rhs)
    G = (2.0 * Kp / (math.pi * N)) * (B[ids] @ S)
    return 0.5 * (G + G.T)


# Modal references for the trace norms of ``helmlab.fields``: sums over the
# weight-orthonormal eigenbasis ``basis = modal(chart)`` = (lambda, E), with
# trace coefficients c = E^T W v and functional coefficients d = E^T f.

def modal_trace_norm(t: BoundaryTrace, order: float, basis: tuple) -> float:
    """sqrt(sum (1 + lambda_m)^order c_m^2)."""
    lam, E = basis
    c = E.T @ (t.chart.weights * t.values)
    return float(np.sqrt(np.sum((1.0 + lam) ** order * c ** 2)))


def modal_functional_norm(ell: BoundaryFunctional, basis: tuple) -> float:
    """sqrt(sum (1 + lambda_m)^(-1/2) d_m^2), the dual norm on the whole
    boundary."""
    lam, E = basis
    d = E.T @ ell.dual_values
    return float(np.sqrt(np.sum((1.0 + lam) ** -0.5 * d ** 2)))


def modal_riesz_map(ell: BoundaryFunctional, basis: tuple) -> np.ndarray:
    """Nodal values E (1 + lambda)^(-1/2) d of the whole-boundary Riesz
    representative."""
    lam, E = basis
    return E @ ((1.0 + lam) ** -0.5 * (E.T @ ell.dual_values))


def dtn_matrix_reference(op: DiscreteOperator, chart: BoundaryChart):
    """DtN matrix from the residual of every boundary row (boundary x
    interior and boundary x boundary slices), taken at the gamma rows
    afterwards."""
    grid = op.grid
    bpos = np.searchsorted(grid.boundary_index, chart.gamma_ids())
    u_int = verified_solve(op.L_II, op.lu(), -op.L_IB[:, bpos].toarray())
    L_BI = op.L[grid.boundary_index][:, grid.interior_index].tocsr()
    L_BB = op.L[grid.boundary_index][:, grid.boundary_index].tocsr()
    resid = -(L_BI @ u_int + L_BB[:, bpos].toarray())
    return resid[bpos, :]


def fit_line(x, y):
    coef = np.polyfit(x, y, 1)
    pred = np.polyval(coef, x)
    ss_res = float(np.sum((np.asarray(y) - pred) ** 2))
    ss_tot = float(np.sum((np.asarray(y) - np.mean(y)) ** 2))
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
    return coef[0], coef[1], r2


# ---------------------------------------------------------------------------
# Reference quantities
# ---------------------------------------------------------------------------

def mode_l2_sq_series(ell: int, k: float, n: int) -> float:
    """Same quantity as :func:`helmlab.bessel.mode_l2_sq` via the partial-turning sum
    2 k^{-n} sum_m (ell + n/2 + 2m) J_{ell+n/2+2m}(k/2)^2  (10.22.27),
    summed until a term falls below 1e-16 of the total."""
    total = 0.0
    m = 0
    while m < 400:
        order = ell + n / 2.0 + 2 * m
        term = order * float(bessel_j(order, k / 2.0)) ** 2
        total += term
        if m > 2 and term < 1e-16 * max(total, 1e-300):
            break
        m += 1
    return 2.0 * k ** (-n) * total


def curvature_statistic(records: list) -> dict:
    """Quadratic coefficient of log cost in log(1/eps) per seed; positive
    curvature separates the exponential-cost regime from the polynomial one."""
    out = {}
    seeds = sorted({r["seed"] for r in records})
    for sd in seeds:
        sub = [r for r in records if r["seed"] == sd and r["cost"] > 0]
        if len(sub) < 4:
            continue
        L = np.log(1.0 / np.array([r["epsilon"] for r in sub]))
        y = np.log([r["cost"] for r in sub])
        coef = np.polyfit(L, y, 2)
        out[sd] = float(coef[0])
    return out


# ---------------------------------------------------------------------------
# Three-balls and companion sanity probes
# ---------------------------------------------------------------------------

def margin(fit: ExponentFit, t: BallTriple) -> float:
    """Envelope slack of the fitted inequality on one triple (>= 0 on the
    calibration family by construction)."""
    x, y = _triple_xy(t)
    return fit.log_c(t.k) + fit.alpha_hat * x - y


def caccioppoli_ratio(u: GridField, epsilon: float, k: float) -> float:
    """||grad u||_{L2(Omega_eps)} / (k eps^-1 ||u||_{L2(Omega_eps/2)});
    bounded by one constant across a solution family."""
    grid = u.grid
    depth = boundary_distance(grid, grid.nodes)
    num = norm(u, "H1_semi", depth >= epsilon)
    den = k / epsilon * norm(u, "L2", depth >= epsilon / 2.0)
    if den == 0:
        return 0.0
    return num / den


def inradius_reference(grid: Grid) -> float:
    """The inradius of a chain domain, shape by shape, as
    ``helmlab.ucp.chain_propagate`` read it before ``DomainSpec.width``."""
    spec = grid.spec
    if spec.kind == "disk":
        return spec.radius
    if spec.kind == "annulus":
        return 0.5 * (spec.r_outer - spec.r_inner)
    if spec.kind == "rectangle":
        lo = np.asarray(spec.corners[0], float)
        hi = np.asarray(spec.corners[1], float)
        return 0.5 * float(np.min(np.abs(hi - lo)))
    raise GeometryViolation("chain supports disk, annulus, rectangle domains")


def level_curve_reference(grid: Grid, delta: float) -> np.ndarray:
    """Points of the inward level set {depth = delta} spaced <= delta/9, as
    ``helmlab.ucp`` built them before ``DomainSpec.level_set``."""
    spec = grid.spec
    step = delta / 9.0
    if spec.kind == "disk":
        r = spec.radius - delta
        if r <= 0:
            return np.asarray(spec.center, float)[None, :]
        n = max(int(np.ceil(2 * np.pi * r / step)), 6)
        th = np.arange(n) * 2 * np.pi / n
        c = np.asarray(spec.center, float)
        return np.column_stack([c[0] + r * np.cos(th), c[1] + r * np.sin(th)])
    if spec.kind == "annulus":
        pts = []
        c = np.asarray(spec.center, float)
        for r in (spec.r_inner + delta, spec.r_outer - delta):
            if spec.r_inner < r < spec.r_outer:
                n = max(int(np.ceil(2 * np.pi * r / step)), 6)
                th = np.arange(n) * 2 * np.pi / n
                pts.append(np.column_stack([c[0] + r * np.cos(th),
                                            c[1] + r * np.sin(th)]))
        return np.vstack(pts)
    if spec.kind == "rectangle":
        lo = np.asarray(spec.corners[0], float)
        hi = np.asarray(spec.corners[1], float)
        lo, hi = np.minimum(lo, hi) + delta, np.maximum(lo, hi) - delta
        if np.any(hi - lo <= 0):
            mid = 0.5 * (lo + hi)
            return mid[None, :]
        xs = np.arange(lo[0], hi[0] + step / 2, step)
        ys = np.arange(lo[1], hi[1] + step / 2, step)
        top = np.column_stack([xs, np.full(xs.size, hi[1])])
        bot = np.column_stack([xs, np.full(xs.size, lo[1])])
        lef = np.column_stack([np.full(ys.size, lo[0]), ys])
        rig = np.column_stack([np.full(ys.size, hi[0]), ys])
        return np.vstack([bot, rig, top, lef])
    raise GeometryViolation("chain supports disk, annulus, rectangle domains")


def source_neumann_ratio(op: DiscreteOperator, chart: BoundaryChart,
                         v: GridField, omega1_mask: np.ndarray) -> float:
    """eta / (k^(n+2) ||v||) for the source problem driven by a region-
    supported v: solve with source v 1_Omega1, measure the sub-boundary
    Neumann norm."""
    grid = op.grid
    src = np.where(omega1_mask, v.values, 0.0)
    f = GridField(grid, src)
    wsol = solve_dirichlet(op, f=f)
    ell = weak_neumann_trace(op, wsol, f=f)
    eta = functional_norm(ell, gamma=chart.gamma_mask)
    v_l2 = norm(GridField(grid, src), "L2", omega1_mask)
    n = grid.dim
    return eta / (op.k ** (n + 2) * v_l2)


# ---------------------------------------------------------------------------
# Weighted-inequality probes on the annulus
# ---------------------------------------------------------------------------

def _polar_divergence(grid: Grid, fx: np.ndarray, fy: np.ndarray) -> np.ndarray:
    """div F for cartesian components sampled on the polar lattice."""
    n_r, n_t = grid.lattice_shape
    th = np.tile(grid.thetas, n_r)
    fr = fx * np.cos(th) + fy * np.sin(th)
    ft = -fx * np.sin(th) + fy * np.cos(th)
    r = np.repeat(grid.radii, n_t)
    full = np.ones(grid.n_nodes, dtype=bool)
    d_r = masked_gradient(grid, r * fr, full)[0]       # d/dr (r F_r)
    d_t = masked_gradient(grid, ft, full)[1]           # (1/r) dF_theta/dtheta
    return d_r / r + d_t


def divergence_splitting(grid: Grid, medium: Medium, k: float,
                         u: GridField) -> tuple:
    """Split (Delta + k^2 q) u = f + div F with a gradient-potential F.

    Solves a Poisson problem for a potential p (residual checked by
    :func:`verified_solve`), takes F = chi grad p with a collar cutoff chi
    (keeps supp F inside the annulus), and folds the exact discrete
    remainder into f, so f + div_h F matches the residual by construction.
    """
    rho = apply_principal(medium, k, u.values)
    K = stiffness(grid)
    I = grid.interior_index
    rhs = (grid.quad_weights * rho)[I]
    p = np.zeros(grid.n_nodes)
    K_II = K[I][:, I].tocsc()
    p[I] = verified_solve(K_II, spla.splu(K_II), rhs)
    grads = masked_gradient(grid, p, np.ones(grid.n_nodes, bool))
    n_r, n_t = grid.lattice_shape
    th = np.tile(grid.thetas, n_r)
    chi = _collar_mask(grid).astype(float)
    fx = chi * (grads[0] * np.cos(th) - grads[1] * np.sin(th))
    fy = chi * (grads[0] * np.sin(th) + grads[1] * np.cos(th))
    fv = rho - _polar_divergence(grid, fx, fy)
    return (GridField(grid, fv),
            (GridField(grid, fx), GridField(grid, fy)))


def commutator_min(medium: Medium, tau: float, k: float) -> float:
    """Minimum over nodes of 2 (1+tau) k^2 r^2 (2 q + r dq/dr), the
    conjugated-operator commutator density; nonnegative for monotone q."""
    grid = medium.grid
    n_r, n_t = grid.lattice_shape
    q = medium.q.values.reshape(n_r, n_t)
    rd = radial_derivative(medium.q).reshape(n_r - 1, n_t)
    r = grid.radii[:-1][:, None]
    quantity = 2.0 * (1.0 + tau) * k * k * r ** 2 * (2.0 * q[:-1] + r * rd)
    return float(quantity.min())


def _radial_bump_reference(grid: Grid, mid: float, halfwidth: float) -> np.ndarray:
    n_r, n_t = grid.lattice_shape
    r = np.repeat(grid.radii, n_t)
    s = np.zeros(grid.n_nodes)
    t = (r - mid) / halfwidth
    inside = np.abs(t) < 1.0
    s[inside] = np.exp(1.0 - 1.0 / (1.0 - t[inside] ** 2))
    return s


def random_compact_sample_reference(grid: Grid,
                                    rng: np.random.Generator) -> GridField:
    """``carleman.random_compact_sample`` evaluated node by node, with the
    same draws from ``rng`` in the same order."""
    r_in, r_out = grid.radii[0], grid.radii[-1]
    pad = 3 * grid.dr
    a = r_in + pad + rng.uniform(0.0, 0.25 * (r_out - r_in - 2 * pad))
    b = r_out - pad - rng.uniform(0.0, 0.25 * (r_out - r_in - 2 * pad))
    n_r, n_t = grid.lattice_shape
    r = np.repeat(grid.radii, n_t)
    th = np.tile(grid.thetas, n_r)
    s = _radial_bump_reference(grid, 0.5 * (a + b), 0.5 * (b - a))
    m = int(rng.integers(0, 9))
    c1, c2 = rng.standard_normal(2)
    omega = rng.uniform(0.0, 12.0)
    phase = rng.uniform(0.0, 2 * np.pi)
    vals = s * (c1 * np.cos(m * th) + c2 * np.sin(m * th)) \
        * (1.0 + 0.5 * np.sin(omega * r + phase))
    return GridField(grid, vals)


def adapted_compact_sample_reference(grid: Grid, medium: Medium,
                                     rng: np.random.Generator, tau: float,
                                     k: float) -> GridField:
    """``carleman.adapted_compact_sample`` evaluated node by node, with the
    same draws from ``rng`` in the same order."""
    r_in, r_out = grid.radii[0], grid.radii[-1]
    pad = 3 * grid.dr
    a, b = r_in + pad, r_out - pad
    mid = rng.uniform(a + 0.25 * (b - a), b - 0.25 * (b - a))
    halfwidth = min(mid - a, b - mid) * rng.uniform(0.5, 1.0)
    n_r, n_t = grid.lattice_shape
    r = np.repeat(grid.radii, n_t)
    th = np.tile(grid.thetas, n_r)
    s = _radial_bump_reference(grid, mid, halfwidth)

    ring = np.argmin(np.abs(grid.radii - mid))
    q_mid = float(medium.q.values[grid.lattice_id[ring, 0]])
    m_star = math.sqrt(tau * tau + k * k * q_mid * mid * mid)
    m = min(int(round(m_star * rng.uniform(0.85, 1.05))), n_t // 3)
    omega = math.sqrt(max(tau * tau + k * k * q_mid * mid * mid - m * m, 0.0))
    amp = np.exp(-tau * (np.log(r) - math.log(mid)))
    vals = amp * s * np.cos(omega * np.log(r) + rng.uniform(0, 2 * np.pi)) \
        * np.cos(m * th + rng.uniform(0, 2 * np.pi))
    return GridField(grid, vals)
