"""Empirical quantitative-continuation probes.

Three-balls data is collected as quadrature norms over concentric ball masks
on solution fields; an interpolation exponent alpha and per-frequency
envelope constants are fitted one-sidedly, so the fitted inequality

    ||u||_{B_r} <= C(k) ||u||_{B_2r}^(1-alpha) ||u||_{B_r/2}^alpha

holds with nonnegative margin on the calibration family by construction and
is tested on held-out solutions.  Chain propagation iterates the fitted
inequality over balls whose radius grows with the distance to the boundary
(depth/4), which makes the chain length grow like log(1/epsilon), and
combines the result with an exact Hoelder bound on the boundary layer.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .assembly import DiscreteOperator
from .errors import ChainBlocked, DegenerateSamples, GeometryViolation
from .fields import GridField, norm
from .geometry import BoundaryChart, Grid, ball_mask


# ---------------------------------------------------------------------------
# Geometry helpers
# ---------------------------------------------------------------------------

def boundary_distance(grid: Grid, points: np.ndarray) -> np.ndarray:
    """Analytic distance to the domain boundary (catalog shapes only)."""
    spec = grid.spec
    pts = np.atleast_2d(points)
    if spec.kind == "disk":
        r = np.linalg.norm(pts - np.asarray(spec.center), axis=1)
        return spec.radius - r
    if spec.kind == "annulus":
        r = np.linalg.norm(pts - np.asarray(spec.center), axis=1)
        return np.minimum(spec.r_outer - r, r - spec.r_inner)
    if spec.kind in ("rectangle", "box"):
        lo = np.asarray(spec.corners[0], float)
        hi = np.asarray(spec.corners[1], float)
        lo, hi = np.minimum(lo, hi), np.maximum(lo, hi)
        d = np.minimum(pts - lo, hi - pts)
        return np.min(d, axis=1)
    # masked union: distance to the discrete boundary node set
    from scipy.spatial import cKDTree
    dist, _ = cKDTree(grid.nodes[grid.boundary_index]).query(pts)
    return dist


# ---------------------------------------------------------------------------
# Ball triples
# ---------------------------------------------------------------------------

@dataclass
class BallTriple:
    center: tuple
    r: float
    k: float
    norm_half: float
    norm_mid: float
    norm_big: float
    eta: float = 0.0
    boundary: bool = False

    def degenerate(self) -> bool:
        return min(self.norm_half, self.norm_mid, self.norm_big) <= 0.0


def _triple_norms(u: GridField, x0: np.ndarray, r: float) -> list:
    """L2 norms of u over B_{r/2}, B_r and B_{2r} centered at x0."""
    return [norm(u, "L2", m)
            for m in ball_mask(u.grid, x0, (r / 2.0, r, 2.0 * r))]


def three_ball_ratio(u: GridField, x0, r: float, k: float) -> BallTriple:
    """Quadrature norms of a solution over B_{r/2}, B_r, B_{2r} centered at
    x0; requires B_{4r}(x0) inside the domain and r/2 >= 8 grid layers."""
    grid = u.grid
    x0 = np.asarray(x0, float)
    depth = float(boundary_distance(grid, x0[None, :])[0])
    if depth <= 4.0 * r:
        raise GeometryViolation(f"B_4r at {tuple(x0)} exits the domain "
                                f"(depth {depth:g}, needs > {4 * r:g})")
    layer = grid.dr if grid.topology == "polar" else grid.max_spacing()
    if r / 2.0 < 8.0 * layer - 1e-12:
        raise GeometryViolation(f"smallest ball radius {r / 2:g} below 8 layers")
    nh, nm, nb = _triple_norms(u, x0, r)
    if not (nh <= nm + 1e-14 and nm <= nb + 1e-14):
        raise GeometryViolation("nested ball norms are not monotone")
    return BallTriple(center=tuple(x0), r=r, k=k, norm_half=nh, norm_mid=nm,
                      norm_big=nb)


def boundary_three_ball(u: GridField, x0, r: float, k: float,
                        eta: float) -> BallTriple:
    """Boundary-bulk variant: norms over B+ = B cap Omega for x0 on the data
    sub-boundary, with the Cauchy-data size eta attached."""
    x0 = np.asarray(x0, float)
    nh, nm, nb = _triple_norms(u, x0, r)
    return BallTriple(center=tuple(x0), r=r, k=k, norm_half=nh, norm_mid=nm,
                      norm_big=nb, eta=eta, boundary=True)


# ---------------------------------------------------------------------------
# Exponent fits
# ---------------------------------------------------------------------------

@dataclass
class ExponentFit:
    alpha_hat: float
    intercepts: dict                  # k -> log C(k), one-sided envelope
    boundary: bool
    n_samples: int

    def log_c(self, k: float) -> float:
        ks = np.array(sorted(self.intercepts))
        near = ks[np.argmin(np.abs(ks - k))]
        return self.intercepts[float(near)]

    def margin(self, t: BallTriple) -> float:
        """Envelope slack of the fitted inequality on one triple (>= 0 on the
        calibration family by construction)."""
        x, y = _triple_xy(t, self.boundary)
        return self.log_c(t.k) + self.alpha_hat * x - y


def _triple_xy(t: BallTriple, boundary: bool):
    if boundary:
        base = math.log(t.norm_big + t.eta)
        x = math.log(t.eta) - base
        y = math.log(t.norm_mid) - base
    else:
        x = math.log(t.norm_half) - math.log(t.norm_big)
        y = math.log(t.norm_mid) - math.log(t.norm_big)
    return x, y


def estimate_exponent(samples: list, boundary: bool = False) -> ExponentFit:
    """Least-squares interpolation exponent, clamped to (0,1), with one-sided
    per-frequency intercepts chosen so every calibration sample has
    nonnegative margin."""
    good = [t for t in samples if not t.degenerate()
            and (not boundary or t.eta > 0)]
    if len(good) < 10:
        raise DegenerateSamples(f"{len(good)} usable samples; need >= 10")
    xy = np.array([_triple_xy(t, boundary) for t in good])
    x, y = xy[:, 0], xy[:, 1]
    if float(np.var(x)) < 1e-12:
        raise DegenerateSamples("interpolation abscissa has no spread")
    slope, intercept = np.polyfit(x, y, 1)
    alpha = float(np.clip(slope, 0.01, 0.99))
    intercepts = {}
    for t, (xv, yv) in zip(good, xy):
        need = yv - alpha * xv
        kk = float(t.k)
        intercepts[kk] = max(intercepts.get(kk, -np.inf), need)
    return ExponentFit(alpha_hat=alpha, intercepts=intercepts,
                       boundary=boundary, n_samples=len(good))


# ---------------------------------------------------------------------------
# Chain propagation
# ---------------------------------------------------------------------------

@dataclass
class ChainResult:
    bound: float
    n_balls: int                      # chain depth (rounds of the iteration)
    n_cover: int
    bound_interior: float
    bound_layer: float
    bound_log: float                  # closed-form logarithmic bound, C=1
    covered: bool


def _inradius(grid: Grid) -> float:
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


def _level_curve(grid: Grid, delta: float) -> np.ndarray:
    """Points of the inward level set {depth = delta} spaced <= delta/9."""
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


def chain_propagate(op: DiscreteOperator, chart: BoundaryChart, u: GridField,
                    eta: float, M: float, epsilon: float, fit: ExponentFit,
                    boundary_fit: Optional[ExponentFit] = None,
                    mu_hat: float = 0.5,
                    sobolev_constant: float = 1.0,
                    level_ratio: float = 0.91) -> ChainResult:
    """Propagate boundary smallness into the deep set with the fitted
    three-balls inequality.

    Chain balls are geometric (not grid-bound): centers sit on inward level
    sets of the boundary distance with radius depth/4, levels shrinking by a
    fixed ratio from the inradius down to ``epsilon``, so the chain depth
    grows like log(1/epsilon).  A ball is certified once its half-ball lies
    inside an already certified ball, which iterates

        m_next = C(k) M^(1-alpha) m^alpha

    starting from the boundary-bulk envelope at a start ball on the data
    sub-boundary; a KD-tree over the centers yields each ball's edges.  The
    deep nodes are then covered greedily by certified balls in order of
    value.  A KD-tree over the grid nodes proposes each ball's candidate
    nodes and the exact distance test |x - c| <= r decides membership, so
    the cover is the one a scan of every node gives.  The boundary layer
    W_eps is bounded by the exact Hoelder step
    ||u||_{L2(W)} <= |W|^(1/4) ||u||_{L4} <= |W|^(1/4) C_S M (plane
    exponents).  Also evaluates the closed-form logarithmic bound
    k |log(eta/(M+eta))|^(-mu_hat) (M+eta) with unit constant.
    """
    grid = op.grid
    k = op.k
    depth = boundary_distance(grid, grid.nodes)
    in_region = u.region & (depth > 0)
    omega_eps = in_region & (depth >= epsilon)

    w = grid.quad_weights
    layer_mask = in_region & ~omega_eps
    layer_measure = float(np.sum(w[layer_mask]))
    bound_layer = sobolev_constant * layer_measure ** 0.25 * M

    ratio = eta / (M + eta) if (M + eta) > 0 else 0.0
    bound_log = (k * abs(math.log(ratio)) ** (-mu_hat) * (M + eta)
                 if 0.0 < ratio < 1.0 else 0.0)

    if eta == 0.0:
        return ChainResult(bound=0.0, n_balls=0, n_cover=0,
                           bound_interior=0.0, bound_layer=0.0,
                           bound_log=0.0, covered=True)
    if not np.any(omega_eps):
        return ChainResult(bound=bound_layer, n_balls=0, n_cover=0,
                           bound_interior=0.0, bound_layer=bound_layer,
                           bound_log=bound_log, covered=True)

    # synthetic ball centers on geometric depth levels
    d_top = 0.95 * _inradius(grid)
    if epsilon >= d_top:
        raise ChainBlocked(f"epsilon={epsilon:g} at or above the inradius scale")
    levels = [d_top]
    while levels[-1] > epsilon:
        levels.append(max(levels[-1] * level_ratio, 0.999 * epsilon))
    centers, radii = [], []
    for dl in levels:
        pts = _level_curve(grid, dl)
        centers.append(pts)
        radii.append(np.full(pts.shape[0], dl / 4.0))
    centers = np.vstack(centers)
    radii = np.concatenate(radii)

    # boundary-bulk start ball on the data sub-boundary
    gids = chart.gamma_ids()
    gpts = grid.nodes[gids]
    x0 = gpts[np.argmin(np.linalg.norm(gpts - gpts.mean(axis=0), axis=1))]
    if np.all(chart.gamma_mask):
        r0 = 0.5 * d_top
    else:
        off = grid.nodes[chart.node_ids[~chart.gamma_mask]]
        r0 = min(0.25 * float(np.min(np.linalg.norm(off - x0, axis=1))),
                 0.5 * d_top)
    bfit = boundary_fit if boundary_fit is not None else fit
    a0 = bfit.alpha_hat
    m0 = min(math.exp(bfit.log_c(k)) * (M + eta) ** (1 - a0) * eta ** a0, M)

    seed = np.linalg.norm(centers - x0, axis=1) + radii <= r0
    if not np.any(seed):
        raise ChainBlocked("start ball reaches no chain ball; enlarge gamma "
                           "or epsilon")
    a = fit.alpha_hat
    amp = math.exp(fit.log_c(k)) * M ** (1 - a)
    value, hops = _certify(centers, radii, seed, m0,
                           lambda m: min(amp * m ** a, M))
    unreached = int(np.count_nonzero(np.isinf(value)))
    if unreached:
        raise ChainBlocked(f"{unreached} chain balls unreachable at "
                           f"epsilon={epsilon:g}")

    cover_sq, n_cover, left = _greedy_cover(grid.nodes, omega_eps, centers,
                                            radii, value)
    if left:
        raise ChainBlocked(f"{left} deep nodes outside every chain ball")
    bound_interior = math.sqrt(cover_sq)
    bound = math.sqrt(bound_interior ** 2 + bound_layer ** 2)
    return ChainResult(bound=bound, n_balls=int(hops.max()), n_cover=n_cover,
                       bound_interior=bound_interior, bound_layer=bound_layer,
                       bound_log=bound_log, covered=True)


def _certify(centers: np.ndarray, radii: np.ndarray, seed: np.ndarray,
             m0: float, step) -> tuple:
    """Dijkstra over the ball graph from the ``seed`` balls at value m0.

    An edge x -> y exists when the half-ball of y sits inside the ball of x
    and carries the value ``step(m)``; values only degrade along edges, so
    processing by increasing value is optimal.  Returns each ball's value
    (inf where unreachable) and hop count.
    """
    from scipy.spatial import cKDTree
    tree = cKDTree(centers)
    value = np.full(centers.shape[0], np.inf)
    value[seed] = m0
    hops = np.zeros(centers.shape[0], dtype=int)
    done = np.zeros(centers.shape[0], dtype=bool)
    heap = [(m0, int(i)) for i in np.flatnonzero(seed)]
    heapq.heapify(heap)
    while heap:
        val, i = heapq.heappop(heap)
        if done[i]:
            continue
        done[i] = True
        nbrs = np.asarray(tree.query_ball_point(centers[i], r=radii[i]),
                          dtype=np.intp)
        nbrs = nbrs[~done[nbrs]]
        dist = np.linalg.norm(centers[nbrs] - centers[i], axis=1)
        cand = step(val)
        nbrs = nbrs[(dist + radii[nbrs] / 2.0 <= radii[i] + 1e-12)
                    & (cand < value[nbrs])]
        value[nbrs] = cand
        hops[nbrs] = hops[i] + 1
        for j in nbrs:
            heapq.heappush(heap, (cand, int(j)))
    return value, hops


def _ball_nodes(tree, nodes: np.ndarray, c: np.ndarray,
                r: float) -> np.ndarray:
    """Indices of the nodes x with ``np.linalg.norm(x - c) <= r``, the same
    set a full scan finds: a slightly enlarged tree query proposes the
    candidates and the exact norm decides."""
    cand = np.asarray(tree.query_ball_point(c, r * (1 + 1e-9)), dtype=np.intp)
    return cand[np.linalg.norm(nodes[cand] - c, axis=1) <= r]


def _greedy_cover(nodes: np.ndarray, deep: np.ndarray, centers: np.ndarray,
                  radii: np.ndarray, value: np.ndarray) -> tuple:
    """Cover the ``deep`` nodes with balls taken by increasing value, using a
    ball only when it adds a node.  Returns the sum of squared values of the
    balls used, their number and the count of nodes left uncovered."""
    from scipy.spatial import cKDTree
    tree = cKDTree(nodes)
    uncovered = deep.copy()
    left = int(np.count_nonzero(uncovered))
    cover_sq, n_cover = 0.0, 0
    for ci in np.argsort(value):
        if not left:
            break
        ids = _ball_nodes(tree, nodes, centers[ci], radii[ci])
        ids = ids[uncovered[ids]]
        if ids.size:
            cover_sq += value[ci] ** 2
            n_cover += 1
            uncovered[ids] = False
            left -= ids.size
    return cover_sq, n_cover, left


# ---------------------------------------------------------------------------
# Companion sanity probes
# ---------------------------------------------------------------------------

def caccioppoli_ratio(u: GridField, epsilon: float, k: float) -> float:
    """||grad u||_{L2(Omega_eps)} / (k eps^-1 ||u||_{L2(Omega_eps/2)});
    bounded by one constant across a solution family."""
    grid = u.grid
    depth = boundary_distance(grid, grid.nodes)
    num = norm(u, "H1_semi", u.region & (depth >= epsilon))
    den = k / epsilon * norm(u, "L2", u.region & (depth >= epsilon / 2.0))
    if den == 0:
        return 0.0
    return num / den


def source_neumann_ratio(op: DiscreteOperator, chart: BoundaryChart,
                         v: GridField, omega1_mask: np.ndarray) -> float:
    """eta / (k^(n+2) ||v||) for the source problem driven by a region-
    supported v: solve with source v 1_Omega1, measure the sub-boundary
    Neumann norm."""
    from .assembly import solve_dirichlet, weak_neumann_trace
    from .fields import functional_norm
    grid = op.grid
    src = np.where(omega1_mask, v.values, 0.0)
    f = GridField(grid, src)
    wsol = solve_dirichlet(op, f=f)
    ell = weak_neumann_trace(op, wsol, f=f)
    eta = functional_norm(ell, gamma=chart.gamma_mask)
    v_l2 = norm(GridField(grid, src), "L2", omega1_mask)
    n = grid.dim
    return eta / (op.k ** (n + 2) * v_l2)
