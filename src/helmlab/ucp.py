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

import numpy as np

from .assembly import DiscreteOperator
from .errors import ChainBlocked, DegenerateSamples, GeometryViolation
from .fields import GridField, norm
from .geometry import PAIR_BLOCK, Grid, ball_mask, boundary_chart, held, \
    nearest_distance


# ---------------------------------------------------------------------------
# Geometry helpers
# ---------------------------------------------------------------------------

def boundary_distance(grid: Grid, points: np.ndarray) -> np.ndarray:
    """Distance to the domain boundary: the spec's analytic
    :meth:`~helmlab.geometry.DomainSpec.depth`, and on a masked union the
    distance to the nearest boundary node, by the blocked exact scan of
    :func:`~helmlab.geometry.nearest_distance`."""
    pts = np.atleast_2d(points)
    depth = grid.spec.depth(pts)
    if depth is not None:
        return depth
    return nearest_distance(pts, grid.nodes[grid.boundary_index])


# ---------------------------------------------------------------------------
# Ball triples
# ---------------------------------------------------------------------------

@dataclass
class BallTriple:
    r: float
    k: float
    norm_half: float
    norm_mid: float
    norm_big: float

    def degenerate(self) -> bool:
        return min(self.norm_half, self.norm_mid, self.norm_big) <= 0.0


def _triple_masks(grid: Grid, x0: np.ndarray, r: float) -> np.ndarray:
    """Masks of B_{r/2}, B_r and B_{2r} centered at x0, one row each; built
    once per grid, centre and radius and held read-only on the grid."""
    return held(grid, ("triple_masks", *x0.tolist(), r),
                lambda: ball_mask(grid, x0, (r / 2.0, r, 2.0 * r)))


def _triple_norms(u: GridField, x0: np.ndarray, r: float) -> list:
    """L2 norms of u over B_{r/2}, B_r and B_{2r} centered at x0."""
    return [norm(u, "L2", m) for m in _triple_masks(u.grid, x0, r)]


def ball_rule(grid: Grid, x0, r: float) -> None:
    """Raise :class:`GeometryViolation` unless B_{4r}(x0) lies inside the
    domain and r/2 spans at least 8 grid layers: the precondition of
    :func:`three_ball_ratio`."""
    depth = float(boundary_distance(grid, np.asarray(x0, float)[None, :])[0])
    if depth <= 4.0 * r:
        raise GeometryViolation(f"B_4r exits the domain (depth {depth:g}, "
                                f"needs > {4 * r:g})")
    layer = grid.dr if grid.topology == "polar" else grid.max_spacing()
    if r / 2.0 < 8.0 * layer - 1e-12:
        raise GeometryViolation(f"smallest ball radius {r / 2:g} below 8 layers")


def three_ball_ratio(u: GridField, x0, r: float, k: float) -> BallTriple:
    """Quadrature norms of a solution over B_{r/2}, B_r, B_{2r} centered at
    x0, under the :func:`ball_rule`."""
    x0 = np.asarray(x0, float)
    ball_rule(u.grid, x0, r)
    nh, nm, nb = _triple_norms(u, x0, r)
    if not (nh <= nm + 1e-14 and nm <= nb + 1e-14):
        raise GeometryViolation("nested ball norms are not monotone")
    return BallTriple(r=r, k=k, norm_half=nh, norm_mid=nm, norm_big=nb)


# ---------------------------------------------------------------------------
# Exponent fits
# ---------------------------------------------------------------------------

@dataclass
class ExponentFit:
    alpha_hat: float
    intercepts: dict                  # k -> log C(k), one-sided envelope
    n_samples: int

    def log_c(self, k: float) -> float:
        ks = np.array(sorted(self.intercepts))
        near = ks[np.argmin(np.abs(ks - k))]
        return self.intercepts[float(near)]


def _triple_xy(t: BallTriple):
    x = math.log(t.norm_half) - math.log(t.norm_big)
    y = math.log(t.norm_mid) - math.log(t.norm_big)
    return x, y


def estimate_exponent(samples: list) -> ExponentFit:
    """Least-squares interpolation exponent, clamped to (0,1), with one-sided
    per-frequency intercepts chosen so every calibration sample has
    nonnegative margin."""
    good = [t for t in samples if not t.degenerate()]
    if len(good) < 10:
        raise DegenerateSamples(f"{len(good)} usable samples; need >= 10")
    xy = np.array([_triple_xy(t) for t in good])
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
                       n_samples=len(good))


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


def chain_propagate(op: DiscreteOperator, u: GridField, eta: float, M: float,
                    epsilon: float, fit: ExponentFit,
                    sobolev_constant: float = 1.0) -> ChainResult:
    """Propagate boundary smallness into the deep set with the fitted
    three-balls inequality.

    Chain balls are geometric (not grid-bound): centers sit on inward level
    sets of the boundary distance with radius depth/4, levels shrinking by
    the ratio 0.91 from the inradius down to ``epsilon``, so the chain depth
    grows like log(1/epsilon).  A ball is certified once its half-ball lies
    inside an already certified ball, which iterates

        m_next = C(k) M^(1-alpha) m^alpha

    starting from the envelope C(k) (M+eta)^(1-alpha) eta^alpha of ``fit``
    at a start ball on the data sub-boundary, over a ball graph built once
    from x-strips of the centers sorted by x.  The deep nodes are
    then covered greedily by certified balls in order of value.  The
    uncovered nodes are kept sorted by x; each ball proposes the live nodes
    of its x-strip and the exact distance test |x - c| <= r decides
    membership, so the cover is the one a scan of every node gives.  The
    boundary layer W_eps is bounded by the exact Hoelder step
    ||u||_{L2(W)} <= |W|^(1/4) ||u||_{L4} <= |W|^(1/4) C_S M (plane
    exponents).  Also evaluates the closed-form logarithmic bound
    k |log(eta/(M+eta))|^(-1/2) (M+eta) with unit constant.
    """
    grid = op.grid
    k = op.k
    depth = boundary_distance(grid, grid.nodes)
    in_region = depth > 0
    omega_eps = in_region & (depth >= epsilon)

    w = grid.quad_weights
    layer_mask = in_region & ~omega_eps
    layer_measure = float(np.sum(w[layer_mask]))
    bound_layer = sobolev_constant * layer_measure ** 0.25 * M

    ratio = eta / (M + eta) if (M + eta) > 0 else 0.0
    bound_log = (k * abs(math.log(ratio)) ** -0.5 * (M + eta)
                 if 0.0 < ratio < 1.0 else 0.0)

    if eta == 0.0:
        return ChainResult(bound=0.0, n_balls=0, n_cover=0,
                           bound_interior=0.0, bound_layer=0.0,
                           bound_log=0.0)
    if not np.any(omega_eps):
        return ChainResult(bound=bound_layer, n_balls=0, n_cover=0,
                           bound_interior=0.0, bound_layer=bound_layer,
                           bound_log=bound_log)

    # synthetic ball centers on geometric depth levels, from the inradius
    d_top = 0.95 * (grid.spec.width / 2)
    if epsilon >= d_top:
        raise ChainBlocked(f"epsilon={epsilon:g} at or above the inradius scale")
    levels = [d_top]
    while levels[-1] > epsilon:
        levels.append(max(levels[-1] * 0.91, 0.999 * epsilon))
    centers, radii = [], []
    for dl in levels:
        pts = grid.spec.level_set(dl)
        centers.append(pts)
        radii.append(np.full(pts.shape[0], dl / 4.0))
    centers = np.vstack(centers)
    radii = np.concatenate(radii)

    # boundary-bulk start ball on the data sub-boundary
    chart = boundary_chart(grid)
    gids = chart.gamma_ids()
    gpts = grid.nodes[gids]
    x0 = gpts[np.argmin(np.linalg.norm(gpts - gpts.mean(axis=0), axis=1))]
    if np.all(chart.gamma_mask):
        r0 = 0.5 * d_top
    else:
        off = grid.nodes[chart.node_ids[~chart.gamma_mask]]
        r0 = min(0.25 * float(np.min(np.linalg.norm(off - x0, axis=1))),
                 0.5 * d_top)
    a = fit.alpha_hat
    c_k = math.exp(fit.log_c(k))
    m0 = min(c_k * (M + eta) ** (1 - a) * eta ** a, M)

    seed = np.linalg.norm(centers - x0, axis=1) + radii <= r0
    if not np.any(seed):
        raise ChainBlocked("start ball reaches no chain ball; enlarge gamma "
                           "or epsilon")
    amp = c_k * M ** (1 - a)
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
                       bound_log=bound_log)


def _certify(centers: np.ndarray, radii: np.ndarray, seed: np.ndarray,
             m0: float, step) -> tuple:
    """Dijkstra over the ball graph from the ``seed`` balls at value m0.

    An edge x -> y exists when the half-ball of y sits inside the ball of x
    and carries the value ``step(m)``; values only degrade along edges, so
    processing by increasing value is optimal.  The graph is built once.
    The neighbours ball x proposes are the balls of its x-strip
    |x_y - x_x| <= r_x, found by bisection in the centers sorted by x; an
    edge has dist <= r_x - r_y/2 + 1e-12 < r_x, so the strip holds every
    one.  Blocks of source balls of at most about
    :data:`~helmlab.geometry.PAIR_BLOCK` candidate pairs take the exact
    edge test, and each ball's out-edges are a slice of the CSR arrays
    ``indptr`` and ``dst``.  The heap keys (value, index) fix the pop order
    whatever the order of the edges.  Returns each ball's value (inf where
    unreachable) and hop count.
    """
    n = centers.shape[0]
    order = np.argsort(centers[:, 0], kind="stable")
    xs = centers[order, 0]
    lo = np.searchsorted(xs, centers[:, 0] - radii, "left")
    span = np.searchsorted(xs, centers[:, 0] + radii, "right") - lo
    rows = max(1, PAIR_BLOCK // int(span.max()))
    edges = []
    for first in range(0, n, rows):
        block = np.arange(first, min(first + rows, n))
        src = np.repeat(block, span[block])
        start = np.cumsum(span[block]) - span[block]
        dst = order[np.arange(src.size)
                    + np.repeat(lo[block] - start, span[block])]
        dist = np.linalg.norm(centers[dst] - centers[src], axis=1)
        edge = dist + radii[dst] / 2.0 <= radii[src] + 1e-12
        edges.append((src[edge], dst[edge]))
    src, dst = map(np.concatenate, zip(*edges))
    indptr = np.searchsorted(src, np.arange(n + 1))
    value = np.full(n, np.inf)
    value[seed] = m0
    hops = np.zeros(n, dtype=int)
    done = np.zeros(n, dtype=bool)
    heap = [(m0, int(i)) for i in np.flatnonzero(seed)]
    heapq.heapify(heap)
    while heap:
        val, i = heapq.heappop(heap)
        if done[i]:
            continue
        done[i] = True
        nbrs = dst[indptr[i]:indptr[i + 1]]
        cand = step(val)
        nbrs = nbrs[~done[nbrs] & (cand < value[nbrs])]
        value[nbrs] = cand
        hops[nbrs] = hops[i] + 1
        for j in nbrs:
            heapq.heappush(heap, (cand, int(j)))
    return value, hops


def _greedy_cover(nodes: np.ndarray, deep: np.ndarray, centers: np.ndarray,
                  radii: np.ndarray, value: np.ndarray) -> tuple:
    """Cover the ``deep`` nodes with balls taken by increasing value, using a
    ball only when it adds a node.  Returns the sum of squared values of the
    balls used, their number and the count of nodes left uncovered.

    The uncovered nodes are kept sorted by x, one array per coordinate.  A
    ball's candidates are the live nodes of the x-strip c_x -+ r (1 + 1e-9),
    found by bisection, and the exact test |x - c| <= r decides membership,
    with |x - c| = sqrt(dx^2 + dy^2), the arithmetic of ``np.linalg.norm``
    over a row; so the cover is the one a scan of every node gives.  The
    live set is compacted whenever the uncovered count halves.
    """
    pts = nodes[deep]
    xs, ys = pts[np.argsort(pts[:, 0])].T.copy()
    alive = np.ones(xs.size, dtype=bool)
    left = xs.size
    cover_sq, n_cover = 0.0, 0
    for ci in np.argsort(value):
        if not left:
            break
        c, r = centers[ci], radii[ci]
        pad = r * (1 + 1e-9)
        lo, hi = np.searchsorted(xs, (c[0] - pad, c[0] + pad))
        pos = lo + np.flatnonzero(alive[lo:hi])
        dx, dy = xs[pos] - c[0], ys[pos] - c[1]
        pos = pos[np.sqrt(dx * dx + dy * dy) <= r]
        if pos.size:
            cover_sq += value[ci] ** 2
            n_cover += 1
            alive[pos] = False
            left -= pos.size
            if 2 * left <= xs.size:
                xs, ys = xs[alive], ys[alive]
                alive = np.ones(xs.size, dtype=bool)
    return cover_sq, n_cover, left
