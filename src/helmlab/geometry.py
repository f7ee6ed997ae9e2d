"""Domain catalog and structured-grid discretization.

Two lattice topologies cover every shape in the catalog:

* ``polar`` -- disks and annuli.  Rings are placed so that boundary nodes sit
  exactly on the bounding circles; a disk keeps its innermost ring half a
  spacing off the origin, which makes the flux face at r=0 degenerate (zero
  coupling) and avoids the coordinate singularity without special stencils.
* ``cartesian`` -- axis-aligned rectangles, unions of axis-aligned rectangles,
  and boxes in 3D.

A :class:`Grid` carries interior/boundary index sets, per-node quadrature
weights (midpoint cells, halved at boundary nodes), and the edge list of the
flux stencil: each lattice edge stores the geometric coupling (face measure
over node distance) from which a symmetric discrete Laplacian is assembled.
Nested domains are realized as node masks on one shared grid, so restricting
a field to an inner region is an index selection with no interpolation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import EmptyGamma, FeatureUnresolved, GeometryViolation

_TWO_PI = 2.0 * np.pi


# ---------------------------------------------------------------------------
# Domain specification
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DomainSpec:
    """Declarative description of a computational domain.

    ``kind`` is one of ``disk``, ``annulus``, ``rectangle``, ``masked_union``,
    ``box``.  ``gamma`` describes the sub-boundary used for data supports:
    ``"full"``, ``{"angles": [(a, b), ...]}`` on circles, ``{"edges": [...]}``
    on rectangle perimeters, or ``{"face": "z-"}`` (optionally with
    ``"extent"``) on box surfaces.
    """

    kind: str
    dim: int
    radius: float = 0.0
    center: tuple = (0.0, 0.0)
    r_inner: float = 0.0
    r_outer: float = 0.0
    corners: tuple = ()            # ((x0, y0[, z0]), (x1, y1[, z1]))
    rectangles: tuple = ()         # masked_union: tuple of corner pairs
    gamma: object = "full"

    def __post_init__(self):
        if self.kind not in ("disk", "annulus", "rectangle", "masked_union", "box"):
            raise GeometryViolation(f"unknown domain kind {self.kind!r}")
        if self.kind == "disk" and self.radius <= 0:
            raise GeometryViolation("disk radius must be positive")
        if self.kind == "annulus":
            if self.r_inner <= 0 or self.r_outer <= 0:
                raise GeometryViolation("annulus radii must be positive")
            if self.r_inner >= self.r_outer:
                raise GeometryViolation("annulus requires r_inner < r_outer")
        if self.kind in ("rectangle", "box") and len(self.corners) != 2:
            raise GeometryViolation("rectangle/box needs two corner points")
        if self.kind == "masked_union" and not self.rectangles:
            raise GeometryViolation("masked_union needs at least one rectangle")

    # -- convenience constructors --------------------------------------------

    @staticmethod
    def disk(radius: float, center=(0.0, 0.0), gamma="full") -> "DomainSpec":
        return DomainSpec(kind="disk", dim=2, radius=radius, center=tuple(center),
                          gamma=gamma)

    @staticmethod
    def annulus(r_inner: float, r_outer: float, center=(0.0, 0.0),
                gamma="full") -> "DomainSpec":
        return DomainSpec(kind="annulus", dim=2, r_inner=r_inner, r_outer=r_outer,
                          center=tuple(center), gamma=gamma)

    @staticmethod
    def rectangle(corner0, corner1, gamma="full") -> "DomainSpec":
        return DomainSpec(kind="rectangle", dim=2,
                          corners=(tuple(corner0), tuple(corner1)), gamma=gamma)

    @staticmethod
    def box(corner0, corner1, gamma="full") -> "DomainSpec":
        return DomainSpec(kind="box", dim=3,
                          corners=(tuple(corner0), tuple(corner1)), gamma=gamma)

    @staticmethod
    def masked_union(rectangles, gamma="full") -> "DomainSpec":
        rects = tuple((tuple(a), tuple(b)) for a, b in rectangles)
        return DomainSpec(kind="masked_union", dim=2, rectangles=rects, gamma=gamma)

    def area(self) -> float:
        """Analytic measure of the domain (2D area or 3D volume)."""
        if self.kind == "disk":
            return np.pi * self.radius ** 2
        if self.kind == "annulus":
            return np.pi * (self.r_outer ** 2 - self.r_inner ** 2)
        if self.kind in ("rectangle", "box"):
            a = np.asarray(self.corners[0], dtype=float)
            b = np.asarray(self.corners[1], dtype=float)
            return float(np.prod(np.abs(b - a)))
        if self.kind == "masked_union":
            # rectangles may not overlap (checked in build); sum is exact
            total = 0.0
            for a, b in self.rectangles:
                total += float(np.prod(np.abs(np.asarray(b, float) - np.asarray(a, float))))
            return total
        raise GeometryViolation(self.kind)


# ---------------------------------------------------------------------------
# Grid
# ---------------------------------------------------------------------------

@dataclass
class Grid:
    """Structured discretization of a :class:`DomainSpec`.

    ``edges`` is a triple of arrays ``(i, j, c)``: node pairs of the flux
    stencil with geometric coupling ``c`` (face measure / node distance).
    ``quad_weights`` are midpoint-cell measures, halved at boundary nodes.
    """

    spec: DomainSpec
    topology: str                       # 'polar' | 'cartesian'
    h: float                            # target spacing
    nodes: np.ndarray                   # (N, dim)
    interior_index: np.ndarray
    boundary_index: np.ndarray
    quad_weights: np.ndarray
    edges: tuple                        # (np.ndarray, np.ndarray, np.ndarray)
    lattice_shape: tuple                # polar: (n_rings, n_theta); cart: (nx, ny[, nz])
    lattice_id: np.ndarray              # lattice position -> node id (-1 where absent)
    # polar metadata
    radii: Optional[np.ndarray] = None
    thetas: Optional[np.ndarray] = None
    dr: float = 0.0
    dtheta: float = 0.0
    # cartesian metadata
    origin: Optional[np.ndarray] = None
    spacings: Optional[np.ndarray] = None
    _chart_cache: dict = field(default_factory=dict, repr=False)

    @property
    def n_nodes(self) -> int:
        return self.nodes.shape[0]

    @property
    def dim(self) -> int:
        return self.nodes.shape[1]

    def is_boundary_mask(self) -> np.ndarray:
        mask = np.zeros(self.n_nodes, dtype=bool)
        mask[self.boundary_index] = True
        return mask

    def max_spacing(self) -> float:
        """Largest internode distance, governs the wavelength-resolution rule."""
        if self.topology == "polar":
            return max(self.dr, float(self.radii[-1]) * self.dtheta)
        return float(np.max(self.spacings))

    def validate(self) -> None:
        n = self.n_nodes
        both = np.intersect1d(self.interior_index, self.boundary_index)
        if both.size:
            raise GeometryViolation("node classified interior and boundary")
        if self.interior_index.size + self.boundary_index.size != n:
            raise GeometryViolation("interior/boundary masks do not partition nodes")
        if np.any(self.quad_weights <= 0):
            raise GeometryViolation("non-positive quadrature weight")


# ---------------------------------------------------------------------------
# Polar construction
# ---------------------------------------------------------------------------

def _build_polar(spec: DomainSpec, h: float) -> Grid:
    if spec.kind == "disk":
        r_out = spec.radius
        n_r = max(int(np.ceil(r_out / h - 0.5)), 4)
        dr = r_out / (n_r + 0.5)
        radii = (np.arange(n_r + 1) + 0.5) * dr
        inner_is_boundary = False
    else:
        r_in, r_out = spec.r_inner, spec.r_outer
        n_r = max(int(np.ceil((r_out - r_in) / h)), 8)
        dr = (r_out - r_in) / n_r
        radii = r_in + np.arange(n_r + 1) * dr
        inner_is_boundary = True

    n_theta = max(int(np.ceil(_TWO_PI * r_out / h)), 8)
    dtheta = _TWO_PI / n_theta
    thetas = np.arange(n_theta) * dtheta

    n_rings = radii.size
    cx, cy = spec.center
    rr, tt = np.meshgrid(radii, thetas, indexing="ij")
    nodes = np.column_stack([(rr * np.cos(tt)).ravel() + cx,
                             (rr * np.sin(tt)).ravel() + cy])

    lattice_id = np.arange(n_rings * n_theta).reshape(n_rings, n_theta)

    boundary_rings = [n_rings - 1] + ([0] if inner_is_boundary else [])
    boundary = np.concatenate([lattice_id[i] for i in boundary_rings])
    interior = np.setdiff1d(np.arange(n_rings * n_theta), boundary)

    # radial cell extent per ring; boundary rings carry half cells
    ext = np.full(n_rings, dr)
    ext[n_rings - 1] = dr / 2.0
    if inner_is_boundary:
        ext[0] = dr / 2.0
    weights = (radii * ext)[:, None] * dtheta * np.ones((1, n_theta))

    # flux edges
    ei, ej, ec = [], [], []
    # radial edges between consecutive rings (face at the mid radius)
    for i in range(n_rings - 1):
        rf = 0.5 * (radii[i] + radii[i + 1])
        c = rf * dtheta / dr
        ei.append(lattice_id[i])
        ej.append(lattice_id[i + 1])
        ec.append(np.full(n_theta, c))
    # angular edges around each ring
    for i in range(n_rings):
        c = ext[i] / (radii[i] * dtheta)
        ei.append(lattice_id[i])
        ej.append(np.roll(lattice_id[i], -1))
        ec.append(np.full(n_theta, c))

    grid = Grid(
        spec=spec, topology="polar", h=h, nodes=nodes,
        interior_index=interior, boundary_index=np.sort(boundary),
        quad_weights=weights.ravel(),
        edges=(np.concatenate(ei), np.concatenate(ej), np.concatenate(ec)),
        lattice_shape=(n_rings, n_theta), lattice_id=lattice_id,
        radii=radii, thetas=thetas, dr=dr, dtheta=dtheta,
    )
    grid.validate()
    return grid


# ---------------------------------------------------------------------------
# Cartesian construction (rectangle, box, masked union)
# ---------------------------------------------------------------------------

def _axis_nodes(a: float, b: float, h: float):
    n = max(int(np.ceil((b - a) / h)), 8)
    return a + np.arange(n + 1) * ((b - a) / n), (b - a) / n


def _build_cartesian_block(spec: DomainSpec, h: float) -> Grid:
    lo = np.asarray(spec.corners[0], dtype=float)
    hi = np.asarray(spec.corners[1], dtype=float)
    lo, hi = np.minimum(lo, hi), np.maximum(lo, hi)
    dim = lo.size

    axes, spac = [], []
    for d in range(dim):
        xs, hd = _axis_nodes(lo[d], hi[d], h)
        axes.append(xs)
        spac.append(hd)
    spacings = np.asarray(spac)
    shape = tuple(len(xs) for xs in axes)

    mesh = np.meshgrid(*axes, indexing="ij")
    nodes = np.column_stack([m.ravel() for m in mesh])
    lattice_id = np.arange(nodes.shape[0]).reshape(shape)

    idx = np.indices(shape)
    on_edge = np.zeros(shape, dtype=bool)
    for d in range(dim):
        on_edge |= (idx[d] == 0) | (idx[d] == shape[d] - 1)
    boundary = lattice_id[on_edge]
    interior = lattice_id[~on_edge]

    # per-axis cell extents, halved at the two ends
    exts = []
    for d in range(dim):
        e = np.full(shape[d], spacings[d])
        e[0] = e[-1] = spacings[d] / 2.0
        exts.append(e)
    wgrid = exts[0].copy()
    for d in range(1, dim):
        wgrid = np.multiply.outer(wgrid, exts[d])

    ei, ej, ec = [], [], []
    for d in range(dim):
        sl_a = [slice(None)] * dim
        sl_b = [slice(None)] * dim
        sl_a[d] = slice(0, shape[d] - 1)
        sl_b[d] = slice(1, shape[d])
        a_ids = lattice_id[tuple(sl_a)].ravel()
        b_ids = lattice_id[tuple(sl_b)].ravel()
        # face measure = product of transverse extents (same for both nodes
        # on axis-aligned blocks)
        face = np.ones(shape)
        for t in range(dim):
            if t == d:
                continue
            sh = [1] * dim
            sh[t] = shape[t]
            face = face * exts[t].reshape(sh)
        face_a = face[tuple(sl_a)].ravel()
        ei.append(a_ids)
        ej.append(b_ids)
        ec.append(face_a / spacings[d])

    grid = Grid(
        spec=spec, topology="cartesian", h=h, nodes=nodes,
        interior_index=np.sort(interior), boundary_index=np.sort(boundary),
        quad_weights=wgrid.ravel(),
        edges=(np.concatenate(ei), np.concatenate(ej), np.concatenate(ec)),
        lattice_shape=shape, lattice_id=lattice_id,
        origin=lo, spacings=spacings,
    )
    grid.validate()
    return grid


def _build_masked_union(spec: DomainSpec, h: float) -> Grid:
    rects = [(np.asarray(a, float), np.asarray(b, float)) for a, b in spec.rectangles]
    rects = [(np.minimum(a, b), np.maximum(a, b)) for a, b in rects]
    lo = np.min([a for a, _ in rects], axis=0)
    hi = np.max([b for _, b in rects], axis=0)

    # all rectangle corners must sit on a common h-lattice anchored at lo
    for a, b in rects:
        for p in (a, b):
            frac = (p - lo) / h
            if np.max(np.abs(frac - np.round(frac))) > 1e-9:
                raise FeatureUnresolved(
                    "masked_union rectangle corners must align with the grid spacing")
        if np.min((b - a) / h) < 8 - 1e-12:
            raise FeatureUnresolved("rectangle thinner than 8 grid layers")

    nx = int(round((hi[0] - lo[0]) / h))
    ny = int(round((hi[1] - lo[1]) / h))
    xs = lo[0] + np.arange(nx + 1) * h
    ys = lo[1] + np.arange(ny + 1) * h
    X, Y = np.meshgrid(xs, ys, indexing="ij")
    pts = np.stack([X, Y], axis=-1)

    def in_closure(p):
        ok = np.zeros(p.shape[:-1], dtype=bool)
        for a, b in rects:
            ok |= np.all((p >= a - 1e-12) & (p <= b + 1e-12), axis=-1)
        return ok

    closure = in_closure(pts)
    # quadrant membership by diagonal probes; a closure point is interior iff
    # all four quadrant squares of its cell lie inside, and the probes also
    # give the exact cell area for lattice-aligned unions
    quadrants = np.zeros(closure.shape)
    interior2d = closure.copy()
    for sx in (-1.0, 1.0):
        for sy in (-1.0, 1.0):
            probe = in_closure(pts + np.array([sx * h / 4, sy * h / 4]))
            quadrants += probe
            interior2d &= probe
    boundary2d = closure & ~interior2d

    kept = closure
    lattice_id = -np.ones(kept.shape, dtype=int)
    lattice_id[kept] = np.arange(int(kept.sum()))
    nodes = pts[kept]

    interior = lattice_id[interior2d]
    boundary = lattice_id[boundary2d]
    weights = (h / 2) ** 2 * quadrants[kept]

    ei, ej, ec = [], [], []
    # flux faces probed at the two face-half midpoints (exact for aligned
    # unions, including reentrant corners)
    for axis, normal in ((0, np.array([h / 2, 0.0])),
                        (1, np.array([0.0, h / 2]))):
        sl_a = (slice(0, -1), slice(None)) if axis == 0 else (slice(None), slice(0, -1))
        sl_b = (slice(1, None), slice(None)) if axis == 0 else (slice(None), slice(1, None))
        ok = kept[sl_a] & kept[sl_b]
        a_ids = lattice_id[sl_a][ok]
        b_ids = lattice_id[sl_b][ok]
        mid = 0.5 * (pts[sl_a][ok] + pts[sl_b][ok])
        tang = np.array([0.0, h / 4]) if axis == 0 else np.array([h / 4, 0.0])
        face = (h / 2) * (in_closure(mid + tang).astype(float)
                          + in_closure(mid - tang).astype(float))
        ei.append(a_ids); ej.append(b_ids); ec.append(face / h)

    grid = Grid(
        spec=spec, topology="cartesian", h=h, nodes=nodes,
        interior_index=np.sort(interior), boundary_index=np.sort(boundary),
        quad_weights=weights,
        edges=(np.concatenate(ei), np.concatenate(ej), np.concatenate(ec)),
        lattice_shape=kept.shape, lattice_id=lattice_id,
        origin=lo, spacings=np.array([h, h]),
    )
    grid.validate()
    return grid


def build_grid(spec: DomainSpec, h_target: float) -> Grid:
    """Discretize ``spec`` with target spacing ``h_target``.

    Boundary nodes of polar grids sit exactly on the bounding circles.  Raises
    :class:`FeatureUnresolved` when fewer than 8 nodes span the smallest
    feature.
    """
    if h_target <= 0:
        raise GeometryViolation("h_target must be positive")
    if spec.kind in ("disk", "annulus"):
        feature = 2 * spec.radius if spec.kind == "disk" else spec.r_outer - spec.r_inner
        if feature / h_target < 8 - 1e-12:
            raise FeatureUnresolved(
                f"feature {feature:g} spans fewer than 8 layers at h={h_target:g}")
        return _build_polar(spec, h_target)
    if spec.kind in ("rectangle", "box"):
        lo = np.asarray(spec.corners[0], float)
        hi = np.asarray(spec.corners[1], float)
        if np.min(np.abs(hi - lo)) / h_target < 8 - 1e-12:
            raise FeatureUnresolved("side spans fewer than 8 layers")
        return _build_cartesian_block(spec, h_target)
    if spec.kind == "masked_union":
        return _build_masked_union(spec, h_target)
    raise GeometryViolation(spec.kind)


# ---------------------------------------------------------------------------
# Region masks
# ---------------------------------------------------------------------------

def ball_mask(grid: Grid, center, radius) -> np.ndarray:
    """Nodes inside the closed ball of given center and radius.

    A sequence of radii gives one mask row per radius, all from a single
    distance pass over the nodes.
    """
    c = np.asarray(center, dtype=float)
    d = np.linalg.norm(grid.nodes - c, axis=1)
    return d <= np.asarray(radius, dtype=float)[..., None] + 1e-12


def annulus_mask(grid: Grid, r_lo: float, r_hi: float, center=None) -> np.ndarray:
    c = np.asarray(center if center is not None else
                   (grid.spec.center if grid.topology == "polar" else
                    np.zeros(grid.dim)), dtype=float)
    d = np.linalg.norm(grid.nodes - c, axis=1)
    return (d >= r_lo - 1e-12) & (d <= r_hi + 1e-12)


def check_nested_separation(grid: Grid, inner_mask: np.ndarray,
                            min_layers: int = 4,
                            boundary_ids: Optional[np.ndarray] = None) -> float:
    """Distance between an inner mask and a set of boundary nodes (default:
    the whole boundary).

    Nested configurations need a strictly positive separation; raises
    :class:`GeometryViolation` when the gap is thinner than ``min_layers``
    grid layers.  Returns the measured separation.
    """
    if boundary_ids is None:
        boundary_ids = grid.boundary_index
    if not np.any(inner_mask):
        raise GeometryViolation("empty inner mask")
    from scipy.spatial import cKDTree
    dist, _ = cKDTree(grid.nodes[boundary_ids]).query(grid.nodes[inner_mask])
    sep = float(dist.min())
    min_sep = min_layers * grid.max_spacing()
    if sep < min_sep:
        raise GeometryViolation(
            f"nested separation {sep:g} below {min_layers} layers ({min_sep:g})")
    return sep


def mask_connected(grid: Grid, mask: np.ndarray) -> bool:
    """Whether a node mask is connected in the stencil graph."""
    ids = np.flatnonzero(mask)
    if ids.size == 0:
        return False
    pos = -np.ones(grid.n_nodes, dtype=int)
    pos[ids] = np.arange(ids.size)
    ei, ej, _ = grid.edges
    keep = mask[ei] & mask[ej]
    import scipy.sparse as sp
    from scipy.sparse.csgraph import connected_components
    a = sp.coo_matrix((np.ones(int(keep.sum())),
                       (pos[ei[keep]], pos[ej[keep]])),
                      shape=(ids.size, ids.size))
    ncomp, _ = connected_components(a, directed=False)
    return ncomp == 1


# ---------------------------------------------------------------------------
# Boundary charts
# ---------------------------------------------------------------------------

@dataclass
class BoundaryChart:
    """Ordered outer-boundary trace mesh with a marked sub-boundary.

    ``node_ids`` walk the outer boundary (closed curve in 2D; the whole box
    surface in 3D).  ``weights`` are arclength (2D) or surface-area (3D)
    measures.  ``gamma_mask`` marks the nodes of the relatively open subset
    used for supported traces.  The spectral decomposition of the discrete
    boundary Laplace--Beltrami operator is built lazily and cached.
    """

    grid: Grid
    node_ids: np.ndarray
    weights: np.ndarray
    gamma_mask: np.ndarray
    arclength: Optional[np.ndarray] = None       # 2D only
    _modal: Optional[tuple] = None               # (lambdas, E) cached

    @property
    def n(self) -> int:
        return self.node_ids.size

    def total_measure(self) -> float:
        return float(self.weights.sum())

    def gamma_ids(self) -> np.ndarray:
        return self.node_ids[self.gamma_mask]

    def positions(self, ids: np.ndarray) -> np.ndarray:
        """Chart positions of the boundary node ids ``ids``."""
        order = np.argsort(self.node_ids)
        return order[np.searchsorted(self.node_ids, ids, sorter=order)]

    # -- modal decomposition -------------------------------------------------

    def modal(self) -> tuple:
        """Eigenpairs ``(lambdas, E)`` of the boundary Laplace--Beltrami
        operator; columns of ``E`` are weight-orthonormal."""
        if self._modal is None:
            self._modal = self._build_modal()
        return self._modal

    def _build_modal(self):
        w = self.weights
        n = self.n
        if self.grid.dim == 2 and np.allclose(w, w[0], rtol=1e-12, atol=0):
            # uniform closed curve: analytic circulant eigenbasis
            s = w[0]
            total = s * n
            lam, cols = [0.0], [np.full(n, 1.0 / np.sqrt(total))]
            t = np.arange(n)
            for m in range(1, n // 2 + 1):
                lam_m = (2.0 - 2.0 * np.cos(_TWO_PI * m / n)) / s ** 2
                cm = np.cos(_TWO_PI * m * t / n)
                if 2 * m == n:
                    lam.append(lam_m)
                    cols.append(cm / np.sqrt(np.sum(w * cm ** 2)))
                    break
                sm = np.sin(_TWO_PI * m * t / n)
                lam.extend([lam_m, lam_m])
                cols.append(cm / np.sqrt(np.sum(w * cm ** 2)))
                cols.append(sm / np.sqrt(np.sum(w * sm ** 2)))
            return np.asarray(lam), np.column_stack(cols)
        # generic graph Laplace--Beltrami via a dense generalized eigensolve
        import scipy.linalg as la
        L = self._surface_stiffness()
        lam, E = la.eigh(L, np.diag(w))
        lam = np.clip(lam, 0.0, None)
        return lam, E

    def _surface_stiffness(self) -> np.ndarray:
        n = self.n
        pos = {int(g): i for i, g in enumerate(self.node_ids)}
        L = np.zeros((n, n))
        ei, ej, _ = self.grid.edges
        gi = np.asarray([pos.get(int(a), -1) for a in ei])
        gj = np.asarray([pos.get(int(b), -1) for b in ej])
        keep = (gi >= 0) & (gj >= 0)
        for a, b in zip(gi[keep], gj[keep]):
            p = self.grid.nodes[self.node_ids[a]]
            q = self.grid.nodes[self.node_ids[b]]
            dist = float(np.linalg.norm(p - q))
            if self.grid.dim == 2:
                c = 1.0 / dist
            else:
                # tangential face measure: smaller of the two node areas / dist
                c = min(self.weights[a], self.weights[b]) / dist ** 2
            L[a, a] += c
            L[b, b] += c
            L[a, b] -= c
            L[b, a] -= c
        return L

    # -- norms in the (1 + lambda)^s scale ------------------------------------

    def coefficients(self, values: np.ndarray) -> np.ndarray:
        lam, E = self.modal()
        return E.T @ (self.weights * values)

    def synthesize(self, coeffs: np.ndarray) -> np.ndarray:
        _, E = self.modal()
        return E @ coeffs

    def h_half_gram(self, ids: Optional[np.ndarray] = None) -> np.ndarray:
        """Gram matrix of nodal values in the (1+lambda)^(1/2) trace norm,
        optionally restricted to a subset of chart positions."""
        lam, E = self.modal()
        WE = self.weights[:, None] * E
        G = WE @ ((1.0 + lam)[:, None] ** 0.5 * WE.T)
        G = 0.5 * (G + G.T)
        if ids is not None:
            G = G[np.ix_(ids, ids)]
        return G


def boundary_chart(grid: Grid, gamma=None) -> BoundaryChart:
    """Chart of the full outer boundary with the ``gamma`` subset marked.

    ``gamma`` defaults to the descriptor stored in the domain spec.  Raises
    :class:`EmptyGamma` when no node falls in the requested subset.
    """
    gamma = grid.spec.gamma if gamma is None else gamma
    key = repr(gamma)
    if key in grid._chart_cache:
        return grid._chart_cache[key]

    if grid.topology == "polar":
        chart = _polar_chart(grid, gamma)
    elif grid.dim == 2:
        chart = _perimeter_chart(grid, gamma)
    else:
        chart = _surface_chart(grid, gamma)
    if not np.any(chart.gamma_mask):
        raise EmptyGamma(f"gamma descriptor {gamma!r} marks no node")
    grid._chart_cache[key] = chart
    return chart


def _polar_chart(grid: Grid, gamma) -> BoundaryChart:
    n_rings, n_theta = grid.lattice_shape
    ids = grid.lattice_id[n_rings - 1].copy()
    r_out = float(grid.radii[-1])
    weights = np.full(n_theta, r_out * grid.dtheta)
    arclength = grid.thetas * r_out
    if gamma == "full":
        mask = np.ones(n_theta, dtype=bool)
    elif isinstance(gamma, dict) and "angles" in gamma:
        mask = np.zeros(n_theta, dtype=bool)
        for a, b in gamma["angles"]:
            a, b = float(a), float(b)
            th = np.mod(grid.thetas - a, _TWO_PI)
            mask |= (th > 1e-12) & (th < np.mod(b - a, _TWO_PI) - 1e-12)
    else:
        raise GeometryViolation(f"bad gamma descriptor for circle: {gamma!r}")
    return BoundaryChart(grid=grid, node_ids=ids, weights=weights,
                         gamma_mask=mask, arclength=arclength)


def _perimeter_chart(grid: Grid, gamma) -> BoundaryChart:
    if grid.spec.kind == "rectangle":
        shape = grid.lattice_shape
        nx, ny = shape[0] - 1, shape[1] - 1
        lid = grid.lattice_id
        seq, names = [], []
        for i in range(0, nx):
            seq.append(lid[i, 0]); names.append("bottom")
        for j in range(0, ny):
            seq.append(lid[nx, j]); names.append("right")
        for i in range(nx, 0, -1):
            seq.append(lid[i, ny]); names.append("top")
        for j in range(ny, 0, -1):
            seq.append(lid[0, j]); names.append("left")
        ids = np.asarray(seq)
        names = np.asarray(names)
    else:
        ids, names = _walk_boundary_cycle(grid)

    pts = grid.nodes[ids]
    nxt = np.roll(pts, -1, axis=0)
    prv = np.roll(pts, 1, axis=0)
    seg_next = np.linalg.norm(nxt - pts, axis=1)
    seg_prev = np.linalg.norm(pts - prv, axis=1)
    weights = 0.5 * (seg_next + seg_prev)
    arclength = np.concatenate([[0.0], np.cumsum(seg_next)[:-1]])

    if gamma == "full":
        mask = np.ones(ids.size, dtype=bool)
    elif isinstance(gamma, dict) and "edges" in gamma and names is not None:
        wanted = set(gamma["edges"])
        mask = np.isin(names, list(wanted))
        # relatively open subset: drop nodes shared with an unselected edge
        prev_name = np.roll(names, 1)
        for t in range(ids.size):
            if mask[t] and prev_name[t] not in wanted and names[t] in wanted:
                mask[t] = False
    else:
        raise GeometryViolation(f"bad gamma descriptor for perimeter: {gamma!r}")
    return BoundaryChart(grid=grid, node_ids=ids, weights=weights,
                         gamma_mask=mask, arclength=arclength)


def _walk_boundary_cycle(grid: Grid):
    """Order masked-union boundary nodes into one closed cycle."""
    bset = set(int(i) for i in grid.boundary_index)
    coords = {int(i): tuple(np.round(grid.nodes[i] / (grid.spacings[0] / 2)).astype(int))
              for i in grid.boundary_index}
    bypos = {v: k for k, v in coords.items()}
    steps = [(2, 0), (-2, 0), (0, 2), (0, -2)]

    start = min(bset, key=lambda i: (grid.nodes[i][1], grid.nodes[i][0]))
    cycle = [start]
    prev = None
    cur = start
    while True:
        p = coords[cur]
        nbrs = [bypos[(p[0] + dx, p[1] + dy)] for dx, dy in steps
                if (p[0] + dx, p[1] + dy) in bypos]
        nbrs = [n for n in nbrs if n != prev]
        if not nbrs:
            raise GeometryViolation("boundary walk dead-ends; domain too thin")
        nxt = nbrs[0] if len(nbrs) == 1 else max(nbrs, key=lambda i: tuple(grid.nodes[i]))
        if nxt == start:
            break
        cycle.append(nxt)
        prev, cur = cur, nxt
        if len(cycle) > len(bset):
            raise GeometryViolation("boundary is not a single cycle")
    ids = np.asarray(cycle)
    # orient counterclockwise
    pts = grid.nodes[ids]
    area2 = float(np.sum(pts[:, 0] * np.roll(pts[:, 1], -1)
                         - np.roll(pts[:, 0], -1) * pts[:, 1]))
    if area2 < 0:
        ids = ids[::-1]
    return ids, None


def _surface_chart(grid: Grid, gamma) -> BoundaryChart:
    ids = grid.boundary_index.copy()
    pts = grid.nodes[ids]
    lo = grid.origin
    hi = grid.origin + grid.spacings * (np.asarray(grid.lattice_shape) - 1)
    sp = grid.spacings

    # accumulate per-face area contributions (nodes on edges/corners get sums)
    weights = np.zeros(ids.size)
    for axis in range(3):
        for side, bound in ((0, lo[axis]), (1, hi[axis])):
            on_face = np.abs(pts[:, axis] - bound) < 1e-12
            if not np.any(on_face):
                continue
            area = np.ones(int(on_face.sum()))
            for t in range(3):
                if t == axis:
                    continue
                e = np.full(int(on_face.sum()), sp[t])
                at_lo = np.abs(pts[on_face, t] - lo[t]) < 1e-12
                at_hi = np.abs(pts[on_face, t] - hi[t]) < 1e-12
                e[at_lo | at_hi] = sp[t] / 2.0
                area *= e
            weights[on_face] += area

    if gamma == "full":
        mask = np.ones(ids.size, dtype=bool)
    elif isinstance(gamma, dict) and "face" in gamma:
        axis = {"x": 0, "y": 1, "z": 2}[gamma["face"][0]]
        bound = lo[axis] if gamma["face"].endswith("-") else hi[axis]
        mask = np.abs(pts[:, axis] - bound) < 1e-12
        # relatively open: drop the face rim
        for t in range(3):
            if t == axis:
                continue
            mask &= (pts[:, t] > lo[t] + 1e-12) & (pts[:, t] < hi[t] - 1e-12)
        if "extent" in gamma:
            elo, ehi = (np.asarray(v, float) for v in gamma["extent"])
            tang = [t for t in range(3) if t != axis]
            for d, t in enumerate(tang):
                mask &= (pts[:, t] > elo[d] - 1e-12) & (pts[:, t] < ehi[d] + 1e-12)
    else:
        raise GeometryViolation(f"bad gamma descriptor for box surface: {gamma!r}")
    return BoundaryChart(grid=grid, node_ids=ids, weights=weights, gamma_mask=mask)
