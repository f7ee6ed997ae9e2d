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

import math
import numbers
from dataclasses import dataclass, field
from functools import reduce
from typing import Optional

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import EmptyGamma, FeatureUnresolved, GeometryViolation

_TWO_PI = 2.0 * np.pi
# point pairs per block of a distance scan (512 kB of float64), so that the
# scan's memory does not grow with the number of points
PAIR_BLOCK = 1 << 16


# ---------------------------------------------------------------------------
# Domain specification
# ---------------------------------------------------------------------------

# The fields each kind of domain reads besides ``kind`` and ``gamma``
SHAPE_KEYS = {"disk": ("radius", "center"),
              "annulus": ("r_inner", "r_outer", "center"),
              "rectangle": ("corners",), "box": ("corners",),
              "masked_union": ("rectangles",)}
# The kinds whose inward level sets :meth:`DomainSpec.level_set` states: the
# domains a ball chain (:func:`helmlab.ucp.chain_propagate`) runs on
LEVEL_SET_KINDS = ("disk", "annulus", "rectangle")


# The sides of a rectangle and the faces of a box, as gamma names them
_EDGES = ("bottom", "right", "top", "left")
_FACES = ("x-", "x+", "y-", "y+", "z-", "z+")


def is_number(v) -> bool:
    """Whether ``v`` is a real number (a bool is none)."""
    return isinstance(v, numbers.Real) and not isinstance(v, (bool, np.bool_))


def _points(v, n: int, dim: int) -> bool:
    """Whether ``v`` is a sequence of ``n`` points of ``dim`` numbers each
    (any positive count where ``n`` is None)."""
    seq = (list, tuple, np.ndarray)
    return isinstance(v, seq) and len(v) == (n or len(v)) > 0 and all(
        isinstance(p, seq) and len(p) == dim and all(map(is_number, p))
        for p in v)


# The form of each shape field on a domain of dimension ``dim``: its test
# and what it must be
_FIELD_FORMS = {
    "radius": (lambda v, dim: is_number(v), "a number"),
    "r_inner": (lambda v, dim: is_number(v), "a number"),
    "r_outer": (lambda v, dim: is_number(v), "a number"),
    "center": (lambda v, dim: _points([v], 1, dim), "a point of {dim} numbers"),
    "corners": (lambda v, dim: _points(v, 2, dim),
                "a pair of points of {dim} numbers"),
    "rectangles": (lambda v, dim: isinstance(v, (list, tuple)) and len(v) > 0
                   and all(_points(pair, 2, dim) for pair in v),
                   "a non-empty list of corner pairs of {dim} numbers"),
}


def check_gamma(kind: str, gamma) -> None:
    """The one statement of the gamma forms: ``"full"`` on every kind,
    ``{"angles": [(a, b), ...]}`` (open arcs) on a disk or an annulus,
    ``{"edges": [...]}`` (sides named in :data:`_EDGES`) on a rectangle and
    ``{"face": "z-"}`` (a name of :data:`_FACES`), optionally with
    ``"extent": [lo, hi]`` (two points in the face's tangential axes), on a
    box.  Raises :class:`GeometryViolation` on any other descriptor."""
    if isinstance(gamma, str) and gamma == "full":
        return
    g = gamma if isinstance(gamma, dict) else {}
    edges = g.get("edges")
    if not (kind in ("disk", "annulus") and set(g) == {"angles"}
            and _points(g["angles"], None, 2)
            or kind == "rectangle" and set(g) == {"edges"}
            and isinstance(edges, (list, tuple)) and len(edges) > 0
            and all(e in _EDGES for e in edges)
            or kind == "box" and set(g) - {"extent"} == {"face"}
            and g["face"] in _FACES
            and _points(g.get("extent", ((0, 0), (0, 0))), 2, 2)):
        raise GeometryViolation(f"bad gamma descriptor for a {kind}: "
                                f"{gamma!r}")


def _ordered(pair) -> tuple:
    """A corner pair as (lo, hi), tuples of floats with lo <= hi per axis."""
    return tuple(tuple(map(float, map(f, *pair))) for f in (min, max))


@dataclass(frozen=True)
class DomainSpec:
    """Declarative description of a computational domain, and the one
    statement of its shape: :attr:`width`, :meth:`depth`, :meth:`level_set`.

    ``kind`` is one of ``disk``, ``annulus``, ``rectangle``, ``masked_union``,
    ``box``; it reads the fields of :data:`SHAPE_KEYS` and fixes ``dim``.
    Only a disk and an annulus read ``center``; every other kind keeps the
    origin (0, 0), which may lie outside it, as the centre of its modes
    (:func:`helmlab.modes.mode_field`).
    Each field it reads has the form of :data:`_FIELD_FORMS`, and
    sequences become tuples, each corner pair ordered lo <= hi.  ``gamma``
    describes the sub-boundary used for data supports, in a form of its
    kind (:func:`check_gamma`).  A malformed field raises
    :class:`GeometryViolation`.
    """

    kind: str
    dim: int = field(init=False)
    radius: float = 0.0
    center: tuple = (0.0, 0.0)
    r_inner: float = 0.0
    r_outer: float = 0.0
    corners: tuple = ()            # ((x0, y0[, z0]), (x1, y1[, z1]))
    rectangles: tuple = ()         # masked_union: tuple of corner pairs
    gamma: object = "full"

    def __post_init__(self):
        if self.kind not in SHAPE_KEYS:
            raise GeometryViolation(f"unknown domain kind {self.kind!r}")
        dim = 3 if self.kind == "box" else 2
        for key in SHAPE_KEYS[self.kind]:
            test, noun = _FIELD_FORMS[key]
            if not test(getattr(self, key), dim):
                raise GeometryViolation(f"{self.kind} {key} must be "
                                        f"{noun.format(dim=dim)}")
        if self.kind == "disk" and self.radius <= 0:
            raise GeometryViolation("disk radius must be positive")
        if self.kind == "annulus":
            if self.r_inner <= 0 or self.r_outer <= 0:
                raise GeometryViolation("annulus radii must be positive")
            if self.r_inner >= self.r_outer:
                raise GeometryViolation("annulus requires r_inner < r_outer")
        check_gamma(self.kind, self.gamma)
        put = object.__setattr__
        put(self, "dim", dim)
        put(self, "center", tuple(self.center))
        put(self, "corners", _ordered(self.corners) if self.corners else ())
        put(self, "rectangles", tuple(map(_ordered, self.rectangles)))

    @property
    def width(self) -> float:
        """Smallest extent: 2R on a disk, r_outer - r_inner on an annulus,
        the shortest side of a rectangle, a box or a union rectangle."""
        if self.kind == "disk":
            return 2 * self.radius
        if self.kind == "annulus":
            return self.r_outer - self.r_inner
        return min(b - a for lo, hi in self.rectangles or (self.corners,)
                   for a, b in zip(lo, hi))

    def depth(self, pts: np.ndarray) -> Optional[np.ndarray]:
        """Analytic distance to the boundary of each row of ``pts``; None on
        a masked union (:func:`helmlab.ucp.boundary_distance`)."""
        if self.kind == "masked_union":
            return None
        if self.corners:
            lo, hi = (np.asarray(c, float) for c in self.corners)
            return np.min(np.minimum(pts - lo, hi - pts), axis=1)
        r = np.linalg.norm(pts - np.asarray(self.center), axis=1)
        if self.kind == "disk":
            return self.radius - r
        return np.minimum(self.r_outer - r, r - self.r_inner)

    def level_set(self, delta: float) -> np.ndarray:
        """Points of the inward level set {depth = delta} spaced <= delta/9:
        circles about the centre, or a rectangle's inset perimeter; a
        disk's centre and a rectangle's midpoint where the set is empty."""
        if self.kind not in LEVEL_SET_KINDS:
            raise GeometryViolation(
                f"chain supports {', '.join(LEVEL_SET_KINDS)} domains")
        step = delta / 9.0
        if self.kind == "rectangle":
            lo = np.asarray(self.corners[0], float) + delta
            hi = np.asarray(self.corners[1], float) - delta
            if np.any(hi - lo <= 0):
                return (0.5 * (lo + hi))[None, :]
            xs = np.arange(lo[0], hi[0] + step / 2, step)
            ys = np.arange(lo[1], hi[1] + step / 2, step)
            return np.vstack([np.column_stack([xs, np.full(xs.size, lo[1])]),
                              np.column_stack([np.full(ys.size, hi[0]), ys]),
                              np.column_stack([xs, np.full(xs.size, hi[1])]),
                              np.column_stack([np.full(ys.size, lo[0]), ys])])
        c = np.asarray(self.center, float)
        if self.kind == "disk":
            if self.radius - delta <= 0:
                return c[None, :]
            rings = (self.radius - delta,)
        else:
            rings = [r for r in (self.r_inner + delta, self.r_outer - delta)
                     if self.r_inner < r < self.r_outer]
        pts = []
        for r in rings:
            n = max(int(np.ceil(2 * np.pi * r / step)), 6)
            th = np.arange(n) * 2 * np.pi / n
            pts.append(np.column_stack([c[0] + r * np.cos(th),
                                        c[1] + r * np.sin(th)]))
        return np.vstack(pts)


# ---------------------------------------------------------------------------
# Grid
# ---------------------------------------------------------------------------

@dataclass
class Grid:
    """Structured discretization of a :class:`DomainSpec`.

    ``edges`` is a triple of arrays ``(i, j, c)``: node pairs of the flux
    stencil with geometric coupling ``c`` (face measure / node distance).
    ``quad_weights`` are midpoint-cell measures, halved at boundary nodes.
    A grid keeps in ``_held`` (:func:`held`) what is built from it once:
    its one boundary chart, for ``spec.gamma``, its flux stiffness
    (:func:`helmlab.assembly.stiffness`), the three-ball masks of each
    centre and radius (:func:`helmlab.ucp.three_ball_ratio`), its node
    radius (:func:`node_radius`) and the gradient plan of each region
    (:func:`helmlab.fields.masked_gradient`).
    """

    spec: DomainSpec
    topology: str                       # 'polar' | 'cartesian'
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
    _held: dict = field(default_factory=dict, repr=False)   # by :func:`held`

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
        """Interior and boundary ids partition the nodes (each id counted
        once over both), and every quadrature weight is positive."""
        n = self.n_nodes
        ids = np.concatenate([self.interior_index, self.boundary_index])
        if ids.size != n or np.any(np.bincount(ids, minlength=n) != 1):
            raise GeometryViolation("interior/boundary ids do not partition "
                                    "the nodes")
        if np.any(self.quad_weights <= 0):
            raise GeometryViolation("non-positive quadrature weight")


def held(owner, key, build):
    """The value ``build()`` held on ``owner``, a :class:`Grid` or a
    :class:`BoundaryChart`, under ``key``: built on the first call, and the
    same object on every later one.  Every array in it is made read-only
    (an ndarray, the arrays of nested tuples or lists, a CSR matrix's
    ``data``, ``indices`` and ``indptr``); any other object, such as a
    chart, is kept as it is."""
    if key not in owner._held:
        owner._held[key] = build()
        _freeze(owner._held[key])
    return owner._held[key]


def _freeze(value) -> None:
    if isinstance(value, np.ndarray):
        value.flags.writeable = False
    elif isinstance(value, (tuple, list)):
        for v in value:
            _freeze(v)
    elif hasattr(value, "indptr"):      # a CSR matrix
        _freeze((value.data, value.indices, value.indptr))


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

    # the outer ring is boundary, and so is the inner ring of an annulus
    on_boundary = np.arange(n_rings) == n_rings - 1
    on_boundary[0] = inner_is_boundary

    # radial cell extent per ring; boundary rings carry half cells
    ext = np.where(on_boundary, dr / 2.0, dr)
    weights = (radii * ext)[:, None] * dtheta * np.ones((1, n_theta))

    # flux edges: radial ones between consecutive rings (face at the mid
    # radius), then angular ones around each ring
    c_radial = 0.5 * (radii[:-1] + radii[1:]) * dtheta / dr
    c_angular = ext / (radii * dtheta)

    grid = Grid(
        spec=spec, topology="polar", nodes=nodes,
        interior_index=lattice_id[~on_boundary].ravel(),
        boundary_index=lattice_id[on_boundary].ravel(),
        quad_weights=weights.ravel(),
        edges=(np.concatenate([lattice_id[:-1].ravel(), lattice_id.ravel()]),
               np.concatenate([lattice_id[1:].ravel(),
                               np.roll(lattice_id, -1, axis=1).ravel()]),
               np.repeat(np.concatenate([c_radial, c_angular]), n_theta)),
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
    lo, hi = (np.asarray(c, dtype=float) for c in spec.corners)
    dim = lo.size

    axes, spacings = zip(*(_axis_nodes(a, b, h) for a, b in zip(lo, hi)))
    spacings = np.asarray(spacings)
    shape = tuple(len(xs) for xs in axes)

    mesh = np.meshgrid(*axes, indexing="ij")
    nodes = np.column_stack([m.ravel() for m in mesh])
    lattice_id = np.arange(nodes.shape[0]).reshape(shape)

    inner = np.zeros(shape, dtype=bool)
    inner[(slice(1, -1),) * dim] = True

    # per-axis cell extents, halved at the two ends, as an open mesh
    exts = np.ix_(*[np.r_[s / 2.0, np.full(n - 2, s), s / 2.0]
                    for n, s in zip(shape, spacings)])

    ei, ej, ec = [], [], []
    for d in range(dim):
        sl_a = (slice(None),) * d + (slice(0, -1),)
        sl_b = (slice(None),) * d + (slice(1, None),)
        # face measure = product of transverse extents (same for both nodes
        # on axis-aligned blocks)
        face = np.broadcast_to(reduce(np.multiply, exts[:d] + exts[d + 1:]),
                               shape)
        ei.append(lattice_id[sl_a].ravel())
        ej.append(lattice_id[sl_b].ravel())
        ec.append(face[sl_a].ravel() / spacings[d])

    grid = Grid(
        spec=spec, topology="cartesian", nodes=nodes,
        interior_index=lattice_id[inner], boundary_index=lattice_id[~inner],
        quad_weights=reduce(np.multiply, exts).ravel(),
        edges=(np.concatenate(ei), np.concatenate(ej), np.concatenate(ec)),
        lattice_shape=shape, lattice_id=lattice_id,
        origin=lo, spacings=spacings,
    )
    grid.validate()
    return grid


def _build_masked_union(spec: DomainSpec, h: float) -> Grid:
    rects = [(np.asarray(a, float), np.asarray(b, float)) for a, b in spec.rectangles]
    lo = np.min([a for a, _ in rects], axis=0)
    hi = np.max([b for _, b in rects], axis=0)

    # all rectangle corners must sit on a common h-lattice anchored at lo
    for a, b in rects:
        for p in (a, b):
            frac = (p - lo) / h
            if np.max(np.abs(frac - np.round(frac))) > 1e-9:
                raise FeatureUnresolved(
                    "masked_union rectangle corners must align with the grid spacing")

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
    for axis, tang in ((0, np.array([0.0, h / 4])), (1, np.array([h / 4, 0.0]))):
        sl_a = (slice(None),) * axis + (slice(0, -1),)
        sl_b = (slice(None),) * axis + (slice(1, None),)
        ok = kept[sl_a] & kept[sl_b]
        a_ids = lattice_id[sl_a][ok]
        b_ids = lattice_id[sl_b][ok]
        mid = 0.5 * (pts[sl_a][ok] + pts[sl_b][ok])
        face = (h / 2) * (in_closure(mid + tang).astype(float)
                          + in_closure(mid - tang).astype(float))
        ei.append(a_ids); ej.append(b_ids); ec.append(face / h)

    grid = Grid(
        spec=spec, topology="cartesian", nodes=nodes,
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
    :class:`FeatureUnresolved` when fewer than 8 layers span the spec's
    :attr:`~DomainSpec.width`.
    """
    if h_target <= 0:
        raise GeometryViolation("h_target must be positive")
    if spec.width / h_target < 8 - 1e-12:
        raise FeatureUnresolved(f"width {spec.width:g} spans fewer than 8 "
                                f"layers at h={h_target:g}")
    if spec.kind in ("disk", "annulus"):
        return _build_polar(spec, h_target)
    if spec.kind == "masked_union":
        return _build_masked_union(spec, h_target)
    return _build_cartesian_block(spec, h_target)


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


def node_radius(grid: Grid) -> np.ndarray:
    """|x - c| at every node, c the domain centre of a polar grid and the
    origin of a cartesian one; computed once per grid and held read-only on
    it."""
    c = grid.spec.center if grid.topology == "polar" else np.zeros(grid.dim)
    return held(grid, "node_radius", lambda: np.linalg.norm(
        grid.nodes - np.asarray(c, dtype=float), axis=1))


def annulus_mask(grid: Grid, r_lo: float, r_hi: float) -> np.ndarray:
    """Nodes with r_lo <= |x - c| <= r_hi, c as in :func:`node_radius`."""
    d = node_radius(grid)
    return (d >= r_lo - 1e-12) & (d <= r_hi + 1e-12)


def nearest_distance(points: np.ndarray, sites: np.ndarray) -> np.ndarray:
    """Distance from each row of ``points`` to its nearest row of ``sites``:
    the minimum over the sites of sqrt(sum_i d_i^2), the squares summed in
    coordinate order, which gives the bits of a KD-tree query.  The exact
    scan runs over blocks of at most :data:`PAIR_BLOCK` point--site pairs
    (one point per block where the sites alone exceed it)."""
    rows = max(1, PAIR_BLOCK // sites.shape[0])
    out = np.empty(points.shape[0])
    for lo in range(0, points.shape[0], rows):
        block = points[lo:lo + rows]
        sq = np.zeros((block.shape[0], sites.shape[0]))
        for i in range(points.shape[1]):
            d = block[:, i, None] - sites[:, i]
            sq += d * d
        out[lo:lo + rows] = np.sqrt(sq.min(axis=1))
    return out


def check_nested_separation(grid: Grid, inner_mask: np.ndarray,
                            boundary_ids: np.ndarray) -> None:
    """Raise :class:`GeometryViolation` unless an inner mask lies at least
    four grid layers from the nodes ``boundary_ids``, measured by the
    blocked exact scan of :func:`nearest_distance`; nested configurations
    need a strictly positive separation."""
    if not np.any(inner_mask):
        raise GeometryViolation("empty inner mask")
    sep = float(nearest_distance(grid.nodes[inner_mask],
                                 grid.nodes[boundary_ids]).min())
    min_sep = 4 * grid.max_spacing()
    if sep < min_sep:
        raise GeometryViolation(
            f"nested separation {sep:g} below 4 layers ({min_sep:g})")


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
    used for supported traces; gamma is indexed in chart order
    (:meth:`gamma_positions`) by every map that reads it.  Every
    H^(+-1/2) trace quantity reads the Gram blocks of :meth:`h_half_gram`:
    on a uniform closed curve from the circulant :meth:`symbol`, on every
    other chart by sparse quadrature with a Schur complement onto the
    block's positions, each block held on the chart (:func:`held`).  The
    inverse square root of each block, shared by the dual norms, the dense
    Runge SVD and the DtN distance (:func:`helmlab.fields.gram_inverse_sqrt`),
    is held the same way, so a chart holds one Gram block and one
    G^(-1/2) per gamma.  The random data of ``lab solve`` take one sparse
    solve with W + L (:meth:`_surface_stiffness`); no chart builds its
    Laplace--Beltrami eigenbasis.
    """

    grid: Grid
    node_ids: np.ndarray
    weights: np.ndarray
    gamma_mask: np.ndarray
    _held: dict = field(default_factory=dict, repr=False)   # by :func:`held`

    @property
    def n(self) -> int:
        return self.node_ids.size

    def gamma_ids(self) -> np.ndarray:
        return self.node_ids[self.gamma_mask]

    def gamma_positions(self) -> np.ndarray:
        """Chart positions of gamma, in chart order: the one index of gamma
        that every gamma-supported map and Gram read uses."""
        return np.flatnonzero(self.gamma_mask)

    def _circulant(self) -> bool:
        """Whether the chart is a uniform closed curve."""
        w = self.weights
        return self.grid.dim == 2 and np.allclose(w, w[0], rtol=1e-12, atol=0)

    def _surface_stiffness(self):
        """Boundary graph Laplacian L as a CSR matrix: zero row sums and one
        negative coupling per boundary edge of the grid, 1 / (edge length)
        on a curve (the arc length on a circle) and the tangential face
        measure over the squared length on a box surface."""
        import scipy.sparse as sp
        pos = np.full(self.grid.n_nodes, -1)
        pos[self.node_ids] = np.arange(self.n)
        ei, ej, _ = self.grid.edges
        keep = (pos[ei] >= 0) & (pos[ej] >= 0)
        ei, ej = ei[keep], ej[keep]
        a, b = pos[ei], pos[ej]
        dist = np.linalg.norm(self.grid.nodes[ei] - self.grid.nodes[ej], axis=1)
        if self.grid.topology == "polar":
            dist = self.weights[a]      # the arc r dtheta, not the chord
        if self.grid.dim == 2:
            c = 1.0 / dist
        else:
            # tangential face measure: smaller of the two node areas / dist
            c = np.minimum(self.weights[a], self.weights[b]) / dist ** 2
        # one unbuffered add at a, then at b, edge by edge, so each diagonal
        # sums its couplings in edge-list order
        diag = np.zeros(self.n)
        np.add.at(diag, np.column_stack([a, b]).ravel(),
                  np.column_stack([c, c]).ravel())
        at = np.arange(self.n)
        return sp.csr_matrix((np.concatenate([diag, -c, -c]),
                              (np.concatenate([at, a, b]),
                               np.concatenate([at, b, a]))),
                             shape=(self.n, self.n))

    # -- the H^(1/2) Gram ------------------------------------------------------

    def symbol(self) -> Optional[np.ndarray]:
        """Eigenvalues g_m = s (1 + lambda_m)^(1/2), m = 0 .. n/2, of the
        circulant H^(1/2) Gram of a uniform closed curve of spacing s, or
        None on every other chart.  lambda_m = (2 - 2 cos(2 pi m / n)) / s^2
        are the eigenvalues of W^-1 L: the cos and sin waves of order m."""
        if not self._circulant():
            return None
        m, s = np.arange(self.n // 2 + 1), self.weights[0]
        lam = (2.0 - 2.0 * np.cos(_TWO_PI * m / self.n)) / s ** 2
        return s * np.sqrt(1.0 + lam)

    def h_half_gram(self, ids: np.ndarray) -> np.ndarray:
        """Gram matrix of nodal values in the (1+lambda)^(1/2) trace norm on
        the chart positions ``ids``, as a fresh writable array.

        The Gram is W (W^-1 (W + L))^(1/2), W the diagonal of weights and L
        the boundary stiffness.  On a uniform closed curve (every polar
        chart, masked-union walks, perimeters of equal spacings) it is
        circulant: the block gathers the inverse DFT of :meth:`symbol` at
        the lags of ``ids``, each taken the shorter way round so that it is
        exactly symmetric.  Every other chart (box surfaces, perimeters with
        hx != hy) computes only the ``ids`` block, by sparse rational
        quadrature to 1e-15 relative error (:func:`_sqrt_pencil_block`):
        each shift eliminates the other chart nodes by a Schur complement
        onto ``ids`` and solves only the columns of the rest nodes that
        couple to ``ids``, with no dense surface matrix.  The block is
        held on the chart (:func:`held`)."""
        g = self.symbol()
        if g is not None:
            n = self.n
            lag = np.abs(np.arange(1 - n, n))
            c = np.fft.irfft(g, n)[np.minimum(lag, n - lag)]  # lags 1-n .. n-1
            # row i of the circulant is the window of c at the lags j - i
            return sliding_window_view(c, n)[::-1][np.ix_(ids, ids)]
        return held(self, ("gram", ids.tobytes()), lambda: _sqrt_pencil_block(
            self._surface_stiffness(), self.weights, ids)).copy()


def _pencil_bound(L, w: np.ndarray) -> float:
    """Gershgorin bound M on the spectrum of W^-1 (W + L) for a graph
    Laplacian L: row i of W^-1 L has centre L_ii / w_i and radius
    L_ii / w_i."""
    return 1.0 + float(np.max(2.0 * L.diagonal() / w))


def _sqrt_pencil_block(L, w: np.ndarray, ids: np.ndarray) -> np.ndarray:
    """Block ``ids`` of W (W^-1 B)^(1/2), B = W + L, for a sparse graph
    Laplacian L and W = diag(w), by the real-shift rational quadrature of
    Hale, Higham & Trefethen (SIAM J. Numer. Anal. 46, 2008, method 3).

    The spectrum of W^-1 B lies in [1, M] (L is positive semidefinite; M
    from :func:`_pencil_bound`).  With sc, dn, cn the Jacobi functions of
    parameter 1 - 1/M and K' its quarter period,

        (W^-1 B)^(-1/2) = (2/pi) int_0^K' (sc(v)^2 + W^-1 B)^-1 dn/cn^2 dv,

    and the midpoint rule at v_j = (j - 1/2) K'/N converges like
    exp(-2 pi^2 N / (ln M + 3)); N is chosen for 1e-15.  So

        G = (2 K'/(pi N)) sum_j a_j B (B + sigma_j W)^-1 W,

    sigma_j = sc(v_j)^2 and a_j = dn(v_j)/cn(v_j)^2, real and positive.
    B[ids] reads (B + sigma W)^-1 W on the rows ``ids`` and on the border:
    the other chart nodes (the rest) that couple to ``ids``.  So each shift
    eliminates the rest by a Schur complement onto ``ids``: one factor of
    the rest block A_rr solves its border columns, and the ids x ids block
    A_ii - C^T D C, sparse but for the dense border correction (D the border
    block of A_rr^-1, C the border rows of A_ri), is factored and solves the
    ``ids`` columns of W; the border rows follow as -D C X.  On the unit
    cube with gamma the face z- that is 52 border columns on 1,009 nodes
    (h = 1/14) or 108 on 3,977 (h = 1/28), where the whole surface would
    solve 169 or 729 columns on 1,178 or 4,706 nodes.  When ``ids`` is the
    whole chart nothing is eliminated and the block is the whole pencil.
    Every factor is :func:`helmlab.assembly.sparse_lu` and every solve is
    checked by :func:`helmlab.assembly.verified_solve`.
    """
    import scipy.sparse as sp
    from .assembly import sparse_lu, verified_solve
    M = _pencil_bound(L, w)
    N = math.ceil((math.log(M) + 3.0) * math.log(1e15) / (2.0 * math.pi ** 2))
    sn, cn, dn, Kp = _ellipj((np.arange(N) + 0.5) / N, 1.0 - 1.0 / M)
    B = sp.diags(w, format="csr") + L
    B_i = B[ids]
    rest = np.setdiff1d(np.arange(w.size), ids)
    # border: the rest nodes that B[ids] reads; inner: the ids they couple to
    border = np.intersect1d(B_i.indices, rest)
    at_border = np.searchsorted(rest, border)
    C = B[border][:, ids].toarray()
    inner = np.flatnonzero(C.any(axis=0))
    C = C[:, inner]
    pencil_r = _shifted_pencil(B[rest][:, rest], w[rest], np.arange(0))
    pencil_i = _shifted_pencil(B_i[:, ids], w[ids], inner)
    e_border = np.zeros((rest.size, border.size))
    e_border[at_border, np.arange(border.size)] = 1.0
    rhs = np.diag(w[ids])
    S = np.zeros((ids.size + border.size, ids.size))
    DC = C      # D C when the border is empty
    for sigma, a in zip((sn / cn) ** 2, dn / cn ** 2):
        if border.size:
            A = pencil_r(sigma, ())
            DC = verified_solve(A, sparse_lu(A), e_border)[at_border] @ C
        A = pencil_i(sigma, C.T @ DC)
        X = verified_solve(A, sparse_lu(A), rhs)
        S[:ids.size] += a * X
        S[ids.size:] -= a * (DC @ X[inner])
    G = (2.0 * Kp / (math.pi * N)) * (B_i[:, np.r_[ids, border]] @ S)
    return 0.5 * (G + G.T)


def _shifted_pencil(B, w: np.ndarray, inner: np.ndarray):
    """The map (sigma, M) -> B + sigma diag(w) - M as a CSC matrix, for a
    square sparse block B and a dense M on the positions ``inner`` x
    ``inner``.  The pattern is built once; each call fills its values."""
    import scipy.sparse as sp
    n = w.size
    B = B.tocsc()
    key_b = np.repeat(np.arange(n), np.diff(B.indptr)) * n + B.indices
    key_m = (inner * n + inner[:, None]).ravel()     # M[p, q] at column q
    keys = np.union1d(key_b, key_m)
    indices, indptr = keys % n, np.searchsorted(keys, np.arange(n + 1) * n)
    at_b, at_d, at_m = (np.searchsorted(keys, k)
                        for k in (key_b, np.arange(n) * (n + 1), key_m))

    def pencil(sigma: float, M) -> sp.csc_matrix:
        data = np.zeros(keys.size)
        data[at_b] = B.data
        data[at_d] += sigma * w
        data[at_m] -= np.ravel(M)
        return sp.csc_matrix((data, indices, indptr), shape=(n, n))
    return pencil


def _ellipj(t: np.ndarray, m: float) -> tuple:
    """Jacobi ``(sn, cn, dn)`` of parameter 0 < m < 1 at u = t K(m), and
    K(m), by the arithmetic-geometric mean and the descending Landen
    recurrence (Abramowitz & Stegun 16.4, 17.6)."""
    a, b, c = [1.0], math.sqrt(1.0 - m), [math.sqrt(m)]
    while abs(c[-1] / a[-1]) > 2.0 ** -53:
        a.append((a[-1] + b) / 2.0)
        c.append((a[-2] - b) / 2.0)
        b = math.sqrt(a[-2] * b)
    K = math.pi / (2.0 * a[-1])
    phi = 2.0 ** (len(a) - 1) * a[-1] * (t * K)
    prev = phi
    for ai, ci in zip(a[:0:-1], c[:0:-1]):
        prev, phi = phi, (np.arcsin(ci * np.sin(phi) / ai) + phi) / 2.0
    cn = np.cos(phi)
    return np.sin(phi), cn, cn / np.cos(prev - phi), K


def boundary_chart(grid: Grid) -> BoundaryChart:
    """Chart of the full outer boundary with the subset ``grid.spec.gamma``
    marked, built once per grid.  Raises :class:`EmptyGamma` when no node
    falls in the subset."""
    return held(grid, "chart", lambda: _chart(grid))


def _chart(grid: Grid) -> BoundaryChart:
    gamma = grid.spec.gamma
    if grid.topology == "polar":
        chart = _polar_chart(grid, gamma)
    elif grid.dim == 2:
        chart = _perimeter_chart(grid, gamma)
    else:
        chart = _surface_chart(grid, gamma)
    if not np.any(chart.gamma_mask):
        raise EmptyGamma(f"gamma descriptor {gamma!r} marks no node")
    return chart


def _polar_chart(grid: Grid, gamma) -> BoundaryChart:
    n_rings, n_theta = grid.lattice_shape
    ids = grid.lattice_id[n_rings - 1].copy()
    r_out = float(grid.radii[-1])
    weights = np.full(n_theta, r_out * grid.dtheta)
    if gamma == "full":
        mask = np.ones(n_theta, dtype=bool)
    else:
        # one column per arc (a, b), open at both ends
        a, b = np.asarray(gamma["angles"], dtype=float).T
        th = np.mod(grid.thetas[:, None] - a, _TWO_PI)
        mask = np.any((th > 1e-12) & (th < np.mod(b - a, _TWO_PI) - 1e-12),
                      axis=1)
    return BoundaryChart(grid=grid, node_ids=ids, weights=weights,
                         gamma_mask=mask)


def _perimeter_chart(grid: Grid, gamma) -> BoundaryChart:
    if grid.spec.kind == "rectangle":
        # counterclockwise from the corner at lo, each side without its end
        lid = grid.lattice_id
        ids = np.concatenate([lid[:-1, 0], lid[-1, :-1], lid[:0:-1, -1],
                              lid[0, :0:-1]])
        nx, ny = lid.shape[0] - 1, lid.shape[1] - 1
        names = np.repeat(_EDGES, [nx, ny, nx, ny])
    else:
        ids, names = _walk_boundary_cycle(grid)

    pts = grid.nodes[ids]
    nxt = np.roll(pts, -1, axis=0)
    prv = np.roll(pts, 1, axis=0)
    seg_next = np.linalg.norm(nxt - pts, axis=1)
    seg_prev = np.linalg.norm(pts - prv, axis=1)
    weights = 0.5 * (seg_next + seg_prev)

    if gamma == "full":
        mask = np.ones(ids.size, dtype=bool)
    else:
        mask = np.isin(names, list(gamma["edges"]))
        # relatively open subset: drop the first node of a selected edge
        # when the edge before it is unselected (the two share that corner)
        mask &= np.roll(mask, 1)
    return BoundaryChart(grid=grid, node_ids=ids, weights=weights,
                         gamma_mask=mask)


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

    # per node and axis: on the lo face, on the hi face, on either
    at_lo = np.abs(pts - lo) < 1e-12
    at_hi = np.abs(pts - hi) < 1e-12
    on_face = at_lo | at_hi
    # a face cell is the product of its two tangential extents, halved on
    # the face rim; nodes on edges and corners sum the areas of their faces
    e = np.where(on_face, sp / 2.0, sp)
    area = np.where(on_face, e[:, [1, 0, 0]] * e[:, [2, 2, 1]], 0.0)
    weights = area[:, 0] + area[:, 1] + area[:, 2]

    if gamma == "full":
        mask = np.ones(ids.size, dtype=bool)
    else:
        axis = "xyz".index(gamma["face"][0])
        tang = [t for t in range(3) if t != axis]
        # relatively open: drop the face rim
        mask = ((at_lo if gamma["face"].endswith("-") else at_hi)[:, axis]
                & ~on_face[:, tang].any(axis=1))
        if "extent" in gamma:
            elo, ehi = (np.asarray(v, float) for v in gamma["extent"])
            mask &= np.all((pts[:, tang] > elo - 1e-12)
                           & (pts[:, tang] < ehi + 1e-12), axis=1)
    return BoundaryChart(grid=grid, node_ids=ids, weights=weights, gamma_mask=mask)
