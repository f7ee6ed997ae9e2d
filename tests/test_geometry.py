import dataclasses
import math

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.spatial import cKDTree
from scipy.special import ellipj, ellipk

from helmlab.assembly import stiffness
from helmlab.errors import EmptyGamma, FeatureUnresolved, GeometryViolation
from helmlab.fields import _gradient_plan, gram_inverse_sqrt
from helmlab.geometry import (DomainSpec, _ellipj, _pencil_bound,
                              _sqrt_pencil_block, ball_mask, boundary_chart,
                              build_grid, check_nested_separation,
                              mask_connected, nearest_distance, node_radius)
from helmlab.ucp import _triple_masks

from helpers import (domain_area, modal, modal_h_half_gram,
                     sqrt_pencil_block_reference)


def test_disk_lattice_matches_spacing_rule():
    g = build_grid(DomainSpec("disk", radius=1.0), 0.1)
    n_rings, n_theta = g.lattice_shape
    assert n_rings == 11            # 10 interior rings + boundary ring
    assert n_theta == 63            # ceil(2 pi / 0.1)
    # boundary nodes exactly on the circle
    r = np.linalg.norm(g.nodes[g.boundary_index], axis=1)
    assert np.max(np.abs(r - 1.0)) < 1e-14


def test_annulus_gamma_full_outer_circle():
    g = build_grid(DomainSpec("annulus", r_inner=0.5, r_outer=2.0), 0.1)
    chart = boundary_chart(g)
    r = np.linalg.norm(g.nodes[chart.node_ids], axis=1)
    assert np.allclose(r, 2.0)
    assert chart.gamma_mask.all()
    # the inner circle is boundary but not charted
    rb = np.linalg.norm(g.nodes[g.boundary_index], axis=1)
    assert np.isclose(rb.min(), 0.5)


@pytest.mark.parametrize("spec,c", [
    (DomainSpec("annulus", r_inner=0.5, r_outer=2.0, center=(0.3, -1)),
     (0.3, -1.0)),
    (DomainSpec("rectangle", corners=((-1, 0), (1, 2))), (0.0, 0.0))])
def test_node_radius_is_held_once(spec, c):
    # measured from the centre of a polar grid and the origin of a
    # cartesian one, with the bits of a fresh norm
    g = build_grid(spec, 0.1)
    r = node_radius(g)
    assert r is node_radius(g) and not r.flags.writeable
    assert np.array_equal(r, np.linalg.norm(g.nodes - np.asarray(c), axis=1))


def test_rectangle_interior_count():
    g = build_grid(DomainSpec("rectangle", corners=((0, 0), (np.pi, np.pi))),
                   np.pi / 64)
    assert g.interior_index.size == 63 * 63


def test_mask_partition_and_weights():
    for spec in (DomainSpec("disk", radius=1.0),
                 DomainSpec("annulus", r_inner=0.5, r_outer=2.0),
                 DomainSpec("rectangle", corners=((0, 0), (2, 1)))):
        g = build_grid(spec, 0.08)
        assert g.interior_index.size + g.boundary_index.size == g.n_nodes
        assert np.all(g.quad_weights > 0)


def test_area_quadrature_refinement():
    # polar boundary half-cells leave an O(h^2) area defect; ratio ~ 4
    spec = DomainSpec("disk", radius=1.0)
    errs = [abs(np.sum(build_grid(spec, h).quad_weights) - domain_area(spec))
            for h in (0.1, 0.05)]
    assert 3.5 <= errs[0] / errs[1] <= 4.5
    # cartesian rectangles tile exactly
    spec_r = DomainSpec("rectangle", corners=((0, 0), (1.5, 1.0)))
    g = build_grid(spec_r, 0.05)
    assert abs(np.sum(g.quad_weights) - 1.5) < 1e-12


def test_interior_weights_converge_to_area():
    spec = DomainSpec("annulus", r_inner=0.5, r_outer=2.0)
    errs = [abs(np.sum(build_grid(spec, h).quad_weights[
        build_grid(spec, h).interior_index]) - domain_area(spec))
        for h in (0.1, 0.05)]
    assert errs[1] < errs[0]


def test_node_count_scale():
    h = 0.1
    g = build_grid(DomainSpec("rectangle", corners=((0, 0), (2, 2))), h)
    assert g.n_nodes <= 2.0 * (4.0 / h ** 2) * 1.15
    # polar grids run at about twice the cartesian density by construction
    gd = build_grid(DomainSpec("disk", radius=1.0), h)
    assert gd.n_nodes <= 2.5 * (np.pi / h ** 2)


def test_chart_weights_and_gamma_arc():
    g = build_grid(DomainSpec("disk", radius=1.0), 0.1)
    chart = boundary_chart(g)
    assert abs(chart.weights.sum() - 2 * np.pi) < 1e-12
    half = boundary_chart(build_grid(DomainSpec(
        "disk", radius=1.0, gamma={"angles": [(0.0, np.pi)]}), 0.1))
    frac = half.gamma_mask.mean()
    assert 0.4 < frac < 0.6


def test_chart_rectangle_edges():
    g = build_grid(DomainSpec("rectangle", corners=((0, 0), (1, 1)),
                              gamma={"edges": ["bottom"]}), 1 / 16)
    chart = boundary_chart(g)
    pts = g.nodes[chart.gamma_ids()]
    assert np.allclose(pts[:, 1], 0.0)
    assert abs(chart.weights.sum() - 4.0) < 1e-12


def test_empty_gamma_raises():
    g = build_grid(DomainSpec("disk", radius=1.0,
                              gamma={"angles": [(1.0, 1.0 + 1e-9)]}), 0.1)
    with pytest.raises(EmptyGamma):
        boundary_chart(g)


def test_feature_unresolved():
    with pytest.raises(FeatureUnresolved):
        build_grid(DomainSpec("annulus", r_inner=1.0, r_outer=1.2), 0.1)


def test_nested_separation_guard():
    g = build_grid(DomainSpec("disk", radius=1.0), 0.05)
    with pytest.raises(GeometryViolation):
        check_nested_separation(g, ball_mask(g, (0, 0), 0.95),
                                g.boundary_index)
    inner = ball_mask(g, (0, 0), 0.5)
    check_nested_separation(g, inner, g.boundary_index)
    sep = nearest_distance(g.nodes[inner], g.nodes[g.boundary_index]).min()
    assert 0.4 < sep < 0.55


@pytest.mark.parametrize("dim, n_sites", [(2, 300), (3, 300), (2, 70000)],
                         ids=["2d", "3d", "one_point_per_block"])
def test_nearest_distance_has_the_kd_tree_bits(dim, n_sites):
    # 300 sites take 218 points a block: 1000 points end in a short block
    rng = np.random.default_rng(dim)
    pts = rng.uniform(-3.0, 3.0, (1000 if n_sites < 1000 else 5, dim))
    sites = rng.uniform(-2.0, 2.0, (n_sites, dim))
    want, _ = cKDTree(sites).query(pts)
    assert nearest_distance(pts, sites).tobytes() == want.tobytes()


def test_ball_mask_radii_rows():
    g = build_grid(DomainSpec("disk", radius=1.0), 0.05)
    d = np.linalg.norm(g.nodes - np.array([0.1, -0.2]), axis=1)
    rows = ball_mask(g, (0.1, -0.2), (0.2, 0.4, 0.8))
    assert rows.shape == (3, g.n_nodes)
    for row, r in zip(rows, (0.2, 0.4, 0.8)):
        assert np.array_equal(row, d <= r + 1e-12)
        assert np.array_equal(ball_mask(g, (0.1, -0.2), r), row)


def test_mask_connectivity():
    g = build_grid(DomainSpec("disk", radius=1.0), 0.05)
    assert mask_connected(g, ball_mask(g, (0, 0), 0.4))
    two = ball_mask(g, (-0.5, 0), 0.2) | ball_mask(g, (0.5, 0), 0.2)
    assert not mask_connected(g, two)


def test_domain_spec_states_its_shape_once():
    # dim follows from the kind, sequences become tuples and each corner
    # pair is ordered lo <= hi, so equal shapes are equal specs
    rect = DomainSpec("rectangle", corners=[[2, 0], [0, 1]])
    assert rect == DomainSpec("rectangle", corners=((0, 0), (2, 1)))
    assert rect.corners == ((0.0, 0.0), (2.0, 1.0)) and rect.dim == 2
    box = DomainSpec("box", corners=((1, 0, 3), (0, 2, 0)))
    assert box.corners == ((0.0, 0.0, 0.0), (1.0, 2.0, 3.0)) and box.dim == 3
    union = DomainSpec("masked_union", rectangles=[[[1, 1], [0, 3]]])
    assert union.rectangles == (((0.0, 1.0), (1.0, 3.0)),)
    assert DomainSpec("disk", radius=1.0, center=[0.5, 0.0]).center \
        == (0.5, 0.0)
    assert [s.width for s in (DomainSpec("disk", radius=1.5), rect, box,
                              union,
                              DomainSpec("annulus", r_inner=0.5,
                                         r_outer=2.0))] == [3.0, 1.0, 1.0,
                                                            1.0, 1.5]
    with pytest.raises(GeometryViolation):
        DomainSpec("ellipse")


@pytest.mark.parametrize("spec, h", [
    (DomainSpec("disk", radius=1.0), 0.26),
    (DomainSpec("annulus", r_inner=1.0, r_outer=2.0), 0.13),
    (DomainSpec("rectangle", corners=((0, 0), (2, 1))), 0.13),
    (DomainSpec("box", corners=((0, 0, 0), (1, 1, 2))), 0.13),
    (DomainSpec("masked_union",
                rectangles=[((0, 0), (2, 1)), ((0, 0), (0.5, 2))]), 0.125)],
    ids=["disk", "annulus", "rectangle", "box", "masked_union"])
def test_eight_layers_span_the_width(spec, h):
    build_grid(spec, spec.width / 8)
    with pytest.raises(FeatureUnresolved, match="spans fewer than 8 layers"):
        build_grid(spec, h)


def test_masked_union_l_shape():
    spec = DomainSpec("masked_union",
                      rectangles=[((0, 0), (2, 1)), ((0, 0), (1, 2))])
    g = build_grid(spec, 0.1)
    assert abs(np.sum(g.quad_weights) - 3.0) < 1e-10
    assert domain_area(spec) == 3.0         # the overlap square counts once
    chart = boundary_chart(g)
    assert abs(chart.weights.sum() - 8.0) < 1e-10
    g.validate()


def test_masked_union_alignment_guard():
    spec = DomainSpec("masked_union",
                      rectangles=[((0, 0), (2, 1)), ((0.05, 0), (1, 2))])
    with pytest.raises(FeatureUnresolved):
        build_grid(spec, 0.1)


def test_box_surface_chart():
    g = build_grid(DomainSpec("box", corners=((0, 0, 0), (1, 1, 1)),
                              gamma={"face": "z-"}), 1 / 8)
    chart = boundary_chart(g)
    assert abs(chart.weights.sum() - 6.0) < 1e-12
    pts = g.nodes[chart.gamma_ids()]
    assert np.allclose(pts[:, 2], 0.0)
    assert np.all(pts[:, 0] > 0) and np.all(pts[:, 0] < 1)


def test_domain_spec_invariants():
    with pytest.raises(GeometryViolation):
        DomainSpec("disk", radius=-1.0)
    with pytest.raises(GeometryViolation):
        DomainSpec("annulus", r_inner=2.0, r_outer=1.0)
    # each field the kind reads has its form: once a TypeError, or a
    # rectangle built as a box
    for kind, field in (("disk", {"radius": "x"}),
                        ("disk", {"radius": 1.0, "center": (0.0, True)}),
                        ("annulus", {"r_inner": 1, "r_outer": [2]}),
                        ("rectangle", {"corners": ((0, 0, 0), (1, 1, 1))}),
                        ("box", {"corners": ((0, 0, 0),)}),
                        ("masked_union", {"rectangles": [((0, 0),)]})):
        with pytest.raises(GeometryViolation, match=f"{kind} .* must be"):
            DomainSpec(kind, **field)


@pytest.mark.parametrize("spec, gamma", [
    (DomainSpec("disk", radius=1.0), {"edges": ["bottom"]}),
    (DomainSpec("annulus", r_inner=1.0, r_outer=2.0), {"angles": [0.0, 1.0]}),
    (DomainSpec("rectangle", corners=((0, 0), (1, 1))), {"edges": ["front"]}),
    (DomainSpec("box", corners=((0, 0, 0), (1, 1, 1))), {"face": "w-"}),
    (DomainSpec("box", corners=((0, 0, 0), (1, 1, 1))),
     {"face": "z-", "extent": [0.2, 0.8]}),
    (DomainSpec("masked_union", rectangles=[((0, 0), (1, 1))]),
     {"edges": ["bottom"]})],
    ids=["disk_edges", "flat_arc", "rectangle_side", "box_face",
         "box_extent", "union_edges"])
def test_spec_and_chart_state_the_gamma_forms_once(spec, gamma):
    # the spec rejects a descriptor before any grid or chart is built (each
    # once built, or failed in the run with a KeyError or an empty gamma);
    # a chart reads its gamma from the spec alone
    with pytest.raises(GeometryViolation) as at_spec:
        dataclasses.replace(spec, gamma=gamma)
    assert str(at_spec.value) \
        == f"bad gamma descriptor for a {spec.kind}: {gamma!r}"


def test_grid_partition_counts_each_node_once():
    g = build_grid(DomainSpec("rectangle", corners=((0, 0), (1, 1))), 1 / 8)
    g.validate()
    I, B = g.interior_index, g.boundary_index
    # a node in both sets, a missing node, and a duplicated interior id with
    # a missing node (which the size check of the intersection test passed)
    for interior, boundary in ((I, np.append(B, I[0])), (I[1:], B),
                               (np.append(I[1:], I[2]), B)):
        bad = dataclasses.replace(g, interior_index=interior,
                                  boundary_index=boundary)
        with pytest.raises(GeometryViolation, match="do not partition"):
            bad.validate()


# ---------------------------------------------------------------------------
# Array construction against the per-element loops it replaced
# ---------------------------------------------------------------------------

def _reference_polar(grid):
    """Boundary rings, cell weights and flux edges, one ring at a time."""
    radii, dr, dtheta = grid.radii, grid.dr, grid.dtheta
    lattice_id = grid.lattice_id
    n_rings, n_theta = grid.lattice_shape
    inner_is_boundary = grid.spec.kind == "annulus"
    boundary_rings = [n_rings - 1] + ([0] if inner_is_boundary else [])
    boundary = np.concatenate([lattice_id[i] for i in boundary_rings])
    interior = np.setdiff1d(np.arange(n_rings * n_theta), boundary)
    ext = np.full(n_rings, dr)
    ext[n_rings - 1] = dr / 2.0
    if inner_is_boundary:
        ext[0] = dr / 2.0
    weights = (radii * ext)[:, None] * dtheta * np.ones((1, n_theta))
    ei, ej, ec = [], [], []
    for i in range(n_rings - 1):
        rf = 0.5 * (radii[i] + radii[i + 1])
        c = rf * dtheta / dr
        ei.append(lattice_id[i])
        ej.append(lattice_id[i + 1])
        ec.append(np.full(n_theta, c))
    for i in range(n_rings):
        c = ext[i] / (radii[i] * dtheta)
        ei.append(lattice_id[i])
        ej.append(np.roll(lattice_id[i], -1))
        ec.append(np.full(n_theta, c))
    return (interior, np.sort(boundary), weights.ravel(),
            (np.concatenate(ei), np.concatenate(ej), np.concatenate(ec)))


def _reference_block(grid):
    """Boundary mask, cell weights and flux edges of a box or rectangle,
    built axis by axis with per-axis extent and face loops."""
    shape, spacings = grid.lattice_shape, grid.spacings
    lattice_id = grid.lattice_id
    dim = len(shape)
    idx = np.indices(shape)
    on_edge = np.zeros(shape, dtype=bool)
    for d in range(dim):
        on_edge |= (idx[d] == 0) | (idx[d] == shape[d] - 1)
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
        face = np.ones(shape)
        for t in range(dim):
            if t == d:
                continue
            sh = [1] * dim
            sh[t] = shape[t]
            face = face * exts[t].reshape(sh)
        ei.append(lattice_id[tuple(sl_a)].ravel())
        ej.append(lattice_id[tuple(sl_b)].ravel())
        ec.append(face[tuple(sl_a)].ravel() / spacings[d])
    return (np.sort(lattice_id[~on_edge]), np.sort(lattice_id[on_edge]),
            wgrid.ravel(),
            (np.concatenate(ei), np.concatenate(ej), np.concatenate(ec)))


def _reference_arcs(grid, angles):
    """Circle gamma mask, one arc at a time."""
    mask = np.zeros(grid.lattice_shape[1], dtype=bool)
    for a, b in angles:
        a, b = float(a), float(b)
        th = np.mod(grid.thetas - a, 2 * np.pi)
        mask |= (th > 1e-12) & (th < np.mod(b - a, 2 * np.pi) - 1e-12)
    return mask


def _reference_perimeter(grid, gamma):
    """Rectangle perimeter walked node by node, and its ``edges`` mask."""
    nx, ny = grid.lattice_shape[0] - 1, grid.lattice_shape[1] - 1
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
    ids, names = np.asarray(seq), np.asarray(names)
    if gamma == "full":
        return ids, np.ones(ids.size, dtype=bool)
    wanted = set(gamma["edges"])
    mask = np.isin(names, list(wanted))
    prev_name = np.roll(names, 1)
    for t in range(ids.size):
        if mask[t] and prev_name[t] not in wanted and names[t] in wanted:
            mask[t] = False
    return ids, mask


def _reference_surface(grid, gamma):
    """Box surface weights face by face, and the face mask axis by axis."""
    pts = grid.nodes[grid.boundary_index]
    lo = grid.origin
    hi = grid.origin + grid.spacings * (np.asarray(grid.lattice_shape) - 1)
    sp = grid.spacings
    weights = np.zeros(pts.shape[0])
    for axis in range(3):
        for bound in (lo[axis], hi[axis]):
            on_face = np.abs(pts[:, axis] - bound) < 1e-12
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
        return weights, np.ones(pts.shape[0], dtype=bool)
    axis = {"x": 0, "y": 1, "z": 2}[gamma["face"][0]]
    bound = lo[axis] if gamma["face"].endswith("-") else hi[axis]
    mask = np.abs(pts[:, axis] - bound) < 1e-12
    for t in range(3):
        if t == axis:
            continue
        mask &= (pts[:, t] > lo[t] + 1e-12) & (pts[:, t] < hi[t] - 1e-12)
    if "extent" in gamma:
        elo, ehi = (np.asarray(v, float) for v in gamma["extent"])
        tang = [t for t in range(3) if t != axis]
        for d, t in enumerate(tang):
            mask &= (pts[:, t] > elo[d] - 1e-12) & (pts[:, t] < ehi[d] + 1e-12)
    return weights, mask


def _reference_surface_stiffness(chart):
    """Boundary graph Laplacian, one edge at a time through a position dict."""
    n = chart.n
    pos = {int(g): i for i, g in enumerate(chart.node_ids)}
    L = np.zeros((n, n))
    ei, ej, _ = chart.grid.edges
    gi = np.asarray([pos.get(int(a), -1) for a in ei])
    gj = np.asarray([pos.get(int(b), -1) for b in ej])
    keep = (gi >= 0) & (gj >= 0)
    for a, b in zip(gi[keep], gj[keep]):
        p = chart.grid.nodes[chart.node_ids[a]]
        q = chart.grid.nodes[chart.node_ids[b]]
        dist = float(np.linalg.norm(p - q))
        if chart.grid.dim == 2:
            c = 1.0 / dist
        else:
            c = min(chart.weights[a], chart.weights[b]) / dist ** 2
        L[a, a] += c
        L[b, b] += c
        L[a, b] -= c
        L[b, a] -= c
    return L


def _reference_area(spec):
    if spec.kind == "masked_union":
        # exact union: cut the plane at every rectangle edge and keep the
        # cells whose centre lies inside some rectangle
        rects = [[sorted((float(a[d]), float(b[d]))) for d in (0, 1)]
                 for a, b in spec.rectangles]
        xs = sorted({v for r in rects for v in r[0]})
        ys = sorted({v for r in rects for v in r[1]})
        cells = []
        for x0, x1 in zip(xs, xs[1:]):
            for y0, y1 in zip(ys, ys[1:]):
                cx, cy = 0.5 * (x0 + x1), 0.5 * (y0 + y1)
                if any(rx[0] < cx < rx[1] and ry[0] < cy < ry[1]
                       for rx, ry in rects):
                    cells.append((x1 - x0) * (y1 - y0))
        return math.fsum(cells)
    return float(np.prod(np.abs(np.asarray(spec.corners[1], float)
                                - np.asarray(spec.corners[0], float))))


def _assert_grid_equal(grid, want):
    interior, boundary, weights, edges = want
    assert np.array_equal(grid.interior_index, interior)
    assert np.array_equal(grid.boundary_index, boundary)
    assert np.array_equal(grid.quad_weights, weights)
    for got, ref in zip(grid.edges, edges):
        assert got.dtype == ref.dtype and np.array_equal(got, ref)


@pytest.mark.parametrize("spec, h", [
    (DomainSpec("disk", radius=1.0), 0.1),
    (DomainSpec("disk", radius=0.7, center=(0.3, -0.2)), 0.05),
    (DomainSpec("annulus", r_inner=0.5, r_outer=2.0), 0.1),
    (DomainSpec("annulus", r_inner=1.0, r_outer=2.0, center=(-0.4, 0.25)),
     0.07)])
def test_polar_grid_matches_ring_loops(spec, h):
    g = build_grid(spec, h)
    _assert_grid_equal(g, _reference_polar(g))
    chart = boundary_chart(g)
    assert np.array_equal(chart.node_ids, g.lattice_id[-1])
    for angles in ([(0.0, np.pi)], [(5.5, 0.5), (2.0, 3.0)],
                   [(1.0, 2.0), (1.5, 4.0), (-1.0, 0.25)]):
        chart = boundary_chart(build_grid(
            dataclasses.replace(spec, gamma={"angles": angles}), h))
        assert np.array_equal(chart.gamma_mask, _reference_arcs(g, angles))


_EDGE_GAMMAS = ["full", {"edges": ["bottom"]}, {"edges": ["right"]},
                {"edges": ["top"]}, {"edges": ["left"]},
                {"edges": ["bottom", "right"]}, {"edges": ["left", "top"]},
                {"edges": ["bottom", "top"]},
                {"edges": ["bottom", "right", "top", "left"]}]


@pytest.mark.parametrize("corners, h", [
    (((0.0, 0.0), (1.3, 0.85)), 0.1),
    (((-0.5, 0.2), (0.4, 1.9)), 0.07)])
def test_rectangle_grid_and_charts_match_loops(corners, h):
    spec = DomainSpec("rectangle", corners=corners)
    g = build_grid(spec, h)
    assert g.spacings[0] != g.spacings[1]
    _assert_grid_equal(g, _reference_block(g))
    assert domain_area(spec) == _reference_area(spec)
    for gamma in _EDGE_GAMMAS:
        chart = boundary_chart(build_grid(
            dataclasses.replace(spec, gamma=gamma), h))
        ids, mask = _reference_perimeter(g, gamma)
        assert np.array_equal(chart.node_ids, ids)
        assert np.array_equal(chart.gamma_mask, mask)
    # hx != hy makes the corner weights differ, so the chart takes the
    # generic Laplace--Beltrami path
    assert not np.allclose(chart.weights, chart.weights[0])
    assert np.array_equal(chart._surface_stiffness().toarray(),
                          _reference_surface_stiffness(chart))


def test_masked_union_chart_and_area_match_loops():
    spec = DomainSpec("masked_union",
                      rectangles=[((0, 0), (2, 1)), ((0, 0), (1, 2)),
                                  ((1, 1.5), (1.8, 2.5))])
    g = build_grid(spec, 0.1)
    chart = boundary_chart(g)
    assert np.array_equal(chart._surface_stiffness().toarray(),
                          _reference_surface_stiffness(chart))
    assert domain_area(spec) == _reference_area(spec)


@pytest.mark.parametrize("corners, h", [
    (((0, 0, 0), (1.0, 0.85, 1.23)), 0.1),
    (((-0.3, 0.1, 0.0), (0.6, 0.9, 0.85)), 1.0 / 12)])
def test_box_grid_and_surface_chart_match_loops(corners, h):
    spec = DomainSpec("box", corners=corners)
    g = build_grid(spec, h)
    assert len(set(g.spacings)) == 3
    _assert_grid_equal(g, _reference_block(g))
    assert domain_area(spec) == _reference_area(spec)
    lo, hi = g.nodes.min(axis=0), g.nodes.max(axis=0)
    mid = 0.5 * (lo + hi)
    for gamma in ["full", {"face": "z-"}, {"face": "x+"}, {"face": "y-"},
                  {"face": "z+", "extent": [lo[:2], mid[:2]]},
                  {"face": "x-", "extent": [mid[1:], hi[1:]]}]:
        chart = boundary_chart(build_grid(
            dataclasses.replace(spec, gamma=gamma), h))
        weights, mask = _reference_surface(g, gamma)
        assert np.array_equal(chart.node_ids, g.boundary_index)
        assert np.array_equal(chart.weights, weights)
        assert np.array_equal(chart.gamma_mask, mask)
        assert 0 < mask.sum() < mask.size or gamma == "full"
    assert np.array_equal(chart._surface_stiffness().toarray(),
                          _reference_surface_stiffness(chart))


@pytest.mark.parametrize("spec, h", [
    (DomainSpec("box", corners=((0, 0, 0), (1, 1, 1)), gamma={"face": "z-"}),
     1 / 8),
    (DomainSpec("disk", radius=1.0, gamma={"angles": [(0.3, 2.1)]}), 0.1),
    (DomainSpec("rectangle", corners=((0, 0), (1.3, 0.85)),
                          gamma={"edges": ["bottom", "right"]}), 0.1)])
def test_h_half_gram_cached_per_chart(spec, h):
    chart = boundary_chart(build_grid(spec, h))
    ids = chart.gamma_positions()
    assert 0 < ids.size < chart.n
    want = modal_h_half_gram(chart, ids, modal(chart))
    got = chart.h_half_gram(ids)
    assert got.dtype == want.dtype
    again = chart.h_half_gram(ids)
    assert np.array_equal(again, got)
    # blocks are fresh and writable
    assert not np.shares_memory(got, again) and got.flags.writeable
    got[0, 0] = -1.0
    assert np.array_equal(chart.h_half_gram(ids), again)
    if spec.kind == "disk":
        # a uniform closed curve gathers its block from the symbol; no cache
        assert _rel_err(again, want) <= 1e-13
        assert not any(key[0] == "gram" for key in chart._held)
        return
    # every other chart takes the quadrature block, held read-only
    assert _rel_err(again, want) <= 1e-12
    cached = chart._held["gram", ids.tobytes()]
    assert not np.shares_memory(again, cached)
    with pytest.raises(ValueError):
        cached[0, 0] = 0.0


def _rel_err(got, want) -> float:
    return float(np.max(np.abs(got - want)) / np.max(np.abs(want)))


def _arrays(value) -> list:
    """The arrays of a held value: an ndarray, those of nested tuples and
    lists, and a sparse matrix's data, indices and indptr."""
    if isinstance(value, np.ndarray):
        return [value]
    if isinstance(value, (tuple, list)):
        return [a for v in value for a in _arrays(v)]
    if sp.issparse(value):
        return [value.data, value.indices, value.indptr]
    return []


def _gamma_ids(grid):
    chart = boundary_chart(grid)
    return chart, chart.gamma_positions()


def _held_gram_block(grid):
    chart, ids = _gamma_ids(grid)
    chart.h_half_gram(ids)
    return chart._held["gram", ids.tobytes()]


# each hold of a grid or its chart, read through the function that builds it
_HOLDS = {
    "stiffness": stiffness,
    "node_radius": node_radius,
    "boundary_chart": boundary_chart,
    "h_half_gram": _held_gram_block,
    "triple_masks": lambda g: _triple_masks(g, np.array([0.65, 0.4]), 0.2),
    "gradient_plan": lambda g: _gradient_plan(g, np.ones(g.n_nodes, bool)),
    "gram_inverse_sqrt": lambda g: gram_inverse_sqrt(*_gamma_ids(g)),
}


@pytest.mark.parametrize("hold", list(_HOLDS))
def test_hold_is_built_once_and_frozen(hold):
    # a rectangle with hx != hy, whose Gram blocks take the quadrature
    g = build_grid(DomainSpec("rectangle", corners=((0, 0), (1.3, 0.85)),
                              gamma={"edges": ["bottom", "right"]}), 0.1)
    value = _HOLDS[hold](g)
    assert _HOLDS[hold](g) is value
    if hold == "boundary_chart":
        # a chart is held as it is
        assert all(a.flags.writeable for a in (value.node_ids, value.weights,
                                               value.gamma_mask))
        return
    arrays = _arrays(value)
    assert arrays and not any(a.flags.writeable for a in arrays)
    with pytest.raises(ValueError):
        arrays[0].flat[0] = 0


@pytest.mark.parametrize("spec, h", [
    (DomainSpec("box", corners=((0, 0, 0), (1, 1, 1)), gamma={"face": "z-"}),
     1 / 14),
    (DomainSpec("box", corners=((0, 0, 0), (1, 1, 1)), gamma={"face": "z-"}),
     1 / 21),
    (DomainSpec("box", corners=((0, 0, 0), (1, 1, 1))), 1 / 8),
    (DomainSpec("rectangle", corners=((0, 0), (1.3, 0.85)),
                          gamma={"edges": ["bottom", "right"]}), 0.1),
    (DomainSpec("masked_union", rectangles=[((0, 0), (2, 1)), ((0, 0), (1, 2)),
                              ((1, 1.5), (1.8, 2.5))]), 0.1)],
    ids=["cube14", "cube21", "cube8_full", "rectangle", "masked_union"])
def test_quadrature_gram_matches_dense_modal_gram(spec, h):
    chart = boundary_chart(build_grid(spec, h))
    ids = chart.gamma_positions()
    L = chart._surface_stiffness()
    got = _sqrt_pencil_block(L, chart.weights, ids)
    basis = modal(chart)
    assert _rel_err(got, modal_h_half_gram(chart, ids, basis)) <= 1e-12
    # the Gershgorin bound holds the spectrum of W^-1 (W + L)
    lam, _ = basis
    assert _pencil_bound(L, chart.weights) >= 1.0 + lam.max()


_CUBE_FACE = DomainSpec("box", corners=((0, 0, 0), (1, 1, 1)),
                        gamma={"face": "z-"})
_RECTANGLE = DomainSpec("rectangle", corners=((0, 0), (1.3, 0.85)),
                        gamma={"edges": ["bottom", "right"]})


@pytest.mark.parametrize("spec, h, whole", [
    (_CUBE_FACE, 1 / 14, False),
    (_CUBE_FACE, 1 / 21, False),
    (_RECTANGLE, 0.1, False),
    (DomainSpec("box", corners=((0, 0, 0), (1, 1, 1))), 1 / 8, True),
    (_RECTANGLE, 0.1, True),
    (DomainSpec("masked_union", rectangles=[((0, 0), (2, 1)), ((0, 0), (1, 2)),
                              ((1, 1.5), (1.8, 2.5))]), 0.1, True)],
    ids=["cube14", "cube21", "rectangle", "cube8_full", "rectangle_full",
         "masked_union"])
def test_schur_block_matches_whole_surface_quadrature(spec, h, whole):
    # eliminating the rest of the chart moves a proper block at rounding
    # level; on the whole chart nothing is eliminated, so no bit moves
    chart = boundary_chart(build_grid(spec, h))
    ids = np.arange(chart.n) if whole else chart.gamma_positions()
    L = chart._surface_stiffness()
    got = _sqrt_pencil_block(L, chart.weights, ids)
    want = sqrt_pencil_block_reference(L, chart.weights, ids)
    if whole:
        assert np.array_equal(got, want)
    else:
        assert ids.size < chart.n
        assert _rel_err(got, want) <= 1e-14


def test_schur_block_solves_only_the_border_columns(monkeypatch):
    # cube14, gamma the 13 x 13 open face z-: each of the 19 shifts solves
    # the 52 border columns on the 1,009 rest nodes and the 169 columns of
    # W on the Schur complement, never a column on all 1,178 surface nodes
    from helmlab import assembly
    chart = boundary_chart(build_grid(_CUBE_FACE, 1 / 14))
    ids = chart.gamma_positions()
    assert (chart.n, ids.size) == (1178, 169)
    shapes, solve = [], assembly.verified_solve

    def recording(A, factor, rhs):
        shapes.append((A.shape[0], rhs.shape[0], rhs.shape[1]))
        return solve(A, factor, rhs)

    monkeypatch.setattr(assembly, "verified_solve", recording)
    _sqrt_pencil_block(chart._surface_stiffness(), chart.weights, ids)
    assert shapes == [(1009, 1009, 52), (169, 169, 169)] * 19


def test_quadrature_gram_matches_analytic_gram_on_a_circle():
    chart = boundary_chart(build_grid(
        DomainSpec("disk", radius=1.0, gamma={"angles": [(0.3, 2.1)]}), 0.05))
    ids = chart.gamma_positions()
    L = chart._surface_stiffness()
    got = _sqrt_pencil_block(L, chart.weights, ids)
    assert _rel_err(got, chart.h_half_gram(ids)) <= 1e-12
    # on an even cycle the alternating mode attains the Gershgorin bound, so
    # the two agree to rounding
    lam, _ = modal(chart)
    assert chart.n % 2 == 0
    assert _pencil_bound(L, chart.weights) >= (1.0 + lam.max()) * (1 - 1e-15)


# midpoint counts and parameters 1 - 1/M of the quadrature on cube surfaces
# from h = 1/8 (M = 513, N = 17) to h = 1/28 (M = 6,273, N = 21)
@pytest.mark.parametrize("n", [8, 17, 19, 20, 21])
def test_elliptic_functions_match_scipy(n):
    t = (np.arange(n) + 0.5) / n
    for m in (0.01, 0.5, 0.9, 1 - 1 / 513, 1 - 1 / 1569, 1 - 1 / 3529,
              1 - 1 / 6273):
        sn, cn, dn, K = _ellipj(t, m)
        assert abs(K - ellipk(m)) <= 1e-13 * ellipk(m)
        for got, want in zip((sn, cn, dn), ellipj(t * K, m)[:3]):
            assert np.max(np.abs(got - want) / np.abs(want)) <= 1e-13


@pytest.mark.parametrize("spec, h", [
    (DomainSpec("disk", radius=1.0), 0.05),
    (DomainSpec("annulus", r_inner=0.5, r_outer=2.0), 0.1)])
def test_polar_stiffness_couples_by_arc_length(spec, h):
    chart = boundary_chart(build_grid(spec, h))
    s = chart.weights[0]
    L = chart._surface_stiffness().toarray()
    # the circulant Laplacian of the closed curve at arc spacing s
    eye = np.eye(chart.n)
    circ = (2.0 * eye - np.roll(eye, 1, axis=1) - np.roll(eye, -1, axis=1)) / s
    assert np.array_equal(L, circ)
    # so the symbol holds the eigenvalues of the chart's own W^-1 L
    lam = np.linalg.eigvalsh(L / s)
    m = np.arange(chart.n // 2 + 1)
    want = np.sort(np.r_[m, m[(m > 0) & (2 * m < chart.n)]])
    assert np.allclose(np.sort(s * np.sqrt(1.0 + lam)),
                       np.sort(chart.symbol()[want]), rtol=1e-12, atol=0)


@pytest.mark.parametrize("spec, h", [
    (DomainSpec("disk", radius=1.0), 0.01),
    (DomainSpec("annulus", r_inner=0.5, r_outer=2.0), 0.0477),
    (DomainSpec("rectangle", corners=((0, 0), (1, 1)),
                gamma={"edges": ["bottom"]}), 0.1),
    (DomainSpec("masked_union", rectangles=[((0, 0), (2, 1)), ((0, 0), (1, 2)),
                              ((1, 1.5), (1.8, 2.5))]), 0.1)],
    ids=["disk_odd", "convex_annulus_even", "square", "masked_union"])
def test_symbol_gram_matches_modal_gram(spec, h):
    chart = boundary_chart(build_grid(spec, h))
    assert chart.symbol() is not None
    if spec.kind == "disk":
        assert chart.n % 2 == 1
    if spec.kind == "annulus":
        assert chart.n % 2 == 0
    basis = modal(chart)
    for ids in (np.arange(chart.n), chart.gamma_positions()):
        got = chart.h_half_gram(ids)
        assert np.array_equal(got, got.T)
        assert _rel_err(got, modal_h_half_gram(chart, ids, basis)) <= 1e-13


@pytest.mark.parametrize("spec, h", [
    (DomainSpec("box", corners=((0, 0, 0), (1, 1, 1))), 1 / 8),
    (DomainSpec("rectangle", corners=((0, 0), (1.3, 0.85))), 0.1)])
def test_symbol_only_on_uniform_closed_curves(spec, h):
    assert boundary_chart(build_grid(spec, h)).symbol() is None
