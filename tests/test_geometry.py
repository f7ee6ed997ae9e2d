import numpy as np
import pytest

from helmlab.errors import EmptyGamma, FeatureUnresolved, GeometryViolation
from helmlab.geometry import (DomainSpec, ball_mask, boundary_chart, build_grid,
                              check_nested_separation, mask_connected)


def test_disk_lattice_matches_spacing_rule():
    g = build_grid(DomainSpec.disk(1.0), 0.1)
    n_rings, n_theta = g.lattice_shape
    assert n_rings == 11            # 10 interior rings + boundary ring
    assert n_theta == 63            # ceil(2 pi / 0.1)
    # boundary nodes exactly on the circle
    r = np.linalg.norm(g.nodes[g.boundary_index], axis=1)
    assert np.max(np.abs(r - 1.0)) < 1e-14


def test_annulus_gamma_full_outer_circle():
    g = build_grid(DomainSpec.annulus(0.5, 2.0), 0.1)
    chart = boundary_chart(g)
    r = np.linalg.norm(g.nodes[chart.node_ids], axis=1)
    assert np.allclose(r, 2.0)
    assert chart.gamma_mask.all()
    # the inner circle is boundary but not charted
    rb = np.linalg.norm(g.nodes[g.boundary_index], axis=1)
    assert np.isclose(rb.min(), 0.5)


def test_rectangle_interior_count():
    g = build_grid(DomainSpec.rectangle((0, 0), (np.pi, np.pi)), np.pi / 64)
    assert g.interior_index.size == 63 * 63


def test_mask_partition_and_weights():
    for spec in (DomainSpec.disk(1.0), DomainSpec.annulus(0.5, 2.0),
                 DomainSpec.rectangle((0, 0), (2, 1))):
        g = build_grid(spec, 0.08)
        assert g.interior_index.size + g.boundary_index.size == g.n_nodes
        assert np.all(g.quad_weights > 0)


def test_area_quadrature_refinement():
    # polar boundary half-cells leave an O(h^2) area defect; ratio ~ 4
    spec = DomainSpec.disk(1.0)
    errs = [abs(np.sum(build_grid(spec, h).quad_weights) - spec.area())
            for h in (0.1, 0.05)]
    assert 3.5 <= errs[0] / errs[1] <= 4.5
    # cartesian rectangles tile exactly
    spec_r = DomainSpec.rectangle((0, 0), (1.5, 1.0))
    g = build_grid(spec_r, 0.05)
    assert abs(np.sum(g.quad_weights) - 1.5) < 1e-12


def test_interior_weights_converge_to_area():
    spec = DomainSpec.annulus(0.5, 2.0)
    errs = [abs(np.sum(build_grid(spec, h).quad_weights[
        build_grid(spec, h).interior_index]) - spec.area())
        for h in (0.1, 0.05)]
    assert errs[1] < errs[0]


def test_node_count_scale():
    h = 0.1
    g = build_grid(DomainSpec.rectangle((0, 0), (2, 2)), h)
    assert g.n_nodes <= 2.0 * (4.0 / h ** 2) * 1.15
    # polar grids run at about twice the cartesian density by construction
    gd = build_grid(DomainSpec.disk(1.0), h)
    assert gd.n_nodes <= 2.5 * (np.pi / h ** 2)


def test_chart_weights_and_gamma_arc():
    g = build_grid(DomainSpec.disk(1.0), 0.1)
    chart = boundary_chart(g)
    assert abs(chart.total_measure() - 2 * np.pi) < 1e-12
    half = boundary_chart(g, {"angles": [(0.0, np.pi)]})
    frac = half.gamma_mask.mean()
    assert 0.4 < frac < 0.6


def test_chart_rectangle_edges():
    g = build_grid(DomainSpec.rectangle((0, 0), (1, 1)), 1 / 16)
    chart = boundary_chart(g, {"edges": ["bottom"]})
    pts = g.nodes[chart.gamma_ids()]
    assert np.allclose(pts[:, 1], 0.0)
    assert abs(chart.total_measure() - 4.0) < 1e-12


def test_empty_gamma_raises():
    g = build_grid(DomainSpec.disk(1.0), 0.1)
    with pytest.raises(EmptyGamma):
        boundary_chart(g, {"angles": [(1.0, 1.0 + 1e-9)]})


def test_feature_unresolved():
    with pytest.raises(FeatureUnresolved):
        build_grid(DomainSpec.annulus(1.0, 1.2), 0.1)


def test_nested_separation_guard():
    g = build_grid(DomainSpec.disk(1.0), 0.05)
    with pytest.raises(GeometryViolation):
        check_nested_separation(g, ball_mask(g, (0, 0), 0.95))
    sep = check_nested_separation(g, ball_mask(g, (0, 0), 0.5))
    assert 0.4 < sep < 0.55


def test_ball_mask_radii_rows():
    g = build_grid(DomainSpec.disk(1.0), 0.05)
    d = np.linalg.norm(g.nodes - np.array([0.1, -0.2]), axis=1)
    rows = ball_mask(g, (0.1, -0.2), (0.2, 0.4, 0.8))
    assert rows.shape == (3, g.n_nodes)
    for row, r in zip(rows, (0.2, 0.4, 0.8)):
        assert np.array_equal(row, d <= r + 1e-12)
        assert np.array_equal(ball_mask(g, (0.1, -0.2), r), row)


def test_mask_connectivity():
    g = build_grid(DomainSpec.disk(1.0), 0.05)
    assert mask_connected(g, ball_mask(g, (0, 0), 0.4))
    two = ball_mask(g, (-0.5, 0), 0.2) | ball_mask(g, (0.5, 0), 0.2)
    assert not mask_connected(g, two)


def test_masked_union_l_shape():
    spec = DomainSpec.masked_union([((0, 0), (2, 1)), ((0, 0), (1, 2))])
    g = build_grid(spec, 0.1)
    assert abs(np.sum(g.quad_weights) - 3.0) < 1e-10
    chart = boundary_chart(g)
    assert abs(chart.total_measure() - 8.0) < 1e-10
    g.validate()


def test_masked_union_alignment_guard():
    spec = DomainSpec.masked_union([((0, 0), (2, 1)), ((0.05, 0), (1, 2))])
    with pytest.raises(FeatureUnresolved):
        build_grid(spec, 0.1)


def test_box_surface_chart():
    g = build_grid(DomainSpec.box((0, 0, 0), (1, 1, 1), gamma={"face": "z-"}),
                   1 / 8)
    chart = boundary_chart(g)
    assert abs(chart.total_measure() - 6.0) < 1e-12
    pts = g.nodes[chart.gamma_ids()]
    assert np.allclose(pts[:, 2], 0.0)
    assert np.all(pts[:, 0] > 0) and np.all(pts[:, 0] < 1)


def test_domain_spec_invariants():
    with pytest.raises(GeometryViolation):
        DomainSpec.disk(-1.0)
    with pytest.raises(GeometryViolation):
        DomainSpec.annulus(2.0, 1.0)
