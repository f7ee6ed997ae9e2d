import dataclasses
import heapq
import math

import numpy as np
import pytest
from scipy.spatial import cKDTree

from helmlab import ucp
from helmlab.assembly import assemble
from helmlab.bessel import bessel_j, gauss_legendre, radial_profile
from helmlab.errors import ChainBlocked, DegenerateSamples, GeometryViolation
from helmlab.fields import BoundaryTrace, GridField, lp_norm, norm, trace_norm
from helmlab.geometry import DomainSpec, ball_mask, boundary_chart, build_grid
from helmlab.modes import mode_field, random_mode_superposition
from helmlab.profiles import make_medium
from helmlab.ucp import (ExponentFit, boundary_distance, chain_propagate,
                         estimate_exponent, three_ball_ratio)

from helpers import (caccioppoli_ratio, disk_grid, disk_setup,
                     inradius_reference, level_curve_reference, margin,
                     source_neumann_ratio)


def _mode_samples(grid, k, rs=(0.16,), centers=None, ell_step=1):
    centers = centers or [(0.0, 0.0), (0.15, 0.05), (-0.2, 0.22), (0.3, 0.0)]
    out = []
    for ell in range(0, int(2 * k) + 9, ell_step):
        u = mode_field(grid, ell, k)
        for c in centers:
            for r in rs:
                t = three_ball_ratio(u, c, r, k)
                if not t.degenerate():
                    out.append(t)
    return out


def _mode_at_nodes(grid, ell, k, parity, center):
    """mode_field evaluated at every node."""
    dx, dy = (grid.nodes - np.asarray(center, float)).T
    th = np.arctan2(dy, dx)
    ang = np.cos(ell * th) if parity == "cos" else np.sin(ell * th)
    return radial_profile(ell, k, 2, np.hypot(dx, dy)) * ang


@pytest.mark.parametrize("spec,center", [
    (DomainSpec("disk", radius=1.0), None),
    (DomainSpec("disk", radius=1.0, center=(0.3, -0.2)), None),
    (DomainSpec("annulus", r_inner=0.5, r_outer=2.0), (0.0, 0.0)),
    (DomainSpec("disk", radius=1.0, center=(0.15, 0.05)), (0.15, 0.05)),
    (DomainSpec("rectangle", corners=((-1, -1), (1, 1))), (0.0, 0.0)),
])
def test_mode_field_per_ring_matches_nodes(spec, center):
    # every mode is centred at the domain centre (``center``, or the spec's
    # when None): per ring on a polar grid, per node on a Cartesian one
    g = build_grid(spec, 0.05)
    c = g.spec.center if center is None else center
    for ell in (0, 1, 4, 11):
        for parity in ("cos", "sin"):
            got = mode_field(g, ell, 4.0, parity).values
            want = _mode_at_nodes(g, ell, 4.0, parity, c)
            assert np.max(np.abs(got - want)) <= 1e-12 * max(np.max(np.abs(want)),
                                                          1e-300)


def test_ball_norms_match_radial_quadrature():
    # mask quadrature vs the Gauss-Legendre reference on each grid's own
    # face-aligned radius: second-order error, Richardson residual <= 1e-6
    ell, k = 3, 5.0
    rel = []
    for h in (0.01, 0.005):
        g = disk_grid(h)
        u = mode_field(g, ell, k)
        m = int(round(0.4 / g.dr))
        rad = m * g.dr                       # cells tile [0, m dr] exactly
        v = norm(u, "L2", np.linalg.norm(g.nodes, axis=1) <= rad + 1e-12) ** 2
        r, w = gauss_legendre(600, 0.0, rad)
        prof = np.asarray(bessel_j(float(ell), k * r))
        oracle = np.pi * np.sum(w * r * prof ** 2)   # cos^2 integrates to pi
        rel.append((v - oracle) / oracle)
    assert 3.2 <= rel[0] / rel[1] <= 4.8
    assert abs(rel[1] - rel[0] / 4.0) <= 1e-6


def test_zero_solution_degenerate():
    g = disk_grid(0.01)
    z = GridField(g, np.zeros(g.n_nodes))
    t = three_ball_ratio(z, (0, 0), 0.16, 2.0)
    assert t.degenerate()


def test_geometry_guards():
    g = disk_grid(0.01)
    u = mode_field(g, 2, 4.0)
    with pytest.raises(GeometryViolation):
        three_ball_ratio(u, (0.5, 0.0), 0.16, 4.0)     # B_4r exits the disk
    with pytest.raises(GeometryViolation):
        three_ball_ratio(u, (0.0, 0.0), 0.05, 4.0)     # under 8 layers


def test_exponent_fit_properties():
    g = disk_grid(0.01)
    samples = _mode_samples(g, 4.0)
    fit = estimate_exponent(samples)
    assert 0.0 < fit.alpha_hat < 1.0
    # calibration margins are nonnegative by construction
    assert min(margin(fit, t) for t in samples) >= -1e-12
    # scale invariance: norms scale linearly, the fit inputs are ratios
    scaled = [three_ball_ratio(GridField(g, 10.0 * mode_field(g, 3, 4.0).values),
                               c, 0.16, 4.0) for c in [(0, 0), (0.2, 0.1)]]
    base = [three_ball_ratio(mode_field(g, 3, 4.0), c, 0.16, 4.0)
            for c in [(0, 0), (0.2, 0.1)]]
    for a, b in zip(scaled, base):
        fa = estimate_exponent(samples + [a])
        fb = estimate_exponent(samples + [b])
        assert abs(fa.alpha_hat - fb.alpha_hat) < 1e-12


def test_degenerate_samples_guard():
    g = disk_grid(0.01)
    u = mode_field(g, 2, 4.0)
    one = three_ball_ratio(u, (0, 0), 0.16, 4.0)
    with pytest.raises(DegenerateSamples):
        estimate_exponent([one] * 12)


def test_chain_growth_and_validity():
    grid, _, op, chart = disk_setup(4.0, h=0.02)
    cal = _mode_samples(disk_grid(0.01), 4.0)
    fit = estimate_exponent(cal)
    rng = np.random.default_rng(11)
    u = random_mode_superposition(grid, 4.0, 10, rng)
    eta = 2.0 * trace_norm(BoundaryTrace(chart, u.values[chart.node_ids]))
    M = norm(u, "H1")
    c4 = 1.5 * lp_norm(u, 4) / M
    rows = []
    for eps in (0.2, 0.1, 0.05, 0.025):
        res = chain_propagate(op, u, eta, M, eps, fit, sobolev_constant=c4)
        assert res.bound >= norm(u, "L2")
        assert res.bound_log > 0
        rows.append((eps, res.n_balls))
    L = np.log(1.0 / np.array([r[0] for r in rows]))
    N = np.array([r[1] for r in rows], dtype=float)
    coef = np.polyfit(L, N, 1)
    pred = np.polyval(coef, L)
    r2 = 1 - np.sum((N - pred) ** 2) / np.sum((N - N.mean()) ** 2)
    assert coef[0] > 0
    assert r2 >= 0.95


def _certify_reference(centers, radii, seed, m0, step):
    # one scalar distance and containment test per edge
    tree = cKDTree(centers)
    pts, rad = centers.tolist(), radii.tolist()
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
        for j in tree.query_ball_point(centers[i], r=radii[i]):
            if done[j]:
                continue
            dx, dy = pts[j][0] - pts[i][0], pts[j][1] - pts[i][1]
            dist = math.sqrt(dx * dx + dy * dy)
            if dist + rad[j] / 2.0 <= rad[i] + 1e-12:
                cand = step(val)
                if cand < value[j]:
                    value[j] = cand
                    hops[j] = hops[i] + 1
                    heapq.heappush(heap, (cand, int(j)))
    return value, hops


def _greedy_cover_reference(nodes, deep, centers, radii, value):
    # each ball tested against every grid node; sqrt(dx^2 + dy^2) has the
    # bits of np.linalg.norm over the rows
    uncovered = deep.copy()
    cover_sq, n_cover = 0.0, 0
    x, y = nodes.T.copy()
    for ci in np.argsort(value):
        if not np.any(uncovered):
            break
        cx, cy = centers[ci]
        ball = np.sqrt((x - cx) ** 2 + (y - cy) ** 2) <= radii[ci]
        if np.any(uncovered & ball):
            cover_sq += value[ci] ** 2
            n_cover += 1
            uncovered &= ~ball
    return cover_sq, n_cover, int(uncovered.sum())


def _chain_runs(spec, gammas, eps_list, fit):
    """(op, u, eta, M, eps) on a grid of ``spec`` at h = 0.02 for each
    gamma, carried by the spec, and epsilon."""
    runs = []
    for gamma in gammas:
        grid = build_grid(dataclasses.replace(spec, gamma=gamma), 0.02)
        op = assemble(make_medium(grid), 4.0)
        u = random_mode_superposition(grid, 4.0, 10, np.random.default_rng(3))
        M = norm(u, "H1")
        chart = boundary_chart(grid)
        eta = 2.0 * trace_norm(BoundaryTrace(chart, u.values[chart.node_ids]))
        runs += [(op, u, eta, M, eps) for eps in eps_list]
    return runs


def test_chain_matches_scalar_reference(monkeypatch):
    fit = estimate_exponent(_mode_samples(disk_grid(0.01), 4.0))
    runs = (_chain_runs(DomainSpec("disk", radius=1.0),
                        ("full", {"angles": [[0.0, np.pi]]}), (0.2, 0.1), fit)
            + _chain_runs(DomainSpec("annulus", r_inner=0.5, r_outer=2.0),
                          ("full",), (0.2, 0.1), fit)
            + _chain_runs(DomainSpec("rectangle", corners=((0, 0), (2, 1))),
                          ("full", {"edges": ["bottom"]}), (0.1,), fit))
    fast = [chain_propagate(*run, fit) for run in runs]
    monkeypatch.setattr(ucp, "_certify", _certify_reference)
    monkeypatch.setattr(ucp, "_greedy_cover", _greedy_cover_reference)
    slow = [chain_propagate(*run, fit) for run in runs]
    assert all(r.n_balls > 0 and r.n_cover > 0 for r in slow)
    assert fast == slow


def test_certify_keeps_a_half_ball_touching_the_sphere():
    # ball 1's half-ball touches ball 0's sphere in exact arithmetic, but
    # 0.2 + 0.1 > 0.3 in floating point: only the slack keeps edge 0 -> 1.
    # Ball 2 lies 1e-9 further out and gets no edge.
    assert 0.2 + 0.2 / 2.0 > 0.3
    centers = np.array([[0.0, 0.0], [0.2, 0.0], [0.0, -0.2 - 1e-9]])
    radii = np.array([0.3, 0.2, 0.2])
    seed = np.array([True, False, False])
    value, hops = ucp._certify(centers, radii, seed, 1.0, lambda m: 2.0 * m)
    assert value.tolist() == [1.0, 2.0, np.inf]
    assert hops.tolist() == [0, 1, 0]


def _strip_cases():
    rng = np.random.default_rng(2)
    # 60 balls on 5 x values: the sorted x hold long runs of ties
    tied = np.column_stack([rng.integers(0, 5, 60) * 0.1,
                            rng.uniform(-0.5, 0.5, 60)])
    # neighbours at |dx| = r_0 exactly, reached through the 1e-12 slack
    edge = np.array([[0.0, 0.0], [0.5, 0.0], [-0.5, 0.0], [0.5, 0.5]])
    return [(tied, rng.uniform(0.05, 0.3, 60), 4),
            (edge, np.array([0.5, 1e-12, 1e-12, 0.5]), 1),
            (np.array([[0.3, -0.1]]), np.array([0.2]), 1)]


@pytest.mark.parametrize("centers, radii, n_seed", _strip_cases(),
                         ids=["tied_x", "strip_edge", "one_ball"])
def test_certify_strip_matches_kd_tree_reference(centers, radii, n_seed):
    # every edge of the ball graph lies in its source's x-strip
    seed = np.arange(radii.size) < n_seed
    got = ucp._certify(centers, radii, seed, 1.0, lambda m: 2.0 * m)
    want = _certify_reference(centers, radii, seed, 1.0, lambda m: 2.0 * m)
    assert [a.tolist() for a in got] == [a.tolist() for a in want]
    if radii.size == 60:
        assert got[1].max() > 1 and np.isinf(got[0]).sum() < 60 - n_seed
    if radii.size == 4:
        assert got[0].tolist() == [1.0, 2.0, 2.0, np.inf]


def test_greedy_cover_matches_full_scan():
    g = disk_grid(0.02)
    nodes = g.nodes
    rng = np.random.default_rng(5)
    centers = np.vstack([[0.0, 0.0], nodes[rng.integers(g.n_nodes, size=20)],
                         rng.uniform(-1.0, 1.0, (40, 2))])
    # radii equal to exact node distances put nodes on the sphere
    d = np.linalg.norm(nodes[:, None, :] - centers, axis=2)
    radii = d[rng.integers(g.n_nodes, size=centers.shape[0]),
              np.arange(centers.shape[0])]
    value = rng.permutation(centers.shape[0]).astype(float)
    every = np.ones(g.n_nodes, dtype=bool)
    for deep in (every, rng.uniform(size=g.n_nodes) < 0.3):
        for i in range(centers.shape[0]):
            got = ucp._greedy_cover(nodes, deep, centers[i:i + 1],
                                    radii[i:i + 1], value[i:i + 1])
            left = int(np.count_nonzero(deep & (d[:, i] > radii[i])))
            assert got[1:] == (int(left < deep.sum()), left)
            assert got == _greedy_cover_reference(
                nodes, deep, centers[i:i + 1], radii[i:i + 1], value[i:i + 1])
        got = ucp._greedy_cover(nodes, deep, centers, radii, value)
        assert got == _greedy_cover_reference(nodes, deep, centers, radii, value)
    # a last ball through the farthest node covers what the others leave
    far = np.vstack([centers, [[0.0, 0.0]]])
    r_far = np.append(radii, np.max(np.linalg.norm(nodes, axis=1)))
    v_far = np.append(value, value.max() + 1.0)
    got = ucp._greedy_cover(nodes, every, far, r_far, v_far)
    assert got[2] == 0
    assert got == _greedy_cover_reference(nodes, every, far, r_far, v_far)


@pytest.mark.parametrize("spec", [
    DomainSpec("disk", radius=1.0, center=(0.3, -0.2)),
    DomainSpec("annulus", r_inner=0.5, r_outer=2.0),
    DomainSpec("rectangle", corners=((2, 1), (0, 0)))],
    ids=["disk", "annulus", "rectangle"])
def test_width_and_level_sets_match_the_shape_references(spec):
    # the chain's inradius and level sets moved from ucp onto DomainSpec
    # with their arithmetic: each is bitwise what ucp computed kind by kind,
    # at every level of a chain down to epsilon = 0.01 and at the inradius
    grid = build_grid(spec, 0.05)
    assert spec.width / 2 == inradius_reference(grid)
    levels = [0.95 * (spec.width / 2)]
    while levels[-1] > 0.01:
        levels.append(max(levels[-1] * 0.91, 0.999 * 0.01))
    for dl in levels + [spec.width / 2]:
        got, want = spec.level_set(dl), level_curve_reference(grid, dl)
        assert got.shape == want.shape and got.tobytes() == want.tobytes()


@pytest.mark.parametrize("spec, h", [
    (DomainSpec("box", corners=((0, 0, 0), (1, 1, 1))), 1 / 8),
    (DomainSpec("masked_union",
                rectangles=[((0, 0), (2, 1)), ((0, 0), (1, 2))]), 0.1)],
    ids=["box", "masked_union"])
def test_chain_needs_level_sets(spec, h):
    grid = build_grid(spec, h)
    op = assemble(make_medium(grid), 1.0)
    u = GridField(grid, np.ones(grid.n_nodes))
    fit = ExponentFit(alpha_hat=0.5, intercepts={1.0: 0.0}, n_samples=10)
    with pytest.raises(GeometryViolation, match="chain supports disk, "
                                                "annulus, rectangle domains"):
        chain_propagate(op, u, 1.0, 10.0, 0.1, fit)


def test_chain_zero_data():
    grid, _, op, _ = disk_setup(4.0, h=0.02)
    fit = estimate_exponent(_mode_samples(disk_grid(0.01), 4.0))
    z = GridField(grid, np.zeros(grid.n_nodes))
    res = chain_propagate(op, z, 0.0, 0.0, 0.1, fit)
    assert res.bound == 0.0 and res.n_balls == 0


def test_chain_blocked_above_level_stack():
    grid, _, op, _ = disk_setup(4.0, h=0.02)
    fit = estimate_exponent(_mode_samples(disk_grid(0.01), 4.0))
    u = mode_field(grid, 0, 4.0)
    # a deep set above the top chain level cannot be reached
    with pytest.raises(ChainBlocked):
        chain_propagate(op, u, 1.0, 10.0, 0.96, fit)
    # an empty deep set degrades gracefully to the layer bound
    res = chain_propagate(op, u, 1.0, 10.0, 2.0, fit)
    assert res.n_balls == 0 and res.bound == res.bound_layer


def test_boundary_distance_analytic():
    g = disk_grid(0.05)
    d = boundary_distance(g, np.array([[0.0, 0.0], [0.5, 0.0]]))
    assert np.allclose(d, [1.0, 0.5])
    ga = build_grid(DomainSpec("annulus", r_inner=0.5, r_outer=2.0), 0.1)
    d2 = boundary_distance(ga, np.array([[1.0, 0.0], [1.8, 0.0]]))
    assert np.allclose(d2, [0.5, 0.2])


def test_boundary_distance_masked_union():
    g = build_grid(DomainSpec("masked_union",
                              rectangles=[((0, 0), (2, 1)), ((0, 0), (1, 2))]),
                   0.02)
    bnd = g.nodes[g.boundary_index]
    pts = np.vstack([g.nodes,
                     np.random.default_rng(2).uniform(0.0, 2.0, (200, 2))])
    brute = np.array([np.min(np.linalg.norm(bnd - p, axis=1)) for p in pts])
    np.testing.assert_array_max_ulp(boundary_distance(g, pts), brute, maxulp=1)


def test_caccioppoli_uniform_over_family():
    g = disk_grid(0.01)
    worst = {}
    for k in (2.0, 4.0, 8.0):
        ratios = [caccioppoli_ratio(mode_field(g, ell, k), 0.2, k)
                  for ell in range(0, int(2 * k) + 6, 2)]
        worst[k] = max(ratios)
    vals = np.array(list(worst.values()))
    assert np.all(vals < 10.0)
    assert vals.max() / max(vals.min(), 1e-300) < 5.0


def test_source_neumann_ratio_uniform():
    ratios = []
    for k in (2.0, 5.0):
        grid, _, op, chart = disk_setup(k)
        omega1 = np.linalg.norm(grid.nodes, axis=1) <= 0.5
        rng = np.random.default_rng(int(k))
        for _ in range(3):
            v = GridField(grid, np.where(omega1, rng.standard_normal(grid.n_nodes), 0.0))
            ratios.append(source_neumann_ratio(op, chart, v, omega1))
    ratios = np.array(ratios)
    # a single constant bounds eta / (k^(n+2) ||v||) across the family
    assert ratios.max() < 1.0


def test_triple_masks_cached_per_grid_centre_and_radius():
    grid = disk_grid(0.01)
    r = 0.16
    for c in [(0.0, 0.0), (0.15, 0.05), (-0.2, 0.22)]:
        x0 = np.asarray(c, float)
        fresh = ball_mask(grid, x0, (r / 2.0, r, 2.0 * r))
        for ell in (0, 5):
            u = mode_field(grid, ell, 4.0)
            t = three_ball_ratio(u, c, r, 4.0)
            want = [norm(u, "L2", m) for m in fresh]
            assert [t.norm_half, t.norm_mid, t.norm_big] == want
            assert ucp._triple_norms(u, x0, r) == want
        masks = ucp._triple_masks(grid, x0, r)
        assert np.array_equal(masks, fresh)
        assert ucp._triple_masks(grid, x0, r) is masks
        with pytest.raises(ValueError):
            masks[0, 0] = not masks[0, 0]
