import heapq

import numpy as np
import pytest
from scipy.spatial import cKDTree

from helmlab import ucp
from helmlab.bessel import bessel_j, gauss_legendre
from helmlab.errors import ChainBlocked, DegenerateSamples, GeometryViolation
from helmlab.fields import BoundaryTrace, GridField, lp_norm, norm, trace_norm
from helmlab.geometry import DomainSpec, boundary_chart, build_grid
from helmlab.modes import mode_field, random_mode_superposition
from helmlab.ucp import (boundary_distance, boundary_three_ball,
                         caccioppoli_ratio, chain_propagate, estimate_exponent,
                         source_neumann_ratio, three_ball_ratio)

from helpers import disk_grid, disk_pair_svd, disk_setup


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
    assert min(fit.margin(t) for t in samples) >= -1e-12
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


def test_boundary_variant_fit():
    g = disk_grid(0.01)
    chart = boundary_chart(g)
    samples = []
    for ell in range(0, 13, 2):
        u = mode_field(g, ell, 4.0)
        eta = 2.0 * trace_norm(BoundaryTrace(chart, u.values[chart.node_ids]), 0.5)
        for th in (0.0, 1.3, 2.9):
            x0 = (np.cos(th), np.sin(th))
            t = boundary_three_ball(u, x0, 0.16, 4.0, eta)
            if not t.degenerate() and t.eta > 0:
                samples.append(t)
    fit = estimate_exponent(samples, boundary=True)
    assert 0.0 < fit.alpha_hat < 1.0
    assert min(fit.margin(t) for t in samples) >= -1e-12


def test_chain_growth_and_validity():
    grid, _, op, chart = disk_setup(4.0, h=0.02)
    cal = _mode_samples(disk_grid(0.01), 4.0)
    fit = estimate_exponent(cal)
    rng = np.random.default_rng(11)
    u = random_mode_superposition(grid, 4.0, 10, rng)
    eta = 2.0 * trace_norm(BoundaryTrace(chart, u.values[chart.node_ids]), 0.5)
    M = norm(u, "H1")
    c4 = 1.5 * lp_norm(u, 4) / M
    rows = []
    for eps in (0.2, 0.1, 0.05, 0.025):
        res = chain_propagate(op, chart, u, eta, M, eps, fit,
                              sobolev_constant=c4)
        assert res.covered
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
            dist = float(np.linalg.norm(centers[i] - centers[j]))
            if dist + radii[j] / 2.0 <= radii[i] + 1e-12:
                cand = step(val)
                if cand < value[j]:
                    value[j] = cand
                    hops[j] = hops[i] + 1
                    heapq.heappush(heap, (cand, int(j)))
    return value, hops


def _greedy_cover_reference(nodes, deep, centers, radii, value):
    # each ball tested against every grid node
    uncovered = deep.copy()
    cover_sq, n_cover = 0.0, 0
    for ci in np.argsort(value):
        if not np.any(uncovered):
            break
        ball = np.linalg.norm(nodes - centers[ci], axis=1) <= radii[ci]
        if np.any(uncovered & ball):
            cover_sq += value[ci] ** 2
            n_cover += 1
            uncovered &= ~ball
    return cover_sq, n_cover, int(uncovered.sum())


def test_chain_matches_scalar_reference(monkeypatch):
    grid, _, op, _ = disk_setup(4.0, h=0.02)
    fit = estimate_exponent(_mode_samples(disk_grid(0.01), 4.0))
    u = random_mode_superposition(grid, 4.0, 10, np.random.default_rng(3))
    M = norm(u, "H1")
    runs = []
    for gamma in ("full", {"angles": [[0.0, np.pi]]}):
        chart = boundary_chart(grid, gamma)
        eta = 2.0 * trace_norm(BoundaryTrace(chart, u.values[chart.node_ids]), 0.5)
        runs += [(chart, eta, eps) for eps in (0.2, 0.1)]
    fast = [chain_propagate(op, chart, u, eta, M, eps, fit)
            for chart, eta, eps in runs]
    monkeypatch.setattr(ucp, "_certify", _certify_reference)
    monkeypatch.setattr(ucp, "_greedy_cover", _greedy_cover_reference)
    slow = [chain_propagate(op, chart, u, eta, M, eps, fit)
            for chart, eta, eps in runs]
    assert all(r.n_balls > 0 and r.n_cover > 0 for r in slow)
    assert fast == slow


def test_ball_nodes_match_full_scan():
    g = disk_grid(0.02)
    nodes = g.nodes
    tree = cKDTree(nodes)
    rng = np.random.default_rng(5)
    centers = np.vstack([[0.0, 0.0], nodes[rng.integers(g.n_nodes, size=20)],
                         rng.uniform(-1.0, 1.0, (40, 2))])
    for c in centers:
        d = np.linalg.norm(nodes - c, axis=1)
        # radii equal to exact node distances put nodes on the sphere
        for r in d[rng.integers(g.n_nodes, size=5)]:
            got = np.sort(ucp._ball_nodes(tree, nodes, c, r))
            assert np.array_equal(got, np.flatnonzero(d <= r))


def test_chain_zero_data():
    grid, _, op, chart = disk_setup(4.0, h=0.02)
    fit = estimate_exponent(_mode_samples(disk_grid(0.01), 4.0))
    z = GridField(grid, np.zeros(grid.n_nodes))
    res = chain_propagate(op, chart, z, 0.0, 0.0, 0.1, fit)
    assert res.bound == 0.0 and res.n_balls == 0


def test_chain_blocked_above_level_stack():
    grid, _, op, chart = disk_setup(4.0, h=0.02)
    fit = estimate_exponent(_mode_samples(disk_grid(0.01), 4.0))
    u = mode_field(grid, 0, 4.0)
    # a deep set above the top chain level cannot be reached
    with pytest.raises(ChainBlocked):
        chain_propagate(op, chart, u, 1.0, 10.0, 0.96, fit)
    # an empty deep set degrades gracefully to the layer bound
    res = chain_propagate(op, chart, u, 1.0, 10.0, 2.0, fit)
    assert res.covered and res.n_balls == 0 and res.bound == res.bound_layer


def test_boundary_distance_analytic():
    g = disk_grid(0.05)
    d = boundary_distance(g, np.array([[0.0, 0.0], [0.5, 0.0]]))
    assert np.allclose(d, [1.0, 0.5])
    ga = build_grid(DomainSpec.annulus(0.5, 2.0), 0.1)
    d2 = boundary_distance(ga, np.array([[1.0, 0.0], [1.8, 0.0]]))
    assert np.allclose(d2, [0.5, 0.2])


def test_boundary_distance_masked_union():
    g = build_grid(DomainSpec.masked_union([((0, 0), (2, 1)), ((0, 0), (1, 2))]),
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
            v = GridField(grid, np.where(omega1, rng.standard_normal(grid.n_nodes), 0.0),
                          omega1)
            ratios.append(source_neumann_ratio(op, chart, v, omega1))
    ratios = np.array(ratios)
    # a single constant bounds eta / (k^(n+2) ||v||) across the family
    assert ratios.max() < 1.0
