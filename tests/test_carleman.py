import math

import mpmath as mp
import numpy as np
import pytest

from helmlab import assembly
from helmlab.assembly import assemble
from helmlab.carleman import (adapted_compact_sample, carleman_check,
                              improved_ucp_probe, random_compact_sample)
from helmlab.errors import (GeometryViolation, HypothesisViolated,
                            SolverBreakdown, SupportViolation)
from helmlab.fields import GridField
from helmlab.geometry import DomainSpec, build_grid
from helmlab.profiles import make_medium
from helmlab.spectral import compute_sigma, find_admissible_k

from helpers import (adapted_compact_sample_reference, annulus_setup,
                     commutator_min, divergence_splitting, fit_line,
                     random_compact_sample_reference)


def _grid_medium(h=0.02):
    return annulus_setup(h)


def test_zero_sample():
    grid, med = _grid_medium()
    s = carleman_check(GridField(grid, np.zeros(grid.n_nodes)), med, 5.0, 20.0)
    assert s.ratio == 0.0
    assert all(t == 0.0 for t in s.lhs_terms)


def test_ratio_bounded_across_tau():
    grid, med = _grid_medium()
    rng = np.random.default_rng(0)
    u = random_compact_sample(grid, rng)
    ratios = [carleman_check(u, med, 5.0, tau).ratio for tau in (10.0, 20.0, 40.0)]
    assert max(ratios) < 1.0        # the inequality holds with unit constant
    assert min(ratios) > 0.0


def test_divergence_mode():
    grid, med = _grid_medium()
    rng = np.random.default_rng(1)
    u = random_compact_sample(grid, rng)
    f, F = divergence_splitting(grid, med, 5.0, u)
    s = carleman_check(u, med, 5.0, 20.0, f=f, F=F)
    assert 0.0 < s.ratio < 1.0
    assert s.rhs_terms[1] > 0.0      # the max(tau, k)-weighted part is active


def test_divergence_mode_needs_f_with_F():
    # F alone used to be dropped, giving the default-mode ratio
    grid, med = _grid_medium()
    u = random_compact_sample(grid, np.random.default_rng(1))
    _, F = divergence_splitting(grid, med, 5.0, u)
    with pytest.raises(HypothesisViolated):
        carleman_check(u, med, 5.0, 20.0, F=F)


def test_samples_and_checks_need_an_annulus():
    grid = build_grid(DomainSpec("disk", radius=2.0), 0.05)
    med = make_medium(grid, q_spec={"profile": "radial_quadratic",
                                    "amplitude": 0.25}, monotone=True)
    rng = np.random.default_rng(0)
    with pytest.raises(GeometryViolation):
        adapted_compact_sample(med, rng, 20.0, 2.0)
    with pytest.raises(GeometryViolation):
        random_compact_sample(grid, rng)
    u = GridField(grid, np.zeros(grid.n_nodes))
    with pytest.raises(GeometryViolation):
        carleman_check(u, med, 2.0, 20.0)


@pytest.mark.parametrize("seed", [0, 7, 11, 2024])
def test_samples_match_node_wise_reference(seed):
    # ring x angle products keep each node's bits and each draw from rng
    grid, med = annulus_setup(0.02)
    rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
    for tau in (10.0, 80.0):
        for k in (1.0, 32.0):
            for _ in range(2):
                got = adapted_compact_sample(med, rng, tau, k)
                want = adapted_compact_sample_reference(grid, med, ref, tau, k)
                assert np.array_equal(got.values, want.values)
                assert rng.bit_generator.state == ref.bit_generator.state
            got = random_compact_sample(grid, rng)
            want = random_compact_sample_reference(grid, ref)
            assert np.array_equal(got.values, want.values)
            assert rng.bit_generator.state == ref.bit_generator.state


def test_divergence_splitting_checks_its_poisson_solve(monkeypatch):
    # the potential's solve meets the residual check every solve meets: with
    # a zero tolerance no refinement can pass it
    grid, med = _grid_medium()
    u = random_compact_sample(grid, np.random.default_rng(1))
    monkeypatch.setattr(assembly, "_RESIDUAL_TOL", 0.0)
    with pytest.raises(SolverBreakdown):
        divergence_splitting(grid, med, 5.0, u)


def test_support_guards():
    grid, med = _grid_medium()
    bad = GridField(grid, np.ones(grid.n_nodes))
    with pytest.raises(SupportViolation):
        carleman_check(bad, med, 5.0, 20.0)
    rng = np.random.default_rng(2)
    u = random_compact_sample(grid, rng)
    with pytest.raises(HypothesisViolated):
        carleman_check(u, med, 5.0, 5.0)         # tau below tau0
    free = make_medium(grid, q_spec={"profile": "constant", "value": 1.0},
                       kappa=1.01, monotone=False)
    with pytest.raises(HypothesisViolated):
        carleman_check(u, free, 5.0, 20.0)


def test_commutator_positivity():
    grid, med = _grid_medium()
    assert commutator_min(med, 20.0, 5.0) >= 0.0
    # a radially decreasing profile flips the sign
    from helmlab.assembly import Medium
    r = np.linalg.norm(grid.nodes, axis=1)
    dec = Medium(q=GridField(grid, 2.0 - 0.3 * r ** 2),
                 V=GridField(grid, np.zeros(grid.n_nodes)), kappa=2.5)
    assert commutator_min(dec, 20.0, 5.0) < 0.0


def test_weight_accuracy_extended_precision():
    mp.mp.dps = 40
    r = 1.7342
    ours = float(np.exp(80.0 * np.log(r)))
    ref = float(mp.mpf(r) ** 80)
    assert abs(ours - ref) <= 1e-9 * ref


def test_uniformity_mini_scan():
    grid, med = _grid_medium(h=0.015)
    rng = np.random.default_rng(3)
    worst = {}
    taus, ks = (10.0, 20.0), (2.0, 4.0)
    for tau in taus:
        for k in ks:
            vals = [carleman_check(adapted_compact_sample(med, rng, tau, k),
                                   med, k, tau).ratio for _ in range(10)]
            worst[(tau, k)] = max(vals)
    for k in ks:
        f = worst[(20.0, k)] / worst[(10.0, k)]
        assert 0.4 <= f <= 2.5
    for tau in taus:
        f = worst[(tau, 4.0)] / worst[(tau, 2.0)]
        assert 0.4 <= f <= 2.5


def test_improved_probe_gate_and_envelope():
    grid = build_grid(DomainSpec("annulus", r_inner=1.0, r_outer=2.0), 0.02)
    med = make_medium(grid, q_spec={"profile": "constant", "value": 1.0},
                      kappa=1.01, monotone=True)
    rep = compute_sigma(med, 40, shifts=(16.0,))
    k = find_admissible_k(rep, 4.0)
    op = assemble(med, k)
    with pytest.raises(HypothesisViolated):
        improved_ucp_probe(op, int(k) + 2)   # eta too large
    for ell in (12, 16, 20):
        pr = improved_ucp_probe(op, ell)
        assert 0.0 < k ** 3 * pr.eta <= pr.M
        assert pr.lhs(0.2) <= pr.rhs_poly
        assert pr.lhs(0.2) <= pr.lhs_full


def test_improved_constant_contrast_with_general_geometry():
    # convex-geometry probe: the fitted envelope constant does not grow as k
    # doubles (measured it even decreases), while the general-geometry
    # three-balls constant from the continuation probes grows with k
    grid = build_grid(DomainSpec("annulus", r_inner=1.0, r_outer=2.0), 0.02)
    med = make_medium(grid, q_spec={"profile": "constant", "value": 1.0},
                      kappa=1.01, monotone=True)
    rep = compute_sigma(med, 60, shifts=(16.0, 64.0))
    consts = {}
    xs_all, ys_all = [], []
    probes = {}
    for kt in (4.0, 8.0):
        k = find_admissible_k(rep, kt)
        op = assemble(med, k)
        pts = []
        for ell in range(int(k) + 7, int(k) + 23):
            try:
                pr = improved_ucp_probe(op, ell)
            except HypothesisViolated:
                continue
            pts.append((math.log(k ** 3 * pr.eta / pr.M),
                        math.log(pr.lhs(0.2) / pr.M)))
        probes[kt] = pts
        xs_all += [p[0] for p in pts]
        ys_all += [p[1] for p in pts]
    nu_hat = fit_line(xs_all, ys_all)[0]
    for kt, pts in probes.items():
        consts[kt] = max(y - nu_hat * x for x, y in pts)
    assert consts[8.0] <= consts[4.0] + math.log(1.5)

    from helmlab.modes import mode_field
    from helmlab.ucp import estimate_exponent, three_ball_ratio
    from helpers import disk_grid
    g = disk_grid(0.01)
    cal = {}
    for k in (4.0, 8.0):
        samples = []
        for ell in range(0, int(2 * k) + 9):
            u = mode_field(g, ell, k)
            for c in [(0.0, 0.0), (0.2, 0.1), (0.3, 0.0)]:
                t = three_ball_ratio(u, c, 0.16, k)
                if not t.degenerate():
                    samples.append(t)
        cal[k] = samples
    fit = estimate_exponent(cal[4.0] + cal[8.0])
    assert fit.log_c(8.0) > fit.log_c(4.0)


def test_improved_probe_delta_monotone_exponent():
    grid = build_grid(DomainSpec("annulus", r_inner=1.0, r_outer=2.0), 0.02)
    med = make_medium(grid, q_spec={"profile": "constant", "value": 1.0},
                      kappa=1.01, monotone=True)
    rep = compute_sigma(med, 40, shifts=(16.0,))
    k = find_admissible_k(rep, 4.0)
    op = assemble(med, k)
    probes = [improved_ucp_probe(op, ell) for ell in range(11, 24)]
    xs = [math.log(k ** 3 * pr.eta / pr.M) for pr in probes]
    nus = [fit_line(xs, [math.log(pr.lhs(delta) / pr.M) for pr in probes])[0]
           for delta in (0.1, 0.2, 0.4)]
    assert nus[0] < nus[1] < nus[2]
