"""Acceptance criteria, one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; tolerances are pinned here and nowhere else.
"""

import math
import time

import numpy as np
from scipy import stats

from helmlab.assembly import assemble, solve_dirichlet
from helmlab.bessel import (bessel_j, check_bessel_inequalities, mode_l2_sq,
                            optimality_lower_bound, radial_profile)
from helmlab.calderon import (alessandrini_gap, dtn_distance, dtn_map,
                              perturbation_record, stability_check)
from helmlab.carleman import adapted_compact_sample, carleman_check, \
    random_compact_sample
from helmlab.fields import GridField, norm
from helmlab.geometry import ball_mask
from helmlab.modes import mode_field, random_mode_superposition
from helmlab.profiles import make_medium
from helmlab.runge import (MaskSolutionBasis, adjoint_apply, aggregate_median,
                           build_forward_map, runge_approximate, svd,
                           sweep_and_fit, sweep_params, trace_inner,
                           truncation_energy_identity)
from helmlab.spectral import check_admissibility
from helmlab.ucp import estimate_exponent, three_ball_ratio

from helpers import (annulus_setup, cube_setup, curvature_statistic, disk_grid,
                     disk_pair_svd, disk_setup, disk_spectrum, fit_line, margin,
                     mode_l2_sq_series)


def _ok(num, name):
    print(f"\nACCEPTANCE {num:02d} {name}: PASS")


# -- 1 ------------------------------------------------------------------

def test_criterion_01_adjoint_exactness():
    start = time.time()
    _, _, rep = disk_spectrum()
    rng = np.random.default_rng(1)
    worst = 0.0
    for k in (2.0, 5.0, 9.0):
        assert check_admissibility(k, rep)["admissible"]
        fmap, _ = disk_pair_svd(k)
        for _ in range(17):
            gv = rng.standard_normal(fmap.gamma_ids.size)
            uv = rng.standard_normal(fmap.omega1_ids.size)
            lhs = float((fmap.A @ gv) @ (fmap.wx * uv))
            rhs = trace_inner(fmap, fmap.trace_from_gamma(gv),
                              adjoint_apply(fmap, uv))
            worst = max(worst, abs(lhs - rhs) / max(abs(lhs), abs(rhs)))
    elapsed = time.time() - start
    assert worst <= 1e-8
    assert elapsed <= 120.0
    _ok(1, f"adjoint exactness (worst rel {worst:.2e}, {elapsed:.0f}s)")


# -- 2 ------------------------------------------------------------------

def test_criterion_02_svd_identities():
    # the wider nested pair keeps the 50th singular value above the numerical
    # floor while the per-mode decay slope stays below -0.1
    fmap, system = disk_pair_svd(5.0, inner=0.75)
    sv = system.singular_values
    m = min(50, sv.size)
    for j in range(m):
        lhs = fmap.A @ system.phi[:, j]
        rhs = sv[j] * system.psi[:, j]
        assert np.linalg.norm(lhs - rhs) <= 1e-8 * max(np.linalg.norm(rhs), 1e-300)
    PtWP = system.psi[:, :m].T @ (fmap.wx[:, None] * system.psi[:, :m])
    G = fmap.chart.h_half_gram(fmap.gamma_positions())
    PhiG = system.phi[:, :m].T @ G @ system.phi[:, :m]
    assert np.max(np.abs(PtWP - np.eye(m))) <= 1e-8
    assert np.max(np.abs(PhiG - np.eye(m))) <= 1e-8
    slope, _, _ = fit_line(np.arange(m), np.log(sv[:m]))
    assert slope < -0.1
    _ok(2, f"singular system identities (decay slope {slope:.3f})")


# -- 3 ------------------------------------------------------------------

def test_criterion_03_interior_vs_boundary_signatures():
    fit_i = sweep_and_fit("interior", sweep_params("interior",
                                                   seeds=tuple(range(8))))
    med = aggregate_median(fit_i.records, by=("epsilon",), key="cost",
                           min_count=4)
    assert len(med) >= 5
    slope, _, r2 = fit_line(np.log(1.0 / np.array([m["epsilon"] for m in med])),
                            np.log([m["cost"] for m in med]))
    assert slope > 0
    assert r2 >= 0.9

    fit_b = sweep_and_fit("boundary", sweep_params("boundary",
                                                   seeds=tuple(range(8))))
    curls = curvature_statistic(fit_b.records)
    vals = np.array(list(curls.values()))
    assert vals.size >= 5
    t, p = stats.ttest_1samp(vals, 0.0, alternative="greater")
    assert p < 0.05
    _ok(3, f"poly-in-1/eps signature (R2 {r2:.3f}) vs superlinear "
           f"(curvature p {p:.1e})")


# -- 4 ------------------------------------------------------------------

def test_criterion_04_convex_k_scaling_stable():
    fit = sweep_and_fit("convex")
    med = aggregate_median(fit.records, by=("k",), key="cost_rel", min_count=4)
    ks = np.array([m["k"] for m in med])
    cs = np.array([m["cost_rel"] for m in med])
    assert ks.size >= 6
    full, _, _ = fit_line(np.log(ks), np.log(cs))
    half_mask = ks <= ks.max() / 2.0   # doubling the range: [2,8] vs [2,16]
    half, _, _ = fit_line(np.log(ks[half_mask]), np.log(cs[half_mask]))
    change = abs(full - half) / max(abs(full), 1.0)
    assert change <= 0.30
    _ok(4, f"convex-annulus k-slope stable (full {full:.3f}, half {half:.3f}, "
           f"change {change:.2f})")


# -- 5 ------------------------------------------------------------------

def test_criterion_05_cutoff_bound_and_energy_identity():
    for scenario in ("interior", "convex"):
        fit = sweep_and_fit(scenario, sweep_params(
            scenario, seeds=(0, 1, 2),
            k_list=(3.2,) if scenario == "interior" else (2.0, 4.0)))
        for r in fit.records:
            assert r["cost"] <= r["v_l2"] / r["alpha"] * (1 + 1e-10) \
                or r["cost"] == 0.0

    grid, _, op, chart = disk_setup(3.2, 0.025)
    omega1 = ball_mask(grid, (0, 0), 0.5)
    fmap = build_forward_map(op, omega1)
    system = svd(fmap)
    basis = MaskSolutionBasis(op, ball_mask(grid, (0, 0), 0.6))
    worst = 0.0
    cells = 0
    for seed in range(5):
        v = basis.sample(np.random.default_rng(seed), decay=1.25)
        for eps in (2.0 ** -4, 2.0 ** -5, 2.0 ** -6, 2.0 ** -7):
            ap = runge_approximate(system, v, eps, 1.0)
            lhs, rhs = truncation_energy_identity(fmap, v, ap)
            if lhs > 0:
                worst = max(worst, abs(lhs - rhs) / lhs)
                cells += 1
    assert cells >= 20
    assert worst <= 1e-6
    _ok(5, f"cutoff bound everywhere; energy identity worst rel {worst:.2e} "
           f"on {cells} cells")


# -- 6 ------------------------------------------------------------------

def test_criterion_06_apriori_resonance_slope():
    grid, med, rep = disk_spectrum()
    lam1 = rep.eigenvalues[0]
    f = GridField(grid, np.ones(grid.n_nodes))
    dists, ratios = [], []
    for d in (2.0, 1.0, 0.5, 0.25, 0.125):
        k = math.sqrt(lam1 + d)
        u = solve_dirichlet(assemble(med, k), f=f)
        dists.append(d)
        ratios.append(norm(u, "H1") / norm(f, "L2"))
    slope, _, _ = fit_line(np.log(dists), np.log(ratios))
    assert -1.15 <= slope <= -0.85
    _ok(6, f"a-priori bound slope vs resonance distance ({slope:.3f})")


# -- 7 ------------------------------------------------------------------

def test_criterion_07_three_balls_envelope():
    g = disk_grid(0.01)
    centers = [(0.0, 0.0), (0.15, 0.05), (-0.2, 0.22), (0.3, 0.0), (0.0, -0.3)]
    cal = []
    for k in (2.0, 4.0, 8.0, 16.0):
        for ell in range(0, int(2 * k) + 9, 2):
            u = mode_field(g, ell, k)
            for c in centers:
                t = three_ball_ratio(u, c, 0.16, k)
                if not t.degenerate():
                    cal.append(t)
    fit = estimate_exponent(cal)
    assert 0.0 < fit.alpha_hat < 1.0

    rng = np.random.default_rng(5)
    worst_margin = np.inf
    for k in (2.0, 4.0, 8.0, 16.0):
        for _ in range(6):
            u = random_mode_superposition(g, k, int(2 * k) + 8, rng)
            for c in centers[:3]:
                t = three_ball_ratio(u, c, 0.16, k)
                if not t.degenerate():
                    worst_margin = min(worst_margin, margin(fit, t))
        for ell in range(1, int(2 * k) + 8, 2):
            u = mode_field(g, ell, k, parity="sin")
            for c in centers[3:]:
                t = three_ball_ratio(u, c, 0.16, k)
                if not t.degenerate():
                    worst_margin = min(worst_margin, margin(fit, t))
    assert worst_margin >= 0.0

    logc = [fit.log_c(k) for k in (2.0, 4.0, 8.0, 16.0)]
    assert all(b >= a - 1e-12 for a, b in zip(logc, logc[1:]))
    _ok(7, f"three-balls envelope (alpha {fit.alpha_hat:.3f}, held-out margin "
           f"{worst_margin:.3f}, log C {['%.2f' % v for v in logc]})")


# -- 8 ------------------------------------------------------------------

def test_criterion_08_carleman_uniformity():
    start = time.time()
    grid, med = annulus_setup(0.015)
    rng = np.random.default_rng(123)
    taus = (10.0, 20.0, 40.0, 80.0)
    ks = (1.0, 2.0, 4.0, 8.0, 16.0, 32.0)
    worst = {}
    n_samples = 0
    for tau in taus:
        for k in ks:
            best = 0.0
            for _ in range(16):
                u = adapted_compact_sample(med, rng, tau, k)
                best = max(best, carleman_check(u, med, k, tau).ratio)
                n_samples += 1
            for _ in range(3):
                u = random_compact_sample(grid, rng)
                best = max(best, carleman_check(u, med, k, tau).ratio)
                n_samples += 1
            worst[(tau, k)] = best
    assert n_samples >= 100
    for t in taus[:-1]:
        for k in ks:
            f = worst[(2 * t, k)] / worst[(t, k)]
            assert 0.5 <= f <= 2.0, f"tau doubling factor {f:.3f} at {(t, k)}"
    for k in ks[:-1]:
        for t in taus:
            f = worst[(t, 2 * k)] / worst[(t, k)]
            assert 0.5 <= f <= 2.0, f"k doubling factor {f:.3f} at {(t, k)}"
    elapsed = time.time() - start
    assert elapsed <= 600.0
    _ok(8, f"weighted-inequality uniformity ({n_samples} samples, "
           f"{elapsed:.0f}s)")


# -- 9 ------------------------------------------------------------------

def test_criterion_09_bessel_engine():
    for x in (1.0, 2.0, 5.0):
        exact = math.sqrt(2.0 / (math.pi * x)) * math.sin(x)
        assert abs(bessel_j(0.5, x) - exact) <= 1e-10 * abs(exact)
    rep = check_bessel_inequalities()
    assert rep["violations"] == 0
    assert rep["monotone_increasing"]
    for (ell, k, n) in ((6, 3.0, 2), (12, 2.0, 2), (8, 3.0, 3)):
        quad = mode_l2_sq(ell, k, n)
        series = mode_l2_sq_series(ell, k, n)
        assert abs(quad - series) <= 1e-8 * quad
    _ok(9, "half-order closed form, inequality scan, norm-series identity")


# -- 10 -----------------------------------------------------------------

def test_criterion_10_optimality_cross_check():
    k = 2.0
    grid, _, op, chart = disk_setup(k, h=0.02)
    omega1 = ball_mask(grid, (0, 0), 0.5)
    fmap = build_forward_map(op, omega1)
    system = svd(fmap)
    r = np.linalg.norm(grid.nodes, axis=1)
    th = np.arctan2(grid.nodes[:, 1], grid.nodes[:, 0])
    ratios = []
    for ell in (12, 16, 20):
        rec = optimality_lower_bound(k, ell, n=2)
        vals = rec.alpha_ell * radial_profile(ell, k, 2, r) \
            * np.cos(ell * th) / math.sqrt(math.pi)
        v = GridField(grid, np.where(omega1, vals, 0.0))
        ap = runge_approximate(system, v, rec.epsilon, 1.0)
        ratios.append(ap.cost / rec.min_boundary_norm)
        assert ap.cost >= 0.5 * rec.min_boundary_norm
        grown = optimality_lower_bound(k, 2 * ell, n=2)
        assert grown.min_boundary_norm / rec.min_boundary_norm >= 2.0 ** ell
    _ok(10, f"boundary-cost optimality (measured/analytic "
            f"{['%.2f' % v for v in ratios]})")


# -- 11 -----------------------------------------------------------------

def test_criterion_11_calderon_stability():
    grid, med, op1, chart = cube_setup(16, 1.0)
    d_same = dtn_distance(dtn_map(op1), dtn_map(op1))
    assert d_same <= 1e-10

    rng = np.random.default_rng(7)
    records = []
    worst_identity = 0.0
    for k in (1.0, 2.0, 3.0):
        opa = assemble(med, k)
        da = dtn_map(opa)
        for amp in (0.5, 1.0, 2.0):
            med2 = make_medium(grid,
                               q_spec={"profile": "constant", "value": 1.0},
                               v_spec={"profile": "bump", "amplitude": amp,
                                       "center": [0.5, 0.5, 0.5],
                                       "radius": 0.25},
                               kappa=1.01)
            opb = assemble(med2, k)
            db = dtn_map(opb)
            records.append(perturbation_record(opa, opb, da, db))
            g1 = rng.standard_normal(da.gamma_ids.size)
            g2 = rng.standard_normal(da.gamma_ids.size)
            vol, bnd = alessandrini_gap(da, db, g1, g2)
            worst_identity = max(worst_identity, abs(vol - bnd) / abs(vol))
    assert worst_identity <= 1e-6
    result = stability_check(records, n=3)
    assert result["validated"]
    _ok(11, f"partial-data stability (identity rel {worst_identity:.1e}, "
            f"single C {result['best_C']:.3g} over {len(records)} cells)")


# -- 12 -----------------------------------------------------------------

def test_criterion_12_determinism(tmp_path):
    from helmlab.cli import run_experiment
    cfg = {
        "experiment": "runge_sweep",
        "domain": {"kind": "disk", "radius": 1.0},
        "medium": {"q": {"profile": "constant", "value": 1.0}},
        "seeds": [0, 1],
        "epsilon_list": [0.25, 0.0625, 0.015625],
        "k_list": [3.2],
        "seed": 0,
        "params": {"scenario": "interior"},
    }
    run_experiment(cfg, out_dir=tmp_path / "a")
    run_experiment(cfg, out_dir=tmp_path / "b")
    a = (tmp_path / "a" / "runge_records.csv").read_bytes()
    b = (tmp_path / "b" / "runge_records.csv").read_bytes()
    assert a == b and len(a) > 0
    _ok(12, "byte-identical artifacts on rerun")
