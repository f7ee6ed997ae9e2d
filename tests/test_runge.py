import numpy as np
import pytest

from helmlab import runge
from helmlab.assembly import assemble, solve_dirichlet, verified_solve
from helmlab.errors import GeometryViolation, GramNotSPD, TargetUnreachable
from helmlab.fields import GridField, norm
from helmlab.geometry import (DomainSpec, annulus_mask, ball_mask,
                              boundary_chart, build_grid,
                              check_nested_separation)
from helmlab.modes import mode_field
from helmlab.profiles import make_medium
from helmlab.runge import (MaskSolutionBasis, adjoint_apply,
                           adjoint_apply_matrix, aggregate_median,
                           build_forward_map, curvature_statistic, expand,
                           fit_records, runge_approximate, svd, sweep_and_fit,
                           sweep_params, trace_inner, truncation_energy_identity)

from helpers import disk_pair_svd, disk_setup, fit_line


def test_forward_columns_are_solves():
    fmap, _ = disk_pair_svd(5.0)
    rng = np.random.default_rng(0)
    for j in rng.integers(0, fmap.gamma_ids.size, size=3):
        e = np.zeros(fmap.gamma_ids.size)
        e[j] = 1.0
        u = solve_dirichlet(fmap.op, g=fmap.trace_from_gamma(e))
        assert np.allclose(u.values[fmap.omega1_ids], fmap.A[:, j],
                           rtol=1e-12, atol=1e-14)
    # zero data, zero column
    z = solve_dirichlet(fmap.op, g=fmap.trace_from_gamma(
        np.zeros(fmap.gamma_ids.size)))
    assert np.max(np.abs(z.values)) == 0.0


def test_forward_map_blocks_match_one_solve():
    # gamma columns are solved a block at a time; the blocks, a partial last
    # one included, give the same bits as one solve of every column
    fmap, _ = disk_pair_svd(5.0)
    op, grid = fmap.op, fmap.op.grid
    n_gamma = fmap.gamma_ids.size
    assert n_gamma > runge._FORWARD_BLOCK and n_gamma % runge._FORWARD_BLOCK
    bpos = np.searchsorted(grid.boundary_index, fmap.gamma_ids)
    ipos = np.searchsorted(grid.interior_index, fmap.omega1_ids)
    u_int = verified_solve(op.L_II, op.lu(), -op.L_IB[:, bpos].toarray())
    assert np.array_equal(fmap.A, u_int[ipos, :])


def test_adjoint_pairing_and_matrix_agreement():
    fmap, _ = disk_pair_svd(5.0)
    rng = np.random.default_rng(1)
    for _ in range(5):
        gv = rng.standard_normal(fmap.gamma_ids.size)
        uv = rng.standard_normal(fmap.omega1_ids.size)
        lhs = float((fmap.A @ gv) @ (fmap.wx * uv))
        tr_pde = adjoint_apply(fmap, uv)
        rhs = trace_inner(fmap, fmap.trace_from_gamma(gv), tr_pde)
        assert abs(lhs - rhs) <= 1e-8 * max(abs(lhs), abs(rhs))
        tr_mat = adjoint_apply_matrix(fmap, uv)
        scale = np.max(np.abs(tr_mat.values))
        assert np.max(np.abs(tr_pde.values - tr_mat.values)) <= 1e-8 * scale


def test_forward_map_rejects_target_near_charted_boundary():
    grid, _, op, chart = disk_setup(2.0)
    with pytest.raises(GeometryViolation):
        build_forward_map(op, ball_mask(grid, (0, 0), 0.9), chart)


def test_forward_map_accepts_target_on_uncharted_boundary():
    grid = build_grid(DomainSpec.annulus(0.5, 2.0), 0.1)
    op = assemble(grid, make_medium(grid), 2.0)
    chart = boundary_chart(grid)
    omega1 = annulus_mask(grid, 0.5, 1.0)          # touches the inner circle
    with pytest.raises(GeometryViolation):
        check_nested_separation(grid, omega1)
    fmap = build_forward_map(op, omega1, chart)
    assert fmap.A.shape == (fmap.omega1_ids.size, chart.n)


def test_separation_matches_brute_force():
    grid = build_grid(DomainSpec.annulus(0.5, 1.0), 0.05)
    mask = ball_mask(grid, (0.1, 0.7), 0.15)
    chart_ids = boundary_chart(grid).node_ids
    for ids in (grid.boundary_index, chart_ids):
        brute = np.min(np.linalg.norm(grid.nodes[mask][:, None, :]
                                      - grid.nodes[ids][None, :, :], axis=2))
        sep = check_nested_separation(grid, mask, 0, boundary_ids=ids)
        assert abs(sep - brute) <= 1e-14
    assert check_nested_separation(grid, mask, 0) < \
        check_nested_separation(grid, mask, 0, boundary_ids=chart_ids)


def test_svd_identities():
    fmap, system = disk_pair_svd(5.0)
    sv = system.singular_values
    assert np.all(np.diff(system.mu) <= 1e-12)
    m = min(20, sv.size)
    for j in (0, 3, m - 1):
        lhs = fmap.A @ system.phi[:, j]
        rhs = sv[j] * system.psi[:, j]
        assert np.linalg.norm(lhs - rhs) <= 1e-8 * np.linalg.norm(rhs)
    PtWP = system.psi[:, :m].T @ (fmap.wx[:, None] * system.psi[:, :m])
    assert np.max(np.abs(PtWP - np.eye(m))) < 1e-10
    PhiG = system.phi[:, :m].T @ fmap.gram_gamma @ system.phi[:, :m]
    assert np.max(np.abs(PhiG - np.eye(m))) < 1e-10
    # reconstruction
    recon = (np.sqrt(fmap.wx)[:, None] * system.psi) * sv @ \
        (system.phi.T @ fmap.gram_gamma)
    target = np.sqrt(fmap.wx)[:, None] * fmap.A
    assert np.linalg.norm(recon - target) <= 1e-8 * np.linalg.norm(target)


def test_singular_value_decay():
    _, system = disk_pair_svd(5.0)
    m = min(50, system.mu.size)
    slope, _, _ = fit_line(np.arange(m), np.log(system.singular_values[:m]))
    assert slope < -0.1


def test_injectivity_at_discrete_level():
    _, system = disk_pair_svd(2.0)
    assert system.singular_values.min() > 0.0


def test_gram_not_spd_guard():
    fmap, _ = disk_pair_svd(2.0)
    import dataclasses
    bad = dataclasses.replace(fmap, gram_gamma=-np.eye(fmap.gamma_ids.size))
    with pytest.raises(GramNotSPD):
        svd(bad)


def test_single_mode_approximant():
    fmap, system = disk_pair_svd(5.0)
    v_vals = np.zeros(fmap.op.grid.n_nodes)
    v_vals[fmap.omega1_ids] = system.psi[:, 0]
    mask = np.zeros(fmap.op.grid.n_nodes, dtype=bool)
    mask[fmap.omega1_ids] = True
    v = GridField(fmap.op.grid, v_vals, mask)
    ap = runge_approximate(system, v, 0.5, 1.0)
    assert ap.n_retained == 1
    assert ap.err < 1e-8
    assert abs(ap.cost - 1.0 / system.singular_values[0]) < 1e-8

    forced = runge_approximate(system, v, 0.5, 1.0,
                               alpha=2.0 * system.singular_values[0])
    assert forced.n_retained == 0 and forced.cost == 0.0
    assert abs(forced.err - norm(v, "L2", mask)) < 1e-10


def test_cost_monotonicity_and_cutoff_bound():
    grid, _, op, chart = disk_setup(5.0)
    fmap, system = disk_pair_svd(5.0)
    v = mode_field(grid, 3, 5.0)
    mask = np.zeros(grid.n_nodes, dtype=bool)
    mask[fmap.omega1_ids] = True
    v = GridField(grid, np.where(mask, v.values, 0.0), mask)
    v_l2 = norm(v, "L2", mask)
    prev_cost, prev_err = -1.0, np.inf
    for eps in (0.5, 0.25, 0.125, 0.0625, 0.03125):
        ap = runge_approximate(system, v, eps, v_l2)
        assert ap.cost >= prev_cost - 1e-12
        assert ap.err <= prev_err + 1e-12
        assert ap.cost <= v_l2 / ap.alpha * (1 + 1e-10)
        prev_cost, prev_err = ap.cost, ap.err


def test_target_unreachable_for_noise():
    fmap, system = disk_pair_svd(5.0)
    rng = np.random.default_rng(2)
    grid = fmap.op.grid
    mask = np.zeros(grid.n_nodes, dtype=bool)
    mask[fmap.omega1_ids] = True
    noise = GridField(grid, np.where(mask, rng.standard_normal(grid.n_nodes), 0.0),
                      mask)
    with pytest.raises(TargetUnreachable):
        runge_approximate(system, noise, 1e-12, 1.0)


def test_energy_identity_and_orthogonal_split():
    grid, _, op, chart = disk_setup(5.0, 0.025)
    omega1 = ball_mask(grid, (0, 0), 0.5)
    fmap = build_forward_map(op, omega1, chart)
    system = svd(fmap)
    basis = MaskSolutionBasis(op, ball_mask(grid, (0, 0), 0.6))
    v = basis.sample(np.random.default_rng(3), decay=1.25)
    ap = runge_approximate(system, v, 2.0 ** -6, 1.0)
    lhs, rhs = truncation_energy_identity(fmap, v, ap)
    assert abs(lhs - rhs) <= 1e-6 * max(lhs, 1e-300)
    # orthogonal split of v into retained and discarded parts
    v_alpha = v.values[fmap.omega1_ids] - ap.u_alpha.values[fmap.omega1_ids]
    retained = ap.u_alpha.values[fmap.omega1_ids]
    cross = float(np.sum(fmap.wx * v_alpha * retained))
    v_sq = float(np.sum(fmap.wx * v.values[fmap.omega1_ids] ** 2))
    assert abs(cross) <= 1e-10 * v_sq


def test_basis_determinism_and_normalization():
    grid, _, op, _ = disk_setup(5.0, 0.025)
    basis = MaskSolutionBasis(op, ball_mask(grid, (0, 0), 0.6))
    v1 = basis.sample(np.random.default_rng(7), decay=1.0)
    v2 = basis.sample(np.random.default_rng(7), decay=1.0)
    assert np.array_equal(v1.values, v2.values)
    assert abs(norm(v1, "H1", v1.region) - 1.0) < 1e-10


def test_sweep_records_and_fits():
    params = sweep_params("interior", seeds=(0, 1, 2))
    fit = sweep_and_fit("interior", params)
    for r in fit.records:
        assert r["cost"] <= r["v_l2"] / r["alpha"] * (1 + 1e-10) or r["cost"] == 0.0
    med = aggregate_median(fit.records, by=("epsilon",), min_count=2)
    assert len(med) >= 4
    slope, _, _ = fit_line(np.log(1.0 / np.array([m["epsilon"] for m in med])),
                           np.log([m["cost"] for m in med]))
    assert slope > 0
    curv = curvature_statistic(fit.records)
    assert set(curv) <= {0, 1, 2}
