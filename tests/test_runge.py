import dataclasses

import numpy as np
import pytest
import scipy.sparse.linalg as spla

from helmlab import assembly, runge
from helmlab.assembly import (Medium, RingFactor, assemble,
                              mask_dirichlet_ring, ring_factor,
                              solve_dirichlet, solve_on_mask_multi,
                              verified_solve)
from helmlab.errors import GeometryViolation, GramNotSPD, TargetUnreachable
from helmlab.fields import GridField, norm
from helmlab.geometry import (DomainSpec, annulus_mask, ball_mask,
                              boundary_chart, build_grid,
                              check_nested_separation, nearest_distance)
from helmlab.modes import mode_field
from helmlab.profiles import bump_profile, make_medium
from helmlab.runge import (MaskSolutionBasis, adjoint_apply,
                           adjoint_apply_matrix, aggregate_median,
                           build_forward_map, runge_approximate, svd,
                           sweep_and_fit, sweep_params, trace_inner,
                           truncation_energy_identity)

from helpers import (convex_map, curvature_statistic, disk_arc_map,
                     disk_pair_svd, disk_setup, fit_line)


def test_forward_columns_are_solves():
    # an arc gamma keeps the map on SuperLU, the factor solve_dirichlet uses
    fmap = disk_arc_map(5.0)
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
    # one included, give the same bits as one solve of every column (SuperLU
    # path: gamma an arc)
    fmap = disk_arc_map(5.0)
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
    grid, _, op, _ = disk_setup(2.0)
    with pytest.raises(GeometryViolation):
        build_forward_map(op, ball_mask(grid, (0, 0), 0.9))


def test_forward_map_accepts_target_on_uncharted_boundary():
    grid = build_grid(DomainSpec("annulus", r_inner=0.5, r_outer=2.0), 0.1)
    op = assemble(make_medium(grid), 2.0)
    chart = boundary_chart(grid)
    omega1 = annulus_mask(grid, 0.5, 1.0)          # touches the inner circle
    with pytest.raises(GeometryViolation):
        check_nested_separation(grid, omega1, grid.boundary_index)
    fmap = build_forward_map(op, omega1)
    assert fmap.A.shape == (fmap.omega1_ids.size, chart.n)


def test_separation_matches_brute_force():
    # the annulus chart is the outer circle alone; the box's is its surface
    for spec, h, center in (
            (DomainSpec("annulus", r_inner=0.5, r_outer=1.0), 0.05,
             (0.1, 0.7)),
            (DomainSpec("box", corners=((0, 0, 0), (1, 1, 1))), 1 / 8,
             (0.4, 0.5, 0.3))):
        grid = build_grid(spec, h)
        mask = ball_mask(grid, center, 0.15)
        chart_ids = boundary_chart(grid).node_ids
        for ids in (grid.boundary_index, chart_ids):
            brute = np.min(np.linalg.norm(grid.nodes[mask][:, None, :]
                                          - grid.nodes[ids][None, :, :],
                                          axis=2))
            sep = nearest_distance(grid.nodes[mask], grid.nodes[ids]).min()
            assert abs(sep - brute) <= 1e-14
    grid = build_grid(DomainSpec("annulus", r_inner=0.5, r_outer=1.0), 0.05)
    pts = grid.nodes[ball_mask(grid, (0.1, 0.7), 0.15)]
    whole, charted = (nearest_distance(pts, grid.nodes[ids]).min() for ids
                      in (grid.boundary_index, boundary_chart(grid).node_ids))
    assert whole < charted


def test_svd_identities():
    _assert_svd_identities(*disk_pair_svd(5.0))


def _assert_svd_identities(fmap, system):
    sv = system.singular_values
    assert np.all(np.diff(system.mu) <= 1e-12)
    m = min(20, sv.size)
    for j in (0, 3, m - 1):
        lhs = fmap.A @ system.phi[:, j]
        rhs = sv[j] * system.psi[:, j]
        assert np.linalg.norm(lhs - rhs) <= 1e-8 * np.linalg.norm(rhs)
    PtWP = system.psi[:, :m].T @ (fmap.wx[:, None] * system.psi[:, :m])
    assert np.max(np.abs(PtWP - np.eye(m))) < 1e-10
    G = fmap.chart.h_half_gram(fmap.gamma_positions())
    PhiG = system.phi[:, :m].T @ G @ system.phi[:, :m]
    assert np.max(np.abs(PhiG - np.eye(m))) < 1e-10
    # reconstruction
    recon = (np.sqrt(fmap.wx)[:, None] * system.psi) * sv @ (system.phi.T @ G)
    target = np.sqrt(fmap.wx)[:, None] * fmap.A
    assert np.linalg.norm(recon - target) <= 1e-8 * np.linalg.norm(target)


def _one_solve(fmap, factor):
    """A from one verified solve of every gamma column with ``factor``."""
    op, grid = fmap.op, fmap.op.grid
    bpos = np.searchsorted(grid.boundary_index, fmap.gamma_ids)
    ipos = np.searchsorted(grid.interior_index, fmap.omega1_ids)
    return verified_solve(op.L_II, factor, -op.L_IB[:, bpos].toarray())[ipos]


def _dense_svd_calls(monkeypatch):
    """List that grows by one entry per call of np.linalg.svd."""
    calls, dense = [], np.linalg.svd

    def spy(*args, **kwargs):
        calls.append(1)
        return dense(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", spy)
    return calls


def _rotation_invariant_maps():
    return [disk_pair_svd(5.0)[0], convex_map()]


def test_per_mode_forward_blocks_match_one_solve():
    # the per-mode twin of test_forward_map_blocks_match_one_solve
    fmap, _ = disk_pair_svd(5.0)
    op, grid = fmap.op, fmap.op.grid
    n_gamma = fmap.gamma_ids.size
    assert fmap.per_mode
    assert n_gamma > runge._FORWARD_BLOCK and n_gamma % runge._FORWARD_BLOCK
    factor = ring_factor(grid, grid.interior_index, op.L_II)
    assert np.array_equal(fmap.A, _one_solve(fmap, factor))


def test_per_mode_forward_columns_are_solves():
    # the per-mode twin of test_forward_columns_are_solves
    fmap, _ = disk_pair_svd(5.0)
    for j in np.random.default_rng(0).integers(0, fmap.gamma_ids.size, size=3):
        e = np.zeros(fmap.gamma_ids.size)
        e[j] = 1.0
        u = solve_dirichlet(fmap.op, g=fmap.trace_from_gamma(e))
        col = u.values[fmap.omega1_ids]
        assert np.max(np.abs(col - fmap.A[:, j])) <= 1e-10 * np.max(np.abs(col))


@pytest.mark.parametrize("case", [0, 1], ids=["disk_pair", "convex_annulus"])
def test_per_mode_map_and_mu_match_superlu_and_dense_svd(case):
    fmap = _rotation_invariant_maps()[case]
    assert fmap.per_mode
    ref = _one_solve(fmap, fmap.op.lu())
    assert np.max(np.abs(fmap.A - ref)) <= 1e-10 * np.max(np.abs(ref))
    mu, dense = svd(fmap).mu, runge._dense_svd(fmap).mu
    assert mu.shape == dense.shape
    assert np.max(np.abs(mu - dense)) <= 1e-10 * dense[0]


@pytest.mark.parametrize("case", [0, 1], ids=["disk_pair", "convex_annulus"])
def test_per_mode_svd_identities_without_dense_svd(monkeypatch, case):
    fmap = _rotation_invariant_maps()[case]

    def refuse(*args, **kwargs):
        raise AssertionError("dense singular value path reached")

    with monkeypatch.context() as mp:
        mp.setattr(np.linalg, "svd", refuse)
        mp.setattr(runge, "gram_inverse_sqrt", refuse)
        system = svd(fmap)
    _assert_svd_identities(fmap, system)
    # cos/sin pairs are exactly degenerate: every mu but the m = 0 and
    # m = n/2 ones comes twice
    _, counts = np.unique(system.mu, return_counts=True)
    assert np.sum(counts == 1) == 2 - fmap.gamma_ids.size % 2
    assert np.all(counts <= 2)


def _arc_gamma():
    return disk_arc_map(5.0)


def _off_centre_bump_q():
    grid, _, _, _ = disk_setup(5.0)
    bump = bump_profile(0.5, (0.3, 0.1), 0.3)(grid.nodes)
    medium = Medium(q=GridField(grid, 1.0 + bump),
                    V=GridField(grid, np.zeros(grid.n_nodes)), kappa=2.0)
    op = assemble(medium, 2.0)
    return build_forward_map(op, ball_mask(grid, (0, 0), 0.5))


def _off_centre_region():
    grid, _, op, _ = disk_setup(5.0)
    return build_forward_map(op, ball_mask(grid, (0.1, 0.0), 0.4))


def _cartesian():
    grid = build_grid(DomainSpec("rectangle", corners=((-1, -1), (1, 1))),
                      0.05)
    op = assemble(make_medium(grid), 3.0)
    return build_forward_map(op, ball_mask(grid, (0, 0), 0.5))


@pytest.mark.parametrize("build", [_arc_gamma, _off_centre_bump_q,
                                   _off_centre_region, _cartesian])
def test_other_maps_keep_superlu_and_dense_svd(monkeypatch, build):
    fmap = build()
    assert not fmap.per_mode
    assert np.array_equal(fmap.A, _one_solve(fmap, fmap.op.lu()))
    calls = _dense_svd_calls(monkeypatch)
    svd(fmap)
    assert calls == [1]


@pytest.mark.parametrize("case", ["disk", "convex_annulus"])
def test_mask_solutions_per_mode_match_splu(case):
    if case == "disk":
        grid, _, op, _ = disk_setup(5.0)
        mask = ball_mask(grid, (0, 0), 0.6)
    else:
        op = convex_map().op
        grid = op.grid
        mask = annulus_mask(grid, 0.5, 1.25)
    ring = mask_dirichlet_ring(op, mask)
    inner = np.flatnonzero(mask & ~ring)
    A = op.L[inner][:, inner].tocsc()
    assert ring_factor(grid, inner, A) is not None
    data = np.random.default_rng(4).standard_normal(
        (np.count_nonzero(ring), 70))
    sols = solve_on_mask_multi(op, mask, data)
    rhs = -op.L[inner][:, np.flatnonzero(ring)] @ data
    ref = spla.splu(A).solve(rhs)
    assert np.max(np.abs(sols[inner] - ref)) <= 1e-10 * np.max(np.abs(ref))
    assert not np.any(sols[~mask])


def test_off_centre_mask_keeps_splu():
    grid, _, op, _ = disk_setup(5.0)
    mask = ball_mask(grid, (0.1, 0.0), 0.5)
    inner = np.flatnonzero(mask & ~mask_dirichlet_ring(op, mask))
    assert ring_factor(grid, inner, op.L[inner][:, inner].tocsc()) is None


def test_singular_value_decay():
    _, system = disk_pair_svd(5.0)
    m = min(50, system.mu.size)
    slope, _, _ = fit_line(np.arange(m), np.log(system.singular_values[:m]))
    assert slope < -0.1


def test_injectivity_at_discrete_level():
    _, system = disk_pair_svd(2.0)
    assert system.singular_values.min() > 0.0


def test_gram_not_spd_guard(monkeypatch):
    fmap = disk_arc_map(2.0)
    # the grid holds, in place of its chart, a copy with no inverse square
    # root held, whose Gram blocks are negative definite
    chart = dataclasses.replace(fmap.chart, _held={})
    monkeypatch.setattr(chart, "h_half_gram", lambda ids: -np.eye(ids.size))
    monkeypatch.setitem(fmap.op.grid._held, "chart", chart)
    with pytest.raises(GramNotSPD):
        svd(fmap)


def test_single_mode_approximant():
    fmap, system = disk_pair_svd(5.0)
    v_vals = np.zeros(fmap.op.grid.n_nodes)
    v_vals[fmap.omega1_ids] = system.psi[:, 0]
    mask = np.zeros(fmap.op.grid.n_nodes, dtype=bool)
    mask[fmap.omega1_ids] = True
    v = GridField(fmap.op.grid, v_vals)
    ap = runge_approximate(system, v, 0.5, 1.0)
    assert ap.n_retained == 1
    assert ap.err < 1e-8
    assert abs(ap.cost - 1.0 / system.singular_values[0]) < 1e-8

    # a budget above ||v|| retains no mode
    forced = runge_approximate(system, v, 2.0, norm(v, "L2", mask))
    assert forced.n_retained == 0 and forced.cost == 0.0
    assert abs(forced.err - norm(v, "L2", mask)) < 1e-10


def test_cost_monotonicity_and_cutoff_bound():
    grid, _, op, chart = disk_setup(5.0)
    fmap, system = disk_pair_svd(5.0)
    v = mode_field(grid, 3, 5.0)
    mask = np.zeros(grid.n_nodes, dtype=bool)
    mask[fmap.omega1_ids] = True
    v = GridField(grid, np.where(mask, v.values, 0.0))
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
    noise = GridField(grid, np.where(mask, rng.standard_normal(grid.n_nodes), 0.0))
    with pytest.raises(TargetUnreachable):
        runge_approximate(system, noise, 1e-12, 1.0)


def test_energy_identity_and_orthogonal_split():
    grid, _, op, chart = disk_setup(5.0, 0.025)
    omega1 = ball_mask(grid, (0, 0), 0.5)
    fmap = build_forward_map(op, omega1)
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
    assert abs(norm(v1, "H1", basis.mask) - 1.0) < 1e-10


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


def _column_solves(monkeypatch):
    """List that grows by the column count of every ForwardMap.columns
    call; reading ForwardMap.A raises."""
    solved, columns = [], runge.ForwardMap.columns

    def spy(fmap, cols):
        out = columns(fmap, cols)
        solved.append(out.shape[1])
        return out

    def refuse(fmap):
        raise AssertionError("dense forward map formed")

    monkeypatch.setattr(runge.ForwardMap, "columns", spy)
    monkeypatch.setattr(runge.ForwardMap, "A", property(refuse))
    return solved


class _Stop(Exception):
    pass


@pytest.mark.parametrize("scenario", sorted(runge.SCENARIOS))
def test_every_scenario_sweeps_per_mode(monkeypatch, scenario):
    # on its default grid each scenario's forward map is invariant under
    # rotation and its family submesh takes a per-mode factor; the first
    # frequency is checked, and the sweep stops at its first sample
    per_mode, factors = [], []
    real_svd, real_factor = runge.svd, assembly.ring_factor

    def svd_spy(fmap):
        per_mode.append(fmap.per_mode)
        return real_svd(fmap)

    def factor_spy(*args):
        factors.append(real_factor(*args))
        return factors[-1]

    def stop(*args, **kwargs):
        raise _Stop

    monkeypatch.setattr(runge, "svd", svd_spy)
    monkeypatch.setattr(assembly, "ring_factor", factor_spy)
    monkeypatch.setattr(runge.MaskSolutionBasis, "sample", stop)
    with pytest.raises(_Stop):
        sweep_and_fit(scenario, sweep_params(scenario))
    assert per_mode == [True]
    assert len(factors) == 1 and isinstance(factors[0], RingFactor)


def test_convex_sweep_solves_one_forward_column_per_frequency(monkeypatch):
    solved = _column_solves(monkeypatch)
    fit = sweep_and_fit("convex", sweep_params(
        "convex", k_list=(2.0, 4.0, 8.0), seeds=(0, 1)))
    n_k = len({r["k"] for r in fit.records} | {d["k"] for d in fit.dropped})
    assert n_k == 3
    assert solved == [1] * n_k


@pytest.mark.parametrize("case", [0, 1], ids=["disk_pair", "convex_annulus"])
def test_column_zero_alone_matches_A(case):
    fmap = _rotation_invariant_maps()[case]
    col = fmap.columns(slice(0, 1))
    assert col.shape == (fmap.omega1_ids.size, 1)
    assert np.array_equal(col[:, 0], fmap.A[:, 0])


def test_superlu_map_solves_A_on_first_read(monkeypatch):
    grid, _, op, _ = disk_setup(5.0, arc=True)
    with monkeypatch.context() as mp:
        solved = _column_solves(mp)
        fmap = build_forward_map(op, ball_mask(grid, (0, 0), 0.5))
    assert solved == [] and not fmap.per_mode
    A = fmap.A
    assert np.array_equal(A, _one_solve(fmap, fmap.op.lu()))
    assert fmap.A is A


@pytest.mark.parametrize("h", [0.05, 0.06])     # hx = hy, then hx != hy
def test_one_gamma_index_holds_one_gram_per_gamma(h):
    # a perimeter walk is not in node order; every map indexes gamma in the
    # chart's own order, so the chart holds one G^(-1/2) (and, off the
    # circulant, one quadrature block) for gamma
    spec = DomainSpec("rectangle", corners=((-1, -1), (1, 1.3)),
                      gamma={"edges": ["top", "left", "bottom"]})
    grid = build_grid(spec, h)
    chart = boundary_chart(grid)
    assert (chart.symbol() is None) == (h == 0.06)
    op = assemble(make_medium(grid), 3.0)
    fmap = build_forward_map(op, ball_mask(grid, (0, 0), 0.4))
    svd(fmap)
    u = np.random.default_rng(0).standard_normal(fmap.omega1_ids.size)
    pde, oracle = adjoint_apply(fmap, u), adjoint_apply_matrix(fmap, u)
    kinds = [key[0] for key in chart._held]
    assert kinds.count("gram_inv_sqrt") == 1
    assert kinds.count("gram") == (1 if h == 0.06 else 0)
    assert np.array_equal(fmap.gamma_ids, chart.gamma_ids())
    assert np.max(np.abs(pde.values - oracle.values)) \
        <= 1e-10 * np.max(np.abs(oracle.values))
