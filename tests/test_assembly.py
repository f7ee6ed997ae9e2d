import mpmath as mp
import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from helmlab.assembly import (Medium, assemble, default_spacing,
                              mask_dirichlet_ring, mask_flux_pairing,
                              radial_derivative, solve_dirichlet,
                              solve_on_mask_multi, stiffness, verified_solve,
                              wavelength_rule, weak_neumann_trace)
from helmlab.bessel import bessel_j, bessel_j_prime
from helmlab.errors import (HypothesisViolated, NearResonance, NotASolution,
                            SolverBreakdown, UnderResolved)
from helmlab.fields import BoundaryTrace, GridField, norm
from helmlab.geometry import DomainSpec, ball_mask, boundary_chart, build_grid
from helmlab.profiles import make_medium
from helmlab.runge import SCENARIOS

from helpers import cube_setup, disk_setup, disk_spectrum, pairing


def test_matrix_symmetry_and_stencil():
    g = build_grid(DomainSpec("rectangle", corners=((0, 0), (1, 1))), 1 / 16)
    med = make_medium(g)
    op = assemble(med, 1.0)
    assert abs(op.L - op.L.T).max() == 0.0
    h = 1 / 16
    interior = g.interior_index
    i = interior[interior.size // 2]
    row = op.L.getrow(i).toarray().ravel()
    # flux Laplacian plus k^2 q mass on the diagonal
    assert abs(row[i] - (-4.0 + h * h)) < 1e-12
    offs = np.sort(row[row != row[i]])
    assert np.allclose(offs[offs > 0], 1.0)


def test_constant_q_is_diagonal_shift():
    g = build_grid(DomainSpec("rectangle", corners=((0, 0), (1, 1))), 1 / 16)
    kappa = 3.0
    m1 = make_medium(g, q_spec={"profile": "constant", "value": 1.0}, kappa=kappa)
    m2 = make_medium(g, q_spec={"profile": "constant", "value": kappa}, kappa=kappa + 0.01)
    k = 2.0
    d = (assemble(m2, k).L - assemble(m1, k).L) - \
        __import__("scipy.sparse", fromlist=["diags"]).diags(
            g.quad_weights * k * k * (kappa - 1.0))
    assert abs(d).max() < 1e-12


def test_zero_data_zero_solution():
    _, _, op, _ = disk_setup(2.0)
    u = solve_dirichlet(op)
    assert np.max(np.abs(u.values)) == 0.0


def test_manufactured_bessel_convergence():
    spec = DomainSpec("annulus", r_inner=0.5, r_outer=2.0)
    k = 3.0
    errs = []
    for h in (0.05, 0.025):
        g = build_grid(spec, h)
        med = make_medium(g)
        op = assemble(med, k)
        exact = GridField(g, np.repeat(bessel_j(0.0, k * g.radii),
                                       g.lattice_shape[1]))
        u = solve_dirichlet(op, g=exact.values[g.boundary_index])
        errs.append(norm(GridField(g, u.values - exact.values), "L2"))
    assert 3.5 <= errs[0] / errs[1] <= 4.5


def test_wavelength_rule_guard():
    g = build_grid(DomainSpec("disk", radius=1.0), 0.1)
    med = make_medium(g)
    with pytest.raises(UnderResolved):
        assemble(med, 20.0)
    with pytest.raises(HypothesisViolated):
        assemble(med, 0.5)


def test_wavelength_message_tells_a_near_miss_apart():
    # both sides print alike at 4 digits; the relative excess does not
    g = build_grid(DomainSpec("disk", radius=1.0), 0.1)
    k = 2 * np.pi / (10 * g.max_spacing()) * (1 + 2e-9)
    with pytest.raises(UnderResolved, match=r"by 2e-07% at k="):
        wavelength_rule(g, k, 1.0)


def test_near_resonance_guard():
    grid, med, rep = disk_spectrum()
    j01 = float(mp.besseljzero(0, 1))
    k_res = np.sqrt(rep.eigenvalues[0])
    assert abs(rep.eigenvalues[0] - j01 ** 2) < 0.01
    # the one guard is at assembly, so no solve, map or probe sees the
    # operator
    with pytest.raises(NearResonance):
        assemble(med, k_res, spectrum=rep)
    # assembled without the report, the same operator is solved (and the
    # solve succeeds away from the exact discrete eigenvalue)
    op = assemble(med, k_res)
    solve_dirichlet(op, g=np.ones(grid.boundary_index.size))


class _ScaledFactor:
    """Factor whose solutions are off by a constant factor."""

    def __init__(self, A, scale):
        self.lu = spla.splu(A)
        self.scale = scale
        self.calls = 0

    def solve(self, b):
        self.calls += 1
        return self.scale * self.lu.solve(b)


def _tridiagonal(n=50):
    return sp.diags([-np.ones(n - 1), 2.5 * np.ones(n), -np.ones(n - 1)],
                    [-1, 0, 1]).tocsc()


def test_verified_solve_refines_once():
    A = _tridiagonal()
    rhs = np.random.default_rng(0).standard_normal((50, 70))
    exact = spla.splu(A).solve(rhs)
    factor = _ScaledFactor(A, 1.0)
    assert np.array_equal(verified_solve(A, factor, rhs), exact)
    assert factor.calls == 1
    # one refinement per block of 64 columns
    factor = _ScaledFactor(A, 1.0 + 1e-6)
    x = verified_solve(A, factor, rhs)
    assert factor.calls == 3
    assert np.max(np.abs(x - exact)) <= 1e-10 * np.max(np.abs(exact))
    # one column goes through the same path
    factor = _ScaledFactor(A, 1.0 + 1e-6)
    x1 = verified_solve(A, factor, rhs[:, 0])
    assert factor.calls == 2 and x1.shape == (50,)
    assert np.max(np.abs(x1 - exact[:, 0])) <= 1e-10 * np.max(np.abs(exact))


def test_verified_solve_breakdown():
    A = _tridiagonal()
    rhs = np.random.default_rng(1).standard_normal((50, 2))
    factor = _ScaledFactor(A, 1.5)
    with pytest.raises(SolverBreakdown):
        verified_solve(A, factor, rhs)
    assert factor.calls == 2


class _ConstantFactor:
    """Factor stand-in whose every solve is one constant."""

    def __init__(self, value):
        self.value = value

    def solve(self, b):
        return np.full(b.shape, self.value)


@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_verified_solve_rejects_non_finite(value):
    # a NaN residual (inf / inf for an infinite solve) compares false with
    # every tolerance, so it must count as a miss
    A = sp.identity(5, format="csc")
    with np.errstate(invalid="ignore"), pytest.raises(SolverBreakdown):
        verified_solve(A, _ConstantFactor(value), np.ones(5))


def test_medium_invariants():
    g = build_grid(DomainSpec("disk", radius=1.0), 0.1)
    with pytest.raises(HypothesisViolated):
        Medium(q=GridField(g, np.full(g.n_nodes, 3.0)),
               V=GridField(g, np.zeros(g.n_nodes)), kappa=2.0)
    decreasing = GridField(g, 2.0 - np.linalg.norm(g.nodes, axis=1) ** 2)
    with pytest.raises(HypothesisViolated):
        Medium(q=decreasing, V=GridField(g, np.zeros(g.n_nodes)),
               kappa=2.5, monotone_flag=True)
    assert np.all(radial_derivative(decreasing) < 0)


def test_weak_neumann_trace_values():
    spec = DomainSpec("annulus", r_inner=0.5, r_outer=2.0)
    k = 3.0
    g = build_grid(spec, 0.02)
    med = make_medium(g)
    op = assemble(med, k)
    exact = GridField(g, np.repeat(bessel_j(0.0, k * g.radii),
                                   g.lattice_shape[1]))
    u = solve_dirichlet(op, g=exact.values[g.boundary_index])
    ell = weak_neumann_trace(op, u)
    chart = boundary_chart(g)
    flux = pairing(ell, BoundaryTrace(chart, np.ones(chart.n)))
    analytic = 2 * np.pi * 2.0 * k * bessel_j_prime(0.0, 2.0 * k)
    assert abs(flux - analytic) < 0.03 * abs(analytic)

    # zero solution gives the zero functional; the trace is linear
    z = weak_neumann_trace(op, solve_dirichlet(op))
    assert np.max(np.abs(z.dual_values)) < 1e-12
    u2 = solve_dirichlet(op, g=2.5 * exact.values[g.boundary_index])
    ell2 = weak_neumann_trace(op, u2)
    combo = weak_neumann_trace(
        op, GridField(g, u.values + u2.values))
    assert np.allclose(combo.dual_values, ell.dual_values + ell2.dual_values,
                       rtol=1e-10, atol=1e-12)


def test_not_a_solution_guard():
    _, _, op, _ = disk_setup(2.0)
    rng = np.random.default_rng(0)
    junk = GridField(op.grid, rng.standard_normal(op.grid.n_nodes))
    with pytest.raises(NotASolution):
        weak_neumann_trace(op, junk)


def test_solve_on_mask_matches_global():
    grid, _, op, _ = disk_setup(2.0)
    mask = np.ones(grid.n_nodes, dtype=bool)
    ring = mask_dirichlet_ring(op, mask)
    assert np.array_equal(np.flatnonzero(ring), grid.boundary_index)
    bnd = grid.nodes[grid.boundary_index]
    gvals = np.cos(2 * np.arctan2(bnd[:, 1], bnd[:, 0]))
    u_mask = solve_on_mask_multi(op, mask, gvals[:, None])[:, 0]
    u_ref = solve_dirichlet(op, g=gvals)
    assert np.max(np.abs(u_mask - u_ref.values)) < 1e-10


def test_flux_pairing_green_identity():
    grid, _, op, _ = disk_setup(2.0)
    rng = np.random.default_rng(1)
    a = rng.standard_normal(grid.n_nodes)
    b = rng.standard_normal(grid.n_nodes)
    mask = ball_mask(grid, (0.1, -0.2), 0.4)
    direct = float(np.sum(a[mask] * (op.L @ b)[mask]
                          - (op.L @ a)[mask] * b[mask]))
    flux = mask_flux_pairing(op, a, b, mask)
    assert abs(direct - flux) < 1e-10 * max(abs(direct), 1.0)


def test_apriori_bound_blows_up_near_resonance():
    grid, med, rep = disk_spectrum()
    lam1 = rep.eigenvalues[0]
    f = GridField(grid, np.ones(grid.n_nodes))
    dists, ratios = [], []
    for d in (2.0, 1.0, 0.5, 0.25):
        k = np.sqrt(lam1 + d)
        op = assemble(med, k)
        u = solve_dirichlet(op, f=f)
        dists.append(d)
        ratios.append(norm(u, "H1") / norm(f, "L2"))
    slope = np.polyfit(np.log(dists), np.log(ratios), 1)[0]
    assert -1.15 <= slope <= -0.85


def _reference_stiffness(grid):
    """COO assembly of the edge couplings, converted to CSR on every call."""
    ei, ej, ec = grid.edges
    n = grid.n_nodes
    rows = np.concatenate([ei, ej, ei, ej])
    cols = np.concatenate([ej, ei, ei, ej])
    vals = np.concatenate([-ec, -ec, ec, ec])
    return sp.coo_matrix((vals, (rows, cols)), shape=(n, n)).tocsr()


@pytest.mark.parametrize("spec, h", [
    (DomainSpec("disk", radius=1.0), 0.1),
    (DomainSpec("annulus", r_inner=1.0, r_outer=2.0), 0.1),
    (DomainSpec("rectangle", corners=((0, 0), (1.3, 0.85))), 0.1),
    (DomainSpec("box", corners=((0, 0, 0), (1, 1, 1))), 1 / 8)])
def test_stiffness_built_once_per_grid(spec, h):
    g = build_grid(spec, h)
    K, want = stiffness(g), _reference_stiffness(g)
    assert K.shape == want.shape
    for a in ("data", "indices", "indptr"):
        got, ref = getattr(K, a), getattr(want, a)
        assert got.dtype == ref.dtype and np.array_equal(got, ref)
    assert stiffness(g) is K
    for arr in (K.data, K.indices, K.indptr):
        with pytest.raises(ValueError):
            arr[0] = arr[0]


def _convex_sweep_op(k):
    """Operator at k on the grid of the default convex sweep."""
    sc = SCENARIOS["convex"]
    kappa = sc.medium["kappa"]
    grid = build_grid(sc.domain, min(default_spacing(max(sc.k_list), kappa),
                                     sc.h_cap))
    return assemble(make_medium(grid, q_spec=sc.medium["q"], kappa=kappa,
                                      monotone=sc.medium["monotone"]), k)


def _rectangle_op():
    grid = build_grid(DomainSpec("rectangle", corners=((0, 0), (2, 1))), 0.03)
    return assemble(make_medium(grid, kappa=1.01), 10.0)


@pytest.mark.parametrize("make_op", [
    lambda: cube_setup(14, 3.0)[2],
    lambda: _convex_sweep_op(8.0),
    lambda: _convex_sweep_op(16.0),
    lambda: disk_setup(5.0)[2],
    _rectangle_op,
], ids=["calderon_cube", "convex_k8", "convex_k16", "disk", "rectangle"])
def test_lu_fill_below_colamd(make_op):
    # COLAMD, SuperLU's default ordering, is the independent oracle
    op = make_op()
    colamd = spla.splu(op.L_II)
    lu = op.lu()
    assert lu.L.nnz + lu.U.nnz < 0.75 * (colamd.L.nnz + colamd.U.nnz)
    g = np.cos(3.0 * op.grid.nodes[op.grid.boundary_index, 0] + 1.0)
    u = solve_dirichlet(op, g=g).values[op.grid.interior_index]
    ref = colamd.solve(-op.L_IB @ g)
    assert np.linalg.norm(u - ref) <= 1e-10 * np.linalg.norm(ref)
