import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from helmlab.assembly import (Medium, assemble, mask_dirichlet_ring,
                              mask_flux_pairing, radial_derivative,
                              solve_dirichlet, solve_on_mask, verified_solve,
                              weak_neumann_trace)
from helmlab.bessel import bessel_j, bessel_j0_root, bessel_j_prime
from helmlab.calderon import dtn_map
from helmlab.errors import (HypothesisViolated, NearResonance, NotASolution,
                            SolverBreakdown, UnderResolved)
from helmlab.fields import BoundaryTrace, GridField, field_from_radial, norm
from helmlab.geometry import DomainSpec, ball_mask, boundary_chart, build_grid
from helmlab.profiles import make_medium
from helmlab.runge import build_forward_map

from helpers import disk_setup, disk_spectrum


def test_matrix_symmetry_and_stencil():
    g = build_grid(DomainSpec.rectangle((0, 0), (1, 1)), 1 / 16)
    med = make_medium(g)
    op = assemble(g, med, 1.0)
    assert abs(op.L - op.L.T).max() == 0.0
    h = 1 / 16
    i = op.interior[op.interior.size // 2]
    row = op.L.getrow(i).toarray().ravel()
    # flux Laplacian plus k^2 q mass on the diagonal
    assert abs(row[i] - (-4.0 + h * h)) < 1e-12
    offs = np.sort(row[row != row[i]])
    assert np.allclose(offs[offs > 0], 1.0)


def test_constant_q_is_diagonal_shift():
    g = build_grid(DomainSpec.rectangle((0, 0), (1, 1)), 1 / 16)
    kappa = 3.0
    m1 = make_medium(g, q_spec={"profile": "constant", "value": 1.0}, kappa=kappa)
    m2 = make_medium(g, q_spec={"profile": "constant", "value": kappa}, kappa=kappa + 0.01)
    k = 2.0
    d = (assemble(g, m2, k).L - assemble(g, m1, k).L) - \
        __import__("scipy.sparse", fromlist=["diags"]).diags(
            g.quad_weights * k * k * (kappa - 1.0))
    assert abs(d).max() < 1e-12


def test_zero_data_zero_solution():
    _, _, op, _ = disk_setup(2.0)
    u = solve_dirichlet(op)
    assert np.max(np.abs(u.values)) == 0.0


def test_manufactured_bessel_convergence():
    spec = DomainSpec.annulus(0.5, 2.0)
    k = 3.0
    errs = []
    for h in (0.05, 0.025):
        g = build_grid(spec, h)
        med = make_medium(g)
        op = assemble(g, med, k)
        exact = field_from_radial(g, lambda r: np.asarray(bessel_j(0.0, k * r)))
        u = solve_dirichlet(op, g=exact.values[g.boundary_index])
        errs.append(norm(u - exact, "L2"))
    assert 3.5 <= errs[0] / errs[1] <= 4.5


def test_wavelength_rule_guard():
    g = build_grid(DomainSpec.disk(1.0), 0.1)
    med = make_medium(g)
    with pytest.raises(UnderResolved):
        assemble(g, med, 20.0)
    with pytest.raises(HypothesisViolated):
        assemble(g, med, 0.5)


def test_near_resonance_guard():
    grid, med, rep = disk_spectrum()
    j01 = bessel_j0_root()
    k_res = np.sqrt(rep.eigenvalues[0])
    assert abs(rep.eigenvalues[0] - j01 ** 2) < 0.01
    op = assemble(grid, med, k_res)
    with pytest.raises(NearResonance):
        solve_dirichlet(op, spectrum=rep)
    # the multi-column maps apply the same guard
    chart = boundary_chart(grid)
    with pytest.raises(NearResonance):
        build_forward_map(op, ball_mask(grid, (0, 0), 0.5), chart, spectrum=rep)
    with pytest.raises(NearResonance):
        dtn_map(op, chart, spectrum=rep)
    # without the spectrum the solve is attempted (and succeeds away from the
    # exact discrete eigenvalue)
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


def test_medium_invariants():
    g = build_grid(DomainSpec.disk(1.0), 0.1)
    with pytest.raises(HypothesisViolated):
        Medium(q=GridField(g, np.full(g.n_nodes, 3.0)),
               V=GridField(g, np.zeros(g.n_nodes)), kappa=2.0)
    decreasing = GridField(g, 2.0 - np.linalg.norm(g.nodes, axis=1) ** 2)
    with pytest.raises(HypothesisViolated):
        Medium(q=decreasing, V=GridField(g, np.zeros(g.n_nodes)),
               kappa=2.5, monotone_flag=True)
    assert np.all(radial_derivative(decreasing) < 0)


def test_weak_neumann_trace_values():
    spec = DomainSpec.annulus(0.5, 2.0)
    k = 3.0
    g = build_grid(spec, 0.02)
    med = make_medium(g)
    op = assemble(g, med, k)
    exact = field_from_radial(g, lambda r: np.asarray(bessel_j(0.0, k * r)))
    u = solve_dirichlet(op, g=exact.values[g.boundary_index])
    ell = weak_neumann_trace(op, u)
    chart = boundary_chart(g)
    pairing = ell.pair(BoundaryTrace(chart, np.ones(chart.n)))
    analytic = 2 * np.pi * 2.0 * k * bessel_j_prime(0.0, 2.0 * k)
    assert abs(pairing - analytic) < 0.03 * abs(analytic)

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
    data = {int(n): np.cos(2 * np.arctan2(grid.nodes[n, 1], grid.nodes[n, 0]))
            for n in grid.boundary_index}
    u_mask = solve_on_mask(op, mask, data)
    gvals = np.array([data[int(n)] for n in grid.boundary_index])
    u_ref = solve_dirichlet(op, g=gvals)
    assert np.max(np.abs(u_mask.values - u_ref.values)) < 1e-10


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
        op = assemble(grid, med, k)
        u = solve_dirichlet(op, f=f)
        dists.append(d)
        ratios.append(norm(u, "H1") / norm(f, "L2"))
    slope = np.polyfit(np.log(dists), np.log(ratios), 1)[0]
    assert -1.15 <= slope <= -0.85
