"""Symmetric assembly of Delta + k^2 q + V and Dirichlet solves.

The discrete operator is the quadrature-weighted form

    L = -K + diag(w (k^2 q + V)),

where K is the flux stiffness built from the grid's edge couplings.  Because
every edge carries one symmetric coupling, L is exactly symmetric; boundary
data is imposed by lifting (boundary columns moved to the right-hand side),
which keeps the interior block symmetric and lets one sparse factorization
serve many right-hand sides.

The weak (variational) Neumann trace of a solution is the residual of the
full-operator rows at boundary nodes,

    ell(phi) = sum_b (w f - L u)_b phi_b,

which is the discrete form of int grad u . grad phi~ - (k^2 q + V) u phi~
+ f phi~ with nodal liftings, and makes the boundary-to-interior map and its
PDE-route adjoint transposes of each other in exact arithmetic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .errors import (HypothesisViolated, NearResonance, NotASolution,
                     RegionMismatch, SolverBreakdown, UnderResolved)
from .fields import BoundaryFunctional, BoundaryTrace, GridField
from .geometry import Grid, boundary_chart


# ---------------------------------------------------------------------------
# Medium
# ---------------------------------------------------------------------------

@dataclass
class Medium:
    """Coefficients q (dimensionless, pinched between 1/kappa and kappa) and
    V (1/length^2); ``monotone_flag`` asserts the radial monotonicity
    x . grad q >= 0 used by the convex-geometry estimates."""

    q: GridField
    V: GridField
    kappa: float
    monotone_flag: bool = False

    def __post_init__(self):
        if self.kappa <= 1.0:
            raise HypothesisViolated("kappa must exceed 1")
        qv = self.q.values
        if np.any(qv < 1.0 / self.kappa - 1e-12) or np.any(qv > self.kappa + 1e-12):
            raise HypothesisViolated("q escapes [1/kappa, kappa]")
        if self.monotone_flag:
            dd = radial_derivative(self.q)
            if np.any(dd < -1e-10):
                raise HypothesisViolated(
                    f"x . grad q >= 0 fails (min discrete slope {dd.min():.3e})")

    @property
    def grid(self) -> Grid:
        return self.q.grid


def radial_derivative(f: GridField) -> np.ndarray:
    """Discrete x . grad f / |x| (forward differences along rays on polar
    grids, centered radial differences on cartesian ones)."""
    grid = f.grid
    if grid.topology == "polar":
        n_r, n_t = grid.lattice_shape
        v = f.values.reshape(n_r, n_t)
        d = np.diff(v, axis=0) / np.diff(grid.radii)[:, None]
        return d.ravel()
    from .fields import masked_gradient
    comps = masked_gradient(grid, f.values, np.ones(grid.n_nodes, bool))
    r = np.linalg.norm(grid.nodes, axis=1)
    r = np.where(r == 0, 1.0, r)
    rad = sum(grid.nodes[:, d] * comps[d] for d in range(grid.dim)) / r
    return rad


# ---------------------------------------------------------------------------
# Discrete operator
# ---------------------------------------------------------------------------

@dataclass
class DiscreteOperator:
    grid: Grid
    medium: Medium
    k: float
    L: sp.csr_matrix                      # full symmetric operator, all nodes
    L_II: sp.csc_matrix
    L_IB: sp.csr_matrix
    _lu: Optional[spla.SuperLU] = field(default=None, repr=False)

    @property
    def interior(self) -> np.ndarray:
        return self.grid.interior_index

    @property
    def boundary(self) -> np.ndarray:
        return self.grid.boundary_index

    def lu(self) -> spla.SuperLU:
        if self._lu is None:
            self._lu = spla.splu(self.L_II)
        return self._lu


def stiffness(grid: Grid) -> sp.csr_matrix:
    """Flux stiffness K >= 0 with w * (Laplacian u) = -K u on interior rows."""
    ei, ej, ec = grid.edges
    n = grid.n_nodes
    rows = np.concatenate([ei, ej, ei, ej])
    cols = np.concatenate([ej, ei, ei, ej])
    vals = np.concatenate([-ec, -ec, ec, ec])
    return sp.coo_matrix((vals, (rows, cols)), shape=(n, n)).tocsr()


def default_spacing(k_max: float, kappa: float) -> float:
    """Grid spacing that meets the wavelength rule at 1.1 k_max with 5%
    to spare."""
    return 2 * np.pi / (10.0 * 1.1 * k_max * math.sqrt(kappa)) * 0.95


def assemble(grid: Grid, medium: Medium, k: float) -> DiscreteOperator:
    """Assemble the weighted operator at frequency k >= 1.

    Raises :class:`UnderResolved` unless the spacing satisfies the
    ten-points-per-wavelength rule h <= 2 pi / (10 k sqrt(kappa)).
    """
    if k < 1.0:
        raise HypothesisViolated("frequency must satisfy k >= 1")
    if medium.grid is not grid:
        raise RegionMismatch("medium sampled on a different grid")
    h_max = grid.max_spacing()
    h_allowed = 2.0 * np.pi / (10.0 * k * np.sqrt(medium.kappa))
    if h_max > h_allowed * (1 + 1e-9):
        raise UnderResolved(
            f"spacing {h_max:.4g} exceeds wavelength rule {h_allowed:.4g} at k={k:g}")

    K = stiffness(grid)
    coeff = grid.quad_weights * (k * k * medium.q.values + medium.V.values)
    L = (-K + sp.diags(coeff)).tocsr()

    I = grid.interior_index
    B = grid.boundary_index
    L_II = L[I][:, I].tocsc()
    L_IB = L[I][:, B].tocsr()
    return DiscreteOperator(grid=grid, medium=medium, k=k, L=L,
                            L_II=L_II, L_IB=L_IB)


# ---------------------------------------------------------------------------
# Dirichlet solve
# ---------------------------------------------------------------------------

def _boundary_values(op: DiscreteOperator, g) -> np.ndarray:
    """Accept a BoundaryTrace (chart nodes; zero on uncharted boundary) or a
    nodal array over all boundary nodes."""
    n_b = op.boundary.size
    if g is None:
        return np.zeros(n_b)
    if isinstance(g, BoundaryTrace):
        full = np.zeros(op.grid.n_nodes)
        full[g.chart.node_ids] = g.values
        return full[op.boundary]
    g = np.asarray(g, dtype=float)
    if g.shape != (n_b,):
        raise RegionMismatch("boundary data length mismatch")
    return g


def resonance_guard(op: DiscreteOperator, spectrum) -> None:
    """Raise :class:`NearResonance` when k^2 sits inside the guard band
    max(c k^(2-n), 10 * eigenvalue discretization error)."""
    if spectrum is None:
        return
    from .spectral import check_admissibility
    rec = check_admissibility(op.k, spectrum, guard=True)
    if not rec["admissible"]:
        raise NearResonance(
            f"k^2={op.k ** 2:.6g} within guard band {rec['threshold']:.3g} "
            f"of eigenvalue (dist {rec['dist']:.3g})")


_RESIDUAL_TOL = 1e-10
_RESIDUAL_BLOCK = 64


def verified_solve(A, factor, rhs: np.ndarray) -> np.ndarray:
    """Solve A x = rhs for one column or many with a factorization of A.

    Every column's residual ||A x - b|| is verified to 1e-10 relative to
    max(||b||, ||x||).  A block of columns that misses it gets one step of
    iterative refinement; :class:`SolverBreakdown` is raised if it still
    misses.  Residuals are formed one block of columns at a time, so the
    check holds at most one block of extra memory.
    """
    x = factor.solve(rhs)
    X = x.reshape(x.shape[0], -1)
    B = rhs.reshape(X.shape)

    def residual(cols):
        R = A @ X[:, cols]
        R -= B[:, cols]
        scale = np.maximum(_col_norms(B[:, cols]), _col_norms(X[:, cols]))
        return R, float(np.max(_col_norms(R) / np.maximum(scale, 1e-300)))

    for start in range(0, X.shape[1], _RESIDUAL_BLOCK):
        cols = slice(start, start + _RESIDUAL_BLOCK)
        R, rel = residual(cols)
        if rel > _RESIDUAL_TOL:
            X[:, cols] -= factor.solve(R)
            _, rel = residual(cols)
            if rel > _RESIDUAL_TOL:
                raise SolverBreakdown(
                    f"interior residual {rel:.2e} above {_RESIDUAL_TOL:g}")
    return x


def _col_norms(M: np.ndarray) -> np.ndarray:
    return np.sqrt(np.einsum("ij,ij->j", M, M))


def solve_dirichlet(op: DiscreteOperator, f: Optional[GridField] = None,
                    g=None, spectrum=None) -> GridField:
    """Solve (Delta + k^2 q + V) u = f with Dirichlet data g.

    ``g`` may be a BoundaryTrace on the outer chart (zero on any uncharted
    boundary component) or an array over all boundary nodes.  When a spectrum
    report is supplied the guard band around computed eigenvalues is
    enforced.  The interior residual is verified by :func:`verified_solve`.
    """
    resonance_guard(op, spectrum)
    gb = _boundary_values(op, g)
    w = op.grid.quad_weights
    rhs = -op.L_IB @ gb
    if f is not None:
        rhs = rhs + w[op.interior] * f.values[op.interior]
    u_int = verified_solve(op.L_II, op.lu(), rhs)

    vals = np.zeros(op.grid.n_nodes)
    vals[op.interior] = u_int
    vals[op.boundary] = gb
    return GridField(op.grid, vals)


def weak_neumann_trace(op: DiscreteOperator, u: GridField,
                       f: Optional[GridField] = None,
                       check: bool = True) -> BoundaryFunctional:
    """Variational normal-derivative functional of a solution on the outer
    chart: ell(phi) = sum_b (w f - L u)_b phi_b."""
    w = op.grid.quad_weights
    resid = -(op.L @ u.values)
    if f is not None:
        resid = resid + w * f.values
    if check:
        scale = max(float(np.max(np.abs(op.L @ u.values))), 1e-300)
        interior_resid = np.max(np.abs(resid[op.interior]))
        if interior_resid > 1e-8 * scale:
            raise NotASolution(
                f"field does not solve the equation (residual {interior_resid:.2e})")
    chart = boundary_chart(op.grid)
    return BoundaryFunctional(chart, resid[chart.node_ids])


# ---------------------------------------------------------------------------
# Solves on node masks (nested subdomains share the parent grid)
# ---------------------------------------------------------------------------

def mask_dirichlet_ring(op: DiscreteOperator, mask: np.ndarray) -> np.ndarray:
    """Nodes of ``mask`` that act as Dirichlet nodes for a solve restricted to
    the mask: nodes with a stencil neighbour outside, plus global boundary."""
    ei, ej, _ = op.grid.edges
    ring = np.zeros(op.grid.n_nodes, dtype=bool)
    out_j = mask[ei] & ~mask[ej]
    out_i = mask[ej] & ~mask[ei]
    ring[ei[out_j]] = True
    ring[ej[out_i]] = True
    ring[np.intersect1d(op.grid.boundary_index, np.flatnonzero(mask))] = True
    return ring & mask


def solve_on_mask(op: DiscreteOperator, mask: np.ndarray, ring_values: dict,
                  f: Optional[GridField] = None) -> GridField:
    """Dirichlet solve on the submesh induced by a node mask.

    ``ring_values`` maps ring node ids to data (missing ids default to 0).
    Returns a field supported on the mask; nodes outside carry 0.
    """
    ring = mask_dirichlet_ring(op, mask)
    idx_ring = np.flatnonzero(ring)
    gvals = np.zeros(op.grid.n_nodes)
    for node, val in ring_values.items():
        gvals[int(node)] = val
    sols = solve_on_mask_multi(op, mask, gvals[idx_ring][:, None], f=f)
    return GridField(op.grid, sols[:, 0], mask.copy())


def solve_on_mask_multi(op: DiscreteOperator, mask: np.ndarray,
                        ring_data: np.ndarray,
                        f: Optional[GridField] = None) -> np.ndarray:
    """Masked solves for many ring-data columns with one factorization.

    ``ring_data`` has one row per ring node (ring node ids in ascending
    order) and one column per solve; returns (n_nodes, n_cols) with zeros
    outside the mask.
    """
    ring = mask_dirichlet_ring(op, mask)
    inner = mask & ~ring
    idx_inner = np.flatnonzero(inner)
    idx_ring = np.flatnonzero(ring)
    if idx_inner.size == 0:
        raise RegionMismatch("mask has no interior nodes")
    if ring_data.shape[0] != idx_ring.size:
        raise RegionMismatch("ring data rows do not match ring size")

    L = op.L
    A = L[idx_inner][:, idx_inner].tocsc()
    C = L[idx_inner][:, idx_ring].tocsr()
    rhs = -C @ ring_data
    if f is not None:
        rhs = rhs + (op.grid.quad_weights[idx_inner]
                     * f.values[idx_inner])[:, None]
    u_inner = verified_solve(A, spla.splu(A), rhs)

    out = np.zeros((op.grid.n_nodes, ring_data.shape[1]))
    out[idx_inner, :] = u_inner
    out[idx_ring, :] = ring_data
    return out


def mask_flux_pairing(op: DiscreteOperator, a: np.ndarray, b: np.ndarray,
                      mask: np.ndarray) -> float:
    """Discrete boundary pairing sum_{i in S} (a (L b) - (L a) b)_i expressed
    through the stencil fluxes across the mask edge:

        sum_{i in S, j not in S}  c_ij (a_i b_j - a_j b_i).

    This is the exact discrete counterpart of the surface integral
    int_{dS} (a dnu b - dnu a b)."""
    ei, ej, ec = op.grid.edges
    cross_ij = mask[ei] & ~mask[ej]
    cross_ji = mask[ej] & ~mask[ei]
    total = np.sum(ec[cross_ij] * (a[ei[cross_ij]] * b[ej[cross_ij]]
                                   - a[ej[cross_ij]] * b[ei[cross_ij]]))
    total += np.sum(ec[cross_ji] * (a[ej[cross_ji]] * b[ei[cross_ji]]
                                    - a[ei[cross_ji]] * b[ej[cross_ji]]))
    return float(total)
