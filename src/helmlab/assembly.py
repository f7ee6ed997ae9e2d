"""Symmetric assembly of Delta + k^2 q + V and Dirichlet solves.

The discrete operator is the quadrature-weighted form

    L = -K + diag(w (k^2 q + V)),

where K is the flux stiffness built from the grid's edge couplings.  Because
every edge carries one symmetric coupling, L is exactly symmetric; boundary
data is imposed by lifting (boundary columns moved to the right-hand side),
which keeps the interior block symmetric and lets one factorization serve
many right-hand sides.

Two factorizations serve the blocks of L.  A block whose unknowns are whole
consecutive rings of a polar grid, and whose diagonal, angular and radial
couplings are constant on each ring (:func:`ring_coefficients`, read from
the assembled entries), splits under an FFT in theta into one tridiagonal
system over the rings per angular mode (Swarztrauber's separable direct
method); :class:`RingFactor` factors each with LAPACK's partially pivoted
gttrf, since L is indefinite.  Every other block, and every Dirichlet solve
through :meth:`DiscreteOperator.lu`, is factored by SuperLU through
:func:`sparse_lu`, the one place helmlab takes a SuperLU factor.  Both go
through :func:`verified_solve` and its residual check.

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
from scipy.linalg import lapack

from .errors import (HypothesisViolated, NearResonance, NotASolution,
                     RegionMismatch, SolverBreakdown, UnderResolved)
from .fields import BoundaryFunctional, BoundaryTrace, GridField, masked_gradient
from .geometry import Grid, boundary_chart, held


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
            raise HypothesisViolated("medium violates the pinch bounds: "
                                     "kappa must exceed 1")
        qv = self.q.values
        if np.any(qv < 1.0 / self.kappa - 1e-12) or np.any(qv > self.kappa + 1e-12):
            raise HypothesisViolated("medium violates the pinch bounds: q "
                                     "escapes [1/kappa, kappa]")
        if self.monotone_flag:
            dd = radial_derivative(self.q)
            if np.any(dd < -1e-10):
                raise HypothesisViolated(
                    f"q is not radially nondecreasing: x . grad q >= 0 fails "
                    f"(min discrete slope {dd.min():.3e})")

    @property
    def grid(self) -> Grid:
        return self.q.grid


def radial_derivative(f: GridField) -> np.ndarray:
    """Discrete x . grad f / |x|.

    On polar grids these are forward differences along rays, one value per
    radial edge: (n_r - 1) * n_theta of them, ring-major, not one per node.
    On cartesian grids they are centered radial differences, one per
    node."""
    grid = f.grid
    if grid.topology == "polar":
        n_r, n_t = grid.lattice_shape
        v = f.values.reshape(n_r, n_t)
        d = np.diff(v, axis=0) / np.diff(grid.radii)[:, None]
        return d.ravel()
    comps = masked_gradient(grid, f.values, np.ones(grid.n_nodes, bool))
    r = np.linalg.norm(grid.nodes, axis=1)
    r = np.where(r == 0, 1.0, r)
    rad = sum(grid.nodes[:, d] * comps[d] for d in range(grid.dim)) / r
    return rad


# ---------------------------------------------------------------------------
# Discrete operator
# ---------------------------------------------------------------------------

_LU_ORDERING = "MMD_AT_PLUS_A"
_LU_DIAG_PIVOT_THRESH = 0.01
_LU_OPTIONS = {"SymmetricMode": True}


def sparse_lu(A) -> spla.SuperLU:
    """SuperLU factor of a structurally symmetric sparse matrix ``A``.

    Columns are ordered by minimum degree on the pattern of A^T + A, and the
    diagonal pivot is kept whenever it is at least 0.01 of the largest entry
    of its column (threshold partial pivoting in SuperLU's symmetric mode).
    On the interior blocks of L, which are symmetric and indefinite, the
    fill is 0.45 (unit cube) to about 0.7 (small 2D grids) times that of
    SuperLU's default COLAMD ordering of A^T A.
    """
    return spla.splu(A, permc_spec=_LU_ORDERING,
                     diag_pivot_thresh=_LU_DIAG_PIVOT_THRESH,
                     options=_LU_OPTIONS)


@dataclass
class DiscreteOperator:
    medium: Medium
    k: float
    L: sp.csr_matrix                      # full symmetric operator, all nodes
    L_II: sp.csc_matrix
    L_IB: sp.csr_matrix
    _lu: Optional[spla.SuperLU] = field(default=None, init=False, repr=False)

    @property
    def grid(self) -> Grid:
        return self.medium.grid

    def lu(self) -> spla.SuperLU:
        """SuperLU factor of L_II, taken once by :func:`sparse_lu`:
        minimum-degree ordering of A^T + A, diagonal pivots kept down to
        0.01 of their column's largest entry."""
        if self._lu is None:
            self._lu = sparse_lu(self.L_II)
        return self._lu


def stiffness(grid: Grid) -> sp.csr_matrix:
    """Flux stiffness K >= 0 with w * (Laplacian u) = -K u on interior rows.

    K is built once per grid and held on it (:func:`helmlab.geometry.held`);
    every later call returns that same matrix, whose ``data``, ``indices``
    and ``indptr`` are read-only.
    """
    def build():
        ei, ej, ec = grid.edges
        n = grid.n_nodes
        rows = np.concatenate([ei, ej, ei, ej])
        cols = np.concatenate([ej, ei, ei, ej])
        vals = np.concatenate([-ec, -ec, ec, ec])
        return sp.coo_matrix((vals, (rows, cols)), shape=(n, n)).tocsr()
    return held(grid, "stiffness", build)


def default_spacing(k_max: float, kappa: float) -> float:
    """Grid spacing that meets the wavelength rule at 1.1 k_max with 5%
    to spare."""
    return 2 * np.pi / (10.0 * 1.1 * k_max * math.sqrt(kappa)) * 0.95


def wavelength_rule(grid: Grid, k: float, kappa: float) -> None:
    """Raise :class:`UnderResolved` unless the grid's largest spacing meets
    the ten-points-per-wavelength rule h <= 2 pi / (10 k sqrt(kappa)).  The
    message gives the relative excess, which a failed rule keeps above
    1e-9, so that two sides that print alike still read as unequal."""
    h_max = grid.max_spacing()
    h_allowed = 2.0 * np.pi / (10.0 * k * np.sqrt(kappa))
    if h_max > h_allowed * (1 + 1e-9):
        raise UnderResolved(
            f"spacing {h_max:.4g} exceeds wavelength rule {h_allowed:.4g} "
            f"by {100 * (h_max / h_allowed - 1):.2g}% at k={k:g}")


def assemble(medium: Medium, k: float, spectrum=None) -> DiscreteOperator:
    """Assemble the weighted operator of a medium at frequency k >= 1.

    Raises :class:`UnderResolved` unless the spacing meets the
    :func:`wavelength_rule` at k, and, the one resonance guard,
    :class:`NearResonance` when k^2 is inside the guard band of the
    ``spectrum`` report (``check_admissibility(guard=True)``).
    """
    if k < 1.0:
        raise HypothesisViolated("frequency must satisfy k >= 1")
    grid = medium.grid
    wavelength_rule(grid, k, medium.kappa)
    if spectrum is not None:
        from .spectral import check_admissibility
        rec = check_admissibility(k, spectrum, guard=True)
        if not rec["admissible"]:
            raise NearResonance(
                f"k^2={k ** 2:.6g} within guard band {rec['threshold']:.3g} "
                f"of eigenvalue (dist {rec['dist']:.3g})")

    K = stiffness(grid)
    coeff = grid.quad_weights * (k * k * medium.q.values + medium.V.values)
    L = (-K + sp.diags(coeff)).tocsr()

    I = grid.interior_index
    B = grid.boundary_index
    L_II = L[I][:, I].tocsc()
    L_IB = L[I][:, B].tocsr()
    return DiscreteOperator(medium=medium, k=k, L=L, L_II=L_II, L_IB=L_IB)


# ---------------------------------------------------------------------------
# Dirichlet solve
# ---------------------------------------------------------------------------

def _boundary_values(op: DiscreteOperator, g) -> np.ndarray:
    """Accept a BoundaryTrace (chart nodes; zero on uncharted boundary) or a
    nodal array over all boundary nodes."""
    B = op.grid.boundary_index
    if g is None:
        return np.zeros(B.size)
    if isinstance(g, BoundaryTrace):
        full = np.zeros(op.grid.n_nodes)
        full[g.chart.node_ids] = g.values
        return full[B]
    g = np.asarray(g, dtype=float)
    if g.shape != (B.size,):
        raise RegionMismatch("boundary data length mismatch")
    return g


_RESIDUAL_TOL = 1e-10
_RESIDUAL_BLOCK = 64
_RING_TOL = 1e-13


def whole_rings(grid: Grid, ids: np.ndarray) -> bool:
    """Whether the ascending node ids ``ids`` are two or more whole
    consecutive rings of a polar grid."""
    if grid.topology != "polar":
        return False
    n_rings, rest = divmod(ids.size, grid.lattice_shape[1])
    if n_rings < 2 or rest:
        return False
    first = ids[0] // grid.lattice_shape[1]
    return np.array_equal(ids, grid.lattice_id[first:first + n_rings].ravel())


def ring_coefficients(grid: Grid, ids: np.ndarray, A, M=None):
    """Per-ring (diagonal, angular coupling, radial coupling to the next
    ring) of the block ``A`` over the node ids ``ids``, followed by the
    per-ring diagonal of ``M`` when it is given.

    None unless ``ids`` are whole rings (:func:`whole_rings`), each of these
    is constant on every ring to a relative 1e-13, ``A`` has no entries but
    the diagonal and the angular and radial neighbours, and ``M`` is
    diagonal."""
    if not whole_rings(grid, ids):
        return None
    p = np.arange(ids.size).reshape(-1, grid.lattice_shape[1])

    def entries(rows, cols):
        return np.asarray(A[rows.ravel(), cols.ravel()]).reshape(rows.shape)

    diag, ang = entries(p, p), entries(p, np.roll(p, -1, axis=1))
    rad = entries(p[:-1], p[1:])
    couplings = np.count_nonzero(ang) + np.count_nonzero(rad)
    if A.count_nonzero() != np.count_nonzero(diag) + 2 * couplings:
        return None
    parts = [diag, ang, rad]
    if M is not None:
        parts.append(M.diagonal().reshape(p.shape))
        if M.count_nonzero() != np.count_nonzero(parts[-1]):
            return None
    for x in parts:
        if np.any(np.ptp(x, axis=1) > _RING_TOL * np.max(np.abs(x), axis=1)):
            return None
    return tuple(x.mean(axis=1) for x in parts)


class RingFactor:
    """Factor of a ring-invariant polar block, one angular mode at a time.

    Mode m = 0 .. n_theta/2 of the block is the tridiagonal matrix with
    diagonal diag + 2 ang cos(2 pi m / n_theta) and off-diagonal rad over
    the rings.  Each mode is factored by LAPACK's gttrf, LU with partial
    pivoting (the block is indefinite, so no pivot-free sweep).  ``solve``
    takes the rfft of the right-hand side along each ring, applies every
    mode's factors to it (the row exchanges and eliminations of LAPACK's
    gttrs, one ring at a time across all modes and columns), and transforms
    back.  Raises :class:`SolverBreakdown` when a mode is exactly singular.
    """

    def __init__(self, diag, ang, rad, n_theta: int):
        self.n_theta = n_theta
        factors = []
        for m in range(n_theta // 2 + 1):
            *lu, info = lapack.dgttrf(
                rad, diag + 2.0 * ang * math.cos(2.0 * math.pi * m / n_theta),
                rad)
            if info != 0:
                raise SolverBreakdown(f"angular mode {m} is singular")
            factors.append(lu)
        # per ring, the factors of every mode: (ring, mode, 1) broadcasts
        # over the columns
        self._dl, self._d, self._du, self._du2, ipiv = (
            np.stack(x, axis=1)[:, :, None] for x in zip(*factors))
        self._swaps = [np.flatnonzero(ipiv[i, :, 0] != i + 1)
                       for i in range(diag.size - 1)]

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        n_rings = self._d.shape[0]
        F = np.fft.rfft(rhs.reshape(n_rings, self.n_theta, -1), axis=1)
        # (ring, mode, real and imaginary part of each column)
        b = F.view(np.float64)
        for i, swap in enumerate(self._swaps):
            b[i, swap], b[i + 1, swap] = b[i + 1, swap], b[i, swap]
            b[i + 1] -= self._dl[i] * b[i]
        b[-1] /= self._d[-1]
        b[-2] -= self._du[-1] * b[-1]
        b[-2] /= self._d[-2]
        for i in range(n_rings - 3, -1, -1):
            b[i] -= self._du[i] * b[i + 1] + self._du2[i] * b[i + 2]
            b[i] /= self._d[i]
        x = np.fft.irfft(F, n=self.n_theta, axis=1)
        return x.reshape(rhs.shape)


def ring_factor(grid: Grid, ids: np.ndarray, A) -> Optional[RingFactor]:
    """Per-mode factor of the block ``A`` over the node ids ``ids``, or None
    unless the block is ring-invariant (:func:`ring_coefficients`)."""
    rings = ring_coefficients(grid, ids, A)
    return None if rings is None else RingFactor(*rings,
                                                 grid.lattice_shape[1])


def verified_solve(A, factor, rhs: np.ndarray) -> np.ndarray:
    """Solve A x = rhs for one column or many with a factorization of A.

    Every column's residual ||A x - b|| is verified to 1e-10 relative to
    max(||b||, ||x||); a residual that is not finite misses it.  A block of
    columns that misses it gets one step of iterative refinement;
    :class:`SolverBreakdown` is raised if it still misses.  Residuals are
    formed one block of columns at a time, so the check holds at most one
    block of extra memory.
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
        if not rel <= _RESIDUAL_TOL:
            X[:, cols] -= factor.solve(R)
            _, rel = residual(cols)
            if not rel <= _RESIDUAL_TOL:
                raise SolverBreakdown(
                    f"interior residual {rel:.2e} above {_RESIDUAL_TOL:g}")
    return x


def _col_norms(M: np.ndarray) -> np.ndarray:
    return np.sqrt(np.einsum("ij,ij->j", M, M))


def solve_dirichlet(op: DiscreteOperator, f: Optional[GridField] = None,
                    g=None) -> GridField:
    """Solve (Delta + k^2 q + V) u = f with Dirichlet data g.

    ``g`` may be a BoundaryTrace on the outer chart (zero on any uncharted
    boundary component) or an array over all boundary nodes.  The frequency
    is guarded by :func:`assemble`; the interior residual is verified by
    :func:`verified_solve`.
    """
    gb = _boundary_values(op, g)
    I = op.grid.interior_index
    rhs = -op.L_IB @ gb
    if f is not None:
        rhs = rhs + op.grid.quad_weights[I] * f.values[I]
    u_int = verified_solve(op.L_II, op.lu(), rhs)

    vals = np.zeros(op.grid.n_nodes)
    vals[I] = u_int
    vals[op.grid.boundary_index] = gb
    return GridField(op.grid, vals)


def weak_neumann_trace(op: DiscreteOperator, u: GridField,
                       f: Optional[GridField] = None) -> BoundaryFunctional:
    """Variational normal-derivative functional of a solution on the outer
    chart: ell(phi) = sum_b (w f - L u)_b phi_b.  Raises
    :class:`NotASolution` unless the interior rows vanish to 1e-8 of L u."""
    w = op.grid.quad_weights
    lu = op.L @ u.values
    resid = -lu
    if f is not None:
        resid = resid + w * f.values
    scale = max(float(np.max(np.abs(lu))), 1e-300)
    interior_resid = np.max(np.abs(resid[op.grid.interior_index]))
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


def solve_on_mask_multi(op: DiscreteOperator, mask: np.ndarray,
                        ring_data: np.ndarray) -> np.ndarray:
    """Masked solves for many ring-data columns with one factorization.

    ``ring_data`` has one row per ring node (ring node ids in ascending
    order) and one column per solve; returns (n_nodes, n_cols) with zeros
    outside the mask.  A ring-invariant submesh block is solved one angular
    mode at a time (:func:`ring_factor`), every other one by
    :func:`sparse_lu`.
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
    factor = ring_factor(op.grid, idx_inner, A) or sparse_lu(A)
    u_inner = verified_solve(A, factor, rhs)

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
