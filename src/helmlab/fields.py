"""Grid functions, quadrature norms, and discrete trace spaces.

L2/H1 norms are quadrature sums over node masks; H1 seminorms difference the
lattice inside a region with the stencils that :func:`masked_gradient`
states, so no ghost values are needed.

Trace spaces on the outer boundary are realized spectrally: with ``lambda_m``
and ``c_m`` the eigenvalues/coefficients of the discrete boundary
Laplace--Beltrami operator,

    ||t||_s^2 = sum_m (1 + lambda_m)^s |c_m|^2,       s = +-1/2,

which makes the Riesz map between the dual pair diagonal.  Traces supported
on a sub-boundary are enforced by hard masking before norm evaluation.  The
H^-1 norm of compactly supported volume fields is evaluated on the Fourier
side, weighting |F(b)|^2 by (1+|zeta|^2)^-1 on a padded box.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import (GeometryViolation, GramNotSPD, RegionMismatch,
                     SupportTouchesBox)
from .geometry import BoundaryChart, Grid


# ---------------------------------------------------------------------------
# Volume fields
# ---------------------------------------------------------------------------

@dataclass
class GridField:
    """Scalar samples on grid nodes, meaningful on ``region``."""

    grid: Grid
    values: np.ndarray
    region: np.ndarray = None

    def __post_init__(self):
        self.values = np.asarray(self.values)
        if self.region is None:
            self.region = np.ones(self.grid.n_nodes, dtype=bool)
        if self.values.shape != (self.grid.n_nodes,):
            raise RegionMismatch("field length does not match grid")
        if not np.all(np.isfinite(self.values[self.region])):
            raise RegionMismatch("non-finite values on the field region")

    def _check_same_grid(self, other: "GridField"):
        if other.grid is not self.grid:
            raise RegionMismatch("arithmetic requires the identical grid object")

    def __add__(self, other):
        self._check_same_grid(other)
        return GridField(self.grid, self.values + other.values,
                         self.region & other.region)

    def __sub__(self, other):
        self._check_same_grid(other)
        return GridField(self.grid, self.values - other.values,
                         self.region & other.region)

    def __mul__(self, c):
        return GridField(self.grid, self.values * c, self.region.copy())

    __rmul__ = __mul__


# ---------------------------------------------------------------------------
# Norms
# ---------------------------------------------------------------------------

def masked_gradient(grid: Grid, values: np.ndarray, region: np.ndarray):
    """Componentwise gradient restricted to a region mask.

    Returns a list of arrays (one per frame direction).  Polar grids return
    (d/dr, (1/r) d/dtheta) which is an orthonormal frame, so the Euclidean
    |grad u|^2 is the sum of squares.

    Each lattice axis is differenced on the runs of consecutive region nodes
    along it, with step h = dr, dtheta or the Cartesian spacing:

    - inside a run, the centred difference (u[i+1] - u[i-1]) / 2h;
    - at a run end, the one-sided second-order stencil
      (-3u[i] + 4u[i+1] - u[i+2]) / 2h, or its mirror image;
    - on a run of two nodes, (u[i+1] - u[i]) / h at both nodes;
    - on an isolated node, and off the region, 0.

    The theta axis of a polar grid is periodic, so its runs wrap around and
    a full ring is centred everywhere.  Runs end at the lattice edge and at
    holes: region gaps, and lattice sites a masked union leaves out.  Values
    off the region are never read.
    """
    shape = grid.lattice_shape
    ok = grid.lattice_id >= 0
    pos = np.empty(grid.n_nodes, dtype=int)         # node id -> lattice index
    pos[grid.lattice_id[ok]] = np.flatnonzero(ok)
    m = np.zeros(ok.size, dtype=bool)
    v = np.zeros(ok.size, dtype=values.dtype)
    m[pos] = region
    v[pos[region]] = values[region]
    m, v = m.reshape(shape), v.reshape(shape)
    polar = grid.topology == "polar"
    comps = []
    for axis, h in enumerate((grid.dr, grid.dtheta) if polar else grid.spacings):
        periodic = polar and axis == 1
        pad = [(2, 2) if i == axis else (0, 0) for i in range(len(shape))]

        def shifted(a):
            """``a[i+s]`` for s = 0, 1, -1, 2, -2 along the axis; views in
            lattice order, so differences of them ravel without a copy."""
            p = np.pad(a, pad, mode="wrap" if periodic else "constant")
            return [p[(slice(None),) * axis + (slice(2 + s, 2 + s + shape[axis]),)]
                    for s in (0, 1, -1, 2, -2)]

        v0, vp1, vm1, vp2, vm2 = shifted(v)
        m0, mp1, mm1, mp2, mm2 = shifted(m)
        # centred differences inside runs, then the few run ends in place
        fwd, bwd = m0 & mp1 & ~mm1, m0 & mm1 & ~mp1
        d = vp1 - vm1
        d /= 2 * h
        d[~(m0 & mp1 & mm1)] = 0
        e = fwd & mp2
        d[e] = (-3 * v0[e] + 4 * vp1[e] - vp2[e]) / (2 * h)
        e = bwd & mm2
        d[e] = (3 * v0[e] - 4 * vm1[e] + vm2[e]) / (2 * h)
        e = fwd & ~mp2
        d[e] = (vp1[e] - v0[e]) / h
        e = bwd & ~mm2
        d[e] = (v0[e] - vm1[e]) / h
        if periodic:
            d /= grid.radii[:, None]
        comps.append(d.ravel()[pos])
    return comps


def norm(f: GridField, which: str = "L2", region: Optional[np.ndarray] = None) -> float:
    """Quadrature-weighted norm over a region mask.

    ``which`` is ``L2``, ``H1`` or ``H1_semi``; ``H1 = sqrt(L2^2 + H1_semi^2)``.
    """
    if region is None:
        region = f.region
    if np.any(region & ~f.region):
        raise RegionMismatch("requested region exceeds the field region")
    w = f.grid.quad_weights
    if which == "L2":
        return float(np.sqrt(np.sum(w[region] * np.abs(f.values[region]) ** 2)))
    if which in ("H1", "H1_semi"):
        comps = masked_gradient(f.grid, f.values, region)
        semi_sq = 0.0
        for c in comps:
            semi_sq += np.sum(w[region] * np.abs(c[region]) ** 2)
        if which == "H1_semi":
            return float(np.sqrt(semi_sq))
        l2_sq = np.sum(w[region] * np.abs(f.values[region]) ** 2)
        return float(np.sqrt(l2_sq + semi_sq))
    raise ValueError(f"unknown norm {which!r}")


def lp_norm(f: GridField, p: float) -> float:
    """Quadrature-weighted L^p norm over the field region."""
    region = f.region
    return float(np.sum(f.grid.quad_weights[region]
                        * np.abs(f.values[region]) ** p) ** (1.0 / p))


# ---------------------------------------------------------------------------
# Boundary traces and functionals
# ---------------------------------------------------------------------------

@dataclass
class BoundaryTrace:
    """Nodal values on a boundary chart; gamma-supported traces vanish off
    the marked subset (enforced by :func:`mask_to_gamma`)."""

    chart: BoundaryChart
    values: np.ndarray
    _coeffs: Optional[np.ndarray] = field(default=None, repr=False)

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape != (self.chart.n,):
            raise RegionMismatch("trace length does not match chart")

    def coefficients(self) -> np.ndarray:
        if self._coeffs is None:
            self._coeffs = self.chart.coefficients(self.values)
        return self._coeffs


@dataclass
class BoundaryFunctional:
    """Element of the dual trace space as nodal dual values: the pairing with
    a trace ``t`` is ``sum_b dual_values[b] * t.values[b]``."""

    chart: BoundaryChart
    dual_values: np.ndarray

    def __post_init__(self):
        self.dual_values = np.asarray(self.dual_values, dtype=float)
        if self.dual_values.shape != (self.chart.n,):
            raise RegionMismatch("functional length does not match chart")

    def coefficients(self) -> np.ndarray:
        _, E = self.chart.modal()
        return E.T @ self.dual_values

    def pair(self, t: BoundaryTrace) -> float:
        return float(self.dual_values @ t.values)


def spd_inverse_sqrt(G: np.ndarray) -> np.ndarray:
    """G^(-1/2) of the symmetric part of a trace Gram matrix; raises
    :class:`GramNotSPD` unless every eigenvalue is positive."""
    evals, Q = np.linalg.eigh(0.5 * (G + G.T))
    if evals.min() <= 0:
        raise GramNotSPD(f"trace Gram has min eigenvalue {evals.min():.3e}")
    return Q @ ((evals ** -0.5)[:, None] * Q.T)


def mask_to_gamma(t: BoundaryTrace) -> BoundaryTrace:
    vals = np.where(t.chart.gamma_mask, t.values, 0.0)
    return BoundaryTrace(t.chart, vals)


def trace_norm(t: BoundaryTrace, order: float) -> float:
    """Spectral trace norm of order +1/2 or -1/2 on the full outer boundary."""
    if order not in (0.5, -0.5):
        raise ValueError("trace_norm supports orders +-1/2")
    lam, _ = t.chart.modal()
    c = t.coefficients()
    return float(np.sqrt(np.sum((1.0 + lam) ** order * c ** 2)))


def functional_norm(ell: BoundaryFunctional,
                    gamma: Optional[np.ndarray] = None) -> float:
    """Dual norm of order -1/2.

    With ``gamma`` a chart mask, the norm is taken over gamma-supported unit
    traces (the dual of the supported trace space); otherwise over the whole
    boundary, where it reduces to the diagonal modal sum.
    """
    if gamma is None:
        lam, _ = ell.chart.modal()
        d = ell.coefficients()
        return float(np.sqrt(np.sum((1.0 + lam) ** -0.5 * d ** 2)))
    ids = np.flatnonzero(gamma)
    G = ell.chart.h_half_gram(ids)
    f = ell.dual_values[ids]
    z = np.linalg.solve(G, f)
    return float(np.sqrt(max(f @ z, 0.0)))


def riesz_map(ell: BoundaryFunctional,
              gamma: Optional[np.ndarray] = None) -> BoundaryTrace:
    """Trace representing ``ell`` in the order-1/2 inner product.

    Full-boundary version scales modal coefficients by (1+lambda)^(-1/2);
    the gamma-restricted version inverts the gamma block of the Gram matrix,
    producing a gamma-supported trace.  Both satisfy
    ``<ell, riesz_map(ell)> = functional_norm(ell)^2``.
    """
    if gamma is None:
        lam, _ = ell.chart.modal()
        d = ell.coefficients()
        vals = ell.chart.synthesize((1.0 + lam) ** -0.5 * d)
        return BoundaryTrace(ell.chart, vals)
    ids = np.flatnonzero(gamma)
    G = ell.chart.h_half_gram(ids)
    z = np.linalg.solve(G, ell.dual_values[ids])
    vals = np.zeros(ell.chart.n)
    vals[ids] = z
    return BoundaryTrace(ell.chart, vals)


# ---------------------------------------------------------------------------
# Fourier-side H^-1 norm
# ---------------------------------------------------------------------------

def hminus1_norm_fourier(f: GridField) -> float:
    """H^-1 norm of a compactly supported field via the discrete Fourier
    transform on a zero-padded box.

    The field is extended by zero to a box at least twice the support
    extent in every direction (limits periodization error) and the
    weighted integral (2 pi)^-n int |F(f)|^2 (1+|zeta|^2)^-1 d zeta is summed
    on the discrete frequency lattice.  Cartesian grids only.
    """
    grid = f.grid
    if grid.topology != "cartesian":
        raise GeometryViolation("fourier-side norm needs a cartesian lattice")
    shape = grid.lattice_shape
    dim = len(shape)
    vol = np.zeros(shape)
    ok = grid.lattice_id >= 0
    vol[ok] = f.values[grid.lattice_id[ok]]

    support = np.abs(vol) > 0
    if not np.any(support):
        return 0.0
    for axis in range(dim):
        proj = support.any(axis=tuple(a for a in range(dim) if a != axis))
        if proj[0] or proj[-1]:
            raise SupportTouchesBox("support touches the grid hull")
        lo, hi = np.flatnonzero(proj)[[0, -1]]
        extent = hi - lo + 1
        if shape[axis] < 2 * extent:
            pad = 2 * extent - shape[axis]
            widths = [(0, 0)] * dim
            widths[axis] = (0, pad)
            vol = np.pad(vol, widths)
    padded_shape = vol.shape

    spac = grid.spacings
    F = np.fft.fftn(vol) * np.prod(spac)
    zeta_sq = np.zeros(padded_shape)
    for axis in range(dim):
        freq = 2 * np.pi * np.fft.fftfreq(padded_shape[axis], d=spac[axis])
        sh = [1] * dim
        sh[axis] = padded_shape[axis]
        zeta_sq = zeta_sq + (freq ** 2).reshape(sh)
    weight = 1.0 / (1.0 + zeta_sq)
    dzeta = np.prod([2 * np.pi / (padded_shape[a] * spac[a]) for a in range(dim)])
    total = np.sum(np.abs(F) ** 2 * weight) * dzeta / (2 * np.pi) ** dim
    return float(np.sqrt(total))
