"""Grid functions, quadrature norms, and discrete trace spaces.

L2/H1 norms are quadrature sums over node masks; H1 seminorms difference the
lattice with centered stencils inside a region and one-sided second-order
stencils at region edges, so no ghost values are needed.

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

    def restricted(self, region: np.ndarray) -> "GridField":
        vals = np.where(region, self.values, 0.0)
        return GridField(self.grid, vals, region.copy())


def field_from_radial(grid: Grid, radial_fn, center=None, region=None) -> GridField:
    """Sample a radial profile; on polar grids only the distinct radii are
    evaluated, which keeps expensive special-function profiles cheap."""
    c = np.asarray(center if center is not None else grid.spec.center
                   if grid.topology == "polar" else np.zeros(grid.dim))
    if grid.topology == "polar" and np.allclose(c, grid.spec.center):
        prof = np.asarray(radial_fn(grid.radii))
        vals = np.repeat(prof, grid.lattice_shape[1])
    else:
        r = np.linalg.norm(grid.nodes - c, axis=1)
        vals = np.asarray(radial_fn(r))
    return GridField(grid, vals, region)


# ---------------------------------------------------------------------------
# Norms
# ---------------------------------------------------------------------------

def _segment_derivative(vals: np.ndarray, mask: np.ndarray, h: float,
                        periodic: bool) -> np.ndarray:
    """d/ds along the leading axis on masked 1D segments.

    Centered differences inside a segment, one-sided second-order stencils at
    segment ends; segments of length 2 fall back to first order, isolated
    nodes get 0.
    """
    n = vals.shape[0]
    out = np.zeros_like(vals, dtype=vals.dtype)
    if periodic and mask.all():
        out[:] = (np.roll(vals, -1, axis=0) - np.roll(vals, 1, axis=0)) / (2 * h)
        return out

    idx = np.flatnonzero(mask)
    if idx.size == 0:
        return out
    # split masked indices into runs of consecutive positions (cyclically when
    # periodic)
    breaks = np.flatnonzero(np.diff(idx) > 1)
    runs = np.split(idx, breaks + 1)
    if periodic and len(runs) > 1 and idx[0] == 0 and idx[-1] == n - 1:
        runs[0] = np.concatenate([runs[-1], runs[0]])
        runs = runs[:-1]
    for run in runs:
        m = run.size
        if m == 1:
            continue
        v = vals[run]
        d = np.empty_like(v)
        if m == 2:
            d[0] = d[1] = (v[1] - v[0]) / h
        else:
            d[1:-1] = (v[2:] - v[:-2]) / (2 * h)
            d[0] = (-3 * v[0] + 4 * v[1] - v[2]) / (2 * h)
            d[-1] = (3 * v[-1] - 4 * v[-2] + v[-3]) / (2 * h)
        out[run] = d
    return out


def masked_gradient(grid: Grid, values: np.ndarray, region: np.ndarray):
    """Componentwise gradient restricted to a region mask.

    Returns a list of arrays (one per frame direction).  Polar grids return
    (d/dr, (1/r) d/dtheta) which is an orthonormal frame, so the Euclidean
    |grad u|^2 is the sum of squares.
    """
    if grid.topology == "polar":
        n_r, n_t = grid.lattice_shape
        v = values.reshape(n_r, n_t)
        m = region.reshape(n_r, n_t)
        dr = np.zeros_like(v, dtype=values.dtype)
        for j in range(n_t):
            dr[:, j] = _segment_derivative(v[:, j], m[:, j], grid.dr, periodic=False)
        dt = np.zeros_like(v, dtype=values.dtype)
        for i in range(n_r):
            dt[i, :] = _segment_derivative(v[i, :], m[i, :], grid.dtheta,
                                           periodic=True)
        dt /= grid.radii[:, None]
        return [dr.ravel(), dt.ravel()]

    shape = grid.lattice_shape
    full = np.zeros(shape, dtype=values.dtype)
    mfull = np.zeros(shape, dtype=bool)
    ok = grid.lattice_id >= 0
    full[ok] = values[grid.lattice_id[ok]]
    mfull[ok] = region[grid.lattice_id[ok]]
    comps = []
    for axis in range(len(shape)):
        moved = np.moveaxis(full, axis, 0)
        mmoved = np.moveaxis(mfull, axis, 0)
        d = np.zeros_like(moved)
        flat_v = moved.reshape(shape[axis], -1)
        flat_m = mmoved.reshape(shape[axis], -1)
        dflat = d.reshape(shape[axis], -1)
        for col in range(flat_v.shape[1]):
            if flat_m[:, col].any():
                dflat[:, col] = _segment_derivative(
                    flat_v[:, col], flat_m[:, col], grid.spacings[axis],
                    periodic=False)
        comps.append(np.moveaxis(d, 0, axis)[ok][np.argsort(grid.lattice_id[ok])])
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


def lp_norm(f: GridField, p: float, region: Optional[np.ndarray] = None) -> float:
    region = f.region if region is None else region
    w = f.grid.quad_weights
    return float(np.sum(w[region] * np.abs(f.values[region]) ** p) ** (1.0 / p))


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

def hminus1_norm_fourier(f: GridField, pad_factor: float = 2.0) -> float:
    """H^-1 norm of a compactly supported field via the discrete Fourier
    transform on a zero-padded box.

    The field is extended by zero to a box at least ``pad_factor`` times the
    support extent in every direction (limits periodization error) and the
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
        if shape[axis] < pad_factor * extent:
            pad = int(np.ceil(pad_factor * extent)) - shape[axis]
            widths = [(0, 0)] * dim
            widths[axis] = (0, pad)
            vol = np.pad(vol, widths)
    padded_shape = vol.shape

    spac = grid.spacings
    F = np.fft.fftn(vol) * np.prod(spac)
    weight = np.ones(padded_shape)
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
