"""Grid functions, quadrature norms, and discrete trace spaces.

L2/H1 norms are quadrature sums over node masks; H1 seminorms difference the
lattice inside a region with the stencils that :func:`masked_gradient`
states, so no ghost values are needed.

Trace norms on the outer boundary are quadratic forms in one Gram block
per set of chart positions, G = ``chart.h_half_gram(ids)`` (circulant on a
uniform closed curve, see :meth:`BoundaryChart.symbol`), with the whole
chart ``ids = arange(n)``.  With X = G^(-1/2), cached on the chart
(:func:`gram_inverse_sqrt`), w the boundary weights and v nodal values,

    ||t||_(1/2) = sqrt(v^T G v),      ||ell||_* = ||X f||,
    riesz_map(ell) = X (X f),

f the dual values of a functional on ``ids``.  The order -1/2 norm of a
trace is the dual norm of its weighted values, ||t||_(-1/2) = ||X (w v)||
= ``functional_norm(BoundaryFunctional(chart, w * v))``.  Each is the
modal sum sum_m (1 + lambda_m)^(+-1/2) |c_m|^2 over the boundary
Laplace--Beltrami eigenbasis without forming the basis.  Traces supported on a sub-boundary
are enforced by hard masking before norm evaluation.  The H^-1 norm of
compactly supported volume fields is evaluated on the Fourier side,
weighting |F(b)|^2 by (1+|zeta|^2)^-1 on a padded box.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import (GeometryViolation, GramNotSPD, RegionMismatch,
                     SupportTouchesBox)
from .geometry import BoundaryChart, Grid, held


# ---------------------------------------------------------------------------
# Volume fields
# ---------------------------------------------------------------------------

@dataclass
class GridField:
    """Finite scalar samples on every grid node."""

    grid: Grid
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values)
        if self.values.shape != (self.grid.n_nodes,):
            raise RegionMismatch("field length does not match grid")
        if not np.all(np.isfinite(self.values)):
            raise RegionMismatch("non-finite field values")


# ---------------------------------------------------------------------------
# Norms
# ---------------------------------------------------------------------------

def _shifted(a: np.ndarray, axis: int, periodic: bool) -> list:
    """``a[i+s]`` for s = 0, 1, -1, 2, -2 along ``axis``, zero off the
    lattice edge or wrapped where ``periodic``; views in lattice order, so
    differences of them ravel without a copy."""
    n = a.shape[axis]
    pad = [(2, 2) if i == axis else (0, 0) for i in range(a.ndim)]
    p = np.pad(a, pad, mode="wrap" if periodic else "constant")
    return [p[(slice(None),) * axis + (slice(2 + s, 2 + s + n),)]
            for s in (0, 1, -1, 2, -2)]


def _gradient_plan(grid: Grid, region: np.ndarray) -> tuple:
    """What :func:`masked_gradient` reads of the region alone, built once
    per grid and region and held read-only on the grid: the node ->
    lattice map, the lattice index of each region node, and per axis its
    step, whether it wraps, the lattice sites off a centred stencil and the
    run ends of each one-sided stencil."""
    return held(grid, ("gradient_plan", region.tobytes()),
                lambda: _build_gradient_plan(grid, region))


def _build_gradient_plan(grid: Grid, region: np.ndarray) -> tuple:
    shape = grid.lattice_shape
    ok = grid.lattice_id >= 0
    pos = np.empty(grid.n_nodes, dtype=int)         # node id -> lattice index
    pos[grid.lattice_id[ok]] = np.flatnonzero(ok)
    m = np.zeros(ok.size, dtype=bool)
    m[pos] = region
    m = m.reshape(shape)
    polar = grid.topology == "polar"
    axes = []
    for axis, h in enumerate((grid.dr, grid.dtheta) if polar else grid.spacings):
        periodic = polar and axis == 1
        m0, mp1, mm1, mp2, mm2 = _shifted(m, axis, periodic)
        fwd, bwd = m0 & mp1 & ~mm1, m0 & mm1 & ~mp1
        off = ~(m0 & mp1 & mm1)
        # forward and backward ends of runs of three or more, then of two
        ends = [np.nonzero(e) for e in (fwd & mp2, bwd & mm2,
                                        fwd & ~mp2, bwd & ~mm2)]
        axes.append((h, periodic, off, ends))
    return pos, pos[region], tuple(axes)


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
    off the region are never read.  Where the runs lie depends on the region
    alone, and is read from the grid's plan for it (:func:`_gradient_plan`).
    """
    pos, at, axes = _gradient_plan(grid, region)
    v = np.zeros(grid.lattice_id.size, dtype=values.dtype)
    v[at] = values[region]
    v = v.reshape(grid.lattice_shape)
    comps = []
    for axis, (h, periodic, off, ends) in enumerate(axes):
        v0, vp1, vm1, vp2, vm2 = _shifted(v, axis, periodic)
        # centred differences inside runs, then the few run ends in place
        d = vp1 - vm1
        d /= 2 * h
        d[off] = 0
        e = ends[0]
        d[e] = (-3 * v0[e] + 4 * vp1[e] - vp2[e]) / (2 * h)
        e = ends[1]
        d[e] = (3 * v0[e] - 4 * vm1[e] + vm2[e]) / (2 * h)
        e = ends[2]
        d[e] = (vp1[e] - v0[e]) / h
        e = ends[3]
        d[e] = (v0[e] - vm1[e]) / h
        if periodic:
            d /= grid.radii[:, None]
        comps.append(d.ravel()[pos])
    return comps


def norm(f: GridField, which: str = "L2", region: Optional[np.ndarray] = None) -> float:
    """Quadrature-weighted norm over a region mask, or over every node.

    ``which`` is ``L2``, ``H1`` or ``H1_semi``; ``H1 = sqrt(L2^2 + H1_semi^2)``.
    """
    if region is None:
        region = np.ones(f.grid.n_nodes, dtype=bool)
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
    """Quadrature-weighted L^p norm over every node."""
    return float(np.sum(f.grid.quad_weights * np.abs(f.values) ** p)
                 ** (1.0 / p))


# ---------------------------------------------------------------------------
# Boundary traces and functionals
# ---------------------------------------------------------------------------

@dataclass
class BoundaryTrace:
    """Nodal values on a boundary chart; gamma-supported traces vanish off
    the marked subset (enforced by :func:`mask_to_gamma`)."""

    chart: BoundaryChart
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape != (self.chart.n,):
            raise RegionMismatch("trace length does not match chart")


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


def spd_inverse_sqrt(G: np.ndarray) -> np.ndarray:
    """G^(-1/2) of the symmetric part of a trace Gram matrix; raises
    :class:`GramNotSPD` unless every eigenvalue is positive."""
    evals, Q = np.linalg.eigh(0.5 * (G + G.T))
    if evals.min() <= 0:
        raise GramNotSPD(f"trace Gram has min eigenvalue {evals.min():.3e}")
    return Q @ ((evals ** -0.5)[:, None] * Q.T)


def gram_inverse_sqrt(chart: BoundaryChart, ids: np.ndarray) -> np.ndarray:
    """G^(-1/2) of the trace Gram block on the chart positions ``ids``,
    taken once per chart and block and held read-only on the chart
    (:func:`helmlab.geometry.held`).  The block itself is read on every
    call, so that a traced run counts one Gram read per dual quantity; a
    circulant block is a gather and every other block is held on the chart,
    so a read after the first is cheap."""
    G = chart.h_half_gram(ids)
    return held(chart, ("gram_inv_sqrt", ids.tobytes()),
                lambda: spd_inverse_sqrt(G))


def mask_to_gamma(t: BoundaryTrace) -> BoundaryTrace:
    vals = np.where(t.chart.gamma_mask, t.values, 0.0)
    return BoundaryTrace(t.chart, vals)


def trace_norm(t: BoundaryTrace) -> float:
    """Trace norm of order +1/2 on the full outer boundary."""
    G = t.chart.h_half_gram(np.arange(t.chart.n))
    return float(np.sqrt(t.values @ G @ t.values))


def _positions(chart: BoundaryChart,
               gamma: Optional[np.ndarray]) -> np.ndarray:
    """Chart positions of the mask ``gamma``; all of them for None."""
    return np.arange(chart.n) if gamma is None else np.flatnonzero(gamma)


def functional_norm(ell: BoundaryFunctional,
                    gamma: Optional[np.ndarray] = None) -> float:
    """Dual norm of order -1/2 over the traces supported on the chart mask
    ``gamma``, or on the whole boundary."""
    ids = _positions(ell.chart, gamma)
    X = gram_inverse_sqrt(ell.chart, ids)
    return float(np.linalg.norm(X @ ell.dual_values[ids]))


def riesz_map(ell: BoundaryFunctional,
              gamma: Optional[np.ndarray] = None) -> BoundaryTrace:
    """Trace supported on the chart mask ``gamma`` (or the whole boundary)
    that represents ``ell`` in the order-1/2 inner product there, so that
    ``<ell, riesz_map(ell, gamma)> = functional_norm(ell, gamma)^2``."""
    ids = _positions(ell.chart, gamma)
    X = gram_inverse_sqrt(ell.chart, ids)
    vals = np.zeros(ell.chart.n)
    vals[ids] = X @ (X @ ell.dual_values[ids])
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
