"""Closed-form global solutions for q=1, V=0 on polar grids.

Separated modes J_ell(k r) {cos, sin}(ell theta) solve Delta u + k^2 u = 0 on
the whole plane, so sampling them on a grid produces exact solutions for
probes that need solution families without running the solver.
"""

from __future__ import annotations

import numpy as np

from .bessel import radial_profile
from .fields import GridField
from .geometry import Grid


def mode_field(grid: Grid, ell: int, k: float, parity: str = "cos",
               center=None) -> GridField:
    """J_ell(k r) {cos, sin}(ell theta) about ``center`` (default: the
    domain centre).  On a polar grid centred there the Bessel profile is
    evaluated once per ring, at ``grid.radii``; elsewhere at every node."""
    c = np.asarray(center if center is not None else grid.spec.center, float)
    if grid.topology == "polar" and np.array_equal(c, grid.spec.center):
        rad = radial_profile(ell, k, 2, grid.radii)[:, None]
        th = grid.thetas
    else:
        dx = grid.nodes[:, 0] - c[0]
        dy = grid.nodes[:, 1] - c[1]
        rad = radial_profile(ell, k, 2, np.hypot(dx, dy))
        th = np.arctan2(dy, dx)
    ang = np.cos(ell * th) if parity == "cos" else np.sin(ell * th)
    return GridField(grid, (rad * ang).ravel())


def mode_superposition(grid: Grid, k: float, coeffs) -> GridField:
    """Linear combination of modes about the domain centre; ``coeffs``
    iterates (ell, parity, c)."""
    total = np.zeros(grid.n_nodes)
    for ell, parity, c in coeffs:
        total += c * mode_field(grid, ell, k, parity).values
    return GridField(grid, total)


def random_mode_superposition(grid: Grid, k: float, ell_max: int,
                              rng: np.random.Generator) -> GridField:
    """Modes of order 0 .. ell_max about the domain centre, cos and sin,
    with standard normal coefficients."""
    coeffs = []
    for ell in range(ell_max + 1):
        coeffs.append((ell, "cos", rng.standard_normal()))
        if ell > 0:
            coeffs.append((ell, "sin", rng.standard_normal()))
    return mode_superposition(grid, k, coeffs)
