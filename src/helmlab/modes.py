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


def mode_field(grid: Grid, ell: int, k: float,
               parity: str = "cos") -> GridField:
    """J_ell(k r) {cos, sin}(ell theta) about the domain centre
    ``grid.spec.center``, the one centre of every mode: the centre of a disk
    or an annulus, and the origin (0, 0) on a rectangle, a box or a masked
    union, where it may lie outside the domain.  On a polar grid the Bessel
    profile is evaluated once per ring, at ``grid.radii``; on a Cartesian
    grid at every node."""
    if grid.topology == "polar":
        rad = radial_profile(ell, k, 2, grid.radii)[:, None]
        th = grid.thetas
    else:
        c = grid.spec.center
        dx = grid.nodes[:, 0] - c[0]
        dy = grid.nodes[:, 1] - c[1]
        rad = radial_profile(ell, k, 2, np.hypot(dx, dy))
        th = np.arctan2(dy, dx)
    ang = np.cos(ell * th) if parity == "cos" else np.sin(ell * th)
    return GridField(grid, (rad * ang).ravel())


def random_mode_superposition(grid: Grid, k: float, ell_max: int,
                              rng: np.random.Generator) -> GridField:
    """Modes of order 0 .. ell_max about the domain centre, cos and sin,
    with standard normal coefficients drawn and summed in that order."""
    total = np.zeros(grid.n_nodes)
    for ell in range(ell_max + 1):
        for parity in ("cos", "sin") if ell > 0 else ("cos",):
            c = rng.standard_normal()
            total += c * mode_field(grid, ell, k, parity).values
    return GridField(grid, total)
