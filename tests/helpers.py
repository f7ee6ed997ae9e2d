"""Cached builders shared across test modules (grids and factorizations are
expensive; acceptance and unit tests reuse the same objects)."""

from functools import lru_cache

import numpy as np

from helmlab.assembly import assemble
from helmlab.geometry import (DomainSpec, annulus_mask, ball_mask, boundary_chart,
                              build_grid)
from helmlab.profiles import make_medium
from helmlab.runge import MaskSolutionBasis, build_forward_map, svd
from helmlab.spectral import compute_sigma


@lru_cache(maxsize=None)
def disk_grid(h: float):
    return build_grid(DomainSpec.disk(1.0), h)


@lru_cache(maxsize=None)
def disk_setup(k: float, h: float = None):
    """(grid, medium, op, chart) for the unit disk at frequency k."""
    if h is None:
        h = min(2 * np.pi / (10.0 * k) * 0.9, 0.05)
    grid = disk_grid(h)
    medium = make_medium(grid)
    op = assemble(grid, medium, k)
    chart = boundary_chart(grid)
    return grid, medium, op, chart


@lru_cache(maxsize=None)
def disk_pair_svd(k: float, h: float = None, inner: float = 0.5):
    """Forward map and singular system for the nested disk pair."""
    grid, medium, op, chart = disk_setup(k, h)
    omega1 = ball_mask(grid, (0, 0), inner)
    fmap = build_forward_map(op, omega1, chart)
    return fmap, svd(fmap)


@lru_cache(maxsize=None)
def disk_arc_map(k: float, h: float = None, inner: float = 0.5):
    """Forward map of the nested disk pair with gamma the arc
    0 < theta < 3 pi / 2; not invariant under rotation, so it is solved by
    SuperLU."""
    grid, _, op, _ = disk_setup(k, h)
    chart = boundary_chart(grid, {"angles": [(0.0, 1.5 * np.pi)]})
    return build_forward_map(op, ball_mask(grid, (0, 0), inner), chart)


@lru_cache(maxsize=None)
def convex_map(k: float = 4.0, h: float = 0.1):
    """Forward map of the convex scenario: annulus 0.5 < |x| < 2 with the
    radially monotone q = 1 + r^2/4, data on the outer circle and the
    region 0.5 < |x| < 1."""
    grid = build_grid(DomainSpec.annulus(0.5, 2.0), h)
    medium = make_medium(grid, q_spec={"profile": "radial_quadratic",
                                       "amplitude": 0.25},
                         kappa=2.02, monotone=True)
    op = assemble(grid, medium, k)
    return build_forward_map(op, annulus_mask(grid, 0.5, 1.0),
                             boundary_chart(grid))


@lru_cache(maxsize=None)
def disk_spectrum(h: float = 0.03, count: int = 40):
    grid = disk_grid(h)
    medium = make_medium(grid)
    return grid, medium, compute_sigma(grid, medium, count)


@lru_cache(maxsize=None)
def annulus_setup(h: float):
    """Unit-gap annulus with the radially monotone profile q = 1 + r^2/4."""
    grid = build_grid(DomainSpec.annulus(1.0, 2.0), h)
    medium = make_medium(grid, q_spec={"profile": "radial_quadratic",
                                       "amplitude": 0.25},
                         kappa=2.02, monotone=True)
    return grid, medium


@lru_cache(maxsize=None)
def cube_setup(n: int = 16, k: float = 1.0):
    grid = build_grid(DomainSpec.box((0, 0, 0), (1, 1, 1),
                                     gamma={"face": "z-"}), 1.0 / n)
    medium = make_medium(grid, q_spec={"profile": "constant", "value": 1.0},
                         kappa=1.01)
    op = assemble(grid, medium, k)
    chart = boundary_chart(grid)
    return grid, medium, op, chart


def fit_line(x, y):
    coef = np.polyfit(x, y, 1)
    pred = np.polyval(coef, x)
    ss_res = float(np.sum((np.asarray(y) - pred) ** 2))
    ss_tot = float(np.sum((np.asarray(y) - np.mean(y)) ** 2))
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
    return coef[0], coef[1], r2
