"""Discrete identities on small random domains with random sub-boundaries.

Each draw builds a disk, annulus, rectangle or masked union of under 2,000
nodes with a random gamma descriptor (angle intervals on circles, edge
subsets on rectangles, the whole boundary on unions), a random medium and
frequency, and checks that the assembled operator is exactly symmetric and
that the Riesz map reproduces the dual norm.  Forward maps from gamma to a
region at least four layers inside disks, annuli and rectangles check the
adjoint identity (A g, u)_w = <g, A* u> and the cost identity
cost^2 = sum beta_j^2 / mu_j.  On rectangles, boxes and masked unions with
random spacings, the masked gradient of a quadratic is exact on every run of
three or more region nodes.
"""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from helmlab.assembly import assemble
from helmlab.fields import (BoundaryFunctional, GridField, functional_norm,
                            masked_gradient, riesz_map)
from helmlab.geometry import (DomainSpec, annulus_mask, ball_mask,
                              boundary_chart, build_grid)
from helmlab.profiles import make_medium
from helmlab.runge import (adjoint_apply, adjoint_apply_matrix,
                           build_forward_map, runge_approximate, svd,
                           trace_inner)

from helpers import pairing

_EIGHTH = 1 / 8
# an L and a T, each bar 8 layers thick at h = 1/8
_UNIONS = ((((0, 0), (2, 1)), ((0, 1), (1, 2))),
           (((0, 0), (3, 1)), ((1, 1), (2, 2))))
_EDGES = ("bottom", "right", "top", "left")

# angle intervals (start, length) long enough to hold a node at h <= 0.2
_ANGLES = st.one_of(st.just("full"), st.builds(
    lambda iv: {"angles": [(a, a + w) for a, w in iv]},
    st.lists(st.tuples(st.floats(0.0, 6.28), st.floats(0.5, 3.0)),
             min_size=1, max_size=2)))

# disks <= 1,320 nodes, annuli <= 1,391, rectangles <= 625, unions <= 400
_DOMAINS = {
    "disk": st.builds(lambda r, h, g: (DomainSpec("disk", radius=r, gamma=g),
                                       min(h, r / 4)),
                      st.floats(0.8, 1.4), st.floats(0.1, 0.2), _ANGLES),
    "annulus": st.builds(lambda r0, w, h, g: (
        DomainSpec("annulus", r_inner=r0, r_outer=r0 + w, gamma=g), h),
        st.floats(0.1, 0.5), st.floats(1.0, 1.2), st.floats(0.1, 0.125),
        _ANGLES),
    "rectangle": st.builds(lambda nx, ny, g: (DomainSpec("rectangle",
        corners=((0, 0), (nx * _EIGHTH, ny * _EIGHTH)), gamma=g), _EIGHTH),
        st.integers(8, 24), st.integers(8, 24),
        st.one_of(st.just("full"), st.builds(
            lambda e: {"edges": e},
            st.lists(st.sampled_from(_EDGES), min_size=1, max_size=4,
                     unique=True)))),
    "masked_union": st.builds(
        lambda rects: (DomainSpec("masked_union", rectangles=rects), _EIGHTH),
        st.sampled_from(_UNIONS)),
}


@pytest.mark.parametrize("kind", sorted(_DOMAINS))
@given(data=st.data(), amplitude=st.floats(0.0, 0.25),
       v=st.floats(-2.0, 2.0), k_frac=st.floats(0.0, 1.0),
       seed=st.integers(0, 2 ** 32 - 1))
def test_symmetric_operator_and_riesz_identity(kind, data, amplitude, v,
                                               k_frac, seed):
    spec, h = data.draw(_DOMAINS[kind])
    g = build_grid(spec, h)
    assert g.n_nodes < 2000
    med = make_medium(g, q_spec={"profile": "radial_quadratic",
                                 "amplitude": amplitude},
                      v_spec={"profile": "constant", "value": v})
    # any frequency the wavelength rule admits on this grid
    k_max = 2 * np.pi / (10 * g.max_spacing() * np.sqrt(med.kappa))
    assert k_max > 1
    L = assemble(med, 1 + k_frac * (k_max - 1) * (1 - 1e-9)).L
    assert (L != L.T).nnz == 0

    chart = boundary_chart(g)
    rng = np.random.default_rng(seed)
    ell = BoundaryFunctional(chart, rng.standard_normal(chart.n))
    for gamma in (None, chart.gamma_mask):
        pair = pairing(ell, riesz_map(ell, gamma))
        assert abs(pair - functional_norm(ell, gamma) ** 2) <= 1e-10 * pair


# disks <= 1,552 nodes, annuli <= 1,785, rectangles <= 1,089; the region is
# a centred ball (an inner annulus on annuli) 4.5 layers inside the chart
_MAP_DOMAINS = {
    "disk": st.builds(lambda r, f, g: (DomainSpec("disk", radius=r, gamma=g),
                                       f * r),
                      st.floats(0.8, 1.4), st.floats(0.065, 0.1), _ANGLES),
    "annulus": st.builds(lambda r0, w, h, g: (
        DomainSpec("annulus", r_inner=r0, r_outer=r0 + w, gamma=g), h),
        st.floats(0.1, 0.5), st.floats(1.0, 1.2), st.floats(0.09, 0.12),
        _ANGLES),
    "rectangle": st.builds(lambda nx, ny, g: (DomainSpec("rectangle",
        corners=((0, 0), (nx / 16, ny / 16)), gamma=g), 1 / 16),
        st.integers(16, 32), st.integers(16, 32),
        st.one_of(st.just("full"), st.builds(
            lambda e: {"edges": e},
            st.lists(st.sampled_from(_EDGES), min_size=1, max_size=4,
                     unique=True)))),
}


def _draw_map(kind, data, amplitude, k_frac):
    """Forward map of a drawn domain at a frequency the wavelength rule
    admits."""
    spec, h = data.draw(_MAP_DOMAINS[kind])
    g = build_grid(spec, h)
    assert g.n_nodes < 2000
    gap = 4.5 * g.max_spacing()
    if kind == "annulus":
        region = annulus_mask(g, spec.r_inner, spec.r_outer - gap)
    elif kind == "disk":
        region = ball_mask(g, spec.center, spec.radius - gap)
    else:
        lo, hi = np.asarray(spec.corners, float)
        region = ball_mask(g, (lo + hi) / 2, np.min(hi - lo) / 2 - gap)
    med = make_medium(g, q_spec={"profile": "radial_quadratic",
                                 "amplitude": amplitude})
    k_max = 2 * np.pi / (10 * g.max_spacing() * np.sqrt(med.kappa))
    op = assemble(med, 1 + k_frac * (k_max - 1) * (1 - 1e-9))
    return build_forward_map(op, region)


@pytest.mark.parametrize("kind", sorted(_MAP_DOMAINS))
@given(data=st.data(), amplitude=st.floats(0.0, 0.25),
       k_frac=st.floats(0.0, 1.0), seed=st.integers(0, 2 ** 32 - 1))
def test_adjoint_identity(kind, data, amplitude, k_frac, seed):
    fmap = _draw_map(kind, data, amplitude, k_frac)
    rng = np.random.default_rng(seed)
    gv = rng.standard_normal(fmap.gamma_ids.size)
    uv = rng.standard_normal(fmap.omega1_ids.size)
    star = adjoint_apply(fmap, uv)
    lhs = float((fmap.A @ gv) @ (fmap.wx * uv))
    rhs = trace_inner(fmap, fmap.trace_from_gamma(gv), star)
    assert abs(lhs - rhs) <= 1e-8 * max(abs(lhs), abs(rhs))
    # the PDE route agrees with the Gram-weighted transpose of A
    pos = fmap.gamma_positions()
    oracle = adjoint_apply_matrix(fmap, uv).values[pos]
    assert np.max(np.abs(star.values[pos] - oracle)) <= \
        1e-8 * np.max(np.abs(oracle))


@pytest.mark.parametrize("kind", sorted(_MAP_DOMAINS))
@given(data=st.data(), amplitude=st.floats(0.0, 0.25),
       k_frac=st.floats(0.0, 1.0), seed=st.integers(0, 2 ** 32 - 1),
       keep=st.floats(0.0, 0.5))
def test_cost_identity_at_a_forced_alpha(kind, data, amplitude, k_frac, seed,
                                         keep):
    fmap = _draw_map(kind, data, amplitude, k_frac)
    system = svd(fmap)
    sv = system.singular_values
    n = 1 + int(keep * (sv.size - 1))
    # v in the span of the region's modes; a budget halfway between the
    # tail errors of n - 1 and n retained modes retains exactly n
    values = np.zeros(fmap.op.grid.n_nodes)
    values[fmap.omega1_ids] = system.psi @ np.random.default_rng(
        seed).standard_normal(sv.size)
    beta = system.psi.T @ (fmap.wx * values[fmap.omega1_ids])
    tails = np.append(np.sqrt(np.cumsum((beta ** 2)[::-1])[::-1]), 0.0)
    v = GridField(fmap.op.grid, values)
    ap = runge_approximate(system, v, (tails[n - 1] + tails[n]) / 2, 1.0)
    assert ap.n_retained == n and ap.alpha == sv[n - 1]
    kept = slice(0, ap.n_retained)
    cost_sq = float(np.sum(ap.beta[kept] ** 2 / system.mu[kept]))
    # the boundary trace norm of g_alpha, taken from its nodal values
    norm_sq = trace_inner(fmap, ap.g_alpha, ap.g_alpha)
    assert abs(ap.cost ** 2 - cost_sq) <= 1e-8 * cost_sq
    assert abs(norm_sq - cost_sq) <= 1e-8 * cost_sq


# rectangles and boxes with random corners and a spacing per axis, masked
# unions (the L and the T) scaled, shifted and at a spacing 1/8 to 1/16 of
# their bar; boxes <= 24^3 nodes
_CARTESIAN = {
    "rectangle": st.builds(
        lambda lo, ext, f: (DomainSpec("rectangle",
                                       corners=(lo, np.add(lo, ext))),
                            min(ext) / f),
        st.tuples(st.floats(-1, 1), st.floats(-1, 1)),
        st.tuples(st.floats(0.5, 1.5), st.floats(0.5, 1.5)),
        st.floats(8, 20)),
    "box": st.builds(
        lambda lo, ext, f: (DomainSpec("box", corners=(lo, np.add(lo, ext))),
                            min(ext) / f),
        st.tuples(*[st.floats(-1, 1)] * 3),
        st.tuples(*[st.floats(0.5, 1.0)] * 3), st.floats(8, 11.5)),
    "masked_union": st.builds(
        lambda rects, o, s, n: (DomainSpec("masked_union", rectangles=[
            (np.add(o, np.multiply(s, a)), np.add(o, np.multiply(s, b)))
            for a, b in rects]), s / n),
        st.sampled_from(_UNIONS), st.tuples(st.floats(-1, 1), st.floats(-1, 1)),
        st.floats(0.5, 1.0), st.integers(8, 16)),
}


def _run_lengths(mask: np.ndarray, axis: int) -> np.ndarray:
    """Length of the run of True along ``axis`` through each site (0 off
    the mask), one lattice line at a time."""
    m = np.moveaxis(mask, axis, -1)
    out = np.zeros(m.shape, dtype=int)
    for line in np.ndindex(m.shape[:-1]):
        start = 0
        for i, on in enumerate(list(m[line]) + [False]):
            if not on:
                out[line][start:i] = i - start
                start = i + 1
    return np.moveaxis(out, -1, axis)


@pytest.mark.parametrize("kind", sorted(_CARTESIAN))
@given(data=st.data(), density=st.floats(0.3, 1.0),
       seed=st.integers(0, 2 ** 32 - 1))
def test_masked_gradient_exact_on_quadratics(kind, data, density, seed):
    spec, h = data.draw(_CARTESIAN[kind])
    g = build_grid(spec, h)
    rng = np.random.default_rng(seed)
    b = rng.standard_normal(g.dim)
    A = rng.standard_normal((g.dim, g.dim))
    A = A + A.T
    x = g.nodes
    p = rng.standard_normal() + x @ b + np.einsum("ni,ij,nj->n", x, A, x)
    want = b + 2.0 * x @ A                       # column d is dp/dx_d
    region = rng.random(g.n_nodes) < density
    ok = g.lattice_id >= 0
    on = np.zeros(g.lattice_shape, dtype=bool)
    on[ok] = region[g.lattice_id[ok]]
    got = masked_gradient(g, p, region)
    scale = np.max(np.abs(want[region]))
    for d in range(g.dim):
        runs = np.zeros(g.n_nodes, dtype=int)
        runs[g.lattice_id[ok]] = _run_lengths(on, d)[ok]
        check = region & (runs >= 3)
        assert np.max(np.abs(got[d][check] - want[check, d]),
                      initial=0.0) <= 1e-12 * scale
