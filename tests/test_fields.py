import numpy as np
import pytest
from hypothesis import given, strategies as st

from helmlab.assembly import radial_derivative
from helmlab.bessel import bessel_j, gauss_legendre
from helmlab.errors import SupportTouchesBox
from helmlab.fields import (BoundaryFunctional, BoundaryTrace, GridField,
                            functional_norm,
                            hminus1_norm_fourier, lp_norm, mask_to_gamma,
                            masked_gradient, norm, riesz_map, trace_norm)
from helmlab.geometry import DomainSpec, boundary_chart, build_grid
from helmlab.profiles import bump_profile

from helpers import (disk_grid, modal, modal_functional_norm,
                     modal_riesz_map, modal_trace_norm, pairing)


def test_l2_constant_disk():
    g = disk_grid(0.05)
    f = GridField(g, np.ones(g.n_nodes))
    assert abs(norm(f, "L2") - np.sqrt(np.pi)) < 2e-3


def test_h1_semi_linear_field():
    g = build_grid(DomainSpec("rectangle", corners=((0, 0), (1, 1))), 1 / 32)
    f = GridField(g, g.nodes[:, 0])
    assert abs(norm(f, "H1_semi") - 1.0) < 1e-10
    assert abs(norm(f, "H1") - np.sqrt(1.0 + norm(f, "L2") ** 2)) < 1e-12


def test_radial_bessel_norm_against_quadrature():
    # midpoint quadrature is second order; Richardson across h, h/2 reaches
    # the 1e-6 agreement with the Gauss-Legendre reference
    spec = DomainSpec("annulus", r_inner=0.5, r_outer=2.0)
    vals = []
    for h in (0.02, 0.01):
        g = build_grid(spec, h)
        f = GridField(g, np.repeat(bessel_j(0.0, 5.0 * g.radii),
                                   g.lattice_shape[1]))
        vals.append(norm(f, "L2") ** 2)
    extrapolated = (4 * vals[1] - vals[0]) / 3.0
    r, w = gauss_legendre(400, 0.5, 2.0)
    oracle = 2 * np.pi * np.sum(w * r * np.asarray(bessel_j(0.0, 5.0 * r)) ** 2)
    assert abs(extrapolated - oracle) < 1e-6 * oracle


def test_norm_axioms_random_fields():
    g = disk_grid(0.08)
    rng = np.random.default_rng(0)
    u = GridField(g, rng.standard_normal(g.n_nodes))
    v = GridField(g, rng.standard_normal(g.n_nodes))
    for which in ("L2", "H1"):
        assert abs(norm(GridField(g, u.values * 3.5), which)
                   - 3.5 * norm(u, which)) < 1e-12
        assert norm(GridField(g, u.values + v.values), which) \
            <= norm(u, which) + norm(v, which) + 1e-12


def test_trace_norm_constant_and_mode():
    g = disk_grid(0.05)
    chart = boundary_chart(g)
    t = BoundaryTrace(chart, np.ones(chart.n))
    assert abs(trace_norm(t) - np.sqrt(2 * np.pi)) < 1e-12
    errs = []
    for h in (0.05, 0.025):
        gg = disk_grid(h)
        ch = boundary_chart(gg)
        tm = BoundaryTrace(ch, np.cos(4 * gg.thetas))
        errs.append(abs(trace_norm(tm) ** 2 - np.pi * np.sqrt(1 + 16)))
    assert errs[1] < errs[0]


def test_riesz_isometry_and_duality():
    g = disk_grid(0.05)
    chart = boundary_chart(g)
    rng = np.random.default_rng(1)
    ell = BoundaryFunctional(chart, rng.standard_normal(chart.n))
    r = riesz_map(ell)
    # <ell, R ell> = ||ell||^2 and the +1/2 trace norm of the image matches
    n2 = functional_norm(ell) ** 2
    assert abs(pairing(ell, r) - n2) < 1e-10 * n2
    assert abs(trace_norm(r) - functional_norm(ell)) < 1e-10

    zero = BoundaryFunctional(chart, np.zeros(chart.n))
    assert np.allclose(riesz_map(zero).values, 0.0)

    # duality bound and sharpness
    for _ in range(5):
        t = BoundaryTrace(chart, rng.standard_normal(chart.n))
        assert abs(pairing(ell, t)) <= functional_norm(ell) * trace_norm(t) * (1 + 1e-12)
    unit = BoundaryTrace(chart, r.values / trace_norm(r))
    assert abs(pairing(ell, unit) - functional_norm(ell)) < 1e-8 * functional_norm(ell)


def test_riesz_gamma_restricted():
    chart = boundary_chart(build_grid(DomainSpec(
        "disk", radius=1.0, gamma={"angles": [(0.0, np.pi)]}), 0.05))
    rng = np.random.default_rng(2)
    ell = BoundaryFunctional(chart, rng.standard_normal(chart.n))
    r = riesz_map(ell, gamma=chart.gamma_mask)
    assert np.all(r.values[~chart.gamma_mask] == 0.0)
    n2 = functional_norm(ell, gamma=chart.gamma_mask) ** 2
    assert abs(pairing(ell, r) - n2) < 1e-9 * max(n2, 1.0)


def test_trace_interlacing():
    g = disk_grid(0.06)
    chart = boundary_chart(g)
    rng = np.random.default_rng(3)
    for _ in range(5):
        t = BoundaryTrace(chart, rng.standard_normal(chart.n))
        l2 = np.sqrt(np.sum(chart.weights * t.values ** 2))
        minus = functional_norm(BoundaryFunctional(chart,
                                                   chart.weights * t.values))
        assert minus <= l2 * (1 + 1e-12)
        assert l2 <= trace_norm(t) * (1 + 1e-12)


@pytest.mark.parametrize("spec, h", [
    (DomainSpec("disk", radius=1.0), 0.05),
    (DomainSpec("annulus", r_inner=0.5, r_outer=2.0), 0.1),
    (DomainSpec("rectangle", corners=((0, 0), (1.3, 0.85))), 0.1),
    (DomainSpec("box", corners=((0, 0, 0), (1, 1, 1))), 1 / 8)],
    ids=["disk", "annulus", "rectangle", "cube"])
def test_trace_norms_match_modal_sums(spec, h):
    """Gram quadratic forms against the modal sums they replace, on charts
    with (disk, annulus) and without (rectangle hx != hy, cube) a symbol."""
    chart = boundary_chart(build_grid(spec, h))
    basis = modal(chart)
    rng = np.random.default_rng(5)
    for _ in range(3):
        t = BoundaryTrace(chart, rng.standard_normal(chart.n))
        # the -1/2 norm is the dual norm of the weighted values
        minus = functional_norm(BoundaryFunctional(chart,
                                                   chart.weights * t.values))
        for order, got in ((0.5, trace_norm(t)), (-0.5, minus)):
            want = modal_trace_norm(t, order, basis)
            assert abs(got - want) <= 1e-12 * want
        ell = BoundaryFunctional(chart, rng.standard_normal(chart.n))
        want = modal_functional_norm(ell, basis)
        assert abs(functional_norm(ell) - want) <= 1e-12 * want
        want = modal_riesz_map(ell, basis)
        got = riesz_map(ell).values
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


def test_whole_boundary_is_the_all_true_gamma():
    chart = boundary_chart(disk_grid(0.05))
    ell = BoundaryFunctional(chart, np.random.default_rng(6)
                             .standard_normal(chart.n))
    full = np.ones(chart.n, dtype=bool)
    assert functional_norm(ell) == functional_norm(ell, full)
    assert np.array_equal(riesz_map(ell).values, riesz_map(ell, full).values)


def test_gamma_masking():
    chart = boundary_chart(build_grid(DomainSpec(
        "disk", radius=1.0, gamma={"angles": [(0.0, 1.0)]}), 0.06))
    t = BoundaryTrace(chart, np.ones(chart.n))
    masked = mask_to_gamma(t)
    assert np.max(np.abs(masked.values[~chart.gamma_mask])) == 0.0


def test_hminus1_fourier():
    g = build_grid(DomainSpec("rectangle", corners=((0, 0), (2, 2))), 1 / 24)
    assert hminus1_norm_fourier(GridField(g, np.zeros(g.n_nodes))) == 0.0

    bump = bump_profile(1.0, (1.0, 1.0), 0.35)
    vals = bump(g.nodes)
    f = GridField(g, vals)
    assert hminus1_norm_fourier(f) <= norm(f, "L2") * (1 + 1e-12)

    # oscillatory bump: weight < 1 strictly
    osc = vals * np.cos(8 * g.nodes[:, 0])
    fo = GridField(g, osc)
    assert hminus1_norm_fourier(fo) < 0.5 * norm(fo, "L2")

    # self-convergence within 2%
    g2 = build_grid(DomainSpec("rectangle", corners=((0, 0), (2, 2))), 1 / 48)
    f2 = GridField(g2, bump(g2.nodes))
    a, b = hminus1_norm_fourier(f), hminus1_norm_fourier(f2)
    assert abs(a - b) / b < 0.02

    touching = GridField(g, np.ones(g.n_nodes))
    with pytest.raises(SupportTouchesBox):
        hminus1_norm_fourier(touching)


def test_lp_norm_matches_l2():
    g = disk_grid(0.08)
    rng = np.random.default_rng(4)
    f = GridField(g, rng.standard_normal(g.n_nodes))
    assert abs(lp_norm(f, 2.0) - norm(f, "L2")) < 1e-12


# ---------------------------------------------------------------------------
# masked_gradient against the per-line loop it replaced
# ---------------------------------------------------------------------------

def _segment_derivative(vals, mask, h, periodic):
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


def _reference_gradient(grid, values, region):
    """One lattice line at a time: rows and columns on polar grids, every
    line along each axis on Cartesian ones."""
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
        flat_v = moved.reshape(shape[axis], -1)
        flat_m = np.moveaxis(mfull, axis, 0).reshape(shape[axis], -1)
        # the reshape of a moved 3D axis is a copy: fill it, then fold back
        dflat = np.zeros_like(flat_v)
        for col in range(flat_v.shape[1]):
            if flat_m[:, col].any():
                dflat[:, col] = _segment_derivative(
                    flat_v[:, col], flat_m[:, col], grid.spacings[axis],
                    periodic=False)
        d = np.moveaxis(dflat.reshape(moved.shape), 0, axis)
        comps.append(d[ok][np.argsort(grid.lattice_id[ok])])
    return comps


_EIGHTH = 1 / 8
# an L and a square frame around a hole, each bar 8 layers thick at h = 1/8
_UNIONS = ((((0, 0), (2, 1)), ((0, 1), (1, 2))),
           (((0, 0), (3, 1)), ((0, 2), (3, 3)), ((0, 1), (1, 2)),
            ((2, 1), (3, 2))))

# every lattice stays under ~2,000 nodes: disks <= 1,320, annuli <= 1,391,
# rectangles <= 625, unions <= 576, boxes <= 1,728
_LATTICES = {
    "disk": st.builds(lambda r, h: (DomainSpec("disk", radius=r),
                                    min(h, r / 4)),
                      st.floats(0.8, 1.4), st.floats(0.1, 0.2)),
    "annulus": st.builds(lambda r0, w, h: (DomainSpec(
        "annulus", r_inner=r0, r_outer=r0 + w), h),
                         st.floats(0.1, 0.5), st.floats(1.0, 1.2),
                         st.floats(0.1, 0.125)),
    "rectangle": st.builds(lambda nx, ny: (DomainSpec("rectangle",
        corners=((0, 0), (nx * _EIGHTH, ny * _EIGHTH))), _EIGHTH),
        st.integers(8, 24), st.integers(8, 24)),
    "masked_union": st.builds(
        lambda rects: (DomainSpec("masked_union", rectangles=rects), _EIGHTH),
        st.sampled_from(_UNIONS)),
    "box": st.builds(lambda nx, ny, nz: (DomainSpec("box", corners=(
        (0, 0, 0), (nx * _EIGHTH, ny * _EIGHTH, nz * _EIGHTH))), _EIGHTH),
        st.integers(8, 11), st.integers(8, 11), st.integers(8, 11)),
}


# density 1 gives full polar rings, which wrap around without an end
@pytest.mark.parametrize("kind", sorted(_LATTICES))
@given(data=st.data(),
       density=st.one_of(st.floats(0.05, 1.0), st.just(1.0)),
       seed=st.integers(0, 2 ** 32 - 1))
def test_masked_gradient_matches_line_loop(kind, data, density, seed):
    lattice = data.draw(_LATTICES[kind])
    g = build_grid(*lattice)
    assert g.n_nodes <= 2000
    rng = np.random.default_rng(seed)
    region = rng.random(g.n_nodes) < density
    # values off the region must never be read
    values = np.where(region, rng.standard_normal(g.n_nodes), np.nan)
    got = masked_gradient(g, values, region)
    want = _reference_gradient(g, values, region)
    assert len(got) == len(want) == g.dim
    for a, b in zip(got, want):
        assert np.array_equal(a, b)


@pytest.mark.parametrize("spec,h", [
    (DomainSpec("annulus", r_inner=0.5, r_outer=1.5), 0.1),
    (DomainSpec("masked_union", rectangles=_UNIONS[1]), _EIGHTH)])
def test_gradient_plan_is_kept_per_region(spec, h):
    # regions A, B, A again, then A changed in place: each call answers for
    # the region it is given, and the grid keeps one read-only plan a region
    g = build_grid(spec, h)
    rng = np.random.default_rng(5)
    values = rng.standard_normal(g.n_nodes)
    a = rng.random(g.n_nodes) < 0.7
    b = rng.random(g.n_nodes) < 0.4

    def plans():
        return [v for key, v in g._held.items() if key[0] == "gradient_plan"]

    for region, n_plans in ((a, 1), (b, 2), (a, 2)):
        got = masked_gradient(g, values, region)
        want = _reference_gradient(g, values, region)
        assert all(np.array_equal(x, y) for x, y in zip(got, want))
        assert len(plans()) == n_plans
    a[: g.n_nodes // 2] = ~a[: g.n_nodes // 2]
    got = masked_gradient(g, values, a)
    want = _reference_gradient(g, values, a)
    assert all(np.array_equal(x, y) for x, y in zip(got, want))
    assert len(plans()) == 3
    for pos, at, axes in plans():
        held = [pos, at]
        for _, _, off, ends in axes:
            held += [off, *(i for e in ends for i in e)]
        assert not any(x.flags.writeable for x in held)


@pytest.mark.parametrize("axis", [0, 1, 2])
def test_box_gradient_of_each_coordinate(axis):
    g = build_grid(DomainSpec("box", corners=((0, 0, 0), (1, 1, 1))), 0.1)
    u = g.nodes[:, axis].copy()
    comps = masked_gradient(g, u, np.ones(g.n_nodes, bool))
    for d, c in enumerate(comps):
        assert np.max(np.abs(c - (d == axis))) < 1e-12
    assert abs(norm(GridField(g, u), "H1_semi") - 1.0) < 1e-12


def test_box_radial_derivative_of_r_squared():
    # the stencils are exact on quadratics, so x . grad |x|^2 / |x| = 2|x|
    g = build_grid(DomainSpec("box", corners=((-1, -1, -1), (1, 1, 1))), 0.25)
    r = np.linalg.norm(g.nodes, axis=1)
    rad = radial_derivative(GridField(g, r ** 2))
    assert np.max(np.abs(rad - 2 * r)) < 1e-12
