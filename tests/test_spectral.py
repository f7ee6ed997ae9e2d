import mpmath as mp
import numpy as np
import pytest
import scipy.linalg as la
import scipy.sparse.linalg as spla
from hypothesis import given, strategies as st

from helmlab.assembly import ring_coefficients
from helmlab.errors import AssumptionIViolated, SpectrumTooShort
from helmlab.fields import GridField
from helmlab.assembly import Medium
from helmlab.geometry import DomainSpec, build_grid
from helmlab.profiles import bump_profile, make_medium
from helmlab import spectral
from helmlab.spectral import (check_admissibility, compute_sigma,
                              find_admissible_k, weyl_exponent)

from helpers import cube_setup, disk_spectrum


def test_rectangle_eigenvalues_with_multiplicity():
    g = build_grid(DomainSpec("rectangle", corners=((0, 0), (np.pi, np.pi))),
                   np.pi / 40)
    rep = compute_sigma(make_medium(g), 8)
    expected = [2, 5, 5, 8, 10, 10, 13, 13]
    assert np.allclose(rep.eigenvalues, expected, atol=0.08)
    assert rep.residuals.max() < 1e-8


def test_disk_ground_state_and_refinement():
    j01_sq = float(mp.besseljzero(0, 1)) ** 2
    errs = []
    for h in (0.06, 0.03):
        g = build_grid(DomainSpec("disk", radius=1.0), h)
        rep = compute_sigma(make_medium(g), 4)
        errs.append(abs(rep.eigenvalues[0] - j01_sq))
    assert errs[1] < errs[0]
    assert errs[1] < 0.01


def test_constant_potential_shifts_exactly():
    g = build_grid(DomainSpec("disk", radius=1.0), 0.05)
    base = compute_sigma(make_medium(g), 6)
    shifted = compute_sigma(
        make_medium(g, v_spec={"profile": "constant", "value": -2.5}), 6)
    assert np.allclose(shifted.eigenvalues, base.eigenvalues + 2.5, atol=1e-8)


def test_weyl_counting_growth():
    _, _, rep = disk_spectrum()
    assert 0.8 <= weyl_exponent(rep) <= 1.2


def test_admissibility_records():
    _, _, rep = disk_spectrum()
    lam1 = rep.eigenvalues[0]
    exact = check_admissibility(np.sqrt(lam1), rep)
    assert not exact["admissible"] and exact["dist"] < 1e-12
    mid = check_admissibility(np.sqrt(0.5 * (rep.eigenvalues[0]
                                             + rep.eigenvalues[1])), rep)
    assert mid["admissible"]


def test_admissible_fraction_of_sweep():
    grid = build_grid(DomainSpec("disk", radius=1.0), 0.02)
    med = make_medium(grid)
    rep = compute_sigma(med, 110)
    assert rep.eigenvalues[-1] > 2 * 20.0 ** 2 * 0.5  # reaches past 400
    ks = np.arange(1.0, 20.0 + 1e-9, 0.25)
    ok = 0
    for k in ks:
        try:
            if check_admissibility(float(k), rep)["admissible"]:
                ok += 1
        except SpectrumTooShort:
            pass
    assert ok / ks.size >= 0.9


def test_find_admissible_k():
    _, _, rep = disk_spectrum()
    lam = rep.eigenvalues
    # between resonances: the gap midpoint is returned
    kt = np.sqrt(0.6 * lam[0] + 0.4 * lam[1])
    k = find_admissible_k(rep, kt)
    assert abs(k ** 2 - 0.5 * (lam[0] + lam[1])) < 1e-9
    # on a resonance: shifted to an admissible value with a better margin
    k_res = np.sqrt(lam[2])
    k2 = find_admissible_k(rep, k_res)
    rec = check_admissibility(k2, rep)
    assert rec["admissible"]
    assert rec["dist"] >= check_admissibility(k_res, rep)["dist"]


def test_spectrum_window_guard():
    g = build_grid(DomainSpec("disk", radius=1.0), 0.04)
    med = make_medium(g)
    rep = compute_sigma(med, 10, shifts=(150.0,))
    with pytest.raises(SpectrumTooShort):
        check_admissibility(1.5, rep)


def test_assumption_i_guard():
    g = build_grid(DomainSpec("rectangle", corners=((0, 0), (np.pi, np.pi))),
                   np.pi / 24)
    base = compute_sigma(make_medium(g), 2)
    lam1 = base.eigenvalues[0]
    # V tuned to the discrete ground state makes -Delta - V singular
    med = Medium(q=GridField(g, np.ones(g.n_nodes)),
                 V=GridField(g, np.full(g.n_nodes, lam1)), kappa=1.5)
    with pytest.raises(AssumptionIViolated):
        compute_sigma(med, 2)


def test_pencil_orthogonality():
    g = build_grid(DomainSpec("disk", radius=1.0), 0.05)
    med = make_medium(g, q_spec={"profile": "radial_quadratic",
                                 "amplitude": 0.3}, kappa=1.5)
    rep = compute_sigma(med, 8)
    assert rep.residuals.max() < 1e-8
    assert np.all(np.diff(rep.eigenvalues) > -1e-10)


# ---------------------------------------------------------------------------
# Per-angular-mode spectrum on polar grids
# ---------------------------------------------------------------------------

_QUAD = {"profile": "radial_quadratic", "amplitude": 0.25}


def _assert_windows_complete(rep, A, M, rtol=1e-9):
    """Every eigenvalue of the dense pencil inside a coverage window is
    reported, with its multiplicity."""
    dense = la.eigh(A.toarray(), M.toarray(), eigvals_only=True)
    for lo, hi in rep.coverage:
        tol = rtol * max(abs(lo), abs(hi), 1.0)
        for v in dense[(dense >= lo - tol) & (dense <= hi + tol)]:
            want = int(np.sum(np.abs(dense - v) <= tol))
            got = int(np.sum(np.abs(rep.eigenvalues - v) <= tol))
            assert got >= want, (f"{want} copies of {v} in [{lo}, {hi}], "
                                 f"{got} reported")


def _assert_matches_general(rep, A, M, count, shifts, rtol=1e-10):
    """Each eigenvalue of the shift-invert path has its own per-mode match;
    per-mode extras are further copies at a window edge."""
    lam, _, _ = spectral._shift_invert(A, M, spectral._check_invertible(A),
                                       min(count, A.shape[0] - 2), shifts)
    free = list(rep.eigenvalues)
    for v in lam:
        j = int(np.argmin(np.abs(np.array(free) - v)))
        assert abs(free[j] - v) <= rtol * max(abs(v), 1.0)
        free.pop(j)
    edges = [e for w in rep.coverage for e in w]
    for v in free:
        assert min(abs(v - e) for e in edges) <= rtol * max(abs(v), 1.0)


def test_window_edge_keeps_every_copy():
    g = build_grid(DomainSpec("annulus", r_inner=1.0, r_outer=2.0), 0.08)
    med = make_medium(g, q_spec=_QUAD, kappa=2.02)
    rep = compute_sigma(med, 10, shifts=(50.0,))
    _assert_windows_complete(rep, *spectral._pencil(med))


@pytest.mark.parametrize("count", [2, 5, 7])
def test_shift_invert_window_counts_every_copy(count):
    # on the square (0, pi)^2 the count-th nearest eigenvalue to 0 is one
    # copy of a double (5, 10, 13); its other copy is not returned, so the
    # window must stop short of the pair
    g = build_grid(DomainSpec("rectangle", corners=((0, 0), (np.pi, np.pi))),
                   np.pi / 30)
    med = make_medium(g)
    rep = compute_sigma(med, count)
    A, M = spectral._pencil(med)
    dense = la.eigh(A.toarray(), M.toarray(), eigvals_only=True)
    assert len(rep.coverage) == 1
    lo, hi = rep.coverage[0]
    tol = 1e-9 * max(abs(lo), abs(hi), 1.0)

    def inside(lam):
        return int(np.sum((lam >= lo - tol) & (lam <= hi + tol)))

    assert inside(rep.eigenvalues) == inside(dense)
    assert rep.eigenvalues.size == count


_POLAR_FIXTURES = [
    (DomainSpec("disk", radius=1.0), 0.05, None, 8, (0.0,)),
    (DomainSpec("disk", radius=1.0), 0.05, _QUAD, 8, (0.0,)),
    (DomainSpec("annulus", r_inner=1.0, r_outer=2.0), 0.08, _QUAD, 10,
     (50.0,)),
    (DomainSpec("annulus", r_inner=0.5, r_outer=2.0), 0.08, _QUAD, 30,
     (4.0, 16.0, 64.0)),
    (DomainSpec("disk", radius=1.0), 0.06, None, 10, (150.0,)),
]


@pytest.mark.parametrize("spec,h,q_spec,count,shifts", _POLAR_FIXTURES)
def test_polar_modes_skip_lanczos_and_match_it(monkeypatch, spec, h, q_spec,
                                               count, shifts):
    g = build_grid(spec, h)
    med = make_medium(g, q_spec=q_spec, kappa=2.02 if q_spec else None)

    def refuse(*args, **kwargs):
        raise AssertionError("general spectrum path reached")

    with monkeypatch.context() as mp:
        for owner, name in ((spla, "eigsh"), (spectral, "_dense_fallback"),
                            (spectral, "_dedupe_clusters")):
            mp.setattr(owner, name, refuse)
        rep = compute_sigma(med, count, shifts=shifts)
    A, M = spectral._pencil(med)
    assert rep.residuals.max() <= 1e-10
    _assert_matches_general(rep, A, M, count, shifts)
    _assert_windows_complete(rep, A, M)


def _off_centre_bump_q(g):
    """Medium with q = 1 + bump centred off the disk centre."""
    bump = bump_profile(0.5, (0.3, 0.1), 0.4)(g.nodes)
    return Medium(q=GridField(g, 1.0 + bump), V=GridField(g, np.zeros(g.n_nodes)),
                  kappa=2.0)


@pytest.mark.parametrize("medium", [
    _off_centre_bump_q,
    lambda g: make_medium(g, q_spec={"profile": "radial_quadratic",
                                     "amplitude": 0.25, "center": [0.3, 0.1]}),
    lambda g: make_medium(g, v_spec={"profile": "bump", "amplitude": 2.0,
                                     "center": [0.3, 0.1], "radius": 0.4}),
])
def test_off_centre_medium_keeps_lanczos(monkeypatch, medium):
    g = build_grid(DomainSpec("disk", radius=1.0), 0.08)
    med = medium(g)
    calls = []
    eigsh = spla.eigsh

    def spy(*args, **kwargs):
        calls.append(kwargs["sigma"])
        return eigsh(*args, **kwargs)

    monkeypatch.setattr(spla, "eigsh", spy)
    rep = compute_sigma(med, 8, shifts=(20.0,))
    assert calls == [20.0]
    A, M = spectral._pencil(med)
    assert ring_coefficients(g, g.interior_index, A, M) is None
    dense = la.eigh(A.toarray(), M.toarray(), eigvals_only=True)
    near = np.sort(dense[np.argsort(np.abs(dense - 20.0))[:8]])
    assert np.allclose(rep.eigenvalues, near, rtol=1e-10, atol=0)


# h >= 0.1 and r_outer <= 1.7 keep the dense pencil under ~1,500 nodes; an
# annulus is at least 1.0 wide, so 8 layers span it at h <= 0.125
@given(annulus=st.booleans(), h=st.floats(0.1, 0.125),
       radius=st.floats(0.5, 1.4), r_inner=st.floats(0.1, 0.5),
       width=st.floats(1.0, 1.2), amplitude=st.floats(0.0, 0.5),
       v=st.floats(-2.0, 2.0), count=st.integers(4, 16),
       shift=st.floats(0.0, 80.0))
def test_per_mode_spectrum_properties(annulus, h, radius, r_inner, width,
                                      amplitude, v, count, shift):
    spec = (DomainSpec("annulus", r_inner=r_inner, r_outer=r_inner + width)
            if annulus
            else DomainSpec("disk", radius=radius))
    g = build_grid(spec, h)
    med = make_medium(g, q_spec={"profile": "radial_quadratic",
                                 "amplitude": amplitude},
                      v_spec={"profile": "constant", "value": v})
    A, M = spectral._pencil(med)
    assert ring_coefficients(g, g.interior_index, A, M) is not None
    rep = compute_sigma(med, count, shifts=(shift,))
    assert rep.residuals.max() <= 1e-10
    _assert_matches_general(rep, A, M, count, (shift,))
    _assert_windows_complete(rep, A, M)


def test_small_pencil_takes_one_dense_eigensolve(monkeypatch):
    # below 200 unknowns the dense generalized eigh of the whole pencil does
    # not depend on the shift, so one solve serves every shift
    g = build_grid(DomainSpec("rectangle", corners=((0, 0), (1, 1))), 1 / 11)
    med = make_medium(g)
    calls = []
    real = spectral._dense_fallback
    monkeypatch.setattr(spectral, "_dense_fallback",
                        lambda A, M: calls.append(A.shape) or real(A, M))
    rep = compute_sigma(med, 6, shifts=(20.0, 100.0, 200.0))
    assert calls == [(100, 100)]
    A, M = spectral._pencil(med)
    dense = la.eigh(A.toarray(), M.toarray(), eigvals_only=True)
    assert all(np.min(np.abs(dense - lam)) <= 1e-9 * lam
               for lam in rep.eigenvalues)


def test_shift_zero_reuses_the_invertibility_factor(monkeypatch):
    # A - 0 M is A: the factor of the invertibility check serves ARPACK
    grid, medium, _, _ = cube_setup(8)
    calls = []
    real = spectral.sparse_lu
    monkeypatch.setattr(spectral, "sparse_lu",
                        lambda A: calls.append(A.shape) or real(A))
    rep = compute_sigma(medium, 10, shifts=(0.0,))
    assert len(calls) == 1
    assert rep.eigenvalues.size == 10
