"""Discrete identities on small random domains with random sub-boundaries.

Each draw builds a disk, annulus, rectangle or masked union of under 2,000
nodes with a random gamma descriptor (angle intervals on circles, edge
subsets on rectangles, the whole boundary on unions), a random medium and
frequency, and checks that the assembled operator is exactly symmetric and
that the Riesz map reproduces the dual norm.
"""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from helmlab.assembly import assemble
from helmlab.fields import BoundaryFunctional, functional_norm, riesz_map
from helmlab.geometry import DomainSpec, boundary_chart, build_grid
from helmlab.profiles import make_medium

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
    "disk": st.builds(lambda r, h, g: (DomainSpec.disk(r, gamma=g),
                                       min(h, r / 4)),
                      st.floats(0.8, 1.4), st.floats(0.1, 0.2), _ANGLES),
    "annulus": st.builds(lambda r0, w, h, g: (
        DomainSpec.annulus(r0, r0 + w, gamma=g), h),
        st.floats(0.1, 0.5), st.floats(1.0, 1.2), st.floats(0.1, 0.125),
        _ANGLES),
    "rectangle": st.builds(lambda nx, ny, g: (DomainSpec.rectangle(
        (0, 0), (nx * _EIGHTH, ny * _EIGHTH), gamma=g), _EIGHTH),
        st.integers(8, 24), st.integers(8, 24),
        st.one_of(st.just("full"), st.builds(
            lambda e: {"edges": e},
            st.lists(st.sampled_from(_EDGES), min_size=1, max_size=4,
                     unique=True)))),
    "masked_union": st.builds(
        lambda rects: (DomainSpec.masked_union(rects), _EIGHTH),
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
    L = assemble(g, med, 1 + k_frac * (k_max - 1) * (1 - 1e-9)).L
    assert (L != L.T).nnz == 0

    chart = boundary_chart(g)
    rng = np.random.default_rng(seed)
    ell = BoundaryFunctional(chart, rng.standard_normal(chart.n))
    for gamma in (None, chart.gamma_mask):
        pair = ell.pair(riesz_map(ell, gamma))
        assert abs(pair - functional_norm(ell, gamma) ** 2) <= 1e-10 * pair
