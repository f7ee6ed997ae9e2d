import numpy as np
import pytest

from helmlab.assembly import assemble
from helmlab.calderon import (StabilityRecord, alessandrini_gap,
                              dtn_distance, dtn_map, perturbation_record,
                              stability_check, stability_rhs)
from helmlab.errors import AgreementViolation, ContextMismatch
from helmlab.fields import gram_inverse_sqrt, spd_inverse_sqrt
from helmlab.geometry import ball_mask
from helmlab.profiles import make_medium

from helpers import cube_setup, dtn_matrix_reference


def _perturbed(grid, amp, kappa=1.01, center=(0.5, 0.5, 0.5), radius=0.25):
    return make_medium(grid,
                       q_spec={"profile": "constant", "value": 1.0},
                       v_spec={"profile": "bump", "amplitude": amp,
                               "center": list(center), "radius": radius},
                       kappa=kappa)


@pytest.mark.parametrize("n, k", [(16, 1.0), (14, 3.0)])
def test_dtn_map_reads_only_the_gamma_rows(n, k):
    # the residual of the gamma rows alone keeps the bits of the residual of
    # every boundary row taken at gamma afterwards
    grid, med, op, chart = cube_setup(n, k)
    assert np.array_equal(dtn_map(op).matrix,
                          dtn_matrix_reference(op, chart))


def test_dtn_linearity_and_symmetry():
    grid, med, op, chart = cube_setup()
    d = dtn_map(op)
    rng = np.random.default_rng(0)
    g = rng.standard_normal(d.gamma_ids.size)
    assert np.allclose(d.matrix @ (3.0 * g), 3.0 * (d.matrix @ g))
    scale = np.max(np.abs(d.matrix))
    assert np.max(np.abs(d.matrix - d.matrix.T)) <= 1e-8 * scale


def test_dtn_two_resolution_drift():
    # entries of the operator in a fixed smooth supported-trace basis move
    # by < 10% between the 16^3 and 24^3 grids (pointwise kernel values at
    # shared nodes converge too slowly for a cross-grid comparison)
    def basis_matrix(n):
        grid, _, op, chart = cube_setup(n)
        d = dtn_map(op)
        pts = grid.nodes[d.gamma_ids]
        modes = []
        for (mx, my) in ((1, 1), (1, 2), (2, 2)):
            modes.append(np.sin(np.pi * mx * pts[:, 0])
                         * np.sin(np.pi * my * pts[:, 1]))
        B = np.empty((3, 3))
        for a, ga in enumerate(modes):
            for b, gb in enumerate(modes):
                B[a, b] = float(gb @ d.matrix @ ga)
        return B
    b16 = basis_matrix(16)
    b24 = basis_matrix(24)
    drift = np.abs(b16 - b24) / np.max(np.abs(b24))
    assert drift.max() < 0.10


def test_distance_axioms_and_invariance():
    grid, med, op, chart = cube_setup()
    k = 1.0
    d0 = dtn_map(op)
    d0b = dtn_map(assemble(med, k))
    assert dtn_distance(d0, d0b) <= 1e-10

    media = [_perturbed(grid, a) for a in (0.5, 1.0)]
    d1, d2 = (dtn_map(assemble(m, k)) for m in media)
    assert abs(dtn_distance(d1, d2) - dtn_distance(d2, d1)) < 1e-14
    assert dtn_distance(d0, d2) <= dtn_distance(d0, d1) + dtn_distance(d1, d2) + 1e-14

    with pytest.raises(ContextMismatch):
        dtn_distance(d0, dtn_map(assemble(med, 1.5)))


def test_delta_linear_in_amplitude():
    grid, med, op, chart = cube_setup()
    d0 = dtn_map(op)
    deltas = []
    for a in (0.25, 0.5):
        d = dtn_map(assemble(_perturbed(grid, a), 1.0))
        deltas.append(dtn_distance(d0, d))
    ratio = deltas[1] / deltas[0]
    assert abs(ratio - 2.0) <= 0.4


def test_constant_shift_changes_lambda_weakly():
    # adding the same constant to both potentials changes each map but the
    # distance only at first order in the shift (the bilinear identity keeps
    # the difference density fixed while the solutions move by O(c))
    grid, med, op, chart = cube_setup()
    k = 1.0
    base = dtn_distance(dtn_map(op),
                        dtn_map(assemble(_perturbed(grid, 0.5), k)))
    changes = []
    for c in (0.25, 0.5):
        med_c = make_medium(grid, q_spec={"profile": "constant", "value": 1.0},
                            v_spec={"profile": "constant", "value": c},
                            kappa=1.01)
        m1_c = _perturbed(grid, 0.5)
        m1_c.V.values += c
        shifted = dtn_distance(dtn_map(assemble(med_c, k)),
                               dtn_map(assemble(m1_c, k)))
        changes.append(abs(shifted - base) / base)
    assert changes[0] < 0.05
    assert changes[1] < 0.11
    assert 1.5 < changes[1] / changes[0] < 2.5   # linear in the shift


def test_agreement_guard():
    grid, med, op, chart = cube_setup()
    op2 = assemble(_perturbed(grid, 1.0), 1.0)
    inner = ball_mask(grid, (0.5, 0.5, 0.5), 0.3)
    from helmlab.calderon import check_agreement
    check_agreement(op, op2, inner)
    with pytest.raises(AgreementViolation):
        check_agreement(op, op2, ball_mask(grid, (0.5, 0.5, 0.5), 0.1))


def test_alessandrini_identity():
    grid, med, op, chart = cube_setup()
    op2 = assemble(_perturbed(grid, 2.0), 1.0)
    d1 = dtn_map(op)
    d2 = dtn_map(op2)
    rng = np.random.default_rng(3)
    for _ in range(3):
        g1 = rng.standard_normal(d1.gamma_ids.size)
        g2 = rng.standard_normal(d1.gamma_ids.size)
        vol, bnd = alessandrini_gap(d1, d2, g1, g2)
        assert abs(vol - bnd) <= 1e-6 * abs(vol)


def test_stability_slack_grows_as_amplitude_shrinks():
    grid, med, op, chart = cube_setup()
    d0 = dtn_map(op)
    slacks = []
    for a in (1.0, 0.25):
        op2 = assemble(_perturbed(grid, a), 1.0)
        rec = perturbation_record(op, op2, d0, dtn_map(op2))
        slacks.append(stability_rhs(1.0, rec.k, rec.delta, 3) - rec.lhs)
        assert rec.lhs > 0 and rec.delta > 0
    assert slacks[1] > slacks[0]


def test_stability_check_identical_media():
    rec = StabilityRecord(k=1.0, delta=0.0, lhs=0.0)
    out = stability_check([rec])
    assert out["validated"]


def test_gram_inverse_sqrt_cached_per_chart_block():
    grid, med, op, chart = cube_setup()
    d1 = dtn_map(op)
    ids = chart.gamma_positions()
    X = gram_inverse_sqrt(chart, ids)
    ref = spd_inverse_sqrt(chart.h_half_gram(ids))
    assert np.array_equal(X, ref)
    assert gram_inverse_sqrt(chart, ids) is X
    with pytest.raises(ValueError):
        X[0, 0] = 1.0
    # the distance reads the cached block and keeps the bits of a fresh one
    for amp in (0.5, 2.0):
        d2 = dtn_map(assemble(_perturbed(grid, amp), 1.0))
        M = ref @ (d1.matrix - d2.matrix) @ ref
        want = float(np.max(np.abs(np.linalg.eigvalsh(0.5 * (M + M.T)))))
        assert dtn_distance(d1, d2) == want
    assert gram_inverse_sqrt(chart, ids) is X


def test_distance_eigenvalue_modulus_matches_svd_norm(tmp_path, monkeypatch):
    # the symmetric part's largest eigenvalue modulus is its 2-norm: on the
    # maps of a small calderon run it agrees with the SVD norm to rounding
    from helmlab import calderon
    from helmlab.cli import run_experiment
    pairs, distance = [], calderon.dtn_distance

    def recording(a, b):
        pairs.append((a, b))
        return distance(a, b)

    monkeypatch.setattr(calderon, "dtn_distance", recording)
    run_experiment({"experiment": "calderon",
                    "domain": {"kind": "box", "corners": [[0, 0, 0], [1, 1, 1]],
                               "gamma": {"face": "z-"}},
                    "medium": {"q": {"profile": "constant", "value": 1.0},
                               "kappa": 1.01},
                    "h": 1 / 8, "k_list": [1.0, 2.0], "seed": 0,
                    "params": {"amplitudes": [0.5, 2.0]}}, tmp_path)
    assert len(pairs) == 4
    for a, b in pairs:
        X = gram_inverse_sqrt(a.chart, a.chart.gamma_positions())
        M = X @ (a.matrix - b.matrix) @ X
        want = float(np.linalg.norm(0.5 * (M + M.T), 2))
        assert want > 0
        assert abs(distance(a, b) - want) <= 1e-14 * want
