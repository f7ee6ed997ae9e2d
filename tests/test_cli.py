import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg

import helmlab
from helmlab import carleman, cli
from helmlab.assembly import default_spacing
from helmlab.cli import (load_config, main, run_experiment, validate_config)
from helmlab.errors import ConfigInvalid, GeometryViolation
from helmlab.geometry import DomainSpec, boundary_chart, build_grid
from helmlab.runge import SCENARIOS
from helmlab.spectral import compute_sigma

from helpers import modal

PI = float(np.pi)


def _write(tmp_path, name, cfg):
    p = tmp_path / name
    p.write_text(json.dumps(cfg))
    return p


def _spectrum_cfg():
    return {
        "experiment": "spectrum",
        "domain": {"kind": "rectangle", "corners": [[0, 0], [PI, PI]]},
        "medium": {"q": {"profile": "constant", "value": 1.0}},
        "h": PI / 40,
        "seed": 0,
        "params": {"count": 6},
    }


def test_minimal_spectrum_run(tmp_path):
    cfg = _spectrum_cfg()
    paths = run_experiment(cfg, out_dir=tmp_path / "out")
    doc = json.loads((tmp_path / "out" / "spectrum.json").read_text())
    assert abs(doc["eigenvalues"][0] - 2.0) < 0.01
    assert doc["manifest"]["code_version"]
    assert "config_sha256" in doc["manifest"]


def test_unknown_experiment_rejected():
    problems = validate_config({"experiment": "frobnicate"})
    assert problems
    with pytest.raises(ConfigInvalid):
        run_experiment({"experiment": "frobnicate"})


def test_unknown_keys_rejected():
    cfg = _spectrum_cfg()
    cfg["surprise"] = 1
    assert any("unknown config keys" in p for p in validate_config(cfg))
    # a worker count is no config key
    cfg = _spectrum_cfg()
    cfg["workers"] = 4
    assert any("unknown config keys" in p for p in validate_config(cfg))
    # nor is a tolerances block: no runner reads one
    cfg = _spectrum_cfg()
    cfg["tolerances"] = {}
    assert "unknown config keys ['tolerances']" in validate_config(cfg)


def test_unknown_params_key_exits_2(tmp_path, capsys):
    # a misspelt key must not silently run the default (16 samples here)
    cfg = {"experiment": "carleman", "domain": _ANNULUS, "medium": _MONOTONE,
           "h": 0.05, "k_list": [1.0],
           "params": {"tau_list": [10], "samples_per_cel": 2}}
    assert any("unknown params keys ['samples_per_cel']" in p
               for p in validate_config(cfg))
    path = _write(tmp_path, "typo.json", cfg)
    assert main(["run", str(path), "--out", str(tmp_path / "o")]) == 2
    assert "samples_per_cel" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()
    # the admissibility constant is fixed, no longer a config key
    cfg = _spectrum_cfg()
    cfg["admissibility_c"] = 0.02
    assert any("unknown config keys" in p for p in validate_config(cfg))


def test_runge_sweep_accepts_the_sweep_params_keys():
    cfg = {"experiment": "runge_sweep",
           "domain": {"kind": "disk", "radius": 1.0},
           "medium": {"q": {"profile": "constant", "value": 1.0}},
           "params": {"scenario": "interior", "k_list": [3.2],
                      "epsilon_list": [2.0 ** -4, 2.0 ** -5, 2.0 ** -6],
                      "seeds": [0]}}
    assert validate_config(cfg) == []
    cfg["params"]["h"] = 0.05            # a top-level key, not a sweep param
    assert any("unknown params keys ['h']" in p for p in validate_config(cfg))


@pytest.mark.parametrize("key,value", [
    ("decay", 1.5), ("amplitude", "signs"), ("budget", "l2"),
    ("h_cap", 0.05)])
def test_runge_sweep_family_and_budget_are_scenario_constants(
        tmp_path, capsys, key, value):
    # the family, budget and spacing cap are fixed by the scenario record;
    # only the sweep axes are params
    cfg = {"experiment": "runge_sweep", "domain": _DISK,
           "params": {"scenario": "interior", key: value}}
    assert any(f"unknown params keys ['{key}']" in p
               for p in validate_config(cfg))
    path = _write(tmp_path, "knob.json", cfg)
    assert main(["run", str(path), "--out", str(tmp_path / "o")]) == 2
    assert f"unknown params keys ['{key}']" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_sigma_on_a_runge_sweep_config(tmp_path):
    cfg = {"experiment": "runge_sweep",
           "domain": {"kind": "disk", "radius": 1.0},
           "medium": {"q": {"profile": "constant", "value": 1.0}},
           "h": 0.1, "params": {"scenario": "interior"}}
    path = _write(tmp_path, "sweep.json", cfg)
    assert main(["sigma", str(path), "--out", str(tmp_path / "s")]) == 0
    doc = json.loads((tmp_path / "s" / "spectrum.json").read_text())
    assert doc["count"] == 24 and doc["c_admissibility"] == 0.01
    assert doc["manifest"]["admissibility_c"] == 0.01
    assert abs(doc["eigenvalues"][0] - 2.405 ** 2) < 0.1


def test_sigma_on_a_runge_sweep_config_uses_the_scenario_medium(tmp_path):
    # the convex scenario runs on q = 1 + |x|^2 / 4, which a config may omit
    cfg = {"experiment": "runge_sweep",
           "domain": {"kind": "annulus", "r_inner": 0.5, "r_outer": 2.0},
           "medium": {"kappa": 2.02, "monotone": True},
           "params": {"scenario": "convex"}}
    written = dict(cfg, medium={**cfg["medium"], "q": {
        "profile": "radial_quadratic", "amplitude": 0.25}})
    eig = []
    for name, c in (("omitted", cfg), ("written", written)):
        assert validate_config(c) == []
        path = _write(tmp_path, f"{name}.json", c)
        assert main(["sigma", str(path), "--out", str(tmp_path / name)]) == 0
        doc = json.loads((tmp_path / name / "spectrum.json").read_text())
        eig.append(doc["eigenvalues"])
    assert eig[0] == eig[1]
    # the sigma config holds a copy of the scenario's medium, not the record's
    cli._sigma_config(cfg)["medium"]["q"]["amplitude"] = 1.0
    assert SCENARIOS["convex"].medium["q"]["amplitude"] == 0.25


def test_sigma_validates_the_config_of_any_experiment(tmp_path, capsys):
    cfg = {"experiment": "carleman",
           "domain": {"kind": "annulus", "r_inner": 1.0, "r_outer": 2.0},
           "medium": {"q": {"profile": "radial_quadratic", "amplitude": 0.25},
                      "kappa": 2.02, "monotone": True},
           "h": 0.1, "params": {"samples_per_cel": 4}}
    path = _write(tmp_path, "carleman.json", cfg)
    for command in ("run", "sigma"):
        out = tmp_path / command
        assert main([command, str(path), "--out", str(out)]) == 2
        assert "unknown params keys ['samples_per_cel']" in capsys.readouterr().err
        assert not out.exists()


def test_pinch_violation_flagged():
    cfg = _spectrum_cfg()
    cfg["medium"] = {"q": {"profile": "constant", "value": 5.0}, "kappa": 2.0}
    msgs = validate_config(cfg)
    assert any("pinch" in m or "kappa" in m for m in msgs)


@pytest.mark.parametrize("q", [
    {"profile": "constant", "value": -1.0},
    {"profile": "bump", "amplitude": -1.0, "center": [1.5, 1.5],
     "radius": 0.5}])
def test_nonpositive_q_flagged_as_pinch_violation(q):
    # without kappa the pinch is fitted to q, and no kappa admits q <= 0
    cfg = _spectrum_cfg()
    cfg["medium"] = {"q": q}
    msgs = validate_config(cfg)
    assert any(m.startswith("medium violates the pinch bounds") for m in msgs)


def test_monotone_requirement_flagged():
    cfg = {
        "experiment": "runge_sweep",
        "domain": {"kind": "annulus", "r_inner": 0.5, "r_outer": 2.0},
        "medium": {"q": {"profile": "constant", "value": 1.0}},
        "params": {"scenario": "convex"},
    }
    msgs = validate_config(cfg)
    assert any("monotone" in m for m in msgs)


def test_valid_config_empty_report():
    assert validate_config(_spectrum_cfg()) == []


def test_admissibility_precheck_flags_resonance(tmp_path):
    # solve assembles at its k as given; k^2 = 2 is the ground state of the
    # square
    cfg = {"experiment": "solve", "domain": _spectrum_cfg()["domain"],
           "medium": _spectrum_cfg()["medium"], "h": PI / 40,
           "k_list": [np.sqrt(2.0)]}
    msgs = validate_config(cfg)
    assert any("admissibility" in m for m in msgs)


@pytest.mark.parametrize("medium", [
    {"kappa": 2.02, "monotone": True}, None], ids=["without_q", "omitted"])
def test_runge_sweep_validates_on_its_scenarios_medium(tmp_path, capsys,
                                                       medium):
    # the convex sweep runs on q = 1 + |x|^2 / 4 whatever the config leaves
    # out, so the probe spectrum and the monotone check are of that medium,
    # not of q = 1 and the monotone flag unset
    cfg = {"experiment": "runge_sweep",
           "domain": {"kind": "annulus", "r_inner": 0.5, "r_outer": 2.0},
           "medium": medium, "k_list": [2.0, 4.0, 8.0],
           "params": {"scenario": "convex"}}
    if medium is None:
        del cfg["medium"]
    assert validate_config(cfg) == []
    path = _write(tmp_path, "convex.json", cfg)
    assert main(["validate", str(path)]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == "valid"


def test_admissibility_precheck_skips_unresolved_frequencies():
    # the probe grids' eigenvalue error bands at these k^2 cover half the
    # surrounding spectral gap, so the pre-check leaves them to the guard on
    # the solve grid.  At h = 0.01 the chain's r/2 = 0.08 spans 8 layers; on
    # its default grid for k = 6 it spans fewer, and the run would fail
    convex = {
        "experiment": "runge_sweep",
        "domain": {"kind": "annulus", "r_inner": 0.5, "r_outer": 2.0},
        "medium": {"q": {"profile": "radial_quadratic", "amplitude": 0.25},
                   "kappa": 2.02, "monotone": True},
        "k_list": [2, 4, 8],
        "params": {"scenario": "convex"},
    }
    assert validate_config(convex) == []
    chain = {
        "experiment": "chain",
        "domain": {"kind": "disk", "radius": 1.0, "gamma": [[0.0, PI]]},
        "medium": {"q": {"profile": "constant", "value": 1.0}},
        "h": 0.01, "k_list": [6.0],
    }
    assert validate_config(chain) == []


def test_cli_exit_codes(tmp_path, capsys):
    good = _write(tmp_path, "good.json", _spectrum_cfg())
    bad = _write(tmp_path, "bad.json", {"experiment": "nope"})
    assert main(["validate", str(good)]) == 0
    assert main(["run", str(good), "--out", str(tmp_path / "o1")]) == 0
    assert main(["run", str(bad)]) == 2
    assert main(["sigma", str(good), "--out", str(tmp_path / "o2")]) == 0
    assert (tmp_path / "o2" / "spectrum.json").exists()


def test_empty_k_list_rejected(tmp_path, capsys):
    cfg = _spectrum_cfg()
    del cfg["h"]
    cfg["k_list"] = []
    assert any("k_list" in p for p in validate_config(cfg))
    path = _write(tmp_path, "empty_k.json", cfg)
    assert main(["validate", str(path)]) == 2
    assert "valid" not in capsys.readouterr().out.splitlines()
    assert main(["run", str(path), "--out", str(tmp_path / "o")]) == 2
    assert not (tmp_path / "o").exists()


_CHAIN_DISK = {"kind": "disk", "radius": 1.0, "gamma": [[0.0, PI]]}


@pytest.mark.parametrize("cfg, problem", [
    ({"experiment": "spectrum", "domain": {"kind": "disk", "radius": 1.0},
      "k_list": ["a"]}, "k_list must be a non-empty list of numbers"),
    ({"experiment": "chain", "domain": _CHAIN_DISK, "h": 0.05,
      "k_list": [2.0], "epsilon_list": ["x"]},
     "epsilon_list must be a non-empty list of numbers"),
    ({"experiment": "runge_sweep", "domain": {"kind": "disk", "radius": 1.0},
      "seeds": ["a"]}, "seeds must be a non-empty list of integers"),
    ({"experiment": "runge_sweep", "domain": {"kind": "disk", "radius": 1.0},
      "params": {"seeds": [0, 1.5]}},
     "params.seeds must be a non-empty list of integers"),
    ({"experiment": "spectrum", "domain": {"kind": "disk", "radius": 1.0},
      "h": "x"}, "h must be a positive number"),
    ({"experiment": "spectrum", "domain": {"kind": "disk", "radius": 1.0},
      "seed": "0"}, "seed must be an integer"),
    ({"experiment": "spectrum", "domain": {"kind": "disk", "radius": 1.0},
      "output_dir": 5}, "output_dir must be a string")],
    ids=["k_list", "epsilon_list", "seeds", "params_seeds", "h", "seed",
         "output_dir"])
def test_config_values_are_checked_before_a_run(tmp_path, capsys, cfg,
                                                problem):
    # each of these once passed validation (or died in it with a traceback)
    # and then crashed the run converting the value
    assert validate_config(cfg) == [problem]
    path = _write(tmp_path, "bad.json", cfg)
    assert main(["validate", str(path)]) == 2
    assert f"problem: {problem}" in capsys.readouterr().out.splitlines()
    assert main(["run", str(path), "--out", str(tmp_path / "o")]) == 2
    assert not (tmp_path / "o").exists()


def test_rerun_byte_identical(tmp_path):
    cfg = {
        "experiment": "three_balls",
        "domain": {"kind": "disk", "radius": 1.0},
        "medium": {"q": {"profile": "constant", "value": 1.0}},
        "h": 0.0125,
        "seed": 3,
        "k_list": [2.0],
        # at r = 0.2, B_4r of the other default centres exits the unit disk
        "params": {"r": 0.2, "ell_margin": 4,
                   "centers": [[0.0, 0.0], [0.15, 0.05]]},
    }
    run_experiment(cfg, out_dir=tmp_path / "a")
    run_experiment(cfg, out_dir=tmp_path / "b")
    for name in ("triples.csv", "three_balls_fit.json"):
        assert (tmp_path / "a" / name).read_bytes() == \
            (tmp_path / "b" / name).read_bytes()


def test_runge_fit_counts_dropped_cells(tmp_path):
    cfg = {
        "experiment": "runge_sweep",
        "domain": {"kind": "disk", "radius": 1.0},
        "medium": {"q": {"profile": "constant", "value": 1.0}},
        "seeds": [0, 1],
        "epsilon_list": [2.0 ** -4, 2.0 ** -5, 2.0 ** -6, 1e-14],
        "k_list": [3.2],
        "seed": 0,
        "params": {"scenario": "interior"},
    }
    run_experiment(cfg, out_dir=tmp_path)
    fit = json.loads((tmp_path / "runge_fit.json").read_text())["fit"]
    assert set(fit["exponents"]) == {"nu"}
    # no out-of-span residue on a disk grid fits a 1e-14 budget
    assert fit["dropped"] == [{"k": 3.2, "epsilon": 1e-14,
                               "reason": "residue", "count": 2}]
    lines = (tmp_path / "runge_records.csv").read_text().splitlines()
    assert len(lines) - 2 == 2 * 3


def test_solve_experiment_artifacts(tmp_path):
    cfg = {
        "experiment": "solve",
        "domain": {"kind": "disk", "radius": 1.0, "gamma": [[0.0, PI]]},
        "medium": {"q": {"profile": "constant", "value": 1.0}},
        "k_list": [2.0],
        "h": 0.05,
        "seed": 1,
    }
    paths = run_experiment(cfg, out_dir=tmp_path / "out")
    field = (tmp_path / "out" / "field.csv").read_text().splitlines()
    assert field[0].startswith("# manifest:")
    assert field[1] == "x0,x1,value"
    doc = json.loads((tmp_path / "out" / "solve.json").read_text())
    assert doc["l2"] > 0


def test_solve_near_resonance_fails_at_assembly(tmp_path, capsys):
    # k is the square root of the first eigenvalue of the run's own grid:
    # -Delta + 50 on the unit disk at h = 0.05.  That eigenvalue (55.8) is
    # beyond what the probe grid of ``lab validate`` resolves, so the config
    # validates, and the guard at assembly on the solve grid rejects k
    cfg = {"experiment": "solve", "domain": _CHAIN_DISK,
           "medium": {"q": {"profile": "constant", "value": 1.0},
                      "V": {"profile": "constant", "value": -50.0}},
           "h": 0.05, "k_list": [1.0], "seed": 0}
    grid, medium, _, _ = cli._setup(cfg)
    k = float(np.sqrt(compute_sigma(medium, 24).eigenvalues[0]))
    cfg["k_list"] = [k]
    assert validate_config(cfg) == []
    path = _write(tmp_path, "resonant.json", cfg)
    assert main(["validate", str(path)]) == 0
    assert main(["run", str(path), "--out", str(tmp_path / "o")]) == 1
    assert "within guard band" in capsys.readouterr().err
    assert not (tmp_path / "o" / "field.csv").exists()


@pytest.mark.parametrize("spec, h", [
    (DomainSpec("disk", radius=1.0), 0.05),
    (DomainSpec("rectangle", corners=((0, 0), (1.3, 0.85))), 0.1),
    (DomainSpec("box", corners=((0, 0, 0), (1, 1, 1))), 1 / 8)],
    ids=["disk", "rectangle", "cube"])
def test_solve_data_have_the_modal_law(spec, h):
    # the draw is linear in xi, so its map D is the draw of the identity, and
    # D D^T is the covariance of the data: E (1 + Lambda)^-2 E^T, the law of
    # sum_m c_m e_m with c_m ~ N(0, 1) (1 + lambda_m)^-1
    chart = boundary_chart(build_grid(spec, h))
    if spec.kind == "rectangle":
        assert chart.symbol() is None          # hx != hy
    D = cli._random_data(chart, np.eye(chart.n))
    lam, E = modal(chart)
    want = (E * (1.0 + lam) ** -2) @ E.T
    got = D @ D.T
    assert np.max(np.abs(got - want)) <= 1e-11 * np.max(np.abs(want))


def _no_eigh(*args, **kwargs):
    raise AssertionError("scipy.linalg.eigh called")


@pytest.mark.parametrize("domain, h", [
    ({"kind": "box", "corners": [[0, 0, 0], [1, 1, 1]],
      "gamma": {"face": "z-"}}, 1 / 8),
    ({"kind": "disk", "radius": 1.0, "gamma": [[0.0, PI]]}, 0.05)],
    ids=["cube", "disk"])
def test_solve_run_takes_no_dense_eigensolve(tmp_path, monkeypatch, domain,
                                            h):
    monkeypatch.setattr(scipy.linalg, "eigh", _no_eigh)
    cfg = {"experiment": "solve", "domain": domain,
           "medium": {"q": {"profile": "constant", "value": 1.0},
                      "kappa": 1.01},
           "k_list": [1.0], "h": h, "seed": 4}
    path = _write(tmp_path, "solve.json", cfg)
    for run in ("a", "b"):
        assert main(["run", str(path), "--out", str(tmp_path / run)]) == 0
    assert len((tmp_path / "a" / "field.csv").read_text().splitlines()) > 2
    for name in ("field.csv", "solve.json"):
        assert (tmp_path / "a" / name).read_bytes() == \
            (tmp_path / "b" / name).read_bytes()


def test_solve_takes_no_params(tmp_path, capsys):
    cfg = {"experiment": "solve",
           "domain": {"kind": "disk", "radius": 1.0},
           "medium": {"q": {"profile": "constant", "value": 1.0}},
           "k_list": [2.0], "h": 0.1, "params": {"data_decay": 1.0}}
    assert any("unknown params keys ['data_decay']" in p
               for p in validate_config(cfg))
    path = _write(tmp_path, "decay.json", cfg)
    assert main(["validate", str(path)]) == 2
    assert main(["run", str(path), "--out", str(tmp_path / "o")]) == 2
    assert not (tmp_path / "o").exists()


def test_one_frequency_runners_reject_a_k_list(tmp_path, capsys):
    # solve, chain and bessel_optimality read k_list[0] alone; a second
    # frequency would be dropped without a word
    cfg = {"experiment": "solve",
           "domain": {"kind": "disk", "radius": 1.0,
                      "gamma": [[0.0, 3.141592653589793]]},
           "medium": {"q": {"profile": "constant", "value": 1.0}},
           "k_list": [2.0, 6.0], "seed": 1}
    assert "solve runs one frequency; k_list has 2" in validate_config(cfg)
    path = _write(tmp_path, "two_k.json", cfg)
    assert main(["validate", str(path)]) == 2
    assert main(["run", str(path), "--out", str(tmp_path / "o")]) == 2
    assert not (tmp_path / "o").exists()
    for experiment in ("chain", "bessel_optimality"):
        cfg = dict(_RUNNER_CASES[experiment][0], k_list=[2.0, 4.0])
        assert f"{experiment} runs one frequency; k_list has 2" in \
            validate_config(cfg)


def test_load_config_errors(tmp_path):
    p = tmp_path / "broken.json"
    p.write_text("{not json")
    with pytest.raises(ConfigInvalid):
        load_config(p)


_MONOTONE = {"q": {"profile": "radial_quadratic", "amplitude": 0.25},
             "kappa": 2.02, "monotone": True}
_ANNULUS = {"kind": "annulus", "r_inner": 1.0, "r_outer": 2.0}
_MANIFEST = {"config_sha256", "code_version", "admissibility_c"}

# experiment config, artifacts in write order (CSV header or None for JSON),
# manifest keys beyond the common ones
_RUNNER_CASES = {
    "chain": (
        {"experiment": "chain",
         "domain": {"kind": "disk", "radius": 1.0, "gamma": [[0.0, PI]]},
         "medium": {"q": {"profile": "constant", "value": 1.0}},
         "h": 0.01, "k_list": [2.0], "epsilon_list": [0.25], "seed": 0},
        {"chain.csv": "epsilon,n_balls,n_cover,bound,bound_interior,"
                      "bound_layer,bound_log,measured"},
        {"h", "k", "alpha_hat"}),
    "carleman": (
        {"experiment": "carleman", "domain": _ANNULUS, "medium": _MONOTONE,
         "h": 0.05, "k_list": [1.0, 2.0], "seed": 0,
         "params": {"tau_list": [10, 20], "samples_per_cell": 2,
                    "generic_per_cell": 1}},
        {"carleman_samples.csv": "tau,k,sample,lhs_tau,lhs_grad,lhs_freq,"
                                 "rhs_f,rhs_div,ratio",
         "carleman_uniformity.json": None},
        {"h"}),
    "improved_ucp": (
        {"experiment": "improved_ucp", "domain": _ANNULUS, "medium": _MONOTONE,
         "h": 0.05, "k_list": [2.0], "seed": 0,
         "params": {"delta_list": [0.2], "ell_span": 8}},
        {"improved_ucp.csv": "k,ell,delta,eta,M,lhs,lhs_full,rhs_log,rhs_poly",
         "improved_ucp_fit.json": None},
        {"h"}),
    "bessel_optimality": (
        {"experiment": "bessel_optimality", "k_list": [2.0],
         "params": {"ell_list": [12]}},
        {"optimality.csv": "ell,k,epsilon,min_boundary_norm,bound_2ell,"
                           "alpha_ell,g_l2",
         "bessel_inequalities.json": None},
        set()),
    "calderon": (
        {"experiment": "calderon",
         "domain": {"kind": "box", "corners": [[0, 0, 0], [1, 1, 1]],
                    "gamma": {"face": "z-"}},
         "medium": {"q": {"profile": "constant", "value": 1.0},
                    "kappa": 1.01},
         "h": 1.0 / 8, "k_list": [1.0], "seed": 0,
         "params": {"amplitudes": [1.0]}},
        {"calderon.csv": "k,amplitude,delta,lhs,identity_rel",
         "calderon_stability.json": None},
        {"h"}),
}


@pytest.mark.parametrize("experiment", sorted(_RUNNER_CASES))
def test_runner_artifacts(tmp_path, experiment):
    cfg, artifacts, extra = _RUNNER_CASES[experiment]
    paths = run_experiment(cfg, out_dir=tmp_path / "a")
    assert [p.name for p in paths] == list(artifacts)
    for name, header in artifacts.items():
        text = (tmp_path / "a" / name).read_text()
        if header is None:
            manifest = json.loads(text)["manifest"]
        else:
            first, second = text.splitlines()[:2]
            assert first.startswith("# manifest: ")
            assert second == header
            manifest = json.loads(first[len("# manifest: "):])
        assert set(manifest) == _MANIFEST | extra
    # the rerun goes through the command line
    path = _write(tmp_path, "cfg.json", cfg)
    assert main(["run", str(path), "--out", str(tmp_path / "b")]) == 0
    for name in artifacts:
        assert (tmp_path / "a" / name).read_bytes() == \
            (tmp_path / "b" / name).read_bytes()


class _Stop(Exception):
    pass


def test_carleman_default_grid_resolves_every_checked_k(tmp_path,
                                                       monkeypatch):
    # without h and k_list the runner checks k up to 32, so the grid must
    # meet the wavelength rule at k=32, not at k=1
    real_setup, spacings = cli._setup, []

    def spy(*args, **kwargs):
        spacings.append(real_setup(*args, **kwargs)[3])
        raise _Stop

    monkeypatch.setattr(cli, "_setup", spy)
    cfg = {"experiment": "carleman", "domain": _ANNULUS, "medium": _MONOTONE}
    with pytest.raises(_Stop):
        run_experiment(cfg, out_dir=tmp_path)
    assert spacings[0] <= default_spacing(32.0, 2.02)


def _modules_added(code: str, *args: str) -> list:
    """Modules a fresh interpreter has loaded at the end of ``code`` that it
    had not when ``code`` set ``base``; ``code`` prints them."""
    src = str(Path(helmlab.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    return subprocess.run([sys.executable, "-c", code, *args], env=env,
                          check=True, capture_output=True,
                          text=True).stdout.split()


def test_cli_import_loads_no_new_scipy_module():
    # a module-level import in cli must not load scipy submodules (or
    # helmlab modules) that ``import helmlab`` leaves out: every lab run and
    # benchmark pass pays them in start-up time and resident memory
    added = _modules_added(
        "import sys, helmlab; base = set(sys.modules); "
        "import helmlab.cli; print(*sorted(set(sys.modules) - base))")
    assert not [m for m in added if m.split(".")[0] == "scipy"]
    assert {m for m in added if m.split(".")[0] == "helmlab"} <= \
        {"helmlab.cli", "helmlab.modes", "helmlab.profiles"}


def test_calderon_run_loads_no_new_scipy_module(tmp_path):
    # the surface Gram quadrature computes its elliptic functions in numpy:
    # a calderon run loads no scipy module that ``import helmlab.cli`` did
    # not (``scipy.special`` alone costs about 0.07 s)
    cfg = {"experiment": "calderon",
           "domain": {"kind": "box", "corners": [[0, 0, 0], [1, 1, 1]],
                      "gamma": {"face": "z-"}},
           "medium": {"q": {"profile": "constant", "value": 1.0},
                      "kappa": 1.01},
           "h": 1 / 8, "k_list": [1.0], "params": {"amplitudes": [0.5]}}
    added = _modules_added(
        "import json, sys, helmlab.cli; base = set(sys.modules); "
        "helmlab.cli.run_experiment(json.loads(sys.argv[1]), sys.argv[2]); "
        "print(*sorted(set(sys.modules) - base))",
        json.dumps(cfg), str(tmp_path))
    assert (tmp_path / "calderon.csv").exists()
    assert not [m for m in added if m.split(".")[0] == "scipy"]


_DISK = {"kind": "disk", "radius": 1.0}


def test_runge_sweep_unknown_scenario_exits_2(tmp_path, capsys):
    cfg = {"experiment": "runge_sweep", "domain": _DISK,
           "medium": {"q": {"profile": "constant", "value": 1.0}},
           "params": {"scenario": "concave"}}
    assert any("unknown scenario 'concave'" in p for p in validate_config(cfg))
    path = _write(tmp_path, "concave.json", cfg)
    assert main(["validate", str(path)]) == 2
    assert "valid" not in capsys.readouterr().out.splitlines()
    assert main(["run", str(path), "--out", str(tmp_path / "o")]) == 2
    assert "unknown scenario 'concave'" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("scenario,domain,medium,flag", [
    ("interior", _ANNULUS, {}, "domain kind='annulus'"),
    ("interior", {"kind": "disk", "radius": 2.0}, {}, "domain radius=2.0"),
    ("boundary", {**_DISK, "gamma": [[0.0, PI]]}, {}, "domain gamma="),
    ("convex", _ANNULUS, _MONOTONE, "domain r_inner=1.0"),
    ("interior", _DISK, {"q": _MONOTONE["q"]}, "medium.q"),
    ("interior", _DISK, {"kappa": 2.0}, "medium.kappa"),
    ("interior", _DISK, {"monotone": True}, "medium.monotone"),
    ("convex", {"kind": "annulus", "r_inner": 0.5, "r_outer": 2.0},
     {**_MONOTONE, "kappa": 3.0}, "medium.kappa"),
    ("interior", _DISK, {"V": {"profile": "constant", "value": 0.0}},
     "medium.V"),
])
def test_runge_sweep_runs_on_its_scenarios_domain_and_medium(
        tmp_path, scenario, domain, medium, flag):
    # the sweep builds the scenario's own domain and medium, so a config that
    # names another one would be validated, hashed and then ignored
    cfg = {"experiment": "runge_sweep", "domain": domain, "medium": medium,
           "params": {"scenario": scenario}}
    assert any(flag in p for p in validate_config(cfg))
    path = _write(tmp_path, "other.json", cfg)
    assert main(["run", str(path), "--out", str(tmp_path / "o")]) == 2
    assert not (tmp_path / "o").exists()


def test_readme_minimal_config_is_valid():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("A minimal config:", 1)[1]
    block = block.split("```json", 1)[1].split("```", 1)[0]
    cfg = json.loads(block)
    assert cfg["experiment"] == "runge_sweep"
    assert validate_config(cfg) == []


# The top-level keys each runner reads besides experiment, params, seed and
# output_dir, which every experiment accepts; the last two are set by
# ``lab run --seed/--out``
_READS = {
    "spectrum": {"domain", "medium", "h", "k_list"},
    "solve": {"domain", "medium", "h", "k_list"},
    "runge_sweep": {"domain", "medium", "h", "k_list", "epsilon_list",
                    "seeds"},
    "three_balls": {"domain", "medium", "h", "k_list"},
    "chain": {"domain", "medium", "h", "k_list", "epsilon_list"},
    "carleman": {"domain", "medium", "h", "k_list"},
    "improved_ucp": {"domain", "medium", "h", "k_list"},
    "bessel_optimality": {"k_list"},
    "calderon": {"domain", "medium", "h", "k_list"},
}
_TOP_VALUES = {"domain": _DISK, "medium": {}, "h": 0.1, "k_list": [2.0],
               "epsilon_list": [0.1], "seeds": [0]}
_UNREAD = [(exp, key) for exp in sorted(_READS)
           for key in sorted(set(_TOP_VALUES) - _READS[exp])]

# a valid config of each experiment that sets every top-level key its
# runner reads
_UNIT_Q = {"q": {"profile": "constant", "value": 1.0}}
_VALID = {
    **{exp: case[0] for exp, case in _RUNNER_CASES.items()},
    "spectrum": {"experiment": "spectrum", "domain": _DISK, "medium": _UNIT_Q,
                 "h": 0.1, "k_list": [2.0], "params": {"count": 6}},
    "solve": {"experiment": "solve", "domain": _CHAIN_DISK,
              "medium": _UNIT_Q, "h": 0.1, "k_list": [2.0]},
    "runge_sweep": {"experiment": "runge_sweep", "domain": _DISK,
                    "medium": _UNIT_Q, "h": 0.05, "k_list": [3.2],
                    "epsilon_list": [2.0 ** -4, 2.0 ** -5, 2.0 ** -6],
                    "seeds": [0], "params": {"scenario": "interior"}},
    "three_balls": {"experiment": "three_balls", "domain": _DISK,
                    "medium": _UNIT_Q, "h": 0.01, "k_list": [2.0]},
}


def test_every_experiment_takes_the_keys_its_runner_reads():
    assert set(_VALID) == set(_READS) == set(cli._RUNNERS)
    for exp, cfg in _VALID.items():
        assert _READS[exp] <= set(cfg)
        # seed and output_dir are accepted everywhere
        assert validate_config(dict(cfg, seed=3, output_dir="elsewhere")) \
            == [], exp
    assert len(_UNREAD) == 18     # 90 (experiment, key) pairs, 72 accepted


@pytest.mark.parametrize("exp", sorted(set(_VALID) - set(_RUNNER_CASES)))
def test_every_valid_config_runs(tmp_path, exp):
    # a one-cell runge_sweep once validated, then exited 1: its fit needs
    # three cells with positive cost
    path = _write(tmp_path, "valid.json", _VALID[exp])
    assert main(["run", str(path), "--out", str(tmp_path / "o")]) == 0
    assert list((tmp_path / "o").iterdir())


@pytest.mark.parametrize("exp, key", _UNREAD,
                         ids=[f"{e}-{k}" for e, k in _UNREAD])
def test_a_key_the_runner_does_not_read_exits_2(tmp_path, capsys, exp, key):
    # e.g. seeds on spectrum or h on bessel_optimality once printed "valid"
    # and were then ignored
    cfg = dict(_VALID[exp], **{key: _TOP_VALUES[key]})
    assert validate_config(cfg) == [f"unknown config keys ['{key}']"]
    path = _write(tmp_path, "unread.json", cfg)
    assert main(["validate", str(path)]) == 2
    assert f"problem: unknown config keys ['{key}']" in \
        capsys.readouterr().out.splitlines()
    assert main(["run", str(path), "--out", str(tmp_path / "o")]) == 2
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("exp, params, problem", [
    ("spectrum", {"count": "x"}, "params.count must have the type of its "
                                 "default, 24"),
    ("spectrum", {"count": 6.0}, "params.count must have the type of its "
                                 "default, 24"),
    ("carleman", {"samples_per_cell": True},
     "params.samples_per_cell must have the type of its default, 16"),
    ("carleman", {"tau_list": []}, "params.tau_list must have the type of "
                                   "its default, [10.0, 20.0, 40.0, 80.0]"),
    ("bessel_optimality", {"ell_list": [12, 16.5]},
     "params.ell_list must have the type of its default, [12, 16, 20]"),
    ("three_balls", {"centers": [[0.0, "a"]]},
     "params.centers must have the type of its default, [[0.0, 0.0], "
     "[0.15, 0.05], [-0.2, 0.22], [0.3, 0.0], [0.0, -0.3]]"),
    ("calderon", {"perturbation": {"radius": "x"}},
     "params.perturbation must have the type of its default, "
     '{"profile": "bump", "center": [0.5, 0.5, 0.5], "radius": 0.25}'),
    ("runge_sweep", {"scenario": ["interior"]},
     'params.scenario must have the type of its default, "interior"')],
    ids=["string", "float_for_int", "bool", "empty_list", "list_entry",
         "nested_list", "object_entry", "scenario"])
def test_a_params_value_has_the_type_of_its_default(tmp_path, capsys, exp,
                                                    params, problem):
    # {"count": "x"} once validated, and lab run died converting it
    cfg = dict(_VALID[exp], params={**_VALID[exp].get("params", {}),
                                    **params})
    assert validate_config(cfg) == [problem]
    path = _write(tmp_path, "typed.json", cfg)
    assert main(["validate", str(path)]) == 2
    assert main(["run", str(path), "--out", str(tmp_path / "o")]) == 2
    assert f"config error: {problem}" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


_FITTED_MONOTONE = {"q": _MONOTONE["q"], "monotone": True}
_MODE_MEDIUM = ("{} draws solutions of Delta u + k^2 u = 0: medium.q must be "
                "1 and medium.V 0")


@pytest.mark.parametrize("exp, change, problem", [
    ("solve", {"k_list": [0.5]}, "k_list entries must be at least 1: solve "
                                 "assembles the operator at each"),
    ("chain", {"k_list": [0.5]}, "k_list entries must be at least 1: chain "
                                 "assembles the operator at each"),
    ("calderon", {"k_list": [0.5]}, "k_list entries must be at least 1: "
                                    "calderon assembles the operator at each"),
    ("runge_sweep", {"k_list": [0.5]}, "k_list entries must be at least 1: "
                                       "runge_sweep assembles the operator "
                                       "at each"),
    ("runge_sweep", {"params": {"scenario": "interior", "k_list": [0.5]}},
     "params.k_list entries must be at least 1: runge_sweep assembles the "
     "operator at each"),
    ("chain", {"epsilon_list": [-0.1]}, "epsilon_list entries must be "
                                        "positive"),
    ("runge_sweep", {"epsilon_list": [0.25, 0.0625, 0.015625, -0.1]},
     "epsilon_list entries must be positive"),
    ("runge_sweep", {"params": {"scenario": "interior",
                                "epsilon_list": [0.0]}},
     "params.epsilon_list entries must be positive"),
    ("calderon", {"medium": {**_UNIT_Q, "kappa": 1.01,
                             "V": {"profile": "constant", "value": 2.0}}},
     "calderon sets no medium.V: it sets the potential"),
    ("carleman", {"domain": {"kind": "rectangle",
                             "corners": [[-2, -2], [2, 2]]},
                  "medium": _FITTED_MONOTONE, "h": 0.1, "k_list": [1.3]},
     "carleman runs on annulus domains, not on a rectangle"),
    ("improved_ucp", {"domain": {"kind": "disk", "radius": 2.0}},
     "improved_ucp runs on annulus domains, not on a disk"),
    ("chain", {"domain": {"kind": "masked_union", "rectangles": [
        [[-1, -1], [1, 1]], [[1, -1], [3, 1]]]}},
     "chain runs on disk, annulus, rectangle domains, not on a masked_union"),
    ("three_balls", {"medium": {"q": {"profile": "constant", "value": 1.5}},
                     "params": {"ell_margin": 2}},
     _MODE_MEDIUM.format("three_balls")),
    ("three_balls", {"medium": {**_UNIT_Q, "V": {"profile": "constant",
                                                 "value": 1.0}}},
     _MODE_MEDIUM.format("three_balls")),
    ("chain", {"medium": {"q": _MONOTONE["q"]}}, _MODE_MEDIUM.format("chain")),
    ("spectrum", {"domain": {**_DISK, "corners": [[0, 0], [1, 1]]}},
     "domain: unknown domain keys ['corners'] for a disk; valid: ['center', "
     "'radius']"),
    ("spectrum", {"domain": {"kind": "rectangle", "corners": [[0, 0], [2, 1]],
                             "center": [1.0, 0.5]}},
     "domain: unknown domain keys ['center'] for a rectangle; valid: "
     "['corners']"),
    ("spectrum", {"domain": {"kind": "rectangle", "corners": [[0, 0], [1, 0.3]]},
                  "h": 0.05}, "width 0.3 spans fewer than 8 layers at h=0.05"),
    ("solve", {"domain": _DISK, "k_list": [10.0]},
     "spacing 0.09973 exceeds wavelength rule 0.0628 by 59% at k=10"),
    ("improved_ucp", {"h": 0.1, "k_list": [8.0]},
     "spacing 0.1 exceeds wavelength rule 0.05526 by 81% at k=8"),
    ("solve", {"domain": {**_DISK, "gamma": {"edges": ["bottom"]}}},
     "domain: bad gamma descriptor for a disk: {'edges': ['bottom']}"),
    ("solve", {"domain": {**_DISK, "gamma": [1, 2]}},
     "domain: bad gamma descriptor for a disk: {'angles': [1, 2]}"),
    ("spectrum", {"domain": {**_DISK, "radius": "x"}},
     "domain: disk radius must be a number"),
    ("spectrum", {"domain": {"kind": "masked_union", "rectangles": [[[0, 0]]]}},
     "domain: masked_union rectangles must be a non-empty list of corner "
     "pairs of 2 numbers"),
    ("spectrum", {"domain": {**_DISK, "center": "ab"}},
     "domain: disk center must be a point of 2 numbers"),
    ("spectrum", {"domain": {"kind": "rectangle",
                             "corners": [[0, 0, 0], [1, 1, 1]]}},
     "domain: rectangle corners must be a pair of points of 2 numbers"),
    ("calderon", {"domain": {"kind": "box", "corners": [[0, 0, 0], [1, 1, 1]],
                             "gamma": {"face": "w-"}}},
     "domain: bad gamma descriptor for a box: {'face': 'w-'}"),
    ("spectrum", {"medium": {"kappa": "x"}}, "medium.kappa 'x' must be a number"),
    ("spectrum", {"medium": {"q": {"profile": "constant", "value": "x"}}},
     "profile {'profile': 'constant', 'value': 'x'}: value, amplitude and "
     "radius must be numbers, center a point of 2"),
    ("carleman", {"medium": {**_MONOTONE, "monotone": "no"}},
     "medium.monotone 'no' must be true or false"),
    ("calderon", {"params": {"amplitudes": [1.0],
                             "perturbation": {"center": [0.5, 0.5]}}},
     "params.perturbation: profile {'profile': 'bump', 'center': [0.5, 0.5], "
     "'radius': 0.25}: value, amplitude and radius must be numbers, center "
     "a point of 3"),
    ("runge_sweep", {"h": 0.2},
     "spacing 0.1963 exceeds wavelength rule 0.1963 by 0.05% at k=3.2"),
    ("runge_sweep", {"h": 0.3}, "width 2 spans fewer than 8 layers at h=0.3"),
    ("runge_sweep", {"epsilon_list": [2.0 ** -4]},
     "the sweep's fit needs 3 (k, epsilon, seed) cells; it has 1"),
    ("carleman", {"params": {"tau_list": [10, 20], "samples_per_cell": 0,
                             "generic_per_cell": 0}},
     "carleman needs a sample per (tau, k) cell: params.samples_per_cell + "
     "params.generic_per_cell must be at least 1"),
    ("spectrum", {"domain": {"kind": "rectangle", "corners": [[0, 0], [1, 1]]},
                  "params": {"count": 0}},
     "params.count: count 0 below 1: a spectrum reports at least one "
     "eigenvalue per shift"),
    ("spectrum", {"params": {"count": -3}},
     "params.count: count -3 below 1: a spectrum reports at least one "
     "eigenvalue per shift"),
    ("carleman", {"params": {"tau_list": [5.0]}},
     "params.tau_list: tau=5 below tau0=10")],
    ids=["solve_k", "chain_k", "calderon_k", "runge_k", "runge_params_k",
         "chain_eps", "runge_eps", "runge_params_eps", "calderon_V",
         "carleman_rectangle", "improved_ucp_disk", "chain_union",
         "three_balls_q", "three_balls_V", "chain_q", "disk_corners",
         "rectangle_center", "thin_rectangle", "solve_wavelength",
         "improved_ucp_wavelength", "disk_edges", "flat_arcs", "radius_type",
         "rectangles_type", "center_type", "rectangle_3d", "box_face",
         "kappa_type", "q_value_type", "monotone_type",
         "perturbation_centre", "runge_wavelength", "runge_width",
         "runge_one_cell", "carleman_no_samples", "spectrum_count_0",
         "spectrum_count_negative", "carleman_tau_below_tau0"])
def test_values_a_run_cannot_use_are_config_errors(tmp_path, capsys, exp,
                                                   change, problem):
    # each once validated, then failed the run with exit 1 (k < 1 at
    # assembly, a negative epsilon as "smallest ball radius below 8
    # layers", V as "support touches the grid hull", chain on a masked
    # union, a grid too coarse for the width or the wavelength, edges on a
    # circle, a runge_sweep too coarse for its k or its width or with fewer
    # cells than its fit needs), died with a traceback in the run
    # (carleman on a rectangle or with no sample per cell, an unknown box
    # face, a 2D perturbation centre on a box, a spectrum count of 0) or in
    # validation (a value of the wrong type), or wrote what the config did
    # not ask for: runge_sweep filed the negative epsilon under dropped
    # cells, improved_ucp on a disk a header-only CSV, three_balls the
    # triples of q = 1, a disk ignored its corners, a rectangle with 3D
    # corners a box's spectrum, carleman ran "monotone": "no" as true, and
    # a spectrum count of -3 wrote all but the 3 farthest eigenvalues; a
    # tau below tau0 exited 1
    cfg = dict(_VALID[exp], **change)
    assert validate_config(cfg) == [problem]
    path = _write(tmp_path, "bad.json", cfg)
    assert main(["validate", str(path)]) == 2
    assert f"problem: {problem}" in capsys.readouterr().out.splitlines()
    for command in ("run", "sigma"):
        assert main([command, str(path), "--out", str(tmp_path / "o")]) == 2
        assert not (tmp_path / "o").exists()


def test_default_spacing_resolves_the_kappa_the_medium_derives(tmp_path):
    # q = 3 derives kappa 3.003; the grid was sized at kappa 2, and
    # validation rejected its own default spacing by 5% at k = 6
    cfg = {"experiment": "solve",
           "domain": {"kind": "disk", "radius": 1.0, "gamma": [[0.0, 3.14159]]},
           "medium": {"q": {"profile": "constant", "value": 3.0}},
           "k_list": [6.0]}
    assert validate_config(cfg) == []
    _, medium, _, h = cli._setup(cli._config(cfg))
    assert medium.kappa == pytest.approx(3.003)
    assert h == default_spacing(6.0, medium.kappa)
    path = _write(tmp_path, "derived.json", cfg)
    assert main(["run", str(path), "--out", str(tmp_path / "o")]) == 0
    assert (tmp_path / "o" / "field.csv").stat().st_size > 0
    # a derived kappa of at most 2 keeps the spacing of kappa 2
    unit = dict(cfg, medium={"q": {"profile": "constant", "value": 1.5}})
    assert cli._setup(cli._config(unit))[3] == default_spacing(6.0, 2.0)


def test_spectrum_and_three_balls_take_a_frequency_below_1():
    # neither assembles the operator at k
    for exp in ("spectrum", "three_balls"):
        assert validate_config(dict(_VALID[exp], k_list=[0.5])) == []


_UNDER_8_LAYERS = ("calibration centre [0.0, 0.0]: smallest ball radius 0.08 "
                   "below 8 layers")


@pytest.mark.parametrize("cfg, problem", [
    (dict(_VALID["three_balls"], params={"centers": [[0.0, 0.0],
                                                     [0.5, 0.0]]}),
     "calibration centre [0.5, 0.0]: B_4r exits the domain (depth 0.5, "
     "needs > 0.64)"),
    (dict(_VALID["chain"], domain={"kind": "rectangle",
                                   "corners": [[0, 0], [2, 1]]}),
     "calibration centre [0.0, 0.0]: B_4r exits the domain (depth 0, "
     "needs > 0.64)"),
    (dict(_VALID["three_balls"], params={"centers": [[0.0, 0.0, 0.0]]}),
     "calibration centres must be 2D points"),
    ({"experiment": "three_balls", "domain": _DISK, "k_list": [2.0]},
     _UNDER_8_LAYERS),
    (dict(_VALID["three_balls"], h=0.05), _UNDER_8_LAYERS),
    (dict(_VALID["chain"], h=0.03, k_list=[4.0]), _UNDER_8_LAYERS),
    (dict(_VALID["chain"], h=0.02, k_list=[6.0]), _UNDER_8_LAYERS)],
    ids=["three_balls_disk", "chain_rectangle", "dimension",
         "three_balls_default_h", "three_balls_h", "chain_h_k4",
         "chain_h_k6"])
def test_calibration_centres_inside_the_domain(tmp_path, capsys, cfg,
                                               problem):
    # three_balls once dropped such a centre without a word, and chain
    # failed its run with "B_4r at (0, 0) exits the domain"; where r/2
    # spans fewer than 8 layers of the run's grid both failed their runs
    assert problem in validate_config(cfg)
    path = _write(tmp_path, "centres.json", cfg)
    assert main(["validate", str(path)]) == 2
    assert f"problem: {problem}" in capsys.readouterr().out.splitlines()
    assert main(["run", str(path), "--out", str(tmp_path / "o")]) == 2
    assert not (tmp_path / "o").exists()


def test_sigma_keeps_the_keys_spectrum_reads(tmp_path):
    cfg = dict(_VALID["chain"], params={"r": 0.16})
    sigma = cli._sigma_config(cfg)
    assert sigma == {"experiment": "spectrum", "domain": cfg["domain"],
                     "medium": cfg["medium"], "h": cfg["h"],
                     "k_list": cfg["k_list"], "seed": 0, "params": {}}
    path = _write(tmp_path, "chain.json", cfg)
    assert main(["sigma", str(path), "--out", str(tmp_path / "s")]) == 0
    assert (tmp_path / "s" / "spectrum.json").exists()


def test_improved_ucp_solves_once_per_k_and_ell(tmp_path, monkeypatch):
    # the solve, eta and M depend on (k, ell) alone: each delta's outer norm
    # is read from the one solve, in rows ordered by k, delta, ell
    cfg = dict(_RUNNER_CASES["improved_ucp"][0])
    cfg["params"] = dict(cfg["params"], delta_list=[0.2, 0.4])
    real, solved = carleman.solve_dirichlet, []

    def spy(op, **kwargs):
        solved.append(op.k)
        return real(op, **kwargs)

    monkeypatch.setattr(carleman, "solve_dirichlet", spy)
    run_experiment(cfg, out_dir=tmp_path)
    assert len(solved) == len(cfg["k_list"]) * (cfg["params"]["ell_span"] - 2)
    lines = (tmp_path / "improved_ucp.csv").read_text().splitlines()[2:]
    rows = [line.split(",") for line in lines]
    half = len(rows) // 2
    assert half and [r[2] for r in rows] == ["0.2"] * half + ["0.4"] * half
    assert [r[:2] + r[3:5] for r in rows[:half]] == \
        [r[:2] + r[3:5] for r in rows[half:]]


def test_improved_ucp_run_lets_a_shape_error_through(tmp_path):
    # the runner skips the probes that fail 0 < k^3 eta <= M; the probe's
    # shape error once counted as one, and the run wrote no rows
    cfg = {"experiment": "improved_ucp", "domain": _DISK,
           "medium": _FITTED_MONOTONE, "h": 0.1, "k_list": [2.0],
           "params": {"delta_list": [0.2], "ell_span": 4}}
    with pytest.raises(GeometryViolation):
        cli.run_improved_ucp(cfg, tmp_path)
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("rectangles, h", [
    ([[[-1, -1], [1, 0.5]], [[-1, -1], [0.5, 1]]], 0.025),
    ([[[-1, -1], [1, 1]], [[1, -1], [2, 0]]], 0.05)], ids=["l_shape", "step"])
def test_a_masked_union_is_probed_at_the_config_h(tmp_path, capsys,
                                                  rectangles, h):
    # the probe once took the first rectangle's shorter side / 10, where the
    # corners of the L do not align and the step's second rectangle spans
    # 5 layers
    cfg = {"experiment": "spectrum",
           "domain": {"kind": "masked_union", "rectangles": rectangles},
           "h": h, "params": {"count": 6}}
    assert validate_config(cfg) == []
    spec = cli.domain_from_config(cfg["domain"])
    assert build_grid(spec, h).n_nodes == {0.025: 6161, 0.05: 2101}[h]
    path = _write(tmp_path, "union.json", cfg)
    assert main(["validate", str(path)]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == "valid"


@pytest.mark.parametrize("domain, want", [
    ({"kind": "disk", "radius": 1.3}, 1.3 / 12.0),
    ({"kind": "annulus", "r_inner": 0.5, "r_outer": 2.0}, (2.0 - 0.5) / 12.0),
    ({"kind": "rectangle", "corners": [[PI, 1.1], [0, 0]]}, 1.1 / 10.0),
    ({"kind": "box", "corners": [[0, 0, 0], [1.5, 1.5, 1.2]]}, 1.2 / 10.0),
    ({"kind": "masked_union", "rectangles": [[[0, 0], [2, 1]],
                                             [[0, 0], [0.5, 2]]]}, 0.5 / 10.0)],
    ids=["disk", "annulus", "rectangle", "box", "masked_union"])
def test_probe_spacing_reads_the_width(domain, want):
    # bitwise the spacing each shape had before; only a masked union moves:
    # to the config's h, and without one to its thinnest rectangle / 10
    spec = cli.domain_from_config(domain)
    assert cli._probe_spacing(spec, None) == want
    assert cli._probe_spacing(spec, 0.01) == (0.01 if spec.rectangles
                                              else want)


def test_mode_field_runners_take_kappa_and_the_benchmark_config():
    assert validate_config(dict(_VALID["three_balls"],
                                medium={**_UNIT_Q, "kappa": 1.5})) == []
    # the ucp_chain benchmark config
    assert validate_config({
        "experiment": "chain",
        "domain": {"kind": "disk", "radius": 1.0, "gamma": [[0.0, PI]]},
        "medium": _UNIT_Q, "h": 0.01, "k_list": [4.0],
        "epsilon_list": [0.25, 0.2], "seed": 7}) == []


@pytest.mark.parametrize("cfg", [
    {"experiment": "carleman", "domain": _ANNULUS, "medium": _MONOTONE,
     "h": 0.02, "k_list": [1.0, 2.0, 4.0, 8.0, 16.0, 32.0],
     "params": {"tau_list": [10.0, 20.0, 40.0, 80.0], "samples_per_cell": 3,
                "generic_per_cell": 1}},
    dict(_spectrum_cfg(), k_list=[np.sqrt(2.0)])],
    ids=["carleman_default_k_list", "spectrum_square"])
def test_precheck_only_where_the_run_assembles_at_k(cfg):
    # carleman and spectrum never assemble at k, yet the probe grid once
    # rejected k = 4 on the carleman benchmark's annulus and k^2 = 2 on the
    # square
    assert validate_config(cfg) == []
