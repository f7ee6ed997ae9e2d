import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import helmlab
from helmlab import cli
from helmlab.assembly import default_spacing
from helmlab.cli import (load_config, main, run_experiment, validate_config)
from helmlab.errors import ConfigInvalid

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
    # the worker count is a command-line flag, not a config key
    cfg = _spectrum_cfg()
    cfg["workers"] = 4
    assert any("unknown config keys" in p for p in validate_config(cfg))


def test_pinch_violation_flagged():
    cfg = _spectrum_cfg()
    cfg["medium"] = {"q": {"profile": "constant", "value": 5.0}, "kappa": 2.0}
    msgs = validate_config(cfg)
    assert any("pinch" in m or "kappa" in m for m in msgs)


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
    cfg = _spectrum_cfg()
    cfg["k_list"] = [np.sqrt(2.0)]      # ground state of the square
    msgs = validate_config(cfg)
    assert any("admissibility" in m for m in msgs)


def test_admissibility_precheck_skips_unresolved_frequencies():
    # the probe grids' eigenvalue error bands at these k^2 cover half the
    # surrounding spectral gap, so the pre-check leaves them to the guard on
    # the solve grid
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
        "k_list": [6.0],
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
    assert main(["validate", str(path)]) == 0
    assert "valid" not in capsys.readouterr().out.splitlines()
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
        "params": {"r": 0.2, "ell_margin": 4},
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


def test_load_config_errors(tmp_path):
    p = tmp_path / "broken.json"
    p.write_text("{not json")
    with pytest.raises(ConfigInvalid):
        load_config(p)


_MONOTONE = {"q": {"profile": "radial_quadratic", "amplitude": 0.25},
             "kappa": 2.02, "monotone": True}
_ANNULUS = {"kind": "annulus", "r_inner": 1.0, "r_outer": 2.0}
_MANIFEST = {"config_sha256", "code_version", "admissibility_c", "tolerances"}

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
    # the rerun goes through the command line with --workers, which is
    # accepted and ignored
    path = _write(tmp_path, "cfg.json", cfg)
    assert main(["run", str(path), "--workers", "2",
                 "--out", str(tmp_path / "b")]) == 0
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


def test_cli_import_loads_no_new_scipy_module():
    # a module-level import in cli must not load scipy submodules (or
    # helmlab modules) that ``import helmlab`` leaves out: every lab run and
    # benchmark pass pays them in start-up time and resident memory
    code = ("import sys, helmlab; base = set(sys.modules); "
            "import helmlab.cli; print(*sorted(set(sys.modules) - base))")
    src = str(Path(helmlab.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    added = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                           capture_output=True, text=True).stdout.split()
    assert not [m for m in added if m.split(".")[0] == "scipy"]
    assert {m for m in added if m.split(".")[0] == "helmlab"} <= \
        {"helmlab.cli", "helmlab.modes", "helmlab.profiles"}
