import json

import numpy as np
import pytest

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
