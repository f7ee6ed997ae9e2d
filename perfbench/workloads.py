"""The four workloads: configs made from the seed, the units each pass
completes, the invariants its artifacts must satisfy, and the call counts a
traced pass must show.

Verification reads only the artifacts and holds for every seed.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

RUNGE_K_TARGETS = [2.0, 4.0, 8.0]
RUNGE_SEEDS_PER_RUN = 8
CARLEMAN_TAUS = [10.0, 20.0, 40.0, 80.0]
CARLEMAN_KS = [1.0, 2.0, 4.0, 8.0, 16.0, 32.0]     # the runner's default list
CARLEMAN_ADAPTED, CARLEMAN_GENERIC = 3, 1
CHAIN_K = 4.0
CHAIN_EPS = [0.25, 0.2]
CALDERON_KS = [1.0, 2.0, 3.0]
CALDERON_AMPS = [0.5, 1.0, 2.0]

_MONOTONE_Q = {"q": {"profile": "radial_quadratic", "amplitude": 0.25},
               "kappa": 2.02, "monotone": True}


def read_csv(path: Path) -> list:
    with open(path, newline="") as fh:
        lines = fh.read().splitlines()
    if not lines or not lines[0].startswith("# manifest: "):
        raise ValueError(f"{path.name}: missing manifest line")
    return list(csv.DictReader(lines[1:]))


def read_json(path: Path) -> dict:
    with open(path) as fh:
        return json.load(fh)


def _finite(*vals) -> bool:
    return all(math.isfinite(float(v)) for v in vals)


# ---------------------------------------------------------------------------
# runge_convex
# ---------------------------------------------------------------------------

def runge_config(seed: int) -> dict:
    # a top-level k_list would go through validate_config's probe-grid
    # admissibility check, which rejects some of these k on its coarse grid;
    # params are passed to sweep_params as overrides instead
    return {"experiment": "runge_sweep",
            "domain": {"kind": "annulus", "r_inner": 0.5, "r_outer": 2.0},
            "medium": dict(_MONOTONE_Q),
            "seed": seed,
            "seeds": [RUNGE_SEEDS_PER_RUN * seed + i
                      for i in range(RUNGE_SEEDS_PER_RUN)],
            "params": {"scenario": "convex", "k_list": RUNGE_K_TARGETS}}


def runge_attempted(cfg: dict) -> int:
    return len(RUNGE_K_TARGETS) * len(cfg["seeds"])


def runge_verify(out: Path, cfg: dict) -> tuple:
    problems, good = [], 0
    for r in read_csv(out / "runge_records.csv"):
        cost, alpha, v_l2 = float(r["cost"]), float(r["alpha"]), float(r["v_l2"])
        if not _finite(cost, alpha, v_l2, r["err"], r["k"]):
            problems.append(f"non-finite record at k={r['k']} seed={r['seed']}")
        elif cost == 0.0 or cost <= v_l2 / alpha * (1 + 1e-10):
            good += 1
        else:
            problems.append(f"cost {cost} > v_l2/alpha at k={r['k']} "
                            f"seed={r['seed']}")
    fit = read_json(out / "runge_fit.json")["fit"]
    if not _finite(fit["r2"], *fit["exponents"].values()) \
            or set(fit["exponents"]) != {"nu", "s"}:
        problems.append(f"fit not finite: {fit}")
    return good, problems


def runge_expected_calls(out: Path, cfg: dict) -> dict:
    recs = read_csv(out / "runge_records.csv")
    n_k = len({r["k"] for r in recs})      # the snapped frequencies
    n_seeds = len(cfg["seeds"])
    return {"runge.build_forward_map.calls": n_k, "runge.svd.calls": n_k,
            "runge.basis.calls": n_k, "runge.sample.calls": n_k * n_seeds,
            "runge.approximate.calls": n_k * n_seeds,
            "assembly.assemble.calls": n_k, "assembly.lu.factorizations": n_k,
            "assembly.solve_on_mask_multi.calls": n_k,
            "assembly.solve_dirichlet.calls": len(recs),
            "spectral.compute_sigma.calls": 1}


# ---------------------------------------------------------------------------
# carleman_annulus
# ---------------------------------------------------------------------------

def carleman_config(seed: int) -> dict:
    return {"experiment": "carleman",
            "domain": {"kind": "annulus", "r_inner": 1.0, "r_outer": 2.0},
            "medium": dict(_MONOTONE_Q), "h": 0.02, "seed": seed,
            "params": {"tau_list": CARLEMAN_TAUS,
                       "samples_per_cell": CARLEMAN_ADAPTED,
                       "generic_per_cell": CARLEMAN_GENERIC}}


def carleman_attempted(cfg: dict) -> int:
    return len(CARLEMAN_TAUS) * len(CARLEMAN_KS) * (CARLEMAN_ADAPTED
                                                    + CARLEMAN_GENERIC)


def carleman_verify(out: Path, cfg: dict) -> tuple:
    """Exact consistency of the artifacts: each ratio is lhs/rhs of its
    terms, each cell maximum is the maximum of its rows, and the doubling
    factors are quotients of cell maxima."""
    problems, good = [], 0
    worst = {}
    for r in read_csv(out / "carleman_samples.csv"):
        lhs = float(r["lhs_tau"]) + float(r["lhs_grad"]) + float(r["lhs_freq"])
        rhs = float(r["rhs_f"]) + float(r["rhs_div"])
        ratio = float(r["ratio"])
        key = (float(r["tau"]), float(r["k"]))
        if _finite(lhs, rhs, ratio) and rhs > 0 and ratio > 0 \
                and abs(ratio - lhs / rhs) <= 1e-12 * ratio:
            good += 1
            worst[key] = max(worst.get(key, 0.0), ratio)
        else:
            problems.append(f"sample {r['sample']} at {key}: ratio {ratio} "
                            f"is not lhs/rhs = {lhs}/{rhs}")
    doc = read_json(out / "carleman_uniformity.json")
    want = {f"{t:g},{k:g}": v for (t, k), v in worst.items()}
    if doc["max_ratio"] != want or doc["n_samples"] != carleman_attempted(cfg):
        problems.append("carleman_uniformity.json disagrees with the samples")
    taus, ks = CARLEMAN_TAUS, CARLEMAN_KS
    f_tau = [worst[(2 * t, k)] / worst[(t, k)] for t in taus[:-1] for k in ks
             if (2 * t, k) in worst and (t, k) in worst]
    f_k = [worst[(t, 2 * k)] / worst[(t, k)] for k in ks[:-1] for t in taus
           if (t, 2 * k) in worst and (t, k) in worst]
    if doc["tau_doubling_factors"] != f_tau or doc["k_doubling_factors"] != f_k:
        problems.append("doubling factors are not quotients of cell maxima")
    return good, problems


def carleman_findings(out: Path) -> list:
    """Doubling factors outside [0.5, 2].  Reported, not gated: with a
    handful of samples per cell the band depends on the seed."""
    doc = read_json(out / "carleman_uniformity.json")
    return [f"{kind} doubling factor {f:.3f} outside [0.5, 2]"
            for kind in ("tau", "k")
            for f in doc[f"{kind}_doubling_factors"] if not 0.5 <= f <= 2.0]


def carleman_expected_calls(out: Path, cfg: dict) -> dict:
    n = carleman_attempted(cfg)
    return {"carleman.check.calls": n, "carleman.sample.calls": n,
            "assembly.stiffness.calls": n, "fields.masked_gradient.calls": n}


# ---------------------------------------------------------------------------
# ucp_chain
# ---------------------------------------------------------------------------

def chain_config(seed: int) -> dict:
    return {"experiment": "chain",
            "domain": {"kind": "disk", "radius": 1.0,
                       "gamma": [[0.0, math.pi]]},
            "medium": {"q": {"profile": "constant", "value": 1.0}},
            "h": 0.01, "k_list": [CHAIN_K], "epsilon_list": CHAIN_EPS,
            "seed": seed}


def chain_attempted(cfg: dict) -> int:
    return len(CHAIN_EPS)


def chain_verify(out: Path, cfg: dict) -> tuple:
    problems, good = [], 0
    rows = {float(r["epsilon"]): r for r in read_csv(out / "chain.csv")}
    for eps in CHAIN_EPS:
        r = rows.get(eps)
        if r is None:
            problems.append(f"level eps={eps} missing")
        elif _finite(r["bound"], r["bound_interior"], r["bound_layer"]) \
                and float(r["bound"]) > 0 and int(r["n_cover"]) > 0:
            good += 1
        else:
            problems.append(f"level eps={eps} not covered with finite bounds")
    return good, problems


def chain_expected_calls(out: Path, cfg: dict) -> dict:
    ell_cal = int(2 * CHAIN_K) + 9            # calibration modes 0..2k+8
    ell_rand = int(2 * CHAIN_K) + 2           # superposition cos 0.., sin 1..
    return {"ucp.chain_propagate.calls": len(CHAIN_EPS),
            "ucp.three_ball_ratio.calls": 4 * ell_cal,
            "modes.mode_field.calls": ell_cal + 2 * ell_rand + 1,
            "assembly.assemble.calls": 1, "spectral.compute_sigma.calls": 1}


# ---------------------------------------------------------------------------
# calderon_box
# ---------------------------------------------------------------------------

def calderon_config(seed: int) -> dict:
    return {"experiment": "calderon",
            "domain": {"kind": "box", "corners": [[0, 0, 0], [1, 1, 1]],
                       "gamma": {"face": "z-"}},
            "medium": {"q": {"profile": "constant", "value": 1.0},
                       "kappa": 1.01},
            "h": 1.0 / 14, "k_list": CALDERON_KS, "seed": seed,
            "params": {"amplitudes": CALDERON_AMPS}}


def calderon_attempted(cfg: dict) -> int:
    return len(CALDERON_KS) * len(CALDERON_AMPS)


def calderon_verify(out: Path, cfg: dict) -> tuple:
    problems, good = [], 0
    for r in read_csv(out / "calderon.csv"):
        if _finite(r["delta"], r["lhs"], r["identity_rel"]) \
                and float(r["identity_rel"]) <= 1e-6:
            good += 1
        else:
            problems.append(f"cell k={r['k']} amp={r['amplitude']}: "
                            f"identity_rel {r['identity_rel']}")
    doc = read_json(out / "calderon_stability.json")
    if not (doc["validated"] and doc["worst_identity_rel"] <= 1e-6
            and doc["n_records"] == calderon_attempted(cfg)):
        problems.append(f"stability check failed: {doc}")
    return good, problems


def calderon_expected_calls(out: Path, cfg: dict) -> dict:
    cells = len(CALDERON_KS) * len(CALDERON_AMPS)
    maps = len(CALDERON_KS) + cells
    return {"calderon.dtn_map.calls": maps, "calderon.dtn_distance.calls": cells,
            "assembly.assemble.calls": maps, "assembly.lu.factorizations": maps,
            "assembly.solve_dirichlet.calls": 2 * cells,
            "geometry.h_half_gram.calls": cells,
            "spectral.compute_sigma.calls": 1}


# ---------------------------------------------------------------------------

WORKLOADS = {
    "runge_convex": dict(config=runge_config, attempted=runge_attempted,
                         verify=runge_verify,
                         expected_calls=runge_expected_calls,
                         unit="sweep cells"),
    "carleman_annulus": dict(config=carleman_config,
                             attempted=carleman_attempted,
                             verify=carleman_verify,
                             expected_calls=carleman_expected_calls,
                             findings=carleman_findings,
                             unit="Carleman samples"),
    "ucp_chain": dict(config=chain_config, attempted=chain_attempted,
                      verify=chain_verify,
                      expected_calls=chain_expected_calls,
                      unit="chain eps-levels"),
    "calderon_box": dict(config=calderon_config, attempted=calderon_attempted,
                         verify=calderon_verify,
                         expected_calls=calderon_expected_calls,
                         unit="Calderon cells"),
}
