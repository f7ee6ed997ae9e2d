"""Config-driven experiment runner.

``lab run <config.json>`` executes one experiment described by a JSON file
and writes CSV/JSON artifacts into the output directory.  Each runner
computes its rows and payloads, then hands them to :func:`write_artifacts`,
the one writer: it builds the run's manifest (config hash, code version,
grid spacing, admissibility constant) and writes every file under it.  Rows
are emitted in deterministic order, and all randomness is derived from the
config seed, so a rerun with the same config produces byte-identical files.
Every experiment runs serially; ``--workers`` is accepted and ignored.

Commands:
    lab run <config>        run the experiment (exit 0 ok, 1 compute, 2 config)
    lab validate <config>   schema and assumption report, no computation
    lab sigma <config>      spectrum shortcut for the configured domain/medium
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import sys
from pathlib import Path

import numpy as np

# ``solve_dirichlet`` is reached through its module: perfbench/selftest.py
# counts the bindings of that function across helmlab.
from . import __version__, assembly
from .assembly import assemble, default_spacing, radial_derivative
from .bessel import check_bessel_inequalities, optimality_lower_bound
from .calderon import alessandrini_gap, dtn_map, perturbation_record, \
    stability_check
from .carleman import adapted_compact_sample, carleman_check, \
    improved_ucp_probe, random_compact_sample
from .errors import ConfigInvalid, GeometryViolation, HypothesisViolated, \
    LabError, SpectrumTooShort
from .fields import BoundaryTrace, lp_norm, mask_to_gamma, norm, trace_norm
from .geometry import DomainSpec, boundary_chart, build_grid
from .modes import mode_field, random_mode_superposition
from .profiles import make_medium
from .runge import aggregate_median, sweep_and_fit, sweep_params
from .spectral import check_admissibility, compute_sigma, find_admissible_k, \
    weyl_exponent
from .ucp import chain_propagate, estimate_exponent, three_ball_ratio

_TOP_KEYS = {"experiment", "domain", "medium", "k_list", "epsilon_list",
             "seeds", "seed", "output_dir", "admissibility_c", "h",
             "tolerances", "params"}
_DOMAIN_KEYS = {"kind", "radius", "center", "r_inner", "r_outer", "corners",
                "rectangles", "gamma"}
_MEDIUM_KEYS = {"q", "V", "kappa", "monotone"}
_PROFILE_KEYS = {"profile", "value", "amplitude", "center", "radius"}


# ---------------------------------------------------------------------------
# Config handling
# ---------------------------------------------------------------------------

def load_config(path) -> dict:
    try:
        with open(path) as fh:
            cfg = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigInvalid(f"cannot read config: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ConfigInvalid("config must be a JSON object")
    return cfg


def config_hash(cfg: dict) -> str:
    canon = json.dumps(cfg, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()[:16]


def domain_from_config(dom: dict) -> DomainSpec:
    unknown = set(dom) - _DOMAIN_KEYS
    if unknown:
        raise ConfigInvalid(f"unknown domain keys {sorted(unknown)}")
    kind = dom.get("kind")
    gamma = dom.get("gamma", "full")
    if isinstance(gamma, list):
        gamma = {"angles": [tuple(p) for p in gamma]}
    if kind == "disk":
        return DomainSpec.disk(dom["radius"], dom.get("center", (0.0, 0.0)), gamma)
    if kind == "annulus":
        return DomainSpec.annulus(dom["r_inner"], dom["r_outer"],
                                  dom.get("center", (0.0, 0.0)), gamma)
    if kind == "rectangle":
        return DomainSpec.rectangle(*dom["corners"], gamma=gamma)
    if kind == "box":
        return DomainSpec.box(*dom["corners"], gamma=gamma)
    if kind == "masked_union":
        return DomainSpec.masked_union(dom["rectangles"], gamma=gamma)
    raise ConfigInvalid(f"unknown domain kind {kind!r}")


def validate_config(cfg: dict) -> list:
    """Schema plus assumption report; returns a list of problem strings
    (empty for a valid config).  Unknown keys are rejected."""
    problems = []
    unknown = set(cfg) - _TOP_KEYS
    if unknown:
        problems.append(f"unknown config keys {sorted(unknown)}")
    if "k_list" in cfg and (not isinstance(cfg["k_list"], (list, tuple))
                            or not cfg["k_list"]):
        problems.append("k_list must be a non-empty list of frequencies")
    exp = cfg.get("experiment")
    if exp not in _RUNNERS:
        problems.append(f"unknown experiment {exp!r}; valid: {tuple(_RUNNERS)}")
        return problems

    dom = cfg.get("domain")
    spec = None
    if exp not in ("bessel_optimality",):
        if not isinstance(dom, dict):
            problems.append("domain section required")
        else:
            try:
                spec = domain_from_config(dom)
            except (ConfigInvalid, KeyError, LabError) as exc:
                problems.append(f"domain: {exc}")

    med = cfg.get("medium", {})
    if not isinstance(med, dict) or set(med) - _MEDIUM_KEYS:
        problems.append("medium section malformed")
        med = {}
    for side in ("q", "V"):
        prof = med.get(side)
        if prof is not None and (not isinstance(prof, dict)
                                 or set(prof) - _PROFILE_KEYS):
            problems.append(f"medium.{side} profile malformed")

    needs_monotone = exp in ("carleman", "improved_ucp") or \
        (exp == "runge_sweep" and cfg.get("params", {}).get("scenario") == "convex")
    if spec is not None and not problems:
        problems.extend(_assumption_report(cfg, spec, med, needs_monotone))
    return problems


def _assumption_report(cfg, spec, med, needs_monotone) -> list:
    """Sample the medium on a coarse probe grid and check the pinch bounds,
    monotonicity where required, and a quick admissibility pre-check of the
    frequencies the probe grid resolves."""
    problems = []
    h_probe = _probe_spacing(spec)
    try:
        grid = build_grid(spec, h_probe)
    except LabError as exc:
        return [f"probe grid: {exc}"]
    try:
        medium = make_medium(grid, med.get("q"), med.get("V"),
                             med.get("kappa"), monotone=False)
    except LabError as exc:
        return [f"medium violates the pinch bounds: {exc}"]
    kappa = medium.kappa
    qv = medium.q.values
    if np.any(qv <= 0):
        problems.append("q must stay strictly positive")
    if med.get("kappa") is not None:
        if np.any(qv < 1.0 / kappa - 1e-12) or np.any(qv > kappa + 1e-12):
            problems.append(f"q escapes [1/kappa, kappa] with kappa={kappa}")
    if needs_monotone:
        if not med.get("monotone", False):
            problems.append("experiment requires the radial monotone flag")
        elif np.any(radial_derivative(medium.q) < -1e-10):
            problems.append("q is not radially nondecreasing")

    k_list = cfg.get("k_list") or []
    if k_list and spec.kind != "box":
        try:
            rep = compute_sigma(grid, medium, 24,
                                shifts=tuple(float(k) ** 2 for k in k_list))
            c = cfg.get("admissibility_c", 0.01)
            lam = rep.eigenvalues
            for k in k_list:
                try:
                    rec = check_admissibility(float(k), rep, c=c)
                except SpectrumTooShort:
                    continue
                # on the coarse probe grid the eigenvalues themselves carry a
                # discretization displacement; flag anything inside that band.
                # A band as wide as half the gap around k^2 would flag every
                # k in the gap: the probe grid does not resolve k, and the
                # guard on the solve grid decides instead.
                below, above = lam[lam <= k * k], lam[lam > k * k]
                if below.size and above.size and rec["continuum_guard"] \
                        >= 0.5 * (above[0] - below[-1]):
                    continue
                slack = max(rec["threshold"], rec["continuum_guard"])
                if rec["dist"] <= slack:
                    problems.append(
                        f"k={k} fails the admissibility margin on the probe "
                        f"grid (dist {rec['dist']:.3g} <= {slack:.3g})")
        except LabError as exc:
            problems.append(f"spectrum pre-check failed: {exc}")
    return problems


def _probe_spacing(spec: DomainSpec) -> float:
    if spec.kind == "disk":
        return spec.radius / 12.0
    if spec.kind == "annulus":
        return (spec.r_outer - spec.r_inner) / 12.0
    lo = np.asarray(spec.corners[0] if spec.kind in ("rectangle", "box")
                    else spec.rectangles[0][0], float)
    hi = np.asarray(spec.corners[1] if spec.kind in ("rectangle", "box")
                    else spec.rectangles[0][1], float)
    return float(np.min(np.abs(hi - lo))) / 10.0


# ---------------------------------------------------------------------------
# Artifact writing
# ---------------------------------------------------------------------------

def _fmt(v):
    if isinstance(v, (bool, np.bool_)):
        return "true" if v else "false"
    if isinstance(v, (float, np.floating)):
        return repr(float(v))
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    return str(v)


def write_csv(path: Path, manifest: dict, columns: list, rows: list) -> Path:
    with open(path, "w", newline="") as fh:
        fh.write("# manifest: "
                 + json.dumps(manifest, sort_keys=True, separators=(",", ":"))
                 + "\n")
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(columns)
        for row in rows:
            writer.writerow([_fmt(row[c]) for c in columns])
    return path


def write_json(path: Path, manifest: dict, payload: dict) -> Path:
    doc = {"manifest": manifest}
    doc.update(payload)
    with open(path, "w") as fh:
        json.dump(doc, fh, sort_keys=True, indent=2, default=_json_default)
        fh.write("\n")
    return path


def _json_default(v):
    if isinstance(v, (np.floating,)):
        return float(v)
    if isinstance(v, (np.integer,)):
        return int(v)
    if isinstance(v, np.ndarray):
        return v.tolist()
    raise TypeError(f"not JSON serializable: {type(v)}")


def write_artifacts(cfg: dict, out: Path, artifacts: list, **extra) -> list:
    """Write each artifact into ``out``, in order, under one manifest: the
    config hash, code version, admissibility constant and tolerances plus
    ``extra``.  ``(name, columns, rows)`` is a CSV file and ``(name,
    payload)`` a JSON document.  Returns the written paths."""
    man = {"config_sha256": config_hash(cfg), "code_version": __version__,
           "admissibility_c": cfg.get("admissibility_c", 0.01),
           "tolerances": cfg.get("tolerances", {}), **extra}
    return [write_csv(out / name, man, *body) if len(body) == 2
            else write_json(out / name, man, *body)
            for name, *body in artifacts]


# ---------------------------------------------------------------------------
# Experiment runners
# ---------------------------------------------------------------------------

# frequencies the Carleman uniformity scan checks when the config names none
_CARLEMAN_KS = [1.0, 2.0, 4.0, 8.0, 16.0, 32.0]


def _setup(cfg, k_default=(1.0,), kappa_default=None):
    """Grid and medium of the config.  Without ``h`` the spacing resolves the
    largest frequency of ``k_list``, or of ``k_default`` if it has none."""
    spec = domain_from_config(cfg["domain"])
    med = cfg.get("medium", {})
    k_list = [float(k) for k in cfg.get("k_list", k_default)]
    kappa = med.get("kappa", kappa_default)
    h = cfg.get("h")
    if h is None:
        h = min(default_spacing(max(k_list), kappa if kappa else 2.0),
                _probe_spacing(spec) * 1.2)
    grid = build_grid(spec, float(h))
    medium = make_medium(grid, med.get("q"), med.get("V"), kappa,
                         monotone=med.get("monotone", False))
    return grid, medium, k_list, float(h)


def run_spectrum(cfg, out: Path) -> list:
    grid, medium, k_list, h = _setup(cfg)
    count = int(cfg.get("params", {}).get("count", 24))
    shifts = tuple(k * k for k in k_list) if cfg.get("k_list") else (0.0,)
    rep = compute_sigma(grid, medium, count, shifts=shifts,
                        c_admissibility=cfg.get("admissibility_c", 0.01))
    payload = rep.to_dict()
    try:
        payload["weyl_exponent"] = weyl_exponent(rep)
    except LabError:
        pass
    return write_artifacts(cfg, out, [("spectrum.json", payload)], h=h)


def run_solve(cfg, out: Path) -> list:
    grid, medium, k_list, h = _setup(cfg)
    k = k_list[0]
    rep = compute_sigma(grid, medium, 24, shifts=(k * k,),
                        c_admissibility=cfg.get("admissibility_c", 0.01))
    chart = boundary_chart(grid)
    params = cfg.get("params", {})
    rng = np.random.default_rng(int(cfg.get("seed", 0)))
    lam, E = chart.modal()
    coeff = rng.standard_normal(lam.size) * (1.0 + lam) ** (-float(
        params.get("data_decay", 1.0)))
    gvals = chart.synthesize(coeff)
    trace = mask_to_gamma(BoundaryTrace(chart, gvals))
    u = assembly.solve_dirichlet(assemble(grid, medium, k), g=trace,
                                 spectrum=rep)
    cols = [f"x{d}" for d in range(grid.dim)] + ["value"]
    rows = [dict({f"x{d}": grid.nodes[i, d] for d in range(grid.dim)},
                 value=u.values[i]) for i in range(grid.n_nodes)]
    return write_artifacts(cfg, out, [
        ("field.csv", cols, rows),
        ("solve.json", {"l2": norm(u, "L2"), "h1": norm(u, "H1"), "k": k})],
        h=h, k=k, admissibility=check_admissibility(k, rep))


def run_runge_sweep(cfg, out: Path) -> list:
    params = dict(cfg.get("params", {}))
    scenario = params.pop("scenario", "interior")
    overrides = {}
    if cfg.get("k_list"):
        overrides["k_list"] = tuple(float(k) for k in cfg["k_list"])
    if cfg.get("epsilon_list"):
        overrides["epsilon_list"] = tuple(float(e) for e in cfg["epsilon_list"])
    if cfg.get("seeds") is not None:
        overrides["seeds"] = tuple(int(s) for s in cfg["seeds"])
    if cfg.get("h"):
        overrides["h"] = float(cfg["h"])
    overrides.update(params)
    fit = sweep_and_fit(scenario, sweep_params(scenario, **overrides))
    h = fit.records[0]["h"] if fit.records else None
    cols = ["scenario", "k", "epsilon", "seed", "alpha", "err", "cost",
            "cost_rel", "v_norm_h1", "v_l2", "admissible_margin", "h",
            "n_retained", "residue"]
    key = "cost_rel" if scenario == "convex" else "cost"
    n_seeds = len({r["seed"] for r in fit.records}) if fit.records else 0
    med = aggregate_median(fit.records, by=("k", "epsilon"), key=key,
                           min_count=max(2, n_seeds // 2))
    return write_artifacts(cfg, out, [
        ("runge_records.csv", cols, fit.records),
        ("runge_fit.json", {"fit": fit.to_dict(), "medians": med})],
        h=h, scenario=scenario)


def run_three_balls(cfg, out: Path) -> list:
    grid, medium, k_list, h = _setup(cfg)
    params = cfg.get("params", {})
    r = float(params.get("r", 0.16))
    centers = params.get("centers",
                         [[0.0, 0.0], [0.15, 0.05], [-0.2, 0.22],
                          [0.3, 0.0], [0.0, -0.3]])
    rows, samples = [], []
    for k in k_list:
        ell_max = int(params.get("ell_margin", 8) + 2 * k)
        for ell in range(0, ell_max + 1):
            u = mode_field(grid, ell, k)
            for c in centers:
                try:
                    t = three_ball_ratio(u, c, r, k)
                except GeometryViolation:
                    continue
                if t.degenerate():
                    continue
                samples.append(t)
                rows.append({"k": k, "ell": ell, "x0": c[0], "x1": c[1],
                             "r": r, "norm_half": t.norm_half,
                             "norm_mid": t.norm_mid, "norm_big": t.norm_big})
    fit = estimate_exponent(samples)
    return write_artifacts(cfg, out, [
        ("triples.csv", ["k", "ell", "x0", "x1", "r", "norm_half", "norm_mid",
                         "norm_big"], rows),
        ("three_balls_fit.json", {
            "alpha_hat": fit.alpha_hat,
            "log_c": {str(k): v for k, v in sorted(fit.intercepts.items())},
            "n_samples": fit.n_samples})], h=h)


def run_chain(cfg, out: Path) -> list:
    grid, medium, k_list, h = _setup(cfg)
    k = k_list[0]
    params = cfg.get("params", {})
    eps_list = [float(e) for e in cfg.get("epsilon_list", [0.2, 0.1, 0.05, 0.025])]

    samples = []
    for ell in range(0, int(2 * k) + 9):
        u = mode_field(grid, ell, k)
        for c in [[0.0, 0.0], [0.15, 0.05], [-0.2, 0.22], [0.3, 0.0]]:
            t = three_ball_ratio(u, c, float(params.get("r", 0.16)), k)
            if not t.degenerate():
                samples.append(t)
    fit = estimate_exponent(samples)

    op = assemble(grid, medium, k)
    chart = boundary_chart(grid)
    rng = np.random.default_rng(int(cfg.get("seed", 0)))
    u = random_mode_superposition(grid, k, int(2 * k) + 2, rng)
    eta = 2.0 * trace_norm(BoundaryTrace(chart, u.values[chart.node_ids]), 0.5)
    M = norm(u, "H1")
    c_sob = 1.5 * lp_norm(u, 4) / M
    measured = norm(u, "L2")
    rows = []
    for eps in eps_list:
        res = chain_propagate(op, chart, u, eta, M, eps, fit,
                              sobolev_constant=c_sob)
        rows.append({"epsilon": eps, "n_balls": res.n_balls,
                     "n_cover": res.n_cover, "bound": res.bound,
                     "bound_interior": res.bound_interior,
                     "bound_layer": res.bound_layer,
                     "bound_log": res.bound_log,
                     "measured": measured})
    return write_artifacts(cfg, out, [
        ("chain.csv", ["epsilon", "n_balls", "n_cover", "bound",
                       "bound_interior", "bound_layer", "bound_log",
                       "measured"], rows)],
        h=h, k=k, alpha_hat=fit.alpha_hat)


def run_carleman(cfg, out: Path) -> list:
    grid, medium, k_list, h = _setup(cfg, k_default=_CARLEMAN_KS)
    params = cfg.get("params", {})
    taus = [float(t) for t in params.get("tau_list", [10, 20, 40, 80])]
    ks = k_list or _CARLEMAN_KS
    n_adapted = int(params.get("samples_per_cell", 16))
    n_generic = int(params.get("generic_per_cell", 3))
    rng = np.random.default_rng(int(cfg.get("seed", 0)))
    rows = []
    worst = {}
    for tau in taus:
        for k in ks:
            best = 0.0
            for i in range(n_adapted + n_generic):
                u = (adapted_compact_sample(grid, medium, rng, tau, k)
                     if i < n_adapted else random_compact_sample(grid, rng))
                s = carleman_check(u, medium, k, tau)
                best = max(best, s.ratio)
                rows.append({"tau": tau, "k": k, "sample": i,
                             "lhs_tau": s.lhs_terms[0],
                             "lhs_grad": s.lhs_terms[1],
                             "lhs_freq": s.lhs_terms[2],
                             "rhs_f": s.rhs_terms[0],
                             "rhs_div": s.rhs_terms[1],
                             "ratio": s.ratio})
            worst[(tau, k)] = best
    factors_tau = [worst[(2 * t, k)] / worst[(t, k)]
                   for t in taus[:-1] for k in ks if (2 * t, k) in worst]
    factors_k = [worst[(t, 2 * k)] / worst[(t, k)]
                 for k in ks[:-1] for t in taus if (t, 2 * k) in worst]
    return write_artifacts(cfg, out, [
        ("carleman_samples.csv", ["tau", "k", "sample", "lhs_tau", "lhs_grad",
                                  "lhs_freq", "rhs_f", "rhs_div", "ratio"],
         rows),
        ("carleman_uniformity.json", {
            "max_ratio": {f"{t:g},{k:g}": v for (t, k), v in
                          sorted(worst.items())},
            "tau_doubling_factors": factors_tau,
            "k_doubling_factors": factors_k,
            "n_samples": len(rows)})], h=h)


def run_improved_ucp(cfg, out: Path) -> list:
    grid, medium, k_list, h = _setup(cfg)
    params = cfg.get("params", {})
    deltas = [float(d) for d in params.get("delta_list", [0.1, 0.2, 0.4])]
    rep = compute_sigma(grid, medium, 40,
                        shifts=tuple(k * k for k in k_list),
                        c_admissibility=cfg.get("admissibility_c", 0.01))
    rows = []
    for kt in k_list:
        k = find_admissible_k(rep, kt)
        op = assemble(grid, medium, k)
        for delta in deltas:
            for ell in range(int(k) + 2, int(k) + int(params.get("ell_span", 24))):
                try:
                    pr = improved_ucp_probe(op, k, delta, ell=ell, spectrum=rep)
                except HypothesisViolated:
                    continue
                rows.append({"k": k, "ell": ell, "delta": delta,
                             "eta": pr.eta, "M": pr.M, "lhs": pr.lhs,
                             "lhs_full": pr.lhs_full, "rhs_log": pr.rhs_log,
                             "rhs_poly": pr.rhs_poly})
    # per-delta exponent fit of log(lhs/M) on log(k^3 eta / M)
    fits = {}
    for delta in deltas:
        sub = [r for r in rows if r["delta"] == delta and r["lhs"] > 0]
        if len(sub) >= 3:
            x = np.log([r["k"] ** 3 * r["eta"] / r["M"] for r in sub])
            y = np.log([r["lhs"] / r["M"] for r in sub])
            fits[str(delta)] = float(np.polyfit(x, y, 1)[0])
    return write_artifacts(cfg, out, [
        ("improved_ucp.csv", ["k", "ell", "delta", "eta", "M", "lhs",
                              "lhs_full", "rhs_log", "rhs_poly"], rows),
        ("improved_ucp_fit.json", {"nu_hat_per_delta": fits})], h=h)


def run_bessel_optimality(cfg, out: Path) -> list:
    params = cfg.get("params", {})
    k = float(cfg.get("k_list", [2.0])[0])
    n = int(params.get("n", 2))
    ells = [int(e) for e in params.get("ell_list", [12, 16, 20])]
    rows = []
    for ell in ells:
        rec = optimality_lower_bound(k, ell, n=n)
        rows.append({"ell": ell, "k": k, "epsilon": rec.epsilon,
                     "min_boundary_norm": rec.min_boundary_norm,
                     "bound_2ell": rec.bound_2ell,
                     "alpha_ell": rec.alpha_ell, "g_l2": rec.g_l2})
    return write_artifacts(cfg, out, [
        ("optimality.csv", ["ell", "k", "epsilon", "min_boundary_norm",
                            "bound_2ell", "alpha_ell", "g_l2"], rows),
        ("bessel_inequalities.json", check_bessel_inequalities())])


def run_calderon(cfg, out: Path) -> list:
    grid, medium, k_list, h = _setup(cfg, kappa_default=1.01)
    params = cfg.get("params", {})
    amplitudes = [float(a) for a in params.get("amplitudes", [0.5, 1.0, 2.0])]
    pert = params.get("perturbation",
                      {"profile": "bump", "center": [0.5, 0.5, 0.5],
                       "radius": 0.25})
    chart = boundary_chart(grid)
    rep = compute_sigma(grid, medium, 20,
                        c_admissibility=cfg.get("admissibility_c", 0.01))
    rows, records = [], []
    rng = np.random.default_rng(int(cfg.get("seed", 0)))
    worst_identity = 0.0
    for k in k_list:
        op1 = assemble(grid, medium, k)
        d1 = dtn_map(op1, chart, spectrum=rep)
        for amp in amplitudes:
            vspec = dict(pert)
            vspec["amplitude"] = amp
            vspec.setdefault("profile", "bump")
            med2 = make_medium(grid, cfg.get("medium", {}).get("q"),
                               vspec, medium.kappa)
            op2 = assemble(grid, med2, k)
            d2 = dtn_map(op2, chart, spectrum=rep)
            rec = perturbation_record(op1, op2, d1, d2, amp)
            records.append(rec)
            g1 = rng.standard_normal(d1.gamma_ids.size)
            g2 = rng.standard_normal(d1.gamma_ids.size)
            vol, bnd = alessandrini_gap(d1, d2, g1, g2)
            ident = abs(vol - bnd) / max(abs(vol), 1e-300)
            worst_identity = max(worst_identity, ident)
            rows.append({"k": k, "amplitude": amp, "delta": rec.delta,
                         "lhs": rec.lhs, "identity_rel": ident})
    result = stability_check(records, n=grid.dim)
    return write_artifacts(cfg, out, [
        ("calderon.csv", ["k", "amplitude", "delta", "lhs", "identity_rel"],
         rows),
        ("calderon_stability.json", {
            "best_C": result["best_C"], "validated": result["validated"],
            "worst_identity_rel": worst_identity, "n_records": len(records)})],
        h=h)


_RUNNERS = {
    "spectrum": run_spectrum,
    "solve": run_solve,
    "runge_sweep": run_runge_sweep,
    "three_balls": run_three_balls,
    "chain": run_chain,
    "carleman": run_carleman,
    "improved_ucp": run_improved_ucp,
    "bessel_optimality": run_bessel_optimality,
    "calderon": run_calderon,
}


def run_experiment(cfg: dict, out_dir=None, workers: int = 1) -> list:
    """Validate, run, and write artifacts; returns the written paths.

    ``workers`` is accepted and ignored: every experiment runs serially."""
    problems = validate_config(cfg)
    if problems:
        raise ConfigInvalid("; ".join(problems))
    out = Path(out_dir or cfg.get("output_dir", "out"))
    out.mkdir(parents=True, exist_ok=True)
    return _RUNNERS[cfg["experiment"]](cfg, out)


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="lab", description="Helmholtz continuation laboratory")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("run", "validate", "sigma"):
        p = sub.add_parser(name)
        p.add_argument("config")
        p.add_argument("--workers", type=int, default=1,
                       help="accepted and ignored; experiments run serially")
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--out", default=None)
    args = parser.parse_args(argv)

    try:
        cfg = load_config(args.config)
        if args.seed is not None:
            cfg["seed"] = args.seed
        if args.command == "validate":
            problems = validate_config(cfg)
            for p in problems:
                print(f"problem: {p}")
            print("valid" if not problems else f"{len(problems)} problem(s)")
            return 0
        if args.command == "sigma":
            cfg = dict(cfg)
            cfg["experiment"] = "spectrum"
        paths = run_experiment(cfg, out_dir=args.out)
        for p in paths:
            print(p)
        return 0
    except ConfigInvalid as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except LabError as exc:
        print(f"compute error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
