"""Config-driven experiment runner.

``lab run <config.json>`` executes one experiment described by a JSON file
and writes CSV/JSON artifacts into the output directory.  Each runner
computes its rows and payloads, then hands them to :func:`write_artifacts`,
the one writer: it builds the run's manifest (config hash, code version,
admissibility constant, and the grid spacing ``h`` where the run has a
grid) and writes every file under it: a CSV file's first line, a JSON
file's ``manifest`` key.  Rows are emitted in deterministic order, and all
randomness is derived from the config seed, so a rerun with the same config
produces byte-identical files.

Commands:
    lab run <config>        run the experiment (exit 0 ok, 1 compute, 2 config)
    lab validate <config>   schema report and the run's own rules on its
                            grid, no solve (exit 2 when it finds a problem)
    lab sigma <config>      spectrum shortcut for the configured domain/medium
"""

from __future__ import annotations

import argparse
import copy
import csv
import dataclasses
import hashlib
import json
import sys
from pathlib import Path

import numpy as np

# ``solve_dirichlet`` is reached through its module: perfbench/selftest.py
# counts the bindings of that function across helmlab.
from . import __version__, assembly
from .assembly import assemble, default_spacing, wavelength_rule
from .bessel import check_bessel_inequalities, optimality_lower_bound
from .calderon import alessandrini_gap, dtn_map, perturbation_record, \
    stability_check
from .carleman import DOMAIN_KIND, adapted_compact_sample, carleman_check, \
    improved_ucp_probe, random_compact_sample, tau_rule
from .errors import ConfigInvalid, HypothesisViolated, LabError, \
    SpectrumTooShort
from .fields import BoundaryTrace, lp_norm, mask_to_gamma, norm, trace_norm
from .geometry import LEVEL_SET_KINDS, SHAPE_KEYS, DomainSpec, \
    boundary_chart, build_grid
from .modes import mode_field, random_mode_superposition
from .profiles import make_medium, medium_fields, profile_from_spec
from .runge import FIT_MIN_CELLS, SCENARIOS, aggregate_median, \
    sweep_and_fit, sweep_grid, sweep_params
from .spectral import C_ADMISSIBILITY, check_admissibility, compute_sigma, \
    count_rule, find_admissible_k, weyl_exponent
from .ucp import ball_rule, chain_propagate, estimate_exponent, \
    three_ball_ratio

# Each experiment's config, stated once: the top-level keys its runner reads
# and its "params", with their defaults (None: ``domain`` is required, ``h``
# resolves ``k_list``, runge_sweep's sweep axes are its scenario's).  Any
# other key is an error, and a params value has the type of its default
# (:func:`_fits`); ``lab run --seed/--out`` set ``seed`` and ``output_dir``.
_EVERYWHERE = {"experiment": None, "params": {}, "seed": 0,
               "output_dir": "out"}
_GRID = {"domain": None, "medium": {}, "h": None, "k_list": [1.0]}
_SWEEP_AXES = {"k_list": None, "epsilon_list": None, "seeds": None}
_EXPERIMENTS = {exp: {**_EVERYWHERE, **row} for exp, row in {
    "spectrum": {**_GRID, "params": {"count": 24}},
    "solve": _GRID,
    "runge_sweep": {**_GRID, **_SWEEP_AXES,
                    "params": {"scenario": "interior", **_SWEEP_AXES}},
    "three_balls": {**_GRID, "params": {
        "r": 0.16, "ell_margin": 8,
        "centers": [[0.0, 0.0], [0.15, 0.05], [-0.2, 0.22], [0.3, 0.0],
                    [0.0, -0.3]]}},
    "chain": {**_GRID, "epsilon_list": [0.2, 0.1, 0.05, 0.025],
              "params": {"r": 0.16}},
    "carleman": {**_GRID, "k_list": [1.0, 2.0, 4.0, 8.0, 16.0, 32.0],
                 "params": {"tau_list": [10.0, 20.0, 40.0, 80.0],
                            "samples_per_cell": 16, "generic_per_cell": 3}},
    "improved_ucp": {**_GRID, "params": {"delta_list": [0.1, 0.2, 0.4],
                                         "ell_span": 24}},
    "bessel_optimality": {"k_list": [2.0],
                          "params": {"n": 2, "ell_list": [12, 16, 20]}},
    "calderon": {**_GRID, "medium": {"kappa": 1.01}, "params": {
        "amplitudes": [0.5, 1.0, 2.0],
        "perturbation": {"profile": "bump", "center": [0.5, 0.5, 0.5],
                         "radius": 0.25}}},
}.items()}

# experiments that run the first frequency of ``k_list`` alone
_ONE_FREQUENCY = ("solve", "chain", "bessel_optimality")
# experiments that run each k of ``k_list`` as given, so the probe grid
# pre-checks k (solve and calderon guard it again at assembly, chain
# assembles with no spectrum); runge_sweep assembles at k moved to an
# admissible value
_AT_K = ("solve", "chain", "calderon")
_ASSEMBLED_AT_K = _AT_K + ("runge_sweep",)
# experiments whose run grid meets the wavelength rule at each k of
# ``k_list``, checked before the run (improved_ucp, runge_sweep: near each)
_RESOLVED_K = _AT_K + ("improved_ucp", "runge_sweep")
# the domain kinds an experiment runs on, where it does not run on every kind
_KINDS = {"chain": LEVEL_SET_KINDS, "carleman": (DOMAIN_KIND,),
          "improved_ucp": (DOMAIN_KIND,)}
# experiments that draw modes.mode_field waves, solutions of
# Delta u + k^2 u = 0: their medium is q = 1 and V = 0 (kappa is free)
_MODE_FIELDS = ("three_balls", "chain")
_FREE_MEDIUM = {"q": {"profile": "constant", "value": 1.0},
                "V": {"profile": "constant", "value": 0.0}}
# layers of the coarse grid of the admissibility pre-check across a
# domain's width, 10 where the kind is not listed
_PROBE_LAYERS = {"disk": 24.0, "annulus": 12.0}


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
    """The spec of a domain section: ``kind``, ``gamma`` (a list is arcs)
    and the keys of its kind (:data:`helmlab.geometry.SHAPE_KEYS`)."""
    kind = dom.get("kind")
    if not isinstance(kind, str) or kind not in SHAPE_KEYS:
        raise ConfigInvalid(f"unknown domain kind {kind!r}")
    unknown = set(dom) - {"kind", "gamma", *SHAPE_KEYS[kind]}
    if unknown:
        raise ConfigInvalid(f"unknown domain keys {sorted(unknown)} for a "
                            f"{kind}; valid: {sorted(SHAPE_KEYS[kind])}")
    if isinstance(dom.get("gamma"), list):
        dom = dict(dom, gamma={"angles": dom["gamma"]})
    return DomainSpec(**dom)


def _fits(value, default) -> bool:
    """Whether ``value`` has the type of ``default``: an integer for an int,
    any number for a float (never a bool), a non-empty list of entries that
    fit its first, an object of entries that fit its own."""
    if isinstance(default, dict):
        return isinstance(value, dict) and all(
            _fits(v, default[key]) for key, v in value.items()
            if key in default)
    if isinstance(default, list):
        return isinstance(value, (list, tuple)) and len(value) > 0 \
            and all(_fits(v, default[0]) for v in value)
    kind = (int, float) if isinstance(default, float) else type(default)
    return isinstance(value, kind) and not isinstance(value, bool)


def _over(default, value):
    """``value`` over ``default``: objects merge key by key, and a whole
    number where the default is a float becomes a float, in lists too."""
    if isinstance(default, dict) and isinstance(value, dict):
        return {**default, **{key: _over(default.get(key), v)
                              for key, v in value.items()}}
    if isinstance(default, list) and isinstance(value, (list, tuple)):
        return [_over(default[0], v) for v in value]
    return float(value) if isinstance(default, float) and _fits(value, 0) \
        else value


def _config(cfg: dict) -> dict:
    """Every key the runner of a valid config reads: the config over its
    experiment's row of :data:`_EXPERIMENTS`."""
    return _over(copy.deepcopy(_EXPERIMENTS[cfg["experiment"]]), cfg)


def validate_config(cfg: dict) -> list:
    """Schema plus assumption report; returns a list of problem strings
    (empty for a valid config).  Keys and values are checked against the
    experiment's row of :data:`_EXPERIMENTS` before anything else."""
    exp = cfg.get("experiment")
    if not isinstance(exp, str) or exp not in _EXPERIMENTS:
        return [f"unknown experiment {exp!r}; valid: {tuple(_EXPERIMENTS)}"]
    row = _EXPERIMENTS[exp]
    problems = []
    unknown = set(cfg) - set(row)
    if unknown:
        problems.append(f"unknown config keys {sorted(unknown)}")
    problems.extend(_value_report(cfg, exp))
    params = cfg.get("params", {})
    if not isinstance(params, dict):
        problems.append("params must be an object")
    elif set(params) - set(row["params"]):
        problems.append(f"unknown params keys "
                        f"{sorted(set(params) - set(row['params']))} for "
                        f"{exp}; valid: {sorted(row['params'])}")
    else:
        problems += [f"params.{key} must have the type of its default, "
                     f"{json.dumps(d)}" for key, v in params.items()
                     if (d := row["params"][key]) is not None
                     and not _fits(v, d)]
        problems += _value_report(params, exp, "params.")
    if problems:
        return problems

    c = _config(cfg)
    spec = None
    if "domain" in row:
        if not isinstance(c["domain"], dict):
            problems.append("domain section required")
        else:
            try:
                spec = domain_from_config(c["domain"])
            except LabError as exc:
                problems.append(f"domain: {exc}")
    if spec is not None and exp in _KINDS and spec.kind not in _KINDS[exp]:
        problems.append(f"{exp} runs on {', '.join(_KINDS[exp])} domains, "
                        f"not on a {spec.kind}")

    med = c.get("medium", {})
    try:
        medium_fields(med)
    except ConfigInvalid as exc:
        return problems + [str(exc)]
    if "V" in med and exp in ("runge_sweep", "calderon"):
        problems.append(f"{exp} sets no medium.V: it sets the potential")
    if exp in _MODE_FIELDS and any(med.get(key, free) != free
                                   for key, free in _FREE_MEDIUM.items()):
        problems.append(f"{exp} draws solutions of Delta u + k^2 u = 0: "
                        f"medium.q must be 1 and medium.V 0")
    if exp in ("carleman", "improved_ucp") and not med.get("monotone"):
        problems.append("experiment requires the radial monotone flag")
    if exp == "carleman" and (c["params"]["samples_per_cell"]
                              + c["params"]["generic_per_cell"] < 1):
        problems.append("carleman needs a sample per (tau, k) cell: "
                        "params.samples_per_cell + params.generic_per_cell "
                        "must be at least 1")

    if exp == "runge_sweep":
        problems += _sweep_report(c, spec, med)
    if spec is not None and not problems:
        problems = _run_report(c, spec)
    if not problems and exp in _AT_K and spec.dim == 2 and "k_list" in cfg:
        problems = _precheck(c, spec)
    return problems


def _value_report(section: dict, exp: str, where: str = "") -> list:
    """Non-empty lists of numbers (integers for ``seeds``), positive
    epsilons, k >= 1 where it is assembled at and one k where one is run,
    ``h`` null or positive, an integer ``seed`` and a string
    ``output_dir``."""
    problems = []
    for key, noun, like in (("k_list", "number", [1.0]),
                            ("epsilon_list", "number", [1.0]),
                            ("seeds", "integer", [0])):
        if key not in section:
            continue
        if not _fits(section[key], like):
            problems.append(f"{where}{key} must be a non-empty list of "
                            f"{noun}s")
        elif key == "epsilon_list" and min(section[key]) <= 0:
            problems.append(f"{where}epsilon_list entries must be positive")
        elif key == "k_list" and exp in _ASSEMBLED_AT_K \
                and min(section[key]) < 1:
            problems.append(f"{where}k_list entries must be at least 1: "
                            f"{exp} assembles the operator at each")
        elif key == "k_list" and exp in _ONE_FREQUENCY \
                and len(section[key]) > 1:
            problems.append(f"{exp} runs one frequency; k_list has "
                            f"{len(section[key])}")
    if section.get("h") is not None and not (_fits(section["h"], 1.0)
                                             and section["h"] > 0):
        problems.append(f"{where}h must be a positive number")
    if "seed" in section and not _fits(section["seed"], 0):
        problems.append(f"{where}seed must be an integer")
    if "output_dir" in section and not _fits(section["output_dir"], ""):
        problems.append(f"{where}output_dir must be a string")
    return problems


def _sweep_report(c: dict, spec, med) -> list:
    """A runge_sweep runs on the domain and medium of its scenario record
    (:data:`helmlab.runge.SCENARIOS`), which the config may restate but not
    change, with the ``FIT_MIN_CELLS`` (k, epsilon, seed) cells of a fit."""
    scenario = c["params"]["scenario"]
    if scenario not in SCENARIOS:
        return [f"unknown scenario {scenario!r}; valid: {tuple(SCENARIOS)}"]
    want_spec, want = SCENARIOS[scenario].domain, SCENARIOS[scenario].medium
    problems = []
    if spec is not None and spec != want_spec:
        names = [f.name for f in dataclasses.fields(spec)
                 if getattr(spec, f.name) != getattr(want_spec, f.name)]
        shown = [", ".join(f"{n}={getattr(d, n)!r}" for n in names)
                 for d in (spec, want_spec)]
        problems.append(f"domain {shown[0]} is not the {scenario} scenario's "
                        f"{shown[1]}")
    for key in want:
        if key in med and med[key] != want[key]:
            problems.append(f"medium.{key} {med[key]!r} is not the {scenario} "
                            f"scenario's; it runs on medium {want}")
    p = _sweep(c)
    cells = len(p["k_list"]) * len(p["epsilon_list"]) * len(p["seeds"])
    if cells < FIT_MIN_CELLS:
        problems.append(f"the sweep's fit needs {FIT_MIN_CELLS} (k, epsilon, "
                        f"seed) cells; it has {cells}")
    return problems


def _problem(check, *args):
    """The message of the LabError ``check(*args)`` raises, else None."""
    try:
        check(*args)
    except LabError as exc:
        return str(exc)


def _run_report(c: dict, spec: DomainSpec) -> list:
    """The run's own rules on its grid and medium (:func:`_setup`, or a
    sweep's ``sweep_grid``): those of ``build_grid``, ``Medium`` and
    ``boundary_chart``, the ``ball_rule`` at each calibration centre, the
    ``wavelength_rule`` at each k of :data:`_RESOLVED_K`, spectrum's
    ``count_rule``, carleman's ``tau_rule`` at each tau and ``calderon``'s
    perturbation profile."""
    exp = c["experiment"]
    r, centers, _ = _calibration(c) if exp in _MODE_FIELDS else (0, [], 0)
    if any(len(x0) != spec.dim for x0 in centers):
        return [f"calibration centres must be {spec.dim}D points"]
    try:
        if exp == "runge_sweep":
            p = _sweep(c)
            grid, medium, _ = sweep_grid(p["scenario"], p)
            k_list = p["k_list"]
        else:
            grid, medium, k_list, _ = _setup(c)
        boundary_chart(grid)
    except LabError as exc:
        return [str(exc)]
    grid._held.clear()    # the chart refers back to the grid: free both
    problems = [f"calibration centre {x0}: {p}" for x0 in centers
                if (p := _problem(ball_rule, grid, x0, r))]
    problems += [p for k in (k_list if exp in _RESOLVED_K else ())
                 if (p := _problem(wavelength_rule, grid, k, medium.kappa))]
    if exp == "calderon" and (p := _problem(
            profile_from_spec, c["params"]["perturbation"], grid.dim)):
        problems.append(f"params.perturbation: {p}")
    if exp == "spectrum" and (p := _problem(count_rule, c["params"]["count"])):
        problems.append(f"params.count: {p}")
    problems += [f"params.tau_list: {p}" for tau in
                 (c["params"]["tau_list"] if exp == "carleman" else ())
                 if (p := _problem(tau_rule, tau))]
    return problems


def _precheck(c: dict, spec: DomainSpec) -> list:
    """A quick admissibility pre-check of the configured frequencies on a
    coarse probe grid (:func:`_probe_spacing`), of those it resolves."""
    med, k_list = c["medium"], c["k_list"]
    try:
        grid = build_grid(spec, _probe_spacing(spec, c["h"]))
        medium = make_medium(grid, med.get("q"), med.get("V"), med.get("kappa"))
        rep = compute_sigma(medium, 24, shifts=tuple(k * k for k in k_list))
    except LabError as exc:
        return [f"spectrum pre-check failed: {exc}"]
    lam = rep.eigenvalues
    problems = []
    for k in k_list:
        try:
            rec = check_admissibility(k, rep)
        except SpectrumTooShort:
            continue
        # flag k inside the probe eigenvalues' discretization band, unless
        # the band covers half the gap around k^2: the probe grid does not
        # resolve k there, and only a guard at assembly can decide
        below, above = lam[lam <= k * k], lam[lam > k * k]
        if below.size and above.size and rec["continuum_guard"] \
                >= 0.5 * (above[0] - below[-1]):
            continue
        slack = max(rec["threshold"], rec["continuum_guard"])
        if rec["dist"] <= slack:
            problems.append(f"k={k} fails the admissibility margin on the "
                            f"probe grid (dist {rec['dist']:.3g} <= "
                            f"{slack:.3g})")
    return problems


def _probe_spacing(spec: DomainSpec, h) -> float:
    """The domain's width over its kind's probe layers, or the ``h`` a
    masked union sets: its corners must align with the spacing."""
    if spec.rectangles and h is not None:
        return h
    return spec.width / _PROBE_LAYERS.get(spec.kind, 10.0)


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
    config hash, code version and admissibility constant plus ``extra``.
    ``(name, columns, rows)`` is a CSV file and ``(name, payload)`` a JSON
    document.  Returns the written paths."""
    man = {"config_sha256": config_hash(cfg), "code_version": __version__,
           "admissibility_c": C_ADMISSIBILITY, **extra}
    return [write_csv(out / name, man, *body) if len(body) == 2
            else write_json(out / name, man, *body)
            for name, *body in artifacts]


# ---------------------------------------------------------------------------
# Experiment runners
# ---------------------------------------------------------------------------

def _setup(c):
    """Grid and medium of a config with its defaults (:func:`_config`).
    Without ``h`` the spacing resolves the largest frequency of ``k_list``
    at the medium's kappa, or at kappa 2 where the medium derives a smaller
    one from q; a derived kappa above 2 takes a second, finer grid."""
    spec = domain_from_config(c["domain"])
    q, v, kappa, monotone = medium_fields(c["medium"])

    def at(kappa_h):
        h = float(c["h"] or min(default_spacing(max(c["k_list"]), kappa_h),
                                _probe_spacing(spec, None) * 1.2))
        grid = build_grid(spec, h)
        return grid, make_medium(grid, q, v, kappa, monotone=monotone), h

    grid, medium, h = at(kappa or 2.0)
    if c["h"] is None and kappa is None and medium.kappa > 2.0:
        grid, medium, h = at(medium.kappa)
    return grid, medium, c["k_list"], h


def run_spectrum(cfg, out: Path) -> list:
    c = _config(cfg)
    _, medium, k_list, h = _setup(c)
    # without a k_list, the smallest eigenvalues
    shifts = tuple(k * k for k in k_list) if "k_list" in cfg else (0.0,)
    rep = compute_sigma(medium, c["params"]["count"], shifts=shifts)
    payload = rep.to_dict()
    try:
        payload["weyl_exponent"] = weyl_exponent(rep)
    except LabError:
        pass
    return write_artifacts(cfg, out, [("spectrum.json", payload)], h=h)


def _random_data(chart, xi: np.ndarray) -> np.ndarray:
    """Boundary data g = (W + L)^-1 W^(1/2) xi, one column for each
    standard normal column of ``xi``, W the diagonal of chart weights and L
    the boundary stiffness: one sparse factor and one verified solve.

    With E the weight-orthonormal Laplace--Beltrami eigenbasis (E E^T =
    W^-1) and W + L = W E (1 + Lambda) E^T W, the covariance of g is
    E (1 + Lambda)^-2 E^T: the law of sum_m c_m e_m with independent
    c_m ~ N(0, (1 + lambda_m)^-2), drawn without the eigenbasis."""
    import scipy.sparse as sp
    w = chart.weights
    B = (sp.diags(w) + chart._surface_stiffness()).tocsc()
    rhs = np.sqrt(w)[:, None] * xi
    return assembly.verified_solve(B, assembly.sparse_lu(B), rhs)


def run_solve(cfg, out: Path) -> list:
    """Dirichlet solve at the one frequency of ``k_list`` with random data on
    gamma (:func:`_random_data` of the seed's standard normal stream);
    writes the nodal field and its L2 and H1 norms."""
    c = _config(cfg)
    grid, medium, k_list, h = _setup(c)
    k = k_list[0]
    rep = compute_sigma(medium, 24, shifts=(k * k,))
    chart = boundary_chart(grid)
    rng = np.random.default_rng(c["seed"])
    gvals = _random_data(chart, rng.standard_normal((chart.n, 1)))[:, 0]
    trace = mask_to_gamma(BoundaryTrace(chart, gvals))
    u = assembly.solve_dirichlet(assemble(medium, k, spectrum=rep), g=trace)
    rows = [dict({f"x{d}": grid.nodes[i, d] for d in range(grid.dim)},
                 value=u.values[i]) for i in range(grid.n_nodes)]
    return write_artifacts(cfg, out, [
        ("field.csv", list(rows[0]), rows),
        ("solve.json", {"l2": norm(u, "L2"), "h1": norm(u, "H1"), "k": k})],
        h=h, k=k, admissibility=check_admissibility(k, rep))


def _sweep(c) -> dict:
    """The :func:`helmlab.runge.sweep_params` of a runge_sweep config: its
    ``params`` sweep axes over its top-level ones, and its ``h``."""
    params = dict(c["params"])
    scenario = params.pop("scenario")
    overrides = {key: v for key, v in [*c.items(), *params.items()]
                 if key in (*_SWEEP_AXES, "h") and v is not None}
    return sweep_params(scenario, **overrides)


def run_runge_sweep(cfg, out: Path) -> list:
    params = _sweep(_config(cfg))
    fit = sweep_and_fit(params["scenario"], params)
    n_seeds = len({r["seed"] for r in fit.records})
    med = aggregate_median(fit.records, by=("k", "epsilon"),
                           key=SCENARIOS[fit.scenario].fit_key,
                           min_count=max(2, n_seeds // 2))
    return write_artifacts(cfg, out, [
        ("runge_records.csv", list(fit.records[0]), fit.records),
        ("runge_fit.json", {"fit": fit.to_dict(), "medians": med})],
        h=fit.records[0]["h"], scenario=fit.scenario)


def _calibration(c) -> tuple:
    """(r, centres, ell margin) of the three-balls calibration: chain's is
    three_balls' default one at its first four centres, with chain's r."""
    p = {**_EXPERIMENTS["three_balls"]["params"], **c["params"]}
    return p["r"], p["centers"][:4 if c["experiment"] == "chain" else None], \
        p["ell_margin"]


def _calibration_triples(grid, c, k_list) -> list:
    """(ell, centre, triple) of each non-degenerate triple of the modes
    ell = 0 .. 2k + margin at each calibration centre, in (k, ell, centre)
    order; validation has checked the ``ball_rule`` at every centre."""
    r, centers, margin = _calibration(c)
    out = []
    for k in k_list:
        for ell in range(int(margin + 2 * k) + 1):
            u = mode_field(grid, ell, k)
            for x0 in centers:
                t = three_ball_ratio(u, x0, r, k)
                if not t.degenerate():
                    out.append((ell, x0, t))
    return out


def run_three_balls(cfg, out: Path) -> list:
    c = _config(cfg)
    grid, _, k_list, h = _setup(c)
    triples = _calibration_triples(grid, c, k_list)
    rows = [{"k": t.k, "ell": ell, "x0": x0[0], "x1": x0[1], "r": t.r,
             "norm_half": t.norm_half, "norm_mid": t.norm_mid,
             "norm_big": t.norm_big} for ell, x0, t in triples]
    fit = estimate_exponent([t for _, _, t in triples])
    return write_artifacts(cfg, out, [
        ("triples.csv", list(rows[0]), rows),
        ("three_balls_fit.json", {
            "alpha_hat": fit.alpha_hat,
            "log_c": {str(k): v for k, v in sorted(fit.intercepts.items())},
            "n_samples": fit.n_samples})], h=h)


def run_chain(cfg, out: Path) -> list:
    c = _config(cfg)
    grid, medium, k_list, h = _setup(c)
    k = k_list[0]
    fit = estimate_exponent(
        [t for _, _, t in _calibration_triples(grid, c, k_list)])

    op = assemble(medium, k)
    chart = boundary_chart(grid)
    rng = np.random.default_rng(c["seed"])
    u = random_mode_superposition(grid, k, int(2 * k) + 2, rng)
    eta = 2.0 * trace_norm(BoundaryTrace(chart, u.values[chart.node_ids]))
    M = norm(u, "H1")
    c_sob = 1.5 * lp_norm(u, 4) / M
    measured = norm(u, "L2")
    rows = []
    for eps in c["epsilon_list"]:
        res = chain_propagate(op, u, eta, M, eps, fit, sobolev_constant=c_sob)
        rows.append({"epsilon": eps, "n_balls": res.n_balls,
                     "n_cover": res.n_cover, "bound": res.bound,
                     "bound_interior": res.bound_interior,
                     "bound_layer": res.bound_layer,
                     "bound_log": res.bound_log,
                     "measured": measured})
    return write_artifacts(cfg, out, [("chain.csv", list(rows[0]), rows)],
                           h=h, k=k, alpha_hat=fit.alpha_hat)


def run_carleman(cfg, out: Path) -> list:
    c = _config(cfg)
    grid, medium, k_list, h = _setup(c)
    taus = c["params"]["tau_list"]
    n_adapted = c["params"]["samples_per_cell"]
    n_generic = c["params"]["generic_per_cell"]
    rng = np.random.default_rng(c["seed"])
    rows = []
    worst = {}
    for tau in taus:
        for k in k_list:
            best = 0.0
            for i in range(n_adapted + n_generic):
                u = (adapted_compact_sample(medium, rng, tau, k)
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
                   for t in taus[:-1] for k in k_list if (2 * t, k) in worst]
    factors_k = [worst[(t, 2 * k)] / worst[(t, k)]
                 for k in k_list[:-1] for t in taus if (t, 2 * k) in worst]
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
    c = _config(cfg)
    _, medium, k_list, h = _setup(c)
    deltas = c["params"]["delta_list"]
    rep = compute_sigma(medium, 40, shifts=tuple(k * k for k in k_list))
    rows = []
    for kt in k_list:
        k = find_admissible_k(rep, kt)
        op = assemble(medium, k, spectrum=rep)
        probes = []
        for ell in range(int(k) + 2, int(k) + c["params"]["ell_span"]):
            try:
                probes.append((ell, improved_ucp_probe(op, ell)))
            except HypothesisViolated:          # 0 < k^3 eta <= M fails
                pass
        rows += [{"k": k, "ell": ell, "delta": delta, "eta": pr.eta,
                  "M": pr.M, "lhs": pr.lhs(delta), "lhs_full": pr.lhs_full,
                  "rhs_log": pr.rhs_log, "rhs_poly": pr.rhs_poly}
                 for delta in deltas for ell, pr in probes]
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
    c = _config(cfg)
    k = c["k_list"][0]
    rows = []
    for ell in c["params"]["ell_list"]:
        rec = optimality_lower_bound(k, ell, n=c["params"]["n"])
        rows.append({"ell": ell, "k": k, "epsilon": rec.epsilon,
                     "min_boundary_norm": rec.min_boundary_norm,
                     "bound_2ell": rec.bound_2ell,
                     "alpha_ell": rec.alpha_ell, "g_l2": rec.g_l2})
    return write_artifacts(cfg, out, [
        ("optimality.csv", list(rows[0]), rows),
        ("bessel_inequalities.json", check_bessel_inequalities())])


def run_calderon(cfg, out: Path) -> list:
    c = _config(cfg)
    grid, medium, k_list, h = _setup(c)
    pert = c["params"]["perturbation"]
    rep = compute_sigma(medium, 20)
    rows, records = [], []
    rng = np.random.default_rng(c["seed"])
    worst_identity = 0.0
    for k in k_list:
        op1 = assemble(medium, k, spectrum=rep)
        d1 = dtn_map(op1)
        for amp in c["params"]["amplitudes"]:
            med2 = make_medium(grid, c["medium"].get("q"),
                               {**pert, "amplitude": amp}, medium.kappa)
            op2 = assemble(med2, k, spectrum=rep)
            d2 = dtn_map(op2)
            rec = perturbation_record(op1, op2, d1, d2)
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
        ("calderon.csv", list(rows[0]), rows),
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
    out = Path(out_dir or _config(cfg)["output_dir"])
    out.mkdir(parents=True, exist_ok=True)
    return _RUNNERS[cfg["experiment"]](cfg, out)


def _sigma_config(cfg: dict) -> dict:
    """The spectrum config of ``lab sigma``: the keys and params of a config,
    validated against its own experiment, that ``spectrum`` reads.  A
    runge_sweep runs on its scenario's medium, copied so that nothing
    downstream can change the shared record."""
    problems = validate_config(cfg)
    if problems:
        raise ConfigInvalid("; ".join(problems))
    row = _EXPERIMENTS["spectrum"]
    out = dict({key: v for key, v in cfg.items() if key in row},
               experiment="spectrum")
    if "params" in cfg:
        out["params"] = {key: v for key, v in cfg["params"].items()
                         if key in row["params"]}
    if cfg["experiment"] == "runge_sweep":
        out["medium"] = copy.deepcopy(
            SCENARIOS[_config(cfg)["params"]["scenario"]].medium)
    return out


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
            return 2 if problems else 0
        if args.command == "sigma":
            cfg = _sigma_config(cfg)
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
