"""Boundary-to-interior solution map, its singular system, and cutoff
approximants.

The map sends supported boundary data on the sub-boundary to the restriction
of the global Dirichlet solution to an interior region.  Its adjoint has a
PDE realization: solve with the interior field as a source, take the weak
Neumann trace on the sub-boundary, and apply the restricted Riesz map; with
the symmetric assembly both routes agree to solver precision, which is the
module's flagship cross-check.

The singular system is taken in the honest discrete norms (spectral trace
inner product on the sub-boundary, quadrature weights on the interior region)
via symmetric square-root transforms, so the cutoff approximant built from
the leading singular directions satisfies the exact cost identity
cost^2 = sum beta_j^2 / mu_j and the bound cost <= ||v|| / alpha.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .assembly import (DiscreteOperator, default_spacing, mask_dirichlet_ring,
                       mask_flux_pairing, resonance_guard, solve_dirichlet,
                       verified_solve, weak_neumann_trace)
from .errors import GeometryViolation, InsufficientAdmissibleK, TargetUnreachable
from .fields import BoundaryTrace, GridField, norm, riesz_map, spd_inverse_sqrt
from .geometry import BoundaryChart, check_nested_separation, mask_connected


# ---------------------------------------------------------------------------
# Forward map
# ---------------------------------------------------------------------------

# gamma columns solved together; a multiple of the residual block of
# ``verified_solve``, so that refinement sees the same column blocks
_FORWARD_BLOCK = 64


@dataclass
class ForwardMap:
    """Dense matrix of the data-to-restriction map with its two Grams."""

    op: DiscreteOperator
    chart: BoundaryChart
    omega1_ids: np.ndarray          # interior node ids of the target region
    gamma_ids: np.ndarray           # node ids of the supported sub-boundary
    A: np.ndarray                   # (n_omega1, n_gamma)
    gram_gamma: np.ndarray          # trace Gram on gamma nodal values
    wx: np.ndarray                  # quadrature weights on omega1 nodes

    @property
    def k(self) -> float:
        return self.op.k

    def gamma_positions(self) -> np.ndarray:
        return self.chart.positions(self.gamma_ids)

    def restrict(self, f: GridField) -> np.ndarray:
        return f.values[self.omega1_ids]

    def trace_from_gamma(self, gvals: np.ndarray) -> BoundaryTrace:
        vals = np.zeros(self.chart.n)
        vals[self.gamma_positions()] = gvals
        return BoundaryTrace(self.chart, vals)


def build_forward_map(op: DiscreteOperator, omega1_mask: np.ndarray,
                      chart: BoundaryChart, spectrum=None,
                      min_layers: int = 4) -> ForwardMap:
    """One Dirichlet solve per supported-boundary basis function.

    Verifies that the complement of the target region is connected and that
    the target keeps a positive separation from the charted boundary.  When a
    spectrum report is passed the frequency is required to be admissible.
    """
    grid = op.grid
    resonance_guard(op, spectrum)
    if not mask_connected(grid, ~omega1_mask):
        raise GeometryViolation("complement of the target region is disconnected")
    # an uncharted inner boundary may touch the region; its data is pinned
    check_nested_separation(grid, omega1_mask, min_layers,
                            boundary_ids=chart.node_ids)

    omega1_ids = np.intersect1d(np.flatnonzero(omega1_mask), grid.interior_index)
    gamma_ids = np.sort(chart.gamma_ids())

    bpos = np.searchsorted(grid.boundary_index, gamma_ids)
    ipos = np.searchsorted(grid.interior_index, omega1_ids)
    # a block of columns at a time: the dense right-hand sides and interior
    # solutions never exist for all of gamma at once, only A does
    lu = op.lu()
    A = np.empty((ipos.size, bpos.size))
    for start in range(0, bpos.size, _FORWARD_BLOCK):
        cols = slice(start, start + _FORWARD_BLOCK)
        rhs = -op.L_IB[:, bpos[cols]].toarray()
        A[:, cols] = verified_solve(op.L_II, lu, rhs)[ipos]

    gram_gamma = chart.h_half_gram(chart.positions(gamma_ids))
    wx = grid.quad_weights[omega1_ids]
    return ForwardMap(op=op, chart=chart, omega1_ids=omega1_ids,
                      gamma_ids=gamma_ids, A=A, gram_gamma=gram_gamma, wx=wx)


def adjoint_apply(fmap: ForwardMap, u_vals: np.ndarray) -> BoundaryTrace:
    """Adjoint by the PDE route: solve with the region-supported source, take
    the weak Neumann trace, and Riesz-represent it on the sub-boundary."""
    src = np.zeros(fmap.op.grid.n_nodes)
    src[fmap.omega1_ids] = u_vals
    f = GridField(fmap.op.grid, src)
    w = solve_dirichlet(fmap.op, f=f)
    ell = weak_neumann_trace(fmap.op, w, f=f)
    return riesz_map(ell, gamma=fmap.chart.gamma_mask)


def adjoint_apply_matrix(fmap: ForwardMap, u_vals: np.ndarray) -> BoundaryTrace:
    """Gram-weighted transpose oracle for the adjoint cross-check."""
    rhs = fmap.A.T @ (fmap.wx * u_vals)
    z = np.linalg.solve(fmap.gram_gamma, rhs)
    return fmap.trace_from_gamma(z)


def trace_inner(fmap: ForwardMap, s: BoundaryTrace, t: BoundaryTrace) -> float:
    """Order-1/2 inner product of two gamma-supported traces."""
    pos = fmap.gamma_positions()
    return float(s.values[pos] @ fmap.gram_gamma @ t.values[pos])


# ---------------------------------------------------------------------------
# Singular system
# ---------------------------------------------------------------------------

@dataclass
class SvdSystem:
    """Gram-weighted singular system: A phi_j = mu_j^(1/2) psi_j with phi
    orthonormal in the boundary trace norm and psi in the region L2 norm."""

    fmap: ForwardMap
    mu: np.ndarray                  # descending
    phi: np.ndarray                 # (n_gamma, m) nodal values on gamma
    psi: np.ndarray                 # (n_omega1, m)

    @property
    def singular_values(self) -> np.ndarray:
        return np.sqrt(self.mu)


def svd(fmap: ForwardMap) -> SvdSystem:
    G_half_inv = spd_inverse_sqrt(fmap.gram_gamma)
    sqw = np.sqrt(fmap.wx)
    At = sqw[:, None] * fmap.A @ G_half_inv
    U, s, Vt = np.linalg.svd(At, full_matrices=False)
    phi = G_half_inv @ Vt.T
    psi = U / sqw[:, None]
    return SvdSystem(fmap=fmap, mu=s ** 2, phi=phi, psi=psi)


# ---------------------------------------------------------------------------
# Cutoff approximants
# ---------------------------------------------------------------------------

@dataclass
class RungeApproximant:
    alpha: float
    g_alpha: BoundaryTrace
    u_alpha: GridField
    err: float                      # measured ||u_alpha - v|| on the region
    err_parseval: float             # discarded-mode tail
    cost: float                     # boundary trace norm of g_alpha
    beta: np.ndarray
    residue: float                  # out-of-span component of v
    n_retained: int


def expand(system: SvdSystem, v_vals: np.ndarray):
    beta = system.psi.T @ (system.fmap.wx * v_vals)
    proj = system.psi @ beta
    residue = math.sqrt(max(float(np.sum(system.fmap.wx * (v_vals - proj) ** 2)),
                            0.0))
    return beta, residue


def runge_approximate(system: SvdSystem, v: GridField, epsilon: float,
                      v_h1: float, alpha: Optional[float] = None,
                      spectrum=None) -> RungeApproximant:
    """Largest cutoff whose discarded-mode error (plus the out-of-span
    residue) stays within epsilon * v_h1.

    ``v`` must carry the target region in its mask; ``v_h1`` is the reference
    norm multiplying epsilon.  Passing ``alpha`` forces the cutoff instead.
    Raises :class:`TargetUnreachable` when full retention cannot meet the
    budget.
    """
    if epsilon <= 0:
        raise TargetUnreachable("epsilon must be positive", "epsilon")
    fmap = system.fmap
    v_vals = v.values[fmap.omega1_ids]
    beta, residue = expand(system, v_vals)
    sv = system.singular_values

    tails = np.sqrt(np.cumsum((beta ** 2)[::-1])[::-1])  # tails[j] = ||beta[j:]||
    tails = np.append(tails, 0.0)

    if alpha is not None:
        n_keep = int(np.sum(sv >= alpha))
    else:
        budget = epsilon * v_h1
        if math.hypot(residue, 0.0) > budget:
            raise TargetUnreachable(
                f"out-of-span residue {residue:.3e} exceeds budget {budget:.3e}",
                "residue")
        errs = np.hypot(tails, residue)
        n_keep = int(np.argmax(errs <= budget))
        if errs[n_keep] > budget:
            raise TargetUnreachable("no admissible cutoff", "cutoff")
        alpha = sv[n_keep - 1] if n_keep >= 1 else 2.0 * sv[0]

    kept = slice(0, n_keep)
    if n_keep:
        gvals = system.phi[:, kept] @ (beta[kept] / sv[kept])
        cost = math.sqrt(float(np.sum(beta[kept] ** 2 / system.mu[kept])))
    else:
        gvals = np.zeros(fmap.gamma_ids.size)
        cost = 0.0
    g_alpha = fmap.trace_from_gamma(gvals)
    u_alpha = solve_dirichlet(fmap.op, g=g_alpha, spectrum=spectrum)

    diff = u_alpha.values[fmap.omega1_ids] - v_vals
    err = math.sqrt(float(np.sum(fmap.wx * diff ** 2)))
    return RungeApproximant(alpha=float(alpha), g_alpha=g_alpha, u_alpha=u_alpha,
                            err=err, err_parseval=float(tails[n_keep]),
                            cost=cost, beta=beta, residue=residue,
                            n_retained=n_keep)


def truncation_energy_identity(fmap: ForwardMap, v: GridField,
                               approx: RungeApproximant) -> tuple:
    """Both sides of the discarded-energy identity: the quadrature value of
    ||v - u_alpha||^2 on the region against the flux pairing of v with the
    source solution driven by the discarded part.

    Exact (to solver tolerance) whenever v solves the equation on a
    neighbourhood of the region, e.g. when it was produced on a strictly
    larger submesh.
    """
    grid = fmap.op.grid
    mask = np.zeros(grid.n_nodes, dtype=bool)
    mask[fmap.omega1_ids] = True

    v_alpha = np.zeros(grid.n_nodes)
    v_alpha[fmap.omega1_ids] = (v.values[fmap.omega1_ids]
                                - approx.u_alpha.values[fmap.omega1_ids])
    lhs = float(np.sum(grid.quad_weights[fmap.omega1_ids]
                       * v_alpha[fmap.omega1_ids] ** 2))

    w_alpha = solve_dirichlet(fmap.op, f=GridField(grid, v_alpha))
    rhs = mask_flux_pairing(fmap.op, v.values, w_alpha.values, mask)
    return lhs, rhs


# ---------------------------------------------------------------------------
# Random solutions on submeshes
# ---------------------------------------------------------------------------

class MaskSolutionBasis:
    """Per-angular-mode solution basis on a submesh, reusable across draws.

    Solves once per Fourier mode of the free Dirichlet ring (ring nodes on
    the global boundary keep zero data, realizing pinned side conditions) and
    normalizes each modal response on ``normalize_region`` (default: the
    mask).  Per-mode normalization keeps accidental near-resonances of the
    submesh from collapsing the random family onto one mode.
    """

    def __init__(self, op: DiscreteOperator, mask: np.ndarray,
                 m_max: Optional[int] = None,
                 normalize_region: Optional[np.ndarray] = None):
        from .assembly import solve_on_mask_multi
        grid = op.grid
        ring = mask_dirichlet_ring(op, mask)
        gb = grid.is_boundary_mask()
        free = np.flatnonzero(ring & ~gb)
        if free.size == 0:
            raise GeometryViolation("mask ring has no free nodes")
        ring_ids = np.flatnonzero(ring)
        free_pos = np.searchsorted(ring_ids, free)

        pts = grid.nodes[free]
        center = pts.mean(axis=0)
        ang = np.arctan2(pts[:, 1] - center[1], pts[:, 0] - center[0])
        n = free.size
        if m_max is None:
            m_max = min(n // 2 - 1, 80)

        cols = [np.ones(n)]
        for m in range(1, m_max + 1):
            cols.append(np.cos(m * ang))
            cols.append(np.sin(m * ang))
        data = np.zeros((ring_ids.size, len(cols)))
        data[free_pos, :] = np.column_stack(cols)

        sols = solve_on_mask_multi(op, mask, data)
        region = mask if normalize_region is None else normalize_region
        w = grid.quad_weights * region
        norms = np.sqrt(np.einsum("n,nc->c", w, sols ** 2))
        ok = norms > 1e-13 * norms.max()
        self.grid = grid
        self.mask = mask.copy()
        self.solutions = sols[:, ok] / norms[ok]
        self.mode_orders = np.concatenate(
            [[0], np.repeat(np.arange(1, m_max + 1), 2)])[ok]

    def sample(self, rng: np.random.Generator, decay: float = 1.5,
               amplitude: str = "normal") -> GridField:
        """Random combination with coefficients (1+m)^(-decay), scaled to
        unit H1 norm on the mask.

        ``amplitude="normal"`` draws Gaussian magnitudes; ``"signs"`` keeps
        the deterministic envelope and randomizes signs only, which removes
        most of the truncation-depth jitter in sweep medians.
        """
        if amplitude == "normal":
            draw = rng.standard_normal(self.solutions.shape[1])
        elif amplitude == "signs":
            draw = rng.choice([-1.0, 1.0], size=self.solutions.shape[1])
        else:
            raise ValueError(f"unknown amplitude mode {amplitude!r}")
        coef = draw * (1.0 + self.mode_orders) ** (-decay)
        vals = self.solutions @ coef
        u = GridField(self.grid, vals, self.mask.copy())
        h1 = norm(u, "H1", self.mask)
        if h1 == 0:
            raise GeometryViolation("degenerate random solution")
        return GridField(self.grid, vals / h1, self.mask.copy())


# ---------------------------------------------------------------------------
# Sweeps and exponent fits
# ---------------------------------------------------------------------------

@dataclass
class FitReport:
    scenario: str
    exponents: dict
    r2: float
    n_cells: int
    records: list = field(default_factory=list)
    dropped: list = field(default_factory=list)

    def to_dict(self) -> dict:
        return {"scenario": self.scenario, "exponents": self.exponents,
                "r2": self.r2, "n_cells": self.n_cells,
                "dropped": self.dropped}


_SCENARIO_DEFAULTS = {
    # family smoothness, amplitude mode, budget reference, geometry
    "boundary": dict(decay=1.5, amplitude="normal", budget="h1",
                     k_list=(3.2,), epsilon_list=tuple(2.0 ** -i for i in range(1, 9)),
                     h_cap=0.025),
    "interior": dict(decay=1.25, amplitude="normal", budget="h1",
                     k_list=(3.2,), epsilon_list=tuple(2.0 ** -i for i in range(1, 9)),
                     h_cap=0.025),
    "convex": dict(decay=2.0, amplitude="signs", budget="l2",
                   k_list=tuple(float(k) for k in np.geomspace(2.0, 16.0, 8)),
                   epsilon_list=(0.05,), h_cap=0.06),
}


def sweep_params(scenario: str, **overrides) -> dict:
    """Sweep configuration with tuned per-scenario defaults.

    * ``boundary``: target prescribed on the approximation region itself
      (disk pair); cost grows faster than any power of 1/eps.
    * ``interior``: target solves on a strictly larger submesh; polynomial
      cost in 1/eps.
    * ``convex``: annulus with a radially monotone profile, data on the
      outer circle, pinned inner circle; polynomial cost in k.  The error
      budget is referenced to the region L2 norm: with the H1 reference and
      a fixed epsilon every solution family trivializes (cost 0) once
      k >~ 1/eps, since ||v||_L2(region) <= C ||v||_H1 / k.
    """
    if scenario not in _SCENARIO_DEFAULTS:
        raise ValueError(f"unknown scenario {scenario!r}")
    params = dict(_SCENARIO_DEFAULTS[scenario])
    params.update(scenario=scenario, seeds=tuple(range(8)),
                  c_admissibility=0.01)
    params.update(overrides)
    return params


def sweep_and_fit(scenario: str, params: Optional[dict] = None) -> FitReport:
    """Run the (epsilon, k) sweep for one scenario and fit its exponents.

    One shared grid (resolved for the largest frequency) carries all cells;
    frequencies are snapped to admissible values near the requested targets
    (kept when the margin is already 3x the threshold, moved to the gap
    midpoint otherwise).  Cells are seeded deterministically and merged in
    (k, epsilon, seed) order, so rerunning a configuration is byte-stable.
    Cells whose budget no cutoff meets are counted per (k, epsilon, reason)
    in ``FitReport.dropped``.
    """
    from .assembly import assemble
    from .geometry import DomainSpec, annulus_mask, ball_mask, boundary_chart, build_grid
    from .profiles import make_medium
    from .spectral import check_admissibility, compute_sigma, find_admissible_k

    p = sweep_params(scenario) if params is None else dict(params)
    k_targets = [float(k) for k in p["k_list"]]
    eps_list = [float(e) for e in p["epsilon_list"]]
    seeds = list(p["seeds"])
    c = p.get("c_admissibility", 0.01)

    if scenario == "convex":
        spec = DomainSpec.annulus(0.5, 2.0)
        q_spec = {"profile": "radial_quadratic", "amplitude": 0.25}
        kappa, monotone = 2.02, True
    else:
        spec = DomainSpec.disk(1.0)
        q_spec = {"profile": "constant", "value": 1.0}
        kappa, monotone = 1.001, False
    h = min(default_spacing(max(k_targets), kappa), p["h_cap"])
    if "h" in p and p["h"]:
        h = p["h"]
    grid = build_grid(spec, h)
    medium = make_medium(grid, q_spec=q_spec, kappa=kappa, monotone=monotone)
    chart = boundary_chart(grid)

    if scenario == "convex":
        omega1 = annulus_mask(grid, 0.5, 1.0)
        family = annulus_mask(grid, 0.5, 1.25)
    elif scenario == "interior":
        omega1 = ball_mask(grid, (0, 0), 0.5)
        family = ball_mask(grid, (0, 0), 0.6)
    else:
        omega1 = ball_mask(grid, (0, 0), 0.5)
        family = omega1

    report = compute_sigma(grid, medium, 60,
                           shifts=tuple(kt * kt for kt in k_targets),
                           c_admissibility=c)

    ks = []
    for kt in k_targets:
        rec = check_admissibility(kt, report, c=c)
        if rec["admissible"] and rec["dist"] > 3.0 * rec["threshold"]:
            ks.append(kt)
        else:
            ks.append(find_admissible_k(report, kt, c=c))
    ks = sorted(set(ks))
    if len(ks) < (2 if len(k_targets) > 1 else 1):
        raise InsufficientAdmissibleK(f"only {len(ks)} admissible frequencies")

    dropped = Counter()       # (k, epsilon, reason) -> unreachable cells

    # one call per frequency, so that its factor, forward map and SVD are
    # freed before the next frequency's are built
    def run_one_k(k):
        op = assemble(grid, medium, k)
        fmap = build_forward_map(op, omega1, chart, spectrum=report)
        system = svd(fmap)
        basis = MaskSolutionBasis(op, family)
        rec_k = check_admissibility(k, report, c=c)
        out = []
        for seed in seeds:
            rng = np.random.default_rng(
                np.random.SeedSequence([int(seed), int(round(1000 * k))]))
            v = basis.sample(rng, decay=p["decay"], amplitude=p["amplitude"])
            v_l2 = math.sqrt(float(np.sum(
                fmap.wx * v.values[fmap.omega1_ids] ** 2)))
            ref = v_l2 if p["budget"] == "l2" else 1.0
            for eps in eps_list:
                try:
                    ap = runge_approximate(system, v, eps, ref)
                except TargetUnreachable as exc:
                    dropped[k, eps, exc.reason] += 1
                    continue
                out.append({
                    "scenario": scenario, "k": k, "epsilon": eps,
                    "seed": seed, "alpha": ap.alpha, "err": ap.err,
                    "cost": ap.cost,
                    "cost_rel": ap.cost / v_l2 if v_l2 > 0 else 0.0,
                    "v_norm_h1": 1.0, "v_l2": v_l2,
                    "admissible_margin": rec_k["dist"] / max(rec_k["threshold"], 1e-300),
                    "h": h, "n_retained": ap.n_retained,
                    "residue": ap.residue,
                })
        return out

    records = [r for k in ks for r in run_one_k(k)]
    records.sort(key=lambda r: (r["k"], -r["epsilon"], r["seed"]))

    fit = fit_records(scenario, records,
                      key="cost_rel" if scenario == "convex" else "cost")
    fit.records = records
    fit.dropped = [{"k": k, "epsilon": eps, "reason": reason,
                    "count": dropped[k, eps, reason]}
                   for k, eps, reason in sorted(
                       dropped, key=lambda c: (c[0], -c[1], c[2]))]
    return fit


def aggregate_median(records: list, by: tuple, key: str = "cost",
                     min_count: int = 1) -> list:
    """Median of positive values of ``key`` per group of the ``by`` fields;
    groups with fewer than ``min_count`` positive samples are dropped (their
    medians reflect truncation noise, not the trend)."""
    groups = {}
    for r in records:
        if r[key] > 0:
            groups.setdefault(tuple(r[f] for f in by), []).append(r[key])
    out = []
    for gkey in sorted(groups):
        vals = groups[gkey]
        if len(vals) < min_count:
            continue
        rec = dict(zip(by, gkey))
        rec[key] = float(np.median(vals))
        rec["n"] = len(vals)
        out.append(rec)
    return out


def _ols(X: np.ndarray, y: np.ndarray):
    coef, *_ = np.linalg.lstsq(X, y, rcond=None)
    pred = X @ coef
    ss_res = float(np.sum((y - pred) ** 2))
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
    return coef, r2


def fit_records(scenario: str, records: list, key: str = "cost") -> FitReport:
    """Per-scenario exponent fits on log-transformed sweep records.

    * ``interior``: log cost ~ b0 - nu log eps + b k       (poly in 1/eps)
    * ``convex``:   log cost ~ b0 - nu log eps + s log k   (poly in both)
    * ``boundary``: log cost ~ b0 + a eps^-mu [+ b k^s], mu and s scanned
      on coarse grids choosing max R^2 (only existence of exponents is
      claimed, not values).
    """
    recs = [r for r in records if r[key] > 0]
    if len(recs) < 3:
        raise InsufficientAdmissibleK("too few sweep cells with positive cost")
    logc = np.log([r[key] for r in recs])
    eps = np.array([r["epsilon"] for r in recs])
    ks = np.array([r["k"] for r in recs])
    multi_k = np.unique(ks).size > 1

    if scenario == "interior":
        cols = [np.ones_like(logc), -np.log(eps)] + ([ks] if multi_k else [])
        coef, r2 = _ols(np.column_stack(cols), logc)
        expo = {"nu": float(coef[1])}
        if multi_k:
            expo["k_coefficient"] = float(coef[2])
        return FitReport(scenario, expo, r2, len(recs), records)
    if scenario == "convex":
        cols = [np.ones_like(logc), -np.log(eps)] + ([np.log(ks)] if multi_k else [])
        coef, r2 = _ols(np.column_stack(cols), logc)
        expo = {"nu": float(coef[1])}
        if multi_k:
            expo["s"] = float(coef[2])
        return FitReport(scenario, expo, r2, len(recs), records)
    if scenario == "boundary":
        best = None
        mu_grid = [0.25 * i for i in range(1, 13)]
        s_grid = [1, 2, 3, 4, 5, 6, 7, 8] if multi_k else [None]
        for mu in mu_grid:
            for s in s_grid:
                cols = [np.ones_like(logc), eps ** (-mu)]
                if s is not None:
                    cols.append(ks ** float(s))
                coef, r2 = _ols(np.column_stack(cols), logc)
                if best is None or r2 > best[0]:
                    best = (r2, mu, s, coef)
        r2, mu, s, coef = best
        expo = {"mu": mu, "a": float(coef[1])}
        if s is not None:
            expo["s"] = s
        return FitReport(scenario, expo, r2, len(recs), records)
    raise ValueError(f"unknown scenario {scenario!r}")


def curvature_statistic(records: list) -> dict:
    """Quadratic coefficient of log cost in log(1/eps) per seed; positive
    curvature separates the exponential-cost regime from the polynomial one."""
    out = {}
    seeds = sorted({r["seed"] for r in records})
    for sd in seeds:
        sub = [r for r in records if r["seed"] == sd and r["cost"] > 0]
        if len(sub) < 4:
            continue
        L = np.log(1.0 / np.array([r["epsilon"] for r in sub]))
        y = np.log([r["cost"] for r in sub])
        coef = np.polyfit(L, y, 2)
        out[sd] = float(coef[0])
    return out
