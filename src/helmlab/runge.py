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

When the whole map is invariant under rotation -- a polar grid whose
interior operator is constant on every ring, the sub-boundary the whole
outer circle and the region whole interior rings -- the forward map is
solved one angular mode at a time (:class:`assembly.RingFactor`) and the
singular system is exact per mode: a cos or sin wave of order m is sent to
one radial profile times the same wave.  Every other map uses SuperLU and
the dense SVD, which remain the oracle for the per-mode path.

Each Runge sweep regime is one :class:`Scenario` record of
:data:`SCENARIOS`; :func:`sweep_and_fit` runs one and fits its exponents.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .assembly import (DiscreteOperator, RingFactor, assemble,
                       default_spacing, mask_dirichlet_ring, mask_flux_pairing,
                       ring_factor, solve_dirichlet, solve_on_mask_multi,
                       verified_solve, weak_neumann_trace, whole_rings)
from .errors import (DegenerateSamples, GeometryViolation,
                     InsufficientAdmissibleK, TargetUnreachable)
from .fields import (BoundaryTrace, GridField, gram_inverse_sqrt, norm,
                     riesz_map)
from .geometry import (BoundaryChart, DomainSpec, annulus_mask,
                       boundary_chart, build_grid, check_nested_separation,
                       mask_connected)
from .profiles import make_medium
from .spectral import check_admissibility, compute_sigma, find_admissible_k


# ---------------------------------------------------------------------------
# Forward map
# ---------------------------------------------------------------------------

# gamma columns solved together; a multiple of the residual block of
# ``verified_solve``, so that refinement sees the same column blocks
_FORWARD_BLOCK = 64


@dataclass
class ForwardMap:
    """Data-to-restriction map with the factor of the interior block.  Its
    gamma columns are in the order of its grid's chart
    (:meth:`BoundaryChart.gamma_positions`), so the map reads the chart's
    one Gram block and G^(-1/2) of gamma, as :func:`riesz_map` does.

    Columns of the dense matrix ``A`` (n_omega1, n_gamma) are solved on
    first read: :meth:`columns` solves the gamma columns asked for, and
    ``A`` solves every column once, :data:`_FORWARD_BLOCK` at a time, and
    keeps them.  Either way each solve passes ``verified_solve``'s residual
    check, and a column has the same bits however it was solved.
    """

    op: DiscreteOperator
    omega1_ids: np.ndarray          # interior node ids of the target region
    factor: object                  # RingFactor or SuperLU of op.L_II
    _A: Optional[np.ndarray] = field(default=None, init=False, repr=False)

    @property
    def chart(self) -> BoundaryChart:
        return boundary_chart(self.op.grid)

    @property
    def wx(self) -> np.ndarray:
        """Quadrature weights on the omega1 nodes."""
        return self.op.grid.quad_weights[self.omega1_ids]

    @property
    def per_mode(self) -> bool:
        """Invariant under rotation and solved per angular mode, see svd."""
        return isinstance(self.factor, RingFactor)

    @property
    def gamma_ids(self) -> np.ndarray:
        return self.chart.gamma_ids()

    @property
    def A(self) -> np.ndarray:
        if self._A is None:
            n = self.gamma_ids.size
            # a block of columns at a time: the dense right-hand sides and
            # interior solutions never exist for all of gamma at once
            A = np.empty((self.omega1_ids.size, n))
            for start in range(0, n, _FORWARD_BLOCK):
                cols = slice(start, start + _FORWARD_BLOCK)
                A[:, cols] = self.columns(cols)
            self._A = A
        return self._A

    def columns(self, cols: slice) -> np.ndarray:
        """Columns ``cols`` of A, solved now with the held factor."""
        grid = self.op.grid
        bpos = np.searchsorted(grid.boundary_index, self.gamma_ids[cols])
        ipos = np.searchsorted(grid.interior_index, self.omega1_ids)
        rhs = -self.op.L_IB[:, bpos].toarray()
        return verified_solve(self.op.L_II, self.factor, rhs)[ipos]

    def gamma_positions(self) -> np.ndarray:
        return self.chart.gamma_positions()

    def trace_from_gamma(self, gvals: np.ndarray) -> BoundaryTrace:
        vals = np.zeros(self.chart.n)
        vals[self.gamma_positions()] = gvals
        return BoundaryTrace(self.chart, vals)


def build_forward_map(op: DiscreteOperator,
                      omega1_mask: np.ndarray) -> ForwardMap:
    """Data-to-restriction map from the gamma of the grid's chart, one
    Dirichlet solve per supported-boundary basis function: factored here,
    its columns solved when first read (:class:`ForwardMap`).

    Verifies that the complement of the target region is connected and that
    the target stays at least four grid layers from the charted boundary.
    The frequency is guarded when ``op`` is assembled (:func:`assemble`).
    A map invariant under rotation (gamma the whole outer circle of a polar
    grid, the region whole rings, the interior operator ring-invariant) is
    solved one angular mode at a time, every other one by SuperLU.
    """
    grid = op.grid
    chart = boundary_chart(grid)
    if not mask_connected(grid, ~omega1_mask):
        raise GeometryViolation("complement of the target region is disconnected")
    # an uncharted inner boundary may touch the region; its data is pinned
    check_nested_separation(grid, omega1_mask, boundary_ids=chart.node_ids)

    omega1_ids = np.intersect1d(np.flatnonzero(omega1_mask), grid.interior_index)
    factor = None
    if chart.gamma_mask.all() and whole_rings(grid, omega1_ids):
        factor = ring_factor(grid, grid.interior_index, op.L_II)
    return ForwardMap(op=op, omega1_ids=omega1_ids, factor=factor or op.lu())


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
    z = np.linalg.solve(fmap.chart.h_half_gram(fmap.gamma_positions()), rhs)
    return fmap.trace_from_gamma(z)


def trace_inner(fmap: ForwardMap, s: BoundaryTrace, t: BoundaryTrace) -> float:
    """Order-1/2 inner product of two gamma-supported traces."""
    pos = fmap.gamma_positions()
    return float(s.values[pos] @ fmap.chart.h_half_gram(pos) @ t.values[pos])


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
    """Singular system of a forward map: exact per angular mode when the map
    is invariant under rotation, with the chart's circulant Gram symbol
    (:meth:`BoundaryChart.symbol`), by the dense SVD otherwise.  Raises
    :class:`GramNotSPD` unless the dense path's Gram is positive
    definite."""
    if fmap.per_mode:
        return _mode_svd(fmap, fmap.chart.symbol())
    return _dense_svd(fmap)


def _mode_svd(fmap: ForwardMap, g: np.ndarray) -> SvdSystem:
    """Exact singular system of a map invariant under rotation.

    The cos or sin wave of order m on gamma is sent to Y_m(r) times the same
    wave on the region, Y_m the real rfft coefficient of column 0 of A along
    each ring; that column is the only one solved.  With g_m the eigenvalues
    of the circulant trace Gram, mu_m = sum_r w_r Y_m(r)^2 / g_m; phi is the
    Gram-normalised wave and psi the wx-normalised profile times the wave.
    Modes 0 < m < n/2 give a cos and a sin column of equal mu; g_m >= s > 0
    by construction."""
    n = fmap.gamma_ids.size
    Y = np.fft.rfft(fmap.columns(slice(0, 1)).reshape(-1, n), axis=1).real
    energy = fmap.wx.reshape(Y.shape[0], n)[:, 0] @ Y ** 2
    m = np.arange(g.size)
    pair = (m > 0) & (2 * m < n)            # a cos and a sin column
    mode = np.concatenate([m, m[pair]])
    sine = np.arange(mode.size) >= m.size
    mu = energy[mode] / g[mode]
    order = np.argsort(-mu, kind="stable")  # cos before sin of equal mu
    mode, sine, mu = mode[order], sine[order], mu[order]

    phase = 2.0 * np.pi * ((np.arange(n)[:, None] * mode) % n) / n
    waves = np.where(sine, np.sin(phase), np.cos(phase))
    wave_sq = np.where(pair[mode], n / 2, n)    # sum of squared wave values
    phi = waves / np.sqrt(g[mode] * wave_sq)
    psi = (Y[:, None, mode] * waves).reshape(fmap.omega1_ids.size, n)
    psi /= np.sqrt(energy[mode] * wave_sq)
    return SvdSystem(fmap=fmap, mu=mu, phi=phi, psi=psi)


def _dense_svd(fmap: ForwardMap) -> SvdSystem:
    G_half_inv = gram_inverse_sqrt(fmap.chart, fmap.gamma_positions())
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
    cost: float                     # boundary trace norm of g_alpha
    beta: np.ndarray
    residue: float                  # out-of-span component of v
    n_retained: int


def runge_approximate(system: SvdSystem, v: GridField, epsilon: float,
                      v_h1: float) -> RungeApproximant:
    """Largest cutoff whose discarded-mode error (plus the out-of-span
    residue) stays within the budget epsilon * v_h1; the budget alone sets
    the cutoff.

    ``v`` is read on the map's target region; ``v_h1`` is the reference
    norm multiplying epsilon.  Raises :class:`TargetUnreachable` when full
    retention cannot meet the budget.
    """
    if epsilon <= 0:
        raise TargetUnreachable("epsilon must be positive", "epsilon")
    fmap = system.fmap
    v_vals = v.values[fmap.omega1_ids]
    beta = system.psi.T @ (fmap.wx * v_vals)
    residue = math.sqrt(max(float(np.sum(
        fmap.wx * (v_vals - system.psi @ beta) ** 2)), 0.0))
    sv = system.singular_values

    tails = np.sqrt(np.cumsum((beta ** 2)[::-1])[::-1])  # tails[j] = ||beta[j:]||
    tails = np.append(tails, 0.0)

    budget = epsilon * v_h1
    if residue > budget:
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
    u_alpha = solve_dirichlet(fmap.op, g=g_alpha)

    diff = u_alpha.values[fmap.omega1_ids] - v_vals
    err = math.sqrt(float(np.sum(fmap.wx * diff ** 2)))
    return RungeApproximant(alpha=float(alpha), g_alpha=g_alpha, u_alpha=u_alpha,
                            err=err, cost=cost, beta=beta, residue=residue,
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

    Solves once per Fourier mode m <= min(n/2 - 1, 80) of the n free
    Dirichlet ring nodes (ring nodes on the global boundary keep zero data,
    realizing pinned side conditions) and normalizes each modal response in
    L2 on the mask.  Per-mode normalization keeps accidental
    near-resonances of the submesh from collapsing the random family onto
    one mode.
    """

    def __init__(self, op: DiscreteOperator, mask: np.ndarray):
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
        m_max = min(n // 2 - 1, 80)

        cols = [np.ones(n)]
        for m in range(1, m_max + 1):
            cols.append(np.cos(m * ang))
            cols.append(np.sin(m * ang))
        data = np.zeros((ring_ids.size, len(cols)))
        data[free_pos, :] = np.column_stack(cols)

        sols = solve_on_mask_multi(op, mask, data)
        w = grid.quad_weights * mask
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
        h1 = norm(GridField(self.grid, vals), "H1", self.mask)
        if h1 == 0:
            raise GeometryViolation("degenerate random solution")
        return GridField(self.grid, vals / h1)


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


@dataclass(frozen=True)
class Scenario:
    """One Runge sweep regime.  ``medium`` is a config medium section,
    shared: copy it before handing it out.  The regions are annuli
    r_lo <= |x - c| <= r_hi about the domain centre c.  The budget of fit
    key ``cost_rel`` is relative to the target's region L2 norm, that of
    ``cost`` to its unit H1 norm."""

    domain: DomainSpec
    medium: dict                    # q, kappa and monotone
    target: tuple                   # (r_lo, r_hi) of the approximation region
    family: tuple                   # (r_lo, r_hi) of the random family's mesh
    decay: float                    # family coefficients (1 + m)^(-decay)
    amplitude: str                  # MaskSolutionBasis.sample amplitude mode
    fit_key: str                    # "cost" or "cost_rel"
    h_cap: float                    # largest grid spacing
    k_list: tuple                   # default frequency targets
    epsilon_list: tuple             # default error levels


_UNIT_DISK = dict(
    domain=DomainSpec("disk", radius=1.0),
    medium={"q": {"profile": "constant", "value": 1.0}, "kappa": 1.001,
            "monotone": False},
    target=(0.0, 0.5), amplitude="normal", fit_key="cost", h_cap=0.025,
    k_list=(3.2,), epsilon_list=tuple(2.0 ** -i for i in range(1, 9)))

SCENARIOS = {
    # target prescribed on the region itself: cost superpolynomial in 1/eps
    "boundary": Scenario(**_UNIT_DISK, family=(0.0, 0.5), decay=1.5),
    # target solves on a strictly larger submesh: cost polynomial in 1/eps
    "interior": Scenario(**_UNIT_DISK, family=(0.0, 0.6), decay=1.25),
    # radially monotone q (x . grad q >= 0), pinned inner circle: cost
    # polynomial in k.  The name is the profile's: the target 0.5 <= |x| <= 1
    # and the domain are annuli, not convex sets; the convex target is the
    # disk |x| <= 0.5 of "interior" (and "boundary").  The budget is
    # L2-relative: with the H1 one every family trivializes (cost 0) once
    # k >~ 1/eps, since ||v||_L2(region) <= C ||v||_H1 / k
    "convex": Scenario(
        domain=DomainSpec("annulus", r_inner=0.5, r_outer=2.0),
        medium={"q": {"profile": "radial_quadratic", "amplitude": 0.25},
                "kappa": 2.02, "monotone": True},
        target=(0.5, 1.0), family=(0.5, 1.25), decay=2.0, amplitude="signs",
        fit_key="cost_rel", h_cap=0.06,
        k_list=tuple(float(k) for k in np.geomspace(2.0, 16.0, 8)),
        epsilon_list=(0.05,)),
}

FIT_MIN_CELLS = 3       # sweep cells with a positive fit key that a fit needs


def sweep_params(scenario: str, **overrides) -> dict:
    """The sweep axes of a scenario, ``overrides`` over its record's
    ``k_list`` and ``epsilon_list`` and the ``seeds`` 0 to 7; the rest of
    the regime is fixed by its :data:`SCENARIOS` record."""
    sc = SCENARIOS[scenario]
    return {"scenario": scenario, "k_list": sc.k_list,
            "epsilon_list": sc.epsilon_list, "seeds": tuple(range(8)),
            **overrides}


def sweep_grid(scenario: str, params: dict) -> tuple:
    """(grid, medium, h) of a sweep: its scenario's domain and medium at the
    ``h`` of ``params``, else at the spacing that resolves its largest
    ``k_list`` target, capped at the scenario's ``h_cap``."""
    sc = SCENARIOS[scenario]
    kappa, k_max = sc.medium["kappa"], max(float(k) for k in params["k_list"])
    h = params.get("h") or min(default_spacing(k_max, kappa), sc.h_cap)
    grid = build_grid(sc.domain, h)
    medium = make_medium(grid, q_spec=sc.medium["q"], kappa=kappa,
                         monotone=sc.medium["monotone"])
    return grid, medium, h


def sweep_and_fit(scenario: str, params: Optional[dict] = None) -> FitReport:
    """Run the (epsilon, k) sweep for one scenario and fit its exponents.

    The scenario's :data:`SCENARIOS` record fixes all but the sweep axes
    and the optional spacing ``h`` of ``params`` (:func:`sweep_params`).
    One shared grid (:func:`sweep_grid`) carries all cells;
    frequencies are snapped to admissible values near the requested targets
    (kept when the margin is already 3x the threshold, moved to the gap
    midpoint otherwise).  Cells are seeded deterministically and merged in
    (k, epsilon, seed) order, so rerunning a configuration is byte-stable.
    Cells whose budget no cutoff meets are counted per (k, epsilon, reason)
    in ``FitReport.dropped``.
    """
    sc = SCENARIOS[scenario]
    p = sweep_params(scenario) if params is None else params
    k_targets = [float(k) for k in p["k_list"]]
    eps_list = [float(e) for e in p["epsilon_list"]]

    grid, medium, h = sweep_grid(scenario, p)
    omega1 = annulus_mask(grid, *sc.target)
    family = annulus_mask(grid, *sc.family)

    report = compute_sigma(medium, 60,
                           shifts=tuple(kt * kt for kt in k_targets))

    ks = []
    for kt in k_targets:
        rec = check_admissibility(kt, report)
        if rec["admissible"] and rec["dist"] > 3.0 * rec["threshold"]:
            ks.append(kt)
        else:
            ks.append(find_admissible_k(report, kt))
    ks = sorted(set(ks))
    if len(ks) < (2 if len(k_targets) > 1 else 1):
        raise InsufficientAdmissibleK(f"only {len(ks)} admissible frequencies")

    dropped = Counter()       # (k, epsilon, reason) -> unreachable cells

    # one call per frequency, so that its factor, forward map and SVD are
    # freed before the next frequency's are built
    def run_one_k(k):
        op = assemble(medium, k, spectrum=report)
        fmap = build_forward_map(op, omega1)
        system = svd(fmap)
        basis = MaskSolutionBasis(op, family)
        rec_k = check_admissibility(k, report)
        out = []
        for seed in p["seeds"]:
            rng = np.random.default_rng(
                np.random.SeedSequence([int(seed), int(round(1000 * k))]))
            v = basis.sample(rng, decay=sc.decay, amplitude=sc.amplitude)
            v_l2 = math.sqrt(float(np.sum(
                fmap.wx * v.values[fmap.omega1_ids] ** 2)))
            ref = v_l2 if sc.fit_key == "cost_rel" else 1.0
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

    fit = fit_records(scenario, records)
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


def fit_records(scenario: str, records: list) -> FitReport:
    """Per-scenario exponent fits on the log of each record's fit key
    (:attr:`Scenario.fit_key`).

    * ``interior``: log cost ~ b0 - nu log eps + b k       (poly in 1/eps)
    * ``convex``:   log cost ~ b0 - nu log eps + s log k   (poly in both)
    * ``boundary``: log cost ~ b0 + a eps^-mu [+ b k^s], mu and s scanned
      on coarse grids choosing max R^2 (only existence of exponents is
      claimed, not values).
    """
    key = SCENARIOS[scenario].fit_key
    recs = [r for r in records if r[key] > 0]
    if len(recs) < FIT_MIN_CELLS:
        raise DegenerateSamples("too few sweep cells with positive cost")
    logc = np.log([r[key] for r in recs])
    eps = np.array([r["epsilon"] for r in recs])
    ks = np.array([r["k"] for r in recs])
    multi_k = np.unique(ks).size > 1

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
    else:
        # interior and convex differ only in the k regressor
        kx, name = ((np.log(ks), "s") if scenario == "convex"
                    else (ks, "k_coefficient"))
        cols = [np.ones_like(logc), -np.log(eps)] + ([kx] if multi_k else [])
        coef, r2 = _ols(np.column_stack(cols), logc)
        expo = {"nu": float(coef[1])}
        if multi_k:
            expo[name] = float(coef[2])
    return FitReport(scenario, expo, r2, len(recs), records)
