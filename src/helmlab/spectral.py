"""Generalized Dirichlet spectrum of -Delta - V relative to the weight q.

The eigenvalues are the inverse eigenvalues of (-Delta - V)^{-1} M_q; the
solver works on the symmetric pencil (K - diag(w V)) u = lambda diag(w q) u
over interior nodes, on one of two paths chosen from the assembled pencil:

* polar grids whose pencil is constant on every ring (to a relative 1e-13)
  are solved exactly one angular Fourier mode at a time: each mode is a
  symmetric tridiagonal matrix over the rings (Swarztrauber's separable
  direct method, applied to the eigenproblem);
* every other grid uses shift-invert Lanczos around each shift point
  (deterministic start vector), merged and deduplicated.

Each shift gets a coverage window.  On the per-mode path it holds every
eigenvalue of the pencil inside it, each copy of a multiple one included,
by construction; on the shift-invert path it reaches the farthest
eigenvalue returned, so a multiple eigenvalue on its edge may come back
with fewer copies.  Both paths report the relative pencil residual of
every eigenpair from one array pass.  Reports carry a heuristic
per-eigenvalue discretization error lambda^2 h^2 / 12 used by the
resonance guard band.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np
import scipy.linalg as la
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .assembly import Medium, stiffness
from .errors import AssumptionIViolated, SpectrumTooShort
from .geometry import Grid

_TWO_PI = 2.0 * np.pi
_RING_TOL = 1e-13


@dataclass
class SpectrumReport:
    """Ascending eigenvalues with residuals and certified coverage windows.

    ``coverage`` intervals certify that every eigenvalue inside them was
    found.  On ring-invariant polar grids the per-mode solve knows the whole
    spectrum, so each window holds every copy of every eigenvalue inside it
    by construction; elsewhere shift-invert Lanczos returns the eigenvalues
    nearest each shift, and a multiple eigenvalue on a window edge may show
    fewer copies."""

    eigenvalues: np.ndarray
    residuals: np.ndarray
    count: int
    grid_h: float
    c_admissibility: float
    dim: int = 2
    coverage: list = field(default_factory=list)

    def discretization_error(self, lam: float) -> float:
        """Heuristic second-order eigenvalue error model."""
        return abs(lam) ** 2 * self.grid_h ** 2 / 12.0

    def covered(self, value: float) -> bool:
        return any(lo <= value <= hi for lo, hi in self.coverage)

    def dist(self, ksq: float) -> float:
        if self.eigenvalues.size == 0:
            raise SpectrumTooShort("empty spectrum")
        return float(np.min(np.abs(self.eigenvalues - ksq)))

    def to_dict(self) -> dict:
        return {
            "eigenvalues": [float(v) for v in self.eigenvalues],
            "residuals": [float(v) for v in self.residuals],
            "count": self.count,
            "grid_h": self.grid_h,
            "c_admissibility": self.c_admissibility,
            "coverage": [[float(a), float(b)] for a, b in self.coverage],
        }


def check_admissibility(k: float, report: SpectrumReport, c: float = None,
                        guard: bool = False) -> dict:
    """Margin record {admissible, dist, threshold, continuum_guard} for
    dist(k^2, Sigma) > c k^(2-dim), with ``c`` defaulting to the report's
    constant.  ``guard=True`` widens the threshold to cover the numerical
    uncertainty of the nearest computed eigenvalue (the solver guard band).
    Raises :class:`SpectrumTooShort` when the certified window cannot rule
    out a closer uncomputed eigenvalue."""
    c = report.c_admissibility if c is None else c
    ksq = k * k
    dist = report.dist(ksq)
    near = int(np.argmin(np.abs(report.eigenvalues - ksq)))
    lam_near = report.eigenvalues[near]
    threshold = c * k ** (2 - report.dim)
    if guard:
        # distance is measured against the computed discrete spectrum, so the
        # enforced guard only needs to cover the numerical uncertainty of the
        # computed eigenvalue; the continuum-gap estimate is reported but
        # would swallow whole spectral gaps on desk grids at large k
        numerical = 10.0 * max(report.residuals[near], 1e-12) * max(abs(lam_near), 1.0)
        threshold = max(threshold, numerical)
    # the true nearest eigenvalue may hide outside the certified window
    if not report.covered(ksq):
        edge = min((min(abs(ksq - lo), abs(ksq - hi))
                    for lo, hi in report.coverage), default=0.0)
        if report.coverage and edge < dist:
            raise SpectrumTooShort(
                f"window edge {edge:.3g} closer than nearest eigenvalue {dist:.3g}")
    return {"admissible": bool(dist > threshold), "dist": dist,
            "threshold": threshold,
            "continuum_guard": 10.0 * report.discretization_error(lam_near)}


def _pencil(grid: Grid, medium: Medium):
    I = grid.interior_index
    K = stiffness(grid)
    w = grid.quad_weights
    A = (K - sp.diags(w * medium.V.values))[I][:, I].tocsc()
    M = sp.diags(w[I] * medium.q.values[I]).tocsc()
    return A, M


def compute_sigma(grid: Grid, medium: Medium, count: int,
                  shifts: Sequence[float] = (0.0,),
                  c_admissibility: float = 0.01) -> SpectrumReport:
    """Eigenvalues of (-Delta - V) u = lambda q u nearest each shift point.

    The default shift 0 returns the ``count`` smallest eigenvalues of a
    positive pencil.  Checks solvability of -Delta - V first (zero must not
    be an eigenvalue) and reports the relative pencil residual of every
    eigenpair.  A polar grid whose pencil is constant on every ring is
    solved one angular mode at a time; every other grid by shift-invert
    Lanczos.
    """
    A, M = _pencil(grid, medium)
    _check_invertible(A)
    k_req = min(count, A.shape[0] - 2)
    rings = _ring_coefficients(grid, A, M)
    if rings is None:
        lam, vecs, windows = _shift_invert(A, M, k_req, shifts)
    else:
        lam, vecs, windows = _per_mode(rings, grid.lattice_shape[1], k_req,
                                       shifts)
    return SpectrumReport(eigenvalues=lam,
                          residuals=_residuals(A, M, lam, vecs),
                          count=count, grid_h=grid.max_spacing(),
                          c_admissibility=c_admissibility, dim=grid.dim,
                          coverage=_merge_windows(windows))


def _check_invertible(A) -> None:
    """Raise :class:`AssumptionIViolated` unless -Delta - V is invertible;
    a numerically singular factor shows up as an enormous amplification of
    a generic probe."""
    n = A.shape[0]
    try:
        lu = spla.splu(A)
        probe = np.ones(n) / np.sqrt(n)
        x = lu.solve(probe)
        if not np.all(np.isfinite(x)):
            raise AssumptionIViolated("factorization of -Delta - V produced NaN")
        a_scale = float(abs(A).sum(axis=0).max())
        if np.linalg.norm(x) * a_scale > 1e8 * np.linalg.norm(probe):
            raise AssumptionIViolated("-Delta - V numerically singular")
        resid = np.linalg.norm(A @ x - probe)
        if resid > 1e-6 * a_scale * max(np.linalg.norm(x), 1.0):
            raise AssumptionIViolated("-Delta - V numerically singular")
    except RuntimeError as exc:
        raise AssumptionIViolated(f"factorization failed: {exc}") from exc


def _shift_invert(A, M, k_req: int, shifts):
    """The ``k_req`` eigenpairs nearest each shift by shift-invert Lanczos
    (dense below 200 unknowns), merged over shifts, with one window per
    shift reaching the farthest eigenvalue it returned."""
    n = A.shape[0]
    vals_all, vecs_all, windows = [], [], []
    v0 = np.ones(n)
    for shift in shifts:
        if k_req >= n - 1 or n < 200:
            lam, vecs = _dense_fallback(A, M)
            order = np.argsort(np.abs(lam - shift))[:k_req]
            lam, vecs = lam[order], vecs[:, order]
        else:
            lam, vecs = spla.eigsh(A, k=k_req, M=M, sigma=shift, which="LM",
                                   v0=v0, tol=0)
        vals_all.append(np.real(lam))
        vecs_all.append(vecs)
        radius = float(np.max(np.abs(np.real(lam) - shift)))
        windows.append((shift - radius, shift + radius))

    lam = np.concatenate(vals_all)
    vecs = np.hstack(vecs_all)
    order = np.argsort(lam)
    lam, vecs = lam[order], vecs[:, order]
    if len(shifts) > 1:
        lam, vecs = _dedupe_clusters(lam, vecs, M)
    return lam, vecs, windows


def _ring_coefficients(grid: Grid, A, M):
    """Per-ring (diagonal, angular coupling, radial coupling to the next
    ring, mass) of the pencil over the interior rings of a polar grid, or
    None unless every one of them is constant on each ring to a relative
    1e-13 and the pencil has no other entries."""
    if grid.topology != "polar":
        return None
    n_theta = grid.lattice_shape[1]
    interior = grid.interior_index
    first, n_rings = interior[0] // n_theta, interior.size // n_theta
    if not np.array_equal(interior,
                          grid.lattice_id[first:first + n_rings].ravel()):
        return None
    p = np.arange(interior.size).reshape(n_rings, n_theta)

    def entries(rows, cols):
        return np.asarray(A[rows.ravel(), cols.ravel()]).reshape(rows.shape)

    diag, ang = entries(p, p), entries(p, np.roll(p, -1, axis=1))
    rad = entries(p[:-1], p[1:])
    mass = M.diagonal().reshape(p.shape)
    couplings = np.count_nonzero(ang) + np.count_nonzero(rad)
    if A.count_nonzero() != np.count_nonzero(diag) + 2 * couplings \
            or M.count_nonzero() != np.count_nonzero(mass):
        return None
    parts = (diag, ang, rad, mass)
    for x in parts:
        if np.any(np.ptp(x, axis=1) > _RING_TOL * np.max(np.abs(x), axis=1)):
            return None
    return tuple(x.mean(axis=1) for x in parts)


def _per_mode(rings, n_theta: int, k_req: int, shifts):
    """Exact spectrum of a ring-invariant polar pencil, one angular Fourier
    mode at a time.

    Mode m = 0 .. n_theta/2 of the pencil is the symmetric tridiagonal
    matrix D^(-1/2) T_m D^(-1/2) over the interior rings (D the ring mass);
    its eigenvalues count twice for 0 < m < n_theta/2 (cos and sin).  Per
    shift the window reaches the ``k_req``-th nearest eigenvalue, and every
    eigenvalue inside it is returned with its multiplicity, so each window
    is complete by construction.  Eigenvectors (radial profile times cos or
    sin m theta) are built only for the returned eigenvalues."""
    diag, ang, rad, mass = rings
    n_rings = diag.size
    modes = np.arange(n_theta // 2 + 1)
    copies = np.where((modes == 0) | (2 * modes == n_theta), 1, 2)
    scale = 1.0 / np.sqrt(mass)
    off = rad * scale[:-1] * scale[1:]

    def mode_diag(m):
        return (diag + 2.0 * ang * np.cos(_TWO_PI * m / n_theta)) / mass

    lam = np.array([la.eigh_tridiagonal(mode_diag(m), off, eigvals_only=True)
                    for m in modes]).ravel()
    mult = np.repeat(copies, n_rings)
    keep = np.zeros(lam.size, dtype=bool)
    windows = []
    for shift in shifts:
        dist = np.abs(lam - shift)
        order = np.argsort(dist, kind="stable")
        # the k_req-th nearest eigenvalue, counting cos/sin copies
        reach = np.searchsorted(np.cumsum(mult[order]), k_req)
        radius = float(dist[order[reach]])
        keep |= dist <= radius
        windows.append((shift - radius, shift + radius))

    sel = np.flatnonzero(keep)
    vecs = np.empty((n_rings * n_theta, int(mult[sel].sum())))
    vals = np.empty(vecs.shape[1])
    col = 0
    j = np.arange(n_theta)
    for m in np.unique(sel // n_rings):
        idx = sel[sel // n_rings == m] - m * n_rings
        _, prof = la.eigh_tridiagonal(mode_diag(m), off, select="i",
                                      select_range=(idx[0], idx[-1]))
        phase = _TWO_PI * ((m * j) % n_theta) / n_theta
        waves = (np.cos(phase), np.sin(phase))[:copies[m]]
        for i in idx:
            radial = scale * prof[:, i - idx[0]]
            for wave in waves:
                vecs[:, col] = np.outer(radial, wave).ravel()
                vals[col] = lam[m * n_rings + i]
                col += 1
    order = np.argsort(vals, kind="stable")
    return vals[order], vecs[:, order], windows


def _residuals(A, M, lam, vecs) -> np.ndarray:
    """Relative pencil residual ||A v - lam M v|| / ||M v|| of every
    eigenpair, in one pass over the columns."""
    mv = M @ vecs
    r = A @ vecs - mv * lam
    den = np.abs(lam) * np.linalg.norm(mv, axis=0) / np.maximum(np.abs(lam), 1e-300)
    return np.linalg.norm(r, axis=0) / np.maximum(den, 1e-300)


def _dense_fallback(A, M):
    lam, vecs = la.eigh(A.toarray(), M.toarray())
    return lam, vecs


def _dedupe_clusters(lam, vecs, M, tol=1e-6):
    """Merge copies found by overlapping shift windows.

    Within a cluster of nearly equal eigenvalues, a candidate is a duplicate
    when it lies (in the M inner product) inside the span of the vectors
    already kept for the cluster; true multiplicities survive because a new
    independent direction keeps a large orthogonal residual."""
    keep_idx = []
    cluster = []          # M-orthonormalized kept vectors of current cluster
    cluster_ref = None
    for i in range(lam.size):
        if cluster_ref is None or abs(lam[i] - cluster_ref) > tol * max(abs(lam[i]), 1.0):
            cluster = []
            cluster_ref = lam[i]
        v = vecs[:, i]
        mv = M @ v
        nrm = np.sqrt(max(v @ mv, 1e-300))
        v = v / nrm
        for u in cluster:
            v = v - (u @ (M @ v)) * u
        res = np.sqrt(max(v @ (M @ v), 0.0))
        if res < 0.5:
            continue
        cluster.append(v / res)
        keep_idx.append(i)
    keep = np.asarray(keep_idx, dtype=int)
    return lam[keep], vecs[:, keep]


def _merge_windows(windows):
    out = []
    for lo, hi in sorted(windows):
        if out and lo <= out[-1][1]:
            out[-1] = (out[-1][0], max(out[-1][1], hi))
        else:
            out.append((lo, hi))
    return out


def find_admissible_k(report: SpectrumReport, k_target: float,
                      c: float = None) -> float:
    """Nearest admissible frequency to ``k_target``: the square root of the
    midpoint of the spectral gap containing (or nearest to) k_target^2, which
    locally maximizes dist(k^2, Sigma).  Clamped to k >= 1."""
    lam = report.eigenvalues
    ksq = k_target ** 2
    grid_pts = np.concatenate([[0.0], lam])
    # candidate gap midpoints
    mids = 0.5 * (grid_pts[:-1] + grid_pts[1:])
    if lam.size and ksq > lam[-1]:
        cand = [lam[-1] + (lam[-1] - lam[-2]) / 2 if lam.size > 1 else ksq]
    else:
        cand = []
    pos = np.searchsorted(lam, ksq)
    lo = 0.0 if pos == 0 else lam[pos - 1]
    hi = lam[pos] if pos < lam.size else lam[-1] + max(lam[-1] - lam[-2], 1.0)
    cand.append(0.5 * (lo + hi))
    cand.extend(mids[max(pos - 2, 0):pos + 2])
    best = None
    for m in cand:
        if m <= 0:
            continue
        kc = max(np.sqrt(m), 1.0)
        rec = check_admissibility(kc, report, c)
        score = (rec["admissible"], -abs(kc - k_target), rec["dist"])
        if best is None or score > best[0]:
            best = (score, kc)
    return best[1]


def weyl_exponent(report: SpectrumReport, skip: int = 3) -> float:
    """Fitted growth power of the counting function N(E) ~ E^p over the
    computed range (sanity check: p should be near dim/2)."""
    lam = report.eigenvalues
    lam = lam[lam > 0]
    if lam.size < skip + 5:
        raise SpectrumTooShort("too few eigenvalues for a Weyl fit")
    counts = np.arange(1, lam.size + 1)
    x = np.log(lam[skip:])
    y = np.log(counts[skip:])
    slope = np.polyfit(x, y, 1)[0]
    return float(slope)
