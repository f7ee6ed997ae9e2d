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

Each shift gets a coverage window that holds every eigenvalue of the
pencil inside it, each copy of a multiple one included.  On the per-mode
path this holds by construction.  Shift-invert Lanczos returns the
eigenvalues nearest the shift, but of a cluster tied with the farthest one
it may return only some copies, so its window stops at the farthest
eigenvalue returned outside that cluster.  Both paths report the relative
pencil residual of every eigenpair from one array pass.  Reports carry a
heuristic per-eigenvalue discretization error lambda^2 h^2 / 12 used by
the resonance guard band.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np
import scipy.linalg as la
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .assembly import (Medium, ring_coefficients, sparse_lu, stiffness,
                       verified_solve)
from .errors import AssumptionIViolated, SolverBreakdown, SpectrumTooShort

_TWO_PI = 2.0 * np.pi
_CLUSTER_TOL = 1e-6        # relative gap below which eigenvalues are one cluster
C_ADMISSIBILITY = 0.01     # the c of dist(k^2, Sigma) > c k^(2-n)


@dataclass
class SpectrumReport:
    """Ascending eigenvalues with residuals and certified coverage windows.

    ``coverage`` intervals certify that every eigenvalue inside them was
    found, each copy of a multiple one included.  On ring-invariant polar
    grids the per-mode solve knows the whole spectrum; elsewhere each
    shift-invert window stops short of the cluster tied with the farthest
    eigenvalue returned, whose copies may be incomplete.  Eigenvalues of
    that cluster are still reported, outside the window."""

    eigenvalues: np.ndarray
    residuals: np.ndarray
    count: int
    grid_h: float
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
            "c_admissibility": C_ADMISSIBILITY,
            "coverage": [[float(a), float(b)] for a, b in self.coverage],
        }


def check_admissibility(k: float, report: SpectrumReport,
                        guard: bool = False) -> dict:
    """Margin record {admissible, dist, threshold, continuum_guard} for
    dist(k^2, Sigma) > c k^(2-dim), c = :data:`C_ADMISSIBILITY`.
    ``guard=True`` widens the threshold to cover the numerical
    uncertainty of the nearest computed eigenvalue (the solver guard band).
    Raises :class:`SpectrumTooShort` when the certified window cannot rule
    out a closer uncomputed eigenvalue."""
    ksq = k * k
    dist = report.dist(ksq)
    near = int(np.argmin(np.abs(report.eigenvalues - ksq)))
    lam_near = report.eigenvalues[near]
    threshold = C_ADMISSIBILITY * k ** (2 - report.dim)
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


def _pencil(medium: Medium):
    I = medium.grid.interior_index
    K = stiffness(medium.grid)
    w = medium.grid.quad_weights
    A = (K - sp.diags(w * medium.V.values))[I][:, I].tocsc()
    M = sp.diags(w[I] * medium.q.values[I]).tocsc()
    return A, M


def count_rule(count: int) -> None:
    """Raise :class:`SpectrumTooShort` unless ``count``, the eigenvalues
    :func:`compute_sigma` finds near each shift, is at least 1."""
    if count < 1:
        raise SpectrumTooShort(f"count {count} below 1: a spectrum reports "
                               f"at least one eigenvalue per shift")


def compute_sigma(medium: Medium, count: int,
                  shifts: Sequence[float] = (0.0,)) -> SpectrumReport:
    """Eigenvalues of (-Delta - V) u = lambda q u nearest each shift point.

    The default shift 0 returns the ``count`` smallest eigenvalues of a
    positive pencil, under the :func:`count_rule`.  Checks solvability of
    -Delta - V first (zero must not be an eigenvalue) and reports the
    relative pencil residual of every eigenpair.  A polar grid whose pencil
    is constant on every ring is solved one angular mode at a time; every
    other grid by shift-invert Lanczos.
    """
    count_rule(count)
    grid = medium.grid
    A, M = _pencil(medium)
    lu = _check_invertible(A)
    k_req = min(count, A.shape[0] - 2)
    rings = ring_coefficients(grid, grid.interior_index, A, M)
    if rings is None:
        lam, vecs, windows = _shift_invert(A, M, lu, k_req, shifts)
    else:
        lam, vecs, windows = _per_mode(rings, grid.lattice_shape[1], k_req,
                                       shifts)
    return SpectrumReport(eigenvalues=lam,
                          residuals=_residuals(A, M, lam, vecs),
                          count=count, grid_h=grid.max_spacing(), dim=grid.dim,
                          coverage=_merge_windows(windows))


def _check_invertible(A):
    """The :func:`sparse_lu` factor of -Delta - V; raises
    :class:`AssumptionIViolated` unless it is invertible.  A numerically
    singular factor shows up as a probe solve that fails
    :func:`verified_solve`, or as an enormous amplification of the
    probe."""
    n = A.shape[0]
    probe = np.ones(n) / np.sqrt(n)
    try:
        lu = sparse_lu(A)
        x = verified_solve(A, lu, probe)
    except (RuntimeError, SolverBreakdown) as exc:
        raise AssumptionIViolated(f"-Delta - V not invertible: {exc}") from exc
    a_scale = float(abs(A).sum(axis=0).max())
    if np.linalg.norm(x) * a_scale > 1e8 * np.linalg.norm(probe):
        raise AssumptionIViolated("-Delta - V numerically singular")
    return lu


def _shift_invert(A, M, lu, k_req: int, shifts):
    """The ``k_req`` eigenpairs nearest each shift by shift-invert Lanczos
    (one dense eigensolve for every shift below 200 unknowns), merged over
    shifts, with one complete window per shift (:func:`_complete_window`).

    ARPACK's inverse (A - shift M)^-1 is one :func:`sparse_lu` factor per
    shift: minimum-degree ordering of A^T + A, diagonal pivots kept down to
    0.01 of their column's largest entry.  At shift 0 it is ``lu``, the
    factor of A already taken by :func:`_check_invertible`."""
    n = A.shape[0]
    vals_all, vecs_all, windows = [], [], []
    v0 = np.ones(n)
    dense = _dense_fallback(A, M) if n < 200 else None
    for shift in shifts:
        if dense is not None:
            lam, vecs = dense
            order = np.argsort(np.abs(lam - shift))[:k_req]
            lam, vecs = lam[order], vecs[:, order]
        else:
            inv = lu if shift == 0 else sparse_lu(A - shift * M)
            lam, vecs = spla.eigsh(A, k=k_req, M=M, sigma=shift, which="LM",
                                   v0=v0, tol=0, OPinv=spla.LinearOperator(
                                       A.shape, matvec=inv.solve,
                                       dtype=A.dtype))
        vals_all.append(np.real(lam))
        vecs_all.append(vecs)
        windows.append(_complete_window(vals_all[-1], shift))

    lam = np.concatenate(vals_all)
    vecs = np.hstack(vecs_all)
    order = np.argsort(lam)
    lam, vecs = lam[order], vecs[:, order]
    if len(shifts) > 1:
        lam, vecs = _dedupe_clusters(lam, vecs, M)
    return lam, vecs, windows


def _complete_window(lam, shift: float) -> tuple:
    """Window around ``shift`` holding every copy of each eigenvalue in it,
    given that ``lam`` are the eigenvalues nearest the shift.

    Eigenvalues as far from the shift as the farthest one (to the cluster
    tolerance) may miss copies that were not returned, so the window
    reaches the farthest of the others (a single point if there are none)."""
    dist = np.abs(lam - shift)
    far = int(np.argmax(dist))
    inside = dist[dist < dist[far] - _CLUSTER_TOL * max(abs(lam[far]), 1.0)]
    radius = float(inside.max()) if inside.size else 0.0
    return shift - radius, shift + radius


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
    return la.eigh(A.toarray(), M.toarray())


def _dedupe_clusters(lam, vecs, M):
    """Merge copies found by overlapping shift windows.

    Within a cluster of eigenvalues equal to ``_CLUSTER_TOL``, a candidate
    is a duplicate when it lies (in the M inner product) inside the span of
    the vectors already kept for the cluster; true multiplicities survive
    because a new independent direction keeps a large orthogonal
    residual."""
    keep_idx = []
    cluster = []          # M-orthonormalized kept vectors of current cluster
    cluster_ref = None
    for i in range(lam.size):
        if cluster_ref is None or abs(lam[i] - cluster_ref) > \
                _CLUSTER_TOL * max(abs(lam[i]), 1.0):
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


def find_admissible_k(report: SpectrumReport, k_target: float) -> float:
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
        rec = check_admissibility(kc, report)
        score = (rec["admissible"], -abs(kc - k_target), rec["dist"])
        if best is None or score > best[0]:
            best = (score, kc)
    return best[1]


def weyl_exponent(report: SpectrumReport) -> float:
    """Fitted growth power of the counting function N(E) ~ E^p over the
    computed range past the first three eigenvalues (sanity check: p should
    be near dim/2)."""
    lam = report.eigenvalues
    lam = lam[lam > 0]
    if lam.size < 8:
        raise SpectrumTooShort("too few eigenvalues for a Weyl fit")
    counts = np.arange(1, lam.size + 1)
    x = np.log(lam[3:])
    y = np.log(counts[3:])
    slope = np.polyfit(x, y, 1)[0]
    return float(slope)
