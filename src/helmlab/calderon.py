"""Partial-data boundary maps on 3D boxes and the stability inequality.

The local data-to-flux map sends supported boundary data on a face subset to
the weak Neumann functional restricted to the same subset; with the symmetric
assembly its bilinear form is exactly symmetric, and the distance between two
media is the operator norm of the difference measured between the supported
trace norm and its dual (the largest Gram-weighted singular value).

The synthetic stability check evaluates the Fourier-side H^-1 norm of
k^2 (q2 - q1) + (V2 - V1) directly (the perturbation is known in silico) and
reports the smallest single constant validating

    lhs <= C ( e^(C k^(n+3)) delta + (k + |log delta|^(1/(n+3)))^(-2/n) )

across a perturbation-by-frequency test matrix.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .assembly import DiscreteOperator, solve_dirichlet, verified_solve
from .errors import AgreementViolation, ContextMismatch
from .fields import GridField, gram_inverse_sqrt, hminus1_norm_fourier
from .geometry import BoundaryChart, boundary_chart


@dataclass
class DtnMatrix:
    """Map from supported-boundary nodal data to dual nodal values, rows and
    columns on gamma in chart order (:meth:`BoundaryChart.gamma_positions`),
    so its distance reads the chart's one G^(-1/2) of gamma."""

    op: DiscreteOperator
    matrix: np.ndarray            # (n_gamma, n_gamma)

    @property
    def chart(self) -> BoundaryChart:
        return boundary_chart(self.op.grid)

    @property
    def gamma_ids(self) -> np.ndarray:
        return self.chart.gamma_ids()


def dtn_map(op: DiscreteOperator) -> DtnMatrix:
    """One Dirichlet solve plus weak Neumann trace per supported basis
    function; rows/columns live on the gamma nodes of the grid's boundary
    chart.  The frequency is guarded when ``op`` is assembled."""
    grid = op.grid
    chart = boundary_chart(grid)
    gamma_ids = chart.gamma_ids()
    bpos = np.searchsorted(grid.boundary_index, gamma_ids)

    rhs = -op.L_IB[:, bpos].toarray()
    u_int = verified_solve(op.L_II, op.lu(), rhs)

    # dual values = residual of the full operator rows at gamma nodes
    L_G = op.L[gamma_ids]
    T = -(L_G[:, grid.interior_index] @ u_int + L_G[:, gamma_ids].toarray())
    return DtnMatrix(op=op, matrix=T)


def dtn_distance(a: DtnMatrix, b: DtnMatrix) -> float:
    """Operator norm of the difference, supported trace norm -> its dual:
    the 2-norm of the symmetric part, its largest eigenvalue modulus."""
    if a.op.grid is not b.op.grid or a.op.k != b.op.k:
        raise ContextMismatch("maps built on different grids or k")
    G_half_inv = gram_inverse_sqrt(a.chart, a.chart.gamma_positions())
    D = a.matrix - b.matrix
    M = G_half_inv @ D @ G_half_inv
    return float(np.max(np.abs(np.linalg.eigvalsh(0.5 * (M + M.T)))))


# ---------------------------------------------------------------------------
# Identity and stability checks
# ---------------------------------------------------------------------------

def difference_field(op1: DiscreteOperator, op2: DiscreteOperator) -> GridField:
    """k^2 (q2 - q1) + (V2 - V1) on the shared grid."""
    if op1.grid is not op2.grid or op1.k != op2.k:
        raise ContextMismatch("operators on different grids or frequencies")
    k = op1.k
    vals = (k * k * (op2.medium.q.values - op1.medium.q.values)
            + (op2.medium.V.values - op1.medium.V.values))
    return GridField(op1.grid, vals)


def check_agreement(op1: DiscreteOperator, op2: DiscreteOperator,
                    inner_mask: np.ndarray) -> None:
    """Media must coincide outside the perturbation region."""
    diff = difference_field(op1, op2)
    outside = ~inner_mask
    mx = float(np.max(np.abs(diff.values), initial=0.0))
    if mx > 0 and np.max(np.abs(diff.values[outside]), initial=0.0) > 1e-12 * mx:
        raise AgreementViolation("media differ outside the declared region")


def alessandrini_gap(dtn1: DtnMatrix, dtn2: DtnMatrix, g1: np.ndarray,
                     g2: np.ndarray) -> tuple:
    """Both sides of the bilinear identity

        int (b2 - b1) u1 u2 = <(Lambda1 - Lambda2) g1, g2>

    for solutions u1 (medium 1, data g1) and u2 (medium 2, data g2), data
    supported on gamma.  Exact discretely up to solver tolerance.
    """
    op1, op2 = dtn1.op, dtn2.op
    grid = op1.grid
    gb1 = np.zeros(grid.boundary_index.size)
    gb2 = np.zeros(grid.boundary_index.size)
    bpos = np.searchsorted(grid.boundary_index, dtn1.gamma_ids)
    gb1[bpos] = g1
    gb2[bpos] = g2
    u1 = solve_dirichlet(op1, g=gb1)
    u2 = solve_dirichlet(op2, g=gb2)
    diff = difference_field(op1, op2)
    volume = float(np.sum(grid.quad_weights * diff.values
                          * u1.values * u2.values))
    boundary = float(g2 @ (dtn1.matrix - dtn2.matrix) @ g1)
    return volume, boundary


def stability_rhs(C: float, k: float, delta: float, n: int) -> float:
    expo = min(C * k ** (n + 3), 700.0)
    first = math.exp(expo) * delta
    second = (k + abs(math.log(delta)) ** (1.0 / (n + 3))) ** (-2.0 / n) \
        if delta > 0 else (k) ** (-2.0 / n)
    return C * (first + second)


@dataclass
class StabilityRecord:
    k: float
    delta: float
    lhs: float


def stability_check(records: list, n: int = 3) -> dict:
    """Smallest single constant C validating lhs <= rhs(C, k, delta) across
    the whole test matrix, found by scanning 241 geometric C in [1e-3, 1e3]."""
    best = None
    for C in np.geomspace(1e-3, 1e3, 241):
        ok = all(r.lhs <= stability_rhs(C, r.k, r.delta, n) for r in records)
        if ok:
            best = float(C)
            break
    return {"best_C": best, "n_records": len(records),
            "validated": best is not None}


def perturbation_record(op1: DiscreteOperator, op2: DiscreteOperator,
                        dtn1: DtnMatrix, dtn2: DtnMatrix) -> StabilityRecord:
    delta = dtn_distance(dtn1, dtn2)
    lhs = hminus1_norm_fourier(difference_field(op1, op2))
    return StabilityRecord(k=op1.k, delta=delta, lhs=lhs)
