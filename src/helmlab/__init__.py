"""Numerical laboratory for Helmholtz-type boundary-to-interior approximation,
quantitative unique continuation, weighted-inequality verification, and
partial-data stability experiments."""

__version__ = "0.1.0"

from .geometry import DomainSpec, Grid, BoundaryChart, build_grid, boundary_chart
from .fields import (GridField, BoundaryTrace, BoundaryFunctional, norm,
                     trace_norm, functional_norm, riesz_map,
                     hminus1_norm_fourier)
from .assembly import Medium, DiscreteOperator, assemble, solve_dirichlet, \
    weak_neumann_trace
from .spectral import SpectrumReport, compute_sigma, check_admissibility, \
    find_admissible_k
from .runge import (ForwardMap, SvdSystem, RungeApproximant, build_forward_map,
                    adjoint_apply, svd, runge_approximate)
from .bessel import bessel_j, bessel_j_prime, check_bessel_inequalities, \
    optimality_lower_bound
from .ucp import BallTriple, three_ball_ratio, estimate_exponent, chain_propagate
from .carleman import CarlemanSample, carleman_check, improved_ucp_probe
from .calderon import DtnMatrix, dtn_map, dtn_distance, stability_check
