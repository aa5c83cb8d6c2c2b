"""Self-adjoint vertex couplings on quantum star graphs.

Construct couplings in the unitary parametrization, convert them to and
from boundary-condition pairs, compute on-shell scattering matrices and
bound states, evaluate half-line resolvent kernels with point
interactions, validate everything against a finite-difference solver, and
run the convergence experiments that realize the singular couplings as
limits of scaled ordinary delta couplings.
"""

from .convergence import (ApproximationStage, ConvergenceReport,
                          SampledDifference, StageResult, approximant_model,
                          convergence_sweep, effective_robin, hs_norm,
                          schedule, sector_difference, target_model)
from .coupling import (ABDiagnostics, ABPair, BoundaryValues, VertexCoupling,
                       decoupled_projection, from_ab, make_coupling,
                       ones_matrix, rescale_length,
                       satisfies_vertex_condition, to_ab, unitarity_defect,
                       validate_ab)
from .errors import InvalidCouplingError, PoleError
from .finite_difference import (GridSpec, KernelErrorStats, SampledKernel,
                                SampledStarKernel, compare_kernels,
                                fd_resolvent_halfline, fd_resolvent_star)
from .greens import (HalflineBC, PointInteraction, SectorSpec, StarModel,
                     halfline_green, halfline_kernel, krein_insert,
                     sector_decompose, sector_green, star_green,
                     vertex_kernel)
from .scattering import BoundState, SpectralParameter, bound_states, s_matrix

__version__ = "0.1.0"

__all__ = [
    "ABDiagnostics", "ABPair", "ApproximationStage", "BoundState",
    "BoundaryValues", "ConvergenceReport", "GridSpec", "HalflineBC",
    "InvalidCouplingError", "KernelErrorStats", "PointInteraction",
    "PoleError", "SampledDifference", "SampledKernel", "SampledStarKernel",
    "SectorSpec", "SpectralParameter", "StageResult", "StarModel",
    "VertexCoupling", "approximant_model", "bound_states", "compare_kernels",
    "convergence_sweep", "decoupled_projection", "effective_robin",
    "fd_resolvent_halfline", "fd_resolvent_star", "from_ab", "halfline_green",
    "halfline_kernel", "hs_norm", "krein_insert", "make_coupling",
    "ones_matrix", "rescale_length", "s_matrix",
    "satisfies_vertex_condition", "schedule", "sector_decompose",
    "sector_difference", "sector_green", "star_green", "target_model",
    "to_ab", "unitarity_defect", "validate_ab", "vertex_kernel",
]
