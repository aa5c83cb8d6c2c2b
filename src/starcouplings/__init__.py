"""Self-adjoint vertex couplings on quantum star graphs.

Construct couplings in the unitary parametrization, convert them to and
from boundary-condition pairs, compute on-shell scattering matrices and
bound states, evaluate half-line resolvent kernels with point
interactions, validate everything against a finite-difference solver, and
run the convergence experiments that realize the singular couplings as
limits of scaled ordinary delta couplings.
"""

from .convergence import (ApproximationStage, ConvergenceReport, StageResult,
                          convergence_sweep, schedule)
from .coupling import (ABDiagnostics, ABPair, Eigenphases, VertexCoupling,
                       from_ab, make_coupling, rescale_length, to_ab,
                       unitarity_defect, validate_ab)
from .errors import InvalidCouplingError, PoleError
from .finite_difference import (GridSpec, KernelErrorStats, SampledKernel,
                                compare_kernels, fd_resolvent_halfline,
                                fd_resolvent_star)
from .greens import (HalflineBC, PointInteraction, StarModel,
                     halfline_kernel, star_green, vertex_kernel)
from .scattering import BoundState, bound_states, s_matrix

__version__ = "0.1.0"

__all__ = [
    "ABDiagnostics", "ABPair", "ApproximationStage", "BoundState",
    "ConvergenceReport", "Eigenphases", "GridSpec", "HalflineBC",
    "InvalidCouplingError", "KernelErrorStats", "PointInteraction",
    "PoleError", "SampledKernel", "StageResult", "StarModel",
    "VertexCoupling", "bound_states", "compare_kernels",
    "convergence_sweep", "fd_resolvent_halfline", "fd_resolvent_star",
    "from_ab", "halfline_kernel", "make_coupling", "rescale_length",
    "s_matrix", "schedule", "star_green", "to_ab", "unitarity_defect",
    "validate_ab", "vertex_kernel",
]
