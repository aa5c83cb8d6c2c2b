"""Self-adjoint vertex couplings on quantum star graphs.

Construct couplings in the unitary parametrization, convert them to and
from boundary-condition pairs, compute on-shell scattering matrices and
bound states, evaluate half-line resolvent kernels with point
interactions, validate everything against a finite-difference solver, and
run the convergence experiments that realize the singular couplings as
limits of scaled ordinary delta couplings.

Importing the package loads none of its modules: the first read of a
public name, or of a module name, loads the module that defines it
(PEP 562), and the name is then a plain attribute.
"""

import importlib

__version__ = "0.1.0"

#: the public names of each module
_PUBLIC = {
    "convergence": ("ApproximationStage", "ConvergenceReport", "StageResult",
                    "convergence_sweep", "schedule"),
    "coupling": ("ABDiagnostics", "ABPair", "Eigenphases", "VertexCoupling",
                 "from_ab", "make_coupling", "rescale_length", "to_ab",
                 "unitarity_defect", "validate_ab"),
    "errors": ("InvalidCouplingError", "PoleError"),
    "finite_difference": ("GridSpec", "KernelErrorStats", "SampledKernel",
                          "compare_kernels", "fd_resolvent_halfline",
                          "fd_resolvent_star"),
    "greens": ("HalflineBC", "PointInteraction", "StarModel",
               "halfline_kernel", "star_green", "vertex_kernel"),
    "scattering": ("BoundState", "bound_states", "s_matrix"),
}
_HOME = {name: module for module, names in _PUBLIC.items() for name in names}
_MODULES = (*_PUBLIC, "cli")

__all__ = sorted(_HOME)


def __getattr__(name: str):
    if name in _MODULES:
        # the import binds the module here
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
