"""Test oracles: the sector tables of the star models, sampled sector
differences, the decoupled projector and the vertex-condition check,
none of which the package computes.

The convergence sweep evaluates its sector norms in closed form (see the
starcouplings.convergence docstring).  The helpers here sample the
kernels themselves, one half-line sector at a time, so the tests can
measure the same norms by quadrature (convergence.hs_norm) and reassemble
a star kernel from its sectors.  satisfies_vertex_condition is the
oracle of from_ab round trips and of the kernels' vertex traces.  The
oracles refuse what the package's entry points refuse (a bool, a NaN, a
length out of range), so a test that builds a bad argument fails at the
oracle instead of comparing NaN, and test_contract.py probes them as it
probes the package.
"""

from dataclasses import dataclass

import numpy as np

from starcouplings import (ApproximationStage, GridSpec, HalflineBC,
                           InvalidCouplingError, PointInteraction, PoleError,
                           StarModel, VertexCoupling)
from starcouplings.coupling import (DECOUPLED_EIGENVALUE_TOL, _integer,
                                    _number, _readonly)
from starcouplings.greens import sector_green


@dataclass(frozen=True)
class SectorSpec:
    """One half-line block of a symmetry-reduced star model."""

    bc: HalflineBC
    point: PointInteraction | None
    multiplicity: int

    def __post_init__(self):
        _integer("sector multiplicity", self.multiplicity, low=1)


def sector_decompose(model: StarModel) -> list[SectorSpec]:
    """Half-line sectors of a star model.

    kind             leading sector (mult 1)      repeated sector (mult n-1)
    delta_prime_s    RobinScaled(n, beta)          Neumann
    central_delta    Robin(b) + point              Dirichlet + point
    delta_prime      Neumann                       RobinScaled(n, beta)
    central_delta_p  Dirichlet + point             Robin(b / n) + point

    For n = 1 only the leading sector is returned.  The sectors reassemble
    the star kernel as G_lead / n + (delta_jl - 1/n) G_rest, through
    sum_{r=1}^{n-1} eps^{r(j-l)} = n delta_jl - 1 with eps = e^{2 pi i / n}.
    Targets carry no point, so every sector takes the model's point.
    """
    n, beta, b = model.n, model.beta, model.b
    if model.kind == "delta_prime_s":
        lead, rest = HalflineBC.robin_scaled(n, beta), HalflineBC.neumann()
    elif model.kind == "central_delta":
        lead, rest = HalflineBC.robin(b), HalflineBC.dirichlet()
    elif model.kind == "delta_prime":
        lead, rest = HalflineBC.neumann(), HalflineBC.robin_scaled(n, beta)
    else:  # central_delta_p
        lead, rest = HalflineBC.dirichlet(), HalflineBC.robin(b / n)
    return [SectorSpec(bc, model.point, m)
            for bc, m in ((lead, 1), (rest, n - 1)) if m > 0]


def approximant_model(stage: ApproximationStage) -> StarModel:
    """The star of one approximation stage: central coupling b, and the
    satellite c at distance a on every edge."""
    point = PointInteraction(a=stage.a, c=stage.c)
    if stage.family == "delta_prime_s":
        return StarModel.central_delta(stage.n, stage.b, point)
    return StarModel.central_delta_p(stage.n, stage.b, point)


def effective_robin(b: float, c: float, a: float) -> float:
    """The zero-energy (kappa -> 0) origin condition seen from just outside
    the satellite, B(a) = c + b / (1 + a b).

    At energy -kappa^2 the channel sees psi'(a+) = B_kappa(a) psi(a+) with

        B_kappa(a) = c + kappa (kappa sinh kappa a + b cosh kappa a)
                         / (kappa cosh kappa a + b sinh kappa a),

    which differs from B(a) at O(kappa^2 a).  That is the order of the
    kernel differences of a sweep, so B(a) gives the limit constant but is
    no oracle for the sweep norms: at beta = 0 a norm built on it is off
    by about 35 % in the sector whose base is Dirichlet (b -> inf).
    """
    b, c = _number(b, "b"), _number(c, "c")
    den = 1.0 + _number(a, "distance a", positive=True) * b
    if abs(den) < 1e-14:
        raise PoleError(f"degenerate stage: |1 + a b| = {abs(den):.3e}")
    return c + b / den


@dataclass(frozen=True)
class SampledDifference:
    """A kernel difference sampled on the square grid built from one node
    vector (values[i, j] belongs to (x[i], x[j])), all finite, as
    convergence.hs_norm reads it."""

    x: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        x = np.asarray(self.x, dtype=float)
        values = np.asarray(self.values)
        if values.shape != (x.size, x.size):
            raise ValueError(
                f"values shape {values.shape} does not match {x.size} nodes")
        if not (np.isfinite(x).all() and np.isfinite(values).all()):
            raise ValueError("sampled nodes and values must be finite")
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "values", values)


def _window_nodes(grid: GridSpec, a: float) -> np.ndarray:
    if not 0.0 < _number(a, "window start a") < grid.L:
        raise ValueError(f"window start {a} outside (0, {grid.L})")
    base = grid.boundary_nodes()
    return np.concatenate(([a], base[base > a * (1.0 + 1e-12)]))


def sector_difference(target: SectorSpec, approx: SectorSpec, kappa: float,
                      a: float, grid: GridSpec) -> SampledDifference:
    """Samples of (approximant kernel - target kernel) for one sector pair
    on the tensor grid over [a, L]^2."""
    if target.multiplicity != approx.multiplicity:
        raise ValueError(
            f"incompatible sector pair: multiplicities "
            f"{target.multiplicity} and {approx.multiplicity}")
    nodes = _window_nodes(grid, a)
    xg = nodes[:, None]
    yg = nodes[None, :]
    values = sector_green(approx, kappa, xg, yg) \
        - sector_green(target, kappa, xg, yg)
    return SampledDifference(x=nodes, values=values)


def decoupled_projection(coupling: VertexCoupling) -> np.ndarray:
    """The projector onto U's eigenspace at -1, the groups with 2c below
    DECOUPLED_EIGENVALUE_TOL, at which the eigenphases group."""
    phases = coupling.eigenphases
    return phases.apply([1.0 + 0j if 2.0 * c < DECOUPLED_EIGENVALUE_TOL
                         else 0j for c, _, _ in phases.groups])


def satisfies_vertex_condition(coupling: VertexCoupling, psi, dpsi,
                               tol: float = 1e-10) -> bool:
    """Whether the vertex values Psi(0) = psi and outward derivatives
    Psi'(0) = dpsi solve (U - I) Psi + i (U + I) Psi' = 0.

    The residual is compared against tol * (|Psi| + |Psi'| + eps).  When the
    condition holds, |Psi + i Psi'| = |Psi - i Psi'| must hold as well
    (vanishing boundary form); that identity is cross-checked and a
    violation raises, since it would mean the inputs are inconsistent.
    psi and dpsi must be finite vectors of numbers of one length.
    """
    if _number(tol, "tolerance") < 0.0:
        raise ValueError(f"tolerance must be >= 0, got {tol!r}")
    psi = _readonly(np.atleast_1d(psi), "psi")
    dpsi = _readonly(np.atleast_1d(dpsi), "dpsi")
    if psi.shape != dpsi.shape or psi.ndim != 1:
        raise InvalidCouplingError(
            f"psi and dpsi must be equal-length vectors, got shapes "
            f"{psi.shape} and {dpsi.shape}")
    if not (np.isfinite(psi).all() and np.isfinite(dpsi).all()):
        raise InvalidCouplingError("psi and dpsi must be finite")
    if psi.shape[0] != coupling.n:
        raise InvalidCouplingError(
            f"boundary values of length {psi.shape[0]} for an "
            f"{coupling.n}-edge vertex")
    eye = np.eye(coupling.n)
    residual = float(np.linalg.norm(
        (coupling.u - eye) @ psi + 1j * (coupling.u + eye) @ dpsi))
    scale = float(np.linalg.norm(psi) + np.linalg.norm(dpsi)
                  + np.finfo(float).eps)
    ok = residual <= tol * scale
    if ok:
        norm_plus = float(np.linalg.norm(psi + 1j * dpsi))
        norm_minus = float(np.linalg.norm(psi - 1j * dpsi))
        if abs(norm_plus - norm_minus) > tol * scale:
            raise ArithmeticError(
                "boundary form does not vanish although the vertex condition "
                "holds; inconsistent inputs")
    return ok
