"""Resolvent kernels of star graphs, with point interactions on the edges.

A star of n half lines joined at the origin by a vertex coupling U (see
the coupling module) has, at energy -kappa^2 with kappa > 0, the
edge-indexed resolvent kernel (Kostrykin and Schrader, J. Phys. A 32
(1999) 595)

    G_jl(x, y) = (delta_jl e^{-kappa |x - y|} + R_jl e^{-kappa (x + y)})
                 / (2 kappa),
    R = S_U(i kappa) = ((i kappa - 1) I + (i kappa + 1) U) D^{-1},
    D = (i kappa + 1) I + (i kappa - 1) U.

A half line is the star with one edge.  The kernel is evaluated as

    G(x, y) = e^{-kappa |x - y|} ((I + R) + R expm1(-2 kappa min(x, y)))
              / (2 kappa),
    I + R = 2 i kappa (I + U) D^{-1},

which keeps its relative accuracy near the origin, where a Dirichlet
edge has I + R = 0 and the kernel is O(min(x, y)), and stays finite for
large kappa x.  I + R comes from scattering.one_plus_s at k = i kappa.
D is singular exactly when -kappa^2 is a bound-state energy (an
eigenvalue e^{i theta} of U with kappa = tan(theta / 2)); the kernel
raises PoleError when its smallest singular value falls below
ROBIN_POLE_TOL 2 sqrt(1 + kappa^2), the largest it can be.  For a Robin
condition psi'(0) = b psi(0) this reads
|kappa + b| < ROBIN_POLE_TOL sqrt((1 + b^2)(1 + kappa^2)).

The kernel is real exactly when U = U^T (every HalflineBC and StarModel):
then R is real and the evaluation runs in real arithmetic.  Otherwise it
is complex and Hermitian, G_jl(x, y) = conj G_lj(y, x).

Delta potentials of strengths c_k at distances a_k > 0, each placed on
every edge, enter through one matrix Krein update over the points
P = {(edge e, a_k)}:

    G_c(x, y) = G(x, y) - G(x, P) (C^{-1} + G(P, P))^{-1} G(P, y),

C = diag(c).  c = 0 is a no-op and c = +-inf a hard screen (C^{-1} = 0)
that forces the kernel to vanish at a.  The rows of C^{-1} + G(P, P) are
scaled to I + c G(P, P) (finite c) and 2 kappa G(P, P) (infinite c), and
PoleError is raised when the smallest singular value of the scaled
matrix falls below KREIN_POLE_TOL: the energy sits on an eigenvalue of
the perturbed operator.  The scaling matters near the origin, where
G(a, a) = O(a) on a Dirichlet edge, so that the unscaled denominator
-1/c - G(a, a) = -(1 + c G(a, a)) / c is tiny with no eigenvalue near.

HalflineBC and StarModel each name their coupling by one table entry
``vertex = (family, n, param)`` for make_coupling, and that U is all the
kernel reads: halfline_kernel and star_green share one memoised
vertex_kernel per entry (a half line's reflection constant is
R = 2 kappa G(0, 0) - 1).  The symmetry-sector decomposition
(sector_decompose, sector_green) remains as an independent oracle: the
star kernel is G_lead(x, y) / n + (delta_jl - 1/n) G_rest(x, y).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Sequence

import numpy as np

from .coupling import VertexCoupling, _check_edge_count, make_coupling
from .errors import PoleError
from .scattering import one_plus_s

#: smallest singular values of D below this (relative) raise PoleError
ROBIN_POLE_TOL = 1e-10
#: smallest singular values of the scaled Krein matrix below this raise
#: PoleError
KREIN_POLE_TOL = 1e-12
#: StarModel kinds: the two targets (parameter beta), then the two
#: approximants (parameter b)
STAR_KINDS = ("delta_prime_s", "delta_prime", "central_delta",
              "central_delta_p")
#: HalflineBC kinds and the fields each reads; the others must stay 0
_BC_FIELDS = {"dirichlet": (), "neumann": (), "robin": ("b",),
              "robin_scaled": ("n", "beta")}


@dataclass(frozen=True)
class HalflineBC:
    """Boundary condition at the origin of a half line.

    Use the constructors dirichlet(), neumann(), robin(b) and
    robin_scaled(n, beta); robin_scaled means psi(0) = (beta / n) psi'(0).
    """

    kind: str
    b: float = 0.0
    n: int = 0
    beta: float = 0.0

    def __post_init__(self):
        if self.kind not in _BC_FIELDS:
            raise ValueError(f"unknown boundary condition {self.kind!r}")
        unread = [f for f in ("b", "n", "beta")
                  if f not in _BC_FIELDS[self.kind] and getattr(self, f) != 0]
        if unread:
            raise ValueError(f"{self.kind} reads no {', '.join(unread)}")
        if self.kind == "robin" and not math.isfinite(self.b):
            raise ValueError("robin parameter must be finite; use dirichlet "
                             "for the b = inf limit")
        if self.kind == "robin_scaled":
            _check_edge_count(self.n, ValueError)
            if not math.isfinite(self.beta):
                raise ValueError("robin_scaled parameter must be finite; use "
                                 "neumann for the beta = inf limit")

    @classmethod
    def dirichlet(cls) -> "HalflineBC":
        return cls("dirichlet")

    @classmethod
    def neumann(cls) -> "HalflineBC":
        return cls("neumann")

    @classmethod
    def robin(cls, b: float) -> "HalflineBC":
        return cls("robin", b=float(b))

    @classmethod
    def robin_scaled(cls, n: int, beta: float) -> "HalflineBC":
        return cls("robin_scaled", n=n, beta=float(beta))

    @property
    def vertex(self) -> tuple[str, int, float]:
        """The condition as a one-edge coupling, (family, n, param) for
        make_coupling."""
        if self.kind == "dirichlet":
            return ("delta", 1, math.inf)
        if self.kind == "neumann":
            return ("delta", 1, 0.0)
        if self.kind == "robin":
            return ("delta", 1, self.b)
        return ("delta_prime_s", 1, self.beta / self.n)


@dataclass(frozen=True)
class PointInteraction:
    """A delta potential of strength c at distance a > 0 from the origin.
    c may be math.inf (hard screen)."""

    a: float
    c: float

    def __post_init__(self):
        if not (math.isfinite(self.a) and self.a > 0):
            raise ValueError("point interaction position must be finite and "
                             f"> 0, got {self.a}")
        if math.isnan(self.c):
            raise ValueError("point interaction strength must not be NaN; "
                             "use math.inf for the hard screen")


def check_kappa(kappa: float) -> None:
    """Raise ValueError unless kappa (energy -kappa^2) is finite and > 0."""
    if not (math.isfinite(kappa) and kappa > 0):
        raise ValueError(f"kappa must be finite and positive, got {kappa}")


def check_edges(n: int, *edges) -> None:
    """Raise ValueError unless every edge index is an integer in [0, n);
    a bool or a float would index (or mask) the edge arrays silently."""
    if not all(isinstance(e, (int, np.integer)) and not isinstance(e, bool)
               and 0 <= e < n for e in edges):
        raise ValueError(f"edge indices must lie in [0, {n}), got "
                         f"{', '.join(map(str, edges))}")


def vertex_kernel(coupling: VertexCoupling,
                  points: Sequence[PointInteraction],
                  kappa: float) -> Callable:
    """Evaluator (j, x, l, y) -> G_jl(x, y) of the star with vertex
    coupling ``coupling`` and the delta potentials ``points``, each placed
    on every edge, at energy -kappa^2.  Edges are 0-based; x and y
    broadcast over numpy arrays.  Pole guards run here, up front."""
    n = coupling.n
    check_kappa(kappa)
    try:
        one_plus_r = one_plus_s(coupling, 1j * kappa, ROBIN_POLE_TOL)
    except PoleError as exc:
        where = "Robin" if n == 1 else "vertex"
        raise PoleError(
            f"{where} kernel pole: {exc}: energy -kappa^2 = {-kappa**2} is "
            "a bound state of the vertex coupling") from None
    r = one_plus_r - np.eye(n)

    def base(j, x, l, y):
        return np.exp(-kappa * np.abs(x - y)) * (
            one_plus_r[j, l]
            + r[j, l] * np.expm1(-2.0 * kappa * np.minimum(x, y))) \
            / (2.0 * kappa)

    active = [p for p in points if p.c != 0.0]
    if active:
        edges = np.tile(np.arange(n), len(active))
        pos = np.repeat([p.a for p in active], n)
        strength = np.repeat([p.c for p in active], n)
        g_pp = base(edges[:, None], pos[:, None], edges[None, :],
                    pos[None, :])
        finite = np.isfinite(strength)
        weight = np.where(finite, strength, 2.0 * kappa)
        scaled = weight[:, None] * g_pp + np.diag(finite.astype(float))
        smin = np.linalg.svd(scaled, compute_uv=False)[-1]
        if smin < KREIN_POLE_TOL:
            raise PoleError(
                f"Krein denominator: sigma_min(I + c G(a, a)) = {smin:.3e} "
                f"below {KREIN_POLE_TOL} at a={[p.a for p in active]}, "
                f"c={[p.c for p in active]}: energy -kappa^2 = {-kappa**2} "
                "sits on an eigenvalue of the perturbed operator")
        krein = np.linalg.solve(scaled, np.diag(weight))

    def evaluate(j: int, x, l: int, y):
        check_edges(n, j, l)
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        for v in (x, y):
            # min/max also catch NaN, and cost less than elementwise tests
            if v.size and not (v.min() >= 0.0 and v.max() < math.inf):
                raise ValueError("kernel arguments must be finite and >= 0")
        out = base(j, x, l, y)
        if active:
            g_xp = base(j, x[..., None], edges, pos)
            g_py = base(edges, pos, l, y[..., None])
            out = out - np.sum((g_xp @ krein) * g_py, axis=-1)
        return out if out.ndim else out.item()

    return evaluate


@lru_cache(maxsize=64)
def _named_kernel(vertex: tuple[str, int, float],
                  points: tuple[PointInteraction, ...], kappa: float):
    """vertex_kernel of a coupling named by its vertex table, memoised:
    the evaluator depends on nothing else, and building it costs more
    than evaluating it."""
    return vertex_kernel(make_coupling(*vertex), points, kappa)


def halfline_kernel(bc: HalflineBC, points, kappa: float):
    """Evaluator (x, y) -> resolvent kernel at energy -kappa^2 of the half
    line with boundary condition ``bc`` and any number of point
    interactions.  Broadcasts over array arguments; values are real."""
    kernel = _named_kernel(bc.vertex, tuple(points), kappa)
    return lambda x, y: kernel(0, x, 0, y)


@dataclass(frozen=True)
class StarModel:
    """A star graph of n half lines with a permutation-symmetric center.

    Targets (singular couplings, parameter beta):
        delta_prime_s   common derivative, sum of values = beta * psi'(0)
        delta_prime     derivative sum zero, pairwise value differences
                        = (beta / n) * derivative differences

    Approximants (parameter b, optional shared per-edge point interaction):
        central_delta    delta-type center with per-channel origin
                         condition psi'(0+) = b psi(0) (the n-edge coupling
                         strength is n * b)
        central_delta_p  delta_p-type center with coupling parameter b

    Approximants carry at most one point interaction, applied identically
    on every edge.  beta and b must be finite.
    """

    n: int
    kind: str
    beta: float | None = None
    b: float | None = None
    point: PointInteraction | None = None

    def __post_init__(self):
        _check_edge_count(self.n, ValueError)
        if self.kind not in STAR_KINDS:
            raise ValueError(f"unknown star model kind {self.kind!r}")
        if not isinstance(self.point, (PointInteraction, type(None))):
            raise ValueError(f"not a PointInteraction: {self.point!r}")
        if self.kind in STAR_KINDS[:2]:
            if self.beta is None:
                raise ValueError(f"target model {self.kind!r} needs beta")
            if self.b is not None or self.point is not None:
                raise ValueError("target models take no b and no point "
                                 "interaction")
        else:
            if self.b is None:
                raise ValueError(f"approximant model {self.kind!r} needs b")
            if self.beta is not None:
                raise ValueError("approximant models take no beta")
        param = self.beta if self.b is None else self.b
        if not math.isfinite(param):
            raise ValueError(f"star model parameter must be finite, got "
                             f"{param}")

    @classmethod
    def delta_prime_s(cls, n: int, beta: float) -> "StarModel":
        return cls(n=n, kind="delta_prime_s", beta=float(beta))

    @classmethod
    def delta_prime(cls, n: int, beta: float) -> "StarModel":
        return cls(n=n, kind="delta_prime", beta=float(beta))

    @classmethod
    def central_delta(cls, n: int, b: float,
                      point: PointInteraction | None = None) -> "StarModel":
        return cls(n=n, kind="central_delta", b=float(b), point=point)

    @classmethod
    def central_delta_p(cls, n: int, b: float,
                        point: PointInteraction | None = None) -> "StarModel":
        return cls(n=n, kind="central_delta_p", b=float(b), point=point)

    @property
    def vertex(self) -> tuple[str, int, float]:
        """The central coupling, (family, n, param) for make_coupling."""
        if self.kind == "central_delta":
            # per-channel condition psi'(0+) = b psi(0): n-edge strength n b
            return ("delta", self.n, self.n * self.b)
        if self.kind == "central_delta_p":
            return ("delta_p", self.n, self.b)
        return (self.kind, self.n, self.beta)

    @property
    def points(self) -> tuple[PointInteraction, ...]:
        return () if self.point is None else (self.point,)


@dataclass(frozen=True)
class SectorSpec:
    """One half-line block of a symmetry-reduced star model."""

    bc: HalflineBC
    point: PointInteraction | None
    multiplicity: int


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


def sector_green(sector: SectorSpec, kappa: float, x, y):
    """Kernel of one sector: its half-line kernel, with the sector's point
    interaction when it carries one."""
    points = () if sector.point is None else (sector.point,)
    return _named_kernel(sector.bc.vertex, points, kappa)(0, x, 0, y)


def star_green(model: StarModel, kappa: float, edge_j: int, x,
               edge_l: int, y):
    """Edge-indexed kernel G_jl(x, y) of the star model, symmetric under
    (j, x) <-> (l, y).  Edges are 0-based."""
    return _named_kernel(model.vertex, model.points, kappa)(
        edge_j, x, edge_l, y)
