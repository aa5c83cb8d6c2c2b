"""Resolvent kernels of star graphs, with point interactions on the edges.

At energy -kappa^2, kappa > 0, a star of n half lines joined by a vertex
coupling U (see coupling) has the kernel G_jl(x, y) = (delta_jl
e^{-kappa |x - y|} + R_jl e^{-kappa (x + y)}) / (2 kappa), R = S_U(i kappa)
(Kostrykin and Schrader, J. Phys. A 32 (1999) 595).  U is normal and each
point interaction sits on every edge, so the star is a sum of half lines,
one per group k of coupling.eigenphases, eigenvalue (c_k + i s_k)^2:

    G_jl(x, y) = sum_k (P_k)_jl g_k(x, y),
    g_k(x, y) = e^{-kappa |x - y|} ((1 + r_k) + r_k expm1(-2 kappa min(x, y)))
                / (2 kappa),   1 + r_k = 2 kappa c_k / (kappa c_k - s_k),

with P_k the spectral projector (J/n and I - J/n exactly for a family,
V_k V_k* otherwise) and 1 + r_k from scattering.one_plus_s_sectors.  This
form keeps its relative accuracy near the origin, where a Dirichlet group
has 1 + r_k = 0, and stays finite for large kappa x.  PoleError is raised,
by that guard, where sigma_min(D) = 2 min_k |kappa c_k - s_k|,
D = (i kappa + 1) I + (i kappa - 1) U, is below ROBIN_POLE_TOL
2 sqrt(1 + kappa^2), its largest possible value: a bound state sits at
kappa = s_k / c_k (for Robin psi'(0) = b psi(0) the guard reads
|kappa + b| < ROBIN_POLE_TOL sqrt((1 + b^2)(1 + kappa^2))).  Decomposed
phases enter unrefined, with an error below about 8 eps cond(D) in 1 + r_k,
the amplified rounding of U itself.  Each g_k is real, so the kernel is
real exactly when U = U^T (every HalflineBC and StarModel), and complex
Hermitian otherwise.

Delta potentials of strengths c_q at distances a_q > 0, C = diag(c), enter
each group through its own Krein update over the points A = (a_q),

    g_k(x, y) - g_k(x, A) (C^{-1} + g_k(A, A))^{-1} g_k(A, y),

for one point g_k - g_k(x, a) c g_k(a, y) / (1 + c g_k(a, a)).  c = 0 is
a no-op and c = +-inf a hard screen (C^{-1} = 0); points at one position
are one point (strengths add, a screen wins).  Rows are scaled to
I + c g_k(A, A) (finite c) and 2 kappa g_k(A, A) (infinite c), since
g_k(a, a) = O(a) near a Dirichlet origin, and PoleError is raised when the
smallest singular value of a scaled block falls below KREIN_POLE_TOL.
That is the guard of one update over all pairs (edge e, a_q): V* takes
its scaled matrix to the direct sum of these blocks, each repeated by its
multiplicity, so the smallest singular values agree.

halfline_kernel and star_green share one memoised vertex_kernel per
``vertex = (family, n, param)`` entry of HalflineBC and StarModel, and
the coupling U of each entry is memoised too: the finite-difference
builds and oracle-check read the same one, so a kernel and its FD check
build U once.  One evaluator body serves float and array arguments, and
non-real kappa or arguments raise ValueError.  sector_decompose and
sector_green, the family case of the group sum, are an independent oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Sequence

import numpy as np

from .coupling import VertexCoupling, _check_edge_count, _real, make_coupling
from .errors import PoleError
from .scattering import one_plus_s_sectors

#: smallest singular values of D below this (relative) raise PoleError
ROBIN_POLE_TOL = 1e-10
#: smallest singular values of a scaled Krein block below this raise PoleError
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
        if self.kind == "robin" and not math.isfinite(_real(self.b)):
            raise ValueError("robin parameter must be finite; use dirichlet "
                             "for the b = inf limit")
        if self.kind == "robin_scaled":
            _check_edge_count(self.n, ValueError)
            if not math.isfinite(_real(self.beta)):
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
        return cls("robin", b=_real(b))

    @classmethod
    def robin_scaled(cls, n: int, beta: float) -> "HalflineBC":
        return cls("robin_scaled", n=n, beta=_real(beta))

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
    """Raise ValueError unless kappa (energy -kappa^2) is a real number,
    finite and > 0; a bool is not."""
    if not (isinstance(kappa, (int, float, np.integer, np.floating))
            and not isinstance(kappa, bool)
            and math.isfinite(kappa) and kappa > 0):
        raise ValueError(f"kappa must be a finite positive real number, "
                         f"got {kappa!r}")


def check_edges(n: int, *edges) -> None:
    """Raise ValueError unless every edge index is an integer in [0, n);
    a bool or a float would index (or mask) the edge arrays silently."""
    for e in edges:
        if type(e) is int and 0 <= e < n:    # the common case, tested first
            continue
        if not (isinstance(e, (int, np.integer)) and not isinstance(e, bool)
                and 0 <= e < n):
            raise ValueError(f"edge indices must lie in [0, {n}), got "
                             f"{', '.join(map(str, edges))}")


def check_points(points) -> tuple[PointInteraction, ...]:
    """The points as a tuple; ValueError unless each is a PointInteraction."""
    points = tuple(points)
    for p in points:
        if not isinstance(p, PointInteraction):
            raise ValueError(f"not a PointInteraction: {p!r}")
    return points


def vertex_kernel(coupling: VertexCoupling,
                  points: Sequence[PointInteraction],
                  kappa: float) -> Callable:
    """Evaluator (j, x, l, y) -> G_jl(x, y) of the star with vertex
    coupling ``coupling`` and the delta potentials ``points``, each placed
    on every edge, at energy -kappa^2.  Edges are 0-based; x and y
    broadcast over numpy arrays, and floats give a float (complex when
    U != U^T), from one body with math or numpy elementary functions.
    Arguments must be real (int, float, or an integer or float array; not
    bool), finite and >= 0, or ValueError.  Pole guards run here, up front."""
    n = coupling.n
    check_kappa(kappa)
    merged: dict[float, float] = {}    # one point per position
    for p in check_points(points):
        merged[p.a] = p.c if math.isinf(p.c) else merged.get(p.a, 0.0) + p.c
    pos = [a for a, c in merged.items() if c != 0.0]
    strengths = [merged[a] for a in pos]
    phases = coupling.eigenphases
    try:
        values, _ = one_plus_s_sectors(phases, 1j * kappa, ROBIN_POLE_TOL)
    except PoleError as exc:
        where = "Robin" if n == 1 else "vertex"
        raise PoleError(
            f"{where} kernel pole: {exc}: energy -kappa^2 = {-kappa**2} is "
            "a bound state of the vertex coupling") from None
    one_plus_r = np.array([v.real for v in values])    # per group k
    kreins = [[]] * len(values)
    if pos:
        # (C^{-1} + g_k(A, A))^{-1} from the scaled blocks I + c g_k(A, A),
        # 2 kappa g_k(A, A) for infinite c
        at, opr = np.array(pos), one_plus_r[:, None, None]
        finite = np.isfinite(strengths)
        weight = np.where(finite, strengths, 2.0 * kappa)
        e_aa = np.exp(-kappa * np.abs(at[:, None] - at))
        m_aa = np.expm1(-2.0 * kappa * np.minimum(at[:, None], at))
        g_aa = e_aa * (opr + (opr - 1.0) * m_aa) / (2.0 * kappa)
        scaled = weight[:, None] * g_aa + np.diag(finite.astype(float))
        one = len(pos) == 1
        smin = np.abs(scaled).min() if one else \
            np.linalg.svd(scaled, compute_uv=False).min()
        if smin < KREIN_POLE_TOL:
            raise PoleError(
                f"Krein denominator: sigma_min(I + c G(a, a)) = {smin:.3e} "
                f"below {KREIN_POLE_TOL} at a={pos}, c={strengths}: "
                f"energy -kappa^2 = {-kappa**2} "
                "sits on an eigenvalue of the perturbed operator")
        kreins = (weight / scaled if one else
                  np.linalg.solve(scaled, np.diag(weight))).tolist()
    sectors = list(zip(one_plus_r.tolist(), (one_plus_r - 1.0).tolist(),
                       kreins))
    # weights[j][l][k] = (P_k)_jl, real when U = U^T
    weights = phases.projectors(np.array_equal(coupling.u, coupling.u.T))
    two_kappa = 2.0 * kappa

    def evaluate(j: int, x, l: int, y):
        check_edges(n, j, l)
        if isinstance(x, (int, float)) and isinstance(y, (int, float)) \
                and type(x) is not bool and type(y) is not bool:
            if not (0.0 <= x < math.inf and 0.0 <= y < math.inf):
                raise ValueError("kernel arguments must be finite and >= 0")
            exp, expm1, minimum = math.exp, math.expm1, min
        else:
            x, y = np.asarray(x), np.asarray(y)
            if x.dtype.kind not in "iuf" or y.dtype.kind not in "iuf":
                raise ValueError(f"kernel arguments must be real numbers, "
                                 f"got dtypes {x.dtype} and {y.dtype}")
            x, y = x.astype(float, copy=False), y.astype(float, copy=False)
            # min/max also catch NaN, and cost less than elementwise tests
            if any(v.size and not (v.min() >= 0.0 and v.max() < math.inf)
                   for v in (x, y)):
                raise ValueError("kernel arguments must be finite and >= 0")
            exp, expm1, minimum = np.exp, np.expm1, np.minimum
        e = exp(-kappa * abs(x - y))
        m = expm1(-2.0 * kappa * minimum(x, y))
        fx = [(exp(-kappa * abs(x - a)), expm1(-2.0 * kappa * minimum(x, a)))
              for a in pos]
        fy = [(exp(-kappa * abs(a - y)), expm1(-2.0 * kappa * minimum(a, y)))
              for a in pos]
        out = None
        for w, (opr, r, krein) in zip(weights[j][l], sectors):
            # e (1 + r + r m) / (2 kappa), then the group's Krein update
            g = (r * m + opr) * e / two_kappa
            for (u, v), row in zip(fx, krein):
                gq = u * (opr + r * v) / two_kappa
                for c, (s, t) in zip(row, fy):
                    g -= gq * c * (s * (opr + r * t) / two_kappa)
            g = g if w == 1.0 else w * g
            out = g if out is None else out + g
        return out.item() if isinstance(out, np.generic) else out

    return evaluate


@lru_cache(maxsize=64)
def _named_coupling(vertex: tuple[str, int, float]) -> VertexCoupling:
    """make_coupling of a vertex table entry, memoised: the kernels, the
    finite-difference builds and oracle-check share one U per vertex."""
    return make_coupling(*vertex)


@lru_cache(maxsize=64, typed=True)    # True == 1.0 must miss the cache
def _named_kernel(vertex: tuple[str, int, float],
                  points: tuple[PointInteraction, ...], kappa: float):
    """vertex_kernel of a coupling named by its vertex table, memoised:
    the evaluator depends on nothing else, and building it costs more
    than evaluating it."""
    return vertex_kernel(_named_coupling(vertex), points, kappa)


def halfline_kernel(bc: HalflineBC, points, kappa: float):
    """Evaluator (x, y) -> resolvent kernel at energy -kappa^2 of the half
    line with boundary condition ``bc`` and any number of point
    interactions.  Broadcasts over array arguments; values are real."""
    kernel = _named_kernel(bc.vertex, check_points(points), kappa)
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
        check_points(self.points)
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
        if not math.isfinite(_real(param)):
            raise ValueError(f"star model parameter must be finite, got "
                             f"{param}")

    @classmethod
    def delta_prime_s(cls, n: int, beta: float) -> "StarModel":
        return cls(n=n, kind="delta_prime_s", beta=_real(beta))

    @classmethod
    def delta_prime(cls, n: int, beta: float) -> "StarModel":
        return cls(n=n, kind="delta_prime", beta=_real(beta))

    @classmethod
    def central_delta(cls, n: int, b: float,
                      point: PointInteraction | None = None) -> "StarModel":
        return cls(n=n, kind="central_delta", b=_real(b), point=point)

    @classmethod
    def central_delta_p(cls, n: int, b: float,
                        point: PointInteraction | None = None) -> "StarModel":
        return cls(n=n, kind="central_delta_p", b=_real(b), point=point)

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
