"""Resolvent kernels of star graphs, with point interactions on the edges.

At energy -kappa^2 a star of n half lines joined by a vertex coupling U,
with each delta potential (c_q at a_q > 0, c = +-inf a hard screen) on
every edge, is a sum of half lines (Kostrykin and Schrader, J. Phys. A 32
(1999) 595), one per group k of coupling.eigenphases, eigenvalue (c_k +
i s_k)^2, where s_k psi(0) + c_k psi'(0) = 0.  With P_k the spectral
projector, lo = min(x, y) and hi = max(x, y),

    G_jl(x, y) = -sum_k (P_k)_jl (c_k u_1 - s_k u_2)(lo) phi(hi) / J_k,
    J_k = c_k phi'(0) + s_k phi(0).

The solutions are group-free: u_1 and u_2 start from (u, u')(0) = (1, 0)
and (0, 1), phi decays at infinity or vanishes at the first screen.  Each
is carried across the points by one Duhamel term per point, c_q u(a_q)
sinh(kappa |x - a_q|) / kappa, in the scale of its free growth (e^{-kappa
x} u, e^{kappa x} phi), so nothing overflows.  A diagonal entry is (b_j
u_2(lo) - a_j u_1(lo)) phi(hi), a_j + i b_j = sum_k (P_k)_jj (c_k + i s_k)
/ J_k.  Off the diagonal sum_k (P_k)_jl = 0 drops the group-free part of
u_k / J_k: the entry is Gamma_jl phi(lo) phi(hi), Gamma = sum_k gamma_k
P_k, gamma_k = (s_k phi'(0) - c_k phi(0)) / ((phi(0)^2 + phi'(0)^2) J_k),
so no direct terms cancel and a value across edges keeps its digits.  Past
the first screen an edge is a Dirichlet half line with the remaining
points, the same kernel with the one group (c, s) = (0, 1).

J_k vanishes at the bound states of group k with its points and is the
one pole test: PoleError when |J_k| < ROBIN_POLE_TOL (|c_k phi'(0)| +
|s_k phi(0)|), each summed over its terms, so a phi(0) that cancels near
a wall is no pole.  With no points J_k = s_k - kappa c_k, and the test
trips within about 2 ROBIN_POLE_TOL, relative, of kappa = s_k / c_k.
Decomposed phases enter unrefined, good to about eps cond(D(i kappa))
(see scattering); the kernel is real exactly when U = U^T, as closed-form
phases are, so a family's build forms no U and reads each sum over k of
(P_k)_jl as one of two numbers, on or off the diagonal, with no matrix.

halfline_kernel and star_green share one memoised vertex_kernel per
``vertex = (family, n, param)`` entry, whose coupling is memoised too.
sector_green, the family case of the group sum, is an independent oracle.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Callable, Sequence

from .coupling import (VertexCoupling, _integer, _number, _scale,
                       _symmetric, make_coupling)
from .errors import PoleError

#: Jost functions below this, relative to their terms, raise PoleError
ROBIN_POLE_TOL = 1e-10
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
        if self.kind == "robin":
            object.__setattr__(self, "b", _number(self.b, "robin parameter"))
        if self.kind == "robin_scaled":
            _integer("edge count", self.n, low=1)
            object.__setattr__(self, "beta", _number(
                self.beta, "robin_scaled parameter"))

    @classmethod
    def dirichlet(cls) -> "HalflineBC":
        return cls("dirichlet")

    @classmethod
    def neumann(cls) -> "HalflineBC":
        return cls("neumann")

    @classmethod
    def robin(cls, b: float) -> "HalflineBC":
        return cls("robin", b=b)

    @classmethod
    def robin_scaled(cls, n: int, beta: float) -> "HalflineBC":
        return cls("robin_scaled", n=n, beta=beta)

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
        _scale(self.a, "point interaction position")
        _number(self.c, "point interaction strength", inf=True)


def check_points(points) -> tuple[PointInteraction, ...]:
    """The points as a tuple; ValueError unless each is a PointInteraction."""
    points = tuple(points)
    for p in points:
        if not isinstance(p, PointInteraction):
            raise ValueError(f"not a PointInteraction: {p!r}")
    return points


#: the scalar argument types of a kernel, bool excepted
_REAL = (int, float)
#: the elementary functions of float arguments; arrays take numpy's
_FLOAT = (math.exp, math.expm1, min, max, True)
#: past the first screen each edge is a Dirichlet half line, built once
_DIRICHLET_EDGE = make_coupling("delta", 1, math.inf)


def vertex_kernel(coupling: VertexCoupling,
                  points: Sequence[PointInteraction],
                  kappa: float) -> Callable:
    """Evaluator (j, x, l, y) -> G_jl(x, y) of the star with vertex
    coupling ``coupling`` and the delta potentials ``points`` on every
    edge, at energy -kappa^2; the pole test runs here.  Edges are 0-based;
    x and y broadcast over numpy arrays, floats give a float (complex when
    U != U^T); each must be real (not bool), finite and >= 0."""
    n = coupling.n
    _scale(kappa, "kappa")
    merged: dict[float, float] = {}    # strengths add, a screen wins
    for p in check_points(points):
        merged[p.a] = p.c if math.isinf(p.c) else merged.get(p.a, 0.0) + p.c
    end = min([a for a, c in merged.items() if math.isinf(c)] + [math.inf])
    wall = None if end == math.inf else vertex_kernel(
        _DIRICHLET_EDGE, [PointInteraction(a - end, c)
                          for a, c in merged.items() if a > end], kappa)
    at = sorted(a for a, c in merged.items() if a < end and c != 0.0)
    two = 2.0 * kappa

    def duhamel(out, terms, sign, x, fns=_FLOAT):
        # out + k expm1(-2 kappa sign (x - a)) for each (a, k) in terms
        # with sign (x - a) > 0, the terms ordered nearest to x first
        _, expm1, _, maximum, scalar = fns
        for a, k in terms:
            if scalar and sign * (x - a) <= 0.0:
                break
            out += k * expm1(-two * maximum(sign * (x - a), 0.0))
        return out

    # u_1 = 1 + expm1(-2 kappa x) / 2, u_2 = -expm1(-2 kappa x) / 2 kappa
    # (times e^{-kappa x}) and phi = 1 or -expm1(-2 kappa (end - x)) (times
    # e^{kappa x}), each with a term -c_q (u or phi)(a_q) / 2 kappa per point
    u1s, u2s = [(0.0, 0.5)], [(0.0, -1.0 / two)]
    for a in at:
        u1s.append((a, -merged[a] * duhamel(1.0, u1s, 1, a) / two))
        u2s.append((a, -merged[a] * duhamel(0.0, u2s, 1, a) / two))
    base, falls = (1.0, []) if end == math.inf else (0.0, [(end, -1.0)])
    for a in reversed(at):
        falls.append((a, -merged[a] * duhamel(base, falls, -1, a) / two))
    phi0 = [base] + [f * math.expm1(-two * a) for a, f in falls]
    dphi0 = [-kappa * base] + [kappa * f * (1.0 + math.exp(-two * a))
                               for a, f in falls]
    f0, f1 = math.fsum(phi0), math.fsum(dphi0)
    phases, josts = coupling.eigenphases, []
    for c, s, _ in phases.groups:
        josts.append(c * f1 + s * f0)
        size = abs(c) * sum(map(abs, dphi0)) + abs(s) * sum(map(abs, phi0))
        if not abs(josts[-1]) >= ROBIN_POLE_TOL * size:
            raise PoleError(f"kernel pole at kappa = {kappa}: group ({c}, "
                            f"{s}) has Jost function {josts[-1]:.3e}, below "
                            f"{ROBIN_POLE_TOL} x its terms {size:.3e}")
    real = phases.exact or _symmetric(coupling.u)
    kind = float if real else complex
    diag = phases._entries([complex(c, s) / jost for (c, s, _), jost
                            in zip(phases.groups, josts)])

    def rise(j):    # the Duhamel terms of b_j u_2 - a_j u_1
        d = diag(j, j)
        a, b = kind(d.real), kind(d.imag)
        return -a, [(p, b * k2 - a * k1) for (p, k1), (_, k2) in zip(u1s, u2s)]

    # closed-form phases have one diagonal entry, so all edges share a list
    rises = [rise(0)] * n if phases.exact else list(map(rise, range(n)))
    gamma = phases._entries([(s * f1 - c * f0) / ((f0 * f0 + f1 * f1) * jost)
                             for (c, s, _), jost in zip(phases.groups, josts)],
                            real)                   # gamma(j, l)
    phi = (base, falls)
    screened, top = end < math.inf, sys.float_info.max

    def evaluate(j: int, x, l: int, y):
        # plain ints and floats are tested first, by type alone
        if not (type(j) is type(l) is int and 0 <= j < n and 0 <= l < n):
            _integer("edge indices", j, l, high=n)
        if (type(x) in _REAL and type(y) in _REAL) or (
                isinstance(x, _REAL) and isinstance(y, _REAL)
                and type(x) is not bool and type(y) is not bool):
            # an int beyond the largest double has no float
            if not (0.0 <= x <= top and 0.0 <= y <= top):
                raise ValueError("kernel arguments must be finite and >= 0")
            fns = _FLOAT
        else:
            import numpy as np
            x, y = np.asarray(x), np.asarray(y)
            if x.dtype.kind not in "iuf" or y.dtype.kind not in "iuf":
                raise ValueError(f"kernel arguments must be real numbers, "
                                 f"got dtypes {x.dtype} and {y.dtype}")
            x, y = x.astype(float, copy=False), y.astype(float, copy=False)
            # min/max also catch NaN, and cost less than elementwise tests
            if any(v.size and not (v.min() >= 0.0 and v.max() < math.inf)
                   for v in (x, y)):
                raise ValueError("kernel arguments must be finite and >= 0")
            fns = (np.exp, np.expm1, np.minimum, np.maximum, False)
        exp, _, minimum, maximum, scalar = fns
        beyond = None     # phi(end) = 0: nothing crosses a screen
        if screened and j == l and not (scalar and max(x, y) <= end):
            beyond = wall(0, maximum(x - end, 0.0), 0, maximum(y - end, 0.0))
        if screened:
            x, y = minimum(x, end), minimum(y, end)
        if j != l:    # Gamma_jl e^{-kappa (x + y)} phi(x) phi(y)
            fx = gamma(j, l) * exp(-kappa * x) * duhamel(*phi, -1, x, fns)
            out = fx * (exp(-kappa * y) * duhamel(*phi, -1, y, fns))
        elif scalar:  # e^{-kappa |x - y|} (b_j u_2 - a_j u_1)(lo) phi(hi)
            lo, hi = (x, y) if x <= y else (y, x)
            out = duhamel(*rises[j], 1, lo, fns) * duhamel(*phi, -1, hi, fns) \
                * exp(-kappa * (hi - lo))
        else:         # each factor on x and y, so on the axes of a grid
            below = x <= y
            out = np.where(below, duhamel(*rises[j], 1, x, fns),
                           duhamel(*rises[j], 1, y, fns))
            out *= exp(-kappa * abs(x - y))
            if falls:
                out *= np.where(below, duhamel(*phi, -1, y, fns),
                                duhamel(*phi, -1, x, fns))
        out = out if beyond is None else out + beyond
        # 0-d array arguments leave a numpy scalar: return its Python value
        return out.item() if not scalar and isinstance(out, np.generic) \
            else out

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
    on every edge.
    """

    n: int
    kind: str
    beta: float | None = None
    b: float | None = None
    point: PointInteraction | None = None

    def __post_init__(self):
        _integer("edge count", self.n, low=1)
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
        name = "beta" if self.b is None else "b"
        object.__setattr__(self, name, _number(getattr(self, name),
                                               f"star model parameter {name}"))

    @classmethod
    def delta_prime_s(cls, n: int, beta: float) -> "StarModel":
        return cls(n=n, kind="delta_prime_s", beta=beta)

    @classmethod
    def delta_prime(cls, n: int, beta: float) -> "StarModel":
        return cls(n=n, kind="delta_prime", beta=beta)

    @classmethod
    def central_delta(cls, n: int, b: float,
                      point: PointInteraction | None = None) -> "StarModel":
        return cls(n=n, kind="central_delta", b=b, point=point)

    @classmethod
    def central_delta_p(cls, n: int, b: float,
                        point: PointInteraction | None = None) -> "StarModel":
        return cls(n=n, kind="central_delta_p", b=b, point=point)

    # the two below are computed once, on the first read: star_green reads
    # them on every call, and they are no fields, so ==, hash and repr
    # are the dataclass's
    @cached_property
    def vertex(self) -> tuple[str, int, float]:
        """The central coupling, (family, n, param) for make_coupling."""
        if self.kind == "central_delta":
            # per-channel condition psi'(0+) = b psi(0): n-edge strength n b
            return ("delta", self.n, self.n * self.b)
        if self.kind == "central_delta_p":
            return ("delta_p", self.n, self.b)
        return (self.kind, self.n, self.beta)

    @cached_property
    def points(self) -> tuple[PointInteraction, ...]:
        return () if self.point is None else (self.point,)


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
