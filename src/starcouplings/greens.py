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

HalflineBC gives memoised one-edge couplings, StarModel (coupling, points)
pairs; halfline_kernel and star_green memoise vertex_kernel per pair.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Sequence

from .coupling import (STAR_KINDS, VertexCoupling, _integer, _number,
                       _scale, _symmetric, make_coupling)
from .errors import PoleError

#: Jost functions below this, relative to their terms, raise PoleError
ROBIN_POLE_TOL = 1e-10


@dataclass(frozen=True)
class PointInteraction:
    """A delta potential of strength c at distance a > 0 from the origin.
    c may be math.inf (hard screen)."""

    a: float
    c: float

    def __post_init__(self):
        object.__setattr__(self, "a", _scale(self.a,
                                             "point interaction position"))
        object.__setattr__(self, "c", _number(
            self.c, "point interaction strength", inf=True))


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
    kappa = _scale(kappa, "kappa")
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
            # a numpy scalar (np.float32 is no float) or 0-d array: a float
            if x.ndim == y.ndim == 0:
                return evaluate(j, float(x), l, float(y))
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
        return out if beyond is None else out + beyond

    return evaluate


@lru_cache(maxsize=64)
def _named_coupling(vertex: tuple[str, int, float]) -> VertexCoupling:
    """make_coupling of a (family, n, param) entry, memoised: the kernels,
    the finite-difference builds and oracle-check share one U per vertex,
    and the kernel memo, keyed by the coupling, hits."""
    return make_coupling(*vertex)


class HalflineBC:
    """Boundary conditions at the origin of a half line as memoised one-edge
    couplings: dirichlet(), neumann(), robin(b) (psi'(0) = b psi(0)) and
    robin_scaled(n, beta) (psi(0) = (beta / n) psi'(0))."""

    @staticmethod
    def dirichlet() -> VertexCoupling:
        return _named_coupling(("delta", 1, math.inf))

    @staticmethod
    def neumann() -> VertexCoupling:
        return _named_coupling(("delta", 1, 0.0))

    @staticmethod
    def robin(b: float) -> VertexCoupling:
        return _named_coupling(("delta", 1, _number(b, "robin parameter")))

    @staticmethod
    def robin_scaled(n: int, beta: float) -> VertexCoupling:
        _integer("edge count", n, low=1)
        beta = _number(beta, "robin_scaled parameter")
        return _named_coupling(("delta_prime_s", 1, beta / n))


def StarModel(n: int, kind: str, beta: float | None = None,  # noqa: N802
              b: float | None = None, point: PointInteraction | None = None
              ) -> tuple[VertexCoupling, tuple[PointInteraction, ...]]:
    """A star graph of n half lines with a permutation-symmetric center,
    as the pair (coupling, points) that star_green and fd_resolvent_star
    take; the coupling is memoised.

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
    _integer("edge count", n, low=1)
    if kind not in STAR_KINDS:
        raise ValueError(f"unknown star model kind {kind!r}")
    points = () if point is None else check_points((point,))
    # _number refuses a missing (None) beta or b
    if kind in STAR_KINDS[:2]:
        if b is not None or point is not None:
            raise ValueError("target models take no b and no point "
                             "interaction")
        return _named_coupling(
            (kind, n, _number(beta, "star model parameter beta"))), points
    if beta is not None:
        raise ValueError("approximant models take no beta")
    b = _number(b, "star model parameter b")
    if kind == "central_delta":
        # per-channel condition psi'(0+) = b psi(0): n-edge strength n b
        return _named_coupling(("delta", n, n * b)), points
    return _named_coupling(("delta_p", n, b)), points


def _star(model, edges: int | None = None):
    """model if it is a (VertexCoupling, tuple of PointInteraction) pair,
    of ``edges`` edges if given (one for a half line); else ValueError."""
    if not (isinstance(model, tuple) and len(model) == 2
            and isinstance(model[0], VertexCoupling)
            and isinstance(model[1], tuple)
            and edges in (None, model[0].n)):
        raise ValueError(f"a model is a ({edges or 'n'}-edge VertexCoupling, "
                         f"tuple of PointInteraction) pair, got {model!r}")
    return model[0], check_points(model[1])


@lru_cache(maxsize=64, typed=True)    # True == 1.0 must miss the cache
def _kernel(model, kappa: float):
    """vertex_kernel of a (coupling, points) pair, memoised: the evaluator
    depends on nothing else, and building it costs more than evaluating
    it.  The pair is checked here, on a miss only."""
    return vertex_kernel(*_star(model), kappa)


def halfline_kernel(bc: VertexCoupling, points, kappa: float):
    """Evaluator (x, y) -> resolvent kernel at energy -kappa^2 of the half
    line with the one-edge coupling ``bc`` (a HalflineBC) and any number
    of point interactions.  Broadcasts over array arguments; values are
    real."""
    model = _star((bc, check_points(points)), 1)
    try:
        kernel = _kernel(model, kappa)
    except TypeError:    # an unhashable kappa, refused as vertex_kernel does
        kernel = _kernel(model, _scale(kappa, "kappa"))
    return lambda x, y: kernel(0, x, 0, y)


def sector_green(sector, kappa: float, x, y):
    """Kernel of one sector, a record with a one-edge coupling ``.bc`` (a
    HalflineBC) and a PointInteraction or None ``.point``: its half-line
    kernel, with the sector's point interaction when it carries one.  No
    package code calls it: the tests' sector oracles do, and convergence
    keeps it for the sweep workload of benchmarks/."""
    points = () if sector.point is None else (sector.point,)
    return halfline_kernel(sector.bc, points, kappa)(x, y)


def star_green(model, kappa: float, edge_j: int, x, edge_l: int, y):
    """Edge-indexed kernel G_jl(x, y) of the star model, a (coupling,
    points) pair as StarModel makes it, symmetric under (j, x) <-> (l, y).
    Edges are 0-based."""
    try:
        kernel = _kernel(model, kappa)
    except TypeError:    # an unhashable model (a list, or a list of
        # points) or kappa, refused as vertex_kernel refuses them
        kernel = _kernel(_star(model), _scale(kappa, "kappa"))
    return kernel(edge_j, x, edge_l, y)
