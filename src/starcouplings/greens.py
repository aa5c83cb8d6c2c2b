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
(see scattering); the kernel is real exactly when U = U^T (coupling's
one answer, from closed-form phases first), so a family's build forms no U
and reads each (P_k)_jl sum as one of two numbers, with no matrix.

HalflineBC gives memoised one-edge couplings, StarModel (coupling, points)
pairs; halfline_kernel and star_green memoise vertex_kernel per pair.
PointInteraction, ROBIN_POLE_TOL, check_points and _star live in
coupling, which the finite-difference oracle reads instead of this module.
Every value is computed in math at number coordinates (coupling._number),
and _halfline_rows reads an edge's kernel row by row at float nodes (for
the CLI and the tests), each factor once per node: no numpy is named.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from functools import lru_cache
from operator import add
from typing import Callable, Sequence

from .coupling import (ROBIN_POLE_TOL, STAR_KINDS, PointInteraction,
                       VertexCoupling, _instance, _integer, _number, _scale,
                       _star, check_points, make_coupling)
from .errors import PoleError

#: past the first screen each edge is a Dirichlet half line, built once
_DIRICHLET_EDGE = make_coupling("delta", 1, math.inf)


def vertex_kernel(coupling: VertexCoupling,
                  points: Sequence[PointInteraction],
                  kappa: float) -> Callable:
    """Evaluator (j, x, l, y) -> G_jl(x, y) of the star with vertex
    coupling ``coupling`` and the delta potentials ``points`` on every
    edge, at energy -kappa^2; the pole test runs here.  Edges are 0-based;
    floats give a float (complex when U != U^T), and a numpy scalar what
    its float gives.  A coordinate must be a real number (not a bool, an
    array or a complex), finite and >= 0; else ValueError."""
    n = _instance(coupling, VertexCoupling, "coupling").n
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

    def duhamel(out, terms, sign, x):
        # out + k expm1(-2 kappa sign (x - a)) for each (a, k) in terms
        # with sign (x - a) > 0, the terms ordered nearest to x first
        for a, k in terms:
            if sign * (x - a) <= 0.0:
                break
            out += k * math.expm1(-two * (sign * (x - a)))
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
    # repulsive points have no bound state: a solution carried past the
    # doubles is a range failure, not a pole (as in the FD oracle)
    if not all(map(math.isfinite, [k for _, k in u1s + u2s + falls]
                   + phi0 + dphi0)):
        raise ValueError("point interactions too strong for the kernel: "
                         "the carried solutions leave the double range")
    f0, f1 = math.fsum(phi0), math.fsum(dphi0)
    phases, josts = coupling.eigenphases, []
    for c, s, _ in phases.groups:
        josts.append(c * f1 + s * f0)
        size = abs(c) * sum(map(abs, dphi0)) + abs(s) * sum(map(abs, phi0))
        if not abs(josts[-1]) >= ROBIN_POLE_TOL * size:
            raise PoleError(f"kernel pole at kappa = {kappa}: group ({c}, "
                            f"{s}) has Jost function {josts[-1]:.3e}, below "
                            f"{ROBIN_POLE_TOL} x its terms {size:.3e}")
    real = coupling._real
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
    screened, inf = end < math.inf, math.inf

    def evaluate(j: int, x, l: int, y):
        # int edges and float coordinates pass on their type alone
        if not (type(j) is type(l) is int and 0 <= j < n and 0 <= l < n):
            _integer("edge indices", j, l, high=n)
        x = x if type(x) is float else _number(x, "kernel argument")
        y = y if type(y) is float else _number(y, "kernel argument")
        if not (0.0 <= x < inf and 0.0 <= y < inf):
            raise ValueError("kernel arguments must be finite and >= 0")
        beyond = None     # phi(end) = 0: nothing crosses a screen
        if screened and j == l and max(x, y) > end:
            beyond = wall(0, max(x - end, 0.0), 0, max(y - end, 0.0))
        if screened:
            x, y = min(x, end), min(y, end)
        if j != l:    # Gamma_jl e^{-kappa (x + y)} phi(x) phi(y)
            fx = gamma(j, l) * math.exp(-kappa * x) * duhamel(*phi, -1, x)
            out = fx * (math.exp(-kappa * y) * duhamel(*phi, -1, y))
        else:         # e^{-kappa |x - y|} (b_j u_2 - a_j u_1)(lo) phi(hi)
            lo, hi = (x, y) if x <= y else (y, x)
            out = duhamel(*rises[j], 1, lo) * duhamel(*phi, -1, hi) \
                * math.exp(-kappa * (hi - lo))
        return out if beyond is None else out + beyond

    def rows(j: int, nodes: list):
        # the rows [evaluate(j, x_i, j, x_k) for k >= i] of increasing float
        # nodes, bit for bit: evaluate's arithmetic, each factor formed once
        # per node
        clipped = [min(x, end) for x in nodes]
        rs = [duhamel(*rises[j], 1, x) for x in clipped]
        fs = [duhamel(*phi, -1, x) for x in clipped]
        past = bisect_right(nodes, end)    # the first node past the screen
        if past < len(nodes):    # plus the wall's rows at max(x - end, 0)
            walls = wall._rows(0, [0.0] + [x - end for x in nodes[past:]])
            first = next(walls)[1:]
        exp, rate = math.exp, -kappa
        for i, (x, r) in enumerate(zip(clipped, rs)):
            row = [r * f * exp(rate * (y - x))
                   for y, f in zip(clipped[i:], fs[i:])]
            if i >= past:
                row = list(map(add, row, next(walls)))
            elif past < len(nodes):
                row[past - i:] = map(add, row[past - i:], first)
            yield row

    evaluate._rows = rows
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


@lru_cache(maxsize=64, typed=True)    # True == 1.0 must miss the cache
def _kernel(model, kappa: float):
    """vertex_kernel of a (coupling, points) pair, memoised: the evaluator
    depends on nothing else, and building it costs more than evaluating
    it.  The pair is checked here, on a miss only."""
    return vertex_kernel(*_star(model), kappa)


def halfline_kernel(bc: VertexCoupling, points, kappa: float):
    """Evaluator (x, y) -> resolvent kernel at energy -kappa^2 of the half
    line with the one-edge coupling ``bc`` (a HalflineBC) and any number
    of point interactions, at number coordinates as vertex_kernel takes
    them; values are real."""
    model = _star((bc, tuple(points)), 1)
    try:
        kernel = _kernel(model, kappa)
    except TypeError:    # an unhashable kappa, refused as vertex_kernel does
        kernel = _kernel(model, _scale(kappa, "kappa"))
    return lambda x, y: kernel(0, x, 0, y)


def _halfline_rows(bc: VertexCoupling, points, kappa: float, nodes: list):
    """The rows [kernel(x_i, x_k) for k >= i] of halfline_kernel(bc,
    points, kappa), whose memoised evaluator it reads, at increasing float
    nodes x_i: one row at a time, each value the scalar one bit for bit,
    with no numpy (the CLI's greens --grid, the tests' sampled sectors)."""
    return _kernel(_star((bc, tuple(points)), 1), kappa)._rows(0, nodes)


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
