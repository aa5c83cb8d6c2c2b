"""Test oracles: the sector tables of the star models, sampled sector
differences, the kernel of deltas on the line, the Jost functions of
half lines and the trace of their resolvents, the decoupled projector
and the vertex-condition check, none of which the package computes.

The convergence sweep evaluates its sector norms in closed form (see the
starcouplings.convergence docstring).  The helpers here sample the
kernels themselves, one half-line sector at a time, so the tests can
measure the same norms by quadrature (convergence.hs_norm) and reassemble
a star kernel from its sectors; at n = 2 line_green gives a star's
kernel with no U at all, and jost_trace and diagonal_trace, built on
its propagation, give the trace of a difference of two half-line
resolvents twice, from the Jost functions and from the kernel diagonal.
sector_transfer carries one sector of an approximant across its
satellite with no closed form, and approximant_bound_state finds the
approximant's eigenvalue on it.
satisfies_vertex_condition is the oracle of from_ab round trips and of
the kernels' vertex traces.  The oracles refuse what the package's entry
points refuse (a bool, a NaN, a length out of range), so a test that
builds a bad argument fails at the oracle instead of comparing NaN, and
test_contract.py probes them as it probes the package.
"""

import math
from dataclasses import dataclass

import mpmath
import numpy as np

from starcouplings import (ApproximationStage, GridSpec, HalflineBC,
                           InvalidCouplingError, PointInteraction, PoleError,
                           StarModel, VertexCoupling)
from starcouplings.coupling import (DECOUPLED_EIGENVALUE_TOL, _integer,
                                    _number, _readonly, _scale)
from starcouplings.greens import _halfline_rows


@dataclass(frozen=True)
class SectorSpec:
    """One half-line block of a symmetry-reduced star model: a one-edge
    coupling (a HalflineBC) and at most one point."""

    bc: VertexCoupling
    point: PointInteraction | None
    multiplicity: int

    def __post_init__(self):
        _integer("sector multiplicity", self.multiplicity, low=1)


def sector_decompose(kind: str, n: int, param: float,
                     point: PointInteraction | None = None
                     ) -> list[SectorSpec]:
    """Half-line sectors of the star model StarModel(n=n, kind=kind, ...)
    with ``param`` its beta (a target) or b (an approximant) and ``point``.

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
    # StarModel refuses what it refuses: a bad n, kind, param or point
    name = "beta" if kind in ("delta_prime_s", "delta_prime") else "b"
    StarModel(n=n, kind=kind, point=point, **{name: param})
    if kind == "delta_prime_s":
        lead, rest = HalflineBC.robin_scaled(n, param), HalflineBC.neumann()
    elif kind == "central_delta":
        lead, rest = HalflineBC.robin(param), HalflineBC.dirichlet()
    elif kind == "delta_prime":
        lead, rest = HalflineBC.neumann(), HalflineBC.robin_scaled(n, param)
    else:  # central_delta_p
        lead, rest = HalflineBC.dirichlet(), HalflineBC.robin(param / n)
    return [SectorSpec(bc, point, m)
            for bc, m in ((lead, 1), (rest, n - 1)) if m > 0]


def approximant_model(stage: ApproximationStage
                      ) -> tuple[str, int, float, PointInteraction]:
    """The star of one approximation stage as (kind, n, b, point), what
    sector_decompose takes: central coupling b, and the satellite c at
    distance a on every edge."""
    kind = "central_delta" if stage.family == "delta_prime_s" \
        else "central_delta_p"
    return kind, stage.n, stage.b, PointInteraction(a=stage.a, c=stage.c)


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
    base = np.array(grid.boundary_nodes())
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
    kappa = _scale(kappa, "kappa")    # the memo of the rows hashes kappa
    values = _sector_square(approx, kappa, nodes) \
        - _sector_square(target, kappa, nodes)
    return SampledDifference(x=nodes, values=values)


def _sector_square(sector: SectorSpec, kappa: float, nodes: np.ndarray
                   ) -> np.ndarray:
    """The sector's kernel at (nodes[i], nodes[k]), increasing nodes: each
    row from the diagonal on is one of greens._halfline_rows, bit for bit
    the scalar kernel, and the kernel is symmetric."""
    points = () if sector.point is None else (sector.point,)
    square = np.empty((nodes.size, nodes.size))
    for i, row in enumerate(_halfline_rows(sector.bc, points, kappa,
                                           nodes.tolist())):
        square[i, i:] = square[i:, i] = row
    return square


def _carry(k, coef, ordered, sign, until):
    """The coefficients (A, B) of A e^{k x} + B e^{-k x}, given as ``coef``
    outside the deltas (x_q, c_q) of ``ordered``, carried past each of
    them up to ``until``, rightward (``sign`` 1) or leftward (-1): psi is
    continuous at x_q and psi' jumps by c_q psi(x_q).  Plain mpmath
    arithmetic at the caller's precision."""
    for a, c in ordered:
        if sign * (a - until) >= 0:
            break
        a = mpmath.mpf(a)
        up, down = coef[0] * mpmath.exp(k * a), coef[1] * mpmath.exp(-k * a)
        psi = up + down
        dpsi = k * (up - down) + sign * c * psi
        coef = ((psi + dpsi / k) * mpmath.exp(-k * a) / 2,
                (psi - dpsi / k) * mpmath.exp(k * a) / 2)
    return coef


def line_green(deltas, kappa: float, x: float, y: float) -> mpmath.mpf:
    """The resolvent kernel at energy -kappa^2 of -d^2/dx^2 + sum_q c_q
    delta(x - x_q) on the real line, ``deltas`` the (x_q, c_q) pairs, in
    50-digit mpmath: psi_l decays at -inf (e^{kappa x} left of the
    deltas), psi_r at +inf (e^{-kappa x} right of them), each carried
    across the deltas as its coefficients (A, B) of e^{kappa x} and
    e^{-kappa x}, psi' jumping by c_q psi(x_q); then G(x, y) = psi_l(lo)
    psi_r(hi) / W, W = psi_l' psi_r - psi_l psi_r' = 2 kappa (A_l B_r -
    B_l A_r) on any stretch.  No U, eigenphase or sector enters.  A
    strength may be an mpmath number, so that -1/a stays exact where its
    double would detune c a = -1."""
    kappa, x, y = _number(kappa, "kappa", positive=True), \
        _number(x, "x"), _number(y, "y")
    deltas = sorted((_number(a, "delta position"),
                     c if isinstance(c, mpmath.mpf)
                     else _number(c, "delta strength")) for a, c in deltas)
    with mpmath.workdps(50):
        k = mpmath.mpf(kappa)
        lo, hi = sorted((mpmath.mpf(x), mpmath.mpf(y)))
        a_l, b_l = _carry(k, (1, 0), deltas, 1, lo)
        a_r, b_r = _carry(k, (0, 1), deltas[::-1], -1, hi)
        # W, a constant, left of every delta, where psi_l = e^{kappa x}
        wronskian = 2 * k * _carry(k, (0, 1), deltas[::-1], -1,
                                   -math.inf)[1]
        psi_l = a_l * mpmath.exp(k * lo) + b_l * mpmath.exp(-k * lo)
        psi_r = a_r * mpmath.exp(k * hi) + b_r * mpmath.exp(-k * hi)
        return psi_l * psi_r / wronskian


def sector_transfer(sigma, tau, kappa, a, c=None) -> tuple:
    """(u(a), u'(a+)) of one sector (sigma, tau) of an approximant, in
    mpmath at the caller's precision: u = p cosh(kappa x) + (q / kappa)
    sinh(kappa x) on [0, a] from the base p psi'(0) = q psi(0), (p, q) =
    (tau a^2, -sigma), then the jump u'(a+) = u'(a-) + c u(a) of the
    satellite, c = -1/a exactly unless given.  Any argument may be an
    mpmath number."""
    sigma, tau, kappa, a = map(mpmath.mpf, (sigma, tau, kappa, a))
    p, q = tau * a * a, -sigma
    u = p * mpmath.cosh(kappa * a) + q / kappa * mpmath.sinh(kappa * a)
    du = p * kappa * mpmath.sinh(kappa * a) + q * mpmath.cosh(kappa * a) \
        + (-u / a if c is None else mpmath.mpf(c) * u)
    return u, du


def approximant_bound_state(sigma, tau, a: float, guess: float
                            ) -> mpmath.mpf:
    """kappa_a of the sector (sigma, tau) at distance a, in 50-digit
    mpmath: the root near ``guess`` of kappa u + u'(a+) of
    sector_transfer, where the solution continues past the satellite as
    u e^{-kappa (x - a)}, so that -kappa_a^2 is an eigenvalue of the
    approximant (the pole of the sweep's dR, where kappa Q + P = 0)."""
    sigma, tau = _number(sigma, "sigma"), _number(tau, "tau")
    a = _number(a, "distance a", positive=True)
    guess = _number(guess, "guess", positive=True)

    def jost(k):
        u, du = sector_transfer(sigma, tau, k, a)
        return k * u + du

    with mpmath.workdps(50):
        return mpmath.findroot(jost, mpmath.mpf(guess))


def _half_line(p, q, deltas) -> tuple:
    """(p, q, deltas) of a half line with p psi'(0) = q psi(0) and deltas
    (x_q, c_q), 0 < x_q, as mpmath numbers, the deltas sorted."""
    deltas = sorted((_number(a, "delta position", positive=True), c)
                    for a, c in deltas)
    return mpmath.mpf(p), mpmath.mpf(q), [(mpmath.mpf(a), mpmath.mpf(c))
                                          for a, c in deltas]


def _jost(p, q, deltas, k):
    """J(k) = p psi'(0) - q psi(0), psi = e^{-k x} beyond the deltas."""
    a, b = _carry(k, (0, 1), deltas[::-1], -1, 0)
    return p * k * (a - b) - q * (a + b)


def jost_trace(p, q, deltas, kappa: float) -> mpmath.mpf:
    """(1 / (2 kappa)) d/dkappa log J(kappa), in 40-digit mpmath, of the
    half line of -d^2/dx^2 + sum_q c_q delta(x - x_q) with p psi'(0) =
    q psi(0): J = p psi'(0) - q psi(0) is its Jost function, psi the
    solution equal to e^{-kappa x} beyond every delta, carried to 0 by
    line_green's propagation, and mpmath.diff takes the derivative.
    By the perturbation determinant, the trace of the difference of two
    such resolvents at energy -kappa^2 is the difference of their
    jost_trace (each is diagonal_trace plus 1 / (4 kappa^2)).  p, q and
    the strengths may be mpmath numbers."""
    kappa = _number(kappa, "kappa", positive=True)
    with mpmath.workdps(40):
        p, q, deltas = _half_line(p, q, deltas)
        k = mpmath.mpf(kappa)
        return mpmath.diff(lambda k: _jost(p, q, deltas, k), k) \
            / (2 * k * _jost(p, q, deltas, k))


def diagonal_trace(p, q, deltas, kappa: float) -> mpmath.mpf:
    """The integral over (0, inf) of G(x, x) - 1 / (2 kappa), G the kernel
    of the half line of jost_trace, in 40-digit mpmath and in closed form,
    no quadrature.  On a stretch between deltas the regular solution
    phi (phi(0) = p, phi'(0) = q) is A e^{kappa x} + B e^{-kappa x}, carried
    rightward, and psi is C e^{kappa x} + D e^{-kappa x}, carried leftward;
    their Wronskian is 2 kappa (A D - B C), so

        G(x, x) - 1 / (2 kappa) = (A C e^{2 kappa x} + 2 B C
                                   + B D e^{-2 kappa x})
                                  / (2 kappa (A D - B C)),

    which integrates exactly; beyond the deltas C = 0 and only the
    decaying term is left.  The free part 1 / (2 kappa) is taken out on
    each stretch, in closed form, so no O(1) terms cancel, as they do in
    a quadrature of a difference of two kernels at large x."""
    kappa = _number(kappa, "kappa", positive=True)
    with mpmath.workdps(40):
        p, q, deltas = _half_line(p, q, deltas)
        k = mpmath.mpf(kappa)
        ends = [mpmath.mpf(0), *(a for a, _ in deltas)]
        total = mpmath.mpf(0)
        for lo, hi in zip(ends, ends[1:] + [None]):
            mid = lo + 1 if hi is None else (lo + hi) / 2
            a, b = _carry(k, ((p + q / k) / 2, (p - q / k) / 2), deltas, 1,
                          mid)
            c, d = _carry(k, (0, 1), deltas[::-1], -1, mid)
            if hi is None:    # c = 0: only the decaying term is left
                part = b * d * mpmath.exp(-2 * k * lo) / (2 * k)
            else:
                part = (a * c * (mpmath.exp(2 * k * hi)
                                 - mpmath.exp(2 * k * lo))
                        + b * d * (mpmath.exp(-2 * k * lo)
                                   - mpmath.exp(-2 * k * hi))) / (2 * k) \
                    + 2 * b * c * (hi - lo)
            total += part / (2 * k * (a * d - b * c))
        return total


def line_delta_prime(beta: float, kappa: float, j: int, x: float, l: int,
                     y: float) -> mpmath.mpf:
    """The resolvent kernel at energy -kappa^2 of the line delta'
    interaction, psi' continuous and psi(0+) - psi(0-) = beta psi'(0), in
    50-digit mpmath, between distance x from the origin on half j and y on
    half l (half 0 the line's x < 0, half 1 its x > 0, as the edges of a
    two-edge star): with W = kappa (2 + beta kappa), [(1 + beta kappa / 2)
    e^{kappa lo} + (beta kappa / 2) e^{-kappa lo}] e^{-kappa hi} / W on one
    half (lo, hi the smaller and the larger of x, y) and e^{-kappa (x + y)}
    / W across the origin.  No U, eigenphase or sector enters."""
    beta, kappa = _number(beta, "beta"), _number(kappa, "kappa", positive=True)
    _integer("half", j, l, high=2)
    lo, hi = sorted((_number(x, "x"), _number(y, "y")))
    with mpmath.workdps(50):
        k = mpmath.mpf(kappa)
        r = mpmath.mpf(beta) * kappa / 2    # beta kappa / 2
        w = k * (2 + 2 * r)
        if j != l:
            return mpmath.exp(-k * (mpmath.mpf(lo) + hi)) / w
        return ((1 + r) * mpmath.exp(k * lo) + r * mpmath.exp(-k * lo)) \
            * mpmath.exp(-k * hi) / w


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
