"""Brute-force finite-difference resolvents for validating the closed forms.

Each of the n edges of a star (a half line is the star with n = 1) is
truncated at L with a Dirichlet condition there and discretized on
interior nodes x_i = i h, i = 1..N, h = L / (N + 1), with the standard
three-point Laplacian.  The discrete kernel thus converges to the kernel
of the star with a hard screen at L on every edge,
vertex_kernel(U, points + (PointInteraction(L, inf),), kappa); the
untruncated kernel differs from that by about e^{-kappa (2L - x - y)} /
(2 kappa): 7.6e-9 at kappa = 1, L = 12 and x = y = L / 4, the budget
50 h^2 of a comparison at h = 1.2e-5.  The n ghost values Psi_0 at the
vertex are eliminated jointly through the vertex condition
A Psi(0) + B Psi'(0) = 0, (A, B) = (U - I, i (U + I)), with the one-sided
second-order stencil Psi'(0) = (-3 Psi_0 + 4 Psi_1 - Psi_2) / (2h):

    (2h A - 3 B) Psi_0 + B (4 Psi_1 - Psi_2) = 0,
    Psi_0 = M0 (4 Psi_1 - Psi_2),   M0 = -(2h A - 3 B)^{-1} B.

Since 2h A - 3 B = -2h D(k_h) with D(k) = (k + 1) I + (k - 1) U and
k_h = 3i / (2h), the ghost map is the scattering matrix in disguise,
M0 = (I + S_U(k_h)) / 6 = sum_k mu_k P_k, mu_k = c_k / (3 c_k - 2 h s_k),
over the groups k of coupling.eigenphases, with eigenvalue (c_k + i s_k)^2
and spectral projector P_k, real exactly when U = U^T (every HalflineBC
and StarModel coupling), so the kernel is complex exactly where
vertex_kernel's is.  The solver reads the mu_k, real for every U, from
scattering.one_plus_s_sectors and never forms M0.  A Robin condition
psi'(0) = b psi(0) gives mu = 1 / (3 + 2 h b), Dirichlet mu = 0.  The
stencil is singular exactly when kappa_h = 3 / (2h) is a bound state of U
(for Robin at b = -3 / (2h)); that guard raises PoleError near it.

Unknowns are ordered node-major (index i n + e), so the operator is
kron(T, I_n), T the tridiagonal matrix of -d^2/dx^2 + kappa^2, plus the
ghost block -(4 M0, -M0) / h^2 in the first n rows.  A delta potential of
strength c adds c / h to the diagonal at the node nearest its position on
every edge (first-order-consistent; exact positions should sit on grid
nodes for clean second-order behavior).  The resolvent column for a
source at node j solves (H + kappa^2) g = e_j / h, and kernel values are
read off at the nodes.

Only the ghost block couples the edges, and on the range of P_k it is
the scalar mu_k.  So the operator splits into one N x N tridiagonal
sector T_k per group (at most two for a family star, whatever n): T with
-4 mu_k / h^2 added to its first diagonal entry and mu_k / h^2 to its
first superdiagonal entry.  The response of sector k to a unit load at
node j, g_k(i; j) = T_k^{-1}[i, j] / h, does not depend on the source edge:

    kernel(edge e, node i; edge l, node j) = sum_k (P_k)_el g_k(i; j).

Below, nodes are 0-based, node i at x = (i + 1) h, the wall at node N.
Times h^2, the rows i >= 1 of every sector are one recurrence,
u(i - 1) + u(i + 1) = (2 cosh rho + t_i) u(i), rho = 2 asinh(kappa h / 2),
t_p = c h at the node p of a point c (at node 0 it enters row 0, d_0 =
2 + kappa^2 h^2 + t_0).  With S(m) = sinh(rho m) / sinh(rho), each point
adds one Duhamel term beyond its node, so the solutions from the vertex,
(A, B)(0) = (0, 1), (A, B)(1) = (1, 0), and from the wall, phi(N) = 0,
phi(N - 1) = 1, are in closed form:

    A(i)   =  S(i)     + sum_{1 <= p < i} t_p A(p) S(i - p),
    B(i)   = -S(i - 1) + sum_{1 <= p < i} t_p B(p) S(i - p),
    phi(i) =  S(N - i) + sum_{p > i} t_p phi(p) S(p - i).

Row 0 of sector k selects v_k = (d_0 - 4 mu_k) A + (1 - mu_k) B,
and the sector inverse is semiseparable (Meurant, SIAM J. Matrix Anal.
Appl. 13 (1992) 707): g_k(i; j) = h v_k(lo) phi(hi) / W_k, lo = min(i, j),
hi = max(i, j), W_k = (d_0 - 4 mu_k) phi(0) - (1 - mu_k) phi(1)
the Casoratian, zero exactly where the star is singular (PoleError).
Each v_k / W_k has Casoratian 1 with phi, so it is the sector-free,
never singular psi = (phi(0) A - phi(1) B) / (phi(0)^2 + phi(1)^2) plus
gamma_k phi:

    gamma_k = ((1 - mu_k) phi(0) + (d_0 - 4 mu_k) phi(1))
              / ((phi(0)^2 + phi(1)^2) W_k),
    kernel(e, i; l, j) = h phi(hi) (delta_el psi(lo) + Gamma_el phi(lo)),

Gamma = sum_k gamma_k P_k: the reflected term stays apart from the
direct one, so a value across two edges keeps its digits where it is far
below the direct term.  A build forms Gamma and nothing else over the
edges; the vertex traces of a column, the ghost values M0 (4 Psi_1 -
Psi_2), follow from value at the first two nodes.  A build factors
nothing: a kernel holds O(n^2 + points) numbers (a family's forms no U and
no matrix, just two numbers per sum over k), and a value costs O(points)
scalar operations, whatever N; a kernel memoises the node of each float
coordinate, and phi and (A, B) per node, so a sample resolves each once.

Unscaled, A and B grow like e^{rho i} and phi like e^{rho (N - i)}, so
each is carried in the scale of its growth, e^{-rho i} A(i) and
e^{-rho (N - i)} phi(i), where S reads e^{-rho m} S(m) = -expm1(-2 rho m)
/ (2 sinh rho).  The kernel's two terms then carry e^{-rho (hi - lo)} and
e^{-rho (hi + lo)}, each underflowing only where the term itself does, at
any kappa L.  psi and gamma are normalised by the length of (phi(0),
e^{-rho} phi(1)) in that scale, and phi(0) - phi(1), which W_k needs near
the Neumann value mu_k = 1/3, is summed from S(m) - S(m - 1) =
cosh(rho (m - 1/2)) / cosh(rho / 2) instead of cancelled at small kappa h.
Walls whose strengths |t_p| multiply to beyond about 1e300 overflow phi
or push h^2 / W_k below the smallest normal double; _solve raises
ValueError for them, for a kappa whose decay exponents rho N / ln 2 pass
2^31 or with 2^{ceil(rho / ln 2)} / h^2 past the double range, and for
more than MAX_FD_UNKNOWNS unknowns n N, before anything is built.

Two caveats of the one-sided elimination, both confined to the first
interior node x_1 = h: source columns must not sit there (the eliminated
row carries a different scale, so a delta load on it is misnormalized;
source coordinates snap to nodes at x >= 2h), and kernel symmetry across
that node holds only to O(h^2) instead of machine precision.  Away from
x_1 the sampled kernel is symmetric to rounding.

The oracle takes its records and checks from coupling and its ghost map
from scattering, and nothing from greens, whose kernels it checks.
"""

from __future__ import annotations

import math
import sys
from typing import Callable, NamedTuple, Sequence

# make_coupling and to_ab stay module attributes: the oracle workload of
# benchmarks/ patches finite_difference.make_coupling and .to_ab
from .coupling import (GridSpec, PointInteraction,  # noqa: F401
                       VertexCoupling, _instance, _integer, _scale, _star,
                       make_coupling, to_ab)
from .errors import PoleError
from .scattering import one_plus_s_sectors

#: origin stencils with sigma_min(D(3i / (2h))) below this, relative as in
#: scattering.one_plus_s_sectors, raise PoleError
ORIGIN_STENCIL_TOL = 1e-8

#: largest grid _solve takes, in unknowns n N (n edges, N nodes each)
MAX_FD_UNKNOWNS = 4_000_000

_MEMO_SIZE = 4096    # entries kept by each memo of a SampledKernel

_TOO_STRONG = ("point interactions too strong for the finite-difference "
               "grid: the vertex is decoupled from x = L beyond double range")


class KernelErrorStats(NamedTuple):
    max_abs: float
    rms: float
    count: int


def _point_node(point: PointInteraction, grid: GridSpec) -> int:
    if not 0.0 < point.a < grid.L:
        raise ValueError(
            f"point interaction at {point.a} outside the grid (0, {grid.L})")
    if not math.isfinite(point.c):
        raise ValueError("finite-difference solver needs finite point "
                         "strengths")
    return grid.node_index(point.a)


class SampledKernel:
    """Kernel samples of a star-graph operator, read from the closed form
    of the sector inverses (see the module docstring).

    value(j, x, l, y) is the kernel between position x on edge j and the
    source at y on edge l (0-based edges); value(x, y) addresses edge 0,
    the half line.  Both coordinates snap to grid nodes (the source node
    is kept off the first interior node, see module docstring).
    snap(...) takes the same arguments and returns the snapped ones, so
    analytic comparisons can be evaluated at identical points.
    """

    def __init__(self, grid: GridSpec, rho: float, excess: float,
                 loads: dict[int, float], coupling: VertexCoupling,
                 mus: list[float]):
        self.grid, self.n_edges = grid, coupling.n
        self._rho = rho
        decay = math.exp(-rho)
        self._sine = -decay / math.expm1(-2.0 * rho)  # 1 / (2 sinh rho)
        # the point nodes p >= 1 in increasing order, t_p, A(p) and B(p)
        # from the points below p, and phi(p) from those above
        self._at = sorted(loads)
        self._t = [loads[p] for p in self._at]
        self._a, self._b, self._phi = [], [], [0.0] * len(self._at)
        for p in self._at:
            a, b = self._vertex_side(p)
            self._a.append(a)
            self._b.append(b)
        for k in reversed(range(len(self._at))):
            self._phi[k] = self._far_side(self._at[k])
        # f = (phi(0), e^{-rho} phi(1)), and f_0 - f_1 = df summed from
        # e^{-rho m} (S(m) - S(m - 1)), see the module docstring
        step = lambda m: (  # noqa: E731
            decay * (1.0 + math.exp(-rho * (2 * m - 1))) / (1.0 + decay))
        f0, f1 = self._far_side(0), decay * self._far_side(1)
        df = step(grid.N) + sum(t * fp * step(p) for p, t, fp
                                in zip(self._at, self._t, self._phi))
        self._norm = norm = math.hypot(f0, f1)
        if not all(map(math.isfinite, (*self._a, *self._b, *self._phi, df,
                                       norm))):
            raise ValueError(_TOO_STRONG)
        self._u0, self._u1 = u0, u1 = f0 / norm, f1 / norm
        gamma = []
        for k, mu in enumerate(mus):
            wronskian = (1.0 - 3.0 * mu + excess) * u0 \
                + (1.0 - mu) * (df / norm)  # W_k / |f|
            if wronskian == 0.0 or not math.isfinite(wronskian):
                raise PoleError(f"discrete operator singular: sector {k} "
                                f"with ghost eigenvalue {mu:.17g}")
            if abs(wronskian) * norm * sys.float_info.min >= grid.h**2:
                raise ValueError(_TOO_STRONG)
            gamma.append(((1.0 - mu) * u0 + (2.0 + excess - 4.0 * mu) * u1)
                         / wronskian)
        # (j, l) -> the reflection sum_k gamma_k P_k, real exactly when
        # vertex_kernel's is
        self._reflection = coupling.eigenphases._entries(gamma,
                                                         coupling._real)
        # node_index per float coordinate, phi and (A, B) per node
        self._index, self._phi_at, self._sides_at = {}, {}, {}

    def _hat_sine(self, m: int) -> float:
        """e^{-rho m} S(m) = -expm1(-2 rho m) / (2 sinh rho)."""
        return -math.expm1(-2.0 * self._rho * m) * self._sine

    def _vertex_side(self, i: int) -> tuple[float, float]:
        """(A(i), B(i)) in the scale e^{-rho i}: the solutions of the rows
        >= 1 with (A, B)(0) = (0, 1) and (A, B)(1) = (1, 0)."""
        if i == 0:
            return 0.0, 1.0
        s = self._hat_sine
        a, b = s(i), -math.exp(-self._rho) * s(i - 1)
        for p, t, ap, bp in zip(self._at, self._t, self._a, self._b):
            if p >= i:
                break
            kick = t * s(i - p)
            a += kick * ap
            b += kick * bp
        return a, b

    def _far_side(self, i: int) -> float:
        """phi(i) in the scale e^{-rho (N - i)}: the solution of the rows
        >= 1 that vanishes at the wall, node N, with phi(N - 1) = 1."""
        s = self._hat_sine
        phi = s(self.grid.N - i)
        for k in reversed(range(len(self._at))):
            if self._at[k] <= i:
                break
            phi += self._t[k] * self._phi[k] * s(self._at[k] - i)
        return phi

    def _nodes(self, point) -> tuple[int, int, int, int]:
        if len(point) == 4:
            j, x, l, y = point
        elif len(point) == 2:
            j, x, l, y = 0, point[0], 0, point[1]
        else:
            raise ValueError(f"a kernel point is (x, y) or (j, x, l, y), got "
                             f"{len(point)} coordinates")
        n, index = self.n_edges, self._index
        # plain ints in range skip _integer, and only a float may hit the
        # coordinate memo: True == 1.0 hashes equal
        if not (type(j) is type(l) is int and 0 <= j < n and 0 <= l < n):
            _integer("edge indices", j, l, high=n)
        ix = index.get(x) if type(x) is float else self.grid.node_index(x)
        if ix is None:
            ix = _missed(index, x, self.grid.node_index)
        iy = index.get(y) if type(y) is float else self.grid.node_index(y)
        if iy is None:
            iy = _missed(index, y, self.grid.node_index)
        return j, ix, l, iy if iy >= 1 else 1

    def snap(self, *point):
        j, ix, l, iy = self._nodes(point)
        x, y = self.grid.h * (ix + 1), self.grid.h * (iy + 1)
        return (j, x, l, y) if len(point) == 4 else (x, y)

    def value(self, *point) -> float:
        j, ix, l, iy = self._nodes(point)
        lo, hi = (ix, iy) if ix <= iy else (iy, ix)
        phis = self._phi_at    # the memos are read here, filled on a miss
        phi_lo = phis.get(lo)
        if phi_lo is None:
            phi_lo = _missed(phis, lo, self._far_side)
        phi_hi = phis.get(hi)
        if phi_hi is None:
            phi_hi = _missed(phis, hi, self._far_side)
        rho, far = self._rho, self.grid.h * phi_hi / self._norm
        out = (far * math.exp(-rho * (hi + lo)) * phi_lo / self._norm
               * self._reflection(j, l))
        if j == l:
            sides = self._sides_at.get(lo)
            if sides is None:
                sides = _missed(self._sides_at, lo, self._vertex_side)
            a, b = sides
            out += far * math.exp(rho * (lo - hi)) * (self._u0 * a
                                                      - self._u1 * b)
        return out


def _missed(table: dict, key, compute: Callable):
    """compute(key) for a key that missed ``table``, kept while there is
    room."""
    value = compute(key)
    if len(table) < _MEMO_SIZE:
        table[key] = value
    return value


def _ghost_map(coupling: VertexCoupling, h: float) -> list[float]:
    """The eigenvalues mu_k of the ghost map M0, one per eigenphase group."""
    try:
        values, _ = one_plus_s_sectors(coupling.eigenphases, 1.5j / h,
                                       ORIGIN_STENCIL_TOL)
    except PoleError as exc:
        raise PoleError(f"origin stencil singular: {exc}") from None
    return [v.real / 6.0 for v in values]


def _solve(coupling: VertexCoupling, points: tuple[PointInteraction, ...],
           kappa: float, grid: GridSpec) -> SampledKernel:
    """The FD kernel of the pair that _star checked, points included."""
    grid = _instance(grid, GridSpec, "grid", ValueError)
    n, big_n, h = coupling.n, grid.N, grid.h
    if n * big_n > MAX_FD_UNKNOWNS:
        raise ValueError(
            f"finite-difference grid too fine: N = {big_n} nodes on each of "
            f"n = {n} edges (h = {h:.6g}) exceed {MAX_FD_UNKNOWNS} unknowns")
    mus = _ghost_map(coupling, h)
    # the scale e^{-rho i} = 2^{-i bits} must keep its exponent in int32
    # over the grid, and 2^{ceil(bits)} / h^2 must stay a double
    rho = 2.0 * math.asinh(0.5 * kappa * h)
    bits = rho / math.log(2.0)
    if bits * big_n >= 2**31 or math.ceil(bits) - 2.0 * math.log2(h) >= 1024:
        raise ValueError(f"kappa = {kappa} too large for the grid: the "
                         f"scale exponents overflow (h = {h:.6g})")
    # t_p = c h per node; a point at node 0 enters d_0 = 2 + kappa^2 h^2 + t_0
    loads: dict[int, float] = {}
    for point in points:
        node = _point_node(point, grid)
        loads[node] = loads.get(node, 0.0) + point.c * h
    excess = kappa * h * (kappa * h) + loads.pop(0, 0.0)
    return SampledKernel(grid, rho, excess, loads, coupling, mus)


def fd_resolvent_halfline(bc, points: Sequence[PointInteraction],
                          kappa: float, grid: GridSpec) -> SampledKernel:
    """Finite-difference kernel of -d^2/dx^2 (+ point interactions) on the
    half line with the one-edge coupling ``bc`` (a HalflineBC) at energy
    -kappa^2."""
    kappa = _scale(kappa, "kappa")
    return _solve(*_star((bc, tuple(points)), 1), kappa, grid)


def fd_resolvent_star(model, kappa: float, grid: GridSpec) -> SampledKernel:
    """Finite-difference kernel of the star-graph operator at energy
    -kappa^2 of the model, a (coupling, points) pair as StarModel makes
    it: all n edges coupled at the origin by the coupling, each carrying
    the points."""
    kappa = _scale(kappa, "kappa")
    return _solve(*_star(model), kappa, grid)


def _finite_sides(exact, approx, point) -> None:
    """ValueError naming ``point`` and the first side that is not finite."""
    import cmath    # loaded only for a side that is not a finite float
    for side, value in (("analytic", exact), ("finite-difference", approx)):
        if not cmath.isfinite(value):
            raise ValueError(f"the {side} kernel is {value} at sample "
                             f"point {point}")


def compare_kernels(analytic: Callable[..., float], sampled,
                    sample_points) -> KernelErrorStats:
    """Max-abs and RMS error between an analytic kernel evaluator and a
    sampled kernel over a set of points.

    Points are (x, y) pairs for half-line kernels and (j, x, l, y) tuples
    for star kernels; each is snapped to grid nodes and the analytic
    evaluator is called at the snapped coordinates.  A value that is not
    finite on either side raises ValueError naming the first such point;
    two finite values whose difference overflows give an infinite error.
    Errors are complex where both kernels are, for U != U^T: max_abs =
    max |e|, rms = sqrt(mean |e|^2), the mean being the exactly rounded
    sum math.fsum of the |e|^2 over their count.
    """
    errors = []
    for point in sample_points:
        snapped = sampled.snap(*point)
        exact, approx = analytic(*snapped), sampled.value(*snapped)
        if type(exact) is float and type(approx) is float:
            error = exact - approx    # not finite if either side is not
            if not math.isfinite(error):
                _finite_sides(exact, approx, snapped)
        else:    # numpy warns on inf - inf: test the sides first
            _finite_sides(exact, approx, snapped)
            error = exact - approx
        errors.append(error)
    count = len(errors)
    if count == 0:
        return KernelErrorStats(0.0, 0.0, 0)
    # |e| of a float e is exact; numpy's |e| of a complex e is its own
    # hypot, which is not Python's
    if {float}.issuperset(map(type, errors)):
        moduli = list(map(abs, errors))
    else:
        import numpy as np
        moduli = np.abs(np.asarray(errors, dtype=complex)).tolist()
    try:
        squares = math.fsum([e * e for e in moduli])
    except OverflowError:    # finite squares whose sum passes the doubles
        squares = math.inf
    return KernelErrorStats(max_abs=max(moduli),
                            rms=math.sqrt(squares / count), count=count)
