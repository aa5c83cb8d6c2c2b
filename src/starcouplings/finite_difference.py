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
M0 = (I + S_U(k_h)) / 6, taken from scattering.one_plus_s.  A Robin
condition psi'(0) = b psi(0) gives M0 = 1 / (3 + 2 h b), Dirichlet M0 = 0.
The stencil is singular exactly when kappa_h = 3 / (2h) is a bound state
of U (for Robin at b = -3 / (2h)); one_plus_s raises PoleError near it.
M0 is real for U = U^T, which holds for every HalflineBC and StarModel.

Unknowns are ordered node-major (index i n + e), so the operator is
kron(T, I_n), T the tridiagonal matrix of -d^2/dx^2 + kappa^2, plus the
ghost block -(4 M0, -M0) / h^2 in the first n rows.  A delta potential of
strength c adds c / h to the diagonal at the node nearest its position on
every edge (first-order-consistent; exact positions should sit on grid
nodes for clean second-order behavior).  The resolvent column for a
source at node j solves (H + kappa^2) g = e_j / h, and kernel values are
read off at the nodes.

Only the ghost block couples the edges, and the solver needs U = U^T
(ValueError otherwise), so M0 is real symmetric: M0 = Q diag(lambda) Q^T.
In the basis of Q's columns the operator splits into n independent N x N
tridiagonal sectors T_k: T with -4 lambda_k / h^2 added to its first
diagonal entry and lambda_k / h^2 to its first superdiagonal entry.  The
response of sector k to a unit load at node j, g_k(i; j) = T_k^{-1}[i, j]
/ h, does not depend on the source edge:

    kernel(edge e, node i; edge l, node j) = sum_k Q_ek Q_lk g_k(i; j).

T_k is symmetric except in row 0, so the block of T_k^{-1} with indices
>= 1 is the inverse of a symmetric tridiagonal Schur complement: it is
symmetric and semiseparable, and the upper triangle of T_k^{-1}, row 0
included, has rank one (Meurant, SIAM J. Matrix Anal. Appl. 13 (1992)
707).  Sources never sit on node 0, so every value read is

    g_k(i; j) = w_k[min(i, j)] z_k[max(i, j)] / w_k[p],

with w_k the response to a load at the last node and z_k row p of
T_k^{-1} / h, p = 0 or 1.  Row 0 carries the factor T_k[0, 1] = (lambda_k
- 1) / h^2 and row 1 the factor T_k[0, 0], and either can cancel (the
second at lambda_k = (2 + kappa^2 h^2) / 4), so p picks the row whose
factor is larger.  Both vectors come from the one factorization of T_k
(LAPACK dgttrf): w_k by one dgttrs solve, z_k by one transposed solve.  A
sector costs one factorization and two solves however many sources are
sampled, and value and vertex_values are lookups.

Unscaled, w_k and z_k grow and decay like e^{+-kappa x}, and their product
loses every digit once kappa L exceeds about 700.  So the solves run on
the exact similarity D^{-1} T_k D, D = diag(2^{e_i}), e_i = floor(i r),
r = 2 asinh(kappa h / 2) / ln 2 the decay per node of the free discrete
kernel in bits.  Powers of two scale the off-diagonals without rounding,
the scaled vectors stay of order one for any kappa L, and

    g_k(i; j) = w_k[lo] z_k[hi] 2^{e_lo - e_hi} / w_k[p],
    lo = min(i, j), hi = max(i, j),

with w_k and z_k now the scaled vectors, underflows only where the kernel
itself is below the smallest double.  The scaling follows the free decay,
not the screening by point interactions: walls whose strengths |c| h
multiply to beyond about 1e300 push w_k[p] out of the normal range, and
_solve raises ValueError for them, as for a kappa whose exponents or
scaled off-diagonals overflow.

The LAPACK routines come from scipy, imported in _solve: this is the only
scipy the package uses, so importing the package (or its CLI) loads numpy
only.  A grid of more than MAX_FD_UNKNOWNS unknowns n N raises ValueError
before anything is built.

Two caveats of the one-sided elimination, both confined to the first
interior node x_1 = h: source columns must not sit there (the eliminated
row carries a different scale, so a delta load on it is misnormalized;
source coordinates snap to nodes at x >= 2h), and kernel symmetry across
that node holds only to O(h^2) instead of machine precision.  Away from
x_1 the sampled kernel is symmetric to rounding.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple, Sequence

import numpy as np

# to_ab stays a module attribute: the oracle workload of benchmarks/
# patches finite_difference.to_ab
from .coupling import VertexCoupling, make_coupling, to_ab  # noqa: F401
from .errors import PoleError
from .greens import HalflineBC, PointInteraction, StarModel, check_kappa
from .scattering import one_plus_s

#: origin stencils with sigma_min(D(3i / (2h))) below this (relative, see
#: scattering.one_plus_s) raise PoleError
ORIGIN_STENCIL_TOL = 1e-8

#: largest grid _solve takes, in unknowns n N (n edges, N nodes each)
MAX_FD_UNKNOWNS = 4_000_000


@dataclass(frozen=True)
class GridSpec:
    """Uniform grid on (0, L) with N interior points, h = L / (N + 1)."""

    L: float
    N: int

    def __post_init__(self):
        if not (math.isfinite(self.L) and self.L > 0):
            raise ValueError(f"truncation length must be finite and positive, "
                             f"got {self.L}")
        if self.N < 16:
            raise ValueError(f"need at least 16 interior points, got {self.N}")

    @property
    def h(self) -> float:
        return self.L / (self.N + 1)

    def nodes(self) -> np.ndarray:
        """Interior nodes i h, i = 1..N."""
        return self.h * np.arange(1, self.N + 1)

    def boundary_nodes(self) -> np.ndarray:
        """All N + 2 nodes including 0 and L."""
        return np.linspace(0.0, self.L, self.N + 2)

    def refined(self) -> "GridSpec":
        """The grid with h halved (N -> 2N + 1); existing nodes survive."""
        return GridSpec(self.L, 2 * self.N + 1)

    def node_index(self, x: float, *, minimum: int = 0) -> int:
        """Index of the interior node nearest x, clamped to [minimum, N-1]."""
        if not math.isfinite(x):
            raise ValueError(f"grid coordinate must be finite, got {x}")
        i = int(round(x / self.h)) - 1
        return min(max(i, minimum), self.N - 1)


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
    """Kernel samples of a star-graph operator, read from the semiseparable
    form of each sector's inverse (see the module docstring).

    value(j, x, l, y) is the kernel between position x on edge j and the
    source at y on edge l (0-based edges); value(x, y) addresses edge 0,
    the half line.  Both coordinates snap to grid nodes (the source node
    is kept off the first interior node, see module docstring).
    snap(...) takes the same arguments and returns the snapped ones, so
    analytic comparisons can be evaluated at identical points.
    vertex_values(l, y) returns the n eliminated ghost values Psi_0 of the
    kernel column for a source at (l, y), i.e. its traces at the vertex.
    Edge indices outside [0, n) raise ValueError.
    """

    def __init__(self, grid: GridSpec, w: np.ndarray, z: np.ndarray,
                 exponents: np.ndarray, q: np.ndarray, m0: np.ndarray):
        self.grid = grid
        self.n_edges = m0.shape[0]
        # (n, N): per sector the scaled w_k and z_k / w_k[p]
        self._w = w
        self._z = z
        self._e = exponents
        self._q = q
        self._m0 = m0

    def _check_edges(self, *edges) -> None:
        if not all(0 <= e < self.n_edges for e in edges):
            raise ValueError(f"edge indices must lie in [0, {self.n_edges}), "
                             f"got {', '.join(map(str, edges))}")

    def _nodes(self, point) -> tuple[int, int, int, int]:
        if len(point) == 4:
            j, x, l, y = point
        elif len(point) == 2:
            j, x, l, y = 0, point[0], 0, point[1]
        else:
            raise ValueError(f"a kernel point is (x, y) or (j, x, l, y), got "
                             f"{len(point)} coordinates")
        self._check_edges(j, l)
        return (j, self.grid.node_index(x), l,
                self.grid.node_index(y, minimum=1))

    def snap(self, *point):
        j, ix, l, iy = self._nodes(point)
        x, y = self.grid.h * (ix + 1), self.grid.h * (iy + 1)
        return (j, x, l, y) if len(point) == 4 else (x, y)

    def value(self, *point) -> float:
        j, ix, l, iy = self._nodes(point)
        lo, hi = (ix, iy) if ix <= iy else (iy, ix)
        g = self._w[:, lo] * self._z[:, hi]
        return math.ldexp(float(g @ (self._q[j] * self._q[l])),
                          int(self._e[lo]) - int(self._e[hi]))

    def vertex_values(self, edge_l: int, y: float) -> np.ndarray:
        """Ghost values Psi_0 = M0 (4 Psi_1 - Psi_2) of the column for a
        source at (edge_l, y): the kernel column's boundary trace."""
        self._check_edges(edge_l)
        iy = self.grid.node_index(y, minimum=1)
        # (n, 2): g_k(0; iy) and g_k(1; iy) of every sector
        g = np.ldexp(self._w[:, :2] * self._z[:, iy, None],
                     self._e[:2] - self._e[iy])
        psi = self._q @ (self._q[edge_l, :, None] * g)
        return self._m0 @ (4.0 * psi[:, 0] - psi[:, 1])


#: the star kernel samples are the same class
SampledStarKernel = SampledKernel


def _ghost_map(coupling: VertexCoupling, h: float) -> np.ndarray:
    """M0 = -(2h A - 3 B)^{-1} B = (I + S_U(3i / (2h))) / 6, real for
    U = U^T (see the module docstring)."""
    try:
        return one_plus_s(coupling, 1.5j / h, ORIGIN_STENCIL_TOL) / 6.0
    except PoleError as exc:
        raise PoleError(f"origin stencil singular: {exc}") from None


def _solve(coupling: VertexCoupling, points: Sequence[PointInteraction],
           kappa: float, grid: GridSpec) -> SampledKernel:
    # local: importing scipy.linalg.lapack executes all of scipy.linalg
    from scipy.linalg.lapack import dgttrf, dgttrs

    n, big_n, h = coupling.n, grid.N, grid.h
    if n * big_n > MAX_FD_UNKNOWNS:
        raise ValueError(
            f"finite-difference grid too fine: N = {big_n} nodes on each of "
            f"n = {n} edges (h = {h:.6g}) exceed {MAX_FD_UNKNOWNS} unknowns")
    m0 = _ghost_map(coupling, h)
    if np.iscomplexobj(m0):
        raise ValueError("finite-difference solver needs a symmetric "
                         "coupling U = U^T; this U gives a complex ghost map")
    # M0 is symmetric up to the rounding of its solve
    lams, q = np.linalg.eigh(0.5 * (m0 + m0.T))

    # e_i = floor(i r): node i carries the scale 2^{e_i} of D; the e_i
    # must fit int32 and the scaled off-diagonals 2^{ceil r} / h^2 a double
    rate = 2.0 * math.asinh(0.5 * kappa * h) / math.log(2.0)
    if rate * big_n >= 2**31 or math.ceil(rate) - 2.0 * math.log2(h) >= 1024:
        raise ValueError(f"kappa = {kappa} too large for the grid: the "
                         f"scale exponents overflow (h = {h:.6g})")
    exponents = (np.arange(big_n) * rate).astype(np.int32)
    step = np.diff(exponents)
    diag = np.full(big_n, 2.0 / h**2 + kappa**2)
    for point in points:
        diag[_point_node(point, grid)] += point.c / h
    # the off-diagonals of D^{-1} T D: exact, the scales are powers of two
    upper = np.ldexp(-1.0 / h**2, step)
    lower = np.ldexp(-1.0 / h**2, -step)
    w = np.zeros((n, big_n))
    w[:, -1] = 1.0
    z = np.zeros((n, big_n))
    pivot = np.empty(n)
    for k, lam in enumerate(lams):
        d, du = diag.copy(), upper.copy()
        d[0] -= 4.0 * lam / h**2
        du[0] += math.ldexp(lam / h**2, int(step[0]))
        # the row of the inverse that does not carry a cancelled entry
        row = 0 if abs(du[0]) >= abs(d[0]) else 1
        z[k, row] = 1.0 / h
        *lu, info = dgttrf(lower, d, du, overwrite_d=True, overwrite_du=True)
        if info > 0:
            raise PoleError(f"discrete operator singular: zero pivot in row "
                            f"{info} of sector {k}")
        # both solve in place, into the sector's rows of w and z
        dgttrs(*lu, w[k], overwrite_b=True)
        dgttrs(*lu, z[k], trans="T", overwrite_b=True)
        pivot[k] = w[k, row]
    with np.errstate(all="ignore"):
        z /= pivot[:, None]
    # point interactions with |c| h near the largest double decouple the
    # vertex from the last node: w_k[p] leaves the normal range
    if not (np.all(np.abs(pivot) >= np.finfo(float).tiny)
            and np.isfinite(z).all()):
        raise ValueError("point interactions too strong for the "
                         "finite-difference grid: the vertex is decoupled "
                         "from x = L beyond double range")
    return SampledKernel(grid, w, z, exponents, q, m0)


def fd_resolvent_halfline(bc: HalflineBC, points: Sequence[PointInteraction],
                          kappa: float, grid: GridSpec) -> SampledKernel:
    """Finite-difference kernel of -d^2/dx^2 (+ point interactions) on the
    half line at energy -kappa^2."""
    check_kappa(kappa)
    return _solve(make_coupling(*bc.vertex), points, kappa, grid)


def fd_resolvent_star(model: StarModel, kappa: float,
                      grid: GridSpec) -> SampledKernel:
    """Finite-difference kernel of the star-graph operator at energy
    -kappa^2, all n edges coupled at the origin by the model's central
    vertex condition and carrying its point interaction."""
    check_kappa(kappa)
    return _solve(make_coupling(*model.vertex), model.points, kappa, grid)


def compare_kernels(analytic: Callable[..., float], sampled,
                    sample_points) -> KernelErrorStats:
    """Max-abs and RMS error between an analytic kernel evaluator and a
    sampled kernel over a set of points.

    Points are (x, y) pairs for half-line kernels and (j, x, l, y) tuples
    for star kernels; each is snapped to grid nodes and the analytic
    evaluator is called at the snapped coordinates.
    """
    errors = []
    for point in sample_points:
        snapped = sampled.snap(*point)
        errors.append(analytic(*snapped) - sampled.value(*snapped))
    errors = np.asarray(errors, dtype=float)
    if errors.size == 0:
        return KernelErrorStats(0.0, 0.0, 0)
    return KernelErrorStats(max_abs=float(np.max(np.abs(errors))),
                            rms=float(np.sqrt(np.mean(errors**2))),
                            count=int(errors.size))
