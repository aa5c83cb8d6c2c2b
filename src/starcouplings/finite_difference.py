"""Brute-force finite-difference resolvents for validating the closed forms.

Each of the n edges of a star (a half line is the star with n = 1) is
truncated at L with a Dirichlet condition there (kernels decay like
e^{-kappa x}, so with kappa L ~ 12 the truncation error is far below the
discretization error) and discretized on interior nodes x_i = i h,
i = 1..N, h = L / (N + 1), with the standard three-point Laplacian.  The n
ghost values Psi_0 at the vertex are eliminated jointly through the vertex
condition A Psi(0) + B Psi'(0) = 0, (A, B) = (U - I, i (U + I)), with the
one-sided second-order stencil Psi'(0) = (-3 Psi_0 + 4 Psi_1 - Psi_2) / (2h):

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
ghost block -(4 M0, -M0) / h^2 in the first n rows: a band matrix with n
subdiagonals and 2n - 1 superdiagonals, written straight into LAPACK band
storage and factorized once by a banded LU.  A delta potential of
strength c adds c / h to the diagonal at the node nearest its position on
every edge (first-order-consistent; exact positions should sit on grid
nodes for clean second-order behavior).  The resolvent column for a
source at node j solves (H + kappa^2) g = e_j / h, and kernel values are
read off at the nodes.

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
from scipy.linalg.lapack import dgbtrf, dgbtrs

# to_ab stays a module attribute: the oracle workload of benchmarks/
# patches finite_difference.to_ab
from .coupling import VertexCoupling, make_coupling, to_ab  # noqa: F401
from .errors import PoleError
from .greens import HalflineBC, PointInteraction, StarModel, check_kappa
from .scattering import one_plus_s

#: origin stencils with sigma_min(D(3i / (2h))) below this (relative, see
#: scattering.one_plus_s) raise PoleError
ORIGIN_STENCIL_TOL = 1e-8


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
    """Lazy column-solved kernel samples of a star-graph operator.

    value(j, x, l, y) is the kernel between position x on edge j and the
    source at y on edge l (0-based edges); value(x, y) addresses edge 0,
    the half line.  Both coordinates snap to grid nodes (the source node
    is kept off the first interior node, see module docstring).
    snap(...) takes the same arguments and returns the snapped ones, so
    analytic comparisons can be evaluated at identical points.
    vertex_values(l, y) returns the n eliminated ghost values Psi_0 of the
    solved column, i.e. the traces of the kernel column at the vertex.
    """

    def __init__(self, grid: GridSpec, lu: np.ndarray, pivots: np.ndarray,
                 m0: np.ndarray):
        self.grid = grid
        self.n_edges = m0.shape[0]
        self._lu = lu
        self._pivots = pivots
        self._m0 = m0
        self._columns: dict[int, np.ndarray] = {}

    def _column(self, edge_l: int, iy: int) -> np.ndarray:
        key = iy * self.n_edges + edge_l
        col = self._columns.get(key)
        if col is None:
            n = self.n_edges
            rhs = np.zeros(self.grid.N * n)
            rhs[key] = 1.0 / self.grid.h
            col, _ = dgbtrs(self._lu, n, 2 * n - 1, rhs, self._pivots)
            self._columns[key] = col
        return col

    def _nodes(self, point) -> tuple[int, int, int, int]:
        j, x, l, y = point if len(point) == 4 else (0, point[0], 0, point[1])
        return (j, self.grid.node_index(x), l,
                self.grid.node_index(y, minimum=1))

    def snap(self, *point):
        j, ix, l, iy = self._nodes(point)
        x, y = self.grid.h * (ix + 1), self.grid.h * (iy + 1)
        return (j, x, l, y) if len(point) == 4 else (x, y)

    def value(self, *point) -> float:
        j, ix, l, iy = self._nodes(point)
        return float(self._column(l, iy)[ix * self.n_edges + j])

    def vertex_values(self, edge_l: int, y: float) -> np.ndarray:
        """Ghost values Psi_0 = M0 (4 Psi_1 - Psi_2) of the column for a
        source at (edge_l, y): the kernel column's boundary trace."""
        col = self._column(edge_l, self.grid.node_index(y, minimum=1))
        n = self.n_edges
        return self._m0 @ (4.0 * col[:n] - col[n:2 * n])


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
    n, h = coupling.n, grid.h
    m0 = _ghost_map(coupling, h)

    diag = np.full(grid.N, 2.0 / h**2 + kappa**2)
    for point in points:
        diag[_point_node(point, grid)] += point.c / h
    # LAPACK band storage: entry (r, c) at row kl + ku + r - c, column c,
    # with kl spare rows on top for the fill of the pivoting
    kl, ku = n, 2 * n - 1
    band = np.zeros((2 * kl + ku + 1, n * grid.N), order="F")
    band[kl + ku] = np.repeat(diag, n)
    band[ku, n:] = band[kl + ku + n, :-n] = -1.0 / h**2
    rows, cols = np.indices((n, 2 * n)).reshape(2, -1)
    band[kl + ku + rows - cols, cols] += \
        np.hstack((-4.0 * m0, m0)).ravel() / h**2
    lu, pivots, info = dgbtrf(band, kl, ku, overwrite_ab=True)
    if info > 0:
        raise PoleError(f"discrete operator singular: zero pivot in row "
                        f"{info}")
    return SampledKernel(grid, lu, pivots, m0)


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
