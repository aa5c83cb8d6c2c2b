"""Brute-force finite-difference resolvents for validating the closed forms.

The half line is truncated at L with a Dirichlet condition there (kernels
decay like e^{-kappa x}, so with kappa L ~ 12 the truncation error is far
below the discretization error) and discretized on interior nodes
x_i = i h, i = 1..N, h = L / (N + 1), with the standard three-point
Laplacian.  The origin condition eliminates the ghost value psi_0:

    Dirichlet               psi_0 = 0
    Neumann / Robin(b)      psi'(0) = b psi(0) through the one-sided
                            second-order stencil
                            (-3 psi_0 + 4 psi_1 - psi_2) / (2h) = b psi_0,
                            i.e. psi_0 = (4 psi_1 - psi_2) / (3 + 2 h b)
    RobinScaled(n, beta)    as Robin with b = n / beta (Dirichlet for
                            beta = 0)

A delta potential of strength c adds c / h to the diagonal at the node
nearest its position (first-order-consistent; exact positions should sit
on grid nodes for clean second-order behavior).  The resolvent column for
a source at node j is the solution of (H + kappa^2) g = e_j / h, one
tridiagonal solve per requested column; kernel values are read off at the
nodes.

Two caveats of the one-sided elimination, both confined to the first
interior node x_1 = h: source columns must not sit there (the eliminated
row carries a different scale, so a delta load on it is misnormalized;
source coordinates snap to nodes at x >= 2h), and kernel symmetry across
that node holds only to O(h^2) instead of machine precision.  Away from
x_1 the sampled kernel is symmetric to rounding.

For a star of n edges the same construction applies per edge, and the n
ghost values are eliminated jointly through the vertex condition in
(A, B) form,

    (2h A - 3 B) Psi_0 + B (4 Psi_1 - Psi_2) = 0,

with (A, B) built from the coupling module for the model's central
coupling.  Unknowns are ordered node-major so the vertex block stays
local; the sparse LU factorization is computed once and reused for every
requested column.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple, Sequence

import numpy as np
import scipy.sparse
from scipy.linalg import solve_banded
from scipy.sparse.linalg import splu

from .coupling import make_coupling, to_ab
from .errors import PoleError
from .greens import HalflineBC, PointInteraction, StarModel, check_kappa


@dataclass(frozen=True)
class GridSpec:
    """Uniform grid on (0, L) with N interior points, h = L / (N + 1)."""

    L: float
    N: int

    def __post_init__(self):
        if not self.L > 0:
            raise ValueError(f"truncation length must be positive, got {self.L}")
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
    """Lazy column-solved kernel samples of a half-line operator.

    value(x, y) snaps both coordinates to grid nodes (the source node is
    kept off the first interior node, see module docstring) and returns
    the discrete kernel there.  snap(x, y) exposes the snapped coordinates
    so analytic comparisons can be evaluated at identical points.
    """

    def __init__(self, grid: GridSpec, band: np.ndarray):
        self.grid = grid
        self._band = band
        self._columns: dict[int, np.ndarray] = {}

    def _column(self, j: int) -> np.ndarray:
        col = self._columns.get(j)
        if col is None:
            rhs = np.zeros(self.grid.N)
            rhs[j] = 1.0 / self.grid.h
            try:
                col = solve_banded((1, 1), self._band, rhs)
            except np.linalg.LinAlgError as exc:
                raise PoleError(
                    f"discrete operator singular at this energy: {exc}") from exc
            self._columns[j] = col
        return col

    def snap(self, x: float, y: float) -> tuple[float, float]:
        nodes = self.grid.nodes()
        ix = self.grid.node_index(x)
        iy = self.grid.node_index(y, minimum=1)
        return float(nodes[ix]), float(nodes[iy])

    def value(self, x: float, y: float) -> float:
        ix = self.grid.node_index(x)
        iy = self.grid.node_index(y, minimum=1)
        return float(self._column(iy)[ix])


def fd_resolvent_halfline(bc: HalflineBC, points: Sequence[PointInteraction],
                          kappa: float, grid: GridSpec) -> SampledKernel:
    """Finite-difference kernel of -d^2/dx^2 (+ point interactions) on the
    half line at energy -kappa^2."""
    check_kappa(kappa)
    h = grid.h
    n_pts = grid.N
    diag = np.full(n_pts, 2.0 / h**2 + kappa**2)
    sub = np.full(n_pts - 1, -1.0 / h**2)
    sup = np.full(n_pts - 1, -1.0 / h**2)
    slope = bc.slope()  # None marks a Dirichlet origin
    if slope is not None:
        den = 3.0 + 2.0 * h * slope
        if abs(den) < 1e-8:
            raise PoleError(
                f"origin stencil singular: 3 + 2 h b = {den:.3e} (b={slope})")
        diag[0] = (2.0 - 4.0 / den) / h**2 + kappa**2
        sup[0] = (-1.0 + 1.0 / den) / h**2
    for point in points:
        diag[_point_node(point, grid)] += point.c / h
    band = np.zeros((3, n_pts))
    band[0, 1:] = sup
    band[1, :] = diag
    band[2, :-1] = sub
    return SampledKernel(grid, band)


class SampledStarKernel:
    """Lazy column-solved kernel samples of a star-graph operator.

    value(j, x, l, y) is the kernel between position x on edge j and the
    source at y on edge l (0-based edges).  vertex_values(l, y) returns the
    n eliminated ghost values Psi_0 of the solved column, i.e. the traces
    of the kernel column at the vertex.
    """

    def __init__(self, grid: GridSpec, n_edges: int, lu, m0: np.ndarray):
        self.grid = grid
        self.n_edges = n_edges
        self._lu = lu
        self._m0 = m0
        self._columns: dict[int, np.ndarray] = {}

    def _index(self, edge: int, node: int) -> int:
        return node * self.n_edges + edge

    def _column(self, edge_l: int, iy: int) -> np.ndarray:
        key = self._index(edge_l, iy)
        col = self._columns.get(key)
        if col is None:
            rhs = np.zeros(self.grid.N * self.n_edges)
            rhs[key] = 1.0 / self.grid.h
            col = self._lu.solve(rhs)
            self._columns[key] = col
        return col

    def snap(self, edge_j: int, x: float, edge_l: int, y: float):
        nodes = self.grid.nodes()
        ix = self.grid.node_index(x)
        iy = self.grid.node_index(y, minimum=1)
        return edge_j, float(nodes[ix]), edge_l, float(nodes[iy])

    def value(self, edge_j: int, x: float, edge_l: int, y: float) -> float:
        ix = self.grid.node_index(x)
        iy = self.grid.node_index(y, minimum=1)
        col = self._column(edge_l, iy)
        return float(col[self._index(edge_j, ix)])

    def vertex_values(self, edge_l: int, y: float) -> np.ndarray:
        """Ghost values Psi_0 = M0 (4 Psi_1 - Psi_2) of the column for a
        source at (edge_l, y): the kernel column's boundary trace."""
        iy = self.grid.node_index(y, minimum=1)
        col = self._column(edge_l, iy)
        psi1 = np.array([col[self._index(e, 0)] for e in range(self.n_edges)])
        psi2 = np.array([col[self._index(e, 1)] for e in range(self.n_edges)])
        return self._m0 @ (4.0 * psi1 - psi2)


def _central_coupling(model: StarModel):
    if model.kind == "delta_prime_s":
        return make_coupling("delta_prime_s", model.n, model.beta)
    if model.kind == "delta_prime":
        return make_coupling("delta_prime", model.n, model.beta)
    if model.kind == "central_delta":
        # per-channel condition psi'(0+) = b psi(0): n-edge strength n b
        return make_coupling("delta", model.n, model.n * model.b)
    return make_coupling("delta_p", model.n, model.b)


def fd_resolvent_star(model: StarModel, kappa: float,
                      grid: GridSpec) -> SampledStarKernel:
    """Finite-difference kernel of the star-graph operator at energy
    -kappa^2, all n edges coupled at the origin by the model's central
    vertex condition."""
    check_kappa(kappa)
    n = model.n
    h = grid.h
    pair = to_ab(_central_coupling(model))
    lhs = 2.0 * h * pair.a - 3.0 * pair.b
    m0 = -np.linalg.solve(lhs, np.asarray(pair.b))
    if np.max(np.abs(m0.imag)) > 1e-10 * max(np.max(np.abs(m0.real)), 1.0):
        raise PoleError("vertex elimination produced a non-real ghost map; "
                        "unsupported central coupling")
    m0 = np.ascontiguousarray(m0.real)

    rows: list[int] = []
    cols: list[int] = []
    vals: list[float] = []

    def add(r, c, v):
        rows.append(r)
        cols.append(c)
        vals.append(v)

    def idx(edge, node):
        return node * n + edge

    inv_h2 = 1.0 / h**2
    for e in range(n):
        for i in range(grid.N):
            r = idx(e, i)
            add(r, r, 2.0 * inv_h2 + kappa**2)
            if i + 1 < grid.N:
                add(r, idx(e, i + 1), -inv_h2)
            if i - 1 >= 0:
                add(r, idx(e, i - 1), -inv_h2)
        # ghost contribution -psi_{e,0}/h^2 in the first row of edge e
        r = idx(e, 0)
        for l in range(n):
            add(r, idx(l, 0), -4.0 * m0[e, l] * inv_h2)
            add(r, idx(l, 1), m0[e, l] * inv_h2)
    if model.point is not None:
        j = _point_node(model.point, grid)
        for e in range(n):
            add(idx(e, j), idx(e, j), model.point.c / h)

    matrix = scipy.sparse.csc_matrix(
        scipy.sparse.coo_matrix((vals, (rows, cols)),
                                shape=(n * grid.N, n * grid.N)))
    try:
        lu = splu(matrix)
    except RuntimeError as exc:
        raise PoleError(f"discrete star operator singular: {exc}") from exc
    return SampledStarKernel(grid, n, lu, m0)


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
