"""Finite-difference solver tests.

The solver is itself the reference for the closed forms, so the tests
here pin its own consistency: agreement with the exponential kernels at
the expected O(h^2) level, error reduction ~4x when h is halved, exact
symmetry of the sampled kernel away from the first node, and reduction of
the star solver to the half-line one.  The semiseparable reading of each
sector's inverse is checked against a dense solve of the joint operator
and against one column solve per source node.
"""

import math

import numpy as np
import pytest

from conftest import random_unitary, unitary_with_phase
from starcouplings import (GridSpec, HalflineBC, PointInteraction, PoleError,
                           StarModel, VertexCoupling, compare_kernels,
                           fd_resolvent_halfline, fd_resolvent_star,
                           halfline_green, halfline_kernel, krein_insert,
                           make_coupling, star_green, to_ab,
                           vertex_kernel)
from starcouplings.finite_difference import (MAX_FD_UNKNOWNS,
                                             ORIGIN_STENCIL_TOL, _ghost_map,
                                             _solve)

KAPPA = 1.0
SAMPLES = [(x, y) for x in (0.48, 0.96, 1.5, 2.01, 3.0)
           for y in (0.48, 0.96, 1.5, 2.01, 3.0)]


# ======================================================================
#  GridSpec
# ======================================================================

class TestGridSpec:
    def test_mesh_width(self):
        grid = GridSpec(12.0, 3999)
        assert grid.h == 12.0 / 4000

    def test_nodes_cover_interior(self):
        grid = GridSpec(10.0, 99)
        nodes = grid.nodes()
        assert len(nodes) == 99
        assert nodes[0] == grid.h
        assert nodes[-1] < grid.L

    def test_refinement_keeps_nodes(self):
        grid = GridSpec(12.0, 999)
        fine = grid.refined()
        assert fine.h == pytest.approx(grid.h / 2)
        assert set(np.round(grid.nodes(), 12)).issubset(
            set(np.round(fine.nodes(), 12)))

    def test_validation(self):
        with pytest.raises(ValueError):
            GridSpec(0.0, 100)
        with pytest.raises(ValueError):
            GridSpec(10.0, 8)

    @pytest.mark.parametrize("value", [np.inf, -np.inf, np.nan])
    def test_rejects_nonfinite_length_and_coordinates(self, value):
        # an infinite coordinate raised OverflowError in node_index
        with pytest.raises(ValueError):
            GridSpec(value, 100)
        grid = GridSpec(12.0, 99)
        sampled = fd_resolvent_halfline(HalflineBC.neumann(), [], KAPPA, grid)
        with pytest.raises(ValueError):
            sampled.value(value, 1.0)
        with pytest.raises(ValueError):
            sampled.snap(1.0, value)


# ======================================================================
#  half-line solver vs closed forms
# ======================================================================

class TestHalflineSolver:
    def test_dirichlet_kernel_value(self):
        grid = GridSpec(12.0, 4000)
        sampled = fd_resolvent_halfline(HalflineBC.dirichlet(), [], KAPPA, grid)
        x, y = sampled.snap(1.0, 2.0)
        exact = halfline_green(HalflineBC.dirichlet(), KAPPA, x, y)
        assert abs(sampled.value(x, y) - exact) < 1e-3

    @pytest.mark.parametrize("bc", [
        HalflineBC.dirichlet(), HalflineBC.neumann(), HalflineBC.robin(1.5),
        HalflineBC.robin(-0.4), HalflineBC.robin_scaled(3, 2.0),
    ], ids=lambda bc: f"{bc.kind}")
    def test_plain_kernels_within_budget(self, bc):
        grid = GridSpec(12.0, 1499)  # h = 8e-3
        sampled = fd_resolvent_halfline(bc, [], KAPPA, grid)
        analytic = lambda x, y: halfline_green(bc, KAPPA, x, y)  # noqa: E731
        stats = compare_kernels(analytic, sampled, SAMPLES)
        assert stats.max_abs < 50.0 * grid.h**2

    def test_robin_zero_equals_neumann_exactly(self):
        grid = GridSpec(12.0, 499)
        a = fd_resolvent_halfline(HalflineBC.robin(0.0), [], KAPPA, grid)
        b = fd_resolvent_halfline(HalflineBC.neumann(), [], KAPPA, grid)
        for (x, y) in SAMPLES[::3]:
            assert a.value(x, y) == b.value(x, y)

    def test_halving_h_quarters_the_error(self):
        grid = GridSpec(12.0, 999)
        bc = HalflineBC.neumann()
        coarse = fd_resolvent_halfline(bc, [], KAPPA, grid)
        fine = fd_resolvent_halfline(bc, [], KAPPA, grid.refined())
        analytic = lambda x, y: halfline_green(bc, KAPPA, x, y)  # noqa: E731
        snapped = [coarse.snap(*p) for p in SAMPLES]
        e1 = compare_kernels(analytic, coarse, snapped).max_abs
        e2 = compare_kernels(analytic, fine, snapped).max_abs
        assert 3.0 <= e1 / e2 <= 5.0

    def test_sixteenfold_reduction_over_two_refinements(self):
        bc = HalflineBC.dirichlet()
        analytic = lambda x, y: halfline_green(bc, KAPPA, x, y)  # noqa: E731
        coarse = fd_resolvent_halfline(bc, [], KAPPA, GridSpec(12.0, 999))
        snapped = [coarse.snap(*p) for p in SAMPLES]
        fine = fd_resolvent_halfline(
            bc, [], KAPPA, GridSpec(12.0, 999).refined().refined())
        e1 = compare_kernels(analytic, coarse, snapped).max_abs
        e2 = compare_kernels(analytic, fine, snapped).max_abs
        assert 9.0 <= e1 / e2 <= 25.0

    def test_point_interaction_matches_rank_one_update(self):
        grid = GridSpec(12.0, 1499)  # h = 8e-3, a sits on node 125
        point = PointInteraction(a=1.0, c=-2.0)
        bc = HalflineBC.dirichlet()
        sampled = fd_resolvent_halfline(bc, [point], KAPPA, grid)
        analytic = lambda x, y: krein_insert(bc, point, KAPPA, x, y)  # noqa: E731
        stats = compare_kernels(analytic, sampled, SAMPLES)
        assert stats.max_abs < 50.0 * grid.h**2

    def test_two_points_match_chained_kernel(self):
        grid = GridSpec(12.0, 1499)
        points = [PointInteraction(1.0, -1.5), PointInteraction(2.0, 0.8)]
        bc = HalflineBC.neumann()
        sampled = fd_resolvent_halfline(bc, points, KAPPA, grid)
        stats = compare_kernels(halfline_kernel(bc, points, KAPPA),
                                sampled, SAMPLES)
        assert stats.max_abs < 50.0 * grid.h**2

    def test_strong_negative_point_screens(self):
        # c -> large negative acts like a Dirichlet wall at a
        grid = GridSpec(12.0, 1499)
        point = PointInteraction(a=1.0, c=-1e6)
        sampled = fd_resolvent_halfline(HalflineBC.dirichlet(), [point],
                                        KAPPA, grid)
        assert abs(sampled.value(1.0, 2.5)) < 1e-3
        analytic = lambda x, y: krein_insert(  # noqa: E731
            HalflineBC.dirichlet(), point, KAPPA, x, y)
        stats = compare_kernels(analytic, sampled, SAMPLES)
        assert stats.max_abs < 50.0 * grid.h**2

    def test_sampled_kernel_symmetric_off_first_node(self):
        grid = GridSpec(12.0, 799)
        for bc in (HalflineBC.dirichlet(), HalflineBC.robin(1.5)):
            sampled = fd_resolvent_halfline(bc, [], KAPPA, grid)
            for (x, y) in SAMPLES[::4]:
                xs, ys = sampled.snap(x, y)
                assert abs(sampled.value(xs, ys)
                           - sampled.value(ys, xs)) < 1e-10

    def test_rejects_point_outside_grid(self):
        grid = GridSpec(12.0, 99)
        with pytest.raises(ValueError):
            fd_resolvent_halfline(HalflineBC.dirichlet(),
                                  [PointInteraction(15.0, 1.0)], KAPPA, grid)

    def test_rejects_infinite_point_strength(self):
        grid = GridSpec(12.0, 99)
        with pytest.raises(ValueError):
            fd_resolvent_halfline(HalflineBC.dirichlet(),
                                  [PointInteraction(1.0, np.inf)], KAPPA, grid)

    def test_rejects_infinite_kappa(self):
        grid = GridSpec(12.0, 99)
        with pytest.raises(ValueError):
            fd_resolvent_halfline(HalflineBC.neumann(), [], np.inf, grid)
        with pytest.raises(ValueError):
            fd_resolvent_star(StarModel.delta_prime_s(2, 1.0), np.inf, grid)


# ======================================================================
#  star solver
# ======================================================================

class TestStarSolver:
    def test_single_edge_star_matches_halfline(self):
        grid = GridSpec(12.0, 999)
        m = StarModel.delta_prime_s(1, 0.9)
        star = fd_resolvent_star(m, KAPPA, grid)
        half = fd_resolvent_halfline(HalflineBC.robin_scaled(1, 0.9), [],
                                     KAPPA, grid)
        for (x, y) in SAMPLES[::4]:
            assert star.value(0, x, 0, y) == pytest.approx(
                half.value(x, y), abs=1e-12)

    def test_common_derivative_target_matches_assembly(self):
        grid = GridSpec(12.0, 4000)
        m = StarModel.delta_prime_s(2, 1.3)
        sampled = fd_resolvent_star(m, KAPPA, grid)
        analytic = lambda j, x, l, y: star_green(m, KAPPA, j, x, l, y)  # noqa: E731
        points = [(j, x, l, y) for j in (0, 1) for l in (0, 1)
                  for (x, y) in SAMPLES[::4]]
        stats = compare_kernels(analytic, sampled, points)
        assert stats.max_abs < 2e-3

    def test_pairwise_difference_target_within_budget(self):
        grid = GridSpec(12.0, 1499)
        m = StarModel.delta_prime(3, -0.5)
        sampled = fd_resolvent_star(m, KAPPA, grid)
        analytic = lambda j, x, l, y: star_green(m, KAPPA, j, x, l, y)  # noqa: E731
        points = [(j, x, l, y) for j in (0, 2) for l in (0, 2)
                  for (x, y) in SAMPLES[::4]]
        stats = compare_kernels(analytic, sampled, points)
        assert stats.max_abs < 50.0 * grid.h**2

    def test_decorated_approximant_within_budget(self):
        grid = GridSpec(12.0, 1499)
        m = StarModel.central_delta(2, -8.0, PointInteraction(1.0, -4.0))
        sampled = fd_resolvent_star(m, KAPPA, grid)
        analytic = lambda j, x, l, y: star_green(m, KAPPA, j, x, l, y)  # noqa: E731
        points = [(j, x, l, y) for j in (0, 1) for l in (0, 1)
                  for (x, y) in SAMPLES[::4]]
        stats = compare_kernels(analytic, sampled, points)
        assert stats.max_abs < 50.0 * grid.h**2

    def test_free_junction_kernel_continuous_at_vertex(self):
        # vertex traces of the kernel column agree across edges
        grid = GridSpec(12.0, 1999)
        m = StarModel.central_delta(3, 0.0)  # Kirchhoff
        sampled = fd_resolvent_star(m, KAPPA, grid)
        traces = sampled.vertex_values(0, 1.5)
        assert np.ptp(traces) < 1e-6

    def test_star_kernel_symmetry(self):
        grid = GridSpec(12.0, 799)
        m = StarModel.delta_prime_s(3, 1.1)
        sampled = fd_resolvent_star(m, KAPPA, grid)
        for (j, x, l, y) in [(0, 1.5, 1, 2.01), (2, 0.96, 0, 3.0),
                             (1, 2.01, 1, 0.96)]:
            js, xs, ls, ys = sampled.snap(j, x, l, y)
            assert abs(sampled.value(js, xs, ls, ys)
                       - sampled.value(ls, ys, js, xs)) < 1e-10


# ======================================================================
#  origin stencil
# ======================================================================

class TestOriginStencil:
    @pytest.mark.parametrize("factor", [1.0, 1.0 + 1e-12, 1.0 - 1e-12])
    def test_singular_stencil_is_a_pole(self, factor):
        # per-channel Robin b = -3/(2h) makes 3 + 2 h b vanish; the star
        # used to blame a "non-real ghost map"
        grid = GridSpec(12.0, 499)
        b = -3.0 / (2.0 * grid.h) * factor
        for build in (
                lambda: fd_resolvent_halfline(HalflineBC.robin(b), [], KAPPA,
                                              grid),
                lambda: fd_resolvent_star(StarModel.central_delta(2, b),
                                          KAPPA, grid)):
            with pytest.raises(PoleError, match="origin stencil"):
                build()


# ======================================================================
#  compare_kernels
# ======================================================================

class TestCompareKernels:
    def test_identical_inputs_give_zero(self):
        grid = GridSpec(12.0, 499)
        sampled = fd_resolvent_halfline(HalflineBC.dirichlet(), [], KAPPA,
                                        grid)
        stats = compare_kernels(lambda x, y: sampled.value(x, y), sampled,
                                SAMPLES)
        assert stats.max_abs == 0.0
        assert stats.rms == 0.0
        assert stats.count == len(SAMPLES)

    def test_mismatched_conditions_show_reflection_difference(self):
        # comparing against the wrong wall exposes e^{-kappa(x+y)}/kappa
        grid = GridSpec(12.0, 999)
        sampled = fd_resolvent_halfline(HalflineBC.dirichlet(), [], KAPPA,
                                        grid)
        wrong = lambda x, y: halfline_green(  # noqa: E731
            HalflineBC.neumann(), KAPPA, x, y)
        stats = compare_kernels(wrong, sampled, [(0.48, 0.96)])
        expected = np.exp(-KAPPA * (0.48 + 0.96)) / KAPPA
        assert abs(stats.max_abs - expected) < 1e-3
        assert stats.max_abs > 50.0 * grid.h**2

    def test_empty_sample_set(self):
        grid = GridSpec(12.0, 499)
        sampled = fd_resolvent_halfline(HalflineBC.dirichlet(), [], KAPPA,
                                        grid)
        stats = compare_kernels(lambda x, y: 0.0, sampled, [])
        assert stats == (0.0, 0.0, 0)


# ======================================================================
#  ghost map M0 = -(2h A - 3B)^{-1} B and its origin guard
# ======================================================================

def _to_ab_ghost_map(coupling, h):
    """M0 from the boundary pair (A, B) = to_ab(U), and whether the guard
    sigma_min(2h A - 3B) < ORIGIN_STENCIL_TOL |(2h A, 3B)| trips."""
    pair = to_ab(coupling)
    lhs = 2.0 * h * pair.a - 3.0 * pair.b
    scale = np.linalg.norm(np.hstack((2.0 * h * pair.a, 3.0 * pair.b)), 2)
    trips = np.linalg.svd(lhs, compute_uv=False)[-1] \
        < ORIGIN_STENCIL_TOL * scale
    return -np.linalg.solve(lhs, pair.b), trips


def _symmetric_unitary(n, rng):
    u = random_unitary(n, rng)
    w = u @ u.T
    return (w + w.T) / 2.0


class TestGhostMap:
    @pytest.mark.parametrize("symmetric", [True, False])
    def test_equals_to_ab_formula(self, symmetric):
        rng = np.random.default_rng(11)
        for n in range(1, 7):
            for h in (1e-4, 1e-3, 1e-2, 1e-1):
                u = _symmetric_unitary(n, rng) if symmetric \
                    else random_unitary(n, rng)
                coupling = VertexCoupling.custom(u)
                expected, _ = _to_ab_ghost_map(coupling, h)
                err = np.max(np.abs(_ghost_map(coupling, h) - expected))
                assert err <= 1e-12 * np.max(np.abs(expected))

    def test_solver_takes_the_real_formula_for_symmetric_u(self):
        rng = np.random.default_rng(12)
        grid = GridSpec(12.0, 99)
        for n in range(1, 6):
            coupling = VertexCoupling.custom(_symmetric_unitary(n, rng))
            m0 = _solve(coupling, [], KAPPA, grid)._m0
            expected, _ = _to_ab_ghost_map(coupling, grid.h)
            assert m0.dtype == np.float64
            assert np.max(np.abs(m0 - expected)) \
                <= 1e-12 * np.max(np.abs(expected))

    @pytest.mark.parametrize("symmetric", [True, False])
    def test_guard_trips_wherever_the_to_ab_guard_trips(self, symmetric):
        # an eigenphase theta = 2 atan(kappa_h (1 + eps)) puts a bound state
        # at relative distance eps from kappa_h = 3/(2h)
        rng = np.random.default_rng(13)
        tripped = 0
        for n in (1, 2, 3, 5):
            for h in (1e-3, 0.12):
                for eps in (0.0, 1e-12, 1e-9, 5e-8, 1e-7, 2e-7, 1e-6, 1e-3):
                    for sign in (1.0, -1.0):
                        theta = 2.0 * math.atan(1.5 / h * (1.0 + sign * eps))
                        coupling = VertexCoupling.custom(
                            unitary_with_phase(n, rng, theta, symmetric))
                        _, trips = _to_ab_ghost_map(coupling, h)
                        if trips:
                            tripped += 1
                            with pytest.raises(PoleError,
                                               match="origin stencil"):
                                _ghost_map(coupling, h)
                        elif eps >= 1e-3:
                            _ghost_map(coupling, h)
        assert tripped >= 32


# ======================================================================
#  sector split against a dense solve of the joint operator
# ======================================================================

DENSE_GRID = GridSpec(12.0, 40)
DENSE_POINT = PointInteraction(a=4.0, c=-1.3)


def _symmetric_unitary_with_phases(phases, rng):
    """O diag(e^{i theta}) O^T for a random real orthogonal O, symmetrized
    exactly; repeated phases give repeated eigenvalues."""
    n = len(phases)
    q, r = np.linalg.qr(rng.standard_normal((n, n)))
    q = q * np.sign(np.diag(r))
    u = (q * np.exp(1j * np.asarray(phases))) @ q.T
    return (u + u.T) / 2.0


def _dense_kernel(coupling, points, kappa, grid):
    """Kernel columns and M0 of the joint node-major operator
    kron(T, I_n) - (4 M0, -M0) / h^2, every column by a dense solve."""
    n, big_n, h = coupling.n, grid.N, grid.h
    m0, _ = _to_ab_ghost_map(coupling, h)
    m0 = m0.real
    diag = np.full(big_n, 2.0 / h**2 + kappa**2)
    for point in points:
        diag[grid.node_index(point.a)] += point.c / h
    t = (np.diag(diag) - np.diag(np.full(big_n - 1, 1.0 / h**2), 1)
         - np.diag(np.full(big_n - 1, 1.0 / h**2), -1))
    op = np.kron(t, np.eye(n))
    op[:n, :n] -= 4.0 * m0 / h**2
    op[:n, n:2 * n] += m0 / h**2
    return np.linalg.solve(op, np.eye(n * big_n) / h), m0


def _dense_cases():
    rng = np.random.default_rng(21)
    cases = []
    for n in range(1, 6):
        for model in (StarModel.delta_prime_s(n, 1.3),
                      StarModel.delta_prime(n, -0.5),
                      StarModel.central_delta(n, -2.0),
                      StarModel.central_delta_p(n, 0.7)):
            cases.append(pytest.param(make_coupling(*model.vertex),
                                      id=f"{model.kind}-n{n}"))
    for bc in (HalflineBC.dirichlet(), HalflineBC.neumann(),
               HalflineBC.robin(-0.4), HalflineBC.robin_scaled(3, 2.0)):
        cases.append(pytest.param(make_coupling(*bc.vertex),
                                  id=f"half-{bc.kind}"))
    # a deep bound state: M0 = 1 / (3 + 2 h b) is 1/2 up to 1e-9, and the
    # first diagonal entry of the sector, 2 / h^2 + kappa^2 - 4 M0 / h^2,
    # keeps little more than kappa^2
    for sign in (1.0, -1.0):
        b = -(1.0 + sign * 1e-9) / (2.0 * DENSE_GRID.h)
        cases.append(pytest.param(make_coupling(*HalflineBC.robin(b).vertex),
                                  id=f"half-deep{sign:+.0f}"))
    # M0 = (2 + kappa^2 h^2) / 4 cancels that entry at kappa = KAPPA, and
    # M0 = 1 the first superdiagonal entry (M0 - 1) / h^2: each all but
    # zeroes one of the two rows of the inverse the solver may read
    h = DENSE_GRID.h
    for name, m0 in (("cancel", (2.0 + (KAPPA * h)**2) / 4.0), ("unit", 1.0)):
        b = (1.0 / m0 - 3.0) / (2.0 * h)
        cases.append(pytest.param(make_coupling(*HalflineBC.robin(b).vertex),
                                  id=f"half-{name}"))
    for phases in ((0.0, 0.0), (np.pi, np.pi), (0.0, np.pi, np.pi),
                   (0.7, 0.7, -1.2, -1.2), (0.0, 0.0, np.pi, 0.7, 0.7),
                   (np.pi, np.pi, np.pi, 0.0, -2.0)):
        u = _symmetric_unitary_with_phases(phases, rng)
        name = f"phases-{len(phases)}-{phases[-1]:.1f}"
        cases.append(pytest.param(VertexCoupling.custom(u), id=name))
    return cases


class TestDenseReference:
    @pytest.mark.parametrize("kappa", [KAPPA, 60.0, 300.0])
    @pytest.mark.parametrize("with_point", [False, True],
                             ids=["plain", "point"])
    @pytest.mark.parametrize("coupling", _dense_cases())
    def test_every_value_matches_dense_solve(self, coupling, with_point,
                                             kappa):
        points = [DENSE_POINT] if with_point else []
        grid = DENSE_GRID
        dense, m0 = _dense_kernel(coupling, points, kappa, grid)
        sampled = _solve(coupling, points, kappa, grid)
        n, h = coupling.n, grid.h
        scale = np.max(np.abs(dense))
        # every target node; source nodes next to the vertex, around the
        # point interaction's node, mid-edge and next to the far end
        near = grid.node_index(DENSE_POINT.a)
        sources = {1, 2, 3, near - 1, near, near + 1, grid.N // 2,
                   grid.N - 2, grid.N - 1}
        for l in range(n):
            for iy in range(1, grid.N):
                y = h * (iy + 1)
                column = dense[:, iy * n + l]
                trace = m0 @ (4.0 * column[:n] - column[n:2 * n])
                assert np.max(np.abs(sampled.vertex_values(l, y) - trace)) \
                    <= 1e-12 * scale
                if iy in sources:
                    got = [sampled.value(j, h * (ix + 1), l, y)
                           for ix in range(grid.N) for j in range(n)]
                    assert np.max(np.abs(np.subtract(got, column))) \
                        <= 1e-12 * scale


# ======================================================================
#  what the solver accepts
# ======================================================================

class TestSolverInputs:
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_non_symmetric_coupling_is_rejected(self, n):
        rng = np.random.default_rng(30 + n)
        coupling = VertexCoupling.custom(random_unitary(n, rng))
        with pytest.raises(ValueError, match="symmetric coupling U = U\\^T"):
            _solve(coupling, [], KAPPA, GridSpec(12.0, 399))

    @pytest.mark.parametrize("n", [1, 3])
    def test_grid_beyond_the_unknowns_bound_is_rejected(self, n):
        big_n = MAX_FD_UNKNOWNS // n + 1
        grid = GridSpec(12.0, big_n)
        with pytest.raises(ValueError, match="grid too fine") as info:
            _solve(make_coupling("delta", n, 0.0), [], KAPPA, grid)
        message = str(info.value)
        assert f"N = {big_n}" in message and f"n = {n}" in message
        assert f"h = {grid.h:.6g}" in message

    @pytest.mark.parametrize("kappa,big_n", [
        (1e90, MAX_FD_UNKNOWNS),  # exponents past 2^31 at 4e6 nodes
        (1e154, 99),              # 2^{e_{i+1} - e_i} / h^2 past 2^1024
        (1e200, 99),              # kappa^2 past the largest double
    ])
    def test_kappa_beyond_the_scale_exponents_is_rejected(self, kappa,
                                                          big_n):
        grid = GridSpec(12.0, big_n)
        with pytest.raises(ValueError, match="too large for the grid"):
            _solve(make_coupling("delta", 1, 0.0), [], kappa, grid)

    def test_huge_kappa_below_the_bound_is_solved(self):
        sampled = _solve(make_coupling("delta", 1, 0.0), [], 1e150,
                         GridSpec(12.0, 99))
        # the discrete diagonal is 1 / (h kappa^2) once kappa h >> 1
        value = sampled.value(1.5, 1.5)
        assert value == pytest.approx(1.0 / (0.12 * 1e300), rel=1e-12)

    @pytest.mark.parametrize("points", [
        (PointInteraction(1.5, 1e300),),
        (PointInteraction(1.5, -1e306),),
        (PointInteraction(1.5, 1e150), PointInteraction(3.0, 1e150)),
    ], ids=["1e300", "-1e306", "2x1e150"])
    def test_walls_within_double_range_match_column_solves(self, points):
        coupling = make_coupling(*HalflineBC.neumann().vertex)
        grid = GridSpec(12.0, 99)
        sampled = _solve(coupling, points, KAPPA, grid)
        sources = range(1, grid.N)
        columns, q = _source_columns(coupling, points, KAPPA, grid, sources)
        for iy in sources:
            got = [sampled.value(grid.h * (ix + 1), grid.h * (iy + 1))
                   for ix in range(grid.N)]
            assert np.allclose(got, columns[iy][:, 0] * q[0, 0]**2,
                               rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("points,kappa", [
        ((PointInteraction(1.5, 1e307),), KAPPA),
        ((PointInteraction(1.5, -3e307),), KAPPA),
        (tuple(PointInteraction(a, 1e110) for a in (1.5, 3.0, 4.5)), KAPPA),
        # w_k[p] still normal, but z_k / w_k[p] overflows
        ((PointInteraction(1.5, 2e307),), 1e-3),
    ], ids=["1e307", "-3e307", "3x1e110", "2e307-small-kappa"])
    def test_walls_beyond_double_range_are_rejected(self, points, kappa):
        # the semiseparable form would need w_k[p] below the smallest
        # normal double
        coupling = make_coupling(*HalflineBC.neumann().vertex)
        with pytest.raises(ValueError, match="too strong"):
            _solve(coupling, points, kappa, GridSpec(12.0, 99))

    def test_size_bound_comes_before_the_ghost_map(self):
        # this Robin constant makes the origin stencil singular
        grid = GridSpec(12.0, MAX_FD_UNKNOWNS + 1)
        coupling = make_coupling(*HalflineBC.robin(-1.5 / grid.h).vertex)
        with pytest.raises(PoleError):
            _ghost_map(coupling, grid.h)
        with pytest.raises(ValueError, match="grid too fine"):
            _solve(coupling, [], KAPPA, grid)


# ======================================================================
#  edge indices and point arity
# ======================================================================

class TestEdgeIndices:
    """Both kernels, the sampled one and the closed form, reject an edge
    index outside [0, n) with one message instead of wrapping it."""

    @pytest.mark.parametrize("n", [1, 3])
    def test_out_of_range_edges_raise_value_error(self, n):
        model = StarModel.delta_prime_s(n, 1.3)
        sampled = fd_resolvent_star(model, KAPPA, GridSpec(12.0, 99))
        closed = vertex_kernel(make_coupling(*model.vertex), model.points,
                               KAPPA)
        message = rf"^edge indices must lie in \[0, {n}\), got "
        for j, l in ((-1, 0), (0, -1), (n, 0), (0, n), (-n, -1)):
            for kernel in (sampled.value, sampled.snap, closed):
                with pytest.raises(ValueError, match=message):
                    kernel(j, 1.0, l, 2.0)
        for l in (-1, n, -n):
            with pytest.raises(ValueError, match=message):
                sampled.vertex_values(l, 2.0)

    @pytest.mark.parametrize("n", [1, 3])
    def test_point_needs_two_or_four_coordinates(self, n):
        sampled = fd_resolvent_star(StarModel.delta_prime_s(n, 1.3), KAPPA,
                                    GridSpec(12.0, 99))
        for point in ((1.0,), (0, 1.0, 2.0), (0, 1.0, 0, 2.0, 3.0)):
            for kernel in (sampled.value, sampled.snap):
                with pytest.raises(ValueError, match="kernel point is"):
                    kernel(*point)

    def test_halfline_kernel_rejects_other_edges(self):
        sampled = fd_resolvent_halfline(HalflineBC.neumann(), [], KAPPA,
                                        GridSpec(12.0, 99))
        assert sampled.value(0, 1.0, 0, 2.0) == sampled.value(1.0, 2.0)
        with pytest.raises(ValueError, match=r"\[0, 1\), got -1, 0"):
            sampled.value(-1, 1.0, 0, 2.0)


# ======================================================================
#  work count: one factorization and two solves per sector while the
#  kernel is built, none per sample
# ======================================================================

class TestWorkCount:
    def test_two_solves_per_sector_and_none_per_sample(self, monkeypatch):
        from scipy.linalg import lapack

        calls = {"dgttrf": 0, "dgttrs": 0}

        def counted(name):
            routine = getattr(lapack, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return routine(*args, **kwargs)
            return wrapper

        for name in calls:
            monkeypatch.setattr(lapack, name, counted(name))
        model = StarModel.central_delta(4, -1.0, PointInteraction(1.0, 2.0))
        grid = GridSpec(12.0, 399)
        sampled = fd_resolvent_star(model, KAPPA, grid)
        built = {"dgttrf": 4, "dgttrs": 8}
        assert calls == built

        for l in (0, 3):
            for y in (0.48, 0.96, 1.5, 2.01, 3.0):
                for j in range(4):
                    for x in (0.06, 0.5, 2.01):
                        sampled.value(j, x, l, y)
        assert calls == built
        for iy in range(1, grid.N):
            y = grid.h * (iy + 1)
            for j in range(4):
                sampled.value(j, 0.5, 1, y)
        assert calls == built
        for l in range(4):
            for y in (0.06, 1.5, 11.9):
                sampled.vertex_values(l, y)
        assert calls == built


# ======================================================================
#  the semiseparable form against one column solve per source node
# ======================================================================

FINE_GRID = GridSpec(12.0, 39999)


def _source_columns(coupling, points, kappa, grid, sources):
    """{iy: (N, n) sector columns g_k(.; iy)} and Q, by one unscaled dgttrs
    solve per sector and source node: the per-source method that the
    semiseparable form replaces."""
    from scipy.linalg.lapack import dgttrf, dgttrs

    h = grid.h
    m0 = _ghost_map(coupling, h)
    lams, q = np.linalg.eigh(0.5 * (m0 + m0.T))
    diag = np.full(grid.N, 2.0 / h**2 + kappa**2)
    for point in points:
        diag[grid.node_index(point.a)] += point.c / h
    off = np.full(grid.N - 1, -1.0 / h**2)
    columns = {iy: np.empty((grid.N, coupling.n)) for iy in sources}
    for k, lam in enumerate(lams):
        d, du = diag.copy(), off.copy()
        d[0] -= 4.0 * lam / h**2
        du[0] += lam / h**2
        *lu, info = dgttrf(off, d, du)
        assert info == 0
        for iy, g in columns.items():
            rhs = np.zeros(grid.N)
            rhs[iy] = 1.0 / h
            g[:, k], _ = dgttrs(*lu, rhs)
    return columns, q


def _benchmark_like_cases():
    point = PointInteraction(2.01, 0.7)
    cases = []
    for n in (2, 3, 4):
        for model in (StarModel.delta_prime_s(n, 1.3),
                      StarModel.delta_prime(n, 0.6),
                      StarModel.central_delta(n, 1.7, point),
                      StarModel.central_delta_p(n, 0.4, point)):
            cases.append(pytest.param(model.vertex, model.points, 1.4,
                                      id=f"{model.kind}-n{n}"))
    points = (PointInteraction(1.5, -0.3), PointInteraction(2.49, 1.8))
    for bc, kappa in ((HalflineBC.dirichlet(), 1.1),
                      (HalflineBC.neumann(), 1.9),
                      (HalflineBC.robin(0.8), 1.3),
                      (HalflineBC.robin_scaled(3, 2.0), 1.6)):
        cases.append(pytest.param(bc.vertex, points, kappa,
                                  id=f"half-{bc.kind}"))
    return cases


class TestSourceColumns:
    @pytest.mark.parametrize("vertex,points,kappa", _benchmark_like_cases())
    def test_values_equal_per_source_columns(self, vertex, points, kappa):
        coupling = make_coupling(*vertex)
        n, grid = coupling.n, FINE_GRID
        sampled = _solve(coupling, points, kappa, grid)
        xs = (0.48, 0.96, 1.5, 2.01, 3.0)
        snapped = [sampled.snap(j, x, l, y) for j in sorted({0, n - 1})
                   for l in range(n) for x in (0.0, *xs) for y in xs]
        sources = {grid.node_index(y, minimum=1) for *_, y in snapped}
        columns, q = _source_columns(coupling, points, kappa, grid, sources)
        got, expected = [], []
        for j, x, l, y in snapped:
            ix, iy = grid.node_index(x), grid.node_index(y, minimum=1)
            got.append(sampled.value(j, x, l, y))
            expected.append(columns[iy][ix] @ (q[j] * q[l]))
        scale = np.max(np.abs(expected))
        assert np.max(np.abs(np.subtract(got, expected))) <= 1e-9 * scale
        for iy, g in columns.items():
            y = grid.h * (iy + 1)
            for l in range(n):
                psi = (g[:2] * q[l]) @ q.T
                trace = sampled._m0 @ (4.0 * psi[0] - psi[1])
                assert np.max(np.abs(sampled.vertex_values(l, y) - trace)) \
                    <= 1e-9 * scale


# ======================================================================
#  large kappa L: the scaled vectors neither under- nor overflow
# ======================================================================

class TestLargeKappa:
    @pytest.mark.parametrize("kappa", [80.0, 500.0])
    @pytest.mark.parametrize("vertex,points", [
        pytest.param(HalflineBC.neumann().vertex, (), id="half-neumann"),
        pytest.param(HalflineBC.robin(0.7).vertex,
                     (PointInteraction(1.5, -2.0),), id="half-robin-point"),
        pytest.param(StarModel.delta_prime_s(3, 1.3).vertex, (),
                     id="delta_prime_s-n3"),
        pytest.param(StarModel.central_delta(3, -2.0).vertex,
                     (PointInteraction(1.5, 4.0),), id="central_delta-n3"),
    ])
    def test_within_budget_of_screened_closed_form(self, vertex, points,
                                                   kappa):
        # kappa L = 960 and 6000: unscaled, the last column underflows
        coupling = make_coupling(*vertex)
        grid = FINE_GRID
        sampled = _solve(coupling, points, kappa, grid)
        closed = vertex_kernel(coupling, (*points, PointInteraction(
            grid.L, math.inf)), kappa)
        n, h = coupling.n, grid.h
        pairs = [(x, y) for x in (0.0, 0.06, 1.5, 11.9)
                 for y in (0.06, 0.06 + h, 1.5 - 2 * h, 1.5, 11.9)]
        errors = []
        for j in range(n):
            for l in range(n):
                for x, y in pairs:
                    point = sampled.snap(j, x, l, y)
                    value = sampled.value(*point)
                    assert math.isfinite(value)
                    errors.append(value - closed(*point))
        assert max(map(abs, errors)) <= 50.0 * h**2
        # the diagonal is about 1 / (2 kappa), so an underflow fails above
        assert sampled.value(0, 1.5, 0, 1.5) > 0.25 / kappa
        traces = sampled.vertex_values(0, 0.06)
        assert np.all(np.isfinite(traces))
