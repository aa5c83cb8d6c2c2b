"""Finite-difference solver tests.

The solver is itself the reference for the closed forms, so the tests
here pin its own consistency: agreement with the exponential kernels at
the expected O(h^2) level, error reduction ~4x when h is halved, exact
symmetry of the sampled kernel away from the first node, and reduction of
the star solver to the half-line one.
"""

import math

import numpy as np
import pytest

from conftest import random_unitary, unitary_with_phase
from starcouplings import (GridSpec, HalflineBC, PointInteraction, PoleError,
                           StarModel, VertexCoupling, compare_kernels,
                           fd_resolvent_halfline, fd_resolvent_star,
                           halfline_green, halfline_kernel, krein_insert,
                           star_green, to_ab)
from starcouplings.finite_difference import (ORIGIN_STENCIL_TOL, _ghost_map,
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
