"""Finite-difference solver tests.

The solver is itself the reference for the closed forms, so the tests
here pin its own consistency: agreement with the exponential kernels at
the expected O(h^2) level, error reduction ~4x when h is halved, exact
symmetry of the sampled kernel away from the first node, and reduction of
the star solver to the half-line one.
"""

import numpy as np
import pytest

from starcouplings import (GridSpec, HalflineBC, PointInteraction, StarModel,
                           compare_kernels, fd_resolvent_halfline,
                           fd_resolvent_star, halfline_green, halfline_kernel,
                           krein_insert, star_green)

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
