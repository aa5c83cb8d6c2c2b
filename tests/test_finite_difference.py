"""Finite-difference solver tests.

The solver is itself the reference for the closed forms, so the tests
here pin its own consistency: agreement with the exponential kernels at
the expected O(h^2) level, error reduction ~4x when h is halved, exact
symmetry of the sampled kernel away from the first node, and reduction of
the star solver to the half-line one.  The closed form of the sector
inverses is checked against a dense solve of the joint operator (also
where the block the sectors share is singular), against one LAPACK column
solve per sector and source node, and against a 40-digit Thomas solve.
"""

import gc
import math
import tracemalloc
import warnings
from fractions import Fraction

import mpmath
import numpy as np
import pytest

from conftest import random_unitary, unitary_with_phase
from oracles import SectorSpec, sector_decompose
from starcouplings import cli, finite_difference, greens
from starcouplings import coupling as coupling_module
from starcouplings import (GridSpec, HalflineBC, PointInteraction, PoleError,
                           StarModel, VertexCoupling, compare_kernels,
                           fd_resolvent_halfline, fd_resolvent_star,
                           halfline_kernel, make_coupling, star_green, to_ab,
                           vertex_kernel)
from starcouplings.convergence import sector_green
from starcouplings.finite_difference import (MAX_FD_UNKNOWNS,
                                             ORIGIN_STENCIL_TOL, SampledKernel,
                                             _ghost_map, _solve)

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
        nodes = grid.boundary_nodes()[1:-1]
        assert len(nodes) == 99
        assert nodes[0] == grid.h
        assert nodes[-1] < grid.L

    def test_refinement_keeps_nodes(self):
        grid = GridSpec(12.0, 999)
        fine = grid.refined()
        assert fine.h == pytest.approx(grid.h / 2)
        assert set(np.round(grid.boundary_nodes(), 12)).issubset(
            set(np.round(fine.boundary_nodes(), 12)))

    def test_validation(self):
        with pytest.raises(ValueError):
            GridSpec(0.0, 100)
        with pytest.raises(ValueError):
            GridSpec(10.0, 8)

    @pytest.mark.parametrize("length", [True, np.True_, "12", 12 + 0j],
                             ids=["True", "np.True_", "str", "complex"])
    def test_rejects_a_length_that_is_no_real_number(self, length):
        # True and np.True_ were taken as L = True; "12" and 12 + 0j raised
        # TypeError
        with pytest.raises(ValueError, match="real number"):
            GridSpec(length, 400)

    @pytest.mark.parametrize("big_n", [np.nan, 99.5, 99.0, True],
                             ids=["nan", "99.5", "99.0", "True"])
    def test_rejects_a_node_count_that_is_no_integer(self, big_n):
        # NaN passed N >= 16 and later blamed the coupling; 99.5 refined
        # to N = 200.0 and failed inside numpy
        with pytest.raises(ValueError, match="integer number of at least 16"):
            GridSpec(12.0, big_n)

    def test_accepts_a_numpy_integer_node_count(self):
        grid = GridSpec(12.0, np.int64(99))
        assert grid.h == 12.0 / 100
        assert grid.refined().N == 199
        sampled = fd_resolvent_halfline(HalflineBC.neumann(), [], KAPPA, grid)
        assert sampled.value(1.5, 1.5) == fd_resolvent_halfline(
            HalflineBC.neumann(), [], KAPPA, GridSpec(12.0, 99)).value(1.5,
                                                                        1.5)

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

    @pytest.mark.parametrize("outside", [-5.0, -1e-9, 12.0 + 1e-9, 50.0])
    def test_rejects_coordinates_outside_the_grid(self, outside):
        # nothing snaps in from outside [0, L]; vertex_kernel refuses x < 0
        grid = GridSpec(12.0, 99)
        half = fd_resolvent_halfline(HalflineBC.neumann(), [], KAPPA, grid)
        star = fd_resolvent_star(
            StarModel(n=3, kind="delta_prime_s", beta=1.0), KAPPA, grid)
        points = [(half, (outside, 1.0)), (half, (1.0, outside)),
                  (star, (0, outside, 2, 1.0)), (star, (2, 1.0, 0, outside))]
        for sampled, point in points:
            for method in (sampled.value, sampled.snap):
                with pytest.raises(ValueError, match="grid coordinate"):
                    method(*point)

    def test_ends_of_the_grid_snap_to_its_end_nodes(self):
        grid = GridSpec(12.0, 99)
        half = fd_resolvent_halfline(HalflineBC.neumann(), [], KAPPA, grid)
        star = fd_resolvent_star(
            StarModel(n=3, kind="delta_prime_s", beta=1.0), KAPPA, grid)
        _, first, second, *_, last, _ = grid.boundary_nodes()
        # the source keeps off the first interior node
        assert half.snap(0.0, 0.0) == (first, second)
        assert half.snap(grid.L, grid.L) == (last, last)
        assert star.snap(1, 0.0, 2, grid.L) == (1, first, 2, last)
        assert star.snap(2, grid.L, 0, 0.0) == (2, last, 0, second)
        assert math.isfinite(half.value(grid.L, 0.0))


# ======================================================================
#  half-line solver vs closed forms
# ======================================================================

class TestHalflineSolver:
    def test_dirichlet_kernel_value(self):
        grid = GridSpec(12.0, 4000)
        sampled = fd_resolvent_halfline(HalflineBC.dirichlet(), [], KAPPA, grid)
        x, y = sampled.snap(1.0, 2.0)
        exact = halfline_kernel(HalflineBC.dirichlet(), (), KAPPA)(x, y)
        assert abs(sampled.value(x, y) - exact) < 1e-3

    @pytest.mark.parametrize("bc", [
        HalflineBC.dirichlet(), HalflineBC.neumann(), HalflineBC.robin(1.5),
        HalflineBC.robin(-0.4), HalflineBC.robin_scaled(3, 2.0),
    ], ids=["dirichlet", "neumann", "robin0", "robin1", "robin_scaled"])
    def test_plain_kernels_within_budget(self, bc):
        grid = GridSpec(12.0, 1499)  # h = 8e-3
        sampled = fd_resolvent_halfline(bc, [], KAPPA, grid)
        analytic = halfline_kernel(bc, (), KAPPA)
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
        analytic = halfline_kernel(bc, (), KAPPA)
        snapped = [coarse.snap(*p) for p in SAMPLES]
        e1 = compare_kernels(analytic, coarse, snapped).max_abs
        e2 = compare_kernels(analytic, fine, snapped).max_abs
        assert 3.0 <= e1 / e2 <= 5.0

    def test_sixteenfold_reduction_over_two_refinements(self):
        bc = HalflineBC.dirichlet()
        analytic = halfline_kernel(bc, (), KAPPA)
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
        analytic = halfline_kernel(bc, (point,), KAPPA)
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
        analytic = halfline_kernel(HalflineBC.dirichlet(), (point,), KAPPA)
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
            fd_resolvent_star(StarModel(n=2, kind="delta_prime_s", beta=1.0),
                              np.inf, grid)


@pytest.mark.parametrize("build", ["halfline", "star"])
def test_each_build_checks_its_points_once(build, monkeypatch):
    # one check_points per build, in coupling's _star, whose checked tuple
    # _solve takes as it is; a refusal keeps its ValueError and message
    check, calls = coupling_module.check_points, []

    def counted(points):
        calls.append(points)
        return check(points)

    monkeypatch.setattr(coupling_module, "check_points", counted)
    monkeypatch.setattr(greens, "check_points", counted)
    monkeypatch.setattr(finite_difference, "check_points", counted,
                        raising=False)
    grid, point = GridSpec(12.0, 99), PointInteraction(1.2, 0.5)
    if build == "halfline":
        fd = lambda points: fd_resolvent_halfline(  # noqa: E731
            HalflineBC.robin(0.7), points, KAPPA, grid)
    else:
        coupling = make_coupling("delta", 2, 0.3)
        fd = lambda points: fd_resolvent_star(  # noqa: E731
            (coupling, tuple(points)), KAPPA, grid)
    fd([point, point])
    assert len(calls) == 1
    with pytest.raises(ValueError, match="not a PointInteraction: 1.2"):
        fd([point, 1.2])
    assert len(calls) == 2


# ======================================================================
#  any U: the FD kernel of a Haar U against vertex_kernel
# ======================================================================

HAAR_POINTS = ((), (PointInteraction(1.2, -0.9),),
               (PointInteraction(0.8, 1.5), PointInteraction(2.5, -0.6)))


class TestHaarCoupling:
    @pytest.mark.parametrize("n", range(1, 6))
    def test_second_order_against_the_closed_form(self, n):
        # nine draws of one seed per n, none skipped: kappa in {0.5, 1, 2}
        # times 0, 1 or 2 points on nodes of both grids.  The error ratio
        # from h = 0.01 to 0.005 measured 3.97-4.02 here, and 3.90-4.25
        # over 1800 draws of 40 other seeds.  The error at h = 0.01 is
        # at most 24.5 h^2 here, but it grows with |G| near a bound state:
        # 53 of those 1800 draws passed 50 h^2, up to 3.3e4 h^2 at a
        # max|G| of 775.  So 50 h^2 bounds these draws; the ratio any U.
        rng = np.random.default_rng(70 + n)
        xs = (0.5, 1.0, 2.0, 3.5)
        samples = [(j, x, l, y) for j in range(n) for l in range(n)
                   for x in xs for y in xs]
        for kappa in (0.5, 1.0, 2.0):
            for points in HAAR_POINTS:
                coupling = VertexCoupling(random_unitary(n, rng))
                kernel = vertex_kernel(
                    coupling, points + (PointInteraction(6.0, math.inf),),
                    kappa)
                errors = []
                for big_n in (599, 1199):
                    sampled = fd_resolvent_star((coupling, points), kappa,
                                                GridSpec(6.0, big_n))
                    assert type(sampled.value(*samples[-1])) \
                        is (float if n == 1 else complex)
                    errors.append(
                        compare_kernels(kernel, sampled, samples).max_abs)
                assert errors[0] <= 50 * 0.01**2
                assert 3.5 <= errors[0] / errors[1] <= 4.5


# ======================================================================
#  star solver
# ======================================================================

class TestStarSolver:
    def test_single_edge_star_matches_halfline(self):
        grid = GridSpec(12.0, 999)
        m = StarModel(n=1, kind="delta_prime_s", beta=0.9)
        star = fd_resolvent_star(m, KAPPA, grid)
        half = fd_resolvent_halfline(HalflineBC.robin_scaled(1, 0.9), [],
                                     KAPPA, grid)
        for (x, y) in SAMPLES[::4]:
            assert star.value(0, x, 0, y) == pytest.approx(
                half.value(x, y), abs=1e-12)

    def test_common_derivative_target_matches_assembly(self):
        grid = GridSpec(12.0, 4000)
        m = StarModel(n=2, kind="delta_prime_s", beta=1.3)
        sampled = fd_resolvent_star(m, KAPPA, grid)
        analytic = lambda j, x, l, y: star_green(m, KAPPA, j, x, l, y)  # noqa: E731
        points = [(j, x, l, y) for j in (0, 1) for l in (0, 1)
                  for (x, y) in SAMPLES[::4]]
        stats = compare_kernels(analytic, sampled, points)
        assert stats.max_abs < 2e-3

    def test_pairwise_difference_target_within_budget(self):
        grid = GridSpec(12.0, 1499)
        m = StarModel(n=3, kind="delta_prime", beta=-0.5)
        sampled = fd_resolvent_star(m, KAPPA, grid)
        analytic = lambda j, x, l, y: star_green(m, KAPPA, j, x, l, y)  # noqa: E731
        points = [(j, x, l, y) for j in (0, 2) for l in (0, 2)
                  for (x, y) in SAMPLES[::4]]
        stats = compare_kernels(analytic, sampled, points)
        assert stats.max_abs < 50.0 * grid.h**2

    def test_decorated_approximant_within_budget(self):
        grid = GridSpec(12.0, 1499)
        m = StarModel(n=2, kind="central_delta", b=-8.0,
                      point=PointInteraction(1.0, -4.0))
        sampled = fd_resolvent_star(m, KAPPA, grid)
        analytic = lambda j, x, l, y: star_green(m, KAPPA, j, x, l, y)  # noqa: E731
        points = [(j, x, l, y) for j in (0, 1) for l in (0, 1)
                  for (x, y) in SAMPLES[::4]]
        stats = compare_kernels(analytic, sampled, points)
        assert stats.max_abs < 50.0 * grid.h**2

    def test_free_junction_kernel_continuous_at_vertex(self):
        # vertex traces of the kernel column agree across edges
        grid = GridSpec(12.0, 1999)
        m = StarModel(n=3, kind="central_delta", b=0.0)  # Kirchhoff
        sampled = fd_resolvent_star(m, KAPPA, grid)
        traces = sampled.vertex_values(0, 1.5)
        assert np.ptp(traces) < 1e-6

    def test_star_kernel_symmetry(self):
        grid = GridSpec(12.0, 799)
        m = StarModel(n=3, kind="delta_prime_s", beta=1.1)
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
                lambda: fd_resolvent_star(
                    StarModel(n=2, kind="central_delta", b=b), KAPPA, grid)):
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
        wrong = halfline_kernel(HalflineBC.neumann(), (), KAPPA)
        stats = compare_kernels(wrong, sampled, [(0.48, 0.96)])
        expected = np.exp(-KAPPA * (0.48 + 0.96)) / KAPPA
        assert abs(stats.max_abs - expected) < 1e-3
        assert stats.max_abs > 50.0 * grid.h**2

    @pytest.mark.parametrize("bad", [
        np.nan, np.inf, -np.inf, np.float64(np.nan), np.float64(-np.inf),
        complex(np.nan, 0.0), complex(0.0, np.inf), np.complex128(np.nan),
        np.complex128(complex(np.inf, 1.0)),
    ], ids=repr)
    def test_non_finite_value_names_its_point_and_side(self, bad):
        # max_abs came back as nan
        grid = GridSpec(12.0, 499)
        sampled = fd_resolvent_halfline(HalflineBC.dirichlet(), [], KAPPA,
                                        grid)
        x, y = sampled.snap(0.96, 1.5)
        analytic = lambda u, v: bad if (u, v) == (x, y) else 0.0  # noqa: E731
        with pytest.raises(ValueError) as info:
            compare_kernels(analytic, sampled, SAMPLES)
        message = str(info.value)
        assert "analytic" in message and str((x, y)) in message

        class Broken:
            snap = sampled.snap

            @staticmethod
            def value(u, v):
                return bad if (u, v) == (x, y) else sampled.value(u, v)

        with pytest.raises(ValueError, match="finite-difference") as info:
            compare_kernels(lambda u, v: sampled.value(u, v), Broken,
                            SAMPLES)
        assert str((x, y)) in str(info.value)

    def test_empty_sample_set(self):
        grid = GridSpec(12.0, 499)
        sampled = fd_resolvent_halfline(HalflineBC.dirichlet(), [], KAPPA,
                                        grid)
        stats = compare_kernels(lambda x, y: 0.0, sampled, [])
        assert stats == (0.0, 0.0, 0)

    def test_complex_errors_take_their_modulus(self):
        # a complex value raised TypeError in np.asarray(errors, dtype=float)
        grid = GridSpec(12.0, 499)
        sampled = fd_resolvent_halfline(HalflineBC.dirichlet(), [], KAPPA,
                                        grid)
        offset = 0.25j
        stats = compare_kernels(lambda x, y: sampled.value(x, y) + offset,
                                sampled, SAMPLES)
        assert stats == (abs(offset), abs(offset), len(SAMPLES))

    @staticmethod
    def _listed(errors):
        """compare_kernels over sample k = (k,), whose error is errors[k]:
        the analytic side gives it and the sampled side 0.0."""
        class Zero:
            snap = staticmethod(lambda k: (k,))
            value = staticmethod(lambda k: 0.0)

        return compare_kernels(lambda k: errors[k], Zero,
                               [(k,) for k in range(len(errors))])

    @pytest.mark.parametrize("kind", ["real", "complex", "numpy"])
    def test_statistics_equal_the_numpy_reference(self, kind):
        # max_abs is numpy's max |e|; the rms is the exact sum of the |e|^2,
        # rounded once, over the count, which a pairwise sum misses by an
        # ulp for some of the sizes 1 to 130
        rng = np.random.default_rng(29)
        for size in range(1, 131):
            scale = 10.0 ** rng.uniform(-12.0, 0.0, size)
            errors = (rng.standard_normal(size) * scale).tolist()
            if kind == "complex":
                errors = [complex(e, i) for e, i in zip(
                    errors, rng.standard_normal(size) * scale)]
            elif kind == "numpy":
                errors = list(map(np.float64, errors))
            stats = self._listed(errors)
            modulus = np.abs(np.asarray(errors, dtype=complex)).tolist()
            exact = sum(Fraction(e * e) for e in modulus)
            want = (np.max(modulus), math.sqrt(float(exact) / size))
            assert type(stats.max_abs) is type(stats.rms) is float
            assert stats.count == size
            assert [stats.max_abs.hex(), stats.rms.hex()] \
                == [float(w).hex() for w in want]
        assert self._listed([]) == (0.0, 0.0, 0)

    @pytest.mark.parametrize("exact, approx", [
        (np.float64(np.inf), np.float64(np.inf)),
        (np.float64(-np.inf), -math.inf),
        (math.inf, np.float64(np.inf)),
        (np.complex128(complex(np.inf, 1.0)), np.float64(np.inf)),
    ], ids=repr)
    def test_infinite_numpy_sides_raise_the_value_error(self, exact, approx):
        # inf - inf of a numpy scalar warns "invalid value encountered in
        # scalar subtract", an error under -W error, before the sides are
        # tested: sides that are not Python floats are tested first
        class Infinite:
            snap = staticmethod(lambda k: (k,))
            value = staticmethod(lambda k: approx)

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=r"the analytic kernel is "
                               r"\S+ at sample point \(0,\)$"):
                compare_kernels(lambda k: exact, Infinite, [(0,)])

    def test_squares_that_sum_past_the_double_range_give_an_infinite_rms(
            self):
        # each square is finite (1.44e308), their sum is not
        stats = self._listed([1.2e154, -1.2e154])
        assert stats == (1.2e154, math.inf, 2)

    def test_a_difference_that_overflows_is_an_infinite_error(self):
        # finite on both sides: no ValueError, and max_abs = rms = inf
        grid = GridSpec(12.0, 499)
        sampled = fd_resolvent_halfline(HalflineBC.dirichlet(), [], KAPPA,
                                        grid)
        for big in (1e308, -1e308):
            class Far:
                snap = sampled.snap

                @staticmethod
                def value(x, y):
                    return -big if (x, y) == sampled.snap(0.96, 1.5) \
                        else 0.0

            stats = compare_kernels(
                lambda x, y: big if (x, y) == sampled.snap(0.96, 1.5)
                else 1e-3, Far, SAMPLES)
            assert stats == (math.inf, math.inf, len(SAMPLES))


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
                m0 = coupling.eigenphases.apply(_ghost_map(coupling, h))
                err = np.max(np.abs(m0 - expected))
                assert err <= 1e-12 * np.max(np.abs(expected))

    def test_hermitian_with_eigenphase_eigenvalues_for_any_u(self):
        # M0 = V diag(c / (3c - 2hs)) V* over the eigenphases
        # e^{i theta/2} = c + is of U, so it is Hermitian with real
        # eigenvalues for every unitary U, symmetric or not; the largest
        # defects measured here are 5.6e-17 and 2.2e-16
        rng = np.random.default_rng(15)
        for _ in range(10):
            for n in range(1, 6):
                for h in (1e-2, 1e-3):
                    coupling = VertexCoupling.custom(random_unitary(n, rng))
                    mus = _ghost_map(coupling, h)
                    assert all(isinstance(mu, float) for mu in mus)
                    m0 = coupling.eigenphases.apply(mus)
                    assert np.max(np.abs(m0 - m0.conj().T)) <= 4e-15
                    half = np.sqrt(np.linalg.eigvals(coupling.u))
                    c, s = half.real, half.imag
                    want = np.sort(c / (3.0 * c - 2.0 * h * s))
                    got = np.sort(coupling.eigenphases.columns(mus))
                    assert np.max(np.abs(got - want)) <= 4e-14

    def test_solver_takes_the_real_formula_for_symmetric_u(self):
        rng = np.random.default_rng(12)
        grid = GridSpec(12.0, 99)
        for n in range(1, 6):
            coupling = VertexCoupling.custom(_symmetric_unitary(n, rng))
            sampled = _solve(coupling, [], KAPPA, grid)
            assert type(sampled.value(n - 1, 0.5, 0, 1.5)) is float
            assert sampled.vertex_values(0, 1.5).dtype == np.float64

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
    if np.array_equal(coupling.u, coupling.u.T):
        m0 = m0.real    # real up to rounding; complex Hermitian otherwise
    diag = np.full(big_n, 2.0 / h**2 + kappa**2)
    for point in points:
        diag[grid.node_index(point.a)] += point.c / h
    t = (np.diag(diag) - np.diag(np.full(big_n - 1, 1.0 / h**2), 1)
         - np.diag(np.full(big_n - 1, 1.0 / h**2), -1))
    op = np.kron(t, np.eye(n, dtype=m0.dtype))
    op[:n, :n] -= 4.0 * m0 / h**2
    op[:n, n:2 * n] += m0 / h**2
    return np.linalg.solve(op, np.eye(n * big_n) / h), m0


def _dense_cases():
    rng = np.random.default_rng(21)
    cases = []
    for n in range(1, 6):
        for kind, model in (
                ("delta_prime_s", StarModel(n=n, kind="delta_prime_s",
                                            beta=1.3)),
                ("delta_prime", StarModel(n=n, kind="delta_prime", beta=-0.5)),
                ("central_delta", StarModel(n=n, kind="central_delta",
                                            b=-2.0)),
                ("central_delta_p", StarModel(n=n, kind="central_delta_p",
                                              b=0.7))):
            cases.append(pytest.param(model[0], id=f"{kind}-n{n}"))
    for kind, bc in (("dirichlet", HalflineBC.dirichlet()),
                     ("neumann", HalflineBC.neumann()),
                     ("robin", HalflineBC.robin(-0.4)),
                     ("robin_scaled", HalflineBC.robin_scaled(3, 2.0))):
        cases.append(pytest.param(bc, id=f"half-{kind}"))
    # a deep bound state: M0 = 1 / (3 + 2 h b) is 1/2 up to 1e-9, and the
    # first diagonal entry of the sector, 2 / h^2 + kappa^2 - 4 M0 / h^2,
    # keeps little more than kappa^2
    for sign in (1.0, -1.0):
        b = -(1.0 + sign * 1e-9) / (2.0 * DENSE_GRID.h)
        cases.append(pytest.param(HalflineBC.robin(b),
                                  id=f"half-deep{sign:+.0f}"))
    # M0 = (2 + kappa^2 h^2) / 4 cancels that entry at kappa = KAPPA, and
    # M0 = 1 the first superdiagonal entry (M0 - 1) / h^2: each all but
    # zeroes one of the two rows of the inverse the solver may read
    h = DENSE_GRID.h
    for name, m0 in (("cancel", (2.0 + (KAPPA * h)**2) / 4.0), ("unit", 1.0)):
        b = (1.0 / m0 - 3.0) / (2.0 * h)
        cases.append(pytest.param(HalflineBC.robin(b), id=f"half-{name}"))
    for phases in ((0.0, 0.0), (np.pi, np.pi), (0.0, np.pi, np.pi),
                   (0.7, 0.7, -1.2, -1.2), (0.0, 0.0, np.pi, 0.7, 0.7),
                   (np.pi, np.pi, np.pi, 0.0, -2.0),
                   (0.3, -0.9, np.pi, 2.1, 2.1, -2.8)):
        u = _symmetric_unitary_with_phases(phases, rng)
        name = f"phases-{len(phases)}-{phases[-1]:.1f}"
        cases.append(pytest.param(VertexCoupling.custom(u), id=name))
    for n in range(1, 6):    # U != U^T from n = 2: complex kernels
        cases.append(pytest.param(VertexCoupling(random_unitary(n, rng)),
                                  id=f"haar-n{n}"))
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


def _dirichlet_edge_kappa(points, grid):
    """kappa* at which the block of T with indices >= 1 (a Dirichlet edge
    on the nodes >= 1, without kappa^2) is singular: its lowest
    eigenvalue is -kappa*^2."""
    h, size = grid.h, grid.N - 1
    block = (np.diag(np.full(size, 2.0 / h**2))
             - np.diag(np.full(size - 1, 1.0 / h**2), 1)
             - np.diag(np.full(size - 1, 1.0 / h**2), -1))
    for point in points:
        i = grid.node_index(point.a) - 1
        block[i, i] += point.c / h
    return math.sqrt(-np.linalg.eigvalsh(block)[0])


class TestDirichletEdgeEigenvalue:
    """The sectors share every row but the first.  The block they share,
    indices >= 1, is singular where a Dirichlet edge on those nodes has an
    eigenvalue, though no sector is; the solver must not invert it."""

    @pytest.mark.parametrize("eps", [1e-6, 1e-12, 0.0])
    @pytest.mark.parametrize("n", [1, 3, 4])
    @pytest.mark.parametrize("kind", ["delta_prime_s", "central_delta"])
    def test_values_match_dense_solve(self, kind, n, eps):
        grid = GridSpec(12.0, 99)
        points = [PointInteraction(13 * grid.h, -2.0)]
        kappa = _dirichlet_edge_kappa(points, grid) * (1.0 + eps)
        coupling, _ = (StarModel(n=n, kind=kind, beta=1.3)
                       if kind == "delta_prime_s"
                       else StarModel(n=n, kind=kind, b=-2.0))
        dense, m0 = _dense_kernel(coupling, points, kappa, grid)
        sampled = _solve(coupling, points, kappa, grid)
        h, scale = grid.h, np.max(np.abs(dense))
        for l in range(n):
            for iy in range(1, grid.N):
                y = h * (iy + 1)
                column = dense[:, iy * n + l]
                got = [sampled.value(j, h * (ix + 1), l, y)
                       for ix in range(grid.N) for j in range(n)]
                assert np.max(np.abs(np.subtract(got, column))) \
                    <= 1e-12 * scale
                trace = m0 @ (4.0 * column[:n] - column[n:2 * n])
                assert np.max(np.abs(sampled.vertex_values(l, y) - trace)) \
                    <= 1e-12 * scale


# ======================================================================
#  what the solver accepts
# ======================================================================

class TestSolverInputs:
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_non_symmetric_coupling_gives_a_complex_kernel(self, n):
        # a Haar U is not U^T from n = 2, so its kernel is complex, as
        # vertex_kernel's is, and Hermitian: G(j, x; l, y) is the conjugate
        # of G(l, y; j, x) away from the first node; a 1 x 1 U is U^T
        rng = np.random.default_rng(30 + n)
        coupling = VertexCoupling(random_unitary(n, rng))
        sampled = fd_resolvent_star((coupling, ()), KAPPA,
                                    GridSpec(12.0, 399))
        kind = float if n == 1 else complex
        assert sampled.vertex_values(0, 1.5).dtype == np.dtype(kind)
        for j in range(n):
            for l in range(n):
                value = sampled.value(j, 0.5, l, 1.5)
                assert type(value) is kind
                assert value == pytest.approx(
                    sampled.value(l, 1.5, j, 0.5).conjugate(), rel=1e-13)

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

    @pytest.mark.parametrize("scalar", [np.float32, np.float64, int])
    def test_numpy_kappa_and_length_run_in_doubles(self, scalar):
        # an np.float32 kappa or L made the solver compute in float32
        grid = GridSpec(scalar(12), 399)
        assert type(grid.L) is float and grid == GridSpec(12.0, 399)
        bc = HalflineBC.robin(0.7)
        model = StarModel(n=3, kind="delta_prime_s", beta=1.3)
        for kappa in (scalar(1), scalar(2)):
            for got, want, args in (
                    (fd_resolvent_halfline(bc, [], kappa, grid),
                     fd_resolvent_halfline(bc, [], float(kappa), grid),
                     (1.5, 2.0)),
                    (fd_resolvent_star(model, kappa, grid),
                     fd_resolvent_star(model, float(kappa), grid),
                     (0, 1.5, 2, 2.0))):
                value = got.value(*args)
                assert type(value) is float
                assert repr(value) == repr(want.value(*args))

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
        coupling = HalflineBC.neumann()
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
        coupling = HalflineBC.neumann()
        with pytest.raises(ValueError, match="too strong"):
            _solve(coupling, points, kappa, GridSpec(12.0, 99))

    @pytest.mark.parametrize("points,kappa", [
        (tuple(PointInteraction(a, 1e100) for a in (0.5, 1.0, 1.5, 2.0)),
         KAPPA),
        (tuple(PointInteraction(a, 1e110) for a in (0.5, 1.0, 1.5)), KAPPA),
        (tuple(PointInteraction(a, 1e110) for a in (1.5, 3.0, 4.5)), KAPPA),
        ((PointInteraction(0.5, 1e160), PointInteraction(1.0, 1e160)), KAPPA),
        ((PointInteraction(0.5, 1e308), PointInteraction(1.0, -1e308)),
         KAPPA),
        ((PointInteraction(1.5, 2e307),), 1e-3),
    ], ids=["4x1e100", "3x1e110", "3x1e110-spread", "2x1e160",
            "1e308-pair", "2e307-small-kappa"])
    def test_kernel_refuses_walls_the_solver_refuses(self, points, kappa):
        # repulsive points at a Neumann end have no bound state, yet the
        # kernel's carried solutions left the doubles and its Jost test
        # read NaN: a false PoleError, where the solver says "too strong"
        coupling = HalflineBC.neumann()
        for build in (lambda: _solve(coupling, points, kappa,
                                     GridSpec(12.0, 99)),
                      lambda: greens.vertex_kernel(coupling, points, kappa)):
            with pytest.raises(ValueError, match="too strong"):
                build()

    def test_kernel_builds_walls_within_double_range(self):
        # two points of 1e150 carry the solutions to about 1e300: both the
        # kernel and the solver build, and every value is finite
        points = (PointInteraction(0.5, 1e150), PointInteraction(1.0, 1e150))
        coupling = HalflineBC.neumann()
        kernel = greens.vertex_kernel(coupling, points, KAPPA)
        sampled = _solve(coupling, points, KAPPA, GridSpec(12.0, 99))
        for x, y in ((0.3, 0.7), (0.3, 2.0), (0.75, 0.75), (2.0, 5.0)):
            assert math.isfinite(kernel(0, x, 0, y))
            assert math.isfinite(sampled.value(x, y))

    def test_points_must_be_point_interactions(self):
        # before the check, the solver failed late with AttributeError;
        # both builds check in _star, and _solve takes its checked tuple
        grid = GridSpec(12.0, 99)
        for solve in (lambda pts: fd_resolvent_star(
                          (make_coupling("delta", 2, 1.0), tuple(pts)),
                          KAPPA, grid),
                      lambda pts: fd_resolvent_halfline(
                          HalflineBC.dirichlet(), pts, KAPPA, grid)):
            with pytest.raises(ValueError, match="not a PointInteraction"):
                solve([(0.5, -2.0)])

    @pytest.mark.parametrize("coordinate", [
        0.5 + 1j, np.complex128(0.5 + 1j), "0.5", True],
        ids=["complex", "complex128", "str", "bool"])
    def test_non_real_coordinates_are_rejected(self, coordinate):
        # GridSpec.node_index raised TypeError from the comparison (or,
        # for numpy's ordered complex scalars, from round), and read a
        # bool as the coordinate 1
        sampled = fd_resolvent_halfline(HalflineBC.neumann(), [], KAPPA,
                                        GridSpec(12.0, 99))
        for call in (lambda: sampled.value(coordinate, 1.0),
                     lambda: sampled.value(1.0, coordinate)):
            with pytest.raises(ValueError, match="real number"):
                call()

    def test_size_bound_comes_before_the_ghost_map(self):
        # this Robin constant makes the origin stencil singular
        grid = GridSpec(12.0, MAX_FD_UNKNOWNS + 1)
        coupling = HalflineBC.robin(-1.5 / grid.h)
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
        model = StarModel(n=n, kind="delta_prime_s", beta=1.3)
        sampled = fd_resolvent_star(model, KAPPA, GridSpec(12.0, 99))
        closed = vertex_kernel(*model, KAPPA)
        message = rf"^edge indices must lie in \[0, {n}\), got "
        for j, l in ((-1, 0), (0, -1), (n, 0), (0, n), (-n, -1)):
            for kernel in (sampled.value, sampled.snap, closed):
                with pytest.raises(ValueError, match=message):
                    kernel(j, 1.0, l, 2.0)
        for l in (-1, n, -n):
            with pytest.raises(ValueError, match=message):
                sampled.vertex_values(l, 2.0)

    @pytest.mark.parametrize("n", [1, 3])
    def test_non_integer_edges_raise_value_error(self, n):
        # a float edge escaped as a numpy IndexError, and True indexed the
        # closed form's reflection matrix as a mask
        model = StarModel(n=n, kind="delta_prime_s", beta=1.3)
        sampled = fd_resolvent_star(model, KAPPA, GridSpec(12.0, 99))
        closed = vertex_kernel(*model, KAPPA)
        message = rf"^edge indices must lie in \[0, {n}\), got "
        for bad in (0.0, 0.5, np.float64(0.0), True, False, "0", None):
            for j, l in ((bad, 0), (0, bad)):
                for kernel in (sampled.value, sampled.snap, closed):
                    with pytest.raises(ValueError, match=message):
                        kernel(j, 1.0, l, 2.0)
            with pytest.raises(ValueError, match=message):
                sampled.vertex_values(bad, 2.0)
        for j in (np.int64(n - 1), np.int32(0)):
            assert sampled.value(j, 1.0, 0, 2.0) \
                == sampled.value(int(j), 1.0, 0, 2.0)
            assert closed(j, 1.0, 0, 2.0) == closed(int(j), 1.0, 0, 2.0)

    @pytest.mark.parametrize("n", [1, 3])
    def test_numpy_scalars_read_as_floats_and_ints(self, n):
        model = StarModel(n=n, kind="central_delta", b=-1.0,
                          point=PointInteraction(1.0, 2.0))
        grid = GridSpec(12.0, 99)
        memoised, fresh = (fd_resolvent_star(model, KAPPA, grid)
                           for _ in range(2))
        points = [(j, x, l, y) for j in (0, n - 1) for l in (0, n - 1)
                  for x, y in ((0.5, 2.01), (1.0, 1.0), (0.06, 11.9))]
        want = [memoised.value(*point) for point in points]
        for point, value in zip(points, want):
            j, x, l, y = point
            numpy = (np.int64(j), np.float64(x), np.int64(l), np.float64(y))
            assert memoised.snap(*numpy) == memoised.snap(*point)
            assert memoised.value(*numpy) == value
            assert fresh.value(*numpy) == value    # through no memo
            assert memoised.value(*memoised.snap(*point)) == value

    @pytest.mark.parametrize("n", [1, 3])
    def test_bools_are_refused_after_the_memo_holds_1(self, n):
        # True == 1.0 hashes equal, so a memo keyed by coordinate would
        # read True as the node of x = 1.0
        sampled = fd_resolvent_star(
            StarModel(n=n, kind="delta_prime_s", beta=1.3), KAPPA,
            GridSpec(12.0, 99))
        sampled.value(0, 1.0, 0, 1.0)
        sampled.snap(0, 1.0, 0, 1.0)
        for bad in (True, np.True_):
            for point in ((0, bad, 0, 1.0), (0, 1.0, 0, bad),
                          (bad, 1.0, 0, 1.0), (0, 1.0, bad, 1.0)):
                for kernel in (sampled.value, sampled.snap):
                    with pytest.raises(ValueError):
                        kernel(*point)
        half = fd_resolvent_halfline(HalflineBC.neumann(), [], KAPPA,
                                     GridSpec(12.0, 99))
        half.value(1.0, 1.0)
        for point in ((True, 1.0), (1.0, True)):
            with pytest.raises(ValueError, match="not a bool"):
                half.value(*point)

    @pytest.mark.parametrize("n", [1, 3])
    def test_point_needs_two_or_four_coordinates(self, n):
        sampled = fd_resolvent_star(
            StarModel(n=n, kind="delta_prime_s", beta=1.3), KAPPA,
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
#  work count: a built kernel holds O(n^2 + points) numbers, whatever N,
#  and neither building nor sampling calls LAPACK or decomposes U
# ======================================================================

def _stored_sizes(sampled):
    """The size of every array and sequence a kernel holds, nested
    sequences included."""
    sizes, stack = [], list(vars(sampled).values())
    while stack:
        item = stack.pop()
        if isinstance(item, np.ndarray):
            sizes.append(item.size)
        elif isinstance(item, (list, tuple)):
            sizes.append(len(item))
            stack.extend(item)
    return sizes


class TestWorkCount:
    @pytest.mark.parametrize("big_n", [399, 39999])
    @pytest.mark.parametrize("n", [1, 2, 4, 6])
    def test_no_grid_sized_array_and_no_lapack_call(self, monkeypatch, n,
                                                    big_n):
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
        model = StarModel(n=n, kind="central_delta", b=-1.0,
                          point=PointInteraction(1.0, 2.0))
        grid = GridSpec(12.0, big_n)
        sampled = fd_resolvent_star(model, KAPPA, grid)
        sizes = _stored_sizes(sampled)
        assert sizes and max(sizes) <= max(n * n, len(model[1]))

        for l in sorted({0, n - 1}):
            for y in (0.48, 0.96, 1.5, 2.01, 3.0):
                for j in range(n):
                    for x in (0.06, 0.5, 2.01):
                        sampled.value(j, x, l, y)
        for iy in range(1, grid.N, grid.N // 399):
            y = grid.h * (iy + 1)
            for j in range(n):
                sampled.value(j, 0.5, n // 2, y)
        for l in range(n):
            for y in (0.06, 1.5, 11.9):
                sampled.vertex_values(l, y)
        assert calls == {"dgttrf": 0, "dgttrs": 0}

    def test_no_decomposition_or_solve_once_the_phases_are_known(
            self, monkeypatch):
        # the sectors come from U's eigenphase groups, which a family
        # coupling has in closed form and any other coupling keeps
        rng = np.random.default_rng(17)
        model = StarModel(n=6, kind="central_delta", b=-1.0,
                          point=PointInteraction(1.0, 2.0))
        custom = VertexCoupling.custom(_symmetric_unitary(4, rng))
        custom.eigenphases    # decomposed here, before the counting
        calls = dict.fromkeys(("eigh", "eig", "svd", "solve"), 0)

        def counted(name):
            routine = getattr(np.linalg, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return routine(*args, **kwargs)
            return wrapper

        for name in calls:
            monkeypatch.setattr(np.linalg, name, counted(name))
        grid = GridSpec(12.0, 399)
        for sampled in (fd_resolvent_star(model, KAPPA, grid),
                        _solve(custom, model[1], KAPPA, grid)):
            sampled.value(sampled.n_edges - 1, 0.5, 0, 2.01)
            sampled.vertex_values(0, 1.5)
        assert calls == dict.fromkeys(calls, 0)

    def test_family_builds_form_no_matrix(self, monkeypatch):
        # a family's projector sums are two numbers each, and its closed-form
        # phases vouch for U = U^T: no build forms a matrix or compares U
        calls = []
        apply, array_equal = coupling_module.Eigenphases.apply, np.array_equal
        monkeypatch.setattr(coupling_module.Eigenphases, "apply",
                            lambda *a: calls.append("apply") or apply(*a))
        monkeypatch.setattr(np, "array_equal", lambda *a: calls.append(
            "array_equal") or array_equal(*a))
        greens._named_coupling.cache_clear()
        grid = GridSpec(12.0, 399)
        for model in (StarModel(n=3, kind="delta_prime_s", beta=1.3),
                      StarModel(n=4, kind="central_delta_p", b=0.4,
                                point=PointInteraction(2.01, 0.7))):
            kernel = vertex_kernel(*model, KAPPA)
            sampled = fd_resolvent_star(model, KAPPA, grid)
            kernel(0, 0.5, 1, 2.01)
            sampled.value(0, 0.5, 1, 2.01)
            sampled.vertex_values(1, 1.5)
        assert calls == []

    def test_u_is_compared_with_its_transpose_once_per_coupling(self):
        # whether a kernel is real is one cached answer of the coupling:
        # kernels and FD builds at three kappa compare a decomposed U with
        # U^T once, and a family answers from its phases, forming no U
        class Counted(np.ndarray):
            def __eq__(self, other):
                compared.append(other.shape)
                return np.asarray(self) == np.asarray(other)

        compared = []
        haar = VertexCoupling(random_unitary(3, np.random.default_rng(5)))
        haar.eigenphases    # decomposed before U turns into a counting view
        haar.__dict__["u"] = haar.u.view(Counted)
        family = make_coupling("delta_p", 3, 1.3)
        for coupling in (haar, family):
            for kappa in (0.5, 1.0, 2.0):
                vertex_kernel(coupling, (), kappa)
                fd_resolvent_star((coupling, ()), kappa, GridSpec(12.0, 399))
        assert compared == [(3, 3)]
        assert (haar._real, family._real) == (False, True)
        assert "u" not in family.__dict__

    @pytest.mark.parametrize("n", [1, 3])
    def test_memo_hits_resolve_nothing(self, monkeypatch, n):
        # a second pass over the same samples reads every node, phi and
        # (A, B) from the memos: no memo fill, no node_index, no solution
        calls = []
        for owner, name in ((finite_difference, "_missed"),
                            (GridSpec, "node_index"),
                            (SampledKernel, "_far_side"),
                            (SampledKernel, "_vertex_side")):
            routine = getattr(owner, name)
            monkeypatch.setattr(owner, name, lambda *a, _f=routine, _n=name:
                                calls.append(_n) or _f(*a))
        model = StarModel(n=n, kind="central_delta", b=-1.0,
                          point=PointInteraction(1.0, 2.0))
        sampled = fd_resolvent_star(model, KAPPA, GridSpec(12.0, 399))
        analytic = lambda *p: star_green(model, KAPPA, *p)  # noqa: E731
        points = [(j, x, l, y) for j in (0, n - 1) for l in (0, n - 1)
                  for x, y in SAMPLES]
        first = compare_kernels(analytic, sampled, points)
        assert {"_missed", "node_index", "_far_side",
                "_vertex_side"} <= set(calls)
        calls.clear()
        assert compare_kernels(analytic, sampled, points) == first
        assert calls == []

    @pytest.mark.parametrize("case", ["star", "halfline", "oracle-check"])
    def test_one_coupling_per_vertex(self, monkeypatch, capsys, case):
        # an FD build and its closed form read one memoised U; they built
        # one each, and oracle-check --order-check built three.  Couplings
        # are counted where they are made (_with_phases, which serves
        # make_coupling), not through a __post_init__ they skip
        built = []
        with_phases = coupling_module._with_phases

        def counted(phases):
            built.append(phases)
            return with_phases(phases)

        monkeypatch.setattr(coupling_module, "_with_phases", counted)
        greens._named_coupling.cache_clear()
        greens._kernel.cache_clear()
        grid, point = GridSpec(12.0, 399), PointInteraction(2.01, 0.5)
        if case == "star":
            model = StarModel(n=3, kind="central_delta", b=0.7, point=point)
            fd_resolvent_star(model, KAPPA, grid)
            star_green(model, KAPPA, 0, 0.96, 2, 1.5)
        elif case == "halfline":
            fd_resolvent_halfline(HalflineBC.robin(0.7), [point], KAPPA, grid)
            halfline_kernel(HalflineBC.robin(0.7), [point], KAPPA)(0.96, 1.5)
        else:
            assert cli.main(["oracle-check", "--star-family",
                             "central-delta-p", "--n", "3", "--b", "0.4",
                             "--point", "2.01,0.7", "--kappa", "1.4",
                             "--h", "0.01", "--order-check"]) == 0
            assert '"ok": true' in capsys.readouterr().out
        assert len(built) == 1


class TestLargeFamilyStar:
    """n is a label of a family, not a matrix size: at n = 2000 a coupling,
    its kernel and its FD build form no n x n array, U included, and the
    vertex memo holds none."""

    def test_n_2000_builds_hold_no_scaffolding(self):
        n, grid = 2000, GridSpec(12.0, 400)
        greens._named_coupling.cache_clear()
        model = StarModel(n=n, kind="delta_prime_s", beta=1.3)
        gc.collect()
        tracemalloc.start()
        try:
            coupling = make_coupling("delta_prime_s", n, 1.3)
            kernel = vertex_kernel(coupling, (), KAPPA)
            sampled = fd_resolvent_star(model, KAPPA, grid)
            _, peak = tracemalloc.get_traced_memory()
            edges, xy = (0, 1, n - 1), ((0.4, 1.1), (2.01, 0.7))
            values = {(j, x, l, y): kernel(j, x, l, y) for j in edges
                      for l in edges for x, y in xy}
            fd_values = {sampled.snap(j, x, l, y): sampled.value(j, x, l, y)
                         for j in edges for l in edges for x, y in xy}
            sampled.vertex_values(n - 1, 1.1)
            del coupling, kernel, sampled
            gc.collect()
            # the vertex memo keeps the model's coupling, which has
            # formed no U
            memo, _ = tracemalloc.get_traced_memory()
            assert "u" not in vars(model[0])
            assert greens._named_coupling(("delta_prime_s", n, 1.3)) \
                is model[0]
            greens._named_coupling.cache_clear()
            gc.collect()
            held, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # measured 0.023 MB, the kernel's n references to the one list of
        # terms of its diagonal (0.52 MB with a list per edge); one n x n
        # array of floats is 32 MB
        assert peak < 5e4
        assert memo < 1e6 and held < 1e6

        lead, rest = sector_decompose("delta_prime_s", n, 1.3)

        def oracle(j, x, l, y, screen=None):
            point = None if screen is None \
                else PointInteraction(screen, math.inf)
            g_lead = sector_green(SectorSpec(lead.bc, point, 1), KAPPA, x, y)
            g_rest = sector_green(SectorSpec(rest.bc, point, n - 1), KAPPA,
                                  x, y)
            return g_lead / n + ((j == l) - 1.0 / n) * g_rest

        # measured 6.7e-16 relative, and 0.032 h^2 for the FD build, whose
        # grid ends in a Dirichlet wall at L
        for point, value in values.items():
            assert value == pytest.approx(oracle(*point), rel=1e-13)
        for point, value in fd_values.items():
            assert abs(value - oracle(*point, screen=grid.L)) \
                < 0.1 * grid.h ** 2


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
    m0 = _to_ab_ghost_map(coupling, h)[0].real
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
        for kind, model in (
                ("delta_prime_s", StarModel(n=n, kind="delta_prime_s",
                                            beta=1.3)),
                ("delta_prime", StarModel(n=n, kind="delta_prime", beta=0.6)),
                ("central_delta", StarModel(n=n, kind="central_delta", b=1.7,
                                            point=point)),
                ("central_delta_p", StarModel(n=n, kind="central_delta_p",
                                              b=0.4, point=point))):
            cases.append(pytest.param(*model, 1.4, id=f"{kind}-n{n}"))
    points = (PointInteraction(1.5, -0.3), PointInteraction(2.49, 1.8))
    for kind, bc, kappa in (("dirichlet", HalflineBC.dirichlet(), 1.1),
                            ("neumann", HalflineBC.neumann(), 1.9),
                            ("robin", HalflineBC.robin(0.8), 1.3),
                            ("robin_scaled", HalflineBC.robin_scaled(3, 2.0),
                             1.6)):
        cases.append(pytest.param(bc, points, kappa, id=f"half-{kind}"))
    return cases


class TestSourceColumns:
    @pytest.mark.parametrize("coupling,points,kappa", _benchmark_like_cases())
    def test_values_equal_per_source_columns(self, coupling, points, kappa):
        n, grid = coupling.n, FINE_GRID
        sampled = _solve(coupling, points, kappa, grid)
        xs = (0.48, 0.96, 1.5, 2.01, 3.0)
        snapped = [sampled.snap(j, x, l, y) for j in sorted({0, n - 1})
                   for l in range(n) for x in (0.0, *xs) for y in xs]
        sources = {grid.node_index(y, minimum=1) for *_, y in snapped}
        columns, q = _source_columns(coupling, points, kappa, grid, sources)
        m0 = _to_ab_ghost_map(coupling, grid.h)[0].real
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
                trace = m0 @ (4.0 * psi[0] - psi[1])
                assert np.max(np.abs(sampled.vertex_values(l, y) - trace)) \
                    <= 1e-9 * scale


# ======================================================================
#  large kappa L: the scaled vectors neither under- nor overflow
# ======================================================================

class TestLargeKappa:
    @pytest.mark.parametrize("kappa", [80.0, 500.0])
    @pytest.mark.parametrize("coupling,points", [
        pytest.param(HalflineBC.neumann(), (), id="half-neumann"),
        pytest.param(HalflineBC.robin(0.7),
                     (PointInteraction(1.5, -2.0),), id="half-robin-point"),
        pytest.param(StarModel(n=3, kind="delta_prime_s", beta=1.3)[0], (),
                     id="delta_prime_s-n3"),
        pytest.param(StarModel(n=3, kind="central_delta", b=-2.0)[0],
                     (PointInteraction(1.5, 4.0),), id="central_delta-n3"),
    ])
    def test_within_budget_of_screened_closed_form(self, coupling, points,
                                                   kappa):
        # kappa L = 960 and 6000: unscaled, the last column underflows
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


# ======================================================================
#  the closed form against a 40-digit Thomas solve of every sector
# ======================================================================

def _thomas_columns(diag, lam, h, sources):
    """{j: T^{-1} e_j / h} for the sector matrix T with diagonal diag and
    off-diagonals -1 / h^2, whose row 0 carries lam (-4, 1) / h^2 on top,
    by Gaussian elimination without pivoting (the Thomas algorithm)."""
    size, off = len(diag), -1 / h**2
    upper = [off + lam / h**2] + [off] * (size - 2)
    pivots, ratios = [diag[0] - 4 * lam / h**2], []
    for i in range(1, size):
        ratios.append(off / pivots[-1])
        pivots.append(diag[i] - ratios[-1] * upper[i - 1])
    columns = {}
    for j in sources:
        # forward: the load 1 / h at row j, and nothing above it
        rhs = [mpmath.mpf(0)] * size
        rhs[j] = 1 / h
        for i in range(j + 1, size):
            rhs[i] = -ratios[i - 1] * rhs[i - 1]
        column = [mpmath.mpf(0)] * size
        column[-1] = rhs[-1] / pivots[-1]
        for i in range(size - 2, -1, -1):
            column[i] = (rhs[i] - upper[i] * column[i + 1]) / pivots[i]
        columns[j] = column
    return columns


def _exact_kernel(coupling, points, kappa, grid, snapped):
    """The kernel at the snapped points to 40 digits.  M0 is the double
    (A, B) formula of _to_ab_ghost_map, its eigenpairs come from mpmath's
    eigsy, so Q is orthogonal to 40 digits too, and each sector matrix is
    solved by _thomas_columns."""
    m0 = _to_ab_ghost_map(coupling, grid.h)[0].real
    n, sources = coupling.n, {grid.node_index(y, minimum=1)
                              for *_, y in snapped}
    with mpmath.workdps(40):
        lams, q = mpmath.eigsy(mpmath.matrix((0.5 * (m0 + m0.T)).tolist()))
        h = mpmath.mpf(grid.h)
        diag = [2 / h**2 + mpmath.mpf(kappa)**2] * grid.N
        for point in points:
            diag[grid.node_index(point.a)] += mpmath.mpf(point.c) / h
        columns = [_thomas_columns(diag, lams[k], h, sources)
                   for k in range(n)]
        return [sum(q[j, k] * q[l, k] * columns[k][grid.node_index(
            y, minimum=1)][grid.node_index(x)] for k in range(n))
                for j, x, l, y in snapped]


class TestDiscreteExact:
    """Far-apart nodes, where a factorization of the N x N sector matrix
    loses digits to its condition number: the closed form is exact for the
    discrete operator up to the rounding of e^{-rho m}."""

    @pytest.mark.parametrize("kappa", [1.0, 80.0])
    @pytest.mark.parametrize("coupling,points", [
        pytest.param(HalflineBC.dirichlet(), (), id="half-dirichlet"),
        pytest.param(HalflineBC.robin(0.8), (), id="half-robin"),
        pytest.param(StarModel(n=2, kind="delta_prime_s", beta=1.3)[0],
                     (PointInteraction(1.5, -2.0),), id="delta_prime_s-n2"),
    ])
    def test_values_match_thomas_solve_at_40_digits(self, coupling, points,
                                                    kappa):
        grid = GridSpec(12.0, 3999)
        sampled = _solve(coupling, points, kappa, grid)
        # e^{-80 * 11.84} is below the smallest double
        far = 11.9 if kappa == 1.0 else 8.0
        n = coupling.n
        snapped = [sampled.snap(j, x, l, y) for j in range(n)
                   for l in range(n) for x, y in ((0.06, far), (far, 0.06),
                                                  (0.06, 1.5), (1.5, 0.06))]
        exact = _exact_kernel(coupling, points, kappa, grid, snapped)
        errors = [float(abs(sampled.value(*point) / value - 1))
                  for point, value in zip(snapped, exact)]
        # measured: 3.1e-13 (delta_prime_s, kappa = 1), where a dgttrf
        # factorization of the same sectors is off by 6.5e-11
        assert max(errors) <= 1e-12
