"""Schedule, effective-Robin, Hilbert-Schmidt norm, and sweep tests.

Independent oracle for the sector norms: on the window [a, L]^2 every
difference kernel here is exactly separable,

    diff(x, y) = K(a) e^{-kappa (x + y)},
    K(a) = (R_base - R_target) / (2 kappa) + g_a^2 / (-1/c - G_base(a, a)),

with g_a = (e^{kappa a} + R_base e^{-kappa a}) / (2 kappa) the x-profile
of G_base(x, a) for x >= a, because the free parts of base and target
kernel cancel and the rank-one correction is a product of exponentials.
Its Hilbert-Schmidt norm is |K(a)| (e^{-2 kappa a} - e^{-2 kappa L}) /
(2 kappa).  The tests compute K(a) from scratch (separable_factor and
expected_norm in conftest.py) and compare the sampled quadrature
(oracles.sector_difference and convergence.hs_norm) against it.
convergence_sweep evaluates this norm in a cancellation-free closed form
of its own; TestClosedFormNorms gates it against the same K(a)
evaluated with 50-digit mpmath, and against the sampled quadrature.
TestErrorConstant checks the Taylor constants C1 and C2 of the sweep's
dR(a) against a 50-digit direct transfer, and the sweep's norms against
them.  TestResolventTrace checks the trace of the resolvent difference,
the integral of its diagonal, against the Jost functions: in 40-digit
mpmath per sector, and against the package kernels on the whole star.
"""

import collections
import math
import sys

import mpmath
import numpy as np
import pytest

from conftest import expected_norm
from oracles import (SampledDifference, approximant_bound_state,
                     approximant_model, diagonal_trace, effective_robin,
                     jost_trace, line_delta_prime, line_green,
                     sector_decompose, sector_difference, sector_transfer)
from starcouplings import (ApproximationStage, GridSpec, HalflineBC,
                           PointInteraction, PoleError, StarModel,
                           VertexCoupling, convergence_sweep, halfline_kernel,
                           schedule, star_green)
from starcouplings import convergence
from starcouplings.convergence import (SCHEDULE_FAMILIES, ConvergenceReport,
                                       StageResult, _robin_pole, hs_norm,
                                       sector_green)
from starcouplings.coupling import ROBIN_POLE_TOL
from starcouplings.scattering import one_plus_s_sectors

KAPPA = 1.0
GRID = GridSpec(12.0, 400)


# ======================================================================
#  schedule
# ======================================================================

class TestSchedule:
    def test_common_derivative_family_values(self):
        st = schedule("delta_prime_s", 1.0, 2, 0.1)
        assert st.b == pytest.approx(-50.0)
        assert st.c == pytest.approx(-10.0)
        assert st.per_channel_b == pytest.approx(-50.0)

    def test_pairwise_difference_family_values(self):
        st = schedule("delta_prime", 1.0, 2, 0.1)
        assert st.b == pytest.approx(-100.0)
        assert st.c == pytest.approx(-10.0)
        assert st.per_channel_b == pytest.approx(-50.0)

    def test_zero_beta(self):
        st = schedule("delta_prime_s", 0.0, 3, 0.02)
        assert st.b == 0.0
        assert st.c == pytest.approx(-50.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            schedule("delta", 1.0, 2, 0.1)
        with pytest.raises(ValueError):
            schedule("delta_prime_s", 1.0, 2, 0.0)
        with pytest.raises(ValueError):
            schedule("delta_prime_s", 1.0, 0, 0.1)

    def test_infinite_distance_is_refused(self):
        # a = inf gave the stage c = -1/a = -0.0, a satellite at infinity
        with pytest.raises(ValueError):
            schedule("delta_prime_s", 1.0, 2, math.inf)

    @pytest.mark.parametrize("n", [2.5, 2.0, True])
    def test_edge_count_must_be_an_integer(self, n):
        # n = 2.5 would weigh the complement sector by n - 1 = 1.5
        with pytest.raises(ValueError, match="edge count"):
            schedule("delta_prime", 1.0, n, 0.1)


# ======================================================================
#  effective_robin
# ======================================================================

class TestEffectiveRobin:
    def test_no_central_coupling_leaves_satellite(self):
        assert effective_robin(0.0, -7.0, 0.5) == -7.0

    def test_schedule_closed_form(self):
        # c + b/(1 + a b) with the schedule collapses to n/(beta - n a);
        # below a ~ 1e-3 the two O(1/a) terms cancel in float64, costing
        # roughly eps/a in relative accuracy (measured ~1e-11 at a = 1e-6)
        for beta in (1.0, -0.5):
            for n in (2, 3, 5):
                for a in (1e-1, 1e-2, 1e-3, 1e-4, 1e-6):
                    st = schedule("delta_prime_s", beta, n, a)
                    got = effective_robin(st.b, st.c, a)
                    want = n / (beta - n * a)
                    tol = 1e-12 if a >= 1e-3 else 1e-10
                    assert abs(got - want) <= tol * abs(want)

    def test_limit_is_target_constant(self):
        beta, n = 1.0, 2
        st = schedule("delta_prime_s", beta, n, 1e-8)
        assert effective_robin(st.b, st.c, 1e-8) == pytest.approx(n / beta,
                                                                  rel=1e-7)

    def test_worked_example(self):
        st = schedule("delta_prime_s", 1.0, 2, 0.1)
        assert effective_robin(st.b, st.c, 0.1) == pytest.approx(2.5)

    def test_degenerate_stage_guard(self):
        with pytest.raises(PoleError):
            effective_robin(-1.0, 0.0, 1.0)


# ======================================================================
#  sector_difference
# ======================================================================

class TestSectorDifference:
    def test_target_against_itself_vanishes(self):
        target = sector_decompose("delta_prime_s", 2, 1.0)[0]
        diff = sector_difference(target, target, KAPPA, 0.05, GRID)
        assert np.max(np.abs(diff.values)) == 0.0

    def test_window_starts_at_satellite(self):
        st = schedule("delta_prime_s", 1.0, 2, 0.01)
        targets = sector_decompose("delta_prime_s", 2, 1.0)
        approxs = sector_decompose(*approximant_model(st))
        diff = sector_difference(targets[0], approxs[0], KAPPA, st.a, GRID)
        assert diff.x[0] == st.a
        assert diff.x[-1] == GRID.L
        assert np.all(np.diff(diff.x) > 0)

    def test_incompatible_multiplicities_rejected(self):
        sectors = sector_decompose("delta_prime_s", 3, 1.0)
        with pytest.raises(ValueError):
            sector_difference(sectors[0], sectors[1], KAPPA, 0.01, GRID)

    def test_pointwise_values_match_library_kernels(self):
        st = schedule("delta_prime_s", 1.0, 2, 0.05)
        targets = sector_decompose("delta_prime_s", 2, 1.0)
        approxs = sector_decompose(*approximant_model(st))
        diff = sector_difference(targets[1], approxs[1], KAPPA, st.a, GRID)
        i, j = 5, 17
        xi, xj = diff.x[i], diff.x[j]
        expected = halfline_kernel(approxs[1].bc, (approxs[1].point,),
                                   KAPPA)(xi, xj) \
            - halfline_kernel(targets[1].bc, (), KAPPA)(xi, xj)
        assert diff.values[i, j] == pytest.approx(expected, abs=1e-15)


# ======================================================================
#  hs_norm
# ======================================================================

class TestHSNorm:
    def test_zero_kernel(self):
        x = np.linspace(0, 12, 50)
        assert hs_norm(SampledDifference(x, np.zeros((50, 50)))) == 0.0

    def test_separable_exponential_quadrature(self):
        # integral of e^{-2x} e^{-2y} over the square is (1 - e^{-24})^2 / 4;
        # the trapezoid error at this resolution is h^2/6 per axis ~ 1.5e-4
        x = np.array(GRID.boundary_nodes())
        vals = np.exp(-x)[:, None] * np.exp(-x)[None, :]
        norm = hs_norm(SampledDifference(x, vals))
        exact = (1.0 - math.exp(-24.0)) / 2.0
        assert abs(norm**2 - exact**2) < 2e-4
        assert abs(norm - exact) < 2e-4

    def test_quadrature_error_is_second_order(self):
        exact = (1.0 - math.exp(-24.0)) / 2.0
        errs = []
        for grid in (GRID, GridSpec(12.0, 801)):
            x = np.array(grid.boundary_nodes())
            vals = np.exp(-x)[:, None] * np.exp(-x)[None, :]
            errs.append(abs(hs_norm(SampledDifference(x, vals)) - exact))
        assert 3.0 <= errs[0] / errs[1] <= 5.0

    def test_refinement_changes_result_little(self):
        st = schedule("delta_prime_s", 1.0, 2, 0.01)
        targets = sector_decompose("delta_prime_s", 2, 1.0)
        approxs = sector_decompose(*approximant_model(st))
        norms = []
        for grid in (GRID, GridSpec(12.0, 801)):
            diff = sector_difference(targets[0], approxs[0], KAPPA, st.a, grid)
            norms.append(hs_norm(diff))
        assert abs(norms[0] - norms[1]) < 5e-4 * norms[1]

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            SampledDifference(np.linspace(0, 1, 5), np.zeros((4, 4)))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_samples_are_refused(self, bad):
        x, values = np.linspace(0.0, 1.0, 3), np.zeros((3, 3), dtype=complex)
        bad_x, bad_values = x.copy(), values.copy()
        bad_x[1], bad_values[2, 0] = bad, complex(0.0, bad)
        for args in ((bad_x, values), (x, bad_values)):
            with pytest.raises(ValueError, match="must be finite"):
                SampledDifference(*args)

    def test_matches_a_hand_written_trapezoid_sum(self):
        # uneven nodes and complex values: the sum over cells of the cell
        # area times the mean of |values|^2 at its four corners
        rng = np.random.default_rng(4)
        x = np.cumsum(rng.uniform(0.01, 0.3, 40))
        vals = rng.standard_normal((40, 40)) \
            + 1j * rng.standard_normal((40, 40))
        sq = np.abs(vals) ** 2
        total = 0.0
        for i in range(39):
            for j in range(39):
                corners = (sq[i, j] + sq[i + 1, j] + sq[i, j + 1]
                           + sq[i + 1, j + 1])
                total += (x[i + 1] - x[i]) * (x[j + 1] - x[j]) * corners / 4.0
        got = hs_norm(SampledDifference(x, vals))
        assert abs(got - math.sqrt(total)) <= 1e-14 * math.sqrt(total)

    def test_single_node_has_zero_norm(self):
        assert hs_norm(SampledDifference(np.array([1.0]),
                                         np.array([[5.0]]))) == 0.0


# ======================================================================
#  pointwise limits of the decorated kernels
# ======================================================================

class TestPointwiseLimits:
    def test_dirichlet_wall_turns_neumann(self):
        # |decorated - target| < 10 a e^{-kappa(x+y)} on [0.5, 5]^2
        bc = HalflineBC.dirichlet()
        target = halfline_kernel(HalflineBC.neumann(), (), KAPPA)
        pts = np.linspace(0.5, 5.0, 12).tolist()
        for a in (0.01, 0.003, 0.001):
            point = PointInteraction(a=a, c=-1.0 / a)
            g = halfline_kernel(bc, (point,), KAPPA)
            for x in pts:
                for y in pts:
                    assert abs(g(x, y) - target(x, y)) \
                        < a * 10.0 * math.exp(-KAPPA * (x + y))

    def test_scheduled_robin_turns_robin_scaled(self):
        beta, n = 1.0, 2
        target = halfline_kernel(HalflineBC.robin_scaled(n, beta), (), KAPPA)
        pts = np.linspace(0.5, 5.0, 12).tolist()
        for a in (0.01, 0.003, 0.001):
            st = schedule("delta_prime_s", beta, n, a)
            bc = HalflineBC.robin(st.per_channel_b)
            point = PointInteraction(a=a, c=st.c)
            g = halfline_kernel(bc, (point,), KAPPA)
            for x in pts:
                for y in pts:
                    assert abs(g(x, y) - target(x, y)) \
                        < a * 10.0 * math.exp(-KAPPA * (x + y))

    def test_symmetric_sector_difference_shrinks_linearly(self):
        beta, n = 1.0, 2
        target = HalflineBC.robin_scaled(n, beta)
        vals = []
        for a in (0.1, 0.01, 0.001):
            st = schedule("delta_prime_s", beta, n, a)
            bc = HalflineBC.robin(st.per_channel_b)
            point = PointInteraction(a=a, c=st.c)
            vals.append(abs(halfline_kernel(bc, (point,), KAPPA)(1.0, 1.0)
                            - halfline_kernel(target, (), KAPPA)(1.0, 1.0)))
        assert vals[0] > vals[1] > vals[2]
        for hi, lo in zip(vals, vals[1:]):
            assert 6.0 < hi / lo < 14.0  # one decade of a per decade of error


# ======================================================================
#  sector norms against the separable closed form
# ======================================================================

class TestSeparableOracle:
    @pytest.mark.parametrize("beta,n", [(1.0, 2), (-0.5, 3), (1.0, 5)])
    def test_symmetric_sector_norm(self, beta, n):
        for a in (0.01, 0.001):
            st = schedule("delta_prime_s", beta, n, a)
            targets = sector_decompose("delta_prime_s", n, beta)
            approxs = sector_decompose(*approximant_model(st))
            got = hs_norm(sector_difference(targets[0], approxs[0], KAPPA,
                                            st.a, GRID))
            # the reflection constant of a half line is 2 kappa G(0, 0) - 1
            r_base = 2 * KAPPA * halfline_kernel(
                HalflineBC.robin(st.per_channel_b), (), KAPPA)(0.0, 0.0) - 1
            r_target = 2 * KAPPA * halfline_kernel(
                HalflineBC.robin_scaled(n, beta), (), KAPPA)(0.0, 0.0) - 1
            want = expected_norm(r_base, r_target, a, st.c, KAPPA, GRID.L)
            assert got == pytest.approx(want, rel=1e-3)

    def test_complement_sector_norm(self):
        a = 0.003
        st = schedule("delta_prime_s", 1.0, 2, a)
        targets = sector_decompose("delta_prime_s", 2, 1.0)
        approxs = sector_decompose(*approximant_model(st))
        got = hs_norm(sector_difference(targets[1], approxs[1], KAPPA,
                                        st.a, GRID))
        want = expected_norm(-1.0, 1.0, a, st.c, KAPPA, GRID.L)
        assert got == pytest.approx(want, rel=1e-3)

    def test_edge_indexed_norm_equals_sector_combination(self):
        # summing |G_jl|^2 of the edge-indexed difference over all edge
        # pairs must collapse to lead^2 + (n-1) rest^2 exactly
        from starcouplings import star_green
        beta, n, a = 1.0, 3, 0.05
        st = schedule("delta_prime_s", beta, n, a)
        t_model = StarModel(n=n, kind="delta_prime_s", beta=beta)
        kind, _, b, point = approximant_model(st)
        a_model = StarModel(n=n, kind=kind, b=b, point=point)
        grid = GridSpec(12.0, 120)
        targets = sector_decompose("delta_prime_s", n, beta)
        approxs = sector_decompose(kind, n, b, point)
        lead_diff = sector_difference(targets[0], approxs[0], KAPPA, a, grid)
        rest_diff = sector_difference(targets[1], approxs[1], KAPPA, a, grid)
        nodes = lead_diff.x
        xs = nodes.tolist()
        total_sq = 0.0
        for j in range(n):
            for l in range(n):
                d = [[star_green(a_model, KAPPA, j, x, l, y)
                      - star_green(t_model, KAPPA, j, x, l, y) for y in xs]
                     for x in xs]
                total_sq += hs_norm(SampledDifference(nodes, d)) ** 2
        combined = hs_norm(lead_diff) ** 2 + (n - 1) * hs_norm(rest_diff) ** 2
        assert total_sq == pytest.approx(combined, rel=1e-12)

    def test_stage_norms_against_finite_difference_kernels(self):
        # recompute one stage's sector norms with the independent solver:
        # same quadrature nodes, kernels from the discrete resolvent
        from starcouplings import fd_resolvent_halfline
        beta, n = 1.0, 2
        grid = GridSpec(12.0, 1499)            # h = 8e-3
        a = 25.0 * grid.h                      # satellite on a grid node;
        # kept moderate: the complement-sector Krein denominator is ~kappa
        # a^2 and amplifies the solver error as it shrinks
        st = schedule("delta_prime_s", beta, n, a)
        targets = sector_decompose("delta_prime_s", n, beta)
        approxs = sector_decompose(*approximant_model(st))
        nodes = np.concatenate(([a], np.arange(0.296, 11.3, 0.2)))
        nodes = np.array([grid.boundary_nodes()[grid.node_index(v) + 1]
                          for v in nodes])
        fd_total_sq = 0.0
        ana_total_sq = 0.0
        for t_sec, a_sec, mult in [(targets[0], approxs[0], 1),
                                   (targets[1], approxs[1], n - 1)]:
            fd_target = fd_resolvent_halfline(t_sec.bc, [], KAPPA, grid)
            fd_approx = fd_resolvent_halfline(a_sec.bc, [a_sec.point], KAPPA,
                                              grid)
            fd_vals = np.array([[fd_approx.value(x, y) - fd_target.value(x, y)
                                 for y in nodes] for x in nodes])
            ana_vals = np.array([[sector_green(a_sec, KAPPA, x, y)
                                  - sector_green(t_sec, KAPPA, x, y)
                                  for y in nodes.tolist()]
                                 for x in nodes.tolist()])
            fd_total_sq += mult * hs_norm(SampledDifference(nodes, fd_vals))**2
            ana_total_sq += mult * hs_norm(SampledDifference(nodes,
                                                             ana_vals))**2
        assert np.sqrt(fd_total_sq) == pytest.approx(np.sqrt(ana_total_sq),
                                                     rel=1e-3)


# ======================================================================
#  convergence_sweep
# ======================================================================

class TestConvergenceSweep:
    def test_basic_run_slope_near_one(self):
        rep = convergence_sweep("delta_prime_s", 1.0, 2, KAPPA,
                                [1e-2, 3e-3, 1e-3], GridSpec(12.0, 200))
        totals = [s.norm_total for s in rep.stages]
        assert totals[0] > totals[1] > totals[2]
        assert 0.75 <= rep.fitted_slope <= 1.25
        assert all(s.valid for s in rep.stages)

    def test_sector_orthogonality_identity(self):
        rep = convergence_sweep("delta_prime", 1.0, 3, KAPPA,
                                [1e-2, 1e-3], GridSpec(12.0, 200))
        for s in rep.stages:
            combined = s.norm_sym**2 + (rep.n - 1) * s.norm_comp**2
            assert abs(s.norm_total**2 - combined) <= 1e-10 * s.norm_total**2

    def test_single_stage_has_no_slope(self):
        rep = convergence_sweep("delta_prime_s", 1.0, 2, KAPPA, [0.1],
                                GridSpec(12.0, 200))
        assert rep.fitted_slope is None
        assert rep.fitted_intercept is None
        assert len(rep.stages) == 1

    def test_target_pole_marks_stages_invalid(self):
        # beta = -n/kappa puts the leading target sector on its pole
        rep = convergence_sweep("delta_prime_s", -2.0, 2, KAPPA,
                                [1e-2, 1e-3], GridSpec(12.0, 200))
        assert all(not s.valid for s in rep.stages)
        assert all(math.isnan(s.norm_total) for s in rep.stages)
        assert rep.fitted_slope is None

    @pytest.mark.parametrize("family, n", [
        *(("delta_prime_s", n) for n in range(1, 6)),
        *(("delta_prime", n) for n in range(2, 6))])
    @pytest.mark.parametrize("kappa", [0.5, 1.0, 2.0])
    def test_target_pole_trips_first_at_every_stage(self, family, n, kappa):
        # beta = -n/kappa puts the Robin target sector on its pole, whatever
        # a: every stage reports the target test, before the base and Krein
        # tests of its own pair and of the pairs after it
        beta = -n / kappa
        rep = convergence_sweep(family, beta, n, kappa,
                                [0.26, 1e-1, 1e-3, 1e-6], GRID)
        message = (f"target sector pole: {beta} psi'(0) = {float(n)} psi(0) "
                   f"has a bound state at kappa={kappa}")
        for stage in rep.stages:
            assert not stage.valid
            assert stage.error == message
            assert all(math.isnan(v) for v in (stage.norm_sym,
                                               stage.norm_comp,
                                               stage.norm_total))
            assert (stage.b, stage.c) == (schedule(family, beta, n,
                                                   stage.a).b, -1.0 / stage.a)
        assert rep.fitted_slope is None and rep.fitted_intercept is None

    @pytest.mark.parametrize("n", [2.5, True])
    def test_edge_count_must_be_an_integer(self, n):
        with pytest.raises(ValueError, match="edge count"):
            convergence_sweep("delta_prime", 1.0, n, KAPPA, [1e-2, 1e-3],
                              GridSpec(12.0, 200))

    @pytest.mark.parametrize("args, match", [
        (("delta", 1.0, 2), "unknown schedule family"),
        (("delta_prime", math.nan, 2), "beta must be finite"),
        (("delta_prime", 1.0, 0), "edge count"),
        (("delta_prime", math.nan, 0), "edge count"),
        (("delta", math.nan, 0), "unknown schedule family")])
    def test_schedule_inputs_are_checked_in_schedule_order(self, args,
                                                            match):
        # family, then n, then beta, after kappa and the distances
        family, beta, n = args
        with pytest.raises(ValueError, match=match):
            convergence_sweep(family, beta, n, KAPPA, [1e-2, 1e-3], GRID)
        with pytest.raises(ValueError, match="need at least one distance"):
            convergence_sweep(family, beta, n, KAPPA, [], GRID)

    def test_requires_strictly_decreasing_distances(self):
        with pytest.raises(ValueError):
            convergence_sweep("delta_prime_s", 1.0, 2, KAPPA, [1e-3, 1e-2],
                              GridSpec(12.0, 200))

    def test_single_edge_sweep(self):
        rep = convergence_sweep("delta_prime_s", 1.0, 1, KAPPA,
                                [1e-2, 1e-3], GridSpec(12.0, 200))
        for s in rep.stages:
            assert s.norm_comp == 0.0
            assert s.norm_total == s.norm_sym


# ======================================================================
#  the energy where the rate doubles
# ======================================================================

class TestSecondOrderEnergy:
    """A sector with target pair (sigma, tau) has the error constant
    C1 = 4 kappa (kappa^2 sigma^2 - 3 tau^2) / (3 (kappa sigma + tau)^2) in
    front of a.  At n = 1 delta_prime_s has one sector, (beta, 1), whose
    C1 vanishes at kappa = sqrt(3)/|beta|: there the sweep converges at
    second order.  delta_prime's one sector at n = 1 has the Neumann
    target (1, 0), C1 = 4 kappa/3, and stays first order.  Fitted slopes
    over a = 1e-3 ... 1e-5 measured 1.99820-1.99991 at the zero and
    0.9993-1.0006 for the first-order contrasts; the windows are 0.005."""

    A_LIST = [1e-2, 1e-3, 1e-4, 1e-5]

    def _slope(self, family, beta, kappa):
        rep = convergence_sweep(family, beta, 1, kappa, self.A_LIST, GRID)
        assert all(s.valid for s in rep.stages)
        return rep.fitted_slope

    @pytest.mark.parametrize("beta", [1.0, -0.7, 2.5])
    def test_rate_doubles_where_c1_vanishes(self, beta):
        kappa = math.sqrt(3.0) / abs(beta)
        assert abs(self._slope("delta_prime_s", beta, kappa) - 2.0) <= 0.005

    @pytest.mark.parametrize("beta", [1.0, -0.7, 2.5])
    def test_rate_is_first_order_away_from_the_zero(self, beta):
        assert abs(self._slope("delta_prime_s", beta, 1.0) - 1.0) <= 0.005

    @pytest.mark.parametrize("beta", [1.0, -0.7, 2.5])
    def test_neumann_target_stays_first_order(self, beta):
        kappa = math.sqrt(3.0) / abs(beta)
        assert abs(self._slope("delta_prime", beta, kappa) - 1.0) <= 0.005


# ======================================================================
#  the error constant
# ======================================================================

def _c1(sigma, tau, kappa):
    """C1 of dR(a) = C1 a + C2 a^2 + O(a^3) for the sector (sigma, tau)."""
    return 4 * kappa * (kappa**2 * sigma**2 - 3 * tau**2) \
        / (3 * (kappa * sigma + tau) ** 2)


def _c2(sigma, tau, kappa):
    return 4 * kappa**2 * (2 * kappa**3 * sigma**3
                           + 3 * kappa**2 * sigma**2 * tau
                           - 9 * kappa * sigma * tau**2 - 18 * tau**3) \
        / (9 * (kappa * sigma + tau) ** 3)


def _mp_transfer_shift(sigma, tau, kappa, a, c=None):
    """dR(a) of the sector (sigma, tau) at 50 digits, by the direct
    transfer oracles.sector_transfer (c = -1/a exactly unless given),
    R_a = e^{2 kappa a} (kappa u - u') / (kappa u + u') at a, minus the
    target's R = (kappa sigma - tau) / (kappa sigma + tau)."""
    with mpmath.workdps(50):
        sigma, tau, kappa, a = map(mpmath.mpf, (sigma, tau, kappa, a))
        u, du = sector_transfer(sigma, tau, kappa, a, c)
        r_a = mpmath.exp(2 * kappa * a) * (kappa * u - du) / (kappa * u + du)
        return r_a - (kappa * sigma - tau) / (kappa * sigma + tau)


class TestErrorConstant:
    """dR(a) = C1 a + C2 a^2 + O(a^3) per sector pair (sigma, tau), with
    C1 and C2 hard-coded above, and each sector norm of the sweep is
    |C1 a + C2 a^2| e^{-2 kappa a} (1 - e^{-2 kappa (L - a)}) / (4 kappa^2)
    up to that O(a^3), relative O(a^2)."""

    A_VALUES = (1e-3, 1e-4, 1e-5)

    @pytest.mark.parametrize("sigma, tau", [(1.0, 2.0), (1.0, 0.0),
                                            (-0.7, 2.0), (1.0, 3.0),
                                            (3.0, 1.0)])
    @pytest.mark.parametrize("kappa", [0.5, 1.0, 2.0])
    def test_constants_match_the_mpmath_transfer(self, sigma, tau, kappa):
        # |dR - C1 a - C2 a^2| / |dR| over a^2 measured at most 90.007, at
        # (-0.7, 2) and kappa = 2, where it tends to |C3 / C1| as a -> 0
        with mpmath.workdps(50):
            c1, c2 = (f(*map(mpmath.mpf, (sigma, tau, kappa)))
                      for f in (_c1, _c2))
            for a in map(mpmath.mpf, self.A_VALUES):
                d_r = _mp_transfer_shift(sigma, tau, kappa, a)
                assert abs(d_r - c1 * a - c2 * a**2) <= 91 * a**2 * abs(d_r)

    @staticmethod
    def _predicted(sigma, tau, kappa, a, length):
        window = -math.expm1(-2.0 * kappa * (length - a)) / (4.0 * kappa**2)
        d_r = _c1(sigma, tau, kappa) * a + _c2(sigma, tau, kappa) * a**2
        return abs(d_r) * math.exp(-2.0 * kappa * a) * window

    def test_sweep_norms_match_the_constants(self):
        # delta_prime_s, n = 2, beta = 1, kappa = 1: the lead sector (1, 2)
        # measured 2.27 a^2 relative, the complement (1, 0) 0.311 a^2
        rep = convergence_sweep("delta_prime_s", 1.0, 2, 1.0,
                                list(self.A_VALUES), GRID)
        for stage in rep.stages:
            a = stage.a
            for got, (sigma, tau), bound in (
                    (stage.norm_sym, (1.0, 2.0), 2.3),
                    (stage.norm_comp, (1.0, 0.0), 0.32)):
                want = self._predicted(sigma, tau, 1.0, a, GRID.L)
                assert abs(got - want) <= bound * a**2 * want, (a, got, want)

    @pytest.mark.parametrize("family", SCHEDULE_FAMILIES)
    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("beta", [1.0, -0.7])
    @pytest.mark.parametrize("kappa", [0.5, 1.0, 2.0])
    def test_every_sector_norm_matches_the_constants(self, family, n, beta,
                                                     kappa):
        # the Robin pair (beta, n) and the Neumann-target pair (1, 0), lead
        # sector first for delta_prime_s; worst measured 89.98 a^2 relative,
        # in the (-0.7, 2) sector at kappa = 2
        pairs = [(beta, float(n)), (1.0, 0.0)]
        if family == "delta_prime":
            pairs.reverse()
        rep = convergence_sweep(family, beta, n, kappa, list(self.A_VALUES),
                                GRID)
        for stage in rep.stages:
            norms = (stage.norm_sym, stage.norm_comp)[:1 if n == 1 else 2]
            for got, (sigma, tau) in zip(norms, pairs):
                want = self._predicted(sigma, tau, kappa, stage.a, GRID.L)
                assert abs(got - want) <= 91 * stage.a**2 * want, \
                    (stage.a, sigma, tau, got, want)


class TestFloatSatelliteShift:
    """A satellite strength c = fl(-1/a), a relative error delta = 1 + c a
    off -1/a, moves dR by |Delta dR / dR| = 2 kappa |delta| / ((kappa +
    tau/sigma)^2 |C1| a^2) to first order: the effective Robin constant
    shifts by delta / a, and R(B) = (kappa - B) / (kappa + B)."""

    @pytest.mark.parametrize("sigma, tau", [(1.0, 2.0), (1.0, 0.0),
                                            (1.0, 1.0), (-0.7, 2.0)])
    def test_shift_matches_the_first_order_formula(self, sigma, tau):
        # 36 cases, delta != 0 in each; |ratio - 1| measured at most
        # 1.65e-4, the second-order term of the shift; the relative shift
        # at 60 digits agrees with the 50-digit one here to 5e-35
        for kappa in (0.5, 1.0, 2.0):
            for a in (1e-5, 1e-6, 1e-7):
                c = -1.0 / a
                with mpmath.workdps(50):
                    delta = 1 + mpmath.mpf(c) * mpmath.mpf(a)    # exact
                    assert delta != 0
                    exact = _mp_transfer_shift(sigma, tau, kappa, a)
                    rounded = _mp_transfer_shift(sigma, tau, kappa, a, c=c)
                    predicted = 2 * kappa * abs(delta) / (
                        (kappa + mpmath.mpf(tau) / sigma) ** 2
                        * abs(_c1(*map(mpmath.mpf, (sigma, tau, kappa))))
                        * mpmath.mpf(a) ** 2)
                    ratio = abs((rounded - exact) / exact) / predicted
                assert abs(ratio - 1) <= 1e-3, (kappa, a, float(ratio))


class TestApproximantBoundState:
    """Norm-resolvent convergence moves eigenvalues too.  In a Robin
    sector (sigma, tau) with sigma < 0 the target's bound state is kappa*
    = -tau / sigma, and the approximant's, kappa_a (the 50-digit root of
    oracles.approximant_bound_state), tends to it at first order:
    (kappa_a - kappa*) / (a kappa*^2) -> -4/3.  The sweep's approximant
    test refuses a band of about 1e-10 relative around kappa_a, at every
    a."""

    def test_bound_state_converges_at_first_order(self):
        # (kappa_a - kappa*) / (a kappa*^2) + 4/3 measured d a kappa*, d
        # from 1.46 (kappa* = 6, a = 1e-2) to 1.5556 (tending to 14/9); at
        # a = 1e-6 the ratio reads -1.3333326 (kappa* = 0.5), -1.3333302
        # (2) and -1.333324 (6)
        for sigma, tau in ((-4.0, 2), (-1.5, 3), (-1.0, 2), (-0.5, 3),
                           (-0.7, 2)):
            for a in (1e-2, 1e-4, 1e-6):
                kappa_a = approximant_bound_state(sigma, tau, a, -tau / sigma)
                with mpmath.workdps(50):
                    star = -tau / mpmath.mpf(sigma)
                    ratio = (kappa_a - star) / (mpmath.mpf(a) * star**2)
                    assert 0 < ratio + mpmath.mpf(4) / 3 <= 1.56 * a * star, \
                        (sigma, tau, a, float(ratio))

    @pytest.mark.parametrize("family", SCHEDULE_FAMILIES)
    @pytest.mark.parametrize("sigma, tau", [(-4.0, 2), (-1.5, 3)])
    def test_sweep_refuses_a_scale_free_band(self, family, sigma, tau):
        # the Robin sector (beta, n) of both families: kappa_a (1 +- 1e-10)
        # is refused and kappa_a (1 +- 1e-9) accepted at each a; there the
        # norm is eps over the distance to the pole, measured within
        # 3.24e-7 of the 50-digit transfer.  The Krein-form guard this
        # replaced accepted 1e-10 at a = 1e-2 and refused 1e-9 at a = 1e-6
        for a in (1e-2, 1e-4, 1e-6):
            kappa_a = float(approximant_bound_state(sigma, tau, a,
                                                    -tau / sigma))
            for offset in (1e-10, -1e-10, 1e-9, -1e-9):
                kappa = kappa_a * (1.0 + offset)
                stage, = convergence_sweep(family, sigma, tau, kappa, [a],
                                           GRID).stages
                if abs(offset) < 1e-9:
                    assert not stage.valid
                    assert stage.error.startswith("approximant pole"), \
                        stage.error
                    continue
                assert stage.valid, (a, offset, stage.error)
                got = stage.norm_sym if family == "delta_prime_s" \
                    else stage.norm_comp
                with mpmath.workdps(50):
                    k, a_mp = mpmath.mpf(kappa), mpmath.mpf(a)
                    want = abs(_mp_transfer_shift(sigma, tau, kappa, a)) \
                        * mpmath.exp(-2 * k * a_mp) \
                        * -mpmath.expm1(-2 * k * (GRID.L - a_mp)) / (4 * k**2)
                assert abs(got - want) <= 4e-7 * want, \
                    (a, offset, got, float(want))


# ======================================================================
#  the log-log fit
# ======================================================================

def _mp_line(xs, ys):
    """(slope, intercept) of the least-squares line through the points at
    50 digits."""
    with mpmath.workdps(50):
        xs, ys = [mpmath.mpf(x) for x in xs], [mpmath.mpf(y) for y in ys]
        x_mean, y_mean = sum(xs) / len(xs), sum(ys) / len(ys)
        slope = sum((x - x_mean) * (y - y_mean) for x, y in zip(xs, ys)) \
            / sum((x - x_mean) ** 2 for x in xs)
        return slope, y_mean - slope * x_mean


class TestSlopeFit:
    @pytest.mark.parametrize("family", SCHEDULE_FAMILIES)
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_fit_matches_mpmath(self, family, n):
        # 40 seeded sweeps of 2 to 5 distances in [1e-6, 0.3] at random beta
        # and kappa, against the 50-digit line through the same logs of the
        # last three valid stages.  Worst over these 400 sweeps and 16000
        # more of other seeds: slope 5.1e-16, intercept 6.3e-15 relative
        # (np.polyfit on the same logs: 5.7e-13 and 7.7e-12)
        rng = np.random.default_rng([SCHEDULE_FAMILIES.index(family), n])
        fits = {2: 0, 3: 0}
        for _ in range(40):
            a_list = sorted(10.0 ** rng.uniform(-6.0, -0.5,
                                                int(rng.integers(2, 6))))[::-1]
            beta, kappa = rng.uniform(-3.0, 3.0), rng.uniform(0.5, 2.0)
            rep = convergence_sweep(family, float(beta), n, float(kappa),
                                    [float(a) for a in a_list], GRID)
            tail = [s for s in rep.stages if s.valid][-3:]
            assert len(tail) >= 2 and all(s.norm_total > 0.0 for s in tail)
            fits[len(tail)] += 1
            slope, intercept = _mp_line([math.log(s.a) for s in tail],
                                        [math.log(s.norm_total)
                                         for s in tail])
            assert abs(rep.fitted_slope - slope) <= 1e-15 * abs(slope)
            assert abs(rep.fitted_intercept - intercept) \
                <= 1.5e-14 * max(abs(intercept), 1.0)
        assert fits[2] > 0 and fits[3] > 0

    def test_invalid_stages_are_left_out(self):
        # the base Robin pole at a = 0.1 leaves the fit to the other three
        rep = convergence_sweep("delta_prime_s", 0.02, 2, KAPPA,
                                [0.1, 1e-2, 1e-3, 1e-4], GRID)
        assert [s.valid for s in rep.stages] == [False, True, True, True]
        ref = convergence_sweep("delta_prime_s", 0.02, 2, KAPPA,
                                [1e-2, 1e-3, 1e-4], GRID)
        assert (rep.fitted_slope, rep.fitted_intercept) \
            == (ref.fitted_slope, ref.fitted_intercept)


# ======================================================================
#  closed-form stage norms
# ======================================================================

def _krein_pole_beta(n, a):
    """beta where 1 + c G(a, a) of the scheduled Robin base of a
    delta_prime_s sweep at KAPPA vanishes at distance a, found with the
    50-digit Krein form."""
    def krein(beta):
        b = -beta / (n * a * a)
        refl = (KAPPA - b) / (KAPPA + b)
        return a - (1 + refl * mpmath.exp(-2 * KAPPA * a)) / (2 * KAPPA)

    with mpmath.workdps(50):
        return float(mpmath.findroot(krein, -1.75))


def _mp_sector_norms(family, beta, n, kappa, a, length):
    """(norm_sym, norm_comp) of one stage from the Krein form of K(a) at
    50 digits, with the reflection constants built from beta, n and a."""
    with mpmath.workdps(50):
        kappa, a, beta = mpmath.mpf(kappa), mpmath.mpf(a), mpmath.mpf(beta)
        b = -beta / (n * a * a)
        robin = ((kappa - b) / (kappa + b),
                 (beta * kappa - n) / (beta * kappa + n))
        dirichlet = (-1, 1)
        pairs = (robin, dirichlet) if family == "delta_prime_s" \
            else (dirichlet, robin)
        return tuple(expected_norm(r_base, r_target, a, -1 / a, kappa,
                                   mpmath.mpf(length), exp=mpmath.exp)
                     for r_base, r_target in pairs)


class TestClosedFormNorms:
    @pytest.mark.parametrize("family", SCHEDULE_FAMILIES)
    @pytest.mark.parametrize("n", [1, 2, 3, 5])
    def test_stage_norms_match_mpmath(self, family, n):
        # 0.26 and 0.24 put kappa a on both sides of the switch from the
        # series to the direct form of x cosh x - sinh x (at x = 1/2)
        a_list = [0.26, 0.24, 1e-1, 1e-2, 1e-3, 1e-4, 1e-5, 1e-6]
        for beta in (1.0, -0.5, 0.0, 0.3, 3.0):
            for kappa in (0.5, 1.0, 2.0):
                if n + beta * kappa == 0.0:
                    continue  # the target pole
                rep = convergence_sweep(family, beta, n, kappa, a_list, GRID)
                for stage in rep.stages:
                    assert stage.valid, stage.error
                    lead, rest = _mp_sector_norms(family, beta, n, kappa,
                                                  stage.a, GRID.L)
                    if n == 1:
                        rest = mpmath.mpf(0)
                    total = mpmath.sqrt(lead**2 + (n - 1) * rest**2)
                    for got, want in ((stage.norm_sym, lead),
                                      (stage.norm_comp, rest),
                                      (stage.norm_total, total)):
                        assert abs(got - want) <= 1e-12 * abs(want), \
                            (beta, kappa, stage.a, got, float(want))

    def test_large_kappa_a_stays_finite(self):
        # e^{2 kappa a} alone would overflow; the norms are ~1e-200 here
        rep = convergence_sweep("delta_prime", 1.0, 3, 100.0, [3.0, 2.0],
                                GRID)
        for stage in rep.stages:
            lead, rest = _mp_sector_norms("delta_prime", 1.0, 3, 100.0,
                                          stage.a, GRID.L)
            assert stage.norm_sym == pytest.approx(float(lead), rel=1e-12)
            assert stage.norm_comp == pytest.approx(float(rest), rel=1e-12)

    @pytest.mark.parametrize("family", SCHEDULE_FAMILIES)
    def test_report_does_not_depend_on_node_count(self, family):
        args = (family, -0.5, 3, KAPPA, [1e-1, 1e-2, 1e-3])
        assert convergence_sweep(*args, GridSpec(12.0, 200)) \
            == convergence_sweep(*args, GridSpec(12.0, 1600))

    @pytest.mark.parametrize("family", SCHEDULE_FAMILIES)
    @pytest.mark.parametrize("beta", [1.0, -0.5, 0.0])
    def test_stage_norms_match_quadrature_oracle(self, family, beta):
        n, grid = 3, GridSpec(12.0, 801)
        rep = convergence_sweep(family, beta, n, KAPPA, [1e-1, 1e-3], grid)
        for stage in rep.stages:
            st = schedule(family, beta, n, stage.a)
            targets = sector_decompose(family, n, beta)
            approxs = sector_decompose(*approximant_model(st))
            quad = [hs_norm(sector_difference(t, s, KAPPA, st.a, grid))
                    for t, s in zip(targets, approxs)]
            assert stage.norm_sym == pytest.approx(quad[0], rel=1e-3)
            assert stage.norm_comp == pytest.approx(quad[1], rel=1e-3)

    def test_krein_pole_marks_stage_invalid(self):
        a, n = 0.1, 2
        rep = convergence_sweep("delta_prime_s", _krein_pole_beta(n, a), n,
                                KAPPA, [a, 1e-2], GRID)
        assert not rep.stages[0].valid
        assert rep.stages[0].error.startswith("approximant pole: kappa Q + P")
        assert rep.stages[1].valid

    @pytest.mark.parametrize("kappa, a", [(KAPPA, 0.1), (1e4, 0.26),
                                          (1e4, 1e-3)])
    def test_base_robin_pole_marks_stage_invalid(self, kappa, a):
        # beta = kappa n a^2 puts the scheduled Robin base at b = -kappa.
        # The base kernel is never evaluated, but P and Q cancel there:
        # without the base test the stage at kappa a = 10 was valid and
        # 6.4e-7 off, and at kappa a = 2600 P = Q = 0
        n = 2
        rep = convergence_sweep("delta_prime_s", kappa * n * a * a, n, kappa,
                                [a, a / 10], GRID)
        assert not rep.stages[0].valid
        assert "Robin kernel pole" in rep.stages[0].error
        assert rep.stages[1].valid

    @pytest.mark.parametrize("family, n, beta", [
        ("delta_prime", 3, 1.0), ("delta_prime", 2, -0.7),
        ("delta_prime_s", 2, 1.0), ("delta_prime_s", 3, 1e3)])
    def test_dirichlet_base_at_large_kappa_is_valid(self, family, n, beta):
        # the guard |p kappa + q| < tol hypot(p, q) hypot(1, kappa) is not
        # scale-free for p = 0: the Dirichlet base of the (1, 0) sector
        # tripped it for kappa above about 1e10, and every stage here was
        # invalid; the kernels' Jost test |p kappa + q| < tol (|p| kappa +
        # |q|) does not trip.  Where kappa a <= 1e3 the sector norms match
        # the 50-digit transfer to 2.8e-13 measured
        kappa, grid = 1e12, GridSpec(12.0, 100)
        rep = convergence_sweep(family, beta, n, kappa,
                                [0.1, 1e-3, *(10.0 ** -e for e in
                                              range(9, 17))], grid)
        assert all(s.valid for s in rep.stages), rep.stages
        pairs = [(beta, float(n)), (1.0, 0.0)]
        if family == "delta_prime":
            pairs.reverse()
        for stage in rep.stages:
            assert all(math.isfinite(v) and v > 0.0 for v in (
                stage.norm_sym, stage.norm_comp, stage.norm_total))
            if kappa * stage.a > 1e3:
                continue
            for got, (sigma, tau) in zip((stage.norm_sym, stage.norm_comp),
                                         pairs):
                with mpmath.workdps(50):
                    k, a = mpmath.mpf(kappa), mpmath.mpf(stage.a)
                    d_r = _mp_transfer_shift(sigma, tau, kappa, stage.a)
                    want = abs(d_r) * mpmath.exp(-2 * k * a) \
                        * -mpmath.expm1(-2 * k * (grid.L - a)) / (4 * k**2)
                assert abs(got - want) <= 5e-13 * want, \
                    (stage.a, sigma, tau, got, float(want))

    @pytest.mark.parametrize("kappa", [0.5, 1.0, 2.0])
    @pytest.mark.parametrize("factor", [0.5, 2.0])
    @pytest.mark.parametrize("side", [-1.0, 1.0])
    def test_pole_guard_is_one_plus_s_guard_on_one_edge(self, kappa, factor,
                                                        side):
        # U = e^{i theta} is p psi'(0) = q psi(0) with (p, q) = (cos theta/2,
        # -sin theta/2), and |p kappa + q| = hypot(1, kappa) |sin(phi0 -
        # theta/2)| with kappa = tan(phi0); the guard trips for |sin| below
        # ROBIN_POLE_TOL, so theta sits at 0.5 and 2 times that distance
        theta = 2.0 * (math.atan(kappa)
                       + side * math.asin(factor * ROBIN_POLE_TOL))
        u = VertexCoupling.custom([[complex(math.cos(theta),
                                            math.sin(theta))]])
        try:
            one_plus_s_sectors(u.eigenphases, 1j * kappa, ROBIN_POLE_TOL)
            kernel_trips = False
        except PoleError:
            kernel_trips = True
        sweep_trips = _robin_pole(math.cos(theta / 2), -math.sin(theta / 2),
                                  kappa)
        assert sweep_trips == kernel_trips == (factor < 1.0)

    @pytest.mark.parametrize("family", SCHEDULE_FAMILIES)
    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize("kappa, a", [
        (kappa, a) for kappa in (0.5, 1.0, 2.0)
        for a in (0.26, 0.24, 1e-1, 1e-2, 1e-3, 1e-4, 1e-5, 1e-6)])
    def test_stages_next_to_the_target_pole_are_valid(self, family, n, kappa,
                                                      a):
        # beta = -(n / kappa)(1 + eps) leaves |n + beta kappa| = n eps, far
        # above the scale-free guard; the norms are large but exact
        for eps in (1e-8, 1e-9):
            beta = -(n / kappa) * (1.0 + eps)
            stage, = convergence_sweep(family, beta, n, kappa, [a],
                                       GRID).stages
            assert stage.valid, stage.error
            lead, rest = _mp_sector_norms(family, beta, n, kappa, a, GRID.L)
            total = mpmath.sqrt(lead**2 + (n - 1) * rest**2)
            for got, want in ((stage.norm_sym, lead),
                              (stage.norm_comp, rest),
                              (stage.norm_total, total)):
                assert abs(got - want) <= 1e-6 * abs(want), \
                    (eps, got, float(want))

    @pytest.mark.parametrize("kappa", [0.0, -1.0, math.nan, math.inf])
    def test_rejects_bad_kappa(self, kappa):
        with pytest.raises(ValueError):
            convergence_sweep("delta_prime_s", 1.0, 2, kappa, [1e-2, 1e-3],
                              GRID)

    @pytest.mark.parametrize("beta", [math.nan, math.inf, -math.inf])
    def test_rejects_nonfinite_beta(self, beta):
        for family in SCHEDULE_FAMILIES:
            with pytest.raises(ValueError):
                convergence_sweep(family, beta, 2, KAPPA, [1e-2, 1e-3], GRID)
            with pytest.raises(ValueError):
                schedule(family, beta, 2, 1e-2)

    @pytest.mark.parametrize("beta", [True, False, np.True_],
                             ids=["True", "False", "np.True_"])
    def test_rejects_bool_beta(self, beta):
        # a bool was read as beta = 1 (or 0)
        for family in SCHEDULE_FAMILIES:
            with pytest.raises(ValueError, match="bool"):
                convergence_sweep(family, beta, 2, KAPPA, [1e-2, 1e-3], GRID)
            with pytest.raises(ValueError, match="bool"):
                schedule(family, beta, 2, 1e-2)

    @pytest.mark.parametrize("args", [(math.nan, -10.0, 0.1),
                                      (1.0, math.nan, 0.1),
                                      (math.inf, -10.0, 0.1),
                                      (1.0, -10.0, math.inf)])
    def test_effective_robin_rejects_nonfinite(self, args):
        with pytest.raises(ValueError):
            effective_robin(*args)

    @pytest.mark.parametrize("a_list", [[20.0, 1e-2], [12.0], [1e-2, 0.0],
                                        [1e-2, -1e-3]])
    def test_rejects_window_start_outside_grid(self, a_list):
        with pytest.raises(ValueError):
            convergence_sweep("delta_prime_s", 1.0, 2, KAPPA, a_list, GRID)


# ======================================================================
#  n = 2 is the line
# ======================================================================

def _gauss_legendre(nodes, lo, hi):
    """(x, w) of the nodes-point Gauss-Legendre rule on [lo, hi]: each
    node Newton-refined at 50 digits from numpy's, then rounded to a
    double (line_green takes doubles), and its weight 2 / ((1 - t^2)
    P_n'(t)^2) kept in mpmath, so the rule carries no rounding of
    numpy's weights."""
    rule = []
    with mpmath.workdps(50):
        for t in np.polynomial.legendre.leggauss(nodes)[0]:
            t = mpmath.mpf(t)
            for _ in range(4):
                dp = nodes * (t * mpmath.legendre(nodes, t)
                              - mpmath.legendre(nodes - 1, t)) / (t * t - 1)
                t -= mpmath.legendre(nodes, t) / dp
            rule.append((float(lo + (hi - lo) * (1 + t) / 2),
                         (hi - lo) / ((1 - t * t) * dp * dp)))
    return rule


class TestLineOracleNorm:
    """At n = 2 a stage's window norm is a double integral of line kernels
    (ROADMAP item 25): edge 0 is the line's x < 0 and edge 1 its x > 0,
    the delta_prime_s approximant is the line's three deltas (-a, -1/a),
    (0, -beta / a^2), (a, -1/a) (oracles.line_green) and its target the
    line delta' kernel across the origin with the sign flipped
    (oracles.line_delta_prime).  norm_total^2 is the sum over the four
    edge pairs of the squared difference integrated over [a, L]^2, here
    by a 20-point Gauss-Legendre product rule.  The delta_prime
    approximant and target are both the gauge image (psi -> -psi on
    x < 0) of these, which flips the sign of both kernels across the
    edges and leaves the square alone: both families meet the one sum.
    The strengths reach line_green exact at 50 digits: their doubles
    detune c a = -1 and open gaps of 5.7e-15, 6.6e-7 and 1.0e-11 in the
    three cases below."""

    # relative gaps measured: 1.1e-16 (beta = 1, kappa = 1, a = 1e-1),
    # 3.2e-16 (1, 1, 1e-5) and 1.8e-16 (-0.7, 0.5, 1e-3); the 20-point
    # rule is exact to 6e-17 for e^{-2 kappa (x + y)} on [a, 12]^2 at
    # kappa <= 1 (16 points: 4e-14)
    @pytest.mark.parametrize("beta, kappa, a", [(1.0, 1.0, 1e-1),
                                                (1.0, 1.0, 1e-5),
                                                (-0.7, 0.5, 1e-3)])
    def test_stage_norm_is_the_line_integral(self, beta, kappa, a):
        rule = _gauss_legendre(20, mpmath.mpf(a), mpmath.mpf(GRID.L))
        with mpmath.workdps(50):
            satellite = -1 / mpmath.mpf(a)
            deltas = [(-a, satellite), (0.0, -beta * satellite**2),
                      (a, satellite)]
            want = mpmath.mpf(0)
            for j in (0, 1):
                for l in (0, 1):
                    side = -1.0 if j != l else 1.0
                    for x, wx in rule:
                        for y, wy in rule:
                            diff = line_green(deltas, kappa, x if j else -x,
                                              y if l else -y) \
                                - side * line_delta_prime(beta, kappa, j, x,
                                                          l, y)
                            want += wx * wy * diff**2
        for family in SCHEDULE_FAMILIES:
            stage, = convergence_sweep(family, beta, 2, kappa, [a],
                                       GRID).stages
            gap = abs(stage.norm_total**2 - want) / want
            assert gap <= 7e-16, (family, float(gap))


# ======================================================================
#  the trace of the resolvent difference
# ======================================================================

#: 16-point Gauss-Legendre nodes and weights on [0, 1]
_T16, _W16 = np.polynomial.legendre.leggauss(16)
_T16, _W16 = ((_T16 + 1.0) / 2.0).tolist(), (_W16 / 2.0).tolist()


def _jost_side(model, kappa):
    """sum_k m_k jost_trace over the eigenphase groups (c, s, m) of a
    star's coupling, each the half line c psi'(0) = -s psi(0) with the
    model's points, at 40 digits."""
    coupling, points = model
    deltas = [(p.a, p.c) for p in points]
    with mpmath.workdps(40):
        return sum(m * jost_trace(c, -s, deltas, kappa)
                   for c, s, m in coupling.eigenphases.groups)


def _kernel_side(approx, target, n, kappa, a):
    """sum_j of the integral over (0, inf) of [approx - target](j, x, j,
    x) by star_green: 16-point Gauss-Legendre on [0, a], and on (a, inf)
    in t = e^{-2 kappa (x - a)}, where the difference is the reflected
    term (R_a - R) e^{-2 kappa x} / (2 kappa) of two kernels, constant in
    t."""
    def diagonal(x):
        return sum(star_green(approx, kappa, j, x, j, x)
                   - star_green(target, kappa, j, x, j, x)
                   for j in range(n))

    inner = a * sum(w * diagonal(a * t) for t, w in zip(_T16, _W16))
    outer = sum(w * diagonal(a - math.log(t) / (2.0 * kappa))
                / (2.0 * kappa * t) for t, w in zip(_T16, _W16))
    return inner + outer


class TestResolventTrace:
    """The trace of R_a - R, the approximant's resolvent minus the
    target's at energy -kappa^2, two ways (ROADMAP item 31): per
    eigenphase group k, tr_k = integral over (0, inf) of (G_a - G)(x, x)
    = (1 / (2 kappa)) d/dkappa log(J_{a,k} / J_k), the Jost functions of
    the two half lines (oracles.jost_trace), and the star's trace is
    sum_k m_k tr_k."""

    # relative gaps measured at 40 digits: at most 1.1e-37 at a = 1e-1
    # and 1.2e-34 at a = 1e-2 (the loss grows like 1/a^2)
    @pytest.mark.parametrize("sigma, tau", [(1, 2), (1, 0), (-0.7, 2)])
    def test_sector_identity(self, sigma, tau):
        # target tau psi(0) = sigma psi'(0); approximant the base
        # tau a^2 psi'(0) = -sigma psi(0) plus c = -1/a, exact, at a
        for kappa in (0.5, 1.0, 2.0):
            for a, bound in ((1e-1, 1e-36), (1e-2, 1e-33)):
                a_ = mpmath.mpf(a)
                target = (sigma, tau, [])
                approx = (tau * a_**2, -sigma, [(a, -1 / a_)])
                sides = [diagonal_trace(*approx, kappa),
                         diagonal_trace(*target, kappa),
                         jost_trace(*approx, kappa),
                         jost_trace(*target, kappa)]
                with mpmath.workdps(40):
                    integral = sides[0] - sides[1]
                    jost = sides[2] - sides[3]
                    assert abs(integral - jost) <= bound * abs(jost), \
                        (kappa, a)

    # relative gaps measured: at most 1.4e-13 at a = 1e-1 and 8.5e-12 at
    # a = 1e-2, the rounding of the package kernels in the boundary layer
    # (the quadrature is exact to rounding: 8 and 32 nodes scatter alike)
    @pytest.mark.parametrize("family", SCHEDULE_FAMILIES)
    def test_package_kernel_diagonal(self, family):
        for n in (1, 2, 3):
            for beta in (1.0, -0.7):
                for kappa in (0.5, 1.0):
                    for a, bound in ((1e-1, 5e-13), (1e-2, 3e-11)):
                        kind, _, b, point = approximant_model(
                            schedule(family, beta, n, a))
                        approx = StarModel(n=n, kind=kind, b=b, point=point)
                        target = StarModel(n=n, kind=family, beta=beta)
                        want = float(_jost_side(approx, kappa)
                                     - _jost_side(target, kappa))
                        got = _kernel_side(approx, target, n, kappa, a)
                        assert abs(got - want) <= bound * abs(want), \
                            (n, beta, kappa, a)


# ======================================================================
#  the sweep's stage loop
# ======================================================================

#: distances from 0.26 down to 1e-6, strictly decreasing
LOOP_A = [0.26, 0.1, 3e-2, 1e-2, 3e-3, 1e-3, 1e-4, 1e-5, 1e-6]


class TestStageLoop:
    """convergence_sweep runs its stages as one loop that builds no
    ApproximationStage; these tests hold it to schedule() and to
    constructed records."""

    @pytest.mark.parametrize("family", SCHEDULE_FAMILIES)
    @pytest.mark.parametrize("n", range(1, 7))
    def test_strengths_are_schedules_bit_for_bit(self, family, n):
        for beta in (0.0, 2, 0.3, 3.0, -n / KAPPA):
            rep = convergence_sweep(family, beta, n, KAPPA, LOOP_A, GRID)
            for stage in rep.stages:
                st = schedule(family, beta, n, stage.a)
                # repr tells -0.0 from 0.0 and np.float64 from float
                assert [repr(v) for v in (stage.b, stage.c,
                                          stage.per_channel_b)] \
                    == [repr(v) for v in (st.b, st.c, st.per_channel_b)]

    def test_sweep_builds_no_approximation_stage(self, monkeypatch):
        cases = [
            ("delta_prime", 0.8, 3, [1e-1, 3e-2, 1e-2]),        # valid
            ("delta_prime_s", -2.0, 2, [1e-2, 1e-3]),         # target pole
            ("delta_prime_s", 0.02, 2, [0.1, 1e-2]),          # base pole
            ("delta_prime_s", _krein_pole_beta(2, 0.1), 2,    # Krein pole
             [0.1, 1e-2])]
        want = [convergence_sweep(family, beta, n, KAPPA, a_list, GRID)
                for family, beta, n, a_list in cases]
        assert [s.error.split(":")[0] for s in
                (want[1].stages[0], want[2].stages[0], want[3].stages[0])] \
            == ["target sector pole", "Robin kernel pole",
                "approximant pole"]

        def refuse(*args, **kwargs):
            raise AssertionError("the sweep built an ApproximationStage")

        monkeypatch.setattr(convergence, "ApproximationStage", refuse)
        for (family, beta, n, a_list), report in zip(cases, want):
            got = convergence_sweep(family, beta, n, KAPPA, a_list, GRID)
            assert repr(got) == repr(report)

    def test_schedule_checks_its_inputs_once(self, monkeypatch):
        want = schedule("delta_prime", 0.8, 3, 0.1)
        # the stage is a NamedTuple: one made by hand from its fields
        # equals, hashes and prints as the scheduled one, and is frozen
        made = ApproximationStage(**want._asdict())
        assert made == want and hash(made) == hash(want)
        assert repr(made) == repr(want)
        with pytest.raises(AttributeError):
            want.a = 0.2

        checks = []
        check = convergence._check_schedule
        monkeypatch.setattr(convergence, "_check_schedule",
                            lambda *args: checks.append(args) or check(*args))
        for family in SCHEDULE_FAMILIES:
            for beta, n, a in ((0.8, 3, 0.1), (0.0, 1, 1e-6), (-2, 5, 0.3)):
                checks.clear()
                got = schedule(family, beta, n, a)
                assert checks == [(family, beta, n)]
                assert type(got) is ApproximationStage
        assert repr(schedule("delta_prime", 0.8, 3, 0.1)) == repr(want)

    @pytest.mark.parametrize("scalar", [np.float32, np.float64])
    def test_numpy_beta_and_kappa_run_in_doubles(self, scalar):
        # an np.float32 beta failed schedule()'s own stage check, and the
        # sweep computed its strengths and norms in float32
        for family in SCHEDULE_FAMILIES:
            beta = scalar(0.3)
            assert repr(schedule(family, beta, 3, 0.1)) \
                == repr(schedule(family, float(beta), 3, 0.1))
            got = convergence_sweep(family, beta, 3, scalar(1.5),
                                    [0.1, 0.01], GRID)
            assert repr(got) == repr(convergence_sweep(
                family, float(beta), 3, 1.5, [0.1, 0.01], GRID))

    def test_records_behave_like_constructed_ones(self):
        rep = convergence_sweep("delta_prime", 0.8, 3, 1.2,
                                [1e-1, 3e-2, 1e-2], GRID)
        twin_stages = tuple(StageResult(**s._asdict()) for s in rep.stages)
        twin = ConvergenceReport(**rep._asdict() | {"stages": twin_stages})
        for built, made in ((rep.stages[0], twin_stages[0]), (rep, twin)):
            assert type(built) is type(made)
            assert built == made and hash(built) == hash(made)
            assert repr(built) == repr(made)
            assert built._fields == made._fields
            assert built._asdict() == made._asdict()
            assert built._replace() == built
            with pytest.raises(AttributeError):
                setattr(built, built._fields[0], 2.0)
        changed = rep.stages[0]._replace(norm_total=1.0)
        assert changed != rep.stages[0] and changed.norm_total == 1.0

    def test_a_sweep_enters_few_frames(self):
        # a five-stage sweep entered 76 Python frames: _number behind each
        # _scale, comprehensions and generators (whose frames differ
        # between Python versions), a _robin_pole per base, _f_scaled and
        # a keyword __new__ per record; now 29, with none of those
        args = ("delta_prime_s", 1.0, 3, KAPPA, [1e-1, 1e-2, 1e-3, 1e-4, 1e-5],
                GRID)
        convergence_sweep(*args)
        calls = collections.Counter()

        def count(frame, event, arg):
            if event == "call":
                calls[frame.f_code.co_name] += 1

        old = sys.getprofile()
        sys.setprofile(count)
        try:
            convergence_sweep(*args)
        finally:
            sys.setprofile(old)
        assert sum(calls.values()) <= 36, calls
        assert not [name for name in calls if name.startswith("<")], calls

    @pytest.mark.parametrize("a", [True, np.True_, "0.1", 0.1 + 0j],
                             ids=["True", "np.True_", "str", "complex"])
    def test_a_distance_is_a_real_number(self, a):
        # True and np.True_ ran at a = 1.0 and "0.1" at a = 0.1
        for family in SCHEDULE_FAMILIES:
            with pytest.raises(ValueError, match="real number"):
                convergence_sweep(family, 1.0, 2, KAPPA, [a], GRID)
            with pytest.raises(ValueError, match="real number"):
                convergence_sweep(family, 1.0, 2, KAPPA, [0.2, a, 1e-3],
                                  GRID)
            with pytest.raises(ValueError, match="real number"):
                schedule(family, 1.0, 2, a)

    def test_numpy_distances_give_float_strengths(self):
        st = schedule("delta_prime", 0.7, 3, np.float64(0.3))
        assert all(type(v) is float for v in (st.a, st.b, st.c,
                                              st.per_channel_b))
        rep = convergence_sweep("delta_prime", 0.7, 3, KAPPA,
                                np.array([0.3, 0.03]), GRID)
        assert repr(rep) == repr(convergence_sweep(
            "delta_prime", 0.7, 3, KAPPA, [0.3, 0.03], GRID))
