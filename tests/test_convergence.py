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
expected_norm in conftest.py) and compare the sampled quadrature against
it.  convergence_sweep evaluates this norm in a cancellation-free closed
form of its own; TestClosedFormNorms gates it against the same K(a)
evaluated with 50-digit mpmath, and against the sampled quadrature.
"""

import math

import mpmath
import numpy as np
import pytest

from conftest import expected_norm
from starcouplings import (GridSpec, HalflineBC, PointInteraction, PoleError,
                           SampledDifference, StarModel, approximant_model,
                           convergence_sweep, effective_robin, halfline_green,
                           hs_norm, krein_insert, schedule, sector_decompose,
                           sector_difference, sector_green, target_model)
from starcouplings.convergence import SCHEDULE_FAMILIES

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
        target = sector_decompose(StarModel.delta_prime_s(2, 1.0))[0]
        diff = sector_difference(target, target, KAPPA, 0.05, GRID)
        assert np.max(np.abs(diff.values)) == 0.0

    def test_window_starts_at_satellite(self):
        st = schedule("delta_prime_s", 1.0, 2, 0.01)
        targets = sector_decompose(target_model("delta_prime_s", 2, 1.0))
        approxs = sector_decompose(approximant_model(st))
        diff = sector_difference(targets[0], approxs[0], KAPPA, st.a, GRID)
        assert diff.x[0] == st.a
        assert diff.x[-1] == GRID.L
        assert np.all(np.diff(diff.x) > 0)

    def test_incompatible_multiplicities_rejected(self):
        sectors = sector_decompose(StarModel.delta_prime_s(3, 1.0))
        with pytest.raises(ValueError):
            sector_difference(sectors[0], sectors[1], KAPPA, 0.01, GRID)

    def test_pointwise_values_match_library_kernels(self):
        st = schedule("delta_prime_s", 1.0, 2, 0.05)
        targets = sector_decompose(target_model("delta_prime_s", 2, 1.0))
        approxs = sector_decompose(approximant_model(st))
        diff = sector_difference(targets[1], approxs[1], KAPPA, st.a, GRID)
        i, j = 5, 17
        expected = krein_insert(approxs[1].bc, approxs[1].point, KAPPA,
                                diff.x[i], diff.x[j]) \
            - halfline_green(targets[1].bc, KAPPA, diff.x[i], diff.x[j])
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
        x = GRID.boundary_nodes()
        vals = np.exp(-x)[:, None] * np.exp(-x)[None, :]
        norm = hs_norm(SampledDifference(x, vals))
        exact = (1.0 - math.exp(-24.0)) / 2.0
        assert abs(norm**2 - exact**2) < 2e-4
        assert abs(norm - exact) < 2e-4

    def test_quadrature_error_is_second_order(self):
        exact = (1.0 - math.exp(-24.0)) / 2.0
        errs = []
        for grid in (GRID, GridSpec(12.0, 801)):
            x = grid.boundary_nodes()
            vals = np.exp(-x)[:, None] * np.exp(-x)[None, :]
            errs.append(abs(hs_norm(SampledDifference(x, vals)) - exact))
        assert 3.0 <= errs[0] / errs[1] <= 5.0

    def test_refinement_changes_result_little(self):
        st = schedule("delta_prime_s", 1.0, 2, 0.01)
        targets = sector_decompose(target_model("delta_prime_s", 2, 1.0))
        approxs = sector_decompose(approximant_model(st))
        norms = []
        for grid in (GRID, GridSpec(12.0, 801)):
            diff = sector_difference(targets[0], approxs[0], KAPPA, st.a, grid)
            norms.append(hs_norm(diff))
        assert abs(norms[0] - norms[1]) < 5e-4 * norms[1]

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            SampledDifference(np.linspace(0, 1, 5), np.zeros((4, 4)))


# ======================================================================
#  pointwise limits of the decorated kernels
# ======================================================================

class TestPointwiseLimits:
    def test_dirichlet_wall_turns_neumann(self):
        # |decorated - target| < 10 a e^{-kappa(x+y)} on [0.5, 5]^2
        bc = HalflineBC.dirichlet()
        target = HalflineBC.neumann()
        pts = np.linspace(0.5, 5.0, 12)
        xg, yg = pts[:, None], pts[None, :]
        envelope = 10.0 * np.exp(-KAPPA * (xg + yg))
        for a in (0.01, 0.003, 0.001):
            point = PointInteraction(a=a, c=-1.0 / a)
            diff = np.abs(krein_insert(bc, point, KAPPA, xg, yg)
                          - halfline_green(target, KAPPA, xg, yg))
            assert np.all(diff < a * envelope)

    def test_scheduled_robin_turns_robin_scaled(self):
        beta, n = 1.0, 2
        target = HalflineBC.robin_scaled(n, beta)
        pts = np.linspace(0.5, 5.0, 12)
        xg, yg = pts[:, None], pts[None, :]
        envelope = 10.0 * np.exp(-KAPPA * (xg + yg))
        for a in (0.01, 0.003, 0.001):
            st = schedule("delta_prime_s", beta, n, a)
            bc = HalflineBC.robin(st.per_channel_b)
            point = PointInteraction(a=a, c=st.c)
            diff = np.abs(krein_insert(bc, point, KAPPA, xg, yg)
                          - halfline_green(target, KAPPA, xg, yg))
            assert np.all(diff < a * envelope)

    def test_symmetric_sector_difference_shrinks_linearly(self):
        beta, n = 1.0, 2
        target = HalflineBC.robin_scaled(n, beta)
        vals = []
        for a in (0.1, 0.01, 0.001):
            st = schedule("delta_prime_s", beta, n, a)
            bc = HalflineBC.robin(st.per_channel_b)
            point = PointInteraction(a=a, c=st.c)
            vals.append(abs(krein_insert(bc, point, KAPPA, 1.0, 1.0)
                            - halfline_green(target, KAPPA, 1.0, 1.0)))
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
            targets = sector_decompose(target_model("delta_prime_s", n, beta))
            approxs = sector_decompose(approximant_model(st))
            got = hs_norm(sector_difference(targets[0], approxs[0], KAPPA,
                                            st.a, GRID))
            r_base = HalflineBC.robin(st.per_channel_b).reflection(KAPPA)
            r_target = HalflineBC.robin_scaled(n, beta).reflection(KAPPA)
            want = expected_norm(r_base, r_target, a, st.c, KAPPA, GRID.L)
            assert got == pytest.approx(want, rel=1e-3)

    def test_complement_sector_norm(self):
        a = 0.003
        st = schedule("delta_prime_s", 1.0, 2, a)
        targets = sector_decompose(target_model("delta_prime_s", 2, 1.0))
        approxs = sector_decompose(approximant_model(st))
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
        t_model = target_model("delta_prime_s", n, beta)
        a_model = approximant_model(st)
        grid = GridSpec(12.0, 120)
        targets = sector_decompose(t_model)
        approxs = sector_decompose(a_model)
        lead_diff = sector_difference(targets[0], approxs[0], KAPPA, a, grid)
        rest_diff = sector_difference(targets[1], approxs[1], KAPPA, a, grid)
        nodes = lead_diff.x
        xg, yg = nodes[:, None], nodes[None, :]
        total_sq = 0.0
        for j in range(n):
            for l in range(n):
                d = star_green(a_model, KAPPA, j, xg, l, yg) \
                    - star_green(t_model, KAPPA, j, xg, l, yg)
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
        targets = sector_decompose(target_model("delta_prime_s", n, beta))
        approxs = sector_decompose(approximant_model(st))
        nodes = np.concatenate(([a], np.arange(0.296, 11.3, 0.2)))
        nodes = np.array([grid.nodes()[grid.node_index(v)] for v in nodes])
        fd_total_sq = 0.0
        ana_total_sq = 0.0
        for t_sec, a_sec, mult in [(targets[0], approxs[0], 1),
                                   (targets[1], approxs[1], n - 1)]:
            fd_target = fd_resolvent_halfline(t_sec.bc, [], KAPPA, grid)
            fd_approx = fd_resolvent_halfline(a_sec.bc, [a_sec.point], KAPPA,
                                              grid)
            fd_vals = np.array([[fd_approx.value(x, y) - fd_target.value(x, y)
                                 for y in nodes] for x in nodes])
            xg, yg = nodes[:, None], nodes[None, :]
            ana_vals = sector_green(a_sec, KAPPA, xg, yg) \
                - sector_green(t_sec, KAPPA, xg, yg)
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
#  closed-form stage norms
# ======================================================================

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
            targets = sector_decompose(target_model(family, n, beta))
            approxs = sector_decompose(approximant_model(st))
            quad = [hs_norm(sector_difference(t, s, KAPPA, st.a, grid))
                    for t, s in zip(targets, approxs)]
            assert stage.norm_sym == pytest.approx(quad[0], rel=1e-3)
            assert stage.norm_comp == pytest.approx(quad[1], rel=1e-3)

    def test_krein_pole_marks_stage_invalid(self):
        # beta where 1 + c G(a, a) of the scheduled Robin base vanishes at
        # a = 0.1, found with the 50-digit Krein form
        a, n = 0.1, 2

        def krein(beta):
            b = -beta / (n * a * a)
            refl = (KAPPA - b) / (KAPPA + b)
            return a - (1 + refl * mpmath.exp(-2 * KAPPA * a)) / (2 * KAPPA)

        with mpmath.workdps(50):
            beta = float(mpmath.findroot(krein, -1.75))
        rep = convergence_sweep("delta_prime_s", beta, n, KAPPA, [a, 1e-2],
                                GRID)
        assert not rep.stages[0].valid
        assert "Krein" in rep.stages[0].error
        assert rep.stages[1].valid

    def test_base_robin_pole_marks_stage_invalid(self):
        # beta = kappa n a^2 puts the scheduled Robin base at b = -kappa
        rep = convergence_sweep("delta_prime_s", 0.02, 2, KAPPA, [0.1, 1e-2],
                                GRID)
        assert not rep.stages[0].valid
        assert "Robin kernel pole" in rep.stages[0].error
        assert rep.stages[1].valid

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
