"""Half-line kernel, point-interaction, and star-assembly tests.

Oracles: the sinh/cosh closed forms evaluated directly in the tests, the
defining boundary identities (checked by finite differences at the
origin), the residual identity -G'' + kappa^2 G = 0 off the diagonal with
unit derivative jump on it, and exact two-sector algebra for stars.
"""

import math

import numpy as np
import pytest

from starcouplings import (HalflineBC, PointInteraction, PoleError, StarModel,
                           halfline_green, halfline_kernel, krein_insert,
                           sector_decompose, sector_green, star_green)

RNG = np.random.default_rng(7)

ALL_BCS = [
    HalflineBC.dirichlet(),
    HalflineBC.neumann(),
    HalflineBC.robin(1.5),
    HalflineBC.robin(-0.4),
    HalflineBC.robin_scaled(3, 2.0),
]


def sinh_cosh_form(bc: HalflineBC, kappa: float, x: float, y: float) -> float:
    """Independent reference: the textbook sinh/cosh kernel expressions."""
    lo, hi = min(x, y), max(x, y)
    if bc.kind == "dirichlet":
        return math.sinh(kappa * lo) * math.exp(-kappa * hi) / kappa
    if bc.kind == "neumann":
        return math.cosh(kappa * lo) * math.exp(-kappa * hi) / kappa
    if bc.kind == "robin":
        return math.exp(-kappa * hi) * (
            bc.b * math.sinh(kappa * lo) + kappa * math.cosh(kappa * lo)) \
            / (kappa * (bc.b + kappa))
    return math.exp(-kappa * hi) * (
        bc.n * math.sinh(kappa * lo)
        + bc.beta * kappa * math.cosh(kappa * lo)) \
        / (kappa * (bc.n + bc.beta * kappa))


# ======================================================================
#  halfline_green
# ======================================================================

class TestHalflineGreen:
    @pytest.mark.parametrize("bc", ALL_BCS, ids=lambda bc: bc.kind + str(bc.b))
    def test_matches_sinh_cosh_form(self, bc):
        for kappa in (0.3, 1.0, 2.5):
            for _ in range(20):
                x, y = RNG.uniform(0.0, 8.0, size=2)
                expected = sinh_cosh_form(bc, kappa, x, y)
                assert abs(halfline_green(bc, kappa, x, y) - expected) < 1e-13

    def test_dirichlet_vanishes_at_origin(self):
        assert halfline_green(HalflineBC.dirichlet(), 1.0, 0.0, 2.0) == 0.0

    def test_dirichlet_value(self):
        g = halfline_green(HalflineBC.dirichlet(), 1.0, 1.0, 2.0)
        assert abs(g - math.sinh(1.0) * math.exp(-2.0)) < 1e-15

    def test_neumann_derivative_vanishes_at_origin(self):
        bc = HalflineBC.neumann()
        h = 1e-6
        d = (halfline_green(bc, 1.0, h, 2.0)
             - halfline_green(bc, 1.0, 0.0, 2.0)) / h
        assert abs(d) < 1e-6

    def test_robin_boundary_identity(self):
        # G(0, y) = e^{-kappa y}/(b + kappa) and psi'(0) = b psi(0)
        b, kappa, y = 1.5, 1.0, 2.0
        bc = HalflineBC.robin(b)
        g0 = halfline_green(bc, kappa, 0.0, y)
        assert abs(g0 - math.exp(-kappa * y) / (b + kappa)) < 1e-15
        h = 1e-7
        d = (halfline_green(bc, kappa, h, y) - g0) / h
        assert abs(d - b * g0) < 1e-6

    def test_robin_scaled_boundary_identity(self):
        n, beta, kappa, y = 3, 2.0, 1.0, 1.7
        bc = HalflineBC.robin_scaled(n, beta)
        g0 = halfline_green(bc, kappa, 0.0, y)
        h = 1e-7
        d = (halfline_green(bc, kappa, h, y) - g0) / h
        assert abs(g0 - (beta / n) * d) < 1e-6

    def test_robin_zero_is_neumann(self):
        x = RNG.uniform(0, 6, size=8)
        np.testing.assert_allclose(
            halfline_green(HalflineBC.robin(0.0), 1.3, x[:, None], x[None, :]),
            halfline_green(HalflineBC.neumann(), 1.3, x[:, None], x[None, :]),
            atol=1e-15)

    def test_robin_scaled_zero_beta_is_dirichlet(self):
        x = RNG.uniform(0, 6, size=8)
        np.testing.assert_allclose(
            halfline_green(HalflineBC.robin_scaled(2, 0.0), 0.8,
                           x[:, None], x[None, :]),
            halfline_green(HalflineBC.dirichlet(), 0.8,
                           x[:, None], x[None, :]),
            atol=1e-15)

    def test_robin_scaled_equals_equivalent_robin(self):
        n, beta = 4, -1.5
        x = RNG.uniform(0, 6, size=8)
        np.testing.assert_allclose(
            halfline_green(HalflineBC.robin_scaled(n, beta), 1.0,
                           x[:, None], x[None, :]),
            halfline_green(HalflineBC.robin(n / beta), 1.0,
                           x[:, None], x[None, :]),
            atol=1e-14)

    def test_robin_pole_guard(self):
        with pytest.raises(PoleError):
            halfline_green(HalflineBC.robin(-1.0), 1.0, 1.0, 1.0)

    def test_robin_scaled_pole_guard(self):
        with pytest.raises(PoleError):
            halfline_green(HalflineBC.robin_scaled(2, -2.0), 1.0, 1.0, 1.0)

    def test_rejects_negative_arguments(self):
        with pytest.raises(ValueError):
            halfline_green(HalflineBC.dirichlet(), 1.0, -0.5, 1.0)

    def test_rejects_nonpositive_kappa(self):
        with pytest.raises(ValueError):
            halfline_green(HalflineBC.dirichlet(), 0.0, 1.0, 1.0)

    @pytest.mark.parametrize("kappa", [math.inf, math.nan])
    def test_every_kernel_entry_rejects_nonfinite_kappa(self, kappa):
        bc = HalflineBC.robin(1.5)
        point = PointInteraction(0.5, -2.0)
        approximant = StarModel.central_delta(2, 1.5, point)
        calls = [
            lambda: halfline_green(HalflineBC.dirichlet(), kappa, 1.0, 2.0),
            lambda: halfline_kernel(bc, [point], kappa),
            lambda: krein_insert(bc, point, kappa, 1.0, 2.0),
            lambda: sector_green(sector_decompose(approximant)[0], kappa,
                                 1.0, 2.0),
            lambda: star_green(approximant, kappa, 0, 1.0, 1, 2.0),
            lambda: star_green(StarModel.delta_prime_s(2, 1.0), kappa,
                               0, 1.0, 1, 2.0),
        ]
        for call in calls:
            with pytest.raises(ValueError):
                call()

    @pytest.mark.parametrize("bc", ALL_BCS, ids=lambda bc: bc.kind + str(bc.b))
    def test_residual_and_jump(self, bc):
        # -G'' + kappa^2 G = 0 away from the diagonal; dG/dx jumps by -1
        kappa, y = 1.0, 2.0
        h = 1e-4
        for x in (0.7, 1.4, 3.1):
            g = lambda t: halfline_green(bc, kappa, t, y)  # noqa: E731
            second = (g(x + h) - 2 * g(x) + g(x - h)) / h**2
            assert abs(-second + kappa**2 * g(x)) < 1e-4 * max(abs(g(x)), 1e-3)
        g = lambda t: halfline_green(bc, kappa, t, y)  # noqa: E731
        right = (-3 * g(y) + 4 * g(y + h) - g(y + 2 * h)) / (2 * h)
        left = (3 * g(y) - 4 * g(y - h) + g(y - 2 * h)) / (2 * h)
        assert abs((right - left) - (-1.0)) < 1e-5


# ======================================================================
#  krein_insert / halfline_kernel
# ======================================================================

class TestKreinInsert:
    def test_zero_strength_is_identity(self):
        bc = HalflineBC.neumann()
        p = PointInteraction(a=1.0, c=0.0)
        x = RNG.uniform(0, 5, size=6)
        np.testing.assert_array_equal(
            krein_insert(bc, p, 1.0, x[:, None], x[None, :]),
            halfline_green(bc, 1.0, x[:, None], x[None, :]))

    def test_infinite_strength_screens(self):
        bc = HalflineBC.neumann()
        p = PointInteraction(a=1.0, c=math.inf)
        for y in (0.3, 1.0, 2.7, 6.0):
            assert abs(krein_insert(bc, p, 1.0, 1.0, y)) < 1e-12

    def test_dirichlet_plus_matched_point_approaches_neumann(self):
        # the c = -1/a schedule turns the Dirichlet wall into a Neumann one
        bc_d = HalflineBC.dirichlet()
        bc_n = HalflineBC.neumann()
        kappa, x, y = 1.0, 1.0, 1.0
        target = halfline_green(bc_n, kappa, x, y)
        diffs = []
        for a in (0.1, 0.01, 0.001):
            p = PointInteraction(a=a, c=-1.0 / a)
            diffs.append(abs(krein_insert(bc_d, p, kappa, x, y) - target))
        assert diffs[0] > diffs[1] > diffs[2]
        # first-order rate: one decade of a per decade of error
        assert diffs[0] / diffs[2] > 50.0

    def test_pole_guard_fires_on_eigenvalue(self):
        bc = HalflineBC.dirichlet()
        g_aa = halfline_green(bc, 1.0, 1.0, 1.0)
        p = PointInteraction(a=1.0, c=-1.0 / g_aa)
        with pytest.raises(PoleError):
            krein_insert(bc, p, 1.0, 0.5, 0.5)

    def test_update_formula_matches_direct_evaluation(self):
        bc = HalflineBC.robin(0.7)
        p = PointInteraction(a=1.3, c=-2.0)
        kappa = 0.9
        g = lambda x, y: halfline_green(bc, kappa, x, y)  # noqa: E731
        den = -1.0 / p.c - g(p.a, p.a)
        for _ in range(10):
            x, y = RNG.uniform(0, 6, size=2)
            expected = g(x, y) + g(x, p.a) * g(p.a, y) / den
            assert abs(krein_insert(bc, p, kappa, x, y) - expected) < 1e-15

    def test_chained_kernel_two_points(self):
        # second update applied on top of the first, written out by hand
        bc = HalflineBC.dirichlet()
        kappa = 1.0
        p1 = PointInteraction(a=0.8, c=-1.5)
        p2 = PointInteraction(a=2.0, c=0.9)
        kernel = halfline_kernel(bc, [p1, p2], kappa)
        g1 = lambda x, y: krein_insert(bc, p1, kappa, x, y)  # noqa: E731
        den2 = -1.0 / p2.c - g1(p2.a, p2.a)
        for _ in range(10):
            x, y = RNG.uniform(0, 6, size=2)
            expected = g1(x, y) + g1(x, p2.a) * g1(p2.a, y) / den2
            assert abs(kernel(x, y) - expected) < 1e-15

    def test_kernel_symmetry(self):
        bc = HalflineBC.robin(-0.4)
        p = PointInteraction(a=1.0, c=2.0)
        for _ in range(20):
            x, y = RNG.uniform(0, 7, size=2)
            assert abs(krein_insert(bc, p, 1.0, x, y)
                       - krein_insert(bc, p, 1.0, y, x)) < 1e-15

    def test_broadcasts_over_grids(self):
        bc = HalflineBC.robin(0.8)
        p = PointInteraction(a=1.0, c=-2.0)
        x = np.linspace(0.0, 5.0, 7)
        vals = krein_insert(bc, p, 1.0, x[:, None], x[None, :])
        assert vals.shape == (7, 7)
        assert vals.dtype == np.float64
        assert vals[2, 4] == krein_insert(bc, p, 1.0, x[2], x[4])

    def test_rejects_nonpositive_position(self):
        with pytest.raises(ValueError):
            PointInteraction(a=0.0, c=1.0)

    @pytest.mark.parametrize("a", [math.inf, math.nan])
    def test_rejects_nonfinite_position(self, a):
        with pytest.raises(ValueError):
            PointInteraction(a=a, c=1.0)

    def test_rejects_nan_strength(self):
        # before the check, krein_insert returned nan for this point
        with pytest.raises(ValueError):
            PointInteraction(a=0.5, c=math.nan)


# ======================================================================
#  sector_decompose
# ======================================================================

class TestSectorDecompose:
    def test_delta_prime_s_target(self):
        sectors = sector_decompose(StarModel.delta_prime_s(3, 1.2))
        assert [s.label for s in sectors] == ["symmetric", "complement"]
        assert [s.multiplicity for s in sectors] == [1, 2]
        assert sectors[0].bc == HalflineBC.robin_scaled(3, 1.2)
        assert sectors[1].bc == HalflineBC.neumann()
        assert all(s.point is None for s in sectors)

    def test_central_delta_approximant(self):
        p = PointInteraction(a=0.1, c=-10.0)
        sectors = sector_decompose(StarModel.central_delta(4, -25.0, p))
        assert sectors[0].bc == HalflineBC.robin(-25.0)
        assert sectors[1].bc == HalflineBC.dirichlet()
        assert all(s.point == p for s in sectors)
        assert sum(s.multiplicity for s in sectors) == 4

    def test_delta_prime_target(self):
        sectors = sector_decompose(StarModel.delta_prime(4, 0.7))
        assert [s.label for s in sectors] == ["r=0", "r>=1"]
        assert sectors[0].bc == HalflineBC.neumann()
        assert sectors[1].bc == HalflineBC.robin_scaled(4, 0.7)
        assert [s.multiplicity for s in sectors] == [1, 3]

    def test_central_delta_p_approximant(self):
        p = PointInteraction(a=0.05, c=-20.0)
        sectors = sector_decompose(StarModel.central_delta_p(4, -8.0, p))
        assert sectors[0].bc == HalflineBC.dirichlet()
        assert sectors[1].bc == HalflineBC.robin(-2.0)  # b / n

    def test_single_edge_star(self):
        sectors = sector_decompose(StarModel.delta_prime_s(1, 0.9))
        assert len(sectors) == 1
        assert sectors[0].bc == HalflineBC.robin_scaled(1, 0.9)

    def test_weight_phase(self):
        sectors = sector_decompose(StarModel.delta_prime(4, 1.0))
        assert abs(sectors[0].weight_phase - 1j) < 1e-15  # e^{2 pi i / 4}

    def test_model_validation(self):
        with pytest.raises(ValueError):
            StarModel(n=2, kind="delta_prime_s")  # missing beta
        with pytest.raises(ValueError):
            StarModel(n=2, kind="central_delta", beta=1.0, b=1.0)
        with pytest.raises(ValueError):
            StarModel(n=0, kind="delta_prime_s", beta=1.0)
        with pytest.raises(ValueError):
            StarModel(n=2, kind="sombrero", beta=1.0)


# ======================================================================
#  star_green
# ======================================================================

class TestStarGreen:
    def test_single_edge_reduces_to_sector_kernel(self):
        m = StarModel.delta_prime_s(1, 0.9)
        sector = sector_decompose(m)[0]
        for _ in range(5):
            x, y = RNG.uniform(0, 5, size=2)
            assert star_green(m, 1.0, 0, x, 0, y) \
                == sector_green(sector, 1.0, x, y)

    def test_two_edge_off_diagonal_algebra(self):
        m = StarModel.delta_prime_s(2, 1.3)
        kappa = 1.0
        g_rs = lambda x, y: halfline_green(  # noqa: E731
            HalflineBC.robin_scaled(2, 1.3), kappa, x, y)
        g_n = lambda x, y: halfline_green(  # noqa: E731
            HalflineBC.neumann(), kappa, x, y)
        for _ in range(10):
            x, y = RNG.uniform(0, 5, size=2)
            expected = (g_rs(x, y) - g_n(x, y)) / 2.0
            assert abs(star_green(m, kappa, 0, x, 1, y) - expected) < 1e-15

    def test_kernel_symmetry(self):
        for m in (StarModel.delta_prime_s(3, 1.1),
                  StarModel.delta_prime(4, -0.5),
                  StarModel.central_delta(3, -4.0,
                                          PointInteraction(0.5, -2.0))):
            for _ in range(15):
                j, l = RNG.integers(0, m.n, size=2)
                x, y = RNG.uniform(0, 5, size=2)
                a = star_green(m, 1.0, int(j), x, int(l), y)
                b = star_green(m, 1.0, int(l), y, int(j), x)
                assert abs(a - b) < 1e-13

    def test_edge_index_validation(self):
        m = StarModel.delta_prime_s(2, 1.0)
        with pytest.raises(ValueError):
            star_green(m, 1.0, 2, 1.0, 0, 1.0)

    @pytest.mark.parametrize("n,beta", [(2, 1.3), (3, 1.0), (3, -0.5)])
    def test_common_derivative_family_vertex_conditions(self, n, beta):
        # psi_j'(0) all equal; sum_j psi_j(0) = beta psi'(0)
        m = StarModel.delta_prime_s(n, beta)
        kappa, y0, h = 1.0, 1.3, 1e-4
        psi = [lambda x, j=j: star_green(m, kappa, j, x, 0, y0)
               for j in range(n)]
        values = np.array([f(0.0) for f in psi])
        derivs = np.array([(-3 * f(0.0) + 4 * f(h) - f(2 * h)) / (2 * h)
                           for f in psi])
        assert np.max(np.abs(derivs - derivs[0])) < 1e-5
        assert abs(values.sum() - beta * derivs[0]) < 1e-5

    @pytest.mark.parametrize("n,beta", [(2, 1.0), (3, 1.0), (4, -0.5)])
    def test_pairwise_difference_family_vertex_conditions(self, n, beta):
        # sum_j psi_j'(0) = 0; psi_j(0)-psi_k(0) = (beta/n)(psi_j'(0)-psi_k'(0))
        m = StarModel.delta_prime(n, beta)
        kappa, y0, h = 1.0, 1.3, 1e-4
        psi = [lambda x, j=j: star_green(m, kappa, j, x, 0, y0)
               for j in range(n)]
        values = np.array([f(0.0) for f in psi])
        derivs = np.array([(-3 * f(0.0) + 4 * f(h) - f(2 * h)) / (2 * h)
                           for f in psi])
        assert abs(derivs.sum()) < 1e-5
        for j in range(n):
            for k in range(n):
                lhs = values[j] - values[k]
                rhs = (beta / n) * (derivs[j] - derivs[k])
                assert abs(lhs - rhs) < 1e-5
