"""Half-line kernel, point-interaction, and star-assembly tests.

Oracles: the sinh/cosh closed forms evaluated directly in the tests, the
defining boundary identities (checked by finite differences at the
origin), the residual identity -G'' + kappa^2 G = 0 off the diagonal with
unit derivative jump on it, exact two-sector algebra for stars, the
sector reassembly G_lead / n + (delta_jl - 1/n) G_rest for every star
model, the Krein formula at 50 digits (mpmath) near the origin, and the
vertex condition and Hermiticity for Haar-random couplings.
"""

import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import random_unitary, unitary_with_phase
from starcouplings import (BoundaryValues, HalflineBC, PointInteraction,
                           PoleError, StarModel, VertexCoupling,
                           halfline_green, halfline_kernel, krein_insert,
                           satisfies_vertex_condition, sector_decompose,
                           sector_green, star_green, vertex_kernel)
from starcouplings.greens import ROBIN_POLE_TOL

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


# ======================================================================
#  Krein updates near the origin, against 50-digit mpmath
# ======================================================================

def _mp_krein(b, kappa, a, c, x, y):
    """Kernel of the Robin(b) half line (Dirichlet for b = None) plus a
    delta of strength c at a, from the reflection form at 50 digits."""
    with mpmath.workdps(50):
        kappa, a, c, x, y = (mpmath.mpf(v) for v in (kappa, a, c, x, y))
        refl = -1 if b is None else (kappa - b) / (kappa + b)

        def g(s, t):
            return (mpmath.exp(-kappa * abs(s - t))
                    + refl * mpmath.exp(-kappa * (s + t))) / (2 * kappa)

        return g(x, y) + g(x, a) * g(a, y) / (-1 / c - g(a, a))


class TestKreinNearOrigin:
    def test_strong_satellite_near_dirichlet_wall_is_no_pole(self):
        # the unscaled denominator -1/c - G(a, a) is about kappa a^2 here
        # (5e-13) although no eigenvalue is near
        value = krein_insert(HalflineBC.dirichlet(),
                             PointInteraction(1e-6, -1e6), 0.5, 1.0, 2.0)
        want = _mp_krein(None, 0.5, 1e-6, -1e6, 1.0, 2.0)
        assert abs(value - want) <= 1e-9 * abs(want)

    @pytest.mark.parametrize("b", [None, 0.7, -0.4, 30.0],
                             ids=["dirichlet", "robin0.7", "robin-0.4",
                                  "robin30"])
    def test_matches_mpmath(self, b):
        bc = HalflineBC.dirichlet() if b is None else HalflineBC.robin(b)
        for kappa in (0.5, 1.0, 2.0):
            for a in (1e-2, 1e-3, 1e-4, 1e-5, 1e-6):
                point = PointInteraction(a, -1.0 / a)
                for x, y in ((1.0, 2.0), (0.3, 0.7), (2.5, 2.5), (0.05, 1.0)):
                    got = krein_insert(bc, point, kappa, x, y)
                    want = _mp_krein(b, kappa, a, point.c, x, y)
                    assert abs(got - want) <= 1e-9 * abs(want), \
                        (kappa, a, x, y, got, float(want))


# ======================================================================
#  non-finite input
# ======================================================================

class TestNonFiniteInput:
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_kernel_arguments(self, value):
        # before the check these returned nan (inf with a RuntimeWarning)
        bc = HalflineBC.neumann()
        model = StarModel.central_delta(2, 1.5, PointInteraction(0.5, -2.0))
        calls = [
            lambda: halfline_green(bc, 1.0, value, 1.0),
            lambda: halfline_green(bc, 1.0, 1.0, value),
            lambda: krein_insert(bc, PointInteraction(0.5, 2.0), 1.0, value,
                                 1.0),
            lambda: halfline_kernel(bc, [], 1.0)(np.array([1.0, value]), 1.0),
            lambda: star_green(model, 1.0, 0, value, 1, 2.0),
            lambda: star_green(StarModel.delta_prime(3, 1.0), 1.0, 0, 1.0,
                               1, value),
        ]
        for call in calls:
            with pytest.raises(ValueError):
                call()

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_star_model_parameters(self, value):
        # a NaN was accepted before, and central_delta(2, inf) would be a
        # Dirichlet star through make_coupling
        for make in (StarModel.delta_prime_s, StarModel.delta_prime,
                     StarModel.central_delta, StarModel.central_delta_p):
            with pytest.raises(ValueError):
                make(2, value)


# ======================================================================
#  the star kernel against its sector reassembly
# ======================================================================

def _sector_reassembly(model, kappa, j, x, l, y):
    sectors = sector_decompose(model)
    lead = sector_green(sectors[0], kappa, x, y)
    if model.n == 1:
        return lead
    rest = sector_green(sectors[1], kappa, x, y)
    return lead / model.n + ((j == l) - 1.0 / model.n) * rest


class TestStarAgainstSectors:
    @pytest.mark.parametrize("n", [1, 2, 3, 5])
    @pytest.mark.parametrize("kind,point", [
        ("delta_prime_s", None), ("delta_prime", None),
        ("central_delta", None), ("central_delta", PointInteraction(0.5, -2.0)),
        ("central_delta_p", None),
        ("central_delta_p", PointInteraction(0.5, -2.0)),
    ], ids=["delta_prime_s", "delta_prime", "central_delta",
            "central_delta+point", "central_delta_p", "central_delta_p+point"])
    def test_matches_reassembly(self, n, kind, point):
        if kind.startswith("delta_prime"):
            models = [StarModel(n=n, kind=kind, beta=beta)
                      for beta in (1.3, -0.7)]
        else:
            models = [StarModel(n=n, kind=kind, b=b, point=point)
                      for b in (-3.3, 2.5)]
        xs = np.array([0.0, 0.2, 0.5, 1.1, 3.0])
        for model in models:
            for kappa in (0.5, 1.0, 2.0):
                for j in range(n):
                    for l in range(n):
                        got = star_green(model, kappa, j, xs[:, None], l,
                                         xs[None, :])
                        want = _sector_reassembly(model, kappa, j,
                                                  xs[:, None], l, xs[None, :])
                        assert np.max(np.abs(got - want)) <= 1e-13, \
                            (model, kappa, j, l)


# ======================================================================
#  Haar-random couplings
# ======================================================================

def _coupling(n, seed, symmetric):
    u = random_unitary(n, np.random.default_rng(seed))
    if symmetric:
        w = u @ u.T          # symmetric and unitary; symmetrize the rounding
        u = (w + w.T) / 2.0
    return VertexCoupling.custom(u)


class TestRandomCouplings:
    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(n=st.integers(1, 5), seed=st.integers(0, 2 ** 32 - 1),
           kappa=st.floats(0.3, 3.0), with_point=st.booleans())
    def test_kernel_is_hermitian(self, n, seed, kappa, with_point):
        points = [PointInteraction(0.6, -1.5)] if with_point else []
        kernel = vertex_kernel(_coupling(n, seed, False), points, kappa)
        xs = np.array([0.0, 0.3, 0.6, 1.4, 2.5])
        for j in range(n):
            for l in range(n):
                g = kernel(j, xs[:, None], l, xs[None, :])
                g_swapped = kernel(l, xs[:, None], j, xs[None, :])
                scale = np.max(np.abs(g))
                assert np.max(np.abs(g - g_swapped.T.conj())) \
                    <= 1e-12 * scale

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(n=st.integers(1, 5), seed=st.integers(0, 2 ** 32 - 1),
           kappa=st.floats(0.3, 3.0), y0=st.floats(0.2, 3.0))
    def test_columns_satisfy_vertex_condition(self, n, seed, kappa, y0):
        coupling = _coupling(n, seed, False)
        kernel = vertex_kernel(coupling, [], kappa)
        h = 1e-5
        for l in range(n):
            column = [kernel(j, np.array([0.0, h, 2 * h]), l, y0)
                      for j in range(n)]
            psi = np.array([g[0] for g in column])
            # one-sided second-order derivative at 0+
            dpsi = np.array([(-3 * g[0] + 4 * g[1] - g[2]) / (2 * h)
                             for g in column])
            assert satisfies_vertex_condition(
                coupling, BoundaryValues(psi, dpsi), tol=1e-6)

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(n=st.integers(1, 5), seed=st.integers(0, 2 ** 32 - 1),
           symmetric=st.booleans(), with_point=st.booleans())
    def test_real_iff_symmetric(self, n, seed, symmetric, with_point):
        coupling = _coupling(n, seed, symmetric)
        points = [PointInteraction(0.6, -1.5)] if with_point else []
        values = vertex_kernel(coupling, points, 1.3)(
            n - 1, np.array([0.2, 1.0]), 0, np.array([0.5, 2.0]))
        is_symmetric = np.array_equal(coupling.u, coupling.u.T)
        assert is_symmetric == symmetric or n == 1
        assert (values.dtype == np.float64) == is_symmetric


# ======================================================================
#  the vertex pole guard
# ======================================================================

class TestVertexPoleGuard:
    @pytest.mark.parametrize("symmetric", [True, False])
    def test_trips_exactly_where_the_determinant_guard_trips(self,
                                                            symmetric):
        # theta = 2 atan(kappa (1 + eps)) puts a bound state at relative
        # distance eps from kappa; the guard sigma_min(D) <
        # ROBIN_POLE_TOL 2 sqrt(1 + kappa^2) trips for |eps| below about
        # ROBIN_POLE_TOL (1 + kappa^2) / kappa
        rng = np.random.default_rng(21)
        verdicts = []
        for n in (1, 2, 3, 5):
            for kappa in (0.5, 1.0, 3.0):
                for eps in (0.0, 1e-13, 1e-11, 1e-10, 1e-9, 1e-8, 1e-6):
                    for sign in (1.0, -1.0):
                        theta = 2.0 * math.atan(kappa * (1.0 + sign * eps))
                        u = unitary_with_phase(n, rng, theta, symmetric)
                        d = (1j * kappa + 1.0) * np.eye(n) \
                            + (1j * kappa - 1.0) * u
                        trips = np.linalg.svd(d, compute_uv=False)[-1] \
                            < ROBIN_POLE_TOL * 2.0 * math.sqrt(1.0 + kappa**2)
                        try:
                            vertex_kernel(VertexCoupling.custom(u), [], kappa)
                            raised = False
                        except PoleError:
                            raised = True
                        assert raised == trips, (n, kappa, sign * eps)
                        verdicts.append(trips)
        assert 0 < sum(verdicts) < len(verdicts)
