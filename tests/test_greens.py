"""Half-line kernel, point-interaction, and star-assembly tests.

Oracles: the sinh/cosh closed forms evaluated directly in the tests, the
defining boundary identities (checked by finite differences at the
origin), the residual identity -G'' + kappa^2 G = 0 off the diagonal with
unit derivative jump on it, exact two-sector algebra for stars, the
sector reassembly G_lead / n + (delta_jl - 1/n) G_rest for every star
model, the Krein formula at 50 digits (mpmath) near the origin, the
vertex condition and Hermiticity for Haar-random couplings, the
edge-indexed matrix formula with its Krein update over all (edge, point)
pairs at 50 digits for Haar-random couplings with points, the 60-digit
S_U(i kappa) formula entry by entry across edges, 2 x 2 transfer
matrices at 50 digits for a Robin half line with points, and at n = 2
the line's three-delta kernel at 50 digits (oracles.line_green).
"""

import dataclasses
import math
import struct

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import random_unitary, unitary_with_phase
from oracles import (SectorSpec, approximant_model, line_delta_prime,
                     line_green, satisfies_vertex_condition,
                     sector_decompose)
from starcouplings import (GridSpec, HalflineBC, InvalidCouplingError,
                           PointInteraction, PoleError, StarModel,
                           VertexCoupling, convergence_sweep,
                           fd_resolvent_halfline, fd_resolvent_star,
                           halfline_kernel, make_coupling, schedule,
                           star_green, vertex_kernel)
from starcouplings import coupling as coupling_module
from starcouplings import greens
from starcouplings.convergence import sector_green
from starcouplings.coupling import ROBIN_POLE_TOL, check_points
from starcouplings.greens import _halfline_rows, _named_coupling

RNG = np.random.default_rng(7)

#: each half-line condition, by the id its tests carry, with the (kind, b,
#: n, beta) its textbook kernel reads
BC_FORMS = {
    "dirichlet0.0": (HalflineBC.dirichlet(), ("dirichlet", 0.0, 0, 0.0)),
    "neumann0.0": (HalflineBC.neumann(), ("neumann", 0.0, 0, 0.0)),
    "robin1.5": (HalflineBC.robin(1.5), ("robin", 1.5, 0, 0.0)),
    "robin-0.4": (HalflineBC.robin(-0.4), ("robin", -0.4, 0, 0.0)),
    "robin_scaled0.0": (HalflineBC.robin_scaled(3, 2.0),
                        ("robin_scaled", 0.0, 3, 2.0)),
}
ALL_BCS = [bc for bc, _ in BC_FORMS.values()]


def sinh_cosh_form(form: tuple, kappa: float, x: float, y: float) -> float:
    """Independent reference: the textbook sinh/cosh kernel expressions of
    the condition (kind, b, n, beta)."""
    kind, b, n, beta = form
    lo, hi = min(x, y), max(x, y)
    if kind == "dirichlet":
        return math.sinh(kappa * lo) * math.exp(-kappa * hi) / kappa
    if kind == "neumann":
        return math.cosh(kappa * lo) * math.exp(-kappa * hi) / kappa
    if kind == "robin":
        return math.exp(-kappa * hi) * (
            b * math.sinh(kappa * lo) + kappa * math.cosh(kappa * lo)) \
            / (kappa * (b + kappa))
    return math.exp(-kappa * hi) * (
        n * math.sinh(kappa * lo)
        + beta * kappa * math.cosh(kappa * lo)) \
        / (kappa * (n + beta * kappa))


def _star_maker(kind):
    """(n, value) -> StarModel of ``kind`` with value as its beta or b."""
    name = "beta" if kind.startswith("delta_prime") else "b"
    return lambda n, value: StarModel(n=n, kind=kind, **{name: value})


# ======================================================================
#  halfline_kernel without points
# ======================================================================

class TestHalflineGreen:
    @pytest.mark.parametrize("label", BC_FORMS)
    def test_matches_sinh_cosh_form(self, label):
        bc, form = BC_FORMS[label]
        for kappa in (0.3, 1.0, 2.5):
            for _ in range(20):
                x, y = RNG.uniform(0.0, 8.0, size=2)
                expected = sinh_cosh_form(form, kappa, x, y)
                got = halfline_kernel(bc, (), kappa)(x, y)
                assert abs(got - expected) < 1e-13

    def test_dirichlet_vanishes_at_origin(self):
        g = halfline_kernel(HalflineBC.dirichlet(), (), 1.0)
        assert g(0.0, 2.0) == 0.0

    def test_dirichlet_value(self):
        g = halfline_kernel(HalflineBC.dirichlet(), (), 1.0)(1.0, 2.0)
        assert abs(g - math.sinh(1.0) * math.exp(-2.0)) < 1e-15

    def test_neumann_derivative_vanishes_at_origin(self):
        bc = HalflineBC.neumann()
        h = 1e-6
        g = halfline_kernel(bc, (), 1.0)
        d = (g(h, 2.0) - g(0.0, 2.0)) / h
        assert abs(d) < 1e-6

    def test_robin_boundary_identity(self):
        # G(0, y) = e^{-kappa y}/(b + kappa) and psi'(0) = b psi(0)
        b, kappa, y = 1.5, 1.0, 2.0
        bc = HalflineBC.robin(b)
        g = halfline_kernel(bc, (), kappa)
        g0 = g(0.0, y)
        assert abs(g0 - math.exp(-kappa * y) / (b + kappa)) < 1e-15
        h = 1e-7
        d = (g(h, y) - g0) / h
        assert abs(d - b * g0) < 1e-6

    def test_robin_scaled_boundary_identity(self):
        n, beta, kappa, y = 3, 2.0, 1.0, 1.7
        bc = HalflineBC.robin_scaled(n, beta)
        g = halfline_kernel(bc, (), kappa)
        g0 = g(0.0, y)
        h = 1e-7
        d = (g(h, y) - g0) / h
        assert abs(g0 - (beta / n) * d) < 1e-6

    def test_robin_zero_is_neumann(self):
        x = RNG.uniform(0, 6, size=8)
        xg, yg = x[:, None], x[None, :]
        np.testing.assert_allclose(
            halfline_kernel(HalflineBC.robin(0.0), (), 1.3)(xg, yg),
            halfline_kernel(HalflineBC.neumann(), (), 1.3)(xg, yg),
            atol=1e-15)

    def test_robin_scaled_zero_beta_is_dirichlet(self):
        x = RNG.uniform(0, 6, size=8)
        xg, yg = x[:, None], x[None, :]
        np.testing.assert_allclose(
            halfline_kernel(HalflineBC.robin_scaled(2, 0.0), (), 0.8)(xg, yg),
            halfline_kernel(HalflineBC.dirichlet(), (), 0.8)(xg, yg),
            atol=1e-15)

    def test_robin_scaled_equals_equivalent_robin(self):
        n, beta = 4, -1.5
        x = RNG.uniform(0, 6, size=8)
        xg, yg = x[:, None], x[None, :]
        np.testing.assert_allclose(
            halfline_kernel(HalflineBC.robin_scaled(n, beta), (), 1.0)(xg, yg),
            halfline_kernel(HalflineBC.robin(n / beta), (), 1.0)(xg, yg),
            atol=1e-14)

    @pytest.mark.parametrize("n", [2.5, 2.0, True, 0])
    def test_robin_scaled_edge_count_must_be_an_integer(self, n):
        # int(2.5) would give n = 2, so beta / n = 0.5 instead of 0.4
        with pytest.raises(ValueError, match="edge count"):
            HalflineBC.robin_scaled(n, 1.0)

    def test_each_condition_is_a_memoised_one_edge_coupling(self):
        # no record stands between a condition and its coupling, so no
        # field can go unread: each constructor takes only what it reads
        for bc, vertex in (
                (HalflineBC.dirichlet(), ("delta", 1, math.inf)),
                (HalflineBC.neumann(), ("delta", 1, 0.0)),
                (HalflineBC.robin(1.0), ("delta", 1, 1.0)),
                (HalflineBC.robin_scaled(2, 1.0), ("delta_prime_s", 1, 0.5))):
            assert isinstance(bc, VertexCoupling) and bc.n == 1
            assert bc is _named_coupling(vertex)
            np.testing.assert_array_equal(bc.u, make_coupling(*vertex).u)
        for call in (lambda: HalflineBC.dirichlet(7),
                     lambda: HalflineBC.neumann(b=3.0),
                     lambda: HalflineBC.robin(1.0, n=4)):
            with pytest.raises(TypeError):
                call()

    def test_robin_pole_guard(self):
        with pytest.raises(PoleError):
            halfline_kernel(HalflineBC.robin(-1.0), (), 1.0)(1.0, 1.0)

    def test_robin_scaled_pole_guard(self):
        with pytest.raises(PoleError):
            halfline_kernel(HalflineBC.robin_scaled(2, -2.0), (), 1.0)

    def test_rejects_negative_arguments(self):
        with pytest.raises(ValueError):
            halfline_kernel(HalflineBC.dirichlet(), (), 1.0)(-0.5, 1.0)

    def test_rejects_nonpositive_kappa(self):
        with pytest.raises(ValueError):
            halfline_kernel(HalflineBC.dirichlet(), (), 0.0)(1.0, 1.0)

    @pytest.mark.parametrize("kappa", [math.inf, math.nan])
    def test_every_kernel_entry_rejects_nonfinite_kappa(self, kappa):
        bc = HalflineBC.robin(1.5)
        point = PointInteraction(0.5, -2.0)
        approximant = StarModel(n=2, kind="central_delta", b=1.5, point=point)
        calls = [
            lambda: halfline_kernel(HalflineBC.dirichlet(), (), kappa),
            lambda: halfline_kernel(bc, [point], kappa),
            lambda: sector_green(sector_decompose("central_delta", 2, 1.5,
                                                 point)[0], kappa,
                                 1.0, 2.0),
            lambda: star_green(approximant, kappa, 0, 1.0, 1, 2.0),
            lambda: star_green(StarModel(n=2, kind="delta_prime_s", beta=1.0),
                               kappa, 0, 1.0, 1, 2.0),
        ]
        for call in calls:
            with pytest.raises(ValueError):
                call()

    @pytest.mark.parametrize("bc", ALL_BCS, ids=list(BC_FORMS))
    def test_residual_and_jump(self, bc):
        # -G'' + kappa^2 G = 0 away from the diagonal; dG/dx jumps by -1
        kappa, y = 1.0, 2.0
        h = 1e-4
        for x in (0.7, 1.4, 3.1):
            g = lambda t: halfline_kernel(bc, (), kappa)(t, y)  # noqa: E731
            second = (g(x + h) - 2 * g(x) + g(x - h)) / h**2
            assert abs(-second + kappa**2 * g(x)) < 1e-4 * max(abs(g(x)), 1e-3)
        g = lambda t: halfline_kernel(bc, (), kappa)(t, y)  # noqa: E731
        right = (-3 * g(y) + 4 * g(y + h) - g(y + 2 * h)) / (2 * h)
        left = (3 * g(y) - 4 * g(y - h) + g(y - 2 * h)) / (2 * h)
        assert abs((right - left) - (-1.0)) < 1e-5


# ======================================================================
#  halfline_kernel with points
# ======================================================================

class TestKreinInsert:
    @pytest.mark.parametrize("delta", [1e-3, 1e-9, 1e-12])
    def test_nearly_coincident_screens_act_as_one(self, delta):
        # a p x p Krein block over two screens a distance delta apart lost
        # accuracy as delta -> 0, by about eps / delta: at delta = 1e-9 the
        # value across the screens read -1.86e-9, where the exact kernel
        # is 0.  A screen now ends the segment its points are carried over
        bc = HalflineBC.dirichlet()
        screens = [PointInteraction(1.0, math.inf),
                   PointInteraction(1.0 + delta, math.inf)]
        one, two = (halfline_kernel(bc, screens[:1], 1.0),
                    halfline_kernel(bc, screens, 1.0))
        assert one(0.5, 3.0) == 0.0
        assert abs(two(0.5, 3.0)) <= 1e-14
        assert abs(two(0.5, 0.5) - one(0.5, 0.5)) <= 1e-14

    def test_zero_strength_is_identity(self):
        bc = HalflineBC.neumann()
        p = PointInteraction(a=1.0, c=0.0)
        x = RNG.uniform(0, 5, size=6)
        np.testing.assert_array_equal(
            halfline_kernel(bc, (p,), 1.0)(x[:, None], x[None, :]),
            halfline_kernel(bc, (), 1.0)(x[:, None], x[None, :]))

    def test_infinite_strength_screens(self):
        bc = HalflineBC.neumann()
        p = PointInteraction(a=1.0, c=math.inf)
        for y in (0.3, 1.0, 2.7, 6.0):
            assert abs(halfline_kernel(bc, (p,), 1.0)(1.0, y)) < 1e-12

    @pytest.mark.parametrize("second", [math.inf, -math.inf, 0.8])
    def test_coincident_screen_is_one_screen(self, second):
        # two rows of the Krein block at one position made it singular: two
        # screens at a = 1 raised a false PoleError
        x = np.linspace(0.0, 4.0, 9)[:, None]
        screen, other = PointInteraction(1.0, math.inf), \
            PointInteraction(2.5, -0.6)
        points = [screen, other, PointInteraction(1.0, second)]
        for bc in (HalflineBC.dirichlet(), HalflineBC.robin(0.7)):
            np.testing.assert_array_equal(
                halfline_kernel(bc, points, 1.0)(x, x.T),
                halfline_kernel(bc, points[:2], 1.0)(x, x.T))
        coupling = make_coupling("delta", 3, 0.4)
        np.testing.assert_array_equal(
            vertex_kernel(coupling, points, 1.0)(2, x, 0, x.T),
            vertex_kernel(coupling, points[:2], 1.0)(2, x, 0, x.T))

    def test_coincident_points_add_their_strengths(self):
        x = np.linspace(0.0, 4.0, 9)[:, None]
        bc, other = HalflineBC.neumann(), PointInteraction(2.5, -0.6)
        np.testing.assert_array_equal(
            halfline_kernel(bc, [PointInteraction(1.0, 0.7), other,
                                 PointInteraction(1.0, 0.5)], 1.0)(x, x.T),
            halfline_kernel(bc, [PointInteraction(1.0, 0.7 + 0.5), other],
                            1.0)(x, x.T))
        # strengths that cancel leave no point
        np.testing.assert_array_equal(
            halfline_kernel(bc, [PointInteraction(1.0, 0.5),
                                 PointInteraction(1.0, -0.5)], 1.0)(x, x.T),
            halfline_kernel(bc, [], 1.0)(x, x.T))

    def test_dirichlet_plus_matched_point_approaches_neumann(self):
        # the c = -1/a schedule turns the Dirichlet wall into a Neumann one
        bc_d = HalflineBC.dirichlet()
        bc_n = HalflineBC.neumann()
        kappa, x, y = 1.0, 1.0, 1.0
        target = halfline_kernel(bc_n, (), kappa)(x, y)
        diffs = []
        for a in (0.1, 0.01, 0.001):
            p = PointInteraction(a=a, c=-1.0 / a)
            got = halfline_kernel(bc_d, (p,), kappa)(x, y)
            diffs.append(abs(got - target))
        assert diffs[0] > diffs[1] > diffs[2]
        # first-order rate: one decade of a per decade of error
        assert diffs[0] / diffs[2] > 50.0

    def test_pole_guard_fires_on_eigenvalue(self):
        bc = HalflineBC.dirichlet()
        g_aa = halfline_kernel(bc, (), 1.0)(1.0, 1.0)
        p = PointInteraction(a=1.0, c=-1.0 / g_aa)
        with pytest.raises(PoleError):
            halfline_kernel(bc, (p,), 1.0)(0.5, 0.5)

    def test_update_formula_matches_direct_evaluation(self):
        bc = HalflineBC.robin(0.7)
        p = PointInteraction(a=1.3, c=-2.0)
        kappa = 0.9
        g = halfline_kernel(bc, (), kappa)
        den = -1.0 / p.c - g(p.a, p.a)
        for _ in range(10):
            x, y = RNG.uniform(0, 6, size=2)
            expected = g(x, y) + g(x, p.a) * g(p.a, y) / den
            got = halfline_kernel(bc, (p,), kappa)(x, y)
            assert abs(got - expected) < 1e-15

    def test_chained_kernel_two_points(self):
        # second update applied on top of the first, written out by hand
        bc = HalflineBC.dirichlet()
        kappa = 1.0
        p1 = PointInteraction(a=0.8, c=-1.5)
        p2 = PointInteraction(a=2.0, c=0.9)
        kernel = halfline_kernel(bc, [p1, p2], kappa)
        g1 = halfline_kernel(bc, (p1,), kappa)
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
            assert abs(halfline_kernel(bc, (p,), 1.0)(x, y)
                       - halfline_kernel(bc, (p,), 1.0)(y, x)) < 1e-15

    @pytest.mark.parametrize("npoints", [0, 1, 2, 3])
    @pytest.mark.parametrize("vertex", [
        ("robin", 1, 0.8), ("delta_prime_s", 3, 1.3), ("delta_p", 3, 0.4),
        ("haar", 3, 11)], ids=lambda vertex: vertex[0])
    def test_broadcasts_over_grids(self, vertex, npoints):
        # an array holds the scalar kernel entry by entry, bit for bit (both
        # parts of a complex value), a 0-d array gives the scalar itself and
        # an empty one an empty array; the second and third points are a
        # screen and a repulsive delta
        if vertex[0] == "haar":
            coupling = VertexCoupling.custom(
                random_unitary(3, np.random.default_rng(vertex[2])))
        elif vertex[0] == "robin":
            coupling = HalflineBC.robin(0.8)
        else:
            coupling = make_coupling(*vertex)
        points = [PointInteraction(1.0, -2.0), PointInteraction(2.4, math.inf),
                  PointInteraction(3.3, 0.7)][:npoints]
        kernel = vertex_kernel(coupling, points, 1.0)
        kind, dtype = (complex, np.complex128) if vertex[0] == "haar" \
            else (float, np.float64)
        x = np.linspace(0.0, 5.0, 7)

        def bits(values):
            return [struct.pack("dd", v.real, v.imag) for v in values]

        for j in range(coupling.n):
            for l in range(coupling.n):
                floats = [kernel(j, s, l, t) for s in x.tolist()
                          for t in x.tolist()]
                assert {type(v) for v in floats} == {kind}
                vals = kernel(j, x[:, None], l, x[None, :])
                assert vals.shape == (7, 7) and vals.dtype == dtype
                assert bits(vals.ravel().tolist()) == bits(floats), (j, l)
                point = kernel(j, np.array(x[3]), l, np.array(x[5]))
                assert type(point) is kind
                assert bits([point]) == bits([floats[3 * 7 + 5]])
                empty = kernel(j, np.empty(0), l, x[:, None])
                assert empty.shape == (7, 0) and empty.dtype == dtype

    def test_rejects_nonpositive_position(self):
        with pytest.raises(ValueError):
            PointInteraction(a=0.0, c=1.0)

    @pytest.mark.parametrize("a", [math.inf, math.nan])
    def test_rejects_nonfinite_position(self, a):
        with pytest.raises(ValueError):
            PointInteraction(a=a, c=1.0)

    def test_rejects_nan_strength(self):
        # before the check, the kernel returned nan for this point
        with pytest.raises(ValueError):
            PointInteraction(a=0.5, c=math.nan)

    def test_compares_and_hashes_by_position_and_strength(self):
        # the kernel memo keys hold points: equal points are one key
        p, twin = PointInteraction(1, -2), PointInteraction(1.0, -2.0)
        assert p == twin and hash(p) == hash(twin) == hash((1.0, -2.0))
        assert p != PointInteraction(1.0, 2.0) and p != (1.0, -2.0)
        # the fields, and the key that == and hash() read, kept on first use
        assert vars(p) == {"a": 1.0, "c": -2.0, "_key": (1.0, -2.0)}
        assert repr(p) == "PointInteraction(a=1.0, c=-2.0)"
        with pytest.raises(AttributeError,
                           match="^cannot assign to field 'a'$"):
            p.a = 2.0
        with pytest.raises(AttributeError, match="^cannot delete field 'c'$"):
            del p.c


# ======================================================================
#  sector_decompose
# ======================================================================

class TestSectorDecompose:
    def test_delta_prime_s_target(self):
        sectors = sector_decompose("delta_prime_s", 3, 1.2)
        assert [s.multiplicity for s in sectors] == [1, 2]
        assert sectors[0].bc == HalflineBC.robin_scaled(3, 1.2)
        assert sectors[1].bc == HalflineBC.neumann()
        assert all(s.point is None for s in sectors)

    def test_central_delta_approximant(self):
        p = PointInteraction(a=0.1, c=-10.0)
        sectors = sector_decompose("central_delta", 4, -25.0, p)
        assert sectors[0].bc == HalflineBC.robin(-25.0)
        assert sectors[1].bc == HalflineBC.dirichlet()
        assert all(s.point == p for s in sectors)
        assert sum(s.multiplicity for s in sectors) == 4

    def test_delta_prime_target(self):
        sectors = sector_decompose("delta_prime", 4, 0.7)
        assert sectors[0].bc == HalflineBC.neumann()
        assert sectors[1].bc == HalflineBC.robin_scaled(4, 0.7)
        assert [s.multiplicity for s in sectors] == [1, 3]

    def test_central_delta_p_approximant(self):
        p = PointInteraction(a=0.05, c=-20.0)
        sectors = sector_decompose("central_delta_p", 4, -8.0, p)
        assert sectors[0].bc == HalflineBC.dirichlet()
        assert sectors[1].bc == HalflineBC.robin(-2.0)  # b / n

    def test_single_edge_star(self):
        sectors = sector_decompose("delta_prime_s", 1, 0.9)
        assert len(sectors) == 1
        assert sectors[0].bc == HalflineBC.robin_scaled(1, 0.9)

    def test_model_validation(self):
        with pytest.raises(ValueError):
            StarModel(n=2, kind="delta_prime_s")  # missing beta
        with pytest.raises(ValueError):
            StarModel(n=2, kind="central_delta", beta=1.0, b=1.0)
        with pytest.raises(ValueError):
            StarModel(n=0, kind="delta_prime_s", beta=1.0)
        with pytest.raises(ValueError):
            StarModel(n=2, kind="sombrero", beta=1.0)

    def test_point_must_be_a_point_interaction(self):
        # an (a, c) tuple used to pass here and fail later, in star_green
        with pytest.raises(ValueError, match="PointInteraction"):
            StarModel(n=2, kind="central_delta", b=1.0, point=(0.5, -2.0))

    def test_fields(self):
        assert [f.name for f in dataclasses.fields(SectorSpec)] \
            == ["bc", "point", "multiplicity"]

    @pytest.mark.parametrize("n", [2.5, 2.0, True])
    def test_edge_count_must_be_an_integer(self, n):
        with pytest.raises(ValueError, match="edge count"):
            StarModel(n=n, kind="delta_prime_s", beta=1.0)
        with pytest.raises(ValueError, match="edge count"):
            StarModel(n=n, kind="central_delta", b=1.0)


# ======================================================================
#  star_green
# ======================================================================

class TestStarGreen:
    def test_single_edge_reduces_to_sector_kernel(self):
        m = StarModel(n=1, kind="delta_prime_s", beta=0.9)
        sector = sector_decompose("delta_prime_s", 1, 0.9)[0]
        for _ in range(5):
            x, y = RNG.uniform(0, 5, size=2)
            assert star_green(m, 1.0, 0, x, 0, y) \
                == sector_green(sector, 1.0, x, y)

    def test_two_edge_off_diagonal_algebra(self):
        m = StarModel(n=2, kind="delta_prime_s", beta=1.3)
        kappa = 1.0
        g_rs = halfline_kernel(HalflineBC.robin_scaled(2, 1.3), (), kappa)
        g_n = halfline_kernel(HalflineBC.neumann(), (), kappa)
        for _ in range(10):
            x, y = RNG.uniform(0, 5, size=2)
            expected = (g_rs(x, y) - g_n(x, y)) / 2.0
            assert abs(star_green(m, kappa, 0, x, 1, y) - expected) < 1e-15

    def test_kernel_symmetry(self):
        for m in (StarModel(n=3, kind="delta_prime_s", beta=1.1),
                  StarModel(n=4, kind="delta_prime", beta=-0.5),
                  StarModel(n=3, kind="central_delta", b=-4.0,
                            point=PointInteraction(0.5, -2.0))):
            for _ in range(15):
                j, l = RNG.integers(0, m[0].n, size=2)
                x, y = RNG.uniform(0, 5, size=2)
                a = star_green(m, 1.0, int(j), x, int(l), y)
                b = star_green(m, 1.0, int(l), y, int(j), x)
                assert abs(a - b) < 1e-13

    def test_edge_index_validation(self):
        m = StarModel(n=2, kind="delta_prime_s", beta=1.0)
        with pytest.raises(ValueError):
            star_green(m, 1.0, 2, 1.0, 0, 1.0)

    @pytest.mark.parametrize("edge", [1.0, 0.5, True, np.float64(0.0)],
                             ids=["1.0", "0.5", "True", "float64"])
    def test_non_integer_edge_is_rejected(self, edge):
        # a float edge escaped as a numpy IndexError; True masked the
        # reflection matrix and came back as a (1, n) array
        m = StarModel(n=2, kind="delta_prime_s", beta=1.0)
        kernel = vertex_kernel(VertexCoupling.custom(np.eye(2)), (), 1.0)
        for call in (lambda: star_green(m, 1.0, edge, 1.0, 0, 1.0),
                     lambda: star_green(m, 1.0, 0, 1.0, edge, 1.0),
                     lambda: kernel(edge, 1.0, 0, 1.0)):
            with pytest.raises(ValueError,
                               match=r"edge indices must lie in \[0, 2\)"):
                call()
        assert star_green(m, 1.0, np.int64(1), 1.0, 0, 1.0) \
            == star_green(m, 1.0, 1, 1.0, 0, 1.0)

    @pytest.mark.parametrize("n,beta", [(2, 1.3), (3, 1.0), (3, -0.5)])
    def test_common_derivative_family_vertex_conditions(self, n, beta):
        # psi_j'(0) all equal; sum_j psi_j(0) = beta psi'(0)
        m = StarModel(n=n, kind="delta_prime_s", beta=beta)
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
        m = StarModel(n=n, kind="delta_prime", beta=beta)
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
        screen = PointInteraction(1e-6, -1e6)
        kernel = halfline_kernel(HalflineBC.dirichlet(), (screen,), 0.5)
        value = kernel(1.0, 2.0)
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
                    got = halfline_kernel(bc, (point,), kappa)(x, y)
                    want = _mp_krein(b, kappa, a, point.c, x, y)
                    assert abs(got - want) <= 1e-9 * abs(want), \
                        (kappa, a, x, y, got, float(want))


# ======================================================================
#  solutions carried across the points: digits across edges, and poles
#  only where the star with its points has them
# ======================================================================

def _mp_cross_edge(n, beta, kappa, x, y):
    """G_01(x, y) = R_01 e^{-kappa (x + y)} / (2 kappa) of the delta'_s
    star, R = S_U(i kappa) on the eigenvalues of U, at 60 digits."""
    with mpmath.workdps(60):
        k, beta = mpmath.mpf(kappa), mpmath.mpf(beta)
        ik = mpmath.mpc(0, k)
        lam = (-n - 1j * beta) / (n - 1j * beta)     # on the constants

        def refl(lam):
            return (ik - 1 + (ik + 1) * lam) / (ik + 1 + (ik - 1) * lam)

        r01 = (refl(lam) - refl(1)) / n
        return (r01 * mpmath.exp(-k * (mpmath.mpf(x) + mpmath.mpf(y)))
                / (2 * k)).real


def _mp_transfer(b, points, kappa, x, y):
    """Kernel of the half line with psi'(0) = b psi(0) and delta potentials
    at 50 digits, from 2 x 2 transfer matrices: G = -u(lo) phi(hi) / W,
    W = u phi' - u' phi, u regular at 0 and phi decaying at infinity or
    vanishing at the first screen past hi (no screen below hi)."""
    with mpmath.workdps(50):
        k = mpmath.mpf(kappa)
        lo, hi = sorted((mpmath.mpf(x), mpmath.mpf(y)))
        finite = [(mpmath.mpf(p.a), mpmath.mpf(p.c)) for p in points
                  if math.isfinite(p.c)]
        screens = [mpmath.mpf(p.a) for p in points if math.isinf(p.c)]
        assert all(a > hi for a in screens)

        def carry(state, start, stop):
            sign = 1 if stop > start else -1
            for a, c in sorted(finite, reverse=sign < 0):
                if min(start, stop) < a < max(start, stop):
                    state = free(state, a - start)
                    state, start = (state[0], state[1] + sign * c
                                    * state[0]), a
            return free(state, stop - start)

        def free(state, d):
            v, dv = state
            return (v * mpmath.cosh(k * d) + dv * mpmath.sinh(k * d) / k,
                    v * k * mpmath.sinh(k * d) + dv * mpmath.cosh(k * d))

        u = carry((mpmath.mpf(1), mpmath.mpf(b)), mpmath.mpf(0), lo)
        if screens:
            start, state = min(screens), (mpmath.mpf(0), mpmath.mpf(1))
        else:
            start = max([hi] + [a for a, _ in finite]) + 1
            state = (mpmath.mpf(1), -k)
        phi_hi = carry(state, start, hi)
        phi = carry(phi_hi, hi, lo)
        return -u[0] * phi_hi[0] / (u[0] * phi[1] - u[1] * phi[0])


class TestCarriedSolutions:
    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize("kappa,x,y", [
        (1.0, 10.0, 10.5), (80.0, 0.5, 0.6), (20.0, 1.0, 2.0),
        (80.0, 0.06, 1.5), (80.0, 1.5, 1.5)])
    def test_cross_edge_values_keep_their_digits(self, n, kappa, x, y):
        # every entry summed sum_k (P_k)_01 g_k, where the direct terms
        # cancel in rounding: (10, 10.5) at kappa = 1 was off by 1.1e-7,
        # and (0.5, 0.6) at kappa = 80 returned 0.0 for -7.14e-43.
        # Measured now: at most 1.9e-15, at (0.5, 0.6) and kappa = 80,
        # where the rounding of kappa y = 48 alone moves the value by 1.8e-15
        got = star_green(StarModel(n=n, kind="delta_prime_s", beta=1.3),
                         kappa, 0, x, 1, y)
        want = _mp_cross_edge(n, 1.3, kappa, x, y)
        assert abs(got - want) <= 5e-15 * abs(want), float(want)

    @pytest.mark.parametrize("points,want", [
        ([PointInteraction(1.0, math.inf)], 0.502069085166149),
        ([PointInteraction(1.0, 5.0)], 0.9471772708646425),
        ([PointInteraction(0.3, -2.0)], -0.1394462595550355),
    ], ids=["screen", "repulsive", "attractive"])
    def test_points_lift_a_vertex_bound_state(self, points, want):
        # Robin(-1) has its bound state at kappa = 1, which a point on the
        # edge moves away; a vertex guard that ran before the points
        # entered raised PoleError here.  Measured: at most 5.7e-16
        got = halfline_kernel(HalflineBC.robin(-1.0), points, 1.0)(0.5, 0.7)
        ref = _mp_transfer(-1.0, points, 1.0, 0.5, 0.7)
        assert abs(ref - want) <= 1e-15
        assert abs(got - ref) <= 1e-15 * abs(ref), float(ref)

    @pytest.mark.parametrize("family", ["delta_prime_s", "delta_prime"])
    @pytest.mark.parametrize("n", [2, 3])
    def test_guard_trips_next_to_the_approximant_bound_state(self, family,
                                                            n):
        # beta = -(n / kappa)(1 + 1e-8) at a = 1e-6: the approximant's
        # bound state is 5e-7 relative away from kappa = 0.5, and J_k
        # cancels between c phi'(0) and s phi(0) at a base Robin constant
        # of about 1e12, so the kernel would lose four digits
        kappa = 0.5
        beta = -(n / kappa) * (1.0 + 1e-8)
        kind, n, b, point = approximant_model(schedule(family, beta, n, 1e-6))
        model = StarModel(n=n, kind=kind, b=b, point=point)
        with pytest.raises(PoleError):
            star_green(model, kappa, 0, 0.5, n - 1, 0.7)


# ======================================================================
#  non-finite input
# ======================================================================

class TestNonFiniteInput:
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_kernel_arguments(self, value):
        # before the check these returned nan (inf with a RuntimeWarning)
        bc = HalflineBC.neumann()
        model = StarModel(n=2, kind="central_delta", b=1.5,
                          point=PointInteraction(0.5, -2.0))
        calls = [
            lambda: halfline_kernel(bc, (), 1.0)(value, 1.0),
            lambda: halfline_kernel(bc, (), 1.0)(1.0, value),
            lambda: halfline_kernel(bc, (PointInteraction(0.5, 2.0),),
                                    1.0)(value, 1.0),
            lambda: halfline_kernel(bc, [], 1.0)(np.array([1.0, value]), 1.0),
            lambda: star_green(model, 1.0, 0, value, 1, 2.0),
            lambda: star_green(StarModel(n=3, kind="delta_prime", beta=1.0),
                               1.0, 0, 1.0, 1, value),
        ]
        for call in calls:
            with pytest.raises(ValueError):
                call()

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_star_model_parameters(self, value):
        # a NaN was accepted before, and central_delta(2, inf) would be a
        # Dirichlet star through make_coupling
        for make in (_star_maker("delta_prime_s"), _star_maker("delta_prime"),
                     _star_maker("central_delta"),
                     _star_maker("central_delta_p")):
            with pytest.raises(ValueError):
                make(2, value)

    @pytest.mark.parametrize("value", [True, False, np.True_],
                             ids=["True", "False", "np.True_"])
    def test_halfline_bc_refuses_bools(self, value):
        # robin(True) was the Robin condition b = 1.0
        for make in (HalflineBC.robin,
                     lambda v: HalflineBC.robin_scaled(2, v)):
            with pytest.raises(ValueError, match="bool"):
                make(value)

    @pytest.mark.parametrize("value", [True, False, np.True_],
                             ids=["True", "False", "np.True_"])
    def test_star_model_refuses_bools(self, value):
        # delta_prime(2, True) was the star with beta = 1.0
        for make in (_star_maker("delta_prime_s"), _star_maker("delta_prime"),
                     _star_maker("central_delta"),
                     _star_maker("central_delta_p")):
            with pytest.raises(ValueError, match="bool"):
                make(2, value)


class TestNonRealInput:
    @pytest.mark.parametrize("kappa", [np.complex128(1 + 2j), 1j, "1", True],
                             ids=["complex128", "complex", "str", "bool"])
    @pytest.mark.parametrize("entry", [
        lambda k: vertex_kernel(make_coupling("delta", 2, 0.5), [], k),
        lambda k: halfline_kernel(HalflineBC.neumann(), (), k),
        lambda k: star_green(StarModel(n=3, kind="delta_prime", beta=1.0), k,
                             0, 0.5, 1, 0.3),
        lambda k: fd_resolvent_halfline(HalflineBC.neumann(), [], k,
                                        GridSpec(12.0, 99)),
        lambda k: fd_resolvent_star(
            StarModel(n=2, kind="delta_prime_s", beta=1.0), k,
            GridSpec(12.0, 99)),
        lambda k: convergence_sweep("delta_prime_s", 1.0, 2, k, [1e-2],
                                    GridSpec(12.0, 99)),
    ], ids=["vertex_kernel", "halfline_kernel", "star_green",
            "fd_resolvent_halfline", "fd_resolvent_star", "convergence_sweep"])
    def test_kappa(self, entry, kappa):
        # np.complex128(1 + 2j) passed with a ComplexWarning (the Neumann
        # kernel read 0.127 - 0.254j at (0.5, 0.3)); 1j and "1" raised
        # TypeError; True ran at kappa = 1, also when a kappa = 1.0 kernel
        # was already in the kernel memo
        entry(1.0)
        with pytest.raises(ValueError, match="real number"):
            entry(kappa)

    @pytest.mark.parametrize("value", [
        np.array([0.5 + 1j]), "0.5", 0.5 + 1j, np.array([True]),
        np.array([0.5], dtype=object), True],
        ids=["complex-array", "str", "complex", "bool-array", "object-array",
             "bool"])
    def test_kernel_arguments(self, value):
        # a complex array was computed on with a ComplexWarning, "0.5" and
        # the bool and object arrays were read as numbers, 0.5 + 1j raised
        # TypeError, and the float path read True as 1.0
        model = StarModel(n=2, kind="central_delta", b=1.5,
                          point=PointInteraction(0.5, -2.0))
        kernel = halfline_kernel(HalflineBC.neumann(), (), 1.0)
        calls = [lambda: kernel(value, 1.0), lambda: kernel(1.0, value),
                 lambda: star_green(model, 1.0, 0, value, 1, 2.0),
                 lambda: star_green(model, 1.0, 1, 2.0, 0, value)]
        for call in calls:
            with pytest.raises(ValueError, match="real numbers"):
                call()


# ======================================================================
#  the star kernel against its sector reassembly
# ======================================================================

def _sector_reassembly(sectors, n, kappa, j, x, l, y):
    lead = sector_green(sectors[0], kappa, x, y)
    if n == 1:
        return lead
    rest = sector_green(sectors[1], kappa, x, y)
    return lead / n + ((j == l) - 1.0 / n) * rest


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
        target = kind.startswith("delta_prime")
        xs = np.array([0.0, 0.2, 0.5, 1.1, 3.0])
        for param in (1.3, -0.7) if target else (-3.3, 2.5):
            model = StarModel(n=n, kind=kind, point=point,
                              **{"beta" if target else "b": param})
            sectors = sector_decompose(kind, n, param, point)
            for kappa in (0.5, 1.0, 2.0):
                for j in range(n):
                    for l in range(n):
                        got = star_green(model, kappa, j, xs[:, None], l,
                                         xs[None, :])
                        want = _sector_reassembly(sectors, n, kappa, j,
                                                  xs[:, None], l, xs[None, :])
                        assert np.max(np.abs(got - want)) <= 1e-13, \
                            (kind, param, kappa, j, l)


class TestLineOfThreeDeltas:
    """At n = 2 a star is the real line, edge 0 the half x < 0 and edge 1
    the half x > 0, and the delta_prime_s approximant is Cheon and
    Shigehara's -d^2/dx^2 - (beta / a^2) delta(x) - (1 / a) (delta(x - a) +
    delta(x + a)) (Phys. Lett. A 243 (1998) 111); the delta_prime one,
    central_delta_p with b = -beta / a^2, is its image under psi -> -psi
    on x < 0.  oracles.line_green gives its kernel at 50 digits from the
    three deltas alone."""

    @staticmethod
    def pairs(a):
        # (x, y) on one half, across the vertex, within [-a, a] and from
        # within it out
        return [(0.3, 0.7), (-0.4, 1.1), (-0.2, -0.9), (0.5 * a, -0.3 * a),
                (0.25 * a, 0.75 * a), (-0.6 * a, 2.5)]

    def test_oracle_is_the_free_and_the_one_delta_kernel(self):
        kappa, c = 0.7, 1.9
        for x, y in self.pairs(1.0):
            free = math.exp(-kappa * abs(x - y)) / (2 * kappa)
            one = free - c * math.exp(-kappa * (abs(x) + abs(y))) \
                / (2 * kappa * (2 * kappa + c))
            assert abs(line_green([], kappa, x, y) - free) <= 1e-16
            assert abs(line_green([(0.0, c)], kappa, x, y) - one) <= 1e-16

    # worst relative errors measured over the 54 cases of each a: 2.7e-15,
    # 7.2e-14, 1.04e-12 (delta_prime_s) and 3.4e-15, 7.2e-14, 1.04e-12
    # (delta_prime); each bound is about twice its measurement
    @pytest.mark.parametrize("family,a,bound", [
        ("delta_prime_s", 1e-1, 6e-15), ("delta_prime_s", 1e-2, 1.5e-13),
        ("delta_prime_s", 1e-3, 2.1e-12), ("delta_prime", 1e-1, 7e-15),
        ("delta_prime", 1e-2, 1.5e-13), ("delta_prime", 1e-3, 2.1e-12)])
    def test_approximant_is_the_line(self, family, a, bound):
        satellite = PointInteraction(a, -1.0 / a)
        worst = 0.0
        for beta in (1.0, -0.7, 3.0):
            if family == "delta_prime_s":
                b = -beta / (2.0 * a * a)
                model = StarModel(2, "central_delta", b=b, point=satellite)
                center = 2.0 * b      # the two edges' strength n b
            else:
                center = b = -beta / (a * a)
                model = StarModel(2, "central_delta_p", b=b, point=satellite)
            deltas = [(-a, -1.0 / a), (0.0, center), (a, -1.0 / a)]
            for kappa in (0.5, 1.0, 2.0):
                for x, y in self.pairs(a):
                    j, l = int(x > 0), int(y > 0)
                    want = line_green(deltas, kappa, x, y)
                    if family == "delta_prime" and j != l:
                        want = -want    # the gauge flips one side
                    got = star_green(model, kappa, j, abs(x), l, abs(y))
                    worst = max(worst, float(abs(got - want) / abs(want)))
        assert worst <= bound, worst


class TestLineDeltaPrime:
    """At n = 2 the delta_prime target is the line delta' interaction:
    psi' is continuous and psi(0+) - psi(0-) = beta psi'(0), whose kernel
    oracles.line_delta_prime types in with no U, eigenphase or sector;
    delta_prime_s is its image under psi -> -psi on x < 0, which flips the
    sign across the edges."""

    # worst relative errors measured against the 50-digit kernel: 8.2e-15
    # at beta = -0.7, kappa = 2, where W = 0.6 kappa sits next to the
    # bound state at kappa = 2/0.7, and 4.0e-16 elsewhere (9.8e-15 and
    # 6.7e-16 against the same form in doubles, which set the bounds)
    @pytest.mark.parametrize("family, sign", [("delta_prime", 1.0),
                                              ("delta_prime_s", -1.0)])
    def test_target_is_the_line_delta_prime(self, family, sign):
        worst = {True: 0.0, False: 0.0}
        for beta in (1.0, -0.7, 3.0, -3.0):
            model = StarModel(2, family, beta=beta)
            for kappa in (0.5, 1.0, 2.0):
                near_pole = beta == -0.7 and kappa == 2.0
                for x, y in ((0.3, 0.7), (1.5, 0.2), (0.0, 2.0), (1.0, 1.0),
                             (4.0, 0.5)):
                    for j in (0, 1):
                        for l in (0, 1):
                            want = line_delta_prime(beta, kappa, j, x, l, y)
                            if j != l:
                                want *= sign
                            got = star_green(model, kappa, j, x, l, y)
                            worst[near_pole] = max(
                                worst[near_pole],
                                float(abs(got - want) / abs(want)))
        assert worst[True] <= 2e-14 and worst[False] <= 1.5e-15, worst


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
            assert satisfies_vertex_condition(coupling, psi, dpsi, tol=1e-6)

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


# ======================================================================
#  Haar-random couplings with points, against 50 digits
# ======================================================================

def _mp_star_kernel(u, points, kappa, xs):
    """G_jl(x, y) for x, y in xs as n x n mpmath matrices keyed (x, y): the
    matrix formula (delta_jl e^{-kappa |x - y|} + R_jl e^{-kappa (x + y)})
    / (2 kappa), R = S_U(i kappa), then one Krein update over every pair
    (edge e, a_q), at 50 digits."""
    with mpmath.workdps(50):
        n = u.shape[0]
        k = mpmath.mpf(kappa)
        um = mpmath.matrix([[mpmath.mpc(complex(v)) for v in row]
                            for row in u])
        eye = mpmath.eye(n)
        ik = mpmath.mpc(0, k)
        refl = ((ik - 1) * eye + (ik + 1) * um) \
            * mpmath.inverse((ik + 1) * eye + (ik - 1) * um)

        def g0(x, y):
            x, y = mpmath.mpf(x), mpmath.mpf(y)
            return (mpmath.exp(-k * abs(x - y)) * eye
                    + mpmath.exp(-k * (x + y)) * refl) / (2 * k)

        out = {(x, y): g0(x, y) for x in xs for y in xs}
        if not points:
            return out
        m = n * len(points)

        def rows(x):      # G0(x, P): n x m, P = (edge, point) point-major
            g = mpmath.matrix(n, m)
            for q, p in enumerate(points):
                block = g0(x, p.a)
                for j in range(n):
                    for e in range(n):
                        g[j, q * n + e] = block[j, e]
            return g

        inner = mpmath.matrix(m, m)
        for q, p in enumerate(points):
            block = rows(p.a)
            for j in range(n):
                for col in range(m):
                    inner[q * n + j, col] = block[j, col]
                if math.isfinite(p.c):
                    inner[q * n + j, q * n + j] += 1 / mpmath.mpf(p.c)
        inverse = mpmath.inverse(inner)
        left = {x: rows(x) for x in xs}
        right = {}        # (C^{-1} + G0(P, P))^{-1} G0(P, y), m x n
        for y in xs:
            g = mpmath.matrix(m, n)
            for q, p in enumerate(points):
                block = g0(p.a, y)
                for e in range(n):
                    for l in range(n):
                        g[q * n + e, l] = block[e, l]
            right[y] = inverse * g
        return {(x, y): out[x, y] - left[x] * right[y] for x in xs for y in xs}


class TestHaarAgainstMpmath:
    """vertex_kernel for Haar U with 0-2 points against the 50-digit
    matrix formula, on the first 100 cases of the draw and on case 985
    (n = 4, two points, kappa = 0.8218), which the p x p Krein block
    missed by 2.7e-12.  Measured, relative to each case's largest kernel
    value: median 6.8e-16, worst 4.0e-13, where a point sits next to an
    eigenvalue of the perturbed operator and the largest value is
    460 / kappa; case 985 is off by 6.9e-15."""

    XS = (0.0, 0.35, 1.2, 2.9)
    CASES = (*range(100), 985)

    def test_matches_the_matrix_formula(self):
        rng = np.random.default_rng(1)
        errors = []
        for case in range(max(self.CASES) + 1):
            n = int(rng.integers(1, 6))
            u = random_unitary(n, rng)
            points = [PointInteraction(float(rng.uniform(0.2, 2.5)),
                                       float(rng.uniform(-4.0, 4.0)))
                      for _ in range(int(rng.integers(0, 3)))]
            kappa = float(rng.uniform(0.3, 3.0))
            if case not in self.CASES:
                continue
            kernel = vertex_kernel(VertexCoupling.custom(u), points, kappa)
            want = _mp_star_kernel(u, points, kappa, self.XS)
            err = scale = 0.0
            for (x, y), g in want.items():
                for j in range(n):
                    for l in range(n):
                        ref = complex(g[j, l])
                        err = max(err, abs(kernel(j, x, l, y) - ref))
                        scale = max(scale, abs(ref))
            assert err <= 2e-12 * scale, (n, points, kappa, err / scale)
            errors.append(err / scale)
        assert np.median(errors) <= 2e-15


# ======================================================================
#  work per evaluation, and what the entry points accept
# ======================================================================

class TestWorkCount:
    @pytest.mark.parametrize("npoints", [0, 1, 2, 3])
    @pytest.mark.parametrize("coupling", [
        make_coupling("delta", 3, 1.5),
        VertexCoupling.custom(np.array([[0.6, 0.8j], [0.8j, 0.6]])),
    ], ids=["family", "decomposed"])
    def test_one_point_needs_no_svd_and_no_solve(self, coupling, npoints,
                                                monkeypatch):
        # no np.linalg call in a build or a value, for any number of
        # points; the third is a screen, so the kernel has a segment past
        # it, and values are taken on both sides of it
        coupling.eigenphases          # the decomposition is not counted
        calls = []
        for name in dir(np.linalg):
            routine = getattr(np.linalg, name)
            if name.startswith("_") or not callable(routine) \
                    or isinstance(routine, type):
                continue

            def counted(*args, _name=name, _f=routine, **kwargs):
                calls.append(_name)
                return _f(*args, **kwargs)
            monkeypatch.setattr(np.linalg, name, counted)
        points = [PointInteraction(0.5, -2.0), PointInteraction(1.1, 0.8),
                  PointInteraction(1.6, math.inf)][:npoints]
        kernel = vertex_kernel(coupling, points, 1.0)
        value = kernel(0, 0.3, coupling.n - 1, 0.7)
        beyond = kernel(0, 1.8, 0, np.array([2.0, 2.4]))
        assert calls == []
        assert type(value) is float          # U = U^T
        array = kernel(0, np.array([0.3]), coupling.n - 1, 0.7)
        assert abs(value - array[0]) <= 1e-15
        assert (beyond != 0.0).all()

    def test_scalars_give_complex_when_u_is_not_symmetric(self):
        u = random_unitary(3, np.random.default_rng(5))
        kernel = vertex_kernel(VertexCoupling.custom(u),
                               [PointInteraction(0.5, -2.0)], 1.0)
        value = kernel(2, 0.3, 0, 0.7)
        assert type(value) is complex
        assert abs(value - kernel(2, np.array([0.3]), 0, 0.7)[0]) <= 1e-15


class TestGridRows:
    """The rows that greens --grid prints, [kernel(x_i, x_k) for k >= i]
    on increasing float nodes, equal the scalar kernel bit for bit (signed
    zeros included): each entry is its arithmetic, in its order."""

    @staticmethod
    def assert_rows_are_scalar(bc, points, kappa, nodes):
        kernel = halfline_kernel(bc, points, kappa)
        rows = list(_halfline_rows(bc, points, kappa, nodes))
        assert [len(row) for row in rows] \
            == list(range(len(nodes), 0, -1))
        for i, row in enumerate(rows):
            x = nodes[i]
            assert [struct.pack("d", v) for v in row] \
                == [struct.pack("d", kernel(x, y)) for y in nodes[i:]] \
                == [struct.pack("d", kernel(y, x)) for y in nodes[i:]], i

    @staticmethod
    def grid_nodes(length, n_nodes):
        return GridSpec(length, n_nodes).boundary_nodes()

    @pytest.mark.parametrize("points", [
        [],
        [(1.5, math.inf)],                       # a screen inside [0, L]
        [(0.5, -2.0), (2.5, 0.8), (6.0, math.inf)],
        [(13.0, math.inf), (0.7, 1.1)],          # a screen beyond L
        [(0.6, -1.0), (0.6, 0.4), (3.0, 2.0)],   # two points at one place
        [(4, 0.7), (16, math.inf), (32, -0.9)],  # on nodes, one past
        [(8, math.inf), (24, math.inf)],         # two screens, on nodes
        [(0.3, math.inf), (0.3, -4.0)],          # a screen wins its place
    ], ids=["none", "screen", "three", "screen-beyond-L", "two-at-one",
            "on-nodes", "two-screens", "screen-and-point"])
    @pytest.mark.parametrize("bc", [
        HalflineBC.dirichlet(), HalflineBC.neumann(), HalflineBC.robin(0.7),
        HalflineBC.robin_scaled(3, 0.8)],
        ids=["dirichlet", "neumann", "robin", "robin-scaled"])
    def test_rows_equal_the_scalar_kernel(self, bc, points):
        # an int position is the index of a node, which the point sits on
        nodes = self.grid_nodes(12.0, 39)
        self.assert_rows_are_scalar(
            bc, [PointInteraction(nodes[a] if type(a) is int else a, c)
                 for a, c in points], 1.3, nodes)

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(kind=st.sampled_from(["dirichlet", "neumann", "robin",
                                 "robin_scaled"]),
           param=st.floats(-3.0, 3.0), edges=st.integers(1, 4),
           length=st.floats(0.3, 12.0), n_nodes=st.integers(16, 40),
           kappa=st.floats(0.2, 3.0),
           spots=st.lists(st.tuples(st.integers(0, 2), st.floats(0.01, 1.5),
                                    st.integers(1, 41),
                                    st.one_of(st.just(math.inf),
                                              st.floats(-3.0, 3.0))),
                          max_size=3))
    def test_random_rows_equal_the_scalar_kernel(
            self, kind, param, edges, length, n_nodes, kappa, spots):
        # each point sits at a fraction of L (screens beyond L included),
        # on a node, or where the point before it sits
        bc = {"dirichlet": HalflineBC.dirichlet,
              "neumann": HalflineBC.neumann,
              "robin": lambda: HalflineBC.robin(param),
              "robin_scaled": lambda: HalflineBC.robin_scaled(edges, param),
              }[kind]()
        nodes = self.grid_nodes(length, n_nodes)
        points = []
        for where, fraction, node, c in spots:
            a = (fraction * length, nodes[min(node, n_nodes + 1)],
                 points[-1].a if points else nodes[1])[where]
            points.append(PointInteraction(a, c))
        try:
            halfline_kernel(bc, points, kappa)
        except PoleError:
            return
        self.assert_rows_are_scalar(bc, points, kappa, nodes)

    @pytest.mark.parametrize("coupling", [
        make_coupling("delta_prime", 3, 0.9),
        VertexCoupling.custom(random_unitary(3, np.random.default_rng(11)))],
        ids=["family", "complex"])
    def test_star_rows_equal_the_scalar_kernel_on_each_edge(self, coupling):
        points = [PointInteraction(0.6, -1.5), PointInteraction(2.4, math.inf)]
        kernel = vertex_kernel(coupling, points, 1.1)
        nodes = self.grid_nodes(4.0, 19)
        for j in range(coupling.n):
            for i, row in enumerate(kernel._rows(j, nodes)):
                # repr tells the signed zeros of a float or complex apart
                assert list(map(repr, row)) == [
                    repr(kernel(j, nodes[i], j, y)) for y in nodes[i:]]


class TestNamedCoupling:
    """_named_coupling memoises make_coupling per (family, n, param) entry:
    entries that compare equal share one coupling, which must equal a
    fresh make_coupling of either."""

    @pytest.mark.parametrize("first,second", [
        (("delta_prime_s", 2, 3), ("delta_prime_s", 2, 3.0)),
        (("delta_prime_s", 2, 3.0), ("delta_prime_s", 2, 3)),
        (("delta", 3, 0.0), ("delta", 3, -0.0)),
        (("delta", 3, -0.0), ("delta", 3, 0.0)),
        (("delta_p", 2, np.float64(0.7)), ("delta_p", 2, 0.7)),
        (("delta_prime", 4, 0.7), ("delta_prime", 4, np.float64(0.7))),
    ], ids=repr)
    def test_equal_vertices_name_equal_couplings(self, first, second):
        _named_coupling.cache_clear()
        cached = _named_coupling(first)
        assert _named_coupling(second) is cached
        for vertex in (first, second):
            assert np.array_equal(cached.u, make_coupling(*vertex).u)

    def test_nan_parameter_raises_on_every_call(self):
        for _ in range(3):
            with pytest.raises(InvalidCouplingError):
                _named_coupling(("delta", 2, math.nan))


class TestPointsMustBePointInteractions:
    BAD = [(0.5, -2.0)]

    def test_vertex_kernel(self):
        with pytest.raises(ValueError, match="not a PointInteraction"):
            vertex_kernel(make_coupling("delta", 2, 1.0), self.BAD, 1.0)

    def test_halfline_kernel(self):
        with pytest.raises(ValueError, match="not a PointInteraction"):
            halfline_kernel(HalflineBC.dirichlet(), self.BAD, 1.0)
        with pytest.raises(ValueError, match="not a PointInteraction"):
            halfline_kernel(HalflineBC.dirichlet(), [[0.5, -2.0]], 1.0)

    @pytest.mark.parametrize("entry", [
        halfline_kernel,
        lambda bc, points, kappa: _halfline_rows(bc, points, kappa, [0.0])])
    def test_half_line_entries_check_their_points_once(self, entry,
                                                       monkeypatch):
        # one check on a memo hit; a miss checks again in _kernel's _star
        # and in vertex_kernel (_star calls coupling's check_points, the
        # kernel greens' binding of it)
        calls = []

        def counting(points):
            calls.append(points)
            return check_points(points)

        monkeypatch.setattr(coupling_module, "check_points", counting)
        monkeypatch.setattr(greens, "check_points", counting)
        greens._kernel.cache_clear()
        bc, points = HalflineBC.robin(0.3), [PointInteraction(0.9, 1.7)]
        entry(bc, points, 1.2)
        assert len(calls) == 3
        entry(bc, points, 1.2)
        assert len(calls) == 4

    def test_grid_rows_refuse_a_star(self):
        # the rows read edge 0 of a kernel, which is the half line only
        # when the coupling has one edge; halfline_kernel refuses the same
        for entry in (halfline_kernel, lambda *args: _halfline_rows(
                *args, [0.0, 1.0])):
            with pytest.raises(ValueError, match="1-edge VertexCoupling"):
                entry(make_coupling("delta", 3, 0.5), [], 1.0)


class TestScalarTypes:
    """Plain ints and floats take the evaluator's type test first, numpy
    scalars that are floats (np.float64) its isinstance ladder, and other
    numpy scalars and 0-d arrays (np.float32) the float path through
    float(): all give the same bits, a Python float (complex when
    U != U^T)."""

    SCREEN = PointInteraction(2.5, math.inf)
    MODELS = {
        "delta_prime_s": StarModel(n=3, kind="delta_prime_s", beta=1.3),
        "delta_prime": StarModel(n=4, kind="delta_prime", beta=0.7),
        "central_delta": StarModel(n=3, kind="central_delta", b=-1.0,
                                   point=PointInteraction(1.0, 2.0)),
        "central_delta_p": StarModel(n=2, kind="central_delta_p", b=0.4,
                                     point=PointInteraction(2.0, -0.5))}
    #: integer-valued coordinates, so each has a Python int twin; the
    #: last two lie past the screen of the screened cases
    XY = [(0, 0), (1, 2), (2, 1), (3, 3), (0, 4), (3, 5)]

    @staticmethod
    def _same_bits(kernel, j, l):
        for x, y in TestScalarTypes.XY:
            want = kernel(j, float(x), l, float(y))
            assert type(want) in (float, complex)
            for args in ((j, x, l, y),
                         (j, np.float64(x), l, np.float64(y)),
                         (np.int64(j), float(x), np.int64(l), float(y)),
                         (np.int64(j), np.float64(x), l, y),
                         (j, np.float32(x), l, np.float32(y)),
                         (j, np.float32(x), l, float(y)),
                         (j, x, l, np.array(np.float32(y))),
                         (j, np.int64(x), l, np.float32(y))):
                got = kernel(*args)
                assert type(got) is type(want) and repr(got) == repr(want)

    @pytest.mark.parametrize("kind", MODELS)
    def test_star_green_and_vertex_kernel(self, kind):
        model = self.MODELS[kind]
        coupling, points = model
        screened = vertex_kernel(coupling, (*points, self.SCREEN), 1.3)
        for j in range(coupling.n):
            for l in (0, coupling.n - 1):
                self._same_bits(
                    lambda *a: star_green(model, 1.3, *a), j, l)
                self._same_bits(screened, j, l)

    def test_decomposed_coupling(self):
        for u in (random_unitary(3, np.random.default_rng(5)),
                  np.array([[0.6, 0.8j, 0.0], [0.8j, 0.6, 0.0],
                            [0.0, 0.0, 1.0]])):
            kernel = vertex_kernel(VertexCoupling.custom(u),
                                   [PointInteraction(0.5, -2.0)], 1.0)
            for j in range(3):
                self._same_bits(kernel, j, 2 - j)

    @pytest.mark.parametrize("bc", ALL_BCS, ids=[
        "dirichlet", "neumann", "robin0", "robin1", "robin_scaled"])
    def test_halfline_kernel(self, bc):
        for points in ((), (PointInteraction(1.0, -0.5), self.SCREEN)):
            kernel = halfline_kernel(bc, points, 1.1)
            self._same_bits(lambda j, x, l, y: kernel(x, y), 0, 0)

    @pytest.mark.parametrize("scalar", [np.float32, np.float64, int])
    def test_numpy_kappa_and_points_run_in_doubles(self, scalar):
        # an np.float32 kappa, point position or strength made the
        # kernels compute in float32
        kappa = scalar(2)
        model = StarModel(n=3, kind="delta_prime_s", beta=1.3)
        want = star_green(model, float(kappa), 0, 0.5, 1, 0.7)
        got = star_green(model, kappa, 0, 0.5, 1, 0.7)
        assert type(got) is float and repr(got) == repr(want)
        assert star_green(model, np.float32(1.1), 0, 0.5, 1, 0.7) \
            == star_green(model, float(np.float32(1.1)), 0, 0.5, 1, 0.7)
        point = PointInteraction(scalar(1), scalar(-2))
        assert type(point.a) is type(point.c) is float
        for bc in ALL_BCS:
            got = halfline_kernel(bc, [point], kappa)(0.5, 0.7)
            want = halfline_kernel(bc, [PointInteraction(1.0, -2.0)],
                                   float(kappa))(0.5, 0.7)
            assert type(got) is float and repr(got) == repr(want)


class TestStarModelPair:
    """StarModel is the pair (coupling, points): the memoised coupling of
    its kind's (family, n, param) entry, and its point, if any."""

    def test_equal_models_are_one_pair(self):
        point = PointInteraction(2.01, 0.5)
        model = StarModel(n=3, kind="central_delta", b=0.7, point=point)
        twin = StarModel(n=3, kind="central_delta", b=0.7,
                         point=PointInteraction(2.01, 0.5))
        assert model == twin and hash(model) == hash(twin)
        assert model[0] is twin[0] and model[1] == (point,)
        assert StarModel(n=3, kind="central_delta", b=0.7) == (model[0], ())
        assert star_green(model, 1.0, 0, 1.0, 2, 1.5) \
            == star_green(twin, 1.0, 0, 1.0, 2, 1.5)

    @pytest.mark.parametrize("kind,param,vertex", [
        ("delta_prime_s", 1.3, ("delta_prime_s", 3, 1.3)),
        ("delta_prime", 0.4, ("delta_prime", 3, 0.4)),
        ("central_delta", 0.7, ("delta", 3, 3 * 0.7)),
        ("central_delta_p", 0.7, ("delta_p", 3, 0.7))])
    def test_each_kind_names_its_coupling(self, kind, param, vertex):
        coupling, points = _star_maker(kind)(3, param)
        assert coupling is _named_coupling(vertex) and points == ()
        np.testing.assert_array_equal(coupling.u, make_coupling(*vertex).u)
