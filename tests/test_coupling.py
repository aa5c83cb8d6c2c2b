"""Coupling algebra tests.

Expected values come from hand-evaluated complex arithmetic on the family
closed forms, from exact limit cases (Dirichlet/Neumann decoupling), and
from algebraic identities (round trips, projector idempotence).
"""

import inspect
import math

import mpmath
import numpy as np
import pytest
import scipy.linalg

from conftest import random_invertible, random_unitary, unitary_with_phase
from oracles import decoupled_projection, satisfies_vertex_condition
from starcouplings import (ABPair, InvalidCouplingError, VertexCoupling,
                           from_ab, make_coupling, rescale_length, to_ab,
                           unitarity_defect, validate_ab)
from starcouplings.scattering import (REFINE_COND, _s_sectors, bound_states,
                                      s_matrix)
from starcouplings import coupling as coupling_module
from starcouplings.coupling import (DECOUPLED_EIGENVALUE_TOL, FAMILIES,
                                    SINGULAR_COND, UNITARITY_TOL)

RNG = np.random.default_rng(20260810)


def _exact_family(family: str, n: int, param: float) -> mpmath.matrix:
    """The module-docstring formula of a family's U in mpmath, at the
    working precision of the caller."""
    n_, p, i = mpmath.mpf(n), mpmath.mpf(param), mpmath.mpc(0, 1)
    eye, j = mpmath.eye(n), mpmath.ones(n, n)
    if family == "delta":
        return 2 / (n_ + i * p) * j - eye
    if family == "delta_prime_s":
        return eye - 2 / (n_ - i * p) * j
    if family == "delta_p":
        return (n_ - i * p) / (n_ + i * p) * eye - 2 / (n_ + i * p) * j
    return -(n_ + i * p) / (n_ - i * p) * eye + 2 / (n_ - i * p) * j


def _max_error(u: np.ndarray, exact: mpmath.matrix) -> float:
    n = u.shape[0]
    return max(float(abs(mpmath.mpc(complex(u[r, c])) - exact[r, c]))
               for r in range(n) for c in range(n))


# ======================================================================
#  make_coupling: family closed forms
# ======================================================================

class TestMakeCoupling:
    def test_kirchhoff_n2_swaps_edges(self):
        c = make_coupling("delta", 2, 0.0)
        np.testing.assert_allclose(c.u, [[0, 1], [1, 0]], atol=1e-15)

    def test_delta_infinite_alpha_is_dirichlet(self):
        c = make_coupling("delta", 3, math.inf)
        np.testing.assert_allclose(c.u, -np.eye(3), atol=0)

    def test_delta_prime_s_infinite_beta_is_neumann(self):
        c = make_coupling("delta_prime_s", 3, math.inf)
        np.testing.assert_allclose(c.u, np.eye(3), atol=0)

    def test_delta_p_infinite_alpha_is_dirichlet(self):
        c = make_coupling("delta_p", 4, -math.inf)
        np.testing.assert_allclose(c.u, -np.eye(4), atol=0)

    def test_delta_prime_n2_beta1_entries(self):
        # -(2+i)/(2-i) = -(0.6+0.8i); 2/(2-i) = 0.8+0.4i; diagonal is the sum
        c = make_coupling("delta_prime", 2, 1.0)
        expected = np.array([[0.2 - 0.4j, 0.8 + 0.4j],
                             [0.8 + 0.4j, 0.2 - 0.4j]])
        np.testing.assert_allclose(c.u, expected, atol=1e-15)
        assert unitarity_defect(c.u) < 1e-12

    def test_all_families_unitary_over_random_parameters(self):
        params = RNG.uniform(-25.0, 25.0, size=100)
        for family in ("delta", "delta_prime_s", "delta_p", "delta_prime"):
            for n in range(1, 9):
                for p in params[::7]:
                    c = make_coupling(family, n, float(p))
                    assert unitarity_defect(c.u) < 1e-12

    def test_rejects_unknown_family(self):
        with pytest.raises(InvalidCouplingError):
            make_coupling("robin", 2, 0.0)

    def test_rejects_zero_edges(self):
        with pytest.raises(InvalidCouplingError):
            make_coupling("delta", 0, 1.0)

    @pytest.mark.parametrize("family", FAMILIES)
    def test_rejects_nan_parameter(self, family):
        with pytest.raises(InvalidCouplingError):
            make_coupling(family, 3, math.nan)

    @pytest.mark.parametrize("family", FAMILIES)
    @pytest.mark.parametrize("param", [True, False, np.True_, np.False_],
                             ids=["True", "False", "np.True_", "np.False_"])
    def test_rejects_bool_parameter(self, family, param):
        # make_coupling("delta", 2, True) was the alpha = 1 coupling
        with pytest.raises(InvalidCouplingError, match="bool"):
            make_coupling(family, 2, param)

    @pytest.mark.parametrize("family", FAMILIES)
    def test_matrices_match_the_closed_forms(self, family):
        # U is built from the family's eigenphases; the formulas of the
        # module docstring, in 40 digits, are an independent oracle
        with mpmath.workdps(40):
            for n in range(1, 9):
                for param in (0.0, 0.7, -0.7, 3.0, -12.0, 1e8, 1e-8):
                    u = make_coupling(family, n, param).u
                    assert _max_error(u, _exact_family(family, n, param)) \
                        <= 4e-16, (n, param)

    @pytest.mark.parametrize("n", [2.0, 2.5, True, "2", 0, -1])
    def test_edge_count_must_be_an_integer_at_least_one(self, n):
        # 2.0 and True pass a bare n >= 1 test; True would build a one-edge
        # vertex
        with pytest.raises(InvalidCouplingError, match="edge count"):
            make_coupling("delta", n, 0.0)

    def test_numpy_integer_edge_count_is_accepted(self):
        np.testing.assert_array_equal(
            make_coupling("delta", np.int64(3), 0.0).u,
            make_coupling("delta", 3, 0.0).u)

    def test_delta_eigenstructure(self):
        # J has eigenvalue n on constants and 0 on the complement, so the
        # delta matrix has (n - i a)/(n + i a) and -1
        n, alpha = 4, 3.0
        c = make_coupling("delta", n, alpha)
        lams = np.sort_complex(np.linalg.eigvals(c.u))
        expected = np.sort_complex(
            [(n - 1j * alpha) / (n + 1j * alpha)] + [-1.0] * (n - 1))
        np.testing.assert_allclose(lams, expected, atol=1e-12)


# ======================================================================
#  VertexCoupling invariants
# ======================================================================

class TestVertexCoupling:
    def test_rejects_nonunitary(self):
        with pytest.raises(InvalidCouplingError):
            VertexCoupling(np.array([[1.0, 0.1], [0.0, 1.0]]))

    @pytest.mark.parametrize("shape", [(0, 0), (2, 3), (3,), ()])
    def test_rejects_empty_or_non_square(self, shape):
        with pytest.raises(InvalidCouplingError, match="square"):
            VertexCoupling(np.ones(shape))

    def test_u_is_the_only_field(self):
        assert list(inspect.signature(VertexCoupling).parameters) == ["u"]
        c = VertexCoupling(make_coupling("delta_p", 4, 1.0).u)
        assert list(vars(c)) == ["u"] and c._fields == ("u",)
        assert repr(c) == f"VertexCoupling(u={c.u!r})"
        assert make_coupling("delta_p", 4, 1.0).n == 4

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_custom_rejects_non_finite_entries(self, bad):
        with pytest.raises(InvalidCouplingError):
            VertexCoupling.custom(np.full((2, 2), bad))
        u = np.eye(3, dtype=complex)
        u[1, 2] = bad
        with pytest.raises(InvalidCouplingError):
            VertexCoupling.custom(u)

    def test_compares_and_hashes_by_identity(self):
        # the generated == compared arrays (ValueError) and hash() raised
        # TypeError; equal values are compared with np.array_equal
        u = make_coupling("delta", 2, 0.0).u
        for make in (lambda: VertexCoupling(u),
                     lambda: ABPair(np.eye(2), np.zeros((2, 2))),
                     lambda: VertexCoupling(u).eigenphases):
            x, y = make(), make()
            assert x == x and not x == y and x != y
            assert len({x, y, x}) == 2

    def test_matrix_is_readonly(self):
        c = make_coupling("delta", 2, 1.0)
        with pytest.raises(ValueError):
            c.u[0, 0] = 0.0


# ======================================================================
#  to_ab / from_ab: conversions and round trips
# ======================================================================

class TestConversions:
    def test_neumann_pair(self):
        pair = to_ab(VertexCoupling.custom(np.eye(2)))
        np.testing.assert_allclose(pair.a, np.zeros((2, 2)), atol=0)
        np.testing.assert_allclose(pair.b, 2j * np.eye(2), atol=0)

    def test_dirichlet_pair(self):
        pair = to_ab(VertexCoupling.custom(-np.eye(2)))
        np.testing.assert_allclose(pair.a, -2 * np.eye(2), atol=0)
        np.testing.assert_allclose(pair.b, np.zeros((2, 2)), atol=0)

    def test_from_ab_neumann(self):
        c = from_ab(ABPair(np.zeros((3, 3)), np.eye(3)))
        np.testing.assert_allclose(c.u, np.eye(3), atol=1e-14)

    def test_from_ab_dirichlet(self):
        c = from_ab(ABPair(np.eye(3), np.zeros((3, 3))))
        np.testing.assert_allclose(c.u, -np.eye(3), atol=1e-14)

    def test_round_trip_random_unitaries(self):
        # through a pair made by hand, so from_ab solves for U
        for _ in range(20):
            n = int(RNG.integers(1, 7))
            u = random_unitary(n, RNG)
            pair = to_ab(VertexCoupling.custom(u))
            back = from_ab(ABPair(pair.a, pair.b))
            np.testing.assert_allclose(back.u, u, atol=1e-10)

    def test_left_multiplication_is_invisible(self):
        # (M A, M B) defines the same condition, so the same unitary
        for _ in range(10):
            n = int(RNG.integers(2, 6))
            u = random_unitary(n, RNG)
            pair = to_ab(VertexCoupling.custom(u))
            m = random_invertible(n, RNG)
            back = from_ab(ABPair(m @ pair.a, m @ pair.b))
            np.testing.assert_allclose(back.u, u, atol=1e-9)

    def test_scaled_pair_solution_sets_match(self):
        n = 4
        u = random_unitary(n, RNG)
        pair = to_ab(VertexCoupling.custom(u))
        m = random_invertible(n, RNG)
        a, b = m @ pair.a, m @ pair.b
        recovered = from_ab(ABPair(a, b))
        for _ in range(25):
            w = RNG.standard_normal(n) + 1j * RNG.standard_normal(n)
            # the solution set is psi = (I + U) w / 2, psi' = (I - U) w / (2i)
            psi = (w + u @ w) / 2.0
            dpsi = (w - u @ w) / 2j
            assert np.linalg.norm(a @ psi + b @ dpsi) < 1e-9 * np.linalg.norm(w)
            assert satisfies_vertex_condition(recovered, psi, dpsi, tol=1e-9)
        # and a vector off the solution set fails both forms
        psi = np.ones(n)
        dpsi = np.ones(n) * 17.0
        if np.linalg.norm(a @ psi + b @ dpsi) > 1e-6:
            assert not satisfies_vertex_condition(recovered, psi, dpsi,
                                                  tol=1e-9)

    def test_scaled_and_mixed_canonical_pairs(self):
        # (M A, M B) with M = s Q1 diag(d) Q2, s in [1e-8, 1e8] and
        # cond(M) = 1e3 for n >= 2: the pair stays admissible and gives U
        # back.  The error grows like eps cond(M); 3000 such pairs (seeds
        # 0..49) measured at most 2.2e-13, this seed 1.0e-13.
        rng = np.random.default_rng(0)
        for n in range(1, 7):
            for _ in range(10):
                u = random_unitary(n, rng)
                pair = to_ab(VertexCoupling.custom(u))
                d = np.concatenate(([1.0], 10.0 ** rng.uniform(-3, 0, n - 2),
                                    [1e-3]))[:n] if n > 1 else np.ones(1)
                m = 10.0 ** rng.uniform(-8, 8) \
                    * (random_unitary(n, rng) * d) @ random_unitary(n, rng)
                ab = ABPair(m @ pair.a, m @ pair.b)
                assert validate_ab(ab).ok
                assert np.max(np.abs(from_ab(ab).u - u)) <= 5e-13

    def test_from_ab_takes_one_svd(self, monkeypatch):
        calls = []
        svd = np.linalg.svd

        def counting_svd(a, *args, **kwargs):
            calls.append(a.shape)
            return svd(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", counting_svd)
        pair = to_ab(VertexCoupling.custom(random_unitary(3, RNG)))
        from_ab(ABPair(1e-6 * pair.a, 1e-6 * pair.b))
        assert calls == [(3, 6)]

    def test_validate_then_from_ab_share_one_svd(self, monkeypatch):
        # a pair made by hand keeps its diagnosis: validate_ab and from_ab
        # decompose (A, B) once, and its arrays are read-only, so it
        # cannot go stale
        calls = []
        svd = np.linalg.svd

        def counting_svd(a, *args, **kwargs):
            calls.append(a.shape)
            return svd(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", counting_svd)
        u = random_unitary(3, RNG)
        canonical = to_ab(VertexCoupling.custom(u))
        pair = ABPair(canonical.a, canonical.b)
        first = validate_ab(pair)
        assert first.ok and validate_ab(pair) is first
        assert np.max(np.abs(from_ab(pair).u - u)) <= 1e-13
        assert calls == [(3, 6)]
        with pytest.raises(ValueError):
            pair.a[0, 0] = 0.0
        bad = ABPair(np.zeros((2, 2)), np.zeros((2, 2)))
        assert not validate_ab(bad).ok
        with pytest.raises(InvalidCouplingError):
            from_ab(bad)
        assert calls == [(3, 6), (2, 4)]

    def test_from_ab_refuses_a_numerically_singular_pair(self):
        # diag(1, 1, eps) times a canonical pair keeps rank 3 and passes
        # validate_ab, but A + iB gets the condition estimate 1 / eps:
        # past SINGULAR_COND from_ab refuses it, below it returns U, within
        # 2.3e-16 at eps = 1e-11 over 300 Haar draws
        u = random_unitary(3, np.random.default_rng(3))
        pair = to_ab(VertexCoupling(u))
        for eps in (1e-13, 1e-11):
            m = np.diag([1.0, 1.0, eps])
            ab = ABPair(m @ pair.a, m @ pair.b)
            diag = validate_ab(ab)
            assert diag.ok and diag.rank == 3
            if eps * SINGULAR_COND < 1.0:
                with pytest.raises(InvalidCouplingError,
                                   match=r"numerically singular \(condition "
                                         r"estimate 1\.000e\+13\)"):
                    from_ab(ab)
            else:
                assert np.max(np.abs(from_ab(ab).u - u)) <= 1e-15

    def test_from_ab_rejects_degenerate_pair(self):
        with pytest.raises(InvalidCouplingError):
            from_ab(ABPair(np.zeros((2, 2)), np.zeros((2, 2))))

    def test_delta_pair_has_hermitian_ab_star(self):
        pair = to_ab(make_coupling("delta", 2, 1.0))
        ab_star = pair.a @ pair.b.conj().T
        assert np.max(np.abs(ab_star - ab_star.conj().T)) < 1e-12


#: the largest Hermiticity defect and distance of the Gram eigenvalue
#: from 4 that the SVD of a family pair (every family at n <= 8 and
#: BUILT_PARAMS, as built and rescaled by RATIOS) measured: 1.5e-15 and
#: 6.2e-15
FAMILY_PAIR_DEFECT, FAMILY_PAIR_GRAM = 2e-15, 1e-14


class TestToAbPair:
    """to_ab's pair keeps its coupling: from_ab returns it, and a pair of
    exact phases forms A and B on the first read and is diagnosed in
    closed form."""

    @pytest.mark.parametrize("coupling", [
        make_coupling("delta_prime", 3, 1.5),
        rescale_length(make_coupling("delta_p", 4, -2.0), 1.0, 2.5),
        VertexCoupling.custom(random_unitary(3, np.random.default_rng(34)))],
        ids=["family", "rescaled family", "haar"])
    def test_from_ab_of_to_ab_is_the_coupling(self, coupling, monkeypatch):
        def refused(*args, **kwargs):
            raise AssertionError("from_ab of to_ab's pair computed")

        for name in ("svd", "solve"):
            monkeypatch.setattr(np.linalg, name, refused)
        monkeypatch.setattr(coupling_module, "unitarity_defect", refused)
        assert from_ab(to_ab(coupling)) is coupling

    @pytest.mark.parametrize("family", FAMILIES)
    def test_family_pair_arrays_are_formed_on_the_first_read(self, family):
        for n in (1, 2, 5):
            for param in BUILT_PARAMS:
                c = make_coupling(family, n, param)
                pair = to_ab(c)
                assert "a" not in vars(pair) and pair.n == n
                eye = np.eye(n)
                for got, want in ((pair.a, c.u - eye),
                                  (pair.b, 1j * (c.u + eye))):
                    # bit for bit, signed zeros included
                    assert np.array_equal(got, want)
                    assert got.tobytes() == want.tobytes()
                    assert not got.flags.writeable
                assert vars(pair)["a"] is pair.a

    @pytest.mark.parametrize("family", FAMILIES)
    def test_family_diagnostics_are_closed_form(self, family, monkeypatch):
        # rank n, defect 0 and Gram eigenvalue 4, with no array formed;
        # the SVD of the same arrays agrees within what it measured
        for n in range(1, 9):
            for param in BUILT_PARAMS:
                built = make_coupling(family, n, param)
                for c in (built, *(rescale_length(built, *r)
                                   for r in RATIOS)):
                    pair = to_ab(c)
                    diag = validate_ab(pair)
                    assert diag == coupling_module.ABDiagnostics(
                        n=n, rank=n, hermiticity_defect=0.0,
                        min_gram_eigenvalue=4.0, ok=True)
                    assert "a" not in vars(pair)
                    svd = validate_ab(ABPair(pair.a, pair.b))
                    assert svd.ok and svd.rank == n
                    assert svd.hermiticity_defect <= FAMILY_PAIR_DEFECT
                    assert abs(svd.min_gram_eigenvalue - 4.0) \
                        <= FAMILY_PAIR_GRAM

    def test_decomposed_pair_is_read_from_the_unitarity_gap(
            self, monkeypatch):
        # the pair of a decomposed U is diagnosed from D = U U* - I with no
        # A and no SVD, and agrees with the SVD of the same arrays within
        # what the family pairs measured: custom Haar U, their rescalings
        # (U formed from the mapped phases) and a U solved by from_ab
        rng = np.random.default_rng(4747)
        couplings = []
        for n in range(1, 9):
            haar = VertexCoupling.custom(random_unitary(n, rng))
            couplings += [haar, *(rescale_length(haar, *r) for r in RATIOS)]
            pair = to_ab(haar)
            m = random_invertible(n, rng)
            couplings.append(from_ab(ABPair(m @ pair.a, m @ pair.b)))
        for c in couplings:
            pair = to_ab(c)
            with monkeypatch.context() as patched:
                def refused(*args, **kwargs):
                    raise AssertionError("an SVD of a canonical pair")

                patched.setattr(np.linalg, "svd", refused)
                diag = validate_ab(pair)
            assert "a" not in vars(pair) and "b" not in vars(pair)
            svd = validate_ab(ABPair(pair.a, pair.b))
            assert (diag.n, diag.rank, diag.ok) == (svd.n, svd.rank, svd.ok)
            assert diag.ok and diag.rank == c.n
            assert abs(diag.hermiticity_defect - svd.hermiticity_defect) \
                <= FAMILY_PAIR_DEFECT
            assert abs(diag.min_gram_eigenvalue - svd.min_gram_eigenvalue) \
                <= FAMILY_PAIR_GRAM

    def test_hand_made_pairs_keep_their_svd(self):
        # bit for bit the diagnostics of one SVD of (A, B), by the recipe
        # validate_ab has always used: a canonical pair from U's arrays, a
        # scaled one and a mixed Dirichlet-Neumann pair
        u = make_coupling("delta_prime", 3, 1.5).u
        eye = np.eye(3)
        a, b = u - eye, 1j * (u + eye)
        for a, b in ((a, b), (3e-4 * a, 3e-4 * b),
                     (np.diag([1.0, 0.0]), np.diag([0.0, 1.0]))):
            n = a.shape[0]
            a, b = np.asarray(a, dtype=complex), np.asarray(b, dtype=complex)
            sv = np.linalg.svd(np.concatenate((a, b), 1),
                               compute_uv=False).tolist()
            ab_star = a @ b.conj().T
            defect = float(np.abs(ab_star - ab_star.conj().T).max())
            want = (sum(x > n * math.ulp(1.0) * sv[0] for x in sv), defect,
                    sv[-1] ** 2)
            diag = validate_ab(ABPair(a, b))
            assert (diag.rank, diag.hermiticity_defect,
                    diag.min_gram_eigenvalue) == want
            assert diag.ok


def _full_apply(phases, f):
    """Eigenphases.apply as np.full plus a .flat diagonal, the reference
    for its in-place fill."""
    if not phases.exact:
        return phases.apply(f)
    n = phases.n
    out = np.full((n, n), (f[0] - f[-1]) / n)
    out.flat[::n + 1] += f[-1]
    return out


def _full_s_matrix(c, k):
    """s_matrix by _full_apply, refined with a .flat diagonal."""
    k, phases, f, distance = _s_sectors(c, k)
    s = _full_apply(phases, f)
    if not phases.exact and REFINE_COND * distance < 1.0:
        kx = np.clongdouble(k)
        ux, sx = c.u.astype(np.clongdouble), s.astype(np.clongdouble)
        r = (kx + 1.0) * (ux - sx) - (kx - 1.0) * (sx @ ux)
        r.flat[::c.n + 1] += kx - 1.0
        d = phases.columns([2.0 * complex(cs, sn) * (k * cs - 1j * sn)
                            for cs, sn, _ in phases.groups])
        s += ((r.astype(complex) @ phases.v) / d) @ phases.vh
    return s


def _same_bits(got, want):
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


#: a Haar U at n = 1..7 (also Fortran-ordered) with its momenta, and a U
#: with an eigenvalue next to +1 (-1) at small (large) k, which s_matrix
#: refines
_RNG_IN_PLACE = np.random.default_rng(4040)
_HAAR_CASES = [(u, np.geomspace(1e-6, 1e6, 7))
               for n in range(1, 8)
               for u in [random_unitary(n, _RNG_IN_PLACE)]
               for u in (u, np.asfortranarray(u))]
_CLUSTERED_CASES = [(u, [k])
                    for n in range(1, 6)
                    for theta, k in ((1e-7, 1e-3), (math.pi - 1e-5, 1e2))
                    for u in [unitary_with_phase(n, _RNG_IN_PLACE, theta,
                                                 False)]
                    for u in (u, np.asfortranarray(u))]


class TestMatricesFormedInPlace:
    """U, S_U(k), to_ab's A and B and unitarity_defect are formed in place,
    bit for bit (dtype and signed zeros included) what np.full with a
    .flat diagonal, U - I and i (U + I) with np.eye gave, and call none of
    np.full, np.eye and np.identity."""

    def _assert_as_before(self, c, ks):
        u = c.u
        if c.eigenphases.exact:
            _same_bits(u, _full_apply(
                c.eigenphases, coupling_module._eigenvalues(c.eigenphases)))
        for k in ks:
            _same_bits(s_matrix(c, k), _full_s_matrix(c, k))
        pair, eye = to_ab(c), np.eye(c.n)
        _same_bits(pair.a, u - eye)
        _same_bits(pair.b, 1j * (u + eye))
        assert unitarity_defect(u) == float(
            np.abs(u @ u.conj().T - eye).max())

    @pytest.mark.parametrize("family", FAMILIES)
    def test_families(self, family):
        ks = [1.0, *np.geomspace(1e-6, 1e6, 7)]
        for n in range(1, 9):
            for param in (0.0, -0.0, 1.3, -1.3, -2.0, math.inf, -math.inf):
                c = make_coupling(family, n, param)
                self._assert_as_before(c, ks)
                self._assert_as_before(rescale_length(c, 1.0, 2.5), ks[:3])

    def test_haar_and_clustered(self):
        refined = 0
        for u, ks in _HAAR_CASES + _CLUSTERED_CASES:
            c = VertexCoupling.custom(u)
            self._assert_as_before(c, ks)
            refined += any(REFINE_COND * _s_sectors(c, k)[3] < 1.0
                           for k in ks)
        assert refined >= len(_CLUSTERED_CASES)

    def test_signed_zeros_off_the_diagonal(self):
        # U + I has +0.0 where U has -0.0; i (U - 0.0 I) would keep a -0.0
        c = VertexCoupling.custom([[1.0, -0.0], [-0.0, 1.0]])
        self._assert_as_before(c, [1.0, 1e-3])
        assert math.copysign(1.0, to_ab(c).b[0, 1].real) == 1.0

    def test_no_full_or_identity_matrix(self, monkeypatch):
        def refused(*args, **kwargs):
            raise AssertionError("a temporary full or identity matrix")

        for name in ("full", "eye", "identity"):
            monkeypatch.setattr(np, name, refused)
        family = make_coupling("delta_prime", 3, 1.5)
        assert family.u.shape == (3, 3)
        for k in (0.5, 1.0, 2.0):
            assert s_matrix(family, k).shape == (3, 3)
        haar = VertexCoupling.custom(
            random_unitary(4, np.random.default_rng(40)))
        pair = to_ab(haar)
        assert pair.a.shape == pair.b.shape == (4, 4)
        assert unitarity_defect(haar.u) <= UNITARITY_TOL


# ======================================================================
#  validate_ab diagnostics
# ======================================================================

class TestValidateAB:
    def test_canonical_pair_passes(self):
        diag = validate_ab(to_ab(VertexCoupling.custom(random_unitary(4, RNG))))
        assert diag.ok
        assert diag.rank == 4
        assert diag.hermiticity_defect < 1e-12
        assert diag.min_gram_eigenvalue > 0

    def test_pair_tolerance_is_twice_the_unitarity_tolerance(self):
        # the canonical pair's defect is 2 unitarity_defect(U), so a U just
        # inside UNITARITY_TOL gives a pair that passes, by to_ab or made
        # by hand (it failed at 1e-12), and one just outside a pair that
        # fails; VertexCoupling refuses that U, so its to_ab pair is built
        # unchecked here
        u = random_unitary(3, np.random.default_rng(0))
        eye = np.eye(3)
        for stretch, inside in ((2.8e-12, True), (2.9e-12, False)):
            v = u.copy()
            v[0, 0] *= 1.0 + stretch
            defect = unitarity_defect(v)
            assert 0.97 * UNITARITY_TOL < defect < 1.03 * UNITARITY_TOL
            assert (defect <= UNITARITY_TOL) is inside
            if inside:
                c = VertexCoupling.custom(v)
            else:
                with pytest.raises(InvalidCouplingError, match="not unitary"):
                    VertexCoupling.custom(v)
                c = coupling_module._unchecked(VertexCoupling, u=v)
            canonical = validate_ab(to_ab(c))
            assert canonical.ok is inside
            assert canonical.hermiticity_defect == 2.0 * defect
            for scale in (1.0, 3e-4):
                hand = validate_ab(ABPair(scale * (v - eye),
                                          scale * 1j * (v + eye)))
                assert hand.ok is inside and hand.rank == 3

    def test_zero_pair_fails_with_rank_zero(self):
        diag = validate_ab(ABPair(np.zeros((2, 2)), np.zeros((2, 2))))
        assert not diag.ok
        assert diag.rank == 0

    def test_mixed_dirichlet_neumann_pair(self):
        # decoupled edge conditions psi_1(0) = 0 and psi_2'(0) = 0
        diag = validate_ab(ABPair(np.diag([1.0, 0.0]), np.diag([0.0, 1.0])))
        assert diag.ok
        assert diag.rank == 2
        assert diag.hermiticity_defect == 0.0

    @pytest.mark.parametrize("scale", [1e-7, 1.0, 1e7])
    def test_scaled_non_hermitian_pair_fails(self, scale):
        # the defect is measured against the size of (A, B), so no scale
        # hides it
        rng = np.random.default_rng(3)
        a, b = (rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
                for _ in range(2))
        diag = validate_ab(ABPair(scale * a, scale * b))
        assert diag.rank == 3
        assert not diag.ok

    def test_non_hermitian_ab_star_fails(self):
        a = np.array([[1.0, 1.0], [0.0, 1.0]])
        b = np.eye(2)
        diag = validate_ab(ABPair(a, b))
        assert diag.hermiticity_defect > 0.5
        assert not diag.ok

    def test_min_gram_eigenvalue_is_that_of_the_gram_matrix(self):
        rng = np.random.default_rng(7)
        for n in range(1, 7):
            pair = to_ab(VertexCoupling.custom(random_unitary(n, rng)))
            m = random_invertible(n, rng)
            for a, b in ((pair.a, pair.b), (m @ pair.a, m @ pair.b),
                         (rng.standard_normal((n, n)),
                          rng.standard_normal((n, n)))):
                gram = a @ a.conj().T + b @ b.conj().T
                want = np.linalg.eigvalsh(gram)[0]
                got = validate_ab(ABPair(a, b)).min_gram_eigenvalue
                assert abs(got - want) <= 1e-14 * np.linalg.norm(gram, 2)

    @pytest.mark.parametrize("a,b", [
        (np.diag([1.0, 0.0]), np.zeros((2, 2))),
        (np.array([[1.0, 1.0], [1.0, 1.0]]), np.array([[1j, 1j], [1j, 1j]])),
        (np.diag([1.0, 1.0, 0.0]), np.diag([0.0, 1.0, 0.0]))])
    def test_rank_deficient_pairs_fail(self, a, b):
        diag = validate_ab(ABPair(a, b))
        assert diag.rank < diag.n
        assert not diag.ok


# ======================================================================
#  rescale_length
# ======================================================================

class TestRescaleLength:
    def test_identity_rescale(self):
        c = make_coupling("delta", 3, 2.0)
        np.testing.assert_array_equal(rescale_length(c, 2.0, 2.0).u, c.u)

    def test_neumann_fixed_point(self):
        c = VertexCoupling.custom(np.eye(3))
        out = rescale_length(c, 0.5, 4.0)
        np.testing.assert_allclose(out.u, np.eye(3), atol=1e-14)

    def test_composition(self):
        for _ in range(10):
            n = int(RNG.integers(1, 6))
            c = VertexCoupling.custom(random_unitary(n, RNG))
            ell = tuple(RNG.uniform(0.2, 5.0, size=3))
            two_step = rescale_length(rescale_length(c, ell[0], ell[1]),
                                      ell[1], ell[2])
            one_step = rescale_length(c, ell[0], ell[2])
            np.testing.assert_allclose(two_step.u, one_step.u, atol=1e-12)

    def test_round_trip_is_identity(self):
        for _ in range(10):
            n = int(RNG.integers(1, 6))
            c = VertexCoupling.custom(random_unitary(n, RNG))
            back = rescale_length(rescale_length(c, 1.0, 3.7), 3.7, 1.0)
            np.testing.assert_allclose(back.u, c.u, atol=1e-12)

    def test_rejects_nonpositive_lengths(self):
        c = make_coupling("delta", 2, 0.0)
        with pytest.raises(InvalidCouplingError):
            rescale_length(c, 0.0, 1.0)

    @pytest.mark.parametrize("ell,ell_prime", [
        (math.nan, 1.0), (1.0, math.nan), (math.inf, 1.0), (1.0, math.inf),
        (-math.inf, 1.0), (1.0, -math.inf)])
    def test_rejects_non_finite_lengths(self, ell, ell_prime):
        c = make_coupling("delta", 2, 1.0)
        with pytest.raises(InvalidCouplingError,
                           match="finite and positive") as info:
            rescale_length(c, ell, ell_prime)
        assert f"got {ell} and {ell_prime}" in str(info.value)

    def test_rescaled_matrix_keeps_the_boundary_condition(self):
        # the scale-ell form of the condition is U_ell (Psi + i ell Psi')
        # = Psi - i ell Psi'; a solution of the scale-1 condition must
        # satisfy the rescaled matrix's relation at the new scale
        for _ in range(10):
            n = int(RNG.integers(1, 6))
            u = random_unitary(n, RNG)
            ell_prime = float(RNG.uniform(0.3, 4.0))
            u_prime = rescale_length(VertexCoupling.custom(u), 1.0,
                                     ell_prime).u
            w = RNG.standard_normal(n) + 1j * RNG.standard_normal(n)
            psi = (w + u @ w) / 2.0
            dpsi = (w - u @ w) / 2j
            residual = u_prime @ (psi + 1j * ell_prime * dpsi) \
                - (psi - 1j * ell_prime * dpsi)
            assert np.linalg.norm(residual) < 1e-12 * np.linalg.norm(w)

    @pytest.mark.parametrize("family,n,param,ell,ell_prime", [
        ("delta", 3, 0.0, 1.0, 1e4),
        ("delta", 3, 0.0, 1e5, 1.0),
        ("delta_p", 2, 0.7, 1e4, 1.0),
        ("delta_prime", 2, 1.5, 1.0, 1e5)])
    def test_far_ratios_match_the_exact_family(self, family, n, param, ell,
                                               ell_prime):
        # U' = S_U(ell / ell') in 40 digits, from the exact family U
        with mpmath.workdps(40):
            u = _exact_family(family, n, param)
            k = mpmath.mpf(ell) / mpmath.mpf(ell_prime)
            eye = mpmath.eye(n)
            exact = ((k + 1) * u + (k - 1) * eye) \
                * ((k - 1) * u + (k + 1) * eye) ** -1
            out = rescale_length(make_coupling(family, n, param), ell,
                                 ell_prime)
            assert _max_error(out.u, exact) <= 1e-15

    def test_far_round_trip_returns_u(self):
        rng = np.random.default_rng(31)
        for n in range(1, 6):
            c = VertexCoupling.custom(random_unitary(n, rng))
            back = rescale_length(rescale_length(c, 1.0, 1e12), 1e12, 1.0)
            assert np.max(np.abs(back.u - c.u)) < 1e-14

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    @pytest.mark.parametrize("ell,ell_prime", [(1e300, 1e-300),
                                               (1e-300, 1e300)])
    def test_ratios_outside_double_range_are_refused(self, sign, ell,
                                                     ell_prime):
        c = VertexCoupling.custom(sign * np.eye(2))
        with pytest.raises(InvalidCouplingError, match="double range"):
            rescale_length(c, ell, ell_prime)

    def test_scalar_robin_rescaling(self):
        # psi'(0) = b psi(0) reads (1 - i ell b)/(1 + i ell b) at scale ell
        b, ell_prime = 1.7, 2.5
        u = np.array([[(1 - 1j * b) / (1 + 1j * b)]])
        u_prime = rescale_length(VertexCoupling.custom(u), 1.0, ell_prime).u
        expected = (1 - 1j * ell_prime * b) / (1 + 1j * ell_prime * b)
        assert abs(u_prime[0, 0] - expected) < 1e-14


# ======================================================================
#  satisfies_vertex_condition
# ======================================================================

class TestVertexCondition:
    def test_neumann_accepts_zero_derivative(self):
        c = VertexCoupling.custom(np.eye(3))
        assert satisfies_vertex_condition(c, RNG.standard_normal(3),
                                          np.zeros(3), tol=1e-12)

    def test_dirichlet_accepts_zero_value(self):
        c = VertexCoupling.custom(-np.eye(3))
        assert satisfies_vertex_condition(c, np.zeros(3),
                                          RNG.standard_normal(3), tol=1e-12)

    def test_delta_n3_derivative_sum_rule(self):
        # common value 1, derivative sum must equal alpha = 2
        c = make_coupling("delta", 3, 2.0)
        good = [2.0, 0.0, 0.0]
        also_good = [0.5, 0.5, 1.0]
        bad = [1.0, 0.0, 0.0]
        assert satisfies_vertex_condition(c, np.ones(3), good, tol=1e-10)
        assert satisfies_vertex_condition(c, np.ones(3), also_good, tol=1e-10)
        assert not satisfies_vertex_condition(c, np.ones(3), bad, tol=1e-10)

    def test_kirchhoff_n2_solution_space(self):
        # continuity + derivative sum zero, checked on a basis
        c = make_coupling("delta", 2, 0.0)
        basis = [([1.0, 1.0], [0.0, 0.0]), ([0.0, 0.0], [1.0, -1.0])]
        for psi, dpsi in basis:
            assert satisfies_vertex_condition(c, psi, dpsi, tol=1e-12)
        off = [([1.0, -1.0], [0.0, 0.0]), ([0.0, 0.0], [1.0, 1.0]),
               ([1.0, 1.0], [1.0, 1.0])]
        for psi, dpsi in off:
            assert not satisfies_vertex_condition(c, psi, dpsi, tol=1e-10)

    def test_dimension_mismatch(self):
        c = make_coupling("delta", 2, 0.0)
        with pytest.raises(InvalidCouplingError):
            satisfies_vertex_condition(c, np.ones(3), np.zeros(3), tol=1e-10)


# ======================================================================
#  the decoupled eigenspace, from the eigenphase groups
# ======================================================================

class TestDecoupledProjection:
    def test_full_dirichlet(self):
        p = decoupled_projection(VertexCoupling.custom(-np.eye(3)))
        np.testing.assert_allclose(p, np.eye(3), atol=1e-14)

    def test_full_neumann(self):
        p = decoupled_projection(VertexCoupling.custom(np.eye(3)))
        np.testing.assert_allclose(p, np.zeros((3, 3)), atol=0)

    def test_delta_projector_rank(self):
        # -1 eigenvalue lives on the complement of the constant vector
        p = decoupled_projection(make_coupling("delta", 3, 1.5))
        assert abs(np.trace(p).real - 2.0) < 1e-12
        ones = np.ones(3) / np.sqrt(3)
        np.testing.assert_allclose(p @ ones, np.zeros(3), atol=1e-12)

    def test_projector_identities_random(self):
        for _ in range(10):
            n = int(RNG.integers(1, 7))
            p = decoupled_projection(
                VertexCoupling.custom(random_unitary(n, RNG)))
            assert np.max(np.abs(p @ p - p)) < 1e-10
            assert np.max(np.abs(p.conj().T - p)) < 1e-10


def _with_spectrum(q: np.ndarray, phases) -> VertexCoupling:
    """The coupling U = Q diag(e^{i phases}) Q*."""
    return VertexCoupling.custom((q * np.exp(1j * np.asarray(phases)))
                                 @ q.conj().T)


def _schur_projection(u: np.ndarray, tol: float) -> np.ndarray:
    """Reference: the eigenspace at -1 from a sorted complex Schur form."""
    _, z, sdim = scipy.linalg.schur(
        u, output="complex", sort=lambda lam: abs(lam + 1.0) < tol)
    return z[:, :sdim] @ z[:, :sdim].conj().T


class TestDecoupledProjectionSpectra:
    """U = Q diag(e^{i theta}) Q* with Haar Q and the eigenvalue -1 at a
    prescribed multiplicity m = 0..n; the remaining eigenphases keep at
    least 0.1 from -1."""

    TOL = DECOUPLED_EIGENVALUE_TOL

    @staticmethod
    def _far_phases(rng, count):
        # |e^{i phi} + 1| = 2 cos(phi / 2) >= 2 sin(0.05) on this interval
        return rng.uniform(-np.pi + 0.1, np.pi - 0.1, count)

    @pytest.mark.parametrize("n", range(1, 7))
    def test_exact_multiplicity(self, n):
        rng = np.random.default_rng(7000 + n)
        for m in range(n + 1):
            q = random_unitary(n, rng)
            c = _with_spectrum(
                q, np.concatenate((np.full(m, np.pi),
                                   self._far_phases(rng, n - m))))
            p = decoupled_projection(c)
            assert p.dtype == np.complex128
            assert np.linalg.matrix_rank(p) == m
            assert np.max(np.abs(p @ c.u + p)) < 1e-12
            assert np.max(np.abs(p @ p - p)) < 1e-12
            assert np.max(np.abs(p.conj().T - p)) < 1e-12
            np.testing.assert_allclose(p, q[:, :m] @ q[:, :m].conj().T,
                                       rtol=0, atol=1e-12)
            np.testing.assert_allclose(p, _schur_projection(c.u, self.TOL),
                                       rtol=0, atol=1e-12)

    @pytest.mark.parametrize("n", range(1, 7))
    def test_tolerance_edge(self, n):
        # one more eigenvalue at distance 0.5 tol from -1 (inside) and one
        # at 10 tol (outside): |e^{i (pi + d)} + 1| = 2 sin(d / 2) ~ d
        rng = np.random.default_rng(7100 + n)
        for m in range(n + 1):
            q = random_unitary(n + 2, rng)
            c = _with_spectrum(q, np.concatenate((
                np.full(m, np.pi), self._far_phases(rng, n - m),
                [np.pi + 0.5 * self.TOL, np.pi - 10.0 * self.TOL])))
            p = decoupled_projection(c)
            assert p.dtype == np.complex128
            assert np.linalg.matrix_rank(p) == m + 1
            assert np.max(np.abs(p @ p - p)) < 1e-12
            assert np.max(np.abs(p.conj().T - p)) < 1e-12
            # U acts on the range as -1 up to the included eigenvalue's
            # distance 0.5 tol
            assert np.linalg.norm(p @ c.u + p, 2) < 0.5 * self.TOL + 1e-12
            # only 9.5 tol separates the two edge eigenvalues, so the range
            # is fixed to about eps / (9.5 tol) ~ 2e-8, by any method
            kept = list(range(m)) + [n]
            np.testing.assert_allclose(
                p, q[:, kept] @ q[:, kept].conj().T, rtol=0, atol=1e-6)


# ======================================================================
#  non-finite input and tolerances
# ======================================================================

class TestNonFiniteInput:
    @pytest.mark.parametrize("a,b,match", [
        (np.zeros((0, 0)), np.zeros((0, 0)), "non-empty"),
        (np.eye(2), np.eye(3), r"A and B must have equal shapes, got "
                               r"\(2, 2\) and \(3, 3\)")],
        ids=["empty", "unequal"])
    def test_ab_pair_rejects_an_empty_or_unequal_pair(self, a, b, match):
        with pytest.raises(InvalidCouplingError, match=match):
            ABPair(a, b)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("which", ["a", "b"])
    def test_ab_pair_rejects_non_finite_entries(self, which, bad):
        pair = {"a": np.eye(2, dtype=complex), "b": np.eye(2, dtype=complex)}
        pair[which][1, 0] = bad
        with pytest.raises(InvalidCouplingError, match="finite"):
            ABPair(pair["a"], pair["b"])

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("which", ["psi", "dpsi"])
    def test_boundary_values_reject_non_finite_entries(self, which, bad):
        values = {"psi": np.ones(3), "dpsi": np.zeros(3)}
        values[which][2] = bad
        with pytest.raises(InvalidCouplingError, match="finite"):
            satisfies_vertex_condition(make_coupling("delta", 3, 2.0),
                                       values["psi"], values["dpsi"])

    @pytest.mark.parametrize("tol", [math.nan, math.inf, -1e-10])
    def test_vertex_condition_rejects_bad_tolerance(self, tol):
        c = make_coupling("delta", 3, 2.0)
        with pytest.raises(ValueError, match="tolerance"):
            satisfies_vertex_condition(c, np.ones(3), np.full(3, 2.0 / 3.0),
                                       tol=tol)


# ======================================================================
#  the eigenphase cache
# ======================================================================

FAMILY_PARAMS = (0.0, -0.0, 0.7, -0.7, 3.0, -12.0, math.inf, -math.inf)


def _rebuilt(phases) -> np.ndarray:
    """V diag(lambda) V* with lambda = (c + i s)^2 per column."""
    lam = phases.columns([complex(c, s) ** 2 for c, s, _ in phases.groups])
    return (phases.v * lam) @ phases.v.conj().T


def _closed_form(family: str, n: int, param: float) -> np.ndarray:
    """A family's U as the coupling module docstring writes it."""
    eye, j = np.eye(n), np.ones((n, n))
    if math.isinf(param):
        return -eye if family in ("delta", "delta_p") else eye
    if family == "delta":
        return 2.0 / (n + 1j * param) * j - eye
    if family == "delta_prime_s":
        return eye - 2.0 / (n - 1j * param) * j
    if family == "delta_p":
        return ((n - 1j * param) / (n + 1j * param) * eye
                - 2.0 / (n + 1j * param) * j)
    return (-(n + 1j * param) / (n - 1j * param) * eye
            + 2.0 / (n - 1j * param) * j)


def _phase_order(group):
    c, s, m = group
    return round(math.atan2(s, c), 9), m


class TestEigenphases:
    @pytest.mark.parametrize("family", FAMILIES)
    @pytest.mark.parametrize("n", range(1, 7))
    def test_family_phases_rebuild_u(self, family, n):
        # group 0 is the constant vector, the last group its complement:
        # f applies as f_0 J/n + f_1 (I - J/n), with no basis V
        constants = np.ones((n, n)) / n
        rest = np.eye(n) - constants
        for param in FAMILY_PARAMS:
            c = make_coupling(family, n, param)
            phases = c.eigenphases
            assert phases.exact and phases.v is None and phases.vh is None
            assert phases.n == n
            assert [m for _, _, m in phases.groups] in ([n], [1, n - 1])
            for c_, s_, _ in phases.groups:
                assert c_ >= 0.0 and abs(c_ ** 2 + s_ ** 2 - 1.0) < 1e-15
            assert np.max(np.abs(c.u - _closed_form(family, n, param))) \
                < 1e-14
            lam = [complex(c_, s_) ** 2 for c_, s_, _ in phases.groups]
            assert np.max(np.abs(lam[0] * constants + lam[-1] * rest
                                 - c.u)) < 1e-14
            f = [0.3 - 1.1j, 2.5 + 0.4j][:len(phases.groups)]
            assert np.max(np.abs(phases.apply(f) - f[0] * constants
                                 - f[-1] * rest)) < 1e-15

    @pytest.mark.parametrize("family", FAMILIES)
    @pytest.mark.parametrize("n", range(1, 7))
    def test_family_phases_match_a_decomposition(self, family, n):
        for param in FAMILY_PARAMS:
            seeded = make_coupling(family, n, param).eigenphases
            numeric = VertexCoupling.custom(
                make_coupling(family, n, param).u).eigenphases
            assert not numeric.exact
            got = sorted(seeded.groups, key=_phase_order)
            want = sorted(numeric.groups, key=_phase_order)
            # -1 may split across +-pi in a decomposition
            if any(g[0] == 0.0 for g in got):
                got = [g for g in got if g[0] > 1e-9]
                want = [g for g in want if g[0] > 1e-9]
            assert [g[2] for g in got] == [g[2] for g in want]
            for (c1, s1, _), (c2, s2, _) in zip(got, want):
                assert abs(c1 - c2) < 1e-12 and abs(s1 - s2) < 1e-12

    def test_family_tags_alone_seed_nothing(self):
        # a coupling holds U alone: one built directly decomposes U = I
        # although make_coupling("delta_prime_s", 3, inf) has the same U
        c = VertexCoupling(np.eye(3))
        phases = c.eigenphases
        assert not phases.exact
        assert phases.groups == ((1.0, 0.0, 3),)
        np.testing.assert_allclose(decoupled_projection(c), np.zeros((3, 3)),
                                   atol=0)

    def test_numerical_basis_is_unitary_and_grouped(self):
        rng = np.random.default_rng(515)
        for n in range(1, 7):
            q = random_unitary(n, rng)
            phases = np.concatenate(([np.pi] * (n // 2),
                                     rng.uniform(-3.0, 3.0, n - n // 2)))
            u = (q * np.exp(1j * phases)) @ q.conj().T
            got = VertexCoupling.custom(u).eigenphases
            assert sum(m for _, _, m in got.groups) == n
            assert np.max(np.abs(got.vh @ got.v - np.eye(n))) < 1e-14
            assert np.max(np.abs(_rebuilt(got) - u)) < 1e-13

    def test_decomposed_at_most_once(self, monkeypatch):
        calls = []
        eig = np.linalg.eig

        def counting_eig(a):
            calls.append(a.shape)
            return eig(a)

        monkeypatch.setattr(np.linalg, "eig", counting_eig)
        u = random_unitary(4, np.random.default_rng(99))
        c = VertexCoupling.custom(u)
        for k in (0.3, 1.0, 7.0):
            s_matrix(c, k)
        bound_states(c, 10.0)
        decoupled_projection(c)
        assert len(calls) == 1
        family = make_coupling("delta_p", 4, -2.0)
        rescaled = rescale_length(family, 1.0, 4.5)
        for k in (0.3, 1.0, 7.0):
            s_matrix(family, k)
            s_matrix(rescaled, k)
        bound_states(family, 10.0)
        decoupled_projection(family)
        assert rescaled.eigenphases.exact
        assert len(calls) == 1

    @pytest.mark.parametrize("coupling", [
        make_coupling("delta_prime", 3, 0.4),
        VertexCoupling.custom(random_unitary(3, np.random.default_rng(5)))])
    def test_cached_arrays_are_readonly(self, coupling):
        # closed-form phases hold no basis, decomposed ones V and V*
        phases = coupling.eigenphases
        arrays = (coupling.u,) if phases.exact \
            else (coupling.u, phases.v, phases.vh)
        for array in arrays:
            with pytest.raises(ValueError):
                array[0] = 0.0
        with pytest.raises(AttributeError):
            phases.groups = ()
        with pytest.raises(AttributeError):
            coupling.eigenphases = phases
        assert coupling.eigenphases is phases


# ======================================================================
#  package-built values: valid by construction, checked here instead
# ======================================================================

BUILT_PARAMS = (0.0, 1e-8, -1e-8, 0.7, -0.7, 1e8, -1e8, math.inf, -math.inf)
BUILT_SIZES = (*range(1, 9), 64)
RATIOS = ((1.0, 2.7), (2.7, 1.0), (1.0, 1e-5), (1e6, 1.0))


def _assert_valid(c):
    assert np.isfinite(c.u).all()
    assert unitarity_defect(c.u) <= UNITARITY_TOL
    # to_ab's pair returns c; the same arrays in a pair made by hand take
    # the SVD and the solve
    pair = to_ab(c)
    assert from_ab(pair) is c
    made = ABPair(pair.a, pair.b)
    assert validate_ab(made).ok
    assert np.max(np.abs(from_ab(made).u - c.u)) <= 1e-15


class TestValidByConstruction:
    """make_coupling, rescale_length and to_ab neither copy nor check the
    values they build from checked data, and from_ab returns the coupling
    of to_ab's pair; these tests run the checks they skip, over every
    family and over rescaled family and Haar couplings."""

    @pytest.mark.parametrize("family", FAMILIES)
    @pytest.mark.parametrize("n", BUILT_SIZES)
    def test_family_couplings_and_their_rescalings(self, family, n):
        for param in BUILT_PARAMS:
            c = make_coupling(family, n, param)
            _assert_valid(c)
            for ell, ell_prime in RATIOS:
                _assert_valid(rescale_length(c, ell, ell_prime))

    @pytest.mark.parametrize("n", BUILT_SIZES)
    def test_rescaled_haar_couplings(self, n):
        rng = np.random.default_rng(2300 + n)
        for _ in range(3):
            c = VertexCoupling.custom(random_unitary(n, rng))
            for ell, ell_prime in RATIOS:
                _assert_valid(rescale_length(c, ell, ell_prime))

    def test_u_is_formed_on_the_first_read(self):
        rng = np.random.default_rng(2800)
        for c, n in ((make_coupling("delta_p", 4, -2.0), 4),
                     (rescale_length(VertexCoupling.custom(
                         random_unitary(3, rng)), 1.0, 2.5), 3)):
            phases = c.eigenphases
            assert "u" not in vars(c) and c.n == n
            u = c.u
            assert vars(c)["u"] is u is c.u and not u.flags.writeable
            lam = [complex(c_, s) ** 2 for c_, s, _ in phases.groups]
            assert np.max(np.abs(u - phases.apply(lam))) < 1e-15
            assert c.n == n and c.eigenphases is phases
            with pytest.raises(AttributeError):
                c.v

    def test_built_records_behave_like_constructed_ones(self):
        # _unchecked fills a record's __dict__ in one update; the records
        # it builds compare, hash, read and freeze as constructed ones
        built = make_coupling("delta_prime_s", 3, 1.3)
        made = VertexCoupling(built.u)
        made.eigenphases    # built on first use, seeded in ``built``
        pair = to_ab(built)
        made_pair = ABPair(pair.a, pair.b)
        for b, m, names in ((built, made, ("u",)),
                            (pair, made_pair, ("a", "b"))):
            # == and hash() go by identity for both
            assert b == b and m == m and b != m
            assert hash(b) == hash(b) != hash(m)
            # a family coupling adds U, to_ab's pair A and B, to its
            # __dict__ on the first read; a pair made by hand holds no
            # coupling
            assert b._fields == m._fields == names
            held = "_phases" if b is built else "_coupling"
            assert sorted(vars(b)) == sorted((held, *names))
            assert sorted(vars(m)) == sorted(
                (held, *names) if b is built else names)
            assert repr(b) == repr(m)
            for name in names:
                assert np.array_equal(getattr(b, name), getattr(m, name))
                for record in (b, m):
                    with pytest.raises(AttributeError, match=(
                            f"^cannot assign to field '{name}'$")):
                        setattr(record, name, None)
                    with pytest.raises(AttributeError, match=(
                            f"^cannot delete field '{name}'$")):
                        delattr(record, name)
        # to_ab's pair is diagnosed in closed form and gives back its
        # coupling; the pair made by hand takes the SVD and the solve
        assert from_ab(pair) is built and pair._coupling is built
        assert made_pair._coupling is None
        assert validate_ab(pair) == validate_ab(made_pair)._replace(
            hermiticity_defect=0.0, min_gram_eigenvalue=4.0)
        assert np.max(np.abs(from_ab(made_pair).u - built.u)) <= 1e-15

    def test_only_matrices_from_outside_are_checked(self, monkeypatch):
        # custom's argument and from_ab's solve of a pair made by hand come
        # from outside the package: one unitarity check each; what the
        # package builds from them, or from a family's phases, takes none,
        # and from_ab of to_ab's pair solves nothing
        calls = []
        defect = coupling_module.unitarity_defect

        def counted(u):
            calls.append(u.shape)
            return defect(u)

        monkeypatch.setattr(coupling_module, "unitarity_defect", counted)
        haar = VertexCoupling.custom(
            random_unitary(3, np.random.default_rng(2323)))
        assert calls == [(3, 3)]
        calls.clear()
        family = make_coupling("delta_prime_s", 3, 1.3)
        make_coupling("delta_prime_s", 2000, 1.3)
        for c in (family, haar):
            rescale_length(c, 1.0, 2.7)
        for c in (family, haar):
            assert from_ab(to_ab(c)) is c
        assert calls == []
        pair = to_ab(family)
        from_ab(ABPair(pair.a, pair.b))
        assert calls == [(3, 3)]
