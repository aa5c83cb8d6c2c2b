"""Scattering-matrix and bound-state tests.

Expected scattering entries follow from the spectral calculus: with
U = p J + q I the matrix S is the same function of U applied to the
eigenvalues on the constant vector and its complement.  Bound-state
positions come from the one-channel Robin conditions: a decaying state
e^{-kappa x} satisfies psi'(0) = (alpha/n) psi(0) at kappa = -alpha/n and
psi(0) = (beta/n) psi'(0) at kappa = -n/beta.  The property tests check
bound_states, which works from the eigenvalues of U, against the
determinant definition instead: the pole matrix must be singular at each
returned kappa, with the returned multiplicity, and nowhere in between.
"""

import math
import os
import subprocess
import sys

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import starcouplings
from conftest import random_unitary
from starcouplings import (InvalidCouplingError, PoleError, VertexCoupling,
                           bound_states, make_coupling, rescale_length,
                           s_matrix)
from starcouplings.scattering import REFINE_COND, one_plus_s_sectors

RNG = np.random.default_rng(424242)


# ======================================================================
#  s_matrix
# ======================================================================

class TestSMatrix:
    def test_equals_coupling_matrix_at_unit_momentum(self):
        for _ in range(20):
            n = int(RNG.integers(1, 7))
            u = random_unitary(n, RNG)
            s = s_matrix(VertexCoupling.custom(u), 1.0)
            assert np.max(np.abs(s - u)) < 1e-13

    def test_neumann_is_transparent(self):
        c = VertexCoupling.custom(np.eye(3))
        for k in (0.2, 1.0, 7.5):
            np.testing.assert_allclose(s_matrix(c, k), np.eye(3), atol=1e-13)

    def test_dirichlet_is_total_reflection(self):
        c = VertexCoupling.custom(-np.eye(3))
        for k in (0.2, 1.0, 7.5):
            np.testing.assert_allclose(s_matrix(c, k), -np.eye(3), atol=1e-13)

    def test_unitarity_over_random_samples(self):
        for _ in range(200):
            n = int(RNG.integers(1, 7))
            c = VertexCoupling.custom(random_unitary(n, RNG))
            k = float(np.exp(RNG.uniform(np.log(0.01), np.log(100.0))))
            s = s_matrix(c, k)
            assert np.max(np.abs(s @ s.conj().T - np.eye(n))) < 1e-11

    def test_delta_family_closed_form(self):
        # off-diagonal 2k/(kn + i alpha), diagonal the same minus one
        for n in range(2, 7):
            for alpha in (-10.0, -2.0, 0.0, 1.0, 10.0):
                for k in (0.05, 0.7, 1.0, 4.0, 10.0):
                    s = s_matrix(make_coupling("delta", n, alpha), k)
                    off = 2.0 * k / (k * n + 1j * alpha)
                    expected = off * np.ones((n, n)) - np.eye(n)
                    assert np.max(np.abs(s - expected)) < 1e-12

    def test_delta_n2_alpha2_k15_entry(self):
        # 2k/(kn + i alpha) = 3/(3 + 2i) = (9 - 6i)/13
        s = s_matrix(make_coupling("delta", 2, 2.0), 1.5)
        np.testing.assert_allclose(s[0, 1], (9.0 - 6.0j) / 13.0, atol=1e-14)

    def test_n2_delta_prime_is_the_line_delta_prime(self):
        # at n = 2 the star is the line cut at the vertex, and delta_prime
        # is its delta' interaction (psi' continuous, psi(0+) - psi(0-) =
        # beta psi'(0)), whose amplitudes need no U: t = 1/(1 - i beta k/2),
        # r = -(i beta k/2) t; delta_prime_s is its image under psi -> -psi
        # on x < 0, so t changes sign.  Measured worst error 1.24e-16.
        for beta in (1.0, -0.7, 3.0):
            for k in (0.1, 1.0, 7.0):
                t = 1.0 / (1.0 - 0.5j * beta * k)
                r = -0.5j * beta * k * t
                for family, sign in (("delta_prime", 1.0),
                                     ("delta_prime_s", -1.0)):
                    s = s_matrix(make_coupling(family, 2, beta), k)
                    line = np.array([[r, sign * t], [sign * t, r]])
                    assert np.max(np.abs(s - line)) <= 2.5e-16, \
                        (family, beta, k)

    def test_rejects_nonpositive_momentum(self):
        c = make_coupling("delta", 2, 0.0)
        with pytest.raises(ValueError):
            s_matrix(c, 0.0)
        with pytest.raises(ValueError):
            s_matrix(c, -1.0)

    @pytest.mark.parametrize("k", [math.inf, math.nan])
    def test_rejects_non_finite_momentum(self, k):
        with pytest.raises(ValueError):
            s_matrix(make_coupling("delta", 2, 1.0), k)


def _mp_s_matrix(u: np.ndarray, k: float) -> np.ndarray:
    """S_U(k) = ((k - 1) I + (k + 1) U) ((k + 1) I + (k - 1) U)^{-1} at
    40 digits."""
    with mpmath.workdps(40):
        n = u.shape[0]
        um = mpmath.matrix([[mpmath.mpc(complex(v)) for v in row]
                            for row in u])
        eye = mpmath.eye(n)
        k = mpmath.mpf(k)
        s = ((k - 1) * eye + (k + 1) * um) \
            * mpmath.inverse((k + 1) * eye + (k - 1) * um)
        return np.array([[complex(s[i, j]) for j in range(n)]
                         for i in range(n)])


class TestSMatrixPrecision:
    @pytest.mark.parametrize("n", range(1, 6))
    def test_matches_mpmath(self, n):
        rng = np.random.default_rng(100 + n)
        for _ in range(4):
            u = random_unitary(n, rng)
            for k in np.geomspace(1e-3, 1e3, 7):
                err = np.max(np.abs(s_matrix(VertexCoupling.custom(u), k)
                                    - _mp_s_matrix(u, k)))
                assert err <= 1e-13, (k, err)


class TestSMatrixClusteredSpectra:
    """U = Q diag(e^{i theta}) Q* with Haar Q and a repeated eigenvalue:
    where D(k)^{-1} is large on a cluster (at +1 for small k, at -1 for
    large k) the rounding of the eigen-decomposition is amplified most."""

    @staticmethod
    def _spectra(n, rng):
        other = rng.uniform(-math.pi, math.pi, n)
        half = n // 2
        yield np.concatenate(([math.pi] * (n - 1), other[:1]))
        yield np.concatenate(([0.0] * (n - 1), other[:1]))
        yield np.concatenate(([math.pi] * half, [0.0] * (n - half)))
        yield np.full(n, other[0])

    @pytest.mark.parametrize("n", range(2, 6))
    def test_matches_mpmath(self, n):
        rng = np.random.default_rng(1300 + n)
        for _ in range(2):
            for phases in self._spectra(n, rng):
                q = random_unitary(n, rng)
                u = (q * np.exp(1j * phases)) @ q.conj().T
                c = VertexCoupling.custom(u)
                for k in np.geomspace(1e-3, 1e3, 7):
                    err = np.max(np.abs(s_matrix(c, k) - _mp_s_matrix(u, k)))
                    assert err <= 3e-13, (phases, k, err)

    @pytest.mark.skipif(np.finfo(np.longdouble).eps >= np.finfo(float).eps,
                        reason="longdouble is double on this platform")
    def test_refinement_residual_in_extended_precision(self):
        # with a double-precision residual the n = 4 clusters at +1 reach
        # about 3e-13 at k = 1e-3 (1.5 eps cond(D)); in longdouble the
        # refined S is within a few rounding errors of 40-digit values
        rng = np.random.default_rng(1304)
        for phases in self._spectra(4, rng):
            q = random_unitary(4, rng)
            u = (q * np.exp(1j * phases)) @ q.conj().T
            c = VertexCoupling.custom(u)
            for k in (1e-3, 1e3):
                err = np.max(np.abs(s_matrix(c, k) - _mp_s_matrix(u, k)))
                assert err <= 1e-14, (phases, k, err)


class TestSMatrixNearPoles:
    """Haar eigenbases with one eigenvalue e^{i theta} moved next to +1 at
    small k, or next to -1 at large k, so that REFINE_COND * distance < 1
    and s_matrix refines S itself from the residual of S D(k) =
    (k - 1) I + (k + 1) U: the result stays within REFINE_COND eps /
    distance of 40-digit values, the bound REFINE_COND documents.  Where
    numpy's longdouble is wider than double, the refined S is also within
    a few rounding errors (unrefined, these cases reach 9e-14)."""

    CASES = ((1e-2, 1e-1), (1e-4, 1e-2), (1e-7, 1e-3), (0.0, 1e-3),
             (math.pi - 1e-2, 1e1), (math.pi - 1e-5, 1e2),
             (-math.pi + 1e-7, 1e3))

    @pytest.mark.parametrize("n", range(1, 6))
    def test_matches_mpmath(self, n):
        rng = np.random.default_rng(2400 + n)
        eps = np.finfo(float).eps
        extended = np.finfo(np.longdouble).eps < eps
        for theta, k in self.CASES:
            phases = np.concatenate(
                ([theta], rng.uniform(-math.pi, math.pi, n - 1)))
            q = random_unitary(n, rng)
            u = (q * np.exp(1j * phases)) @ q.conj().T
            c = VertexCoupling.custom(u)
            _, distance = one_plus_s_sectors(c.eigenphases, k, 0.0)
            assert REFINE_COND * distance < 1.0, (theta, k, distance)
            err = np.max(np.abs(s_matrix(c, k) - _mp_s_matrix(u, k)))
            assert err <= REFINE_COND * eps / distance, \
                (theta, k, err * distance / eps)
            assert err <= 1e-15 or not extended, (theta, k, err)


def _mp_one_plus_s(u: np.ndarray, kappa: float) -> np.ndarray:
    """I + S_U(i kappa) = 2 i kappa (I + U) D^{-1} at 40 digits."""
    with mpmath.workdps(40):
        n = u.shape[0]
        um = mpmath.matrix([[mpmath.mpc(complex(v)) for v in row]
                            for row in u])
        eye = mpmath.eye(n)
        k = mpmath.mpc(0, kappa)
        x = 2 * k * (eye + um) * mpmath.inverse((k + 1) * eye + (k - 1) * um)
        return np.array([[complex(x[i, j]) for j in range(n)]
                         for i in range(n)])


class TestSectorValuesClusteredSpectra:
    """The kernels read the eigenvalues 1 + r_k of I + S_U(i kappa) per
    group, unrefined.  On the clustered spectra above their sum
    V diag(1 + r_k) V* stays within REFINE_COND eps cond(D) of 40-digit
    values (entries scaled by max(1, |entry|)), the error REFINE_COND
    documents for unrefined phases: the members of a cluster, spread by the
    rounding of U, share one phase.  The largest measured ratio is 2.6."""

    @pytest.mark.parametrize("n", range(2, 6))
    def test_within_the_unrefined_bound(self, n):
        rng = np.random.default_rng(1300 + n)
        eps = np.finfo(float).eps
        for _ in range(2):
            for phases in TestSMatrixClusteredSpectra._spectra(n, rng):
                q = random_unitary(n, rng)
                u = (q * np.exp(1j * phases)) @ q.conj().T
                eig = VertexCoupling.custom(u).eigenphases
                for kappa in np.geomspace(1e-3, 1e3, 7):
                    values, distance = one_plus_s_sectors(eig, 1j * kappa,
                                                          0.0)
                    want = _mp_one_plus_s(u, kappa)
                    err = np.max(np.abs(eig.apply(values) - want)) \
                        / max(1.0, np.max(np.abs(want)))
                    assert err <= REFINE_COND * eps / distance, \
                        (phases, kappa, err * distance / eps)


class TestSMatrixPoleGuard:
    def test_trips_where_the_relative_guard_trips(self):
        # with eigenvalues +1 and -1, D = (k + 1) I + (k - 1) U has
        # singular values 2k and 2: sigma_min <= 1e-12 sigma_max for
        # k <= 1e-12 and for k >= 1e12, and no momentum here lies between
        # that bound and sigma_min < 1e-12 (|k + 1| + |k - 1|)
        rng = np.random.default_rng(31)
        tripped = 0
        for n in (2, 3, 5):
            for _ in range(3):
                q = random_unitary(n, rng)
                phases = np.concatenate(
                    ([0.0, math.pi], rng.uniform(-math.pi, math.pi, n - 2)))
                u = (q * np.exp(1j * phases)) @ q.conj().T
                for k in (1e-14, 1e-13, 5e-13, 9e-13, 2e-12, 1e-11, 1e-3, 1.0,
                          1e3, 1e11, 5e11, 1.1e12, 2e12, 1e13, 1e14):
                    d = (k + 1.0) * np.eye(n) + (k - 1.0) * u
                    sv = np.linalg.svd(d, compute_uv=False)
                    if sv[-1] <= 1e-12 * sv[0]:
                        tripped += 1
                        with pytest.raises(PoleError):
                            s_matrix(VertexCoupling.custom(u), k)
                    else:
                        s_matrix(VertexCoupling.custom(u), k)
        assert tripped == 9 * 8

    @pytest.mark.parametrize("sign,k", [(1.0, 1e-13), (-1.0, 1e13)])
    def test_rejects_momenta_beyond_the_absolute_scale(self, sign, k):
        # sigma_min(D) is 2k for U = I and 2 for U = -I, against
        # |k + 1| + |k - 1| = 2 max(k, 1)
        with pytest.raises(PoleError):
            s_matrix(VertexCoupling.custom(sign * np.eye(2)), k)


# ======================================================================
#  bound_states
# ======================================================================

class TestBoundStates:
    @pytest.mark.parametrize("n,alpha", [(2, -2.0), (3, -0.6), (5, -7.3)])
    def test_delta_attractive_single_state(self, n, alpha):
        found = bound_states(make_coupling("delta", n, alpha), 10.0)
        assert len(found) == 1
        kappa, mult = found[0]
        assert abs(kappa - (-alpha / n)) < 1e-10
        assert mult == 1
        assert abs(found[0].energy + (alpha / n) ** 2) < 1e-9

    @pytest.mark.parametrize("n,alpha", [(2, 0.0), (3, 0.5), (4, 12.0)])
    def test_delta_repulsive_none(self, n, alpha):
        assert bound_states(make_coupling("delta", n, alpha), 10.0) == []

    @pytest.mark.parametrize("family", ["delta_prime", "delta_prime_s"])
    def test_n2_delta_prime_states_are_the_zeros_of_w(self, family):
        # the line delta' kernel has the denominator W = kappa (2 + beta
        # kappa): one state at kappa = -2/beta for beta < 0, none for
        # beta >= 0; measured worst relative error 1.6e-16
        for beta in (-0.7, -3.0, -1e-3):
            (kappa, mult), = bound_states(make_coupling(family, 2, beta),
                                          math.inf)
            assert mult == 1 and abs(kappa + 2.0 / beta) <= 4e-16 * kappa
        for beta in (0.0, 1.0, 3.0):
            assert bound_states(make_coupling(family, 2, beta),
                                math.inf) == []

    @pytest.mark.parametrize("n,beta", [(3, -1.0), (2, -0.5), (4, -0.25)])
    def test_delta_prime_s_single_state(self, n, beta):
        found = bound_states(make_coupling("delta_prime_s", n, beta), 20.0)
        assert len(found) == 1
        assert abs(found[0].kappa - (-n / beta)) < 1e-10
        assert found[0].multiplicity == 1

    def test_delta_prime_s_positive_beta_none(self):
        assert bound_states(make_coupling("delta_prime_s", 3, 2.0), 20.0) == []

    def test_decoupled_vertices_have_no_states(self):
        assert bound_states(VertexCoupling.custom(-np.eye(2)), 10.0) == []
        assert bound_states(VertexCoupling.custom(np.eye(2)), 10.0) == []

    def test_even_multiplicity_detected(self):
        # both eigenvalues at i put a double zero at kappa = 1 with no sign
        # change of the determinant parts
        found = bound_states(VertexCoupling.custom(np.diag([1j, 1j])), 5.0)
        assert len(found) == 1
        assert abs(found[0].kappa - 1.0) < 1e-6
        assert found[0].multiplicity == 2

    def test_two_distinct_states(self):
        # eigenvalue angle theta gives kappa = tan(theta / 2)
        theta = 2.0 * np.arctan(3.0)
        u = np.diag([1j, np.exp(1j * theta)])
        found = bound_states(VertexCoupling.custom(u), 10.0)
        assert [round(f.kappa, 9) for f in found] == [1.0, 3.0]

    def test_kappa_max_is_respected(self):
        found = bound_states(make_coupling("delta_prime_s", 3, -1.0), 2.0)
        assert found == []  # the state sits at kappa = 3 > kappa_max

    def test_rejects_nonpositive_kappa_max(self):
        with pytest.raises(ValueError):
            bound_states(make_coupling("delta", 2, -1.0), 0.0)
        with pytest.raises(ValueError):
            bound_states(make_coupling("delta", 2, -1.0), math.nan)

    def test_infinite_kappa_max_keeps_every_state(self):
        found = bound_states(make_coupling("delta", 2, -1.0), math.inf)
        assert len(found) == 1
        assert abs(found[0].kappa - 0.5) < 1e-14
        assert found[0].multiplicity == 1

    @pytest.mark.parametrize("family,n", [
        ("delta", 5), ("delta_prime", 5), ("delta_p", 4), ("delta_p", 5),
        ("delta_prime_s", 4), ("delta_prime_s", 5)])
    def test_zero_parameter_threshold_is_no_state(self, family, n):
        # U has eigenvalue +1 (kappa = 0, the continuum threshold), which
        # must not be reported as a state just above zero
        assert bound_states(make_coupling(family, n, 0.0), 10.0) == []

    @pytest.mark.parametrize("family", ["delta_p", "delta_prime"])
    @pytest.mark.parametrize("n", [4, 6])
    @pytest.mark.parametrize("param", [-0.5, -1.0, -3.0, -7.0])
    def test_degenerate_state_of_the_complement(self, family, n, param):
        # the n - 1 dimensional complement of the constants carries the
        # Robin state psi' = (alpha/n) psi resp. psi = (beta/n) psi'
        exact = -param / n if family == "delta_p" else -n / param
        found = bound_states(make_coupling(family, n, param), 100.0)
        assert len(found) == 1
        assert abs(found[0].kappa - exact) <= 1e-13 * exact
        assert found[0].multiplicity == n - 1

    def test_delta_p_degenerate_kappa_to_rounding(self):
        found = bound_states(make_coupling("delta_p", 5, -3.0), 10.0)
        assert len(found) == 1
        assert abs(found[0].kappa - 0.6) <= 1e-14
        assert found[0].multiplicity == 4


# ======================================================================
#  bound_states against the determinant definition
# ======================================================================

def _null_dimension(u: np.ndarray, kappa: float) -> int:
    """Singular values of the pole matrix at or below 1e-10 of its scale."""
    m = (1j * kappa + 1.0) * np.eye(u.shape[0]) + (1j * kappa - 1.0) * u
    sv = np.linalg.svd(m, compute_uv=False)
    return int(np.sum(sv <= 1e-10 * math.sqrt(1.0 + kappa * kappa)))


#: eigenphases for spectra with repeated eigenvalues, including +1 and -1;
#: the kappa_max values drawn with them avoid every tan(theta / 2)
PHASES = (0.0, math.pi, math.pi / 3, math.pi / 2, 2.0, 2.9, -1.0, -2.5)


def _check_against_determinant(u: np.ndarray, kappa_max: float) -> None:
    found = bound_states(VertexCoupling.custom(u), kappa_max)
    kappas = [f.kappa for f in found]
    assert kappas == sorted(kappas)
    assert all(0.0 < k <= kappa_max for k in kappas)
    for state in found:
        assert _null_dimension(u, state.kappa) == state.multiplicity
    for lo, hi in zip(kappas, kappas[1:]):
        assert _null_dimension(u, 0.5 * (lo + hi)) == 0
    assert _null_dimension(u, kappa_max) == 0


class TestBoundStatesProperties:
    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(n=st.integers(1, 6), seed=st.integers(0, 2 ** 32 - 1),
           kappa_max=st.floats(0.05, 50.0))
    def test_haar_unitaries(self, n, seed, kappa_max):
        u = random_unitary(n, np.random.default_rng(seed))
        _check_against_determinant(u, kappa_max)

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(phases=st.lists(st.sampled_from(PHASES), min_size=1, max_size=6),
           seed=st.integers(0, 2 ** 32 - 1),
           kappa_max=st.sampled_from([0.3, 1.3, 2.5, 20.0]))
    def test_repeated_eigenvalues(self, phases, seed, kappa_max):
        q = random_unitary(len(phases), np.random.default_rng(seed))
        u = (q * np.exp(1j * np.array(phases))) @ q.conj().T
        _check_against_determinant(u, kappa_max)


@pytest.mark.parametrize("value", [True, np.True_, 1 + 0j, np.complex128(2),
                                   "1"],
                         ids=["True", "np.True_", "complex", "complex128",
                              "str"])
def test_entry_points_refuse_what_is_not_a_real_number(value):
    # s_matrix(c, True) returned S(1), bound_states(c, True) ran with
    # kappa_max = 1 and rescale_length(c, True, 2.0) rescaled by 1/2;
    # s_matrix took np.complex128(2) silently, and 1 + 0j and "1" raised
    # TypeError from a comparison
    c = make_coupling("delta", 2, 0.5)
    for call, error, match in (
            (lambda: s_matrix(c, value), ValueError, "must be real"),
            (lambda: bound_states(c, value), ValueError, "must be real"),
            (lambda: rescale_length(c, value, 2.0), InvalidCouplingError,
             "finite and positive"),
            (lambda: rescale_length(c, 2.0, value), InvalidCouplingError,
             "finite and positive")):
        with pytest.raises(ValueError, match=match) as info:
            call()
        assert type(info.value) is error


def test_import_does_not_load_scipy_optimize():
    src = os.path.dirname(os.path.dirname(starcouplings.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    out = subprocess.run(
        [sys.executable, "-c",
         "import sys, starcouplings; print('scipy.optimize' in sys.modules)"],
        env=env, capture_output=True, text=True, check=True, timeout=120)
    assert out.stdout.strip() == "False"

