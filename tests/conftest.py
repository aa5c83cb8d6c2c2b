"""Shared helpers: reproducible random matrices for property-style tests,
and the separable closed form of the sector norms of a convergence stage."""

import math

import numpy as np


def random_unitary(n: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed n x n unitary from a QR factorization of a complex
    Gaussian matrix, with the R-diagonal phase fixed."""
    z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, r = np.linalg.qr(z)
    d = np.diag(r)
    return q * (d / np.abs(d))


def random_invertible(n: int, rng: np.random.Generator,
                      max_cond: float = 50.0) -> np.ndarray:
    """Random complex matrix with singular values in [1/max_cond, 1]."""
    u = random_unitary(n, rng)
    v = random_unitary(n, rng)
    s = rng.uniform(1.0 / max_cond, 1.0, size=n)
    return (u * s) @ v


def separable_factor(r_base, r_target, a, c, kappa, exp=math.exp):
    """K(a) in diff(x, y) = K(a) e^{-kappa (x + y)}, the exact sector
    difference on [a, L]^2 between a base kernel with reflection constant
    r_base plus a delta of strength c at a, and a target kernel with
    reflection constant r_target (see the test_convergence docstring).
    Pass mpmath numbers and exp=mpmath.exp to evaluate it at high
    precision."""
    g_a = (exp(kappa * a) + r_base * exp(-kappa * a)) / (2 * kappa)
    g_aa = (1 + r_base * exp(-2 * kappa * a)) / (2 * kappa)
    den = -1 / c - g_aa
    return (r_base - r_target) / (2 * kappa) + g_a * g_a / den


def expected_norm(r_base, r_target, a, c, kappa, length, exp=math.exp):
    """Hilbert-Schmidt norm of the separable difference over [a, length]^2."""
    k = separable_factor(r_base, r_target, a, c, kappa, exp)
    return abs(k) * (exp(-2 * kappa * a)
                     - exp(-2 * kappa * length)) / (2 * kappa)


def unitary_with_phase(n: int, rng: np.random.Generator, theta: float,
                       symmetric: bool) -> np.ndarray:
    """n x n unitary with the eigenvalue e^{i theta} and n - 1 random
    eigenphases.  The eigenbasis is Haar unitary, or Haar real orthogonal
    when ``symmetric``, which makes U = U^T (symmetrized exactly)."""
    if symmetric:
        q, r = np.linalg.qr(rng.standard_normal((n, n)))
        q = q * np.sign(np.diag(r))
    else:
        q = random_unitary(n, rng)
    phases = np.concatenate(([theta], rng.uniform(-np.pi, np.pi, n - 1)))
    u = (q * np.exp(1j * phases)) @ q.conj().T
    return (u + u.T) / 2.0 if symmetric else u
