"""On-shell scattering for star graphs of n half-lines.

With a vertex coupling U the scattering matrix at momentum k > 0 is

    S_U(k) = ((k - 1) I + (k + 1) U) ((k + 1) I + (k - 1) U)^{-1}.

Both factors are polynomials in U and commute.  S is unitary for every
real k > 0 and S_U(1) = U.  For real positive k the denominator
D(k) = (k + 1) I + (k - 1) U is never singular (it would need a
U-eigenvalue of modulus |k + 1| / |k - 1| > 1); poles appear only on the
positive imaginary axis k = i kappa, kappa > 0, where each zero of
det D(i kappa) is a bound state of energy -kappa^2.

Those zeros have a closed form in the eigenphases of U: an eigenvalue
e^{i theta} with theta in (0, pi) gives a bound state at
kappa = tan(theta / 2), with the eigenvalue's multiplicity (Kostrykin and
Schrader, J. Phys. A 32 (1999) 595).

S_U is also the reflection matrix R = S_U(i kappa) of the resolvent
kernels (greens) and the ghost map of the finite-difference vertex stencil
(finite_difference).  All three take I + S_U(k) = 2 k (I + U) D(k)^{-1}
from one_plus_s, one solve with one scale-free pole guard.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .coupling import DECOUPLED_EIGENVALUE_TOL, VertexCoupling
from .errors import PoleError


@dataclass(frozen=True)
class SpectralParameter:
    """A point on the physical momentum axes: real momentum k > 0 with
    energy k^2, or imaginary momentum kappa > 0 with energy -kappa^2."""

    kind: str  # "real_momentum" | "imaginary_momentum"
    value: float

    def __post_init__(self):
        if self.kind not in ("real_momentum", "imaginary_momentum"):
            raise ValueError(f"unknown spectral parameter kind {self.kind!r}")
        if not self.value > 0:
            raise ValueError(f"spectral parameter must be positive, got {self.value}")

    @classmethod
    def real_momentum(cls, k: float) -> "SpectralParameter":
        return cls("real_momentum", float(k))

    @classmethod
    def imaginary_momentum(cls, kappa: float) -> "SpectralParameter":
        return cls("imaginary_momentum", float(kappa))

    @property
    def energy(self) -> float:
        v = self.value
        return v * v if self.kind == "real_momentum" else -v * v


class BoundState(NamedTuple):
    kappa: float
    multiplicity: int

    @property
    def energy(self) -> float:
        return -self.kappa ** 2


#: s_matrix raises PoleError below this (relative, see one_plus_s)
S_MATRIX_TOL = 1e-12


def one_plus_s(coupling: VertexCoupling, k: complex,
               tol: float) -> np.ndarray:
    """I + S_U(k) = 2 k (I + U) D(k)^{-1}, D(k) = (k + 1) I + (k - 1) U.

    Raises PoleError when sigma_min(D(k)) < tol (|k + 1| + |k - 1|), the
    bound being the largest singular value D(k) can have.  The result is
    real when k is imaginary and U = U^T.
    """
    u = coupling.u
    eye = np.eye(coupling.n)
    d = (k + 1.0) * eye + (k - 1.0) * u
    smin = np.linalg.svd(d, compute_uv=False)[-1]
    scale = abs(k + 1.0) + abs(k - 1.0)
    if smin < tol * scale:
        raise PoleError(
            f"S_U(k) pole at k = {k}: sigma_min((k + 1) I + (k - 1) U) = "
            f"{smin:.3e} below {tol:g} (|k + 1| + |k - 1|) = "
            f"{tol * scale:.3e}")
    # the factors commute, so D^{-1} (I + U) is (I + U) D^{-1}
    out = np.linalg.solve(d, 2.0 * k * (eye + u))
    if k.real == 0.0 and np.array_equal(u, u.T):
        out = out.real
    return out


def s_matrix(coupling: VertexCoupling, k: float) -> np.ndarray:
    """On-shell scattering matrix at real finite momentum k > 0."""
    if not 0 < k < math.inf:
        raise ValueError(f"momentum must be positive and finite, got {k}")
    return one_plus_s(coupling, k, S_MATRIX_TOL) - np.eye(coupling.n)


def bound_states(coupling: VertexCoupling,
                 kappa_max: float) -> list[BoundState]:
    """All kappa in (0, kappa_max] with det((i kappa + 1) I + (i kappa - 1) U) = 0.

    U is normal, so the determinant is a product over its eigenvalues
    e^{i theta} of 2 i e^{i theta / 2} (kappa cos(theta / 2) - sin(theta / 2)),
    which vanishes only at kappa = tan(theta / 2).  Each eigenvalue with
    theta in (0, pi) therefore gives one bound state, with the eigenvalue's
    multiplicity.  Eigenvalues within DECOUPLED_EIGENVALUE_TOL of each other
    count as one degenerate eigenvalue; clusters at +1 (threshold, kappa = 0)
    and at -1 (Dirichlet, kappa = inf) carry no state.  kappa_max may be
    inf.  States are returned in increasing kappa.
    """
    if not kappa_max > 0:
        raise ValueError(f"kappa_max must be positive, got {kappa_max}")
    lams = np.linalg.eigvals(coupling.u)
    lams = lams[np.argsort(np.angle(lams))]
    # a cluster at -1 may be split across +-pi; harmless, -1 is dropped
    clusters: list[list[complex]] = [[lams[0]]]
    for lam in lams[1:]:
        if abs(lam - clusters[-1][-1]) <= DECOUPLED_EIGENVALUE_TOL:
            clusters[-1].append(lam)
        else:
            clusters.append([lam])
    states = []
    for cluster in clusters:
        centre = complex(np.mean(cluster))
        if abs(centre - 1.0) <= DECOUPLED_EIGENVALUE_TOL \
                or abs(centre + 1.0) <= DECOUPLED_EIGENVALUE_TOL:
            continue
        theta = math.atan2(centre.imag, centre.real)
        if 0.0 < theta < math.pi:
            kappa = math.tan(theta / 2.0)
            if kappa <= kappa_max:
                states.append(BoundState(kappa, len(cluster)))
    return states
