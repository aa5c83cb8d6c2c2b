"""On-shell scattering for star graphs of n half-lines.

With a vertex coupling U the scattering matrix at momentum k > 0 is

    S_U(k) = ((k - 1) I + (k + 1) U) ((k + 1) I + (k - 1) U)^{-1}.

Both factors are polynomials in U and commute.  S is unitary for every
real k > 0 and S_U(1) = U.  For real positive k the denominator is never
singular (it would need a U-eigenvalue of modulus |k + 1| / |k - 1| > 1);
poles appear only on the positive imaginary axis k = i kappa, kappa > 0,
where each zero of det((i kappa + 1) I + (i kappa - 1) U) is a bound state
of energy -kappa^2.

Those zeros have a closed form in the eigenphases of U: an eigenvalue
e^{i theta} with theta in (0, pi) gives a bound state at
kappa = tan(theta / 2), with the eigenvalue's multiplicity (Kostrykin and
Schrader, J. Phys. A 32 (1999) 595).
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


def s_matrix(coupling: VertexCoupling, k: float) -> np.ndarray:
    """On-shell scattering matrix at real finite momentum k > 0."""
    if not 0 < k < math.inf:
        raise ValueError(f"momentum must be positive and finite, got {k}")
    n = coupling.n
    eye = np.eye(n)
    den = (k + 1.0) * eye + (k - 1.0) * coupling.u
    num = (k - 1.0) * eye + (k + 1.0) * coupling.u
    sv = np.linalg.svd(den, compute_uv=False)
    if sv[-1] <= 1e-12 * sv[0]:
        lams = np.linalg.eigvals(coupling.u)
        target = -(k + 1.0) / (k - 1.0) if k != 1.0 else np.inf
        worst = lams[np.argmin(np.abs(lams - target))]
        raise PoleError(
            f"scattering matrix pole at k={k}: U has eigenvalue {worst}")
    return np.linalg.solve(den, num)


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
