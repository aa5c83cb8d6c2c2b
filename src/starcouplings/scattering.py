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

S_U(3i / (2h)) is also the ghost map of the finite-difference vertex
stencil (finite_difference).  Both take I + S_U(k) = 2 k (I + U)
D(k)^{-1} from one_plus_s_sectors, with one scale-free pole guard, which
solves nothing: on an eigenvalue e^{i theta} = (c + i s)^2 of U, D(k)
acts as 2 (c + i s)(k c - i s), so I + S_U(k) is V diag(2 k c / (k c -
i s)) V* over the coupling's cached Eigenphases, and the bound states are
kappa = s / c.  Only s_matrix forms the matrix.  The resolvent kernels
(greens) read the eigenphases directly, one Jost function per group.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, NamedTuple

from .coupling import (DECOUPLED_EIGENVALUE_TOL, Eigenphases, VertexCoupling,
                       _instance, _number)
from .errors import PoleError

if TYPE_CHECKING:    # numpy is imported where an array is made or read
    import numpy as np


class BoundState(NamedTuple):
    kappa: float
    multiplicity: int

    @property
    def energy(self) -> float:
        return -self.kappa ** 2


#: s_matrix raises PoleError below this (relative, see one_plus_s_sectors)
S_MATRIX_TOL = 1e-12

#: s_matrix refines numerical eigenphases where the condition number
#: (|k + 1| + |k - 1|) / sigma_min(D(k)) exceeds this; unrefined, their
#: error in I + S stays below about 8 eps times that condition number
REFINE_COND = 8.0


def one_plus_s_sectors(phases: Eigenphases, k: complex,
                       tol: float) -> tuple[list, float]:
    """The eigenvalues 2 k c / (k c - i s) of I + S_U(k), one per group of
    ``phases``, and r = sigma_min(D(k)) / (|k + 1| + |k - 1|), where
    sigma_min(D(k)) = 2 min |k c - i s|; raises PoleError if r < tol."""
    dens = [k * c - 1j * s for c, s, _ in phases.groups]
    smin = 2.0 * min(map(abs, dens))
    scale = abs(k + 1.0) + abs(k - 1.0)
    if smin < tol * scale:
        raise PoleError(
            f"S_U(k) pole at k = {k}: sigma_min((k + 1) I + (k - 1) U) = "
            f"{smin:.3e} below {tol:g} (|k + 1| + |k - 1|) = "
            f"{tol * scale:.3e}")
    return ([2.0 * k * c / den for (c, _, _), den in zip(phases.groups, dens)],
            smin / scale)


def _refinement(u: np.ndarray, phases: Eigenphases, k: complex,
                sk: np.ndarray) -> np.ndarray:
    """The correction R D(k)^{-1} to ``sk`` of one refinement step of
    S D(k) = (k - 1) I + (k + 1) U, with D(k)^{-1} = V diag(1 / d) V* and
    d = 2 (c + i s)(k c - i s).  The residual R is formed in extended
    precision (where numpy's longdouble has it): in double its rounding,
    amplified by D(k)^{-1}, would leave an error of about eps cond(D(k))
    at a cluster of eigenvalues near +1 (k small) or -1 (k large)."""
    import numpy as np
    kx = np.clongdouble(k)
    ux = u.astype(np.clongdouble)
    sx = sk.astype(np.clongdouble)
    r = (kx + 1.0) * (ux - sx) - (kx - 1.0) * (sx @ ux)
    # r takes the C order of the product sx @ ux: reshape is a view
    r.reshape(-1)[::u.shape[0] + 1] += kx - 1.0
    d = phases.columns([2.0 * complex(c, s) * (k * c - 1j * s)
                        for c, s, _ in phases.groups])
    return ((r.astype(complex) @ phases.v) / d) @ phases.vh


def _s_sectors(coupling: VertexCoupling,
               k: float) -> tuple[float, Eigenphases, list, float]:
    """s_matrix's checked k, the coupling's eigenphases, the eigenvalue of
    S_U(k) per group and the distance r of one_plus_s_sectors, so that
    S_U(k) = phases.apply of those eigenvalues before refinement."""
    k = _number(k, "momentum k", positive=True)
    phases = coupling.eigenphases
    values, distance = one_plus_s_sectors(phases, k, S_MATRIX_TOL)
    return k, phases, [v - 1.0 for v in values], distance


def s_matrix(coupling: VertexCoupling, k: float) -> np.ndarray:
    """On-shell scattering matrix at real finite momentum k > 0, with
    numerical eigenphases refined where D(k) is ill-conditioned."""
    _instance(coupling, VertexCoupling, "coupling")
    k, phases, f, distance = _s_sectors(coupling, k)
    s = phases.apply(f)
    if not phases.exact and REFINE_COND * distance < 1.0:
        s += _refinement(coupling.u, phases, k, s)
    return s


def bound_states(coupling: VertexCoupling,
                 kappa_max: float) -> list[BoundState]:
    """All kappa in (0, kappa_max] with det((i kappa + 1) I + (i kappa - 1) U) = 0.

    U is normal, so the determinant is a product over its eigenvalues
    e^{i theta} of 2 i e^{i theta / 2} (kappa cos(theta / 2) - sin(theta / 2)),
    which vanishes only at kappa = tan(theta / 2).  Each eigenvalue with
    theta in (0, pi) therefore gives one bound state, with the eigenvalue's
    multiplicity, read from the coupling's Eigenphases as kappa = s / c.
    Eigenvalues within DECOUPLED_EIGENVALUE_TOL of each other count as one
    degenerate eigenvalue; those at +1 (threshold, kappa = 0) and at -1
    (Dirichlet, kappa = inf) carry no state.  kappa_max may be inf.  States
    are returned in increasing kappa.
    """
    _instance(coupling, VertexCoupling, "coupling")
    _number(kappa_max, "kappa_max", inf=True, positive=True)
    # |1 + lambda| = 2 c and |1 - lambda| = 2 |s|
    edge = DECOUPLED_EIGENVALUE_TOL / 2.0
    states = [BoundState(s / c, m)
              for c, s, m in coupling.eigenphases.groups
              if c > edge and s > edge and s / c <= kappa_max]
    return sorted(states)
