"""Vertex couplings of quantum star graphs in the unitary parametrization.

A vertex joining n half-line edges carries the self-adjoint boundary
condition

    A Psi(0) + B Psi'(0) = 0,

where Psi(0) is the column vector of edge wave-function values at the
vertex and Psi'(0) collects the outward derivatives.  A pair (A, B) is
admissible when rank (A, B) = n and A B* is Hermitian.  Every admissible
condition can be written with a single n x n unitary U (length scale
fixed to 1):

    A = U - I,   B = i (U + I),

equivalently  U (Psi + i Psi') = Psi - i Psi'.  Conversely an admissible
pair maps back through

    U = -(A + i B)^{-1} (A - i B),

which reproduces the same solution set: substituting u = Psi + i Psi',
v = Psi - i Psi' into the boundary condition gives (A - iB) u + (A + iB) v
= 0, and A + iB is invertible because (A + iB)(A + iB)* = A A* + B B* is
strictly positive for admissible pairs.

The standard coupling families, with J the n x n all-ones matrix:

    delta           U = 2/(n + i alpha) J - I
                    continuity at the vertex, sum of derivatives equals
                    alpha times the common value; alpha = 0 is the free
                    (Kirchhoff) junction
    delta_prime_s   U = I - 2/(n - i beta) J
                    common derivative, sum of values equals beta times it
    delta_p         U = (n - i alpha)/(n + i alpha) I - 2/(n + i alpha) J
                    values sum to zero, pairwise derivative differences
                    proportional to value differences
    delta_prime     U = -(n + i beta)/(n - i beta) I + 2/(n - i beta) J
                    derivatives sum to zero, pairwise value differences
                    proportional to derivative differences

Infinite parameters give the fully decoupled vertices: U = -I (Dirichlet)
for delta and delta_p, U = I (Neumann) for delta_prime_s and delta_prime.

All values are immutable after construction and every operation is a pure
function, safe to call concurrently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidCouplingError

#: families accepted by make_coupling
FAMILIES = ("delta", "delta_prime_s", "delta_p", "delta_prime")

#: max-entry norm allowed for U U* - I
UNITARITY_TOL = 1e-12
#: max-entry norm allowed for A B* - (A B*)*
HERMITICITY_TOL = 1e-12
#: eigenvalues within this distance of -1 belong to the decoupled eigenspace;
#: bound_states also merges eigenvalues this close and drops those at +-1
DECOUPLED_EIGENVALUE_TOL = 1e-9
#: condition estimate beyond which A + iB counts as numerically singular
SINGULAR_COND = 1e12


def ones_matrix(n: int) -> np.ndarray:
    """The n x n matrix whose entries are all equal to one."""
    return np.ones((n, n), dtype=complex)


def unitarity_defect(u: np.ndarray) -> float:
    """Max-entry norm of U U* - I."""
    u = np.asarray(u, dtype=complex)
    return float(np.max(np.abs(u @ u.conj().T - np.eye(u.shape[0]))))


def _readonly(a, dtype=complex) -> np.ndarray:
    out = np.array(a, dtype=dtype)
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class VertexCoupling:
    """An n-edge vertex coupling held as its unitary matrix U.

    ``family``/``param`` are metadata tags recording how the matrix was
    built ("custom" when it was supplied directly); they never enter any
    computation.
    """

    n: int
    u: np.ndarray
    family: str | None = None
    param: float | None = None

    def __post_init__(self):
        if self.n < 1:
            raise InvalidCouplingError(f"edge count must be >= 1, got {self.n}")
        u = _readonly(self.u)
        if u.shape != (self.n, self.n):
            raise InvalidCouplingError(
                f"U must be {self.n}x{self.n}, got shape {u.shape}")
        if not np.all(np.isfinite(u)):
            raise InvalidCouplingError("U has non-finite entries")
        defect = unitarity_defect(u)
        if defect > UNITARITY_TOL:
            raise InvalidCouplingError(
                f"U is not unitary: defect {defect:.3e} > {UNITARITY_TOL}")
        object.__setattr__(self, "u", u)

    @classmethod
    def custom(cls, u) -> "VertexCoupling":
        u = np.asarray(u, dtype=complex)
        return cls(n=u.shape[0], u=u, family="custom")


@dataclass(frozen=True)
class ABPair:
    """A boundary-condition pair (A, B) of n x n matrices.

    The constructor only enforces shapes; admissibility (rank and
    Hermiticity) is checked by validate_ab and required by from_ab, so
    degenerate pairs can still be constructed and diagnosed.
    """

    a: np.ndarray
    b: np.ndarray

    def __post_init__(self):
        a = _readonly(self.a)
        b = _readonly(self.b)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise InvalidCouplingError(f"A must be square, got shape {a.shape}")
        if b.shape != a.shape:
            raise InvalidCouplingError(
                f"A and B must have equal shapes, got {a.shape} and {b.shape}")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)

    @property
    def n(self) -> int:
        return self.a.shape[0]


@dataclass(frozen=True)
class ABDiagnostics:
    """Admissibility diagnostics for an (A, B) pair."""

    n: int
    rank: int                     # numerical rank of the n x 2n block (A, B)
    hermiticity_defect: float     # max-entry norm of A B* - (A B*)*
    min_gram_eigenvalue: float    # smallest eigenvalue of A A* + B B*
    ok: bool


@dataclass(frozen=True)
class BoundaryValues:
    """Vertex data: values Psi(0) and outward derivatives Psi'(0)."""

    psi: np.ndarray
    dpsi: np.ndarray

    def __post_init__(self):
        psi = _readonly(np.atleast_1d(self.psi))
        dpsi = _readonly(np.atleast_1d(self.dpsi))
        if psi.shape != dpsi.shape or psi.ndim != 1:
            raise InvalidCouplingError(
                f"psi and dpsi must be equal-length vectors, got shapes "
                f"{psi.shape} and {dpsi.shape}")
        object.__setattr__(self, "psi", psi)
        object.__setattr__(self, "dpsi", dpsi)

    @property
    def n(self) -> int:
        return self.psi.shape[0]


def make_coupling(family: str, n: int, param: float) -> VertexCoupling:
    """Build one of the standard coupling families.

    ``param`` is the real coupling strength (alpha for delta/delta_p, beta
    for delta_prime_s/delta_prime); +-inf selects the decoupled limit.
    """
    if family not in FAMILIES:
        raise InvalidCouplingError(
            f"unsupported family {family!r}; expected one of {FAMILIES}")
    if n < 1:
        raise InvalidCouplingError(f"edge count must be >= 1, got {n}")
    param = float(param)
    eye = np.eye(n, dtype=complex)
    if math.isinf(param):
        u = -eye if family in ("delta", "delta_p") else eye.copy()
        return VertexCoupling(n=n, u=u, family=family, param=param)
    j = ones_matrix(n)
    if family == "delta":
        u = (2.0 / (n + 1j * param)) * j - eye
    elif family == "delta_prime_s":
        u = eye - (2.0 / (n - 1j * param)) * j
    elif family == "delta_p":
        u = ((n - 1j * param) / (n + 1j * param)) * eye \
            - (2.0 / (n + 1j * param)) * j
    else:  # delta_prime
        u = -((n + 1j * param) / (n - 1j * param)) * eye \
            + (2.0 / (n - 1j * param)) * j
    return VertexCoupling(n=n, u=u, family=family, param=param)


def to_ab(coupling: VertexCoupling) -> ABPair:
    """The canonical pair A = U - I, B = i (U + I)."""
    eye = np.eye(coupling.n)
    return ABPair(coupling.u - eye, 1j * (coupling.u + eye))


def validate_ab(ab: ABPair) -> ABDiagnostics:
    """Report rank of (A, B), the Hermiticity defect of A B*, and the
    smallest eigenvalue of A A* + B B* (strictly positive iff the pair has
    full rank).  Always returns; never raises on a failing pair."""
    a, b = ab.a, ab.b
    n = ab.n
    block = np.hstack([a, b])
    sv = np.linalg.svd(block, compute_uv=False)
    # numerical rank: singular values above n * eps * largest
    if sv[0] == 0.0:
        rank = 0
    else:
        rank = int(np.sum(sv > n * np.finfo(float).eps * sv[0]))
    ab_star = a @ b.conj().T
    defect = float(np.max(np.abs(ab_star - ab_star.conj().T)))
    gram = a @ a.conj().T + b @ b.conj().T
    min_eig = float(np.linalg.eigvalsh(gram)[0])
    ok = rank == n and defect <= HERMITICITY_TOL and min_eig > 0.0
    return ABDiagnostics(n=n, rank=rank, hermiticity_defect=defect,
                         min_gram_eigenvalue=min_eig, ok=ok)


def from_ab(ab: ABPair) -> VertexCoupling:
    """Recover the unitary U = -(A + iB)^{-1} (A - iB) of an admissible pair.

    The result defines the same solution set as the input condition; in
    particular to_ab followed by from_ab is the identity (A + iB = -2I and
    A - iB = 2U for a canonical pair), and a left multiplication of both
    matrices by an invertible M drops out.
    """
    diag = validate_ab(ab)
    if not diag.ok:
        raise InvalidCouplingError(
            f"inadmissible (A, B) pair: rank {diag.rank}/{diag.n}, "
            f"Hermiticity defect {diag.hermiticity_defect:.3e}, "
            f"min gram eigenvalue {diag.min_gram_eigenvalue:.3e}")
    m = ab.a + 1j * ab.b
    sv = np.linalg.svd(m, compute_uv=False)
    if sv[-1] == 0.0 or sv[0] / sv[-1] > SINGULAR_COND:
        raise InvalidCouplingError(
            "A + iB is numerically singular (condition estimate "
            f"{sv[0] / max(sv[-1], np.finfo(float).tiny):.3e}); "
            "the admissibility conditions fail")
    u = -np.linalg.solve(m, ab.a - 1j * ab.b)
    return VertexCoupling(n=ab.n, u=u)


def rescale_length(coupling: VertexCoupling, ell: float,
                   ell_prime: float) -> VertexCoupling:
    """Change the implicit length unit from ell to ell_prime:

        U' = ((ell + ell') U + (ell - ell') I) ((ell - ell') U + (ell + ell') I)^{-1}.

    Both factors are polynomials in U, so they commute and the quotient is
    orientation-free.  For unitary U the inverted factor is never singular
    (|ell + ell'| > |ell - ell'| for positive lengths).
    """
    if not all(math.isfinite(x) and x > 0 for x in (ell, ell_prime)):
        raise InvalidCouplingError(f"length scales must be finite and "
                                   f"positive, got {ell} and {ell_prime}")
    if ell == ell_prime:
        return coupling
    eye = np.eye(coupling.n)
    num = (ell + ell_prime) * coupling.u + (ell - ell_prime) * eye
    den = (ell - ell_prime) * coupling.u + (ell + ell_prime) * eye
    sv = np.linalg.svd(den, compute_uv=False)
    if sv[-1] == 0.0 or sv[0] / sv[-1] > SINGULAR_COND:
        raise InvalidCouplingError(
            "rescaling denominator is singular; input matrix cannot be a "
            "valid coupling")
    return VertexCoupling(n=coupling.n, u=np.linalg.solve(den, num))


def satisfies_vertex_condition(coupling: VertexCoupling, bv: BoundaryValues,
                               tol: float = 1e-10) -> bool:
    """Whether (Psi, Psi') solves (U - I) Psi + i (U + I) Psi' = 0.

    The residual is compared against tol * (|Psi| + |Psi'| + eps).  When the
    condition holds, |Psi + i Psi'| = |Psi - i Psi'| must hold as well
    (vanishing boundary form); that identity is cross-checked and a
    violation raises, since it would mean the inputs are inconsistent.
    """
    if bv.n != coupling.n:
        raise InvalidCouplingError(
            f"boundary values of length {bv.n} for an {coupling.n}-edge vertex")
    eye = np.eye(coupling.n)
    residual = float(np.linalg.norm(
        (coupling.u - eye) @ bv.psi + 1j * (coupling.u + eye) @ bv.dpsi))
    scale = float(np.linalg.norm(bv.psi) + np.linalg.norm(bv.dpsi)
                  + np.finfo(float).eps)
    ok = residual <= tol * scale
    if ok:
        norm_plus = float(np.linalg.norm(bv.psi + 1j * bv.dpsi))
        norm_minus = float(np.linalg.norm(bv.psi - 1j * bv.dpsi))
        if abs(norm_plus - norm_minus) > tol * scale:
            raise ArithmeticError(
                "boundary form does not vanish although the vertex condition "
                "holds; inconsistent inputs")
    return ok


def decoupled_projection(coupling: VertexCoupling,
                         tol: float = DECOUPLED_EIGENVALUE_TOL) -> np.ndarray:
    """Orthogonal projection onto the eigenspace of U at eigenvalue -1.

    Edges are Dirichlet-decoupled exactly on the range of this projection.
    Computed from the SVD of U + I: U is normal, so the singular values are
    |lambda + 1| over the eigenvalues lambda of U and the right singular
    vectors are eigenvectors.  Eigenvalues within ``tol`` of -1 are
    included.  Returns the (complex) zero matrix when -1 is not an
    eigenvalue.
    """
    _, sv, vh = np.linalg.svd(coupling.u + np.eye(coupling.n))
    q = vh[sv < tol].astype(complex)
    return q.conj().T @ q
