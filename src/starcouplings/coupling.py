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

Each family U is fixed by two eigenvalues, one on the constants and one on
their complement.  One private table, _family_table, holds them as
homogeneous pairs (c, s) with c + i s proportional to e^{i theta / 2}, and
is the only place that knows the families: make_coupling forms
U = lambda_1 J/n + lambda_2 (I - J/n), exactly symmetric, from it on the
first read, and the convergence sweep reads its sector pairs from it.

Every function f(U) that the package evaluates (the scattering matrix,
its bound states, a change of length unit) reads the Eigenphases that
VertexCoupling.eigenphases builds on first use and then keeps.
make_coupling seeds them with its family's closed-form phases, which hold
no basis: f(U) = f_1 J/n + f_2 (I - J/n), two numbers that the kernels
read without the matrix.  rescale_length maps the phases
of its input; any other U is decomposed numerically, f(U) = V diag(f) V*.
A coupling is its U and nothing else: it keeps no record of how it was
built.

Checks run where a matrix enters.  The public constructors (VertexCoupling
and custom, ABPair) copy and check what comes from outside,
and from_ab checks its solve of a pair made by hand; what the package
builds from checked data (a family U, a rescaled U, to_ab's pair, a
decomposition) is valid by construction, neither copied nor checked
again; the tests check it.  to_ab's pair keeps its coupling, which from_ab
returns; for exact phases it forms A and B on the first read, and
validate_ab gives its diagnostics in closed form.  numpy is imported by
the functions that make or read an array, so a family's phases, its
kernels, its (A, B) diagnostics and the scalar checks run without it.

This module is the package's base layer for checked input: the records
an entry point takes (besides U and (A, B), PointInteraction, GridSpec
and the (coupling, points) model that _star checks) and the refusals of
numbers live here, and it imports no package module but errors.

All values are immutable after construction and every operation is a pure
function, safe to call concurrently (two threads that race to build the
eigenphase cache, or a U from its phases, build equal ones).
"""

from __future__ import annotations

import cmath
import functools
import math
import sys
from typing import NamedTuple, TYPE_CHECKING

from .errors import InvalidCouplingError

if TYPE_CHECKING:    # numpy is imported where an array is made or read
    import numpy as np

#: families accepted by make_coupling
FAMILIES = ("delta", "delta_prime_s", "delta_p", "delta_prime")
#: families with a scaling schedule (convergence)
SCHEDULE_FAMILIES = ("delta_prime_s", "delta_prime")
#: StarModel kinds (greens): the two targets (parameter beta), then the two
#: approximants (parameter b)
STAR_KINDS = ("delta_prime_s", "delta_prime", "central_delta",
              "central_delta_p")

#: max-entry norm allowed for U U* - I
UNITARITY_TOL = 1e-12
#: max-entry norm allowed for A B* - (A B*)* over sigma_max^2 / 4 of (A, B),
#: which is 1 for a canonical pair; a left factor s I drops out
HERMITICITY_TOL = 1e-12
#: eigenvalues within this distance of -1 belong to the decoupled eigenspace;
#: Eigenphases merges eigenvalues this close, and bound_states drops those
#: at +-1
DECOUPLED_EIGENVALUE_TOL = 1e-9
#: condition estimate beyond which A + iB counts as numerically singular
SINGULAR_COND = 1e12
#: Jost functions below this, relative to their terms, raise PoleError (the
#: kernels), and the sweep's one-edge pole guard reads it too
ROBIN_POLE_TOL = 1e-10


def unitarity_defect(u: np.ndarray) -> float:
    """Max-entry norm of U U* - I."""
    import numpy as np
    u = np.asarray(u, dtype=complex)
    d = u @ u.conj().T    # a fresh C-ordered product: reshape is a view
    d.reshape(-1)[::u.shape[0] + 1] -= 1.0
    return float(np.abs(d).max())


def _symmetric(u: np.ndarray) -> bool:
    """Whether U = U^T exactly: the kernels and the finite-difference
    solver are real exactly then."""
    import numpy as np
    return np.array_equal(u, u.T)


def _frozen(a: np.ndarray) -> np.ndarray:
    """``a``, a fresh array that nothing else holds, made read-only."""
    a.setflags(write=False)
    return a


def _readonly(a, what: str) -> np.ndarray:
    """A fresh read-only complex array of ``a``; a bool array is refused
    (numpy reads a list that mixes bools and floats as floats), and so are
    one of strings or bytes (numpy would parse them) and one of objects
    that are not numbers."""
    import numpy as np
    a = np.asarray(a)
    kind = {"b": "bools", "U": "strings", "S": "bytes"}.get(a.dtype.kind)
    if kind:
        raise InvalidCouplingError(f"{what} must hold numbers, not {kind}")
    try:
        return _frozen(a.astype(complex))
    except TypeError as exc:
        raise InvalidCouplingError(f"{what} must hold numbers: {exc}") \
            from None


def _unchecked(cls, **fields):
    """A ``cls`` of ``fields`` the package built itself from checked data:
    valid by construction, it skips the copy and checks of the constructor
    and sets the instance __dict__ in one update, not field by field."""
    obj = object.__new__(cls)
    obj.__dict__.update(fields)
    return obj


class _Record:
    """A frozen record: its fields live in the instance __dict__, set by
    the constructor or by _unchecked, or on a lazy first read by a
    functools.cached_property of the same name, never by assignment or
    deletion; == and hash() go by identity.  The repr shows the fields
    named in _fields.  The package's checked inputs are records, and so is
    Eigenphases, a result with no constructor; its other results are
    NamedTuples, and all answer _fields."""

    _fields: tuple[str, ...] = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}"
                           for name in self._fields)
        return f"{type(self).__qualname__}({fields})"


class _Value(_Record):
    """A frozen record compared by value: == and hash() go by _key, the
    tuple of its _fields, built on first use and kept."""

    @functools.cached_property
    def _key(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._key == other._key
        return NotImplemented

    def __hash__(self):
        return hash(self._key)


def _instance(x, cls: type, what: str, error=InvalidCouplingError):
    """``x`` if it is a ``cls``; otherwise ``error`` naming ``what``."""
    if not isinstance(x, cls):
        raise error(f"{what} must be a {cls.__name__}, not a "
                    f"{type(x).__name__}")
    return x


def _unitary(u: np.ndarray) -> np.ndarray:
    """A fresh complex matrix U, checked finite and unitary, read-only."""
    import numpy as np
    if not np.isfinite(u).all():
        raise InvalidCouplingError("U has non-finite entries")
    defect = unitarity_defect(u)
    if defect > UNITARITY_TOL:
        raise InvalidCouplingError(
            f"U is not unitary: defect {defect:.3e} > {UNITARITY_TOL}")
    return _frozen(u)


#: lengths (a stage distance a, a point position, a grid length L) and
#: kappa lie in [SCALE_MIN, SCALE_MAX], and a sweep's beta, a length too,
#: in [-SCALE_MAX, SCALE_MAX]: there the kernels, the finite-difference
#: solver and the sweep stay in double range
SCALE_MIN, SCALE_MAX = 1e-100, 1e100

#: what _number requires, by (inf allowed, positive): of the type, then of
#: the value
_REQUIRES = {(False, False): ("real and finite", "finite"),
             (False, True): ("real, finite and positive",
                             "finite and positive"),
             (True, False): ("real", "a number, not NaN"),
             (True, True): ("real and positive", "positive")}


def _numpy_types(*names: str) -> tuple:
    """The numpy scalar types ``names``, or () while numpy is not loaded (or
    is blocked): no numpy scalar exists before numpy is imported."""
    np = sys.modules.get("numpy")
    return tuple(getattr(np, name) for name in names) if np else ()


def _number(x, what: str, error=ValueError, *, inf: bool = False,
            positive: bool = False, got: str | None = None) -> float:
    """float(x) of an int or a float, Python or numpy and not a bool, that
    is not NaN, finite unless ``inf`` and > 0 if ``positive``; otherwise
    ``error`` naming ``what`` and ``got`` (x by default)."""
    if type(x) is not float:    # the common case, tested first
        if isinstance(x, (bool, *_numpy_types("bool_"))) or not isinstance(
                x, (int, float, *_numpy_types("integer", "floating"))):
            raise error(f"{what} must be {_REQUIRES[inf, positive][0]} (a "
                        f"real number, not a {type(x).__name__}), got "
                        f"{got or repr(x)}")
        try:
            x = float(x)
        except OverflowError:
            raise error(f"{what} must lie in the double range, got an "
                        f"integer beyond it") from None
    if not (x > 0.0 if positive else x == x) or not inf and math.isinf(x):
        raise error(f"{what} must be {_REQUIRES[inf, positive][1]}, got "
                    f"{got or repr(x)}")
    return x


def _scale(x, what: str, *, signed: bool = False) -> float:
    """_number of a length or of kappa, in [SCALE_MIN, SCALE_MAX], or in
    [-SCALE_MAX, SCALE_MAX] if ``signed``."""
    low = -SCALE_MAX if signed else SCALE_MIN
    if type(x) is float and low <= x <= SCALE_MAX:    # the common case
        return x
    x = _number(x, what, positive=not signed)
    if not low <= x <= SCALE_MAX:
        raise ValueError(f"{what} must lie in [{low:g}, {SCALE_MAX:g}], got "
                         f"{x!r}")
    return x


def _integer(what: str, *values, low: int = 0,
             high: float = sys.float_info.max, error=ValueError) -> None:
    """Raise ``error`` naming ``what`` unless every value is an int,
    Python or numpy and not a bool, in [low, high); ``high`` defaults to
    the largest double, as the package computes with float(n)."""
    for x in values:
        if type(x) is int and low <= x < high:    # the common case first
            continue
        if isinstance(x, bool) \
                or not isinstance(x, (int, *_numpy_types("integer"))) \
                or not low <= x < high:
            bound = f"lie in [{low}, {high})" if high < sys.float_info.max \
                else f"be an integer number of at least {low} in double range"
            raise error(f"{what} must {bound}, got "
                        f"{', '.join(map(repr, values))}")


class PointInteraction(_Value):
    """A delta potential of strength c at distance a > 0 from the origin.
    c may be math.inf (hard screen).  == and hash() go by (a, c)."""

    a: float
    c: float
    _fields = ("a", "c")

    def __init__(self, a, c):
        self.__dict__.update(
            a=_scale(a, "point interaction position"),
            c=_number(c, "point interaction strength", inf=True))


def check_points(points) -> tuple[PointInteraction, ...]:
    """The points as a tuple; ValueError unless each is a PointInteraction."""
    points = tuple(points)
    for p in points:
        if not isinstance(p, PointInteraction):
            raise ValueError(f"not a PointInteraction: {p!r}")
    return points


class GridSpec(_Value):
    """Uniform grid on (0, L) with N interior points, h = L / (N + 1).
    == and hash() go by (L, N)."""

    L: float
    N: int
    _fields = ("L", "N")

    def __init__(self, L, N):
        L = _scale(L, "truncation length L")
        _integer("interior node count N", N, low=16)
        self.__dict__.update(L=L, N=N)

    @functools.cached_property
    def h(self) -> float:
        return self.L / (self.N + 1)

    def boundary_nodes(self) -> list[float]:
        """All N + 2 nodes i h, i = 0..N, and L, as floats: bit for bit
        np.linspace(0, L, N + 2)."""
        return [i * self.h for i in range(self.N + 1)] + [self.L]

    def refined(self) -> "GridSpec":
        """The grid with h halved (N -> 2N + 1); existing nodes survive."""
        return GridSpec(self.L, 2 * self.N + 1)

    def node_index(self, x: float, *, minimum: int = 0) -> int:
        """Index of the interior node nearest x, clamped to [minimum, N-1]."""
        if type(x) is not float:    # the common case, tested first
            x = _number(x, "grid coordinate")
        if not 0.0 <= x <= self.L:
            raise ValueError(f"grid coordinate must be a real number in "
                             f"[0, {self.L}], got {x!r}")
        i = int(round(x / self.h)) - 1
        if i < minimum:
            return minimum
        return i if i < self.N else self.N - 1


class Eigenphases(_Record):
    """A unitary eigen-decomposition U = V diag(lambda) V* of a coupling.

    Each eigenvalue lambda = e^{i theta}, theta in (-pi, pi], is held as
    c + i s = e^{i theta / 2}, with c = |1 + lambda| / 2 >= 0 and
    s = sign(Im lambda) |1 - lambda| / 2 taken from moduli rather than from
    a half-angle of a rounded pi, so lambda = -1 has c = 0 and lambda = 1
    has s = 0.  ``groups`` holds (c, s, multiplicity) per distinct
    eigenvalue (a decomposition merges those within
    DECOUPLED_EIGENVALUE_TOL), and the columns of ``v`` come in the same
    order, one group after the other; ``vh`` is V*.  Numerical phases carry
    the backward error of the decomposition, which scattering.s_matrix
    removes where it matters (the kernels and the finite-difference ghost
    map take the phases as they are); ``exact`` ones, a family's, are
    closed forms and hold no V: ``v`` and ``vh`` are None, and f(U) is
    symmetric.  A result of VertexCoupling.eigenphases, with no constructor.
    """

    groups: tuple[tuple[float, float, int], ...]
    v: np.ndarray | None
    _fields = ("groups", "v")

    @functools.cached_property
    def n(self) -> int:
        """The size of U: the sum of the group multiplicities."""
        return sum(m for _, _, m in self.groups)

    @property
    def exact(self) -> bool:
        return self.v is None

    def columns(self, values: list) -> list:
        """One value per group, repeated for each column of the group."""
        return [x for x, (_, _, m) in zip(values, self.groups)
                for _ in range(m)]

    def apply(self, f: list) -> np.ndarray:
        """V diag(f) V* for one value of f per group.  A family's phases
        have group 0 on the constant vector and the last group on its
        complement: f_0 J/n + f_1 (I - J/n), so the Kirchhoff S_U(1) = U,
        for one, comes out exact."""
        if not self.exact:
            return (self.v * self.columns(f)) @ self.vh
        import numpy as np
        n = self.n
        off = (f[0] - f[-1]) / n
        out = np.empty((n, n), type(off))    # np.full's dtype, one fill
        out[...] = off
        out.reshape(-1)[::n + 1] = off + f[-1]
        return out

    def _entries(self, f: list, real: bool = False):
        """(j, l) -> apply(f)[j, l], its real part if ``real``; exact phases
        form no matrix, only its two numbers, by apply's arithmetic."""
        if not self.exact:
            return (self.apply(f).real if real else self.apply(f)).item
        off = (f[0] - f[-1]) / self.n
        on = off + f[-1]
        on, off = (on.real, off.real) if real else (on, off)
        return lambda j, l: on if j == l else off


#: the eigenvalues -1 and +1 as (c, s) pairs
_DIRICHLET, _NEUMANN = (0.0, 1.0), (1.0, 0.0)


def _normalised(c: float, s: float) -> tuple[float, float]:
    """(c, s) scaled to c^2 + s^2 = 1 and c >= 0; -1 is held as (0, 1)."""
    if c == 0.0:
        return _DIRICHLET
    h = math.copysign(math.hypot(c, s), c)
    return c / h, s / h


def _half_angle(lam: complex, m: int) -> tuple[float, float, int]:
    """(c, s, m) of an eigenvalue lambda, normalised to c^2 + s^2 = 1."""
    return (*_normalised(abs(1.0 + lam) / 2.0,
                         math.copysign(abs(1.0 - lam) / 2.0, lam.imag)), m)


def _eigenvalues(phases: Eigenphases) -> list:
    """The eigenvalue (c + i s)^2 of U per group of ``phases``, so that U
    is phases.apply of them (+ 0.0 turns an imaginary -0.0 into 0.0)."""
    return [complex(c * c - s * s, 2.0 * c * s + 0.0)
            for c, s, _ in phases.groups]


def _decompose(u: np.ndarray) -> Eigenphases:
    """Eigenphases of a unitary U from its eigenvectors: sorted by phase,
    so that equal eigenvalues sit next to each other, and orthonormalised
    by one QR, which mixes columns only within a group of equal
    eigenvalues (the eigenvectors of distinct ones are orthogonal up to
    rounding).  A group's eigenvalue is the mean of its members."""
    import numpy as np
    lam, vec = np.linalg.eig(u)
    lam = lam.tolist()
    order = sorted(range(len(lam)), key=lambda j: cmath.phase(lam[j]))
    clusters: list[list[complex]] = []
    for z in (lam[j] for j in order):
        if clusters and abs(z - clusters[-1][-1]) <= DECOUPLED_EIGENVALUE_TOL:
            clusters[-1].append(z)
        else:
            clusters.append([z])
    groups = tuple(_half_angle(sum(g) / len(g), len(g)) for g in clusters)
    v = _frozen(np.linalg.qr(vec[:, order])[0])
    return _unchecked(Eigenphases, groups=groups, v=v,
                      vh=_frozen(v.conj().T))


class VertexCoupling(_Record):
    """An n-edge vertex coupling: its unitary matrix U, n x n with n >= 1.

    U is the only field; n is its size.  make_coupling seeds
    ``eigenphases`` with a family's closed-form phases and rescale_length
    with its input's mapped phases, and U is formed from them when first
    read; a coupling built any other way decomposes its own U on first use.
    == and hash() go by identity; compare values with np.array_equal on u.
    """

    _phases: Eigenphases | None = None
    _fields = ("u",)

    def __init__(self, u):
        u = _readonly(u, "U")
        if u.ndim != 2 or u.shape[0] != u.shape[1] or u.shape[0] < 1:
            raise InvalidCouplingError(
                f"U must be a non-empty square matrix, got shape {u.shape}")
        object.__setattr__(self, "u", _unitary(u))

    @classmethod
    def custom(cls, u) -> "VertexCoupling":
        return cls(u)

    @functools.cached_property
    def u(self) -> np.ndarray:
        return _frozen(self._phases.apply(_eigenvalues(self._phases)))

    @property
    def n(self) -> int:
        return self.u.shape[0] if "u" in self.__dict__ else self._phases.n

    @property
    def eigenphases(self) -> Eigenphases:
        """The eigen-decomposition of U, built on first use and kept."""
        phases = self._phases
        if phases is None:
            phases = _decompose(self.u)
            object.__setattr__(self, "_phases", phases)
        return phases


def _star(model, edges: int | None = None):
    """model if it is a (VertexCoupling, tuple of PointInteraction) pair,
    of ``edges`` edges if given (one for a half line); else ValueError."""
    if not (isinstance(model, tuple) and len(model) == 2
            and isinstance(model[0], VertexCoupling)
            and isinstance(model[1], tuple)
            and edges in (None, model[0].n)):
        raise ValueError(f"a model is a ({edges or 'n'}-edge VertexCoupling, "
                         f"tuple of PointInteraction) pair, got {model!r}")
    return model[0], check_points(model[1])


class ABPair(_Record):
    """A boundary-condition pair (A, B) of n x n matrices.

    The constructor only enforces shapes and finite entries; admissibility
    (rank and Hermiticity) is checked by validate_ab and required by
    from_ab, so degenerate pairs can still be constructed and diagnosed.
    to_ab's pair keeps its coupling and forms A and B when first read.
    == and hash() go by identity; compare values with np.array_equal.
    """

    _coupling: VertexCoupling | None = None
    _fields = ("a", "b")

    def __init__(self, a, b):
        a = _readonly(a, "A")
        b = _readonly(b, "B")
        if a.ndim != 2 or a.shape[0] != a.shape[1] or a.shape[0] < 1:
            raise InvalidCouplingError(
                f"A must be a non-empty square matrix, got shape {a.shape}")
        if b.shape != a.shape:
            raise InvalidCouplingError(
                f"A and B must have equal shapes, got {a.shape} and {b.shape}")
        import numpy as np
        if not (np.isfinite(a).all() and np.isfinite(b).all()):
            raise InvalidCouplingError("A and B must have finite entries")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)

    @functools.cached_property
    def a(self) -> np.ndarray:
        # in C order (U may be Fortran-ordered), so reshape(-1) is a view
        a = self._coupling.u.copy()
        a.reshape(-1)[::self._coupling.n + 1] -= 1.0
        return _frozen(a)

    @functools.cached_property
    def b(self) -> np.ndarray:
        import numpy as np
        # + 0.0 turns the -0.0 of U off the diagonal into U + I's +0.0
        b = np.add(self._coupling.u, 0.0, order="C")
        b.reshape(-1)[::self._coupling.n + 1] += 1.0
        b *= 1j
        return _frozen(b)

    @property
    def n(self) -> int:
        return self.a.shape[0] if self._coupling is None \
            else self._coupling.n

    @functools.cached_property
    def _diagnosis(self) -> tuple[ABDiagnostics, np.ndarray]:
        """validate_ab's diagnostics and one SVD of the read-only (A, B)."""
        import numpy as np
        a, b, n = self.a, self.b, self.n
        sv = np.linalg.svd(np.concatenate((a, b), 1), compute_uv=False)
        top = sv.tolist()
        # numerical rank: singular values above n * eps * largest
        cut = n * math.ulp(1.0) * top[0]
        rank = sum(x > cut for x in top)
        ab_star = a @ b.conj().T
        defect = float(np.abs(ab_star - ab_star.conj().T).max())
        # A A* + B B* is (A, B)(A, B)*: its eigenvalues are the squared
        # singular values of the block
        min_eig = top[-1] ** 2
        ok = (rank == n and min_eig > 0.0
              and defect <= HERMITICITY_TOL * top[0] ** 2 / 4.0)
        return ABDiagnostics(n=n, rank=rank, hermiticity_defect=defect,
                             min_gram_eigenvalue=min_eig, ok=ok), sv


class ABDiagnostics(NamedTuple):
    """Admissibility diagnostics for an (A, B) pair."""

    n: int
    rank: int                     # numerical rank of the n x 2n block (A, B)
    hermiticity_defect: float     # max-entry norm of A B* - (A B*)*
    min_gram_eigenvalue: float    # smallest eigenvalue of A A* + B B*
    ok: bool


def make_coupling(family: str, n: int, param: float) -> VertexCoupling:
    """Build one of the standard coupling families.

    ``param`` is the real coupling strength (alpha for delta/delta_p, beta
    for delta_prime_s/delta_prime); +-inf selects the decoupled limit.
    """
    if family not in FAMILIES:
        raise InvalidCouplingError(
            f"unsupported family {family!r}; expected one of {FAMILIES}")
    _integer("edge count", n, low=1, error=InvalidCouplingError)
    param = _number(param, "coupling parameter", InvalidCouplingError,
                    inf=True)
    return _with_phases(_family_phases(family, n, param))


def _family_table(family: str, n: int, param: float) -> tuple:
    """The eigenvalues of a family's U as unnormalised (c, s, m), the one
    on the constants (m = 1) first, then the one on their complement
    (m = n - 1).

    (c, s) is c + i s = e^{i theta / 2} up to a real factor: (n, -alpha)
    for (n - i alpha) / (n + i alpha), (beta, -n) for
    -(n + i beta) / (n - i beta), Dirichlet (0, 1) for -1 and Neumann
    (1, 0) for +1.
    """
    if math.isinf(param):
        sym = rest = _DIRICHLET if family in ("delta", "delta_p") \
            else _NEUMANN
    elif family in ("delta", "delta_p"):
        pair = (float(n), -param)
        sym, rest = (pair, _DIRICHLET) if family == "delta" \
            else (_DIRICHLET, pair)
    else:
        pair = (param, -float(n))
        sym, rest = (pair, _NEUMANN) if family == "delta_prime_s" \
            else (_NEUMANN, pair)
    return (*sym, 1), (*rest, n - 1)


def _family_phases(family: str, n: int, param: float) -> Eigenphases:
    """The closed-form Eigenphases of a family's U, from _family_table."""
    sym, rest = [(*_normalised(c, s), m)
                 for c, s, m in _family_table(family, n, param)]
    if sym[:2] == rest[:2] or n == 1:
        groups = ((*sym[:2], n),)
    else:
        groups = (sym, rest)
    return _unchecked(Eigenphases, groups=groups, v=None, vh=None)


def _with_phases(phases: Eigenphases) -> VertexCoupling:
    """The coupling U = V diag((c + i s)^2) V* of ``phases``, which it
    keeps as its eigenphases; it forms U on the first read."""
    return _unchecked(VertexCoupling, _phases=phases)


def to_ab(coupling: VertexCoupling) -> ABPair:
    """The canonical pair A = U - I, B = i (U + I), formed when first read;
    the pair keeps ``coupling``, which from_ab returns."""
    return _unchecked(ABPair, _coupling=_instance(coupling, VertexCoupling,
                                                  "coupling"))


def validate_ab(ab: ABPair) -> ABDiagnostics:
    """Report rank of (A, B), the Hermiticity defect of A B*, and the
    smallest eigenvalue of A A* + B B* (strictly positive iff the pair has
    full rank); ``ok`` reads the defect relative to the size of (A, B) (see
    HERMITICITY_TOL).  Always returns; never raises on a failing pair.

    The pair to_ab makes of exact phases takes no SVD: (A, B)(A, B)* =
    2 (U U* + I) = 4 I and A B* = -i (U - U*) is Hermitian, so it has rank
    n, defect 0 and Gram eigenvalue 4 exactly.  Any other pair is read
    from one SVD of (A, B).
    """
    c = _instance(ab, ABPair, "pair")._coupling
    if c is not None and c._phases is not None and c._phases.exact:
        return ABDiagnostics(n=c.n, rank=c.n, hermiticity_defect=0.0,
                             min_gram_eigenvalue=4.0, ok=True)
    return ab._diagnosis[0]


def from_ab(ab: ABPair) -> VertexCoupling:
    """Recover the unitary U = -(A + iB)^{-1} (A - iB) of an admissible pair.

    The result defines the same solution set as the input condition, and a
    left multiplication of both matrices by an invertible M drops out.
    to_ab followed by from_ab is the identity: the pair to_ab makes keeps
    its coupling, and from_ab returns it with no SVD, solve or check.  For
    a pair made by hand, A + iB has the singular values of (A, B), as
    (A + iB)(A + iB)* = A A* + B B*, so validate_ab's one SVD also guards
    the solve, and the U solved for is checked finite and unitary.
    """
    if _instance(ab, ABPair, "pair")._coupling is not None:
        return ab._coupling
    diag, sv = ab._diagnosis
    if not diag.ok:
        raise InvalidCouplingError(
            f"inadmissible (A, B) pair: rank {diag.rank}/{diag.n}, "
            f"Hermiticity defect {diag.hermiticity_defect:.3e}, "
            f"min gram eigenvalue {diag.min_gram_eigenvalue:.3e}")
    # full rank makes sv[-1] > 0
    if sv[0] / sv[-1] > SINGULAR_COND:
        raise InvalidCouplingError(
            "A + iB is numerically singular (condition estimate "
            f"{sv[0] / sv[-1]:.3e}); the admissibility conditions fail")
    import numpy as np
    ib = 1j * ab.b
    return _unchecked(VertexCoupling,
                      u=_unitary(np.linalg.solve(ab.a + ib, ib - ab.a)))


def rescale_length(coupling: VertexCoupling, ell: float,
                   ell_prime: float) -> VertexCoupling:
    """Change the implicit length unit from ell to ell_prime:

        U' = ((ell + ell') U + (ell - ell') I) ((ell - ell') U + (ell + ell') I)^{-1},

    which is S_U(k), k = ell / ell'.  It maps an eigenvalue (c + i s)^2 of
    U to (k c + i s)^2 / |k c + i s|^2, so U' is built on U's eigenbasis
    from the eigenphases (k c, s), normalised; closed-form phases stay
    closed-form; a ratio k that overflows or underflows to 0 is refused.
    """
    _instance(coupling, VertexCoupling, "coupling")
    got = f"{ell} and {ell_prime}"
    ell, ell_prime = (_number(x, "length scales", InvalidCouplingError,
                              positive=True, got=got)
                      for x in (ell, ell_prime))
    if ell == ell_prime:
        return coupling
    k = ell / ell_prime
    if not 0.0 < k < math.inf:
        raise InvalidCouplingError(
            f"length ratio {ell} / {ell_prime} is outside the double range")
    phases = coupling.eigenphases
    groups = tuple((*_normalised(k * c, s), m) for c, s, m in phases.groups)
    return _with_phases(_unchecked(Eigenphases, groups=groups, v=phases.v,
                                   vh=phases.vh))
