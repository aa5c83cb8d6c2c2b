"""Half-line resolvent kernels, point-interaction surgery, and star assembly.

Everything is evaluated at energy -kappa^2 with kappa > 0, where the
resolvent kernel of -d^2/dx^2 on the half line is real and can be written
with a single boundary-dependent reflection constant R:

    G(x, y) = (exp(-kappa |x - y|) + R exp(-kappa (x + y))) / (2 kappa)

    Dirichlet     psi(0) = 0                     R = -1
    Neumann       psi'(0) = 0                    R = +1
    Robin         psi'(0) = b psi(0)             R = (kappa - b) / (kappa + b)
    RobinScaled   psi(0) = (beta / n) psi'(0)    R = (beta kappa - n) / (beta kappa + n)

These agree with the sinh/cosh forms

    Dirichlet     sinh(kappa x_<) e^{-kappa x_>} / kappa
    Neumann       cosh(kappa x_<) e^{-kappa x_>} / kappa
    Robin         e^{-kappa x_>} (b sinh kappa x_< + kappa cosh kappa x_<)
                      / (kappa (b + kappa))
    RobinScaled   e^{-kappa x_>} (n sinh kappa x_< + beta kappa cosh kappa x_<)
                      / (kappa (n + beta kappa))

(x_< and x_> the smaller/larger argument) but stay finite for large
kappa x where sinh alone would overflow.  Robin and RobinScaled have a
guarded pole at b + kappa = 0 and n + beta kappa = 0.

A delta potential of strength c at a > 0 updates any kernel through the
rank-one Krein formula

    G_c(x, y) = G(x, y) + G(x, a) G(a, y) / (-1/c - G(a, a));

c = 0 is a no-op and c = inf the hard screen G - G(x, a) G(a, y) / G(a, a),
which forces the kernel to vanish at x = a.

Star graphs whose central coupling is symmetric under edge permutation
block-diagonalize over the subspaces spanned by
(psi, eps^r psi, ..., eps^{r(n-1)} psi), eps = exp(2 pi i / n).  Every
model handled here reduces to one leading half-line sector (multiplicity
1) and one repeated sector (multiplicity n - 1); sector_decompose lists
them and star_green reassembles the edge-indexed kernel via
sum_{r=1}^{n-1} eps^{r(j-l)} = n delta_jl - 1:

    G_jl(x, y) = G_lead(x, y) / n + (delta_jl - 1/n) G_rest(x, y).

Kernel evaluation is pure and broadcasts over numpy arrays; grids may be
filled in parallel without coordination.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import PoleError

#: reflection-constant denominators smaller than this raise PoleError
ROBIN_POLE_TOL = 1e-10
#: Krein denominators smaller than this raise PoleError
KREIN_POLE_TOL = 1e-12


@dataclass(frozen=True)
class HalflineBC:
    """Boundary condition at the origin of a half line.

    Use the constructors dirichlet(), neumann(), robin(b) and
    robin_scaled(n, beta); robin_scaled means psi(0) = (beta / n) psi'(0).
    """

    kind: str
    b: float = 0.0
    n: int = 0
    beta: float = 0.0

    def __post_init__(self):
        if self.kind not in ("dirichlet", "neumann", "robin", "robin_scaled"):
            raise ValueError(f"unknown boundary condition {self.kind!r}")
        if self.kind == "robin" and not math.isfinite(self.b):
            raise ValueError("robin parameter must be finite; use dirichlet "
                             "for the b = inf limit")
        if self.kind == "robin_scaled":
            if self.n < 1:
                raise ValueError(f"robin_scaled needs n >= 1, got {self.n}")
            if not math.isfinite(self.beta):
                raise ValueError("robin_scaled parameter must be finite; use "
                                 "neumann for the beta = inf limit")

    @classmethod
    def dirichlet(cls) -> "HalflineBC":
        return cls("dirichlet")

    @classmethod
    def neumann(cls) -> "HalflineBC":
        return cls("neumann")

    @classmethod
    def robin(cls, b: float) -> "HalflineBC":
        return cls("robin", b=float(b))

    @classmethod
    def robin_scaled(cls, n: int, beta: float) -> "HalflineBC":
        return cls("robin_scaled", n=int(n), beta=float(beta))

    def reflection(self, kappa: float) -> float:
        """Reflection constant R of the kernel at energy -kappa^2."""
        if self.kind == "dirichlet":
            return -1.0
        if self.kind == "neumann":
            return 1.0
        if self.kind == "robin":
            den = self.b + kappa
            if abs(den) < ROBIN_POLE_TOL:
                raise PoleError(
                    f"Robin kernel pole: |b + kappa| = {abs(den):.3e} "
                    f"(b={self.b}, kappa={kappa})")
            return (kappa - self.b) / den
        den = self.n + self.beta * kappa
        if abs(den) < ROBIN_POLE_TOL:
            raise PoleError(
                f"RobinScaled kernel pole: |n + beta kappa| = {abs(den):.3e} "
                f"(n={self.n}, beta={self.beta}, kappa={kappa})")
        return (self.beta * kappa - self.n) / den

    def slope(self) -> float | None:
        """The condition written as psi'(0) = slope * psi(0); None means
        Dirichlet (no such form)."""
        if self.kind == "dirichlet":
            return None
        if self.kind == "neumann":
            return 0.0
        if self.kind == "robin":
            return self.b
        if self.beta == 0.0:
            return None  # psi(0) = 0
        return self.n / self.beta


@dataclass(frozen=True)
class PointInteraction:
    """A delta potential of strength c at distance a > 0 from the origin.
    c may be math.inf (hard screen)."""

    a: float
    c: float

    def __post_init__(self):
        if not (math.isfinite(self.a) and self.a > 0):
            raise ValueError("point interaction position must be finite and "
                             f"> 0, got {self.a}")
        if math.isnan(self.c):
            raise ValueError("point interaction strength must not be NaN; "
                             "use math.inf for the hard screen")


def check_kappa(kappa: float) -> None:
    """Raise ValueError unless kappa (energy -kappa^2) is finite and > 0."""
    if not (math.isfinite(kappa) and kappa > 0):
        raise ValueError(f"kappa must be finite and positive, got {kappa}")


def halfline_green(bc: HalflineBC, kappa: float, x, y):
    """Resolvent kernel of the half line with boundary condition ``bc`` at
    energy -kappa^2.  Broadcasts over array arguments; values are real."""
    check_kappa(kappa)
    refl = bc.reflection(kappa)
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if np.any(x < 0) or np.any(y < 0):
        raise ValueError("kernel arguments must be >= 0")
    out = (np.exp(-kappa * np.abs(x - y))
           + refl * np.exp(-kappa * (x + y))) / (2.0 * kappa)
    return out if out.ndim else float(out)


def krein_insert(bc: HalflineBC, point: PointInteraction, kappa: float, x, y):
    """Kernel of the half-line operator with an added delta of strength
    point.c at point.a, via the rank-one update of the base kernel."""
    if point.c == 0.0:
        return halfline_green(bc, kappa, x, y)
    g_aa = halfline_green(bc, kappa, point.a, point.a)
    if math.isinf(point.c):
        den = -g_aa
        if abs(den) < KREIN_POLE_TOL:
            raise PoleError(
                f"hard-screen denominator |G(a,a)| = {abs(den):.3e} too small")
    else:
        den = -1.0 / point.c - g_aa
        if abs(den) < KREIN_POLE_TOL:
            raise PoleError(
                f"Krein denominator |-1/c - G(a,a)| = {abs(den):.3e} too "
                f"small: energy -kappa^2 = {-kappa**2} sits on an eigenvalue "
                "of the perturbed operator")
    g_xy = halfline_green(bc, kappa, x, y)
    g_xa = halfline_green(bc, kappa, x, point.a)
    g_ay = halfline_green(bc, kappa, point.a, y)
    return g_xy + g_xa * g_ay / den


def halfline_kernel(bc: HalflineBC, points, kappa: float):
    """Evaluator (x, y) -> kernel for a half line with any number of point
    interactions, built by chaining the rank-one update once per point."""
    check_kappa(kappa)
    bc.reflection(kappa)  # trigger pole guards up front

    evaluate = lambda x, y: halfline_green(bc, kappa, x, y)  # noqa: E731
    for point in points:
        evaluate = _krein_wrap(evaluate, point, kappa)
    return evaluate


def _krein_wrap(base, point: PointInteraction, kappa: float):
    if point.c == 0.0:
        return base
    g_aa = base(point.a, point.a)
    den = -g_aa if math.isinf(point.c) else -1.0 / point.c - g_aa
    if abs(den) < KREIN_POLE_TOL:
        raise PoleError(
            f"Krein denominator {abs(den):.3e} too small at a={point.a}, "
            f"c={point.c}")

    def evaluate(x, y, _base=base, _a=point.a, _den=den):
        return _base(x, y) + _base(x, _a) * _base(_a, y) / _den

    return evaluate


@dataclass(frozen=True)
class StarModel:
    """A star graph of n half lines with a permutation-symmetric center.

    Targets (singular couplings, parameter beta):
        delta_prime_s   common derivative, sum of values = beta * psi'(0)
        delta_prime     derivative sum zero, pairwise value differences
                        = (beta / n) * derivative differences

    Approximants (parameter b, optional shared per-edge point interaction):
        central_delta    delta-type center with per-channel origin
                         condition psi'(0+) = b psi(0) (the n-edge coupling
                         strength is n * b)
        central_delta_p  delta_p-type center with coupling parameter b

    Approximants carry at most one point interaction, applied identically
    on every edge.
    """

    n: int
    kind: str
    beta: float | None = None
    b: float | None = None
    point: PointInteraction | None = None

    def __post_init__(self):
        if self.n < 1:
            raise ValueError(f"edge count must be >= 1, got {self.n}")
        if self.kind in ("delta_prime_s", "delta_prime"):
            if self.beta is None:
                raise ValueError(f"target model {self.kind!r} needs beta")
            if self.b is not None or self.point is not None:
                raise ValueError("target models take no b and no point "
                                 "interaction")
        elif self.kind in ("central_delta", "central_delta_p"):
            if self.b is None:
                raise ValueError(f"approximant model {self.kind!r} needs b")
            if self.beta is not None:
                raise ValueError("approximant models take no beta")
        else:
            raise ValueError(f"unknown star model kind {self.kind!r}")

    @classmethod
    def delta_prime_s(cls, n: int, beta: float) -> "StarModel":
        return cls(n=n, kind="delta_prime_s", beta=float(beta))

    @classmethod
    def delta_prime(cls, n: int, beta: float) -> "StarModel":
        return cls(n=n, kind="delta_prime", beta=float(beta))

    @classmethod
    def central_delta(cls, n: int, b: float,
                      point: PointInteraction | None = None) -> "StarModel":
        return cls(n=n, kind="central_delta", b=float(b), point=point)

    @classmethod
    def central_delta_p(cls, n: int, b: float,
                        point: PointInteraction | None = None) -> "StarModel":
        return cls(n=n, kind="central_delta_p", b=float(b), point=point)

    @property
    def is_target(self) -> bool:
        return self.kind in ("delta_prime_s", "delta_prime")


@dataclass(frozen=True)
class SectorSpec:
    """One half-line block of a symmetry-reduced star model."""

    label: str                        # "symmetric"/"complement" or "r=0"/"r>=1"
    bc: HalflineBC
    point: PointInteraction | None
    multiplicity: int
    weight_phase: complex             # eps = exp(2 pi i / n)


def sector_decompose(model: StarModel) -> list[SectorSpec]:
    """Half-line sectors of a star model.

    kind             leading sector (mult 1)      repeated sector (mult n-1)
    delta_prime_s    RobinScaled(n, beta)          Neumann
    central_delta    Robin(b) + point              Dirichlet + point
    delta_prime      Neumann                       RobinScaled(n, beta)
    central_delta_p  Dirichlet + point             Robin(b / n) + point

    For n = 1 only the leading sector is returned.
    """
    n = model.n
    eps = complex(np.exp(2j * np.pi / n))
    if model.kind == "delta_prime_s":
        lead = SectorSpec("symmetric", HalflineBC.robin_scaled(n, model.beta),
                          None, 1, eps)
        rest = SectorSpec("complement", HalflineBC.neumann(), None, n - 1, eps)
    elif model.kind == "central_delta":
        lead = SectorSpec("symmetric", HalflineBC.robin(model.b),
                          model.point, 1, eps)
        rest = SectorSpec("complement", HalflineBC.dirichlet(),
                          model.point, n - 1, eps)
    elif model.kind == "delta_prime":
        lead = SectorSpec("r=0", HalflineBC.neumann(), None, 1, eps)
        rest = SectorSpec("r>=1", HalflineBC.robin_scaled(n, model.beta),
                          None, n - 1, eps)
    else:  # central_delta_p
        lead = SectorSpec("r=0", HalflineBC.dirichlet(), model.point, 1, eps)
        rest = SectorSpec("r>=1", HalflineBC.robin(model.b / n),
                          model.point, n - 1, eps)
    return [lead] if n == 1 else [lead, rest]


def sector_green(sector: SectorSpec, kappa: float, x, y):
    """Kernel of one sector: the plain half-line kernel, Krein-updated when
    the sector carries a point interaction."""
    if sector.point is None:
        return halfline_green(sector.bc, kappa, x, y)
    return krein_insert(sector.bc, sector.point, kappa, x, y)


def star_green(model: StarModel, kappa: float, edge_j: int, x,
               edge_l: int, y):
    """Edge-indexed kernel of the star model,

        G_jl(x, y) = G_lead(x, y) / n + (delta_jl - 1/n) G_rest(x, y),

    symmetric under (j, x) <-> (l, y).  Edges are 0-based."""
    n = model.n
    if not (0 <= edge_j < n and 0 <= edge_l < n):
        raise ValueError(f"edge indices must lie in [0, {n}), got "
                         f"{edge_j}, {edge_l}")
    sectors = sector_decompose(model)
    lead = sector_green(sectors[0], kappa, x, y)
    if n == 1:
        return lead
    rest = sector_green(sectors[1], kappa, x, y)
    delta_jl = 1.0 if edge_j == edge_l else 0.0
    return lead / n + (delta_jl - 1.0 / n) * rest
