"""Scaling schedules and Hilbert-Schmidt convergence experiments.

The singular vertex couplings arise as a -> 0+ limits of ordinary
delta-type couplings: a central coupling of strength b(a) plus one extra
delta of strength c(a) = -1/a at distance a on every edge.  Schedules:

    delta_prime_s target:  b(a) = -beta / (n a^2), per-channel Robin value
                           equal to b(a)
    delta_prime target:    b(a) = -beta / a^2, per-channel Robin value
                           b(a) / n

Folding the satellite delta into the origin condition of one channel gives,
at zero energy, the effective Robin constant

    B(a) = c + b / (1 + a b),

which under either schedule equals n / (beta - n a) and tends to n / beta,
the constant of the limiting boundary condition (see effective_robin for
the energy-dependent constant the kernels actually see).

Per symmetry sector the experiment measures the difference between the
point-decorated approximant kernel and the limit kernel on the window
[a, L]^2.  The window starts at a rather than 0: below the satellite the
approximant keeps an O(1) boundary layer that is no part of the interior
limit, and its Hilbert-Schmidt mass only decays like sqrt(a), which would
mask the O(a) rate of the kernels being compared.

On the window the difference is exactly rank one.  Both kernels have the
reflection form (e^{-kappa |x-y|} + R e^{-kappa (x+y)}) / (2 kappa) for
x, y >= a, so

    diff(x, y) = dR(a) e^{-kappa (x + y)} / (2 kappa),
    ||diff||_HS = |dR(a)| (e^{-2 kappa a} - e^{-2 kappa L}) / (4 kappa^2),

where dR is the reflection constant of the base condition plus the
satellite minus that of the target.  The sweep evaluates this closed form;
it reads only L from its grid.  Both sector pairs of both families are one
pair in homogeneous form (sigma, tau): target tau psi(0) = sigma psi'(0),
base tau a^2 psi'(0) = -sigma psi(0) (the scheduled Robin value), plus
c = -1/a at a.  (sigma, tau) = (beta, n) is the Robin pair,
(1, 0) the Dirichlet base with a Neumann target.  With x = kappa a,
f(x) = x cosh x - sinh x, s = sinh x, h = cosh x and E = e^{2x},

    P = -tau a x (h - x s) - sigma f         (the effective Robin constant
    Q = tau x a^2 h - sigma a s               seen from x > a is P / Q)
    dR = [(E - 1)(sigma kappa^2 Q - tau P)
          + kappa (E + 1)(tau^2 x a^2 h + sigma f (tau a + sigma)
                          - sigma tau a x^2 s)]
         / ((kappa Q + P)(sigma kappa + tau)).

dR is O(a) while the reflection constants are O(1); this form takes no
difference of O(1) terms (f is summed as a series for small x, E - 1 is
expm1), and it is evaluated with every hyperbolic factor scaled by e^{-x},
so that dR e^{-2 kappa a} stays finite for large kappa a.  The
hs_norm/sector_difference pair samples the kernels themselves and remains
as the independent test oracle.

Sector norms combine with multiplicities,

    norm_total^2 = norm_lead^2 + (n - 1) norm_rest^2,

which is exact because the sectors are orthogonal.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import PoleError
from .finite_difference import GridSpec
from .greens import (KREIN_POLE_TOL, ROBIN_POLE_TOL, PointInteraction,
                     SectorSpec, StarModel, check_kappa, sector_green)

#: families with a scaling schedule
SCHEDULE_FAMILIES = ("delta_prime_s", "delta_prime")

#: pre-flight bound on |n + beta kappa| for the target RobinScaled sector
TARGET_POLE_TOL = 1e-6


@dataclass(frozen=True)
class ApproximationStage:
    """Coupling strengths of one approximation stage at distance a."""

    family: str
    n: int
    beta: float
    a: float
    b: float                 # central strength as scheduled
    c: float                 # satellite strength, always -1/a
    per_channel_b: float     # Robin value seen by the repeated/leading sector

    def __post_init__(self):
        if not self.a > 0:
            raise ValueError(f"stage distance must be positive, got {self.a}")
        if not math.isclose(self.c, -1.0 / self.a, rel_tol=1e-15):
            raise ValueError("stage invariant c = -1/a violated")


def schedule(family: str, beta: float, n: int, a: float) -> ApproximationStage:
    """Coupling strengths b(a), c(a) for the given target family."""
    if family not in SCHEDULE_FAMILIES:
        raise ValueError(
            f"unknown schedule family {family!r}; expected one of "
            f"{SCHEDULE_FAMILIES}")
    if n < 1:
        raise ValueError(f"edge count must be >= 1, got {n}")
    if not math.isfinite(beta):
        raise ValueError(f"beta must be finite, got {beta}")
    if not a > 0:
        raise ValueError(f"distance must be positive, got {a}")
    if family == "delta_prime_s":
        b = -beta / (n * a * a)
        per_channel = b
    else:
        b = -beta / (a * a)
        per_channel = b / n
    return ApproximationStage(family=family, n=n, beta=float(beta), a=float(a),
                              b=b, c=-1.0 / a, per_channel_b=per_channel)


def effective_robin(b: float, c: float, a: float) -> float:
    """The zero-energy (kappa -> 0) origin condition seen from just outside
    the satellite, B(a) = c + b / (1 + a b).

    At energy -kappa^2 the channel sees psi'(a+) = B_kappa(a) psi(a+) with

        B_kappa(a) = c + kappa (kappa sinh kappa a + b cosh kappa a)
                         / (kappa cosh kappa a + b sinh kappa a),

    which differs from B(a) at O(kappa^2 a).  That is the order of the
    kernel differences of a sweep, so B(a) gives the limit constant but is
    no oracle for the sweep norms: at beta = 0 a norm built on it is off
    by about 35 % in the sector whose base is Dirichlet (b -> inf).
    """
    if not (math.isfinite(b) and math.isfinite(c) and math.isfinite(a)):
        raise ValueError(f"b, c and a must be finite, got {b}, {c}, {a}")
    if not a > 0:
        raise ValueError(f"distance must be positive, got {a}")
    den = 1.0 + a * b
    if abs(den) < 1e-14:
        raise PoleError(f"degenerate stage: |1 + a b| = {abs(den):.3e}")
    return c + b / den


def target_model(family: str, n: int, beta: float) -> StarModel:
    if family == "delta_prime_s":
        return StarModel.delta_prime_s(n, beta)
    if family == "delta_prime":
        return StarModel.delta_prime(n, beta)
    raise ValueError(f"unknown target family {family!r}")


def approximant_model(stage: ApproximationStage) -> StarModel:
    point = PointInteraction(a=stage.a, c=stage.c)
    if stage.family == "delta_prime_s":
        return StarModel.central_delta(stage.n, stage.b, point)
    return StarModel.central_delta_p(stage.n, stage.b, point)


@dataclass(frozen=True)
class SampledDifference:
    """A kernel difference sampled on the square grid built from one node
    vector (values[i, j] belongs to (x[i], x[j]))."""

    x: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        x = np.asarray(self.x, dtype=float)
        values = np.asarray(self.values)
        if values.shape != (x.size, x.size):
            raise ValueError(
                f"values shape {values.shape} does not match {x.size} nodes")
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "values", values)


def _window_nodes(grid: GridSpec, a: float) -> np.ndarray:
    if not 0.0 < a < grid.L:
        raise ValueError(f"window start {a} outside (0, {grid.L})")
    base = grid.boundary_nodes()
    return np.concatenate(([a], base[base > a * (1.0 + 1e-12)]))


def sector_difference(target: SectorSpec, approx: SectorSpec, kappa: float,
                      a: float, grid: GridSpec) -> SampledDifference:
    """Samples of (approximant kernel - target kernel) for one sector pair
    on the tensor grid over [a, L]^2."""
    if target.multiplicity != approx.multiplicity:
        raise ValueError(
            f"incompatible sector pair: multiplicities "
            f"{target.multiplicity} and {approx.multiplicity}")
    nodes = _window_nodes(grid, a)
    xg = nodes[:, None]
    yg = nodes[None, :]
    values = sector_green(approx, kappa, xg, yg) \
        - sector_green(target, kappa, xg, yg)
    return SampledDifference(x=nodes, values=values)


def hs_norm(diff: SampledDifference) -> float:
    """Hilbert-Schmidt norm estimate: sqrt of the 2-D trapezoidal
    quadrature of |values|^2 over the sampled square."""
    sq = np.abs(diff.values) ** 2
    inner = np.trapezoid(sq, diff.x, axis=1)
    return float(np.sqrt(np.trapezoid(inner, diff.x)))


@dataclass(frozen=True)
class StageResult:
    a: float
    b: float
    c: float
    per_channel_b: float
    norm_sym: float          # leading sector (multiplicity 1)
    norm_comp: float         # repeated sector (multiplicity n - 1)
    norm_total: float
    valid: bool = True
    error: str | None = None


@dataclass(frozen=True)
class ConvergenceReport:
    family: str
    n: int
    beta: float
    kappa: float
    stages: tuple[StageResult, ...]
    fitted_slope: float | None
    fitted_intercept: float | None


#: Taylor coefficients 2k / (2k + 1)! of f(x) / x^3 in powers of x^2,
#: highest first; seven terms reach float64 precision for x < 1/2
_F_SERIES = tuple(2 * k / math.factorial(2 * k + 1) for k in range(7, 0, -1))


def _f_scaled(x: float) -> float:
    """(x cosh x - sinh x) e^{-x} for x > 0, without cancellation."""
    if x < 0.5:
        x2 = x * x
        acc = 0.0
        for coeff in _F_SERIES:
            acc = acc * x2 + coeff
        return acc * x2 * x * math.exp(-x)
    return 0.5 * (x * (1.0 + math.exp(-2.0 * x)) + math.expm1(-2.0 * x))


def _reflection_shift(sigma: float, tau: float, kappa: float,
                      a: float) -> float:
    """dR(a) e^{-2 kappa a} for the sector pair (sigma, tau); see the
    module docstring.  Raises PoleError when the approximant kernel sits
    on a pole: the Krein denominator 1 + c G(a, a) = (kappa + B) / (kappa
    + B_0), with B = P / Q the effective Robin constant and B_0 = B + 1/a
    that of the base, falls below KREIN_POLE_TOL."""
    x = kappa * a
    em = -math.expm1(-2.0 * x)    # (E - 1) / E
    ep = 2.0 - em                 # (E + 1) / E
    sh = 0.5 * em                 # sinh x e^{-x}
    ch = 0.5 * ep                 # cosh x e^{-x}
    f = _f_scaled(x)
    p = -tau * a * x * (ch - x * sh) - sigma * f
    q = tau * x * a * a * ch - sigma * a * sh
    pole = kappa * q + p
    # a (kappa q + p) + q = x a (tau kappa a^2 - sigma): 1 + c G(a, a) is
    # pole / (x (tau kappa a^2 - sigma)), compared without dividing
    if abs(pole) < KREIN_POLE_TOL * abs(x * (tau * kappa * a * a - sigma)):
        raise PoleError(
            f"Krein denominator |1 + c G(a,a)| below {KREIN_POLE_TOL}: "
            f"energy -kappa^2 = {-kappa**2} sits on an eigenvalue of the "
            "perturbed operator")
    num = em * (sigma * kappa**2 * q - tau * p) \
        + kappa * ep * (tau * tau * x * a * a * ch
                        + sigma * f * (tau * a + sigma)
                        - sigma * tau * a * x * x * sh)
    return num / (pole * (sigma * kappa + tau))


def _run_stage(family: str, beta: float, n: int, kappa: float, a: float,
               length: float) -> StageResult:
    stage = schedule(family, beta, n, a)
    # the sector pairs as (sigma, tau), leading sector (multiplicity 1)
    # first: the scheduled Robin base against the RobinScaled(n, beta)
    # target, and the Dirichlet base against the Neumann target
    robin, dirichlet = (beta, float(n)), (1.0, 0.0)
    pairs = (robin, dirichlet) if family == "delta_prime_s" \
        else (dirichlet, robin)
    pairs = pairs[:min(n, 2)]
    try:
        if robin in pairs:
            # pre-flight: the target pole must stay well away
            if abs(n + beta * kappa) < TARGET_POLE_TOL:
                raise PoleError(
                    f"target sector pole: |n + beta kappa| < {TARGET_POLE_TOL}")
            # the pole guard of the Robin base kernel (see greens)
            b = stage.per_channel_b
            if abs(kappa + b) < ROBIN_POLE_TOL * math.hypot(1.0, b) \
                    * math.hypot(1.0, kappa):
                raise PoleError(
                    f"Robin kernel pole: |b + kappa| = {abs(kappa + b):.3e} "
                    f"(b={b}, kappa={kappa})")
        window = -math.expm1(-2.0 * kappa * (length - a)) / (4.0 * kappa**2)
        norms = [abs(_reflection_shift(sigma, tau, kappa, a)) * window
                 for sigma, tau in pairs]
        norm_lead = norms[0]
        norm_rest = norms[1] if n > 1 else 0.0
        total = math.sqrt(norm_lead**2 + (n - 1) * norm_rest**2)
        return StageResult(a=stage.a, b=stage.b, c=stage.c,
                           per_channel_b=stage.per_channel_b,
                           norm_sym=norm_lead, norm_comp=norm_rest,
                           norm_total=total)
    except PoleError as exc:
        return StageResult(a=stage.a, b=stage.b, c=stage.c,
                           per_channel_b=stage.per_channel_b,
                           norm_sym=math.nan, norm_comp=math.nan,
                           norm_total=math.nan, valid=False, error=str(exc))


def convergence_sweep(family: str, beta: float, n: int, kappa: float,
                      a_list, grid: GridSpec) -> ConvergenceReport:
    """Run the approximation experiment over a strictly decreasing list of
    distances and fit the log-log slope of norm_total against a.

    Sector norms are exact (see the module docstring), so only the window
    end grid.L is read from ``grid``; its node count does not matter.  The
    fit uses the smallest three valid distances (asymptotic regime); with
    fewer than two valid stages the slope is None.  Stages that hit a pole
    guard are reported as invalid and excluded from the fit.
    """
    check_kappa(kappa)
    a_values = [float(a) for a in a_list]
    if len(a_values) == 0:
        raise ValueError("need at least one distance")
    if any(a2 >= a1 for a1, a2 in zip(a_values, a_values[1:])):
        raise ValueError("distances must be strictly decreasing")
    for a in a_values:
        if not 0.0 < a < grid.L:
            raise ValueError(f"window start {a} outside (0, {grid.L})")
    stages = [_run_stage(family, beta, n, kappa, a, grid.L)
              for a in a_values]

    valid = [s for s in stages if s.valid and s.norm_total > 0.0]
    slope = intercept = None
    if len(valid) >= 2:
        tail = valid[-min(3, len(valid)):]
        log_a = np.log([s.a for s in tail])
        log_norm = np.log([s.norm_total for s in tail])
        slope_arr = np.polyfit(log_a, log_norm, 1)
        slope, intercept = float(slope_arr[0]), float(slope_arr[1])
    return ConvergenceReport(family=family, n=n, beta=float(beta),
                             kappa=float(kappa), stages=tuple(stages),
                             fitted_slope=slope, fitted_intercept=intercept)
