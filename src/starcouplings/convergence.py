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
the constant of the limiting boundary condition.  At energy -kappa^2 the
kernels see a constant that differs from B(a) at O(kappa^2 a), the order
of the differences the sweep measures; P / Q below is that constant.

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
it reads only L from its grid, and the module imports only coupling and
errors (sector_green loads greens when it is called).  Both sector pairs
of both families are one pair in homogeneous form (sigma, tau): target
tau psi(0) = sigma psi'(0), base tau a^2 psi'(0) = -sigma psi(0) (the
scheduled Robin value), plus c = -1/a at a.  The sweep reads them once
from the family table of coupling: an eigenvalue (c, s) of the target's
U is the sector (sigma, tau) = (c, -s), so (beta, n) is the Robin pair
and (1, 0) the Dirichlet base with a Neumann target.  With x = kappa a,
f(x) = x cosh x - sinh x, s = sinh x, h = cosh x and E = e^{2x},

    P = -tau a x (h - x s) - sigma f         (the effective Robin constant
    Q = tau x a^2 h - sigma a s               seen from x > a is P / Q)
    dR = [(E - 1)(sigma kappa^2 Q - tau P)
          + kappa (E + 1)(tau^2 x a^2 h + sigma f (tau a + sigma)
                          - sigma tau a x^2 s)]
         / ((kappa Q + P)(sigma kappa + tau)).

dR is O(a) while the reflection constants are O(1); this form takes no
difference of O(1) terms (f is summed as a series for small x, E - 1 is
expm1, and for x >= 1/2 two O(x^3) terms that cancel are regrouped away),
and it is evaluated with every hyperbolic factor scaled by e^{-x}, so that
dR e^{-2 kappa a} stays finite for large kappa a.  The tests sample the
kernels themselves and gate this form against their quadrature.

Sector norms combine with multiplicities,

    norm_total^2 = norm_lead^2 + (n - 1) norm_rest^2,

which is exact because the sectors are orthogonal.

schedule() checks its inputs and returns an ApproximationStage, a result
only it builds.  A sweep checks them once, one _scale per number, and runs
its stages as one loop: a stage reads b, c, per_channel_b from _strengths,
as schedule() does, shares the factors of x = kappa a between sectors and
calls _reflection_shift per sector; the rest is inline.  It has no
comprehension or generator, each a frame per call before Python 3.12, and
builds its records positionally: a five-stage sweep enters 29 frames.  Its
fit sums in order from 0, as sum() did before Python 3.12 compensated it.

A stage is invalid, with NaN norms and the reason, when one of three
tests trips, each in the kernels' Jost form |p kappa + q| < ROBIN_POLE_TOL
(|p| kappa + |q|) for a one-edge condition p psi'(0) = q psi(0), which is
scale-free where p or q is 0.  The target, (p, q) = (sigma, tau), is a
kernel the stage compares.  The approximant, seen from x > a, obeys
Q psi'(a) = P psi(a): _reflection_shift refuses |kappa Q + P| below
ROBIN_POLE_TOL (kappa |Q| + |P|), so the refused band is about 1e-10
relative in kappa at every a, and P = Q = 0 is refused too.  The base,
(tau a^2, -sigma), is no kernel of the stage, and the approximant is
regular at its bound state; its test guards a cancellation.  There
kappa = sigma / (tau a^2), and once sinh x ~ cosh x P and Q share the
vanishing factor tau kappa a^2 - sigma: without the test, stages on base
poles read 7.6e-7 off at kappa a = 10, 1.0 off at kappa a = 1e3, and from
kappa a ~ 26 P and Q round to 0.  A Dirichlet base has no pole at any
kappa, and a Neumann one none at any kappa > 0.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .coupling import (ROBIN_POLE_TOL, SCHEDULE_FAMILIES, GridSpec,
                       _family_table, _instance, _integer, _scale)
from .errors import PoleError


class ApproximationStage(NamedTuple):
    """Coupling strengths of one approximation stage at distance a, as
    schedule() makes them: a result, whose fields nothing checks."""

    family: str
    n: int
    beta: float
    a: float
    b: float                 # central strength as scheduled
    c: float                 # satellite strength, always -1/a
    per_channel_b: float     # Robin value seen by the repeated/leading sector


def schedule(family: str, beta: float, n: int, a: float) -> ApproximationStage:
    """Coupling strengths b(a), c(a) for the given target family."""
    beta = _check_schedule(family, beta, n)
    a = _scale(a, "distance a")
    return ApproximationStage(family, n, beta, a,
                              *_strengths(family, beta, n, a))


def _check_schedule(family: str, beta: float, n: int) -> float:
    """float(beta), once the family and n are checked."""
    if family not in SCHEDULE_FAMILIES:
        raise ValueError(
            f"unknown schedule family {family!r}; expected one of "
            f"{SCHEDULE_FAMILIES}")
    _integer("edge count", n, low=1)
    return _scale(beta, "beta", signed=True)


def _strengths(family: str, beta: float, n: int, a: float) -> tuple:
    """(b, c, per_channel_b) of checked inputs at distance a: the schedule
    formula, which schedule() and every sweep stage read."""
    common = family == "delta_prime_s"    # common-derivative target
    b = -beta / ((n if common else 1) * a * a)
    return b, -1.0 / a, b if common else b / n


# sector_green and hs_norm stay module attributes, patched by the sweep
# workload of benchmarks/; the tests' sector oracles call both
def sector_green(sector, kappa: float, x, y):
    """Kernel of one sector, a record with a one-edge coupling ``.bc`` (a
    HalflineBC) and a PointInteraction or None ``.point``: its half-line
    kernel, with the sector's point interaction when it carries one.  No
    package code calls it, and greens is imported only when it is."""
    from .greens import halfline_kernel
    points = () if sector.point is None else (sector.point,)
    return halfline_kernel(sector.bc, points, kappa)(x, y)


def hs_norm(diff) -> float:
    """Hilbert-Schmidt norm estimate of a kernel difference sampled at the
    nodes diff.x (diff.values[i, j] at (x[i], x[j])): sqrt of the 2-D
    trapezoidal quadrature of |values|^2 over the sampled square,
    w^T |values|^2 w with the trapezoid weights w of the nodes."""
    import numpy as np
    dx = np.diff(diff.x) / 2.0
    w = np.zeros_like(diff.x)
    w[:-1] += dx
    w[1:] += dx
    return float(np.sqrt(w @ np.abs(diff.values) ** 2 @ w))


class StageResult(NamedTuple):
    a: float
    b: float
    c: float
    per_channel_b: float
    norm_sym: float          # leading sector (multiplicity 1)
    norm_comp: float         # repeated sector (multiplicity n - 1)
    norm_total: float
    valid: bool = True
    error: str | None = None


class ConvergenceReport(NamedTuple):
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


def _reflection_shift(sigma: float, tau: float, kappa: float, a: float,
                      x: float, em: float, ep: float, sh: float, ch: float,
                      f: float, e2: float | None) -> float:
    """dR(a) e^{-2 kappa a} for the sector pair (sigma, tau) from the
    factors of x = kappa a, e2 = e^{-2x} (None below x = 1/2), as
    convergence_sweep forms them.  Raises PoleError when the approximant
    kernel sits on a pole: seen from x > a it obeys Q psi'(a) = P psi(a),
    tested in the kernels' Jost form, so P = Q = 0 is a pole too."""
    p = -tau * a * x * (ch - x * sh) - sigma * f
    q = tau * x * a * a * ch - sigma * a * sh
    pole = kappa * q + p
    size = kappa * abs(q) + abs(p)
    if not abs(pole) > ROBIN_POLE_TOL * size:
        raise PoleError(
            f"approximant pole: kappa Q + P = {pole:.3e} below "
            f"{ROBIN_POLE_TOL} x its terms {size:.3e}: energy -kappa^2 = "
            f"{-kappa**2} sits on an eigenvalue of the perturbed operator")
    den = pole * (sigma * kappa + tau)
    if e2 is not None:    # em ch = ep sh, and ch^2 - sh^2 = e2
        return (tau * tau * a * x * (em * ch + 2.0 * x * e2)
                + sigma * sigma * kappa * (2.0 * x * e2 - em * ch)
                + sigma * tau * f * (em + x * ep)) / den
    return (em * (sigma * kappa**2 * q - tau * p)
            + kappa * ep * (tau * tau * x * a * a * ch
                            + sigma * f * (tau * a + sigma)
                            - sigma * tau * a * x * x * sh)) / den


def _robin_pole(p: float, q: float, kappa: float) -> bool:
    """Whether p psi'(0) = q psi(0) trips the kernels' Jost test."""
    return abs(p * kappa + q) < ROBIN_POLE_TOL * (abs(p) * kappa + abs(q))


def convergence_sweep(family: str, beta: float, n: int, kappa: float,
                      a_list, grid: GridSpec) -> ConvergenceReport:
    """Run the approximation experiment over a strictly decreasing list of
    distances and fit the log-log slope of norm_total against a.

    Sector norms are exact (see the module docstring), so only the window
    end grid.L is read from ``grid``; its node count does not matter.  The
    fit is closed-form least squares over the last three valid stages
    (asymptotic regime); with fewer than two valid stages the slope is
    None.  Stages that hit a pole guard are reported as invalid and
    excluded from the fit.
    """
    kappa = _scale(kappa, "kappa")
    a_values, decreasing = [], True
    for a in a_list:
        a = _scale(a, "distance a")
        decreasing = decreasing and (not a_values or a < a_values[-1])
        a_values.append(a)
    if len(a_values) == 0:
        raise ValueError("need at least one distance")
    if not decreasing:
        raise ValueError("distances must be strictly decreasing")
    grid = _instance(grid, GridSpec, "grid", ValueError)
    if not a_values[0] < grid.L:
        raise ValueError(f"window start {a_values[0]} outside (0, {grid.L})")
    beta = _check_schedule(family, beta, n)
    # the sector pairs (sigma, tau) = (c, -s) of the target's eigenvalues,
    # leading sector (multiplicity 1) first, and whether the target trips
    # its pole guard; 0.0 - s keeps the Neumann target's tau at +0.0
    pairs = []
    for c, s, m in _family_table(family, n, beta):
        if m > 0:
            pairs.append((c, 0.0 - s, _robin_pole(c, 0.0 - s, kappa)))
    four_kappa2 = 4.0 * kappa**2
    k7, k6, k5, k4, k3, k2, k1 = _F_SERIES

    stages, fit = [], []
    for a in a_values:
        b, c, per_channel_b = _strengths(family, beta, n, a)
        lead, rest, total, error = math.nan, math.nan, math.nan, None
        try:
            window = -math.expm1(-2.0 * kappa * (grid.L - a)) / four_kappa2
            x = kappa * a
            em = -math.expm1(-2.0 * x)    # (E - 1) / E
            ep = 2.0 - em                 # (E + 1) / E
            sh, ch = 0.5 * em, 0.5 * ep   # s, h times e^{-x}
            if x < 0.5:                   # f e^{-x} as a series in x^2
                x2, e2 = x * x, None
                f = ((((((k7 * x2 + k6) * x2 + k5) * x2 + k4) * x2 + k3) * x2
                      + k2) * x2 + k1) * x2 * x * math.exp(-x)
            else:
                e2 = math.exp(-2.0 * x)
                f = 0.5 * (x * (1.0 + e2) - em)
            norms = [0.0, 0.0]            # n = 1 has no repeated sector
            for i, (sigma, tau, target_pole) in enumerate(pairs):
                # the base tau a^2 psi'(0) = -sigma psi(0), _robin_pole
                # inline: no kernel of the stage, but on its pole P and Q
                # cancel (see the module docstring)
                p, q = tau * a * a, -sigma
                if target_pole or abs(p * kappa + q) \
                        < ROBIN_POLE_TOL * (abs(p) * kappa + abs(q)):
                    what, (p, q) = ("target sector", (sigma, tau)) \
                        if target_pole else ("Robin kernel", (p, q))
                    raise PoleError(f"{what} pole: {p} psi'(0) = {q} psi(0) "
                                    f"has a bound state at kappa={kappa}")
                norms[i] = abs(_reflection_shift(
                    sigma, tau, kappa, a, x, em, ep, sh, ch, f, e2)) * window
            lead, rest = norms
            total = math.sqrt(lead**2 + (n - 1) * rest**2)
            if total > 0.0:
                fit.append((a, total))
        except PoleError as exc:
            error = str(exc)
        stages.append(tuple.__new__(StageResult, (
            a, b, c, per_channel_b, lead, rest, total, error is None, error)))

    fit = fit[-3:]    # least squares over the last three valid stages
    slope = intercept = None
    if len(fit) >= 2:
        x_sum = y_sum = 0
        for i, (a, total) in enumerate(fit):
            fit[i] = x, y = math.log(a), math.log(total)
            x_sum += x
            y_sum += y
        x_mean, y_mean = x_sum / len(fit), y_sum / len(fit)
        xy_sum = xx_sum = 0
        for x, y in fit:
            xy_sum += (x - x_mean) * (y - y_mean)
            xx_sum += (x - x_mean) * (x - x_mean)
        slope = xy_sum / xx_sum
        intercept = y_mean - slope * x_mean
    return tuple.__new__(ConvergenceReport, (
        family, n, beta, kappa, tuple(stages), slope, intercept))
