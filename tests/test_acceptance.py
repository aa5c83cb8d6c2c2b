"""Acceptance suite: one test per criterion, one printed verdict line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the verdict lines.

Criteria 5 and 6 check every sweep for valid stages, a strictly falling
total norm and a fitted log-log slope in [0.75, 1.25] (criterion 6 also
per sector).  For beta = 0 they further check each stage against its
exact value.  There the base of one sector is Dirichlet and its target
Neumann, and the base of the other is Neumann (Robin 0) and its target
Dirichlet, so on [a, L]^2 each sector difference is exactly rank one,
K(a) e^{-kappa (x + y)} with |K(a)| linear in a (conftest.separable_factor).
Every stage's sector norms and total norm must lie within 1e-3 relative
of that closed form.  The sweep evaluates its norms in closed form too,
so the two differ by rounding only (the 1e-3 bound dates from the
trapezoid quadrature the sweep used before, whose error was about 3e-4,
and is kept as it was).  The decay is first order, so over a in [1e-3, 1e-1]
the exact final/initial ratio is 9.98e-3 for n = 2, 1.009e-2 and 1.026e-2
for n = 3 and 5 (delta_prime_s), 9.92e-3 and 9.89e-3 (delta_prime).
"""

import math
import time

import numpy as np

from conftest import expected_norm, random_unitary
from oracles import effective_robin
from starcouplings import (GridSpec, HalflineBC, PointInteraction,
                           bound_states, compare_kernels, convergence_sweep,
                           fd_resolvent_halfline, from_ab,
                           halfline_kernel, make_coupling, s_matrix, schedule,
                           star_green, to_ab, unitarity_defect,
                           StarModel, VertexCoupling)

RNG = np.random.default_rng(987654321)


def verdict(num: int, label: str, failures: list[str]) -> None:
    status = "PASS" if not failures else "FAIL"
    detail = "" if not failures else f"  [{len(failures)} failure(s)]"
    print(f"[criterion {num}] {label}: {status}{detail}")
    assert not failures, "\n".join(failures)


# ----------------------------------------------------------------------
#  1. coupling algebra
# ----------------------------------------------------------------------

def test_criterion_1_coupling_algebra():
    started = time.perf_counter()
    failures = []
    for trial in range(100):
        n = int(RNG.integers(1, 9))
        u = random_unitary(n, RNG)
        back = from_ab(to_ab(VertexCoupling.custom(u)))
        err = float(np.max(np.abs(back.u - u)))
        if err > 1e-10:
            failures.append(f"round trip {trial} (n={n}): error {err:.3e}")
    for family in ("delta", "delta_prime_s", "delta_p", "delta_prime"):
        for param in RNG.uniform(-40.0, 40.0, size=100):
            n = int(RNG.integers(1, 9))
            defect = unitarity_defect(make_coupling(family, n, float(param)).u)
            if defect > 1e-12:
                failures.append(
                    f"{family} n={n} param={param:.3f}: defect {defect:.3e}")
    elapsed = time.perf_counter() - started
    if elapsed >= 5.0:
        failures.append(f"runtime {elapsed:.1f}s >= 5s")
    verdict(1, "coupling round trips and family unitarity", failures)


# ----------------------------------------------------------------------
#  2. scattering matrix
# ----------------------------------------------------------------------

def test_criterion_2_scattering_matrix():
    started = time.perf_counter()
    failures = []
    for trial in range(200):
        n = int(RNG.integers(1, 7))
        c = VertexCoupling.custom(random_unitary(n, RNG))
        k = float(np.exp(RNG.uniform(np.log(0.01), np.log(100.0))))
        s = s_matrix(c, k)
        defect = float(np.max(np.abs(s @ s.conj().T - np.eye(n))))
        if defect > 1e-11:
            failures.append(f"unitarity sample {trial}: defect {defect:.3e}")
    for trial in range(20):
        n = int(RNG.integers(1, 7))
        u = random_unitary(n, RNG)
        err = float(np.max(np.abs(s_matrix(VertexCoupling.custom(u), 1.0) - u)))
        if err > 1e-13:
            failures.append(f"S(1) != U sample {trial}: error {err:.3e}")
    for n in range(2, 7):
        for alpha in (-10.0, -3.0, 0.0, 2.0, 10.0):
            for k in (0.1, 1.0, 3.3, 10.0):
                s = s_matrix(make_coupling("delta", n, alpha), k)
                off = 2.0 * k / (k * n + 1j * alpha)
                expected = off * np.ones((n, n)) - np.eye(n)
                err = float(np.max(np.abs(s - expected)))
                if err > 1e-12:
                    failures.append(
                        f"delta closed form n={n} alpha={alpha} k={k}: "
                        f"error {err:.3e}")
    elapsed = time.perf_counter() - started
    if elapsed >= 5.0:
        failures.append(f"runtime {elapsed:.1f}s >= 5s")
    verdict(2, "scattering unitarity and closed forms", failures)


# ----------------------------------------------------------------------
#  3. bound-state poles
# ----------------------------------------------------------------------

def test_criterion_3_bound_states():
    started = time.perf_counter()
    failures = []
    for n in (2, 3, 5):
        for alpha in (-0.6, -2.0, -7.3):
            found = bound_states(make_coupling("delta", n, alpha), 12.0)
            want = -alpha / n
            if len(found) != 1 or abs(found[0].kappa - want) > 1e-10:
                failures.append(f"delta n={n} alpha={alpha}: got {found}, "
                                f"want kappa={want}")
    for n in (2, 3, 4):
        for beta in (-0.5, -1.0, -3.0):
            found = bound_states(make_coupling("delta_prime_s", n, beta), 20.0)
            want = -n / beta
            if len(found) != 1 or abs(found[0].kappa - want) > 1e-10:
                failures.append(f"delta_prime_s n={n} beta={beta}: "
                                f"got {found}, want kappa={want}")
    elapsed = time.perf_counter() - started
    if elapsed >= 10.0:
        failures.append(f"runtime {elapsed:.1f}s >= 10s")
    verdict(3, "bound-state positions", failures)


# ----------------------------------------------------------------------
#  4. kernels against the finite-difference solver
# ----------------------------------------------------------------------

def test_criterion_4_kernel_oracle_equivalence():
    started = time.perf_counter()
    failures = []
    grid = GridSpec(12.0, 3999)  # h = 3e-3 exactly
    samples = [(x, y) for x in (0.48, 0.96, 1.5, 2.01, 3.0)
               for y in (0.48, 0.96, 1.5, 2.01, 3.0)]
    cases = [
        ("dirichlet", HalflineBC.dirichlet(), []),
        ("neumann", HalflineBC.neumann(), []),
        ("robin(1.5)", HalflineBC.robin(1.5), []),
        ("robin(-0.4)", HalflineBC.robin(-0.4), []),
        ("robin_scaled(3,2)", HalflineBC.robin_scaled(3, 2.0), []),
        ("dirichlet+point", HalflineBC.dirichlet(),
         [PointInteraction(0.999, -2.0)]),
        ("neumann+point", HalflineBC.neumann(),
         [PointInteraction(0.999, 3.0)]),
        ("robin+point", HalflineBC.robin(1.5),
         [PointInteraction(0.999, 5.0)]),
        ("robin_scaled+point", HalflineBC.robin_scaled(3, 2.0),
         [PointInteraction(0.999, -1.0)]),
        ("dirichlet+matched point", HalflineBC.dirichlet(),
         [PointInteraction(0.999, -1.0 / 0.999)]),
    ]
    budget = 50.0 * grid.h**2
    for label, bc, points in cases:
        analytic = halfline_kernel(bc, points, 1.0)
        coarse = fd_resolvent_halfline(bc, points, 1.0, grid)
        snapped = [coarse.snap(*p) for p in samples]
        err_coarse = compare_kernels(analytic, coarse, snapped).max_abs
        if err_coarse > budget:
            failures.append(f"{label}: error {err_coarse:.3e} > {budget:.3e}")
        fine = fd_resolvent_halfline(bc, points, 1.0, grid.refined())
        err_fine = compare_kernels(analytic, fine, snapped).max_abs
        ratio = err_coarse / err_fine
        if not 3.0 <= ratio <= 5.0:
            failures.append(f"{label}: h->h/2 error ratio {ratio:.2f} "
                            "outside [3, 5]")
    elapsed = time.perf_counter() - started
    if elapsed >= 60.0:
        failures.append(f"runtime {elapsed:.1f}s >= 60s")
    verdict(4, "closed-form kernels match the finite-difference solver",
            failures)


# ----------------------------------------------------------------------
#  5 and 6: convergence experiments
# ----------------------------------------------------------------------

A_LIST = [1e-1, 3e-2, 1e-2, 3e-3, 1e-3]
SWEEP_GRID = GridSpec(12.0, 400)
SWEEP_KAPPA = 1.0

# beta = 0 reflection constants (R_base, R_target) of the leading and the
# repeated sector.  Robin(0) is Neumann (R = +1) and RobinScaled(n, 0) is
# Dirichlet (R = -1); each sector's base tends to the opposite condition.
BETA_ZERO_REFLECTIONS = {
    "delta_prime_s": ((1.0, -1.0), (-1.0, 1.0)),
    "delta_prime": ((-1.0, 1.0), (1.0, -1.0)),
}


def _fit(values, a_values):
    tail = slice(-3, None)
    coef = np.polyfit(np.log(a_values[tail]), np.log(values[tail]), 1)
    return float(coef[0])


def _exact_norm_failures(tag: str, family: str, n: int, rep) -> list[str]:
    """Compare every stage of a beta = 0 sweep with its exact norms."""
    failures = []
    (lead_base, lead_target), (rest_base, rest_target) = \
        BETA_ZERO_REFLECTIONS[family]
    for a, stage in zip(A_LIST, rep.stages):
        c = -1.0 / a
        lead = expected_norm(lead_base, lead_target, a, c, SWEEP_KAPPA,
                             SWEEP_GRID.L)
        rest = expected_norm(rest_base, rest_target, a, c, SWEEP_KAPPA,
                             SWEEP_GRID.L)
        wanted = (("leading sector", "norm_sym", lead),
                  ("repeated sector", "norm_comp", rest),
                  ("all sectors", "norm_total",
                   math.sqrt(lead**2 + (n - 1) * rest**2)))
        for sector, name, want in wanted:
            got = getattr(stage, name)
            if not math.isclose(got, want, rel_tol=1e-3):
                failures.append(
                    f"{tag}: stage a={a:g}, {sector}: {name} = {got:.6e}, "
                    f"exact {want:.6e} (relative error "
                    f"{abs(got / want - 1):.2e} > 1e-3)")
    return failures


def _sweep_failures(family: str, per_sector: bool) -> list[str]:
    failures = []
    for beta in (1.0, -0.5, 0.0):
        for n in (2, 3, 5):
            tag = f"{family} beta={beta} n={n}"
            started = time.perf_counter()
            rep = convergence_sweep(family, beta, n, SWEEP_KAPPA, A_LIST,
                                    SWEEP_GRID)
            elapsed = time.perf_counter() - started
            if elapsed >= 60.0:
                failures.append(f"{tag}: runtime {elapsed:.1f}s >= 60s")
            if not all(s.valid for s in rep.stages):
                failures.append(f"{tag}: invalid stages")
                continue
            totals = np.array([s.norm_total for s in rep.stages])
            if not np.all(totals[1:] < totals[:-1] - 1e-12):
                failures.append(f"{tag}: norm_total not strictly decreasing: "
                                f"{totals}")
            if not 0.75 <= rep.fitted_slope <= 1.25:
                failures.append(
                    f"{tag}: fitted slope {rep.fitted_slope:.3f} outside "
                    "[0.75, 1.25]")
            if per_sector:
                for name in ("norm_sym", "norm_comp"):
                    series = np.array([getattr(s, name) for s in rep.stages])
                    if not np.all(series[1:] < series[:-1]):
                        failures.append(f"{tag}: {name} not decreasing")
                    slope = _fit(series, np.array(A_LIST))
                    if not 0.75 <= slope <= 1.25:
                        failures.append(f"{tag}: {name} slope "
                                        f"{slope:.3f} outside [0.75, 1.25]")
            if beta == 0.0:
                failures.extend(_exact_norm_failures(tag, family, n, rep))
    return failures


def test_criterion_5_common_derivative_family_limit():
    failures = _sweep_failures("delta_prime_s", per_sector=False)
    verdict(5, "scaled couplings converge to the common-derivative family",
            failures)


def test_criterion_6_pairwise_difference_family_limit():
    failures = _sweep_failures("delta_prime", per_sector=True)
    verdict(6, "scaled couplings converge to the pairwise-difference family",
            failures)


# ----------------------------------------------------------------------
#  7. effective Robin limit
# ----------------------------------------------------------------------

def test_criterion_7_effective_robin_limit():
    failures = []
    for beta in (1.0, -0.5):
        for n in (2, 3, 5):
            for a in (1e-3, 1e-4, 1e-5):
                st = schedule("delta_prime_s", beta, n, a)
                got = effective_robin(st.b, st.c, a)
                bound = 2.0 * n * n * a / (beta * beta)
                err = abs(got - n / beta)
                if not err < bound:
                    failures.append(
                        f"beta={beta} n={n} a={a}: |B(a) - n/beta| = "
                        f"{err:.3e} >= {bound:.3e}")
    verdict(7, "effective Robin constant reaches its limit at first order",
            failures)


# ----------------------------------------------------------------------
#  8. vertex conditions of the assembled star kernels
# ----------------------------------------------------------------------

def test_criterion_8_star_vertex_conditions():
    started = time.perf_counter()
    failures = []
    kappa, y0, h = 1.0, 1.3, 1e-4

    def probe(model, j):
        f = lambda x: star_green(model, kappa, j, x, 0, y0)  # noqa: E731
        value = f(0.0)
        deriv = (-3 * f(0.0) + 4 * f(h) - f(2 * h)) / (2 * h)
        return value, deriv

    for n in (2, 3):
        for beta in (1.0, -0.5):
            m = StarModel.delta_prime_s(n, beta)
            data = [probe(m, j) for j in range(n)]
            values = np.array([d[0] for d in data])
            derivs = np.array([d[1] for d in data])
            if np.max(np.abs(derivs - derivs[0])) > 1e-5:
                failures.append(f"delta_prime_s n={n} beta={beta}: "
                                "derivatives not common")
            if abs(values.sum() - beta * derivs[0]) > 1e-5:
                failures.append(f"delta_prime_s n={n} beta={beta}: "
                                "value sum rule broken")
            m = StarModel.delta_prime(n, beta)
            data = [probe(m, j) for j in range(n)]
            values = np.array([d[0] for d in data])
            derivs = np.array([d[1] for d in data])
            if abs(derivs.sum()) > 1e-5:
                failures.append(f"delta_prime n={n} beta={beta}: "
                                "derivative sum rule broken")
            for j in range(n):
                for k in range(n):
                    lhs = values[j] - values[k]
                    rhs = (beta / n) * (derivs[j] - derivs[k])
                    if abs(lhs - rhs) > 1e-5:
                        failures.append(
                            f"delta_prime n={n} beta={beta}: pairwise rule "
                            f"broken at ({j}, {k})")
    elapsed = time.perf_counter() - started
    if elapsed >= 10.0:
        failures.append(f"runtime {elapsed:.1f}s >= 10s")
    verdict(8, "assembled star kernels satisfy their vertex conditions",
            failures)
