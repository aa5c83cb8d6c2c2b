"""Reference checks for every benchmark op.

Each check takes what the program returned and answers with None when it
is right, or with a short reason when it is not.  The references are
computed here, from the mathematics, and share no code with the program:

* bound states from the eigenphases of U: every eigenvalue e^{i theta}
  with theta in (0, pi) gives a state at kappa = tan(theta / 2), with the
  eigenvalue's multiplicity (Kostrykin and Schrader, J. Phys. A 32 (1999)
  595);
* half-line kernels from the reflection form
  (e^{-kappa|x-y|} + R e^{-kappa(x+y)}) / (2 kappa) and the rank-one
  Krein update for each delta point;
* the FD oracle's second-order budget max_abs <= 50 h^2, and the
  first-order decay of the scaled-delta sweep (quant-ph/0404136).
"""

from __future__ import annotations

import json
import math

import numpy as np

#: max-entry norm allowed for U U* - I and S S* - I
UNITARITY_TOL = 1e-12
#: eigenvalues of U closer than this are one degenerate eigenvalue
CLUSTER_TOL = 1e-9
#: relative kappa agreement required of a bound state
KAPPA_RTOL = 1e-8
#: FD oracle budget factor: max_abs <= ORACLE_BUDGET * h^2
ORACLE_BUDGET = 50.0
SLOPE_WINDOW = (0.9, 1.1)


def unitarity_defect(m) -> float:
    m = np.asarray(m, dtype=complex)
    return float(np.max(np.abs(m @ m.conj().T - np.eye(m.shape[0]))))


# ---------------------------------------------------------------------------
# spectral
# ---------------------------------------------------------------------------

def eigenphase_states(eigenvalues, kappa_max: float) \
        -> list[tuple[float, int]]:
    """(kappa, multiplicity) of every bound state in (0, kappa_max], from
    the eigenvalues of U."""
    lam = np.asarray(eigenvalues, dtype=complex)
    clusters: list[list[complex]] = []
    for value in sorted(lam, key=lambda z: (np.angle(z), z.real)):
        for cluster in clusters:
            if abs(cluster[0] - value) <= CLUSTER_TOL:
                cluster.append(value)
                break
        else:
            clusters.append([value])
    states = []
    for cluster in clusters:
        centre = complex(np.mean(cluster))
        theta = math.atan2(centre.imag, centre.real)
        if abs(centre - 1.0) <= CLUSTER_TOL or not 0.0 < theta < math.pi:
            continue
        kappa = math.tan(theta / 2.0)
        if kappa <= kappa_max:
            states.append((kappa, len(cluster)))
    return sorted(states)


def check_bound_states(found, expected) -> str | None:
    found = sorted((float(k), int(m)) for k, m in found)
    if len(found) == len(expected) and all(
            abs(kf - ke) <= KAPPA_RTOL * max(1.0, ke) and mf == me
            for (kf, mf), (ke, me) in zip(found, expected)):
        return None
    return (f"bound states: {[(f'{k:.6g}', m) for k, m in found]} != "
            f"eigenphase {[(f'{k:.6g}', m) for k, m in expected]}")


def check_spectral(u, round_trip_u, ab_ok: bool, s_of_k: dict,
                   found, expected) -> str | None:
    if not ab_ok:
        return "validate_ab rejected the canonical pair"
    if np.max(np.abs(np.asarray(round_trip_u) - u)) > UNITARITY_TOL:
        return "from_ab(to_ab(U)) != U"
    for k, s in s_of_k.items():
        if unitarity_defect(s) > UNITARITY_TOL:
            return f"S not unitary: k = {k!r}"
    if np.max(np.abs(s_of_k[1.0] - u)) > UNITARITY_TOL:
        return "S(1) != U"
    return check_bound_states(found, expected)


# ---------------------------------------------------------------------------
# sweep and oracle
# ---------------------------------------------------------------------------

def check_sweep(report) -> str | None:
    stages = report.stages
    if not all(s.valid for s in stages):
        return "invalid stage: " + "; ".join(
            str(s.error) for s in stages if not s.valid)
    totals = [s.norm_total for s in stages]
    if any(b >= a for a, b in zip(totals, totals[1:])):
        return f"norm_total not strictly decreasing: {totals}"
    for s in stages:
        combined = math.sqrt(s.norm_sym ** 2
                             + (report.n - 1) * s.norm_comp ** 2)
        if abs(combined - s.norm_total) > 1e-12 * s.norm_total:
            return "sector norms do not combine to norm_total"
    lo, hi = SLOPE_WINDOW
    if report.fitted_slope is None or not lo <= report.fitted_slope <= hi:
        return f"fitted slope: {report.fitted_slope} outside [{lo}, {hi}]"
    return None


def check_oracle(max_abs: float, h: float) -> str | None:
    budget = ORACLE_BUDGET * h * h
    if not max_abs <= budget:
        return f"FD error above budget: {max_abs:.3e} > {budget:.3e}"
    return None


# ---------------------------------------------------------------------------
# half-line kernel reference, for the CLI's greens output
# ---------------------------------------------------------------------------

def reflection(bc: tuple, kappa: float) -> float:
    kind, b, n, beta = bc
    if kind == "dirichlet":
        return -1.0
    if kind == "neumann":
        return 1.0
    if kind == "robin":
        return (kappa - b) / (kappa + b)
    return (beta * kappa - n) / (beta * kappa + n)


def halfline_reference(bc: tuple, points, kappa: float, x, y):
    refl = reflection(bc, kappa)

    def kernel(k, xv, yv):
        if k == 0:
            return (np.exp(-kappa * np.abs(xv - yv))
                    + refl * np.exp(-kappa * (xv + yv))) / (2.0 * kappa)
        a, c = points[k - 1]
        if c == 0.0:
            return kernel(k - 1, xv, yv)
        den = -1.0 / c - kernel(k - 1, a, a)
        return kernel(k - 1, xv, yv) \
            + kernel(k - 1, xv, a) * kernel(k - 1, a, yv) / den

    return kernel(len(points), np.asarray(x, float), np.asarray(y, float))


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------

def _matrix(rows) -> np.ndarray:
    return np.array([[complex(v["re"], v["im"]) for v in row]
                     for row in rows])


def _check_greens_grid(text: str, expect: dict) -> str | None:
    lines = text.split("\n")
    if lines[0] != "x,y,re,im":
        return "greens --grid: bad csv header"
    length, n_nodes = expect["grid"]
    nodes = np.linspace(0.0, length, n_nodes + 2)
    rows = [line for line in lines[1:] if line]
    if len(rows) != nodes.size ** 2:
        return f"greens --grid: {len(rows)} rows, expected {nodes.size ** 2}"
    data = np.array(",".join(rows).split(","), dtype=float).reshape(-1, 4)
    x = data[:, 0].reshape(nodes.size, nodes.size)
    y = data[:, 1].reshape(nodes.size, nodes.size)
    values = data[:, 2].reshape(nodes.size, nodes.size)
    if np.any(x != nodes[:, None]) or np.any(y != nodes[None, :]):
        return "greens --grid: nodes out of order"
    if np.any(data[:, 3] != 0.0):
        return "greens --grid: non-zero imaginary part"
    ref = halfline_reference(expect["bc"], expect["points"], expect["kappa"],
                             nodes[:, None], nodes[None, :])
    if not np.max(np.abs(values - ref)) <= 1e-12:
        return "greens --grid: values differ from the reflection form"
    return None


def check_cli(command: str, expect: dict, code: int, out: str) -> str | None:
    """Exit code, parseable output, row counts and reference values."""
    if code != 0:
        return f"{command}: exit code {code}"
    try:
        if command == "greens-grid":
            return _check_greens_grid(out, expect)
        if command == "converge":
            lines = out.strip().split("\n")
            header, rows, fit = lines[0], lines[1:-1], json.loads(lines[-1])
            if header != "a,b,c,per_channel_b,norm_sym,norm_comp,norm_total":
                return "converge: bad csv header"
            if len(rows) != expect["stages"]:
                return f"converge: {len(rows)} stages"
            totals = [float(row.split(",")[-1]) for row in rows]
            if any(b >= a for a, b in zip(totals, totals[1:])):
                return "converge: norm_total not strictly decreasing"
            lo, hi = SLOPE_WINDOW
            slope = fit["fitted_slope"]
            if slope is None or not lo <= slope <= hi:
                return f"converge: slope {slope}"
            return None
        doc = json.loads(out)
    except (ValueError, KeyError, IndexError) as exc:
        return f"{command}: unparseable output ({exc})"
    if command == "coupling":
        u = _matrix(doc["u"])
        if u.shape != (expect["n"], expect["n"]) \
                or unitarity_defect(u) > UNITARITY_TOL \
                or not doc["unitarity_defect"] <= UNITARITY_TOL:
            return "coupling: U not unitary"
        eye = np.eye(u.shape[0])
        if "ab" in doc and (
                np.max(np.abs(_matrix(doc["ab"]["a"]) - (u - eye))) > 1e-15
                or np.max(np.abs(_matrix(doc["ab"]["b"]) - 1j * (u + eye)))
                > 1e-15):
            return "coupling: (A, B) is not (U - I, i(U + I))"
        if "diagnostics" in doc and doc["diagnostics"]["ok"] is not True:
            return "coupling: canonical pair failed validation"
        return None
    if command == "smatrix":
        s = _matrix(doc["s"])
        if s.shape != (expect["n"], expect["n"]) \
                or unitarity_defect(s) > UNITARITY_TOL \
                or not doc["unitarity_defect"] <= UNITARITY_TOL:
            return "smatrix: S not unitary"
        return None
    if command == "greens":
        ref = float(halfline_reference(expect["bc"], expect["points"],
                                       expect["kappa"], expect["x"],
                                       expect["y"]))
        value = doc["value"]
        if value["im"] != 0.0 or not abs(value["re"] - ref) <= 1e-12:
            return f"greens: {value} != reference {ref!r}"
        return None
    if doc.get("ok") is not True:       # oracle-check
        return f"oracle-check: not ok ({doc.get('max_abs')})"
    return None


def known_answers() -> bool:
    """The references reproduce textbook values and reject perturbed
    ones; a run whose references fail this is not trusted."""
    delta = [complex((3 + 2j) / (3 - 2j))] + [-1 + 0j] * 2   # alpha = -2
    degenerate = [-1 + 0j] + [complex((5 + 3j) / (5 - 3j))] * 4
    kirchhoff = [1 + 0j] + [-1 + 0j] * 2
    dirichlet = float(halfline_reference(("dirichlet", 0.0, 0, 0.0), (),
                                         1.0, 0.5, 0.5))
    return (eigenphase_states(delta, 10.0) == [(2.0 / 3.0, 1)]
            and check_bound_states([(2.0 / 3.0, 1)],
                                   [(2.0 / 3.0 * (1 + 1e-15), 1)]) is None
            and check_bound_states([(2.0 / 3.0 * (1 + 1e-6), 1)],
                                   [(2.0 / 3.0, 1)]) is not None
            and [m for _, m in eigenphase_states(degenerate, 10.0)] == [4]
            and abs(eigenphase_states(degenerate, 10.0)[0][0] - 0.6) < 1e-12
            and eigenphase_states(kirchhoff, 10.0) == []
            and abs(dirichlet - (1.0 - math.exp(-1.0)) / 2.0) < 1e-15
            and check_oracle(49.0 * 1e-6, 1e-3) is None
            and check_oracle(51.0 * 1e-6, 1e-3) is not None)
