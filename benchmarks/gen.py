"""Seeded inputs for the four benchmark workloads.

Every workload cycles through a fixed skeleton of op classes whose costs
differ by an order of magnitude (an N = 1600 sweep against an N = 400 one,
a fine star mesh against a coarse one, a zero coupling parameter against a
non-zero one).  The seed draws the values inside a class: Haar unitaries,
momenta, boundary conditions, point positions and strengths.  The
skeleton is the same for every seed and a run holds a fixed number of
whole cycles (CYCLE, CYCLE_SECONDS), so every run holds the same mix of
classes and the throughputs, medians and tails of two seeds can be
compared; only the inputs differ.

The spectral family parameters are the one exception: they are a fixed
grid, the same for every seed, because whether the program gets a family
coupling right depends on the exact parameter (see README.md).  A seeded
parameter would make the number of failed ops depend on the seed; a fixed
grid makes every seed meet the same known defects.

In the library workloads the skeletons also keep the median and the tail
(the eleventh-largest latency) inside one class, so neither statistic
jumps between classes: a spectral pass has 28 slow zero-parameter ops
(two of each of the 14 slow (family, n) pairs), and a sweep run has
three N = 1600 sweeps and 21 N = 800 ones, so its tail is an N = 800
sweep.  A CLI run holds only three cycles (24 children), so its tail is
a short call near the median, not one of the long calls.

Nothing here imports the program.  Inputs are plain numbers, strings and
numpy arrays, and the FD point positions are whole multiples of the coarse
mesh width, so they are grid nodes of both meshes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

FAMILIES = ("delta", "delta_prime_s", "delta_p", "delta_prime")
SCHEDULE_FAMILIES = ("delta_prime_s", "delta_prime")
STAR_KINDS = ("delta_prime_s", "delta_prime", "central_delta",
              "central_delta_p")
HALF_BCS = ("dirichlet", "neumann", "robin", "robin_scaled")

#: the paper's distances for the scaled-delta sweep
A_LIST = (1e-1, 3e-2, 1e-2, 3e-3, 1e-3)
#: truncation length shared by the sweep, the FD meshes and the CLI
L = 12.0
KAPPA_MAX = 10.0
#: interior node counts of the coarse (h = 3e-3) and fine (h = 3e-4) meshes
N_COARSE = 3999
N_FINE = 39999

#: one spectral round per (family, n), between the pass's two
#: zero-parameter blocks; "haar" is a random U of that n.  Non-zero
#: finite parameters come from the given magnitude band, log-spaced over
#: the 20 (family, n) pairs in a fixed scrambled order, so a pass covers
#: weak and strong couplings alike and is the same for every seed.
SPECTRAL_ROUND = (("neg", 0.1, 1.0), ("pos", 0.1, 10.0), ("+inf",),
                  ("-inf",), ("neg", 1.0, 10.0), ("haar",))
#: grid sizes of one sweep cycle: (N + 2)^2 doubles are 1.3 MB at N = 400,
#: inside the 2 MiB per-core L2, and 5.1 MB at N = 800 and 20.5 MB at
#: N = 1600, outside it.  The N = 400 sweeps hold the median and the
#: N = 800 ones the tail, away from the noisy top of the N = 400 class.
#: The N = 1600 sweep goes first: its 20 MB arrays raise glibc's mmap
#: threshold, after which an N = 400 sweep runs about two times faster
#: than before, so every timed sweep sees the same allocator state
SWEEP_CYCLE = (1600,) + (800,) * 7 + (400,) * 30
SWEEP_CYCLES = 3
#: (mode, interior nodes, star edge count) of one oracle cycle; the
#: coarse n = 3 stars hold the median, the fine stars the tail
ORACLE_CYCLE = (("half", N_COARSE, 0), ("half", N_FINE, 0),
                ("star", N_COARSE, 2), ("star", N_COARSE, 3),
                ("star", N_COARSE, 4), ("star", N_COARSE, 3),
                ("star", N_FINE, 3))
ORACLE_CYCLES = 48
#: CLI subcommands of one cycle: short calls first, then the two long ones
CLI_CYCLE = ("coupling", "smatrix", "greens", "coupling", "oracle-check",
             "smatrix", "greens-grid", "converge")
CLI_CYCLES = 6

_STREAM = {"spectral": 1, "sweep": 2, "oracle": 3, "cli": 4}


def rng_for(workload: str, seed: int) -> np.random.Generator:
    return np.random.default_rng([int(seed), _STREAM[workload]])


def haar_unitary(rng: np.random.Generator, n: int) -> np.ndarray:
    """Haar-distributed unitary: QR of a complex Gaussian with the phases
    of R's diagonal moved into Q."""
    z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, r = np.linalg.qr(z)
    d = np.diag(r)
    return q * (d / np.abs(d))


def _log_uniform(rng, lo: float, hi: float) -> float:
    return float(math.exp(rng.uniform(math.log(lo), math.log(hi))))


def mesh_width(n_nodes: int) -> float:
    return L / (n_nodes + 1)


# ---------------------------------------------------------------------------
# spectral
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SpectralInput:
    n: int
    family: str | None          # None: ``u`` is a Haar unitary
    param: float | None
    u: np.ndarray | None
    ks: tuple[float, ...]       # momenta for s_matrix; the first is 1
    kappa_max: float


def _grid_param(lo: float, hi: float, pair: int) -> float:
    """The pair-th of 20 log-spaced values in [lo, hi], in a scrambled
    order (7 is prime to 20), so neighbouring pairs are far apart."""
    step = ((7 * pair) % 20 + 0.5) / 20
    return float(math.exp(math.log(lo) + step * math.log(hi / lo)))


def spectral(seed: int) -> list[SpectralInput]:
    """One pass: parameter 0 for every (family, n), a round of
    SPECTRAL_ROUND for every (family, n), and parameter 0 again.  Parameter
    0 is the slow class for 14 of the 20 pairs; two blocks of it put the
    tail, the eleventh-largest latency, inside that class and not at its
    lower edge."""
    rng = rng_for("spectral", seed)
    pairs = [(family, n) for family in FAMILIES for n in range(2, 7)]
    zeros = [(pair, ("zero",)) for pair in range(len(pairs))]
    slots = zeros + [(pair, cls) for pair in range(len(pairs))
                     for cls in SPECTRAL_ROUND] + zeros
    ops = []
    for pair, (cls, *band) in slots:
        family, n = pairs[pair]
        ks = (1.0, _log_uniform(rng, 0.05, 20.0),
              _log_uniform(rng, 0.05, 20.0))
        if cls == "haar":
            ops.append(SpectralInput(n, None, None, haar_unitary(rng, n), ks,
                                     KAPPA_MAX))
            continue
        if band:
            param = _grid_param(*band, pair)
            param = -param if cls == "neg" else param
        else:
            param = {"zero": 0.0, "+inf": math.inf, "-inf": -math.inf}[cls]
        ops.append(SpectralInput(n, family, param, None, ks, KAPPA_MAX))
    return ops


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SweepInput:
    family: str
    n: int
    beta: float
    kappa: float
    grid_n: int


def sweep(seed: int) -> list[SweepInput]:
    rng = rng_for("sweep", seed)
    ops = []
    for _ in range(SWEEP_CYCLES):
        for grid_n in SWEEP_CYCLE:
            ops.append(SweepInput(
                family=SCHEDULE_FAMILIES[int(rng.integers(2))],
                n=int(rng.integers(2, 6)),
                beta=_log_uniform(rng, 0.3, 3.0),
                kappa=float(rng.uniform(0.5, 2.0)),
                grid_n=grid_n))
    return ops


# ---------------------------------------------------------------------------
# oracle
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class OracleInput:
    mode: str                   # "half" | "star"
    grid_n: int
    kappa: float
    bc: tuple                   # half: (kind, b, n, beta); star: ()
    points: tuple[tuple[float, float], ...]   # (a, c), a on a grid node
    kind: str | None = None     # star model kind
    n: int = 0
    beta: float | None = None
    b: float | None = None


def _node_point(rng) -> tuple[float, float]:
    # a whole number of coarse cells is a node of both meshes; c > -0.4
    # with kappa >= 1 keeps every Krein denominator at least 1 away from 0
    a = int(rng.integers(167, 501)) * mesh_width(N_COARSE)
    c = float(rng.uniform(-0.4, 2.0))
    return a, c


def _half_bc(rng, kind: str) -> tuple:
    if kind == "robin":
        return ("robin", _log_uniform(rng, 0.2, 3.0), 0, 0.0)
    if kind == "robin_scaled":
        return ("robin_scaled", 0.0, int(rng.integers(1, 5)),
                _log_uniform(rng, 0.3, 3.0))
    return (kind, 0.0, 0, 0.0)


def oracle(seed: int) -> list[OracleInput]:
    rng = rng_for("oracle", seed)
    ops = []
    for cycle in range(ORACLE_CYCLES):
        for slot, (mode, grid_n, n) in enumerate(ORACLE_CYCLE):
            kappa = float(rng.uniform(1.0, 2.0))
            if mode == "half":
                kind = HALF_BCS[(cycle + slot) % len(HALF_BCS)]
                n_points = (cycle + slot) % 3
                ops.append(OracleInput(
                    "half", grid_n, kappa, _half_bc(rng, kind),
                    tuple(sorted(_node_point(rng) for _ in range(n_points)))))
                continue
            kind = STAR_KINDS[(cycle + slot) % 4]
            if kind in ("delta_prime_s", "delta_prime"):
                ops.append(OracleInput("star", grid_n, kappa, (), (),
                                       kind=kind, n=n,
                                       beta=_log_uniform(rng, 0.3, 3.0)))
            else:
                # with or without a point in turn, so the mix of op
                # costs is the same for every seed
                points = (_node_point(rng),) \
                    if (cycle + slot) // 4 % 2 else ()
                ops.append(OracleInput("star", grid_n, kappa, (), points,
                                       kind=kind, n=n,
                                       b=_log_uniform(rng, 0.2, 3.0)))
    return ops


def default_samples() -> list[tuple[float, float]]:
    """The CLI's oracle-check sample set: a 5 x 5 product within L/4."""
    xs = [f * L for f in (0.04, 0.08, 0.125, 0.17, 0.25)]
    return [(x, y) for x in xs for y in xs]


def star_samples(n: int) -> list[tuple]:
    """The CLI's star sample set: first and last edge, every fourth pair."""
    edges = sorted({0, n - 1})
    return [(j, x, l, y) for j in edges for l in edges
            for (x, y) in default_samples()[::4]]


# ---------------------------------------------------------------------------
# cli
# ---------------------------------------------------------------------------

_CLI_FAMILY = {"delta": "delta", "delta_prime_s": "delta-prime-s",
               "delta_p": "delta-p", "delta_prime": "delta-prime"}


@dataclass(frozen=True)
class CliInput:
    command: str                # an entry of CLI_CYCLE
    argv: tuple[str, ...]
    expect: dict                # what the checker needs beyond the output


def _bc_flag(bc: tuple) -> str:
    kind, b, n, beta = bc
    if kind == "robin":
        return f"robin:{b!r}"
    if kind == "robin_scaled":
        return f"robin-scaled:{n}:{beta!r}"
    return kind


def _cli_family_param(rng) -> tuple[str, int, float]:
    family = FAMILIES[int(rng.integers(4))]
    n = int(rng.integers(2, 7))
    cls = int(rng.integers(4))
    if cls == 0:
        param = 0.0
    elif cls == 1:
        param = math.inf
    else:
        param = _log_uniform(rng, 0.1, 10.0) * (1 if cls == 2 else -1)
    return family, n, param


def cli(seed: int) -> list[CliInput]:
    rng = rng_for("cli", seed)
    ops = []
    for cycle in range(CLI_CYCLES):
        for command in CLI_CYCLE:
            kappa = float(rng.uniform(1.0, 2.0))
            if command in ("coupling", "smatrix"):
                family, n, param = _cli_family_param(rng)
                argv = [command, "--family", _CLI_FAMILY[family],
                        "--n", str(n), "--param", repr(param)]
                expect = {"n": n}
                if command == "smatrix":
                    argv += ["--k", repr(_log_uniform(rng, 0.05, 20.0))]
                else:
                    flags = int(rng.integers(4))
                    if flags & 1:
                        argv.append("--to-ab")
                    if flags & 2:
                        argv.append("--validate")
                    if rng.integers(2):
                        argv += ["--rescale", "1.0",
                                 repr(_log_uniform(rng, 0.25, 4.0))]
                ops.append(CliInput(command, tuple(argv), expect))
            elif command in ("greens", "greens-grid"):
                bc = _half_bc(rng, HALF_BCS[int(rng.integers(4))])
                points = tuple(sorted(_node_point(rng)
                                      for _ in range(int(rng.integers(3)))))
                argv = ["greens", "--bc", _bc_flag(bc),
                        "--kappa", repr(kappa)]
                for a, c in points:
                    argv += ["--point", f"{a!r},{c!r}"]
                expect = {"bc": bc, "points": points, "kappa": kappa}
                if command == "greens-grid":
                    argv += ["--grid", "12,400"]
                    expect["grid"] = (L, 400)
                else:
                    x, y = (float(v) for v in rng.uniform(0.05, 4.0, 2))
                    argv += ["--x", repr(x), "--y", repr(y)]
                    expect.update(x=x, y=y)
                ops.append(CliInput(command, tuple(argv), expect))
            elif command == "oracle-check":
                if cycle % 2:
                    bc = _half_bc(rng, HALF_BCS[cycle % 4])
                    argv = ["oracle-check", "--bc", _bc_flag(bc)]
                    for a, c in sorted(_node_point(rng)
                                       for _ in range(cycle % 3)):
                        argv += ["--point", f"{a!r},{c!r}"]
                else:
                    family = SCHEDULE_FAMILIES[(cycle // 2) % 2]
                    argv = ["oracle-check", "--star-family",
                            _CLI_FAMILY[family],
                            "--n", str(int(rng.integers(2, 5))),
                            "--beta", repr(_log_uniform(rng, 0.3, 3.0))]
                argv += ["--kappa", repr(kappa), "--h", "0.003"]
                ops.append(CliInput(command, tuple(argv), {}))
            else:  # converge, with the CLI's default grid and threads
                family = SCHEDULE_FAMILIES[int(rng.integers(2))]
                argv = ["converge", "--family", _CLI_FAMILY[family],
                        "--n", str(int(rng.integers(2, 6))),
                        "--beta", repr(_log_uniform(rng, 0.3, 3.0)),
                        "--kappa", repr(float(rng.uniform(0.5, 2.0))),
                        "--a-list", ",".join(repr(a) for a in A_LIST)]
                ops.append(CliInput(command, tuple(argv),
                                    {"stages": len(A_LIST)}))
    return ops


GENERATORS = {"spectral": spectral, "sweep": sweep, "oracle": oracle,
              "cli": cli}
#: ops in one cycle (for spectral, one pass); a timed run holds whole cycles
CYCLE = {"spectral": len(FAMILIES) * 5 * (2 + len(SPECTRAL_ROUND)),
         "sweep": len(SWEEP_CYCLE), "oracle": len(ORACLE_CYCLE),
         "cli": len(CLI_CYCLE)}
#: reference seconds (see run.py) one cycle takes at this commit; a run
#: of S seconds holds round(S / CYCLE_SECONDS) cycles, at least one
CYCLE_SECONDS = {"spectral": 19.0, "sweep": 5.5, "oracle": 0.7, "cli": 7.0}
#: the untimed warm-up op of a set-up: a cheap op of the first cycle
WARM_UP = {"spectral": len(FAMILIES) * 5, "sweep": SWEEP_CYCLE.index(400),
           "oracle": 0, "cli": 0}
