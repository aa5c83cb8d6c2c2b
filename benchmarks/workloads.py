"""The four benchmark workloads: how one op calls the program, how its
output is checked, and which spans the traced run records.

An op's timed part calls only the program's public API, through ``api``:
plain functions in the untraced run, span-recording wrappers in the traced
run.  Calls the program makes between its own layers are traced by
rebinding the name the calling module looks up (``convergence`` calls
``sector_green`` and ``hs_norm``; ``finite_difference`` calls
``make_coupling`` and ``to_ab``).  Checks run after the timer stops.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time
from contextlib import ExitStack
from pathlib import Path
from types import SimpleNamespace
from unittest.mock import patch

import numpy as np

import checks
import gen

HERE = Path(__file__).resolve().parent
#: no single op of any workload comes near this; a hung child is killed
CHILD_TIMEOUT_S = 120.0


def _points_attrs(args, result):
    points = int(np.broadcast(args[2], args[3]).size)
    return {"points": points, "bytes": int(np.asarray(result).nbytes)}


class LibraryWorkload:
    """Ops that call the library in this process."""

    def __init__(self, sc, inputs):
        self.sc = sc
        self.inputs = inputs

    def api(self, tracer=None):
        """The program's entry points, each wrapped in a span when a tracer
        is given."""
        if tracer is None:
            return self._api(lambda name, fn, attrs_of=None: fn, None)
        return self._api(tracer.wrap, tracer)

    def patches(self, tracer):
        """Rebindings that trace the program's calls between layers."""
        return ExitStack()


# ---------------------------------------------------------------------------
# spectral
# ---------------------------------------------------------------------------

def family_eigenvalues(family: str, n: int, param: float) -> list[complex]:
    """Closed-form spectrum of the standard families' U (the all-ones
    matrix has eigenvalue n once and 0 with multiplicity n - 1)."""
    if np.isinf(param):
        return [-1.0 + 0j] * n if family in ("delta", "delta_p") \
            else [1.0 + 0j] * n
    if family == "delta":
        once, rest = (n - 1j * param) / (n + 1j * param), -1.0
    elif family == "delta_prime_s":
        once, rest = -(n + 1j * param) / (n - 1j * param), 1.0
    elif family == "delta_p":
        once, rest = -1.0, (n - 1j * param) / (n + 1j * param)
    else:
        once, rest = 1.0, -(n + 1j * param) / (n - 1j * param)
    return [complex(once)] + [complex(rest)] * (n - 1)


class Spectral(LibraryWorkload):
    def _api(self, wrap, tracer):
        sc = self.sc
        return SimpleNamespace(
            make_coupling=wrap("coupling.make_coupling", sc.make_coupling),
            custom=wrap("coupling.custom", sc.VertexCoupling.custom),
            to_ab=wrap("coupling.to_ab", sc.to_ab),
            validate_ab=wrap("coupling.validate_ab", sc.validate_ab),
            from_ab=wrap("coupling.from_ab", sc.from_ab),
            s_matrix=wrap("scattering.s_matrix", sc.s_matrix),
            bound_states=wrap("scattering.bound_states", sc.bound_states))

    @staticmethod
    def op(api, inp):
        if inp.family is None:
            coupling = api.custom(inp.u)
        else:
            coupling = api.make_coupling(inp.family, inp.n, inp.param)
        pair = api.to_ab(coupling)
        ok = api.validate_ab(pair).ok
        back = api.from_ab(pair)
        s_of_k = {k: api.s_matrix(coupling, k) for k in inp.ks}
        states = api.bound_states(coupling, inp.kappa_max)
        return coupling.u, back.u, ok, s_of_k, states

    @staticmethod
    def expected(inp):
        eig = np.linalg.eigvals(inp.u) if inp.family is None \
            else family_eigenvalues(inp.family, inp.n, inp.param)
        return checks.eigenphase_states(eig, inp.kappa_max)

    def check(self, inp, out):
        return checks.check_spectral(*out, self.expected(inp))

    def op_stats(self, inp, out):
        want = self.expected(inp)
        stats = {"states_expected": sum(m for _, m in want),
                 "states_found": 0, "agree": 0}
        if out is not None:
            stats["states_found"] = sum(m for _, m in out[-1])
            stats["agree"] = int(checks.check_bound_states(out[-1], want)
                                 is None)
        return stats


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------

def window_points(inp) -> int:
    """Kernel samples one sweep evaluates per kernel, computed from the
    grid: each stage takes the m x m tensor grid over [a, L] per sector."""
    nodes = np.linspace(0.0, gen.L, inp.grid_n + 2)
    sectors = 2 if inp.n > 1 else 1
    return sum(sectors * (1 + int(np.sum(nodes > a * (1.0 + 1e-12)))) ** 2
               for a in gen.A_LIST)


class Sweep(LibraryWorkload):
    def _api(self, wrap, tracer):
        return SimpleNamespace(convergence_sweep=wrap(
            "convergence.sweep", self.sc.convergence_sweep))

    def patches(self, tracer):
        module = self.sc.convergence
        stack = ExitStack()
        stack.enter_context(patch.object(
            module, "sector_green",
            tracer.wrap("greens.vector", module.sector_green,
                        _points_attrs)))
        stack.enter_context(patch.object(
            module, "hs_norm",
            tracer.wrap("convergence.hs_norm", module.hs_norm)))
        return stack

    def op(self, api, inp):
        return api.convergence_sweep(inp.family, inp.beta, inp.n, inp.kappa,
                                     gen.A_LIST,
                                     self.sc.GridSpec(gen.L, inp.grid_n))

    def check(self, inp, out):
        return checks.check_sweep(out)

    def op_stats(self, inp, out):
        return {"stages": len(out.stages) if out is not None else 0,
                "stages_invalid": sum(not s.valid for s in out.stages)
                if out is not None else 0,
                "window_points": window_points(inp)}


# ---------------------------------------------------------------------------
# oracle
# ---------------------------------------------------------------------------

class Recorder:
    """Stands between compare_kernels and both kernels: keeps every value
    compared, so the benchmark can recompute the error itself, and the
    distinct source columns the FD kernel had to solve."""

    def __init__(self, sampled, analytic, tracer=None):
        self.snap = sampled.snap
        self._value = sampled.value
        self._analytic = analytic
        if tracer is not None:
            self._value = tracer.wrap("finite_difference.value", self._value)
            self._analytic = tracer.wrap("greens.scalar", self._analytic)
        self.fd: list[float] = []
        self.exact: list[float] = []
        self.sources: set = set()

    def analytic(self, *point):
        value = self._analytic(*point)
        self.exact.append(value)
        return value

    def value(self, *point):
        value = self._value(*point)
        self.fd.append(value)
        self.sources.add(point[len(point) // 2:])
        return value


class Oracle(LibraryWorkload):
    def _api(self, wrap, tracer):
        sc = self.sc
        unknowns = lambda args, result: {  # noqa: E731
            "unknowns": result.grid.N * getattr(result, "n_edges", 1)}
        return SimpleNamespace(
            fd_star=wrap("finite_difference.build", sc.fd_resolvent_star,
                         unknowns),
            fd_half=wrap("finite_difference.build",
                         sc.fd_resolvent_halfline, unknowns),
            compare_kernels=wrap("finite_difference.compare",
                                 sc.compare_kernels),
            tracer=tracer)

    def patches(self, tracer):
        module = self.sc.finite_difference
        stack = ExitStack()
        for name in ("make_coupling", "to_ab"):
            stack.enter_context(patch.object(module, name, tracer.wrap(
                f"coupling.{name}", getattr(module, name))))
        return stack

    def op(self, api, inp):
        sc = self.sc
        grid = sc.GridSpec(gen.L, inp.grid_n)
        points = [sc.PointInteraction(a, c) for a, c in inp.points]
        if inp.mode == "star":
            if inp.kind in ("delta_prime_s", "delta_prime"):
                model = sc.StarModel(n=inp.n, kind=inp.kind, beta=inp.beta)
            else:
                model = sc.StarModel(n=inp.n, kind=inp.kind, b=inp.b,
                                     point=points[0] if points else None)
            sampled = api.fd_star(model, inp.kappa, grid)
            kappa = inp.kappa
            analytic = lambda j, x, l, y: sc.star_green(  # noqa: E731
                model, kappa, j, x, l, y)
            samples = gen.star_samples(inp.n)
        else:
            kind, b, n, beta = inp.bc
            bc = {"dirichlet": sc.HalflineBC.dirichlet,
                  "neumann": sc.HalflineBC.neumann,
                  "robin": lambda: sc.HalflineBC.robin(b),
                  "robin_scaled": lambda: sc.HalflineBC.robin_scaled(
                      n, beta)}[kind]()
            sampled = api.fd_half(bc, points, inp.kappa, grid)
            analytic = sc.halfline_kernel(bc, points, inp.kappa)
            samples = gen.default_samples()
        recorder = Recorder(sampled, analytic, api.tracer)
        stats = api.compare_kernels(recorder.analytic, recorder, samples)
        # the recorder holds the LU factors; keep only what it saw
        return stats, recorder.exact, recorder.fd, recorder.sources, grid.h

    def check(self, inp, out):
        stats, exact, fd, _, h = out
        errors = np.abs(np.subtract(exact, fd))
        if errors.size != stats.count or stats.max_abs != np.max(errors):
            return "compare_kernels disagrees with the recorded values"
        return checks.check_oracle(float(np.max(errors)), h)

    def op_stats(self, inp, out):
        return {"columns": len(out[3]) if out is not None else 0}


# ---------------------------------------------------------------------------
# cli
# ---------------------------------------------------------------------------

class Cli:
    """Each op runs the CLI as a child process and waits for it."""

    def __init__(self, src: Path, inputs, trace_dir: Path):
        self.inputs = inputs
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(src)] + ([self.env["PYTHONPATH"]]
                          if self.env.get("PYTHONPATH") else []))
        self.child_spans = trace_dir / "cli-child.json"

    def api(self, tracer=None):
        """A traced op runs the traced child, so the tracer is the API."""
        return tracer

    def patches(self, tracer):
        return ExitStack()

    def op(self, tracer, inp):
        if tracer is None:
            return self._run([sys.executable, "-m", "starcouplings.cli",
                              *inp.argv])
        self.child_spans.unlink(missing_ok=True)
        spawned = time.monotonic()
        result = self._run([sys.executable, str(HERE / "cli_child.py"),
                            str(self.child_spans), *inp.argv])
        with open(self.child_spans) as fh:
            child = json.load(fh)
        parent = tracer.current()
        tracer.add("cli.interpreter", spawned, child["started"], parent)
        base = len(tracer.spans)
        for s in child["spans"]:
            tracer.add(s["name"], s["start"], s["end"],
                       parent if s["parent"] is None else base + s["parent"],
                       s["error"], s["attrs"])
        return result

    def _run(self, argv):
        return subprocess.run(argv, capture_output=True, text=True,
                              env=self.env, timeout=CHILD_TIMEOUT_S)

    def check(self, inp, out):
        reason = checks.check_cli(inp.command, inp.expect, out.returncode,
                                  out.stdout)
        if reason is not None and out.stderr.strip():
            reason += f" [{out.stderr.strip().splitlines()[-1][:120]}]"
        return reason

    def op_stats(self, inp, out):
        return {"stdout_bytes": len(out.stdout.encode()) if out is not None
                else 0}


WORKLOADS = {"spectral": Spectral, "sweep": Sweep, "oracle": Oracle}
