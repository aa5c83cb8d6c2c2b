"""End-to-end and per-layer benchmark of starcouplings.

    python3 benchmarks/run.py --workload {spectral,sweep,oracle,cli} \\
        --seed N --seconds S --trace {0,1}

Run it from the root of a checkout; the program is imported from the
checkout's ``src`` directory and nowhere else.  Each workload is one
client in a closed loop: it sends the next op only when the previous one
has returned and been checked.  A run holds a fixed number of whole
cycles of the workload's op classes, as many as take about S reference
seconds (gen.CYCLE_SECONDS), over inputs made from the seed (gen.py),
and every output is checked against an independent reference
(checks.py); an op fails if it raises or fails its check.

Times are reported in reference seconds.  The shared host this was built
on switches between a fast and a slow speed, about 1.4 times apart, for
seconds at a time, which moves a median by up to that factor.  So a
fixed host pass (host_pass) is timed before the first op and after every
op, and each op's latency is scaled by REF_PASS_S over the mean of the
two passes around it.  A change in the program moves the scaled times
in full; a change in the host's speed mostly cancels.  A child process
usually runs on the other core than the passes, and the two cores change
speed apart, and its time goes mostly to start-up and imports, which the
host pass does not follow.  So work done in a child (set-ups and CLI
ops) is scaled the same way by a pass that is a child too (child_pass: a
fresh interpreter that imports numpy).  The raw times are printed on the
line before the result.

With ``--trace 0`` the last line of stdout reports the end-to-end metrics
(ops_per_s, op_p50_ms, op_tail_ms, setup_s, peak_rss_mb).  With
``--trace 1`` the run alternates untraced and traced ops on the same
inputs and reports the per-layer metrics, per traced op, and the
tracing overhead; the spans are written to ``benchmarks/traces``.  The line
before the last carries the tail percentile and its sample count, the
failures by kind, and the environment.

``correct`` is true when the references reproduce known answers and so
the verdicts can be trusted; every attempted op gets a verdict, and
``failed`` counts the ops whose output was wrong or that raised.  The two
are separate because the program has known defects that the benchmark
must keep visible rather than abort on (see README.md).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

from spans import Tracer, self_times

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
TRACE_DIR = HERE / "traces"
WORKLOAD_NAMES = ("spectral", "sweep", "oracle", "cli")
#: fresh-process set-ups per run; setup_s is their median
SETUP_SAMPLES = 3
#: iterations of host_pass, and the reference times of host_pass and
#: child_pass: fixed scales, about what the passes took on the host this
#: was tuned on (two vCPUs of a shared Xeon, CPython 3.11), that define
#: the reference seconds times are reported in
HOST_PASS_ITERATIONS = 8_000
REF_PASS_S = 0.002
REF_CHILD_S = 0.12
#: glibc's sysconf names for the L2 and L3 cache sizes
_SC_LEVEL2_CACHE_SIZE, _SC_LEVEL3_CACHE_SIZE = 191, 194
#: per-layer values that are computed from array shapes, not measured
COMPUTED = ("greens.vector.bytes_computed", "convergence.window_points")


class ProgramMissing(Exception):
    pass


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help="set up once in this fresh process, print the "
                             "set-up time and exit")
    return parser.parse_args(argv)


# ---------------------------------------------------------------------------
# host speed
# ---------------------------------------------------------------------------

def host_pass() -> float:
    """Seconds taken by fixed work that uses nothing from the program, so
    it measures only the host's current speed: a pure-Python loop plus
    numpy arithmetic over a 1.3 MB array, the two kinds of work the
    program does.  Each part counts its fastest of three runs, so an
    interrupt in one does not count."""
    import numpy as np
    array = _PASS_ARRAY.setdefault("x", np.linspace(0.0, 1.0, 160_000))
    loop = arith = math.inf
    for _ in range(3):
        started = time.perf_counter()
        acc = 0
        table = {}
        for i in range(HOST_PASS_ITERATIONS):
            acc = (acc * 31 + i) % 1_000_003
            table[i & 255] = acc
        middle = time.perf_counter()
        np.exp(-array).sum()
        loop = min(loop, middle - started)
        arith = min(arith, time.perf_counter() - middle)
    return loop + arith


_PASS_ARRAY: dict = {}


def child_pass() -> float:
    """Seconds a fresh interpreter takes to start and import numpy: the
    kind of work a CLI child does, with nothing from the program."""
    started = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import numpy"], check=True,
                   capture_output=True)
    return time.perf_counter() - started


class HostSpeed:
    """Scales a latency to the reference speed by the passes timed just
    before and just after it."""

    def __init__(self, timed_pass=host_pass, reference: float = REF_PASS_S):
        self.timed_pass = timed_pass
        self.reference = reference
        for _ in range(3):      # the first passes run cold
            timed_pass()
        self.last = timed_pass()
        self.passes = [self.last]

    def scale(self, seconds: float) -> float:
        now = self.timed_pass()
        self.passes.append(now)
        factor = self.reference / ((self.last + now) / 2.0)
        self.last = now
        return seconds * factor


# ---------------------------------------------------------------------------
# set-up
# ---------------------------------------------------------------------------

def setup_library(workload: str, seed: int):
    """Import the program, make the inputs and run op 0 untimed; returns
    the workload, the set-up time and the import time in seconds."""
    started = time.perf_counter()
    sys.path.insert(0, str(SRC))
    import starcouplings
    imported = time.perf_counter()
    if SRC.resolve() not in Path(starcouplings.__file__).resolve().parents:
        raise ProgramMissing(f"starcouplings imported from "
                             f"{starcouplings.__file__}, not from {SRC}")
    import gen
    import workloads
    wl = workloads.WORKLOADS[workload](
        starcouplings, gen.GENERATORS[workload](seed))
    attempt(wl, wl.api(), wl.inputs[gen.WARM_UP[workload]])
    return wl, time.perf_counter() - started, imported - started


def setup_cli(seed: int, count: int, speed: HostSpeed):
    """The CLI's set-up is its first invocation; returns the workload and
    the raw and scaled times of ``count`` of them."""
    import gen
    import workloads
    wl = workloads.Cli(SRC, gen.cli(seed), TRACE_DIR)
    samples = []
    for _ in range(count):
        started = time.perf_counter()
        attempt(wl, None, wl.inputs[gen.WARM_UP["cli"]])
        raw = time.perf_counter() - started
        samples.append((raw, speed.scale(raw)))
    return wl, samples


def probe_setup(workload: str, seed: int, speed: HostSpeed):
    """One set-up in a fresh process; returns its raw and scaled time."""
    from workloads import CHILD_TIMEOUT_S
    child = subprocess.run([sys.executable, str(HERE / "run.py"),
                            "--workload", workload, "--seed", str(seed),
                            "--setup-probe"], capture_output=True, text=True,
                           timeout=CHILD_TIMEOUT_S)
    if child.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {child.stderr.strip()}")
    raw = json.loads(child.stdout.splitlines()[-1])["setup_s"]
    return raw, speed.scale(raw)


# ---------------------------------------------------------------------------
# the closed loop
# ---------------------------------------------------------------------------

def attempt(wl, api, inp):
    """Run one op; returns (output or None, failure reason or None,
    latency in seconds).  Only the op itself is timed."""
    started = time.perf_counter()
    try:
        out = wl.op(api, inp)
    except Exception as exc:  # the op failed; count it and go on
        return None, f"{type(exc).__name__}: {exc}", \
            time.perf_counter() - started
    latency = time.perf_counter() - started
    try:
        reason = wl.check(inp, out)
    except Exception as exc:  # malformed output the check could not read
        reason = f"check raised {type(exc).__name__}: {exc}"
    return out, reason, latency


def run_cycles(workload: str, seconds: float, trace: bool) -> int:
    """Whole cycles in a run: as many as take about ``seconds`` reference
    seconds at this commit, half as many traced (each op runs twice).
    The count depends on nothing measured, so two runs of one seed
    attempt the same ops and fail the same ones."""
    import gen
    cycles = max(1, round(seconds / gen.CYCLE_SECONDS[workload]))
    return max(1, cycles // 2) if trace else cycles


def measure(wl, ops: int, speed: HostSpeed, tracer=None):
    """Closed loop over the first ``ops`` inputs, wrapping round if the
    run holds more cycles than the generator made.

    With a tracer, every input runs untraced and then traced, so the two
    halves see the same inputs at the same moment."""
    plain = wl.api()
    traced_api = wl.api(tracer) if tracer is not None else None
    records = []            # (scaled latency, traced, raw latency)
    reasons = []
    stats = Counter()
    for i in range(2 * ops if tracer is not None else ops):
        # pairs alternate which half goes first, so a warm second run
        # favours neither
        traced = tracer is not None and i % 2 != (i // 2) % 2
        step = i // 2 if tracer is not None else i
        index = step % len(wl.inputs)
        inp = wl.inputs[index]
        if traced:
            tracer.op = i
            with wl.patches(tracer), tracer.span("op", index=index):
                out, reason, latency = attempt(wl, traced_api, inp)
            stats.update(wl.op_stats(inp, out))
        else:
            out, reason, latency = attempt(wl, plain, inp)
        records.append((speed.scale(latency), traced, latency))
        if reason is not None:
            reasons.append((index, reason))
    return records, reasons, stats


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

def ops_per_s(records, column: int = 0) -> float:
    """Ops attempted per second of op time (scaled, or raw with column
    2); failures count, since ``failed`` reports them."""
    busy = sum(r[column] for r in records)
    return len(records) / busy if busy > 0 else 0.0


def tail_latency(latencies):
    """Latency at the highest percentile with at least ten samples above
    it: the eleventh largest.  Returns (value, percentile)."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def end_to_end(records, setup_samples, rss_mb):
    """The end-to-end metrics, in reference seconds, and beside them the
    tail's percentile and sample count and the raw times; set-up samples
    are (raw, scaled) pairs."""
    latencies = [r[0] for r in records]
    raw = [r[2] for r in records]
    tail, percentile = tail_latency(latencies)
    metrics = {
        "ops_per_s": (ops_per_s(records), "1/s"),
        "op_p50_ms": (statistics.median(latencies) * 1e3, "ms"),
        "op_tail_ms": (tail * 1e3, "ms"),
        "setup_s": (statistics.median(s for _, s in setup_samples), "s"),
        "peak_rss_mb": (rss_mb, "MB"),
    }
    return metrics, {"op_tail_percentile": percentile,
                     "op_tail_samples": len(latencies),
                     "raw": {"ops_per_s": ops_per_s(records, 2),
                             "op_p50_ms": statistics.median(raw) * 1e3,
                             "op_tail_ms": tail_latency(raw)[0] * 1e3,
                             "setup_s": statistics.median(
                                 r for r, _ in setup_samples)}}


def layer_metrics(tracer, records, stats, import_ms):
    traced_ops = sum(r[1] for r in records)
    per_op = 1.0 / max(traced_ops, 1)
    spans = tracer.spans
    selfs = self_times(spans)

    def matching(name):
        return [i for i, s in enumerate(spans)
                if s.name == name or s.name.startswith(name + ".")]

    def calls(name):
        return len(matching(name)) * per_op

    def busy_ms(name):
        return sum(spans[i].duration for i in matching(name)) * 1e3 * per_op

    def errors(name):
        return sum(spans[i].error is not None
                   for i in matching(name)) * per_op

    def attr(name, key):
        return sum((spans[i].attrs or {}).get(key, 0)
                   for i in matching(name)) * per_op

    main = matching("cli.main")
    parse_ms = sum(selfs[i] for i in main) * 1e3 * per_op
    bound_calls = len(matching("scattering.bound_states"))
    untraced = [r for r in records if not r[1]]
    traced = [r for r in records if r[1]]
    overhead = 100.0 * (1.0 - ops_per_s(traced) / ops_per_s(untraced)) \
        if ops_per_s(untraced) > 0 else 0.0
    values = {
        "coupling.calls": (calls("coupling"), "count/op"),
        "coupling.busy_ms": (busy_ms("coupling"), "ms/op"),
        "coupling.errors": (errors("coupling"), "count/op"),
        "scattering.s_matrix.calls": (calls("scattering.s_matrix"),
                                      "count/op"),
        "scattering.s_matrix.busy_ms": (busy_ms("scattering.s_matrix"),
                                        "ms/op"),
        "scattering.bound_states.calls": (calls("scattering.bound_states"),
                                          "count/op"),
        "scattering.bound_states.busy_ms": (
            busy_ms("scattering.bound_states"), "ms/op"),
        "scattering.bound_states.states_found": (
            stats["states_found"] * per_op, "count/op"),
        "scattering.bound_states.states_expected": (
            stats["states_expected"] * per_op, "count/op"),
        "scattering.bound_states.errors": (
            errors("scattering.bound_states"), "count/op"),
        "scattering.bound_states.agree_ratio": (
            stats["agree"] / bound_calls if bound_calls else 0.0, "ratio"),
        "greens.vector.calls": (calls("greens.vector"), "count/op"),
        "greens.vector.busy_ms": (busy_ms("greens.vector"), "ms/op"),
        "greens.vector.points": (attr("greens.vector", "points"),
                                 "count/op"),
        "greens.vector.bytes_computed": (attr("greens.vector", "bytes"),
                                         "B/op"),
        "greens.scalar.calls": (calls("greens.scalar"), "count/op"),
        "greens.scalar.busy_ms": (busy_ms("greens.scalar"), "ms/op"),
        "finite_difference.build.calls": (calls("finite_difference.build"),
                                          "count/op"),
        "finite_difference.build.busy_ms": (
            busy_ms("finite_difference.build"), "ms/op"),
        "finite_difference.build.unknowns": (
            attr("finite_difference.build", "unknowns"), "count/op"),
        "finite_difference.value.calls": (calls("finite_difference.value"),
                                          "count/op"),
        "finite_difference.value.busy_ms": (
            busy_ms("finite_difference.value"), "ms/op"),
        "finite_difference.columns": (stats["columns"] * per_op, "count/op"),
        "finite_difference.errors": (errors("finite_difference"),
                                     "count/op"),
        "convergence.sweep.calls": (calls("convergence.sweep"), "count/op"),
        "convergence.sweep.busy_ms": (busy_ms("convergence.sweep"),
                                      "ms/op"),
        "convergence.self_ms": (
            sum(selfs[i] for i in matching("convergence.sweep"))
            * 1e3 * per_op, "ms/op"),
        "convergence.hs_norm.calls": (calls("convergence.hs_norm"),
                                      "count/op"),
        "convergence.hs_norm.busy_ms": (busy_ms("convergence.hs_norm"),
                                        "ms/op"),
        "convergence.stages": (stats["stages"] * per_op, "count/op"),
        "convergence.stages_invalid": (stats["stages_invalid"] * per_op,
                                       "count/op"),
        "convergence.window_points": (stats["window_points"] * per_op,
                                      "count/op"),
        "cli.interpreter_ms": (busy_ms("cli.interpreter"), "ms/op"),
        "cli.import_ms": (busy_ms("cli.import"), "ms/op"),
        "cli.compute_ms": (busy_ms("cli.main") - parse_ms, "ms/op"),
        "cli.parse_serialise_ms": (parse_ms, "ms/op"),
        "cli.stdout_bytes": (stats["stdout_bytes"] * per_op, "B/op"),
        "setup.import_ms": (import_ms, "ms"),
        "tracing.untraced_ops_per_s": (ops_per_s(untraced), "1/s"),
        "tracing.traced_ops_per_s": (ops_per_s(traced), "1/s"),
        "tracing.overhead_pct": (overhead, "%"),
        "tracing.traced_ops": (traced_ops, "count"),
    }
    return values


# ---------------------------------------------------------------------------
# environment
# ---------------------------------------------------------------------------

def environment() -> dict:
    import ctypes
    import platform

    import numpy
    import scipy

    libc = ctypes.CDLL(None)
    libc.sysconf.restype = ctypes.c_long
    threads = None
    libs = sorted((Path(numpy.__file__).parent.parent / "numpy.libs")
                  .glob("*openblas*"))
    for lib in libs:
        handle = ctypes.CDLL(str(lib))
        for name in ("scipy_openblas_get_num_threads64_",
                     "openblas_get_num_threads64_",
                     "openblas_get_num_threads"):
            fn = getattr(handle, name, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                threads = fn()
                break
    return {"nproc": os.cpu_count(),
            "cpus_usable": len(os.sched_getaffinity(0)),
            "openblas_threads": threads,
            "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "l2_bytes": libc.sysconf(_SC_LEVEL2_CACHE_SIZE),
            "l3_bytes": libc.sysconf(_SC_LEVEL3_CACHE_SIZE)}


# ---------------------------------------------------------------------------
# main
# ---------------------------------------------------------------------------

def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "starcouplings" / "__init__.py").is_file():
        print(f"error: no program at {SRC}; run from a checkout",
              file=sys.stderr)
        return 2
    if args.trace:
        TRACE_DIR.mkdir(exist_ok=True)
    try:
        if args.workload == "cli":
            speed = HostSpeed(child_pass, REF_CHILD_S)
            wl, setup_samples = setup_cli(
                args.seed, 1 if args.trace else SETUP_SAMPLES, speed)
            import_ms = None
        else:
            wl, setup_s, import_s = setup_library(args.workload, args.seed)
            if args.setup_probe:
                print(json.dumps({"setup_s": setup_s}))
                return 0
            import_ms = import_s * 1e3
            # the host pass imports numpy, which is part of a set-up, so
            # every sample is a fresh process
            children = HostSpeed(child_pass, REF_CHILD_S)
            setup_samples = [probe_setup(args.workload, args.seed, children)
                             for _ in range(1 if args.trace
                                            else SETUP_SAMPLES)]
            speed = HostSpeed()
    except ProgramMissing as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    import checks
    import gen
    tracer = Tracer() if args.trace else None
    ops = gen.CYCLE[args.workload] * run_cycles(args.workload, args.seconds,
                                                args.trace)
    records, reasons, stats = measure(wl, ops, speed, tracer)

    who = resource.RUSAGE_CHILDREN if args.workload == "cli" \
        else resource.RUSAGE_SELF
    rss_mb = resource.getrusage(who).ru_maxrss / 1024.0
    details = {"workload": args.workload, "seed": args.seed,
               "trace": args.trace, "ops": len(records),
               "failures": dict(Counter(r.split(":")[0] for _, r in reasons)),
               "failure_examples": [f"input {i}: {r[:200]}"
                                    for i, r in reasons[:5]]}
    if args.trace:
        if import_ms is None:
            import_ms = statistics.median(
                [s.duration * 1e3 for s in tracer.spans
                 if s.name == "cli.import"] or [0.0])
        metrics = layer_metrics(tracer, records, stats, import_ms)
        details["computed_not_measured"] = list(COMPUTED)
        tracer.dump(TRACE_DIR / f"{args.workload}-seed{args.seed}.json",
                    workload=args.workload, seed=args.seed)
    else:
        metrics, tail = end_to_end(records, setup_samples, rss_mb)
        details.update(tail, setup_samples_s=setup_samples)
    details["host_pass_ms"] = {
        "median": statistics.median(speed.passes) * 1e3,
        "min": min(speed.passes) * 1e3, "max": max(speed.passes) * 1e3,
        "reference": speed.reference * 1e3}
    details["environment"] = environment()
    print(json.dumps(details))
    print(json.dumps({
        "correct": checks.known_answers(),
        "attempted": len(records),
        "failed": len(reasons),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
