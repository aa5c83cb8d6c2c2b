"""Command-line front end.

Subcommands: coupling, smatrix, greens, converge, oracle-check.  The
library computes the numeric payloads; the CLI parses flags and
serializes results.  A family's U and S_U(k) have two distinct entries
(Eigenphases._entries), so coupling and smatrix read those two numbers
and form from them, entry by entry with the library's arithmetic, the
printed matrices and pair (A, B), bit for bit the library's arrays, and
the unitarity defect, in O(1); coupling --validate reads the closed-form
diagnostics of to_ab's pair of exact phases.  No subcommand loads numpy:
greens --grid reads each row of its CSV from per-node kernel factors in
floats, bit for bit the kernel at each point.

Each subcommand loads only the package modules it runs, besides coupling
and errors, which build the parser: coupling none, smatrix scattering,
greens greens (and finite_difference, with scattering, for --grid),
oracle-check greens and finite_difference with scattering, converge
convergence and all the others.  A subcommand binds the public names of
its modules, as the package's _PUBLIC lists them, in this namespace but
never over a name already set (_load); any other public name read off
this module comes from the package, which loads only its defining module.

Output is deterministic: JSON fields appear in fixed order, floats are
written with 17 significant digits, complex entries as {"re": ..., "im":
...}.  Infinite parameters serialize as the strings "inf"/"-inf", NaN as
null.  Results go to stdout, diagnostics to stderr.

Exit codes: 0 success, 2 flag/usage error, 3 numeric or validation
failure (pole hit, inadmissible pair, budget exceeded), 4 convergence
sweep finished with at least one invalid stage (partial report emitted).
"""

from __future__ import annotations

import argparse
import importlib
import json
import math
import numbers
import sys
from collections import deque
from dataclasses import asdict

from . import _HOME, _PUBLIC
from .coupling import (FAMILIES, SCHEDULE_FAMILIES, STAR_KINDS,
                       VertexCoupling, _eigenvalues, _number, make_coupling,
                       rescale_length, to_ab, validate_ab)
from .errors import InvalidCouplingError, PoleError


def _load(*modules: str) -> None:
    """Bind the public names of ``modules`` in this namespace, keeping
    every name that is already set: a wrapper set on this module before
    main() is what main() calls."""
    namespace = globals()
    for module in modules:
        loaded = importlib.import_module(f".{module}", __package__)
        for name in _PUBLIC[module]:
            namespace.setdefault(name, getattr(loaded, name))


def __getattr__(name: str):
    # PEP 562: a public name no subcommand has bound yet, read through the
    # package, which loads only its defining module
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(sys.modules[__package__], name)


def _flags(names) -> dict[str, str]:
    """Flag spelling (dashes) of each library name (underscores)."""
    return {name.replace("_", "-"): name for name in names}


_FAMILY_FLAGS = _flags(FAMILIES)
_SCHEDULE_FLAGS = _flags(SCHEDULE_FAMILIES)
_STAR_FLAGS = _flags(STAR_KINDS)


# ---------------------------------------------------------------------------
# serialization helpers
# ---------------------------------------------------------------------------

def _fmt_float(x: float) -> str:
    if math.isnan(x):
        return "null"
    if math.isinf(x):
        return '"inf"' if x > 0 else '"-inf"'
    return f"{x:.17g}"


def _dumps(obj) -> str:
    if obj is None:
        return "null"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    # numpy registers its scalar types with these: no numpy import here
    if isinstance(obj, numbers.Integral):
        return str(int(obj))
    if isinstance(obj, numbers.Real):
        return _fmt_float(float(obj))
    if isinstance(obj, numbers.Complex):
        return _dumps({"re": float(obj.real), "im": float(obj.imag)})
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, dict):
        parts = (f"{json.dumps(str(k))}: {_dumps(v)}" for k, v in obj.items())
        return "{" + ", ".join(parts) + "}"
    if isinstance(obj, (list, tuple)):
        return "[" + ", ".join(_dumps(v) for v in obj) + "]"
    if hasattr(obj, "tolist"):    # a numpy array
        return _dumps(obj.tolist())
    raise TypeError(f"cannot serialize {type(obj)!r}")


def _emit_json(obj) -> None:
    print(_dumps(obj))


# ---------------------------------------------------------------------------
# flag parsing helpers
# ---------------------------------------------------------------------------

def _parse_param(text: str) -> float:
    try:
        return float(text)
    except ValueError as exc:
        raise InvalidCouplingError(f"cannot parse parameter {text!r}") from exc


def _parse_bc(text: str) -> VertexCoupling:
    parts = text.split(":")
    kind = parts[0]
    if kind == "dirichlet" and len(parts) == 1:
        return HalflineBC.dirichlet()
    if kind == "neumann" and len(parts) == 1:
        return HalflineBC.neumann()
    if kind == "robin" and len(parts) == 2:
        return HalflineBC.robin(float(parts[1]))
    if kind == "robin-scaled" and len(parts) == 3:
        return HalflineBC.robin_scaled(int(parts[1]), float(parts[2]))
    raise ValueError(
        f"cannot parse boundary condition {text!r}; expected dirichlet, "
        "neumann, robin:B or robin-scaled:N:BETA")


def _parse_point(text: str) -> PointInteraction:
    parts = text.split(",")
    if len(parts) != 2:
        raise ValueError(f"cannot parse point {text!r}; expected A,C")
    return PointInteraction(a=float(parts[0]), c=_parse_param(parts[1]))


def _parse_grid(text: str) -> GridSpec:
    parts = text.split(",")
    if len(parts) != 2:
        raise ValueError(f"cannot parse grid {text!r}; expected L,N")
    return GridSpec(L=float(parts[0]), N=int(parts[1]))


def _grid_nodes(grid: GridSpec) -> list[float]:
    """grid.boundary_nodes(), np.linspace(0, L, N + 2), bit for bit, as a
    list of floats formed without numpy."""
    return [i * grid.h for i in range(grid.N + 1)] + [grid.L]


def _parse_a_list(text: str) -> list[float]:
    return [float(part) for part in text.split(",") if part]


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _family_rows(phases, f: list) -> list[list[complex]]:
    """phases.apply(f) as rows of Python complex, read entry by entry."""
    entry, n = phases._entries(f), phases.n
    return [[entry(j, l) for l in range(n)] for j in range(n)]


def _family_defect(rows: list[list[complex]]) -> float:
    """The unitarity defect of U = on I + off (J - I), in O(1) from its two
    entries: (U U*)_jj = |on|^2 + (n - 1) |off|^2 and, for j != l,
    (U U*)_jl = 2 Re(on conj(off)) + (n - 2) |off|^2."""
    n, on = len(rows), rows[0][0]
    off = rows[0][1] if n > 1 else 0j
    sq = off.real * off.real + off.imag * off.imag
    defect = abs(on.real * on.real + on.imag * on.imag + (n - 1) * sq - 1.0)
    if n == 1:
        return defect
    cross = 2.0 * (on.real * off.real + on.imag * off.imag) + (n - 2) * sq
    return max(defect, abs(cross))


def _cmd_coupling(args) -> int:
    param = _parse_param(args.param)
    coupling = make_coupling(_FAMILY_FLAGS[args.family], args.n, param)
    out = {
        "family": args.family,
        "n": coupling.n,
        "param": param,
    }
    if args.rescale is not None:
        ell, ell_prime = args.rescale
        coupling = rescale_length(coupling, ell, ell_prime)
        out["rescale"] = {"ell": ell, "ell_prime": ell_prime}
    phases = coupling.eigenphases
    u = _family_rows(phases, _eigenvalues(phases))
    out["unitarity_defect"] = _family_defect(u)
    out["u"] = u
    if args.to_ab:
        # to_ab's A = U - I and B = i (U + I), with I's entries complex as
        # numpy casts them (so U + I turns an imaginary -0.0 into 0.0)
        out["ab"] = {
            "a": [[x - (1 + 0j if j == l else 0j) for l, x in enumerate(row)]
                  for j, row in enumerate(u)],
            "b": [[1j * (x + (1 + 0j if j == l else 0j))
                   for l, x in enumerate(row)] for j, row in enumerate(u)]}
    failed = False
    if args.validate:
        diag = validate_ab(to_ab(coupling))
        out["diagnostics"] = {
            "rank": diag.rank,
            "hermiticity_defect": diag.hermiticity_defect,
            "min_gram_eigenvalue": diag.min_gram_eigenvalue,
            "ok": diag.ok,
        }
        failed = not diag.ok
    _emit_json(out)
    if failed:
        print("error: coupling failed validation", file=sys.stderr)
        return 3
    return 0


def _cmd_smatrix(args) -> int:
    from .scattering import _s_sectors
    param = _parse_param(args.param)
    coupling = make_coupling(_FAMILY_FLAGS[args.family], args.n, param)
    # the S-matrix's own k check, pole guard and eigenvalues; a family's
    # phases are exact, so there is nothing to refine
    _, phases, f, _ = _s_sectors(coupling, args.k)
    s = _family_rows(phases, f)
    _emit_json({
        "family": args.family,
        "n": coupling.n,
        "param": param,
        "k": args.k,
        "unitarity_defect": _family_defect(s),
        "s": s,
    })
    return 0


def _cmd_greens(args) -> int:
    _load("greens")
    bc = _parse_bc(args.bc)
    points = [_parse_point(p) for p in (args.point or [])]
    kernel = halfline_kernel(bc, points, args.kappa)
    if args.grid is not None:
        _load("finite_difference")
        from .greens import _halfline_rows
        nodes = _grid_nodes(_parse_grid(args.grid))
        labels = [f"{v:.17g}" for v in nodes]
        sys.stdout.write("x,y,re,im\n")
        # G(x, y) = G(y, x) bit for bit, so each row formats its entries
        # from the diagonal on and takes the rest from the rows above,
        # which keep only the entries that later rows still read; one
        # write per outer node
        above: list[deque] = []
        for xs, row in zip(labels, _halfline_rows(bc, points, args.kappa,
                                                  nodes)):
            cells = ("%.17g\n" * len(row) % tuple(row)).split("\n")
            line = [column.popleft() for column in above] + cells[:-1]
            above.append(deque(cells[1:-1]))
            sys.stdout.write("".join([f"{xs},{ys},{v},0\n"
                                      for ys, v in zip(labels, line)]))
        return 0
    value = kernel(args.x, args.y)
    if args.emit == "plain":
        print(f"{value:.17g}")
        return 0
    _emit_json({
        "bc": args.bc,
        "points": [{"a": p.a, "c": p.c} for p in points],
        "kappa": args.kappa,
        "x": args.x,
        "y": args.y,
        "value": complex(value),
    })
    return 0


def _cmd_converge(args) -> int:
    _load("finite_difference", "convergence")
    family = _SCHEDULE_FLAGS[args.family]
    grid = _parse_grid(args.grid)
    a_list = _parse_a_list(args.a_list)
    report = convergence_sweep(family, args.beta, args.n, args.kappa, a_list,
                               grid)
    if args.emit == "json":
        _emit_json({
            "family": args.family,
            "n": report.n,
            "beta": report.beta,
            "kappa": report.kappa,
            "grid": {"L": grid.L, "N": grid.N},
            "stages": [asdict(s) for s in report.stages],
            "fitted_slope": report.fitted_slope,
            "fitted_intercept": report.fitted_intercept,
        })
    else:
        print("a,b,c,per_channel_b,norm_sym,norm_comp,norm_total")
        for s in report.stages:
            row = (s.a, s.b, s.c, s.per_channel_b, s.norm_sym, s.norm_comp,
                   s.norm_total)
            print(",".join("nan" if math.isnan(v) else f"{v:.17g}"
                           for v in row))
        _emit_json({"fitted_slope": report.fitted_slope,
                    "fitted_intercept": report.fitted_intercept})
    if any(not s.valid for s in report.stages):
        print("error: some stages hit a pole guard", file=sys.stderr)
        return 4
    return 0


def _default_samples(L: float) -> list[tuple[float, float]]:
    # a 5 x 5 product within L/4, where the kernels are largest
    xs = [f * L for f in (0.04, 0.08, 0.125, 0.17, 0.25)]
    return [(xv, yv) for xv in xs for yv in xs]


def _oracle_grid(L: float, h: float) -> GridSpec:
    h, L = _number(h, "--h", positive=True), _number(L, "--L", positive=True)
    steps = L / h
    if not math.isfinite(steps):
        raise ValueError(f"--h {h} is too small for --L {L}: L / h overflows")
    return GridSpec(L=L, N=max(16, int(round(steps)) - 1))


def _cmd_oracle_check(args) -> int:
    _load("greens", "finite_difference")
    if (args.bc is None) == (args.star_family is None):
        raise ValueError("exactly one of --bc and --star-family is required")
    grid = _oracle_grid(args.L, args.step)
    kappa = args.kappa
    # the FD grid ends in a Dirichlet node at L on every edge, so its
    # closed form is the kernel with a hard screen there
    screen = PointInteraction(grid.L, math.inf)
    if args.bc is not None:
        star_flags = [f"--{name}" for name in ("n", "beta", "b")
                      if getattr(args, name) is not None]
        if star_flags:
            raise ValueError(
                f"half-line mode (--bc) takes no {', '.join(star_flags)}")
        bc = _parse_bc(args.bc)
        points = [_parse_point(p) for p in (args.point or [])]
        analytic = halfline_kernel(bc, [*points, screen], kappa)

        def solve(g: GridSpec):
            return fd_resolvent_halfline(bc, points, kappa, g)
        samples = _default_samples(grid.L)
        model_desc = {"mode": "half", "bc": args.bc,
                      "points": [{"a": p.a, "c": p.c} for p in points]}
    else:
        if len(args.point or ()) > 1:
            raise ValueError("star models carry at most one --point")
        point = _parse_point(args.point[0]) if args.point else None
        # StarModel rejects the flags its kind does not take
        model = StarModel(n=2 if args.n is None else args.n,
                          kind=_STAR_FLAGS[args.star_family],
                          beta=args.beta, b=args.b, point=point)
        coupling, points = model
        analytic = vertex_kernel(coupling, (*points, screen), kappa)

        def solve(g: GridSpec):
            return fd_resolvent_star(model, kappa, g)
        edges = sorted({0, coupling.n - 1})
        samples = [(j, xv, l, yv) for j in edges for l in edges
                   for (xv, yv) in _default_samples(grid.L)[::4]]
        model_desc = {"mode": "star", "family": args.star_family,
                      "n": coupling.n, "beta": args.beta, "b": args.b}

    sampled = solve(grid)
    stats = compare_kernels(analytic, sampled, samples)
    budget = 50.0 * grid.h ** 2
    out = dict(model_desc)
    out.update({
        "kappa": kappa,
        "L": grid.L,
        "N": grid.N,
        "h": grid.h,
        "max_abs": stats.max_abs,
        "rms": stats.rms,
        "samples": stats.count,
        "budget": budget,
        "ok": stats.max_abs <= budget,
    })
    if args.order_check:
        fine = grid.refined()
        # coarse-snapped coordinates stay exact nodes of the refined grid,
        # so both solves are compared at identical physical points
        snapped = [sampled.snap(*p) for p in samples]
        stats_fine = compare_kernels(analytic, solve(fine), snapped)
        out["order_check"] = {
            "h_half": fine.h,
            "max_abs_half": stats_fine.max_abs,
            "ratio": stats.max_abs / stats_fine.max_abs
            if stats_fine.max_abs > 0 else math.nan,
        }
    _emit_json(out)
    if stats.max_abs > budget:
        print(f"error: max error {stats.max_abs:.3e} exceeds budget "
              f"{budget:.3e}", file=sys.stderr)
        return 3
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="starcouplings",
        description="Vertex couplings on quantum star graphs: coupling "
                    "algebra, scattering matrices, resolvent kernels, "
                    "finite-difference cross-checks, convergence sweeps.")
    sub = parser.add_subparsers(dest="command", required=True)

    coupling = sub.add_parser("coupling", help="build and convert couplings")
    coupling.add_argument("--family", required=True,
                          choices=sorted(_FAMILY_FLAGS))
    coupling.add_argument("--n", type=int, required=True)
    coupling.add_argument("--param", required=True,
                          help="coupling strength, a float or inf")
    coupling.add_argument("--to-ab", action="store_true", dest="to_ab",
                          help="include the boundary pair A = U - I, "
                               "B = i(U + I)")
    coupling.add_argument("--validate", action="store_true",
                          help="include admissibility diagnostics of (A, B)")
    coupling.add_argument("--rescale", nargs=2, type=float, default=None,
                          metavar=("L1", "L2"),
                          help="rescale the length unit from L1 to L2 first")
    coupling.set_defaults(func=_cmd_coupling)

    smatrix = sub.add_parser("smatrix", help="on-shell scattering matrix")
    smatrix.add_argument("--family", required=True,
                         choices=sorted(_FAMILY_FLAGS))
    smatrix.add_argument("--n", type=int, required=True)
    smatrix.add_argument("--param", required=True)
    smatrix.add_argument("--k", type=float, required=True,
                         help="momentum, k > 0")
    smatrix.set_defaults(func=_cmd_smatrix)

    greens = sub.add_parser("greens", help="half-line resolvent kernels")
    greens.add_argument("--bc", required=True,
                        help="dirichlet | neumann | robin:B | "
                             "robin-scaled:N:BETA")
    greens.add_argument("--kappa", type=float, required=True,
                        help="energy is -kappa^2, kappa > 0")
    greens.add_argument("--x", type=float, default=None)
    greens.add_argument("--y", type=float, default=None)
    greens.add_argument("--point", action="append", metavar="A,C",
                        help="delta interaction at A with strength C "
                             "(repeatable)")
    greens.add_argument("--grid", default=None, metavar="L,N",
                        help="emit the kernel on the full grid as csv")
    greens.add_argument("--emit", choices=("json", "plain"), default="json")
    greens.set_defaults(func=_cmd_greens)

    converge = sub.add_parser("converge", help="run a convergence sweep")
    converge.add_argument("--family", required=True,
                          choices=sorted(_SCHEDULE_FLAGS))
    converge.add_argument("--n", type=int, required=True)
    converge.add_argument("--beta", type=float, required=True)
    converge.add_argument("--kappa", type=float, default=1.0)
    converge.add_argument("--a-list", required=True, dest="a_list",
                          help="comma-separated, strictly decreasing")
    converge.add_argument("--grid", default="12,400", metavar="L,N",
                          help="only L, the end of the window [a, L], is "
                               "read: the sector norms are exact")
    converge.add_argument("--emit", choices=("json", "csv"), default="csv")
    converge.set_defaults(func=_cmd_converge)

    oracle = sub.add_parser(
        "oracle-check",
        help="compare closed-form kernels against the finite-difference "
             "solver")
    oracle.add_argument("--bc", default=None,
                        help="half-line mode boundary condition")
    oracle.add_argument("--point", action="append", metavar="A,C")
    oracle.add_argument("--star-family", default=None, dest="star_family",
                        choices=sorted(_STAR_FLAGS))
    oracle.add_argument("--n", type=int, default=None,
                        help="star mode edge count (default 2)")
    oracle.add_argument("--beta", type=float, default=None)
    oracle.add_argument("--b", type=float, default=None)
    oracle.add_argument("--kappa", type=float, default=1.0)
    oracle.add_argument("--h", type=float, required=True, dest="step",
                        help="target mesh width; N is derived from L")
    oracle.add_argument("--L", type=float, default=12.0)
    oracle.add_argument("--order-check", action="store_true",
                        dest="order_check",
                        help="also solve at h/2 and report the error ratio")
    oracle.set_defaults(func=_cmd_oracle_check)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else 0
    if args.command == "greens" and args.grid is None \
            and (args.x is None or args.y is None):
        print("error: greens needs --x and --y (or --grid)", file=sys.stderr)
        return 2
    try:
        return args.func(args)
    # numpy.linalg.LinAlgError is a ValueError
    except (PoleError, InvalidCouplingError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
