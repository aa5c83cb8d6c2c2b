"""The refusal contract, as one table over every public entry point.

Every name in starcouplings.__all__ has rows here, and so have the module
attributes outside it that a caller patches and the test oracles
(oracles.py), which refuse what the package refuses: a call with nominal
arguments, and the numeric arguments to probe, one at a time.  Each bad
value (a bool, Python or numpy, a complex, a string, None, NaN, a float32
NaN, a Fraction, a Decimal) must raise InvalidCouplingError, PoleError
or ValueError, and the numpy scalars np.float32 and np.int64 of a
nominal value must give finite numbers as the value does.  Each
extreme value (+-1e-300, 5e-324, 1e-160, 1e154, 1e300, +-inf, and the
Python ints +-10**400, beyond the double range) must raise one of these
or give finite numbers; infinity is a value of its own only where an
argument takes it (a decoupled coupling parameter, a hard screen,
kappa_max).  The evaluators the entry points return have rows too.  Every
CLI subcommand runs the same values in process through cli.main: a bad
value must exit 2 or 3, an extreme one 0, 2, 3 or 4, and none may raise.

Matrix and array arguments (U, A, B, psi, dpsi, sampled differences)
are no rows of the scalar table.  Their own tables here refuse an array
of bools, which numpy would read as ones and zeros (a list that mixes
bools and floats is an array of floats before the package sees it),
arrays of strings or bytes, which numpy would parse, and of other
objects, a NaN or infinite entry, and a matrix that is not square or is
empty.  The
results name why they have no rows, and the record protocol closes the
file's scalar part: checked inputs are records, results NamedTuples.
"""

import cmath
import decimal
import fractions
import math
from typing import Callable, NamedTuple

import numpy as np
import pytest

from conftest import random_unitary
import oracles
import starcouplings as sc
from starcouplings import (ApproximationStage, GridSpec, HalflineBC,
                           InvalidCouplingError, PointInteraction, PoleError,
                           StageResult, StarModel)
from starcouplings import convergence
from starcouplings.cli import build_parser, main
from starcouplings.coupling import (SCALE_MAX, SCALE_MIN, UNITARITY_TOL,
                                    _Record, _Value)

BAD = {"True": True, "np.True_": np.True_, "complex": 1 + 0j, "str": "1",
       "None": None, "nan": math.nan, "float32-nan": np.float32("nan"),
       "Fraction": fractions.Fraction(1, 2), "Decimal": decimal.Decimal("1")}
#: numpy scalars a number is accepted as, each of the Python type it
#: stands for (np.float32 only where it holds the nominal value exactly)
NUMPY_SCALARS = {"np.float32": (float, np.float32),
                 "np.int64": (int, np.int64)}
#: and the ends of the domain of lengths and kappa, and Python ints beyond
#: the double range
EXTREME = {"-1e-300": -1e-300, "1e-300": 1e-300, "5e-324": 5e-324,
           "1e-160": 1e-160, "1e154": 1e154, "1e300": 1e300,
           "inf": math.inf, "-inf": -math.inf, "SCALE_MIN": SCALE_MIN,
           "SCALE_MAX": SCALE_MAX, "-SCALE_MAX": -SCALE_MAX,
           "10**400": 10**400, "-10**400": -10**400}
REFUSALS = (InvalidCouplingError, PoleError, ValueError)

#: names of __all__ with no row, and why: they are results the package
#: builds, and no entry point takes one built by hand, or errors
NO_ROW = {
    "ABDiagnostics": "validate_ab's result",
    "BoundState": "bound_states' result",
    "ConvergenceReport": "convergence_sweep's result",
    "StageResult": "a stage of convergence_sweep's result",
    "KernelErrorStats": "compare_kernels' result",
    "Eigenphases": "VertexCoupling.eigenphases' result, with no constructor",
    "ApproximationStage": "schedule's result; schedule has rows",
    "SampledKernel": "fd_resolvent_*'s result; its evaluators have rows",
    "InvalidCouplingError": "an error",
    "PoleError": "an error",
}
#: names with rows that are not in __all__, and why
OFF_ALL = {
    "sector_green": "convergence.sector_green, patched by the sweep workload",
    "hs_norm": "convergence.hs_norm, patched by the sweep workload",
    "decoupled_projection": "a test oracle",
    "SectorSpec": "a test oracle",
    "sector_decompose": "a test oracle",
    "satisfies_vertex_condition": "a test oracle",
    "approximant_model": "a test oracle",
    "effective_robin": "a test oracle",
    "sector_difference": "a test oracle",
}


class Row(NamedTuple):
    owner: str                 # the name of __all__ the row covers
    call: Callable
    args: dict                 # nominal arguments, by name
    numeric: tuple = ()        # the arguments to probe
    infinite: tuple = ()       # those of them that take +-inf
    then: Callable = None      # reads numbers from what the call returns
    label: str = ""            # which call of the owner, if not its own

    def __str__(self):
        return f"{self.label or self.owner}({','.join(self.args)})"


C1 = sc.make_coupling("delta", 1, 0.5)
C2 = sc.make_coupling("delta", 2, 0.5)
BC = HalflineBC.robin(0.7)
MODEL = StarModel(n=2, kind="central_delta", b=1.5,
                  point=PointInteraction(0.5, -2.0))
GRID = GridSpec(12.0, 99)
STAGE = sc.schedule("delta_prime_s", 1.0, 2, 0.1)
TARGET = oracles.sector_decompose("delta_prime_s", 2, 1.0)[0]
APPROX = oracles.sector_decompose(*oracles.approximant_model(STAGE))[0]
HALF = sc.fd_resolvent_halfline(BC, (), 1.0, GRID)
STAR = sc.fd_resolvent_star(MODEL, 1.0, GRID)
KERNEL = sc.vertex_kernel(C2, (), 1.0)
U2 = np.array([[0.6, 0.8], [0.8, -0.6]])


def _kernel_value(kernel):
    return kernel(0, 0.5, 1, 0.7)


def _fd_value(sampled):
    return sampled.value(1.5, 2.0)


ROWS = [
    # coupling
    Row("make_coupling", sc.make_coupling,
        dict(family="delta", n=2, param=0.5), ("n", "param"), ("param",)),
    Row("VertexCoupling", sc.VertexCoupling, dict(u=U2)),
    Row("VertexCoupling", sc.VertexCoupling.custom, dict(u=U2),
        label="custom"),
    Row("ABPair", sc.ABPair, dict(a=np.eye(2), b=np.zeros((2, 2)))),
    Row("to_ab", sc.to_ab, dict(coupling=C2)),
    Row("from_ab", sc.from_ab, dict(ab=sc.to_ab(C2))),
    Row("validate_ab", sc.validate_ab, dict(ab=sc.to_ab(C2))),
    Row("unitarity_defect", sc.unitarity_defect, dict(u=U2)),
    Row("rescale_length", sc.rescale_length,
        dict(coupling=C2, ell=1.0, ell_prime=2.0), ("ell", "ell_prime")),
    Row("decoupled_projection", oracles.decoupled_projection,
        dict(coupling=C2)),
    Row("satisfies_vertex_condition",
        lambda coupling, bv, tol: oracles.satisfies_vertex_condition(
            coupling, *bv, tol),
        dict(coupling=sc.make_coupling("delta", 3, 2.0),
             bv=(np.ones(3), np.full(3, 2.0 / 3.0)), tol=1e-10), ("tol",)),
    # scattering
    Row("s_matrix", sc.s_matrix, dict(coupling=C2, k=1.3), ("k",)),
    Row("bound_states", sc.bound_states,
        dict(coupling=sc.make_coupling("delta", 2, -1.0), kappa_max=5.0),
        ("kappa_max",), ("kappa_max",)),
    # models
    Row("HalflineBC", HalflineBC.dirichlet, {}, label="dirichlet"),
    Row("HalflineBC", HalflineBC.neumann, {}, label="neumann"),
    Row("HalflineBC", HalflineBC.robin, dict(b=0.7), ("b",), label="robin"),
    Row("HalflineBC", HalflineBC.robin_scaled, dict(n=2, beta=1.0),
        ("n", "beta"), label="robin_scaled"),
    Row("PointInteraction", PointInteraction, dict(a=0.4, c=1.0),
        ("a", "c"), ("c",)),
    Row("StarModel", StarModel, dict(n=3, kind="delta_prime_s", beta=1.0),
        ("n", "beta"), label="delta_prime_s"),
    Row("StarModel", StarModel, dict(n=3, kind="delta_prime", beta=1.0),
        ("n", "beta"), label="delta_prime"),
    Row("StarModel", StarModel, dict(n=2, kind="central_delta", b=1.5),
        ("n", "b"), label="central_delta"),
    Row("StarModel", StarModel, dict(n=2, kind="central_delta_p", b=1.5),
        ("n", "b"), label="central_delta_p"),
    Row("StarModel", StarModel, dict(n=2, kind="delta_prime", beta=1.0),
        ("n", "beta")),
    Row("StarModel", StarModel, dict(n=2, kind="central_delta", b=1.5),
        ("b",)),
    Row("SectorSpec", oracles.SectorSpec,
        dict(bc=BC, point=None, multiplicity=1), ("multiplicity",)),
    Row("sector_decompose", oracles.sector_decompose,
        dict(kind="central_delta", n=2, param=1.5,
             point=PointInteraction(0.5, -2.0)), ("n", "param")),
    # kernels and their evaluators
    Row("vertex_kernel", sc.vertex_kernel,
        dict(coupling=C2, points=(), kappa=1.0), ("kappa",),
        then=_kernel_value),
    Row("vertex_kernel", KERNEL, dict(j=0, x=0.5, l=1, y=0.7),
        ("j", "x", "l", "y"), label="evaluate"),
    Row("halfline_kernel", sc.halfline_kernel,
        dict(bc=BC, points=(), kappa=1.0), ("kappa",),
        then=lambda kernel: kernel(0.5, 0.7)),
    Row("halfline_kernel", sc.halfline_kernel(BC, (), 1.0),
        dict(x=0.5, y=0.7), ("x", "y"), label="evaluate"),
    Row("star_green", sc.star_green,
        dict(model=MODEL, kappa=1.0, edge_j=0, x=0.5, edge_l=1, y=0.7),
        ("kappa", "edge_j", "x", "edge_l", "y")),
    Row("star_green", sc.star_green,
        dict(model=StarModel(n=3, kind="delta_prime_s", beta=1.0),
             kappa=1.0, edge_j=0, x=0.5, edge_l=1, y=0.7), ("kappa",)),
    Row("star_green", sc.star_green,
        dict(model=StarModel(n=3, kind="delta_prime", beta=1.0),
             kappa=1.0, edge_j=0, x=0.5, edge_l=1, y=0.7), ("kappa",)),
    Row("sector_green", convergence.sector_green,
        dict(sector=APPROX, kappa=1.0, x=0.5, y=0.7), ("kappa", "x", "y")),
    # finite differences and their evaluators
    Row("GridSpec", GridSpec, dict(L=12.0, N=99), ("L", "N"),
        then=lambda grid: grid.node_index(grid.L / 2)),
    Row("GridSpec", GRID.node_index, dict(x=1.5), ("x",),
        label="node_index"),
    Row("fd_resolvent_halfline", sc.fd_resolvent_halfline,
        dict(bc=BC, points=(), kappa=1.0, grid=GRID), ("kappa",),
        then=_fd_value),
    Row("fd_resolvent_star", sc.fd_resolvent_star,
        dict(model=MODEL, kappa=1.0, grid=GRID), ("kappa",), then=_fd_value),
    Row("fd_resolvent_halfline", lambda x, y: HALF.value(x, y),
        dict(x=1.5, y=2.0), ("x", "y"), label="value"),
    Row("fd_resolvent_halfline", lambda x, y: HALF.snap(x, y),
        dict(x=1.5, y=2.0), ("x", "y"), label="snap"),
    Row("fd_resolvent_star", lambda j, x, l, y: STAR.value(j, x, l, y),
        dict(j=0, x=1.5, l=1, y=2.0), ("j", "x", "l", "y"), label="value"),
    Row("fd_resolvent_star", lambda j, x, l, y: STAR.snap(j, x, l, y),
        dict(j=0, x=1.5, l=1, y=2.0), ("j", "x", "l", "y"), label="snap"),
    Row("compare_kernels",
        lambda x, y: sc.compare_kernels(sc.halfline_kernel(BC, (), 1.0),
                                        HALF, [(x, y)]),
        dict(x=1.5, y=2.0), ("x", "y")),
    # convergence
    Row("schedule", sc.schedule,
        dict(family="delta_prime_s", beta=1.0, n=2, a=0.1),
        ("beta", "n", "a")),
    Row("approximant_model", oracles.approximant_model, dict(stage=STAGE)),
    Row("effective_robin", oracles.effective_robin,
        dict(b=2.0, c=-10.0, a=0.1), ("b", "c", "a")),
    Row("sector_difference", oracles.sector_difference,
        dict(target=TARGET, approx=APPROX, kappa=1.0, a=0.1, grid=GRID),
        ("kappa", "a")),
    Row("hs_norm", convergence.hs_norm, dict(
        diff=oracles.sector_difference(TARGET, APPROX, 1.0, 0.1, GRID))),
    Row("convergence_sweep",
        lambda family, beta, n, kappa, a, grid: sc.convergence_sweep(
            family, beta, n, kappa, [a], grid),
        dict(family="delta_prime_s", beta=1.0, n=2, kappa=1.0, a=0.1,
             grid=GRID), ("beta", "n", "kappa", "a")),
]


#: matrix and array arguments of bool dtype, one row per argument
BOOL_ARRAYS = [
    ("VertexCoupling(u)", sc.VertexCoupling, ([[True]],)),
    ("custom(u)", sc.VertexCoupling.custom, (np.eye(2, dtype=bool),)),
    ("ABPair(a)", sc.ABPair, ([[True]], [[0.0]])),
    ("ABPair(b)", sc.ABPair, (np.eye(1), np.array([[False]]))),
    ("satisfies_vertex_condition(psi)", oracles.satisfies_vertex_condition,
     (C1, [True], [0.0])),
    ("satisfies_vertex_condition(dpsi)", oracles.satisfies_vertex_condition,
     (C1, [1.0], [False])),
    ("unitarity_defect(u)", sc.unitarity_defect, ([[True]],)),
]

#: matrix arguments that hold objects that are not numbers, one row per
#: argument
OBJECT_ARRAYS = [
    ("VertexCoupling(u)", sc.VertexCoupling, ([[{}]],)),
    ("custom(u)", sc.VertexCoupling.custom, ([[{1}]],)),
    ("ABPair(a)", sc.ABPair, ([[{}]], [[1.0]])),
    ("ABPair(b)", sc.ABPair, ([[1.0]], np.array([[object()]]))),
    ("unitarity_defect(u)", sc.unitarity_defect, ([[{}]],)),
]

#: matrix arguments of strings or bytes, one row per argument and kind:
#: numpy's astype(complex) would read [['1']] as [[1]] and raise its own
#: ValueError on [[b'x']]
STRING_ARRAYS = [
    (f"{label}:{kind}", call, place(text))
    for kind, text in (("str", [["1"]]), ("bytes", [[b"x"]]))
    for label, call, place in (
        ("VertexCoupling(u)", sc.VertexCoupling, lambda m: (m,)),
        ("custom(u)", sc.VertexCoupling.custom, lambda m: (m,)),
        ("ABPair(a)", sc.ABPair, lambda m: (m, [[1.0]])),
        ("ABPair(b)", sc.ABPair, lambda m: ([[1.0]], m)),
        ("unitarity_defect(u)", sc.unitarity_defect, lambda m: (m,)))]

#: matrix and array arguments with a NaN or an infinite entry, one row per
#: argument and value: unitarity_defect returned NaN and warned at inf
NONFINITE_ARRAYS = [
    (f"{label}:{name}", call, place(value))
    for name, value in (("nan", math.nan), ("inf", math.inf),
                        ("-inf", -math.inf))
    for label, call, place in (
        ("VertexCoupling(u)", sc.VertexCoupling, lambda x: ([[x]],)),
        ("custom(u)", sc.VertexCoupling.custom, lambda x: ([[1.0, x]] * 2,)),
        ("ABPair(a)", sc.ABPair, lambda x: ([[x]], [[1.0]])),
        ("ABPair(b)", sc.ABPair, lambda x: ([[1.0]], [[x]])),
        ("satisfies_vertex_condition(psi)",
         oracles.satisfies_vertex_condition, lambda x: (C1, [x], [0.0])),
        ("satisfies_vertex_condition(dpsi)",
         oracles.satisfies_vertex_condition, lambda x: (C1, [1.0], [x])),
        ("unitarity_defect(u)", sc.unitarity_defect, lambda x: ([[x]],)))]

#: matrix arguments that are no non-empty square matrix, one row per
#: argument and shape: unitarity_defect read a vector as a matrix and an
#: empty one as unitary
NON_SQUARE_ARRAYS = [
    (f"{label}:{name}", call, place(value))
    for name, value in (("vector", [1.0, 0.0]), ("empty", []),
                        ("row", [[1.0, 0.0]]))
    for label, call, place in (
        ("VertexCoupling(u)", sc.VertexCoupling, lambda m: (m,)),
        ("custom(u)", sc.VertexCoupling.custom, lambda m: (m,)),
        ("ABPair(a)", sc.ABPair, lambda m: (m, m)),
        ("unitarity_defect(u)", sc.unitarity_defect, lambda m: (m,)))]

#: what the half-line entry points take as ``bc`` that is no one-edge
#: VertexCoupling; a two-edge coupling raised AttributeError
BAD_BCS = {"two-edge": C2, "None": None, "str": "robin",
           "vertex-triple": ("delta", 1, 0.7), "pair": (C1, ())}
#: what the star entry points take as ``model`` that is no
#: (VertexCoupling, tuple of PointInteraction) pair
BAD_MODELS = {"coupling": C2, "None": None, "vertex-triple": ("delta", 2, 1.5),
              "one": (C2,), "three": (C2, (), ()), "list": [C2, ()],
              "swapped": ((), C2), "no-coupling": (None, ()),
              "point-list": (C2, [PointInteraction(0.5, -2.0)]),
              "bare-point": (C2, ((0.5, -2.0),)),
              "unhashable-point": (C2, ([0.5, -2.0],))}
HALF_ENTRIES = {
    "halfline_kernel": lambda bc: sc.halfline_kernel(bc, (), 1.0),
    "fd_resolvent_halfline": lambda bc: sc.fd_resolvent_halfline(
        bc, (), 1.0, GRID)}
STAR_ENTRIES = {
    "star_green": lambda model: sc.star_green(model, 1.0, 0, 0.5, 0, 0.7),
    "fd_resolvent_star": lambda model: sc.fd_resolvent_star(model, 1.0,
                                                            GRID)}
#: kappas the memo of the kernel entry points cannot hash; it raised
#: TypeError where vertex_kernel and the FD solvers raise ValueError
UNHASHABLE_KAPPAS = {"0-d-array": np.array(1.0), "list": [1.0],
                     "1-d-array": np.array([1.0])}
KAPPA_ENTRIES = {
    "vertex_kernel": lambda kappa: sc.vertex_kernel(C2, (), kappa),
    "halfline_kernel": lambda kappa: sc.halfline_kernel(BC, (), kappa),
    "star_green": lambda kappa: sc.star_green(MODEL, kappa, 0, 0.5, 1, 0.7),
    "sector_green": lambda kappa: convergence.sector_green(APPROX, kappa,
                                                           0.5, 0.7),
    "fd_resolvent_halfline": lambda kappa: sc.fd_resolvent_halfline(
        BC, (), kappa, GRID),
    "fd_resolvent_star": lambda kappa: sc.fd_resolvent_star(MODEL, kappa,
                                                            GRID)}
#: entry points that take an object of a package type, the error that
#: refuses any other, and a near miss (a pair for a coupling, a coupling
#: for a pair, (L, N) for a grid); each raised AttributeError, to_ab took
#: anything, and rescale_length returned anything at equal lengths
WRONG_TYPES = {
    "to_ab": (sc.to_ab, InvalidCouplingError, sc.to_ab(C2)),
    "s_matrix": (lambda c: sc.s_matrix(c, 1.0), InvalidCouplingError,
                 sc.to_ab(C2)),
    "bound_states": (lambda c: sc.bound_states(c, 1.0), InvalidCouplingError,
                     sc.to_ab(C2)),
    "rescale_length": (lambda c: sc.rescale_length(c, 1.0, 2.0),
                       InvalidCouplingError, sc.to_ab(C2)),
    "rescale_length:equal": (lambda c: sc.rescale_length(c, 1.0, 1.0),
                             InvalidCouplingError, sc.to_ab(C2)),
    "vertex_kernel": (lambda c: sc.vertex_kernel(c, (), 1.0),
                      InvalidCouplingError, sc.to_ab(C2)),
    "validate_ab": (sc.validate_ab, InvalidCouplingError, C2),
    "from_ab": (sc.from_ab, InvalidCouplingError, C2),
    "convergence_sweep": (lambda grid: sc.convergence_sweep(
        "delta_prime_s", 1.0, 2, 1.0, [0.1], grid), ValueError, (12.0, 99)),
    "fd_resolvent_halfline": (lambda grid: sc.fd_resolvent_halfline(
        BC, (), 1.0, grid), ValueError, (12.0, 99)),
    "fd_resolvent_star": (lambda grid: sc.fd_resolvent_star(
        MODEL, 1.0, grid), ValueError, (12.0, 99)),
}


def _finite(obj) -> bool:
    """Whether every number in obj is finite; an invalid stage carries
    NaN norms by design."""
    if obj is None or isinstance(obj, (bool, np.bool_, str)):
        return True
    if isinstance(obj, (int, float, complex, np.number)):
        return cmath.isfinite(obj)
    if isinstance(obj, np.ndarray):
        return bool(np.isfinite(obj).all())
    if isinstance(obj, StageResult) and not obj.valid:
        return _finite((obj.a, obj.b, obj.c, obj.per_channel_b))
    if isinstance(obj, _Record):
        # its fields, formed if lazy, and whatever else it holds
        return all(_finite(getattr(obj, name)) for name in obj._fields) \
            and all(map(_finite, vars(obj).values()))
    if isinstance(obj, (tuple, list)):
        return all(map(_finite, obj))
    return True


def _cases(values):
    return [pytest.param(row, name, value,
                         id=f"{row}:{name}={label}")
            for row in ROWS for name in row.numeric
            for label, value in values.items()]


def _call(row, **changes):
    out = row.call(**dict(row.args, **changes))
    return out if row.then is None else row.then(out)


def test_every_public_name_has_a_row():
    covered = {row.owner for row in ROWS} | set(NO_ROW)
    assert set(sc.__all__) - covered == set()
    assert covered - set(sc.__all__) == set(OFF_ALL)


@pytest.mark.parametrize("row", ROWS, ids=str)
def test_nominal_call_gives_finite_numbers(row):
    assert _finite(_call(row))


@pytest.mark.parametrize("row, name, value", _cases(BAD))
def test_bad_value_is_refused(row, name, value):
    with pytest.raises(REFUSALS):
        _call(row, **{name: value})


def _numpy_cases():
    return [pytest.param(row, name, scalar(row.args[name]),
                         id=f"{row}:{name}={label}")
            for row in ROWS for name in row.numeric
            for label, (kind, scalar) in NUMPY_SCALARS.items()
            if type(row.args[name]) is kind
            and kind(scalar(row.args[name])) == row.args[name]]


@pytest.mark.parametrize("row, name, value", _numpy_cases())
def test_numpy_scalar_is_accepted(row, name, value):
    assert _finite(_call(row, **{name: value}))


@pytest.mark.parametrize("row, name, value", _cases(EXTREME))
def test_extreme_value_is_refused_or_finite(row, name, value):
    try:
        out = _call(row, **{name: value})
    except REFUSALS:
        return
    if math.isinf(value) and name in row.infinite:
        return
    assert _finite(out), out


@pytest.mark.parametrize("call, args", [
    pytest.param(call, args, id=label) for label, call, args in BOOL_ARRAYS])
def test_bool_array_is_refused(call, args):
    with pytest.raises(InvalidCouplingError, match="not bools"):
        call(*args)


@pytest.mark.parametrize("call, args", [
    pytest.param(call, args, id=label) for label, call, args in OBJECT_ARRAYS])
def test_object_array_is_refused(call, args):
    # numpy's astype(complex) raises TypeError on them
    with pytest.raises(InvalidCouplingError, match="must hold numbers"):
        call(*args)


@pytest.mark.parametrize("call, args", [
    pytest.param(call, args, id=label) for label, call, args in STRING_ARRAYS])
def test_string_array_is_refused(call, args):
    with pytest.raises(InvalidCouplingError,
                       match="must hold numbers, not (strings|bytes)"):
        call(*args)


@pytest.mark.parametrize("call, args", [
    pytest.param(call, args, id=label)
    for label, call, args in NONFINITE_ARRAYS])
def test_non_finite_array_is_refused(call, args):
    with pytest.raises(InvalidCouplingError, match="finite"):
        call(*args)


@pytest.mark.parametrize("call, args", [
    pytest.param(call, args, id=label)
    for label, call, args in NON_SQUARE_ARRAYS])
def test_non_square_array_is_refused(call, args):
    with pytest.raises(InvalidCouplingError,
                       match="must be a non-empty square matrix"):
        call(*args)


@pytest.mark.parametrize("entry", HALF_ENTRIES)
@pytest.mark.parametrize("bc", BAD_BCS)
def test_half_line_of_no_one_edge_coupling_is_refused(entry, bc):
    with pytest.raises(ValueError, match="1-edge VertexCoupling"):
        HALF_ENTRIES[entry](BAD_BCS[bc])


@pytest.mark.parametrize("entry", STAR_ENTRIES)
@pytest.mark.parametrize("model", BAD_MODELS)
def test_star_of_no_pair_is_refused(entry, model):
    # the memo holds the pair of the same coupling, so a model that only
    # differs from it in its container still misses and is checked
    STAR_ENTRIES[entry]((C2, ()))
    with pytest.raises(ValueError, match="VertexCoupling|PointInteraction"):
        STAR_ENTRIES[entry](BAD_MODELS[model])


@pytest.mark.parametrize("entry", WRONG_TYPES)
@pytest.mark.parametrize("kind", ["None", "str", "near-miss"])
def test_object_of_the_wrong_type_is_refused(entry, kind):
    call, error, near_miss = WRONG_TYPES[entry]
    value = {"None": None, "str": "x", "near-miss": near_miss}[kind]
    with pytest.raises(error, match=r"must be a \w+, not a ") as raised:
        call(value)
    assert type(raised.value) is error


@pytest.mark.parametrize("entry", KAPPA_ENTRIES)
@pytest.mark.parametrize("kappa", UNHASHABLE_KAPPAS)
def test_unhashable_kappa_is_refused(entry, kappa):
    KAPPA_ENTRIES[entry](1.0)    # the memo holds the pair at kappa 1
    with pytest.raises(ValueError, match="kappa must be real"):
        KAPPA_ENTRIES[entry](UNHASHABLE_KAPPAS[kappa])


def test_mixed_bool_list_is_read_as_floats():
    coupling = sc.VertexCoupling([[True, 0.0], [0.0, 1.0]])
    assert np.array_equal(coupling.u, np.eye(2))


# ======================================================================
#  the record protocol: checked inputs are records, results NamedTuples
# ======================================================================

#: results: only the package builds them, and nothing checks their fields
RESULTS = ("ABDiagnostics", "BoundState", "KernelErrorStats", "StageResult",
           "ConvergenceReport", "ApproximationStage")
#: records: the checked inputs, whose constructors check, and
#: Eigenphases, a result with no constructor
RECORDS = ("VertexCoupling", "ABPair", "PointInteraction", "GridSpec",
           "Eigenphases")


@pytest.mark.parametrize("name", RESULTS)
def test_result_is_a_named_tuple(name):
    cls = getattr(sc, name)
    assert issubclass(cls, tuple) and hasattr(cls, "_asdict")
    assert not issubclass(cls, _Record)


@pytest.mark.parametrize("name", RECORDS)
def test_record_is_no_tuple(name):
    assert issubclass(getattr(sc, name), _Record)
    assert not issubclass(getattr(sc, name), tuple)


def test_only_the_two_value_inputs_compare_by_value():
    assert set(_Value.__subclasses__()) == {PointInteraction, GridSpec}


def test_eigenphases_have_no_constructor():
    with pytest.raises(TypeError, match="takes no arguments"):
        sc.Eigenphases(((1.0, 0.0, 1),), [[1.0]])
    assert type(C2.eigenphases) is sc.Eigenphases
    assert type(sc.VertexCoupling(U2).eigenphases) is sc.Eigenphases


def _custom_u(n: int, seed: int, spectrum: str) -> np.ndarray:
    """A unitary Q diag(lambda) Q* with Haar Q: a Haar spectrum, one with
    n // 2 eigenvalues at -1, or one of +-1 alone (a reflection)."""
    rng = np.random.default_rng(seed)
    q = random_unitary(n, rng)
    if spectrum == "haar":
        return q
    theta = rng.uniform(-3.0, 3.0, n)
    if spectrum == "half-at-minus-1":
        theta[:n // 2] = np.pi
    else:
        theta = np.where(theta > 0.0, 0.0, np.pi)
    return (q * np.exp(1j * theta)) @ q.conj().T


#: every way the package builds an Eigenphases, each with its coupling
PHASE_SOURCES = {
    **{f"{family}:n={n}:{param}": (lambda f=family, n=n, p=param:
                                   sc.make_coupling(f, n, p))
       for family in sc.coupling.FAMILIES for n in (1, 2, 5)
       for param in (-2.5, 0.0, 1.3, math.inf)},
    **{f"custom:{spectrum}:n={n}:seed={seed}":
       (lambda n=n, seed=seed, spectrum=spectrum:
        sc.VertexCoupling.custom(_custom_u(n, seed, spectrum)))
       for spectrum in ("haar", "half-at-minus-1", "reflection")
       for n in range(1, 7) for seed in range(4)},
    **{f"rescaled:{family}:k={k}": (lambda f=family, k=k: sc.rescale_length(
        sc.make_coupling(f, 3, -0.8), k, 1.0))
       for family in sc.coupling.FAMILIES for k in (1e-3, 0.5, 1e3)},
    **{f"rescaled:haar:n={n}:k={k}": (lambda n=n, k=k: sc.rescale_length(
        sc.VertexCoupling.custom(_custom_u(n, n, "haar")), k, 1.0))
       for n in (2, 3, 5) for k in (1e-3, 0.5, 1e3)},
}


@pytest.mark.parametrize("source", PHASE_SOURCES)
def test_built_eigenphases_hold_what_a_constructor_checked(source):
    # with no constructor, every Eigenphases is built by the package: each
    # holds what Eigenphases(groups, v) checked, and rebuilds its U
    coupling = PHASE_SOURCES[source]()
    phases, n = coupling.eigenphases, coupling.n
    assert type(phases.groups) is tuple and phases.groups
    for group in phases.groups:
        assert type(group) is tuple
        assert [type(x) for x in group] == [float, float, int]
        c, s, m = group
        assert c >= 0.0 and abs(c * c + s * s - 1.0) <= UNITARITY_TOL
        assert m >= 1
    assert phases.n == n
    if phases.exact:
        assert phases.vh is None
    else:
        assert phases.v.shape == (n, n) and not phases.v.flags.writeable
        assert sc.unitarity_defect(phases.v) <= UNITARITY_TOL
        assert np.array_equal(phases.vh, phases.v.conj().T)
    rebuilt = phases.apply(sc.coupling._eigenvalues(phases))
    assert np.max(np.abs(rebuilt - coupling.u)) < 1e-13


@pytest.mark.parametrize("family", ["delta_prime_s", "delta_prime"])
@pytest.mark.parametrize("beta, n, a", [(0.8, 3, 0.1), (0.0, 1, 1e-6),
                                        (-2.0, 5, 0.3), (1.0, 2, 0.1)])
def test_schedule_is_the_tuple_of_its_strengths(family, beta, n, a):
    stage = sc.schedule(family, beta, n, a)
    assert type(stage) is ApproximationStage
    assert stage == (family, n, beta, a,
                     *convergence._strengths(family, beta, n, a))


@pytest.mark.parametrize("length, n_nodes", [
    (12.0, 400), (0.3, 16), (4.0, 30), (2.0, 16), (0.3, 1200),
    (7.7, 999), (1e-3, 17), (1e5, 65)])
def test_boundary_nodes_are_floats_of_linspace(length, n_nodes):
    # the CLI's CSV labels are these nodes, bit for bit
    nodes = GridSpec(length, n_nodes).boundary_nodes()
    assert nodes == np.linspace(0, length, n_nodes + 2).tolist()
    assert {type(x) for x in nodes} == {float}


# ======================================================================
#  the CLI, in process
# ======================================================================

CLI_BAD = ["True", "1+0j", "None", "nan", "x"]
CLI_EXTREME = ["-1e-300", "1e-300", "5e-324", "1e-160", "1e154", "1e300",
               "inf", "-inf"]

#: argv templates of every subcommand, with the probed value at {} and its
#: nominal value
CLI_ROWS = [
    ("coupling --family delta --n {} --param 0.5", "2"),
    ("coupling --family delta --n 2 --param {}", "0.5"),
    ("coupling --family delta --n 2 --param 0.5 --rescale {} 2", "1"),
    ("coupling --family delta --n 2 --param 0.5 --rescale 1 {}", "2"),
    ("smatrix --family delta --n {} --param 0.5 --k 1.3", "2"),
    ("smatrix --family delta --n 2 --param {} --k 1.3", "0.5"),
    ("smatrix --family delta --n 2 --param 0.5 --k {}", "1.3"),
    ("greens --bc robin:{} --kappa 1 --x 0.3 --y 0.7", "0.5"),
    ("greens --bc robin-scaled:{}:1 --kappa 1 --x 0.3 --y 0.7", "2"),
    ("greens --bc robin-scaled:2:{} --kappa 1 --x 0.3 --y 0.7", "1"),
    ("greens --bc neumann --kappa {} --x 0.3 --y 0.7", "1"),
    ("greens --bc neumann --kappa 1 --x {} --y 0.7", "0.3"),
    ("greens --bc neumann --kappa 1 --x 0.3 --y {}", "0.7"),
    ("greens --bc neumann --point {},-2 --kappa 1 --x 0.3 --y 0.7", "0.5"),
    ("greens --bc neumann --point 0.5,{} --kappa 1 --x 0.3 --y 0.7", "-2"),
    ("greens --bc neumann --kappa 1 --grid {},20", "4"),
    ("greens --bc neumann --kappa 1 --grid 4,{}", "20"),
    ("converge --family delta-prime-s --n {} --beta 1 --a-list 0.1,0.01",
     "2"),
    ("converge --family delta-prime-s --n 2 --beta {} --a-list 0.1,0.01",
     "1"),
    ("converge --family delta-prime-s --n 2 --beta 1 --kappa {} "
     "--a-list 0.1,0.01", "1"),
    ("converge --family delta-prime-s --n 2 --beta 1 --a-list 0.1,{}",
     "0.01"),
    ("converge --family delta-prime-s --n 2 --beta 1 --a-list 0.1,0.01 "
     "--grid {},400", "12"),
    ("converge --family delta-prime-s --n 2 --beta 1 --a-list 0.1,0.01 "
     "--grid 12,{}", "400"),
    ("oracle-check --bc dirichlet --kappa {} --h 0.05", "1"),
    ("oracle-check --bc dirichlet --kappa 1 --h {}", "0.05"),
    ("oracle-check --bc dirichlet --kappa 1 --h 0.05 --L {}", "12"),
    ("oracle-check --bc robin:{} --kappa 1 --h 0.05", "0.5"),
    ("oracle-check --bc neumann --point {},0.5 --kappa 1 --h 0.05", "1.2"),
    ("oracle-check --bc neumann --point 1.2,{} --kappa 1 --h 0.05", "0.5"),
    ("oracle-check --star-family delta-prime-s --n {} --beta 1 --h 0.05",
     "2"),
    ("oracle-check --star-family delta-prime-s --n 2 --beta {} --h 0.05",
     "1"),
    ("oracle-check --star-family central-delta --n 2 --b {} --h 0.05",
     "1.5"),
]


def _run(capsys, template: str, value: str) -> int:
    # a leading space keeps argparse from reading "-inf" as a flag
    argv = [" " + value if word == "{}" else word.replace("{}", value)
            for word in template.split()]
    code = main(argv)
    capsys.readouterr()
    return code


def test_every_subcommand_has_rows():
    commands = next(action for action in build_parser()._actions
                    if action.dest == "command").choices
    assert {template.split()[0] for template, _ in CLI_ROWS} == set(commands)


@pytest.mark.parametrize("template, nominal", CLI_ROWS)
def test_nominal_cli_run_exits_0(capsys, template, nominal):
    assert _run(capsys, template, nominal) == 0


@pytest.mark.parametrize("template, value", [
    pytest.param(template, value, id=f"{template}:{value}")
    for template, _ in CLI_ROWS for value in CLI_BAD])
def test_cli_refuses_bad_values(capsys, template, value):
    assert _run(capsys, template, value) in (2, 3)


@pytest.mark.parametrize("template, value", [
    pytest.param(template, value, id=f"{template}:{value}")
    for template, _ in CLI_ROWS for value in CLI_EXTREME])
def test_cli_extreme_values_exit_cleanly(capsys, template, value):
    assert _run(capsys, template, value) in (0, 2, 3, 4)
