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

Matrix and array arguments (U, A, B, the basis V of Eigenphases, psi,
dpsi, sampled differences) are no rows of the scalar table; their constructors check shapes and finite
entries (test_coupling), and an array of bools, which numpy would read as
ones and zeros, is refused here (a list that mixes bools and floats is an
array of floats before the package sees it).  The result records name why
they have no rows.
"""

import cmath
import dataclasses
import decimal
import fractions
import math
from typing import Callable, NamedTuple

import numpy as np
import pytest

import oracles
import starcouplings as sc
from starcouplings import (ApproximationStage, GridSpec, HalflineBC,
                           InvalidCouplingError, PointInteraction, PoleError,
                           StageResult, StarModel)
from starcouplings import convergence
from starcouplings.cli import build_parser, main
from starcouplings.coupling import SCALE_MAX, SCALE_MIN

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
    Row("Eigenphases", sc.Eigenphases,
        dict(groups=((0.6, 0.8, 1), (1.0, 0.0, 1)), v=U2)),
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
    Row("fd_resolvent_star", lambda j, x, l, y: STAR.value(j, x, l, y),
        dict(j=0, x=1.5, l=1, y=2.0), ("j", "x", "l", "y"), label="value"),
    Row("fd_resolvent_star", lambda j, x, l, y: STAR.snap(j, x, l, y),
        dict(j=0, x=1.5, l=1, y=2.0), ("j", "x", "l", "y"), label="snap"),
    Row("fd_resolvent_star", lambda l, y: STAR.vertex_values(l, y),
        dict(l=1, y=2.0), ("l", "y"), label="vertex_values"),
    Row("compare_kernels",
        lambda x, y: sc.compare_kernels(sc.halfline_kernel(BC, (), 1.0),
                                        HALF, [(x, y)]),
        dict(x=1.5, y=2.0), ("x", "y")),
    # convergence
    Row("schedule", sc.schedule,
        dict(family="delta_prime_s", beta=1.0, n=2, a=0.1),
        ("beta", "n", "a")),
    Row("ApproximationStage", ApproximationStage,
        dataclasses.asdict(STAGE), ("n", "beta", "a", "b", "c",
                                    "per_channel_b")),
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
    ("Eigenphases(v)", sc.Eigenphases, (((1.0, 0.0, 1),), [[True]])),
    ("satisfies_vertex_condition(psi)", oracles.satisfies_vertex_condition,
     (C1, [True], [0.0])),
    ("satisfies_vertex_condition(dpsi)", oracles.satisfies_vertex_condition,
     (C1, [1.0], [False])),
]

#: matrix arguments that hold objects that are not numbers, one row per
#: argument
OBJECT_ARRAYS = [
    ("VertexCoupling(u)", sc.VertexCoupling, ([[{}]],)),
    ("custom(u)", sc.VertexCoupling.custom, ([[{1}]],)),
    ("ABPair(a)", sc.ABPair, ([[{}]], [[1.0]])),
    ("ABPair(b)", sc.ABPair, ([[1.0]], np.array([[object()]]))),
    ("Eigenphases(v)", sc.Eigenphases, (((1.0, 0.0, 1),), [[{}]])),
]

#: Eigenphases(groups, v) that decompose no coupling: V must be an n x n
#: unitary, n the sum of the multiplicities, and each group (c, s, m) with
#: c >= 0, c^2 + s^2 = 1 and an integer m >= 1
BAD_EIGENPHASES = {
    "v=None": (((1.0, 0.0, 1),), None),
    "v-larger-than-n": (((1.0, 0.0, 2),), np.eye(3)),
    "v-not-unitary": (((1.0, 0.0, 2),), np.ones((2, 2))),
    "v-nan": (((1.0, 0.0, 1),), [[math.nan]]),
    "v-vector": (((1.0, 0.0, 1),), np.ones(1)),
    "no-groups": ((), np.eye(1)),
    "groups=None": (None, np.eye(1)),
    "group-of-two": (((1.0, 0.0),), np.eye(1)),
    "group-list": (([1.0, 0.0, 1],), np.eye(1)),
    "c<0": (((-1.0, 0.0, 1),), np.eye(1)),
    "c^2+s^2=2": (((1.0, 1.0, 1),), np.eye(1)),
    "c=nan": (((math.nan, 0.0, 1),), np.eye(1)),
    "c=True": (((True, 0.0, 1),), np.eye(1)),
    "s=str": (((1.0, "0", 1),), np.eye(1)),
    "s=inf": (((1.0, math.inf, 1),), np.eye(1)),
    "m=0": (((1.0, 0.0, 0), (0.0, 1.0, 1)), np.eye(1)),
    "m=1.0": (((1.0, 0.0, 1.0),), np.eye(1)),
    "m=True": (((1.0, 0.0, True),), np.eye(1)),
}


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
    if dataclasses.is_dataclass(obj):
        return all(_finite(getattr(obj, f.name))
                   for f in dataclasses.fields(obj))
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


@pytest.mark.parametrize("groups, v", [
    pytest.param(*args, id=label) for label, args in BAD_EIGENPHASES.items()])
def test_eigenphases_of_no_coupling_are_refused(groups, v):
    with pytest.raises(InvalidCouplingError):
        sc.Eigenphases(groups, v)


def test_eigenphases_read_groups_as_floats_and_ints():
    phases = sc.Eigenphases([(np.float64(0.6), 0.8, np.int64(1)),
                             (1, 0, 1)], U2)
    assert phases.groups == ((0.6, 0.8, 1), (1.0, 0.0, 1)) and phases.n == 2
    assert [type(x) for g in phases.groups for x in g] == [float, float,
                                                           int] * 2
    assert not phases.exact and np.array_equal(phases.vh, U2.T)


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


@pytest.mark.parametrize("entry", KAPPA_ENTRIES)
@pytest.mark.parametrize("kappa", UNHASHABLE_KAPPAS)
def test_unhashable_kappa_is_refused(entry, kappa):
    KAPPA_ENTRIES[entry](1.0)    # the memo holds the pair at kappa 1
    with pytest.raises(ValueError, match="kappa must be real"):
        KAPPA_ENTRIES[entry](UNHASHABLE_KAPPAS[kappa])


def test_mixed_bool_list_is_read_as_floats():
    coupling = sc.VertexCoupling([[True, 0.0], [0.0, 1.0]])
    assert np.array_equal(coupling.u, np.eye(2))


@pytest.mark.parametrize("family", ["nope", None, "delta"])
def test_approximation_stage_checks_its_family(family):
    with pytest.raises(ValueError, match="schedule family"):
        ApproximationStage(**dict(dataclasses.asdict(STAGE), family=family))


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
