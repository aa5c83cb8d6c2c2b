"""Command-line interface tests.

The CLI must reproduce library values exactly (it does no arithmetic of
its own), emit deterministic output, and honor the exit-code contract:
0 success, 2 usage, 3 numeric/validation failure, 4 partial sweep.
"""

import json
import math
import os
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import starcouplings
from starcouplings import (GridSpec, HalflineBC, PointInteraction,
                           convergence_sweep, halfline_kernel, make_coupling,
                           rescale_length, s_matrix, to_ab, unitarity_defect,
                           validate_ab)
from starcouplings.coupling import FAMILIES
from starcouplings.cli import _dumps, _string, main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def as_complex(entry):
    return complex(entry["re"], entry["im"])


# ======================================================================
#  coupling
# ======================================================================

class TestCouplingCommand:
    def test_dirichlet_decoupling(self, capsys):
        code, out, _ = run(capsys, "coupling", "--family", "delta",
                           "--n", "3", "--param", "inf")
        assert code == 0
        doc = json.loads(out)
        assert doc["param"] == "inf"
        u = np.array([[as_complex(v) for v in row] for row in doc["u"]])
        np.testing.assert_array_equal(u, -np.eye(3))

    def test_kirchhoff_to_ab(self, capsys):
        code, out, _ = run(capsys, "coupling", "--family", "delta",
                           "--n", "2", "--param", "0", "--to-ab")
        assert code == 0
        doc = json.loads(out)
        a = np.array([[as_complex(v) for v in row] for row in doc["ab"]["a"]])
        b = np.array([[as_complex(v) for v in row] for row in doc["ab"]["b"]])
        np.testing.assert_allclose(a, np.ones((2, 2)) - 2 * np.eye(2),
                                   atol=1e-15)
        np.testing.assert_allclose(b, 1j * np.ones((2, 2)), atol=1e-15)

    def test_validate_passes(self, capsys):
        code, out, _ = run(capsys, "coupling", "--family", "delta-p",
                           "--n", "3", "--param", "1", "--validate")
        assert code == 0
        diag = json.loads(out)["diagnostics"]
        assert diag["rank"] == 3
        assert diag["hermiticity_defect"] < 1e-12
        assert diag["ok"] is True

    def test_rescale_matches_library(self, capsys):
        code, out, _ = run(capsys, "coupling", "--family", "delta-prime",
                           "--n", "2", "--param", "1.5",
                           "--rescale", "1.0", "2.5")
        assert code == 0
        doc = json.loads(out)
        expected = rescale_length(make_coupling("delta_prime", 2, 1.5),
                                  1.0, 2.5)
        u = np.array([[as_complex(v) for v in row] for row in doc["u"]])
        np.testing.assert_array_equal(u, expected.u)

    def test_unknown_family_is_usage_error(self, capsys):
        code, _, _ = run(capsys, "coupling", "--family", "robin",
                         "--n", "2", "--param", "0")
        assert code == 2

    def test_bad_edge_count_is_numeric_error(self, capsys):
        code, _, err = run(capsys, "coupling", "--family", "delta",
                           "--n", "0", "--param", "0")
        assert code == 3
        assert "error" in err


class TestCouplingRescaleNonFinite:
    # argparse reads a bare "-inf" as an option flag; the leading space
    # keeps it a value, and float() strips it
    @pytest.mark.parametrize("lengths", [("nan", "1"), ("inf", "1"),
                                         ("1", "nan"), ("1", " -inf")])
    def test_non_finite_length_exits_3(self, capsys, lengths):
        code, out, err = run(capsys, "coupling", "--family", "delta",
                             "--n", "2", "--param", "1",
                             "--rescale", *lengths)
        assert code == 3
        assert out == ""
        assert err.startswith("error: length scales must be finite and "
                              "positive, got ")
        assert all(text.strip() in err for text in lengths)


# ======================================================================
#  smatrix
# ======================================================================

class TestSMatrixCommand:
    def test_kirchhoff_at_unit_momentum(self, capsys):
        code, out, _ = run(capsys, "smatrix", "--family", "delta",
                           "--n", "2", "--param", "0", "--k", "1")
        assert code == 0
        doc = json.loads(out)
        s = np.array([[as_complex(v) for v in row] for row in doc["s"]])
        np.testing.assert_array_equal(s, [[0, 1], [1, 0]])
        assert doc["unitarity_defect"] < 1e-12

    def test_neumann_decoupling_transparent(self, capsys):
        code, out, _ = run(capsys, "smatrix", "--family", "delta-prime-s",
                           "--n", "3", "--param", "inf", "--k", "2")
        assert code == 0
        s = np.array([[as_complex(v) for v in row]
                      for row in json.loads(out)["s"]])
        np.testing.assert_array_equal(s, np.eye(3))

    def test_payload_is_bitwise_library_value(self, capsys):
        code, out, _ = run(capsys, "smatrix", "--family", "delta",
                           "--n", "2", "--param", "2", "--k", "1.5")
        assert code == 0
        s_cli = np.array([[as_complex(v) for v in row]
                          for row in json.loads(out)["s"]])
        s_lib = s_matrix(make_coupling("delta", 2, 2.0), 1.5)
        np.testing.assert_array_equal(s_cli, s_lib)
        np.testing.assert_allclose(s_cli[0, 1], (9.0 - 6.0j) / 13.0,
                                   atol=1e-14)

    def test_nonpositive_momentum_fails(self, capsys):
        code, _, _ = run(capsys, "smatrix", "--family", "delta",
                         "--n", "2", "--param", "0", "--k", "-1")
        assert code == 3


# ======================================================================
#  coupling and smatrix print a family's matrices from its two entries
# ======================================================================

def _family_grid(family: str):
    """(n, param, ell_prime, k) over n = 1..7 and the parameters 0, +-inf
    and six seeded ones, each with a seeded rescale ratio and momentum."""
    rng = np.random.default_rng([7, FAMILIES.index(family)])
    for n in range(1, 8):
        params = [0.0, math.inf, -math.inf,
                  *(float(s * 10.0 ** e) for s, e in zip(
                      rng.choice([-1.0, 1.0], 6), rng.uniform(-2, 2, 6)))]
        for param in params:
            yield (n, param, float(10.0 ** rng.uniform(-0.6, 0.6)),
                   float(10.0 ** rng.uniform(-1.3, 1.3)))


class TestFamilyMatricesFromEntries:
    """The CLI forms a family's U, (A, B) and S_U(k) from their two
    distinct entries, not from the library's arrays: each printed matrix
    must be _dumps of the library's array, byte for byte, and the printed
    defect that of unitarity_defect to rounding."""

    @staticmethod
    def _defect_close(doc, m):
        ref = unitarity_defect(np.array(m))
        assert abs(doc["unitarity_defect"] - ref) <= 1e-15
        assert doc["unitarity_defect"] <= 1e-12

    @pytest.mark.parametrize("family", FAMILIES)
    def test_coupling_u_and_ab_are_the_library_arrays(self, capsys, family):
        for n, param, ell_prime, _ in _family_grid(family):
            for rescale in ((), ("1", repr(ell_prime))):
                coupling = make_coupling(family, n, param)
                if rescale:
                    coupling = rescale_length(coupling, 1.0, ell_prime)
                code, out, _ = run(capsys, "coupling", "--family",
                                   family.replace("_", "-"), "--n", str(n),
                                   f"--param={param!r}", "--to-ab",
                                   *(("--rescale", *rescale) if rescale
                                     else ()))
                assert code == 0
                pair = to_ab(coupling)
                assert f'"u": {_dumps(coupling.u)}' in out, (n, param)
                assert f'"ab": {_dumps({"a": pair.a, "b": pair.b})}' \
                    in out, (n, param)
                self._defect_close(json.loads(out), coupling.u)

    @pytest.mark.parametrize("family", FAMILIES)
    def test_smatrix_is_the_library_array(self, capsys, family):
        for n, param, _, k in _family_grid(family):
            s = s_matrix(make_coupling(family, n, param), k)
            code, out, _ = run(capsys, "smatrix", "--family",
                               family.replace("_", "-"), "--n", str(n),
                               f"--param={param!r}", "--k", repr(k))
            assert code == 0
            assert f'"s": {_dumps(s)}}}' in out, (n, param, k)
            self._defect_close(json.loads(out), s)

    def test_validate_reads_the_library_pair(self, capsys):
        # --validate prints validate_ab's closed-form diagnostics of
        # to_ab's pair
        coupling = make_coupling("delta_p", 4, -2.5)
        code, out, _ = run(capsys, "coupling", "--family", "delta-p",
                           "--n", "4", "--param", "-2.5", "--validate")
        assert code == 0
        diag = validate_ab(to_ab(coupling))
        assert json.loads(out)["diagnostics"] == {
            "rank": diag.rank,
            "hermiticity_defect": diag.hermiticity_defect,
            "min_gram_eigenvalue": diag.min_gram_eigenvalue,
            "ok": diag.ok}


# ======================================================================
#  greens
# ======================================================================

class TestGreensCommand:
    def test_dirichlet_vanishes_at_origin(self, capsys):
        code, out, _ = run(capsys, "greens", "--bc", "dirichlet",
                           "--kappa", "1", "--x", "0", "--y", "2")
        assert code == 0
        assert as_complex(json.loads(out)["value"]) == 0

    def test_point_value_is_bitwise_library_value(self, capsys):
        code, out, _ = run(capsys, "greens", "--bc", "dirichlet",
                           "--point", "0.5,-2.0", "--kappa", "1",
                           "--x", "1", "--y", "1")
        assert code == 0
        kernel = halfline_kernel(HalflineBC.dirichlet(),
                                 [PointInteraction(0.5, -2.0)], 1.0)
        assert as_complex(json.loads(out)["value"]).real == kernel(1.0, 1.0)

    def test_plain_emission(self, capsys):
        code, out, _ = run(capsys, "greens", "--bc", "neumann",
                           "--kappa", "1", "--x", "1", "--y", "2",
                           "--emit", "plain")
        assert code == 0
        expected = halfline_kernel(HalflineBC.neumann(), [], 1.0)(1.0, 2.0)
        assert float(out.strip()) == expected

    def test_point_of_three_fields_exits_3(self, capsys):
        code, out, err = run(capsys, "greens", "--bc", "dirichlet",
                             "--point", "1,2,3", "--kappa", "1", "--x", "1",
                             "--y", "2")
        assert (code, out) == (3, "")
        assert "cannot parse point '1,2,3'; expected A,C" in err

    def test_grid_csv(self, capsys):
        code, out, _ = run(capsys, "greens", "--bc", "robin:1.5",
                           "--kappa", "1", "--grid", "4,30")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "x,y,re,im"
        assert len(lines) == 1 + 32 * 32
        x, y, re, im = (float(v) for v in lines[1].split(","))
        assert (x, y, im) == (0.0, 0.0, 0.0)

    def test_grid_csv_includes_point_interactions(self, capsys):
        code, out, _ = run(capsys, "greens", "--bc", "dirichlet",
                           "--point", "1.0,-2.0", "--kappa", "1",
                           "--grid", "4,30")
        assert code == 0
        lines = out.strip().splitlines()
        kernel = halfline_kernel(HalflineBC.dirichlet(),
                                 [PointInteraction(1.0, -2.0)], 1.0)
        x, y, re, _ = (float(v) for v in lines[-1].split(","))
        assert (x, y) == (4.0, 4.0)
        assert re == kernel(4.0, 4.0)

    def test_grid_csv_bytes_at_benchmark_size(self, monkeypatch):
        # the per-row format the CSV is defined by, at 402 x 402 nodes
        writes = []
        monkeypatch.setattr(sys, "stdout",
                            SimpleNamespace(write=writes.append))
        code = main(["greens", "--bc", "robin:0.7", "--kappa", "1.3",
                     "--point", "0.5,-2", "--point", "1.5,inf",
                     "--grid", "12,400"])
        assert code == 0
        # the header, then one write per outer node and never the whole
        # CSV at once
        assert len(writes) == 1 + 402
        out = "".join(writes)
        kernel = halfline_kernel(HalflineBC.robin(0.7),
                                 [PointInteraction(0.5, -2.0),
                                  PointInteraction(1.5, math.inf)], 1.3)
        nodes = GridSpec(12.0, 400).boundary_nodes()
        expected = ["x,y,re,im\n"]
        for x in nodes:
            for y in nodes:
                expected.append(f"{x:.17g},{y:.17g},{kernel(x, y):.17g},0\n")
        assert out == "".join(expected)

    @pytest.mark.parametrize("bc", ["robin:0.7", "dirichlet", "neumann"])
    def test_grid_csv_matches_the_per_entry_format(self, capsys, bc):
        # the CSV formats G(x, y) once and reuses it for G(y, x); the
        # reference is the per-entry loop of the scalar kernel, on a
        # screened grid with two points, symmetric bit for bit
        points = ("0.5,-2", "2.5,0.8", "6,inf")
        code, out, _ = run(capsys, "greens", "--bc", bc, "--kappa", "1.3",
                           *(f for p in points for f in ("--point", p)),
                           "--grid", "12,120")
        assert code == 0
        vertex = {"robin:0.7": HalflineBC.robin(0.7),
                  "dirichlet": HalflineBC.dirichlet(),
                  "neumann": HalflineBC.neumann()}[bc]
        kernel = halfline_kernel(
            vertex, [PointInteraction(*map(float, p.split(",")))
                     for p in points], 1.3)
        nodes = GridSpec(12.0, 120).boundary_nodes()
        values = [[kernel(x, y) for y in nodes] for x in nodes]
        assert values == [list(column) for column in zip(*values)]
        labels = [f"{v:.17g}" for v in nodes]
        expected = "x,y,re,im\n" + "".join(
            "".join(f"{xs},{ys},{v:.17g},0\n"
                    for ys, v in zip(labels, row))
            for xs, row in zip(labels, values))
        # lines, so that a failure names the first one that differs
        # instead of diffing two long texts
        assert out.splitlines() == expected.splitlines()
        assert out == expected

    @pytest.mark.parametrize("flags, named", [
        (("--x", "1"), "--x"), (("--y", "2"), "--y"),
        (("--emit", "plain"), "--emit"), (("--emit", "json"), "--emit"),
        (("--x", "1", "--y", "2", "--emit", "plain"), "--x, --y, --emit")])
    def test_grid_takes_no_point_flags(self, capsys, flags, named):
        # the CSV ignored --x, --y and --emit and exited 0
        code, out, err = run(capsys, "greens", "--bc", "dirichlet",
                             "--kappa", "1", "--grid", "12,20", *flags)
        assert (code, out) == (2, "")
        assert err == f"error: greens --grid takes no {named}\n"

    @pytest.mark.parametrize("flags", [
        ("--bc", "robin:-1", "--kappa", "1", "--grid", "12,400"),
        ("--bc", "neumann", "--kappa", "1", "--grid", "12"),
        ("--bc", "neumann", "--kappa", "1", "--grid", "12,8"),
        ("--bc", "neumann", "--kappa", "1", "--grid", "0,400"),
    ], ids=["pole", "no-n", "n-below-16", "zero-length"])
    def test_grid_csv_is_all_or_nothing(self, capsys, flags):
        # a pole (Robin(-1) has its bound state at kappa = 1) or a bad
        # grid exits 3 before the header: no partial CSV
        code, out, err = run(capsys, "greens", *flags)
        assert (code, out) == (3, "")
        assert err.startswith("error: ")

    def test_two_screens_at_one_position_are_one_screen(self, capsys):
        # this exited 3 with a false "eigenvalue of the perturbed operator"
        flags = ("--bc", "dirichlet", "--kappa", "1", "--x", "0.5",
                 "--y", "0.5")
        code, out, _ = run(capsys, "greens", *flags, "--point", "1,inf",
                           "--point", "1,inf")
        assert code == 0
        _, one, _ = run(capsys, "greens", *flags, "--point", "1,inf")
        assert json.loads(out)["value"] == json.loads(one)["value"]

    @pytest.mark.parametrize("point", ["1,inf", "1,5", "0.3,-2"])
    def test_points_lift_the_vertex_bound_state(self, capsys, point):
        # Robin(-1) has its bound state at kappa = 1, the star with the
        # point has none there; this exited 3 from a vertex guard that ran
        # before the points entered
        code, out, _ = run(capsys, "greens", "--bc", "robin:-1", "--point",
                           point, "--kappa", "1", "--x", "0.5", "--y", "0.7")
        assert code == 0
        kernel = halfline_kernel(HalflineBC.robin(-1.0), [PointInteraction(
            *(float(v) for v in point.split(",")))], 1.0)
        assert as_complex(json.loads(out)["value"]) == kernel(0.5, 0.7)

    def test_robin_pole_exits_3(self, capsys):
        code, _, err = run(capsys, "greens", "--bc", "robin:-1",
                           "--kappa", "1", "--x", "1", "--y", "1")
        assert code == 3
        assert "pole" in err.lower()

    def test_missing_coordinates_is_usage_error(self, capsys):
        code, _, _ = run(capsys, "greens", "--bc", "dirichlet",
                         "--kappa", "1")
        assert code == 2

    def test_malformed_bc_string_fails(self, capsys):
        code, _, _ = run(capsys, "greens", "--bc", "robin",
                         "--kappa", "1", "--x", "1", "--y", "1")
        assert code == 3


# ======================================================================
#  converge
# ======================================================================

class TestConvergeCommand:
    def test_csv_columns_and_trailing_fit(self, capsys):
        code, out, _ = run(capsys, "converge", "--family", "delta-prime-s",
                           "--n", "2", "--beta", "1",
                           "--a-list", "0.01,0.003,0.001",
                           "--grid", "12,200")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "a,b,c,per_channel_b,norm_sym,norm_comp,norm_total"
        rows = [line.split(",") for line in lines[1:4]]
        totals = [float(r[6]) for r in rows]
        assert totals[0] > totals[1] > totals[2]
        fit = json.loads(lines[4])
        assert 0.75 <= fit["fitted_slope"] <= 1.25

    def test_json_emission_matches_library(self, capsys):
        code, out, _ = run(capsys, "converge", "--family", "delta-prime",
                           "--n", "3", "--beta", "-0.5",
                           "--a-list", "0.01,0.001", "--grid", "12,200",
                           "--emit", "json")
        assert code == 0
        doc = json.loads(out)
        rep = convergence_sweep("delta_prime", -0.5, 3, 1.0, [0.01, 0.001],
                                GridSpec(12.0, 200))
        assert doc["fitted_slope"] == rep.fitted_slope
        assert [s["norm_total"] for s in doc["stages"]] \
            == [s.norm_total for s in rep.stages]

    def test_single_stage_has_null_slope(self, capsys):
        code, out, _ = run(capsys, "converge", "--family", "delta-prime-s",
                           "--n", "2", "--beta", "1", "--a-list", "0.1",
                           "--grid", "12,200", "--emit", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["fitted_slope"] is None

    def test_pole_stage_exits_4_with_partial_report(self, capsys):
        code, out, err = run(capsys, "converge", "--family", "delta-prime-s",
                             "--n", "2", "--beta", "-2",
                             "--a-list", "0.01,0.001", "--grid", "12,200",
                             "--emit", "json")
        assert code == 4
        doc = json.loads(out)
        assert all(not s["valid"] for s in doc["stages"])
        assert all(s["norm_total"] is None for s in doc["stages"])
        assert "pole" in err.lower()

    def test_dirichlet_base_at_large_kappa_has_no_pole(self, capsys):
        # the complement sector's Dirichlet base has no bound state, but
        # the guard |p kappa + q| < tol hypot(p, q) hypot(1, kappa) tripped
        # on it for kappa above about 1e10, and this run exited 4
        code, out, err = run(capsys, "converge", "--family",
                             "delta-prime-s", "--n", "2", "--beta", "1",
                             "--kappa", "1e12",
                             "--a-list", "1e-9,1e-10,1e-11")
        assert (code, err) == (0, "")
        assert len(out.splitlines()) == 5 and "nan" not in out


# ======================================================================
#  oracle-check
# ======================================================================

class TestOracleCheckCommand:
    def test_halfline_within_budget(self, capsys):
        code, out, _ = run(capsys, "oracle-check", "--bc", "dirichlet",
                           "--kappa", "1", "--h", "0.008")
        assert code == 0
        doc = json.loads(out)
        assert doc["ok"] is True
        assert doc["max_abs"] <= doc["budget"]

    def test_robin_scaled_with_point(self, capsys):
        code, out, _ = run(capsys, "oracle-check", "--bc",
                           "robin-scaled:2:1", "--point", "0.96,-1.0",
                           "--kappa", "1", "--h", "0.008")
        assert code == 0
        assert json.loads(out)["ok"] is True

    def test_order_check_ratio(self, capsys):
        code, out, _ = run(capsys, "oracle-check", "--bc", "neumann",
                           "--kappa", "1", "--h", "0.012", "--order-check")
        assert code == 0
        ratio = json.loads(out)["order_check"]["ratio"]
        assert 3.0 <= ratio <= 5.0

    def test_star_target_within_budget(self, capsys):
        code, out, _ = run(capsys, "oracle-check", "--star-family",
                           "delta-prime-s", "--n", "2", "--beta", "1.3",
                           "--kappa", "1", "--h", "0.008")
        assert code == 0
        assert json.loads(out)["ok"] is True

    def test_star_approximant_within_budget(self, capsys):
        code, out, _ = run(capsys, "oracle-check", "--star-family",
                           "central-delta", "--n", "2", "--b", "-8",
                           "--point", "0.96,-4.0", "--kappa", "1",
                           "--h", "0.008")
        assert code == 0
        assert json.loads(out)["ok"] is True

    @pytest.mark.parametrize("flags,h", [
        (("--bc", "neumann"), "1e-5"),
        (("--bc", "robin:0.7", "--point", "0.96,-1.0"), "3e-5"),
        (("--star-family", "delta-prime-s", "--n", "2", "--beta", "1.3"),
         "1e-5"),
        (("--star-family", "central-delta", "--n", "3", "--b", "-8",
          "--point", "0.96,-4.0"), "1e-5"),
    ], ids=["half-neumann", "half-robin-point", "star-target",
            "star-approximant"])
    def test_fine_mesh_within_budget_of_screened_kernel(self, capsys, flags,
                                                        h):
        # the grid's Dirichlet node at L moves the kernel at x = y = L / 4
        # by about e^{-18} / 2 = 7.6e-9, more than 50 h^2 = 5e-9 at
        # h = 1e-5: the closed form compared is screened at L as well
        code, out, _ = run(capsys, "oracle-check", *flags, "--kappa", "1",
                           "--h", h)
        assert code == 0
        doc = json.loads(out)
        assert doc["ok"] is True
        assert doc["max_abs"] <= doc["budget"]

    def test_over_budget_prints_its_report_and_exits_3(self, capsys):
        # robin:-1.001 has its bound state at kappa = 1.001, so at kappa = 1
        # the kernel is large and its O(h^2) error at h = 0.05 far past the
        # budget 50 h^2: measured max_abs 175.2 against 0.125
        code, out, err = run(capsys, "oracle-check", "--bc", "robin:-1.001",
                             "--kappa", "1", "--h", "0.05")
        assert code == 3
        doc = json.loads(out)
        assert doc["ok"] is False
        assert doc["budget"] == pytest.approx(0.125)
        assert doc["max_abs"] > 100.0 * doc["budget"]
        assert err == (f"error: max error {doc['max_abs']:.3e} exceeds "
                       f"budget {doc['budget']:.3e}\n")

    def test_star_target_missing_beta_fails(self, capsys):
        code, _, _ = run(capsys, "oracle-check", "--star-family",
                         "delta-prime", "--n", "2", "--kappa", "1",
                         "--h", "0.01")
        assert code == 3

    def test_requires_exactly_one_mode(self, capsys):
        code, _, _ = run(capsys, "oracle-check", "--kappa", "1",
                         "--h", "0.01")
        assert code == 3
        code, _, _ = run(capsys, "oracle-check", "--bc", "dirichlet",
                         "--star-family", "delta-prime-s", "--kappa", "1",
                         "--h", "0.01")
        assert code == 3


class TestOracleCheckStarFlags:
    """Star mode builds one StarModel from every star flag, so a flag the
    model's kind does not take is an error, never silently dropped."""

    @pytest.mark.parametrize("flags", [
        ("delta-prime-s", "--beta", "1", "--point", "0.5,-2"),
        ("delta-prime", "--beta", "1", "--b", "7"),
        ("central-delta", "--b", "-8", "--beta", "1"),
        ("central-delta", "--b", "-8", "--point", "0.5,-2",
         "--point", "0.7,-1"),
    ])
    def test_flag_the_model_does_not_take_exits_3(self, capsys, flags):
        code, out, err = run(capsys, "oracle-check", "--star-family", *flags,
                             "--n", "2", "--h", "0.02")
        assert code == 3
        assert out == ""
        assert err.startswith("error: ")

    def test_edge_count_defaults_to_two(self, capsys):
        code, out, _ = run(capsys, "oracle-check", "--star-family",
                           "delta-prime-s", "--beta", "1", "--h", "0.02")
        assert code == 0
        assert json.loads(out)["n"] == 2


class TestOracleCheckHalflineFlags:
    """Half-line mode (--bc) has no star model: --n, --beta and --b are
    errors there, never silently dropped."""

    @pytest.mark.parametrize("flags", [
        ("--n", "2"), ("--beta", "2"), ("--b", "7"),
        ("--b", "7", "--beta", "2", "--n", "5"),
    ])
    def test_star_flag_exits_3(self, capsys, flags):
        code, out, err = run(capsys, "oracle-check", "--bc", "dirichlet",
                             *flags, "--h", "0.02")
        assert code == 3
        assert out == ""
        assert err.startswith("error: ")
        assert all(flag in err for flag in flags[::2])


class TestOracleCheckMeshWidth:
    @pytest.mark.parametrize("h", ["0", "-0.01", "nan", "inf"])
    def test_inadmissible_h_exits_3(self, capsys, h):
        code, out, err = run(capsys, "oracle-check", "--bc", "dirichlet",
                             "--h", h)
        assert code == 3
        assert out == ""
        assert err.startswith("error: --h ")

    def test_infinite_length_exits_3(self, capsys):
        code, out, err = run(capsys, "oracle-check", "--bc", "dirichlet",
                             "--h", "0.01", "--L", "inf")
        assert code == 3
        assert out == ""
        assert err.startswith("error: --L ")


class TestOracleCheckGridBound:
    """The FD grid holds at most MAX_FD_UNKNOWNS unknowns; a finer --h
    exits 3 naming the grid, before any allocation or pole guard."""

    @pytest.mark.parametrize("h,big_n", [("1e-7", 119999999),
                                          ("1e-300", None)])
    def test_too_fine_grid_exits_3(self, capsys, h, big_n):
        code, out, err = run(capsys, "oracle-check", "--bc", "dirichlet",
                             "--h", h)
        assert code == 3
        assert out == ""
        assert err.startswith("error: finite-difference grid too fine: N = ")
        assert f"n = 1 edges (h = {float(h):.6g})" in err
        if big_n is not None:
            assert f"N = {big_n} " in err

    def test_star_grid_counts_every_edge(self, capsys):
        # N = 1.2e6 per edge is inside the bound for one edge, not for four
        code, out, err = run(capsys, "oracle-check", "--star-family",
                             "delta-prime-s", "--beta", "1", "--n", "4",
                             "--h", "1e-5")
        assert code == 3
        assert out == ""
        assert "grid too fine: N = 1199999 nodes on each of n = 4" in err

    def test_overflowing_steps_exit_3(self, capsys):
        code, out, err = run(capsys, "oracle-check", "--bc", "dirichlet",
                             "--h", "1e-310")
        assert code == 3
        assert out == ""
        assert err.startswith("error: --h 1e-310 is too small")


GOLDEN = Path(__file__).parent / "golden"


class TestGoldenStdout:
    """Byte-exact stdout of one invocation per serializing subcommand,
    kept in tests/golden: the float format, the field order, "inf" for
    infinite parameters and {"re", "im"} for complex entries."""

    @pytest.mark.parametrize("name,argv", [
        ("coupling", ("coupling", "--family", "delta-prime", "--n", "2",
                      "--param", "1.5", "--to-ab", "--validate",
                      "--rescale", "1", "2.5")),
        ("greens", ("greens", "--bc", "robin:0.7", "--kappa", "1.3",
                    "--x", "0.3", "--y", "0.45", "--point", "0.5,inf",
                    "--point", "0.2,-3")),
        ("greens_grid", ("greens", "--bc", "robin-scaled:3:0.8",
                         "--kappa", "1.1", "--point", "0.25,-4",
                         "--grid", "2,16")),
        ("converge", ("converge", "--family", "delta-prime", "--n", "3",
                      "--beta", "0.8", "--kappa", "1.2",
                      "--a-list", "0.1,0.03,0.01", "--emit", "json")),
    ])
    def test_stdout_is_pinned(self, capsys, name, argv):
        code, out, _ = run(capsys, *argv)
        assert code == 0
        assert out == (GOLDEN / f"{name}.txt").read_text()

    def test_oracle_check_stdout_is_pinned(self, capsys):
        # the six oracle-check runs of the CI smoke step, one line each:
        # the FD values' rounding shows in max_abs and rms
        runs = ("--bc robin-scaled:2:1 --kappa 1 --h 0.01",
                "--bc robin:0.7 --point 1.2,0.5 --point 2.4,-0.3 --kappa 1.2 "
                "--h 0.01 --order-check",
                "--star-family delta-prime-s --n 2 --beta 1.3 --kappa 1 "
                "--h 0.01 --order-check",
                "--star-family central-delta-p --n 3 --b 0.4 --point "
                "2.01,0.7 --kappa 1.4 --h 0.01 --order-check",
                "--star-family delta-prime-s --n 2000 --beta 1.3 --h 0.03",
                "--bc robin:-1 --point 1.2,5 --kappa 1 --h 0.01")
        outs = []
        for argv in runs:
            code, out, _ = run(capsys, "oracle-check", *argv.split())
            assert code == 0
            outs.append(out)
        assert "".join(outs) == (GOLDEN / "oracle_check.txt").read_text()

    def test_converge_sweeps_stdout_is_pinned(self, capsys):
        # converge --emit json, one line per run: both families at n = 1,
        # 2, 5 with beta < 0, kappa 0.5, 2 and 30 and a down to 1e-6 (0.26
        # and 0.24 straddle the series switch at kappa a = 1/2 for
        # kappa = 2), then a stage on each pole guard, which exits 4: the
        # target (beta = -n / kappa), the base Robin kernel, and the Krein
        # denominator (beta of test_convergence's _krein_pole_beta(2, 0.1))
        runs = (("delta-prime-s --n 1 --beta -0.5 --kappa 0.5 --a-list "
                 "0.1,0.01,0.001,1e-4,1e-5,1e-6", 0),
                ("delta-prime-s --n 2 --beta -0.7 --kappa 2 --a-list "
                 "0.26,0.24,0.1,0.01,0.001,1e-6", 0),
                ("delta-prime-s --n 5 --beta -3 --kappa 30 --a-list "
                 "0.1,0.01,0.001,1e-4,1e-5,1e-6 --grid 5,100", 0),
                ("delta-prime --n 1 --beta -1.5 --kappa 2 --a-list "
                 "0.26,0.24,0.01,1e-4,1e-6", 0),
                ("delta-prime --n 2 --beta -0.3 --kappa 30 --a-list "
                 "0.1,0.01,0.001,1e-4,1e-5,1e-6", 0),
                ("delta-prime --n 5 --beta -2.5 --kappa 0.5 --a-list "
                 "0.1,0.01,0.001,1e-4,1e-5,1e-6", 0),
                ("delta-prime-s --n 2 --beta -4 --kappa 0.5 --a-list "
                 "0.1,0.01,0.001", 4),
                ("delta-prime --n 5 --beta -2.5 --kappa 2 --a-list "
                 "0.1,0.01", 4),
                ("delta-prime-s --n 2 --beta 0.02 --kappa 1 --a-list "
                 "0.1,0.01,0.001", 4),
                ("delta-prime-s --n 2 --beta -1.728420364454873 --kappa 1 "
                 "--a-list 0.1,0.01,0.001", 4))
        outs = []
        for argv, want in runs:
            code, out, _ = run(capsys, "converge", "--family",
                               *argv.split(), "--emit", "json")
            assert code == want, argv
            outs.append(out)
        assert "".join(outs) == (GOLDEN / "converge_sweeps.txt").read_text()


class TestDumps:
    """numpy scalars and arrays serialize as they always have, without
    the serializer naming numpy: the strings are pinned."""

    @pytest.mark.parametrize("value, text", [
        (np.float32(0.1), "0.10000000149011612"),
        (np.float32("inf"), '"inf"'),
        (np.int64(-7), "-7"),
        (np.complex64(0.1 - 2.5j), '{"re": 0.10000000149011612, "im": -2.5}'),
        (np.array(2.5), "2.5"),
        (np.array(np.int64(3)), "3"),
        (np.array([[1 + 0.1j, np.nan], [np.inf, -0.0]]),
         '[[{"re": 1, "im": 0.10000000000000001}, {"re": null, "im": 0}], '
         '[{"re": "inf", "im": 0}, {"re": -0, "im": 0}]]'),
    ], ids=repr)
    def test_numpy_values(self, value, text):
        assert _dumps(value) == text


#: characters json.dumps escapes or keeps: quotes, backslashes, control
#: characters, DEL, non-ASCII (lone surrogates included) and astral ones
_CHARACTERS = st.one_of(
    st.sampled_from('"\\/\b\f\n\r\t\x00\x1f\x7f\x80\xa0\u2028\ud800'
                    '\U0001f600'),
    st.characters(max_codepoint=0x7f),
    st.characters(exclude_categories=()))
_TEXT = st.text(_CHARACTERS, max_size=12)

#: what json.dumps and the CLI write alike: no float, whose digits differ
_PLAIN = st.recursive(
    st.none() | st.booleans() | st.integers() | _TEXT,
    lambda inner: st.lists(inner, max_size=4)
    | st.lists(inner, max_size=4).map(tuple)
    | st.dictionaries(_TEXT, inner, max_size=4),
    max_leaves=12)


def _complex_as_dict(obj):
    """obj with each complex z replaced by {"re": z.real, "im": z.imag}."""
    if isinstance(obj, complex):
        return {"re": obj.real, "im": obj.imag}
    if isinstance(obj, dict):
        return {k: _complex_as_dict(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_complex_as_dict(v) for v in obj]
    return obj


class TestJsonText:
    """Strings are written as json.dumps writes them, with json loaded
    only for a string that is not printable ASCII free of quotes and
    backslashes; a complex is written in one step, as its dict was."""

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(text=_TEXT)
    def test_strings_are_json_dumps(self, text):
        assert _string(text) == json.dumps(text)
        assert _dumps(text) == json.dumps(text)

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(value=_PLAIN)
    def test_nested_values_are_json_dumps(self, value):
        assert _dumps(value) == json.dumps(value)

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(value=st.recursive(
        st.complex_numbers() | st.floats() | _TEXT,
        lambda inner: st.lists(inner, max_size=4)
        | st.dictionaries(_TEXT, inner, max_size=4), max_leaves=10))
    def test_complex_values_are_their_dicts(self, value):
        assert _dumps(value) == _dumps(_complex_as_dict(value))

    def test_plain_strings_load_no_json(self, monkeypatch):
        monkeypatch.setitem(sys.modules, "json", None)
        assert _dumps({"bc": "robin-scaled:2:1", "family": "delta-prime",
                       "points": [{"a": 0.5, "c": -2.0}], "ok": True,
                       "value": complex(1.5, -0.0), "": " ~"}) \
            == ('{"bc": "robin-scaled:2:1", "family": "delta-prime", '
                '"points": [{"a": 0.5, "c": -2}], "ok": true, '
                '"value": {"re": 1.5, "im": -0}, "": " ~"}')
        for text in ('"', "\\", "\n", "\x7f", "\xe9"):
            with pytest.raises(ImportError):
                _string(text)


# ======================================================================
#  determinism
# ======================================================================

class TestDeterminism:
    def test_repeated_runs_are_byte_identical(self, capsys):
        argv = ("smatrix", "--family", "delta-prime", "--n", "3",
                "--param", "0.7", "--k", "2.25")
        _, first, _ = run(capsys, *argv)
        _, second, _ = run(capsys, *argv)
        assert first == second

    def test_converge_runs_are_byte_identical(self, capsys):
        argv = ("converge", "--family", "delta-prime-s", "--n", "2",
                "--beta", "1", "--a-list", "0.01,0.001", "--grid", "12,100")
        _, first, _ = run(capsys, *argv)
        _, second, _ = run(capsys, *argv)
        assert first == second

    def test_floats_carry_17_significant_digits(self, capsys):
        _, out, _ = run(capsys, "greens", "--bc", "neumann", "--kappa", "1",
                        "--x", "0.1", "--y", "0.2", "--emit", "plain")
        value = float(out.strip())
        kernel = halfline_kernel(HalflineBC.neumann(), [], 1.0)
        assert value == kernel(0.1, 0.2)  # .17g round-trips float64 exactly

    def test_nan_free_json(self, capsys):
        _, out, _ = run(capsys, "converge", "--family", "delta-prime-s",
                        "--n", "2", "--beta", "-2", "--a-list", "0.01",
                        "--grid", "12,100", "--emit", "json")
        assert "NaN" not in out and "nan" not in out
        json.loads(out)  # must stay strictly parseable


# ======================================================================
#  import layer
# ======================================================================

# Loads the package and runs the subcommands ARGVS in one process, printing
# after each step a JSON line [label, exit code, the loaded modules named
# PREFIX or PREFIX.*].
_MODULE_PROBE = """
import contextlib, io, json, sys

prefix, argvs = sys.argv[1], json.loads(sys.argv[2])

def report(label, code=0):
    names = sorted(m for m in sys.modules
                   if m == prefix or m.startswith(prefix + "."))
    print(json.dumps([label, code, names]))

import starcouplings
report("import starcouplings")
import starcouplings.cli as cli
report("import starcouplings.cli")
for argv in argvs:
    with contextlib.redirect_stdout(io.StringIO()), \\
            contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    report(" ".join(argv), code)
"""


def _child_env() -> dict:
    """The environment of a child interpreter that imports this package."""
    src = os.path.dirname(os.path.dirname(starcouplings.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    return env


def _module_probe(prefix: str, argvs) -> list[tuple[str, int, list]]:
    """(label, exit code, loaded modules of ``prefix``) after importing
    the package, its CLI, and after each of ``argvs``, all in one fresh
    interpreter."""
    out = subprocess.run(
        [sys.executable, "-c", _MODULE_PROBE, prefix, json.dumps(argvs)],
        env=_child_env(), capture_output=True, text=True, check=True,
        timeout=120)
    return [tuple(json.loads(line)) for line in out.stdout.splitlines()]


#: one argv per subcommand, greens with --x --y and with --grid
_SUBCOMMAND_ARGVS = [
    ["coupling", "--family", "delta-prime", "--n", "3", "--param", "1.5",
     "--to-ab", "--validate", "--rescale", "1", "2.5"],
    ["smatrix", "--family", "delta", "--n", "3", "--param", "0.7",
     "--k", "1.5"],
    ["greens", "--bc", "robin:0.7", "--kappa", "1.3", "--x", "0.3",
     "--y", "0.45", "--point", "0.2,-3"],
    ["greens", "--bc", "dirichlet", "--kappa", "1", "--grid", "4,30"],
    ["converge", "--family", "delta-prime-s", "--n", "3", "--beta", "1",
     "--a-list", "0.1,0.03,0.01"],
    ["oracle-check", "--bc", "dirichlet", "--h", "0.05"],
]

#: a family's matrices from their two entries: S_U(k), U with (A, B)
#: rescaled, the same with the closed-form diagnostics of --validate, and
#: U of one edge
_FAMILY_ARGVS = [
    ["smatrix", "--family", "delta", "--n", "3", "--param", "0.7",
     "--k", "1.5"],
    ["coupling", "--family", "delta-prime", "--n", "3", "--param", "1.5",
     "--to-ab", "--rescale", "1", "2.5"],
    _SUBCOMMAND_ARGVS[0],
    ["coupling", "--family", "delta-p", "--n", "1", "--param=-inf"],
]

#: the grid runs of the CI smoke step, the second with a screen
_GRID_ARGVS = [
    ["greens", "--bc", "robin-scaled:2:1", "--point", "0.5,-2.0",
     "--kappa", "1", "--grid", "12,40"],
    ["greens", "--bc", "robin:0.7", "--point", "1.2,0.5", "--point",
     "2.4,inf", "--kappa", "1.2", "--grid", "4,30"],
]

#: subcommands that compute in floats, and their exit codes: the sweep
#: with valid stages, with stages on the target pole and on a base pole,
#: and with one stage (no slope), the kernel at one point and on a grid
#: (with a screen, and on a pole), the FD oracle in both modes, a family's
#: matrices and a refused momentum
_FLOAT_ONLY_ARGVS = [
    (["converge", "--family", "delta-prime-s", "--n", "3", "--beta", "1",
      "--a-list", "0.1,0.03,0.01"], 0),
    (["converge", "--family", "delta-prime", "--n", "3", "--beta", "0.8",
      "--kappa", "1.2", "--a-list", "0.1,0.03,0.01", "--emit", "json"], 0),
    (["converge", "--family", "delta-prime-s", "--n", "2", "--beta", "-2",
      "--kappa", "1", "--a-list", "0.1,0.01"], 4),
    (["converge", "--family", "delta-prime-s", "--n", "2", "--beta",
      "0.02", "--a-list", "0.1,0.01"], 4),
    (["converge", "--family", "delta-prime-s", "--n", "1", "--beta", "1",
      "--a-list", "0.01", "--emit", "json"], 0),
    (["greens", "--bc", "robin:0.7", "--kappa", "1.3", "--x", "0.3",
      "--y", "0.45", "--point", "0.2,-3"], 0),
    (["greens", "--bc", "neumann", "--kappa", "1", "--x", "0.1", "--y",
      "0.2", "--emit", "plain"], 0),
    (["greens", "--bc", "robin:-1", "--point", "1,inf", "--kappa", "1",
      "--x", "0.5", "--y", "1.7"], 0),
    (_SUBCOMMAND_ARGVS[3], 0),
    (_GRID_ARGVS[1], 0),
    (["greens", "--bc", "robin:-1", "--kappa", "1", "--grid", "4,30"], 3),
    (["oracle-check", "--bc", "robin:0.7", "--point", "1.2,0.5", "--point",
      "2.4,-0.3", "--kappa", "1.2", "--h", "0.05", "--order-check"], 0),
    (["oracle-check", "--star-family", "central-delta-p", "--n", "3",
      "--b", "0.4", "--point", "2.01,0.7", "--kappa", "1.4", "--h", "0.05",
      "--order-check"], 0),
    *((argv, 0) for argv in _FAMILY_ARGVS),
    (["smatrix", "--family", "delta", "--n", "2", "--param", "0", "--k",
      "-1"], 3),
]

#: runs the CLI on its arguments with numpy blocked
_NUMPY_BLOCKED = ("import sys; sys.modules['numpy'] = None; "
                  "from starcouplings.cli import main; "
                  "sys.exit(main(sys.argv[1:]))")


#: runs the CLI on each run of its arguments (runs split at ";") and
#: prints each exit code and which of json, numbers and cmath were loaded
#: after it, all read before json is imported to print them
_STDLIB_PROBE = """
import contextlib, io, sys
steps, argv = [], []
for arg in [*sys.argv[1:], ";"]:
    if arg != ";":
        argv.append(arg)
        continue
    from starcouplings.cli import main
    with contextlib.redirect_stdout(io.StringIO()), \\
            contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    steps.append([code, [m for m in ("json", "numbers", "cmath")
                         if m in sys.modules]])
    argv = []
import json
print(json.dumps(steps))
"""


#: one argv per subcommand, the package modules it loads besides coupling
#: and errors
_PACKAGE_MODULES = [
    (_FAMILY_ARGVS[1], []),
    (_SUBCOMMAND_ARGVS[0], []),
    (_FAMILY_ARGVS[0], ["scattering"]),
    (_FAMILY_ARGVS[3], []),
    (_SUBCOMMAND_ARGVS[2], ["greens"]),
    (_SUBCOMMAND_ARGVS[3], ["greens"]),
    (_SUBCOMMAND_ARGVS[4], ["convergence"]),
    (_SUBCOMMAND_ARGVS[5], ["finite_difference", "greens", "scattering"]),
    (["oracle-check", "--star-family", "central-delta-p", "--n", "3", "--b",
      "0.4", "--point", "2.01,0.7", "--kappa", "1.4", "--h", "0.05"],
     ["finite_difference", "greens", "scattering"]),
]


class TestImportLayer:
    """The package, its CLI and every subcommand, the finite-difference
    oracle included, run without scipy; no subcommand loads numpy at
    all: each computes in floats."""

    def test_numpy_only_subcommands_load_no_scipy(self):
        steps = _module_probe("scipy", _SUBCOMMAND_ARGVS)
        assert len(steps) == 2 + len(_SUBCOMMAND_ARGVS)
        assert [names for _, _, names in steps] == [[]] * len(steps), steps
        assert [code for _, code, _ in steps] == [0] * len(steps)

    def test_imports_load_no_numpy(self):
        assert [(label, names) for label, _, names
                in _module_probe("numpy", [])] \
            == [("import starcouplings", []),
                ("import starcouplings.cli", [])]

    @pytest.mark.parametrize("argv, code", _FLOAT_ONLY_ARGVS,
                             ids=[" ".join(a) for a, _ in _FLOAT_ONLY_ARGVS])
    def test_float_subcommands_load_no_numpy(self, argv, code):
        # one fresh interpreter per subcommand
        *_, (_, got, names) = _module_probe("numpy", [argv])
        assert (got, names) == (code, [])

    def test_no_subcommand_loads_numpy(self):
        # every subcommand, in one fresh interpreter
        steps = _module_probe("numpy", _SUBCOMMAND_ARGVS)
        assert {argv[0] for argv in _SUBCOMMAND_ARGVS} == {
            "coupling", "smatrix", "greens", "converge", "oracle-check"}
        assert [(code, names) for _, code, names in steps] \
            == [(0, [])] * (2 + len(_SUBCOMMAND_ARGVS))

    @pytest.mark.parametrize("argv", _FAMILY_ARGVS,
                             ids=[" ".join(a) for a in _FAMILY_ARGVS])
    def test_family_matrices_print_the_same_with_numpy_blocked(
            self, capsys, argv):
        blocked = subprocess.run(
            [sys.executable, "-c", _NUMPY_BLOCKED, *argv], env=_child_env(),
            capture_output=True, text=True, timeout=120)
        assert (blocked.returncode, blocked.stderr) == (0, "")
        assert blocked.stdout == run(capsys, *argv)[1]

    @pytest.mark.parametrize("argv", _GRID_ARGVS, ids=["points", "screen"])
    def test_grid_csv_prints_the_same_with_numpy_blocked(self, capsys, argv):
        blocked = subprocess.run(
            [sys.executable, "-c", _NUMPY_BLOCKED, *argv], env=_child_env(),
            capture_output=True, text=True, timeout=120)
        assert (blocked.returncode, blocked.stderr) == (0, "")
        assert blocked.stdout == run(capsys, *argv)[1]

    @pytest.mark.parametrize("prefix", ["dataclasses", "inspect"])
    def test_record_subcommands_load_no_dataclasses(self, prefix):
        # no record of the package is a dataclass, so no subcommand loads
        # dataclasses or the inspect it imports: every subcommand, greens
        # at a point and on a grid, oracle-check on a half line and on a
        # star, in one fresh interpreter
        argvs = [*_SUBCOMMAND_ARGVS, _PACKAGE_MODULES[-1][0]]
        assert [argv[0] for argv in argvs] == [
            "coupling", "smatrix", "greens", "greens", "converge",
            "oracle-check", "oracle-check"]
        assert {"--validate", "--x", "--grid", "--bc", "--star-family"} \
            <= {*argvs[0], *argvs[2], *argvs[3], *argvs[5], *argvs[6]}
        assert [(code, names) for _, code, names
                in _module_probe(prefix, argvs)] == [(0, [])] * 9

    def test_subcommands_load_no_json_numbers_or_cmath(self):
        # every subcommand, in one fresh interpreter: the coupling with
        # --to-ab --validate, greens at a point (as JSON and plain) and on
        # a grid, converge as CSV and JSON, oracle-check on a half line
        # and on a star
        argvs = [*_SUBCOMMAND_ARGVS, _PACKAGE_MODULES[-1][0],
                 _FLOAT_ONLY_ARGVS[1][0], _FLOAT_ONLY_ARGVS[6][0]]
        out = subprocess.run(
            [sys.executable, "-c", _STDLIB_PROBE,
             *[arg for argv in argvs for arg in [*argv, ";"]][:-1]],
            env=_child_env(), capture_output=True, text=True, check=True,
            timeout=120)
        assert json.loads(out.stdout) == [[0, []]] * len(argvs)

    def test_linalg_error_is_a_value_error(self):
        # main() exits 3 on ValueError without naming numpy's LinAlgError
        assert issubclass(np.linalg.LinAlgError, ValueError)

    #: the package modules that importing each module loads besides itself:
    #: coupling is the base layer, the finite-difference oracle takes
    #: nothing from the kernels it checks, and the sweep is closed-form
    IMPORT_GRAPH = {"errors": [], "coupling": ["errors"],
                    "scattering": ["coupling", "errors"],
                    "greens": ["coupling", "errors"],
                    "finite_difference": ["coupling", "errors", "scattering"],
                    "convergence": ["coupling", "errors"]}

    @pytest.mark.parametrize("module", IMPORT_GRAPH)
    def test_module_imports_load_only_their_layers(self, module):
        # one fresh interpreter per module
        probe = ("import importlib, json, sys; importlib.import_module("
                 "'starcouplings.' + sys.argv[1]); print(json.dumps(sorted("
                 "m for m in sys.modules if m.startswith('starcouplings.'))))")
        out = subprocess.run([sys.executable, "-c", probe, module],
                             env=_child_env(), capture_output=True,
                             text=True, check=True, timeout=120)
        assert json.loads(out.stdout) == sorted(
            f"starcouplings.{m}" for m in [module, *self.IMPORT_GRAPH[module]])

    @pytest.mark.parametrize("argv, loaded", _PACKAGE_MODULES,
                             ids=[" ".join(a) for a, _ in _PACKAGE_MODULES])
    def test_subcommands_load_only_the_modules_they_run(self, argv, loaded):
        # one fresh interpreter per subcommand: the package loads no module
        # of its own, the CLI coupling and errors, the subcommand the rest
        package, imported, (_, code, names) = _module_probe("starcouplings",
                                                            [argv])
        assert package[2] == ["starcouplings"]
        assert imported[2] == ["starcouplings", "starcouplings.cli",
                               "starcouplings.coupling",
                               "starcouplings.errors"]
        assert (code, names) == (0, sorted(
            ["starcouplings", "starcouplings.cli", "starcouplings.coupling",
             "starcouplings.errors"]
            + [f"starcouplings.{m}" for m in loaded]))

    @pytest.mark.parametrize("argv", [_PACKAGE_MODULES[i][0]
                                      for i in (1, 2, 4, 6, 8)],
                             ids=lambda a: a[0])
    def test_module_run_prints_what_main_prints(self, capsys, argv):
        # python -m starcouplings.cli, as the benchmark runs it: under
        # -W error, runpy's warning that the package import already loaded
        # starcouplings.cli would fail the run
        ran = subprocess.run(
            [sys.executable, "-W", "error", "-m", "starcouplings.cli", *argv],
            env=_child_env(), capture_output=True, text=True, timeout=120)
        code, out, err = run(capsys, *argv)
        assert (ran.returncode, ran.stdout, ran.stderr) == (code, out, err)

    @pytest.mark.parametrize("name, argv", [
        ("make_coupling", _PACKAGE_MODULES[0][0]),
        ("rescale_length", _PACKAGE_MODULES[0][0]),
        ("to_ab", _PACKAGE_MODULES[1][0]),
        ("validate_ab", _PACKAGE_MODULES[1][0]),
        ("halfline_kernel", _PACKAGE_MODULES[4][0]),
        ("convergence_sweep", _PACKAGE_MODULES[6][0]),
        ("fd_resolvent_halfline", _PACKAGE_MODULES[7][0]),
        ("fd_resolvent_star", _PACKAGE_MODULES[8][0]),
        ("compare_kernels", _PACKAGE_MODULES[8][0]),
    ], ids=lambda v: v if isinstance(v, str) else v[0])
    def test_a_wrapper_set_before_main_is_what_main_calls(
            self, capsys, monkeypatch, name, argv):
        # as benchmarks/cli_child.py wraps the library names of the cli
        # module: main() binds the names its subcommand reads, but never
        # over one that is set
        import starcouplings.cli as cli
        calls = []
        library = getattr(cli, name)

        def counted(*args, **kwargs):
            calls.append(name)
            return library(*args, **kwargs)
        monkeypatch.setattr(cli, name, counted)
        assert run(capsys, *argv)[0] == 0
        assert calls == [name]


# ======================================================================
#  public names
# ======================================================================

class TestPublicNames:
    def test_all_resolves_once_and_lists_no_second_spelling(self):
        names = starcouplings.__all__
        assert len(names) == len(set(names))
        for name in names:
            assert hasattr(starcouplings, name), name
        # halfline_kernel(bc, (), kappa)(x, y), halfline_kernel(bc, (p,),
        # kappa)(x, y) and StarModel(n=n, kind=family, beta=beta) replace them
        for gone in ("halfline_green", "krein_insert", "target_model"):
            assert gone not in names and not hasattr(starcouplings, gone)
        assert not hasattr(starcouplings.convergence, "target_model")
        assert not hasattr(starcouplings.greens, "_reflection")
        assert not hasattr(HalflineBC, "reflection")
        assert not hasattr(starcouplings.StarModel, "is_target")

    #: test-only oracles that left the package for tests/oracles.py, by
    #: their old module (BoundaryValues went)
    MOVED = {"convergence": ("SampledDifference", "_window_nodes",
                             "sector_difference", "effective_robin",
                             "approximant_model"),
             "greens": ("SectorSpec", "sector_decompose"),
             "coupling": ("BoundaryValues", "satisfies_vertex_condition",
                          "decoupled_projection")}

    def test_test_oracles_left_the_package(self):
        names = starcouplings.__all__
        for gone in ("SampledDifference", "SectorSpec", "BoundaryValues",
                     "approximant_model", "decoupled_projection",
                     "effective_robin", "hs_norm",
                     "satisfies_vertex_condition", "sector_decompose",
                     "sector_difference", "sector_green"):
            assert gone not in names and not hasattr(starcouplings, gone)
        for module, moved in self.MOVED.items():
            for name in moved:
                assert not hasattr(getattr(starcouplings, module), name), \
                    (module, name)

    def test_lazy_namespace_resolves_every_name(self):
        # in a fresh interpreter, after a bare import: the seven modules as
        # attributes (read first, so that no public name has loaded one),
        # the public names in dir() and bound by a star import, and each as
        # its defining module's object
        probe = """
import importlib, json, sys, types
import starcouplings
modules = sorted(m for m in sys.argv[1:]
                 if not isinstance(getattr(starcouplings, m, None),
                                   types.ModuleType)
                 or getattr(starcouplings, m)
                 is not sys.modules["starcouplings." + m])
listed = sorted(set(starcouplings.__all__) - set(dir(starcouplings)))
star = {}
exec("from starcouplings import *", star)
unbound = sorted(set(starcouplings.__all__) - set(star))
foreign = []
for name in starcouplings.__all__:
    value = getattr(starcouplings, name)
    home = importlib.import_module(value.__module__)
    if not (home.__name__.startswith("starcouplings.")
            and getattr(home, name) is value is star[name]):
        foreign.append(name)
print(json.dumps([modules, listed, unbound, foreign]))
"""
        modules = ("cli", "convergence", "coupling", "errors",
                   "finite_difference", "greens", "scattering")
        out = subprocess.run([sys.executable, "-c", probe, *modules],
                             env=_child_env(), capture_output=True,
                             text=True, check=True, timeout=120)
        assert json.loads(out.stdout) == [[], [], [], []]

    def test_patched_module_attributes_resolve(self):
        # the benchmark workloads patch these where they live
        from starcouplings import convergence, finite_difference
        assert callable(convergence.hs_norm)
        # the sweep workload patches sector_green where convergence defines
        # it; greens, which convergence no longer imports, has none
        assert convergence.sector_green.__module__ \
            == "starcouplings.convergence"
        assert not hasattr(starcouplings.greens, "sector_green")
        assert finite_difference.make_coupling \
            is starcouplings.coupling.make_coupling
        assert finite_difference.to_ab is starcouplings.coupling.to_ab
        # and the cli workload wraps these on the cli module, which none of
        # its subcommands calls: each is the package's own object
        import starcouplings.cli as cli
        for name in ("s_matrix", "star_green", "unitarity_defect"):
            assert getattr(cli, name) is getattr(starcouplings, name), name
