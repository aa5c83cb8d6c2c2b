"""Self-tests of the benchmark's own code; none of them runs the program.

    python3 benchmarks/selftest.py
"""

import json
import math
import pickle
import unittest
from collections import Counter

import numpy as np

import checks
import gen
import run
import workloads
from spans import Span, covered, self_times


def skeleton(inp):
    """The op class an input belongs to, which must not depend on the seed."""
    if isinstance(inp, gen.SpectralInput):
        if inp.family is None:
            return ("haar", inp.n)
        cls = "zero" if inp.param == 0 else (
            math.copysign(1.0, inp.param), math.isinf(inp.param))
        return (inp.family, inp.n, cls)
    if isinstance(inp, gen.SweepInput):
        return inp.grid_n
    if isinstance(inp, gen.OracleInput):
        half_points = len(inp.points) if inp.mode == "half" else None
        return (inp.mode, inp.grid_n, inp.kind, inp.n, inp.bc[:1],
                half_points)
    return inp.command


class GeneratorTest(unittest.TestCase):
    def test_same_seed_same_inputs(self):
        for name, make in gen.GENERATORS.items():
            with self.subTest(workload=name):
                self.assertEqual(pickle.dumps(make(11)),
                                 pickle.dumps(make(11)))

    def test_other_seed_other_values_same_skeleton(self):
        for name, make in gen.GENERATORS.items():
            with self.subTest(workload=name):
                a, b = make(11), make(12)
                self.assertNotEqual(pickle.dumps(a), pickle.dumps(b))
                self.assertEqual([skeleton(x) for x in a],
                                 [skeleton(x) for x in b])

    def test_inputs_are_whole_cycles(self):
        for name, make in gen.GENERATORS.items():
            with self.subTest(workload=name):
                self.assertEqual(len(make(11)) % gen.CYCLE[name], 0)

    def test_spectral_family_parameters_do_not_depend_on_the_seed(self):
        # the program's known defects depend on the exact parameter, so a
        # fixed grid gives every seed the same failed ops
        def params(seed):
            return [(inp.family, inp.n, inp.param)
                    for inp in gen.spectral(seed) if inp.family is not None]
        self.assertEqual(params(11), params(12))
        negative = [p for _, _, p in params(11) if -10 < p < 0]
        self.assertEqual(len(set(negative)), 40)

    def test_haar_inputs_are_unitary(self):
        haar = [inp.u for inp in gen.spectral(5) if inp.family is None]
        self.assertEqual(len(haar), 20)
        for u in haar:
            self.assertLess(checks.unitarity_defect(u), 1e-13)

    def test_fd_points_sit_on_nodes_of_both_meshes(self):
        points = [p for inp in gen.oracle(5) for p in inp.points]
        self.assertTrue(points)
        for n_nodes in (gen.N_COARSE, gen.N_FINE):
            h = gen.mesh_width(n_nodes)
            for a, _ in points:
                self.assertAlmostEqual(a / h, round(a / h), delta=1e-9)


class CheckTest(unittest.TestCase):
    def expected(self, family, n, param):
        return checks.eigenphase_states(
            workloads.family_eigenvalues(family, n, param), gen.KAPPA_MAX)

    def test_closed_form_states(self):
        self.assertEqual(self.expected("delta", 3, -2.0), [(2.0 / 3.0, 1)])
        [(kappa, mult)] = self.expected("delta_p", 5, -3.0)
        self.assertAlmostEqual(kappa, 0.6, delta=1e-14)
        self.assertEqual(mult, 4)
        self.assertEqual(self.expected("delta", 2, 0.0), [])
        self.assertEqual(self.expected("delta_prime_s", 4, math.inf), [])
        self.assertTrue(checks.known_answers())

    def test_perturbed_bound_state_rejected(self):
        want = self.expected("delta_p", 5, -3.0)
        self.assertIsNone(checks.check_bound_states([(0.6 + 2.4e-10, 4)],
                                                    want))
        for found in ([(0.6 * (1 + 1e-6), 4)], [(0.6, 3)], [],
                      [(1e-9, 1), (0.6, 4)]):
            self.assertIsNotNone(checks.check_bound_states(found, want))

    def test_out_of_budget_kernel_rejected(self):
        h = gen.mesh_width(gen.N_COARSE)
        self.assertIsNone(checks.check_oracle(0.9 * 50 * h * h, h))
        self.assertIsNotNone(checks.check_oracle(1.1 * 50 * h * h, h))
        self.assertIsNotNone(checks.check_oracle(math.nan, h))

    def test_halfline_reference(self):
        bc = ("robin", 0.7, 0, 0.0)
        points = ((0.9, -0.3), (1.8, 1.5))
        x = np.array([0.2, 1.0, 2.5])[:, None]
        g = checks.halfline_reference(bc, points, 1.3, x, x.T)
        np.testing.assert_allclose(g, g.T, rtol=0, atol=1e-15)
        self.assertAlmostEqual(
            float(checks.halfline_reference(("neumann", 0, 0, 0), (), 2.0,
                                            0.0, 0.0)), 0.5, delta=1e-15)


class SpanTest(unittest.TestCase):
    def test_self_time_of_a_synthetic_tree(self):
        def span(start, end, parent):
            s = Span("s", start, parent, 0)
            s.end = end
            return s
        # root [0, 10] with overlapping children [1, 3] and [2, 5] and one
        # running past its end, [8, 12]; a grandchild [2.5, 4] inside [2, 5]
        spans = [span(0, 10, None), span(1, 3, 0), span(2, 5, 0),
                 span(8, 12, 0), span(2.5, 4, 2)]
        self.assertEqual(self_times(spans), [4.0, 2.0, 1.5, 4.0, 1.5])
        self.assertEqual(covered([(1, 2), (1.5, 1.7), (3, 4)], 0, 3.5), 1.5)

    def test_metric_names_match_benchmark_json(self):
        with open(run.HERE.parent / "BENCHMARK.json") as fh:
            spec = json.load(fh)
        layer = run.layer_metrics(run.Tracer(), [(1.0, True, 1.0)],
                                  Counter(), 1.0)
        e2e, _ = run.end_to_end([(1.0, False, 1.0)] * 3, [(1.0, 1.0)], 1.0)
        for names, values in ((spec["per_layer"], layer),
                              (spec["end_to_end"], e2e)):
            self.assertEqual([m["name"] for m in names], list(values))
            self.assertEqual([m["unit"] for m in names],
                             [unit for _, unit in values.values()])

    def test_run_length_depends_only_on_the_seconds_asked(self):
        class Stub:
            inputs = list(range(5))
            api = staticmethod(lambda tracer=None: None)
            op = staticmethod(lambda api, inp: inp)
            check = staticmethod(lambda inp, out: "wrong" if inp == 1
                                 else None)
        records, reasons, _ = run.measure(Stub(), 7, run.HostSpeed())
        self.assertEqual(len(records), 7)
        self.assertEqual(reasons, [(1, "wrong"), (1, "wrong")])
        cycles = gen.CYCLE_SECONDS["oracle"]
        self.assertEqual(run.run_cycles("oracle", 10 * cycles, False), 10)
        self.assertEqual(run.run_cycles("oracle", 10 * cycles, True), 5)
        self.assertEqual(run.run_cycles("spectral", 0.1, True), 1)

    def test_latency_scaled_by_the_passes_around_it(self):
        speed = run.HostSpeed(lambda: 4.0, 1.0)
        speed.last = 2.0
        self.assertAlmostEqual(speed.scale(0.3), 0.1)
        self.assertAlmostEqual(speed.scale(0.3), 0.075)

    def test_tail_has_ten_samples_above(self):
        value, percentile = run.tail_latency(list(range(100, 0, -1)))
        self.assertEqual((value, percentile), (90, 90.0))
        self.assertEqual(run.tail_latency([3, 1, 2]), (3, 100.0))


if __name__ == "__main__":
    unittest.main()
