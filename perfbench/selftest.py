"""Self-tests of the benchmark harness.

Run from the root of a checkout (takes about 20 seconds):

    python3 perfbench/selftest.py

They check that the tracer sees exactly the queries the harness issued,
that traced counts repeat for a seed, that tracing leaves every patched
attribute as it found it, and that a reseed cannot turn one workload into
another.
"""

from __future__ import annotations

import sys
import tempfile
import unittest
from collections import Counter
from pathlib import Path

import run as bench
import workloads
from tracer import LAYER_NAMES, Tracer

SRC = Path.cwd().resolve() / "src"
OUT = Path.cwd().resolve() / bench.OUT_DIR  # scratch files stay inside the checkout

# layer span -> the query kinds that call it exactly once and nothing else does
ISSUED = {
    "pushout.generator_check": ("pushout.generator_check",),
    "pushout.tor_defect": ("pushout.tor_defect",),
    "pushout.base_change": ("pushout.base_change_k", "pushout.base_change_d"),
    "dvr.oracle": ("dvr.oracle",),
    "jumps.recursion_check": ("jumps.recursion_check",),
    "motivic.zeta_torus": ("motivic.zeta_torus",),
    "motivic.zeta_jacobian": ("motivic.zeta_jacobian",),
    "motivic.pole": ("motivic.pole",),
    "motivic.expand": ("motivic.expand",),
    "motivic.render": ("motivic.render",),
}

_rounds = {}


def traced_round(name, seed=1):
    """(ops, tracer, result) of one traced round; cached per (name, seed)."""
    key = (name, seed)
    if key not in _rounds:
        with tempfile.TemporaryDirectory(dir=OUT) as tmp:
            runner = workloads.CliRunner(str(SRC))
            runner.in_process = True
            _, tb, ops = bench.setup(name, seed, SRC, tmp, runner)
            tracer = Tracer(tb.PrecisionExhausted)
            tracer.install()
            try:
                fns = [bench.resolve(tb, op.target) for op in ops]
                result = bench.measure(ops, fns, 0, 1, tracer)
            finally:
                tracer.uninstall()
        _rounds[key] = ops, tracer, result
    return _rounds[key]


def counts(tracer):
    calls = {name: calls for name, (calls, _) in tracer.layer_totals().items()}
    return calls, {k: v for k, v in tracer.counters.items() if isinstance(v, int)}


class TracerCoverage(unittest.TestCase):
    def test_calls_equal_issued_queries(self):
        for name in workloads.WORKLOADS:
            ops, tracer, result = traced_round(name)
            self.assertEqual(result["failures"], [], name)
            issued = Counter(op.kind for op in ops)
            calls, _ = counts(tracer)
            self.assertEqual(calls["cli.run"],
                             sum(c for k, c in issued.items() if k.startswith("cli.")), name)
            for layer, kinds in ISSUED.items():
                want = sum(issued[k] for k in kinds)
                if want:
                    self.assertEqual(calls[layer], want, f"{name}: {layer}")

    def test_two_traced_runs_of_a_seed_count_the_same(self):
        for name in ("valring-sparse", "zeta", "cli"):
            first = counts(traced_round(name)[1])
            _rounds.pop((name, 1))
            self.assertEqual(counts(traced_round(name)[1]), first, name)

    def test_tracing_restores_every_patched_attribute(self):
        tracer = traced_round("zeta")[1]
        self.assertTrue(tracer.restored())
        sites = {(getattr(site, "__name__", None), attr) for site, attr, _ in tracer.patches}
        for binding in [("tamebc", "generator_check"), ("tamebc.pushout", "_poly_mod"),
                        ("tamebc.cli", "order_function"), ("tamebc.motivic", "order_function"),
                        ("tamebc.cli", "run"), ("MotivicPoly", "__rmul__"),
                        ("TruncSeries", "__init__")]:
            self.assertIn(binding, sites)
        for site, attr, original in tracer.patches:
            self.assertIs(vars(site)[attr], original)

    def test_every_layer_metric_is_reported(self):
        ops, tracer, result = traced_round("zeta")
        metrics = bench.per_layer(tracer, result, result, 1.0, (0.0, 0.0))
        for layer in LAYER_NAMES:
            self.assertIn(f"{layer}.calls", metrics)
            self.assertIn(f"{layer}.self_ms", metrics)


class WorkloadShape(unittest.TestCase):
    def test_reseed_changes_inputs_not_the_mix(self):
        runner = workloads.CliRunner(str(SRC))
        for name in workloads.WORKLOADS:
            with tempfile.TemporaryDirectory(dir=OUT) as tmp:
                tb = bench.load_tamebc(SRC)
                a = bench.build(name, tb, 1, tmp, runner)
                b = bench.build(name, tb, 2, tmp, runner)
            self.assertEqual([op.kind for op in a], [op.kind for op in b], name)
            self.assertNotEqual([repr(op.args) for op in a], [repr(op.args) for op in b], name)

    def test_dense_fill_well_above_sparse(self):
        def fill(name):
            tracer = traced_round(name)[1]
            calls = tracer.layer_totals()["dvr.series_mul"][0]
            return tracer.counters["dvr.series_mul.fill_sum"] / calls

        self.assertGreater(fill("valring-dense"), 3 * fill("valring-sparse"))

    def test_zeta_makes_no_dvr_calls(self):
        calls, _ = counts(traced_round("zeta")[1])
        self.assertEqual({k: v for k, v in calls.items() if k.startswith("dvr.") and v}, {})


class Verdicts(unittest.TestCase):
    def test_wrong_answers_and_missing_errors_fail(self):
        op = workloads.Op("k", "f", (), workloads._equals(1))
        self.assertTrue(bench.verdict(op, 1, None))
        self.assertFalse(bench.verdict(op, 2, None))
        self.assertFalse(bench.verdict(op, None, ValueError()))
        err = workloads.Op("k", "f", (), error="PrecisionExhausted")
        self.assertFalse(bench.verdict(err, 0, None))
        self.assertFalse(bench.verdict(err, None, ValueError()))


if __name__ == "__main__":
    if not (SRC / "tamebc" / "__init__.py").is_file():
        sys.exit(f"error: {SRC}/tamebc not found; run from the root of a tamebc checkout")
    sys.path.insert(0, str(SRC))
    OUT.mkdir(exist_ok=True)
    unittest.main()
