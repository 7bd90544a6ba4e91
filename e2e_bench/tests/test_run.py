#!/usr/bin/env python3
"""Self-tests of the end-to-end benchmark.

    python3 e2e_bench/tests/test_run.py

- the traced composition matches plan() bit for bit and its span accounting
  closes (the C++ self-test, tests/selftest.cpp);
- every metric BENCHMARK.json names is printed, with its unit, in both modes;
- failure accounting, the tail statistic and the host-speed scaling behave as
  documented.
"""

import json
import os
import subprocess
import sys
import unittest

TESTS = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(TESTS)
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

import run  # noqa: E402  (the benchmark module under test)


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def bench(workload, seed, seconds, trace):
    out = subprocess.run(
        [sys.executable, os.path.join(BENCH, "run.py"), "--workload", workload, "--seed",
         str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=180)
    lines = out.stdout.strip().splitlines()
    return out.returncode, [json.loads(line) for line in lines[-2:]]


class TracedComposition(unittest.TestCase):
    def test_selftest_binary(self):
        run.build(("nptsn_e2e_selftest",))
        out = subprocess.run([os.path.join(run.BUILD_DIR, "nptsn_e2e_selftest")],
                             capture_output=True, text=True, timeout=120)
        self.assertEqual(out.returncode, 0, out.stdout + out.stderr)


class MetricsPrinted(unittest.TestCase):
    """One short service_stream run per mode: the metric tables are shared by
    every workload, so this covers the names and units of all three."""

    def check(self, trace, section):
        returncode, (stamp, result) = bench("service_stream", 3, 1, trace)
        self.assertEqual(returncode, 0)
        self.assertIn("stamp", stamp)
        for key in ("nproc", "nn_threads", "num_workers", "service_workers", "client_window",
                    "nn_kernel", "tsn_kernel", "build_type", "nptsn_kernel_simd", "seed"):
            self.assertIn(key, stamp["stamp"])
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)
        expected = {m["name"]: m["unit"] for m in load_spec()[section]}
        printed = {name: m["unit"] for name, m in result["metrics"].items()}
        self.assertEqual(printed, expected)
        for name, m in result["metrics"].items():
            self.assertIsInstance(m["value"], (int, float), name)
        return stamp["stamp"], result

    def test_end_to_end(self):
        stamp, result = self.check(0, "end_to_end")
        metrics = result["metrics"]
        self.assertGreater(metrics["sessions_per_s"]["value"], 0)
        # The stream always submits its first round over every input, more
        # than the tail needs, so the tail applies even to a 1 s run.
        self.assertGreaterEqual(result["attempted"], run.TAIL_SESSIONS)
        self.assertNotIn("not_applicable", stamp)
        self.assertGreaterEqual(metrics["session_p90_s"]["value"],
                                metrics["session_p50_s"]["value"])
        self.assertGreater(stamp["measured"]["window_probe_s"], 0)

    def test_per_layer(self):
        metrics = self.check(1, "per_layer")[1]["metrics"]
        self.assertGreater(metrics["trace.overhead_ratio"]["value"], 0)
        # Span accounting closes on the real workload too.
        self.assertLess(metrics["trace.unattributed_s"]["value"],
                        0.05 * metrics["rl.update_s"]["value"] + 1e-3)


class Accounting(unittest.TestCase):
    @staticmethod
    def process(events, returncode):
        return run.Process([json.dumps(e) for e in events], returncode)

    def test_crash_counts_unfinished_sessions_as_failed(self):
        events = [
            {"event": "begin", "index": 0},
            {"event": "session", "index": 0, "status": "planned", "digest": "a"},
            {"event": "reaudit", "digest": "a", "clean": True},
            {"event": "begin", "index": 1},
            {"event": "session", "index": 1, "status": "planned", "digest": "b"},
            {"event": "begin", "index": 2},
        ]
        attempted, failed, done = run.accounting(self.process(events, -6))
        self.assertEqual((attempted, failed), (3, 2))
        self.assertEqual([s["index"] for s in done], [0])

    def test_missing_reaudit_is_a_check_failure_without_a_crash(self):
        events = [{"event": "begin", "index": 0},
                  {"event": "session", "index": 0, "instance": "x", "status": "planned",
                   "digest": "a"}]
        checks = run.Checks()
        run.check_untraced(self.process(events, 0), checks)
        self.assertFalse(checks.ok)

    def test_faulted_service_sessions_are_failed(self):
        events = [{"event": "begin", "index": 0},
                  {"event": "session", "index": 0, "status": "failed", "digest": "z"},
                  {"event": "begin", "index": 1},
                  {"event": "session", "index": 1, "status": "infeasible", "digest": "y"}]
        attempted, failed, _ = run.accounting(self.process(events, 0))
        self.assertEqual((attempted, failed), (2, 1))

    def test_timings_scale_by_the_host_probe(self):
        def process(probe_s):
            return self.process([
                {"event": "setup", "seconds": 0.5, "probe_s": probe_s},
                {"event": "begin", "index": 0},
                {"event": "session", "index": 0, "instance": "x", "status": "infeasible",
                 "digest": "a", "latency_s": 2.0, "cost": 0.0, "peak_rss_mb": 1.0},
                {"event": "summary", "window_s": 2.0, "probe_s": probe_s, "peak_rss_mb": 1.0},
            ], 0)
        reference = run.end_to_end_metrics(process(run.PROBE_REF_S), [(0.5, run.PROBE_REF_S)])
        self.assertAlmostEqual(reference["session_p50_s"], 2.0)
        self.assertAlmostEqual(reference["sessions_per_s"], 0.5)
        self.assertAlmostEqual(reference["setup_s"], 0.5)
        # Bursts twice as slow: the core ran at half speed, so the same
        # measured times stand for half as many reference seconds.
        slow = run.end_to_end_metrics(process(2 * run.PROBE_REF_S), [(0.5, 2 * run.PROBE_REF_S)])
        self.assertAlmostEqual(slow["session_p50_s"], 1.0)
        self.assertAlmostEqual(slow["sessions_per_s"], 1.0)
        self.assertAlmostEqual(slow["setup_s"], 0.25)

    def test_tail_needs_ten_sessions_beyond_it(self):
        self.assertFalse(run.tail_applies(99))
        self.assertTrue(run.tail_applies(100))
        self.assertEqual(run.percentile(list(range(1, 201)), run.TAIL_PERCENTILE), 180)


if __name__ == "__main__":
    unittest.main(verbosity=2)
