"""Tests for the benchmark's own logic (no build needed):

  python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import json
import os
import subprocess
import sys
import unittest

import benchlib

HERE = os.path.dirname(os.path.abspath(__file__))


def span(name, start, end, parent=-1):
    return {"name": name, "start_ns": start, "end_ns": end, "parent": parent,
            "request": 0}


class PercentileTest(unittest.TestCase):
    def test_reported_only_with_ten_samples_beyond(self):
        values = list(range(1, 1001))  # 1000 samples
        # p99: rank 990, exactly 10 beyond.
        self.assertEqual(benchlib.percentile(values, 99), 990)
        # p99.9: rank 999, 1 beyond.
        self.assertIsNone(benchlib.percentile(values, 99.9))
        self.assertIsNone(benchlib.percentile(values[:999], 99))

    def test_p999_needs_ten_thousand(self):
        self.assertIsNone(benchlib.percentile(list(range(9999)), 99.9))
        self.assertEqual(benchlib.percentile(list(range(10000)), 99.9), 9989)

    def test_median_and_empty(self):
        self.assertEqual(benchlib.percentile([5, 1, 3] + [9] * 20, 50), 9)
        self.assertIsNone(benchlib.percentile([], 50))


class SelfTimeTest(unittest.TestCase):
    def test_overlapping_children_count_once(self):
        spans = [span("root", 0, 100),
                 span("a", 10, 50, 0),
                 span("b", 30, 70, 0),   # overlaps a on [30, 50)
                 span("c", 90, 120, 0)]  # sticks out past the root
        self.assertEqual(benchlib.self_times_ns(spans),
                         [100 - 60 - 10, 40, 40, 30])

    def test_nested_and_contained_children(self):
        spans = [span("root", 0, 100),
                 span("a", 0, 100, 0),
                 span("a.1", 20, 30, 1),
                 span("b", 40, 60, 0)]  # inside a: covered already
        self.assertEqual(benchlib.self_times_ns(spans), [0, 90, 10, 20])
        by_name = benchlib.self_time_by_name(spans)
        self.assertAlmostEqual(by_name["a"][0], 90e-9)
        self.assertEqual(by_name["b"][1], 1)

    def test_self_times_sum_to_root_without_overlap(self):
        spans = [span("root", 0, 1000), span("x", 100, 400, 0),
                 span("y", 400, 900, 0), span("y.1", 500, 600, 2)]
        self.assertEqual(sum(benchlib.self_times_ns(spans)), 1000)


def result_line(answered=100, submitted=100, **extra):
    line = {"event": "result", "submitted": submitted, "served": answered,
            "answered": answered, "rejected": 0, "correct": 90,
            "serve_s": 1.0, "setup_s": [0.5, 0.4, 0.6],
            "deploy_s": [0.25, 0.2, 0.3],
            "replay_checked": 32, "replay_mismatches": 0,
            "accuracy_floor": 0.5, "virt_goodput_slo_rps": 99.0,
            "virt_latency_ms": [float(i) for i in range(answered)],
            "frames": 50}
    for key in ("cache_hits", "cache_misses", "cache_nearest_hits",
                "tenants", "tenants_base", "tenants_duplicate",
                "tenants_near_duplicate", "tenants_distinct"):
        line[key] = 0
    for key in ("digest_predictions", "digest_requests",
                "digest_timeseries", "digest_alerts"):
        line[key] = "0123456789abcdef"
    line.update(extra)
    return line


class FailedShareTest(unittest.TestCase):
    def test_killed_child_counts_all_its_requests(self):
        good = benchlib.Child(0, [{"event": "setup", "submitted": 100},
                                  result_line()], peak_rss_kb=2048)
        killed = benchlib.Child(-11, [{"event": "setup", "submitted": 100}])
        self.assertEqual(killed.signal, "SIGSEGV")
        self.assertEqual(benchlib.failed_counts([good, killed]), (200, 100))
        metrics, info, checks = benchlib.summarize_timed([good, killed])
        self.assertEqual(info["failed_share"], 0.5)
        self.assertEqual(info["crashed"], 1)
        died = dict((name, (ok, detail)) for name, ok, detail in checks)
        self.assertFalse(died["no_repetition_died"][0])
        self.assertIn("SIGSEGV", died["no_repetition_died"][1])
        self.assertEqual(metrics["peak_rss_mb"], 2.0)

    def test_child_dead_before_setup_uses_trace_size(self):
        good = benchlib.Child(0, [result_line()])
        early = benchlib.Child(-6, [])
        self.assertEqual(early.describe(), "killed by SIGABRT")
        self.assertEqual(benchlib.failed_counts([good, early]), (200, 100))
        self.assertEqual(benchlib.failed_counts([early]), (1, 1))

    def test_unanswered_requests_fail(self):
        child = benchlib.Child(0, [result_line(answered=90, submitted=100)])
        self.assertEqual(benchlib.failed_counts([child]), (100, 10))

    def test_a_real_killed_process(self):
        proc = subprocess.run(
            [sys.executable, "-c",
             "import os, signal, sys\n"
             "print('{\"event\": \"setup\", \"submitted\": 7}', flush=True)\n"
             "os.kill(os.getpid(), signal.SIGABRT)"],
            stdout=subprocess.PIPE, text=True)
        events = [json.loads(line) for line in proc.stdout.splitlines()]
        child = benchlib.Child(proc.returncode, events)
        self.assertEqual(child.signal, "SIGABRT")
        self.assertEqual(benchlib.failed_counts([child]), (7, 7))


class DigestTest(unittest.TestCase):
    def test_repetitions_must_agree(self):
        a = benchlib.Child(0, [result_line()])
        b = benchlib.Child(0, [result_line(digest_alerts="ffffffffffffffff")])
        checks = dict((n, ok) for n, ok, _ in benchlib.summarize_timed([a, a])[2])
        self.assertTrue(checks["repetitions_identical"])
        checks = dict((n, ok) for n, ok, _ in benchlib.summarize_timed([a, b])[2])
        self.assertFalse(checks["repetitions_identical"])

    def test_digests_are_stable(self):
        # The binaries print FNV-1a 64 digests. This pins the algorithm on
        # the published test vectors and the int-sequence encoding
        # (little-endian 32-bit words) on the value the C++ FnvSelfCheck
        # also pins, so a change to either breaks a check.
        def fnv1a64(data, h=0xcbf29ce484222325):
            for byte in data:
                h = ((h ^ byte) * 0x100000001b3) & 0xFFFFFFFFFFFFFFFF
            return h

        self.assertEqual(fnv1a64(b"a"), 0xaf63dc4c8601ec8c)
        self.assertEqual(fnv1a64(b"foobar"), 0x85944171f73967e8)
        words = b"".join((v & 0xFFFFFFFF).to_bytes(4, "little")
                         for v in [3, -1, 0])
        self.assertEqual(fnv1a64(words), 0xbd325838fe14d262)
        self.assertNotEqual(fnv1a64(words), fnv1a64(words[4:] + words[:4]))


class BenchmarkJsonTest(unittest.TestCase):
    def test_metric_tables_match_benchmark_json(self):
        path = os.path.join(os.path.dirname(HERE), "BENCHMARK.json")
        with open(path) as f:
            spec = json.load(f)
        self.assertEqual(
            [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]],
            [(n, u, b) for n, u, b, _ in benchlib.END_TO_END])
        self.assertEqual(
            [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]],
            [(n, u, b) for n, u, b, _ in benchlib.PER_LAYER])
        setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"][0]
        self.assertEqual(setup["bound"],
                         max(m["bound"] for m in spec["end_to_end"]))


if __name__ == "__main__":
    unittest.main()
