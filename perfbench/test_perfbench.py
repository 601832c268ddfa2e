"""Self-tests of the benchmark's own rules. Run from the repository root:

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import json
import os
import sys
import unittest

sys.dont_write_bytecode = True
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import perfstats  # noqa: E402
import servemix  # noqa: E402


class PercentileRule(unittest.TestCase):
    def test_p99_needs_a_thousand_samples(self):
        self.assertEqual(perfstats.tail_percentile(1000), 99)
        self.assertEqual(perfstats.tail_percentile(5000), 99)
        self.assertEqual(perfstats.tail_percentile(999), 98)

    def test_smaller_runs_fall_back_to_the_highest_supported_percentile(self):
        self.assertEqual(perfstats.tail_percentile(100), 90)
        self.assertEqual(perfstats.tail_percentile(200), 95)
        self.assertEqual(perfstats.tail_percentile(21), 52)

    def test_never_below_the_median(self):
        for n in (1, 3, 12, 20):
            self.assertEqual(perfstats.tail_percentile(n), 50)

    def test_at_least_ten_samples_lie_beyond_the_reported_value(self):
        for n in (20, 21, 57, 100, 999, 1000, 4090):
            values = list(range(n))
            p = perfstats.tail_percentile(n)
            v = perfstats.percentile(values, p)
            self.assertGreaterEqual(sum(1 for x in values if x > v), 10, n)
            if p < 99:
                nxt = perfstats.percentile(values, p + 1)
                self.assertLess(sum(1 for x in values if x > nxt), 10, n)

    def test_small_runs_report_the_median_twice(self):
        self.assertEqual(perfstats.latency_summary([1.0, 2.0, 4.0, 9.0]), (3.0, 3.0, 50, 4))

    def test_summary(self):
        p50, tail, p, n = perfstats.latency_summary([float(x) for x in range(1, 1001)])
        self.assertEqual((p50, tail, p, n), (500.5, 990.0, 99, 1000))


def record(index, status, body=b"", cache="miss"):
    return {"index": index, "status": status, "body": body, "cache": cache,
            "start": 0.0, "end": 0.001, "service": 0.0}


class FailureCounting(unittest.TestCase):
    REF = b"Figure 4\n 1.49\n"

    def test_clean_invocation_passes(self):
        self.assertFalse(perfstats.batch_op_failed(0, self.REF, self.REF))

    def test_stdout_altered_by_one_byte_fails(self):
        bad = self.REF[:-2] + b"8\n"
        self.assertEqual(len(bad), len(self.REF))
        self.assertTrue(perfstats.batch_op_failed(0, bad, self.REF))

    def test_nonzero_exit_fails(self):
        self.assertTrue(perfstats.batch_op_failed(3, self.REF, self.REF))

    def serve(self, records):
        plan = [
            ('{"workload":"towers"}', 200, "towers"),
            ('{"workload":"towers"}', 200, "towers"),
            ('{"workload":"nosuch"}', 400, "nosuch"),
        ]
        return perfstats.serve_failures(plan, records, {"towers": 16383})

    def test_a_429_counts_as_failed(self):
        good = json.dumps({"exit": 16383}).encode()
        failed = self.serve([record(0, 200, good), record(1, 429), record(2, 400)])
        self.assertEqual([i for i, _ in failed], [1])

    def test_serve_verdicts(self):
        good = json.dumps({"exit": 16383}).encode()
        self.assertEqual(self.serve([record(0, 200, good), record(1, 200, good, "hit"),
                                     record(2, 400)]), [])
        cases = {
            "5xx": [record(0, 503)],
            "timeout": [record(0, 0)],
            "wrong status": [record(2, 200, good)],
            "wrong checksum": [record(0, 200, json.dumps({"exit": 1}).encode())],
            "hit differs": [record(0, 200, good),
                            record(1, 200, json.dumps({"exit": 16383, "x": 1}).encode(), "hit")],
        }
        for name, records in cases.items():
            self.assertEqual(len(self.serve(records)), 1, name)


class GeneratorDeterminism(unittest.TestCase):
    def test_same_seed_same_plan(self):
        a, b = servemix.generate(1), servemix.generate(1)
        self.assertEqual(a, b)
        self.assertEqual(servemix.digest(a), servemix.digest(b))

    def test_seeds_differ(self):
        self.assertNotEqual(servemix.digest(servemix.generate(1)),
                            servemix.digest(servemix.generate(2)))

    def test_pinned_digest(self):
        # A change here changes every serve-mix measurement: re-measure.
        self.assertEqual(
            servemix.digest(servemix.generate(1)),
            "e76173e0dc9b37ba5e390c0a8d9d36816d32e774a2bf6751c086f387cb36500c",
        )

    def test_mix_shape(self):
        for seed in (1, 7919):
            plan = servemix.generate(seed)
            firsts = {text for text, status, _ in plan if status == 200}
            self.assertEqual(len(firsts), len(servemix.WORKLOADS) * 6 * 2 + len(servemix.SWEEPS))
            ok = [text for text, status, _ in plan if status == 200]
            self.assertEqual(len(ok), 3 * len(firsts), "two repeats per first-time request")
            bad = [status for _, status, _ in plan if status != 200]
            self.assertEqual(len(bad), servemix.MALFORMED_PER_PLAN)


def span(id_, parent, name, start, end, thread=0, jobs=0):
    return {"id": id_, "parent": parent, "name": name, "start": start, "end": end,
            "thread": thread, "jobs": jobs}


class SelfTimeArithmetic(unittest.TestCase):
    def test_self_time_subtracts_covered_children_once(self):
        spans = [span(1, 0, "a", 0.0, 10.0), span(2, 1, "b", 1.0, 4.0),
                 span(3, 1, "c", 3.0, 6.0), span(4, 2, "d", 2.0, 3.0)]
        own = perfstats.self_times(spans)
        self.assertAlmostEqual(own[1], 5.0)  # children cover [1, 6]
        self.assertAlmostEqual(own[2], 2.0)
        self.assertAlmostEqual(own[3], 3.0)
        self.assertAlmostEqual(own[4], 1.0)

    def test_pool_phase_counts_as_its_wall(self):
        spans = [
            span(1, 0, "total", 0.0, 10.0),
            span(2, 1, "pool.collect", 0.5, 4.5, jobs=2),
            span(3, 2, "cell", 0.5, 4.5, thread=1),
            span(4, 2, "cell", 0.5, 2.0, thread=2),
            span(5, 1, "grid.replay", 5.0, 9.0),
        ]
        self.assertAlmostEqual(perfstats.self_times(spans)[2], 4.0)
        # Named: 4 s pool + 4 s replay; the root's gaps (1.5 s) and the
        # 0.5 s outside the root are the residue.
        self.assertAlmostEqual(perfstats.unattributed(spans, 10.5), 2.5)

    def test_layer_metrics(self):
        spans = [
            span(1, 0, "total", 0.0, 20.0),
            span(2, 1, "pool.collect", 0.0, 10.0, jobs=2),
            span(3, 2, "cell", 0.0, 9.0, thread=1),
            span(4, 3, "cc.compile", 0.0, 1.0, thread=1),
            span(5, 3, "sim.null", 1.0, 2.0, thread=1),
            span(6, 3, "sim.fetchbuf", 2.0, 4.0, thread=1),
            span(7, 3, "sim.trace", 4.0, 7.0, thread=1),
            span(8, 1, "phase.grid", 10.0, 20.0),
            span(9, 8, "grid.replay", 10.0, 18.0),
        ]
        counters = {"sim.insns": 4_000_000, "grid.records": 4_000_000_000, "jobs": 2}
        m = perfstats.layer_metrics(spans, counters)
        self.assertAlmostEqual(m["sim.exec_s"], 1.0)
        self.assertAlmostEqual(m["sink.fetchbuf_s"], 1.0)
        self.assertAlmostEqual(m["sink.trace_s"], 1.0)
        self.assertAlmostEqual(m["sim.minsn_per_s"], 4.0)
        self.assertAlmostEqual(m["pool.collect.busy_s"], 9.0)
        self.assertAlmostEqual(m["pool.collect.idle_s"], 11.0)
        self.assertAlmostEqual(m["pool.grid.busy_s"], 8.0)
        self.assertAlmostEqual(m["pool.grid.idle_s"], 12.0)
        self.assertAlmostEqual(m["grid.ns_per_record"], 2.0)
        self.assertAlmostEqual(perfstats.unattributed(spans, 20.0), 0.0)


if __name__ == "__main__":
    unittest.main()
