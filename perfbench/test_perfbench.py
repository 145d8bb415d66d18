"""Tests of the serving benchmark itself.

    python3 -m unittest discover -s perfbench -p 'test_*.py'

The smoke tests build the benchmark (like run.py does) and run every workload
at tiny sizes; they take well under a minute once the library is built.
"""

import json
import math
import os
import subprocess
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402

BENCHMARK_JSON = os.path.join(run.ROOT, "BENCHMARK.json")


class TailPercentileTest(unittest.TestCase):
    def test_ten_samples_beyond(self):
        values = list(range(1, 49))  # 48 samples, 1..48
        pct, value, beyond = run.tail_percentile(values)
        self.assertEqual(value, 38)
        self.assertEqual(beyond, 10)
        self.assertEqual(sum(v > value for v in values), 10)
        self.assertAlmostEqual(pct, 100.0 * 38 / 48)

    def test_order_does_not_matter(self):
        values = [5.0, 1.0, 4.0, 3.0, 2.0] * 5
        self.assertEqual(run.tail_percentile(values),
                         run.tail_percentile(sorted(values)))

    def test_exactly_eleven_samples_gives_the_minimum(self):
        pct, value, beyond = run.tail_percentile(list(range(11)))
        self.assertEqual((value, beyond), (0, 10))
        self.assertAlmostEqual(pct, 100.0 / 11)

    def test_too_few_samples_falls_back_to_the_median(self):
        self.assertEqual(run.tail_percentile([3.0, 1.0, 2.0]), (50.0, 2.0, 1))
        self.assertEqual(run.tail_percentile([]), (0.0, 0.0, 0))


def span(id_, parent, start, end, name="s"):
    return {"id": id_, "parent": parent, "start_us": start, "end_us": end,
            "name": name}


class SelfTimeTest(unittest.TestCase):
    def test_leaf_self_time_is_its_duration(self):
        self.assertEqual(run.self_times([span(0, -1, 10, 25)]), {0: 15})

    def test_children_are_subtracted(self):
        spans = [span(0, -1, 0, 100), span(1, 0, 10, 30), span(2, 0, 50, 60)]
        self.assertEqual(run.self_times(spans)[0], 70)

    def test_overlapping_children_count_once(self):
        spans = [span(0, -1, 0, 100), span(1, 0, 10, 40), span(2, 0, 30, 50)]
        self.assertEqual(run.self_times(spans)[0], 60)

    def test_children_are_clipped_to_the_parent(self):
        spans = [span(0, -1, 0, 100), span(1, 0, 90, 130)]
        self.assertEqual(run.self_times(spans)[0], 90)

    def test_grandchildren_only_reduce_their_parent(self):
        spans = [span(0, -1, 0, 100), span(1, 0, 0, 50), span(2, 1, 0, 20)]
        own = run.self_times(spans)
        self.assertEqual((own[0], own[1], own[2]), (50, 30, 20))

    def test_span_table_aggregates_by_name(self):
        spans = [span(0, -1, 0, 100, "rep"), span(1, 0, 0, 30, "op"),
                 span(2, 0, 40, 50, "op")]
        table = run.span_table(spans)
        self.assertEqual(table["op"], (2, 40, 40))
        self.assertEqual(table["rep"], (1, 100, 60))


def declared_metrics(section):
    with open(BENCHMARK_JSON) as f:
        return {m["name"]: m["unit"] for m in json.load(f)[section]}


class DeclarationTest(unittest.TestCase):
    def test_benchmark_json_matches_run_py(self):
        self.assertEqual(declared_metrics("end_to_end"), run.END_TO_END)
        self.assertEqual(declared_metrics("per_layer"), run.PER_LAYER)


class SmokeTest(unittest.TestCase):
    """Every declared metric is emitted with its unit and a finite value."""

    def smoke(self, workload, trace):
        proc = subprocess.run(
            [sys.executable, os.path.join(run.HERE, "run.py"), "--workload",
             workload, "--seed", "1", "--seconds", "2", "--trace", str(trace),
             "--smoke"],
            cwd=run.ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
            text=True, timeout=600)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        self.assertEqual(set(result), {"correct", "attempted", "failed",
                                       "metrics"})
        self.assertGreaterEqual(result["attempted"], 1)
        expected = declared_metrics("per_layer" if trace else "end_to_end")
        self.assertEqual(set(result["metrics"]), set(expected))
        for name, entry in result["metrics"].items():
            self.assertEqual(entry["unit"], expected[name], name)
            self.assertTrue(math.isfinite(entry["value"]), name)
        return proc.returncode, result

    def test_chat(self):
        for trace in (0, 1):
            code, result = self.smoke("chat", trace)
            self.assertEqual(code, 0)
            self.assertTrue(result["correct"])

    def test_chat_faults_emits_every_metric(self):
        for trace in (0, 1):
            self.smoke("chat_faults", trace)

    # At the smoke shape (one KV page per layer, an 8-page pool) a page-table
    # redirect plus a table-checksum shift of the same layer can cancel in
    # the weighted table checksum; the redirect then goes undetected and the
    # session fails instead of recovering. See README.md, "Known defect".
    @unittest.expectedFailure
    def test_chat_faults_smoke_recovers_every_session(self):
        code, result = self.smoke("chat_faults", 0)
        self.assertEqual((code, result["failed"]), (0, 0))


if __name__ == "__main__":
    unittest.main()
