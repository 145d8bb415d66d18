#!/usr/bin/env python3
"""CTest-invoked checks of the CI gate scripts themselves.

Exercises bench/check_coverage.py (the SDC-coverage gate) end to end over
synthetic BENCH_faults.json files — the pass path, every regression class
(coverage drop, SDC rise, new crash/hang, missing cell, protected-cell
floor slip, scrub-attribution slip) must exit 1, and a config mismatch
must refuse the comparison with exit 2 — plus bench/check_regression.py
(config mismatch, the ABFT-overhead rise gate, the tracing-cost pair
gate, zero-counter-free candidates) and bench/check_trace.py (trace
schema: B/E stack discipline, monotonic timestamps, required names;
flight dumps: event grammar and the forced-crash_hang subsystem header;
Prometheus text: one HELP/TYPE per family, declared samples, cumulative
histograms). A gate that silently passes
regressed candidates is worse than no gate, so the gates are tested
like any other code.

Usage (CTest passes the bench directory):
  python3 tests/test_gate_scripts.py /path/to/repo/bench
"""

import copy
import json
import os
import subprocess
import sys
import tempfile
import unittest

BENCH_DIR = None  # resolved in __main__ below.


def protected_cell(scheduler, subsystem):
    """A healthy scheduler_state/latent_kv cell: near-total detection,
    latent detections fully attributed to the scrubber."""
    return {
        "scheduler": scheduler, "subsystem": subsystem,
        "trials": 1000,
        "outcomes": {"detected_corrected": 960,
                     "detected_uncorrected": 0, "masked": 40,
                     "sdc": 0, "crash_hang": 0},
        "detection_coverage": 1.0, "coverage_ci_low": 0.995,
        "coverage_ci_high": 1.0, "sdc_rate": 0.0,
        "sdc_ci_low": 0.0, "sdc_ci_high": 0.005,
        "scrub_found": 960 if subsystem == "latent_kv" else 0,
        "time_curve": [], "per_op_kind": [],
    }


def coverage_baseline():
    """A minimal but schema-complete fault-campaign report (includes the
    three protected cells the candidate-only gates require)."""
    return {
        "bench": "fault_campaign",
        "config": {
            "vocab_size": 48, "model_dim": 16, "num_layers": 2,
            "num_heads": 2, "head_dim": 8, "ffn_dim": 32,
            "max_seq_len": 24, "model_seed": 42, "sessions": 3,
            "prompt_len": 5, "max_new_tokens": 6, "seed": 2026,
            "page_size": 4, "num_pages": 0,
        },
        "trials_per_cell": 1000,
        "results": [
            {
                "scheduler": "continuous", "subsystem": "activations",
                "trials": 1000,
                "outcomes": {"detected_corrected": 900,
                             "detected_uncorrected": 50, "masked": 30,
                             "sdc": 20, "crash_hang": 0},
                "detection_coverage": 0.979, "coverage_ci_low": 0.968,
                "coverage_ci_high": 0.987, "sdc_rate": 0.02,
                "sdc_ci_low": 0.013, "sdc_ci_high": 0.031,
                "time_curve": [], "per_op_kind": [],
            },
            {
                "scheduler": "continuous", "subsystem": "kv_pages",
                "trials": 1000,
                "outcomes": {"detected_corrected": 950,
                             "detected_uncorrected": 30, "masked": 10,
                             "sdc": 10, "crash_hang": 0},
                "detection_coverage": 0.99, "coverage_ci_low": 0.982,
                "coverage_ci_high": 0.995, "sdc_rate": 0.01,
                "sdc_ci_low": 0.005, "sdc_ci_high": 0.018,
                "time_curve": [], "per_op_kind": [],
            },
            protected_cell("continuous", "scheduler_state"),
            protected_cell("continuous", "latent_kv"),
            protected_cell("continuous", "shared_prefix"),
        ],
    }


def regression_report(seed):
    """A minimal serve-throughput report for check_regression.py."""
    return {
        "bench": "serve_throughput",
        "config": {"seed": seed, "backend": "simd", "page_size": 8},
        "scenarios": [],
        "kernels": [{"name": "attention", "scalar_ms": 1.0,
                     "simd_ms": 0.25, "speedup": 4.0}],
    }


class GateScriptTest(unittest.TestCase):
    def setUp(self):
        self.tmp = tempfile.TemporaryDirectory()
        self.addCleanup(self.tmp.cleanup)

    def write(self, name, payload):
        path = os.path.join(self.tmp.name, name)
        with open(path, "w") as f:
            json.dump(payload, f)
        return path

    def run_gate(self, script, baseline, candidate, *extra):
        return subprocess.run(
            [sys.executable, os.path.join(BENCH_DIR, script),
             "--baseline", baseline, "--candidate", candidate, *extra],
            capture_output=True, text=True)

    # --- check_coverage.py -------------------------------------------

    def test_coverage_identical_reports_pass(self):
        base = self.write("base.json", coverage_baseline())
        result = self.run_gate("check_coverage.py", base, base)
        self.assertEqual(result.returncode, 0, result.stdout)
        self.assertIn("coverage gate passed", result.stdout)

    def test_coverage_noisy_smoke_within_ci_bounds_passes(self):
        # A low-trial candidate: worse point estimates but wide intervals
        # that still reach the baseline — sampling noise, not regression.
        base = self.write("base.json", coverage_baseline())
        cand = coverage_baseline()
        cand["trials_per_cell"] = 60  # outside "config": allowed to differ.
        cell = cand["results"][0]
        cell["trials"] = 60
        cell["detection_coverage"] = 0.93
        cell["coverage_ci_low"] = 0.84
        cell["coverage_ci_high"] = 0.97
        cell["sdc_rate"] = 0.05
        cell["sdc_ci_low"] = 0.016
        cell["sdc_ci_high"] = 0.13
        result = self.run_gate("check_coverage.py", base,
                               self.write("cand.json", cand))
        self.assertEqual(result.returncode, 0, result.stdout)

    def test_coverage_drop_fails(self):
        base = self.write("base.json", coverage_baseline())
        cand = coverage_baseline()
        cell = cand["results"][0]
        cell["detection_coverage"] = 0.50
        cell["coverage_ci_low"] = 0.47
        cell["coverage_ci_high"] = 0.53  # < 0.979 - 0.02: real regression.
        result = self.run_gate("check_coverage.py", base,
                               self.write("cand.json", cand))
        self.assertEqual(result.returncode, 1, result.stdout)
        self.assertIn("coverage upper bound", result.stdout)

    def test_sdc_rise_fails(self):
        base = self.write("base.json", coverage_baseline())
        cand = coverage_baseline()
        cell = cand["results"][1]
        cell["sdc_rate"] = 0.20
        cell["sdc_ci_low"] = 0.18  # > 0.01 + 0.02: real regression.
        cell["sdc_ci_high"] = 0.23
        result = self.run_gate("check_coverage.py", base,
                               self.write("cand.json", cand))
        self.assertEqual(result.returncode, 1, result.stdout)
        self.assertIn("sdc lower bound", result.stdout)

    def test_new_crash_fails(self):
        base = self.write("base.json", coverage_baseline())
        cand = coverage_baseline()
        cand["results"][0]["outcomes"]["crash_hang"] = 3
        result = self.run_gate("check_coverage.py", base,
                               self.write("cand.json", cand))
        self.assertEqual(result.returncode, 1, result.stdout)
        self.assertIn("crash/hang", result.stdout)

    def test_missing_cell_fails(self):
        base = self.write("base.json", coverage_baseline())
        cand = coverage_baseline()
        del cand["results"][1]
        result = self.run_gate("check_coverage.py", base,
                               self.write("cand.json", cand))
        self.assertEqual(result.returncode, 1, result.stdout)
        self.assertIn("missing cell", result.stdout)

    def test_config_mismatch_refused(self):
        base = self.write("base.json", coverage_baseline())
        cand = coverage_baseline()
        cand["config"]["seed"] = 7
        result = self.run_gate("check_coverage.py", base,
                               self.write("cand.json", cand))
        self.assertEqual(result.returncode, 2, result.stdout)
        self.assertIn("config mismatch", result.stdout)

    def test_missing_config_section_refused(self):
        # Unlike check_regression.py (whose pre-config format only warns),
        # there is no pre-config fault report: strict refusal.
        base = self.write("base.json", coverage_baseline())
        cand = coverage_baseline()
        del cand["config"]
        result = self.run_gate("check_coverage.py", base,
                               self.write("cand.json", cand))
        self.assertEqual(result.returncode, 2, result.stdout)

    def test_wider_allowances_admit_the_drop(self):
        # The thresholds are real knobs, not decoration.
        base = self.write("base.json", coverage_baseline())
        cand = copy.deepcopy(coverage_baseline())
        cell = cand["results"][0]
        cell["coverage_ci_high"] = 0.90
        cell["sdc_ci_low"] = 0.08
        path = self.write("cand.json", cand)
        strict = self.run_gate("check_coverage.py", base, path)
        self.assertEqual(strict.returncode, 1, strict.stdout)
        lax = self.run_gate("check_coverage.py", base, path,
                            "--max-drop", "0.2", "--max-rise", "0.2")
        self.assertEqual(lax.returncode, 0, lax.stdout)

    # --- check_coverage.py: protected-control-plane floors -----------

    def protected_index(self, report, scheduler, subsystem):
        for i, cell in enumerate(report["results"]):
            if (cell["scheduler"], cell["subsystem"]) == (scheduler,
                                                          subsystem):
                return i
        self.fail(f"fixture lacks {scheduler}/{subsystem}")

    def test_missing_protected_cell_fails(self):
        base = self.write("base.json", coverage_baseline())
        cand = coverage_baseline()
        del cand["results"][self.protected_index(cand, "continuous",
                                                 "latent_kv")]
        result = self.run_gate("check_coverage.py", base,
                               self.write("cand.json", cand))
        self.assertEqual(result.returncode, 1, result.stdout)
        self.assertIn("missing protected cell: continuous/latent_kv",
                      result.stdout)

    def test_protected_coverage_floor_slip_fails(self):
        # Even with a baseline that matches (so no relative regression),
        # scheduler_state sliding under the absolute floor must fail —
        # that cell was a 0%-coverage blind spot once already.
        cand = coverage_baseline()
        cell = cand["results"][self.protected_index(cand, "continuous",
                                                    "scheduler_state")]
        cell["detection_coverage"] = 0.5
        cell["coverage_ci_low"] = 0.47
        cell["coverage_ci_high"] = 0.53
        base = self.write("base.json", cand)
        result = self.run_gate("check_coverage.py", base,
                               self.write("cand.json", cand))
        self.assertEqual(result.returncode, 1, result.stdout)
        self.assertIn("continuous/scheduler_state", result.stdout)
        self.assertIn("floor", result.stdout)

    def test_shared_prefix_coverage_floor_slip_fails(self):
        # The shared template pages carry ONE checksum for MANY readers;
        # losing detection there silently corrupts every hit session.
        cand = coverage_baseline()
        cell = cand["results"][self.protected_index(cand, "continuous",
                                                    "shared_prefix")]
        cell["detection_coverage"] = 0.6
        cell["coverage_ci_low"] = 0.57
        cell["coverage_ci_high"] = 0.63
        base = self.write("base.json", cand)
        result = self.run_gate("check_coverage.py", base,
                               self.write("cand.json", cand))
        self.assertEqual(result.returncode, 1, result.stdout)
        self.assertIn("continuous/shared_prefix", result.stdout)
        self.assertIn("floor", result.stdout)

    def test_latent_detections_without_scrub_attribution_fail(self):
        # Detection at the resumed read is the wrong mechanism: the
        # scrubber must find latent faults inside the idle window.
        cand = coverage_baseline()
        cell = cand["results"][self.protected_index(cand, "continuous",
                                                    "latent_kv")]
        cell["scrub_found"] = 100  # 960 detected, scrubber saw 100.
        base = self.write("base.json", cand)
        result = self.run_gate("check_coverage.py", base,
                               self.write("cand.json", cand))
        self.assertEqual(result.returncode, 1, result.stdout)
        self.assertIn("scrubber found 100/960", result.stdout)

    # --- check_regression.py -----------------------------------------

    def test_regression_gate_config_mismatch_refused(self):
        base = self.write("base.json", regression_report(seed=2026))
        cand = self.write("cand.json", regression_report(seed=7))
        result = self.run_gate("check_regression.py", base, cand)
        self.assertEqual(result.returncode, 2, result.stdout)
        self.assertIn("config mismatch", result.stdout)

    def test_regression_gate_matching_config_compares(self):
        base = self.write("base.json", regression_report(seed=2026))
        cand = self.write("cand.json", regression_report(seed=2026))
        result = self.run_gate("check_regression.py", base, cand)
        self.assertEqual(result.returncode, 0, result.stdout)

    # --- check_regression.py: ABFT overhead + tracing cost -----------

    @staticmethod
    def overhead_scenario(overhead_pct):
        return {
            "name": "continuous generation", "mode": "continuous",
            "backend": "simd", "ok": True, "throughput_rps": 100.0,
            "tokens_per_sec": 400.0,
            "abft_overhead": {
                "attention_flash_abft": {
                    "compute_ms": 50.0, "verify_ms": 1.0,
                    "recovery_ms": 0.0, "overhead_pct": overhead_pct,
                },
            },
        }

    def test_abft_overhead_rise_fails(self):
        base = regression_report(seed=2026)
        base["scenarios"] = [self.overhead_scenario(2.0)]
        cand = regression_report(seed=2026)
        cand["scenarios"] = [self.overhead_scenario(12.0)]  # +10 points.
        result = self.run_gate("check_regression.py",
                               self.write("base.json", base),
                               self.write("cand.json", cand))
        self.assertEqual(result.returncode, 1, result.stdout)
        self.assertIn("ABFT overhead", result.stdout)

    def test_abft_overhead_within_allowance_passes(self):
        base = regression_report(seed=2026)
        base["scenarios"] = [self.overhead_scenario(2.0)]
        cand = regression_report(seed=2026)
        cand["scenarios"] = [self.overhead_scenario(4.0)]  # +2 < 5 points.
        result = self.run_gate("check_regression.py",
                               self.write("base.json", base),
                               self.write("cand.json", cand))
        self.assertEqual(result.returncode, 0, result.stdout)

    @staticmethod
    def tracing_pair(on_tokens_per_sec):
        def scenario(name, tokens_per_sec):
            return {"name": name, "mode": "obs", "backend": "simd",
                    "ok": True, "throughput_rps": 0.0,
                    "tokens_per_sec": tokens_per_sec}
        return [scenario("continuous generation (tracing off)", 400.0),
                scenario("continuous generation (tracing on)",
                         on_tokens_per_sec)]

    def test_candidate_without_zero_counters_compares_cleanly(self):
        # serve_throughput writes only the non-zero telemetry counters, so
        # a fault-free candidate lacks keys like "alarm_events" that an
        # older baseline carries as 0; the gate must treat the two alike.
        base_scenario = self.overhead_scenario(2.0)
        base_scenario.update({"alarm_events": 0, "recovered": 0,
                              "fallback": 0, "escalations": 0,
                              "checksum_dirty": 0, "scrub_repairs": 0,
                              "op_executions": 240})
        cand_scenario = self.overhead_scenario(2.0)
        cand_scenario["op_executions"] = 240
        base = regression_report(seed=2026)
        base["scenarios"] = [base_scenario]
        cand = regression_report(seed=2026)
        cand["scenarios"] = [cand_scenario]
        result = self.run_gate("check_regression.py",
                               self.write("base.json", base),
                               self.write("cand.json", cand))
        self.assertEqual(result.returncode, 0, result.stdout)
        self.assertIn("perf regression check passed", result.stdout)

    def test_tracing_cost_above_budget_fails(self):
        cand = regression_report(seed=2026)
        cand["scenarios"] = self.tracing_pair(300.0)  # 25% tracing cost.
        result = self.run_gate("check_regression.py",
                               self.write("base.json",
                                          regression_report(seed=2026)),
                               self.write("cand.json", cand))
        self.assertEqual(result.returncode, 1, result.stdout)
        self.assertIn("tracing cost", result.stdout)

    def test_tracing_cost_within_budget_passes(self):
        cand = regression_report(seed=2026)
        cand["scenarios"] = self.tracing_pair(390.0)  # 2.5% < 5%.
        result = self.run_gate("check_regression.py",
                               self.write("base.json",
                                          regression_report(seed=2026)),
                               self.write("cand.json", cand))
        self.assertEqual(result.returncode, 0, result.stdout)


class TraceGateTest(unittest.TestCase):
    """bench/check_trace.py over synthetic traces and flight dumps."""

    def setUp(self):
        self.tmp = tempfile.TemporaryDirectory()
        self.addCleanup(self.tmp.cleanup)

    def write_trace(self, events):
        path = os.path.join(self.tmp.name, "trace.json")
        with open(path, "w") as f:
            json.dump({"traceEvents": events}, f)
        return path

    def write_text(self, name, text):
        path = os.path.join(self.tmp.name, name)
        with open(path, "w") as f:
            f.write(text)
        return path

    def run_trace_gate(self, *argv):
        return subprocess.run(
            [sys.executable, os.path.join(BENCH_DIR, "check_trace.py"),
             *argv], capture_output=True, text=True)

    @staticmethod
    def well_formed_events():
        return [
            {"name": "thread_name", "ph": "M", "pid": 1, "tid": 0,
             "args": {"name": "serve-0"}},
            {"name": "tick", "cat": "sched", "ph": "B", "pid": 1, "tid": 0,
             "ts": 1.0},
            {"name": "prefill", "cat": "sched", "ph": "B", "pid": 1,
             "tid": 0, "ts": 2.0},
            {"name": "admit", "cat": "sched", "ph": "i", "pid": 1, "tid": 0,
             "ts": 2.5, "s": "t"},
            {"name": "prefill", "cat": "sched", "ph": "E", "pid": 1,
             "tid": 0, "ts": 3.0},
            {"name": "tick", "cat": "sched", "ph": "E", "pid": 1, "tid": 0,
             "ts": 4.0},
        ]

    def test_well_formed_trace_passes(self):
        path = self.write_trace(self.well_formed_events())
        result = self.run_trace_gate(path, "--require-names", "tick,admit")
        self.assertEqual(result.returncode, 0, result.stdout)
        self.assertIn("trace ok", result.stdout)

    def test_unbalanced_span_fails(self):
        events = self.well_formed_events()[:-1]  # drop the closing tick 'E'.
        result = self.run_trace_gate(self.write_trace(events))
        self.assertEqual(result.returncode, 1, result.stdout)
        self.assertIn("left open", result.stdout)

    def test_mismatched_end_name_fails(self):
        events = self.well_formed_events()
        events[4]["name"] = "decode-batch"  # 'E' closing the wrong span.
        result = self.run_trace_gate(self.write_trace(events))
        self.assertEqual(result.returncode, 1, result.stdout)

    def test_non_monotonic_timestamps_fail(self):
        events = self.well_formed_events()
        events[4]["ts"] = 0.5  # earlier than its 'B' on the same tid.
        result = self.run_trace_gate(self.write_trace(events))
        self.assertEqual(result.returncode, 1, result.stdout)
        self.assertIn("previous", result.stdout)

    def test_missing_thread_name_metadata_fails(self):
        events = self.well_formed_events()[1:]  # drop the 'M' record.
        result = self.run_trace_gate(self.write_trace(events))
        self.assertEqual(result.returncode, 1, result.stdout)
        self.assertIn("thread_name", result.stdout)

    def test_missing_required_name_fails(self):
        path = self.write_trace(self.well_formed_events())
        result = self.run_trace_gate(path, "--require-names", "decode-batch")
        self.assertEqual(result.returncode, 1, result.stdout)
        self.assertIn("decode-batch", result.stdout)

    GOOD_DUMP = (
        "=== crash_hang scheduler=continuous subsystem=kv_pages trial=3 "
        "step=1 ===\n"
        "# flight recorder: 2 of 2 events retained (capacity 128)\n"
        "0 t+1200ns alarm executor kv_page v=7\n"
        "1 t+3400ns hang stepper tick_budget v=0\n")

    def test_crash_hang_dump_passes(self):
        path = self.write_text("flight.txt", self.GOOD_DUMP)
        result = self.run_trace_gate("--flight", path, "--expect-crash-hang")
        self.assertEqual(result.returncode, 0, result.stdout)
        self.assertIn("flight dump ok", result.stdout)

    def test_dump_without_crash_header_fails_expectation(self):
        text = "\n".join(self.GOOD_DUMP.splitlines()[1:]) + "\n"
        path = self.write_text("flight.txt", text)
        self.assertEqual(
            self.run_trace_gate("--flight", path).returncode, 0)
        result = self.run_trace_gate("--flight", path, "--expect-crash-hang")
        self.assertEqual(result.returncode, 1, result.stdout)
        self.assertIn("subsystem", result.stdout)

    def test_unparseable_event_line_fails(self):
        path = self.write_text("flight.txt",
                               self.GOOD_DUMP + "not an event line\n")
        result = self.run_trace_gate("--flight", path)
        self.assertEqual(result.returncode, 1, result.stdout)
        self.assertIn("unparseable", result.stdout)

    # --- check_trace.py --prom ----------------------------------------

    GOOD_PROM = (
        "# HELP flashabft_requests_completed_total responses delivered\n"
        "# TYPE flashabft_requests_completed_total counter\n"
        "flashabft_requests_completed_total 16\n"
        "# HELP flashabft_pages_in_use KV pool pages allocated now\n"
        "# TYPE flashabft_pages_in_use gauge\n"
        "flashabft_pages_in_use 0\n"
        "# HELP flashabft_op_checks_total guarded ops reported, by kind\n"
        "# TYPE flashabft_op_checks_total counter\n"
        'flashabft_op_checks_total{kind="ffn"} 96\n'
        "# HELP flashabft_guard_phase_duration_seconds per-sample guard "
        "phase durations\n"
        "# TYPE flashabft_guard_phase_duration_seconds histogram\n"
        'flashabft_guard_phase_duration_seconds_bucket{kind="ffn",'
        'phase="verify",le="1.024e-06"} 3\n'
        'flashabft_guard_phase_duration_seconds_bucket{kind="ffn",'
        'phase="verify",le="2.048e-06"} 7\n'
        'flashabft_guard_phase_duration_seconds_bucket{kind="ffn",'
        'phase="verify",le="+Inf"} 7\n'
        'flashabft_guard_phase_duration_seconds_sum{kind="ffn",'
        'phase="verify"} 1.1e-05\n'
        'flashabft_guard_phase_duration_seconds_count{kind="ffn",'
        'phase="verify"} 7\n')

    def run_prom_gate(self, text):
        return self.run_trace_gate("--prom",
                                   self.write_text("metrics.txt", text))

    def test_well_formed_prometheus_passes(self):
        result = self.run_prom_gate(self.GOOD_PROM)
        self.assertEqual(result.returncode, 0, result.stdout)
        self.assertIn("prometheus ok", result.stdout)

    def test_duplicate_help_fails(self):
        text = self.GOOD_PROM.replace(
            "# TYPE flashabft_pages_in_use gauge\n",
            "# HELP flashabft_pages_in_use again\n"
            "# TYPE flashabft_pages_in_use gauge\n")
        result = self.run_prom_gate(text)
        self.assertEqual(result.returncode, 1, result.stdout)
        self.assertIn("2 HELP", result.stdout)

    def test_family_without_type_fails(self):
        text = self.GOOD_PROM.replace(
            "# TYPE flashabft_pages_in_use gauge\n", "")
        result = self.run_prom_gate(text)
        self.assertEqual(result.returncode, 1, result.stdout)
        self.assertIn("0 TYPE", result.stdout)

    def test_undeclared_sample_fails(self):
        result = self.run_prom_gate(self.GOOD_PROM +
                                    "flashabft_stray_total 3\n")
        self.assertEqual(result.returncode, 1, result.stdout)
        self.assertIn("no declared family", result.stdout)

    def test_non_cumulative_buckets_fail(self):
        text = self.GOOD_PROM.replace('le="2.048e-06"} 7', 'le="2.048e-06"} 2')
        result = self.run_prom_gate(text)
        self.assertEqual(result.returncode, 1, result.stdout)
        self.assertIn("not cumulative", result.stdout)

    def test_histogram_without_inf_bucket_fails(self):
        lines = [line for line in self.GOOD_PROM.splitlines()
                 if 'le="+Inf"' not in line]
        result = self.run_prom_gate("\n".join(lines) + "\n")
        self.assertEqual(result.returncode, 1, result.stdout)
        self.assertIn("not +Inf", result.stdout)

    def test_histogram_count_mismatch_fails(self):
        text = self.GOOD_PROM.replace('phase="verify"} 7', 'phase="verify"} 9')
        result = self.run_prom_gate(text)
        self.assertEqual(result.returncode, 1, result.stdout)
        self.assertIn("_count 9.0 != +Inf bucket 7.0", result.stdout)


if __name__ == "__main__":
    if len(sys.argv) < 2:
        sys.exit("usage: test_gate_scripts.py <bench-dir>")
    BENCH_DIR = sys.argv.pop(1)
    if not os.path.isdir(BENCH_DIR):
        sys.exit(f"bench dir not found: {BENCH_DIR}")
    unittest.main(verbosity=2)
