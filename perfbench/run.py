#!/usr/bin/env python3
"""Serving benchmark: builds perfbench/perfbench.cpp against the repository's
library, runs one workload and prints its metrics.

    python3 perfbench/run.py --workload chat --seed 1 --seconds 24 --trace 0

Run from the repository root. The last line of stdout is one JSON object with
the keys correct, attempted, failed and metrics: the end-to-end metrics with
--trace 0, the per-layer metrics with --trace 1. The lines above it print every
metric by name and unit plus the steadiness diagnostics. Exits non-zero when
any output check fails. See perfbench/README.md.
"""

import argparse
import json
import math
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
OUT_DIR = os.path.join(ROOT, ".bench_out")
BINARY = os.path.join(BUILD_DIR, "perfbench")
RUN_TIMEOUT_S = 170

# name -> unit; the order is the print order.
END_TO_END = {
    "tokens_per_s": "tok/s",
    "cpu_ms_per_token": "ms",
    "ttft_mean_ms": "ms",
    "ttft_tail_ms": "ms",
    "tpot_p50_ms": "ms",
    "token_match_frac": "frac",
    "served_frac": "frac",
    "setup_s": "s",
    "rss_peak_mb": "MB",
}

GUARDED_KINDS = ["attention_flash_abft", "projection", "ffn", "kv_page",
                 "control_plane"]

PER_LAYER = {
    "serve.tick_ms": "ms",
    "serve.batch_occupancy": "sessions",
    "serve.ticks": "count",
    "serve.queue_ms_p50": "ms",
    "serve.sessions_parked": "count",
    "serve.rejected": "count",
    "scrub.passes_per_s_saturation": "1/s",
    "scrub.passes_per_s_paced": "1/s",
    "scrub.items": "count",
    "scrub.repairs": "count",
    **{f"guarded_op.{kind}.{field}": unit
       for kind in GUARDED_KINDS
       for field, unit in (("compute_ms", "ms"), ("verify_ms", "ms"),
                           ("recovery_ms", "ms"), ("alarms", "count"))},
    "guarded_op.verify_overhead_pct": "%",
    "guarded_op.fallback_ops": "count",
    "kv_pool.evictions": "count",
    "kv_pool.shared_heals": "count",
    "kv_pool.peak_page_util": "frac",
    "kv_pool.verify_us": "us",
    "model.prefill_ms": "ms",
    "model.cached_prefill_ms": "ms",
    "model.decode_batch_ms": "ms",
    "model.decode_step_ms": "ms",
    "model.weight_verify_ms": "ms",
    "flash_abft.decode_us": "us",
    "flash_abft.prefill_ms": "ms",
    "flash_abft.check_overhead_pct": "%",
    "tensor.matmul_fused_us": "us",
    "tensor.matmul_check_overhead_pct": "%",
    "tensor.matmul_fused.flops": "flop",
    "tensor.matmul_fused.bytes": "B",
    "trace.overhead_pct": "%",
}


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def tail_percentile(values, beyond=10):
    """The highest percentile with at least `beyond` samples above it.

    Returns (percentile, value, samples_beyond). With `beyond` or fewer
    samples no percentile qualifies and the median is returned instead.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n == 0:
        return 0.0, 0.0, 0
    if n <= beyond:
        return 50.0, statistics.median(ordered), n // 2
    index = n - beyond - 1
    return 100.0 * (index + 1) / n, ordered[index], beyond


def self_times(spans):
    """Self time per span id: its duration minus the part of its interval
    that its child spans cover (overlapping children are counted once)."""
    children = {}
    for span in spans:
        children.setdefault(span["parent"], []).append(span)
    result = {}
    for span in spans:
        start, end = span["start_us"], span["end_us"]
        covered, reach = 0.0, start
        for child in sorted(children.get(span["id"], []),
                            key=lambda c: c["start_us"]):
            lo, hi = max(child["start_us"], reach), min(child["end_us"], end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        result[span["id"]] = (end - start) - covered
    return result


def span_table(spans):
    """name -> (count, total_us, self_us), largest self time first."""
    own = self_times(spans)
    table = {}
    for span in spans:
        count, total, self_us = table.get(span["name"], (0, 0.0, 0.0))
        table[span["name"]] = (count + 1,
                               total + span["end_us"] - span["start_us"],
                               self_us + own[span["id"]])
    return dict(sorted(table.items(), key=lambda kv: -kv[1][2]))


def build():
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        raise RuntimeError(f"no library sources under {ROOT}: the benchmark "
                           "must run from a full checkout")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", BUILD_DIR,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", BUILD_DIR, "-j", jobs],
                   check=True, stdout=sys.stderr)


def run_program(args):
    command = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--out-dir", OUT_DIR]
    if args.smoke:
        command.append("--smoke")
    proc = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                          timeout=RUN_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"perfbench exited with code {proc.returncode}")
    os.makedirs(OUT_DIR, exist_ok=True)
    raw_path = os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}"
                                     f"-trace{args.trace}.raw.json")
    with open(raw_path, "w") as f:
        f.write(lines[-1] + "\n")
    return json.loads(lines[-1])


def end_to_end(raw):
    paced = [s for s in raw["sessions"]
             if s["phase"] == "paced" and not s["failed"]]
    ttft = [s["ttft_ms"] for s in paced]
    tpot = [(s["total_ms"] - s["ttft_ms"]) / (s["tokens"] - 1)
            for s in paced if s["tokens"] > 1]
    tail_pct, tail_value, beyond = tail_percentile(ttft)
    attempted = raw["attempted"]
    metrics = {
        "tokens_per_s": raw["sat_tokens"] / raw["sat_wall_s"],
        "cpu_ms_per_token": 1e3 * raw["sat_cpu_s"] / raw["sat_tokens"],
        "ttft_mean_ms": statistics.mean(ttft) if ttft else 0.0,
        "ttft_tail_ms": tail_value,
        "tpot_p50_ms": statistics.median(tpot) if tpot else 0.0,
        "token_match_frac": (raw["golden_matched"] / raw["golden_sampled"]
                             if raw["golden_sampled"] else 0.0),
        "served_frac": (attempted - raw["failed"]) / attempted,
        "setup_s": statistics.median(raw["setup_s"]),
        "rss_peak_mb": raw["rss_peak_mb"],
    }
    notes = {"ttft_tail_ms": f"p{tail_pct:.1f} of {len(ttft)} paced sessions, "
                             f"{beyond} beyond",
             "setup_s": f"median of {len(raw['setup_s'])} set-ups"}
    return metrics, notes


def per_layer(raw):
    paced = [s for s in raw["sessions"]
             if s["phase"] == "paced" and not s["failed"]]
    metrics = {name: entry["value"] for name, entry in raw["layers"].items()}
    metrics["serve.queue_ms_p50"] = (
        statistics.median(s["queue_ms"] for s in paced) if paced else 0.0)
    return metrics


def print_metrics(title, metrics, units, notes):
    print(f"== {title}")
    for name, unit in units.items():
        note = f"   ({notes[name]})" if name in notes else ""
        print(f"  {name:38s} {metrics[name]:14.4f} {unit}{note}")


def print_spans(raw):
    path = raw["spans_file"]
    with open(path) as f:
        spans = json.load(f)["spans"]
    print(f"== spans ({len(spans)} recorded; {path})")
    print(f"  {'name':30s} {'count':>7s} {'total ms':>11s} {'self ms':>11s}")
    for name, (count, total, own) in span_table(spans).items():
        print(f"  {name:30s} {count:7d} {total / 1e3:11.2f} {own / 1e3:11.2f}")
    print(f"  program trace (Perfetto / chrome://tracing): "
          f"{raw['program_trace_file']}")


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["chat", "chat_faults"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny model and shapes; finishes in seconds")
    args = parser.parse_args(argv)

    try:
        build()
        raw = run_program(args)
    except (RuntimeError, OSError, subprocess.SubprocessError) as error:
        log(f"perfbench: {error}")
        return 2

    e2e, notes = end_to_end(raw)
    layers = per_layer(raw) if args.trace else {}
    violations = list(raw["violations"])
    if raw["failed"] > 0:
        violations.append(f"{raw['failed']} sessions failed or were refused")

    print(f"workload {raw['workload']}  seed {raw['seed']}  "
          f"{raw['clients']:.0f} closed-loop clients, then paced at "
          f"{raw['paced_rate']}/s")
    print_metrics("end-to-end", e2e, END_TO_END, notes)
    if args.trace:
        print_metrics("per-layer", layers, PER_LAYER, {
            "tensor.matmul_fused.flops": "computed from the shapes",
            "tensor.matmul_fused.bytes": "computed from the shapes"})
        print_spans(raw)
    print("== steadiness diagnostics (not metrics)")
    print(f"  machine probe ms, start / end    {raw['probe_start_ms']:.2f} / "
          f"{raw['probe_end_ms']:.2f}")
    print(f"  paced generator worst lateness   "
          f"{raw['paced_max_lateness_ms']:.3f} ms")
    print(f"  paced drain after last arrival   {raw['paced_drain_s']:.3f} s "
          f"(longest of {raw['rounds']:.0f} rounds, "
          f"{raw['paced_arrivals']:.0f} arrivals)")
    print(f"  token parity                     {raw['golden_matched']:.0f} / "
          f"{raw['golden_sampled']:.0f} sampled sessions")
    for violation in violations:
        print(f"  CHECK FAILED: {violation}")

    chosen = (PER_LAYER if args.trace else END_TO_END)
    values = layers if args.trace else e2e
    result = {
        "correct": not violations,
        "attempted": int(raw["attempted"]),
        "failed": int(raw["failed"]),
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in chosen.items()
                    if math.isfinite(values[name])},
    }
    print(json.dumps(result))
    return 0 if not violations else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
