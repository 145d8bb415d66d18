#!/usr/bin/env python3
"""Perf-regression gate over serve_throughput --json output.

Compares a freshly measured BENCH_serve.json candidate against the
committed baseline and fails (exit 1) when:

  * a scenario's throughput_rps drops more than --max-drop below the
    (machine-normalized) baseline value,
  * a generation scenario's tokens_per_sec drops more than --max-drop,
  * a kernel's SIMD-over-scalar speedup falls below --min-kernel-speedup
    (0 disables the check), or
  * a baseline scenario is missing from the candidate, or a scenario that
    was ok in the baseline is no longer ok (reconciliation failed), or
  * a per-OpKind ABFT overhead (verify+recovery as % of compute, from the
    scenario's "abft_overhead" block) rises more than --max-overhead-rise
    percentage points above the baseline (overhead is a within-run ratio,
    so it needs no machine normalization; kinds with < 0.5 ms of compute
    on either side are skipped as timing noise), or
  * the candidate's "obs"-mode tracing pairs (the same continuous
    generation workload run tracing-off then tracing-on, once per
    backend) show tracing costing more than --max-trace-cost of
    throughput on EVERY pair — the minimum cost across the pairs is the
    noise-robust estimate, since a real cost hits all backends while
    single-run throughput noise is uncorrelated. This is a
    candidate-only, within-machine check: the pair exists to keep the
    always-available --trace flag affordable, and it only runs when the
    candidate was produced with --mode=obs or --mode=all.

Scenarios are matched by (name, mode, backend).

Config guard: both files record the full effective run configuration
("config": seed, backend, page size, request counts, ...).
When the configs disagree the comparison is refused (exit 2) instead of
silently diffing apples against oranges — a baseline recorded at a
different seed or page size is not a baseline. A file without a "config"
section (pre-PR-5 format) only produces a warning.

Machine normalization: the baseline may have been recorded on different
hardware than the candidate run, so absolute throughput is not compared
directly. Both files carry the same fixed-shape scalar kernel timings
("kernels"[].scalar_ms); their median ratio estimates how much slower or
faster the candidate machine is, and baseline throughput expectations are
scaled by it (clamped to [0.2, 5.0] so a broken probe cannot hide a real
regression). --no-normalize compares raw values. The SIMD speedup check is
a within-machine ratio and needs no normalization.

Usage:
  python3 bench/check_regression.py \
      --baseline BENCH_serve.json --candidate bench_serve_ci.json \
      [--max-drop 0.30] [--min-kernel-speedup 2.0] [--no-normalize]
"""

import argparse
import json
import sys


def scenario_key(scenario):
    return (scenario["name"], scenario["mode"], scenario.get("backend", ""))


def machine_slowdown(baseline, candidate):
    """Median candidate/baseline scalar kernel time ratio (>1 = candidate
    machine slower), clamped; 1.0 when either side lacks kernel timings."""
    base_kernels = {k.get("name"): k for k in baseline.get("kernels", [])}
    ratios = []
    for kernel in candidate.get("kernels", []):
        base = base_kernels.get(kernel.get("name"))
        if not base:
            continue
        base_ms = base.get("scalar_ms", 0.0)
        cand_ms = kernel.get("scalar_ms", 0.0)
        if base_ms > 0.0 and cand_ms > 0.0:
            ratios.append(cand_ms / base_ms)
    if not ratios:
        return 1.0
    ratios.sort()
    mid = len(ratios) // 2
    median = (ratios[mid] if len(ratios) % 2
              else 0.5 * (ratios[mid - 1] + ratios[mid]))
    return min(5.0, max(0.2, median))


def check_abft_overhead(base, cand, label, max_rise, failures):
    """Per-kind overhead_pct comparison for one scenario pair. Returns the
    number of metrics checked."""
    checked = 0
    base_overhead = base.get("abft_overhead", {})
    cand_overhead = cand.get("abft_overhead", {})
    for kind, base_kind in base_overhead.items():
        cand_kind = cand_overhead.get(kind)
        if cand_kind is None:
            continue  # the kind may simply not run in a smoke config.
        if (base_kind.get("compute_ms", 0.0) < 0.5
                or cand_kind.get("compute_ms", 0.0) < 0.5):
            continue  # too little compute for the ratio to be meaningful.
        checked += 1
        base_pct = base_kind.get("overhead_pct", 0.0)
        cand_pct = cand_kind.get("overhead_pct", 0.0)
        if cand_pct > base_pct + max_rise:
            failures.append(
                f"{label}: {kind} ABFT overhead {cand_pct:.1f}% > "
                f"baseline {base_pct:.1f}% + {max_rise:.1f} points")
    return checked


def check_tracing_cost(candidate, max_cost, failures):
    """Tracing-off vs tracing-on throughput within the candidate's "obs"
    scenario pairs (one pair per backend). Returns the number of metrics
    checked (0 when the candidate was not run with --mode=obs/all).

    A real tracing cost is backend-independent — the collector appends the
    same events either way — while single-run throughput noise is
    uncorrelated across the pairs, so the gate fails only when EVERY
    backend's pair shows tracing costing more than `max_cost`: the
    minimum observed cost is the robust estimate of the true cost."""
    pairs = {}  # backend -> {"off": scenario, "on": scenario}
    for s in candidate.get("scenarios", []):
        if s.get("mode") != "obs":
            continue
        side = ("off" if "tracing off" in s.get("name", "")
                else "on" if "tracing on" in s.get("name", "") else None)
        if side:
            pairs.setdefault(s.get("backend", ""), {})[side] = s
    checked = 0
    for metric in ("throughput_rps", "tokens_per_sec"):
        costs = []
        for pair in pairs.values():
            if "off" not in pair or "on" not in pair:
                continue
            off_value = pair["off"].get(metric, 0.0)
            if off_value <= 0.0:
                continue
            costs.append(1.0 - pair["on"].get(metric, 0.0) / off_value)
        if not costs:
            continue
        checked += 1
        best = min(costs)
        if best > max_cost:
            failures.append(
                f"tracing cost: {metric} down {100.0 * best:.1f}% with "
                f"tracing on across every backend pair "
                f"(budget {100.0 * max_cost:.1f}%)")
    return checked


def check_config_match(baseline, candidate):
    """Returns a list of config keys whose effective values differ; warns
    (but allows) when either side predates the config section."""
    base_cfg = baseline.get("config")
    cand_cfg = candidate.get("config")
    if base_cfg is None or cand_cfg is None:
        print("warning: missing \"config\" section "
              f"(baseline: {base_cfg is not None}, "
              f"candidate: {cand_cfg is not None}); "
              "cannot verify the runs are comparable")
        return []
    mismatched = []
    for key in sorted(set(base_cfg) | set(cand_cfg)):
        if base_cfg.get(key) != cand_cfg.get(key):
            mismatched.append(
                f"{key}: baseline {base_cfg.get(key)!r} "
                f"!= candidate {cand_cfg.get(key)!r}")
    return mismatched


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--baseline", required=True)
    parser.add_argument("--candidate", required=True)
    parser.add_argument("--max-drop", type=float, default=0.30,
                        help="max fractional throughput drop (default 0.30)")
    parser.add_argument("--min-kernel-speedup", type=float, default=2.0,
                        help="min SIMD/scalar kernel speedup; 0 disables")
    parser.add_argument("--no-normalize", action="store_true",
                        help="compare raw throughput without machine-speed "
                             "normalization")
    parser.add_argument("--max-overhead-rise", type=float, default=5.0,
                        help="max per-OpKind ABFT-overhead rise in "
                             "percentage points (default 5.0; 0 disables)")
    parser.add_argument("--max-trace-cost", type=float, default=0.05,
                        help="max fractional throughput cost of tracing in "
                             "the candidate's obs pair (default 0.05)")
    args = parser.parse_args()

    with open(args.baseline) as f:
        baseline = json.load(f)
    with open(args.candidate) as f:
        candidate = json.load(f)

    mismatched = check_config_match(baseline, candidate)
    if mismatched:
        print(f"config mismatch — refusing to compare ({len(mismatched)} "
              "differing key(s)):")
        for item in mismatched:
            print(f"  - {item}")
        return 2

    slowdown = 1.0 if args.no_normalize else machine_slowdown(baseline,
                                                              candidate)
    print(f"machine slowdown factor (candidate vs baseline): "
          f"{slowdown:.3f}x")

    candidate_scenarios = {scenario_key(s): s
                           for s in candidate.get("scenarios", [])}
    floor = (1.0 - args.max_drop) / slowdown
    failures = []
    checked = 0

    for base in baseline.get("scenarios", []):
        if not base.get("ok", False):
            continue  # never pin a baseline that was already failing
        key = scenario_key(base)
        cand = candidate_scenarios.get(key)
        label = " / ".join(k for k in key if k)
        if cand is None:
            failures.append(f"missing scenario: {label}")
            continue
        if not cand.get("ok", False):
            failures.append(f"reconciliation failed: {label}")
            continue
        for metric in ("throughput_rps", "tokens_per_sec"):
            base_value = base.get(metric, 0.0)
            if base_value <= 0.0:
                continue
            cand_value = cand.get(metric, 0.0)
            checked += 1
            if cand_value < floor * base_value:
                failures.append(
                    f"{label}: {metric} {cand_value:.1f} < "
                    f"{floor:.2f} x baseline {base_value:.1f}")
        if args.max_overhead_rise > 0.0:
            checked += check_abft_overhead(base, cand, label,
                                           args.max_overhead_rise, failures)

    checked += check_tracing_cost(candidate, args.max_trace_cost, failures)

    if args.min_kernel_speedup > 0.0:
        kernels = candidate.get("kernels", [])
        if not kernels:
            failures.append("candidate has no kernels section "
                            "(run with --kernel-reps > 0)")
        for kernel in kernels:
            checked += 1
            speedup = kernel.get("speedup", 0.0)
            if speedup < args.min_kernel_speedup:
                failures.append(
                    f"kernel {kernel.get('name', '?')}: speedup "
                    f"{speedup:.2f}x < {args.min_kernel_speedup:.2f}x")

    if failures:
        print(f"perf regression check FAILED ({len(failures)} problem(s), "
              f"{checked} metrics checked):")
        for failure in failures:
            print(f"  - {failure}")
        return 1
    print(f"perf regression check passed ({checked} metrics checked)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
