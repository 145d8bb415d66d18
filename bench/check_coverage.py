#!/usr/bin/env python3
"""SDC-coverage gate over fault_campaign --json output.

Compares a freshly measured BENCH_faults.json candidate against the
committed baseline and fails (exit 1) when any (scheduler, subsystem,
dtype) cell's detection quality regresses (the scheduler is always
"continuous", the only generation engine):

  * detection coverage regression: the candidate's coverage upper
    confidence bound falls below the baseline coverage minus --max-drop
    (i.e. even granting the candidate its full Wilson interval, it is
    still worse than the baseline by more than the allowance), or
  * SDC-rate regression: the candidate's SDC lower confidence bound rises
    above the baseline SDC rate plus --max-rise, or
  * a crash regression: the candidate has crash/hang trials in a cell
    whose baseline had none, or
  * a baseline cell is missing from the candidate.

Protected-control-plane gates (PR 7), checked on the candidate alone:

  * scheduler_state cells must exist and clear --min-protected-coverage
    with their coverage upper bound (the sealed session metadata closed
    what used to be a 0%-coverage blind spot — this gate keeps it
    closed), and
  * latent_kv cells must exist, clear the same coverage floor, and
    attribute at least --min-scrub-fraction of their detected trials to
    the background scrubber (scrub_found) — detection must happen before
    a decode read trips on the corruption, not at it, and
  * shared_prefix cells (PR 8: one corrupted shared page, many readers)
    must exist and clear the same coverage floor — the single-checksum
    multi-reader pages must stay as well-detected as private ones.

Comparing CI bounds against baseline point values (rather than point vs
point) keeps the gate honest across trial counts: the CI smoke run uses
far fewer trials per cell than the committed baseline, so its point
estimates are noisy, but its intervals widen to match — a true regression
still trips the gate, sampling noise does not.

Config guard: both files record the full effective campaign configuration
("config": model shape, seeds, session shape, page shape). When the
configs disagree the comparison is refused (exit 2) instead of silently
diffing different experiments — a baseline recorded at a different seed or
model shape is not a baseline. "trials_per_cell" deliberately lives
OUTSIDE the config section: differing trial counts are expected (smoke vs
baseline) and handled by the CI-bound comparison above.

Usage:
  python3 bench/check_coverage.py \
      --baseline BENCH_faults.json --candidate bench_faults_ci.json \
      [--max-drop 0.02] [--max-rise 0.02]
"""

import argparse
import json
import sys


def cell_key(cell):
    # Pre-dtype-sweep reports carry no "dtype" field; those cells were all
    # measured at f32 storage.
    return (cell["scheduler"], cell["subsystem"], cell.get("dtype", "f32"))


def swept_dtypes(report):
    """The storage dtypes a report covers: the '+'-joined config sweep
    string (PR 9), or f32 for pre-sweep reports."""
    return report.get("config", {}).get("dtype", "f32").split("+")


def check_config_match(baseline, candidate):
    """Returns config keys whose values differ; refuses comparison when a
    config section is missing entirely (there is no pre-config format for
    this bench)."""
    base_cfg = baseline.get("config")
    cand_cfg = candidate.get("config")
    if base_cfg is None or cand_cfg is None:
        return ["config section missing "
                f"(baseline: {base_cfg is not None}, "
                f"candidate: {cand_cfg is not None})"]
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
    parser.add_argument("--max-drop", type=float, default=0.02,
                        help="allowed detection-coverage drop below the "
                             "baseline point value (default 0.02)")
    parser.add_argument("--max-rise", type=float, default=0.02,
                        help="allowed SDC-rate rise above the baseline "
                             "point value (default 0.02)")
    parser.add_argument("--min-protected-coverage", type=float, default=0.9,
                        help="coverage upper-bound floor for the "
                             "scheduler_state and latent_kv cells "
                             "(default 0.9)")
    parser.add_argument("--min-scrub-fraction", type=float, default=0.9,
                        help="min fraction of detected latent_kv trials "
                             "the scrubber must have found (default 0.9)")
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

    candidate_cells = {cell_key(c): c for c in candidate.get("results", [])}
    failures = []
    checked = 0

    for base in baseline.get("results", []):
        key = cell_key(base)
        label = f"{key[0]}/{key[1]}@{key[2]}"
        cand = candidate_cells.get(key)
        if cand is None:
            failures.append(f"missing cell: {label}")
            continue

        checked += 1
        base_cov = base.get("detection_coverage", 0.0)
        cand_cov_high = cand.get("coverage_ci_high", 0.0)
        if cand_cov_high < base_cov - args.max_drop:
            failures.append(
                f"{label}: coverage upper bound {cand_cov_high:.4f} < "
                f"baseline {base_cov:.4f} - {args.max_drop}")

        base_sdc = base.get("sdc_rate", 0.0)
        cand_sdc_low = cand.get("sdc_ci_low", 0.0)
        if cand_sdc_low > base_sdc + args.max_rise:
            failures.append(
                f"{label}: sdc lower bound {cand_sdc_low:.4f} > "
                f"baseline {base_sdc:.4f} + {args.max_rise}")

        base_crash = base.get("outcomes", {}).get("crash_hang", 0)
        cand_crash = cand.get("outcomes", {}).get("crash_hang", 0)
        if base_crash == 0 and cand_crash > 0:
            failures.append(
                f"{label}: {cand_crash} crash/hang trial(s), baseline had "
                "none")

    if not checked:
        failures.append("baseline has no result cells")

    # Protected-control-plane gates: candidate-only structural floors,
    # enforced at EVERY swept storage dtype — low-precision serving must
    # keep the control plane as well-detected as f32 did.
    for dtype in swept_dtypes(candidate):
        for subsystem in ("scheduler_state", "latent_kv", "shared_prefix"):
            label = f"continuous/{subsystem}@{dtype}"
            cell = candidate_cells.get(("continuous", subsystem, dtype))
            if cell is None:
                failures.append(f"missing protected cell: {label}")
                continue
            cov_high = cell.get("coverage_ci_high", 0.0)
            if cov_high < args.min_protected_coverage:
                failures.append(
                    f"{label}: coverage upper bound {cov_high:.4f} < "
                    f"floor {args.min_protected_coverage}")
            if subsystem != "latent_kv":
                continue
            outcomes = cell.get("outcomes", {})
            detected = (outcomes.get("detected_corrected", 0) +
                        outcomes.get("detected_uncorrected", 0))
            scrub_found = cell.get("scrub_found", 0)
            if detected > 0 and scrub_found < (
                    args.min_scrub_fraction * detected):
                failures.append(
                    f"{label}: scrubber found {scrub_found}/{detected} "
                    f"detected latent trials "
                    f"(< {args.min_scrub_fraction:.0%})")

    if failures:
        print(f"coverage gate FAILED ({len(failures)} problem(s), "
              f"{checked} cells checked):")
        for failure in failures:
            print(f"  - {failure}")
        return 1
    print(f"coverage gate passed ({checked} cells checked)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
