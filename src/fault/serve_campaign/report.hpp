// JSON emission for the serving fault campaign — the BENCH_faults.json
// schema the check_coverage.py CI gate consumes.
//
// Shape:
//   { "bench": "fault_campaign",
//     "config": { model shape, seeds, session shape, page shape },
//     "trials_per_cell": N,            // OUTSIDE config: the smoke run
//                                      // uses fewer trials on purpose and
//                                      // must still match the baseline
//     "results": [ { "scheduler" (always "continuous"), "subsystem",
//                    "dtype", "trials", "scrub_found",
//                    "outcomes": {class: count, ...},
//                    "detection_coverage", "coverage_ci_low/high",
//                    "sdc_rate", "sdc_ci_low/high",
//                    "time_curve":  [ {bucket, trials, detected, sdc} ],
//                    "per_op_kind": [ {kind, trials, detected, sdc} ] } ] }
#pragma once

#include <span>
#include <string>

#include "fault/serve_campaign/campaign.hpp"

namespace flashabft::serve_campaign {

/// The full campaign report as a JSON document. Every cell carries a
/// "dtype" field (its campaign's storage dtype), so one file can hold a
/// dtype sweep.
[[nodiscard]] std::string campaign_report_json(const CampaignResult& result);

/// Dtype-sweep report: the cells of every result concatenated, each tagged
/// with its campaign's dtype. The results must share every config knob
/// except `dtype`; the config block records the sweep as a '+'-joined list
/// (e.g. "f32+bf16") so the coverage gate's config guard still refuses
/// mismatched shapes.
[[nodiscard]] std::string campaign_report_json(
    std::span<const CampaignResult> results);

/// Human-readable per-cell summary table (stdout companion of the JSON).
[[nodiscard]] std::string campaign_report_text(const CampaignResult& result);

}  // namespace flashabft::serve_campaign
