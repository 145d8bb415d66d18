// Whole-stack fault-injection campaign over the real serving engines.
//
// Each trial boots the campaign's TransformerModel under the
// continuous-batching scheduler (driven deterministically through
// serve::run_stepped), injects exactly one fault drawn from a
// subsystem's site registry (sites.hpp) and classifies the outcome against
// a fault-free golden run of the same seed:
//
//   detected_corrected    alarm raised, output matches golden
//   detected_uncorrected  alarm raised, output diverged anyway
//   masked                no alarm, no divergence (benign upset)
//   sdc                   diverged silently — the failure ABFT exists to
//                         prevent; NaN/Inf divergence counts here, never
//                         as masked
//   crash_hang            the engine threw or the tick watchdog fired
//
// Aggregation is per subsystem cell with Wilson-interval
// detection coverage (detected / (detected + sdc)) and SDC rate, plus
// injection-time curves (prefill + decode quartiles) and per-OpKind
// splits. Identical seeds reproduce identical trial-by-trial outcomes.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "fault/serve_campaign/sites.hpp"
#include "fault/stats.hpp"
#include "serve/stepper.hpp"

namespace flashabft::serve_campaign {

enum class TrialOutcome {
  kDetectedCorrected = 0,
  kDetectedUncorrected,
  kMasked,
  kSdc,
  kCrashHang,
};
inline constexpr std::size_t kTrialOutcomeCount = 5;

[[nodiscard]] const char* trial_outcome_name(TrialOutcome outcome);

/// The three observables -> the outcome class. `crashed` dominates;
/// otherwise alarmed x diverged spans the 2x2.
[[nodiscard]] TrialOutcome classify_trial(bool crashed, bool alarmed,
                                          bool diverged);

/// Whether a trial's final logits diverge from the golden run's. Relative
/// tolerance `tol` absorbs fallback-kernel rounding differences (the
/// reference engine is implementation-diverse, not bit-identical). Any
/// non-finite mismatch — NaN or Inf where golden is finite, or differing
/// infinities — is divergence: the NaN blind spot must never classify as
/// masked (see test_serve_campaign's regression).
[[nodiscard]] bool logits_diverge(const std::vector<double>& golden,
                                  const std::vector<double>& candidate,
                                  double tol = 1e-7);

struct CampaignConfig {
  /// Small-but-real stack: 2 layers / 2 heads exercise every protected op
  /// class while a trial stays ~milliseconds.
  TransformerConfig model{.vocab_size = 48,
                          .model_dim = 16,
                          .num_layers = 2,
                          .num_heads = 2,
                          .head_dim = 8,
                          .ffn_dim = 32,
                          .max_seq_len = 24};
  std::uint64_t model_seed = 42;
  std::size_t sessions = 3;  ///< concurrent sessions per trial.
  std::size_t prompt_len = 5;
  std::size_t max_new_tokens = 6;
  std::size_t trials_per_cell = 500;  ///< per subsystem.
  std::uint64_t seed = 2026;
  /// Continuous-engine shape: small pages so sessions span several.
  std::size_t page_size = 4;
  std::size_t num_pages = 0;  ///< 0 = derived (no page pressure).
  /// Storage dtype of the campaign stack. run_campaign copies it into the
  /// model config and, when != kF32 and no explicit tolerances were set,
  /// derives the per-OpKind thresholds from the rounding-error-bound model
  /// — so a `--dtype=bf16` cell runs the identical trial protocol at
  /// low-precision storage with calibrated comparators.
  DType dtype = DType::kF32;
  GuardedExecutor::Options executor_options{};
  /// Stepper watchdog override: hard cap on scheduler ticks per trial. 0
  /// keeps the stepper's derived bound — the default every committed
  /// baseline was produced under. Setting it low (e.g. 1) forces the
  /// crash_hang class, which is how CI exercises the flight-dump path on
  /// demand.
  std::size_t max_ticks = 0;
  /// When non-empty, every crash_hang trial appends its flight-recorder
  /// dump here, headed by a line naming the injected subsystem and the
  /// trial index — the post-mortem for a wedged trial.
  /// Trials only carry a recorder when this is set, so the default
  /// campaign's behavior (and its committed outcome streams) are untouched.
  std::string flight_dump_path{};
};

/// One subsystem cell's tallies.
struct CellResult {
  Subsystem subsystem = Subsystem::kActivations;
  std::size_t trials = 0;
  std::array<std::size_t, kTrialOutcomeCount> outcomes{};
  /// Injection-time curve: bucket 0 = prefill, 1..4 = decode quartiles.
  static constexpr std::size_t kTimeBuckets = 5;
  std::array<std::array<std::size_t, kTrialOutcomeCount>, kTimeBuckets>
      by_time{};
  /// Per-OpKind split for sites attributable to a checkable op class.
  std::array<std::array<std::size_t, kTrialOutcomeCount>, kOpKindCount>
      by_op_kind{};
  /// Trials where the background scrub found the fault before a decode
  /// step read it (latent_kv's headline number; 0 for immediate upsets).
  std::size_t scrub_found = 0;
  /// The trial-by-trial outcome stream — the reproducibility contract
  /// (identical seeds => identical streams; pinned by tests).
  std::vector<std::uint8_t> trial_outcomes;

  [[nodiscard]] std::size_t count(TrialOutcome outcome) const {
    return outcomes[std::size_t(outcome)];
  }
  [[nodiscard]] std::size_t detected() const {
    return count(TrialOutcome::kDetectedCorrected) +
           count(TrialOutcome::kDetectedUncorrected);
  }
  /// Coverage over consequential faults: detected / (detected + SDC).
  /// Masked trials say nothing about the detector; crashes are their own
  /// failure class.
  [[nodiscard]] Proportion detection_coverage() const {
    return wilson_interval(detected(),
                           detected() + count(TrialOutcome::kSdc));
  }
  [[nodiscard]] Proportion sdc_rate() const {
    return wilson_interval(count(TrialOutcome::kSdc), trials);
  }
};

struct CampaignResult {
  CampaignConfig config;
  std::vector<CellResult> cells;  ///< subsystem order.
};

/// Runs trials_per_cell trials for every subsystem cell. `progress`
/// (optional) fires after each completed cell.
[[nodiscard]] CampaignResult run_campaign(
    const CampaignConfig& cfg,
    const std::function<void(const CellResult&)>& progress = nullptr);

}  // namespace flashabft::serve_campaign
