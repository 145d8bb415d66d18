// Site registry of the whole-stack serving fault campaign.
//
// The accelerator campaign (fault/campaign.hpp) injects bit flips into one
// kernel's registers. This registry spans the *serving stack*: every
// corruptible state class a deployed inference server actually carries —
// model weights, in-flight activations, KV pages, page-table mappings,
// scheduler/session bookkeeping and the protection machinery's own
// checksum state. A trial draws one subsystem's site uniformly in space
// (which element) and time (which prefill/decode step) and expresses it as
// the serving engine's native fault surfaces (WeightSite, LayerFault,
// KvCorruption, SessionTamper, detector-tolerance corruption), so a plan
// replays identically on every run.
#pragma once

#include <cstddef>
#include <optional>
#include <string_view>

#include "core/guarded_op.hpp"
#include "model/transformer_model.hpp"
#include "serve/request.hpp"
#include "tensor/random.hpp"

namespace flashabft::serve_campaign {

/// The serving stack's corruptible state classes.
enum class Subsystem {
  kWeights = 0,      ///< model parameters (embedding, projections, FFN).
  kActivations,      ///< op outputs in flight (emulated datapath upsets).
  kKvPages,          ///< KV storage: pool page rows.
  kPageTables,       ///< paged-pool mapping entries.
  kSchedulerState,   ///< session metadata: tokens, prompt, budget.
  kChecksumState,    ///< the protection state itself: sums, tolerances.
  kLatentKv,         ///< KV upset dormant through an idle window (scrub).
  kSharedPrefix,     ///< shared-prefix page read by many sessions (CoW pool).
};
inline constexpr std::size_t kSubsystemCount = 8;

[[nodiscard]] const char* subsystem_name(Subsystem subsystem);
[[nodiscard]] std::optional<Subsystem> parse_subsystem(std::string_view name);

/// One trial's fault, expressed on the engine's native surfaces. Exactly
/// one of the site members is populated (weight / op fault / KV corruption
/// / tamper / tolerance scale).
struct TrialPlan {
  Subsystem subsystem = Subsystem::kActivations;
  std::size_t session = 0;  ///< which submitted session carries the fault.
  std::size_t step = 0;     ///< injection time: 0 = prefill, s >= 1 decode.
  double magnitude = 0.0;   ///< signed shift (0 for structural upsets).
  /// Op-kind attribution when the site maps to a checkable operator class
  /// (activation faults, KV/page/table sites); empty for weights and
  /// scheduler metadata, which no guarded op covers.
  std::optional<OpKind> op_kind;

  std::optional<WeightSite> weight;  ///< pre-run parameter corruption.
  std::optional<serve::GenerationStepFault> fault;
  std::optional<serve::KvCorruption> kv;
  std::optional<serve::SessionTamper> tamper;
  /// != 1.0: both checker tolerances scaled (detector-state corruption).
  double checker_tolerance_scale = 1.0;
  /// kLatentKv: idle ticks the dormant upset sits before the session
  /// resumes — the scrubber's detection window.
  std::size_t latent_idle_ticks = 0;
};

/// Draws one trial's fault for `subsystem`, uniform over the
/// subsystem's space x time sample space, magnitudes log-uniform over
/// [1e-8, 1] with random sign (so the coverage curves sweep the band
/// between numerically-masked and surely-detected). `model` supplies the
/// shapes; `sessions`/`prompt_len`/`max_new_tokens` the campaign's trial
/// shape. Deterministic in `rng`.
[[nodiscard]] TrialPlan draw_trial_plan(Subsystem subsystem,
                                        const TransformerModel& model,
                                        std::size_t sessions,
                                        std::size_t max_new_tokens,
                                        const RecoveryPolicy& recovery,
                                        Rng& rng);

}  // namespace flashabft::serve_campaign
