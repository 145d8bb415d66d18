#include "fault/serve_campaign/sites.hpp"

#include <cmath>

#include "common/ensure.hpp"
#include "serve/load_driver.hpp"

namespace flashabft::serve_campaign {

const char* subsystem_name(Subsystem subsystem) {
  switch (subsystem) {
    case Subsystem::kWeights: return "weights";
    case Subsystem::kActivations: return "activations";
    case Subsystem::kKvPages: return "kv_pages";
    case Subsystem::kPageTables: return "page_tables";
    case Subsystem::kSchedulerState: return "scheduler_state";
    case Subsystem::kChecksumState: return "checksum_state";
    case Subsystem::kLatentKv: return "latent_kv";
    case Subsystem::kSharedPrefix: return "shared_prefix";
  }
  return "unknown";
}

std::optional<Subsystem> parse_subsystem(std::string_view name) {
  for (std::size_t s = 0; s < kSubsystemCount; ++s) {
    const Subsystem subsystem = Subsystem(s);
    if (name == subsystem_name(subsystem)) return subsystem;
  }
  return std::nullopt;
}

namespace {

/// Log-uniform magnitude over [1e-8, 1] with a random sign: sweeps the
/// whole band from numerically-masked through silently-corrupting to
/// surely-detected, so coverage curves are not a step function.
double draw_magnitude(Rng& rng) {
  const double mag = std::pow(10.0, -8.0 * rng.next_double());
  return rng.next_below(2) == 0 ? mag : -mag;
}

}  // namespace

TrialPlan draw_trial_plan(Subsystem subsystem, const TransformerModel& model,
                          std::size_t sessions, std::size_t max_new_tokens,
                          const RecoveryPolicy& recovery, Rng& rng) {
  FLASHABFT_ENSURE_MSG(sessions > 0, "campaign needs at least one session");
  FLASHABFT_ENSURE_MSG(max_new_tokens >= 2,
                       "campaign trials need at least one decode step");
  TrialPlan plan;
  plan.subsystem = subsystem;
  plan.session = std::size_t(rng.next_below(sessions));
  const TransformerConfig& cfg = model.config();

  switch (subsystem) {
    case Subsystem::kWeights: {
      // Parameters are corrupted before the run (a latent upset already
      // resident when the request arrives), so the time coordinate is the
      // prefill.
      plan.magnitude = draw_magnitude(rng);
      plan.weight = model.draw_weight_site(rng, plan.magnitude);
      plan.step = 0;
      break;
    }
    case Subsystem::kActivations: {
      plan.magnitude = draw_magnitude(rng);
      const bool persistent = rng.next_double() < 0.25;
      plan.fault = serve::draw_generation_fault(
          cfg, recovery, plan.magnitude, persistent, max_new_tokens, rng);
      plan.step = plan.fault->step;
      plan.op_kind = plan.fault->fault.kind;
      break;
    }
    case Subsystem::kKvPages: {
      plan.magnitude = draw_magnitude(rng);
      plan.kv = serve::draw_kv_corruption(cfg, max_new_tokens,
                                          plan.magnitude, rng);
      plan.step = plan.kv->step;
      plan.op_kind = OpKind::kKvPage;
      break;
    }
    case Subsystem::kPageTables: {
      // A mapping redirect is structural — no magnitude; which wrong page
      // the entry points at comes from the corruption's col draw.
      plan.kv = serve::draw_kv_corruption(cfg, max_new_tokens, 0.0, rng,
                                          /*page_table=*/true);
      plan.step = plan.kv->step;
      plan.op_kind = OpKind::kKvPage;
      break;
    }
    case Subsystem::kSchedulerState: {
      plan.tamper = serve::draw_session_tamper(max_new_tokens, rng);
      plan.step = plan.tamper->step;
      break;
    }
    case Subsystem::kChecksumState: {
      // The protection machinery's own state: running sums, the table
      // checksum, the readout-checksum datapath, the comparator's
      // tolerance registers.
      switch (rng.next_below(4)) {
        case 0:
          plan.magnitude = draw_magnitude(rng);
          plan.kv = serve::draw_kv_corruption(cfg, max_new_tokens,
                                              plan.magnitude, rng,
                                              /*page_table=*/false,
                                              /*checksum_state=*/true);
          plan.step = plan.kv->step;
          plan.op_kind = OpKind::kKvPage;
          break;
        case 1:
          // The page table's own running weighted sum.
          plan.magnitude = draw_magnitude(rng);
          plan.kv = serve::draw_kv_corruption(
              cfg, max_new_tokens, plan.magnitude, rng,
              /*page_table=*/true, /*checksum_state=*/true);
          plan.step = plan.kv->step;
          plan.op_kind = OpKind::kKvPage;
          break;
        case 2:
          // Readout-checksum upset: the op's output stays correct, only
          // its checksum is shifted — the false-alarm path.
          plan.magnitude = draw_magnitude(rng);
          plan.fault = serve::draw_generation_fault(
              cfg, recovery, plan.magnitude, /*persistent=*/false,
              max_new_tokens, rng);
          plan.fault->fault.checksum_only = true;
          plan.step = plan.fault->step;
          plan.op_kind = plan.fault->fault.kind;
          break;
        default:
          // Tolerance-register corruption: scale 0 makes the comparator
          // hyperactive (every op false-alarms), a huge scale blinds it.
          plan.checker_tolerance_scale =
              rng.next_below(2) == 0 ? 0.0 : 1e6;
          plan.step = 0;
          break;
      }
      break;
    }
    case Subsystem::kLatentKv: {
      // Same site space as kKvPages, but the upset lands at the *start* of
      // an idle window and sits dormant for 2-4 ticks — the scrubber must
      // find it before the resumed decode step reads it.
      plan.magnitude = draw_magnitude(rng);
      plan.kv = serve::draw_kv_corruption(cfg, max_new_tokens,
                                          plan.magnitude, rng);
      plan.kv->latent = true;
      plan.latent_idle_ticks = 2 + std::size_t(rng.next_below(3));
      plan.step = plan.kv->step;
      plan.op_kind = OpKind::kKvPage;
      break;
    }
    case Subsystem::kSharedPrefix: {
      // Same element space as kKvPages, but pinned (modulo the shared
      // length) into the template rows every session of the trial maps —
      // ONE corrupted shared page with S readers: each must alarm, and the
      // page must heal exactly once.
      plan.magnitude = draw_magnitude(rng);
      plan.kv = serve::draw_kv_corruption(cfg, max_new_tokens,
                                          plan.magnitude, rng);
      plan.kv->shared_prefix = true;
      plan.step = plan.kv->step;
      plan.op_kind = OpKind::kKvPage;
      break;
    }
  }
  return plan;
}

}  // namespace flashabft::serve_campaign
