#include "fault/serve_campaign/campaign.hpp"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <utility>

#include "common/ensure.hpp"
#include "fault/calibrate.hpp"
#include "obs/flight_recorder.hpp"

namespace flashabft::serve_campaign {

const char* trial_outcome_name(TrialOutcome outcome) {
  switch (outcome) {
    case TrialOutcome::kDetectedCorrected: return "detected_corrected";
    case TrialOutcome::kDetectedUncorrected: return "detected_uncorrected";
    case TrialOutcome::kMasked: return "masked";
    case TrialOutcome::kSdc: return "sdc";
    case TrialOutcome::kCrashHang: return "crash_hang";
  }
  return "unknown";
}

TrialOutcome classify_trial(bool crashed, bool alarmed, bool diverged) {
  if (crashed) return TrialOutcome::kCrashHang;
  if (alarmed) {
    return diverged ? TrialOutcome::kDetectedUncorrected
                    : TrialOutcome::kDetectedCorrected;
  }
  return diverged ? TrialOutcome::kSdc : TrialOutcome::kMasked;
}

bool logits_diverge(const std::vector<double>& golden,
                    const std::vector<double>& candidate, double tol) {
  if (golden.size() != candidate.size()) return true;
  for (std::size_t i = 0; i < golden.size(); ++i) {
    const double g = golden[i];
    const double c = candidate[i];
    // Non-finite values compare by class, never through the magnitude
    // test: NaN's every comparison is false, so |g - c| > tol would call
    // a NaN-poisoned output "converged" — the exact blind spot the
    // campaign exists to count as SDC.
    if (std::isnan(g) || std::isnan(c)) {
      if (!(std::isnan(g) && std::isnan(c))) return true;
      continue;
    }
    if (std::isinf(g) || std::isinf(c)) {
      if (g != c) return true;
      continue;
    }
    const double scale = std::max({1.0, std::fabs(g), std::fabs(c)});
    if (std::fabs(g - c) > tol * scale) return true;
  }
  return false;
}

namespace {

// Trial streams are labelled (slot * kSubsystemCount + subsystem). The
// campaign once swept a second generation engine in slot 0; the continuous
// engine keeps slot 1, so its trials replay the committed baselines bit for
// bit.
constexpr std::size_t kStreamSlot = 1;

std::vector<serve::GenerationWork> make_works(const CampaignConfig& cfg) {
  const Rng base(cfg.seed);
  // "Many users, one template": every prompt shares its first
  // prompt_len - 1 tokens (one template stream) and diverges on the last.
  // The template pages are therefore mapped by every session of the
  // trial, which is what gives the shared_prefix subsystem a multi-reader
  // page to corrupt; the other subsystems see the same serving shape
  // production traffic has.
  Rng template_rng = base.derive(999);
  std::vector<std::size_t> stem;
  stem.reserve(cfg.prompt_len > 0 ? cfg.prompt_len - 1 : 0);
  for (std::size_t t = 0; t + 1 < cfg.prompt_len; ++t) {
    stem.push_back(
        std::size_t(template_rng.next_below(cfg.model.vocab_size)));
  }
  std::vector<serve::GenerationWork> works(cfg.sessions);
  for (std::size_t i = 0; i < cfg.sessions; ++i) {
    Rng rng = base.derive(1000 + i);
    works[i].prompt = stem;
    works[i].prompt.push_back(
        std::size_t(rng.next_below(cfg.model.vocab_size)));
    works[i].max_new_tokens = cfg.max_new_tokens;
  }
  return works;
}

serve::StepperConfig make_stepper_config(const CampaignConfig& cfg) {
  serve::StepperConfig out;
  out.executor_options = cfg.executor_options;
  out.max_batch_tokens = std::max<std::size_t>(cfg.sessions, 1);
  out.page_size = cfg.page_size;
  out.num_pages = cfg.num_pages;
  return out;
}

/// Injection-time bucket: 0 = prefill, 1..4 = decode-step quartiles.
std::size_t time_bucket(std::size_t step, std::size_t max_new_tokens) {
  if (step == 0) return 0;
  const std::size_t decode_steps = std::max<std::size_t>(max_new_tokens - 1,
                                                         1);
  const std::size_t q = (step - 1) * 4 / decode_steps;
  return 1 + std::min<std::size_t>(q, 3);
}

bool trial_diverged(const std::vector<serve::SteppedSession>& golden,
                    const std::vector<serve::SteppedSession>& trial,
                    double logits_tol) {
  for (std::size_t i = 0; i < golden.size(); ++i) {
    if (trial[i].tokens != golden[i].tokens) return true;
    if (logits_diverge(golden[i].final_logits, trial[i].final_logits,
                       logits_tol)) {
      return true;
    }
  }
  return false;
}

bool trial_alarmed(const std::vector<serve::SteppedSession>& trial) {
  for (const serve::SteppedSession& s : trial) {
    if (s.counters.alarm_events > 0 || s.counters.fallback_ops > 0 ||
        !s.checksum_clean || s.counters.scrub_faults_found > 0 ||
        s.path != serve::ServePath::kGuardedClean) {
      return true;
    }
  }
  return false;
}

bool trial_scrub_found(const std::vector<serve::SteppedSession>& trial) {
  for (const serve::SteppedSession& s : trial) {
    if (s.counters.scrub_faults_found > 0) return true;
  }
  return false;
}

bool trial_crashed(const std::vector<serve::SteppedSession>& trial) {
  for (const serve::SteppedSession& s : trial) {
    if (s.failed || s.hang) return true;
  }
  return false;
}

}  // namespace

CampaignResult run_campaign(
    const CampaignConfig& input,
    const std::function<void(const CellResult&)>& progress) {
  // Normalize the dtype regime once: the model stores (and quantizes
  // weights) at cfg.dtype, and the executors judge with thresholds derived
  // for it unless the caller supplied explicit tolerances.
  CampaignConfig cfg = input;
  cfg.model.dtype = cfg.dtype;
  cfg.executor_options.dtype = cfg.dtype;
  if (cfg.dtype != DType::kF32 && !cfg.executor_options.tolerances) {
    cfg.executor_options.tolerances =
        derive_tolerances(cfg.dtype, tolerance_shape_for(cfg.model));
  }
  FLASHABFT_ENSURE_MSG(cfg.trials_per_cell > 0, "no trials to run");
  FLASHABFT_ENSURE_MSG(
      cfg.prompt_len + cfg.max_new_tokens <= cfg.model.max_seq_len,
      "prompt " << cfg.prompt_len << " + " << cfg.max_new_tokens
                << " tokens exceeds max_seq_len " << cfg.model.max_seq_len);

  const TransformerModel model(cfg.model, cfg.model_seed);
  const std::vector<serve::GenerationWork> works = make_works(cfg);
  const Rng base(cfg.seed);
  // Divergence is judged against the storage format's own noise band: a
  // low-precision model's outputs are only specified to within its unit
  // roundoff, so a logit shift smaller than ~u is indistinguishable from
  // the quantization error every fault-free run already carries — calling
  // it "corruption" would count the dtype's rounding as SDC. Tokens still
  // compare exactly; f32 keeps the bit-exact-regime 1e-7.
  const double divergence_tol =
      std::max(1e-7, 4.0 * dtype_unit_roundoff(cfg.dtype));

  CampaignResult result;
  result.config = cfg;

  const serve::StepperConfig stepper_cfg = make_stepper_config(cfg);
  const std::vector<serve::SteppedSession> golden =
      serve::run_stepped(model, works, stepper_cfg);
  for (const serve::SteppedSession& s : golden) {
    FLASHABFT_ENSURE_MSG(!s.failed && s.checksum_clean,
                         "golden run not clean"
                             << (s.failed ? (": " + s.error) : ""));
  }

  for (std::size_t sub = 0; sub < kSubsystemCount; ++sub) {
    const Subsystem subsystem = Subsystem(sub);
    CellResult cell;
    cell.subsystem = subsystem;
    cell.trial_outcomes.reserve(cfg.trials_per_cell);
    for (std::size_t trial = 0; trial < cfg.trials_per_cell; ++trial) {
      // One independent, label-derived stream per trial: outcomes never
      // depend on trial order or other cells' draws.
      Rng rng = base.derive(0xCA4FA17).derive(
          (kStreamSlot * kSubsystemCount + sub) * 1000003 + trial);
      const TrialPlan plan = draw_trial_plan(
          subsystem, model, cfg.sessions, cfg.max_new_tokens,
          cfg.executor_options.recovery, rng);

      std::vector<serve::GenerationWork> trial_works = works;
      serve::GenerationWork& target = trial_works[plan.session];
      if (plan.fault) target.faults.push_back(*plan.fault);
      if (plan.kv) target.kv_corruptions.push_back(*plan.kv);
      if (plan.tamper) target.tampers.push_back(*plan.tamper);
      if (plan.latent_idle_ticks > 0) {
        target.latent_idle_ticks = plan.latent_idle_ticks;
      }

      serve::StepperConfig trial_cfg = stepper_cfg;
      // The watchdog override applies to trials only: the golden run
      // above always gets the derived bound, so a forced-low cap turns
      // every trial into crash_hang without invalidating the baseline.
      trial_cfg.max_ticks = cfg.max_ticks;
      // Flight recording is per-trial and only armed when a dump path is
      // configured — the default campaign's trials carry no recorder.
      obs::FlightRecorder recorder(/*capacity=*/128);
      if (!cfg.flight_dump_path.empty()) trial_cfg.obs.flight = &recorder;
      if (plan.checker_tolerance_scale != 1.0) {
        trial_cfg.executor_options.checker.abs_tolerance *=
            plan.checker_tolerance_scale;
        trial_cfg.executor_options.checker.rel_tolerance *=
            plan.checker_tolerance_scale;
        // Calibrated regimes judge from the per-kind table, so the
        // corrupted-calibration site must widen it too or the trial
        // would silently keep healthy thresholds.
        if (trial_cfg.executor_options.tolerances) {
          trial_cfg.executor_options.tolerances->scale(
              plan.checker_tolerance_scale);
        }
      }

      std::vector<serve::SteppedSession> outcome;
      if (plan.weight) {
        // Latent parameter upset: a fresh, identically-seeded model with
        // one element shifted (weight-derived cached checksums go stale
        // on purpose — that staleness IS the detection mechanism).
        TransformerModel faulty(cfg.model, cfg.model_seed);
        faulty.corrupt_weight(*plan.weight);
        outcome = serve::run_stepped(faulty, trial_works, trial_cfg);
      } else {
        outcome = serve::run_stepped(model, trial_works, trial_cfg);
      }

      const bool crashed = trial_crashed(outcome);
      const bool alarmed = trial_alarmed(outcome);
      const bool diverged =
          !crashed && trial_diverged(golden, outcome, divergence_tol);
      const TrialOutcome verdict =
          classify_trial(crashed, alarmed, diverged);

      // Post-mortem for the crash/hang class: the trial's protection
      // events (ending with the watchdog's kHang when the wedge was a
      // budget blowout), headed by exactly what was injected where. The
      // header keeps its scheduler= field for check_trace.py's grammar.
      if (verdict == TrialOutcome::kCrashHang &&
          !cfg.flight_dump_path.empty()) {
        std::ofstream dump(cfg.flight_dump_path, std::ios::app);
        dump << "=== crash_hang scheduler=continuous"
             << " subsystem=" << subsystem_name(subsystem)
             << " trial=" << trial << " step=" << plan.step << " ===\n";
        recorder.dump(dump);
      }

      ++cell.trials;
      ++cell.outcomes[std::size_t(verdict)];
      if (trial_scrub_found(outcome)) ++cell.scrub_found;
      ++cell.by_time[time_bucket(plan.step, cfg.max_new_tokens)]
                    [std::size_t(verdict)];
      if (plan.op_kind) {
        ++cell.by_op_kind[std::size_t(*plan.op_kind)]
                         [std::size_t(verdict)];
      }
      cell.trial_outcomes.push_back(std::uint8_t(verdict));
    }
    if (progress) progress(cell);
    result.cells.push_back(std::move(cell));
  }
  return result;
}

}  // namespace flashabft::serve_campaign
