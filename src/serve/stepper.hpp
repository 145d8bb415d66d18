// Deterministic tick-stepped execution of generation work on the real
// serving engine.
//
// The fault campaign needs thousands of seeded trials whose outcomes are
// bit-reproducible, which the production entry point cannot give: the
// continuous scheduler runs its own thread. This stepper drives the actual
// ContinuousScheduler in `SchedulerConfig::manual` single-tick mode on the
// calling thread, one tick at a time, in a fixed order — the same tick
// code, fault surface (fault_surface.hpp) and accounting production runs.
// Identical works + identical config => identical tokens, logits and fault
// accounting, every run.
#pragma once

#include <string>
#include <vector>

#include "core/guarded_op.hpp"
#include "model/transformer_model.hpp"
#include "obs/hooks.hpp"
#include "serve/request.hpp"
#include "serve/scheduler.hpp"
#include "serve/telemetry.hpp"

namespace flashabft::serve {

/// Per-session outcome of a stepped run (index-aligned with the submitted
/// works).
struct SteppedSession {
  std::vector<std::size_t> tokens;   ///< generated ids (prompt excluded).
  std::vector<double> final_logits;  ///< last step's next-token logits.
  ServePath path = ServePath::kGuardedClean;
  ProtectionCounters counters;  ///< the response's, unchanged.
  bool checksum_clean = true;
  bool failed = false;  ///< the engine failed the session.
  bool hang = false;    ///< the tick watchdog fired (implies failed).
  std::string error;    ///< failure description when `failed`.
};

struct StepperConfig {
  GuardedExecutor::Options executor_options;
  /// Scheduler shape.
  std::size_t max_batch_tokens = 16;
  std::size_t page_size = 8;
  std::size_t num_pages = 0;   ///< 0 = derived (no page pressure).
  std::size_t max_active = 0;  ///< 0 = every session active at once.
  /// Shared-prefix KV caching (the production default; the campaign's
  /// shared_prefix subsystem needs the multi-reader pages it creates).
  bool prefix_cache = true;
  /// Watchdog: hard cap on scheduler ticks. 0 derives a generous bound
  /// from the session budgets; exceeding it fails the remaining sessions
  /// with `hang` set instead of spinning forever — the campaign's
  /// crash/hang outcome class.
  std::size_t max_ticks = 0;
  /// Non-owning observability taps, threaded into the executors and the
  /// scheduler's own emit sites. The watchdog firing records a kHang flight
  /// event, so a crash/hang trial's dump ends with the wedge itself. The
  /// profiler slot is always the stepper's internal telemetry profiler —
  /// `telemetry_out->timing` carries the per-OpKind phase histograms.
  obs::ObsHooks obs{};
};

/// Drives every work item to completion on the calling thread, one
/// deterministic scheduler tick at a time. Sessions are admitted in
/// submission order; results are index-aligned. `telemetry_out` (optional)
/// receives the final telemetry snapshot — the pool-level
/// shared-prefix/heal counters the per-session results cannot carry.
[[nodiscard]] std::vector<SteppedSession> run_stepped(
    const TransformerModel& model, std::vector<GenerationWork> works,
    const StepperConfig& cfg, TelemetrySnapshot* telemetry_out = nullptr);

}  // namespace flashabft::serve
