// Request/response types of the fault-tolerant serving engine.
//
// A request carries one of three external payloads:
//   * AttentionWork — H per-head Q/K/V bundles plus an optional fault plan
//     (the upsets the cycle-level simulator applies while executing it),
//   * LayerWork — a full protected decoder-layer forward (embeddings +
//     encoder memory), every checkable op of which (projections, per-head
//     attention, FFN) runs through the worker's GuardedExecutor, or
//   * GenerationWork — an autoregressive generation session: prefill over
//     the prompt, then single-token decode steps over the session's
//     checksummed pages of the continuous scheduler's paged KV pool.
// The response carries the accepted outputs, how they were produced, and
// the unified per-op OpReport stream telemetry reconciles alarms, retries
// and escalations against.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <variant>
#include <vector>

#include "attention/inputs.hpp"
#include "core/guarded_op.hpp"
#include "sim/fault_plan.hpp"
#include "tensor/matrix.hpp"

namespace flashabft::serve {

using Clock = std::chrono::steady_clock;

/// Raw attention-head work: one decoder layer's attention executed on the
/// worker's cycle-level accelerator.
struct AttentionWork {
  /// The layer's heads, in head order; all heads share one shape.
  std::vector<AttentionInputs> heads;
  /// Faults applied to the first accelerator execution, with layer-global
  /// cycles (run_heads windows). Empty plan = fault-free request.
  FaultPlan faults;
  /// If true the plan models a persistent defect: it is re-applied on every
  /// retry, so head re-execution cannot succeed and the request escalates
  /// to the reference fallback.
  bool faults_persistent = false;
};

/// Emulated fault for a decoder-layer request. The software layer path has
/// no bit-level injector; instead the worker's GuardedExecutor tamper hook
/// corrupts the targeted op's output (and its readout checksum) the way a
/// datapath fault would, for the first `faulty_attempts` attempts — set it
/// above RecoveryPolicy::max_retries to model a persistent defect that
/// escalates to the reference fallback.
struct LayerFault {
  OpKind kind = OpKind::kAttentionFlashAbft;
  std::size_t op_index = 0;        ///< OpReport index within the layer.
  std::size_t faulty_attempts = 1; ///< corrupted attempts (1 = transient).
  double magnitude = 1e-3;         ///< output/checksum shift.
  /// When true only the readout checksum is shifted — the output stays
  /// correct, so the alarm is a false positive. Models an upset in the
  /// checksum datapath itself (the campaign's checksum-state subsystem).
  bool checksum_only = false;
};

/// Builds the emulated datapath-upset tamper hook shared by decoder-layer
/// requests and continuous-scheduler ticks: shifts one output element and
/// the readout checksum of every matching op for its first
/// `faulty_attempts` attempts.
[[nodiscard]] inline GuardedExecutor::Tamper make_layer_fault_tamper(
    std::vector<LayerFault> faults) {
  return [faults = std::move(faults)](OpKind kind, std::size_t index,
                                      std::size_t attempt, CheckedOp& op) {
    for (const LayerFault& fault : faults) {
      if (fault.kind != kind || fault.op_index != index ||
          attempt >= fault.faulty_attempts) {
        continue;
      }
      if (!fault.checksum_only) op.output(0, 0) += fault.magnitude;
      op.check.actual += fault.magnitude;
      op.self_verdict.reset();
    }
  };
}

/// A full protected decoder-layer forward.
struct LayerWork {
  MatrixD x;       ///< decoder-side embeddings, n x model_dim.
  MatrixD memory;  ///< encoder output attended to, n_src x model_dim.
  std::vector<LayerFault> faults;  ///< emulated faults (empty = clean).
};

/// An emulated op fault scoped to one step of a generation session:
/// step 0 is the prefill, step s >= 1 the s-th decode step. `fault` uses
/// the model's *global* op indices (heads layer*H+h, projections
/// layer*4+slot, FFN layer*2+{0,1}, cache checks layer, LM head
/// num_layers*4), so one (kind, index) pair names one op in the stack.
struct GenerationStepFault {
  std::size_t step = 0;
  LayerFault fault;
};

/// A KV storage upset: one element of the session's live pages is shifted
/// (page checksums left stale) just before decode step `step` reads it.
/// The kKvPage verify must detect it and restore the page from its
/// checkpoint. `row`/`col` are taken modulo the session's length/width at
/// injection time.
struct KvCorruption {
  std::size_t step = 1;   ///< decode step (>= 1) that reads the bad cache.
  std::size_t layer = 0;  ///< decoder layer, modulo num_layers.
  std::size_t row = 0;
  std::size_t col = 0;
  double delta = 1.0;       ///< element shift.
  bool value_side = false;  ///< corrupt V instead of K.
  /// Corrupt the *page-table entry* covering `row` (redirecting it to
  /// another pool page, checksums left stale) instead of page data — the
  /// mapping upset only the kKvPage table checksum can detect.
  bool page_table = false;
  /// Corrupt the *checksum state* instead of the protected data: the
  /// running column sum covering (row, col) — or, with `page_table`, the
  /// table's running weighted sum — is shifted while the data stays clean.
  /// The next verify raises a false alarm and restoration rebuilds the
  /// sums.
  bool checksum_state = false;
  /// Latent-fault trial: the corruption lands while the session then sits
  /// *idle* for `GenerationWork::latent_idle_ticks` ticks before its next
  /// decode read. The exposure window belongs to the scrubber,
  /// which should find and heal the fault before the read ever sees it.
  bool latent = false;
  /// Prefix caching only: land the upset inside the session's
  /// *shared-prefix* rows (`row` taken modulo the shared length), so the
  /// single corrupted page is read by every co-reader — each must alarm,
  /// and the page must heal exactly once. Falls back to the whole cache
  /// when the session maps no shared rows.
  bool shared_prefix = false;
};

/// A scheduler/session-metadata upset: unprotected bookkeeping of one
/// generation session is tampered just before step `step` runs. No
/// checksum covers this state today — the campaign's scheduler-state
/// subsystem measures exactly how much silent corruption that admits.
struct SessionTamper {
  enum class Target {
    kGeneratedToken,  ///< shift a produced token id (mod vocab).
    kPromptToken,     ///< shift a prompt token id (mod vocab).
    kMaxNewTokens,    ///< shrink the generation budget (mod original).
  };
  std::size_t step = 1;  ///< applied just before this step executes.
  Target target = Target::kGeneratedToken;
  std::size_t index = 0;  ///< which token, modulo the live count.
  std::size_t delta = 1;  ///< id/budget shift; 0 is a no-op.
};

/// An autoregressive generation session: greedy decode of
/// `max_new_tokens` tokens from `prompt` through the server's protected
/// TransformerModel, one resumable step at a time.
struct GenerationWork {
  std::vector<std::size_t> prompt;  ///< token ids (model.encode for text).
  std::size_t max_new_tokens = 8;
  std::vector<GenerationStepFault> faults;   ///< emulated op faults.
  std::vector<KvCorruption> kv_corruptions;  ///< cache upsets between steps.
  std::vector<SessionTamper> tampers;        ///< session-metadata upsets.
  /// Idle window (in ticks/steps) a `KvCorruption::latent` upset sits
  /// unread before the session resumes — the scrubber's race to win.
  std::size_t latent_idle_ticks = 0;
};

/// How a request's accepted outputs were produced.
enum class ServePath {
  /// Guarded path, no alarm on the first execution of any op.
  kGuardedClean,
  /// Guarded path; one or more ops alarmed and their re-execution passed
  /// the check (transient upset recovered).
  kGuardedRecovered,
  /// Escalated (every retry alarmed) or circuit-breaker bypass: the
  /// affected ops were served by the software Alg. 3 reference kernel.
  kFallbackReference,
};

[[nodiscard]] const char* serve_path_name(ServePath path);

/// Typed admission outcome of try_submit.
enum class SubmitResult {
  kAccepted,
  kQueueFull,  ///< shed: admission queue at capacity.
  kShutDown,   ///< rejected: server no longer admits work.
};

[[nodiscard]] const char* submit_result_name(SubmitResult result);

/// One inference request: attention-head work, a decoder-layer forward, or
/// a generation session.
struct ServeRequest {
  std::uint64_t id = 0;
  std::string category;  ///< workload category tag (telemetry only).
  std::variant<AttentionWork, LayerWork, GenerationWork> work =
      AttentionWork{};
  /// Stamped at admission (submit/try_submit); queue-latency telemetry.
  Clock::time_point enqueue_time{};
};

/// Per-request protection accounting. A generation session accumulates it
/// step by step and hands it unchanged to its response, and the stepper on
/// to its SteppedSession; telemetry sums the fields it does not take from
/// the scrubber (kResponseCounters, telemetry.hpp).
struct ProtectionCounters {
  std::size_t op_executions = 0;       ///< guarded op-runs incl. retries.
  std::size_t alarm_events = 0;        ///< op-alarm observations, all attempts.
  std::size_t fallback_ops = 0;        ///< ops served by the reference kernel.
  std::size_t meta_verifies = 0;       ///< sealed-metadata checks executed.
  std::size_t scrub_faults_found = 0;  ///< latent faults the scrubber hit.
  std::size_t scrub_repairs = 0;       ///< of those, healed from mirrors.
  std::size_t dmr_compares = 0;        ///< dual-run glue comparisons.
  std::size_t dmr_mismatches = 0;      ///< of those, bitwise divergences.
};

/// The completed result of one request.
struct ServeResponse {
  std::uint64_t id = 0;
  ServePath path = ServePath::kGuardedClean;
  /// Attention work: per-head outputs, head order. Layer work: one matrix,
  /// the layer output.
  std::vector<MatrixD> outputs;
  /// Unified per-op reports (guarded ops + any fallback ops) — the stream
  /// telemetry's per-op-kind accounting consumes.
  std::vector<OpReport> reports;
  ProtectionCounters counters;
  /// True iff every accepted op output passed its checksum comparison
  /// (guarded ops: no alarm on the accepted run; fallback ops: the
  /// reference kernel's own residual check).
  bool checksum_clean = false;
  std::size_t worker_id = 0;
  std::size_t batch_size = 0;  ///< size of the batch this request rode in.
  double queue_us = 0.0;       ///< enqueue -> execution start.
  double service_us = 0.0;     ///< execution start -> completion.
  double total_us = 0.0;       ///< enqueue -> completion.

  // Generation sessions only:
  std::vector<std::size_t> tokens;  ///< generated ids (prompt excluded).
  std::size_t decode_steps = 0;     ///< steps after the prefill.
  /// Last step's next-token logits — the campaign's divergence oracle.
  std::vector<double> final_logits;
  double ttft_us = 0.0;             ///< enqueue -> first token (prefill).
  std::size_t preemptions = 0;  ///< times the session lost its pages.
  std::size_t resumes = 0;      ///< lossless re-prefills after preemption.
  /// Prompt rows mapped from the shared-prefix index instead of being
  /// recomputed by the prefill (0 = cold miss or prefix caching off).
  std::size_t prefix_cached_tokens = 0;
};

}  // namespace flashabft::serve
