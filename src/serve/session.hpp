// Generation sessions: the server-side state of in-flight autoregressive
// requests.
//
// A generation request is not one unit of work — it is a prefill followed
// by many single-token decode steps over a growing, checksummed KV cache.
// The server keeps that state here: each `GenerationSession` owns its
// paged-pool handle, the tokens produced so far, the accumulated OpReport
// stream and the latency bookkeeping (TTFT, per-step service time). The
// continuous scheduler (scheduler.hpp) advances every running session one
// token per tick.
//
// Concurrency is bounded: at most `max_active` sessions are active at
// once. A session arriving beyond the bound waits in an admission FIFO
// (itself bounded by `max_parked` — beyond that the session is load-shed
// and its future fails); the scheduler activates parked sessions at tick
// boundaries as slots free up.
//
// Sessions are addressed by a server-internal `key` (monotonic), never by
// the client-chosen request id, so duplicate request ids cannot collide in
// the table.
//
// Thread-safety: the table's map/FIFO/counters are mutex-guarded. A
// session's *contents* are not — after activation only the scheduler
// thread touches them.
#pragma once

#include <cstdint>
#include <deque>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/kv_pool.hpp"
#include "core/meta_guard.hpp"
#include "serve/request.hpp"

namespace flashabft::serve {

/// The server-side state of one generation request.
struct GenerationSession {
  std::uint64_t key = 0;  ///< server-internal table/continuation address.
  std::uint64_t id = 0;   ///< client-visible request id (response.id).
  std::string category;
  GenerationWork work;
  std::promise<ServeResponse> promise;

  /// The session's paged-pool handle (tables empty while it waits for
  /// pages) and preemption accounting.
  std::unique_ptr<PagedKv> paged;
  std::uint64_t sched_order = 0;  ///< scheduler age stamp (admission order).
  std::size_t preemptions = 0;  ///< times this session's pages were taken.
  std::size_t resumes = 0;      ///< lossless re-prefills after preemption.
  /// Prompt rows the first activation mapped from the shared-prefix index
  /// instead of prefilling (0 = cold miss or prefix caching off).
  std::size_t prefix_cached_tokens = 0;
  /// The sealed control-plane record: prompt, budget, generated tokens and
  /// step counter, verified at step/tick boundaries via
  /// `guarded_meta_verify`. Legitimate writes go through the accessors
  /// below; fault injection goes through `meta.raw()`.
  GuardedRecord<SessionMeta> meta;
  std::vector<double> final_logits; ///< last step's next-token logits.

  /// Seals prompt/budget from `work` into the record. Call once, after
  /// `work` is populated and before the first step.
  void seal_meta() {
    meta.mutate([this](SessionMeta& m) {
      m.prompt = work.prompt;
      m.max_new_tokens = work.max_new_tokens;
      m.tokens.clear();
      m.steps_done = 0;
    });
  }
  [[nodiscard]] const std::vector<std::size_t>& prompt() const {
    return meta.value().prompt;
  }
  [[nodiscard]] std::size_t max_new_tokens() const {
    return meta.value().max_new_tokens;
  }
  [[nodiscard]] const std::vector<std::size_t>& tokens() const {
    return meta.value().tokens;
  }
  [[nodiscard]] std::size_t steps_done() const {
    return meta.value().steps_done;
  }
  void push_token(std::size_t token) {
    meta.mutate([token](SessionMeta& m) { m.tokens.push_back(token); });
  }
  void count_step() {
    meta.mutate([](SessionMeta& m) { ++m.steps_done; });
  }

  // Latent-fault idle window: ticks this session still sits out of the
  // decode batch while its latent corruption waits for the scrubber.
  std::size_t idle_ticks_left = 0;
  /// Steps whose latent window already ran (guards re-trigger while the
  /// step counter has not advanced).
  std::size_t latent_step_done = 0;

  Clock::time_point enqueue_time{};
  double queue_us = 0.0;    ///< admission -> first execution.
  double service_us = 0.0;  ///< accumulated per-step compute time.
  double ttft_us = 0.0;     ///< admission -> first token.

  /// Accumulated OpReport stream of every step (telemetry's view).
  std::vector<OpReport> all_reports;
  /// Protection accounting across every step, control-plane verify and
  /// scrub finding attributed to this session (copied into the response).
  ProtectionCounters counters;
  std::size_t recovered_ops = 0;
  bool checksum_clean = true;

  std::size_t batch_size = 0;  ///< batch the last step rode in.

  [[nodiscard]] bool done() const {
    return meta.value().tokens.size() >= meta.value().max_new_tokens;
  }
  /// How the session's accepted outputs were produced, so far.
  [[nodiscard]] ServePath path() const {
    return counters.fallback_ops > 0 ? ServePath::kFallbackReference
           : recovered_ops > 0       ? ServePath::kGuardedRecovered
                                     : ServePath::kGuardedClean;
  }
};

/// Outcome of offering a session to the table.
struct SessionAdmission {
  /// The session now activated, if any. Under the starvation guard this
  /// may be an *older* parked session promoted into the free slot while
  /// the submitted one parks behind it.
  GenerationSession* activated = nullptr;
  /// True when the submitted session was parked (age-ordered FIFO).
  bool parked = false;
  /// Set when both the active set and the parked FIFO are full: the
  /// session was shed and handed back (fail its promise).
  std::unique_ptr<GenerationSession> shed;
};

/// Bounded-concurrency session registry with a bounded admission FIFO.
class SessionTable {
 public:
  SessionTable(std::size_t max_active, std::size_t max_parked);

  /// Admits `session`: activates it (assigning its table key) if a slot is
  /// free, parks it FIFO if there is parking room, or sheds it.
  ///
  /// Starvation guard: a free slot never lets a fresh admission overtake
  /// the parking FIFO. If sessions are parked when a slot is free (the
  /// scheduler frees slots with `release` and activates later), the
  /// *oldest* parked session is promoted into the slot and the fresh one
  /// parks behind it — age-based promotion, so a long-parked session
  /// cannot be bypassed indefinitely by new arrivals.
  [[nodiscard]] SessionAdmission admit(
      std::unique_ptr<GenerationSession> session);

  /// Removes active session `key` *without* activating a parked one — the
  /// scheduler's completion path (it pulls parked sessions at tick
  /// boundaries via `try_activate_parked`, which is what makes the admit()
  /// starvation guard load-bearing).
  [[nodiscard]] std::unique_ptr<GenerationSession> release(std::uint64_t key);

  /// Activates the oldest parked session if a slot is free; nullptr
  /// otherwise. Call repeatedly to fill all free slots.
  [[nodiscard]] GenerationSession* try_activate_parked();

  [[nodiscard]] std::size_t max_active() const { return max_active_; }
  [[nodiscard]] std::size_t active() const;
  [[nodiscard]] std::size_t parked() const;
  [[nodiscard]] std::size_t peak_active() const;

 private:
  /// Registers `session` as active under a fresh key. Caller holds mutex_.
  [[nodiscard]] GenerationSession* activate_locked(
      std::unique_ptr<GenerationSession> session);

  const std::size_t max_active_;
  const std::size_t max_parked_;
  mutable std::mutex mutex_;
  std::uint64_t next_key_ = 1;
  std::unordered_map<std::uint64_t, std::unique_ptr<GenerationSession>>
      active_;
  std::deque<std::unique_ptr<GenerationSession>> parked_;
  std::size_t peak_active_ = 0;
};

}  // namespace flashabft::serve
