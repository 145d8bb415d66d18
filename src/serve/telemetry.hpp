// Serving telemetry: counters and latency percentiles.
//
// Counters are atomics (workers bump them concurrently); latency samples go
// through a mutex-guarded reservoir, snapshotted and sorted on demand. The
// counters are designed to *reconcile*: completed = clean + recovered +
// fallback, checksum_clean + checksum_dirty = completed, and under an
// injection campaign every non-clean path traces back to an injected plan
// or a standing worker defect — the invariants the acceptance tests assert.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <mutex>
#include <span>
#include <string>
#include <vector>

#include "core/guarded_op.hpp"
#include "obs/op_profile.hpp"
#include "serve/request.hpp"
#include "tensor/random.hpp"

namespace flashabft::serve {

/// Linear-interpolation percentile of a sample set; `p` in [0, 1].
/// Returns 0 for an empty set.
[[nodiscard]] double percentile(std::span<const double> sorted_samples,
                                double p);

/// Fixed-capacity uniform sample of a latency stream (Vitter's Algorithm
/// R): exact up to `capacity` samples, then each later sample replaces a
/// uniformly random slot with probability capacity/seen. Percentiles stay
/// unbiased while memory — and the per-snapshot sort — stay bounded for
/// arbitrarily long serving runs. Callers provide locking and the RNG.
class LatencyReservoir {
 public:
  explicit LatencyReservoir(std::size_t capacity = 16384)
      : capacity_(capacity) {}

  void record(double sample_us, Rng& rng);
  [[nodiscard]] const std::vector<double>& samples() const {
    return samples_;
  }
  [[nodiscard]] std::uint64_t seen() const { return seen_; }

 private:
  std::size_t capacity_;
  std::vector<double> samples_;
  std::uint64_t seen_ = 0;
};

/// Per-OpKind accounting derived from the unified OpReport stream.
struct OpKindStats {
  std::uint64_t checks = 0;     ///< guarded/fallback ops reported.
  std::uint64_t alarms = 0;     ///< attempt-level alarm observations.
  std::uint64_t recovered = 0;  ///< ops whose retry passed the check.
  std::uint64_t escalated = 0;  ///< ops that exhausted their retries.
};

/// A consistent copy of all telemetry at one instant.
struct TelemetrySnapshot {
  /// Compute backend the server's software guarded path ran on.
  ComputeBackend compute = ComputeBackend::kScalar;

  // Request lifecycle. `submitted` counts admission *attempts* (stamped
  // before the queue push, so completed <= submitted always holds under
  // concurrent snapshots); attempts that failed admission are also counted
  // in `rejected`, so accepted = submitted - rejected.
  std::uint64_t submitted = 0;
  std::uint64_t rejected = 0;   ///< shed at admission (full or shut down).
  std::uint64_t completed = 0;
  std::uint64_t batches = 0;

  // Outcome paths.
  std::uint64_t clean_first_try = 0;
  std::uint64_t recovered = 0;
  std::uint64_t fallback = 0;         ///< served (partly) by reference kernel.
  std::uint64_t escalations = 0;      ///< retries exhausted on a worker.
  std::uint64_t breaker_trips = 0;
  std::uint64_t breaker_bypasses = 0; ///< requests routed straight to fallback.

  // Fault accounting.
  std::uint64_t alarm_events = 0;   ///< op-alarm observations.
  std::uint64_t op_executions = 0;  ///< guarded op-runs incl. retries.
  std::uint64_t fallback_ops = 0;   ///< ops served by the reference kernel.
  std::uint64_t checksum_clean = 0;
  std::uint64_t checksum_dirty = 0;

  // Generation sessions.
  std::uint64_t sessions_started = 0;    ///< activated (prefill scheduled).
  std::uint64_t sessions_completed = 0;
  std::uint64_t sessions_parked = 0;     ///< waited for a session slot.
  std::uint64_t tokens_generated = 0;
  std::uint64_t decode_steps = 0;        ///< steps after each prefill.

  // Continuous-batching scheduler (zero until a generation session runs).
  std::uint64_t scheduler_ticks = 0;     ///< decode sweeps executed.
  std::uint64_t scheduled_steps = 0;     ///< session-steps across all ticks.
  std::uint64_t preemptions = 0;         ///< sessions whose pages were taken.
  std::uint64_t session_resumes = 0;     ///< lossless re-prefills after one.
  std::uint64_t pages_in_use = 0;        ///< pool gauge at snapshot time.
  std::uint64_t pages_total = 0;         ///< pool size (0 = no pool).
  std::uint64_t peak_pages_in_use = 0;

  // Shared-prefix cache (zero with caching off).
  std::uint64_t prefix_hits = 0;        ///< prefills served from the index.
  std::uint64_t prefix_misses = 0;      ///< lookups that found nothing.
  std::uint64_t prefix_hit_tokens = 0;  ///< prompt rows skipped by hits.
  std::uint64_t prefix_cow_forks = 0;   ///< private copies off shared pages.
  std::uint64_t prefix_evictions = 0;   ///< LRU-evicted registry entries.
  std::uint64_t shared_heals = 0;       ///< shared pages healed (once each).
  std::uint64_t shared_pages = 0;       ///< gauge: allocated shared pages.
  std::uint64_t evictable_pages = 0;    ///< gauge: registry-only shared pages.

  // Control plane + scrub (zero when the guard/scrubber is off).
  std::uint64_t meta_verifies = 0;       ///< sealed-metadata boundary checks.
  std::uint64_t scrub_passes = 0;        ///< completed scrub walks.
  std::uint64_t scrub_items = 0;         ///< verify-and-heal items scrubbed.
  std::uint64_t scrub_faults_found = 0;  ///< latent faults the scrub hit.
  std::uint64_t scrub_repairs = 0;       ///< healed from checkpoint mirrors.
  std::uint64_t scrub_unrepairable = 0;  ///< double faults that escalated.
  std::uint64_t dmr_compares = 0;        ///< dual-run glue comparisons.
  std::uint64_t dmr_mismatches = 0;      ///< bitwise divergences caught.

  /// Mean decode-batch occupancy (sessions advanced per tick).
  [[nodiscard]] double batch_occupancy() const {
    return scheduler_ticks > 0
               ? double(scheduled_steps) / double(scheduler_ticks)
               : 0.0;
  }
  /// Peak fraction of the page pool in use.
  [[nodiscard]] double peak_page_utilization() const {
    return pages_total > 0 ? double(peak_pages_in_use) / double(pages_total)
                           : 0.0;
  }

  /// Per-op-kind view of the same stream (attention vs projection vs FFN
  /// vs reference fallback), indexed by std::size_t(OpKind).
  std::array<OpKindStats, kOpKindCount> per_kind{};

  /// Per-OpKind guarded-execution timing (compute / verify / recovery, in
  /// ns) from the server's always-on OpTimingProfiler — the "ABFT overhead"
  /// attribution. Empty when no guarded op ran with the profiler attached.
  obs::OpTimingSnapshot timing;

  // Latency percentiles, microseconds.
  double queue_p50_us = 0, queue_p99_us = 0;
  double service_p50_us = 0, service_p99_us = 0;
  double total_p50_us = 0, total_p95_us = 0, total_p99_us = 0;
  /// Max over the retained reservoir — exact until the reservoir fills.
  double total_max_us = 0;
  /// Time-to-first-token percentiles over completed sessions.
  double ttft_p50_us = 0, ttft_p99_us = 0;

  /// Requests per second over `wall_seconds`.
  [[nodiscard]] double throughput_rps(double wall_seconds) const;

  /// Generated tokens per second over `wall_seconds`.
  [[nodiscard]] double tokens_per_second(double wall_seconds) const;

  /// Two-column human-readable table (bench/demo output).
  [[nodiscard]] std::string render(double wall_seconds) const;

  /// Prometheus text exposition (the scrape format): every counter/gauge as
  /// a `flashabft_*` metric, per-kind series labeled {kind="..."}, and the
  /// guard-phase timing as totals plus cumulative `_bucket{le="..."}`
  /// histograms. One self-contained string — no client library involved.
  [[nodiscard]] std::string prometheus_text(double wall_seconds) const;
};

/// Thread-safe telemetry sink shared by all workers of one server.
class ServeTelemetry {
 public:
  void on_submit() { submitted_.fetch_add(1, std::memory_order_relaxed); }
  void on_reject() { rejected_.fetch_add(1, std::memory_order_relaxed); }
  void on_batch() { batches_.fetch_add(1, std::memory_order_relaxed); }
  void on_escalation() {
    escalations_.fetch_add(1, std::memory_order_relaxed);
  }
  void on_breaker_trip() {
    breaker_trips_.fetch_add(1, std::memory_order_relaxed);
  }
  void on_breaker_bypass() {
    breaker_bypasses_.fetch_add(1, std::memory_order_relaxed);
  }
  void on_session_start() {
    sessions_started_.fetch_add(1, std::memory_order_relaxed);
  }
  void on_session_parked() {
    sessions_parked_.fetch_add(1, std::memory_order_relaxed);
  }
  /// One continuous-scheduler decode sweep advancing `batch` sessions.
  void on_scheduler_tick(std::size_t batch) {
    scheduler_ticks_.fetch_add(1, std::memory_order_relaxed);
    scheduled_steps_.fetch_add(batch, std::memory_order_relaxed);
  }
  void on_preemption() {
    preemptions_.fetch_add(1, std::memory_order_relaxed);
  }
  void on_session_resume() {
    session_resumes_.fetch_add(1, std::memory_order_relaxed);
  }
  /// Publishes the scheduler's page-pool occupancy (scheduler thread only;
  /// peak is tracked by the caller alongside the gauge).
  void set_page_usage(std::size_t in_use, std::size_t total,
                      std::size_t peak) {
    pages_in_use_.store(in_use, std::memory_order_relaxed);
    pages_total_.store(total, std::memory_order_relaxed);
    peak_pages_in_use_.store(peak, std::memory_order_relaxed);
  }
  /// Stamps the compute backend served traffic runs on (server construction).
  void set_compute(ComputeBackend compute) {
    compute_.store(compute, std::memory_order_relaxed);
  }
  /// Publishes the scrubber's monotonic counters (gauge-style, like
  /// set_page_usage: the scrubber owns the totals, telemetry mirrors them).
  void set_scrub(std::uint64_t passes, std::uint64_t items,
                 std::uint64_t faults_found, std::uint64_t repairs,
                 std::uint64_t unrepairable) {
    scrub_passes_.store(passes, std::memory_order_relaxed);
    scrub_items_.store(items, std::memory_order_relaxed);
    scrub_faults_found_.store(faults_found, std::memory_order_relaxed);
    scrub_repairs_.store(repairs, std::memory_order_relaxed);
    scrub_unrepairable_.store(unrepairable, std::memory_order_relaxed);
  }

  /// Publishes the pool's shared-prefix counters and gauges (scheduler
  /// thread only, gauge-style like set_page_usage).
  void set_prefix(std::uint64_t hits, std::uint64_t misses,
                  std::uint64_t hit_tokens, std::uint64_t cow_forks,
                  std::uint64_t evictions, std::uint64_t heals,
                  std::uint64_t shared, std::uint64_t evictable) {
    prefix_hits_.store(hits, std::memory_order_relaxed);
    prefix_misses_.store(misses, std::memory_order_relaxed);
    prefix_hit_tokens_.store(hit_tokens, std::memory_order_relaxed);
    prefix_cow_forks_.store(cow_forks, std::memory_order_relaxed);
    prefix_evictions_.store(evictions, std::memory_order_relaxed);
    shared_heals_.store(heals, std::memory_order_relaxed);
    shared_pages_.store(shared, std::memory_order_relaxed);
    evictable_pages_.store(evictable, std::memory_order_relaxed);
  }

  /// Records one completed response: outcome path, fault accounting and the
  /// three latency samples.
  void on_response(const ServeResponse& response);

  /// Records a completed generation session's token/TTFT accounting (the
  /// generic on_response is still called for the same response).
  void on_session_complete(const ServeResponse& response);

  [[nodiscard]] TelemetrySnapshot snapshot() const;

  /// The always-on guard-phase timing profiler executors record into
  /// (lock-free; attach via GuardedExecutor::Options::obs.profiler).
  /// Const-qualified because recording — like every counter bump here — is
  /// a logically-const operation on a thread-safe sink.
  [[nodiscard]] obs::OpTimingProfiler* op_profiler() const {
    return &op_profiler_;
  }

 private:
  mutable obs::OpTimingProfiler op_profiler_;
  std::atomic<ComputeBackend> compute_{ComputeBackend::kScalar};
  std::atomic<std::uint64_t> submitted_{0};
  std::atomic<std::uint64_t> rejected_{0};
  std::atomic<std::uint64_t> completed_{0};
  std::atomic<std::uint64_t> batches_{0};
  std::atomic<std::uint64_t> clean_first_try_{0};
  std::atomic<std::uint64_t> recovered_{0};
  std::atomic<std::uint64_t> fallback_{0};
  std::atomic<std::uint64_t> escalations_{0};
  std::atomic<std::uint64_t> breaker_trips_{0};
  std::atomic<std::uint64_t> breaker_bypasses_{0};
  std::atomic<std::uint64_t> alarm_events_{0};
  std::atomic<std::uint64_t> op_executions_{0};
  std::atomic<std::uint64_t> fallback_ops_{0};
  std::atomic<std::uint64_t> checksum_clean_{0};
  std::atomic<std::uint64_t> checksum_dirty_{0};
  std::atomic<std::uint64_t> sessions_started_{0};
  std::atomic<std::uint64_t> sessions_completed_{0};
  std::atomic<std::uint64_t> sessions_parked_{0};
  std::atomic<std::uint64_t> tokens_generated_{0};
  std::atomic<std::uint64_t> decode_steps_{0};
  std::atomic<std::uint64_t> scheduler_ticks_{0};
  std::atomic<std::uint64_t> scheduled_steps_{0};
  std::atomic<std::uint64_t> preemptions_{0};
  std::atomic<std::uint64_t> session_resumes_{0};
  std::atomic<std::uint64_t> pages_in_use_{0};
  std::atomic<std::uint64_t> pages_total_{0};
  std::atomic<std::uint64_t> peak_pages_in_use_{0};
  std::atomic<std::uint64_t> prefix_hits_{0};
  std::atomic<std::uint64_t> prefix_misses_{0};
  std::atomic<std::uint64_t> prefix_hit_tokens_{0};
  std::atomic<std::uint64_t> prefix_cow_forks_{0};
  std::atomic<std::uint64_t> prefix_evictions_{0};
  std::atomic<std::uint64_t> shared_heals_{0};
  std::atomic<std::uint64_t> shared_pages_{0};
  std::atomic<std::uint64_t> evictable_pages_{0};
  std::atomic<std::uint64_t> meta_verifies_{0};
  std::atomic<std::uint64_t> scrub_passes_{0};
  std::atomic<std::uint64_t> scrub_items_{0};
  std::atomic<std::uint64_t> scrub_faults_found_{0};
  std::atomic<std::uint64_t> scrub_repairs_{0};
  std::atomic<std::uint64_t> scrub_unrepairable_{0};
  std::atomic<std::uint64_t> dmr_compares_{0};
  std::atomic<std::uint64_t> dmr_mismatches_{0};
  std::array<std::atomic<std::uint64_t>, kOpKindCount> kind_checks_{};
  std::array<std::atomic<std::uint64_t>, kOpKindCount> kind_alarms_{};
  std::array<std::atomic<std::uint64_t>, kOpKindCount> kind_recovered_{};
  std::array<std::atomic<std::uint64_t>, kOpKindCount> kind_escalated_{};

  mutable std::mutex latency_mutex_;
  Rng reservoir_rng_{0x5E12E};  ///< guarded by latency_mutex_.
  LatencyReservoir queue_us_;
  LatencyReservoir service_us_;
  LatencyReservoir total_us_;
  LatencyReservoir ttft_us_;
};

}  // namespace flashabft::serve
