// Serving telemetry: counters and latency percentiles.
//
// Every counter is one row of FLASHABFT_SERVE_COUNTERS below; the row
// generates its snapshot field, its atomic slot and its rendering in the
// text table, the Prometheus exposition and the benchmark JSON. Counters
// are atomics (workers bump them concurrently); latency samples go through
// a mutex-guarded reservoir, snapshotted and sorted on demand. The counters
// are designed to *reconcile*: completed = clean + recovered + fallback,
// checksum_clean + checksum_dirty = completed, and under an injection
// campaign every non-clean path traces back to an injected plan or a
// standing worker defect — the invariants the acceptance tests assert.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <mutex>
#include <span>
#include <string>
#include <utility>
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

// The serving counter table: every counter and gauge telemetry keeps,
// defined once. X(field, family, type, label, help) gives the snapshot field
// (also the Counter id and the JSON key), the Prometheus family after the
// `flashabft_` prefix, the metric type, the text-table row label and the
// Prometheus help text. The snapshot fields, the atomics behind them and
// every renderer (render, prometheus_text, serve_throughput's JSON) are
// generated from this list: a new counter is one line here plus its emit
// site.
#define FLASHABFT_SERVE_COUNTERS(X)                                           \
  /* Request lifecycle. `submitted` counts admission attempts (stamped        \
     before the queue push, so completed <= submitted under concurrent        \
     snapshots); failed admissions also count in `rejected`. */               \
  X(submitted, "requests_submitted_total", kCounter, "requests submitted",    \
    "admission attempts")                                                     \
  X(rejected, "requests_rejected_total", kCounter, "requests rejected",       \
    "requests shed at admission")                                             \
  X(completed, "requests_completed_total", kCounter, "requests completed",    \
    "responses delivered")                                                    \
  X(batches, "batches_total", kCounter, "batches",                            \
    "worker batches formed")                                                  \
  /* Outcome paths: completed = clean_first_try + recovered + fallback. */    \
  X(clean_first_try, "responses_clean_first_try_total", kCounter,             \
    "clean first try", "responses with no alarm on any first execution")      \
  X(recovered, "responses_recovered_total", kCounter, "recovered",            \
    "responses whose alarmed ops passed on re-execution")                     \
  X(fallback, "responses_fallback_total", kCounter, "fallback served",        \
    "responses served partly by the reference kernel")                        \
  X(escalations, "escalations_total", kCounter, "escalations",                \
    "retry budgets exhausted")                                                \
  X(breaker_trips, "breaker_trips_total", kCounter, "breaker trips",          \
    "circuit breakers opened")                                                \
  X(breaker_bypasses, "breaker_bypasses_total", kCounter,                     \
    "breaker bypasses", "requests routed straight to the reference kernel")   \
  /* Fault accounting: checksum_clean + checksum_dirty = completed. */        \
  X(alarm_events, "alarm_events_total", kCounter, "alarm events",             \
    "checksum alarms observed")                                               \
  X(op_executions, "op_executions_total", kCounter, "op executions",          \
    "guarded op runs including retries")                                      \
  X(fallback_ops, "fallback_ops_total", kCounter, "fallback ops",             \
    "ops served by the reference kernel")                                     \
  X(checksum_clean, "checksum_clean_total", kCounter, "checksum clean",       \
    "responses whose accepted ops all passed their check")                    \
  X(checksum_dirty, "checksum_dirty_total", kCounter, "checksum dirty",       \
    "responses with an accepted alarmed op")                                  \
  /* Generation sessions. */                                                  \
  X(sessions_started, "sessions_started_total", kCounter,                     \
    "gen sessions started", "generation sessions activated")                  \
  X(sessions_completed, "sessions_completed_total", kCounter,                 \
    "gen sessions completed", "generation sessions finished")                 \
  X(sessions_parked, "sessions_parked_total", kCounter,                       \
    "gen sessions parked", "generation sessions that waited for a slot")      \
  X(tokens_generated, "tokens_generated_total", kCounter,                     \
    "tokens generated", "tokens emitted")                                     \
  X(decode_steps, "decode_steps_total", kCounter, "decode steps",             \
    "decode steps after each prefill")                                        \
  /* Continuous-batching scheduler and its page pool. */                      \
  X(scheduler_ticks, "scheduler_ticks_total", kCounter, "scheduler ticks",    \
    "decode sweeps")                                                          \
  X(scheduled_steps, "scheduled_steps_total", kCounter, "scheduled steps",    \
    "session steps advanced across all decode sweeps")                        \
  X(preemptions, "preemptions_total", kCounter, "preemptions",                \
    "sessions evicted under page pressure")                                   \
  X(session_resumes, "session_resumes_total", kCounter, "session resumes",    \
    "preempted/parked sessions resumed")                                      \
  X(pages_in_use, "pages_in_use", kGauge, "pages in use",                     \
    "KV pool pages allocated now")                                            \
  X(pages_total, "pages_total", kGauge, "pages total", "KV pool size")        \
  X(peak_pages_in_use, "peak_pages_in_use", kGauge, "peak pages in use",      \
    "most KV pool pages allocated at once")                                   \
  /* Shared-prefix cache (zero with caching off). */                          \
  X(prefix_hits, "prefix_hits_total", kCounter, "prefix hits",                \
    "prefills served from the shared-prefix index")                           \
  X(prefix_misses, "prefix_misses_total", kCounter, "prefix misses",          \
    "shared-prefix lookups that found nothing")                               \
  X(prefix_hit_tokens, "prefix_hit_tokens_total", kCounter,                   \
    "prefix hit tokens", "prompt rows skipped by prefix hits")                \
  X(prefix_cow_forks, "prefix_cow_forks_total", kCounter,                     \
    "prefix cow forks", "private copies made off shared pages")               \
  X(prefix_evictions, "prefix_evictions_total", kCounter,                     \
    "prefix evictions", "LRU-evicted shared-prefix entries")                  \
  X(shared_heals, "shared_heals_total", kCounter, "shared heals",             \
    "shared pages healed, once each")                                         \
  X(shared_pages, "shared_pages", kGauge, "shared pages",                     \
    "allocated shared-prefix pages")                                          \
  X(evictable_pages, "evictable_pages", kGauge, "evictable pages",            \
    "shared pages only the prefix registry holds")                            \
  /* Control plane and scrub (zero when the guard/scrubber is off). */        \
  X(meta_verifies, "meta_verifies_total", kCounter, "meta verifies",          \
    "sealed-metadata boundary checks")                                        \
  X(scrub_passes, "scrub_passes_total", kCounter, "scrub passes",             \
    "completed scrub walks")                                                  \
  X(scrub_items, "scrub_items_total", kCounter, "scrub items",                \
    "verify-and-heal items scrubbed")                                         \
  X(scrub_faults_found, "scrub_faults_found_total", kCounter,                 \
    "scrub faults found", "latent faults the scrubber found")                 \
  X(scrub_repairs, "scrub_repairs_total", kCounter, "scrub repairs",          \
    "latent faults healed by the scrubber")                                   \
  X(scrub_unrepairable, "scrub_unrepairable_total", kCounter,                 \
    "scrub unrepairable", "latent double faults the scrubber escalated")      \
  X(dmr_compares, "dmr_compares_total", kCounter, "dmr compares",             \
    "dual-run glue comparisons")                                              \
  X(dmr_mismatches, "dmr_mismatches_total", kCounter, "dmr mismatches",       \
    "bitwise divergences between dual runs")

/// Names one row of FLASHABFT_SERVE_COUNTERS.
enum class Counter : std::size_t {
#define FLASHABFT_COUNTER_ID(field, ...) field,
  FLASHABFT_SERVE_COUNTERS(FLASHABFT_COUNTER_ID)
#undef FLASHABFT_COUNTER_ID
};

inline constexpr std::size_t kCounterCount =
#define FLASHABFT_COUNTER_ONE(...) +1
    0 FLASHABFT_SERVE_COUNTERS(FLASHABFT_COUNTER_ONE);
#undef FLASHABFT_COUNTER_ONE

/// Prometheus metric type (kHistogram is used by the guard-phase family
/// only; table rows are counters or gauges).
enum class MetricType { kCounter, kGauge, kHistogram };

/// The type's name in a `# TYPE` line.
[[nodiscard]] const char* metric_type_name(MetricType type);

/// A consistent copy of all telemetry at one instant.
struct TelemetrySnapshot {
  /// Compute backend the server's software guarded path ran on.
  ComputeBackend compute = ComputeBackend::kScalar;

#define FLASHABFT_COUNTER_FIELD(field, ...) std::uint64_t field = 0;
  FLASHABFT_SERVE_COUNTERS(FLASHABFT_COUNTER_FIELD)
#undef FLASHABFT_COUNTER_FIELD

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
  /// Fraction of shared-prefix lookups that hit.
  [[nodiscard]] double prefix_hit_rate() const {
    return prefix_hits + prefix_misses > 0
               ? double(prefix_hits) / double(prefix_hits + prefix_misses)
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
  [[nodiscard]] double throughput_rps(double wall_seconds) const {
    return wall_seconds > 0.0 ? double(completed) / wall_seconds : 0.0;
  }
  /// Generated tokens per second over `wall_seconds`.
  [[nodiscard]] double tokens_per_second(double wall_seconds) const {
    return wall_seconds > 0.0 ? double(tokens_generated) / wall_seconds
                              : 0.0;
  }

  /// Two-column human-readable table (bench/demo output): every non-zero
  /// counter of the table, then the derived rates, per-kind rows and
  /// latency percentiles.
  [[nodiscard]] std::string render(double wall_seconds) const;

  /// Prometheus text exposition (the scrape format): every table counter
  /// and gauge as a `flashabft_*` family (zero values included), per-kind
  /// series labeled {kind="..."}, and the guard-phase timing as totals plus
  /// cumulative `_bucket{le="..."}` histograms. One self-contained string —
  /// no client library involved.
  [[nodiscard]] std::string prometheus_text(double wall_seconds) const;
};

/// One row of the counter table, as the renderers see it.
struct CounterDescriptor {
  const char* name;    ///< snapshot field name (and JSON key).
  std::uint64_t TelemetrySnapshot::*field;
  const char* family;  ///< Prometheus family, after "flashabft_".
  MetricType type;
  const char* label;   ///< text-table row label.
  const char* help;    ///< Prometheus HELP text.
};

/// The counter table, indexed by std::size_t(Counter).
inline constexpr std::array<CounterDescriptor, kCounterCount> kCounterTable{{
#define FLASHABFT_COUNTER_ROW(field, family, type, label, help) \
  {#field, &TelemetrySnapshot::field, family, MetricType::type, label, help},
    FLASHABFT_SERVE_COUNTERS(FLASHABFT_COUNTER_ROW)
#undef FLASHABFT_COUNTER_ROW
}};

/// The per-response protection counters telemetry sums on every response.
/// The scrub findings are absent: telemetry mirrors the scrubber's own
/// totals for those, which also count repairs of idle shared pages.
inline constexpr std::array kResponseCounters{
    std::pair{&ProtectionCounters::op_executions, Counter::op_executions},
    std::pair{&ProtectionCounters::alarm_events, Counter::alarm_events},
    std::pair{&ProtectionCounters::fallback_ops, Counter::fallback_ops},
    std::pair{&ProtectionCounters::meta_verifies, Counter::meta_verifies},
    std::pair{&ProtectionCounters::dmr_compares, Counter::dmr_compares},
    std::pair{&ProtectionCounters::dmr_mismatches, Counter::dmr_mismatches},
};

/// Thread-safe telemetry sink shared by all workers of one server.
class ServeTelemetry {
 public:
  /// One relaxed atomic add: the only way a counter moves.
  void add(Counter counter, std::uint64_t n = 1) {
    counters_[std::size_t(counter)].fetch_add(n, std::memory_order_relaxed);
  }
  /// Publishes a value another component owns (pool gauges, the scrubber's
  /// and the prefix cache's monotonic totals): one relaxed store.
  void set(Counter counter, std::uint64_t value) {
    counters_[std::size_t(counter)].store(value, std::memory_order_relaxed);
  }
  /// Stamps the compute backend served traffic runs on (server construction).
  void set_compute(ComputeBackend compute) {
    compute_.store(compute, std::memory_order_relaxed);
  }

  /// Records one completed response: outcome path, protection counters,
  /// per-kind accounting and the three latency samples.
  void on_response(const ServeResponse& response) {
    add(Counter::completed);
    add(response.path == ServePath::kGuardedClean ? Counter::clean_first_try
        : response.path == ServePath::kGuardedRecovered
            ? Counter::recovered
            : Counter::fallback);
    for (const auto& [field, counter] : kResponseCounters) {
      add(counter, response.counters.*field);
    }
    add(response.checksum_clean ? Counter::checksum_clean
                                : Counter::checksum_dirty);
    record_reports(response);
  }

  /// Records a completed generation session's token/TTFT accounting (the
  /// generic on_response is still called for the same response).
  void on_session_complete(const ServeResponse& response) {
    add(Counter::sessions_completed);
    add(Counter::tokens_generated, response.tokens.size());
    add(Counter::decode_steps, response.decode_steps);
    record_ttft(response.ttft_us);
  }

  [[nodiscard]] TelemetrySnapshot snapshot() const;

  /// The always-on guard-phase timing profiler executors record into
  /// (lock-free; attach via GuardedExecutor::Options::obs.profiler).
  /// Const-qualified because recording — like every counter bump here — is
  /// a logically-const operation on a thread-safe sink.
  [[nodiscard]] obs::OpTimingProfiler* op_profiler() const {
    return &op_profiler_;
  }

 private:
  /// Per-op-kind accounting of the response's report stream plus its
  /// queue/service/total latency samples.
  void record_reports(const ServeResponse& response);
  void record_ttft(double ttft_us);

  mutable obs::OpTimingProfiler op_profiler_;
  std::atomic<ComputeBackend> compute_{ComputeBackend::kScalar};
  std::array<std::atomic<std::uint64_t>, kCounterCount> counters_{};
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
