// Tests of the serving components around the server core: batch forming,
// the circuit breaker, telemetry percentiles/counters and the counter
// table every telemetry renderer is generated from.
#include <gtest/gtest.h>

#include <chrono>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "serve/batch_former.hpp"
#include "serve/circuit_breaker.hpp"
#include "serve/request_queue.hpp"
#include "serve/telemetry.hpp"

namespace flashabft::serve {
namespace {

using namespace std::chrono_literals;

// --- batch former ---

TEST(BatchFormer, SizeBoundCapsTheBatch) {
  BoundedMpmcQueue<int> q(16);
  for (int i = 0; i < 10; ++i) ASSERT_TRUE(q.push(i));
  BatchFormerConfig cfg;
  cfg.max_batch = 4;
  cfg.batch_deadline = 50ms;
  const std::vector<int> batch = form_batch(q, cfg);
  EXPECT_EQ(batch, (std::vector<int>{0, 1, 2, 3}));
  EXPECT_EQ(q.size(), 6u);
}

TEST(BatchFormer, DeadlineBoundsTheWaitForCompany) {
  BoundedMpmcQueue<int> q(16);
  ASSERT_TRUE(q.push(42));
  BatchFormerConfig cfg;
  cfg.max_batch = 8;
  cfg.batch_deadline = 15ms;
  const auto start = std::chrono::steady_clock::now();
  const std::vector<int> batch = form_batch(q, cfg);
  const auto waited = std::chrono::steady_clock::now() - start;
  EXPECT_EQ(batch, (std::vector<int>{42}));  // lone request ships alone...
  EXPECT_GE(waited, 15ms);                   // ...after the forming deadline.
  EXPECT_LT(waited, 5s);
}

TEST(BatchFormer, LateArrivalsJoinWithinDeadline) {
  BoundedMpmcQueue<int> q(16);
  BatchFormerConfig cfg;
  cfg.max_batch = 4;
  cfg.batch_deadline = 500ms;
  std::thread producer([&q] {
    ASSERT_TRUE(q.push(1));
    std::this_thread::sleep_for(5ms);
    ASSERT_TRUE(q.push(2));
    std::this_thread::sleep_for(5ms);
    ASSERT_TRUE(q.push(3));
    std::this_thread::sleep_for(5ms);
    ASSERT_TRUE(q.push(4));  // fourth fills the batch before the deadline.
  });
  const std::vector<int> batch = form_batch(q, cfg);
  producer.join();
  EXPECT_EQ(batch, (std::vector<int>{1, 2, 3, 4}));
}

TEST(BatchFormer, ClosedAndDrainedQueueYieldsEmptyBatch) {
  BoundedMpmcQueue<int> q(4);
  q.close();
  const std::vector<int> batch = form_batch(q, BatchFormerConfig{});
  EXPECT_TRUE(batch.empty());
}

// --- circuit breaker ---

TEST(CircuitBreaker, TripsAtThresholdWithinWindow) {
  CircuitBreaker breaker(CircuitBreakerConfig{/*window=*/8,
                                              /*trip_threshold=*/3,
                                              /*probe_interval=*/4});
  EXPECT_FALSE(breaker.should_bypass());
  EXPECT_FALSE(breaker.record_escalation());
  EXPECT_FALSE(breaker.record_escalation());
  EXPECT_FALSE(breaker.open());
  EXPECT_TRUE(breaker.record_escalation());  // third escalation trips.
  EXPECT_TRUE(breaker.open());
  EXPECT_EQ(breaker.trips(), 1u);
}

TEST(CircuitBreaker, SuccessesSlideEscalationsOutOfTheWindow) {
  CircuitBreaker breaker(CircuitBreakerConfig{/*window=*/4,
                                              /*trip_threshold=*/2,
                                              /*probe_interval=*/4});
  EXPECT_FALSE(breaker.record_escalation());
  // Four successes push the escalation out of the 4-outcome window.
  for (int i = 0; i < 4; ++i) breaker.record_success();
  EXPECT_FALSE(breaker.record_escalation());  // back to 1 in window.
  EXPECT_FALSE(breaker.open());
}

TEST(CircuitBreaker, OpenBypassesExceptOnProbeTurns) {
  CircuitBreaker breaker(CircuitBreakerConfig{/*window=*/4,
                                              /*trip_threshold=*/1,
                                              /*probe_interval=*/3});
  ASSERT_TRUE(breaker.record_escalation());
  ASSERT_TRUE(breaker.open());
  // Decisions 1, 2 bypass; decision 3 probes the accelerator.
  EXPECT_TRUE(breaker.should_bypass());
  EXPECT_TRUE(breaker.should_bypass());
  EXPECT_FALSE(breaker.should_bypass());
}

TEST(CircuitBreaker, CleanProbeClosesTheBreaker) {
  CircuitBreaker breaker(CircuitBreakerConfig{/*window=*/4,
                                              /*trip_threshold=*/1,
                                              /*probe_interval=*/1});
  ASSERT_TRUE(breaker.record_escalation());
  EXPECT_FALSE(breaker.should_bypass());  // probe_interval=1: always probe.
  breaker.record_success();               // probe came back clean.
  EXPECT_FALSE(breaker.open());
  EXPECT_FALSE(breaker.should_bypass());
}

TEST(CircuitBreaker, FailedProbeStaysOpen) {
  CircuitBreaker breaker(CircuitBreakerConfig{/*window=*/4,
                                              /*trip_threshold=*/1,
                                              /*probe_interval=*/2});
  ASSERT_TRUE(breaker.record_escalation());
  EXPECT_TRUE(breaker.should_bypass());
  EXPECT_FALSE(breaker.should_bypass());      // probe turn...
  EXPECT_FALSE(breaker.record_escalation());  // ...alarmed again: no re-trip,
  EXPECT_TRUE(breaker.open());                // still open.
  EXPECT_EQ(breaker.trips(), 1u);
}

TEST(CircuitBreaker, ResetForcesClosed) {
  CircuitBreaker breaker(CircuitBreakerConfig{/*window=*/2,
                                              /*trip_threshold=*/1,
                                              /*probe_interval=*/2});
  ASSERT_TRUE(breaker.record_escalation());
  breaker.reset();
  EXPECT_FALSE(breaker.open());
  EXPECT_FALSE(breaker.should_bypass());
}

// --- telemetry ---

TEST(Telemetry, PercentileInterpolates) {
  const std::vector<double> sorted = {10.0, 20.0, 30.0, 40.0};
  EXPECT_DOUBLE_EQ(percentile(sorted, 0.0), 10.0);
  EXPECT_DOUBLE_EQ(percentile(sorted, 1.0), 40.0);
  EXPECT_DOUBLE_EQ(percentile(sorted, 0.5), 25.0);
  EXPECT_DOUBLE_EQ(percentile({}, 0.5), 0.0);
  EXPECT_DOUBLE_EQ(percentile(std::vector<double>{7.0}, 0.99), 7.0);
}

TEST(Telemetry, ReservoirStaysBoundedAndRepresentative) {
  LatencyReservoir reservoir(/*capacity=*/64);
  Rng rng(3);
  for (int i = 0; i < 10000; ++i) reservoir.record(double(i % 100), rng);
  EXPECT_EQ(reservoir.samples().size(), 64u);
  EXPECT_EQ(reservoir.seen(), 10000u);
  for (const double sample : reservoir.samples()) {
    EXPECT_GE(sample, 0.0);
    EXPECT_LT(sample, 100.0);
  }
}

TEST(Telemetry, CountersReconcileAcrossPaths) {
  ServeTelemetry telemetry;
  const auto response = [](ServePath path, bool clean, std::size_t alarms) {
    ServeResponse r;
    r.path = path;
    r.checksum_clean = clean;
    r.counters.alarm_events = alarms;
    r.counters.op_executions = 2;
    r.total_us = 100.0;
    OpReport op;
    op.kind = OpKind::kAttentionFlashAbft;
    op.alarms = alarms;
    op.recovery = path == ServePath::kGuardedRecovered
                      ? RecoveryStatus::kRecovered
                      : RecoveryStatus::kCleanFirstTry;
    r.reports.push_back(op);
    return r;
  };
  telemetry.add(Counter::submitted);
  telemetry.add(Counter::submitted);
  telemetry.add(Counter::submitted);
  telemetry.add(Counter::batches);
  telemetry.on_response(response(ServePath::kGuardedClean, true, 0));
  telemetry.on_response(response(ServePath::kGuardedRecovered, true, 1));
  telemetry.add(Counter::escalations);
  telemetry.on_response(response(ServePath::kFallbackReference, true, 3));

  const TelemetrySnapshot s = telemetry.snapshot();
  EXPECT_EQ(s.submitted, 3u);
  EXPECT_EQ(s.completed, 3u);
  EXPECT_EQ(s.clean_first_try + s.recovered + s.fallback, s.completed);
  EXPECT_EQ(s.checksum_clean, 3u);
  EXPECT_EQ(s.checksum_dirty, 0u);
  EXPECT_EQ(s.alarm_events, 4u);
  EXPECT_EQ(s.op_executions, 6u);
  EXPECT_EQ(s.escalations, 1u);
  // Per-op-kind accounting mirrors the report stream.
  const OpKindStats& attention =
      s.per_kind[std::size_t(OpKind::kAttentionFlashAbft)];
  EXPECT_EQ(attention.checks, 3u);
  EXPECT_EQ(attention.alarms, 4u);
  EXPECT_EQ(attention.recovered, 1u);
  EXPECT_DOUBLE_EQ(s.total_p50_us, 100.0);
  EXPECT_GT(s.throughput_rps(2.0), 0.0);
  EXPECT_FALSE(s.render(1.0).empty());
}

// --- counter table ---

/// Lines of `text` starting with `prefix`.
std::vector<std::string> lines_with_prefix(const std::string& text,
                                           const std::string& prefix) {
  std::vector<std::string> out;
  std::istringstream in(text);
  for (std::string line; std::getline(in, line);) {
    if (line.rfind(prefix, 0) == 0) out.push_back(line);
  }
  return out;
}

TEST(CounterTable, NamesAndFamiliesAreUnique) {
  std::set<std::string> names, families, labels;
  for (const CounterDescriptor& counter : kCounterTable) {
    EXPECT_TRUE(names.insert(counter.name).second) << counter.name;
    EXPECT_TRUE(families.insert(counter.family).second) << counter.family;
    EXPECT_TRUE(labels.insert(counter.label).second) << counter.label;
    EXPECT_NE(std::string(counter.help), "") << counter.name;
  }
  EXPECT_EQ(names.size(), kCounterCount);
}

TEST(CounterTable, EachCounterLandsInItsNamedSnapshotField) {
  // A distinct value per counter: add() for the first half, set() for the
  // rest, so both entry points are covered.
  ServeTelemetry telemetry;
  for (std::size_t i = 0; i < kCounterCount; ++i) {
    if (i % 2 == 0) {
      telemetry.add(Counter(i), 100 + i);
    } else {
      telemetry.set(Counter(i), 100 + i);
    }
  }
  const TelemetrySnapshot s = telemetry.snapshot();
  for (std::size_t i = 0; i < kCounterCount; ++i) {
    EXPECT_EQ(s.*kCounterTable[i].field, 100 + i) << kCounterTable[i].name;
  }
  // By name: the snapshot field and the Counter id of one table row agree.
#define FLASHABFT_EXPECT_FIELD(field, ...)                       \
  EXPECT_EQ(s.field, 100 + std::size_t(Counter::field)) << #field; \
  EXPECT_STREQ(kCounterTable[std::size_t(Counter::field)].name, #field);
  FLASHABFT_SERVE_COUNTERS(FLASHABFT_EXPECT_FIELD)
#undef FLASHABFT_EXPECT_FIELD
}

TEST(CounterTable, PrometheusDeclaresEveryFamilyOnceAndSamplesEveryCounter) {
  TelemetrySnapshot s;  // all zero: zero-valued counters still export.
  s.scrub_items = 7;
  const std::string text = s.prometheus_text(/*wall_seconds=*/1.0);

  std::set<std::string> declared;
  for (const std::string& line : lines_with_prefix(text, "# HELP ")) {
    const std::string family = line.substr(7, line.find(' ', 7) - 7);
    EXPECT_TRUE(declared.insert(family).second) << "duplicate HELP " << line;
  }
  std::set<std::string> typed;
  for (const std::string& line : lines_with_prefix(text, "# TYPE ")) {
    const std::string family = line.substr(7, line.find(' ', 7) - 7);
    EXPECT_TRUE(typed.insert(family).second) << "duplicate TYPE " << line;
  }
  EXPECT_EQ(declared, typed);

  for (const CounterDescriptor& counter : kCounterTable) {
    const std::string family = std::string("flashabft_") + counter.family;
    EXPECT_TRUE(declared.count(family)) << family;
    const std::vector<std::string> samples =
        lines_with_prefix(text, family + " ");
    ASSERT_EQ(samples.size(), 1u) << family;
    EXPECT_EQ(samples[0], family + " " + std::to_string(s.*counter.field));
    EXPECT_EQ(lines_with_prefix(text, "# TYPE " + family + " " +
                                          metric_type_name(counter.type))
                  .size(),
              1u)
        << family;
  }
  EXPECT_NE(text.find("\nflashabft_scrub_items_total 7\n"), std::string::npos);

  // Every family exported before the table existed keeps its name.
  for (const char* family :
       {"requests_submitted_total", "requests_rejected_total",
        "requests_completed_total", "alarm_events_total",
        "op_executions_total", "fallback_ops_total", "escalations_total",
        "breaker_trips_total", "checksum_dirty_total",
        "sessions_completed_total", "tokens_generated_total",
        "scheduler_ticks_total", "preemptions_total", "session_resumes_total",
        "scrub_passes_total", "scrub_repairs_total", "pages_in_use",
        "pages_total", "throughput_rps", "op_checks_total", "op_alarms_total",
        "guard_phase_seconds_total", "guard_phase_duration_seconds",
        "abft_overhead_pct"}) {
    EXPECT_TRUE(declared.count(std::string("flashabft_") + family)) << family;
  }
}

TEST(CounterTable, RenderShowsScrubProgressBeforeTheFirstPass) {
  // The inline scrub walks one item per tick: a long walk reports items
  // for many ticks before its first pass completes, and the table must
  // show that progress.
  TelemetrySnapshot s;
  s.scrub_passes = 0;
  s.scrub_items = 42;
  const std::string text = s.render(/*wall_seconds=*/1.0);
  EXPECT_NE(text.find("scrub items"), std::string::npos) << text;
  EXPECT_EQ(text.find("scrub passes"), std::string::npos) << text;
}

}  // namespace
}  // namespace flashabft::serve
