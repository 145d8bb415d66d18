// Tests of the observability subsystem (src/obs/): trace-collector span
// nesting, per-thread buffer merge determinism and drop accounting, flight-
// recorder ring wraparound and concurrent sequencing, log-histogram merge
// identity, per-OpKind guard-phase profiling through GuardedExecutor, the
// fully-off zero-event path, and tracing under the threaded continuous
// scheduler (the TSan target).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <future>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/guarded_op.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/histogram.hpp"
#include "obs/op_profile.hpp"
#include "obs/trace.hpp"
#include "serve/server.hpp"

namespace flashabft {
namespace {

// --- TraceCollector ------------------------------------------------------

TEST(ObsTrace, SpanNestingExportsBalancedChromeEvents) {
  obs::TraceCollector trace;
  {
    obs::TraceSpan outer(&trace, "tick", "sched");
    {
      obs::TraceSpan inner(&trace, "prefill", "sched");
      trace.instant_arg("admit", 7, "sched");
    }
  }

  const std::vector<obs::TraceEvent> events = trace.events();
  ASSERT_EQ(events.size(), 5u);
  EXPECT_EQ(events[0].phase, obs::TracePhase::kBegin);
  EXPECT_STREQ(events[0].name, "tick");
  EXPECT_EQ(events[1].phase, obs::TracePhase::kBegin);
  EXPECT_STREQ(events[1].name, "prefill");
  EXPECT_EQ(events[2].phase, obs::TracePhase::kInstant);
  EXPECT_STREQ(events[2].name, "admit");
  EXPECT_TRUE(events[2].has_arg);
  EXPECT_EQ(events[2].arg, 7u);
  // Nested spans close innermost-first.
  EXPECT_EQ(events[3].phase, obs::TracePhase::kEnd);
  EXPECT_STREQ(events[3].name, "prefill");
  EXPECT_EQ(events[4].phase, obs::TracePhase::kEnd);
  EXPECT_STREQ(events[4].name, "tick");
  for (std::size_t i = 1; i < events.size(); ++i) {
    EXPECT_GE(events[i].ts_ns, events[i - 1].ts_ns);
  }

  std::ostringstream out;
  trace.write_chrome_trace(out);
  const std::string json = out.str();
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("thread_name"), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"B\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"E\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"i\""), std::string::npos);
  EXPECT_EQ(trace.dropped(), 0u);
}

TEST(ObsTrace, NullCollectorSpanIsANoOp) {
  // The off state: a TraceSpan over a null collector must not touch anything.
  obs::TraceSpan span(nullptr, "tick", "sched");
  obs::TraceSpan inner(nullptr, "prefill");
  SUCCEED();
}

TEST(ObsTrace, ThreadBuffersMergeDeterministically) {
  // Each thread emits a fixed begin/instant/end pattern under its own name.
  // Export concatenates per-thread buffers whole, in registration order, so
  // the flat event list must partition into contiguous single-name blocks,
  // each holding its thread's pattern in emission order.
  static const char* kNames[3] = {"worker-a", "worker-b", "worker-c"};
  constexpr std::size_t kRepeats = 50;

  obs::TraceCollector trace;
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < 3; ++t) {
    threads.emplace_back([&trace, t] {
      for (std::size_t i = 0; i < kRepeats; ++i) {
        trace.begin(kNames[t], "test");
        trace.instant_arg(kNames[t], i, "test");
        trace.end(kNames[t], "test");
      }
    });
  }
  for (std::thread& th : threads) th.join();

  EXPECT_EQ(trace.thread_count(), 3u);
  EXPECT_EQ(trace.dropped(), 0u);
  const std::vector<obs::TraceEvent> events = trace.events();
  ASSERT_EQ(events.size(), 3 * 3 * kRepeats);

  for (std::size_t block = 0; block < 3; ++block) {
    const char* name = events[block * 3 * kRepeats].name;
    for (std::size_t i = 0; i < kRepeats; ++i) {
      const std::size_t base = block * 3 * kRepeats + 3 * i;
      EXPECT_STREQ(events[base].name, name);
      EXPECT_EQ(events[base].phase, obs::TracePhase::kBegin);
      EXPECT_EQ(events[base + 1].phase, obs::TracePhase::kInstant);
      EXPECT_EQ(events[base + 1].arg, i);  // emission order preserved.
      EXPECT_EQ(events[base + 2].phase, obs::TracePhase::kEnd);
      if (base + 3 < (block + 1) * 3 * kRepeats) {
        EXPECT_LE(events[base].ts_ns, events[base + 3].ts_ns);
      }
    }
  }
  // Every thread used a distinct name; the three blocks must too.
  EXPECT_STRNE(events[0].name, events[3 * kRepeats].name);
  EXPECT_STRNE(events[3 * kRepeats].name, events[6 * kRepeats].name);
}

TEST(ObsTrace, FullBufferDropsAreCountedNotBlocking) {
  obs::TraceCollector trace(/*events_per_thread=*/4);
  for (std::size_t i = 0; i < 10; ++i) trace.instant("x", "test");
  EXPECT_EQ(trace.event_count(), 4u);
  EXPECT_EQ(trace.dropped(), 6u);

  // clear() empties events and drop counts but keeps the registration.
  trace.clear();
  EXPECT_EQ(trace.event_count(), 0u);
  EXPECT_EQ(trace.dropped(), 0u);
  EXPECT_EQ(trace.thread_count(), 1u);
  trace.instant("y", "test");
  EXPECT_EQ(trace.event_count(), 1u);
  EXPECT_EQ(trace.thread_count(), 1u);
}

// --- FlightRecorder ------------------------------------------------------

TEST(ObsFlight, RingWraparoundKeepsNewestOldestFirst) {
  obs::FlightRecorder recorder(/*capacity=*/4);
  for (std::uint64_t i = 0; i < 10; ++i) {
    recorder.record(obs::FlightEventKind::kNote, "test", "wrap", i);
  }
  EXPECT_EQ(recorder.capacity(), 4u);
  EXPECT_EQ(recorder.total_recorded(), 10u);

  const std::vector<obs::FlightEvent> events = recorder.events();
  ASSERT_EQ(events.size(), 4u);
  for (std::size_t i = 0; i < events.size(); ++i) {
    EXPECT_EQ(events[i].seq, 6u + i);  // the last four, oldest first.
    EXPECT_EQ(events[i].value, 6u + i);
    if (i > 0) EXPECT_GE(events[i].ts_ns, events[i - 1].ts_ns);
  }

  std::ostringstream out;
  recorder.dump(out);
  const std::string text = out.str();
  EXPECT_NE(text.find("4 of 10 events retained"), std::string::npos);
  EXPECT_NE(text.find("note"), std::string::npos);
}

TEST(ObsFlight, ConcurrentRecordsKeepUniqueSequence) {
  constexpr std::size_t kThreads = 4;
  constexpr std::size_t kPerThread = 100;
  obs::FlightRecorder recorder(/*capacity=*/64);

  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&recorder, t] {
      for (std::size_t i = 0; i < kPerThread; ++i) {
        recorder.record(obs::FlightEventKind::kNote, "test", "mt", t);
      }
    });
  }
  for (std::thread& th : threads) th.join();

  EXPECT_EQ(recorder.total_recorded(), kThreads * kPerThread);
  const std::vector<obs::FlightEvent> events = recorder.events();
  ASSERT_EQ(events.size(), 64u);
  for (std::size_t i = 1; i < events.size(); ++i) {
    EXPECT_EQ(events[i].seq, events[i - 1].seq + 1);  // no gaps, no dupes.
  }
  EXPECT_EQ(events.back().seq, kThreads * kPerThread - 1);
}

// --- LogHistogram / OpTimingProfiler -------------------------------------

TEST(ObsHistogram, MergeMatchesSingleHistogram) {
  const std::vector<std::uint64_t> values = {0,  1,    2,      3,       7,
                                             8,  100,  1023,   1024,    4096,
                                             1u << 20, 900000, 1234567, 42};
  obs::LogHistogram whole;
  obs::LogHistogram left;
  obs::LogHistogram right;
  for (std::size_t i = 0; i < values.size(); ++i) {
    whole.add(values[i]);
    (i % 2 == 0 ? left : right).add(values[i]);
  }
  obs::LogHistogram merged = left;
  merged.merge(right);

  EXPECT_EQ(merged.count, whole.count);
  EXPECT_EQ(merged.total, whole.total);
  EXPECT_EQ(merged.buckets, whole.buckets);
  EXPECT_DOUBLE_EQ(merged.mean(), whole.mean());
  EXPECT_EQ(merged.percentile(0.5), whole.percentile(0.5));
  EXPECT_EQ(merged.percentile(0.99), whole.percentile(0.99));
}

TEST(ObsHistogram, BucketEdgesAndPercentileBounds) {
  EXPECT_EQ(obs::LogHistogram::bucket_of(0), 0u);
  EXPECT_EQ(obs::LogHistogram::bucket_of(1), 0u);
  EXPECT_EQ(obs::LogHistogram::bucket_of(2), 1u);
  EXPECT_EQ(obs::LogHistogram::bucket_of(3), 1u);
  EXPECT_EQ(obs::LogHistogram::bucket_of(4), 2u);
  EXPECT_EQ(obs::LogHistogram::bucket_of(1023), 9u);
  EXPECT_EQ(obs::LogHistogram::bucket_of(1024), 10u);
  // Values past the top bucket clamp instead of indexing out of range.
  EXPECT_EQ(obs::LogHistogram::bucket_of(~std::uint64_t{0}),
            obs::LogHistogram::kBuckets - 1);

  obs::LogHistogram h;
  EXPECT_EQ(h.percentile(0.5), 0u);  // empty histogram.
  h.add(1000);
  h.add(2000);
  h.add(4000);
  // Percentiles report the holding bucket's upper edge — a bound that is
  // always >= the true sample.
  EXPECT_GE(h.percentile(0.5), 1024u);
  EXPECT_GE(h.percentile(1.0), 4000u);
  EXPECT_DOUBLE_EQ(h.mean(), 7000.0 / 3.0);
}

TEST(ObsProfiler, SnapshotAttributesPhasesAndOverhead) {
  obs::OpTimingProfiler profiler;
  profiler.record(OpKind::kProjection, obs::GuardPhase::kCompute, 1000);
  profiler.record(OpKind::kProjection, obs::GuardPhase::kVerify, 100);
  profiler.record(OpKind::kProjection, obs::GuardPhase::kRecovery, 50);

  obs::OpTimingSnapshot snap = profiler.snapshot();
  EXPECT_FALSE(snap.empty());
  EXPECT_EQ(snap.compute_ns(OpKind::kProjection), 1000u);
  EXPECT_EQ(snap.guard_ns(OpKind::kProjection), 150u);
  EXPECT_DOUBLE_EQ(snap.overhead_pct(OpKind::kProjection), 15.0);
  // A kind that never ran reports zero overhead, not a division blowup.
  EXPECT_DOUBLE_EQ(snap.overhead_pct(OpKind::kFfn), 0.0);

  // Merge is plain addition, so merging a snapshot into itself doubles it.
  obs::OpTimingSnapshot doubled = snap;
  doubled.merge(snap);
  EXPECT_EQ(doubled.compute_ns(OpKind::kProjection), 2000u);
  EXPECT_EQ(doubled.guard_ns(OpKind::kProjection), 300u);
  EXPECT_DOUBLE_EQ(doubled.overhead_pct(OpKind::kProjection), 15.0);

  profiler.clear();
  EXPECT_TRUE(profiler.snapshot().empty());
}

// --- GuardedExecutor integration -----------------------------------------

/// A checked op whose actual checksum is shifted on the first `faulty`
/// attempts — the standard emulated-datapath-fault engine.
GuardedExecutor::RunOp flaky_engine(std::size_t faulty) {
  return [faulty](std::size_t attempt) {
    CheckedOp op;
    op.output = MatrixD(1, 1, 2.5);
    op.check = {1.0, attempt < faulty ? 1.5 : 1.0};
    return op;
  };
}

TEST(ObsProfiler, GuardedExecutorSplitsComputeVerifyRecovery) {
  obs::OpTimingProfiler profiler;
  obs::FlightRecorder recorder(16);
  GuardedExecutor::Options options;
  options.obs.profiler = &profiler;
  options.obs.flight = &recorder;
  const GuardedExecutor exec(options);

  const GuardedOp clean =
      exec.run(OpKind::kProjection, 0, 1.0, flaky_engine(0));
  EXPECT_TRUE(clean.clean());

  const GuardedOp recovered =
      exec.run(OpKind::kProjection, 1, 1.0, flaky_engine(1));
  EXPECT_TRUE(recovered.clean());
  EXPECT_EQ(recovered.report.recovery, RecoveryStatus::kRecovered);

  const obs::OpTimingSnapshot snap = profiler.snapshot();
  // Attempt 0 of each run profiles as compute; the retry as recovery; every
  // checksum comparison as verify.
  EXPECT_EQ(snap.of(OpKind::kProjection, obs::GuardPhase::kCompute).count, 2u);
  EXPECT_EQ(snap.of(OpKind::kProjection, obs::GuardPhase::kRecovery).count,
            1u);
  EXPECT_EQ(snap.of(OpKind::kProjection, obs::GuardPhase::kVerify).count, 3u);

  // The flaky run left its alarm -> recovery pair in the flight ring.
  const std::vector<obs::FlightEvent> events = recorder.events();
  ASSERT_GE(events.size(), 2u);
  bool saw_alarm = false;
  bool saw_recovery_after_alarm = false;
  for (const obs::FlightEvent& e : events) {
    if (e.kind == obs::FlightEventKind::kAlarm) saw_alarm = true;
    if (e.kind == obs::FlightEventKind::kRecovery && saw_alarm) {
      saw_recovery_after_alarm = true;
    }
  }
  EXPECT_TRUE(saw_alarm);
  EXPECT_TRUE(saw_recovery_after_alarm);
}

TEST(ObsHooks, ZeroEventPathMatchesHookedExecution) {
  // Hooks are fully off by default...
  const obs::ObsHooks off{};
  EXPECT_FALSE(off.any());
  EXPECT_FALSE(off.timing());
  obs::FlightRecorder recorder(4);
  obs::ObsHooks flight_only{};
  flight_only.flight = &recorder;
  EXPECT_TRUE(flight_only.any());
  EXPECT_FALSE(flight_only.timing());  // flight alone needs no clock reads.
  obs::OpTimingProfiler profiler;
  obs::ObsHooks profiled{};
  profiled.profiler = &profiler;
  EXPECT_TRUE(profiled.timing());

  // ...and attaching them must not change what guarded execution produces.
  GuardedExecutor::Options bare;
  GuardedExecutor::Options hooked;
  obs::TraceCollector trace;
  hooked.obs.trace = &trace;
  hooked.obs.profiler = &profiler;
  const GuardedOp a =
      GuardedExecutor(bare).run(OpKind::kFfn, 0, 1.0, flaky_engine(1));
  const GuardedOp b =
      GuardedExecutor(hooked).run(OpKind::kFfn, 0, 1.0, flaky_engine(1));
  EXPECT_EQ(a.clean(), b.clean());
  EXPECT_EQ(a.report.executions, b.report.executions);
  EXPECT_EQ(a.report.alarms, b.report.alarms);
  EXPECT_EQ(a.output(0, 0), b.output(0, 0));
  EXPECT_FALSE(profiler.snapshot().empty());
}

// --- Threaded continuous scheduler under tracing (the TSan target) -------

TransformerConfig small_model() {
  TransformerConfig model;
  model.vocab_size = 64;
  model.model_dim = 16;
  model.num_layers = 2;
  model.num_heads = 2;
  model.head_dim = 8;
  model.ffn_dim = 32;
  model.max_seq_len = 32;
  return model;
}

serve::ServeRequest make_generation_request(std::size_t max_new_tokens) {
  serve::ServeRequest request;
  request.category = "generation";
  serve::GenerationWork work;
  work.prompt = {5, 40, 2, 19, 33, 8};
  work.max_new_tokens = max_new_tokens;
  request.work = std::move(work);
  return request;
}

TEST(ObsServe, ThreadedContinuousSchedulerTracesBalancedSpans) {
  obs::TraceCollector trace;
  obs::FlightRecorder recorder(64);

  serve::ServerConfig config;
  config.num_workers = 2;
  config.queue_capacity = 32;
  config.batching.max_batch = 4;
  config.batching.batch_deadline = std::chrono::microseconds(100);
  config.model = small_model();
  config.software_checker = CheckerConfig{1e-6};
  config.max_sessions = 4;
  config.scheduler.page_size = 4;
  config.trace = &trace;
  config.flight = &recorder;

  serve::InferenceServer server(config);
  std::vector<std::future<serve::ServeResponse>> futures;
  for (std::size_t i = 0; i < 4; ++i) {
    futures.push_back(server.submit(make_generation_request(4)));
  }
  for (std::future<serve::ServeResponse>& f : futures) {
    const serve::ServeResponse response = f.get();
    EXPECT_EQ(response.tokens.size(), 4u);
  }
  server.shutdown();  // quiesce every emitter before reading the buffers.

  EXPECT_GT(trace.event_count(), 0u);
  EXPECT_EQ(trace.dropped(), 0u);

  // Spans balance per name: scheduler ticks, prefills and decode batches all
  // open and close on the thread that ran them.
  std::vector<std::pair<const char*, std::int64_t>> balance;
  for (const obs::TraceEvent& e : trace.events()) {
    if (e.phase == obs::TracePhase::kInstant) continue;
    auto it = std::find_if(
        balance.begin(), balance.end(),
        [&e](const auto& entry) {
          return std::string(entry.first) == e.name;
        });
    if (it == balance.end()) {
      balance.emplace_back(e.name, 0);
      it = balance.end() - 1;
    }
    it->second += e.phase == obs::TracePhase::kBegin ? 1 : -1;
  }
  EXPECT_FALSE(balance.empty());
  for (const auto& [name, depth] : balance) {
    EXPECT_EQ(depth, 0) << "unbalanced span: " << name;
  }

  // Chrome export names every registered thread and stays loadable.
  std::ostringstream out;
  trace.write_chrome_trace(out);
  const std::string json = out.str();
  EXPECT_NE(json.find("\"args\":{\"name\":\"serve-0\"}"), std::string::npos);
  EXPECT_EQ(json.find("\"ph\":\"B\"") == std::string::npos,
            json.find("\"ph\":\"E\"") == std::string::npos);

  // The always-on profiler saw guarded work; the snapshot carries it.
  const serve::TelemetrySnapshot snapshot = server.telemetry().snapshot();
  EXPECT_FALSE(snapshot.timing.empty());
}

}  // namespace
}  // namespace flashabft
