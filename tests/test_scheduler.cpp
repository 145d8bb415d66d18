// End-to-end tests of the continuous-batching scheduler: token parity with
// TransformerModel::generate, >= 8-way concurrent decode with batch
// occupancy, preemption under page pressure with lossless resume, the
// KV-page double-fault drill (page data + page-table entry corrupted in the
// same tick), emulated step faults and the SessionTable starvation guard.
#include <gtest/gtest.h>

#include <future>
#include <utility>
#include <vector>

#include "serve/scheduler.hpp"
#include "serve/server.hpp"
#include "serve/session.hpp"

namespace flashabft::serve {
namespace {

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

ServerConfig continuous_config(std::size_t max_sessions = 8,
                               std::size_t num_pages = 0,
                               std::size_t page_size = 4) {
  ServerConfig config;
  config.num_workers = 1;  // generation never touches the worker pool.
  config.queue_capacity = 32;
  config.model = small_model();
  config.software_checker = CheckerConfig{1e-6};
  config.max_sessions = max_sessions;
  config.scheduler.page_size = page_size;
  config.scheduler.num_pages = num_pages;
  return config;
}

std::vector<std::size_t> test_prompt(std::size_t salt = 0) {
  return {5 + salt % 7, 40, 2, 19, 33, 8};
}

ServeRequest make_generation_request(std::size_t max_new_tokens = 4,
                                     std::size_t salt = 0) {
  ServeRequest request;
  request.category = "generation";
  GenerationWork work;
  work.prompt = test_prompt(salt);
  work.max_new_tokens = max_new_tokens;
  request.work = std::move(work);
  return request;
}

std::size_t count_kind(const ServeResponse& response, OpKind kind) {
  std::size_t total = 0;
  for (const OpReport& r : response.reports) total += (r.kind == kind);
  return total;
}

TEST(Scheduler, ContinuousSessionMatchesModelGenerate) {
  const ServerConfig config = continuous_config();
  InferenceServer server(config);
  const ServeResponse response =
      server.submit(make_generation_request(5)).get();

  // Golden oracles: the model's own single-session generate loop, and —
  // since generate shares the paged kernels with serving — the cache-free
  // full recompute, which shares none, token by token.
  const GuardedExecutor exec(config.software_checker, config.recovery);
  KvCache cache = server.model().make_cache();
  const GenerationResult golden = server.model().generate(
      test_prompt(), 5, AttentionBackend::kFlashAbft, exec, cache);
  EXPECT_EQ(response.path, ServePath::kGuardedClean);
  EXPECT_TRUE(response.checksum_clean);
  EXPECT_EQ(response.tokens, golden.tokens);
  std::vector<std::size_t> sequence = test_prompt();
  for (const std::size_t token : response.tokens) {
    const auto [logits, report] = server.model().forward_full(
        sequence, AttentionBackend::kFlashAbft, exec);
    const std::size_t last = logits.rows() - 1;
    EXPECT_EQ(TransformerModel::argmax(std::vector<double>(
                  logits.row(last).begin(), logits.row(last).end())),
              token)
        << "at length " << sequence.size();
    sequence.push_back(token);
  }
  EXPECT_EQ(response.decode_steps, 4u);
  EXPECT_GT(response.ttft_us, 0.0);
  EXPECT_GE(response.total_us, response.ttft_us);
  EXPECT_EQ(response.preemptions, 0u);
  EXPECT_EQ(response.counters.alarm_events, 0u);
  // Each decode step verifies every layer's pages + mapping (kKvPage).
  EXPECT_EQ(count_kind(response, OpKind::kKvPage),
            4u * small_model().num_layers);

  const TelemetrySnapshot s = server.telemetry().snapshot();
  EXPECT_EQ(s.completed, 1u);
  EXPECT_EQ(s.sessions_started, 1u);
  EXPECT_EQ(s.sessions_completed, 1u);
  EXPECT_EQ(s.tokens_generated, 5u);
  EXPECT_EQ(s.decode_steps, 4u);
  EXPECT_GT(s.ttft_p50_us, 0.0);
  EXPECT_EQ(s.per_kind[std::size_t(OpKind::kKvPage)].checks,
            4u * small_model().num_layers);
  EXPECT_EQ(server.active_sessions(), 0u);
  EXPECT_GT(s.scheduler_ticks, 0u);
  EXPECT_EQ(s.scheduled_steps, 4u);
  EXPECT_EQ(s.pages_total, server.scheduler().pool_pages());
  EXPECT_EQ(s.pages_in_use, 0u);  // released at completion.
  EXPECT_GT(s.peak_pages_in_use, 0u);
}

TEST(Scheduler, EightConcurrentSessionsBatchTogether) {
  InferenceServer server(continuous_config(/*max_sessions=*/8));
  std::vector<std::future<ServeResponse>> futures;
  for (std::size_t i = 0; i < 8; ++i) {
    futures.push_back(server.submit(make_generation_request(6, i)));
  }
  for (auto& future : futures) {
    const ServeResponse response = future.get();
    EXPECT_TRUE(response.checksum_clean);
    EXPECT_EQ(response.tokens.size(), 6u);
  }
  const TelemetrySnapshot s = server.telemetry().snapshot();
  EXPECT_EQ(s.sessions_completed, 8u);
  EXPECT_EQ(s.scheduled_steps, 8u * 5u);
  // Sessions submitted together decode together: the mean decode batch
  // must be well above one session per tick.
  EXPECT_GT(s.batch_occupancy(), 1.5);
  EXPECT_GT(s.peak_page_utilization(), 0.0);
  EXPECT_EQ(server.active_sessions(), 0u);
}

TEST(Scheduler, PreemptionUnderPagePressureResumesLosslessly) {
  // max_seq_len 16 -> a full-length session needs 2 layers x 4 pages; a
  // 10-page pool fits one plus two loose pages, so three concurrent
  // sessions must preempt each other to finish.
  ServerConfig config = continuous_config(/*max_sessions=*/3,
                                          /*num_pages=*/10);
  config.model.max_seq_len = 16;
  std::vector<std::vector<std::size_t>> golden;
  {
    ServerConfig roomy_config = continuous_config(/*max_sessions=*/3);
    roomy_config.model.max_seq_len = 16;
    InferenceServer roomy(roomy_config);
    std::vector<std::future<ServeResponse>> futures;
    for (std::size_t i = 0; i < 3; ++i) {
      futures.push_back(roomy.submit(make_generation_request(8, i)));
    }
    for (auto& future : futures) golden.push_back(future.get().tokens);
    EXPECT_EQ(roomy.telemetry().snapshot().preemptions, 0u);
  }

  InferenceServer server(config);
  std::vector<std::future<ServeResponse>> futures;
  for (std::size_t i = 0; i < 3; ++i) {
    futures.push_back(server.submit(make_generation_request(8, i)));
  }
  std::size_t preempted_sessions = 0;
  for (std::size_t i = 0; i < 3; ++i) {
    const ServeResponse response = futures[i].get();
    EXPECT_TRUE(response.checksum_clean);
    // Losslessness: identical tokens to the pressure-free run.
    EXPECT_EQ(response.tokens, golden[i]) << "session " << i;
    preempted_sessions += response.preemptions > 0;
    EXPECT_EQ(response.resumes, response.preemptions);
  }
  EXPECT_GT(preempted_sessions, 0u);
  const TelemetrySnapshot s = server.telemetry().snapshot();
  EXPECT_GT(s.preemptions, 0u);
  EXPECT_EQ(s.session_resumes, s.preemptions);
  EXPECT_EQ(s.sessions_completed, 3u);
}

TEST(Scheduler, KvPageDoubleFaultDrillDuringPreemptionCycle) {
  // The acceptance drill: under page pressure (preemption/resume active),
  // corrupt a page *and* its page-table entry in the same tick. The alarm
  // must attribute to the right session/layer and the output must match
  // the fault-free run token for token.
  const std::size_t kLayer = 1;
  ServerConfig config = continuous_config(/*max_sessions=*/3,
                                          /*num_pages=*/10);
  config.model.max_seq_len = 16;
  InferenceServer golden_server(config);
  std::vector<std::future<ServeResponse>> golden_futures;
  for (std::size_t i = 0; i < 3; ++i) {
    golden_futures.push_back(
        golden_server.submit(make_generation_request(8, i)));
  }
  std::vector<std::vector<std::size_t>> golden;
  for (auto& future : golden_futures) golden.push_back(future.get().tokens);

  InferenceServer server(config);
  std::vector<std::future<ServeResponse>> futures;
  for (std::size_t i = 0; i < 3; ++i) {
    ServeRequest request = make_generation_request(8, i);
    if (i == 0) {
      KvCorruption data;
      data.step = 4;
      data.layer = kLayer;
      data.row = 3;
      data.col = 7;
      data.delta = 1.5;
      KvCorruption table = data;
      table.page_table = true;
      std::get<GenerationWork>(request.work).kv_corruptions = {data, table};
    }
    futures.push_back(server.submit(std::move(request)));
  }

  for (std::size_t i = 0; i < 3; ++i) {
    const ServeResponse response = futures[i].get();
    EXPECT_TRUE(response.checksum_clean) << "session " << i;
    EXPECT_EQ(response.tokens, golden[i]) << "session " << i;
    if (i == 0) {
      EXPECT_EQ(response.path, ServePath::kGuardedRecovered);
      EXPECT_EQ(response.counters.fallback_ops, 0u);
      // Attribution: the alarm is a kKvPage op indexed by the faulted
      // layer, inside the faulted session's own report stream.
      bool attributed = false;
      for (const OpReport& r : response.reports) {
        if (r.kind != OpKind::kKvPage || r.alarms == 0) continue;
        EXPECT_EQ(r.index, kLayer);
        EXPECT_EQ(r.recovery, RecoveryStatus::kRecovered);
        attributed = true;
      }
      EXPECT_TRUE(attributed);
    } else {
      // The fault must not leak into the other sessions' streams.
      for (const OpReport& r : response.reports) {
        if (r.kind == OpKind::kKvPage) EXPECT_EQ(r.alarms, 0u);
      }
    }
  }
  const TelemetrySnapshot s = server.telemetry().snapshot();
  const OpKindStats& kv = s.per_kind[std::size_t(OpKind::kKvPage)];
  EXPECT_GE(kv.alarms, 1u);
  EXPECT_GE(kv.recovered, 1u);
  EXPECT_EQ(kv.escalated, 0u);
  EXPECT_GT(s.preemptions, 0u);  // the drill ran under a preemption cycle.
  EXPECT_EQ(s.checksum_dirty, 0u);
}

TEST(Scheduler, TransientStepFaultRecoversInContinuousMode) {
  InferenceServer server(continuous_config());
  const ServeResponse golden =
      server.submit(make_generation_request(4)).get();

  ServeRequest faulty = make_generation_request(4);
  GenerationStepFault fault;
  fault.step = 2;
  fault.fault.kind = OpKind::kFfn;
  fault.fault.op_index = 1 * 2;
  fault.fault.faulty_attempts = 1;
  std::get<GenerationWork>(faulty.work).faults = {fault};
  const ServeResponse response = server.submit(std::move(faulty)).get();
  EXPECT_EQ(response.path, ServePath::kGuardedRecovered);
  EXPECT_TRUE(response.checksum_clean);
  EXPECT_EQ(response.tokens, golden.tokens);
  const TelemetrySnapshot s = server.telemetry().snapshot();
  EXPECT_EQ(s.per_kind[std::size_t(OpKind::kFfn)].alarms, 1u);
  EXPECT_EQ(s.per_kind[std::size_t(OpKind::kFfn)].recovered, 1u);
}

TEST(Scheduler, PersistentStepFaultEscalatesToVerifiedFallback) {
  ServerConfig config = continuous_config();
  config.recovery.max_retries = 1;
  // A decode-step op (layer 0's Q projection) and a prefill op (the tied
  // LM head, global index num_layers * 4) — both batched and per-session
  // paths must serve the escalated op from the verified fallback.
  const std::size_t lm_head = small_model().num_layers * 4;
  for (const auto& [step, op_index] :
       {std::pair<std::size_t, std::size_t>{1, 0}, {0, lm_head}}) {
    InferenceServer server(config);
    const ServeResponse golden =
        server.submit(make_generation_request(3)).get();

    ServeRequest faulty = make_generation_request(3);
    GenerationStepFault fault;
    fault.step = step;
    fault.fault.kind = OpKind::kProjection;
    fault.fault.op_index = op_index;
    fault.fault.faulty_attempts = config.recovery.max_retries + 1;
    std::get<GenerationWork>(faulty.work).faults = {fault};
    const ServeResponse response = server.submit(std::move(faulty)).get();
    EXPECT_EQ(response.path, ServePath::kFallbackReference) << step;
    EXPECT_TRUE(response.checksum_clean);  // fallback verified clean.
    EXPECT_EQ(response.counters.fallback_ops, 1u);
    EXPECT_EQ(response.tokens, golden.tokens);
    const TelemetrySnapshot s = server.telemetry().snapshot();
    EXPECT_EQ(s.per_kind[std::size_t(OpKind::kProjection)].escalated, 1u);
    EXPECT_EQ(s.per_kind[std::size_t(OpKind::kReferenceFallback)].checks,
              1u);
    EXPECT_EQ(s.escalations, 1u);
    EXPECT_EQ(s.checksum_dirty, 0u);
  }
}

TEST(Scheduler, ParallelSweepMatchesSingleThreadedTokens) {
  // Explicit sweep_threads exercises the partitioned sweep even on a
  // single-core machine (the hardware cap only applies to the default).
  std::vector<std::vector<std::size_t>> golden;
  {
    ServerConfig single = continuous_config(/*max_sessions=*/6);
    single.scheduler.sweep_threads = 1;
    InferenceServer server(single);
    std::vector<std::future<ServeResponse>> futures;
    for (std::size_t i = 0; i < 6; ++i) {
      futures.push_back(server.submit(make_generation_request(5, i)));
    }
    for (auto& future : futures) golden.push_back(future.get().tokens);
  }
  ServerConfig parallel = continuous_config(/*max_sessions=*/6);
  parallel.scheduler.sweep_threads = 3;
  InferenceServer server(parallel);
  std::vector<std::future<ServeResponse>> futures;
  for (std::size_t i = 0; i < 6; ++i) {
    futures.push_back(server.submit(make_generation_request(5, i)));
  }
  for (std::size_t i = 0; i < 6; ++i) {
    const ServeResponse response = futures[i].get();
    EXPECT_TRUE(response.checksum_clean);
    EXPECT_EQ(response.tokens, golden[i]) << "session " << i;
  }
}

TEST(Scheduler, RoundRobinAdvancesBeyondTheBatchCap) {
  ServerConfig config = continuous_config(/*max_sessions=*/6);
  config.scheduler.max_batch_tokens = 2;
  InferenceServer server(config);
  std::vector<std::future<ServeResponse>> futures;
  for (std::size_t i = 0; i < 6; ++i) {
    futures.push_back(server.submit(make_generation_request(4, i)));
  }
  for (auto& future : futures) {
    EXPECT_EQ(future.get().tokens.size(), 4u);
  }
  const TelemetrySnapshot s = server.telemetry().snapshot();
  EXPECT_EQ(s.sessions_completed, 6u);
  // The cap bounds every tick's batch.
  EXPECT_LE(s.batch_occupancy(), 2.0);
}

TEST(Scheduler, ParkedSessionsActivateAndExcessIsShed) {
  ServerConfig config = continuous_config(/*max_sessions=*/1);
  config.queue_capacity = 2;  // parking FIFO bound.
  InferenceServer server(config);
  std::vector<std::future<ServeResponse>> futures;
  for (std::size_t i = 0; i < 5; ++i) {
    futures.push_back(server.submit(make_generation_request(3, i)));
  }
  std::size_t completed = 0;
  std::size_t shed = 0;
  for (auto& future : futures) {
    try {
      completed += future.get().tokens.size() == 3u;
    } catch (const EnsureError&) {
      ++shed;
    }
  }
  EXPECT_GE(completed, 3u);  // 1 active + 2 parked always finish.
  EXPECT_EQ(completed + shed, 5u);
  const TelemetrySnapshot s = server.telemetry().snapshot();
  EXPECT_EQ(s.sessions_completed, completed);
  EXPECT_EQ(s.rejected, shed);
  EXPECT_GE(s.sessions_parked, 2u);
}

TEST(SessionTableStarvation, FreshAdmissionCannotOvertakeParkedSessions) {
  SessionTable table(/*max_active=*/1, /*max_parked=*/4);
  const auto make_session = [](std::uint64_t id) {
    auto s = std::make_unique<GenerationSession>();
    s->id = id;
    return s;
  };
  SessionAdmission a = table.admit(make_session(1));
  ASSERT_NE(a.activated, nullptr);
  SessionAdmission b = table.admit(make_session(2));
  EXPECT_TRUE(b.parked);

  // The continuous scheduler frees slots without refilling them...
  std::unique_ptr<GenerationSession> released = table.release(a.activated->key);
  EXPECT_EQ(released->id, 1u);
  EXPECT_EQ(table.active(), 0u);
  EXPECT_EQ(table.parked(), 1u);

  // ...so a fresh admission now sees a free slot with session 2 still
  // parked. The starvation guard promotes the older session 2 and parks
  // the newcomer behind it.
  SessionAdmission c = table.admit(make_session(3));
  ASSERT_NE(c.activated, nullptr);
  EXPECT_EQ(c.activated->id, 2u);
  EXPECT_TRUE(c.parked);
  EXPECT_EQ(table.active(), 1u);
  EXPECT_EQ(table.parked(), 1u);

  // try_activate_parked drains the FIFO oldest-first once slots free up.
  released = table.release(c.activated->key);
  GenerationSession* promoted = table.try_activate_parked();
  ASSERT_NE(promoted, nullptr);
  EXPECT_EQ(promoted->id, 3u);
  EXPECT_EQ(table.try_activate_parked(), nullptr);  // slot now occupied.
}

}  // namespace
}  // namespace flashabft::serve
