// End-to-end tests of generation sessions through the inference server:
// the GenerationWork variant, bounded concurrent sessions with parking,
// the corrupted-KV rescue, admission validation, mixed traffic sharing one
// telemetry stream, and the generate-mode load driver.
#include <gtest/gtest.h>

#include <future>
#include <utility>
#include <vector>

#include "serve/load_driver.hpp"
#include "serve/server.hpp"
#include "serve/session.hpp"
#include "tensor/tensor_ops.hpp"

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

ServerConfig generation_server_config(std::size_t workers) {
  ServerConfig config;
  config.num_workers = workers;
  config.queue_capacity = 32;
  config.batching.max_batch = 4;
  config.batching.batch_deadline = std::chrono::microseconds(100);
  config.model = small_model();
  config.software_checker = CheckerConfig{1e-6};
  config.max_sessions = 4;
  return config;
}

std::vector<std::size_t> test_prompt() { return {5, 40, 2, 19, 33, 8}; }

ServeRequest make_generation_request(std::size_t max_new_tokens = 4) {
  ServeRequest request;
  request.category = "generation";
  GenerationWork work;
  work.prompt = test_prompt();
  work.max_new_tokens = max_new_tokens;
  request.work = std::move(work);
  return request;
}

TEST(ServeGenerate, KvCorruptionIsRescuedEndToEnd) {
  InferenceServer server(generation_server_config(/*workers=*/2));
  const ServeResponse golden =
      server.submit(make_generation_request(5)).get();

  ServeRequest corrupted = make_generation_request(5);
  KvCorruption upset;
  upset.step = 2;
  upset.layer = 1;
  upset.row = 3;
  upset.col = 11;
  upset.delta = 1.5;
  std::get<GenerationWork>(corrupted.work).kv_corruptions = {upset};
  const ServeResponse rescued = server.submit(std::move(corrupted)).get();

  EXPECT_EQ(rescued.path, ServePath::kGuardedRecovered);
  EXPECT_TRUE(rescued.checksum_clean);
  EXPECT_EQ(rescued.counters.alarm_events, 1u);
  EXPECT_EQ(rescued.counters.fallback_ops, 0u);
  // Identical tokens to the uncorrupted session: the page was restored
  // from its checkpoint before the read.
  EXPECT_EQ(rescued.tokens, golden.tokens);

  const TelemetrySnapshot s = server.telemetry().snapshot();
  const OpKindStats& kv = s.per_kind[std::size_t(OpKind::kKvPage)];
  EXPECT_EQ(kv.alarms, 1u);
  EXPECT_EQ(kv.recovered, 1u);
  EXPECT_EQ(kv.escalated, 0u);
  EXPECT_EQ(s.recovered, 1u);
  EXPECT_EQ(s.checksum_dirty, 0u);
}

TEST(ServeGenerate, ValueSideCorruptionAlsoRecovers) {
  InferenceServer server(generation_server_config(/*workers=*/1));
  ServeRequest corrupted = make_generation_request(3);
  KvCorruption upset;
  upset.step = 1;
  upset.layer = 0;
  upset.row = 1;
  upset.col = 2;
  upset.delta = -0.75;
  upset.value_side = true;
  std::get<GenerationWork>(corrupted.work).kv_corruptions = {upset};
  const ServeResponse response = server.submit(std::move(corrupted)).get();
  EXPECT_EQ(response.path, ServePath::kGuardedRecovered);
  EXPECT_TRUE(response.checksum_clean);
}

TEST(ServeGenerate, ConcurrentSessionsAreBoundedAndAllComplete) {
  ServerConfig config = generation_server_config(/*workers=*/2);
  config.max_sessions = 1;
  InferenceServer server(config);

  std::vector<std::future<ServeResponse>> futures;
  for (std::size_t i = 0; i < 5; ++i) {
    futures.push_back(server.submit(make_generation_request(3)));
  }
  for (auto& future : futures) {
    const ServeResponse response = future.get();
    EXPECT_TRUE(response.checksum_clean);
    EXPECT_EQ(response.tokens.size(), 3u);
  }
  EXPECT_EQ(server.peak_active_sessions(), 1u);
  EXPECT_EQ(server.active_sessions(), 0u);
  EXPECT_EQ(server.parked_sessions(), 0u);

  const TelemetrySnapshot s = server.telemetry().snapshot();
  EXPECT_EQ(s.sessions_completed, 5u);
  EXPECT_EQ(s.sessions_started, 5u);
  EXPECT_GE(s.sessions_parked, 1u);
  EXPECT_EQ(s.tokens_generated, 15u);
}

TEST(ServeGenerate, DuplicateRequestIdsDoNotCollideInTheSessionTable) {
  // Sessions are addressed by a server-internal key, so client-chosen
  // (even duplicate) request ids must both complete.
  InferenceServer server(generation_server_config(/*workers=*/2));
  ServeRequest first = make_generation_request(3);
  ServeRequest second = make_generation_request(3);
  first.id = 77;
  second.id = 77;
  auto f1 = server.submit(std::move(first));
  auto f2 = server.submit(std::move(second));
  const ServeResponse r1 = f1.get();
  const ServeResponse r2 = f2.get();
  EXPECT_EQ(r1.id, 77u);
  EXPECT_EQ(r2.id, 77u);
  EXPECT_TRUE(r1.checksum_clean);
  EXPECT_TRUE(r2.checksum_clean);
  EXPECT_EQ(r1.tokens, r2.tokens);
}

TEST(SessionTableUnit, ActivateParkThenShed) {
  SessionTable table(/*max_active=*/1, /*max_parked=*/1);
  const auto make_session = [](std::uint64_t id) {
    auto s = std::make_unique<GenerationSession>();
    s->id = id;
    return s;
  };
  SessionAdmission a = table.admit(make_session(1));
  ASSERT_NE(a.activated, nullptr);
  EXPECT_FALSE(a.parked);
  EXPECT_EQ(a.shed, nullptr);
  SessionAdmission b = table.admit(make_session(2));
  EXPECT_TRUE(b.parked);
  EXPECT_EQ(b.activated, nullptr);
  SessionAdmission c = table.admit(make_session(3));
  ASSERT_NE(c.shed, nullptr);  // FIFO full: handed back for shedding.
  EXPECT_EQ(c.shed->id, 3u);
  EXPECT_EQ(table.active(), 1u);
  EXPECT_EQ(table.parked(), 1u);

  // Releasing the active session frees its slot for the parked one.
  const std::unique_ptr<GenerationSession> finished =
      table.release(a.activated->key);
  EXPECT_EQ(finished->id, 1u);
  GenerationSession* next = table.try_activate_parked();
  ASSERT_NE(next, nullptr);
  EXPECT_EQ(next->id, 2u);
  EXPECT_EQ(table.active(), 1u);
  EXPECT_EQ(table.parked(), 0u);
}

TEST(ServeGenerate, MalformedGenerationRequestThrowsAtAdmission) {
  InferenceServer server(generation_server_config(/*workers=*/1));
  {
    ServeRequest bad;
    bad.work = GenerationWork{};  // empty prompt.
    EXPECT_THROW((void)server.submit(std::move(bad)), EnsureError);
  }
  {
    ServeRequest bad;
    GenerationWork work;
    work.prompt = {1, 2, 3};
    work.max_new_tokens = small_model().max_seq_len;  // won't fit.
    bad.work = std::move(work);
    EXPECT_THROW((void)server.submit(std::move(bad)), EnsureError);
  }
  // A well-formed session still completes afterwards.
  EXPECT_TRUE(server.submit(make_generation_request(2)).get().checksum_clean);
}

TEST(ServeGenerate, MixedTrafficSharesOneTelemetryStream) {
  ServerConfig config = generation_server_config(/*workers=*/2);
  config.layer.model_dim = 32;
  config.layer.num_heads = 2;
  config.layer.head_dim = 16;
  config.layer.ffn_dim = 64;
  InferenceServer server(config);

  std::vector<std::future<ServeResponse>> futures;
  for (std::size_t i = 0; i < 3; ++i) {
    futures.push_back(server.submit(make_generation_request(3)));
    ServeRequest layer_request;
    LayerWork work;
    Rng rng(700 + i);
    work.x = MatrixD(6, 32);
    fill_gaussian(work.x, rng);
    work.memory = MatrixD(4, 32);
    fill_gaussian(work.memory, rng);
    layer_request.work = std::move(work);
    futures.push_back(server.submit(std::move(layer_request)));
  }
  for (auto& future : futures) {
    EXPECT_TRUE(future.get().checksum_clean);
  }
  const TelemetrySnapshot s = server.telemetry().snapshot();
  EXPECT_EQ(s.completed, 6u);
  EXPECT_EQ(s.sessions_completed, 3u);
  EXPECT_EQ(s.checksum_clean, 6u);
}

TEST(ServeGenerate, GenerateModeLoadDriverReconciles) {
  ServerConfig config = generation_server_config(/*workers=*/2);
  InferenceServer server(config);
  LoadDriverConfig load;
  load.mode = RequestMode::kGeneration;
  load.total_requests = 10;
  load.concurrency = 6;
  load.prompt_len = 8;
  load.max_new_tokens = 4;
  load.seed = 23;
  load.inject.fault_probability = 0.5;
  load.inject.persistent_fraction = 0.25;
  load.inject.kv_corruption_fraction = 0.5;
  const LoadReport report = run_load(server, load);

  EXPECT_EQ(report.completed, 10u);
  EXPECT_EQ(report.clean_responses, 10u);
  EXPECT_EQ(report.tokens_generated, 10u * 4u);
  EXPECT_EQ(report.guarded_clean + report.recovered + report.fallback,
            report.completed);
  const std::size_t injected =
      report.transient_injected + report.persistent_injected;
  EXPECT_GT(injected, 0u);
  EXPECT_LE(report.recovered + report.fallback, injected);
  EXPECT_EQ(report.telemetry.checksum_dirty, 0u);
  EXPECT_EQ(report.telemetry.tokens_generated, 40u);
  EXPECT_GT(report.telemetry.scheduler_ticks, 0u);
  EXPECT_GT(report.tokens_per_second, 0.0);
}

}  // namespace
}  // namespace flashabft::serve
