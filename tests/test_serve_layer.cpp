// End-to-end tests of decoder-layer requests through the inference server:
// the LayerWork variant, per-op-kind OpReport telemetry, emulated transient
// and persistent faults (recovery and reference fallback), typed admission
// results, and the layer-mode load driver.
#include <gtest/gtest.h>

#include <future>
#include <utility>
#include <vector>

#include "serve/load_driver.hpp"
#include "serve/server.hpp"
#include "tensor/tensor_ops.hpp"
#include "workload/generator.hpp"

namespace flashabft::serve {
namespace {

constexpr std::size_t kSeq = 10;
constexpr std::size_t kMem = 6;

DecoderLayerConfig small_layer() {
  DecoderLayerConfig layer;
  layer.model_dim = 32;
  layer.num_heads = 2;
  layer.head_dim = 16;
  layer.ffn_dim = 64;
  return layer;
}

ServerConfig layer_server_config(std::size_t workers) {
  ServerConfig config;
  config.num_workers = workers;
  config.queue_capacity = 32;
  config.batching.max_batch = 4;
  config.batching.batch_deadline = std::chrono::microseconds(100);
  config.layer = small_layer();
  config.software_checker = CheckerConfig{1e-6};
  return config;
}

ServeRequest make_layer_request(std::uint64_t seed) {
  const DecoderLayerConfig layer = small_layer();
  ServeRequest request;
  LayerWork work;
  Rng rng(seed);
  work.x = MatrixD(kSeq, layer.model_dim);
  fill_gaussian(work.x, rng);
  work.memory = MatrixD(kMem, layer.model_dim);
  fill_gaussian(work.memory, rng);
  request.work = std::move(work);
  return request;
}

// Ops of the small layer: 2*2 attention heads + 8 projections + 2 FFN.
constexpr std::size_t kAttentionOps = 4;
constexpr std::size_t kProjectionOps = 8;
constexpr std::size_t kFfnOps = 2;
constexpr std::size_t kTotalOps = kAttentionOps + kProjectionOps + kFfnOps;

std::size_t count_kind(const ServeResponse& response, OpKind kind) {
  std::size_t total = 0;
  for (const OpReport& r : response.reports) total += (r.kind == kind);
  return total;
}

TEST(ServeLayer, CleanLayerRequestCompletesWithFullOpCensus) {
  InferenceServer server(layer_server_config(/*workers=*/2));
  std::vector<std::future<ServeResponse>> futures;
  for (std::size_t i = 0; i < 6; ++i) {
    futures.push_back(server.submit(make_layer_request(100 + i)));
  }
  for (auto& future : futures) {
    const ServeResponse response = future.get();
    EXPECT_EQ(response.path, ServePath::kGuardedClean);
    EXPECT_TRUE(response.checksum_clean);
    ASSERT_EQ(response.outputs.size(), 1u);
    EXPECT_EQ(response.outputs[0].rows(), kSeq);
    EXPECT_EQ(response.outputs[0].cols(), small_layer().model_dim);
    EXPECT_EQ(response.reports.size(), kTotalOps);
    EXPECT_EQ(count_kind(response, OpKind::kAttentionFlashAbft),
              kAttentionOps);
    EXPECT_EQ(count_kind(response, OpKind::kProjection), kProjectionOps);
    EXPECT_EQ(count_kind(response, OpKind::kFfn), kFfnOps);
    EXPECT_EQ(response.counters.op_executions, kTotalOps);
    EXPECT_EQ(response.counters.alarm_events, 0u);
  }
  const TelemetrySnapshot s = server.telemetry().snapshot();
  EXPECT_EQ(s.completed, 6u);
  EXPECT_EQ(s.clean_first_try, 6u);
  EXPECT_EQ(s.per_kind[std::size_t(OpKind::kAttentionFlashAbft)].checks,
            6u * kAttentionOps);
  EXPECT_EQ(s.per_kind[std::size_t(OpKind::kProjection)].checks,
            6u * kProjectionOps);
  EXPECT_EQ(s.per_kind[std::size_t(OpKind::kFfn)].checks, 6u * kFfnOps);
}

TEST(ServeLayer, LayerOutputMatchesDirectForward) {
  ServerConfig config = layer_server_config(/*workers=*/1);
  InferenceServer server(config);
  ServeRequest request = make_layer_request(200);
  const LayerWork work = std::get<LayerWork>(request.work);  // copy first.

  const ServeResponse response = server.submit(std::move(request)).get();
  const GuardedExecutor exec(config.software_checker, config.recovery);
  const DecoderLayerResult golden = server.layer().forward(
      work.x, work.memory, AttentionBackend::kFlashAbft, exec);
  ASSERT_EQ(response.outputs.size(), 1u);
  EXPECT_EQ(response.outputs[0], golden.output);
}

TEST(ServeLayer, TransientLayerFaultRecoversInPlace) {
  InferenceServer server(layer_server_config(/*workers=*/1));
  ServeRequest request = make_layer_request(300);
  LayerFault fault;
  fault.kind = OpKind::kAttentionFlashAbft;
  fault.op_index = 2;  // first cross-attention head.
  fault.faulty_attempts = 1;
  std::get<LayerWork>(request.work).faults = {fault};

  const ServeResponse response = server.submit(std::move(request)).get();
  EXPECT_EQ(response.path, ServePath::kGuardedRecovered);
  EXPECT_TRUE(response.checksum_clean);
  EXPECT_EQ(response.counters.alarm_events, 1u);
  EXPECT_EQ(response.counters.op_executions, kTotalOps + 1);  // one retry.
  EXPECT_EQ(response.counters.fallback_ops, 0u);

  const TelemetrySnapshot s = server.telemetry().snapshot();
  const OpKindStats& attention =
      s.per_kind[std::size_t(OpKind::kAttentionFlashAbft)];
  EXPECT_EQ(attention.alarms, 1u);
  EXPECT_EQ(attention.recovered, 1u);
  EXPECT_EQ(attention.escalated, 0u);
  EXPECT_EQ(s.recovered, 1u);
}

TEST(ServeLayer, PersistentProjectionFaultFallsBackVerified) {
  ServerConfig config = layer_server_config(/*workers=*/1);
  config.recovery.max_retries = 1;
  InferenceServer server(config);
  ServeRequest request = make_layer_request(400);
  LayerFault fault;
  fault.kind = OpKind::kProjection;
  fault.op_index = 5;  // cross-attention K projection.
  fault.faulty_attempts = config.recovery.max_retries + 1;
  std::get<LayerWork>(request.work).faults = {fault};

  const ServeResponse response = server.submit(std::move(request)).get();
  EXPECT_EQ(response.path, ServePath::kFallbackReference);
  EXPECT_TRUE(response.checksum_clean);  // fallback verified clean.
  EXPECT_EQ(response.counters.fallback_ops, 1u);
  EXPECT_EQ(response.counters.alarm_events, 2u);  // both attempts alarmed.
  // The escalated projection + its fallback both appear in the stream.
  EXPECT_EQ(response.reports.size(), kTotalOps + 1);

  const TelemetrySnapshot s = server.telemetry().snapshot();
  const OpKindStats& projection =
      s.per_kind[std::size_t(OpKind::kProjection)];
  EXPECT_EQ(projection.escalated, 1u);
  EXPECT_EQ(projection.recovered, 0u);
  EXPECT_EQ(s.per_kind[std::size_t(OpKind::kReferenceFallback)].checks, 1u);
  EXPECT_EQ(s.fallback, 1u);
  EXPECT_EQ(s.escalations, 1u);  // layer escalations hit the headline too.
  EXPECT_EQ(s.checksum_dirty, 0u);
}

TEST(ServeLayer, MixedAttentionAndLayerTraffic) {
  // Attention-head and decoder-layer requests interleave through one
  // server; both account into the same unified telemetry.
  ServerConfig config = make_calibrated_server_config(
      preset_by_name("bert"), /*lanes=*/8, /*seq_len_cap=*/16, /*seed=*/5);
  config.num_workers = 2;
  config.layer = small_layer();
  InferenceServer server(config);

  std::vector<std::future<ServeResponse>> futures;
  for (std::size_t i = 0; i < 4; ++i) {
    futures.push_back(server.submit(make_layer_request(500 + i)));
    ServeRequest attention;
    AttentionWork work;
    Rng rng(600 + i);
    work.heads.push_back(generate_gaussian(16, 64, rng));
    attention.work = std::move(work);
    futures.push_back(server.submit(std::move(attention)));
  }
  for (auto& future : futures) {
    EXPECT_TRUE(future.get().checksum_clean);
  }
  const TelemetrySnapshot s = server.telemetry().snapshot();
  EXPECT_EQ(s.completed, 8u);
  EXPECT_EQ(s.checksum_clean, 8u);
  // 4 accel heads + 4 layers x 4 software heads.
  EXPECT_EQ(s.per_kind[std::size_t(OpKind::kAttentionFlashAbft)].checks,
            4u + 4u * kAttentionOps);
  EXPECT_EQ(s.per_kind[std::size_t(OpKind::kProjection)].checks,
            4u * kProjectionOps);
}

TEST(ServeLayer, MalformedLayerRequestThrowsAtAdmission) {
  InferenceServer server(layer_server_config(/*workers=*/1));
  ServeRequest bad;
  LayerWork work;
  work.x = MatrixD(4, 16);  // wrong model_dim (16 != 32).
  work.memory = MatrixD(4, 32);
  bad.work = std::move(work);
  EXPECT_THROW((void)server.submit(std::move(bad)), EnsureError);

  // A well-formed request still completes afterwards.
  EXPECT_TRUE(server.submit(make_layer_request(700)).get().checksum_clean);
}

TEST(ServeLayer, LayerModeLoadDriverReconciles) {
  ServerConfig config = layer_server_config(/*workers=*/2);
  InferenceServer server(config);
  LoadDriverConfig load;
  load.mode = RequestMode::kDecoderLayer;
  load.total_requests = 12;
  load.concurrency = 4;
  load.seq_len_cap = kSeq;
  load.memory_len = kMem;
  load.seed = 17;
  load.inject.fault_probability = 0.5;
  load.inject.persistent_fraction = 0.25;
  const LoadReport report = run_load(server, load);

  EXPECT_EQ(report.completed, 12u);
  // The headline guarantee carries over to layer serving: every completed
  // request is checksum-clean (recovered in place or fallback-verified).
  EXPECT_EQ(report.clean_responses, 12u);
  EXPECT_EQ(report.guarded_clean + report.recovered + report.fallback,
            report.completed);
  const std::size_t injected =
      report.transient_injected + report.persistent_injected;
  EXPECT_GT(injected, 0u);
  EXPECT_EQ(report.recovered + report.fallback, injected);
  EXPECT_EQ(report.telemetry.checksum_dirty, 0u);
  EXPECT_EQ(report.telemetry.per_kind[std::size_t(OpKind::kFfn)].checks,
            12u * kFfnOps);
}

}  // namespace
}  // namespace flashabft::serve
