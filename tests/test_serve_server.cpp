// End-to-end tests of the fault-tolerant inference server: guarded batched
// execution, transient-fault recovery, persistent-fault escalation to the
// reference fallback, circuit breaking, and the load-driver campaign whose
// telemetry must reconcile with the injected fault plan.
#include <gtest/gtest.h>

#include <future>
#include <vector>

#include "serve/load_driver.hpp"
#include "serve/server.hpp"
#include "sim/multi_head.hpp"
#include "workload/model_presets.hpp"
#include "workload/promptbench.hpp"

namespace flashabft::serve {
namespace {

constexpr std::size_t kSeqCap = 24;
constexpr std::size_t kLanes = 8;

ServerConfig small_server_config(std::size_t workers) {
  ServerConfig config = make_calibrated_server_config(
      preset_by_name("bert"), kLanes, kSeqCap, /*seed=*/5);
  config.num_workers = workers;
  config.queue_capacity = 32;
  config.batching.max_batch = 4;
  config.batching.batch_deadline = std::chrono::microseconds(100);
  return config;
}

ServeRequest make_request(std::size_t heads, std::uint64_t seed) {
  const ModelPreset& preset = preset_by_name("bert");
  const PromptCategory& category = prompt_suite().front();
  ServeRequest request;
  request.category = category.name;
  AttentionWork work;
  Rng rng(seed);
  for (std::size_t h = 0; h < heads; ++h) {
    work.heads.push_back(
        generate_category_inputs(category, preset, rng.next_u64(), kSeqCap));
  }
  request.work = std::move(work);
  return request;
}

AttentionWork& attention_work(ServeRequest& request) {
  return std::get<AttentionWork>(request.work);
}

// A mid-pass output-accumulator upset: large and reliably detected.
InjectedFault detectable_flip(const Accelerator& accel,
                              const AttentionInputs& head) {
  InjectedFault flip;
  flip.site = Site{SiteKind::kOutput, /*lane=*/0, /*element=*/0};
  flip.bit = 27;
  // Midway through the final pass: never a pass boundary (where the freshly
  // reset accumulator is 0.0 and a flip is a masked denormal).
  flip.cycle = cycles_per_head(accel, head) - head.seq_len() / 2;
  return flip;
}

// A stuck-at on the l register's top exponent bit: corrupts every pass of
// every execution it is applied to.
InjectedFault persistent_stuck(std::size_t layer_cycles) {
  InjectedFault stuck;
  stuck.site = Site{SiteKind::kSumExp, /*lane=*/0, /*element=*/0};
  stuck.bit = 30;
  stuck.type = FaultType::kStuckAt1;
  stuck.cycle = 0;
  stuck.duration = layer_cycles;
  return stuck;
}

TEST(InferenceServer, CleanTrafficCompletesOnTheGuardedPath) {
  InferenceServer server(small_server_config(/*workers=*/2));
  std::vector<std::future<ServeResponse>> futures;
  for (std::size_t i = 0; i < 8; ++i) {
    futures.push_back(server.submit(make_request(/*heads=*/2, 100 + i)));
  }
  for (auto& future : futures) {
    const ServeResponse response = future.get();
    EXPECT_EQ(response.path, ServePath::kGuardedClean);
    EXPECT_TRUE(response.checksum_clean);
    EXPECT_EQ(response.outputs.size(), 2u);
    EXPECT_EQ(response.counters.op_executions, 2u);
    EXPECT_EQ(response.counters.alarm_events, 0u);
    EXPECT_GE(response.batch_size, 1u);
    EXPECT_GE(response.total_us, response.service_us);
  }
  const TelemetrySnapshot s = server.telemetry().snapshot();
  EXPECT_EQ(s.submitted, 8u);
  EXPECT_EQ(s.completed, 8u);
  EXPECT_EQ(s.clean_first_try, 8u);
  EXPECT_EQ(s.checksum_clean, 8u);
  EXPECT_GE(s.batches, 2u);  // 8 requests, batches capped at 4.
}

TEST(InferenceServer, TransientFaultRecoversWithGoldenOutput) {
  ServerConfig config = small_server_config(/*workers=*/1);
  InferenceServer server(config);
  const Accelerator accel(config.accel);

  ServeRequest request = make_request(/*heads=*/2, 200);
  attention_work(request).faults = {
      detectable_flip(accel, attention_work(request).heads.front())};
  // Golden: what the fault-free accelerator produces for each head.
  std::vector<MatrixD> golden;
  for (const AttentionInputs& head : attention_work(request).heads) {
    golden.push_back(accel.run(head.q, head.k, head.v).output);
  }

  const ServeResponse response =
      server.submit(std::move(request)).get();
  EXPECT_EQ(response.path, ServePath::kGuardedRecovered);
  EXPECT_TRUE(response.checksum_clean);
  EXPECT_GE(response.counters.alarm_events, 1u);
  EXPECT_EQ(response.counters.op_executions, 3u);  // 2 heads + 1 re-execution.
  // Fault-free re-execution is bit-identical to the golden run.
  ASSERT_EQ(response.outputs.size(), golden.size());
  for (std::size_t h = 0; h < golden.size(); ++h) {
    EXPECT_EQ(response.outputs[h], golden[h]) << "head " << h;
  }
  const TelemetrySnapshot s = server.telemetry().snapshot();
  EXPECT_EQ(s.recovered, 1u);
  EXPECT_EQ(s.escalations, 0u);
}

TEST(InferenceServer, PersistentFaultEscalatesToVerifiedFallback) {
  ServerConfig config = small_server_config(/*workers=*/1);
  config.recovery.max_retries = 2;
  InferenceServer server(config);
  const Accelerator accel(config.accel);

  ServeRequest request = make_request(/*heads=*/2, 300);
  const std::size_t layer_cycles =
      2 * cycles_per_head(accel, attention_work(request).heads.front());
  attention_work(request).faults = {persistent_stuck(layer_cycles)};
  attention_work(request).faults_persistent = true;

  const ServeResponse response =
      server.submit(std::move(request)).get();
  EXPECT_EQ(response.path, ServePath::kFallbackReference);
  EXPECT_TRUE(response.checksum_clean);
  EXPECT_GE(response.counters.fallback_ops, 1u);
  // initial 2 heads + max_retries re-executions of each alarming head.
  EXPECT_GT(response.counters.op_executions, 2u);

  const TelemetrySnapshot s = server.telemetry().snapshot();
  EXPECT_EQ(s.escalations, 1u);
  EXPECT_EQ(s.fallback, 1u);
  EXPECT_EQ(s.checksum_clean, 1u);
}

TEST(InferenceServer, DefectiveWorkerTripsBreakerThenHeals) {
  ServerConfig config = small_server_config(/*workers=*/1);
  config.recovery.max_retries = 1;
  config.breaker.window = 8;
  config.breaker.trip_threshold = 2;
  config.breaker.probe_interval = 3;
  InferenceServer server(config);
  const Accelerator accel(config.accel);

  ServeRequest probe_shape = make_request(/*heads=*/1, 400);
  const std::size_t layer_cycles =
      cycles_per_head(accel, attention_work(probe_shape).heads.front());
  server.set_worker_defect(0, {persistent_stuck(layer_cycles)});

  // Two escalations trip the breaker; later requests bypass the defective
  // accelerator and are served (checksum-clean) by the reference kernel.
  for (std::size_t i = 0; i < 5; ++i) {
    const ServeResponse response =
        server.submit(make_request(/*heads=*/1, 500 + i)).get();
    EXPECT_EQ(response.path, ServePath::kFallbackReference) << i;
    EXPECT_TRUE(response.checksum_clean) << i;
  }
  EXPECT_TRUE(server.worker_breaker_open(0));
  EXPECT_EQ(server.worker_breaker_trips(0), 1u);
  TelemetrySnapshot s = server.telemetry().snapshot();
  EXPECT_EQ(s.breaker_trips, 1u);
  EXPECT_GE(s.breaker_bypasses, 1u);
  EXPECT_EQ(s.checksum_clean, 5u);

  // Heal the device: the next probe turn goes through the accelerator,
  // comes back clean, and closes the breaker.
  server.set_worker_defect(0, {});
  bool closed = false;
  for (std::size_t i = 0; i < 6 && !closed; ++i) {
    const ServeResponse response =
        server.submit(make_request(/*heads=*/1, 600 + i)).get();
    EXPECT_TRUE(response.checksum_clean);
    closed = !server.worker_breaker_open(0);
  }
  EXPECT_TRUE(closed);
}

TEST(InferenceServer, SubmitValidatesAndShutdownRejects) {
  InferenceServer server(small_server_config(/*workers=*/1));
  EXPECT_THROW((void)server.submit(ServeRequest{}), EnsureError);

  std::future<ServeResponse> future;
  EXPECT_EQ(server.try_submit(make_request(1, 700), future),
            SubmitResult::kAccepted);
  EXPECT_TRUE(future.get().checksum_clean);

  server.shutdown();
  EXPECT_THROW((void)server.submit(make_request(1, 701)), EnsureError);
  EXPECT_EQ(server.try_submit(make_request(1, 702), future),
            SubmitResult::kShutDown);
  const TelemetrySnapshot s = server.telemetry().snapshot();
  EXPECT_EQ(s.rejected, 1u);
}

TEST(InferenceServer, TrySubmitShedsWithTypedReasonWhenQueueFull) {
  ServerConfig config = small_server_config(/*workers=*/1);
  config.queue_capacity = 2;
  InferenceServer server(config);
  // The producer outruns one worker by orders of magnitude, so a tight
  // admission loop must hit the capacity-2 queue and observe kQueueFull
  // (distinguished from kShutDown by the typed result).
  std::vector<std::future<ServeResponse>> accepted;
  bool shed = false;
  for (std::size_t i = 0; i < 500 && !shed; ++i) {
    std::future<ServeResponse> future;
    const SubmitResult result =
        server.try_submit(make_request(1, 900 + i), future);
    if (result == SubmitResult::kAccepted) {
      accepted.push_back(std::move(future));
    } else {
      EXPECT_EQ(result, SubmitResult::kQueueFull);
      shed = true;
    }
  }
  EXPECT_TRUE(shed);
  for (auto& future : accepted) EXPECT_TRUE(future.get().checksum_clean);
  EXPECT_GE(server.telemetry().snapshot().rejected, 1u);
}

TEST(InferenceServer, MalformedRequestFailsItsFutureNotTheServer) {
  InferenceServer server(small_server_config(/*workers=*/1));
  // Head shape that doesn't match the accelerator (head_dim 16 != 64):
  // the worker's execution throws; the error must surface through this
  // request's future while the server keeps serving.
  ServeRequest bad;
  AttentionWork bad_work;
  Rng rng(800);
  bad_work.heads.push_back(generate_gaussian(8, 16, rng));
  bad.work = std::move(bad_work);
  auto bad_future = server.submit(std::move(bad));
  EXPECT_THROW((void)bad_future.get(), EnsureError);

  const ServeResponse after = server.submit(make_request(1, 801)).get();
  EXPECT_TRUE(after.checksum_clean);
  EXPECT_EQ(after.path, ServePath::kGuardedClean);
}

TEST(LoadDriver, FaultFreeCampaignIsAllClean) {
  InferenceServer server(small_server_config(/*workers=*/2));
  LoadDriverConfig load;
  load.total_requests = 16;
  load.concurrency = 4;
  load.heads_per_request = 2;
  load.seq_len_cap = kSeqCap;
  load.seed = 11;
  const LoadReport report = run_load(server, load);
  EXPECT_EQ(report.completed, 16u);
  EXPECT_EQ(report.guarded_clean, 16u);
  EXPECT_EQ(report.clean_responses, 16u);
  EXPECT_EQ(report.transient_injected + report.persistent_injected, 0u);
  EXPECT_GT(report.throughput_rps, 0.0);
  EXPECT_EQ(report.telemetry.completed, 16u);
}

TEST(LoadDriver, InjectedCampaignReconcilesWithTelemetry) {
  InferenceServer server(small_server_config(/*workers=*/2));
  LoadDriverConfig load;
  load.total_requests = 24;
  load.concurrency = 4;
  load.heads_per_request = 2;
  load.seq_len_cap = kSeqCap;
  load.seed = 13;
  load.inject.fault_probability = 0.6;
  load.inject.persistent_fraction = 0.25;
  const LoadReport report = run_load(server, load);

  EXPECT_EQ(report.completed, 24u);
  // The headline guarantee: every completed request is checksum-clean,
  // whether untouched, recovered, or served by the verified fallback.
  EXPECT_EQ(report.clean_responses, 24u);
  EXPECT_EQ(report.telemetry.checksum_dirty, 0u);

  // Reconciliation with the fault plan: the campaign injected faults into
  // some requests (seeded, so deterministically > 0), and every non-clean
  // path traces back to an injected plan.
  const std::size_t injected =
      report.transient_injected + report.persistent_injected;
  EXPECT_GT(injected, 0u);
  // Breaker bypasses route fault-free requests to the fallback path too.
  EXPECT_LE(report.recovered + report.fallback,
            injected + report.telemetry.breaker_bypasses);
  EXPECT_EQ(report.guarded_clean + report.recovered + report.fallback,
            report.completed);
  // Escalations can only come from persistent plans (transient upsets
  // recover on fault-free re-execution).
  EXPECT_LE(report.telemetry.escalations, report.persistent_injected);
  EXPECT_EQ(report.telemetry.completed, 24u);
  EXPECT_EQ(report.telemetry.checksum_clean, 24u);
}

TEST(LoadDriver, DrawFaultPlanStaysInBounds) {
  const ServerConfig config = small_server_config(1);
  const SiteMap map(config.accel, SiteMask::datapath_only());
  Rng rng(17);
  for (int i = 0; i < 200; ++i) {
    const bool persistent = i % 3 == 0;
    const FaultPlan plan = draw_fault_plan(map, /*total_cycles=*/96,
                                           persistent, rng);
    ASSERT_EQ(plan.size(), 1u);
    const InjectedFault& fault = plan.front();
    EXPECT_LT(fault.cycle, 96u);
    EXPECT_FALSE(is_checker_site(fault.site.kind));
    if (persistent) {
      EXPECT_NE(fault.type, FaultType::kBitFlip);
      EXPECT_EQ(fault.cycle + fault.duration, 96u);
    } else {
      EXPECT_EQ(fault.type, FaultType::kBitFlip);
    }
  }
}

}  // namespace
}  // namespace flashabft::serve
