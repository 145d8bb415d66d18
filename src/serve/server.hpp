// The fault-tolerant inference server core.
//
// Topology: producers -> bounded MPMC queue -> batch former -> worker pool.
// Each worker owns one accelerator instance (its "device"), a circuit
// breaker, and an optional standing defect plan (the test/bench model of a
// physically faulty unit). Every request executes under the unified
// GuardedOp regime (core/guarded_op.hpp):
//
//   * AttentionWork runs through the accelerator as a GuardedExecutor
//     work-list — run all heads, re-execute the alarming subset up to
//     RecoveryPolicy::max_retries times, serve survivors from the software
//     Alg. 3 reference kernel (whose own checksum verifies the fallback).
//     Escalations feed the worker's circuit breaker; once tripped, the
//     worker bypasses its accelerator entirely (with periodic half-open
//     probes) until a probe comes back clean.
//   * LayerWork runs the server's decoder layer forward, every checkable
//     op (Q/K/V/output projections, per-head attention, FFN products)
//     guarded individually; escalated ops fall back to a clean reference
//     execution. The software path does not touch the worker's device, so
//     layer escalations bypass the breaker.
//   * GenerationWork is a *session*: it bypasses the worker queue and is
//     admitted to the continuous-batching scheduler (scheduler.hpp), which
//     advances every running session one token per tick over the paged KV
//     pool. Concurrent sessions are bounded (SessionTable); excess
//     sessions wait in an admission FIFO. Every step's ops — including the
//     per-layer kKvPage verification, which restores a corrupted page or
//     page-table entry from its checkpoint — feed the same OpReport
//     telemetry; the response reports generated tokens, decode steps and
//     time-to-first-token.
//
// Every accepted output is checksum-verified on whichever path produced
// it, so a completed request is checksum-clean by construction unless a
// fallback itself failed verification (checksum_dirty counts those).
#pragma once

#include <cstdint>
#include <future>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "core/checker.hpp"
#include "core/guarded_op.hpp"
#include "model/decoder_layer.hpp"
#include "model/transformer_model.hpp"
#include "obs/hooks.hpp"
#include "serve/batch_former.hpp"
#include "serve/circuit_breaker.hpp"
#include "serve/request.hpp"
#include "serve/request_queue.hpp"
#include "serve/scheduler.hpp"
#include "serve/session.hpp"
#include "serve/telemetry.hpp"
#include "sim/accelerator.hpp"

namespace flashabft::serve {

struct ServerConfig {
  std::size_t num_workers = 2;
  std::size_t queue_capacity = 64;
  BatchFormerConfig batching{};
  /// Per-worker accelerator configuration; compare_granularity also selects
  /// the alarm granularity of the guarded path. Calibrate the detection
  /// thresholds (fault/calibrate.hpp) for the workload being served.
  AccelConfig accel{};
  RecoveryPolicy recovery{};
  /// Software-path comparator: verifies reference-fallback outputs and
  /// every op of a decoder-layer request.
  CheckerConfig software_checker{};
  /// Compute backend of the software guarded path (layer and generation
  /// requests, attention-head heads served in software). Reference
  /// fallbacks always run kScalar regardless — see GuardedExecutor::Options.
  /// Initialized from the process-wide default.
  ComputeBackend compute = default_backend();
  /// Optional NaN/Inf screen over every guarded output (closes the
  /// comparator's Silent-NaN blind spot for served traffic). Off by
  /// default to preserve the paper's comparator semantics.
  bool screen_extremes = false;
  ExtremeValueConfig screen{};
  /// Selective dual-modular execution of the checksum-free glue ops
  /// (LayerNorm/GELU) on layer and generation requests — see
  /// GuardedExecutor::Options::dmr_glue. Off by default (2x glue cost).
  bool dmr_glue = false;
  CircuitBreakerConfig breaker{};
  /// Shape of the decoder layer serving LayerWork requests; its weights
  /// are seeded once per server (constructed lazily on first layer
  /// request) and shared by all workers.
  DecoderLayerConfig layer{};
  std::uint64_t layer_seed = 2027;
  /// Shape of the autoregressive model serving GenerationWork sessions
  /// (also lazily constructed, shared by all workers).
  TransformerConfig model{};
  std::uint64_t model_seed = 2029;
  /// Bound on concurrently active generation sessions. Excess sessions
  /// wait in the session table's admission FIFO, itself bounded by
  /// `queue_capacity`; beyond that a generation request is load-shed (its
  /// future fails and a rejection is counted), so generation traffic
  /// cannot grow server state without bound.
  std::size_t max_sessions = 4;
  /// Continuous-batching knobs of the scheduler serving GenerationWork
  /// (AttentionWork and LayerWork always flow through the worker pool).
  SchedulerConfig scheduler{};
  /// Storage dtype of the software serving stack: the constructor copies it
  /// into `layer.dtype` / `model.dtype` (weights quantized before their
  /// checksums are cached, KV rows stored at dtype width) and the guarded
  /// executors judge with per-OpKind tolerances derived for it from the
  /// rounding-error-bound model (fault/calibrate.hpp). kF32 keeps the
  /// serving stack bit-identical to the pre-dtype behaviour.
  DType dtype = DType::kF32;
  /// Non-owning observability taps (obs/hooks.hpp): a trace collector and a
  /// flight recorder the caller owns, attached to every executor this
  /// server builds and to the continuous scheduler's own emit sites. Both
  /// null (off) by default; the per-OpKind timing profiler is NOT here — it
  /// lives in the server's telemetry and is always on.
  obs::TraceCollector* trace = nullptr;
  obs::FlightRecorder* flight = nullptr;
};

class InferenceServer {
 public:
  explicit InferenceServer(ServerConfig config);
  ~InferenceServer();

  InferenceServer(const InferenceServer&) = delete;
  InferenceServer& operator=(const InferenceServer&) = delete;

  /// Submits a request; blocks while the queue is full (backpressure).
  /// Throws EnsureError if the server has been shut down.
  [[nodiscard]] std::future<ServeResponse> submit(ServeRequest request);

  /// Load-shedding submit: never blocks; on kAccepted `out` holds the
  /// response future, otherwise the typed reject reason (queue full vs
  /// shut down) is returned and a rejection is counted.
  [[nodiscard]] SubmitResult try_submit(ServeRequest request,
                                        std::future<ServeResponse>& out);

  /// Closes admission, drains in-flight requests, joins workers.
  /// Idempotent; also called by the destructor.
  void shutdown();

  [[nodiscard]] const ServerConfig& config() const { return config_; }
  [[nodiscard]] const ServeTelemetry& telemetry() const { return telemetry_; }
  [[nodiscard]] std::size_t queue_depth() const { return queue_.size(); }

  /// The decoder layer LayerWork requests run through (lazily constructed;
  /// also the reference for golden-output tests).
  [[nodiscard]] const DecoderLayer& layer() const;

  /// The model GenerationWork sessions run through (lazily constructed;
  /// also the reference for golden-token tests).
  [[nodiscard]] const TransformerModel& model() const;

  /// The continuous-batching engine serving GenerationWork (lazily built
  /// with the shared model).
  [[nodiscard]] ContinuousScheduler& scheduler();

  // Generation-session observability.
  [[nodiscard]] std::size_t active_sessions() const {
    return sessions_.active();
  }
  [[nodiscard]] std::size_t peak_active_sessions() const {
    return sessions_.peak_active();
  }
  [[nodiscard]] std::size_t parked_sessions() const {
    return sessions_.parked();
  }

  /// Installs a standing fault plan on worker `worker_id`: it is applied
  /// (on top of each request's own plan) to every accelerator execution
  /// that worker performs — the model of a persistently defective device.
  /// Pass an empty plan to heal the worker.
  void set_worker_defect(std::size_t worker_id, FaultPlan defect);

  [[nodiscard]] bool worker_breaker_open(std::size_t worker_id) const;
  [[nodiscard]] std::size_t worker_breaker_trips(std::size_t worker_id) const;

 private:
  struct Pending {
    ServeRequest request;
    std::promise<ServeResponse> promise;
  };

  struct Worker {
    std::size_t id = 0;
    Accelerator accel;
    CircuitBreaker breaker;
    FaultPlan defect;                  ///< guarded by defect_mutex.
    mutable std::mutex defect_mutex;   ///< set_worker_defect vs. loop.
    mutable std::mutex breaker_mutex;  ///< external observers vs. loop.
    std::thread thread;

    Worker(std::size_t id_, const AccelConfig& accel_cfg,
           const CircuitBreakerConfig& breaker_cfg)
        : id(id_), accel(accel_cfg), breaker(breaker_cfg) {}
  };

  /// Validates payload shape at admission; assigns an id and stamps
  /// enqueue_time — shared by both submit paths so they behave identically.
  [[nodiscard]] Pending make_pending(ServeRequest request);

  /// The software-path executor (fallback verification, layer ops).
  [[nodiscard]] GuardedExecutor make_executor() const;
  [[nodiscard]] GuardedExecutor::Options executor_options() const;

  /// Builds the session object for a GenerationWork request.
  [[nodiscard]] static std::unique_ptr<GenerationSession> make_session(
      Pending pending);

  /// Generation admission: SessionTable admit + scheduler handoff (the
  /// starvation guard may promote an older parked session instead).
  void admit_continuous(Pending pending);

  void worker_loop(Worker& worker);
  [[nodiscard]] ServeResponse execute(Worker& worker, ServeRequest& request,
                                      std::size_t batch_size);
  void execute_attention(Worker& worker, const AttentionWork& work,
                         ServeResponse& response);
  void execute_layer(const LayerWork& work, ServeResponse& response);

  ServerConfig config_;
  BoundedMpmcQueue<Pending> queue_;
  ServeTelemetry telemetry_;
  obs::ObsHooks obs_;  ///< config taps + the telemetry profiler.
  SessionTable sessions_;
  std::vector<std::unique_ptr<Worker>> workers_;
  std::atomic<std::uint64_t> next_auto_id_{1};
  std::atomic<bool> shut_down_{false};
  mutable std::once_flag layer_once_;
  mutable std::unique_ptr<DecoderLayer> layer_;
  mutable std::once_flag model_once_;
  mutable std::unique_ptr<TransformerModel> model_;
  std::once_flag scheduler_once_;
  std::unique_ptr<ContinuousScheduler> scheduler_;
};

}  // namespace flashabft::serve
