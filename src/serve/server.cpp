#include "serve/server.hpp"

#include <utility>

#include "attention/attention_config.hpp"
#include "common/ensure.hpp"
#include "core/flash_abft.hpp"
#include "fault/calibrate.hpp"
#include "obs/flight_recorder.hpp"
#include "sim/multi_head.hpp"

namespace flashabft::serve {

namespace {

double to_us(Clock::duration d) {
  return std::chrono::duration<double, std::micro>(d).count();
}

void append_plan(FaultPlan& plan, const FaultPlan& extra) {
  plan.insert(plan.end(), extra.begin(), extra.end());
}

}  // namespace

const char* serve_path_name(ServePath path) {
  switch (path) {
    case ServePath::kGuardedClean: return "guarded_clean";
    case ServePath::kGuardedRecovered: return "guarded_recovered";
    case ServePath::kFallbackReference: return "fallback_reference";
  }
  return "unknown";
}

const char* submit_result_name(SubmitResult result) {
  switch (result) {
    case SubmitResult::kAccepted: return "accepted";
    case SubmitResult::kQueueFull: return "queue_full";
    case SubmitResult::kShutDown: return "shut_down";
  }
  return "unknown";
}

InferenceServer::InferenceServer(ServerConfig config)
    : config_(config),
      queue_(config.queue_capacity),
      sessions_(config.max_sessions, config.queue_capacity) {
  FLASHABFT_ENSURE_MSG(config_.num_workers > 0,
                       "server needs at least one worker");
  FLASHABFT_ENSURE_MSG(config_.batching.max_batch > 0,
                       "max_batch must be positive");
  // One dtype knob governs the whole software stack: the lazily-built
  // layer/model quantize their weights at construction and the executors
  // (executor_options below) judge with matching derived tolerances.
  config_.layer.dtype = config_.dtype;
  config_.model.dtype = config_.dtype;
  telemetry_.set_compute(config_.compute);
  // Every executor this server builds and the scheduler share one hook
  // set: the caller's trace/flight taps plus the telemetry's always-on
  // guard-phase profiler.
  obs_ = {config_.trace, config_.flight, telemetry_.op_profiler()};
  workers_.reserve(config_.num_workers);
  for (std::size_t w = 0; w < config_.num_workers; ++w) {
    workers_.push_back(
        std::make_unique<Worker>(w, config_.accel, config_.breaker));
  }
  // Threads start only after every Worker exists: worker_loop never sees a
  // half-built pool.
  for (auto& worker : workers_) {
    worker->thread = std::thread([this, &worker] { worker_loop(*worker); });
  }
}

InferenceServer::~InferenceServer() { shutdown(); }

void InferenceServer::shutdown() {
  shut_down_.store(true, std::memory_order_release);
  queue_.close();
  for (auto& worker : workers_) {
    if (worker->thread.joinable()) worker->thread.join();
  }
  // After the workers: the scheduler drains every admitted session itself.
  // The no-op call_once claims the flag if no session ever arrived, so a
  // submit racing this shutdown cannot construct a scheduler afterwards
  // (it observes the claimed flag and fails like a closed-queue submit).
  std::call_once(scheduler_once_, [] {});
  if (scheduler_ != nullptr) scheduler_->shutdown();
}

const DecoderLayer& InferenceServer::layer() const {
  std::call_once(layer_once_, [this] {
    Rng rng(config_.layer_seed);
    layer_ = std::make_unique<DecoderLayer>(config_.layer, rng);
  });
  return *layer_;
}

const TransformerModel& InferenceServer::model() const {
  std::call_once(model_once_, [this] {
    model_ =
        std::make_unique<TransformerModel>(config_.model, config_.model_seed);
  });
  return *model_;
}

ContinuousScheduler& InferenceServer::scheduler() {
  std::call_once(scheduler_once_, [this] {
    SchedulerConfig cfg = config_.scheduler;
    // The worker pool's thread budget, capped at what the machine can
    // actually run in parallel — extra sweep threads on fewer cores are
    // pure spawn/context-switch overhead per tick.
    if (cfg.sweep_threads == 0) {
      cfg.sweep_threads = config_.num_workers;
      const std::size_t cores = std::thread::hardware_concurrency();
      if (cores > 0) cfg.sweep_threads = std::min(cfg.sweep_threads, cores);
    }
    // The server's observability taps ride into the scheduler's own emit
    // sites (tick spans, preemption/resume flight events).
    cfg.obs = obs_;
    scheduler_ = std::make_unique<ContinuousScheduler>(
        cfg, model(), executor_options(), sessions_, telemetry_);
  });
  // Null only when shutdown() claimed the flag first (see shutdown()).
  FLASHABFT_ENSURE_MSG(scheduler_ != nullptr,
                       "server shut down while submitting");
  return *scheduler_;
}

InferenceServer::Pending InferenceServer::make_pending(ServeRequest request) {
  // Invalid payloads are a caller bug on both submit paths (the rejected
  // counter is reserved for genuine load shedding).
  if (const auto* attention = std::get_if<AttentionWork>(&request.work)) {
    FLASHABFT_ENSURE_MSG(!attention->heads.empty(), "request has no heads");
  } else if (const auto* generation =
                 std::get_if<GenerationWork>(&request.work)) {
    FLASHABFT_ENSURE_MSG(!generation->prompt.empty(),
                         "generation request has an empty prompt");
    FLASHABFT_ENSURE_MSG(generation->max_new_tokens > 0,
                         "generation request asks for zero tokens");
    FLASHABFT_ENSURE_MSG(
        generation->prompt.size() + generation->max_new_tokens <=
            config_.model.max_seq_len,
        "prompt " << generation->prompt.size() << " + "
                  << generation->max_new_tokens
                  << " new tokens exceeds model max_seq_len "
                  << config_.model.max_seq_len);
    for (const std::size_t id : generation->prompt) {
      FLASHABFT_ENSURE_MSG(id < config_.model.vocab_size,
                           "prompt token " << id << " outside vocab "
                                           << config_.model.vocab_size);
    }
  } else {
    const auto& layer_work = std::get<LayerWork>(request.work);
    FLASHABFT_ENSURE_MSG(
        layer_work.x.rows() > 0 &&
            layer_work.x.cols() == config_.layer.model_dim,
        "layer request x is " << layer_work.x.rows() << " x "
                              << layer_work.x.cols() << ", layer model_dim "
                              << config_.layer.model_dim);
    FLASHABFT_ENSURE_MSG(
        layer_work.memory.rows() > 0 &&
            layer_work.memory.cols() == config_.layer.model_dim,
        "layer request memory is " << layer_work.memory.rows() << " x "
                                   << layer_work.memory.cols()
                                   << ", layer model_dim "
                                   << config_.layer.model_dim);
  }
  if (request.id == 0) {
    request.id = next_auto_id_.fetch_add(1, std::memory_order_relaxed);
  }
  request.enqueue_time = Clock::now();
  Pending pending;
  pending.request = std::move(request);
  return pending;
}

std::future<ServeResponse> InferenceServer::submit(ServeRequest request) {
  FLASHABFT_ENSURE_MSG(!shut_down_.load(std::memory_order_acquire),
                       "submit after shutdown");
  Pending pending = make_pending(std::move(request));
  std::future<ServeResponse> future = pending.promise.get_future();
  // Counted before the push: once queued, a worker can complete the request
  // (and bump `completed`) before this thread resumes, and a concurrent
  // snapshot must never see completed > submitted.
  telemetry_.add(Counter::submitted);
  if (std::holds_alternative<GenerationWork>(pending.request.work)) {
    // Generation sessions bypass the worker queue — admission control is
    // the SessionTable, backpressure the paged pool.
    admit_continuous(std::move(pending));
    return future;
  }
  const bool accepted = queue_.push(std::move(pending));
  if (!accepted) {
    telemetry_.add(Counter::rejected);
    FLASHABFT_ENSURE_MSG(false, "server shut down while submitting");
  }
  return future;
}

SubmitResult InferenceServer::try_submit(ServeRequest request,
                                         std::future<ServeResponse>& out) {
  if (shut_down_.load(std::memory_order_acquire)) {
    telemetry_.add(Counter::rejected);
    return SubmitResult::kShutDown;
  }
  Pending pending = make_pending(std::move(request));
  std::future<ServeResponse> future = pending.promise.get_future();
  telemetry_.add(Counter::submitted);  // before the push — see submit().
  if (std::holds_alternative<GenerationWork>(pending.request.work)) {
    // The request is accepted and a table-full shed fails its future
    // (counted as a rejection).
    admit_continuous(std::move(pending));
    out = std::move(future);
    return SubmitResult::kAccepted;
  }
  if (!queue_.try_push(std::move(pending))) {
    telemetry_.add(Counter::rejected);
    // try_push fails for a full queue or a closed one; a close racing this
    // call must surface as the typed shutdown reason, not as load shedding.
    return queue_.closed() ? SubmitResult::kShutDown
                           : SubmitResult::kQueueFull;
  }
  out = std::move(future);
  return SubmitResult::kAccepted;
}

std::unique_ptr<GenerationSession> InferenceServer::make_session(
    Pending pending) {
  auto session = std::make_unique<GenerationSession>();
  session->id = pending.request.id;
  session->category = std::move(pending.request.category);
  session->work = std::move(std::get<GenerationWork>(pending.request.work));
  session->seal_meta();
  session->promise = std::move(pending.promise);
  session->enqueue_time = pending.request.enqueue_time;
  return session;
}

void InferenceServer::admit_continuous(Pending pending) {
  // Resolve the scheduler first: if shutdown won the construction race
  // this throws to the submitter before any session enters the table —
  // counted as a rejection so submitted == completed + rejected still
  // reconciles (the closed-queue path pairs its throw the same way).
  ContinuousScheduler* engine = nullptr;
  try {
    engine = &scheduler();
  } catch (...) {
    telemetry_.add(Counter::rejected);
    throw;
  }
  std::unique_ptr<GenerationSession> session =
      make_session(std::move(pending));
  SessionAdmission admission;
  if (!engine->admit(session, admission)) {
    // Shutdown already decided the drain: admitting now would orphan the
    // session's future, so it fails like a closed-queue submit.
    telemetry_.add(Counter::rejected);
    session->promise.set_exception(std::make_exception_ptr(
        EnsureError("server shut down while submitting")));
    return;
  }
  if (admission.shed != nullptr) {
    telemetry_.add(Counter::rejected);
    admission.shed->promise.set_exception(std::make_exception_ptr(
        EnsureError("generation session load-shed: session table full")));
    return;
  }
  // sessions_started is the scheduler thread's to count (it must precede
  // on_session_complete, and the session may already be running).
  if (admission.parked) telemetry_.add(Counter::sessions_parked);
}

void InferenceServer::set_worker_defect(std::size_t worker_id,
                                        FaultPlan defect) {
  FLASHABFT_ENSURE_MSG(worker_id < workers_.size(),
                       "worker " << worker_id << " of " << workers_.size());
  std::lock_guard lock(workers_[worker_id]->defect_mutex);
  workers_[worker_id]->defect = std::move(defect);
}

bool InferenceServer::worker_breaker_open(std::size_t worker_id) const {
  FLASHABFT_ENSURE(worker_id < workers_.size());
  std::lock_guard lock(workers_[worker_id]->breaker_mutex);
  return workers_[worker_id]->breaker.open();
}

std::size_t InferenceServer::worker_breaker_trips(
    std::size_t worker_id) const {
  FLASHABFT_ENSURE(worker_id < workers_.size());
  std::lock_guard lock(workers_[worker_id]->breaker_mutex);
  return workers_[worker_id]->breaker.trips();
}

void InferenceServer::worker_loop(Worker& worker) {
  while (true) {
    std::vector<Pending> batch = form_batch(queue_, config_.batching);
    if (batch.empty()) return;  // queue closed and drained.
    telemetry_.add(Counter::batches);
    for (Pending& pending : batch) {
      // A malformed request (e.g. head shapes that don't match the
      // accelerator) must fail its own future, not escape the thread and
      // terminate the whole server.
      try {
        ServeResponse response =
            execute(worker, pending.request, batch.size());
        telemetry_.on_response(response);
        pending.promise.set_value(std::move(response));
      } catch (...) {
        pending.promise.set_exception(std::current_exception());
      }
    }
  }
}

GuardedExecutor::Options InferenceServer::executor_options() const {
  GuardedExecutor::Options options;
  options.checker = config_.software_checker;
  options.recovery = config_.recovery;
  options.screen_extremes = config_.screen_extremes;
  options.screen = config_.screen;
  options.compute = config_.compute;
  options.dmr_glue = config_.dmr_glue;
  options.dtype = config_.dtype;
  // Low-precision storage needs thresholds derived for it (the single
  // hand-set checker would false-alarm on quantization residuals); kF32
  // keeps the legacy single-checker judging bit-identical.
  if (config_.dtype != DType::kF32) {
    options.tolerances = derive_tolerances(
        config_.dtype, tolerance_shape_for(config_.model));
  }
  options.obs = obs_;
  return options;
}

GuardedExecutor InferenceServer::make_executor() const {
  return GuardedExecutor(executor_options());
}

ServeResponse InferenceServer::execute(Worker& worker, ServeRequest& request,
                                       std::size_t batch_size) {
  const Clock::time_point start = Clock::now();
  ServeResponse response;
  response.id = request.id;
  response.worker_id = worker.id;
  response.batch_size = batch_size;
  if (request.enqueue_time != Clock::time_point{}) {
    response.queue_us = to_us(start - request.enqueue_time);
  }

  if (const auto* attention = std::get_if<AttentionWork>(&request.work)) {
    execute_attention(worker, *attention, response);
  } else {
    execute_layer(std::get<LayerWork>(request.work), response);
  }

  const Clock::time_point end = Clock::now();
  response.service_us = to_us(end - start);
  response.total_us = response.queue_us + response.service_us;
  return response;
}

void InferenceServer::execute_attention(Worker& worker,
                                        const AttentionWork& work,
                                        ServeResponse& response) {
  FaultPlan defect;
  {
    std::lock_guard lock(worker.defect_mutex);
    defect = worker.defect;
  }
  bool bypass;
  {
    std::lock_guard lock(worker.breaker_mutex);
    bypass = worker.breaker.should_bypass();
  }

  const CompareGranularity granularity = config_.accel.compare_granularity;
  const GuardedExecutor executor = make_executor();
  const std::size_t head_count = work.heads.size();
  const double cost_per_head =
      2.0 * double(work.heads.front().num_queries()) *
      double(work.heads.front().seq_len()) *
      double(work.heads.front().head_dim());

  // Escalated or bypassed heads are served by the software Alg. 3 kernel,
  // verified by its own fused checksum.
  const auto reference_one = [&](std::size_t h) {
    const AttentionInputs& head = work.heads[h];
    AttentionConfig cfg;
    cfg.seq_len = head.seq_len();
    cfg.head_dim = head.head_dim();
    cfg.scale = config_.accel.scale;
    cfg.mask = config_.accel.mask;
    CheckedAttention fb = flash_abft_attention(head.q, head.k, head.v, cfg);
    CheckedOp op;
    op.output = std::move(fb.output);
    op.check = {fb.predicted_checksum, fb.actual_checksum};
    return op;
  };

  if (bypass) {
    // Breaker open: this worker's accelerator is a persistent-defect
    // suspect; serve the whole layer from the reference kernel.
    telemetry_.add(Counter::breaker_bypasses);
    WorklistResult served =
        executor.run_all_fallback(head_count, cost_per_head, reference_one);
    response.path = ServePath::kFallbackReference;
    response.outputs = std::move(served.outputs);
    response.reports = std::move(served.reports);
    response.counters.fallback_ops = served.fallback_ops;
    response.checksum_clean = served.all_clean;
    return;
  }

  FaultPlan first_plan = work.faults;
  append_plan(first_plan, defect);
  // A transient upset does not repeat; a persistent plan (and any standing
  // worker defect) is applied to every retry as well.
  FaultPlan retry_plan = work.faults_persistent ? work.faults : FaultPlan{};
  append_plan(retry_plan, defect);

  MultiHeadRunResult run;
  const auto run_round = [&](std::size_t attempt,
                             const std::vector<std::size_t>& indices) {
    run = attempt == 0
              ? run_heads(worker.accel, work.heads, first_plan)
              : rerun_alarming_heads(worker.accel, work.heads, run,
                                     granularity, retry_plan);
    std::vector<CheckedOp> ops;
    ops.reserve(indices.size());
    for (const std::size_t h : indices) {
      AccelRunResult& head = run.heads[h];
      CheckedOp op;
      // Moved, not copied: rerun_alarming_heads only reads the previous
      // round's alarm flags (and re-runs produce fresh outputs), so `run`
      // never needs a head output after it is handed to the executor.
      op.output = std::move(head.output);
      op.check = {head.global_pred, head.global_actual};
      // The accelerator's in-hardware checker (calibrated thresholds,
      // configured granularity) is the verdict source.
      op.self_verdict = head.alarm(granularity) ? CheckVerdict::kAlarm
                                                : CheckVerdict::kPass;
      ops.push_back(std::move(op));
    }
    return ops;
  };

  WorklistResult served = executor.run_worklist(
      OpKind::kAttentionFlashAbft, head_count, cost_per_head, run_round,
      reference_one);

  if (served.escalated) {
    // Retries exhausted on this device: persistent-fault suspect.
    telemetry_.add(Counter::escalations);
    bool tripped;
    {
      std::lock_guard lock(worker.breaker_mutex);
      tripped = worker.breaker.record_escalation();
    }
    if (tripped) {
      telemetry_.add(Counter::breaker_trips);
      if (obs_.flight != nullptr) {
        obs_.flight->record(obs::FlightEventKind::kBreakerTrip, "server",
                            "worker", worker.id);
      }
    }
    response.path = ServePath::kFallbackReference;
  } else {
    {
      std::lock_guard lock(worker.breaker_mutex);
      worker.breaker.record_success();
    }
    response.path = served.recovered_ops > 0 ? ServePath::kGuardedRecovered
                                             : ServePath::kGuardedClean;
  }
  response.outputs = std::move(served.outputs);
  response.reports = std::move(served.reports);
  response.counters.op_executions = served.executions;
  response.counters.alarm_events = served.alarm_events;
  response.counters.fallback_ops = served.fallback_ops;
  response.checksum_clean = served.all_clean;
}

void InferenceServer::execute_layer(const LayerWork& work,
                                    ServeResponse& response) {
  GuardedExecutor executor = make_executor();
  if (!work.faults.empty()) {
    executor.set_tamper(make_layer_fault_tamper(work.faults));
  }

  DecoderLayerResult out =
      layer().forward(work.x, work.memory, AttentionBackend::kFlashAbft,
                      executor);
  response.outputs.push_back(std::move(out.output));
  response.counters.op_executions = out.report.executions();
  response.counters.alarm_events = out.report.alarm_events();
  response.counters.fallback_ops =
      out.report.count(OpKind::kReferenceFallback);
  response.checksum_clean = out.report.all_accepted_clean();
  bool recovered = false;
  bool escalated = false;
  for (const OpReport& r : out.report.ops) {
    recovered = recovered || r.recovery == RecoveryStatus::kRecovered;
    escalated = escalated || (r.recovery == RecoveryStatus::kEscalated &&
                              r.kind != OpKind::kReferenceFallback);
  }
  // Same per-request semantics as the attention path's worklist: a layer
  // with any retries-exhausted op counts one escalation (the breaker is
  // not fed — the software path never touched this worker's device).
  if (escalated) telemetry_.add(Counter::escalations);
  response.path = response.counters.fallback_ops > 0
                      ? ServePath::kFallbackReference
                  : recovered ? ServePath::kGuardedRecovered
                              : ServePath::kGuardedClean;
  response.reports = std::move(out.report.ops);
}

}  // namespace flashabft::serve
