// One run of the serving benchmark: drives the production serving path
// (InferenceServer, continuous scheduler, SIMD kernels, f32) through one
// workload in two phases and prints one JSON document of raw results on the
// last line of stdout. perfbench/run.py builds this program, turns the raw
// results into the named metrics and checks them; see perfbench/README.md.
//
//   saturation phase  8 closed-loop clients         -> throughput, CPU/token
//   paced phase       open-loop constant arrivals   -> TTFT / TPOT
//
// With --trace 1 the run additionally (a) alternates saturation windows on
// fresh untraced servers and on fresh servers with the program's own
// obs::TraceCollector attached, recording a `serve.request` span per traced
// session, and (b) replays the workload's shapes single-threaded through the
// public model / kv_pool / kernel entry points, recording one span per call.
// Spans are kept in memory and written out at exit; run.py derives the
// per-layer metrics' self times from them.
#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <ctime>
#include <filesystem>
#include <fstream>
#include <future>
#include <iomanip>
#include <iostream>
#include <map>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "attention/flash_attention2.hpp"
#include "core/flash_abft.hpp"
#include "core/kv_pool.hpp"
#include "model/transformer_model.hpp"
#include "obs/trace.hpp"
#include "serve/load_driver.hpp"
#include "serve/server.hpp"
#include "tensor/backend.hpp"
#include "tensor/random.hpp"
#include "tensor/tensor_ops.hpp"

namespace {

using namespace flashabft;
using namespace flashabft::serve;
using Clock = std::chrono::steady_clock;

constexpr std::size_t kClients = 8;
/// Session indices of round r start at r * kRoundStride (an even number, so
/// the two-session fault pattern of chat_faults is unchanged).
constexpr std::uint64_t kRoundStride = 1'000'000;

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

double process_cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return double(ts.tv_sec) + double(ts.tv_nsec) * 1e-9;
}

double rss_peak_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return double(usage.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB on Linux.
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

// ---------------------------------------------------------------- workloads

// Why each workload exists is recorded in README.md; the shapes here are the
// ones that note describes.
struct Workload {
  std::string name;
  std::size_t prompt_len = 0;
  std::size_t new_tokens = 0;
  std::size_t faults_per_session = 0;
  double paced_rate = 0.0;    ///< open-loop arrivals per second.
};

bool make_workload(const std::string& name, bool smoke, Workload& w) {
  w.name = name;
  if (name != "chat" && name != "chat_faults") return false;
  w.prompt_len = smoke ? 6 : 16;
  w.new_tokens = smoke ? 6 : 64;
  w.paced_rate = smoke ? 40.0 : 4.0;
  w.faults_per_session = name == "chat_faults" ? 3 : 0;
  return true;
}

TransformerConfig model_shape(const Workload& w, bool smoke) {
  TransformerConfig m;
  m.vocab_size = smoke ? 64 : 1024;
  m.model_dim = smoke ? 32 : 256;
  m.num_heads = smoke ? 2 : 4;
  m.head_dim = smoke ? 16 : 64;
  m.num_layers = smoke ? 2 : 4;
  m.ffn_dim = smoke ? 64 : 1024;
  m.max_seq_len = w.prompt_len + w.new_tokens;
  return m;
}

ServerConfig server_config(const Workload& w, bool smoke,
                           obs::TraceCollector* trace) {
  ServerConfig config;  // server defaults otherwise
  config.scheduler.mode = SchedulerMode::kContinuous;
  config.compute = ComputeBackend::kSimd;
  config.dtype = DType::kF32;
  config.model = model_shape(w, smoke);
  config.trace = trace;
  return config;
}

std::vector<std::size_t> random_tokens(Rng& rng, std::size_t n,
                                       std::size_t vocab) {
  std::vector<std::size_t> out(n);
  for (std::size_t& t : out) t = std::size_t(rng.next_below(vocab));
  return out;
}

// Stream labels keep the phases' inputs independent of one another.
enum class Stream : std::uint64_t {
  kWarmup = 1,
  kSaturation = 2,
  kPaced = 3,
  kTraceCost = 4,
  kReplay = 5,
};

/// Fault classes of chat_faults, all of them ones the stack claims to
/// correct. Session i carries classes kFaultMix[(3i + f) % 6], f = 0, 1, 2,
/// so every two consecutive sessions carry each class once and a run's mix
/// of recovery paths does not depend on the draw.
enum class FaultClass {
  kTransientOp,    ///< retry
  kPersistentOp,   ///< scalar reference fallback
  kKvData,         ///< checkpoint restore
  kKvPageTable,    ///< checkpoint restore
  kKvChecksum,     ///< checksum-state upset: restore or cleared false alarm
  kKvLatent,       ///< found by the scrubber in an idle window
};
constexpr FaultClass kFaultMix[6] = {
    FaultClass::kTransientOp, FaultClass::kPersistentOp, FaultClass::kKvData,
    FaultClass::kKvPageTable, FaultClass::kKvChecksum,   FaultClass::kKvLatent};

/// The session with index `index` of stream `stream`: a pure function of
/// (workload, seed, stream, index), so the same seed gives the same inputs
/// whatever order the clients happen to take them in.
GenerationWork make_session(const Workload& w, const TransformerConfig& m,
                            std::uint64_t seed, Stream stream,
                            std::uint64_t index) {
  Rng rng = Rng(seed).derive(std::uint64_t(stream)).derive(index);
  GenerationWork work;
  work.max_new_tokens = w.new_tokens;
  work.prompt = random_tokens(rng, w.prompt_len, m.vocab_size);

  const RecoveryPolicy recovery{};
  for (std::size_t f = 0; f < w.faults_per_session; ++f) {
    // Where and when each fault strikes is drawn; its class is not.
    const FaultClass fault = kFaultMix[(3 * index + f) % 6];
    switch (fault) {
      case FaultClass::kTransientOp:
      case FaultClass::kPersistentOp:
        work.faults.push_back(draw_generation_fault(
            m, recovery, 1e-3,
            /*persistent=*/fault == FaultClass::kPersistentOp, w.new_tokens,
            rng));
        break;
      case FaultClass::kKvData:
        work.kv_corruptions.push_back(
            draw_kv_corruption(m, w.new_tokens, 1.0, rng));
        break;
      case FaultClass::kKvPageTable:
        work.kv_corruptions.push_back(draw_kv_corruption(
            m, w.new_tokens, 1.0, rng, /*page_table=*/true));
        break;
      case FaultClass::kKvChecksum:
        // Alternates between the page-data and the page-table checksums.
        work.kv_corruptions.push_back(draw_kv_corruption(
            m, w.new_tokens, 1.0, rng, /*page_table=*/(index / 2) % 2 == 1,
            /*checksum_state=*/true));
        break;
      case FaultClass::kKvLatent: {
        KvCorruption latent = draw_kv_corruption(m, w.new_tokens, 1.0, rng);
        latent.latent = true;
        work.kv_corruptions.push_back(latent);
        work.latent_idle_ticks = 2 + std::size_t(rng.next_below(3));
        break;
      }
    }
  }
  return work;
}

ServeRequest make_request(GenerationWork work, const std::string& category) {
  ServeRequest request;
  request.category = category;
  request.work = std::move(work);
  return request;
}

// -------------------------------------------------------------------- spans

/// The benchmark's own spans: name, start, end, parent and a key (session id
/// for serve.request), kept in memory and written out at exit.
class SpanLog {
 public:
  static constexpr std::int64_t kNoParent = -1;

  explicit SpanLog(Clock::time_point epoch) : epoch_(epoch) {}

  std::int64_t open(const char* name, std::int64_t parent) {
    std::lock_guard lock(mutex_);
    spans_.push_back({name, now_us(), -1.0, parent, 0});
    return std::int64_t(spans_.size() - 1);
  }
  void close(std::int64_t id) {
    std::lock_guard lock(mutex_);
    spans_[std::size_t(id)].end_us = now_us();
  }
  /// A span whose ends were measured elsewhere (e.g. a served request).
  void add(const char* name, Clock::time_point start, Clock::time_point end,
           std::int64_t parent, std::uint64_t key) {
    std::lock_guard lock(mutex_);
    spans_.push_back({name, us_since_epoch(start), us_since_epoch(end),
                      parent, key});
  }
  /// Duration of the closed span `id`, microseconds.
  double duration_us(std::int64_t id) const {
    std::lock_guard lock(mutex_);
    const Span& s = spans_[std::size_t(id)];
    return s.end_us - s.start_us;
  }

  void write(std::ostream& out) const {
    std::lock_guard lock(mutex_);
    out << "{\"spans\": [";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      out << (i == 0 ? "\n" : ",\n") << "{\"id\": " << i << ", \"name\": \""
          << s.name << "\", \"start_us\": " << std::fixed
          << std::setprecision(3) << s.start_us << ", \"end_us\": " << s.end_us
          << std::defaultfloat << ", \"parent\": " << s.parent
          << ", \"key\": " << s.key << "}";
    }
    out << "\n]}\n";
  }

 private:
  struct Span {
    const char* name;
    double start_us;
    double end_us;
    std::int64_t parent;
    std::uint64_t key;
  };
  double us_since_epoch(Clock::time_point t) const {
    return std::chrono::duration<double, std::micro>(t - epoch_).count();
  }
  double now_us() const { return us_since_epoch(Clock::now()); }

  Clock::time_point epoch_;
  mutable std::mutex mutex_;
  std::vector<Span> spans_;
};

/// RAII span on a SpanLog.
class Scope {
 public:
  Scope(SpanLog& log, const char* name, std::int64_t parent)
      : log_(log), id_(log.open(name, parent)) {}
  ~Scope() { close(); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;
  std::int64_t id() const { return id_; }
  /// Closes early and returns the span's duration in microseconds.
  double close() {
    if (closed_) return 0.0;
    log_.close(id_);
    closed_ = true;
    return log_.duration_us(id_);
  }

 private:
  SpanLog& log_;
  std::int64_t id_;
  bool closed_ = false;
};

// ------------------------------------------------------------------ serving

/// One served session as the client saw it.
struct SessionRecord {
  Stream stream = Stream::kSaturation;
  std::uint64_t index = 0;
  bool failed = false;
  bool checksum_clean = false;
  double lateness_ms = 0.0;  ///< paced: submit time - due time.
  double ttft_ms = 0.0;      ///< from the due time (paced) / submit.
  double total_ms = 0.0;     ///< likewise.
  double queue_ms = 0.0;
  std::vector<std::size_t> tokens;
};

SessionRecord serve_one(InferenceServer& server, const Workload& w,
                        const TransformerConfig& m, std::uint64_t seed,
                        Stream stream, std::uint64_t index,
                        Clock::time_point due, SpanLog* spans) {
  SessionRecord record;
  record.stream = stream;
  record.index = index;
  const Clock::time_point submitted = Clock::now();
  record.lateness_ms = std::max(0.0, seconds_between(due, submitted) * 1e3);
  try {
    std::future<ServeResponse> future = server.submit(
        make_request(make_session(w, m, seed, stream, index), w.name));
    const ServeResponse response = future.get();
    if (spans != nullptr) {
      spans->add("serve.request", submitted, Clock::now(), SpanLog::kNoParent,
                 response.id);
    }
    record.checksum_clean = response.checksum_clean;
    record.ttft_ms = record.lateness_ms + response.ttft_us / 1e3;
    record.total_ms = record.lateness_ms + response.total_us / 1e3;
    record.queue_ms = response.queue_us / 1e3;
    record.tokens = response.tokens;
  } catch (const std::exception& error) {
    std::cerr << "perfbench: session " << index << " failed: " << error.what()
              << "\n";
    record.failed = true;
  }
  return record;
}

/// Builds the server and serves a few sessions so the model and the
/// scheduler thread are warm.
std::unique_ptr<InferenceServer> set_up(const Workload& w, bool smoke,
                                        std::uint64_t seed,
                                        obs::TraceCollector* trace,
                                        std::vector<SessionRecord>& warmup) {
  auto server = std::make_unique<InferenceServer>(server_config(w, smoke, trace));
  // Build the scheduler (and with it the model and the KV pool) here rather
  // than lazily on whichever client thread submits first.
  (void)server->scheduler();
  const TransformerConfig& m = server->config().model;
  const std::size_t sessions = 4;
  std::vector<std::thread> clients;
  std::vector<SessionRecord> records(sessions);
  for (std::size_t i = 0; i < sessions; ++i) {
    clients.emplace_back([&, i] {
      records[i] = serve_one(*server, w, m, seed, Stream::kWarmup, i,
                             Clock::now(), nullptr);
    });
  }
  for (std::thread& t : clients) t.join();
  warmup.insert(warmup.end(), records.begin(), records.end());
  return server;
}

struct SaturationResult {
  double wall_s = 0.0;
  double tokens = 0.0;
  double cpu_s = 0.0;
  TelemetrySnapshot begin, end;
};

/// Closed loop: kClients clients, each submitting its next session when the
/// previous one returns. Counts the tokens produced inside a window that
/// opens after `warm_s` (the pipeline is full by then) and lasts `window_s`;
/// then the clients stop and every in-flight session drains.
SaturationResult run_saturation(InferenceServer& server, const Workload& w,
                                std::uint64_t seed, Stream stream,
                                std::uint64_t first_index, double warm_s,
                                double window_s, SpanLog* spans,
                                std::vector<SessionRecord>& out) {
  const TransformerConfig& m = server.config().model;
  std::atomic<std::uint64_t> next{first_index};
  std::atomic<bool> stop{false};
  std::vector<std::vector<SessionRecord>> per_client(kClients);
  std::vector<std::thread> clients;
  for (std::size_t c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      while (!stop.load()) {
        const std::uint64_t index = next.fetch_add(1);
        per_client[c].push_back(serve_one(server, w, m, seed, stream, index,
                                          Clock::now(), spans));
      }
    });
  }
  const auto telemetry_tokens = [](const TelemetrySnapshot& s) {
    // Decode steps each emit one token; every started session's prefill
    // emits its first one.
    return double(s.scheduled_steps + s.sessions_started);
  };
  SaturationResult result;
  const Clock::time_point t0 = Clock::now();
  std::this_thread::sleep_until(t0 + std::chrono::duration<double>(warm_s));
  const Clock::time_point open = Clock::now();
  const double cpu_open = process_cpu_seconds();
  result.begin = server.telemetry().snapshot();
  std::this_thread::sleep_until(open + std::chrono::duration<double>(window_s));
  result.end = server.telemetry().snapshot();
  result.cpu_s = process_cpu_seconds() - cpu_open;
  result.wall_s = seconds_between(open, Clock::now());
  result.tokens = telemetry_tokens(result.end) - telemetry_tokens(result.begin);
  stop.store(true);
  for (std::thread& t : clients) t.join();
  for (auto& records : per_client) {
    out.insert(out.end(), records.begin(), records.end());
  }
  return result;
}

struct PacedResult {
  std::size_t arrivals = 0;
  double span_s = 0.0;        ///< first due -> last completion.
  double drain_s = 0.0;       ///< last due -> last completion.
  double max_lateness_ms = 0.0;
  TelemetrySnapshot begin, end;
};

/// Open loop: session i is due at start + i / rate, whatever the server is
/// doing; latencies are measured from the due time.
PacedResult run_paced(InferenceServer& server, const Workload& w,
                      std::uint64_t seed, std::uint64_t first_index,
                      double duration_s, std::vector<SessionRecord>& out) {
  const TransformerConfig& m = server.config().model;
  PacedResult result;
  result.arrivals =
      std::max<std::size_t>(1, std::size_t(duration_s * w.paced_rate));
  const auto interval = std::chrono::duration<double>(1.0 / w.paced_rate);
  result.begin = server.telemetry().snapshot();
  const Clock::time_point start = Clock::now();
  // One thread per arrival, spawned at its due time, keeps a slow submit from
  // delaying later arrivals. (Creating all of them up front, each sleeping
  // until its due time, made the scrub thread win the tick mutex far more
  // often: chat TPOT p90 reached 10-12 ms in 5 of 20 runs, against 0 of 20.)
  std::vector<SessionRecord> records(result.arrivals);
  std::vector<std::thread> arrivals;
  arrivals.reserve(result.arrivals);
  for (std::size_t i = 0; i < result.arrivals; ++i) {
    const Clock::time_point due =
        start + std::chrono::duration_cast<Clock::duration>(interval * double(i));
    std::this_thread::sleep_until(due);
    arrivals.emplace_back([&, i, due] {
      records[i] = serve_one(server, w, m, seed, Stream::kPaced,
                             first_index + i, due, nullptr);
    });
  }
  for (std::thread& t : arrivals) t.join();
  result.end = server.telemetry().snapshot();
  // Completion times relative to the last due time; total_ms counts from
  // each session's own due time.
  const double last_due_ms = 1e3 * interval.count() * double(result.arrivals - 1);
  double last_done_ms = 0.0;
  for (std::size_t i = 0; i < records.size(); ++i) {
    const double due_ms = 1e3 * interval.count() * double(i);
    last_done_ms = std::max(last_done_ms,
                            due_ms + records[i].total_ms - last_due_ms);
    result.max_lateness_ms =
        std::max(result.max_lateness_ms, records[i].lateness_ms);
  }
  result.drain_s = last_done_ms / 1e3;
  result.span_s = last_due_ms / 1e3 + result.drain_s;
  out.insert(out.end(), records.begin(), records.end());
  return result;
}

/// One phase summed over every round of the run.
struct PhaseTotals {
  double wall_s = 0.0;
  double tokens = 0.0;  ///< saturation only.
  double cpu_s = 0.0;   ///< saturation only.
  double ticks = 0.0;
  double steps = 0.0;
  double scrub_passes = 0.0;

  void add(const TelemetrySnapshot& begin, const TelemetrySnapshot& end,
           double wall) {
    wall_s += wall;
    ticks += double(end.scheduler_ticks - begin.scheduler_ticks);
    steps += double(end.scheduled_steps - begin.scheduled_steps);
    scrub_passes += double(end.scrub_passes - begin.scrub_passes);
  }
};

/// A fixed amount of pure arithmetic in the benchmark's own code: how fast
/// the machine is right now, independent of the program under test.
double machine_probe_ms() {
  const Clock::time_point t0 = Clock::now();
  std::uint64_t x = 0x9E3779B97F4A7C15ull;
  double acc = 0.0;
  for (int i = 0; i < 20'000'000; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    acc += double(x & 0xFFFF) * 1e-9;
  }
  const double ms = seconds_between(t0, Clock::now()) * 1e3;
  return acc < 0 ? -ms : ms;  // keeps the loop live
}

// ------------------------------------------------------------------- replay

/// Per-layer timings of the traced run: the workload's shapes replayed
/// single-threaded through the public entry points, one span per call.
struct ReplayResult {
  std::map<std::string, std::vector<double>> samples;  ///< name -> values.
};

GuardedExecutor::Options replay_options() {
  GuardedExecutor::Options options;
  options.compute = ComputeBackend::kSimd;
  options.dtype = DType::kF32;
  return options;
}

ReplayResult replay(const TransformerModel& model, const Workload& w,
                    std::uint64_t seed, double budget_s, SpanLog& spans) {
  const TransformerConfig& m = model.config();
  const GuardedExecutor executor(replay_options());
  const std::size_t batch = kClients;
  KvPoolConfig pool_cfg = model.make_pool_config(
      SchedulerConfig{}.page_size, 0, /*sessions=*/batch + 3);
  pool_cfg.prefix_cache = true;
  KvPagePool pool(pool_cfg);
  Rng rng = Rng(seed).derive(std::uint64_t(Stream::kReplay));

  // Kernel inputs at the workload's shapes: one head's decode read over a
  // mid-generation cache, one head's causal prefill, and the FFN up
  // projection of a decode batch.
  const std::size_t hd = m.head_dim;
  const std::size_t cache_len = w.prompt_len + w.new_tokens / 2;
  MatrixD q1(1, hd), kc(cache_len, hd), vc(cache_len, hd);
  MatrixD qp(w.prompt_len, hd), kp(w.prompt_len, hd), vp(w.prompt_len, hd);
  MatrixD a(batch, m.model_dim), b(m.model_dim, m.ffn_dim);
  for (MatrixD* mat : {&q1, &kc, &vc, &qp, &kp, &vp, &a, &b}) {
    fill_gaussian(*mat, rng);
  }
  const double scale = 1.0 / std::sqrt(double(hd));
  const AttentionConfig decode_cfg{cache_len, hd, scale, AttentionMask::kNone};
  const AttentionConfig prefill_cfg{w.prompt_len, hd, scale,
                                    AttentionMask::kCausal};
  FlashAbftOptions simd;
  simd.context.backend = ComputeBackend::kSimd;
  FlashAbftOptions scalar;
  scalar.context.backend = ComputeBackend::kScalar;

  ReplayResult result;
  double sink = 0.0;
  std::uint64_t next_id = 1;
  const auto timed = [&](const char* name, std::int64_t parent, auto&& fn) {
    Scope scope(spans, name, parent);
    fn();
    result.samples[name].push_back(scope.close());
  };

  const std::int64_t root = spans.open("replay", SpanLog::kNoParent);
  const Clock::time_point start = Clock::now();
  for (std::size_t rep = 0;
       rep < 3 || (rep < 200 && seconds_between(start, Clock::now()) < budget_s);
       ++rep) {
    Scope rep_scope(spans, "replay.rep", root);
    const std::int64_t parent = rep_scope.id();
    const GenerationWork cold = make_session(w, m, seed, Stream::kReplay, rep);

    // Cold prefill, then the page verify and one decode step on its cache.
    PagedKv kv = pool.make_session(next_id++);
    StepResult first;
    timed("model.prefill", parent, [&] {
      first = model.prefill_paged(cold.prompt, AttentionBackend::kFlashAbft,
                                  executor, pool, kv);
    });
    pool.publish_prefix(kv, cold.prompt);
    timed("kv_pool.verify", parent, [&] {
      sink += pool.verify(kv, 0).check.actual;
    });
    timed("model.decode_step", parent, [&] {
      sink += double(model.decode_step_paged(first.next_token,
                                             AttentionBackend::kFlashAbft,
                                             executor, pool, kv)
                         .next_token);
    });

    // Cached prefill: the cold prompt served again (whole-prompt hit, one
    // suffix step).
    PagedKv kv_cached = pool.make_session(next_id++);
    timed("model.cached_prefill", parent, [&] {
      const std::size_t cached = pool.acquire_prefix(kv_cached, cold.prompt);
      sink += double(model.prefill_paged_cached(cold.prompt, cached,
                                                AttentionBackend::kFlashAbft,
                                                executor, pool, kv_cached)
                         .next_token);
    });
    pool.free_session(kv_cached);

    // One continuous-batching sweep over `batch` sessions at this shape.
    std::vector<PagedKv> batch_kv;
    batch_kv.reserve(batch);
    std::vector<std::size_t> tokens;
    for (std::size_t s = 0; s < batch; ++s) {
      batch_kv.push_back(pool.make_session(next_id++));
      const std::size_t cached = pool.acquire_prefix(batch_kv.back(), cold.prompt);
      tokens.push_back(model.prefill_paged_cached(cold.prompt, cached,
                                                  AttentionBackend::kFlashAbft,
                                                  executor, pool,
                                                  batch_kv.back())
                           .next_token);
      pool.reserve_append(batch_kv.back());
    }
    std::vector<const GuardedExecutor*> executors(batch, &executor);
    std::vector<PagedKv*> kv_ptrs;
    for (PagedKv& p : batch_kv) kv_ptrs.push_back(&p);
    timed("model.decode_batch", parent, [&] {
      sink += double(model.decode_step_batch(tokens, executors,
                                             AttentionBackend::kFlashAbft,
                                             pool, kv_ptrs)
                         .size());
    });
    for (PagedKv& p : batch_kv) pool.free_session(p);
    pool.free_session(kv);

    timed("model.weight_verify", parent, [&] {
      LayerReport report;
      sink += guarded_weight_verify(model, 0, executor, report) ? 1.0 : 0.0;
    });

    // Kernels, each checked/unchecked pair timed back to back.
    for (int inner = 0; inner < 3; ++inner) {
      timed("flash_abft.decode", parent, [&] {
        sink += flash_abft_attention(q1, kc, vc, decode_cfg, simd).actual_checksum;
      });
      timed("flash_abft.prefill", parent, [&] {
        sink += flash_abft_attention(qp, kp, vp, prefill_cfg, simd).actual_checksum;
      });
      timed("flash_abft.prefill_scalar", parent, [&] {
        sink += flash_abft_attention(qp, kp, vp, prefill_cfg, scalar)
                    .actual_checksum;
      });
      timed("flash_attention2.prefill", parent, [&] {
        sink += flash_attention2(qp, kp, vp, prefill_cfg)(0, 0);
      });
      timed("tensor.matmul_fused", parent, [&] {
        sink += backend_matmul_fused(a, b, ComputeBackend::kSimd).actual;
      });
      timed("tensor.matmul", parent, [&] {
        sink += backend_matmul(a, b, ComputeBackend::kSimd)(0, 0);
      });
    }
  }
  spans.close(root);
  if (!std::isfinite(sink)) std::cerr << "perfbench: non-finite replay sink\n";
  return result;
}

// --------------------------------------------------------------- reporting

class JsonObject {
 public:
  JsonObject& num(const std::string& key, double value) {
    std::ostringstream s;
    s << std::setprecision(10) << (std::isfinite(value) ? value : -1.0);
    return raw(key, s.str());
  }
  JsonObject& str(const std::string& key, const std::string& value) {
    return raw(key, "\"" + value + "\"");
  }
  JsonObject& raw(const std::string& key, const std::string& json) {
    fields_.push_back("\"" + key + "\": " + json);
    return *this;
  }
  [[nodiscard]] std::string text() const {
    std::string out = "{";
    for (std::size_t i = 0; i < fields_.size(); ++i) {
      out += (i == 0 ? "" : ", ") + fields_[i];
    }
    return out + "}";
  }

 private:
  std::vector<std::string> fields_;
};

std::string json_array(const std::vector<double>& values) {
  std::ostringstream s;
  s << std::setprecision(10) << "[";
  for (std::size_t i = 0; i < values.size(); ++i) {
    s << (i ? ", " : "") << values[i];
  }
  return s.str() + "]";
}

std::string session_json(const SessionRecord& r) {
  JsonObject o;
  o.str("phase", r.stream == Stream::kPaced ? "paced" : "saturation")
      .num("index", double(r.index))
      .raw("failed", r.failed ? "true" : "false")
      .raw("checksum_clean", r.checksum_clean ? "true" : "false")
      .num("tokens", double(r.tokens.size()))
      .num("ttft_ms", r.ttft_ms)
      .num("total_ms", r.total_ms)
      .num("queue_ms", r.queue_ms);
  return o.text();
}

/// Per-layer metrics the program's telemetry gives directly (deltas over the
/// measured phases); name -> (value, unit).
using Metrics = std::vector<std::pair<std::string, std::pair<double, std::string>>>;

/// `b` is taken before the first round and `e` after the last.
void telemetry_metrics(const PhaseTotals& sat, const PhaseTotals& paced,
                       const TelemetrySnapshot& b, const TelemetrySnapshot& e,
                       Metrics& out) {
  const auto d = [](std::uint64_t end, std::uint64_t begin) {
    return double(end - begin);
  };
  const double ticks = sat.ticks;
  out.push_back({"serve.tick_ms", {ticks > 0 ? sat.wall_s * 1e3 / ticks : 0.0, "ms"}});
  out.push_back({"serve.batch_occupancy",
                 {ticks > 0 ? sat.steps / ticks : 0.0, "sessions"}});
  out.push_back({"serve.ticks", {ticks, "count"}});
  out.push_back({"serve.sessions_parked",
                 {d(e.sessions_parked, b.sessions_parked), "count"}});
  out.push_back({"serve.rejected", {double(e.rejected), "count"}});

  out.push_back({"scrub.passes_per_s_saturation",
                 {sat.scrub_passes / sat.wall_s, "1/s"}});
  out.push_back({"scrub.passes_per_s_paced",
                 {paced.scrub_passes / paced.wall_s, "1/s"}});
  out.push_back({"scrub.items", {d(e.scrub_items, b.scrub_items), "count"}});
  out.push_back({"scrub.repairs", {d(e.scrub_repairs, b.scrub_repairs), "count"}});

  struct Kind {
    OpKind kind;
    const char* name;
  };
  const Kind kinds[] = {{OpKind::kAttentionFlashAbft, "attention_flash_abft"},
                        {OpKind::kProjection, "projection"},
                        {OpKind::kFfn, "ffn"},
                        {OpKind::kKvPage, "kv_page"},
                        {OpKind::kControlPlane, "control_plane"}};
  const auto phase_ms = [&](OpKind kind, obs::GuardPhase phase) {
    return double(e.timing.of(kind, phase).total -
                  b.timing.of(kind, phase).total) /
           1e6;
  };
  double compute_all = 0.0, verify_all = 0.0;
  for (std::size_t k = 0; k < kOpKindCount; ++k) {
    compute_all += phase_ms(OpKind(k), obs::GuardPhase::kCompute);
    verify_all += phase_ms(OpKind(k), obs::GuardPhase::kVerify);
  }
  for (const Kind& k : kinds) {
    const std::string p = std::string("guarded_op.") + k.name;
    out.push_back({p + ".compute_ms", {phase_ms(k.kind, obs::GuardPhase::kCompute), "ms"}});
    out.push_back({p + ".verify_ms", {phase_ms(k.kind, obs::GuardPhase::kVerify), "ms"}});
    out.push_back({p + ".recovery_ms", {phase_ms(k.kind, obs::GuardPhase::kRecovery), "ms"}});
    out.push_back({p + ".alarms",
                   {d(e.per_kind[std::size_t(k.kind)].alarms,
                      b.per_kind[std::size_t(k.kind)].alarms),
                    "count"}});
  }
  out.push_back({"guarded_op.verify_overhead_pct",
                 {compute_all > 0 ? 100.0 * verify_all / compute_all : 0.0, "%"}});
  out.push_back({"guarded_op.fallback_ops", {d(e.fallback_ops, b.fallback_ops), "count"}});

  out.push_back({"kv_pool.evictions", {d(e.prefix_evictions, b.prefix_evictions), "count"}});
  out.push_back({"kv_pool.shared_heals", {d(e.shared_heals, b.shared_heals), "count"}});
  out.push_back({"kv_pool.peak_page_util", {e.peak_page_utilization(), "frac"}});
}

void replay_metrics(const ReplayResult& r, const TransformerConfig& m,
                    Metrics& out) {
  const auto med = [&](const char* name) {
    const auto it = r.samples.find(name);
    return it == r.samples.end() ? 0.0 : median(it->second);
  };
  out.push_back({"kv_pool.verify_us", {med("kv_pool.verify"), "us"}});
  out.push_back({"model.prefill_ms", {med("model.prefill") / 1e3, "ms"}});
  out.push_back({"model.cached_prefill_ms", {med("model.cached_prefill") / 1e3, "ms"}});
  out.push_back({"model.decode_batch_ms", {med("model.decode_batch") / 1e3, "ms"}});
  out.push_back({"model.decode_step_ms", {med("model.decode_step") / 1e3, "ms"}});
  out.push_back({"model.weight_verify_ms", {med("model.weight_verify") / 1e3, "ms"}});
  out.push_back({"flash_abft.decode_us", {med("flash_abft.decode"), "us"}});
  out.push_back({"flash_abft.prefill_ms", {med("flash_abft.prefill") / 1e3, "ms"}});
  const double fa2 = med("flash_attention2.prefill");
  out.push_back({"flash_abft.check_overhead_pct",
                 {fa2 > 0 ? 100.0 * (med("flash_abft.prefill_scalar") - fa2) / fa2 : 0.0,
                  "%"}});
  const double mm = med("tensor.matmul");
  out.push_back({"tensor.matmul_fused_us", {med("tensor.matmul_fused"), "us"}});
  out.push_back({"tensor.matmul_check_overhead_pct",
                 {mm > 0 ? 100.0 * (med("tensor.matmul_fused") - mm) / mm : 0.0, "%"}});
  // Computed from the operand shapes, not measured: 2mkn flops; f64 A, B
  // and C each moved once.
  const double rows = double(kClients);
  const double kdim = double(m.model_dim), ndim = double(m.ffn_dim);
  out.push_back({"tensor.matmul_fused.flops", {2.0 * rows * kdim * ndim, "flop"}});
  out.push_back({"tensor.matmul_fused.bytes",
                 {8.0 * (rows * kdim + kdim * ndim + rows * ndim), "B"}});
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 20.0;
  bool trace = false;
  bool smoke = false;
  std::string out_dir = ".bench_out";
};

struct TraceCost {
  double untraced = 0.0;  ///< tokens/s, pooled over the untraced windows.
  double traced = 0.0;    ///< likewise, traced.
  bool clean = true;      ///< every session served and checksum-clean.
};

/// Tracing cost: saturation windows on fresh servers, untraced and traced
/// (`collector` attached, a `serve.request` span per session) in ABBA
/// order, so both sides sample the machine alike. Each server is shut down
/// before the next is built.
TraceCost measure_trace_cost(const Workload& w, const Args& args,
                             obs::TraceCollector& collector, SpanLog& spans,
                             double warm_s, double window_s) {
  double tokens[2] = {0.0, 0.0}, wall[2] = {0.0, 0.0};
  TraceCost cost;
  const std::size_t windows = args.smoke ? 2 : 4;
  for (std::size_t i = 0; i < windows; ++i) {
    const bool traced = i % 4 == 1 || i % 4 == 2;
    std::vector<SessionRecord> warmup, records;
    std::unique_ptr<InferenceServer> server = set_up(
        w, args.smoke, args.seed, traced ? &collector : nullptr, warmup);
    const SaturationResult sat = run_saturation(
        *server, w, args.seed, Stream::kTraceCost, i * kRoundStride, warm_s,
        window_s, traced ? &spans : nullptr, records);
    server->shutdown();
    tokens[traced] += sat.tokens;
    wall[traced] += sat.wall_s;
    records.insert(records.end(), warmup.begin(), warmup.end());
    for (const SessionRecord& r : records) {
      cost.clean = cost.clean && !r.failed && r.checksum_clean;
    }
  }
  cost.untraced = tokens[0] / wall[0];
  cost.traced = tokens[1] / wall[1];
  return cost;
}

bool parse_args(int argc, char** argv, Args& args) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    const auto value = [&]() -> std::string {
      return i + 1 < argc ? argv[++i] : std::string();
    };
    if (flag == "--workload") args.workload = value();
    else if (flag == "--seed") args.seed = std::stoull(value());
    else if (flag == "--seconds") args.seconds = std::stod(value());
    else if (flag == "--trace") args.trace = value() == "1";
    else if (flag == "--smoke") args.smoke = true;
    else if (flag == "--out-dir") args.out_dir = value();
    else return false;
  }
  return !args.workload.empty() && args.seconds > 0;
}

int run(const Args& args) {
  Workload w;
  if (!make_workload(args.workload, args.smoke, w)) {
    std::cerr << "perfbench: unknown workload '" << args.workload << "'\n";
    return 2;
  }
  const double S = args.seconds;
  // Phase lengths as shares of --seconds. The traced run shortens the
  // untraced phases to make room for the tracing-cost windows and replay.
  const double scale = args.trace ? 0.45 : 1.0;
  // Per-round phase lengths: shares of --seconds split over the rounds.
  const std::size_t rounds = args.smoke ? 1 : 3;
  const double warm_s = 0.08 * S * scale / double(rounds);
  const double sat_window_s = 0.30 * S * scale / double(rounds);
  const double paced_s = 0.62 * S * scale / double(rounds);

  const Clock::time_point t_start = Clock::now();
  const auto progress = [&](const char* what) {
    std::cerr << "perfbench: " << what << " at "
              << seconds_between(t_start, Clock::now()) << " s\n";
  };
  const double probe_start_ms = machine_probe_ms();

  // Set-up is repeated; each repetition builds, warms and (but the last)
  // tears down a server.
  const std::size_t setups = args.smoke ? 2 : 3;
  std::vector<double> setup_s;
  std::vector<SessionRecord> warmup;
  std::unique_ptr<InferenceServer> server;
  for (std::size_t i = 0; i < setups; ++i) {
    server.reset();
    // Return the torn-down server's memory, so the peak RSS is one server's
    // and not the sum of the repetitions' leftovers.
    malloc_trim(0);
    const Clock::time_point t0 = Clock::now();
    server = set_up(w, args.smoke, args.seed, nullptr, warmup);
    setup_s.push_back(seconds_between(t0, Clock::now()));
  }
  const TransformerConfig m = server->config().model;
  progress("set-up done");

  // The phases alternate over several rounds, so each one samples the
  // machine across the whole run rather than across one stretch of it.
  std::vector<SessionRecord> records;
  PhaseTotals sat, paced;
  std::size_t arrivals = 0;
  double max_lateness_ms = 0.0, max_drain_s = 0.0;
  const TelemetrySnapshot first = server->telemetry().snapshot();
  for (std::size_t round = 0; round < rounds; ++round) {
    const std::uint64_t first_index = round * kRoundStride;
    const SaturationResult s =
        run_saturation(*server, w, args.seed, Stream::kSaturation, first_index,
                       warm_s, sat_window_s, nullptr, records);
    sat.add(s.begin, s.end, s.wall_s);
    sat.tokens += s.tokens;
    sat.cpu_s += s.cpu_s;
    const PacedResult p =
        run_paced(*server, w, args.seed, first_index, paced_s, records);
    paced.add(p.begin, p.end, p.span_s);
    arrivals += p.arrivals;
    max_lateness_ms = std::max(max_lateness_ms, p.max_lateness_ms);
    max_drain_s = std::max(max_drain_s, p.drain_s);
  }
  const TelemetrySnapshot whole = server->telemetry().snapshot();
  // Stops the scheduler and its scrub thread, which would otherwise keep a
  // vCPU busy under everything that follows; model() stays usable.
  server->shutdown();
  progress("measured rounds done");

  // Output checks, off the clock.
  std::vector<std::string> violations;
  std::size_t attempted = 0, failed = 0, unclean = 0, short_sessions = 0;
  for (const SessionRecord& r : records) {
    ++attempted;
    if (r.failed) {
      ++failed;
      continue;
    }
    if (!r.checksum_clean) ++unclean;
    if (r.tokens.size() != w.new_tokens) ++short_sessions;
  }
  for (const SessionRecord& r : warmup) {
    if (r.failed || !r.checksum_clean) {
      violations.push_back("warm-up session failed or was not checksum-clean");
    }
  }
  if (unclean > 0) violations.push_back(std::to_string(unclean) + " responses not checksum_clean");
  if (short_sessions > 0) {
    violations.push_back(std::to_string(short_sessions) + " sessions with a wrong token count");
  }
  if (w.faults_per_session == 0 && whole.alarm_events > 0) {
    violations.push_back(std::to_string(whole.alarm_events) +
                         " guarded_op alarms on a fault-free workload");
  }

  // Token parity: a seeded sample of served sessions against single-session
  // TransformerModel::generate on the same weights with no faults.
  const std::size_t sample = args.smoke ? 2 : 4;
  std::vector<const SessionRecord*> served;
  for (const SessionRecord& r : records) {
    if (!r.failed) served.push_back(&r);
  }
  Rng pick = Rng(args.seed).derive(99);
  std::size_t sampled = 0, matched = 0;
  const GuardedExecutor golden_executor(replay_options());
  for (std::size_t i = 0; i < sample && !served.empty(); ++i) {
    const SessionRecord& r = *served[pick.next_below(served.size())];
    const GenerationWork work = make_session(w, m, args.seed, r.stream, r.index);
    KvCache cache = server->model().make_cache();
    const GenerationResult golden = server->model().generate(
        work.prompt, work.max_new_tokens, AttentionBackend::kFlashAbft,
        golden_executor, cache);
    ++sampled;
    if (golden.tokens == r.tokens) ++matched;
  }
  if (matched != sampled) {
    violations.push_back(std::to_string(sampled - matched) + " of " +
                         std::to_string(sampled) +
                         " sampled sessions differ from TransformerModel::generate");
  }

  progress("output checks done");
  // Traced run extras: tracing-cost windows + single-threaded replay.
  Metrics layers;
  std::string spans_path, program_trace_path;
  if (args.trace) {
    telemetry_metrics(sat, paced, first, whole, layers);
    std::filesystem::create_directories(args.out_dir);
    const std::string stem = args.out_dir + "/" + w.name + "-seed" +
                             std::to_string(args.seed);
    SpanLog spans(Clock::now());
    obs::TraceCollector collector;
    const TraceCost cost =
        measure_trace_cost(w, args, collector, spans, 0.02 * S, 0.06 * S);
    if (!cost.clean) {
      violations.push_back("tracing-cost session failed or was not checksum-clean");
    }
    layers.push_back({"trace.overhead_pct",
                      {cost.untraced > 0
                           ? 100.0 * (cost.untraced - cost.traced) / cost.untraced
                           : 0.0,
                       "%"}});
    progress("tracing-cost windows done");
    const ReplayResult rep =
        replay(server->model(), w, args.seed, args.smoke ? 0.2 : 0.1 * S, spans);
    replay_metrics(rep, m, layers);
    spans_path = stem + ".spans.json";
    program_trace_path = stem + ".program_trace.json";
    std::ofstream(spans_path) << [&] {
      std::ostringstream s;
      spans.write(s);
      return s.str();
    }();
    std::ofstream program(program_trace_path);
    collector.write_chrome_trace(program);
  }
  const double probe_end_ms = machine_probe_ms();
  progress("done");

  JsonObject doc;
  doc.str("workload", w.name)
      .num("seed", double(args.seed))
      .num("seconds", S)
      .num("paced_rate", w.paced_rate)
      .num("clients", double(kClients));
  doc.raw("setup_s", json_array(setup_s));
  doc.num("sat_wall_s", sat.wall_s)
      .num("sat_tokens", sat.tokens)
      .num("sat_cpu_s", sat.cpu_s)
      .num("rounds", double(rounds))
      .num("paced_arrivals", double(arrivals))
      .num("paced_max_lateness_ms", max_lateness_ms)
      .num("paced_drain_s", max_drain_s)
      .num("probe_start_ms", probe_start_ms)
      .num("probe_end_ms", probe_end_ms)
      .num("rss_peak_mb", rss_peak_mb())
      .num("attempted", double(attempted))
      .num("failed", double(failed + whole.rejected))
      .num("golden_sampled", double(sampled))
      .num("golden_matched", double(matched))
      .num("alarm_events", double(whole.alarm_events));
  std::string v = "[";
  for (std::size_t i = 0; i < violations.size(); ++i) {
    v += (i ? ", \"" : "\"") + violations[i] + "\"";
  }
  doc.raw("violations", v + "]");
  std::string sessions = "[";
  for (std::size_t i = 0; i < records.size(); ++i) {
    sessions += (i ? ", " : "") + session_json(records[i]);
  }
  doc.raw("sessions", sessions + "]");
  JsonObject layer_json;
  for (const auto& [name, value] : layers) {
    layer_json.raw(name, JsonObject()
                             .num("value", value.first)
                             .str("unit", value.second)
                             .text());
  }
  doc.raw("layers", layer_json.text());
  doc.str("spans_file", spans_path).str("program_trace_file", program_trace_path);
  std::cout << doc.text() << std::endl;
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!parse_args(argc, argv, args)) {
    std::cerr << "usage: perfbench --workload chat|chat_faults --seed N "
                 "--seconds S [--trace 0|1] [--smoke] [--out-dir DIR]\n";
    return 2;
  }
  try {
    return run(args);
  } catch (const std::exception& error) {
    std::cerr << "perfbench: " << error.what() << "\n";
    return 1;
  }
}
