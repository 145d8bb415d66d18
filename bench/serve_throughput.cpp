// Serving-under-faults benchmark: closed-loop prompt-suite traffic through
// the multi-threaded guarded serving engine (src/serve), fault-free and
// under an injected-fault campaign — for raw attention-head requests, full
// protected decoder-layer requests, and autoregressive generation sessions
// (continuous batching over the checksummed paged KV pool).
//
// Reports, per scenario: throughput, p50/p95/p99 end-to-end latency (plus
// tokens/sec and time-to-first-token for generation), the alarm / recovery
// / escalation / fallback counters, per-op-kind accounting — plus the
// reconciliation the serving design guarantees: every completed request is
// checksum-clean (recovered on the guarded path or served by the verified
// reference fallback), and non-clean paths only occur for requests that
// actually carried an injected fault.
//
// Knobs (defaults run a small self-contained campaign):
//   --threads=N            worker pool size               (default 2)
//   --max-batch=N          batch former admission cap     (default 8)
//   --batch-deadline-us=N  batch forming deadline         (default 200)
//   --inject-faults=BOOL   run the fault campaigns too    (default true)
//   --mode=attention|layer|continuous|prefix|dtype|obs|both|all
//                          payloads (default all; both = attention+layer,
//                          the pre-generation set; continuous = generation
//                          sessions through the continuous-batching
//                          scheduler + paged KV pool; prefix = the "many
//                          users, few templates" workload, run cold
//                          [prefix cache off, the PR 5 private-prefill
//                          baseline] and cached [prefix cache on]; dtype =
//                          continuous generation again at the low-precision
//                          storage dtype, fault-free [the zero-false-alarm
//                          gate] and injected; obs = the tracing-cost
//                          pair described below)
//   --dtype=f32|bf16|f16   low-precision storage dtype of the dtype
//                          scenario family (default f32, which makes the
//                          family run at bf16; an explicit bf16/f16 picks
//                          that dtype — the base families always run f32,
//                          so the JSON stays baseline-comparable)
//   --kv-budget-bytes=N    KV byte budget of the analytic capacity
//                          headline AND the paged pool (0 = default
//                          budget sized to 8 f32 sessions; the pool keeps
//                          its page count)
//   --templates=N          distinct prompt templates of the prefix
//                          workload (default 4)
//   --prefix-len=N         shared template-stem tokens (default 128 — a
//                          whole number of KV pages at the default
//                          --page-size=16, so the full stem is shareable;
//                          each prompt adds a 4-token private suffix)
//   --page-size=N          KV-pool page size, tokens per page (default 16)
//   --max-batch-tokens=N   scheduler decode-batch cap       (default 16)
//   --requests=N --concurrency=N --heads=N --seq-cap=N
//   --layer-requests=N     request count for layer scenarios (default 24)
//   --layer-seq=N          decoder-side row cap per layer request
//                          (default 24; --seq-cap only shapes
//                          attention-mode requests)
//   --gen-requests=N       generation sessions per scenario (default 16)
//   --prompt-len=N --max-new-tokens=N --max-sessions=N (default 8 — the
//                          generation families run >= 8-way concurrent)
//   --preset=NAME --fault-prob=P --persistent-frac=P --seed=N
//   --dmr=BOOL             dual-modular glue (LayerNorm/GELU) on layer +
//                          generation requests (default true; the baseline
//                          records the protected-control-plane cost)
//   --backend=scalar|simd|both   compute backend of the software guarded
//                          path; "both" runs every scenario per backend
//                          and is the BENCH_serve.json baseline (default)
//   --kernel-reps=N        reps of the scalar-vs-SIMD kernel timing
//                          section (default 3; 0 skips it)
//   --json=PATH            write scenario metrics as JSON (the perf
//                          trajectory later PRs compare against; the
//                          perf-smoke CI gate diffs it via
//                          bench/check_regression.py)
//   --trace=PATH           attach a trace collector to every scenario's
//                          server and write the merged Chrome/Perfetto
//                          trace_event JSON here after the run (validated
//                          by bench/check_trace.py; load in ui.perfetto.dev)
//   --flight-dump=PATH     attach a flight recorder to every scenario's
//                          server and dump its last protection events here
//                          after the run
//   --prom=PATH            write the final scenario's telemetry snapshot as
//                          a Prometheus text exposition
//
// Independent of --trace, the "obs" scenario family runs the fault-free
// continuous-generation workload twice — tracing off, then tracing on with
// a dedicated collector — so every JSON carries a measured tracing cost;
// check_regression.py gates the pair at <5% throughput loss.
#include <chrono>
#include <cstdint>
#include <fstream>
#include <iostream>
#include <optional>
#include <string>
#include <vector>

#include "common/cli.hpp"
#include "common/table.hpp"
#include "core/flash_abft.hpp"
#include "core/kv_pool.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/op_profile.hpp"
#include "obs/trace.hpp"
#include "serve/load_driver.hpp"
#include "serve/options.hpp"
#include "serve/server.hpp"
#include "tensor/backend.hpp"
#include "tensor/tensor_ops.hpp"
#include "workload/model_presets.hpp"

namespace {

using namespace flashabft;
using namespace flashabft::serve;

struct ScenarioMetrics {
  std::string name;
  std::string mode;
  ComputeBackend backend = ComputeBackend::kScalar;
  DType dtype = DType::kF32;
  bool ok = false;
  LoadReport report;
};

/// The full effective run configuration, recorded into the JSON so
/// bench/check_regression.py can refuse to compare mismatched runs.
struct EffectiveConfig {
  std::uint64_t seed = 0;
  std::string backend;
  std::string preset;
  std::size_t threads = 0;
  std::size_t max_batch = 0;
  std::size_t page_size = 0;
  std::size_t max_batch_tokens = 0;
  std::size_t batch_deadline_us = 0;
  std::size_t requests = 0;
  std::size_t layer_requests = 0;
  std::size_t layer_seq = 0;
  std::size_t gen_requests = 0;
  std::size_t prompt_len = 0;
  std::size_t max_new_tokens = 0;
  std::size_t max_sessions = 0;
  std::size_t templates = 0;
  std::size_t prefix_len = 0;
  std::size_t concurrency = 0;
  std::size_t heads = 0;
  std::size_t seq_cap = 0;
  bool inject_faults = false;
  bool dmr_glue = false;
  double fault_prob = 0.0;
  double persistent_frac = 0.0;
  std::string dtype;
  std::size_t kv_budget_bytes = 0;
};

/// The analytic KV-capacity headline: how many concurrent sessions a fixed
/// KV byte budget funds at each storage dtype (pure page-geometry math over
/// KvPoolConfig::pages_for_budget — no serving run required, and exact,
/// because pages are admitted whole).
struct KvBudgetRow {
  DType dtype = DType::kF32;
  std::size_t page_bytes = 0;
  std::size_t pages = 0;
  std::size_t sessions = 0;
};

struct KvBudgetHeadline {
  std::size_t budget_bytes = 0;
  std::size_t page_size = 0;
  std::size_t width = 0;
  std::size_t num_layers = 0;
  std::size_t tokens_per_session = 0;
  std::size_t pages_per_session = 0;
  std::vector<KvBudgetRow> rows;
  double bf16_vs_f32_sessions = 0.0;
};

/// One kernel's scalar-vs-SIMD wall time at the acceptance shape
/// (d=64, seq=512) — the speedup record the CI gate pins.
struct KernelTiming {
  std::string name;
  double scalar_ms = 0.0;
  double simd_ms = 0.0;
  [[nodiscard]] double speedup() const {
    return simd_ms > 0.0 ? scalar_ms / simd_ms : 0.0;
  }
};

template <typename F>
double time_reps_ms(std::size_t reps, F&& body) {
  const auto start = std::chrono::steady_clock::now();
  for (std::size_t r = 0; r < reps; ++r) body();
  const auto end = std::chrono::steady_clock::now();
  return std::chrono::duration<double, std::milli>(end - start).count() /
         double(reps);
}

/// Times the fused-checksum matmul and the Flash-ABFT kernel on both
/// backends at n=512, d=64 (the acceptance-criteria shape).
std::vector<KernelTiming> measure_kernels(std::size_t reps) {
  std::vector<KernelTiming> timings;
  if (reps == 0) return timings;
  Rng rng(0xBACC0DE);
  MatrixD a(512, 64), b(64, 512), q(512, 64), k(512, 64), v(512, 64);
  fill_gaussian(a, rng);
  fill_gaussian(b, rng);
  fill_gaussian(q, rng);
  fill_gaussian(k, rng);
  fill_gaussian(v, rng);
  AttentionConfig cfg;
  cfg.seq_len = 512;
  cfg.head_dim = 64;
  cfg.scale = 1.0 / 8.0;

  double sink = 0.0;
  // One untimed warmup rep per kernel: without it the first-timed kernel
  // absorbs the page-fault/cache-fill cost and biases the speedup ratio.
  const auto timed = [&](auto&& body) {
    body();
    return time_reps_ms(reps, body);
  };

  KernelTiming matmul{"matmul_fused_512x64", 0.0, 0.0};
  matmul.scalar_ms = timed([&] {
    sink += backend_matmul_fused(a, b, ComputeBackend::kScalar).actual;
  });
  matmul.simd_ms = timed([&] {
    sink += backend_matmul_fused(a, b, ComputeBackend::kSimd).actual;
  });
  timings.push_back(matmul);

  KernelTiming flash{"flash_abft_512x64", 0.0, 0.0};
  FlashAbftOptions scalar_opts;
  scalar_opts.context.backend = ComputeBackend::kScalar;
  FlashAbftOptions simd_opts;
  simd_opts.context.backend = ComputeBackend::kSimd;
  flash.scalar_ms = timed([&] {
    sink += flash_abft_attention(q, k, v, cfg, scalar_opts).actual_checksum;
  });
  flash.simd_ms = timed([&] {
    sink += flash_abft_attention(q, k, v, cfg, simd_opts).actual_checksum;
  });
  timings.push_back(flash);

  if (sink == 42.0) std::cerr << "";  // keep the kernels observable.
  return timings;
}

std::string json_escape_name(const std::string& name) {
  std::string out;
  for (const char c : name) out += c == '"' ? '\'' : c;
  return out;
}

void write_json(const std::string& path,
                const std::vector<ScenarioMetrics>& scenarios,
                const std::vector<KernelTiming>& kernels,
                const EffectiveConfig& config,
                const KvBudgetHeadline& kv_budget) {
  std::ofstream out(path);
  if (!out) {
    std::cerr << "cannot write " << path << '\n';
    return;
  }
  out << "{\n  \"bench\": \"serve_throughput\",\n  \"workers\": "
      << config.threads << ",\n  \"config\": {\n"
      << "    \"seed\": " << config.seed << ",\n"
      << "    \"backend\": \"" << config.backend << "\",\n"
      << "    \"preset\": \"" << config.preset << "\",\n"
      << "    \"threads\": " << config.threads << ",\n"
      << "    \"max_batch\": " << config.max_batch << ",\n"
      << "    \"batch_deadline_us\": " << config.batch_deadline_us << ",\n"
      << "    \"page_size\": " << config.page_size << ",\n"
      << "    \"max_batch_tokens\": " << config.max_batch_tokens << ",\n"
      << "    \"requests\": " << config.requests << ",\n"
      << "    \"layer_requests\": " << config.layer_requests << ",\n"
      << "    \"layer_seq\": " << config.layer_seq << ",\n"
      << "    \"gen_requests\": " << config.gen_requests << ",\n"
      << "    \"prompt_len\": " << config.prompt_len << ",\n"
      << "    \"max_new_tokens\": " << config.max_new_tokens << ",\n"
      << "    \"max_sessions\": " << config.max_sessions << ",\n"
      << "    \"templates\": " << config.templates << ",\n"
      << "    \"prefix_len\": " << config.prefix_len << ",\n"
      << "    \"concurrency\": " << config.concurrency << ",\n"
      << "    \"heads\": " << config.heads << ",\n"
      << "    \"seq_cap\": " << config.seq_cap << ",\n"
      << "    \"inject_faults\": " << (config.inject_faults ? "true" : "false")
      << ",\n"
      << "    \"dmr_glue\": " << (config.dmr_glue ? "true" : "false")
      << ",\n"
      << "    \"fault_prob\": " << config.fault_prob << ",\n"
      << "    \"persistent_frac\": " << config.persistent_frac << ",\n"
      << "    \"dtype\": \"" << config.dtype << "\",\n"
      << "    \"kv_budget_bytes\": " << config.kv_budget_bytes << "\n"
      << "  },\n  \"kv_budget\": {\n"
      << "    \"budget_bytes\": " << kv_budget.budget_bytes << ",\n"
      << "    \"page_size\": " << kv_budget.page_size << ",\n"
      << "    \"width\": " << kv_budget.width << ",\n"
      << "    \"num_layers\": " << kv_budget.num_layers << ",\n"
      << "    \"tokens_per_session\": " << kv_budget.tokens_per_session
      << ",\n"
      << "    \"pages_per_session\": " << kv_budget.pages_per_session
      << ",\n    \"capacity\": [\n";
  for (std::size_t i = 0; i < kv_budget.rows.size(); ++i) {
    const KvBudgetRow& row = kv_budget.rows[i];
    out << "      {\"dtype\": \"" << dtype_name(row.dtype)
        << "\", \"page_bytes\": " << row.page_bytes << ", \"pages\": "
        << row.pages << ", \"sessions\": " << row.sessions << '}'
        << (i + 1 < kv_budget.rows.size() ? "," : "") << '\n';
  }
  out << "    ],\n    \"bf16_vs_f32_sessions\": "
      << kv_budget.bf16_vs_f32_sessions << "\n  },\n  \"kernels\": [\n";
  for (std::size_t i = 0; i < kernels.size(); ++i) {
    const KernelTiming& kt = kernels[i];
    out << "    {\"name\": \"" << kt.name << "\", \"scalar_ms\": "
        << kt.scalar_ms << ", \"simd_ms\": " << kt.simd_ms
        << ", \"speedup\": " << kt.speedup() << '}'
        << (i + 1 < kernels.size() ? "," : "") << '\n';
  }
  out << "  ],\n  \"scenarios\": [\n";
  for (std::size_t i = 0; i < scenarios.size(); ++i) {
    const ScenarioMetrics& s = scenarios[i];
    const TelemetrySnapshot& t = s.report.telemetry;
    out << "    {\n"
        << "      \"name\": \"" << json_escape_name(s.name) << "\",\n"
        << "      \"mode\": \"" << s.mode << "\",\n"
        << "      \"backend\": \"" << backend_name(s.backend) << "\",\n"
        << "      \"dtype\": \"" << dtype_name(s.dtype) << "\",\n"
        << "      \"ok\": " << (s.ok ? "true" : "false") << ",\n"
        << "      \"requests\": " << s.report.completed << ",\n"
        << "      \"throughput_rps\": " << s.report.throughput_rps << ",\n"
        << "      \"p50_us\": " << t.total_p50_us << ",\n"
        << "      \"p95_us\": " << t.total_p95_us << ",\n"
        << "      \"p99_us\": " << t.total_p99_us << ",\n"
        << "      \"transient_injected\": " << s.report.transient_injected
        << ",\n"
        << "      \"persistent_injected\": " << s.report.persistent_injected
        << ",\n"
        << "      \"tokens_per_sec\": " << s.report.tokens_per_second
        << ",\n"
        << "      \"ttft_p50_us\": " << t.ttft_p50_us << ",\n"
        << "      \"ttft_p99_us\": " << t.ttft_p99_us << ",\n"
        << "      \"prefix_hit_rate\": " << t.prefix_hit_rate() << ",\n"
        << "      \"prefix_cached_responses\": "
        << s.report.prefix_cached_responses << ",\n"
        << "      \"cached_ttft_p50_us\": " << s.report.cached_ttft_p50_us
        << ",\n"
        << "      \"uncached_ttft_p50_us\": "
        << s.report.uncached_ttft_p50_us << ",\n"
        << "      \"batch_occupancy\": " << t.batch_occupancy() << ",\n"
        << "      \"peak_page_utilization\": " << t.peak_page_utilization()
        << ",\n";
    // Every non-zero telemetry counter under its snapshot field name
    // (tokens_generated included: it sums the same responses the load
    // report does).
    for (const CounterDescriptor& counter : kCounterTable) {
      const std::uint64_t value = t.*counter.field;
      if (value != 0) {
        out << "      \"" << counter.name << "\": " << value << ",\n";
      }
    }
    out << "      \"per_kind\": {";
    bool first = true;
    for (std::size_t k = 0; k < kOpKindCount; ++k) {
      const OpKindStats& stats = t.per_kind[k];
      if (stats.checks == 0) continue;
      if (!first) out << ", ";
      first = false;
      out << '"' << op_kind_name(OpKind(k)) << "\": {\"checks\": "
          << stats.checks << ", \"alarms\": " << stats.alarms
          << ", \"recovered\": " << stats.recovered
          << ", \"escalated\": " << stats.escalated << '}';
    }
    out << "},\n      \"abft_overhead\": {";
    first = true;
    for (std::size_t k = 0; k < kOpKindCount; ++k) {
      const OpKind kind = OpKind(k);
      const obs::OpTimingSnapshot& timing = t.timing;
      if (timing.of(kind, obs::GuardPhase::kCompute).count == 0 &&
          timing.guard_ns(kind) == 0) {
        continue;
      }
      if (!first) out << ", ";
      first = false;
      out << '"' << op_kind_name(kind) << "\": {\"compute_ms\": "
          << double(timing.compute_ns(kind)) / 1e6 << ", \"verify_ms\": "
          << double(timing.of(kind, obs::GuardPhase::kVerify).total) / 1e6
          << ", \"recovery_ms\": "
          << double(timing.of(kind, obs::GuardPhase::kRecovery).total) / 1e6
          << ", \"overhead_pct\": " << timing.overhead_pct(kind) << '}';
    }
    out << "}\n    }" << (i + 1 < scenarios.size() ? "," : "") << '\n';
  }
  out << "  ]\n}\n";
  std::cout << "wrote " << path << '\n';
}

}  // namespace

int main(int argc, char** argv) {
  const CliArgs args(argc, argv);
  // Shared serving knobs (threads, batching, paged-KV geometry, dtype,
  // seed, preset) come from the common helper; only the bench-private
  // flags are parsed here.
  const auto common = parse_common_serve_options(args);
  if (!common) return 2;
  const bool inject_faults = args.get_bool("inject-faults", true);
  const std::size_t requests = args.get_size("requests", 60);
  const std::size_t layer_requests = args.get_size("layer-requests", 24);
  const std::size_t layer_seq = args.get_size("layer-seq", 24);
  const std::size_t gen_requests = args.get_size("gen-requests", 16);
  const std::size_t prompt_len = args.get_size("prompt-len", 12);
  const std::size_t max_new_tokens = args.get_size("max-new-tokens", 16);
  const std::size_t templates = args.get_size("templates", 4);
  const std::size_t prefix_len = args.get_size("prefix-len", 128);
  const std::size_t concurrency = args.get_size("concurrency", 8);
  const std::size_t heads = args.get_size("heads", 4);
  const std::size_t seq_cap = args.get_size("seq-cap", 48);
  const std::string mode = args.get_string("mode", "all");
  const std::string backend_arg = args.get_string("backend", "both");
  const std::size_t kernel_reps = args.get_size("kernel-reps", 3);
  const bool dmr_glue = args.get_bool("dmr", true);
  const double fault_prob = args.get_double("fault-prob", 0.35);
  const double persistent_frac = args.get_double("persistent-frac", 0.2);
  const std::string json_path = args.get_string("json", "");
  const std::string prom_path = args.get_string("prom", "");
  const std::size_t max_sessions = common->max_sessions;
  const std::uint64_t seed = common->seed;

  // Run-wide observability taps: one collector/recorder shared by every
  // scenario's server, exported once at the end (all servers have shut
  // down by then, satisfying the collector's quiescent-export contract).
  std::optional<obs::TraceCollector> trace_collector;
  if (!common->trace_path.empty()) trace_collector.emplace();
  std::optional<obs::FlightRecorder> flight_recorder;
  if (!common->flight_dump_path.empty()) flight_recorder.emplace(256);
  // The tracing-cost pair's dedicated collector — always armed for the
  // "obs" family so every JSON carries a measured tracing cost even when
  // --trace is off.
  obs::TraceCollector obs_pair_collector;

  const ModelPreset& preset = preset_by_name(common->preset);
  const bool run_attention =
      mode == "attention" || mode == "both" || mode == "all";
  const bool run_layer = mode == "layer" || mode == "both" || mode == "all";
  const bool run_continuous = mode == "continuous" || mode == "all";
  const bool run_prefix = mode == "prefix" || mode == "all";
  const bool run_dtype = mode == "dtype" || mode == "all";
  const bool run_obs = mode == "obs" || mode == "all";
  // The dtype scenario family reruns continuous generation at low
  // precision; --dtype picks which (the default f32 means "the family runs
  // bf16" so the base families stay baseline-comparable f32).
  const DType low_dtype =
      common->dtype != DType::kF32 ? common->dtype : DType::kBf16;
  // Prefix-workload prompts: the shared stem plus a 4-token private
  // suffix (so CoW always has a divergence point to fork at).
  const std::size_t prefix_prompt_len = prefix_len + 4;

  std::vector<ComputeBackend> backends;
  if (backend_arg == "both") {
    backends = {ComputeBackend::kScalar, ComputeBackend::kSimd};
  } else {
    const std::optional<ComputeBackend> parsed = parse_backend(backend_arg);
    if (!parsed) {
      std::cerr << "unknown --backend=" << backend_arg
                << " (want scalar|simd|both)\n";
      return 2;
    }
    backends = {*parsed};
  }

  std::vector<ScenarioMetrics> scenarios;
  bool all_clean = true;
  const auto scenario = [&](const std::string& title,
                            RequestMode request_mode, double probability,
                            ComputeBackend compute,
                            bool prefix_workload = false,
                            bool prefix_cache_on = true,
                            DType dtype = DType::kF32,
                            bool obs_pair = false,
                            obs::TraceCollector* trace_override = nullptr) {
    ServerConfig config =
        make_calibrated_server_config(preset, /*lanes=*/16, seq_cap, seed);
    apply_common_options(*common, config);
    // The scenario's dtype, not --dtype: base families always measure f32
    // (baseline-comparable), the dtype family passes low_dtype explicitly.
    config.dtype = dtype;
    // A modest decoder layer keeps the software path's matmuls serving-rate
    // sized (the cycle-level accelerator stays the attention-mode engine).
    config.layer.model_dim = 128;
    config.layer.num_heads = 4;
    config.layer.head_dim = 32;
    config.layer.ffn_dim = 256;
    // Likewise for the generation model (prompt + new tokens must fit).
    config.model.vocab_size = 256;
    config.model.model_dim = 64;
    config.model.num_layers = 2;
    config.model.num_heads = 2;
    config.model.head_dim = 32;
    config.model.ffn_dim = 128;
    const std::size_t effective_prompt_len =
        prefix_workload ? prefix_prompt_len : prompt_len;
    config.model.max_seq_len = effective_prompt_len + max_new_tokens + 8;
    config.compute = compute;
    config.dmr_glue = dmr_glue;
    if (obs_pair) {
      // The tracing-cost pair manages its own taps: the off half runs bare
      // even under --trace, so the comparison stays traced-vs-untraced.
      config.trace = trace_override;
    } else {
      config.trace = trace_collector ? &*trace_collector : nullptr;
      config.flight = flight_recorder ? &*flight_recorder : nullptr;
    }
    // The cold half of the prefix pair IS the PR 5 private-prefill
    // baseline: same template traffic, cache disabled.
    config.scheduler.prefix_cache = !prefix_workload || prefix_cache_on;

    const bool layer_mode = request_mode == RequestMode::kDecoderLayer;
    const bool generate_mode = request_mode == RequestMode::kGeneration;
    InferenceServer server(config);
    LoadDriverConfig load;
    load.mode = request_mode;
    load.total_requests = generate_mode ? gen_requests
                          : layer_mode ? layer_requests
                                       : requests;
    load.concurrency = concurrency;
    load.preset_name = common->preset;
    load.heads_per_request = heads;
    load.seq_len_cap = layer_mode ? layer_seq : seq_cap;
    load.memory_len = 12;
    load.prompt_len = effective_prompt_len;
    load.max_new_tokens = max_new_tokens;
    if (prefix_workload) {
      load.templates = templates;
      load.prefix_len = prefix_len;
    }
    load.seed = seed;
    load.inject.fault_probability = probability;
    load.inject.persistent_fraction = persistent_frac;

    const LoadReport report = run_load(server, load);
    server.shutdown();

    const TelemetrySnapshot& tel = report.telemetry;
    Table t({"metric", "value"});
    t.set_title(title + " · " + backend_name(compute));
    t.add_row({"compute backend", backend_name(compute)});
    t.add_row({"storage dtype", dtype_name(dtype)});
    t.add_row({"workers", format_number(double(common->threads), 0)});
    // What the load driver observed, then every non-zero server counter
    // from the one counter table.
    t.add_row({"requests", format_number(double(report.completed), 0)});
    t.add_row({"throughput (req/s)",
               format_number(report.throughput_rps, 1)});
    t.add_row({"p50 latency (us)", format_number(tel.total_p50_us, 1)});
    t.add_row({"p95 latency (us)", format_number(tel.total_p95_us, 1)});
    t.add_row({"p99 latency (us)", format_number(tel.total_p99_us, 1)});
    if (generate_mode) {
      t.add_row({"tokens/sec", format_number(report.tokens_per_second, 1)});
      t.add_row({"ttft p50 (us)", format_number(tel.ttft_p50_us, 1)});
      t.add_row({"ttft p99 (us)", format_number(tel.ttft_p99_us, 1)});
      t.add_row({"batch occupancy", format_number(tel.batch_occupancy(), 2)});
      t.add_row({"peak page utilization",
                 format_number(tel.peak_page_utilization(), 2)});
    }
    if (prefix_workload) {
      t.add_row({"prefix hit rate", format_number(tel.prefix_hit_rate(), 2)});
      t.add_row({"cached ttft p50 (us)",
                 format_number(report.cached_ttft_p50_us, 1)});
      t.add_row({"uncached ttft p50 (us)",
                 format_number(report.uncached_ttft_p50_us, 1)});
    }
    // Sessions bypass the worker queue's batch former, so completed/batches
    // is meaningless for generation.
    if (!generate_mode) {
      t.add_row({"mean batch size",
                 format_number(tel.batches > 0
                                   ? double(report.completed) /
                                         double(tel.batches)
                                   : 0.0,
                               2)});
    }
    t.add_row({"faults injected (transient)",
               format_number(double(report.transient_injected), 0)});
    t.add_row({"faults injected (persistent)",
               format_number(double(report.persistent_injected), 0)});
    t.add_row({"recovered responses",
               format_number(double(report.recovered), 0)});
    t.add_row({"fallback-served responses",
               format_number(double(report.fallback), 0)});
    t.add_row({"checksum-clean responses",
               format_number(double(report.clean_responses), 0)});
    for (const CounterDescriptor& counter : kCounterTable) {
      const std::uint64_t value = tel.*counter.field;
      if (value != 0) {
        t.add_row({counter.label, format_number(double(value), 0)});
      }
    }
    for (std::size_t k = 0; k < kOpKindCount; ++k) {
      const OpKindStats& stats = tel.per_kind[k];
      if (stats.checks == 0) continue;
      t.add_row({std::string("op[") + op_kind_name(OpKind(k)) + "]",
                 format_number(double(stats.checks), 0) + " checks, " +
                     format_number(double(stats.alarms), 0) + " alarms, " +
                     format_number(double(stats.recovered), 0) +
                     " recovered"});
    }
    const obs::OpTimingSnapshot& timing = tel.timing;
    for (std::size_t k = 0; k < kOpKindCount; ++k) {
      const OpKind kind = OpKind(k);
      if (timing.of(kind, obs::GuardPhase::kCompute).count == 0 &&
          timing.guard_ns(kind) == 0) {
        continue;
      }
      t.add_row(
          {std::string("abft[") + op_kind_name(kind) + "]",
           format_number(double(timing.compute_ns(kind)) / 1e6, 2) +
               " ms compute, " +
               format_number(
                   double(timing.of(kind, obs::GuardPhase::kVerify).total) /
                       1e6,
                   2) +
               " ms verify, " +
               format_number(timing.overhead_pct(kind), 1) + "% overhead"});
    }
    std::cout << t.render() << '\n';

    // Reconciliation: completion, checksum cleanliness, and fault-plan
    // accounting (alarms only happen on requests that carried a plan).
    const bool complete = report.completed == load.total_requests;
    const bool clean = report.clean_responses == report.completed;
    // A tripped breaker routes fault-free requests to the fallback path
    // too, so bypasses join the injected plans on the right-hand side.
    const std::size_t injected =
        report.transient_injected + report.persistent_injected;
    const std::size_t explained =
        injected + std::size_t(report.telemetry.breaker_bypasses);
    const bool accounted = report.recovered + report.fallback <= explained;
    std::cout << "  completed " << report.completed << "/"
              << load.total_requests << ", checksum-clean "
              << report.clean_responses << "/" << report.completed
              << ", non-clean paths " << report.recovered + report.fallback
              << " <= injected+bypassed " << explained
              << (complete && clean && accounted ? "  [ok]" : "  [FAIL]")
              << "\n\n";
    const bool ok = complete && clean && accounted;
    all_clean = all_clean && ok;
    scenarios.push_back({title,
                         obs_pair             ? "obs"
                         : dtype != DType::kF32 ? "dtype"
                         : prefix_workload    ? "prefix"
                         : generate_mode      ? "continuous"
                         : layer_mode         ? "layer"
                                              : "attention",
                         compute, dtype, ok, report});
  };

  for (const ComputeBackend compute : backends) {
    if (run_attention) {
      scenario("fault-free attention serving", RequestMode::kAttentionHeads,
               0.0, compute);
      if (inject_faults) {
        scenario("attention serving under injected faults",
                 RequestMode::kAttentionHeads, fault_prob, compute);
      }
    }
    if (run_layer) {
      scenario("fault-free decoder-layer serving",
               RequestMode::kDecoderLayer, 0.0, compute);
      if (inject_faults) {
        scenario("decoder-layer serving under injected faults",
                 RequestMode::kDecoderLayer, fault_prob, compute);
      }
    }
    if (run_continuous) {
      scenario("fault-free continuous-batching generation",
               RequestMode::kGeneration, 0.0, compute);
      if (inject_faults) {
        scenario("continuous-batching generation under injected faults",
                 RequestMode::kGeneration, fault_prob, compute);
      }
    }
    if (run_prefix) {
      // Same template traffic twice: cache off (the PR 5 private-prefill
      // baseline) then on — the pair the ≥5x cached-TTFT acceptance
      // criterion is measured over.
      scenario("prefix template generation (cold, cache off)",
               RequestMode::kGeneration, 0.0, compute,
               /*prefix_workload=*/true, /*prefix_cache_on=*/false);
      scenario("prefix template generation (cached)",
               RequestMode::kGeneration, 0.0, compute,
               /*prefix_workload=*/true, /*prefix_cache_on=*/true);
    }
    if (run_dtype) {
      // Low-precision continuous generation. The fault-free half IS the
      // zero-false-alarm gate: any calibrated-tolerance alarm on clean
      // low-precision arithmetic shows up as recovered/fallback > injected
      // and fails the reconciliation (exit 1).
      const std::string dn = dtype_name(low_dtype);
      scenario("fault-free " + dn + " continuous generation",
               RequestMode::kGeneration, 0.0, compute,
               /*prefix_workload=*/false, /*prefix_cache_on=*/true,
               low_dtype);
      if (inject_faults) {
        scenario(dn + " continuous generation under injected faults",
                 RequestMode::kGeneration, fault_prob, compute,
                 /*prefix_workload=*/false, /*prefix_cache_on=*/true,
                 low_dtype);
      }
    }
    if (run_obs) {
      // The tracing-cost head-to-head: identical fault-free continuous
      // traffic with the collector off, then on. check_regression.py gates
      // the pair at <5% throughput loss, so tracing stays cheap enough to
      // leave on in production.
      scenario("continuous generation (tracing off)", RequestMode::kGeneration,
               0.0, compute, /*prefix_workload=*/false,
               /*prefix_cache_on=*/true, DType::kF32, /*obs_pair=*/true,
               /*trace_override=*/nullptr);
      scenario("continuous generation (tracing on)", RequestMode::kGeneration,
               0.0, compute, /*prefix_workload=*/false,
               /*prefix_cache_on=*/true, DType::kF32, /*obs_pair=*/true,
               &obs_pair_collector);
    }
  }

  // The prefix-caching head-to-head: cached-prefix TTFT and aggregate
  // tokens/sec vs the cold (cache-off) run of the same template traffic.
  for (const ComputeBackend compute : backends) {
    const ScenarioMetrics* cold = nullptr;
    const ScenarioMetrics* cached = nullptr;
    for (const ScenarioMetrics& s : scenarios) {
      if (s.backend != compute || s.mode != "prefix") continue;
      if (s.name.find("cold") != std::string::npos) cold = &s;
      if (s.name.find("cached") != std::string::npos) cached = &s;
    }
    if (cold != nullptr && cached != nullptr &&
        cold->report.telemetry.ttft_p50_us > 0.0 &&
        cached->report.cached_ttft_p50_us > 0.0 &&
        cold->report.tokens_per_second > 0.0) {
      std::cout << "prefix cached vs cold ttft p50 ("
                << backend_name(compute) << "): "
                << format_number(cached->report.cached_ttft_p50_us, 1)
                << " vs "
                << format_number(cold->report.telemetry.ttft_p50_us, 1)
                << " us = "
                << format_number(cold->report.telemetry.ttft_p50_us /
                                     cached->report.cached_ttft_p50_us,
                                 2)
                << "x faster; tokens/sec "
                << format_number(cached->report.tokens_per_second, 1)
                << " vs "
                << format_number(cold->report.tokens_per_second, 1) << " = "
                << format_number(cached->report.tokens_per_second /
                                     cold->report.tokens_per_second,
                                 2)
                << "x\n\n";
    }
  }

  // The capacity headline of the dtype work: concurrent generation
  // sessions a FIXED KV byte budget funds at each storage dtype. Pure page
  // geometry over the generation-model shape (width = num_heads·head_dim,
  // per-layer page tables), exact because pages are admitted whole —
  // halving bytes-per-token doubles the page count, and with it the
  // session capacity.
  KvBudgetHeadline kv_budget;
  {
    KvPoolConfig pool;
    pool.page_size = common->page_size;
    pool.width = 2 * 32;  // the generation model: num_heads * head_dim
    pool.num_layers = 2;
    kv_budget.page_size = pool.page_size;
    kv_budget.width = pool.width;
    kv_budget.num_layers = pool.num_layers;
    kv_budget.tokens_per_session = prompt_len + max_new_tokens;
    const std::size_t pages_per_layer =
        (kv_budget.tokens_per_session + pool.page_size - 1) / pool.page_size;
    kv_budget.pages_per_session = pages_per_layer * pool.num_layers;
    pool.dtype = DType::kF32;
    // Default budget: exactly enough f32 pages for the run's session cap,
    // so the f32 row reproduces today's capacity and the bf16/f16 rows
    // show what the same bytes buy at half the storage width.
    kv_budget.budget_bytes =
        common->kv_budget_bytes > 0
            ? common->kv_budget_bytes
            : max_sessions * kv_budget.pages_per_session * pool.page_bytes();
    double f32_sessions = 0.0;
    double bf16_sessions = 0.0;
    Table bt({"dtype", "page bytes", "pages", "sessions"});
    bt.set_title("KV capacity at " +
                 format_number(double(kv_budget.budget_bytes), 0) +
                 "-byte budget");
    for (const DType d : {DType::kF32, DType::kBf16, DType::kF16}) {
      pool.dtype = d;
      KvBudgetRow row;
      row.dtype = d;
      row.page_bytes = pool.page_bytes();
      row.pages = pool.pages_for_budget(kv_budget.budget_bytes);
      row.sessions = row.pages / kv_budget.pages_per_session;
      if (d == DType::kF32) f32_sessions = double(row.sessions);
      if (d == DType::kBf16) bf16_sessions = double(row.sessions);
      kv_budget.rows.push_back(row);
      bt.add_row({dtype_name(d), format_number(double(row.page_bytes), 0),
                  format_number(double(row.pages), 0),
                  format_number(double(row.sessions), 0)});
    }
    kv_budget.bf16_vs_f32_sessions =
        f32_sessions > 0.0 ? bf16_sessions / f32_sessions : 0.0;
    std::cout << bt.render() << "bf16 vs f32 sessions per page budget: "
              << format_number(kv_budget.bf16_vs_f32_sessions, 2)
              << "x\n\n";
  }

  const std::vector<KernelTiming> kernels = measure_kernels(kernel_reps);
  if (!kernels.empty()) {
    Table kt({"kernel", "scalar (ms)", "simd (ms)", "speedup"});
    kt.set_title("scalar vs SIMD kernels (d=64, seq=512)");
    for (const KernelTiming& timing : kernels) {
      kt.add_row({timing.name, format_number(timing.scalar_ms, 2),
                  format_number(timing.simd_ms, 2),
                  format_number(timing.speedup(), 2) + "x"});
    }
    std::cout << kt.render() << '\n';
  }

  if (!json_path.empty()) {
    EffectiveConfig effective;
    effective.seed = seed;
    effective.backend = backend_arg;
    effective.preset = common->preset;
    effective.threads = common->threads;
    effective.max_batch = common->max_batch;
    effective.batch_deadline_us = common->batch_deadline_us;
    effective.page_size = common->page_size;
    effective.max_batch_tokens = common->max_batch_tokens;
    effective.requests = requests;
    effective.layer_requests = layer_requests;
    effective.layer_seq = layer_seq;
    effective.gen_requests = gen_requests;
    effective.prompt_len = prompt_len;
    effective.max_new_tokens = max_new_tokens;
    effective.max_sessions = max_sessions;
    effective.templates = templates;
    effective.prefix_len = prefix_len;
    effective.concurrency = concurrency;
    effective.heads = heads;
    effective.seq_cap = seq_cap;
    effective.inject_faults = inject_faults;
    effective.dmr_glue = dmr_glue;
    effective.fault_prob = fault_prob;
    effective.persistent_frac = persistent_frac;
    effective.dtype = dtype_name(low_dtype);
    effective.kv_budget_bytes = common->kv_budget_bytes;
    write_json(json_path, scenarios, kernels, effective, kv_budget);
  }

  if (trace_collector) {
    std::ofstream out(common->trace_path);
    if (!out) {
      std::cerr << "cannot write " << common->trace_path << '\n';
    } else {
      trace_collector->write_chrome_trace(out);
      std::cout << "wrote " << common->trace_path << " ("
                << trace_collector->event_count() << " events, "
                << trace_collector->dropped() << " dropped)\n";
    }
  }
  if (flight_recorder) {
    std::ofstream out(common->flight_dump_path);
    if (!out) {
      std::cerr << "cannot write " << common->flight_dump_path << '\n';
    } else {
      flight_recorder->dump(out);
      std::cout << "wrote " << common->flight_dump_path << '\n';
    }
  }
  if (!prom_path.empty() && !scenarios.empty()) {
    const ScenarioMetrics& last = scenarios.back();
    std::ofstream out(prom_path);
    if (!out) {
      std::cerr << "cannot write " << prom_path << '\n';
    } else {
      out << last.report.telemetry.prometheus_text(last.report.wall_seconds);
      std::cout << "wrote " << prom_path << '\n';
    }
  }
  return all_clean ? 0 : 1;
}
