// Google-benchmark microbenchmarks: software-level cost of the attention
// kernel family and the incremental cost of the fused checksum (Alg. 3 over
// Alg. 2) — the software analogue of the paper's <2% energy overhead claim
// (the checksum adds one MAC per key per query next to d of them).
#include <benchmark/benchmark.h>

#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "attention/flash_attention2.hpp"
#include "attention/lazy_softmax_attention.hpp"
#include "attention/reference_attention.hpp"
#include "core/flash_abft.hpp"
#include "core/guarded_op.hpp"
#include "core/kv_pool.hpp"
#include "core/matmul_abft.hpp"
#include "model/linear.hpp"
#include "numerics/bfloat16.hpp"
#include "numerics/exp_unit.hpp"
#include "tensor/backend.hpp"
#include "tensor/tensor_ops.hpp"
#include "workload/generator.hpp"

namespace {

using namespace flashabft;

AttentionConfig cfg_for(std::size_t n, std::size_t d) {
  AttentionConfig cfg;
  cfg.seq_len = n;
  cfg.head_dim = d;
  cfg.scale = 1.0 / std::sqrt(double(d));
  return cfg;
}

AttentionInputs workload_for(std::size_t n, std::size_t d) {
  Rng rng(n * 1315423911ULL + d);
  return generate_gaussian(n, d, rng);
}

void BM_ReferenceAttention(benchmark::State& state) {
  const std::size_t n = std::size_t(state.range(0));
  const std::size_t d = std::size_t(state.range(1));
  const AttentionInputs w = workload_for(n, d);
  const AttentionConfig cfg = cfg_for(n, d);
  for (auto _ : state) {
    benchmark::DoNotOptimize(reference_attention(w.q, w.k, w.v, cfg));
  }
  state.SetItemsProcessed(state.iterations() * n * n * d);
}

void BM_LazySoftmaxAttention(benchmark::State& state) {
  const std::size_t n = std::size_t(state.range(0));
  const std::size_t d = std::size_t(state.range(1));
  const AttentionInputs w = workload_for(n, d);
  const AttentionConfig cfg = cfg_for(n, d);
  for (auto _ : state) {
    benchmark::DoNotOptimize(lazy_softmax_attention(w.q, w.k, w.v, cfg));
  }
  state.SetItemsProcessed(state.iterations() * n * n * d);
}

void BM_FlashAttention2(benchmark::State& state) {
  const std::size_t n = std::size_t(state.range(0));
  const std::size_t d = std::size_t(state.range(1));
  const AttentionInputs w = workload_for(n, d);
  const AttentionConfig cfg = cfg_for(n, d);
  for (auto _ : state) {
    benchmark::DoNotOptimize(flash_attention2(w.q, w.k, w.v, cfg));
  }
  state.SetItemsProcessed(state.iterations() * n * n * d);
}

void BM_FlashAbft(benchmark::State& state) {
  const std::size_t n = std::size_t(state.range(0));
  const std::size_t d = std::size_t(state.range(1));
  const AttentionInputs w = workload_for(n, d);
  const AttentionConfig cfg = cfg_for(n, d);
  for (auto _ : state) {
    benchmark::DoNotOptimize(flash_abft_attention(w.q, w.k, w.v, cfg));
  }
  state.SetItemsProcessed(state.iterations() * n * n * d);
}

void BM_TwoStepAbft(benchmark::State& state) {
  const std::size_t n = std::size_t(state.range(0));
  const std::size_t d = std::size_t(state.range(1));
  const AttentionInputs w = workload_for(n, d);
  const AttentionConfig cfg = cfg_for(n, d);
  for (auto _ : state) {
    benchmark::DoNotOptimize(two_step_abft_attention(w.q, w.k, w.v, cfg));
  }
  state.SetItemsProcessed(state.iterations() * n * n * d);
}

// --- compute-backend comparisons (range(2): 0 = scalar, 1 = simd) ---
// The scalar-vs-SIMD speedup at {512, 64} is the acceptance shape the
// perf-smoke CI gate pins via BENCH_serve.json's "kernels" section.

ComputeBackend backend_of(const benchmark::State& state) {
  return state.range(2) == 0 ? ComputeBackend::kScalar
                             : ComputeBackend::kSimd;
}

void BM_BackendMatmulFused(benchmark::State& state) {
  const std::size_t n = std::size_t(state.range(0));
  const std::size_t d = std::size_t(state.range(1));
  const ComputeBackend backend = backend_of(state);
  Rng rng(n * 2654435761ULL + d);
  MatrixD a(n, d), b(d, n);
  fill_gaussian(a, rng);
  fill_gaussian(b, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(backend_matmul_fused(a, b, backend));
  }
  state.SetItemsProcessed(state.iterations() * n * n * d);
  state.SetLabel(backend_name(backend));
}

void BM_BackendFlashAbft(benchmark::State& state) {
  const std::size_t n = std::size_t(state.range(0));
  const std::size_t d = std::size_t(state.range(1));
  const AttentionInputs w = workload_for(n, d);
  const AttentionConfig cfg = cfg_for(n, d);
  FlashAbftOptions options;
  options.context.backend = backend_of(state);
  for (auto _ : state) {
    benchmark::DoNotOptimize(flash_abft_attention(w.q, w.k, w.v, cfg,
                                                  options));
  }
  state.SetItemsProcessed(state.iterations() * n * n * d);
  state.SetLabel(backend_name(options.context.backend));
}

/// One decode head over the paged KV pool at the serving shape: range(0)
/// cached rows on 16-row pages, rows 256 wide (4 heads of range(1) dims),
/// the single query attending head 0 — one kAttentionFlashAbft op of the
/// decode sweep.
void BM_BackendPagedDecodeHead(benchmark::State& state) {
  const std::size_t rows = std::size_t(state.range(0));
  const std::size_t d = std::size_t(state.range(1));
  KvPoolConfig cfg;
  cfg.page_size = 16;
  cfg.width = 256;
  cfg.num_layers = 1;
  cfg.num_pages = (rows + cfg.page_size - 1) / cfg.page_size;
  KvPagePool pool(cfg);
  PagedKv kv = pool.make_session(1);
  Rng rng(rows * 2654435761ULL + d);
  MatrixD k(rows, cfg.width), v(rows, cfg.width), q(1, d);
  fill_gaussian(k, rng);
  fill_gaussian(v, rng);
  fill_gaussian(q, rng);
  for (std::size_t r = 0; r < rows; ++r) pool.append(kv, 0, k.row(r), v.row(r));
  const std::vector<KvChunk> pages = pool.chunks(kv, 0);
  const KernelContext context{backend_of(state)};
  const double scale = 1.0 / std::sqrt(double(d));
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        paged_flash_abft_head(q, pages, cfg.width, /*head=*/0, scale,
                              context));
  }
  state.SetItemsProcessed(state.iterations() * rows * d);
  state.SetLabel(backend_name(context.backend));
}

void BM_BackendTwoStepAbft(benchmark::State& state) {
  const std::size_t n = std::size_t(state.range(0));
  const std::size_t d = std::size_t(state.range(1));
  const AttentionInputs w = workload_for(n, d);
  const AttentionConfig cfg = cfg_for(n, d);
  const ComputeBackend backend = backend_of(state);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        two_step_abft_attention(w.q, w.k, w.v, cfg, KernelContext{backend}));
  }
  state.SetItemsProcessed(state.iterations() * n * n * d);
  state.SetLabel(backend_name(backend));
}

// --- dense product kernels per ISA compile (range(1): WideIsa) ---
// The perfbench model's 24 decode matrices (4 layers x Q, K, V, output
// projection, FFN up and down at model width 256, FFN width 1024): ~25 MB
// of weights, larger than L2, so the weights stream from L3 or memory as
// in serving.

struct DecodeMatrices {
  std::vector<Linear> layers;
  std::vector<Linear::InputChecksums> cached;

  /// One random `rows`-row input per matrix.
  std::vector<MatrixD> inputs(std::size_t rows) const {
    std::vector<MatrixD> x;
    Rng rng(rows);
    for (const Linear& layer : layers) {
      x.emplace_back(rows, layer.in_features());
      fill_gaussian(x.back(), rng);
    }
    return x;
  }

  std::int64_t macs(std::size_t rows) const {
    double total = 0.0;
    for (const Linear& layer : layers) total += layer.forward_cost(rows);
    return std::int64_t(total);
  }
};

const DecodeMatrices& decode_matrices() {
  static const DecodeMatrices matrices = [] {
    constexpr std::size_t kModel = 256, kFfn = 1024, kLayers = 4;
    DecodeMatrices m;
    Rng rng(2026);
    for (std::size_t l = 0; l < kLayers; ++l) {
      for (std::size_t p = 0; p < 4; ++p) {
        m.layers.push_back(Linear::random_init(kModel, kModel, rng));
      }
      m.layers.push_back(Linear::random_init(kModel, kFfn, rng));
      m.layers.push_back(Linear::random_init(kFfn, kModel, rng));
    }
    for (const Linear& layer : m.layers) {
      m.cached.push_back(layer.input_checksums());
    }
    return m;
  }();
  return matrices;
}

/// Runs range(1)'s compile for one benchmark's lifetime; `ok` is false
/// (and the benchmark skipped) when the CPU does not execute it.
class PinnedIsa {
 public:
  explicit PinnedIsa(benchmark::State& state) : before_(wide_isa()) {
    const auto isa = static_cast<WideIsa>(state.range(1));
    ok = cpu_supports(isa);
    if (!ok) {
      state.SkipWithError((std::string(wide_isa_name(isa)) +
                           " is not supported by this CPU").c_str());
      return;
    }
    pin_wide_isa(isa);
    state.SetLabel(wide_isa_name(isa));
  }
  ~PinnedIsa() { pin_wide_isa(before_); }
  PinnedIsa(const PinnedIsa&) = delete;
  PinnedIsa& operator=(const PinnedIsa&) = delete;

  bool ok = false;

 private:
  WideIsa before_;
};

/// One decode sweep's guarded projections and FFN products at range(0)
/// sessions (one stacked row each): the shared product, the per-session
/// checksum pairs and the guarded-op bookkeeping, as decode_step_batch
/// runs them.
void BM_BackendDecodeLinear(benchmark::State& state) {
  const std::size_t rows = std::size_t(state.range(0));
  const DecodeMatrices& m = decode_matrices();
  const PinnedIsa pinned(state);
  if (!pinned.ok) return;
  GuardedExecutor::Options options;
  options.compute = ComputeBackend::kSimd;
  const GuardedExecutor executor(options);
  const std::vector<const GuardedExecutor*> executors(rows, &executor);
  const std::vector<std::size_t> groups(rows, 1);
  const std::vector<MatrixD> inputs = m.inputs(rows);
  for (auto _ : state) {
    std::vector<LayerReport> reports(rows);
    std::vector<LayerReport*> report_ptrs;
    for (LayerReport& report : reports) report_ptrs.push_back(&report);
    for (std::size_t i = 0; i < m.layers.size(); ++i) {
      benchmark::DoNotOptimize(guarded_linear_batch(
          m.layers[i], inputs[i], groups, OpKind::kProjection, i, executors,
          report_ptrs, &m.cached[i]));
    }
  }
  state.SetItemsProcessed(state.iterations() * m.macs(rows));
}

/// A 16-token prompt's fused, checked products over the same matrices (the
/// prefill shape: backend_linear_fused with the cached input sums).
void BM_BackendPrefillLinear(benchmark::State& state) {
  const std::size_t rows = std::size_t(state.range(0));
  const DecodeMatrices& m = decode_matrices();
  const PinnedIsa pinned(state);
  if (!pinned.ok) return;
  const std::vector<MatrixD> inputs = m.inputs(rows);
  for (auto _ : state) {
    for (std::size_t i = 0; i < m.layers.size(); ++i) {
      benchmark::DoNotOptimize(backend_linear_fused(
          inputs[i], m.layers[i].weight(), m.layers[i].bias(),
          ComputeBackend::kSimd, DType::kF32, &m.cached[i]));
    }
  }
  state.SetItemsProcessed(state.iterations() * m.macs(rows));
}

void BM_HardwareExp(benchmark::State& state) {
  double x = -0.37;
  for (auto _ : state) {
    benchmark::DoNotOptimize(eval_exp(x, ExpMode::kHardware));
    x = x < -30.0 ? -0.37 : x - 1e-4;
  }
}

void BM_Bf16RoundTrip(benchmark::State& state) {
  float x = 1.2345f;
  for (auto _ : state) {
    x = bf16::round(x * 1.0000001f);
    benchmark::DoNotOptimize(x);
  }
}

}  // namespace

BENCHMARK(BM_ReferenceAttention)->Args({256, 64})->Args({256, 128});
BENCHMARK(BM_LazySoftmaxAttention)->Args({256, 64})->Args({256, 128});
BENCHMARK(BM_FlashAttention2)
    ->Args({256, 64})
    ->Args({256, 128})
    ->Args({512, 128});
BENCHMARK(BM_FlashAbft)
    ->Args({256, 64})
    ->Args({256, 128})
    ->Args({512, 128});
BENCHMARK(BM_TwoStepAbft)->Args({256, 64})->Args({256, 128});
BENCHMARK(BM_BackendMatmulFused)
    ->Args({512, 64, 0})
    ->Args({512, 64, 1})
    ->Args({1024, 64, 0})
    ->Args({1024, 64, 1});
BENCHMARK(BM_BackendFlashAbft)
    ->Args({512, 64, 0})
    ->Args({512, 64, 1})
    ->Args({512, 128, 0})
    ->Args({512, 128, 1});
BENCHMARK(BM_BackendPagedDecodeHead)
    ->Args({80, 64, 0})
    ->Args({80, 64, 1})
    ->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_BackendTwoStepAbft)->Args({512, 64, 0})->Args({512, 64, 1});
// Args: {rows, WideIsa} — 0 baseline, 1 AVX2, 2 AVX-512F.
BENCHMARK(BM_BackendDecodeLinear)
    ->ArgsProduct({{1, 2, 4}, {0, 1, 2}})
    ->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_BackendPrefillLinear)
    ->ArgsProduct({{16}, {0, 1, 2}})
    ->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_HardwareExp);
BENCHMARK(BM_Bf16RoundTrip);

BENCHMARK_MAIN();
