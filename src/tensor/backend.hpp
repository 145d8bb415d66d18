// Runtime-selectable compute backend for the hot dense kernels.
//
// Every hot kernel in the repo (matmul, row softmax, flash attention,
// checksum accumulation) exists in two implementations behind one enum:
//
//   * kScalar — the bounds-checked reference triple loops of
//     tensor/tensor_ops.hpp. Bit-stable goldens; the engine every parity
//     test and every fallback execution runs on.
//   * kSimd   — blocked, vectorized kernels: a microkernel over
//     kSimdRowTile output rows (an AVX-512F register tile where the CPU has
//     it, else a kSimdDepthTile-deep K sweep), raw-pointer rows,
//     `#pragma omp simd` inner loops (portable: honored under
//     -fopenmp-simd, harmless auto-vectorizable C++ otherwise).
//
// Checksum fusion contract: the `*_fused` kernels produce the classic
// matmul-ABFT pair (predicted = dot(colsum(A), rowsum(B)) [+ n·Σbias],
// actual = Σ C) *inside the same tiles* as the product — colsum(A)
// accumulates over each row block of A just before its product, and the
// actual checksum is reduced from each output row block while it is still
// cache-hot — so the checked product never takes a second pass over its
// output. (rowsum(B) is an input-side checksum, computed once as B streams
// in — the software analogue of Fig. 3's Σ block — or handed in by the
// owner of a frozen B.)
//
// Backend selection must not change *what* is computed: parity tests
// (tests/test_backend.cpp) hold the SIMD matmul products to the scalar
// reference bit for bit, the other kernels to agreement within rounding
// across odd shapes, and alarm behavior to parity under injected faults.
#pragma once

#include <cstddef>
#include <optional>
#include <span>
#include <string_view>
#include <vector>

#include "numerics/dtype.hpp"
#include "tensor/matrix.hpp"

// Portable vectorization pragma: a real `omp simd` under -fopenmp-simd
// (no OpenMP runtime dependency), otherwise ignored.
#if defined(__GNUC__) || defined(__clang__)
#define FLASHABFT_PRAGMA(directive) _Pragma(#directive)
#else
#define FLASHABFT_PRAGMA(directive)
#endif

// Runtime ISA dispatch for width-independent kernels (DESIGN.md §7).
// FLASHABFT_WIDE_KERNEL(ret, name, params, args) defines `name` over the
// always-inline `template <WideIsa> name##_body`. On x86-64 the body is
// compiled three times — with target("avx512f"), with target("avx2") and for
// the baseline ISA — and each call runs the compile wide_isa() names: the
// widest the CPU executes, unless pin_wide_isa() narrowed it. The template
// argument lets a body pick a register tile sized for its compile's vector
// registers. Only loops whose per-element arithmetic is the same at every
// vector width (elementwise mul/add; no reductions, whose lane split follows
// the width) may use it. Each compile stays a function of its own
// (noinline), so its hot loop keeps one register allocation and alignment
// whatever the caller looks like. FMA is never enabled and the build pins
// -ffp-contract=off, so every output element is the same IEEE mul/add
// sequence on every compile. The choice is a plain branch, not
// target_clones: an ifunc resolver runs before ThreadSanitizer's runtime is
// up and crashes instrumented binaries at load.
#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define FLASHABFT_WIDE_KERNEL(ret, name, params, args)                       \
  __attribute__((target("avx512f"), noinline)) ret name##_avx512f params {  \
    return name##_body<WideIsa::kAvx512f> args;                              \
  }                                                                          \
  __attribute__((target("avx2"), noinline)) ret name##_avx2 params {        \
    return name##_body<WideIsa::kAvx2> args;                                 \
  }                                                                          \
  __attribute__((noinline)) ret name##_baseline params {                     \
    return name##_body<WideIsa::kBaseline> args;                             \
  }                                                                          \
  ret name params {                                                          \
    switch (wide_isa()) {                                                    \
      case WideIsa::kAvx512f: return name##_avx512f args;                    \
      case WideIsa::kAvx2: return name##_avx2 args;                          \
      case WideIsa::kBaseline: break;                                        \
    }                                                                        \
    return name##_baseline args;                                             \
  }
#else
#define FLASHABFT_WIDE_KERNEL(ret, name, params, args) \
  ret name params { return name##_body<WideIsa::kBaseline> args; }
#endif

namespace flashabft {

/// Which implementation family a kernel dispatches to.
enum class ComputeBackend {
  kScalar = 0,  ///< bounds-checked reference loops (tensor_ops).
  kSimd,        ///< blocked + vectorized kernels with fused checksums.
};
inline constexpr std::size_t kComputeBackendCount = 2;

[[nodiscard]] const char* backend_name(ComputeBackend backend);

/// Parses "scalar" / "simd" (the `--backend=` CLI values).
[[nodiscard]] std::optional<ComputeBackend> parse_backend(
    std::string_view name);

/// The instruction sets FLASHABFT_WIDE_KERNEL compiles a body for,
/// narrowest first.
enum class WideIsa {
  kBaseline = 0,  ///< the build's ISA (x86-64: SSE2).
  kAvx2,          ///< target("avx2"): 16 ymm registers of 4 doubles.
  kAvx512f,       ///< target("avx512f"): 32 zmm registers of 8 doubles.
};

[[nodiscard]] const char* wide_isa_name(WideIsa isa);

/// Whether the running CPU executes AVX2 / AVX-512F (probed once; false off
/// x86-64).
[[nodiscard]] bool cpu_has_avx2();
[[nodiscard]] bool cpu_has_avx512f();

/// Whether the running CPU executes `isa`'s compile (kBaseline always).
[[nodiscard]] bool cpu_supports(WideIsa isa);

/// The compile every FLASHABFT_WIDE_KERNEL call runs: the widest one
/// cpu_supports(), unless pin_wide_isa() chose another.
[[nodiscard]] WideIsa wide_isa();

/// Runs every FLASHABFT_WIDE_KERNEL call on `isa`'s compile from now on,
/// process-wide; `isa` must be cpu_supports()-ed. The compiles produce the
/// same bits, so this changes speed only: the parity suite and the kernel
/// benchmarks use it to run each compile the host supports.
void pin_wide_isa(WideIsa isa);

/// Process-wide default backend (thread-safe; initial value kScalar). It
/// seeds `FlashAbftOptions::backend`, `GuardedExecutor::Options::compute`
/// and `ServerConfig::compute` at construction, so set_default_backend()
/// before building those objects steers every kernel that is not pinned
/// explicitly.
[[nodiscard]] ComputeBackend default_backend();
void set_default_backend(ComputeBackend backend);

/// Tile geometry of the vectorized microkernel — part of the backend
/// contract: kernels must be exact for shapes that are *not* multiples of
/// either tile (parity tests sweep the boundaries).
inline constexpr std::size_t kSimdRowTile = 4;    ///< MR — C rows per tile.
inline constexpr std::size_t kSimdDepthTile = 64; ///< KC — K depth per sweep.

namespace simd {

/// dot(a, b) over n lanes.
[[nodiscard]] inline double dot(const double* a, const double* b,
                                std::size_t n) {
  double acc = 0.0;
  FLASHABFT_PRAGMA(omp simd reduction(+ : acc))
  for (std::size_t i = 0; i < n; ++i) acc += a[i] * b[i];
  return acc;
}

/// dot(a, b_j, n) of four rows b_j at once, into out[0..3]: the same
/// per-row reduction as dot() (the parity suite pins the bits), with four
/// independent accumulator chains in flight instead of one.
inline void dot4(const double* a, const double* b0, const double* b1,
                 const double* b2, const double* b3, std::size_t n,
                 double* out) {
  double acc0 = 0.0, acc1 = 0.0, acc2 = 0.0, acc3 = 0.0;
  FLASHABFT_PRAGMA(omp simd reduction(+ : acc0, acc1, acc2, acc3))
  for (std::size_t i = 0; i < n; ++i) {
    acc0 += a[i] * b0[i];
    acc1 += a[i] * b1[i];
    acc2 += a[i] * b2[i];
    acc3 += a[i] * b3[i];
  }
  out[0] = acc0;
  out[1] = acc1;
  out[2] = acc2;
  out[3] = acc3;
}

/// o = o * scale + weight * v — the flash-attention accumulator update.
inline void scale_accumulate(double* o, double scale, double weight,
                             const double* v, std::size_t n) {
  FLASHABFT_PRAGMA(omp simd)
  for (std::size_t i = 0; i < n; ++i) o[i] = o[i] * scale + weight * v[i];
}

/// y += alpha * x.
inline void axpy(double* y, double alpha, const double* x, std::size_t n) {
  FLASHABFT_PRAGMA(omp simd)
  for (std::size_t i = 0; i < n; ++i) y[i] += alpha * x[i];
}

/// Σ a[i].
[[nodiscard]] inline double sum(const double* a, std::size_t n) {
  double acc = 0.0;
  FLASHABFT_PRAGMA(omp simd reduction(+ : acc))
  for (std::size_t i = 0; i < n; ++i) acc += a[i];
  return acc;
}

/// max a[i]; n must be > 0.
[[nodiscard]] inline double max(const double* a, std::size_t n) {
  double m = a[0];
  FLASHABFT_PRAGMA(omp simd reduction(max : m))
  for (std::size_t i = 1; i < n; ++i) m = m > a[i] ? m : a[i];
  return m;
}

/// out = acc * scale; returns Σ out — the flash finalize (divide by l_N and
/// reduce the row's actual checksum in one pass).
[[nodiscard]] inline double scale_to(double* out, const double* acc,
                                     double scale, std::size_t n) {
  double row_sum = 0.0;
  FLASHABFT_PRAGMA(omp simd reduction(+ : row_sum))
  for (std::size_t i = 0; i < n; ++i) {
    out[i] = acc[i] * scale;
    row_sum += out[i];
  }
  return row_sum;
}

}  // namespace simd

/// The input-side ABFT checksums of a weight matrix W and bias b: rowsum(W)
/// (W.rows() long) and Σb. Owners of frozen weights compute them once and
/// hand them to backend_linear_fused, which then skips its own rowsum(W)
/// pass — a full extra stream of the weights on every call.
struct InputChecksums {
  std::vector<double> row_w;
  double bias_sum = 0.0;
};

/// A product plus the matmul-ABFT checksum pair that came out of the same
/// tiles (kSimd) or a reference second pass (kScalar).
struct FusedMatmul {
  MatrixD c;
  double predicted = 0.0;  ///< dot(colsum(A), rowsum(B)) [+ rows·Σbias].
  double actual = 0.0;     ///< Σ C (bias included when present).
};

/// C = A * B on the selected backend.
[[nodiscard]] MatrixD backend_matmul(const MatrixD& a, const MatrixD& b,
                                     ComputeBackend backend);

/// C = A * B^T on the selected backend (the QK^T shape).
[[nodiscard]] MatrixD backend_matmul_transposed(const MatrixD& a,
                                                const MatrixD& b,
                                                ComputeBackend backend);

/// Numerically-stable row softmax on the selected backend.
[[nodiscard]] MatrixD backend_row_softmax(const MatrixD& scores,
                                          ComputeBackend backend);

/// C = A * B with the ABFT checksum pair fused into the product tiles.
///
/// `dtype` is the storage format of the materialized product: each output
/// row is rounded through it at write-back (while the row block is still
/// cache-hot on the SIMD path) and `actual` is reduced over the *rounded*
/// values — so the pair's fault-free residual is exactly the output
/// quantization error the calibration model bounds, and a bit flip in the
/// stored product still breaks the Σ C identity. `predicted` stays in the
/// wide accumulator format (input-side checksums never materialize).
/// kF32 (the default) is the identity: bit-identical to the pre-dtype path.
[[nodiscard]] FusedMatmul backend_matmul_fused(const MatrixD& a,
                                               const MatrixD& b,
                                               ComputeBackend backend,
                                               DType dtype = DType::kF32);

/// y = x W + bias with the fused checksum pair; `bias` may be empty, else
/// bias.size() == W.cols(). predicted includes the rows·Σbias term, actual
/// is taken over the biased (and dtype-rounded — see backend_matmul_fused)
/// output — the Linear::checked_forward identity. With `cached`, predicted
/// takes rowsum(W) and Σb from it instead of the live W and bias (the
/// caller's construction-time checksums: a weight upset after construction
/// then breaks the identity instead of entering both sides of it).
[[nodiscard]] FusedMatmul backend_linear_fused(
    const MatrixD& x, const MatrixD& w, std::span<const double> bias,
    ComputeBackend backend, DType dtype = DType::kF32,
    const InputChecksums* cached = nullptr);

}  // namespace flashabft
