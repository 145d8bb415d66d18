#include "tensor/backend.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>

#include "tensor/product_tile.hpp"
#include "tensor/tensor_ops.hpp"

namespace flashabft {

namespace {

std::atomic<ComputeBackend> g_default_backend{ComputeBackend::kScalar};

/// The product half of the microkernel for C rows [i0, i_end), C += A B.
/// Every C element accumulates a_ik·b_kj in ascending k — the scalar
/// `matmul` order — and nothing here reduces across lanes, so every compile
/// is bit-identical. The AVX-512F compile runs the register tile
/// (tensor/product_tile.hpp). The narrower ones keep a block of
/// kSimdRowTile C rows live across a kSimdDepthTile-deep K sweep with the j
/// loop as the vector axis: at 16 ymm registers the tile spills, and this
/// order measured faster than the weight-stationary one there.
template <WideIsa isa>
[[gnu::always_inline]] inline void product_row_block_body(const MatrixD& a,
                                                          const MatrixD& b,
                                                          MatrixD& c,
                                                          std::size_t i0,
                                                          std::size_t i_end) {
  const std::size_t depth = a.cols();
  const std::size_t n = b.cols();
  if constexpr (isa == WideIsa::kAvx512f) {
    product_tile::tiled_product</*kSkipZeros=*/false>(
        a.row(i0).data(), depth, b.flat().data(), n, c.row(i0).data(),
        i_end - i0);
  } else {
    for (std::size_t k0 = 0; k0 < depth; k0 += kSimdDepthTile) {
      const std::size_t k_end = std::min(k0 + kSimdDepthTile, depth);
      for (std::size_t i = i0; i < i_end; ++i) {
        const double* a_row = a.row(i).data();
        double* c_row = c.row(i).data();
        for (std::size_t k = k0; k < k_end; ++k) {
          simd::axpy(c_row, a_row[k], b.row(k).data(), n);
        }
      }
    }
  }
}
FLASHABFT_WIDE_KERNEL(void, product_row_block,
                      (const MatrixD& a, const MatrixD& b, MatrixD& c,
                       std::size_t i0, std::size_t i_end),
                      (a, b, c, i0, i_end))

/// The shared blocked microkernel: C = A * B [+ bias], optionally
/// accumulating colsum(A) and Σ C in-tile. Each finished C row block is
/// reduced (and biased) while still cache-hot — no second pass over C. The
/// reductions stay on the baseline ISA, so the checksum pair keeps its lane
/// order whichever product compile ran.
FusedMatmul simd_matmul_impl(const MatrixD& a, const MatrixD& b,
                             std::span<const double> bias, bool fuse_checks,
                             DType dtype = DType::kF32,
                             const InputChecksums* cached = nullptr) {
  const std::size_t m = a.rows();
  const std::size_t depth = a.cols();
  const std::size_t n = b.cols();

  FusedMatmul result;
  result.c = MatrixD(m, n);
  std::vector<double> col_a(fuse_checks ? depth : 0, 0.0);
  double actual = 0.0;

  for (std::size_t i0 = 0; i0 < m; i0 += kSimdRowTile) {
    const std::size_t i_end = std::min(i0 + kSimdRowTile, m);
    if (fuse_checks) {
      for (std::size_t i = i0; i < i_end; ++i) {
        const double* a_row = a.row(i).data();
        for (std::size_t k = 0; k < depth; ++k) col_a[k] += a_row[k];
      }
    }
    product_row_block(a, b, result.c, i0, i_end);
    // Finalize this row block while its C rows are hot: bias, storage
    // write-back rounding, then the actual Σ over what was stored.
    for (std::size_t i = i0; i < i_end; ++i) {
      double* c_row = result.c.row(i).data();
      if (!bias.empty()) {
        const double* b_ptr = bias.data();
        FLASHABFT_PRAGMA(omp simd)
        for (std::size_t j = 0; j < n; ++j) c_row[j] += b_ptr[j];
      }
      dtype_round_span({c_row, n}, dtype);
      if (fuse_checks) actual += simd::sum(c_row, n);
    }
  }

  if (fuse_checks) {
    if (cached != nullptr) {
      result.predicted = simd::dot(col_a.data(), cached->row_w.data(), depth);
      if (!bias.empty()) result.predicted += double(m) * cached->bias_sum;
    } else {
      // rowsum(B): input-side checksum, one vectorized streaming pass.
      std::vector<double> row_b(depth, 0.0);
      for (std::size_t k = 0; k < depth; ++k) {
        row_b[k] = simd::sum(b.row(k).data(), n);
      }
      result.predicted = simd::dot(col_a.data(), row_b.data(), depth);
      if (!bias.empty()) {
        result.predicted += double(m) * simd::sum(bias.data(), bias.size());
      }
    }
    result.actual = actual;
  }
  return result;
}

MatrixD simd_matmul_transposed(const MatrixD& a, const MatrixD& b) {
  const std::size_t m = a.rows();
  const std::size_t n = b.rows();
  const std::size_t depth = a.cols();
  MatrixD c(m, n);
  for (std::size_t i = 0; i < m; ++i) {
    const double* a_row = a.row(i).data();
    double* c_row = c.row(i).data();
    for (std::size_t j = 0; j < n; ++j) {
      c_row[j] = simd::dot(a_row, b.row(j).data(), depth);
    }
  }
  return c;
}

MatrixD simd_row_softmax(const MatrixD& scores) {
  MatrixD out(scores.rows(), scores.cols());
  const std::size_t n = scores.cols();
  for (std::size_t i = 0; i < scores.rows(); ++i) {
    const double* s_row = scores.row(i).data();
    double* o_row = out.row(i).data();
    const double m = simd::max(s_row, n);
    double denom = 0.0;
    for (std::size_t j = 0; j < n; ++j) {
      o_row[j] = std::exp(s_row[j] - m);
      denom += o_row[j];
    }
    const double inv = 1.0 / denom;
    FLASHABFT_PRAGMA(omp simd)
    for (std::size_t j = 0; j < n; ++j) o_row[j] *= inv;
  }
  return out;
}

/// Scalar fused product: the reference path computes the same pair with
/// the classic second-pass checksums (documenting exactly what fusion
/// removes).
FusedMatmul scalar_fused(const MatrixD& a, const MatrixD& b,
                         std::span<const double> bias,
                         DType dtype = DType::kF32,
                         const InputChecksums* cached = nullptr) {
  FusedMatmul result;
  result.c = matmul(a, b);
  const std::vector<double> col_a = column_sums(a);
  const std::vector<double> live_row_b =
      cached != nullptr ? std::vector<double>{} : row_sums(b);
  const std::vector<double>& row_b =
      cached != nullptr ? cached->row_w : live_row_b;
  for (std::size_t k = 0; k < col_a.size(); ++k) {
    result.predicted += col_a[k] * row_b[k];
  }
  if (!bias.empty()) {
    double bias_sum = 0.0;
    if (cached != nullptr) {
      bias_sum = cached->bias_sum;
    } else {
      for (const double v : bias) bias_sum += v;
    }
    result.predicted += double(a.rows()) * bias_sum;
    for (std::size_t i = 0; i < result.c.rows(); ++i) {
      for (std::size_t j = 0; j < result.c.cols(); ++j) {
        result.c(i, j) += bias[j];
      }
    }
  }
  // Same write-back contract as the tiled path: the stored product is the
  // rounded one, and actual sums what was stored.
  dtype_round_span(result.c.flat(), dtype);
  result.actual = element_sum(result.c);
  return result;
}

WideIsa widest_supported_isa() {
  if (cpu_has_avx512f()) return WideIsa::kAvx512f;
  if (cpu_has_avx2()) return WideIsa::kAvx2;
  return WideIsa::kBaseline;
}

/// A function-local static, so a FLASHABFT_WIDE_KERNEL call from another
/// translation unit's static initializer still sees the probed value.
std::atomic<WideIsa>& wide_isa_slot() {
  static std::atomic<WideIsa> slot{widest_supported_isa()};
  return slot;
}

}  // namespace

const char* wide_isa_name(WideIsa isa) {
  switch (isa) {
    case WideIsa::kBaseline: return "baseline";
    case WideIsa::kAvx2: return "avx2";
    case WideIsa::kAvx512f: return "avx512f";
  }
  return "?";
}

bool cpu_has_avx2() {
#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
  static const bool has = [] {
    __builtin_cpu_init();
    return __builtin_cpu_supports("avx2") != 0;
  }();
  return has;
#else
  return false;
#endif
}

bool cpu_has_avx512f() {
#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
  static const bool has = [] {
    __builtin_cpu_init();
    return __builtin_cpu_supports("avx512f") != 0;
  }();
  return has;
#else
  return false;
#endif
}

bool cpu_supports(WideIsa isa) {
  switch (isa) {
    case WideIsa::kBaseline: return true;
    case WideIsa::kAvx2: return cpu_has_avx2();
    case WideIsa::kAvx512f: return cpu_has_avx512f();
  }
  return false;
}

WideIsa wide_isa() { return wide_isa_slot().load(std::memory_order_relaxed); }

void pin_wide_isa(WideIsa isa) {
  FLASHABFT_ENSURE_MSG(cpu_supports(isa), "this CPU does not execute "
                                              << wide_isa_name(isa));
  wide_isa_slot().store(isa, std::memory_order_relaxed);
}

const char* backend_name(ComputeBackend backend) {
  switch (backend) {
    case ComputeBackend::kScalar: return "scalar";
    case ComputeBackend::kSimd: return "simd";
  }
  return "?";
}

std::optional<ComputeBackend> parse_backend(std::string_view name) {
  if (name == "scalar") return ComputeBackend::kScalar;
  if (name == "simd") return ComputeBackend::kSimd;
  return std::nullopt;
}

ComputeBackend default_backend() {
  return g_default_backend.load(std::memory_order_relaxed);
}

void set_default_backend(ComputeBackend backend) {
  g_default_backend.store(backend, std::memory_order_relaxed);
}

MatrixD backend_matmul(const MatrixD& a, const MatrixD& b,
                       ComputeBackend backend) {
  FLASHABFT_ENSURE_MSG(a.cols() == b.rows(), "backend_matmul "
                                                 << a.rows() << 'x' << a.cols()
                                                 << " * " << b.rows() << 'x'
                                                 << b.cols());
  if (backend == ComputeBackend::kScalar) return matmul(a, b);
  return simd_matmul_impl(a, b, {}, /*fuse_checks=*/false).c;
}

MatrixD backend_matmul_transposed(const MatrixD& a, const MatrixD& b,
                                  ComputeBackend backend) {
  FLASHABFT_ENSURE_MSG(a.cols() == b.cols(),
                       "backend_matmul_transposed inner dims "
                           << a.cols() << " vs " << b.cols());
  if (backend == ComputeBackend::kScalar) return matmul_transposed(a, b);
  return simd_matmul_transposed(a, b);
}

MatrixD backend_row_softmax(const MatrixD& scores, ComputeBackend backend) {
  if (backend == ComputeBackend::kScalar) return row_softmax(scores);
  return simd_row_softmax(scores);
}

FusedMatmul backend_matmul_fused(const MatrixD& a, const MatrixD& b,
                                 ComputeBackend backend, DType dtype) {
  FLASHABFT_ENSURE(a.cols() == b.rows());
  if (backend == ComputeBackend::kScalar) {
    return scalar_fused(a, b, {}, dtype);
  }
  return simd_matmul_impl(a, b, {}, /*fuse_checks=*/true, dtype);
}

FusedMatmul backend_linear_fused(const MatrixD& x, const MatrixD& w,
                                 std::span<const double> bias,
                                 ComputeBackend backend, DType dtype,
                                 const InputChecksums* cached) {
  FLASHABFT_ENSURE(x.cols() == w.rows());
  FLASHABFT_ENSURE_MSG(bias.empty() || bias.size() == w.cols(),
                       "bias size " << bias.size() << " != " << w.cols());
  FLASHABFT_ENSURE_MSG(cached == nullptr || cached->row_w.size() == w.rows(),
                       "cached rowsum(W) of " << cached->row_w.size()
                                              << " rows != " << w.rows());
  if (backend == ComputeBackend::kScalar) {
    return scalar_fused(x, w, bias, dtype, cached);
  }
  return simd_matmul_impl(x, w, bias, /*fuse_checks=*/true, dtype, cached);
}

}  // namespace flashabft
