// Backend parity suite: the SIMD kernels must agree with the scalar
// reference within rounding for every shape — especially shapes that are
// not multiples of the microkernel tiles — the fused checksum pairs must
// match their second-pass definitions, and fault detection/recovery must
// behave identically on both backends (alarm parity).
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

#include "core/flash_abft.hpp"
#include "core/guarded_op.hpp"
#include "core/matmul_abft.hpp"
#include "model/linear.hpp"
#include "model/multi_head_attention.hpp"
#include "tensor/backend.hpp"
#include "tensor/tensor_ops.hpp"

namespace flashabft {
namespace {

struct Shape {
  std::size_t m, k, n;
};

// Odd shapes around the kSimdRowTile=4 / kSimdDepthTile=64 boundaries:
// single row/column/depth, primes, one-past-tile, and exact multiples.
const std::vector<Shape>& odd_shapes() {
  static const std::vector<Shape> shapes = {
      {1, 1, 1},   {1, 3, 5},    {3, 1, 7},    {5, 7, 1},
      {4, 64, 8},  {17, 31, 13}, {33, 65, 9},  {5, 129, 66},
      {64, 64, 64}};
  return shapes;
}

MatrixD random_matrix(std::size_t rows, std::size_t cols,
                      std::uint64_t seed) {
  Rng rng(seed);
  MatrixD m(rows, cols);
  fill_gaussian(m, rng);
  return m;
}

/// Rounding-level agreement, scaled by the reduction depth and magnitude.
void expect_matrix_near(const MatrixD& a, const MatrixD& b,
                        std::size_t depth) {
  const double scale = std::max(1.0, std::max(max_abs(a), max_abs(b)));
  EXPECT_LE(max_abs_diff(a, b), 1e-12 * double(depth + 1) * scale);
}

void expect_close(double a, double b, double tol) {
  EXPECT_NEAR(a, b, tol * std::max(1.0, std::max(std::fabs(a),
                                                 std::fabs(b))));
}

TEST(Backend, ParseAndName) {
  EXPECT_EQ(parse_backend("scalar"), ComputeBackend::kScalar);
  EXPECT_EQ(parse_backend("simd"), ComputeBackend::kSimd);
  EXPECT_FALSE(parse_backend("avx512").has_value());
  EXPECT_STREQ(backend_name(ComputeBackend::kScalar), "scalar");
  EXPECT_STREQ(backend_name(ComputeBackend::kSimd), "simd");
}

TEST(Backend, DefaultBackendIsProcessWide) {
  EXPECT_EQ(default_backend(), ComputeBackend::kScalar);
  set_default_backend(ComputeBackend::kSimd);
  EXPECT_EQ(default_backend(), ComputeBackend::kSimd);
  set_default_backend(ComputeBackend::kScalar);
}

TEST(Backend, MatmulParityAcrossOddShapes) {
  for (const Shape& shape : odd_shapes()) {
    const MatrixD a = random_matrix(shape.m, shape.k, shape.m * 977 + 1);
    const MatrixD b = random_matrix(shape.k, shape.n, shape.n * 131 + 2);
    const MatrixD scalar = backend_matmul(a, b, ComputeBackend::kScalar);
    const MatrixD simd = backend_matmul(a, b, ComputeBackend::kSimd);
    expect_matrix_near(scalar, simd, shape.k);
  }
}

TEST(Backend, MatmulTransposedParityAcrossOddShapes) {
  for (const Shape& shape : odd_shapes()) {
    const MatrixD a = random_matrix(shape.m, shape.k, shape.m * 31 + 5);
    const MatrixD b = random_matrix(shape.n, shape.k, shape.n * 17 + 6);
    const MatrixD scalar =
        backend_matmul_transposed(a, b, ComputeBackend::kScalar);
    const MatrixD simd =
        backend_matmul_transposed(a, b, ComputeBackend::kSimd);
    expect_matrix_near(scalar, simd, shape.k);
  }
}

TEST(Backend, RowSoftmaxParity) {
  for (const std::size_t cols : {1u, 2u, 7u, 64u, 129u}) {
    const MatrixD scores = random_matrix(9, cols, cols * 709 + 3);
    const MatrixD scalar =
        backend_row_softmax(scores, ComputeBackend::kScalar);
    const MatrixD simd = backend_row_softmax(scores, ComputeBackend::kSimd);
    expect_matrix_near(scalar, simd, cols);
    for (std::size_t i = 0; i < simd.rows(); ++i) {
      double row_sum = 0.0;
      for (std::size_t j = 0; j < cols; ++j) row_sum += simd(i, j);
      EXPECT_NEAR(row_sum, 1.0, 1e-12);
    }
  }
}

TEST(Backend, FusedChecksumMatchesSecondPassDefinition) {
  for (const ComputeBackend backend :
       {ComputeBackend::kScalar, ComputeBackend::kSimd}) {
    for (const Shape& shape : odd_shapes()) {
      const MatrixD a = random_matrix(shape.m, shape.k, shape.k * 73 + 9);
      const MatrixD b = random_matrix(shape.k, shape.n, shape.k * 41 + 10);
      const FusedMatmul fused = backend_matmul_fused(a, b, backend);
      expect_matrix_near(fused.c, matmul(a, b), shape.k);

      // The fused pair must equal the classic second-pass checksums.
      const std::vector<double> col_a = column_sums(a);
      const std::vector<double> row_b = row_sums(b);
      double predicted = 0.0;
      for (std::size_t x = 0; x < col_a.size(); ++x) {
        predicted += col_a[x] * row_b[x];
      }
      const double tol = 1e-11 * double(shape.m * shape.n + 1);
      expect_close(fused.predicted, predicted, tol);
      expect_close(fused.actual, element_sum(fused.c), tol);
      // Clean execution: the pair itself must agree.
      expect_close(fused.predicted, fused.actual, tol);
    }
  }
}

TEST(Backend, LinearFusedCoversBias) {
  Rng rng(2026);
  Linear layer = Linear::random_init(37, 19, rng);
  for (std::size_t j = 0; j < layer.bias().size(); ++j) {
    layer.bias()[j] = 0.01 * double(j + 1);
  }
  const MatrixD x = random_matrix(11, 37, 77);
  const MatrixD golden = layer.forward(x);
  for (const ComputeBackend backend :
       {ComputeBackend::kScalar, ComputeBackend::kSimd}) {
    const FusedMatmul fused =
        backend_linear_fused(x, layer.weight(), layer.bias(), backend);
    expect_matrix_near(fused.c, golden, 37);
    expect_close(fused.predicted, fused.actual, 1e-10);

    const CheckedOp op = layer.checked_forward(x, KernelContext{backend});
    expect_matrix_near(op.output, golden, 37);
    expect_close(op.check.predicted, op.check.actual, 1e-10);
  }
}

TEST(Backend, Dot4IsFourDotsBitwise) {
  // The attention kernel's score sweep relies on it: every output of dot4
  // carries dot()'s bits, odd and tile-straddling lengths included.
  for (const std::size_t n : {1u, 2u, 3u, 7u, 8u, 15u, 16u, 17u, 63u, 64u,
                              65u, 129u}) {
    const MatrixD a = random_matrix(1, n, 100 + n);
    const MatrixD b = random_matrix(4, n, 200 + n);
    double out[4];
    simd::dot4(a.row(0).data(), b.row(0).data(), b.row(1).data(),
               b.row(2).data(), b.row(3).data(), n, out);
    for (std::size_t j = 0; j < 4; ++j) {
      EXPECT_EQ(std::bit_cast<std::uint64_t>(out[j]),
                std::bit_cast<std::uint64_t>(
                    simd::dot(a.row(0).data(), b.row(j).data(), n)))
          << "n " << n << " row " << j;
    }
  }
}

TEST(Backend, FlashAbftParityIncludingMasksAndRectangles) {
  struct Case {
    std::size_t n_q, n_k, d;
    AttentionMask mask;
  };
  const std::vector<Case> cases = {
      {1, 1, 1, AttentionMask::kNone},
      {23, 23, 16, AttentionMask::kNone},
      {23, 23, 16, AttentionMask::kCausal},
      {9, 23, 7, AttentionMask::kNone},   // cross-attention, short queries
      {23, 9, 7, AttentionMask::kNone},   // cross-attention, short memory
      {33, 65, 64, AttentionMask::kNone},
  };
  for (const Case& c : cases) {
    const MatrixD q = random_matrix(c.n_q, c.d, c.n_q * 3 + 1);
    const MatrixD k = random_matrix(c.n_k, c.d, c.n_k * 5 + 2);
    const MatrixD v = random_matrix(c.n_k, c.d, c.n_k * 7 + 3);
    AttentionConfig cfg;
    cfg.seq_len = c.n_k;
    cfg.head_dim = c.d;
    cfg.scale = 1.0 / std::sqrt(double(c.d));
    cfg.mask = c.mask;

    FlashAbftOptions simd_options;
    simd_options.context.backend = ComputeBackend::kSimd;
    const CheckedAttention scalar = flash_abft_attention(q, k, v, cfg);
    const CheckedAttention simd =
        flash_abft_attention(q, k, v, cfg, simd_options);

    expect_matrix_near(scalar.output, simd.output, c.n_k * c.d);
    const double tol = 1e-10 * double(c.n_q + 1);
    expect_close(scalar.predicted_checksum, simd.predicted_checksum, tol);
    expect_close(scalar.actual_checksum, simd.actual_checksum, tol);
    // Both runs are clean: each backend's own pair must agree.
    EXPECT_LT(simd.residual(), 1e-8);
  }
}

TEST(Backend, BlockedFlashParityAcrossBlockSizes) {
  const MatrixD q = random_matrix(29, 16, 11);
  const MatrixD k = random_matrix(29, 16, 12);
  const MatrixD v = random_matrix(29, 16, 13);
  AttentionConfig cfg;
  cfg.seq_len = 29;
  cfg.head_dim = 16;
  cfg.scale = 0.25;

  // SIMD over key_block-row tiles: bit-equal to the SIMD single-span run,
  // within rounding of the scalar one.
  const CheckedAttention golden = flash_abft_attention(q, k, v, cfg);
  FlashAbftOptions options;
  options.context.backend = ComputeBackend::kSimd;
  const CheckedAttention whole = flash_abft_attention(q, k, v, cfg, options);
  for (const std::size_t block : {1u, 5u, 64u, 1000u}) {
    std::vector<KvChunk> tiles;
    for (std::size_t r = 0; r < k.rows(); r += block) {
      tiles.push_back({k.row(r).data(), v.row(r).data(),
                       std::min(block, k.rows() - r)});
    }
    const CheckedAttention tiled =
        flash_abft_chunks(q, tiles, k.cols(), 0, cfg, options);
    EXPECT_EQ(whole.output, tiled.output) << block;
    EXPECT_EQ(whole.predicted_checksum, tiled.predicted_checksum) << block;
    EXPECT_EQ(whole.actual_checksum, tiled.actual_checksum) << block;
    expect_matrix_near(golden.output, tiled.output, 29 * 16);
    expect_close(golden.predicted_checksum, tiled.predicted_checksum,
                 1e-10);
  }
}

TEST(Backend, TwoStepAbftParity) {
  const MatrixD q = random_matrix(21, 13, 31);
  const MatrixD k = random_matrix(17, 13, 32);
  const MatrixD v = random_matrix(17, 13, 33);
  AttentionConfig cfg;
  cfg.seq_len = 17;
  cfg.head_dim = 13;
  cfg.scale = 1.0 / std::sqrt(13.0);

  const TwoStepAbftAttention scalar = two_step_abft_attention(q, k, v, cfg);
  const TwoStepAbftAttention simd =
      two_step_abft_attention(q, k, v, cfg,
                              KernelContext{ComputeBackend::kSimd});
  expect_matrix_near(scalar.output, simd.output, 17 * 13);
  expect_close(scalar.qk_check.predicted, simd.qk_check.predicted, 1e-10);
  expect_close(scalar.sv_check.predicted, simd.sv_check.predicted, 1e-10);
  EXPECT_LT(simd.qk_check.residual(), 1e-8);
  EXPECT_LT(simd.sv_check.residual(), 1e-8);
}

GuardedExecutor::Options executor_options(ComputeBackend backend) {
  GuardedExecutor::Options options;
  options.compute = backend;
  return options;
}

// --- Bit-exact product kernels -------------------------------------------
//
// The vectorized product loops (the AVX2 axpy compile and the AVX-512F
// register tile included) only widen elementwise mul/add, so every output
// element is the same IEEE sequence as the scalar `matmul`: k ascending,
// zero x entries contributing nothing, bias added after the full sum. These
// tests hold that to the bit on every compile the host CPU executes, over
// shapes that are not multiples of the row tile (4), the depth tile (64),
// the register tile (4 rows x 32 columns, k in chunks of 8) or the
// weight-stationary column block (256).

/// The same IEEE doubles, not merely close ones.
void expect_bitwise_equal(const MatrixD& got, const MatrixD& want,
                          const std::string& what) {
  ASSERT_EQ(got.rows(), want.rows()) << what;
  ASSERT_EQ(got.cols(), want.cols()) << what;
  for (std::size_t i = 0; i < got.rows(); ++i) {
    for (std::size_t j = 0; j < got.cols(); ++j) {
      if (std::bit_cast<std::uint64_t>(got(i, j)) !=
          std::bit_cast<std::uint64_t>(want(i, j))) {
        ADD_FAILURE() << what << ": element (" << i << ", " << j << ") is "
                      << got(i, j) << ", reference " << want(i, j);
        return;
      }
    }
  }
}

struct LinearShape {
  std::size_t inner, out;
};

const std::vector<LinearShape>& bit_exact_shapes() {
  // The second line falls off the register tile: output widths one short
  // of, at and one past its 32 columns and the 256-column block, four full
  // blocks, and inner widths around the k chunk of 8 plus a 1025-deep one.
  static const std::vector<LinearShape> shapes = {
      {1, 1},  {3, 5},   {63, 7},    {65, 66},  {130, 257}, {257, 300},
      {31, 513}, {7, 31}, {8, 32},   {9, 33},   {9, 255},   {8, 257},
      {7, 1024}, {1025, 33}};
  return shapes;
}

/// Row counts: every remainder of the 4-row tile, then 16 (the first
/// stacked decode batch that takes the tiled matmul) and 33.
const std::vector<std::size_t>& bit_exact_rows() {
  static const std::vector<std::size_t> rows = {1, 2, 3, 4,  5,
                                                6, 7, 8, 9, 16, 33};
  return rows;
}

}  // namespace

// gtest names the parameter of a failing BitExactPerIsa case with this.
void PrintTo(WideIsa isa, std::ostream* os) { *os << wide_isa_name(isa); }

namespace {

/// Runs each test on one FLASHABFT_WIDE_KERNEL compile (the parameter),
/// skipped when the host CPU does not execute it.
class BitExactPerIsa : public ::testing::TestWithParam<WideIsa> {
 protected:
  void SetUp() override {
    if (!cpu_supports(GetParam())) {
      GTEST_SKIP() << wide_isa_name(GetParam())
                   << " is not supported by this CPU";
    }
    pin_wide_isa(GetParam());
  }
  void TearDown() override { pin_wide_isa(before_); }

 private:
  WideIsa before_ = wide_isa();
};

INSTANTIATE_TEST_SUITE_P(
    Isa, BitExactPerIsa,
    ::testing::Values(WideIsa::kBaseline, WideIsa::kAvx2, WideIsa::kAvx512f),
    [](const ::testing::TestParamInfo<WideIsa>& info) {
      return std::string(wide_isa_name(info.param));
    });

TEST(Backend, WideIsaDispatchDefaultsToTheWidestSupportedCompile) {
  WideIsa widest = WideIsa::kBaseline;
  for (const WideIsa isa : {WideIsa::kAvx2, WideIsa::kAvx512f}) {
    if (cpu_supports(isa)) widest = isa;
  }
  EXPECT_EQ(wide_isa(), widest);
  EXPECT_TRUE(cpu_supports(WideIsa::kBaseline));
  EXPECT_EQ(cpu_supports(WideIsa::kAvx2), cpu_has_avx2());
  EXPECT_EQ(cpu_supports(WideIsa::kAvx512f), cpu_has_avx512f());
}

/// Gaussian input with exact zeros: every third entry, the whole second
/// row (when there is one), and a negative zero in the last row.
MatrixD input_with_zeros(std::size_t rows, std::size_t inner,
                         std::uint64_t seed) {
  MatrixD x = random_matrix(rows, inner, seed);
  for (std::size_t i = 0; i < rows; ++i) {
    for (std::size_t k = 0; k < inner; ++k) {
      if ((i + k) % 3 == 0 || i == 1) x(i, k) = 0.0;
    }
  }
  x(rows - 1, 0) = -0.0;
  return x;
}

/// tensor_ops `matmul` plus the bias row, added after the full sum.
MatrixD reference_linear(const MatrixD& x, const MatrixD& w,
                         std::span<const double> bias) {
  MatrixD y = matmul(x, w);
  if (!bias.empty()) {
    for (std::size_t i = 0; i < y.rows(); ++i) {
      for (std::size_t j = 0; j < y.cols(); ++j) y(i, j) += bias[j];
    }
  }
  return y;
}

Linear bit_exact_layer(const LinearShape& shape, bool with_bias) {
  Rng rng(shape.inner * 1000 + shape.out);
  Linear layer = Linear::random_init(shape.inner, shape.out, rng);
  if (with_bias) {
    for (double& b : layer.bias()) b = rng.next_gaussian();
  } else {
    layer.bias().clear();
  }
  return layer;
}

TEST_P(BitExactPerIsa, SimdMatmulIsBitExactWithReference) {
  for (const LinearShape& shape : bit_exact_shapes()) {
    const MatrixD w = random_matrix(shape.inner, shape.out, shape.out + 5);
    for (const std::size_t rows : bit_exact_rows()) {
      const MatrixD x = input_with_zeros(rows, shape.inner, rows * 31);
      expect_bitwise_equal(backend_matmul(x, w, ComputeBackend::kSimd),
                           matmul(x, w),
                           "backend_matmul " + std::to_string(rows) + "x" +
                               std::to_string(shape.inner) + "x" +
                               std::to_string(shape.out));
    }
  }
}

TEST_P(BitExactPerIsa, SimdLinearFusedIsBitExactWithReference) {
  for (const bool with_bias : {false, true}) {
    for (const LinearShape& shape : bit_exact_shapes()) {
      const Linear layer = bit_exact_layer(shape, with_bias);
      const Linear::InputChecksums cached = layer.input_checksums();
      for (const std::size_t rows : bit_exact_rows()) {
        const MatrixD x = input_with_zeros(rows, shape.inner, rows * 37);
        const MatrixD want =
            reference_linear(x, layer.weight(), layer.bias());
        const std::string what =
            "backend_linear_fused " + std::to_string(rows) + "x" +
            std::to_string(shape.inner) + "x" + std::to_string(shape.out) +
            (with_bias ? " +bias" : "");
        expect_bitwise_equal(
            backend_linear_fused(x, layer.weight(), layer.bias(),
                                 ComputeBackend::kSimd)
                .c,
            want, what);
        expect_bitwise_equal(
            backend_linear_fused(x, layer.weight(), layer.bias(),
                                 ComputeBackend::kSimd, DType::kF32, &cached)
                .c,
            want, what + " (cached sums)");
      }
    }
  }
}

TEST_P(BitExactPerIsa, StackedDecodeLinearIsBitExactWithReference) {
  // guarded_linear_batch's shared product: one row per group (the decode
  // sweep's shape) and one group holding every row, on both backends. Up to
  // 15 rows this is the weight-stationary raw loop; from 16 rows kSimd takes
  // the tiled SIMD microkernel.
  std::vector<std::size_t> row_counts = bit_exact_rows();
  row_counts.push_back(17);
  for (const ComputeBackend backend :
       {ComputeBackend::kScalar, ComputeBackend::kSimd}) {
    const GuardedExecutor executor(executor_options(backend));
    for (const bool with_bias : {false, true}) {
      for (const LinearShape& shape : bit_exact_shapes()) {
        const Linear layer = bit_exact_layer(shape, with_bias);
        for (const std::size_t rows : row_counts) {
          const MatrixD x = input_with_zeros(rows, shape.inner, rows * 41);
          const MatrixD want =
              reference_linear(x, layer.weight(), layer.bias());
          const std::string what =
              std::string(backend_name(backend)) + " guarded_linear_batch " +
              std::to_string(rows) + "x" + std::to_string(shape.inner) +
              "x" + std::to_string(shape.out) + (with_bias ? " +bias" : "");
          for (const bool per_row : {true, false}) {
            const std::vector<std::size_t> groups =
                per_row ? std::vector<std::size_t>(rows, 1)
                        : std::vector<std::size_t>{rows};
            std::vector<const GuardedExecutor*> executors(groups.size(),
                                                          &executor);
            std::vector<LayerReport> reports(groups.size());
            std::vector<LayerReport*> report_ptrs;
            for (LayerReport& report : reports) report_ptrs.push_back(&report);
            const std::vector<MatrixD> outputs = guarded_linear_batch(
                layer, x, groups, OpKind::kProjection, 0, executors,
                report_ptrs);
            MatrixD got(rows, shape.out);
            std::size_t base = 0;
            for (const MatrixD& group : outputs) {
              for (std::size_t r = 0; r < group.rows(); ++r, ++base) {
                for (std::size_t j = 0; j < shape.out; ++j) {
                  got(base, j) = group(r, j);
                }
              }
            }
            expect_bitwise_equal(got, want, what);
            for (const LayerReport& report : reports) {
              EXPECT_TRUE(report.all_accepted_clean()) << what;
            }
          }
        }
      }
    }
  }
}

TEST_P(BitExactPerIsa, SimdFlashAbftIsBitExactWithBaselineCompile) {
  // The attention kernel's output pass is a wide kernel: every compile must
  // give the baseline compile's bits, across head widths that leave column
  // tails at every vector width, both masks and a strided head slice.
  for (const std::size_t d : {1u, 7u, 8u, 24u, 64u, 70u}) {
    for (const AttentionMask mask :
         {AttentionMask::kNone, AttentionMask::kCausal}) {
      const MatrixD q = random_matrix(9, d, 300 + d);
      const MatrixD k = random_matrix(9, 3 * d, 400 + d);
      const MatrixD v = random_matrix(9, 3 * d, 500 + d);
      AttentionConfig cfg;
      cfg.seq_len = 9;
      cfg.head_dim = d;
      cfg.scale = 1.0 / std::sqrt(double(d));
      cfg.mask = mask;
      FlashAbftOptions options;
      options.context.backend = ComputeBackend::kSimd;
      const KvChunk rows[2] = {{k.row(0).data(), v.row(0).data(), 5},
                               {k.row(5).data(), v.row(5).data(), 4}};
      const auto run = [&] {
        return flash_abft_chunks(q, rows, 3 * d, d, cfg, options);
      };
      const CheckedAttention got = run();
      const WideIsa pinned = wide_isa();
      pin_wide_isa(WideIsa::kBaseline);
      const CheckedAttention want = run();
      pin_wide_isa(pinned);
      const std::string what = "d " + std::to_string(d) +
                               (mask == AttentionMask::kCausal ? " causal"
                                                               : "");
      expect_bitwise_equal(got.output, want.output, what);
      EXPECT_EQ(std::bit_cast<std::uint64_t>(got.predicted_checksum),
                std::bit_cast<std::uint64_t>(want.predicted_checksum))
          << what;
      EXPECT_EQ(std::bit_cast<std::uint64_t>(got.actual_checksum),
                std::bit_cast<std::uint64_t>(want.actual_checksum))
          << what;
    }
  }
}

TEST(Backend, LinearFusedCachedSumsKeepThePairAndCatchStaleWeights) {
  Rng rng(515);
  Linear layer = Linear::random_init(70, 45, rng);
  for (double& b : layer.bias()) b = 0.1 * rng.next_gaussian();
  const Linear::InputChecksums cached = layer.input_checksums();
  const MatrixD x = random_matrix(5, 70, 616);
  const std::vector<double> col_x = column_sums(x);
  for (const ComputeBackend backend :
       {ComputeBackend::kScalar, ComputeBackend::kSimd}) {
    const FusedMatmul live =
        backend_linear_fused(x, layer.weight(), layer.bias(), backend);
    const FusedMatmul from_cache = backend_linear_fused(
        x, layer.weight(), layer.bias(), backend, DType::kF32, &cached);
    expect_bitwise_equal(from_cache.c, live.c, "cached vs live output");
    EXPECT_EQ(from_cache.actual, live.actual);
    expect_close(from_cache.predicted, live.predicted, 1e-12);
    expect_close(from_cache.predicted, from_cache.actual, 1e-10);
  }
  // A weight upset after the sums were cached enters only the actual side
  // of the cached pair; the live pair re-derives it and stays consistent.
  layer.weight()(3, 7) += 0.75;
  for (const ComputeBackend backend :
       {ComputeBackend::kScalar, ComputeBackend::kSimd}) {
    const FusedMatmul live =
        backend_linear_fused(x, layer.weight(), layer.bias(), backend);
    const FusedMatmul stale = backend_linear_fused(
        x, layer.weight(), layer.bias(), backend, DType::kF32, &cached);
    expect_close(live.predicted, live.actual, 1e-10);
    expect_close(stale.actual - stale.predicted, 0.75 * col_x[3], 1e-9);
  }
}

TEST(Backend, AlarmParityUnderInjectedProjectionFault) {
  // The same transient fault (tampered output on the first attempt) must
  // alarm, retry, and recover identically on both backends.
  Rng rng(404);
  const Linear layer = Linear::random_init(24, 16, rng);
  const MatrixD x = random_matrix(6, 24, 55);

  for (const ComputeBackend backend :
       {ComputeBackend::kScalar, ComputeBackend::kSimd}) {
    GuardedExecutor executor(executor_options(backend));
    executor.set_tamper([](OpKind, std::size_t, std::size_t attempt,
                           CheckedOp& op) {
      // A datapath fault: the corrupted element flows into the actual
      // checksum (which is derived from the produced output), while the
      // input-side predicted checksum stays clean — the ABFT detection
      // case.
      if (attempt == 0) {
        op.output(0, 0) += 100.0;
        op.check.actual += 100.0;
      }
    });
    LayerReport report;
    const MatrixD out = guarded_linear(layer, x, OpKind::kProjection, 0,
                                       executor, report);
    ASSERT_EQ(report.ops.size(), 1u);
    EXPECT_EQ(report.ops[0].recovery, RecoveryStatus::kRecovered);
    EXPECT_EQ(report.ops[0].alarms, 1u);
    EXPECT_EQ(report.ops[0].verdict, CheckVerdict::kPass);
    expect_matrix_near(out, layer.forward(x), 24);
  }
}

TEST(Backend, AlarmParityUnderPersistentAttentionFault) {
  // A persistent fault (every guarded attempt tampered) must escalate to
  // the scalar reference fallback on both backends, with identical
  // report structure and a clean accepted output.
  Rng rng(405);
  MultiHeadAttention mha(32, 2, 16, rng);
  const MatrixD x = random_matrix(7, 32, 66);

  for (const ComputeBackend backend :
       {ComputeBackend::kScalar, ComputeBackend::kSimd}) {
    GuardedExecutor executor(executor_options(backend));
    executor.set_tamper([](OpKind kind, std::size_t index, std::size_t,
                           CheckedOp& op) {
      if (kind == OpKind::kAttentionFlashAbft && index == 1) {
        op.check.actual += 7.0;
      }
    });
    const MhaResult result =
        mha.forward(x, AttentionBackend::kFlashAbft, executor);
    EXPECT_TRUE(result.report.all_accepted_clean());
    EXPECT_EQ(result.report.count(OpKind::kReferenceFallback), 1u);
    const std::size_t recovered_or_escalated =
        result.report.alarms(OpKind::kAttentionFlashAbft);
    EXPECT_GT(recovered_or_escalated, 0u);
  }
}

TEST(Backend, MhaForwardParityAcrossBackends) {
  // End-to-end block parity: the whole guarded MHA forward (projections,
  // per-head flash attention, output projection) on SIMD matches scalar.
  Rng rng(406);
  MultiHeadAttention mha(48, 3, 16, rng);
  const MatrixD x = random_matrix(11, 48, 67);

  GuardedExecutor scalar_exec(executor_options(ComputeBackend::kScalar));
  GuardedExecutor simd_exec(executor_options(ComputeBackend::kSimd));
  const MhaResult scalar =
      mha.forward(x, AttentionBackend::kFlashAbft, scalar_exec,
                  AttentionMask::kCausal);
  const MhaResult simd = mha.forward(x, AttentionBackend::kFlashAbft,
                                     simd_exec, AttentionMask::kCausal);
  expect_matrix_near(scalar.output, simd.output, 48 * 11);
  EXPECT_TRUE(scalar.report.all_accepted_clean());
  EXPECT_TRUE(simd.report.all_accepted_clean());
  EXPECT_EQ(scalar.report.ops.size(), simd.report.ops.size());
}

}  // namespace
}  // namespace flashabft
