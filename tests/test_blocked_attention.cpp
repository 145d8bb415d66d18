// Tests of tiled Flash-ABFT: the chunk kernel with K/V cut into key_block-row
// spans (FlashAttention-2's B_c tiles). The per-query state carries across
// tiles exactly as across rows, so every tiling is bit-identical to the
// single-span run on both backends and in every storage dtype.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <tuple>
#include <vector>

#include "attention/reference_attention.hpp"
#include "core/flash_abft.hpp"
#include "tensor/tensor_ops.hpp"
#include "workload/generator.hpp"

namespace flashabft {
namespace {

AttentionConfig make_cfg(std::size_t n, std::size_t d,
                         AttentionMask mask = AttentionMask::kNone) {
  AttentionConfig cfg;
  cfg.seq_len = n;
  cfg.head_dim = d;
  cfg.scale = 1.0 / std::sqrt(double(d));
  cfg.mask = mask;
  return cfg;
}

FlashAbftOptions make_options(ComputeBackend backend, DType dtype) {
  FlashAbftOptions options;
  options.context.backend = backend;
  options.context.dtype = dtype;
  return options;
}

/// Alg. 3 over K/V cut into spans of `key_block` rows (the last shorter).
CheckedAttention tiled(const AttentionInputs& w, const AttentionConfig& cfg,
                       std::size_t key_block,
                       const FlashAbftOptions& options = {}) {
  std::vector<KvChunk> tiles;
  for (std::size_t r = 0; r < w.k.rows(); r += key_block) {
    tiles.push_back({w.k.row(r).data(), w.v.row(r).data(),
                     std::min(key_block, w.k.rows() - r)});
  }
  return flash_abft_chunks(w.q, tiles, w.k.cols(), 0, cfg, options);
}

/// Output and global checksum pair bit-equal.
void expect_same_run(const CheckedAttention& a, const CheckedAttention& b) {
  EXPECT_EQ(a.output, b.output);
  EXPECT_EQ(a.predicted_checksum, b.predicted_checksum);
  EXPECT_EQ(a.actual_checksum, b.actual_checksum);
}

constexpr ComputeBackend kBackends[] = {ComputeBackend::kScalar,
                                        ComputeBackend::kSimd};
constexpr DType kDtypes[] = {DType::kF32, DType::kBf16};

/// (tile rows, backend, storage dtype).
class BlockSizeSweep
    : public ::testing::TestWithParam<
          std::tuple<std::size_t, ComputeBackend, DType>> {};

TEST_P(BlockSizeSweep, OutputInvariantToTiling) {
  const auto [bc, backend, dtype] = GetParam();
  Rng rng(1000 + bc);
  const std::size_t n = 96, d = 32;
  const AttentionInputs w = generate_gaussian(n, d, rng);
  const AttentionConfig cfg = make_cfg(n, d);
  const FlashAbftOptions options = make_options(backend, dtype);
  expect_same_run(flash_abft_attention(w.q, w.k, w.v, cfg, options),
                  tiled(w, cfg, bc, options));
}

TEST_P(BlockSizeSweep, PerQueryChecksumsInvariantToTiling) {
  const auto [bc, backend, dtype] = GetParam();
  Rng rng(2000 + bc);
  const std::size_t n = 80, d = 16;
  const AttentionInputs w = generate_gaussian(n, d, rng);
  const AttentionConfig cfg = make_cfg(n, d);
  const FlashAbftOptions options = make_options(backend, dtype);
  const CheckedAttention whole = flash_abft_attention(w.q, w.k, w.v, cfg,
                                                      options);
  const CheckedAttention run = tiled(w, cfg, bc, options);
  EXPECT_EQ(run.per_query_predicted, whole.per_query_predicted);
  EXPECT_EQ(run.per_query_actual, whole.per_query_actual);
  EXPECT_EQ(run.stats.row_max, whole.stats.row_max);
  EXPECT_EQ(run.stats.row_sum_exp, whole.stats.row_sum_exp);
}

INSTANTIATE_TEST_SUITE_P(
    TileSizes, BlockSizeSweep,
    ::testing::Combine(::testing::Values(1, 2, 7, 16, 32, 64, 128, 1024),
                       ::testing::ValuesIn(kBackends),
                       ::testing::ValuesIn(kDtypes)));

TEST(BlockedFlashAbft, MatchesReference) {
  Rng rng(3);
  const std::size_t n = 64, d = 24;
  const AttentionInputs w = generate_gaussian(n, d, rng);
  const AttentionConfig cfg = make_cfg(n, d);
  const MatrixD ref = reference_attention(w.q, w.k, w.v, cfg);
  for (const ComputeBackend backend : kBackends) {
    const CheckedAttention run =
        tiled(w, cfg, 16, make_options(backend, DType::kF32));
    EXPECT_LT(max_abs_diff(run.output, ref), 1e-11) << backend_name(backend);
    for (const DType dtype : kDtypes) {
      const FlashAbftOptions options = make_options(backend, dtype);
      expect_same_run(flash_abft_attention(w.q, w.k, w.v, cfg, options),
                      tiled(w, cfg, 16, options));
    }
  }
}

TEST(BlockedFlashAbft, CausalMaskAcrossTiles) {
  Rng rng(5);
  const std::size_t n = 48, d = 8;
  const AttentionInputs w = generate_gaussian(n, d, rng);
  const AttentionConfig cfg = make_cfg(n, d, AttentionMask::kCausal);
  const MatrixD ref = reference_attention(w.q, w.k, w.v, cfg);
  for (const ComputeBackend backend : kBackends) {
    const CheckedAttention run =
        tiled(w, cfg, 13, make_options(backend, DType::kF32));
    EXPECT_LT(max_abs_diff(run.output, ref), 1e-11) << backend_name(backend);
    EXPECT_LT(run.residual(), 1e-9) << backend_name(backend);
    for (const DType dtype : kDtypes) {
      const FlashAbftOptions options = make_options(backend, dtype);
      expect_same_run(flash_abft_attention(w.q, w.k, w.v, cfg, options),
                      tiled(w, cfg, 13, options));
    }
  }
}

TEST(BlockedFlashAbft, TileLargerThanSequenceDegradesToUnblocked) {
  Rng rng(7);
  const std::size_t n = 20, d = 8;
  const AttentionInputs w = generate_gaussian(n, d, rng);
  const AttentionConfig cfg = make_cfg(n, d);
  for (const ComputeBackend backend : kBackends) {
    for (const DType dtype : kDtypes) {
      const FlashAbftOptions options = make_options(backend, dtype);
      expect_same_run(flash_abft_attention(w.q, w.k, w.v, cfg, options),
                      tiled(w, cfg, 4096, options));
    }
  }
}

TEST(BlockedFlashAbft, ReplicatedEllOptionWorks) {
  Rng rng(11);
  const AttentionInputs w = generate_gaussian(32, 16, rng);
  const AttentionConfig cfg = make_cfg(32, 16);
  for (const ComputeBackend backend : kBackends) {
    for (const DType dtype : kDtypes) {
      FlashAbftOptions options = make_options(backend, dtype);
      options.replicate_ell = true;
      const CheckedAttention whole =
          flash_abft_attention(w.q, w.k, w.v, cfg, options);
      const CheckedAttention run = tiled(w, cfg, 8, options);
      expect_same_run(whole, run);
      EXPECT_EQ(run.per_query_predicted, whole.per_query_predicted);
      if (dtype == DType::kF32) {
        EXPECT_LT(run.residual(), 1e-9) << backend_name(backend);
      }
    }
  }
}

}  // namespace
}  // namespace flashabft
