// Flash-ABFT: FlashAttention-2 with online checksum computation (Alg. 3).
//
// The paper's contribution. Each query lane carries one extra accumulator c
// updated with the *same* recurrence as the output vector — conceptually the
// value vector is extended by one element holding its row sum (Eq. 9/10):
//
//     [c_i, o_i] = [c_{i-1}, o_{i-1}] * e^{m_{i-1}-m_i}
//                  + [sumrow_i(V), v_i] * e^{s_i-m_i}
//
// After the pass, check(q) = c_N / l_N, and the global predicted checksum is
// the sum of per-query checks (Eq. 8). It is compared against the actual
// checksum — the sum of every element of the produced output.
//
// This software kernel is the algorithmic (double-precision) form; the
// bit-accurate, fault-injectable form is src/sim's cycle-level accelerator.
#pragma once

#include <span>

#include "attention/attention_config.hpp"
#include "attention/flash_attention2.hpp"
#include "core/checker.hpp"
#include "core/kernel_context.hpp"
#include "numerics/exp_unit.hpp"
#include "tensor/backend.hpp"
#include "tensor/matrix.hpp"

namespace flashabft {

/// Options of the checked kernel.
struct FlashAbftOptions {
  ExpMode exp_mode = ExpMode::kExact;
  /// If true, the checker maintains its own replica of the sum-of-exponents
  /// (accumulated alongside c) and divides by it instead of the datapath's
  /// l_N. Closes the shared-divisor blind spot analyzed in DESIGN.md §4(b);
  /// ablated in bench/checker_design.
  bool replicate_ell = false;
  /// Execution context: compute backend, storage dtype, and per-OpKind
  /// tolerances (the latter unused by the raw kernel — callers that judge
  /// pick the kAttentionFlashAbft entry). context.backend == kSimd runs the
  /// vectorized inner loops (QK dot, output/checksum accumulator update,
  /// finalize) on raw rows; the checksum lane stays fused either way, and
  /// exp_mode is honored on both backends (the exp unit is a per-score
  /// scalar on each). context.dtype is the storage format of the attention
  /// output: each finalized row is rounded through it and the actual
  /// checksums (per-query and global) are reduced over the rounded values,
  /// while the predicted lane stays in the wide accumulator format.
  /// Replaces the former `ComputeBackend backend` member — see the
  /// DESIGN.md §12 migration table.
  KernelContext context;
};

/// Everything Alg. 3 produces in one pass.
struct CheckedAttention {
  MatrixD output;                          ///< attn(Q,K,V), n_q x d.
  double predicted_checksum = 0.0;         ///< Alg. 3 line 11 accumulation.
  double actual_checksum = 0.0;            ///< sum of output elements.
  std::vector<double> per_query_predicted; ///< check(q_i), Alg. 3 line 10.
  std::vector<double> per_query_actual;    ///< sum of output row i.
  FlashAttentionStats stats;               ///< m_N / l_N per query.

  /// |predicted - actual|; NaN if either side is NaN.
  [[nodiscard]] double residual() const;
};

/// One run of K/V rows the kernel walks: `rows` rows, the first at `k`/`v`.
/// The walk's stride and head offset (see flash_abft_chunks) say where each
/// row's head slice lies, so one type covers a contiguous K/V matrix, its
/// key_block tiles and the pages of the paged KV pool.
struct KvChunk {
  const double* k = nullptr;
  const double* v = nullptr;
  std::size_t rows = 0;
};

/// Runs FlashAttention-2 with the fused online checksum (paper Alg. 3).
/// Q: n_q x d, K/V: n_k x d. The chunk kernel over one chunk.
[[nodiscard]] CheckedAttention flash_abft_attention(
    const MatrixD& q, const MatrixD& k, const MatrixD& v,
    const AttentionConfig& cfg, const FlashAbftOptions& options = {});

/// The one Flash-ABFT kernel: Alg. 3 with K/V given as chunks walked in
/// order. Row r of a chunk has its K head slice at `k + r * stride + offset`
/// (V likewise), q.cols() wide; key positions (for the mask) count across
/// chunks. Outputs and checksums do not depend on how the rows are cut into
/// chunks: every split is bit-identical to the single-chunk run.
[[nodiscard]] CheckedAttention flash_abft_chunks(
    const MatrixD& q, std::span<const KvChunk> chunks, std::size_t stride,
    std::size_t offset, const AttentionConfig& cfg,
    const FlashAbftOptions& options = {});

/// Convenience wrapper: run + compare in one call.
[[nodiscard]] CheckVerdict flash_abft_verify(const MatrixD& q,
                                             const MatrixD& k,
                                             const MatrixD& v,
                                             const AttentionConfig& cfg,
                                             const Checker& checker,
                                             const FlashAbftOptions& options = {});

}  // namespace flashabft
