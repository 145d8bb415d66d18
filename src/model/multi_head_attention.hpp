// Multi-head attention under the unified GuardedOp protection regime.
//
// Realizes the attention block of Fig. 1: the input embedding is projected
// to Q/K/V, split into heads, each head runs (checked) attention, heads are
// concatenated and projected back. Each head maps onto one accelerator /
// one checked-kernel invocation, so attention protection (and fault alarms)
// are per-head — exactly how a multi-head hardware deployment of the
// paper's scheme composes. The Q/K/V/output projections, which the paper's
// fused checksum does not cover, run under the classic matmul-ABFT product
// check (`OpKind::kProjection`), so the whole block reports through one
// `LayerReport` of `OpReport`s.
#pragma once

#include <array>
#include <functional>
#include <vector>

#include "attention/attention_config.hpp"
#include "core/guarded_op.hpp"
#include "core/kv_pool.hpp"
#include "model/linear.hpp"
#include "tensor/random.hpp"

namespace flashabft {

/// Sink for projected K/V rows during a cache-filling forward: one call per
/// token row, in position order — the prefill pass's paged-pool append.
using KvRowSink = std::function<void(std::span<const double> k_row,
                                     std::span<const double> v_row)>;

/// How the attention inside the block is computed.
enum class AttentionBackend {
  kReference,           ///< golden three-pass attention (no checking).
  kFlashAttention2,     ///< Alg. 2 kernel (no checking).
  kFlashAbft,           ///< Alg. 3 kernel with the fused online checksum.
  kTwoStepAbft,         ///< unfused baseline: two matmul-ABFT checks.
};

/// Result of one multi-head attention forward.
struct MhaResult {
  MatrixD output;      ///< n x model_dim.
  LayerReport report;  ///< projection + per-head attention OpReports.
};

/// The multi-head attention block.
class MultiHeadAttention {
 public:
  /// model_dim must equal num_heads * head_dim. `dtype` is the storage
  /// format of the four projection weights: they are quantized at
  /// construction, BEFORE the input-side checksums are cached — rowsum(W)
  /// must describe the weights as stored or every compare would carry a
  /// permanent quantization offset and false-alarm.
  MultiHeadAttention(std::size_t model_dim, std::size_t num_heads,
                     std::size_t head_dim, Rng& rng,
                     DType dtype = DType::kF32);

  /// Self-attention forward over embeddings x (n x model_dim). Projections
  /// always run under matmul-ABFT; heads are checked when `backend` carries
  /// checksums (kFlashAbft / kTwoStepAbft). `block` offsets the OpReport
  /// indices so a layer with several attention blocks (the decoder) keeps
  /// them distinguishable: heads get index block*num_heads + h, projections
  /// block*4 + {0:Q, 1:K, 2:V, 3:output}. When `sink` is set every projected
  /// K/V row is streamed into it (the prefill path of a generation session).
  [[nodiscard]] MhaResult forward(const MatrixD& x, AttentionBackend backend,
                                  const GuardedExecutor& executor,
                                  AttentionMask mask = AttentionMask::kNone,
                                  std::size_t block = 0,
                                  const KvRowSink& sink = {}) const;

  /// Cross-attention: queries projected from `x_q` (n_q x model_dim), keys
  /// and values from `memory` (n_kv x model_dim) — the decoder's
  /// encoder-attending block. Masking is not meaningful here and must be
  /// kNone.
  [[nodiscard]] MhaResult forward_cross(const MatrixD& x_q,
                                        const MatrixD& memory,
                                        AttentionBackend backend,
                                        const GuardedExecutor& executor,
                                        std::size_t block = 0) const;

  /// The continuous-batching decode sweep of this block: `x_stacked` holds
  /// one token row per session (B x model_dim) and the Q/K/V/output
  /// projections run as ONE stacked product each (guarded_linear_batch —
  /// weights and their checksums stream once per batch), while the
  /// per-session work keeps per-session granularity: each session's pages
  /// + mapping are verified through its own executor, its K/V row appended,
  /// and each of its heads attends over its page list with the strided
  /// paged kernel. Outputs land row-per-session in the returned matrix;
  /// reports append to `reports[s]`. Scalar outputs are bit-identical to B
  /// separate batch-of-one calls. Page verification precedes the append
  /// (an alarm restores the table + corrupted pages from their checkpoints);
  /// escalated heads gather the pages and run the scalar reference kernel.
  /// Only kFlashAbft is supported; the caller must have reserved pages for
  /// the append (`KvPagePool::append_pages_needed`).
  [[nodiscard]] MatrixD forward_decode_paged_batch(
      const MatrixD& x_stacked, AttentionBackend backend,
      std::span<const GuardedExecutor* const> executors, KvPagePool& pool,
      std::span<PagedKv* const> kvs, std::size_t layer,
      std::span<LayerReport* const> reports) const;

  [[nodiscard]] std::size_t num_heads() const { return num_heads_; }
  [[nodiscard]] std::size_t head_dim() const { return head_dim_; }
  [[nodiscard]] std::size_t model_dim() const { return model_dim_; }

  /// Fault injection: shifts one element of projection `slot`
  /// {0:Q, 1:K, 2:V, 3:output}. The cached input-side checksums are
  /// deliberately NOT refreshed: the batched decode sweep's stale
  /// rowsum(W) is what detects a post-construction weight upset, while
  /// per-call paths recompute from the corrupted weight and stay silently
  /// consistent — the asymmetry the fault campaign measures.
  void corrupt_projection_weight(std::size_t slot, std::size_t row,
                                 std::size_t col, double delta);

  /// Projection `slot` {0:Q, 1:K, 2:V, 3:output} with its cached input-side
  /// checksums — one part of the weight scrub's walk.
  [[nodiscard]] WeightPart projection_part(std::size_t slot) const;

 private:
  [[nodiscard]] MhaResult forward_impl(const MatrixD& x_q,
                                       const MatrixD& x_kv,
                                       AttentionBackend backend,
                                       const GuardedExecutor& executor,
                                       AttentionMask mask, std::size_t block,
                                       const KvRowSink& sink) const;

  /// One head's (checked) attention under `backend`; reports into `report`.
  [[nodiscard]] MatrixD run_head(const MatrixD& q, const MatrixD& k,
                                 const MatrixD& v, AttentionBackend backend,
                                 const GuardedExecutor& executor,
                                 const AttentionConfig& cfg,
                                 std::size_t index,
                                 LayerReport& report) const;

  std::size_t model_dim_;
  std::size_t num_heads_;
  std::size_t head_dim_;
  Linear wq_, wk_, wv_, wo_;
  /// Cached input-side ABFT checksums (rowsum(W), Σb) of the four frozen
  /// projections, indexed by slot {0:Q, 1:K, 2:V, 3:output} — handed to
  /// guarded_linear_batch so the batched decode sweep never recomputes
  /// them.
  std::array<Linear::InputChecksums, 4> projection_checksums_;
};

}  // namespace flashabft
