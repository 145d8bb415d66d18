// One decoder transformer layer (paper §I: "the decoder consists of two
// self-attention blocks followed by a feed-forward block" — in the standard
// Vaswani architecture, a causally-masked self-attention block and an
// encoder-attending cross-attention block).
//
// Both attention blocks, all eight projections and the FFN run under the
// unified GuardedOp regime; the checksum algebra is mask-agnostic (masked
// keys simply contribute zero weight to both the output and the
// prediction). OpReport indices: self-attention heads 0..H-1 and
// projections 0..3 (block 0), cross-attention heads H..2H-1 and projections
// 4..7 (block 1), FFN products 0 and 1.
//
// The layer also serves as the GPT-style building block of the
// autoregressive `TransformerModel` (`cross_attention = false` in the
// config): `forward_causal` runs self-attention + FFN only (optionally
// streaming K/V rows into the paged pool — the prefill pass), and
// `forward_decode_paged_batch` extends one token per session over the
// checksummed page pool in O(len) — the one decode path. In those paths
// every op index is offset by `layer_index` (heads layer*H+h, projections
// layer*4+slot, FFN layer*2+{0,1}, page check layer), so a stacked model's
// report stream stays globally addressable for fault attribution.
#pragma once

#include <optional>

#include "core/guarded_op.hpp"
#include "model/gelu.hpp"
#include "model/layernorm.hpp"
#include "model/linear.hpp"
#include "model/multi_head_attention.hpp"

namespace flashabft {

/// Shape of one decoder layer (same fields as the encoder's).
struct DecoderLayerConfig {
  std::size_t model_dim = 512;
  std::size_t num_heads = 8;
  std::size_t head_dim = 64;
  std::size_t ffn_dim = 2048;
  /// When false the layer is decoder-only (GPT-style): no cross-attention
  /// weights are drawn and only the causal/decode forwards are usable.
  bool cross_attention = true;
  /// Storage format of the layer's weights: every projection and FFN weight
  /// is quantized at construction, before its input-side checksums are
  /// cached (rowsum(W) must describe the weights as stored).
  DType dtype = DType::kF32;
};

/// Result of a protected decoder forward pass.
struct DecoderLayerResult {
  MatrixD output;      ///< n x model_dim.
  LayerReport report;  ///< self + cross attention, projections, FFN.
};

/// Post-LN decoder layer:
///   x -> LN(x + CausalSelfAttn(x)) -> LN(. + CrossAttn(., memory))
///     -> LN(. + FFN(.)).
class DecoderLayer {
 public:
  DecoderLayer(const DecoderLayerConfig& cfg, Rng& rng);

  /// Forward pass: `x` are decoder-side embeddings (n x model_dim),
  /// `memory` the encoder output it attends to (n_src x model_dim).
  /// Requires `cross_attention` in the config.
  [[nodiscard]] DecoderLayerResult forward(
      const MatrixD& x, const MatrixD& memory, AttentionBackend backend,
      const GuardedExecutor& executor) const;

  /// Decoder-only causal forward: x -> LN(x + CausalSelfAttn(x))
  /// -> LN(. + FFN(.)); the cross-attention block is skipped. When `sink`
  /// is set every projected K/V row is streamed into it (the prefill — or
  /// preemption-resume re-prefill — pass of a generation session).
  /// `layer_index` offsets every op index.
  [[nodiscard]] DecoderLayerResult forward_causal(
      const MatrixD& x, AttentionBackend backend,
      const GuardedExecutor& executor, std::size_t layer_index = 0,
      const KvRowSink& sink = {}) const;

  /// The continuous-batching sweep of this layer: one token row per
  /// session stacked as B x model_dim. Attention projections and both FFN
  /// products run as single stacked guarded products (per-session checksum
  /// groups — see guarded_linear_batch); page verification, appends and
  /// head attention stay per session. Returns the stacked layer output;
  /// reports append per session.
  [[nodiscard]] MatrixD forward_decode_paged_batch(
      const MatrixD& x_stacked, AttentionBackend backend,
      std::span<const GuardedExecutor* const> executors, KvPagePool& pool,
      std::span<PagedKv* const> kvs, std::size_t layer_index,
      std::span<LayerReport* const> reports) const;

  [[nodiscard]] const DecoderLayerConfig& config() const { return cfg_; }

  /// Fault injection: shifts one element of a self-attention projection
  /// weight (slot {0:Q, 1:K, 2:V, 3:output}) or an FFN product weight
  /// (`which` 0 or 1). Cached input-side checksums deliberately stay stale
  /// — see MultiHeadAttention::corrupt_projection_weight.
  void corrupt_projection_weight(std::size_t slot, std::size_t row,
                                 std::size_t col, double delta);
  void corrupt_ffn_weight(std::size_t which, std::size_t row, std::size_t col,
                          double delta);

  /// This layer's weight matrices in scrub order: the self-attention
  /// projections {Q, K, V, output}, the cross-attention's when present, then
  /// both FFN products — each with its cached checksums.
  [[nodiscard]] std::size_t weight_part_count() const {
    return cross_attention_ ? 10 : 6;
  }
  [[nodiscard]] WeightPart weight_part(std::size_t part) const;

 private:
  /// FFN + Add & Norm shared by every forward; `ffn_base` offsets the two
  /// product indices.
  [[nodiscard]] MatrixD ffn_block(const MatrixD& h,
                                  const GuardedExecutor& executor,
                                  std::size_t ffn_base,
                                  LayerReport& report) const;

  DecoderLayerConfig cfg_;
  MultiHeadAttention self_attention_;
  LayerNorm norm1_;
  std::optional<MultiHeadAttention> cross_attention_;
  LayerNorm norm2_;
  Linear ffn1_;
  Linear ffn2_;
  /// Cached input-side ABFT checksums of the frozen FFN weights, for the
  /// batched decode sweep (see MultiHeadAttention::projection_checksums_).
  Linear::InputChecksums ffn1_checksums_;
  Linear::InputChecksums ffn2_checksums_;
  LayerNorm norm3_;
};

}  // namespace flashabft
