#include "model/decoder_layer.hpp"

#include <utility>

#include "common/ensure.hpp"
#include "core/meta_guard.hpp"
#include "tensor/tensor_ops.hpp"

namespace flashabft {

DecoderLayer::DecoderLayer(const DecoderLayerConfig& cfg, Rng& rng)
    : cfg_(cfg),
      self_attention_(cfg.model_dim, cfg.num_heads, cfg.head_dim, rng,
                      cfg.dtype),
      norm1_(cfg.model_dim),
      cross_attention_(cfg.cross_attention
                           ? std::optional<MultiHeadAttention>(
                                 std::in_place, cfg.model_dim, cfg.num_heads,
                                 cfg.head_dim, rng, cfg.dtype)
                           : std::nullopt),
      norm2_(cfg.model_dim),
      ffn1_(Linear::random_init(cfg.model_dim, cfg.ffn_dim, rng)),
      ffn2_(Linear::random_init(cfg.ffn_dim, cfg.model_dim, rng)),
      // Quantize BEFORE caching the input-side checksums: rowsum(W)/Σb
      // must describe the FFN weights as stored.
      ffn1_checksums_((ffn1_.quantize(cfg.dtype), ffn1_.input_checksums())),
      ffn2_checksums_((ffn2_.quantize(cfg.dtype), ffn2_.input_checksums())),
      norm3_(cfg.model_dim) {}

void DecoderLayer::corrupt_projection_weight(std::size_t slot, std::size_t row,
                                             std::size_t col, double delta) {
  self_attention_.corrupt_projection_weight(slot, row, col, delta);
}

void DecoderLayer::corrupt_ffn_weight(std::size_t which, std::size_t row,
                                      std::size_t col, double delta) {
  FLASHABFT_ENSURE_MSG(which < 2, "FFN product " << which << " out of range");
  MatrixD& weight = (which == 0 ? ffn1_ : ffn2_).weight();
  FLASHABFT_ENSURE(row < weight.rows() && col < weight.cols());
  weight(row, col) += delta;
  // ffn*_checksums_ deliberately stay stale (see header).
}

WeightPart DecoderLayer::weight_part(std::size_t part) const {
  FLASHABFT_ENSURE_MSG(part < weight_part_count(),
                       "weight part " << part << " out of range");
  if (part < 4) return self_attention_.projection_part(part);
  if (cross_attention_) {
    if (part < 8) return cross_attention_->projection_part(part - 4);
    part -= 4;
  }
  return part == 4 ? WeightPart{ffn1_, ffn1_checksums_}
                   : WeightPart{ffn2_, ffn2_checksums_};
}

MatrixD DecoderLayer::ffn_block(const MatrixD& h,
                                const GuardedExecutor& executor,
                                std::size_t ffn_base,
                                LayerReport& report) const {
  // FFN products predict against the construction-time checksums (the
  // legacy weight blind spot fix); the checksum-free GELU and Add & Norm
  // glue runs under selective DMR when Options::dmr_glue is on.
  const MatrixD lin1 = guarded_linear(ffn1_, h, OpKind::kFfn, ffn_base,
                                      executor, report, &ffn1_checksums_);
  const MatrixD inner = dmr_guard(
      executor, ffn_base, double(lin1.rows()) * double(lin1.cols()),
      [&] { return gelu_forward(lin1); }, report);
  const MatrixD ffn = guarded_linear(ffn2_, inner, OpKind::kFfn, ffn_base + 1,
                                     executor, report, &ffn2_checksums_);
  return dmr_guard(
      executor, ffn_base + 1, double(h.rows()) * double(h.cols()),
      [&] { return norm3_.forward(element_add(h, ffn)); }, report);
}

DecoderLayerResult DecoderLayer::forward(
    const MatrixD& x, const MatrixD& memory, AttentionBackend backend,
    const GuardedExecutor& executor) const {
  FLASHABFT_ENSURE_MSG(cross_attention_.has_value(),
                       "decoder-only layer has no cross-attention block");
  FLASHABFT_ENSURE(x.cols() == cfg_.model_dim);
  FLASHABFT_ENSURE(memory.cols() == cfg_.model_dim);

  DecoderLayerResult result;

  // Causally-masked self-attention + Add & Norm (block 0).
  MhaResult self = self_attention_.forward(x, backend, executor,
                                           AttentionMask::kCausal,
                                           /*block=*/0);
  result.report = std::move(self.report);
  const MatrixD h1 = dmr_guard(
      executor, /*index=*/0, double(x.rows()) * double(cfg_.model_dim),
      [&] { return norm1_.forward(element_add(x, self.output)); },
      result.report);

  // Encoder cross-attention + Add & Norm (block 1).
  MhaResult cross = cross_attention_->forward_cross(h1, memory, backend,
                                                    executor, /*block=*/1);
  result.report.append(std::move(cross.report));
  const MatrixD h2 = dmr_guard(
      executor, /*index=*/1, double(h1.rows()) * double(cfg_.model_dim),
      [&] { return norm2_.forward(element_add(h1, cross.output)); },
      result.report);

  // Feed-forward block + Add & Norm.
  result.output = ffn_block(h2, executor, /*ffn_base=*/0, result.report);
  return result;
}

DecoderLayerResult DecoderLayer::forward_causal(
    const MatrixD& x, AttentionBackend backend,
    const GuardedExecutor& executor, std::size_t layer_index,
    const KvRowSink& sink) const {
  FLASHABFT_ENSURE(x.cols() == cfg_.model_dim);

  DecoderLayerResult result;
  MhaResult self =
      self_attention_.forward(x, backend, executor, AttentionMask::kCausal,
                              /*block=*/layer_index, sink);
  result.report = std::move(self.report);
  const MatrixD h1 = dmr_guard(
      executor, layer_index, double(x.rows()) * double(cfg_.model_dim),
      [&] { return norm1_.forward(element_add(x, self.output)); },
      result.report);
  result.output =
      ffn_block(h1, executor, /*ffn_base=*/layer_index * 2, result.report);
  return result;
}

MatrixD DecoderLayer::forward_decode_paged_batch(
    const MatrixD& x_stacked, AttentionBackend backend,
    std::span<const GuardedExecutor* const> executors, KvPagePool& pool,
    std::span<PagedKv* const> kvs, std::size_t layer_index,
    std::span<LayerReport* const> reports) const {
  FLASHABFT_ENSURE(x_stacked.cols() == cfg_.model_dim);
  const std::vector<std::size_t> ones(x_stacked.rows(), 1);

  const MatrixD attn = self_attention_.forward_decode_paged_batch(
      x_stacked, backend, executors, pool, kvs, layer_index, reports);
  // The stacked glue runs one DMR pair for the whole batch; a mismatch
  // attributes to the first session's stream (the re-run covers everyone).
  const MatrixD h1 = dmr_guard(
      *executors.front(), layer_index,
      double(x_stacked.rows()) * double(cfg_.model_dim),
      [&] { return norm1_.forward(element_add(x_stacked, attn)); },
      *reports.front());

  // FFN as stacked products (per-session checksum groups), then the
  // row-wise Add & Norm — LayerNorm/GELU are per-row, so the stacked pass
  // is bit-identical to per-session forwards.
  const auto ffn_product = [&](const Linear& w, const MatrixD& in,
                               std::size_t slot) {
    std::vector<MatrixD> rows = guarded_linear_batch(
        w, in, ones, OpKind::kFfn, layer_index * 2 + slot, executors,
        reports, slot == 0 ? &ffn1_checksums_ : &ffn2_checksums_);
    MatrixD stacked(in.rows(), w.out_features());
    for (std::size_t s = 0; s < rows.size(); ++s) {
      const double* src = rows[s].row(0).data();
      double* dst = stacked.row(s).data();
      for (std::size_t j = 0; j < stacked.cols(); ++j) dst[j] = src[j];
    }
    return stacked;
  };
  const MatrixD lin1 = ffn_product(ffn1_, h1, 0);
  const MatrixD inner = dmr_guard(
      *executors.front(), layer_index * 2,
      double(lin1.rows()) * double(lin1.cols()),
      [&] { return gelu_forward(lin1); }, *reports.front());
  const MatrixD ffn = ffn_product(ffn2_, inner, 1);
  return dmr_guard(
      *executors.front(), layer_index * 2 + 1,
      double(h1.rows()) * double(cfg_.model_dim),
      [&] { return norm3_.forward(element_add(h1, ffn)); },
      *reports.front());
}

}  // namespace flashabft
