#include "model/multi_head_attention.hpp"

#include <cmath>
#include <utility>

#include "attention/flash_attention2.hpp"
#include "attention/reference_attention.hpp"
#include "core/flash_abft.hpp"
#include "core/matmul_abft.hpp"

namespace flashabft {

MultiHeadAttention::MultiHeadAttention(std::size_t model_dim,
                                       std::size_t num_heads,
                                       std::size_t head_dim, Rng& rng,
                                       DType dtype)
    : model_dim_(model_dim),
      num_heads_(num_heads),
      head_dim_(head_dim),
      wq_(Linear::random_init(model_dim, num_heads * head_dim, rng)),
      wk_(Linear::random_init(model_dim, num_heads * head_dim, rng)),
      wv_(Linear::random_init(model_dim, num_heads * head_dim, rng)),
      wo_(Linear::random_init(num_heads * head_dim, model_dim, rng)) {
  FLASHABFT_ENSURE_MSG(model_dim == num_heads * head_dim,
                       "model_dim " << model_dim << " != " << num_heads
                                    << " x " << head_dim);
  // Quantize BEFORE caching the input-side checksums: rowsum(W)/Σb must
  // describe the weights as stored (see header).
  wq_.quantize(dtype);
  wk_.quantize(dtype);
  wv_.quantize(dtype);
  wo_.quantize(dtype);
  projection_checksums_ = {wq_.input_checksums(), wk_.input_checksums(),
                           wv_.input_checksums(), wo_.input_checksums()};
}

void MultiHeadAttention::corrupt_projection_weight(std::size_t slot,
                                                   std::size_t row,
                                                   std::size_t col,
                                                   double delta) {
  FLASHABFT_ENSURE_MSG(slot < 4, "projection slot " << slot << " out of range");
  Linear* projections[4] = {&wq_, &wk_, &wv_, &wo_};
  MatrixD& weight = projections[slot]->weight();
  FLASHABFT_ENSURE(row < weight.rows() && col < weight.cols());
  weight(row, col) += delta;
  // projection_checksums_ deliberately stays stale (see header).
}

WeightPart MultiHeadAttention::projection_part(std::size_t slot) const {
  FLASHABFT_ENSURE_MSG(slot < 4, "projection slot " << slot << " out of range");
  const Linear* projections[4] = {&wq_, &wk_, &wv_, &wo_};
  return {*projections[slot], projection_checksums_[slot]};
}

namespace {

/// Extracts head h's slice (columns [h*d, (h+1)*d)) of a projected matrix.
MatrixD head_slice(const MatrixD& m, std::size_t head, std::size_t d) {
  MatrixD s(m.rows(), d);
  for (std::size_t i = 0; i < m.rows(); ++i) {
    for (std::size_t x = 0; x < d; ++x) s(i, x) = m(i, head * d + x);
  }
  return s;
}

CheckedOp checked_flash_abft(const MatrixD& q, const MatrixD& k,
                             const MatrixD& v, const AttentionConfig& cfg,
                             const KernelContext& context) {
  FlashAbftOptions options;
  options.context = context;
  CheckedAttention run = flash_abft_attention(q, k, v, cfg, options);
  CheckedOp op;
  op.output = std::move(run.output);
  op.check = {run.predicted_checksum, run.actual_checksum};
  return op;
}

double attention_cost(const MatrixD& q, const MatrixD& k) {
  // MACs of QK^T + SV: two n_q x n_k x d products.
  return 2.0 * double(q.rows()) * double(k.rows()) * double(q.cols());
}

}  // namespace

MhaResult MultiHeadAttention::forward(const MatrixD& x,
                                      AttentionBackend backend,
                                      const GuardedExecutor& executor,
                                      AttentionMask mask, std::size_t block,
                                      const KvRowSink& sink) const {
  return forward_impl(x, x, backend, executor, mask, block, sink);
}

MhaResult MultiHeadAttention::forward_cross(const MatrixD& x_q,
                                            const MatrixD& memory,
                                            AttentionBackend backend,
                                            const GuardedExecutor& executor,
                                            std::size_t block) const {
  return forward_impl(x_q, memory, backend, executor, AttentionMask::kNone,
                      block, KvRowSink{});
}

MatrixD MultiHeadAttention::run_head(const MatrixD& q, const MatrixD& k,
                                     const MatrixD& v,
                                     AttentionBackend backend,
                                     const GuardedExecutor& executor,
                                     const AttentionConfig& cfg,
                                     std::size_t index,
                                     LayerReport& report) const {
  const double cost = attention_cost(q, k);
  const KernelContext context = executor.kernel_context();
  // Escalated heads fall back to a fresh run of the software Alg. 3
  // kernel — the reference engine, verified by its own fused checksum and
  // pinned to the scalar backend (implementation diversity; same storage
  // dtype, so the recomputed output lands in the same regime).
  const auto reference_fallback = [&] {
    return checked_flash_abft(q, k, v, cfg, executor.fallback_context());
  };

  switch (backend) {
    case AttentionBackend::kReference:
      return reference_attention(q, k, v, cfg);
    case AttentionBackend::kFlashAttention2:
      return flash_attention2(q, k, v, cfg);
    case AttentionBackend::kFlashAbft: {
      GuardedOp op = executor.run(
          OpKind::kAttentionFlashAbft, index, cost,
          [&](std::size_t) {
            return checked_flash_abft(q, k, v, cfg, context);
          },
          reference_fallback);
      MatrixD out = std::move(op.output);
      report.add(std::move(op));
      return out;
    }
    case AttentionBackend::kTwoStepAbft: {
      GuardedOp op = executor.run(
          OpKind::kAttentionTwoStepAbft, index, cost,
          [&](std::size_t) {
            TwoStepAbftAttention run =
                two_step_abft_attention(q, k, v, cfg, context);
            CheckedOp checked;
            checked.output = std::move(run.output);
            checked.check = {run.qk_check.predicted, run.qk_check.actual};
            checked.extra_checks.push_back(
                {run.sv_check.predicted, run.sv_check.actual});
            return checked;
          },
          reference_fallback);
      MatrixD out = std::move(op.output);
      report.add(std::move(op));
      return out;
    }
  }
  FLASHABFT_ENSURE_MSG(false, "unknown attention backend");
  return {};
}

MhaResult MultiHeadAttention::forward_impl(const MatrixD& x_q,
                                           const MatrixD& x_kv,
                                           AttentionBackend backend,
                                           const GuardedExecutor& executor,
                                           AttentionMask mask,
                                           std::size_t block,
                                           const KvRowSink& sink) const {
  FLASHABFT_ENSURE(x_q.cols() == model_dim_ && x_kv.cols() == model_dim_);
  const std::size_t n = x_q.rows();
  const std::size_t projection_base = block * 4;
  const std::size_t head_base = block * num_heads_;

  MhaResult result;
  const auto project = [&](const Linear& w, const MatrixD& in,
                           std::size_t slot) {
    // Construction-time checksums: a post-construction weight upset is not
    // self-consistent against them (the legacy weight blind spot fix).
    return guarded_linear(w, in, OpKind::kProjection, projection_base + slot,
                          executor, result.report,
                          &projection_checksums_[slot]);
  };

  const MatrixD q_all = project(wq_, x_q, 0);
  const MatrixD k_all = project(wk_, x_kv, 1);
  const MatrixD v_all = project(wv_, x_kv, 2);

  if (sink) {
    // Prefill: every verified K/V row enters the session's pages (running
    // checksums and checkpoint mirror updated per append).
    for (std::size_t i = 0; i < x_kv.rows(); ++i) {
      sink(k_all.row(i), v_all.row(i));
    }
  }

  AttentionConfig cfg;
  cfg.seq_len = x_kv.rows();
  cfg.head_dim = head_dim_;
  cfg.scale = 1.0 / std::sqrt(double(head_dim_));
  cfg.mask = mask;

  MatrixD concat(n, num_heads_ * head_dim_);
  for (std::size_t h = 0; h < num_heads_; ++h) {
    const MatrixD q = head_slice(q_all, h, head_dim_);
    const MatrixD k = head_slice(k_all, h, head_dim_);
    const MatrixD v = head_slice(v_all, h, head_dim_);
    const MatrixD head_out = run_head(q, k, v, backend, executor, cfg,
                                      head_base + h, result.report);
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t d = 0; d < head_dim_; ++d) {
        concat(i, h * head_dim_ + d) = head_out(i, d);
      }
    }
  }

  result.output = project(wo_, concat, 3);
  return result;
}

MatrixD MultiHeadAttention::forward_decode_paged_batch(
    const MatrixD& x_stacked, AttentionBackend backend,
    std::span<const GuardedExecutor* const> executors, KvPagePool& pool,
    std::span<PagedKv* const> kvs, std::size_t layer,
    std::span<LayerReport* const> reports) const {
  const std::size_t batch = x_stacked.rows();
  FLASHABFT_ENSURE_MSG(batch > 0 && x_stacked.cols() == model_dim_,
                       "decode batch is " << batch << " x "
                                          << x_stacked.cols());
  FLASHABFT_ENSURE(executors.size() == batch && kvs.size() == batch &&
                   reports.size() == batch);
  FLASHABFT_ENSURE_MSG(pool.config().width == num_heads_ * head_dim_,
                       "pool width " << pool.config().width << " != "
                                     << num_heads_ * head_dim_);
  FLASHABFT_ENSURE_MSG(backend == AttentionBackend::kFlashAbft,
                       "paged decode serves the Flash-ABFT backend only");
  const std::size_t projection_base = layer * 4;
  const std::size_t head_base = layer * num_heads_;
  const std::size_t width = pool.config().width;
  const std::vector<std::size_t> ones(batch, 1);

  // State written by earlier steps is verified per session first — each
  // through its own executor, so alarms attribute to the right session.
  for (std::size_t s = 0; s < batch; ++s) {
    if (kvs[s]->len(layer) > 0) {
      guarded_page_verify(pool, *kvs[s], layer, /*index=*/layer,
                          *executors[s], *reports[s]);
    }
  }

  const auto project = [&](const Linear& w, const MatrixD& in,
                           std::size_t slot) {
    return guarded_linear_batch(w, in, ones, OpKind::kProjection,
                                projection_base + slot, executors, reports,
                                &projection_checksums_[slot]);
  };
  const std::vector<MatrixD> q_all = project(wq_, x_stacked, 0);
  const std::vector<MatrixD> k_all = project(wk_, x_stacked, 1);
  const std::vector<MatrixD> v_all = project(wv_, x_stacked, 2);
  for (std::size_t s = 0; s < batch; ++s) {
    pool.append(*kvs[s], layer, k_all[s].row(0), v_all[s].row(0));
  }

  const double scale = 1.0 / std::sqrt(double(head_dim_));
  MatrixD concat(batch, num_heads_ * head_dim_);
  for (std::size_t s = 0; s < batch; ++s) {
    const std::vector<KvChunk> pages = pool.chunks(*kvs[s], layer);
    const double cost = 2.0 * double(kvs[s]->len(layer)) * double(head_dim_);
    const KernelContext context = executors[s]->kernel_context();
    for (std::size_t h = 0; h < num_heads_; ++h) {
      const MatrixD q = head_slice(q_all[s], h, head_dim_);
      // An escalated head re-runs the same page walk on the scalar
      // fallback engine.
      GuardedOp op = executors[s]->run(
          OpKind::kAttentionFlashAbft, head_base + h, cost,
          [&](std::size_t) {
            return paged_flash_abft_head(q, pages, width, h, scale, context);
          },
          [&] {
            return paged_flash_abft_head(q, pages, width, h, scale,
                                         executors[s]->fallback_context());
          });
      for (std::size_t d = 0; d < head_dim_; ++d) {
        concat(s, h * head_dim_ + d) = op.output(0, d);
      }
      reports[s]->add(std::move(op));
    }
  }

  const std::vector<MatrixD> projected = project(wo_, concat, 3);
  MatrixD out(batch, model_dim_);
  for (std::size_t s = 0; s < batch; ++s) {
    const double* src = projected[s].row(0).data();
    for (std::size_t d = 0; d < model_dim_; ++d) out(s, d) = src[d];
  }
  return out;
}

}  // namespace flashabft
