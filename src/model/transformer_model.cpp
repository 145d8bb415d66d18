#include "model/transformer_model.hpp"

#include <algorithm>
#include <utility>

#include "common/ensure.hpp"
#include "core/meta_guard.hpp"
#include "tensor/tensor_ops.hpp"

namespace flashabft {

namespace {

DecoderLayerConfig layer_config(const TransformerConfig& cfg) {
  DecoderLayerConfig layer;
  layer.model_dim = cfg.model_dim;
  layer.num_heads = cfg.num_heads;
  layer.head_dim = cfg.head_dim;
  layer.ffn_dim = cfg.ffn_dim;
  layer.cross_attention = false;  // GPT-style decoder-only stack.
  layer.dtype = cfg.dtype;
  return layer;
}

}  // namespace

TransformerModel::TransformerModel(const TransformerConfig& cfg,
                                   std::uint64_t seed)
    : cfg_(cfg),
      embedding_(cfg.vocab_size, cfg.model_dim, seed),
      final_norm_(cfg.model_dim) {
  FLASHABFT_ENSURE_MSG(cfg.model_dim == cfg.num_heads * cfg.head_dim,
                       "model_dim " << cfg.model_dim << " != "
                                    << cfg.num_heads << " x " << cfg.head_dim);
  FLASHABFT_ENSURE_MSG(cfg.num_layers > 0, "model needs at least one layer");
  FLASHABFT_ENSURE_MSG(cfg.max_seq_len > 1, "max_seq_len too small");
  Rng rng(seed + 1);
  layers_.reserve(cfg.num_layers);
  const DecoderLayerConfig layer = layer_config(cfg);
  for (std::size_t l = 0; l < cfg.num_layers; ++l) {
    layers_.emplace_back(layer, rng);
  }
  // Quantize the shared table BEFORE caching the tied head's colsum(E):
  // the input-side checksum must describe the table as stored.
  embedding_.quantize(cfg.dtype);
  lm_colsum_ = column_sums(embedding_.table());
}

const DecoderLayer& TransformerModel::layer(std::size_t i) const {
  FLASHABFT_ENSURE(i < layers_.size());
  return layers_[i];
}

const char* weight_matrix_name(WeightSite::Matrix matrix) {
  switch (matrix) {
    case WeightSite::Matrix::kEmbedding: return "embedding";
    case WeightSite::Matrix::kWq: return "wq";
    case WeightSite::Matrix::kWk: return "wk";
    case WeightSite::Matrix::kWv: return "wv";
    case WeightSite::Matrix::kWo: return "wo";
    case WeightSite::Matrix::kFfn1: return "ffn1";
    case WeightSite::Matrix::kFfn2: return "ffn2";
  }
  return "?";
}

std::size_t TransformerModel::weight_element_count() const {
  const std::size_t projections = 4 * cfg_.model_dim * cfg_.model_dim;
  const std::size_t ffn = 2 * cfg_.model_dim * cfg_.ffn_dim;
  return cfg_.vocab_size * cfg_.model_dim +
         cfg_.num_layers * (projections + ffn);
}

WeightSite TransformerModel::draw_weight_site(Rng& rng, double delta) const {
  WeightSite site;
  site.delta = delta;
  std::size_t pick = std::size_t(rng.next_below(weight_element_count()));
  const std::size_t embedding = cfg_.vocab_size * cfg_.model_dim;
  if (pick < embedding) {
    site.matrix = WeightSite::Matrix::kEmbedding;
    site.row = pick / cfg_.model_dim;
    site.col = pick % cfg_.model_dim;
    return site;
  }
  pick -= embedding;
  const std::size_t proj = cfg_.model_dim * cfg_.model_dim;
  const std::size_t ffn = cfg_.model_dim * cfg_.ffn_dim;
  const std::size_t per_layer = 4 * proj + 2 * ffn;
  site.layer = pick / per_layer;
  pick %= per_layer;
  if (pick < 4 * proj) {
    const std::size_t slot = pick / proj;
    site.matrix = WeightSite::Matrix(std::size_t(WeightSite::Matrix::kWq) +
                                     slot);
    pick %= proj;
    site.row = pick / cfg_.model_dim;
    site.col = pick % cfg_.model_dim;
    return site;
  }
  pick -= 4 * proj;
  if (pick < ffn) {
    // ffn1 is model_dim x ffn_dim.
    site.matrix = WeightSite::Matrix::kFfn1;
    site.row = pick / cfg_.ffn_dim;
    site.col = pick % cfg_.ffn_dim;
  } else {
    // ffn2 is ffn_dim x model_dim.
    pick -= ffn;
    site.matrix = WeightSite::Matrix::kFfn2;
    site.row = pick / cfg_.model_dim;
    site.col = pick % cfg_.model_dim;
  }
  return site;
}

void TransformerModel::corrupt_weight(const WeightSite& site) {
  switch (site.matrix) {
    case WeightSite::Matrix::kEmbedding:
      // lm_colsum_ deliberately stays stale (see header).
      embedding_.corrupt(site.row, site.col, site.delta);
      return;
    case WeightSite::Matrix::kWq:
    case WeightSite::Matrix::kWk:
    case WeightSite::Matrix::kWv:
    case WeightSite::Matrix::kWo: {
      FLASHABFT_ENSURE(site.layer < layers_.size());
      const std::size_t slot = std::size_t(site.matrix) -
                               std::size_t(WeightSite::Matrix::kWq);
      layers_[site.layer].corrupt_projection_weight(slot, site.row, site.col,
                                                    site.delta);
      return;
    }
    case WeightSite::Matrix::kFfn1:
    case WeightSite::Matrix::kFfn2:
      FLASHABFT_ENSURE(site.layer < layers_.size());
      layers_[site.layer].corrupt_ffn_weight(
          site.matrix == WeightSite::Matrix::kFfn1 ? 0 : 1, site.row,
          site.col, site.delta);
      return;
  }
}

std::size_t TransformerModel::weight_part_count() const {
  // The tied embedding / LM head, then every layer's (identical) parts.
  return 1 + layers_.size() * layers_.front().weight_part_count();
}

WeightPart TransformerModel::layer_weight_part(std::size_t part) const {
  FLASHABFT_ENSURE_MSG(part > 0 && part < weight_part_count(),
                       "weight part " << part << " out of range");
  const std::size_t per_layer = layers_.front().weight_part_count();
  return layers_[(part - 1) / per_layer].weight_part((part - 1) % per_layer);
}

double TransformerModel::weight_part_staleness(std::size_t part) const {
  if (part == 0) {
    // Tied head: recompute colsum(E) over the stored table — bit-identical
    // to the construction-time pass when nothing drifted.
    const std::vector<double> live = column_sums(embedding_.table());
    double worst = 0.0;
    const std::size_t n = std::min(live.size(), lm_colsum_.size());
    for (std::size_t j = 0; j < n; ++j) {
      worst = std::max(worst, std::abs(live[j] - lm_colsum_[j]));
    }
    return worst;
  }
  return layer_weight_part(part).staleness();
}

double TransformerModel::weight_part_cost(std::size_t part) const {
  if (part == 0) return double(cfg_.vocab_size * cfg_.model_dim);
  return double(layer_weight_part(part).linear.weight().size());
}

double TransformerModel::weight_staleness() const {
  double worst = 0.0;
  for (std::size_t part = 0; part < weight_part_count(); ++part) {
    worst = std::max(worst, weight_part_staleness(part));
  }
  return worst;
}

namespace {

/// One kControlPlane op whose check pair carries `staleness()`, so the
/// OpReport's residual is the observed drift. Any nonzero drift alarms:
/// verify re-runs the construction-time sums over the same stored values
/// in the same order, so clean weights read exactly 0.0 — an ECC-style
/// integrity check, not a rounding comparator, and the reason it needs no
/// dtype-widened threshold.
template <typename Staleness>
bool guarded_staleness_verify(std::size_t index, double cost,
                              const Staleness& staleness,
                              const GuardedExecutor& executor,
                              LayerReport& report) {
  GuardedOp op = executor.run(
      OpKind::kControlPlane, index, cost, [&](std::size_t) {
        CheckedOp checked;
        checked.output = MatrixD(1, 1);
        const double drift = staleness();
        checked.check = {drift, 0.0};
        checked.self_verdict =
            drift > 0.0 ? CheckVerdict::kAlarm : CheckVerdict::kPass;
        return checked;
      });
  const bool clean = op.report.verdict == CheckVerdict::kPass;
  report.add(std::move(op));
  return clean;
}

}  // namespace

bool guarded_weight_verify(const TransformerModel& model, std::size_t index,
                           const GuardedExecutor& executor,
                           LayerReport& report) {
  return guarded_staleness_verify(
      index, model.weight_verify_cost(),
      [&] { return model.weight_staleness(); }, executor, report);
}

bool guarded_weight_part_verify(const TransformerModel& model,
                                std::size_t part, std::size_t index,
                                const GuardedExecutor& executor,
                                LayerReport& report) {
  return guarded_staleness_verify(
      index, model.weight_part_cost(part),
      [&] { return model.weight_part_staleness(part); }, executor, report);
}

std::vector<std::size_t> TransformerModel::encode(
    std::string_view text) const {
  return embedding_.token_ids(tokenize(text));
}

KvCache TransformerModel::make_cache() const {
  return KvCache(make_pool_config(kCachePageSize, 0, 1));
}

KvPoolConfig TransformerModel::make_pool_config(std::size_t page_size,
                                                std::size_t num_pages,
                                                std::size_t sessions) const {
  KvPoolConfig pool;
  pool.page_size = page_size;
  pool.width = cfg_.num_heads * cfg_.head_dim;
  pool.num_layers = cfg_.num_layers;
  pool.dtype = cfg_.dtype;
  const std::size_t per_session =
      cfg_.num_layers * ((cfg_.max_seq_len + page_size - 1) / page_size);
  pool.num_pages =
      num_pages > 0 ? num_pages : std::max<std::size_t>(1, sessions) *
                                      per_session;
  // Progress guarantee: the oldest session is never preempted, so the pool
  // must at least fit one full-length session.
  FLASHABFT_ENSURE_MSG(pool.num_pages >= per_session,
                       "pool of " << pool.num_pages << " pages cannot hold "
                                  << "one max_seq_len session ("
                                  << per_session << " pages)");
  return pool;
}

std::size_t TransformerModel::argmax(const std::vector<double>& logits) {
  FLASHABFT_ENSURE(!logits.empty());
  std::size_t best = 0;
  for (std::size_t i = 1; i < logits.size(); ++i) {
    if (logits[i] > logits[best]) best = i;
  }
  return best;
}

void TransformerModel::lm_head_rows(const MatrixD& h, std::size_t first,
                                    ComputeBackend engine,
                                    MatrixD& out) const {
  const std::size_t dim = cfg_.model_dim;
  const std::size_t vocab = cfg_.vocab_size;
  const std::size_t rows = out.rows();
  FLASHABFT_ENSURE(h.cols() == dim && out.cols() == vocab &&
                   first + rows <= h.rows());
  const double* h_data = h.flat().data() + first * dim;
  const double* table = embedding_.table().flat().data();
  double* out_data = out.flat().data();
  for (std::size_t v = 0; v < vocab; ++v) {
    const double* t_row = table + v * dim;
    for (std::size_t r = 0; r < rows; ++r) {
      const double* h_row = h_data + r * dim;
      double dot = 0.0;
      if (engine == ComputeBackend::kSimd) {
        dot = simd::dot(h_row, t_row, dim);
      } else {
        for (std::size_t j = 0; j < dim; ++j) dot += h_row[j] * t_row[j];
      }
      out_data[r * vocab + v] = dot;
    }
  }
}

StepResult TransformerModel::prefill_paged(
    const std::vector<std::size_t>& tokens, AttentionBackend backend,
    const GuardedExecutor& executor, KvPagePool& pool, PagedKv& kv) const {
  FLASHABFT_ENSURE_MSG(!tokens.empty(), "prefill needs a non-empty prompt");
  FLASHABFT_ENSURE_MSG(tokens.size() <= cfg_.max_seq_len,
                       "prompt of " << tokens.size() << " tokens exceeds "
                                    << cfg_.max_seq_len);
  FLASHABFT_ENSURE_MSG(kv.len() == 0, "prefill needs an empty paged cache");
  FLASHABFT_ENSURE(kv.num_layers() == cfg_.num_layers);

  StepResult result;
  MatrixD x = embedding_.embed_ids(tokens, /*start_pos=*/0);
  for (std::size_t l = 0; l < layers_.size(); ++l) {
    const KvRowSink sink = [&pool, &kv, l](std::span<const double> k_row,
                                           std::span<const double> v_row) {
      pool.append(kv, l, k_row, v_row);
    };
    DecoderLayerResult out = layers_[l].forward_causal(
        x, backend, executor, /*layer_index=*/l, sink);
    x = std::move(out.output);
    result.report.add_layer(std::move(out.report));
  }
  const MatrixD h = dmr_guard(
      executor, /*index=*/layers_.size(),
      double(x.rows()) * double(cfg_.model_dim),
      [&] { return final_norm_.forward(x); }, result.report.final_ops);
  // The LM head reads the last position only: a decode batch of one row.
  MatrixD h_last(1, cfg_.model_dim);
  const double* last = h.row(h.rows() - 1).data();
  std::copy(last, last + cfg_.model_dim, h_last.row(0).data());
  const GuardedExecutor* const executors[1] = {&executor};
  LayerReport* const reports[1] = {&result.report.final_ops};
  result.logits = std::move(lm_head_batch(h_last, executors, reports).front());
  result.next_token = argmax(result.logits);
  return result;
}

StepResult TransformerModel::prefill_paged_cached(
    const std::vector<std::size_t>& tokens, std::size_t cached,
    AttentionBackend backend, const GuardedExecutor& executor,
    KvPagePool& pool, PagedKv& kv) const {
  FLASHABFT_ENSURE_MSG(cached >= 1 && cached < tokens.size(),
                       "cached prefix of " << cached << " rows needs 1 <= "
                                           << cached << " < "
                                           << tokens.size());
  FLASHABFT_ENSURE_MSG(tokens.size() <= cfg_.max_seq_len,
                       "prompt of " << tokens.size() << " tokens exceeds "
                                    << cfg_.max_seq_len);
  FLASHABFT_ENSURE_MSG(kv.len() == cached,
                       "cached prefill expects " << cached
                                                 << " mapped rows, cache has "
                                                 << kv.len());
  // Incremental decode reproduces the full causal pass (the parity tests
  // pin it), so the suffix steps rebuild exactly the state a private
  // prefill would have built — including the trimmed-away last prompt row
  // of a whole-prompt hit, whose re-append forks the shared tail via
  // copy-on-write.
  StepResult result =
      decode_step_paged(tokens[cached], backend, executor, pool, kv);
  for (std::size_t i = cached + 1; i < tokens.size(); ++i) {
    StepResult step =
        decode_step_paged(tokens[i], backend, executor, pool, kv);
    result.report.merge(std::move(step.report));
    result.logits = std::move(step.logits);
    result.next_token = step.next_token;
  }
  return result;
}

StepResult TransformerModel::decode_step_paged(
    std::size_t token, AttentionBackend backend,
    const GuardedExecutor& executor, KvPagePool& pool, PagedKv& kv) const {
  const GuardedExecutor* const executors[1] = {&executor};
  PagedKv* const kvs[1] = {&kv};
  return std::move(decode_step_batch({&token, 1}, executors, backend, pool,
                                     kvs).front());
}

std::vector<std::vector<double>> TransformerModel::lm_head_batch(
    const MatrixD& h_stacked,
    std::span<const GuardedExecutor* const> executors,
    std::span<LayerReport* const> reports) const {
  const std::size_t batch = h_stacked.rows();
  const KernelContext context = executors.front()->kernel_context();

  // One stacked logits product; the tied table (and colsum(E)) stream once
  // per batch, followed by the storage write-back rounding.
  MatrixD y(batch, cfg_.vocab_size);
  lm_head_rows(h_stacked, 0, context.backend, y);
  dtype_round_span(y.flat(), context.dtype);
  const std::vector<double>& col_e = lm_colsum_;

  // Per-session recomputation engine for retries/fallback: the same
  // readout over the session's row alone.
  const auto run_one = [&](std::size_t s, const KernelContext& engine) {
    CheckedOp op;
    op.output = MatrixD(1, cfg_.vocab_size);
    lm_head_rows(h_stacked, s, engine.backend, op.output);
    dtype_round_span(op.output.row(0), engine.dtype);
    const double* h_row = h_stacked.row(s).data();
    for (std::size_t j = 0; j < cfg_.model_dim; ++j) {
      op.check.predicted += h_row[j] * col_e[j];
    }
    op.check.actual = element_sum(op.output);
    return op;
  };

  std::vector<std::vector<double>> logits(batch);
  for (std::size_t s = 0; s < batch; ++s) {
    CheckedOp first;
    first.output = MatrixD(1, cfg_.vocab_size);
    const double* y_row = y.row(s).data();
    for (std::size_t v = 0; v < cfg_.vocab_size; ++v) {
      first.output(0, v) = y_row[v];
      first.check.actual += y_row[v];
    }
    const double* h_row = h_stacked.row(s).data();
    for (std::size_t j = 0; j < cfg_.model_dim; ++j) {
      first.check.predicted += h_row[j] * col_e[j];
    }
    GuardedOp op = executors[s]->run(
        OpKind::kProjection, lm_head_index(),
        double(cfg_.model_dim) * double(cfg_.vocab_size),
        [&](std::size_t attempt) {
          if (attempt == 0) return std::move(first);
          return run_one(s, context);
        },
        [&] { return run_one(s, executors[s]->fallback_context()); });
    logits[s].assign(op.output.row(0).begin(), op.output.row(0).end());
    reports[s]->add(std::move(op));
  }
  return logits;
}

std::vector<StepResult> TransformerModel::decode_step_batch(
    std::span<const std::size_t> tokens,
    std::span<const GuardedExecutor* const> executors,
    AttentionBackend backend, KvPagePool& pool,
    std::span<PagedKv* const> kvs) const {
  const std::size_t batch = tokens.size();
  FLASHABFT_ENSURE_MSG(batch > 0, "empty decode batch");
  FLASHABFT_ENSURE(executors.size() == batch && kvs.size() == batch);

  std::vector<StepResult> results(batch);
  MatrixD x(batch, cfg_.model_dim);
  for (std::size_t s = 0; s < batch; ++s) {
    const std::size_t pos = kvs[s]->len();
    FLASHABFT_ENSURE_MSG(pos > 0, "decode before prefill");
    FLASHABFT_ENSURE_MSG(pos < cfg_.max_seq_len,
                         "cache full at " << pos << " tokens");
    const std::size_t ids[1] = {tokens[s]};
    const MatrixD row = embedding_.embed_ids(ids, /*start_pos=*/pos);
    for (std::size_t d = 0; d < cfg_.model_dim; ++d) x(s, d) = row(0, d);
  }

  // One batched sweep per layer: the whole batch crosses layer l in a
  // single stacked forward before any session touches layer l+1. Each
  // session's reports accumulate into a per-layer LayerReport so the
  // ModelReport keeps the same per-layer attribution as the single path.
  std::vector<std::vector<LayerReport>> layer_reports(
      batch, std::vector<LayerReport>(layers_.size()));
  for (std::size_t l = 0; l < layers_.size(); ++l) {
    std::vector<LayerReport*> reports;
    reports.reserve(batch);
    for (std::size_t s = 0; s < batch; ++s) {
      reports.push_back(&layer_reports[s][l]);
    }
    x = layers_[l].forward_decode_paged_batch(x, backend, executors, pool,
                                              kvs, /*layer_index=*/l,
                                              reports);
  }
  for (std::size_t s = 0; s < batch; ++s) {
    for (LayerReport& report : layer_reports[s]) {
      results[s].report.add_layer(std::move(report));
    }
  }

  // One DMR pair over the stacked final norm, attributed to the first
  // session's stream (same policy as the batched layer glue).
  const MatrixD h = dmr_guard(
      *executors.front(), /*index=*/layers_.size(),
      double(x.rows()) * double(cfg_.model_dim),
      [&] { return final_norm_.forward(x); },
      results.front().report.final_ops);
  std::vector<LayerReport*> final_reports;
  final_reports.reserve(batch);
  for (std::size_t s = 0; s < batch; ++s) {
    final_reports.push_back(&results[s].report.final_ops);
  }
  std::vector<std::vector<double>> logits =
      lm_head_batch(h, executors, final_reports);
  for (std::size_t s = 0; s < batch; ++s) {
    results[s].logits = std::move(logits[s]);
    results[s].next_token = argmax(results[s].logits);
  }
  return results;
}

std::pair<MatrixD, ModelReport> TransformerModel::forward_full(
    const std::vector<std::size_t>& tokens, AttentionBackend backend,
    const GuardedExecutor& executor) const {
  FLASHABFT_ENSURE(!tokens.empty());
  ModelReport report;
  MatrixD x = embedding_.embed_ids(tokens, /*start_pos=*/0);
  for (std::size_t l = 0; l < layers_.size(); ++l) {
    DecoderLayerResult out =
        layers_[l].forward_causal(x, backend, executor, /*layer_index=*/l);
    x = std::move(out.output);
    report.add_layer(std::move(out.report));
  }
  const MatrixD h = final_norm_.forward(x);
  // Oracle logits at every position (unguarded: the golden path).
  MatrixD logits(h.rows(), cfg_.vocab_size);
  const MatrixD& table = embedding_.table();
  for (std::size_t i = 0; i < h.rows(); ++i) {
    for (std::size_t v = 0; v < cfg_.vocab_size; ++v) {
      double dot = 0.0;
      for (std::size_t j = 0; j < cfg_.model_dim; ++j) {
        dot += h(i, j) * table(v, j);
      }
      logits(i, v) = dot;
    }
  }
  return {std::move(logits), std::move(report)};
}

GenerationResult TransformerModel::generate(
    const std::vector<std::size_t>& prompt, std::size_t max_new_tokens,
    AttentionBackend backend, const GuardedExecutor& executor,
    KvCache& cache) const {
  FLASHABFT_ENSURE_MSG(max_new_tokens > 0, "nothing to generate");
  FLASHABFT_ENSURE_MSG(prompt.size() + max_new_tokens <= cfg_.max_seq_len,
                       "prompt " << prompt.size() << " + " << max_new_tokens
                                 << " new tokens exceeds max_seq_len "
                                 << cfg_.max_seq_len);
  GenerationResult result;
  StepResult step =
      prefill_paged(prompt, backend, executor, cache.pool, cache.kv);
  result.tokens.push_back(step.next_token);
  result.report.merge(std::move(step.report));
  while (result.tokens.size() < max_new_tokens) {
    step = decode_step_paged(result.tokens.back(), backend, executor,
                             cache.pool, cache.kv);
    result.tokens.push_back(step.next_token);
    result.report.merge(std::move(step.report));
  }
  return result;
}

}  // namespace flashabft
