// TransformerModel — the protected full-model autoregressive stack.
//
// Embedding → N stacked decoder-only layers (causal self-attention + FFN,
// every checkable op under the GuardedOp regime) → final LayerNorm → tied
// LM head (logits = h · E^T, checked by the classic matmul-ABFT product
// identity with the *same* embedding table the front-end reads). One
// `GuardedExecutor` threads through every layer of a forward; the pass
// reports through a `ModelReport` (per-layer + per-op-kind rollup).
//
// Generation is the serving shape: `prefill_paged` runs the whole prompt
// once (streaming K/V rows into the session's checksummed pool pages), then
// each decode step embeds one token at the next position, verifies +
// extends every layer's pages (O(len) per step instead of the O(len^2) full
// recompute), and produces the next-token logits. There is one decode path,
// `decode_step_batch`; a single-session step is a batch of one.
// `forward_full`, the cache-free oracle the golden-parity tests compare
// against, shares no paged kernel.
#pragma once

#include <cstdint>
#include <span>
#include <string_view>
#include <utility>
#include <vector>

#include "core/guarded_op.hpp"
#include "core/kv_pool.hpp"
#include "model/decoder_layer.hpp"
#include "model/embedding.hpp"
#include "model/layernorm.hpp"
#include "model/model_report.hpp"

namespace flashabft {

/// Shape of the autoregressive model.
struct TransformerConfig {
  std::size_t vocab_size = 256;
  std::size_t model_dim = 64;
  std::size_t num_layers = 2;
  std::size_t num_heads = 2;
  std::size_t head_dim = 32;
  std::size_t ffn_dim = 128;
  /// KV-cache capacity: prompt length + generated tokens must fit.
  std::size_t max_seq_len = 64;
  /// Storage dtype of the whole stack: weights (embedding table,
  /// projections, FFN products) are quantized at construction before any
  /// weight-derived checksum is cached, kernel outputs are rounded at
  /// write-back, and the KV caches this model shapes (make_cache /
  /// make_pool_config) store rounded rows at dtype byte width. kF32 is
  /// bit-identical to the pre-dtype model.
  DType dtype = DType::kF32;
};

/// One forward's logits (last position) and its protected-op report.
struct StepResult {
  std::vector<double> logits;  ///< vocab_size next-token scores.
  std::size_t next_token = 0;  ///< greedy argmax of `logits`.
  ModelReport report;
};

/// A full greedy generation: the produced tokens plus the merged report of
/// the prefill and every decode step.
struct GenerationResult {
  std::vector<std::size_t> tokens;  ///< generated ids (prompt excluded).
  ModelReport report;
};

/// One corruptible weight element of the stack — the fault campaign's
/// weight-subsystem site taxonomy. Drawn uniformly over every element of
/// the embedding table, the per-layer projections and the FFN products.
struct WeightSite {
  enum class Matrix {
    kEmbedding = 0,  ///< shared table: front-end rows + tied LM head.
    kWq,
    kWk,
    kWv,
    kWo,
    kFfn1,
    kFfn2,
  };
  Matrix matrix = Matrix::kEmbedding;
  std::size_t layer = 0;  ///< decoder layer; ignored for kEmbedding.
  std::size_t row = 0;
  std::size_t col = 0;
  double delta = 0.0;
};

[[nodiscard]] const char* weight_matrix_name(WeightSite::Matrix matrix);

/// A single-session paged KV store: a private pool sized for one
/// max_seq_len session and that session's page tables. Built by
/// `TransformerModel::make_cache`; `generate` runs on it. The pool holds an
/// atomic, so the holder is neither copyable nor movable — construct it in
/// place from `make_cache()`.
struct KvCache {
  explicit KvCache(const KvPoolConfig& cfg)
      : pool(cfg), kv(pool.make_session(/*session_id=*/1)) {}

  KvPagePool pool;
  PagedKv kv;
};

class TransformerModel {
 public:
  TransformerModel(const TransformerConfig& cfg, std::uint64_t seed);

  [[nodiscard]] const TransformerConfig& config() const { return cfg_; }
  [[nodiscard]] const Embedding& embedding() const { return embedding_; }
  [[nodiscard]] const DecoderLayer& layer(std::size_t i) const;

  /// Token ids of raw text through the hashed-vocabulary tokenizer.
  [[nodiscard]] std::vector<std::size_t> encode(std::string_view text) const;

  /// An empty single-session cache shaped for this model: a private pool
  /// of `make_pool_config(kCachePageSize, 0, 1)`.
  [[nodiscard]] KvCache make_cache() const;
  static constexpr std::size_t kCachePageSize = 16;

  /// A paged-pool configuration shaped for this model: `page_size`-token
  /// pages, width num_heads*head_dim, one table per layer. `num_pages` = 0
  /// derives the minimum pool that fits `sessions` full-length sessions.
  [[nodiscard]] KvPoolConfig make_pool_config(std::size_t page_size,
                                              std::size_t num_pages,
                                              std::size_t sessions) const;

  /// Full-prompt causal pass, K/V rows streamed into the session's pool
  /// pages; returns the last position's logits — the prefill of a
  /// generation session, and the producer of its first token. Also the
  /// preemption-resume path — `tokens` is then prompt + already-generated
  /// tokens (minus the last, still-undecoded one) and the returned logits
  /// are discarded. The session's tables must be empty and pages must have
  /// been reserved.
  [[nodiscard]] StepResult prefill_paged(const std::vector<std::size_t>& tokens,
                                         AttentionBackend backend,
                                         const GuardedExecutor& executor,
                                         KvPagePool& pool, PagedKv& kv) const;

  /// Cached prefill: the first `cached` rows of `tokens` were mapped from
  /// the shared-prefix index (`KvPagePool::acquire_prefix`), so only the
  /// suffix runs — one incremental decode step per remaining token, which
  /// the parity tests pin to the full causal pass. The returned
  /// logits/next_token are the last position's; the reports of every
  /// suffix step merge into one. Appends into a shared tail page fork a
  /// private copy inside the pool (copy-on-write), so `cached` may equal
  /// tokens.size() - 1 — the whole-prompt-hit trim.
  [[nodiscard]] StepResult prefill_paged_cached(
      const std::vector<std::size_t>& tokens, std::size_t cached,
      AttentionBackend backend, const GuardedExecutor& executor,
      KvPagePool& pool, PagedKv& kv) const;

  /// One autoregressive step over the paged cache: embeds `token` at
  /// position kv.len(), verifies page contents + mapping and extends every
  /// layer's pages, returns next-token logits — `decode_step_batch` over a
  /// batch of one.
  [[nodiscard]] StepResult decode_step_paged(std::size_t token,
                                             AttentionBackend backend,
                                             const GuardedExecutor& executor,
                                             KvPagePool& pool,
                                             PagedKv& kv) const;

  /// The continuous-batching sweep: advances every session one token with
  /// a single batched forward pass per layer — the stacked projections,
  /// FFN products and LM head each execute once for the whole batch
  /// (weights and their checksums stream once per layer, not once per
  /// session) while every session keeps its own checksum group, its own
  /// kKvPage verification, its own per-head attention and its own
  /// executor (`executors[i]`, whose tamper hook carries that session's
  /// faults). Results align with the inputs; per-session reports stay
  /// independent for attribution, and outputs on either compute backend
  /// are bit-identical whatever the batch size.
  [[nodiscard]] std::vector<StepResult> decode_step_batch(
      std::span<const std::size_t> tokens,
      std::span<const GuardedExecutor* const> executors,
      AttentionBackend backend, KvPagePool& pool,
      std::span<PagedKv* const> kvs) const;

  /// Cache-free full forward: logits at every position (n x vocab_size).
  /// The golden oracle incremental decode must match.
  [[nodiscard]] std::pair<MatrixD, ModelReport> forward_full(
      const std::vector<std::size_t>& tokens, AttentionBackend backend,
      const GuardedExecutor& executor) const;

  /// Greedy generation: prefill_paged + (max_new_tokens - 1)
  /// decode_step_paged steps on `cache` (which must be empty).
  [[nodiscard]] GenerationResult generate(
      const std::vector<std::size_t>& prompt, std::size_t max_new_tokens,
      AttentionBackend backend, const GuardedExecutor& executor,
      KvCache& cache) const;

  /// The LM head's global kProjection index (num_layers * 4 — past every
  /// layer's Q/K/V/O slots), so tamper hooks can target it unambiguously.
  [[nodiscard]] std::size_t lm_head_index() const {
    return cfg_.num_layers * 4;
  }

  /// Total corruptible weight elements (the WeightSite sample space).
  [[nodiscard]] std::size_t weight_element_count() const;
  /// Draws a uniform element over that space; `delta` is the shift applied.
  [[nodiscard]] WeightSite draw_weight_site(Rng& rng, double delta) const;
  /// Fault injection: shifts the site's element in place. Cached
  /// weight-derived checksums (projection/FFN input checksums, the tied LM
  /// head's colsum) deliberately go stale — paths consuming the caches
  /// alarm on the corruption, paths recomputing from the live weights stay
  /// silently consistent, and the campaign quantifies the split.
  void corrupt_weight(const WeightSite& site);

  [[nodiscard]] static std::size_t argmax(const std::vector<double>& logits);

  /// Worst storage-integrity staleness over EVERY cached weight checksum of
  /// the stack: the max of weight_part_staleness over all parts. Clean
  /// weights read exactly 0.0 at every storage dtype — both sides re-sum
  /// the same stored values in the same order — so the weight scrub built
  /// on this never needs a precision-widened threshold; a resident upset
  /// surfaces as its exact delta.
  [[nodiscard]] double weight_staleness() const;
  /// Elements a full staleness walk re-sums (the scrub op's cost metric).
  [[nodiscard]] double weight_verify_cost() const {
    return double(weight_element_count());
  }

  /// The stack's independently verifiable weight parts, in scrub order:
  /// part 0 is the tied embedding / LM head (colsum(E)), then each layer's
  /// matrices in DecoderLayer::weight_part order. A single corrupted
  /// element makes exactly one part stale.
  [[nodiscard]] std::size_t weight_part_count() const;
  /// Staleness of one part (same exact compare as weight_staleness).
  [[nodiscard]] double weight_part_staleness(std::size_t part) const;
  /// Elements one part's staleness walk re-sums; the parts sum to
  /// weight_verify_cost().
  [[nodiscard]] double weight_part_cost(std::size_t part) const;

 private:
  /// Tied LM head over every row of `h_stacked` (one row per session):
  /// one h_stacked · E^T product with one checksum group — and one
  /// OpReport — per row, guarded by the matmul-ABFT identity
  /// predicted = dot(h_row, colsum(E)). Prefill runs it over its last row.
  [[nodiscard]] std::vector<std::vector<double>> lm_head_batch(
      const MatrixD& h_stacked,
      std::span<const GuardedExecutor* const> executors,
      std::span<LayerReport* const> reports) const;

  /// Tied-head logits for rows [first, first + out.rows()) of `h`:
  /// out(r, v) = dot(h[first + r], E[v]) on `engine`. Table-row-outer, so
  /// each E row streams once per call and meets every h row in cache. The
  /// single readout of the LM head's clean path and its retry/fallback
  /// recompute, which is what keeps them bit-identical: each logit is the
  /// same dot however many rows ride along.
  void lm_head_rows(const MatrixD& h, std::size_t first,
                    ComputeBackend engine, MatrixD& out) const;

  /// Layer part `part` (>= 1) of the weight_part_* numbering.
  [[nodiscard]] WeightPart layer_weight_part(std::size_t part) const;

  TransformerConfig cfg_;
  Embedding embedding_;
  std::vector<DecoderLayer> layers_;
  LayerNorm final_norm_;
  /// colsum(E) — the tied LM head's input-side checksum. The table never
  /// changes after construction, so it is computed once, not per step.
  std::vector<double> lm_colsum_;
};

/// Guarded weight-integrity scrub, in the same shape as guarded_meta_verify
/// / guarded_page_verify: one kControlPlane op whose residual is the
/// stack's worst checksum staleness. There is no redundant weight copy to
/// repair from, so a resident upset exhausts the retries and is accepted
/// dirty (verdict kAlarm) — detected-uncorrected, the campaign's weights
/// subsystem signal. The compare is exact (clean staleness is 0.0 at every
/// dtype), so the threshold stays at the control-plane floor and detection
/// does NOT degrade under low-precision storage — the arithmetic-checksum
/// path's quantization-widened thresholds are exactly what this scrub
/// compensates for. Returns true iff the weights verified fresh.
[[nodiscard]] bool guarded_weight_verify(const TransformerModel& model,
                                         std::size_t index,
                                         const GuardedExecutor& executor,
                                         LayerReport& report);

/// The same guarded check over one weight part (TransformerModel::
/// weight_part_staleness) — what the scrubber runs, one part per item, so
/// no single slice carries the whole-model walk. The parts all verify
/// fresh exactly when guarded_weight_verify does.
[[nodiscard]] bool guarded_weight_part_verify(const TransformerModel& model,
                                              std::size_t part,
                                              std::size_t index,
                                              const GuardedExecutor& executor,
                                              LayerReport& report);

}  // namespace flashabft
