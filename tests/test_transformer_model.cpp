// Tests of the protected full-model autoregressive stack: golden parity of
// incremental paged-KV decode against full-sequence recomputation,
// ModelReport aggregation and per-layer fault attribution, the tied
// guarded LM head, and KV-corruption recovery inside a decode step.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <string>
#include <vector>

#include "model/transformer_model.hpp"

namespace flashabft {
namespace {

TransformerConfig small_model() {
  TransformerConfig cfg;
  cfg.vocab_size = 64;
  cfg.model_dim = 16;
  cfg.num_layers = 3;
  cfg.num_heads = 2;
  cfg.head_dim = 8;
  cfg.ffn_dim = 32;
  cfg.max_seq_len = 32;
  return cfg;
}

std::vector<std::size_t> test_prompt() { return {7, 42, 3, 3, 19, 60, 11}; }

// Per-layer census of one decoder-only pass: H heads + 4 projections +
// 2 FFN products (+1 page check per decode step).
constexpr std::size_t kLayerOps = 2 + 4 + 2;

TEST(TransformerModel, EncodeProducesVocabBoundedIds) {
  const TransformerModel model(small_model(), 99);
  const std::vector<std::size_t> ids =
      model.encode("the quick brown fox, again!");
  EXPECT_GT(ids.size(), 4u);
  for (const std::size_t id : ids) EXPECT_LT(id, small_model().vocab_size);
  EXPECT_EQ(ids, model.encode("the quick brown fox, again!"));
}

TEST(TransformerModel, PrefillFillsEveryLayerCacheAndReportsFullCensus) {
  const TransformerModel model(small_model(), 100);
  const GuardedExecutor exec(CheckerConfig{1e-6}, RecoveryPolicy{});
  KvCache cache = model.make_cache();
  const std::vector<std::size_t> prompt = test_prompt();

  const StepResult step = model.prefill_paged(
      prompt, AttentionBackend::kFlashAbft, exec, cache.pool, cache.kv);
  EXPECT_EQ(cache.kv.len(), prompt.size());
  for (std::size_t l = 0; l < small_model().num_layers; ++l) {
    EXPECT_EQ(cache.kv.len(l), prompt.size());
    EXPECT_EQ(cache.pool.verify(cache.kv, l).check.residual(), 0.0);
  }
  EXPECT_EQ(step.logits.size(), small_model().vocab_size);
  EXPECT_LT(step.next_token, small_model().vocab_size);
  ASSERT_EQ(step.report.num_layers(), small_model().num_layers);
  for (std::size_t l = 0; l < small_model().num_layers; ++l) {
    EXPECT_EQ(step.report.layers[l].ops.size(), kLayerOps);
  }
  // The tied LM head is the single model-level op, at its global index.
  ASSERT_EQ(step.report.final_ops.ops.size(), 1u);
  EXPECT_EQ(step.report.final_ops.ops[0].kind, OpKind::kProjection);
  EXPECT_EQ(step.report.final_ops.ops[0].index, model.lm_head_index());
  EXPECT_TRUE(step.report.all_accepted_clean());
}

TEST(TransformerModel, DecodeStepAddsCacheChecksToTheCensus) {
  const TransformerModel model(small_model(), 101);
  const GuardedExecutor exec(CheckerConfig{1e-6}, RecoveryPolicy{});
  KvCache cache = model.make_cache();
  const StepResult first = model.prefill_paged(
      test_prompt(), AttentionBackend::kFlashAbft, exec, cache.pool, cache.kv);
  const StepResult step = model.decode_step_paged(
      first.next_token, AttentionBackend::kFlashAbft, exec, cache.pool,
      cache.kv);
  EXPECT_EQ(cache.kv.len(), test_prompt().size() + 1);
  const ModelOpRollup rollup = step.report.rollup();
  EXPECT_EQ(rollup[std::size_t(OpKind::kKvPage)].checks,
            small_model().num_layers);
  for (std::size_t l = 0; l < small_model().num_layers; ++l) {
    EXPECT_EQ(step.report.layers[l].ops.size(), kLayerOps + 1);
    EXPECT_EQ(step.report.layers[l].count(OpKind::kKvPage), 1u);
  }
  EXPECT_TRUE(step.report.all_accepted_clean());
}

// The acceptance-criterion parity test: greedy incremental decode over the
// KV cache must match recomputing full-sequence attention at every step.
TEST(TransformerModel, IncrementalDecodeMatchesFullRecompute) {
  const TransformerModel model(small_model(), 102);
  const GuardedExecutor exec(CheckerConfig{1e-6}, RecoveryPolicy{});
  const std::vector<std::size_t> prompt = test_prompt();
  const std::size_t kNewTokens = 5;

  KvCache cache = model.make_cache();
  const GenerationResult incremental = model.generate(
      prompt, kNewTokens, AttentionBackend::kFlashAbft, exec, cache);
  ASSERT_EQ(incremental.tokens.size(), kNewTokens);
  EXPECT_TRUE(incremental.report.all_accepted_clean());

  // Oracle: after each accepted token, recompute the WHOLE sequence
  // cache-free and compare the last position's logits and argmax.
  std::vector<std::size_t> sequence = prompt;
  for (std::size_t t = 0; t < kNewTokens; ++t) {
    const auto [logits, report] =
        model.forward_full(sequence, AttentionBackend::kFlashAbft, exec);
    const std::size_t last = logits.rows() - 1;
    std::vector<double> last_row(logits.row(last).begin(),
                                 logits.row(last).end());
    EXPECT_EQ(TransformerModel::argmax(last_row), incremental.tokens[t])
        << "diverged at generated token " << t;
    sequence.push_back(incremental.tokens[t]);
  }

  // And the logits themselves agree within checker-level tolerance: rerun
  // the incremental path capturing each step's logits.
  KvCache cache2 = model.make_cache();
  StepResult step = model.prefill_paged(prompt, AttentionBackend::kFlashAbft,
                                        exec, cache2.pool, cache2.kv);
  std::vector<std::size_t> replay = prompt;
  for (std::size_t t = 0; t < kNewTokens; ++t) {
    const auto [logits, report] =
        model.forward_full(replay, AttentionBackend::kFlashAbft, exec);
    const std::size_t last = logits.rows() - 1;
    double worst = 0.0;
    for (std::size_t v = 0; v < small_model().vocab_size; ++v) {
      worst = std::max(worst, std::fabs(step.logits[v] - logits(last, v)));
    }
    EXPECT_LT(worst, 1e-9) << "logit drift at step " << t;
    replay.push_back(step.next_token);
    if (t + 1 < kNewTokens) {
      step = model.decode_step_paged(step.next_token,
                                     AttentionBackend::kFlashAbft, exec,
                                     cache2.pool, cache2.kv);
    }
  }
}

// Satellite: one emulated fault per layer index, attributed by the rollup
// to the right layer and OpKind.
TEST(TransformerModel, ModelReportAttributesFaultsToLayerAndKind) {
  const TransformerConfig cfg = small_model();
  const TransformerModel model(cfg, 103);
  // One transient fault per layer, each a different kind, addressed by the
  // model's global op indices: layer 0 -> attention head 1 (index 0*H+1),
  // layer 1 -> K projection (index 1*4+1), layer 2 -> first FFN product
  // (index 2*2+0).
  struct Planted {
    OpKind kind;
    std::size_t index;
  };
  const Planted planted[3] = {
      {OpKind::kAttentionFlashAbft, 0 * cfg.num_heads + 1},
      {OpKind::kProjection, 1 * 4 + 1},
      {OpKind::kFfn, 2 * 2 + 0},
  };

  GuardedExecutor exec(CheckerConfig{1e-6}, RecoveryPolicy{});
  exec.set_tamper([&planted](OpKind kind, std::size_t index,
                             std::size_t attempt, CheckedOp& op) {
    if (attempt > 0) return;  // transient: first attempt only.
    for (const Planted& p : planted) {
      if (p.kind == kind && p.index == index) {
        op.output(0, 0) += 1e-2;
        op.check.actual += 1e-2;
      }
    }
  });

  KvCache cache = model.make_cache();
  const StepResult step = model.prefill_paged(
      test_prompt(), AttentionBackend::kFlashAbft, exec, cache.pool, cache.kv);

  const ModelOpRollup total = step.report.rollup();
  EXPECT_EQ(total[std::size_t(OpKind::kAttentionFlashAbft)].alarms, 1u);
  EXPECT_EQ(total[std::size_t(OpKind::kProjection)].alarms, 1u);
  EXPECT_EQ(total[std::size_t(OpKind::kFfn)].alarms, 1u);

  for (std::size_t l = 0; l < cfg.num_layers; ++l) {
    const ModelOpRollup layer = step.report.layer_rollup(l);
    for (std::size_t k = 0; k < kOpKindCount; ++k) {
      const bool is_planted = OpKind(k) == planted[l].kind;
      EXPECT_EQ(layer[k].alarms, is_planted ? 1u : 0u)
          << "layer " << l << " kind " << op_kind_name(OpKind(k));
      EXPECT_EQ(layer[k].recovered, is_planted ? 1u : 0u)
          << "layer " << l << " kind " << op_kind_name(OpKind(k));
      EXPECT_EQ(layer[k].escalated, 0u);
    }
  }
  // Every fault recovered in place: the pass is clean and the output
  // matches a fault-free run.
  EXPECT_TRUE(step.report.all_accepted_clean());
  const GuardedExecutor clean_exec(CheckerConfig{1e-6}, RecoveryPolicy{});
  KvCache clean_cache = model.make_cache();
  const StepResult golden =
      model.prefill_paged(test_prompt(), AttentionBackend::kFlashAbft,
                          clean_exec, clean_cache.pool, clean_cache.kv);
  EXPECT_EQ(step.next_token, golden.next_token);
  for (std::size_t v = 0; v < cfg.vocab_size; ++v) {
    EXPECT_EQ(step.logits[v], golden.logits[v]);
  }
}

TEST(TransformerModel, KvCorruptionBetweenStepsIsRepairedInPlace) {
  const TransformerModel model(small_model(), 104);
  const GuardedExecutor exec(CheckerConfig{1e-6}, RecoveryPolicy{});
  const std::vector<std::size_t> prompt = test_prompt();

  // Golden: two clean decode steps.
  KvCache golden_cache = model.make_cache();
  StepResult golden =
      model.prefill_paged(prompt, AttentionBackend::kFlashAbft, exec,
                          golden_cache.pool, golden_cache.kv);
  golden = model.decode_step_paged(golden.next_token,
                                   AttentionBackend::kFlashAbft, exec,
                                   golden_cache.pool, golden_cache.kv);

  // Same run, but a storage upset lands in layer 1's cached K between the
  // prefill and the decode step.
  KvCache cache = model.make_cache();
  StepResult step = model.prefill_paged(prompt, AttentionBackend::kFlashAbft,
                                        exec, cache.pool, cache.kv);
  cache.pool.corrupt_k(cache.kv, 1, 2, 5, 2.0);
  step = model.decode_step_paged(step.next_token, AttentionBackend::kFlashAbft,
                                 exec, cache.pool, cache.kv);

  // Detected in layer 1's page check, repaired from the checkpoint, and
  // the step's logits are exactly the golden run's.
  const ModelOpRollup l1 = step.report.layer_rollup(1);
  EXPECT_EQ(l1[std::size_t(OpKind::kKvPage)].alarms, 1u);
  EXPECT_EQ(l1[std::size_t(OpKind::kKvPage)].recovered, 1u);
  const ModelOpRollup l0 = step.report.layer_rollup(0);
  EXPECT_EQ(l0[std::size_t(OpKind::kKvPage)].alarms, 0u);
  EXPECT_TRUE(step.report.all_accepted_clean());
  EXPECT_EQ(step.next_token, golden.next_token);
  for (std::size_t v = 0; v < small_model().vocab_size; ++v) {
    EXPECT_EQ(step.logits[v], golden.logits[v]);
  }
}

// The continuous-batching sweep must not change a single bit: at every
// batch size, each session's logits and next token from decode_step_batch
// equal an independent single-session decode_step_paged run (a batch of
// one) over the same prompt, step after step. The shape puts the FFN and
// the vocabulary past one 256-column weight-stationary block, with widths
// that are not multiples of it.
TEST(TransformerModel, DecodeStepBatchMatchesPerSessionDecodeBitwise) {
  TransformerConfig cfg = small_model();
  cfg.vocab_size = 300;
  cfg.model_dim = 20;
  cfg.num_layers = 2;
  cfg.head_dim = 10;
  cfg.ffn_dim = 270;
  const TransformerModel model(cfg, 106);
  constexpr std::size_t kSteps = 4;
  for (const ComputeBackend compute :
       {ComputeBackend::kScalar, ComputeBackend::kSimd}) {
    GuardedExecutor::Options options;
    options.compute = compute;
    const GuardedExecutor exec(options);
    for (std::size_t batch = 1; batch <= 8; ++batch) {
      KvPagePool batch_pool(model.make_pool_config(4, 0, batch));
      KvPagePool single_pool(model.make_pool_config(4, 0, batch));
      std::vector<PagedKv> batch_kvs, single_kvs;
      std::vector<std::size_t> batch_tokens, single_tokens;
      for (std::size_t s = 0; s < batch; ++s) {
        std::vector<std::size_t> prompt;
        for (std::size_t i = 0; i < 3 + s % 4; ++i) {
          prompt.push_back((s * 37 + i * 11 + 1) % cfg.vocab_size);
        }
        batch_kvs.push_back(batch_pool.make_session(s + 1));
        single_kvs.push_back(single_pool.make_session(s + 1));
        batch_tokens.push_back(
            model.prefill_paged(prompt, AttentionBackend::kFlashAbft, exec,
                                batch_pool, batch_kvs.back())
                .next_token);
        single_tokens.push_back(
            model.prefill_paged(prompt, AttentionBackend::kFlashAbft, exec,
                                single_pool, single_kvs.back())
                .next_token);
      }
      std::vector<PagedKv*> kv_ptrs;
      for (PagedKv& kv : batch_kvs) kv_ptrs.push_back(&kv);
      const std::vector<const GuardedExecutor*> executors(batch, &exec);
      for (std::size_t step = 0; step < kSteps; ++step) {
        const std::vector<StepResult> stacked = model.decode_step_batch(
            batch_tokens, executors, AttentionBackend::kFlashAbft,
            batch_pool, kv_ptrs);
        ASSERT_EQ(stacked.size(), batch);
        for (std::size_t s = 0; s < batch; ++s) {
          const StepResult single = model.decode_step_paged(
              single_tokens[s], AttentionBackend::kFlashAbft, exec,
              single_pool, single_kvs[s]);
          const std::string where = std::string(backend_name(compute)) +
                                    " batch " + std::to_string(batch) +
                                    " session " + std::to_string(s) +
                                    " step " + std::to_string(step);
          EXPECT_TRUE(stacked[s].report.all_accepted_clean()) << where;
          EXPECT_EQ(stacked[s].next_token, single.next_token) << where;
          ASSERT_EQ(stacked[s].logits.size(), single.logits.size());
          for (std::size_t v = 0; v < single.logits.size(); ++v) {
            ASSERT_EQ(std::bit_cast<std::uint64_t>(stacked[s].logits[v]),
                      std::bit_cast<std::uint64_t>(single.logits[v]))
                << where << " logit " << v;
          }
          batch_tokens[s] = stacked[s].next_token;
          single_tokens[s] = single.next_token;
        }
      }
    }
  }
}

TEST(TransformerModel, GenerateRespectsCapacityBounds) {
  const TransformerModel model(small_model(), 105);
  const GuardedExecutor exec(CheckerConfig{1e-6}, RecoveryPolicy{});
  KvCache cache = model.make_cache();
  std::vector<std::size_t> prompt(30, 1);  // 30 + 5 > max_seq_len 32.
  EXPECT_THROW((void)model.generate(prompt, 5, AttentionBackend::kFlashAbft,
                                    exec, cache),
               EnsureError);
}

}  // namespace
}  // namespace flashabft
