// Unit tests of the checksum-protected paged KV pool: page allocation and
// append across page boundaries, chunk-walk/element read parity, page-content
// and page-table checksum verification, selective checkpoint restoration,
// the guarded kKvPage op (recovery and escalation), per-layer and
// multi-session isolation, the strided paged Flash-ABFT kernel's parity
// with the contiguous kernels, and the paged model decode path's token
// parity across page sizes and with the cache-free full recompute.
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "core/flash_abft.hpp"
#include "core/kv_pool.hpp"
#include "model/transformer_model.hpp"
#include "tensor/random.hpp"
#include "tensor/tensor_ops.hpp"

namespace flashabft {
namespace {

KvPoolConfig small_pool_config() {
  KvPoolConfig cfg;
  cfg.num_pages = 8;
  cfg.page_size = 4;
  cfg.width = 6;
  cfg.num_layers = 2;
  return cfg;
}

double k_value(std::size_t row, std::size_t col) {
  return 1.0 + double(row) * 0.25 + double(col) * 0.125;
}
double v_value(std::size_t row, std::size_t col) {
  return -0.5 + double(row) * 0.5 - double(col) * 0.0625;
}

/// Appends `rows` deterministic K/V rows to layer `layer`.
void fill_layer(KvPagePool& pool, PagedKv& kv, std::size_t layer,
                std::size_t rows) {
  const std::size_t width = pool.config().width;
  std::vector<double> k_row(width), v_row(width);
  for (std::size_t r = kv.len(layer); rows > 0; ++r, --rows) {
    for (std::size_t c = 0; c < width; ++c) {
      k_row[c] = k_value(r, c);
      v_row[c] = v_value(r, c);
    }
    pool.append(kv, layer, k_row, v_row);
  }
}

GuardedExecutor tight_executor() {
  return GuardedExecutor(CheckerConfig{1e-9, 0.0}, RecoveryPolicy{});
}

TEST(KvPool, AppendSpansPagesAndReadsBack) {
  KvPagePool pool(small_pool_config());
  PagedKv kv = pool.make_session(7);
  fill_layer(pool, kv, /*layer=*/0, /*rows=*/10);

  EXPECT_EQ(kv.len(0), 10u);
  EXPECT_EQ(kv.pages(0), 3u);  // ceil(10 / 4)
  EXPECT_EQ(pool.pages_in_use(), 3u);
  EXPECT_EQ(pool.free_pages(), 5u);
  for (std::size_t r = 0; r < 10; ++r) {
    for (std::size_t c = 0; c < pool.config().width; ++c) {
      EXPECT_EQ(pool.k_at(kv, 0, r, c), k_value(r, c));
      EXPECT_EQ(pool.v_at(kv, 0, r, c), v_value(r, c));
    }
  }

  // The chunk walk covers the same rows in order.
  std::size_t rows = 0;
  for (const KvChunk& chunk : pool.chunks(kv, 0)) {
    for (std::size_t r = 0; r < chunk.rows; ++r, ++rows) {
      EXPECT_EQ(chunk.k[r * pool.config().width + 2], k_value(rows, 2));
      EXPECT_EQ(chunk.v[r * pool.config().width + 3], v_value(rows, 3));
    }
  }
  EXPECT_EQ(rows, 10u);
}

TEST(KvPool, PageAccountingHelpers) {
  KvPagePool pool(small_pool_config());
  EXPECT_EQ(pool.pages_for_tokens(1), 1u);
  EXPECT_EQ(pool.pages_for_tokens(4), 1u);
  EXPECT_EQ(pool.pages_for_tokens(5), 2u);
  EXPECT_EQ(pool.session_pages_for(5), 4u);  // 2 layers x 2 pages.

  PagedKv kv = pool.make_session(1);
  EXPECT_EQ(pool.append_pages_needed(kv), 2u);  // both layers open a page.
  fill_layer(pool, kv, 0, 4);
  fill_layer(pool, kv, 1, 4);
  EXPECT_EQ(pool.append_pages_needed(kv), 2u);  // next append crosses.
  fill_layer(pool, kv, 0, 1);
  fill_layer(pool, kv, 1, 1);
  EXPECT_EQ(pool.append_pages_needed(kv), 0u);
}

TEST(KvPool, CleanVerifyHasExactlyZeroResidual) {
  KvPagePool pool(small_pool_config());
  PagedKv kv = pool.make_session(3);
  fill_layer(pool, kv, 0, 9);
  const CheckedOp op = pool.verify(kv, 0);
  EXPECT_EQ(op.check.residual(), 0.0);
  ASSERT_EQ(op.extra_checks.size(), 2u);
  EXPECT_EQ(op.extra_checks[0].residual(), 0.0);  // V columns.
  EXPECT_EQ(op.extra_checks[1].residual(), 0.0);  // page table.

  // Guarded, a clean layer is one clean execution.
  const GuardedExecutor executor = tight_executor();
  LayerReport report;
  EXPECT_TRUE(guarded_page_verify(pool, kv, 0, 0, executor, report));
  ASSERT_EQ(report.ops.size(), 1u);
  EXPECT_EQ(report.ops[0].recovery, RecoveryStatus::kCleanFirstTry);
  EXPECT_EQ(report.ops[0].executions, 1u);
}

TEST(KvPool, DataCorruptionAlarmsAndGuardedRestoreRecovers) {
  KvPagePool pool(small_pool_config());
  PagedKv kv = pool.make_session(3);
  fill_layer(pool, kv, 0, 10);
  const double before = pool.k_at(kv, 0, 6, 2);

  pool.corrupt_k(kv, 0, /*row=*/6, /*col=*/2, /*delta=*/0.75);
  EXPECT_EQ(pool.k_at(kv, 0, 6, 2), before + 0.75);
  const CheckedOp alarmed = pool.verify(kv, 0);
  EXPECT_NEAR(alarmed.check.residual(), 0.75, 1e-12);  // worst K column.
  EXPECT_EQ(alarmed.extra_checks[0].residual(), 0.0);  // V untouched.

  const GuardedExecutor executor = tight_executor();
  LayerReport report;
  EXPECT_TRUE(guarded_page_verify(pool, kv, 0, /*index=*/0, executor, report));
  ASSERT_EQ(report.ops.size(), 1u);
  EXPECT_EQ(report.ops[0].kind, OpKind::kKvPage);
  EXPECT_EQ(report.ops[0].recovery, RecoveryStatus::kRecovered);
  EXPECT_EQ(report.ops[0].alarms, 1u);
  EXPECT_EQ(pool.k_at(kv, 0, 6, 2), before);  // re-materialized.
}

TEST(KvPool, ValueSideCorruptionAlsoRecovers) {
  KvPagePool pool(small_pool_config());
  PagedKv kv = pool.make_session(4);
  fill_layer(pool, kv, 1, 5);
  const double before = pool.v_at(kv, 1, 4, 5);
  pool.corrupt_v(kv, 1, 4, 5, -1.25);
  const CheckedOp alarmed = pool.verify(kv, 1);
  EXPECT_EQ(alarmed.check.residual(), 0.0);  // K untouched.
  EXPECT_NEAR(alarmed.extra_checks[0].residual(), 1.25, 1e-12);

  const GuardedExecutor executor = tight_executor();
  LayerReport report;
  EXPECT_TRUE(guarded_page_verify(pool, kv, 1, 1, executor, report));
  EXPECT_EQ(report.ops[0].recovery, RecoveryStatus::kRecovered);
  EXPECT_EQ(pool.v_at(kv, 1, 4, 5), before);
}

TEST(KvPool, PageTableCorruptionIsCaughtByTheMappingChecksum) {
  KvPagePool pool(small_pool_config());
  PagedKv kv = pool.make_session(5);
  fill_layer(pool, kv, 0, 10);
  const double before = pool.k_at(kv, 0, 5, 0);

  // Redirect the table entry of the page holding row 5. Page contents are
  // untouched, so only the mapping pair can alarm.
  pool.corrupt_page_table(kv, 0, /*row=*/5, /*shift=*/3);
  EXPECT_NE(pool.k_at(kv, 0, 5, 0), before);
  const CheckedOp alarmed = pool.verify(kv, 0);
  ASSERT_EQ(alarmed.extra_checks.size(), 2u);
  EXPECT_GT(alarmed.extra_checks[1].residual(), 0.0);

  const GuardedExecutor executor = tight_executor();
  LayerReport report;
  EXPECT_TRUE(guarded_page_verify(pool, kv, 0, 0, executor, report));
  EXPECT_EQ(report.ops[0].recovery, RecoveryStatus::kRecovered);
  EXPECT_EQ(pool.k_at(kv, 0, 5, 0), before);
}

TEST(KvPool, DoubleFaultPageAndTableRecoverTogether) {
  KvPagePool pool(small_pool_config());
  PagedKv kv = pool.make_session(6);
  fill_layer(pool, kv, 0, 10);
  const double k_before = pool.k_at(kv, 0, 2, 1);

  // Corrupt a page *and* its table entry in the same tick. Order matters
  // for realism: the data upset lands through the true mapping, then the
  // mapping itself is redirected.
  pool.corrupt_k(kv, 0, 2, 1, 2.0);
  pool.corrupt_page_table(kv, 0, 2, 5);

  const GuardedExecutor executor = tight_executor();
  LayerReport report;
  EXPECT_TRUE(guarded_page_verify(pool, kv, 0, 0, executor, report));
  EXPECT_EQ(report.ops[0].recovery, RecoveryStatus::kRecovered);
  EXPECT_EQ(pool.k_at(kv, 0, 2, 1), k_before);
  EXPECT_EQ(pool.verify(kv, 0).check.residual(), 0.0);
  EXPECT_EQ(pool.verify(kv, 0).extra_checks[1].residual(), 0.0);
}

TEST(KvPool, TamperedVerdictEscalatesWithoutFallback) {
  // A kKvPage op that keeps alarming past the retry budget (the tamper hook
  // models the checkpoint itself being suspect) escalates — there is no
  // fallback engine for stored state — and is accepted dirty.
  KvPagePool pool(small_pool_config());
  PagedKv kv = pool.make_session(8);
  fill_layer(pool, kv, 0, 4);
  GuardedExecutor executor(CheckerConfig{1e-6}, RecoveryPolicy{1});
  executor.set_tamper([](OpKind kind, std::size_t, std::size_t,
                         CheckedOp& op) {
    if (kind == OpKind::kKvPage) op.check.actual += 1.0;
  });
  LayerReport report;
  EXPECT_FALSE(guarded_page_verify(pool, kv, 0, 0, executor, report));
  ASSERT_EQ(report.ops.size(), 1u);
  EXPECT_EQ(report.ops[0].kind, OpKind::kKvPage);
  EXPECT_EQ(report.ops[0].recovery, RecoveryStatus::kEscalated);
  EXPECT_EQ(report.ops[0].executions, 2u);
  EXPECT_FALSE(report.all_accepted_clean());
}

TEST(KvPool, PerLayerTablesAreIndependent) {
  KvPoolConfig cfg = small_pool_config();
  cfg.num_layers = 3;
  KvPagePool pool(cfg);
  PagedKv kv = pool.make_session(9);
  for (std::size_t l = 0; l < 3; ++l) fill_layer(pool, kv, l, 5);
  // An upset in layer 1 shows in layer 1's verify only.
  pool.corrupt_k(kv, 1, /*row=*/0, /*col=*/0, 0.5);
  for (const std::size_t l : {0u, 2u}) {
    const CheckedOp clean = pool.verify(kv, l);
    EXPECT_EQ(clean.check.residual(), 0.0) << "layer " << l;
    for (const ChecksumPair& extra : clean.extra_checks) {
      EXPECT_EQ(extra.residual(), 0.0) << "layer " << l;
    }
  }
  EXPECT_NEAR(pool.verify(kv, 1).check.residual(), 0.5, 1e-12);
}

TEST(KvPool, FreeSessionReturnsPagesAndSessionsStayIsolated) {
  KvPagePool pool(small_pool_config());
  PagedKv a = pool.make_session(1);
  PagedKv b = pool.make_session(2);
  fill_layer(pool, a, 0, 4);
  fill_layer(pool, b, 0, 4);
  EXPECT_EQ(pool.pages_in_use(), 2u);
  // Session b's rows live in its own page, unaffected by a's release.
  const double b_val = pool.k_at(b, 0, 3, 3);
  pool.free_session(a);
  EXPECT_EQ(pool.pages_in_use(), 1u);
  EXPECT_EQ(a.len(0), 0u);
  EXPECT_EQ(pool.k_at(b, 0, 3, 3), b_val);
  EXPECT_EQ(pool.verify(b, 0).check.residual(), 0.0);
  EXPECT_EQ(pool.peak_pages_in_use(), 2u);
}

TEST(KvPool, ExhaustedPoolThrows) {
  KvPoolConfig cfg = small_pool_config();
  cfg.num_pages = 2;
  KvPagePool pool(cfg);
  PagedKv kv = pool.make_session(1);
  fill_layer(pool, kv, 0, 8);  // both pages.
  EXPECT_EQ(pool.free_pages(), 0u);
  std::vector<double> row(cfg.width, 1.0);
  EXPECT_THROW(pool.append(kv, 0, row, row), EnsureError);
}

TEST(KvPool, PagedAttentionMatchesContiguousKernelBitwise) {
  KvPoolConfig cfg;
  cfg.num_pages = 6;
  cfg.page_size = 5;
  cfg.width = 16;  // 2 heads x 8.
  cfg.num_layers = 1;
  KvPagePool pool(cfg);
  PagedKv kv = pool.make_session(1);
  Rng rng(0xA11CE);
  MatrixD k_rows(13, cfg.width), v_rows(13, cfg.width), q(1, 8);
  fill_gaussian(k_rows, rng);
  fill_gaussian(v_rows, rng);
  fill_gaussian(q, rng);
  for (std::size_t r = 0; r < 13; ++r) {
    pool.append(kv, 0, k_rows.row(r), v_rows.row(r));
  }
  const std::vector<KvChunk> chunks = pool.chunks(kv, 0);
  const double scale = 1.0 / std::sqrt(8.0);
  AttentionConfig attn;
  attn.seq_len = 13;
  attn.head_dim = 8;
  attn.scale = scale;

  for (std::size_t head = 0; head < 2; ++head) {
    // The head's K/V as stored, read element by element into contiguous
    // matrices.
    MatrixD k(13, 8), v(13, 8);
    for (std::size_t r = 0; r < 13; ++r) {
      for (std::size_t x = 0; x < 8; ++x) {
        k(r, x) = pool.k_at(kv, 0, r, head * 8 + x);
        v(r, x) = pool.v_at(kv, 0, r, head * 8 + x);
      }
    }
    for (const ComputeBackend backend :
         {ComputeBackend::kScalar, ComputeBackend::kSimd}) {
      for (const DType dtype : {DType::kF32, DType::kBf16}) {
        FlashAbftOptions options;
        options.context = KernelContext{backend, dtype};
        const CheckedAttention golden =
            flash_abft_attention(q, k, v, attn, options);
        const CheckedOp paged = paged_flash_abft_head(
            q, chunks, cfg.width, head, scale, options.context);
        EXPECT_EQ(paged.output, golden.output)
            << "head " << head << " backend " << backend_name(backend);
        EXPECT_EQ(paged.check.predicted, golden.predicted_checksum);
        EXPECT_EQ(paged.check.actual, golden.actual_checksum);
      }
    }
  }
}

// Paged decode is page-size independent (a 4-row-page pool against
// generate's private 16-row-page cache) and matches the argmax of the
// cache-free full recompute, which shares no paged kernel.
TEST(KvPool, PagedModelDecodeMatchesGenerateAndFullRecompute) {
  TransformerConfig cfg;
  cfg.vocab_size = 64;
  cfg.model_dim = 16;
  cfg.num_layers = 2;
  cfg.num_heads = 2;
  cfg.head_dim = 8;
  cfg.ffn_dim = 32;
  cfg.max_seq_len = 32;
  const TransformerModel model(cfg, /*seed=*/2029);
  const GuardedExecutor executor(CheckerConfig{1e-6, 0.0}, RecoveryPolicy{});
  const std::vector<std::size_t> prompt{5, 40, 2, 19, 33, 8};

  KvCache cache = model.make_cache();
  GenerationResult golden = model.generate(
      prompt, /*max_new_tokens=*/6, AttentionBackend::kFlashAbft, executor,
      cache);

  KvPagePool pool(model.make_pool_config(/*page_size=*/4, /*num_pages=*/0,
                                         /*sessions=*/1));
  PagedKv kv = pool.make_session(1);
  std::vector<std::size_t> tokens;
  StepResult step =
      model.prefill_paged(prompt, AttentionBackend::kFlashAbft, executor,
                          pool, kv);
  tokens.push_back(step.next_token);
  while (tokens.size() < 6) {
    step = model.decode_step_paged(tokens.back(),
                                   AttentionBackend::kFlashAbft, executor,
                                   pool, kv);
    tokens.push_back(step.next_token);
    EXPECT_TRUE(step.report.all_accepted_clean());
    // Every decode step verifies every layer's pages + mapping.
    EXPECT_EQ(step.report.rollup()[std::size_t(OpKind::kKvPage)].checks,
              cfg.num_layers);
  }
  EXPECT_EQ(tokens, golden.tokens);

  std::vector<std::size_t> sequence = prompt;
  for (const std::size_t token : tokens) {
    const auto [logits, report] =
        model.forward_full(sequence, AttentionBackend::kFlashAbft, executor);
    const std::size_t last = logits.rows() - 1;
    EXPECT_EQ(TransformerModel::argmax(std::vector<double>(
                  logits.row(last).begin(), logits.row(last).end())),
              token)
        << "at length " << sequence.size();
    sequence.push_back(token);
  }
}

TEST(KvPool, PoolConfigDerivationGuaranteesOneFullSession) {
  TransformerConfig cfg;
  cfg.model_dim = 16;
  cfg.num_layers = 3;
  cfg.num_heads = 2;
  cfg.head_dim = 8;
  cfg.ffn_dim = 32;
  cfg.max_seq_len = 20;
  const TransformerModel model(cfg, 1);
  const KvPoolConfig pool = model.make_pool_config(8, 0, 4);
  // 4 sessions x 3 layers x ceil(20/8) pages.
  EXPECT_EQ(pool.num_pages, 4u * 3u * 3u);
  EXPECT_EQ(pool.width, 16u);
  EXPECT_THROW((void)model.make_pool_config(8, 2, 1), EnsureError);
}

}  // namespace
}  // namespace flashabft
