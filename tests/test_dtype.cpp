// Low-precision storage dtype tests: bit-exact round-trip properties of
// the bf16/f16 write-back rounding, the rounding-error-bound model behind
// derive_tolerances(), f32 golden parity of the dtype-aware stack, the
// zero-false-alarm guarantee of calibrated low-precision decoding, fault
// detection at bf16 under the derived thresholds, and the KV byte
// accounting that doubles page capacity at 16-bit storage.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <vector>

#include "core/kv_pool.hpp"
#include "fault/calibrate.hpp"
#include "fault/serve_campaign/report.hpp"
#include "model/linear.hpp"
#include "model/transformer_model.hpp"
#include "numerics/dtype.hpp"
#include "tensor/random.hpp"
#include "tensor/tensor_ops.hpp"

namespace flashabft {
namespace {

std::uint32_t float_bits(float value) {
  std::uint32_t bits = 0;
  std::memcpy(&bits, &value, sizeof(bits));
  return bits;
}

TransformerConfig tiny_model(DType dtype) {
  TransformerConfig cfg;
  cfg.vocab_size = 64;
  cfg.model_dim = 16;
  cfg.num_layers = 2;
  cfg.num_heads = 2;
  cfg.head_dim = 8;
  cfg.ffn_dim = 32;
  cfg.max_seq_len = 32;
  cfg.dtype = dtype;
  return cfg;
}

GuardedExecutor::Options calibrated_options(DType dtype,
                                            const TransformerConfig& cfg) {
  GuardedExecutor::Options options;
  options.dtype = dtype;
  if (dtype != DType::kF32) {
    options.tolerances = derive_tolerances(dtype, tolerance_shape_for(cfg));
  }
  return options;
}

std::vector<std::size_t> test_prompt() { return {7, 42, 3, 3, 19, 60, 11}; }

// ---------------------------------------------------------------------------
// Round-trip properties of the storage formats.

TEST(Dtype, F32RoundIsBitIdentity) {
  const double values[] = {0.0,
                           -0.0,
                           1.0,
                           -1.0 / 3.0,
                           1e-300,
                           -1e300,
                           std::numeric_limits<double>::infinity(),
                           std::numeric_limits<double>::denorm_min()};
  for (const double v : values) {
    const double r = dtype_round(v, DType::kF32);
    EXPECT_EQ(std::memcmp(&r, &v, sizeof(v)), 0);
  }
  EXPECT_TRUE(std::isnan(
      dtype_round(std::numeric_limits<double>::quiet_NaN(), DType::kF32)));
}

TEST(Dtype, RoundIsIdempotentAndWithinUnitRoundoff) {
  Rng rng(0xD17E);
  for (const DType dtype : {DType::kBf16, DType::kF16}) {
    const double u = dtype_unit_roundoff(dtype);
    // Below the format's normal range the error bound is absolute (half a
    // subnormal ulp), not relative: 2^-25 for f16 (min normal 2^-14, 10
    // mantissa bits), 2^-134 for bf16 (min normal 2^-126, 7 bits).
    const double denorm_half_ulp =
        dtype == DType::kF16 ? std::ldexp(1.0, -25) : std::ldexp(1.0, -134);
    for (int i = 0; i < 2000; ++i) {
      // Magnitudes across several decades of exponent (including the f16
      // subnormal range near 1e-5).
      const double x = (rng.next_double() * 2.0 - 1.0) *
                       std::pow(10.0, double(i % 9) - 4.0);
      const double once = dtype_round(x, dtype);
      EXPECT_EQ(dtype_round(once, dtype), once);  // idempotent
      EXPECT_LE(std::abs(once - x),
                std::max(u * std::abs(x), denorm_half_ulp));
      EXPECT_EQ(dtype_round(-x, dtype), -once);   // sign symmetry
    }
  }
}

TEST(Dtype, SmallIntegersRoundExactly) {
  // bf16 has 8 significand bits (1 implicit + 7): integers to 256 exact.
  for (int i = -256; i <= 256; ++i) {
    EXPECT_EQ(dtype_round(double(i), DType::kBf16), double(i));
  }
  // f16 has 11 significand bits: integers to 2048 exact.
  for (int i = -2048; i <= 2048; i += 7) {
    EXPECT_EQ(dtype_round(double(i), DType::kF16), double(i));
  }
}

// Bit-exact reference for bf16 rounding: RNE on the low 16 bits of the
// binary32 representation (bf16 IS the top half of a float).
TEST(Dtype, Bf16MatchesBitExactRneReference) {
  Rng rng(0xBF16);
  for (int i = 0; i < 5000; ++i) {
    const float x = float((rng.next_double() * 2.0 - 1.0) *
                          std::pow(10.0, double(i % 11) - 5.0));
    const std::uint32_t bits = float_bits(x);
    const std::uint32_t low = bits & 0xFFFFu;
    std::uint32_t high = bits >> 16;
    // Round-to-nearest-even on the truncated 16 bits.
    if (low > 0x8000u || (low == 0x8000u && (high & 1u))) ++high;
    const float expected = [&] {
      const std::uint32_t wide = high << 16;
      float out = 0.0f;
      std::memcpy(&out, &wide, sizeof(out));
      return out;
    }();
    EXPECT_EQ(float(dtype_round(double(x), DType::kBf16)), expected)
        << "x=" << x;
  }
}

// f16 reference: the rounded value must be the nearest representable half
// (neither 16-bit neighbour is strictly closer), ties broken to even.
TEST(Dtype, F16RoundsToNearestRepresentable) {
  Rng rng(0xF16F);
  for (int i = 0; i < 5000; ++i) {
    const double x =
        (rng.next_double() * 2.0 - 1.0) * std::pow(10.0, double(i % 7) - 3.0);
    const double r = dtype_round(x, DType::kF16);
    const fp16 h{float(r)};
    EXPECT_EQ(fp16::round(float(r)), float(r));  // representable
    const double err = std::abs(r - x);
    for (const int delta : {-1, +1}) {
      const fp16 neighbour =
          fp16::from_bits(std::uint16_t(h.bits() + delta));
      if (neighbour.is_nan() || neighbour.is_inf()) continue;
      // Sign-bit wraparound produces a far value; the check still holds.
      EXPECT_LE(err, std::abs(double(neighbour.to_float()) - x))
          << "x=" << x;
    }
  }
}

// ---------------------------------------------------------------------------
// The rounding-error-bound model and derived tolerances.

TEST(Dtype, RoundingResidualBoundCoversMeasuredDotProductResiduals) {
  // The bound must dominate the measured fault-free residual of the exact
  // scenario it models: outputs computed wide, rounded on write-back, the
  // actual checksum summed over rounded values vs the wide predicted sum.
  Rng rng(0xACC0);
  for (const DType dtype : {DType::kBf16, DType::kF16}) {
    for (const std::size_t depth : {8u, 64u}) {
      for (const std::size_t outputs : {16u, 256u}) {
        double worst_ratio = 0.0;
        for (int trial = 0; trial < 50; ++trial) {
          double wide_sum = 0.0;
          double rounded_sum = 0.0;
          double magnitude = 0.0;
          for (std::size_t j = 0; j < outputs; ++j) {
            double y = 0.0;
            for (std::size_t k = 0; k < depth; ++k) {
              y += (rng.next_double() * 2.0 - 1.0);
            }
            wide_sum += y;
            rounded_sum += dtype_round(y, dtype);
            magnitude = std::max(magnitude, std::abs(y));
          }
          const double residual = std::abs(rounded_sum - wide_sum);
          const double bound =
              rounding_residual_bound(depth, outputs, magnitude, dtype);
          ASSERT_GT(bound, 0.0);
          worst_ratio = std::max(worst_ratio, residual / bound);
        }
        // The RMS-model bound holds without the safety margin...
        EXPECT_LE(worst_ratio, 1.0)
            << dtype_name(dtype) << " depth=" << depth
            << " outputs=" << outputs;
        // ...and is tight enough to matter: within ~2 decades of the
        // worst measured residual (a vacuous bound would destroy
        // detection sensitivity).
        EXPECT_GE(worst_ratio, 1e-2)
            << dtype_name(dtype) << " depth=" << depth
            << " outputs=" << outputs;
      }
    }
  }
}

TEST(Dtype, DeriveTolerancesF32IsTheUniformFloor) {
  const Tolerances t = derive_tolerances(DType::kF32);
  EXPECT_TRUE(t.calibrated);
  EXPECT_EQ(t.dtype, DType::kF32);
  for (std::size_t k = 0; k < kOpKindCount; ++k) {
    EXPECT_EQ(t.per_kind[k].abs_tolerance, 1e-6);
    EXPECT_EQ(t.per_kind[k].rel_tolerance, 0.0);
  }
}

TEST(Dtype, DeriveTolerancesOrdersByPrecisionAndKeepsBitExactKindsAtFloor) {
  const Tolerances bf16_tol = derive_tolerances(DType::kBf16);
  const Tolerances f16_tol = derive_tolerances(DType::kF16);
  for (const OpKind kind : {OpKind::kProjection, OpKind::kFfn,
                            OpKind::kAttentionFlashAbft,
                            OpKind::kAttentionTwoStepAbft,
                            OpKind::kReferenceFallback}) {
    // bf16 (u=2^-8) is coarser than f16 (u=2^-11): wider thresholds.
    EXPECT_GT(bf16_tol.of(kind).abs_tolerance,
              f16_tol.of(kind).abs_tolerance);
    EXPECT_GT(bf16_tol.of(kind).rel_tolerance,
              f16_tol.of(kind).rel_tolerance);
    EXPECT_GT(f16_tol.of(kind).abs_tolerance, 1e-6);
  }
  // KV verification re-sums stored (already rounded) values: bit-exact at
  // every dtype, so those kinds keep the f32 floor.
  for (const OpKind kind : {OpKind::kKvPage, OpKind::kControlPlane}) {
    EXPECT_EQ(bf16_tol.of(kind).abs_tolerance, 1e-6);
    EXPECT_EQ(bf16_tol.of(kind).rel_tolerance, 0.0);
  }
}

// ---------------------------------------------------------------------------
// Golden parity: DType::kF32 is bit-identical to the legacy path.

TEST(Dtype, F32ModelBitIdenticalToDefaultConfig) {
  TransformerConfig legacy_cfg = tiny_model(DType::kF32);
  const TransformerModel legacy(legacy_cfg, 2026);
  TransformerConfig dtype_cfg = tiny_model(DType::kF32);
  const TransformerModel explicit_f32(dtype_cfg, 2026);

  const GuardedExecutor legacy_exec(CheckerConfig{1e-6}, RecoveryPolicy{});
  const GuardedExecutor ctx_exec(
      calibrated_options(DType::kF32, dtype_cfg));

  KvCache legacy_cache = legacy.make_cache();
  KvCache ctx_cache = explicit_f32.make_cache();
  StepResult a =
      legacy.prefill_paged(test_prompt(), AttentionBackend::kFlashAbft,
                           legacy_exec, legacy_cache.pool, legacy_cache.kv);
  StepResult b =
      explicit_f32.prefill_paged(test_prompt(), AttentionBackend::kFlashAbft,
                                 ctx_exec, ctx_cache.pool, ctx_cache.kv);
  for (int step = 0; step < 6; ++step) {
    ASSERT_EQ(a.next_token, b.next_token) << "step " << step;
    ASSERT_EQ(a.logits.size(), b.logits.size());
    for (std::size_t i = 0; i < a.logits.size(); ++i) {
      // Bitwise equality, not near-equality: kF32 must be the identity.
      EXPECT_EQ(std::memcmp(&a.logits[i], &b.logits[i], sizeof(double)), 0);
    }
    a = legacy.decode_step_paged(a.next_token, AttentionBackend::kFlashAbft,
                                 legacy_exec, legacy_cache.pool,
                                 legacy_cache.kv);
    b = explicit_f32.decode_step_paged(b.next_token,
                                       AttentionBackend::kFlashAbft, ctx_exec,
                                       ctx_cache.pool, ctx_cache.kv);
  }
}

// ---------------------------------------------------------------------------
// Zero false alarms: fault-free low-precision decode under derived
// tolerances never trips a checker.

TEST(Dtype, FaultFreeLowPrecisionDecodeRaisesNoAlarms) {
  for (const DType dtype : {DType::kBf16, DType::kF16}) {
    const TransformerConfig cfg = tiny_model(dtype);
    const TransformerModel model(cfg, 2027);
    const GuardedExecutor exec(calibrated_options(dtype, cfg));
    KvCache cache = model.make_cache();
    StepResult step =
        model.prefill_paged(test_prompt(), AttentionBackend::kFlashAbft, exec,
                            cache.pool, cache.kv);
    EXPECT_TRUE(step.report.all_accepted_clean()) << dtype_name(dtype);
    for (int i = 0; i < 12; ++i) {
      step = model.decode_step_paged(step.next_token,
                                     AttentionBackend::kFlashAbft, exec,
                                     cache.pool, cache.kv);
      EXPECT_TRUE(step.report.all_accepted_clean())
          << dtype_name(dtype) << " decode step " << i;
      // Clean-KV verification stays bit-exact at low precision: the pages
      // accumulate the rounded (stored) rows.
      for (std::size_t l = 0; l < cfg.num_layers; ++l) {
        EXPECT_EQ(cache.pool.verify(cache.kv, l).check.residual(), 0.0);
      }
    }
  }
}

TEST(Dtype, BlockedAttentionBackendFaultFreeAtLowPrecision) {
  // The two-step/blocked ABFT attention backend at bf16: full causal passes
  // over the prompt and each of 6 greedily extended lengths (paged decode
  // serves Flash-ABFT only, so the cache-free forward is this backend's
  // generation shape).
  const TransformerConfig cfg = tiny_model(DType::kBf16);
  const TransformerModel model(cfg, 2028);
  const GuardedExecutor exec(calibrated_options(DType::kBf16, cfg));
  std::vector<std::size_t> sequence = test_prompt();
  for (int i = 0; i <= 6; ++i) {
    const auto [logits, report] =
        model.forward_full(sequence, AttentionBackend::kTwoStepAbft, exec);
    EXPECT_GT(report.rollup()[std::size_t(OpKind::kAttentionTwoStepAbft)]
                  .checks,
              0u);
    EXPECT_TRUE(report.all_accepted_clean()) << "length " << sequence.size();
    const std::size_t last = logits.rows() - 1;
    sequence.push_back(TransformerModel::argmax(std::vector<double>(
        logits.row(last).begin(), logits.row(last).end())));
  }
}

// ---------------------------------------------------------------------------
// Detection survives calibration: a real fault still clears the widened
// thresholds by orders of magnitude.

TEST(Dtype, ExponentBitFlipStillDetectedUnderBf16Tolerances) {
  Rng rng(0x5EED);
  Linear layer = Linear::random_init(16, 16, rng);
  layer.quantize(DType::kBf16);
  MatrixD x(8, 16);
  fill_gaussian(x, rng);
  dtype_round_span(x.flat(), DType::kBf16);

  const Tolerances tol =
      derive_tolerances(DType::kBf16, tolerance_shape_for(tiny_model(
                                          DType::kBf16)));
  KernelContext context;
  context.dtype = DType::kBf16;
  context.tolerances = tol;
  const CheckedOp clean = layer.checked_forward(x, context);
  const Checker checker(tol.of(OpKind::kProjection));
  EXPECT_EQ(checker.compare(clean.check.predicted, clean.check.actual),
            CheckVerdict::kPass);

  // Flip a high exponent bit of one stored output (the classic SDC: the
  // value explodes by orders of magnitude): the actual checksum moves with
  // it while predicted stays, and the residual must beat the calibrated
  // threshold — including its relative term — decisively.
  CheckedOp faulty = clean;
  faulty.output(3, 5) = faulty.output(3, 5) * 65536.0 + 1024.0;
  const double actual = element_sum(faulty.output);
  EXPECT_EQ(checker.compare(faulty.check.predicted, actual),
            CheckVerdict::kAlarm);
}

TEST(Dtype, WeightScrubStaysExactAtEveryDtype) {
  // The weight-integrity scrub compares recomputed checksums against the
  // construction-time caches — both sides sum the same stored values in
  // the same order, so clean weights read exactly 0.0 regardless of
  // storage dtype, and a drift far below the dtype's quantization step
  // (invisible to every arithmetic comparator at bf16) still alarms.
  //
  // The scrubber walks the weights one part (matrix) per item: a single
  // corrupted element must alarm exactly one part, every part must verify
  // fresh exactly when the whole-model verify does, and the parts' costs
  // must add up to the whole walk's.
  const auto stale_parts = [](const TransformerModel& model,
                              const GuardedExecutor& exec) {
    std::vector<std::size_t> stale;
    for (std::size_t part = 0; part < model.weight_part_count(); ++part) {
      LayerReport report;
      if (!guarded_weight_part_verify(model, part, /*index=*/0, exec,
                                      report)) {
        EXPECT_FALSE(report.all_accepted_clean());
        stale.push_back(part);
      }
    }
    return stale;
  };
  for (const DType dtype : {DType::kF32, DType::kBf16, DType::kF16}) {
    const TransformerConfig cfg = tiny_model(dtype);
    TransformerModel model(cfg, 2029);
    const GuardedExecutor exec(calibrated_options(dtype, cfg));
    LayerReport clean;
    EXPECT_TRUE(guarded_weight_verify(model, /*index=*/0, exec, clean))
        << dtype_name(dtype);
    EXPECT_EQ(model.weight_staleness(), 0.0) << dtype_name(dtype);
    EXPECT_EQ(model.weight_part_count(), 1 + 6 * cfg.num_layers);
    EXPECT_TRUE(stale_parts(model, exec).empty()) << dtype_name(dtype);
    double cost = 0.0;
    for (std::size_t part = 0; part < model.weight_part_count(); ++part) {
      cost += model.weight_part_cost(part);
    }
    EXPECT_EQ(cost, model.weight_verify_cost()) << dtype_name(dtype);

    Rng rng(7);
    model.corrupt_weight(model.draw_weight_site(rng, /*delta=*/1e-7));
    LayerReport stale;
    EXPECT_FALSE(guarded_weight_verify(model, /*index=*/0, exec, stale))
        << dtype_name(dtype);
    EXPECT_GT(model.weight_staleness(), 0.0) << dtype_name(dtype);
    EXPECT_FALSE(stale.all_accepted_clean()) << dtype_name(dtype);
    EXPECT_EQ(stale_parts(model, exec).size(), 1u) << dtype_name(dtype);

    // One upset per matrix kind, in the last layer: each alarms its own
    // part, and no two kinds share one.
    std::vector<std::size_t> alarmed;
    for (int kind = 0; kind <= int(WeightSite::Matrix::kFfn2); ++kind) {
      TransformerModel upset(cfg, 2029);
      WeightSite site;
      site.matrix = WeightSite::Matrix(kind);
      site.layer = cfg.num_layers - 1;
      site.row = 3;
      site.col = 5;
      site.delta = 1e-7;
      upset.corrupt_weight(site);
      const std::vector<std::size_t> parts = stale_parts(upset, exec);
      ASSERT_EQ(parts.size(), 1u) << dtype_name(dtype) << " kind " << kind;
      alarmed.push_back(parts.front());
      LayerReport whole;
      EXPECT_FALSE(guarded_weight_verify(upset, /*index=*/0, exec, whole))
          << dtype_name(dtype) << " kind " << kind;
      EXPECT_EQ(upset.weight_part_staleness(parts.front()),
                upset.weight_staleness());
    }
    std::sort(alarmed.begin(), alarmed.end());
    EXPECT_EQ(std::unique(alarmed.begin(), alarmed.end()), alarmed.end())
        << dtype_name(dtype);
  }
}

// ---------------------------------------------------------------------------
// KV byte accounting: 16-bit storage doubles page capacity.

TEST(Dtype, KvPoolBudgetFundsTwiceThePagesAtHalfWidthStorage) {
  KvPoolConfig pool;
  pool.page_size = 16;
  pool.width = 64;
  pool.dtype = DType::kF32;
  const std::size_t f32_page_bytes = pool.page_bytes();
  EXPECT_EQ(f32_page_bytes, 2u * 16u * 64u * 4u);
  const std::size_t budget = 40 * f32_page_bytes;
  const std::size_t f32_pages = pool.pages_for_budget(budget);
  EXPECT_EQ(f32_pages, 40u);
  for (const DType dtype : {DType::kBf16, DType::kF16}) {
    pool.dtype = dtype;
    EXPECT_EQ(pool.page_bytes(), f32_page_bytes / 2);
    EXPECT_EQ(pool.pages_for_budget(budget), 2 * f32_pages);
    EXPECT_EQ(pool.bytes_per_token(), 2u * 64u * 2u);
  }
}

// ---------------------------------------------------------------------------
// The dtype-swept campaign report: per-cell dtype tags and the '+'-joined
// config sweep string the coverage gate keys on.

TEST(Dtype, CampaignReportTagsCellsWithTheirDtype) {
  serve_campaign::CampaignConfig cfg;
  cfg.trials_per_cell = 2;
  cfg.sessions = 2;
  cfg.prompt_len = 3;
  cfg.max_new_tokens = 2;
  cfg.dtype = DType::kF32;
  const serve_campaign::CampaignResult f32 =
      serve_campaign::run_campaign(cfg);
  cfg.dtype = DType::kBf16;
  const serve_campaign::CampaignResult bf16 =
      serve_campaign::run_campaign(cfg);
  ASSERT_FALSE(f32.cells.empty());
  ASSERT_EQ(f32.cells.size(), bf16.cells.size());

  const std::vector<serve_campaign::CampaignResult> results = {f32, bf16};
  const std::string json = serve_campaign::campaign_report_json(
      std::span<const serve_campaign::CampaignResult>(results.data(),
                                                      results.size()));
  EXPECT_NE(json.find("\"dtype\": \"f32+bf16\""), std::string::npos);
  EXPECT_NE(json.find("\"dtype\": \"bf16\""), std::string::npos);
  // Every cell appears once per swept dtype.
  std::size_t cells = 0;
  for (std::size_t pos = json.find("\"subsystem\""); pos != std::string::npos;
       pos = json.find("\"subsystem\"", pos + 1)) {
    ++cells;
  }
  EXPECT_EQ(cells, f32.cells.size() + bf16.cells.size());
}

}  // namespace
}  // namespace flashabft
