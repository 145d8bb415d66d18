// Tests of the unified GuardedOp protection API (core/guarded_op.hpp):
// the retry/escalation sequence its report records,
// matmul-ABFT-protected Linear alarm/recovery, fallback semantics, the
// work-list path, and the optional extreme-value (Silent-NaN) screen.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>
#include <vector>

#include "core/flash_abft.hpp"
#include "core/guarded_op.hpp"
#include "model/linear.hpp"
#include "tensor/tensor_ops.hpp"
#include "workload/generator.hpp"

namespace flashabft {
namespace {

AttentionConfig make_cfg(std::size_t n, std::size_t d) {
  AttentionConfig cfg;
  cfg.seq_len = n;
  cfg.head_dim = d;
  cfg.scale = 1.0 / std::sqrt(double(d));
  return cfg;
}

/// A run_once engine that corrupts the first `faulty_runs` executions the
/// way a datapath fault would (actual checksum shifted).
struct FlakyEngine {
  const AttentionInputs& w;
  AttentionConfig cfg;
  std::size_t faulty_runs;
  mutable std::size_t calls = 0;

  CheckedAttention operator()(std::size_t) const {
    CheckedAttention run = flash_abft_attention(w.q, w.k, w.v, cfg);
    if (calls++ < faulty_runs) run.actual_checksum += 0.5;
    return run;
  }
};

CheckedOp as_checked_op(CheckedAttention run) {
  CheckedOp op;
  op.output = std::move(run.output);
  op.check = {run.predicted_checksum, run.actual_checksum};
  return op;
}

TEST(GuardedExecutor, RetrySequenceFromReport) {
  // The same flaky engine driven through GuardedExecutor::run: attempts
  // 0..faulty_runs-1 alarm and the next passes, until the retry budget runs
  // out. The report's status, execution count and verdict sequence (alarms,
  // then the accepted verdict) follow; the fault only shifts a checksum, so
  // the output is the clean run's either way.
  Rng rng(41);
  const AttentionInputs w = generate_gaussian(16, 8, rng);
  const AttentionConfig cfg = make_cfg(16, 8);
  const MatrixD clean = flash_abft_attention(w.q, w.k, w.v, cfg).output;

  for (const std::size_t faulty_runs : {0u, 1u, 2u, 9u}) {
    FlakyEngine engine{w, cfg, faulty_runs};
    const GuardedExecutor executor(CheckerConfig{1e-6}, RecoveryPolicy{2});
    const GuardedOp op = executor.run(
        OpKind::kAttentionFlashAbft, 0, 0.0,
        [&engine](std::size_t attempt) {
          return as_checked_op(engine(attempt));
        });

    const std::size_t alarms = std::min<std::size_t>(faulty_runs, 3u);
    std::vector<CheckVerdict> expected(alarms, CheckVerdict::kAlarm);
    if (faulty_runs < 3) expected.push_back(CheckVerdict::kPass);
    std::vector<CheckVerdict> verdicts(op.report.alarms, CheckVerdict::kAlarm);
    if (op.report.verdict == CheckVerdict::kPass) {
      verdicts.push_back(CheckVerdict::kPass);
    }

    const RecoveryStatus status =
        faulty_runs == 0  ? RecoveryStatus::kCleanFirstTry
        : faulty_runs < 3 ? RecoveryStatus::kRecovered
                          : RecoveryStatus::kEscalated;
    EXPECT_EQ(op.report.recovery, status) << faulty_runs;
    EXPECT_EQ(op.report.executions, expected.size()) << faulty_runs;
    EXPECT_EQ(verdicts, expected) << faulty_runs;
    EXPECT_EQ(op.report.alarms, alarms);
    EXPECT_EQ(op.output, clean) << faulty_runs;
  }
}

TEST(GuardedExecutor, CheckedLinearAlarmAndRecovery) {
  // The satellite scenario: a matmul-ABFT-protected Linear whose first
  // execution is corrupted alarms, retries, and recovers bit-identically.
  Rng rng(42);
  const Linear layer = Linear::random_init(12, 8, rng);
  MatrixD x(6, 12);
  fill_gaussian(x, rng);
  const MatrixD golden = layer.forward(x);

  GuardedExecutor executor(CheckerConfig{1e-6}, RecoveryPolicy{2});
  executor.set_tamper([](OpKind kind, std::size_t, std::size_t attempt,
                         CheckedOp& op) {
    if (kind == OpKind::kProjection && attempt == 0) {
      op.output(0, 0) += 1e-2;
      op.check.actual += 1e-2;
    }
  });
  LayerReport report;
  const MatrixD out = guarded_linear(layer, x, OpKind::kProjection, 0,
                                     executor, report);
  ASSERT_EQ(report.ops.size(), 1u);
  EXPECT_EQ(report.ops[0].recovery, RecoveryStatus::kRecovered);
  EXPECT_EQ(report.ops[0].executions, 2u);
  EXPECT_EQ(report.ops[0].alarms, 1u);
  EXPECT_EQ(report.ops[0].verdict, CheckVerdict::kPass);
  EXPECT_EQ(report.recovered(OpKind::kProjection), 1u);
  EXPECT_EQ(out, golden);
}

TEST(GuardedExecutor, CheckedLinearCoversBiasAdd) {
  // The Linear check covers the bias add, not just the product.
  Linear layer(2, 2);
  layer.weight()(0, 0) = 1.0;
  layer.weight()(1, 1) = 1.0;
  layer.bias() = {0.25, -0.5};
  MatrixD x(3, 2);
  x(0, 0) = 1.0;
  x(1, 1) = 2.0;
  x(2, 0) = -1.0;
  const CheckedOp op = layer.checked_forward(x);
  EXPECT_NEAR(op.check.predicted, op.check.actual, 1e-12);
  EXPECT_NEAR(op.check.actual, element_sum(op.output), 1e-12);
}

TEST(GuardedExecutor, EscalationFallsBackToHealthyEngine) {
  Rng rng(43);
  const Linear layer = Linear::random_init(8, 8, rng);
  MatrixD x(4, 8);
  fill_gaussian(x, rng);
  const MatrixD golden = layer.forward(x);

  GuardedExecutor executor(CheckerConfig{1e-6}, RecoveryPolicy{1});
  // Persistent defect: every guarded attempt is corrupted. The fallback is
  // tamper-exempt by construction (a healthy replacement engine).
  executor.set_tamper([](OpKind, std::size_t, std::size_t, CheckedOp& op) {
    op.output(0, 0) += 1e-2;
    op.check.actual += 1e-2;
  });
  const GuardedOp op = executor.run(
      OpKind::kFfn, 0, 0.0,
      [&](std::size_t) { return layer.checked_forward(x); },
      [&] { return layer.checked_forward(x); });

  EXPECT_EQ(op.report.recovery, RecoveryStatus::kEscalated);
  EXPECT_EQ(op.report.executions, 2u);  // initial + 1 retry, both alarming.
  EXPECT_FALSE(op.report.accepted);
  ASSERT_TRUE(op.fallback_report.has_value());
  EXPECT_EQ(op.fallback_report->kind, OpKind::kReferenceFallback);
  EXPECT_EQ(op.fallback_report->verdict, CheckVerdict::kPass);
  EXPECT_TRUE(op.clean());
  EXPECT_EQ(op.output, golden);
}

TEST(GuardedExecutor, EscalationWithoutFallbackAcceptsDirtyOutput) {
  Rng rng(44);
  const Linear layer = Linear::random_init(8, 4, rng);
  MatrixD x(4, 8);
  fill_gaussian(x, rng);
  GuardedExecutor executor(CheckerConfig{1e-6}, RecoveryPolicy{0});
  executor.set_tamper([](OpKind, std::size_t, std::size_t, CheckedOp& op) {
    op.check.actual += 1e-2;
  });
  const GuardedOp op = executor.run(
      OpKind::kFfn, 0, 0.0,
      [&](std::size_t) { return layer.checked_forward(x); });
  EXPECT_EQ(op.report.recovery, RecoveryStatus::kEscalated);
  EXPECT_TRUE(op.report.accepted);
  EXPECT_EQ(op.report.verdict, CheckVerdict::kAlarm);
  EXPECT_FALSE(op.fallback_report.has_value());
  EXPECT_FALSE(op.clean());
}

TEST(GuardedExecutor, TwoStepExtraChecksBothCompared) {
  GuardedExecutor executor(CheckerConfig{1e-6}, RecoveryPolicy{});
  CheckedOp op;
  op.output = MatrixD(1, 1);
  op.check = {1.0, 1.0};
  op.extra_checks.push_back({2.0, 2.5});  // second product check trips.
  EXPECT_EQ(executor.judge(op), CheckVerdict::kAlarm);
  const OpReport report =
      executor.describe(OpKind::kAttentionTwoStepAbft, 0, 0.0, op);
  EXPECT_DOUBLE_EQ(report.predicted, 2.0);  // worst-residual pair reported.
  EXPECT_DOUBLE_EQ(report.actual, 2.5);
  EXPECT_NEAR(report.residual, 0.5, 1e-12);
}

TEST(GuardedExecutor, ExtremeValueScreenClosesSilentNaN) {
  // A fault that drives the output to NaN leaves both checksums NaN: the
  // paper's comparator sees a NaN difference and stays silent. The optional
  // screen turns exactly this case into an alarm.
  CheckedOp op;
  op.output = MatrixD(2, 2);
  op.output(0, 1) = std::numeric_limits<double>::quiet_NaN();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  op.check = {nan, nan};

  GuardedExecutor silent(CheckerConfig{1e-6}, RecoveryPolicy{});
  EXPECT_EQ(silent.judge(op), CheckVerdict::kPass);  // Silent-NaN.

  GuardedExecutor::Options options;
  options.checker = CheckerConfig{1e-6};
  options.screen_extremes = true;
  const GuardedExecutor screened(options);
  EXPECT_EQ(screened.judge(op), CheckVerdict::kAlarm);
}

TEST(GuardedExecutor, WorklistRecoversOnlyAlarmingOps) {
  // Three ops share an engine; op 1 is corrupted on attempt 0 only. The
  // work-list must re-run just that op and report everyone correctly.
  GuardedExecutor executor(CheckerConfig{1e-6}, RecoveryPolicy{2});
  std::size_t total_runs = 0;
  const auto run_round = [&](std::size_t attempt,
                             const std::vector<std::size_t>& indices) {
    std::vector<CheckedOp> ops;
    for (const std::size_t index : indices) {
      ++total_runs;
      CheckedOp op;
      op.output = MatrixD(1, 1);
      op.output(0, 0) = double(index);
      op.check = {1.0, attempt == 0 && index == 1 ? 1.5 : 1.0};
      ops.push_back(std::move(op));
    }
    return ops;
  };
  const auto fallback = [](std::size_t) {
    ADD_FAILURE() << "no op should escalate";
    return CheckedOp{};
  };
  const WorklistResult result = executor.run_worklist(
      OpKind::kAttentionFlashAbft, 3, 10.0, run_round, fallback);

  EXPECT_EQ(total_runs, 4u);  // 3 first-round + 1 retry.
  EXPECT_EQ(result.executions, 4u);
  EXPECT_EQ(result.alarm_events, 1u);
  EXPECT_EQ(result.recovered_ops, 1u);
  EXPECT_EQ(result.fallback_ops, 0u);
  EXPECT_FALSE(result.escalated);
  EXPECT_TRUE(result.all_clean);
  ASSERT_EQ(result.outputs.size(), 3u);
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_DOUBLE_EQ(result.outputs[i](0, 0), double(i));
  }
  ASSERT_EQ(result.reports.size(), 3u);
  EXPECT_EQ(result.reports[1].recovery, RecoveryStatus::kRecovered);
  EXPECT_EQ(result.reports[1].executions, 2u);
}

TEST(GuardedExecutor, WorklistEscalatesToCheckedFallback) {
  GuardedExecutor executor(CheckerConfig{1e-6}, RecoveryPolicy{1});
  const auto run_round = [](std::size_t,
                            const std::vector<std::size_t>& indices) {
    std::vector<CheckedOp> ops;
    for (const std::size_t index : indices) {
      CheckedOp op;
      op.output = MatrixD(1, 1);
      op.check = {1.0, index == 0 ? 9.0 : 1.0};  // op 0 always alarms.
      ops.push_back(std::move(op));
    }
    return ops;
  };
  const auto fallback = [](std::size_t index) {
    CheckedOp op;
    op.output = MatrixD(1, 1);
    op.output(0, 0) = 42.0 + double(index);
    op.check = {3.0, 3.0};
    return op;
  };
  const WorklistResult result = executor.run_worklist(
      OpKind::kAttentionFlashAbft, 2, 1.0, run_round, fallback);

  EXPECT_TRUE(result.escalated);
  EXPECT_TRUE(result.all_clean);  // the fallback verified clean.
  EXPECT_EQ(result.fallback_ops, 1u);
  EXPECT_EQ(result.alarm_events, 2u);  // op 0 alarmed on both attempts.
  ASSERT_EQ(result.outputs.size(), 2u);
  EXPECT_DOUBLE_EQ(result.outputs[0](0, 0), 42.0);
  // Reports: escalated op 0 (not accepted), its fallback, clean op 1.
  ASSERT_EQ(result.reports.size(), 3u);
  EXPECT_EQ(result.reports[0].recovery, RecoveryStatus::kEscalated);
  EXPECT_FALSE(result.reports[0].accepted);
  EXPECT_EQ(result.reports[1].kind, OpKind::kReferenceFallback);
  EXPECT_TRUE(result.reports[1].accepted);
}

TEST(GuardedOpNames, Coverage) {
  EXPECT_STREQ(op_kind_name(OpKind::kAttentionFlashAbft),
               "attention_flash_abft");
  EXPECT_STREQ(op_kind_name(OpKind::kAttentionTwoStepAbft),
               "attention_two_step_abft");
  EXPECT_STREQ(op_kind_name(OpKind::kProjection), "projection");
  EXPECT_STREQ(op_kind_name(OpKind::kFfn), "ffn");
  EXPECT_STREQ(op_kind_name(OpKind::kReferenceFallback),
               "reference_fallback");
  EXPECT_STREQ(recovery_status_name(RecoveryStatus::kCleanFirstTry),
               "clean_first_try");
}

}  // namespace
}  // namespace flashabft
