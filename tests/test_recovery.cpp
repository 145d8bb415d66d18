// Tests of detection-triggered recovery: the retry/escalation contract of
// GuardedExecutor::run (core/guarded_op.hpp) on the attention kernel.
#include <gtest/gtest.h>

#include <cmath>
#include <utility>

#include "core/flash_abft.hpp"
#include "core/guarded_op.hpp"
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

  CheckedOp operator()(std::size_t) const {
    CheckedAttention run = flash_abft_attention(w.q, w.k, w.v, cfg);
    CheckedOp op;
    op.output = std::move(run.output);
    op.check = {run.predicted_checksum, run.actual_checksum};
    if (calls++ < faulty_runs) op.check.actual += 0.5;
    return op;
  }
};

/// One guarded attention op with a 1e-6 checker and `max_retries` retries.
OpReport guarded(const FlakyEngine& engine, std::size_t max_retries) {
  const GuardedExecutor executor(CheckerConfig{1e-6},
                                 RecoveryPolicy{max_retries});
  return executor.run(OpKind::kAttentionFlashAbft, /*index=*/0, /*cost=*/0.0,
                      engine)
      .report;
}

TEST(Recovery, CleanFirstTry) {
  Rng rng(11);
  const AttentionInputs w = generate_gaussian(16, 8, rng);
  const OpReport r =
      guarded(FlakyEngine{w, make_cfg(16, 8), /*faulty_runs=*/0}, 2);
  EXPECT_EQ(r.recovery, RecoveryStatus::kCleanFirstTry);
  EXPECT_EQ(r.executions, 1u);
}

TEST(Recovery, TransientFaultRecoversOnRetry) {
  Rng rng(13);
  const AttentionInputs w = generate_gaussian(16, 8, rng);
  const OpReport r =
      guarded(FlakyEngine{w, make_cfg(16, 8), /*faulty_runs=*/1}, 2);
  EXPECT_EQ(r.recovery, RecoveryStatus::kRecovered);
  EXPECT_EQ(r.executions, 2u);
  // The accepted result is the clean one.
  EXPECT_NEAR(r.predicted, r.actual, 1e-8);
}

TEST(Recovery, PersistentFaultEscalates) {
  Rng rng(17);
  const AttentionInputs w = generate_gaussian(16, 8, rng);
  const OpReport r =
      guarded(FlakyEngine{w, make_cfg(16, 8), /*faulty_runs=*/100}, 3);
  EXPECT_EQ(r.recovery, RecoveryStatus::kEscalated);
  EXPECT_EQ(r.executions, 4u);  // initial + 3 retries
}

TEST(Recovery, SecondRetrySucceeds) {
  Rng rng(19);
  const AttentionInputs w = generate_gaussian(8, 4, rng);
  const OpReport r =
      guarded(FlakyEngine{w, make_cfg(8, 4), /*faulty_runs=*/2}, 2);
  EXPECT_EQ(r.recovery, RecoveryStatus::kRecovered);
  EXPECT_EQ(r.executions, 3u);
}

TEST(Recovery, ZeroRetryPolicyEscalatesImmediately) {
  Rng rng(23);
  const AttentionInputs w = generate_gaussian(8, 4, rng);
  const OpReport r =
      guarded(FlakyEngine{w, make_cfg(8, 4), /*faulty_runs=*/1}, 0);
  EXPECT_EQ(r.recovery, RecoveryStatus::kEscalated);
  EXPECT_EQ(r.executions, 1u);
}

TEST(Recovery, ReportCountsEveryAttemptVerdict) {
  // Attempt 0 alarms, attempt 1 passes: one alarm, two executions, and the
  // accepted verdict is the pass.
  Rng rng(29);
  const AttentionInputs w = generate_gaussian(8, 4, rng);
  const OpReport r =
      guarded(FlakyEngine{w, make_cfg(8, 4), /*faulty_runs=*/1}, 2);
  EXPECT_EQ(r.recovery, RecoveryStatus::kRecovered);
  EXPECT_EQ(r.executions, 2u);
  EXPECT_EQ(r.alarms, 1u);
  EXPECT_EQ(r.verdict, CheckVerdict::kPass);
}

TEST(Recovery, EscalationAfterExhaustedRetriesReportsEveryAlarm) {
  // The kEscalated edge case: max_retries attempts all alarm, the report
  // counts each one, and the accepted (last) result is still the faulty run
  // — exactly what the serving layer's fallback path must replace.
  Rng rng(31);
  const AttentionInputs w = generate_gaussian(8, 4, rng);
  const OpReport r =
      guarded(FlakyEngine{w, make_cfg(8, 4), /*faulty_runs=*/100}, 2);
  EXPECT_EQ(r.recovery, RecoveryStatus::kEscalated);
  EXPECT_EQ(r.executions, 3u);  // initial + 2 retries, all alarming.
  EXPECT_EQ(r.alarms, 3u);
  EXPECT_EQ(r.verdict, CheckVerdict::kAlarm);
  EXPECT_GT(r.residual, 1e-6);  // the escalated result is dirty.
}

TEST(Recovery, StatusNames) {
  EXPECT_STREQ(recovery_status_name(RecoveryStatus::kCleanFirstTry),
               "clean_first_try");
  EXPECT_STREQ(recovery_status_name(RecoveryStatus::kRecovered), "recovered");
  EXPECT_STREQ(recovery_status_name(RecoveryStatus::kEscalated), "escalated");
}

}  // namespace
}  // namespace flashabft
