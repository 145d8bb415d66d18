#include "core/guarded_op.hpp"

#include <chrono>
#include <cmath>
#include <numeric>
#include <utility>

#include "common/ensure.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/op_profile.hpp"
#include "obs/trace.hpp"

namespace flashabft {

namespace {

// Phase timestamps for the obs hooks. Reading the clock only when a timing
// hook is attached keeps the fully-off executor identical to the untraced
// code path (the ObsHooks::timing() branch is the entire cost).
std::int64_t obs_now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

const char* recovery_status_name(RecoveryStatus status) {
  switch (status) {
    case RecoveryStatus::kCleanFirstTry: return "clean_first_try";
    case RecoveryStatus::kRecovered: return "recovered";
    case RecoveryStatus::kEscalated: return "escalated";
  }
  return "?";
}

double ChecksumPair::residual() const { return std::fabs(predicted - actual); }

void LayerReport::add(GuardedOp op) {
  ops.push_back(std::move(op.report));
  if (op.fallback_report) ops.push_back(std::move(*op.fallback_report));
}

void LayerReport::append(LayerReport other) {
  ops.insert(ops.end(), std::make_move_iterator(other.ops.begin()),
             std::make_move_iterator(other.ops.end()));
  dmr_compares += other.dmr_compares;
  dmr_mismatches += other.dmr_mismatches;
}

bool LayerReport::any_alarm() const {
  for (const OpReport& r : ops) {
    if (r.accepted && r.verdict == CheckVerdict::kAlarm) return true;
  }
  return false;
}

std::size_t LayerReport::alarm_events() const {
  std::size_t total = 0;
  for (const OpReport& r : ops) total += r.alarms;
  return total;
}

std::size_t LayerReport::executions() const {
  std::size_t total = 0;
  for (const OpReport& r : ops) total += r.executions;
  return total;
}

std::size_t LayerReport::count(OpKind kind) const {
  std::size_t total = 0;
  for (const OpReport& r : ops) total += (r.kind == kind);
  return total;
}

std::size_t LayerReport::alarms(OpKind kind) const {
  std::size_t total = 0;
  for (const OpReport& r : ops) {
    if (r.kind == kind) total += r.alarms;
  }
  return total;
}

std::size_t LayerReport::recovered(OpKind kind) const {
  std::size_t total = 0;
  for (const OpReport& r : ops) {
    total += (r.kind == kind && r.recovery == RecoveryStatus::kRecovered);
  }
  return total;
}

bool LayerReport::all_accepted_clean() const {
  for (const OpReport& r : ops) {
    if (r.accepted && r.verdict == CheckVerdict::kAlarm) return false;
  }
  return true;
}

GuardedExecutor::GuardedExecutor(Options options)
    : options_(options),
      checker_(options.checker),
      tolerances_(options.tolerances
                      ? *options.tolerances
                      : Tolerances::uniform(options.checker)) {}

GuardedExecutor::GuardedExecutor(CheckerConfig checker,
                                 RecoveryPolicy recovery)
    : GuardedExecutor(Options{checker, recovery, false, {}}) {}

void GuardedExecutor::corrupt_checker_tolerances(double scale) {
  options_.checker.abs_tolerance *= scale;
  options_.checker.rel_tolerance *= scale;
  checker_ = Checker(options_.checker);
  // Calibrated per-kind thresholds live in the same (emulated) threshold
  // registers — a corrupted calibration scales them identically, else the
  // checksum-state fault site would only degrade the uniform regime.
  tolerances_.scale(scale);
  if (options_.tolerances) options_.tolerances->scale(scale);
}

CheckVerdict GuardedExecutor::judge_with(const Checker& checker,
                                         const CheckedOp& op) const {
  if (options_.screen_extremes &&
      extreme_value_screen(op.output, options_.screen).any()) {
    return CheckVerdict::kAlarm;
  }
  if (op.self_verdict) return *op.self_verdict;
  if (checker.compare(op.check.predicted, op.check.actual) ==
      CheckVerdict::kAlarm) {
    return CheckVerdict::kAlarm;
  }
  for (const ChecksumPair& pair : op.extra_checks) {
    if (checker.compare(pair.predicted, pair.actual) ==
        CheckVerdict::kAlarm) {
      return CheckVerdict::kAlarm;
    }
  }
  return CheckVerdict::kPass;
}

CheckVerdict GuardedExecutor::judge(const CheckedOp& op) const {
  return judge_with(checker_, op);
}

CheckVerdict GuardedExecutor::judge(OpKind kind, const CheckedOp& op) const {
  return judge_with(Checker(tolerances_.of(kind)), op);
}

OpReport GuardedExecutor::describe(OpKind kind, std::size_t index,
                                   double cost, const CheckedOp& op) const {
  OpReport report;
  report.kind = kind;
  report.index = index;
  report.cost = cost;
  // Report the worst-residual pair (NaN residuals never compare greater, so
  // a NaN primary pair is kept and propagates into `residual`).
  const ChecksumPair* worst = &op.check;
  for (const ChecksumPair& pair : op.extra_checks) {
    if (pair.residual() > worst->residual()) worst = &pair;
  }
  report.predicted = worst->predicted;
  report.actual = worst->actual;
  report.residual = worst->residual();
  report.verdict = judge(kind, op);
  return report;
}

GuardedOp GuardedExecutor::run(OpKind kind, std::size_t index, double cost,
                               const RunOp& run_once,
                               const FallbackOp& fallback) const {
  FLASHABFT_ENSURE_MSG(run_once, "GuardedExecutor::run needs an operator");
  const obs::ObsHooks& hooks = options_.obs;
  const bool timed = hooks.timing();
  obs::TraceSpan guard_span(hooks.trace, op_kind_name(kind), "guard");
  GuardedOp result;
  CheckedOp last;
  std::size_t alarms = 0;
  for (std::size_t attempt = 0; attempt <= options_.recovery.max_retries;
       ++attempt) {
    const std::int64_t t0 = timed ? obs_now_ns() : 0;
    last = run_once(attempt);
    if (tamper_) tamper_(kind, index, attempt, last);
    const std::int64_t t1 = timed ? obs_now_ns() : 0;
    const CheckVerdict verdict = judge(kind, last);
    const std::int64_t t2 = timed ? obs_now_ns() : 0;
    if (hooks.profiler != nullptr) {
      // Attempt 0 is the op's own compute; every re-execution is time the
      // protection regime added, i.e. recovery.
      hooks.profiler->record(kind,
                             attempt == 0 ? obs::GuardPhase::kCompute
                                          : obs::GuardPhase::kRecovery,
                             std::uint64_t(t1 - t0));
      hooks.profiler->record(kind, obs::GuardPhase::kVerify,
                             std::uint64_t(t2 - t1));
    }
    if (verdict == CheckVerdict::kPass) {
      if (attempt > 0 && hooks.flight != nullptr) {
        hooks.flight->record(obs::FlightEventKind::kRecovery, "executor",
                             op_kind_name(kind), index);
      }
      result.report = describe(kind, index, cost, last);
      result.report.executions = attempt + 1;
      result.report.alarms = alarms;
      result.report.recovery = attempt == 0 ? RecoveryStatus::kCleanFirstTry
                                            : RecoveryStatus::kRecovered;
      result.output = std::move(last.output);
      return result;
    }
    ++alarms;
    if (hooks.flight != nullptr) {
      hooks.flight->record(obs::FlightEventKind::kAlarm, "executor",
                           op_kind_name(kind), index);
    }
    if (hooks.trace != nullptr) {
      hooks.trace->instant_arg(attempt == 0 ? "alarm" : "retry-alarm", index,
                               "guard");
    }
  }

  // Retries exhausted: persistent-fault suspect.
  if (hooks.flight != nullptr) {
    hooks.flight->record(obs::FlightEventKind::kEscalation, "executor",
                         op_kind_name(kind), index);
  }
  result.report = describe(kind, index, cost, last);
  result.report.executions = options_.recovery.max_retries + 1;
  result.report.alarms = alarms;
  result.report.recovery = RecoveryStatus::kEscalated;
  if (!fallback) {
    // No healthy engine to turn to: the dirty output is accepted (verdict
    // kAlarm marks the response checksum-dirty).
    result.output = std::move(last.output);
    return result;
  }
  result.report.accepted = false;
  obs::TraceSpan fallback_span(hooks.trace, "fallback", "guard");
  const std::int64_t fb0 = timed ? obs_now_ns() : 0;
  CheckedOp served = fallback();
  if (hooks.profiler != nullptr) {
    // The fallback serves the escalated op: its time is recovery cost of
    // the kind that escalated (kReferenceFallback only ever reports, never
    // accrues compute of its own — no double counting).
    hooks.profiler->record(kind, obs::GuardPhase::kRecovery,
                           std::uint64_t(obs_now_ns() - fb0));
  }
  if (hooks.flight != nullptr) {
    hooks.flight->record(obs::FlightEventKind::kFallback, "executor",
                         op_kind_name(kind), index);
  }
  OpReport fb = describe(OpKind::kReferenceFallback, index, cost, served);
  fb.recovery = RecoveryStatus::kEscalated;
  fb.alarms = fb.verdict == CheckVerdict::kAlarm ? 1 : 0;
  result.fallback_report = std::move(fb);
  result.output = std::move(served.output);
  return result;
}

WorklistResult GuardedExecutor::run_worklist(OpKind kind, std::size_t count,
                                             double cost_per_op,
                                             const RunRound& run_round,
                                             const FallbackOne& fallback) const {
  FLASHABFT_ENSURE_MSG(count > 0, "empty worklist");
  FLASHABFT_ENSURE_MSG(run_round && fallback,
                       "worklist needs an engine and a fallback");
  const obs::ObsHooks& hooks = options_.obs;
  const bool timed = hooks.timing();
  obs::TraceSpan guard_span(hooks.trace, op_kind_name(kind), "guard");
  std::vector<CheckedOp> accepted(count);
  std::vector<std::size_t> executions(count, 0);
  std::vector<std::size_t> alarms(count, 0);
  std::vector<std::size_t> worklist(count);
  std::iota(worklist.begin(), worklist.end(), std::size_t{0});

  WorklistResult out;
  for (std::size_t attempt = 0;
       attempt <= options_.recovery.max_retries && !worklist.empty();
       ++attempt) {
    if (attempt > 0 && hooks.trace != nullptr) {
      hooks.trace->instant_arg("retry-round", worklist.size(), "guard");
    }
    const std::int64_t t0 = timed ? obs_now_ns() : 0;
    std::vector<CheckedOp> round = run_round(attempt, worklist);
    const std::int64_t t1 = timed ? obs_now_ns() : 0;
    if (hooks.profiler != nullptr) {
      // One batched engine execution per round: its duration is recorded as
      // one sample (round 0 = compute, re-runs = recovery) because the
      // engine does not expose per-op splits of a batched round.
      hooks.profiler->record(kind,
                             attempt == 0 ? obs::GuardPhase::kCompute
                                          : obs::GuardPhase::kRecovery,
                             std::uint64_t(t1 - t0));
    }
    FLASHABFT_ENSURE_MSG(round.size() == worklist.size(),
                         "round produced " << round.size() << " ops for "
                                           << worklist.size() << " indices");
    std::vector<std::size_t> still_alarming;
    const std::int64_t v0 = timed ? obs_now_ns() : 0;
    for (std::size_t slot = 0; slot < worklist.size(); ++slot) {
      const std::size_t index = worklist[slot];
      CheckedOp op = std::move(round[slot]);
      if (tamper_) tamper_(kind, index, attempt, op);
      ++executions[index];
      ++out.executions;
      const CheckVerdict verdict = judge(kind, op);
      if (verdict == CheckVerdict::kAlarm) {
        ++alarms[index];
        ++out.alarm_events;
        still_alarming.push_back(index);
        if (hooks.flight != nullptr) {
          hooks.flight->record(obs::FlightEventKind::kAlarm, "executor",
                               op_kind_name(kind), index);
        }
      } else if (attempt > 0 && hooks.flight != nullptr) {
        hooks.flight->record(obs::FlightEventKind::kRecovery, "executor",
                             op_kind_name(kind), index);
      }
      accepted[index] = std::move(op);
    }
    if (hooks.profiler != nullptr) {
      // The round's verdicts, batched the same way as its compute.
      hooks.profiler->record(kind, obs::GuardPhase::kVerify,
                             std::uint64_t(obs_now_ns() - v0));
    }
    worklist = std::move(still_alarming);
  }

  std::vector<bool> escalated(count, false);
  for (const std::size_t index : worklist) {
    escalated[index] = true;
    if (hooks.flight != nullptr) {
      hooks.flight->record(obs::FlightEventKind::kEscalation, "executor",
                           op_kind_name(kind), index);
    }
  }

  out.outputs.reserve(count);
  out.reports.reserve(count + worklist.size());
  for (std::size_t index = 0; index < count; ++index) {
    OpReport report = describe(kind, index, cost_per_op, accepted[index]);
    report.executions = executions[index];
    report.alarms = alarms[index];
    if (escalated[index]) {
      report.recovery = RecoveryStatus::kEscalated;
      report.accepted = false;
      out.reports.push_back(std::move(report));
      serve_fallback(index, cost_per_op, fallback, out, kind);
      out.reports.back().recovery = RecoveryStatus::kEscalated;
      out.escalated = true;
    } else {
      report.recovery = alarms[index] > 0 ? RecoveryStatus::kRecovered
                                          : RecoveryStatus::kCleanFirstTry;
      out.recovered_ops += alarms[index] > 0;
      out.reports.push_back(std::move(report));
      out.outputs.push_back(std::move(accepted[index].output));
    }
  }
  return out;
}

WorklistResult GuardedExecutor::run_all_fallback(
    std::size_t count, double cost_per_op, const FallbackOne& fallback) const {
  FLASHABFT_ENSURE_MSG(count > 0, "empty worklist");
  FLASHABFT_ENSURE_MSG(fallback, "bypass needs a fallback engine");
  WorklistResult out;
  out.outputs.reserve(count);
  out.reports.reserve(count);
  for (std::size_t index = 0; index < count; ++index) {
    serve_fallback(index, cost_per_op, fallback, out);
  }
  return out;
}

void GuardedExecutor::serve_fallback(std::size_t index, double cost_per_op,
                                     const FallbackOne& fallback,
                                     WorklistResult& out,
                                     std::optional<OpKind> escalated_kind) const {
  const obs::ObsHooks& hooks = options_.obs;
  obs::TraceSpan fallback_span(hooks.trace, "fallback", "guard");
  const std::int64_t t0 = hooks.timing() ? obs_now_ns() : 0;
  CheckedOp served = fallback(index);
  if (hooks.profiler != nullptr) {
    // Serving an escalated op is recovery cost of the kind that escalated;
    // a breaker bypass (no escalated kind) is the fallback engine's own
    // compute — there was no guarded attempt to attribute it to.
    hooks.profiler->record(
        escalated_kind ? *escalated_kind : OpKind::kReferenceFallback,
        escalated_kind ? obs::GuardPhase::kRecovery
                       : obs::GuardPhase::kCompute,
        std::uint64_t(obs_now_ns() - t0));
  }
  if (hooks.flight != nullptr) {
    hooks.flight->record(
        obs::FlightEventKind::kFallback, "executor",
        escalated_kind ? op_kind_name(*escalated_kind) : "breaker_bypass",
        index);
  }
  OpReport report =
      describe(OpKind::kReferenceFallback, index, cost_per_op, served);
  report.alarms = report.verdict == CheckVerdict::kAlarm ? 1 : 0;
  out.all_clean = out.all_clean && report.verdict == CheckVerdict::kPass;
  ++out.fallback_ops;
  out.reports.push_back(std::move(report));
  out.outputs.push_back(std::move(served.output));
}

}  // namespace flashabft
