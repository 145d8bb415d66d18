// The unified protection surface: one API for every checkable operator.
//
// The paper derives an online checksum for the fused attention kernel; the
// serving story ("detect online ... to facilitate quick recovery") only pays
// off when the whole inference path runs under one protection regime. Every
// checkable operator in this repo — Flash-ABFT attention (software Alg. 3 or
// the cycle-level accelerator), the classic two-step matmul-ABFT attention
// baseline, ABFT-checked Linear / FFN products, and the verified reference
// fallback — therefore executes through one `GuardedExecutor` and reports
// through one `OpReport`. The executor owns the checksum `Checker`, the
// `RecoveryPolicy` (retry-then-escalate), an optional extreme-value screen
// (NaN/Inf — the comparator's documented Silent-NaN blind spot) and a
// tamper hook tests and demos use to model faults on engines that have no
// bit-level injector.
#pragma once

#include <cstddef>
#include <functional>
#include <optional>
#include <string_view>
#include <vector>

#include "core/checker.hpp"
#include "core/extreme_value_screen.hpp"
#include "core/kernel_context.hpp"
#include "obs/hooks.hpp"
#include "tensor/backend.hpp"
#include "tensor/matrix.hpp"

namespace flashabft {

/// Retry policy for guarded execution.
struct RecoveryPolicy {
  std::size_t max_retries = 2;  ///< re-executions before escalating.
};

/// How a guarded invocation concluded.
enum class RecoveryStatus {
  kCleanFirstTry,  ///< no alarm on the first execution.
  kRecovered,      ///< alarmed, then a retry passed the check.
  kEscalated,      ///< every retry alarmed — persistent-fault suspect.
};

[[nodiscard]] const char* recovery_status_name(RecoveryStatus status);

/// One predicted/actual checksum pair.
struct ChecksumPair {
  double predicted = 0.0;
  double actual = 0.0;

  /// |predicted - actual|; NaN if either side is NaN (paper semantics).
  [[nodiscard]] double residual() const;
};

/// What one execution of a checkable operator produces: the output tensor
/// plus everything its checker compares. This is the adapter type each
/// operator family maps its native result onto.
struct CheckedOp {
  MatrixD output;
  ChecksumPair check;                      ///< primary checksum pair.
  std::vector<ChecksumPair> extra_checks;  ///< e.g. two-step's 2nd product.
  /// Verdict of the operator's own comparator (the accelerator's in-hardware
  /// checker with its calibrated thresholds). When set, the executor honors
  /// it instead of re-comparing the pairs; the extreme-value screen still
  /// applies on top.
  std::optional<CheckVerdict> self_verdict;
};

/// The common report every guarded operator execution produces.
struct OpReport {
  OpKind kind = OpKind::kAttentionFlashAbft;
  std::size_t index = 0;      ///< which instance within the layer/request.
  double predicted = 0.0;     ///< worst-residual pair of the accepted run.
  double actual = 0.0;
  CheckVerdict verdict = CheckVerdict::kPass;  ///< accepted run's verdict.
  double residual = 0.0;      ///< |predicted - actual|; NaN-propagating.
  double cost = 0.0;          ///< MACs of the checked computation.
  RecoveryStatus recovery = RecoveryStatus::kCleanFirstTry;
  std::size_t executions = 1; ///< runs including retries (fallback excluded).
  std::size_t alarms = 0;     ///< attempts that alarmed.
  /// False when this op escalated and its output was replaced by a fallback
  /// op (whose own report follows it) — excluded from cleanliness checks.
  bool accepted = true;
};

/// A guarded single-op invocation: the accepted output and its report(s).
struct GuardedOp {
  MatrixD output;  ///< the accepted output (fallback's when escalated).
  OpReport report;
  /// Present when the op escalated and a fallback engine served it.
  std::optional<OpReport> fallback_report;

  /// True iff the accepted execution's verdict passed.
  [[nodiscard]] bool clean() const {
    return (fallback_report ? *fallback_report : report).verdict ==
           CheckVerdict::kPass;
  }
};

/// Aggregated reports of one layer/request forward pass.
struct LayerReport {
  std::vector<OpReport> ops;
  /// Dual-modular glue executions compared (when Options::dmr_glue is on);
  /// mismatches additionally emit a kControlPlane OpReport into `ops`.
  std::size_t dmr_compares = 0;
  std::size_t dmr_mismatches = 0;

  void add(GuardedOp op);
  void append(LayerReport other);

  /// Any *accepted* op whose final verdict alarmed (a dirty output escaped).
  [[nodiscard]] bool any_alarm() const;
  [[nodiscard]] std::size_t alarm_events() const;  ///< sum of per-op alarms.
  [[nodiscard]] std::size_t executions() const;
  [[nodiscard]] std::size_t count(OpKind kind) const;
  [[nodiscard]] std::size_t alarms(OpKind kind) const;
  [[nodiscard]] std::size_t recovered(OpKind kind) const;
  /// Every accepted op's verdict passed — the response-cleanliness predicate.
  [[nodiscard]] bool all_accepted_clean() const;
};

/// Result of guarded execution over a work-list of same-kind ops (the
/// serving engine's batched attention path).
struct WorklistResult {
  std::vector<MatrixD> outputs;   ///< per-op accepted outputs, op order.
  std::vector<OpReport> reports;  ///< guarded reports + fallback reports.
  std::size_t executions = 0;     ///< op-runs including retries.
  std::size_t alarm_events = 0;
  std::size_t recovered_ops = 0;
  std::size_t fallback_ops = 0;
  bool escalated = false;   ///< at least one op exhausted its retries.
  bool all_clean = true;    ///< every accepted output's verdict passed.
};

/// Executes checkable operators under checksum verification with
/// retry-based recovery and optional fallback — the single protection
/// regime the model layers and the serving engine share.
class GuardedExecutor {
 public:
  struct Options {
    CheckerConfig checker{};
    RecoveryPolicy recovery{};
    /// Optional NaN/Inf/near-INF screen over every produced output; closes
    /// the comparator's Silent-NaN blind spot. Off by default to preserve
    /// the paper's comparator semantics.
    bool screen_extremes = false;
    ExtremeValueConfig screen{};
    /// Compute backend the guarded software kernels (attention, projection,
    /// FFN, LM head) run on. Fallback executions always run kScalar — the
    /// reference engine stays implementation-diverse from the guarded path.
    /// Initialized from the process-wide default (kScalar unless
    /// set_default_backend() changed it).
    ComputeBackend compute = default_backend();
    /// Dual-modular execution for the cheap non-matmul glue (LayerNorm,
    /// GELU) that no checksum covers: run twice, compare bitwise, majority-
    /// vote with a third run on mismatch (reported as a recovered
    /// kControlPlane op). Off by default — the glue is deterministic, so
    /// this buys fault coverage at 2x glue cost, not correctness.
    bool dmr_glue = false;
    /// Storage dtype of weights, kernel outputs and cached K/V rows. kF32
    /// is the identity regime (bit-identical to the pre-dtype code path);
    /// bf16/f16 round on register write-back and need `tolerances` derived
    /// for that dtype or fault-free runs false-alarm.
    DType dtype = DType::kF32;
    /// Per-OpKind calibrated thresholds (derive_tolerances() in
    /// fault/calibrate.hpp). Unset = every kind judged by `checker`, the
    /// pre-calibration behaviour.
    std::optional<Tolerances> tolerances;
    /// Observability hooks (all null by default = fully off). When a
    /// profiler or trace collector is attached, every guarded invocation is
    /// timed and split into compute / checksum-verify / recovery phases;
    /// a flight recorder receives the rare protection events (alarm,
    /// recovery, escalation, fallback). See obs/hooks.hpp for the contract.
    obs::ObsHooks obs{};
  };

  /// run_once(attempt) -> the checked result of that execution.
  using RunOp = std::function<CheckedOp(std::size_t attempt)>;
  /// Escalation fallback: a healthy engine, checked by its own checksums.
  using FallbackOp = std::function<CheckedOp()>;
  /// run_round(attempt, indices) -> checked results aligned with `indices`.
  using RunRound = std::function<std::vector<CheckedOp>(
      std::size_t attempt, const std::vector<std::size_t>& indices)>;
  using FallbackOne = std::function<CheckedOp(std::size_t index)>;
  /// Fault-emulation hook: mutates a produced CheckedOp before checking.
  /// Applied to guarded attempts only — never to fallback executions (the
  /// fallback models a healthy replacement engine).
  using Tamper = std::function<void(OpKind kind, std::size_t index,
                                    std::size_t attempt, CheckedOp& op)>;

  GuardedExecutor() : GuardedExecutor(Options{}) {}
  explicit GuardedExecutor(Options options);
  GuardedExecutor(CheckerConfig checker, RecoveryPolicy recovery);

  [[nodiscard]] const Options& options() const { return options_; }
  [[nodiscard]] const Checker& checker() const { return checker_; }
  /// The backend guarded kernels should execute on.
  [[nodiscard]] ComputeBackend compute_backend() const {
    return options_.compute;
  }
  /// The per-OpKind thresholds in effect: Options::tolerances when set,
  /// else Options::checker uniformly.
  [[nodiscard]] const Tolerances& tolerances() const { return tolerances_; }
  /// The context guarded kernels execute under — backend + storage dtype +
  /// calibrated tolerances, the bundle every dtype-aware kernel entry point
  /// takes instead of a bare backend parameter.
  [[nodiscard]] KernelContext kernel_context() const {
    return KernelContext{options_.compute, options_.dtype, tolerances_};
  }
  /// kernel_context() pinned to the scalar backend — what fallback
  /// executions run under (implementation-diverse engine, same storage
  /// regime).
  [[nodiscard]] KernelContext fallback_context() const {
    return kernel_context().with_backend(ComputeBackend::kScalar);
  }

  void set_tamper(Tamper tamper) { tamper_ = std::move(tamper); }

  /// Fault hook on the executor's own *detector state*: rebuilds the
  /// comparator with every tolerance scaled by `scale` — the base checker
  /// AND each per-kind calibrated threshold, so calibrated regimes corrupt
  /// the same way hand-set ones do. Models corrupted calibration/threshold
  /// registers: scale 0 makes the detector hyperactive (every rounding
  /// residual alarms); a large scale blinds it. The fault-campaign's
  /// checksum-state subsystem draws this site.
  void corrupt_checker_tolerances(double scale);

  /// Verdict of one execution: the extreme-value screen (when enabled),
  /// then the operator's own verdict if it carries one, else the checksum
  /// comparison over every pair. The kind-less overload judges with the
  /// base checker; the kind-aware one (what run/describe use) applies that
  /// kind's calibrated tolerance.
  [[nodiscard]] CheckVerdict judge(const CheckedOp& op) const;
  [[nodiscard]] CheckVerdict judge(OpKind kind, const CheckedOp& op) const;

  /// Builds the report of a single (accepted) execution: verdict, the
  /// worst-residual checksum pair, cost.
  [[nodiscard]] OpReport describe(OpKind kind, std::size_t index, double cost,
                                  const CheckedOp& op) const;

  /// Runs one operator under check + retry. On escalation: without a
  /// fallback the last (dirty) execution is accepted with verdict kAlarm;
  /// with one, `fallback()` is executed once, checked, and accepted, and
  /// both reports are returned (the escalated op marked not-accepted).
  [[nodiscard]] GuardedOp run(OpKind kind, std::size_t index, double cost,
                              const RunOp& run_once,
                              const FallbackOp& fallback = nullptr) const;

  /// Work-list protection over `count` same-kind ops sharing one execution
  /// engine: round 0 runs everything, each later round re-runs only the
  /// still-alarming subset, survivors of the retry budget are served by
  /// `fallback(index)` (checked too). This is the serving engine's batched
  /// attention path — alarming-head re-execution as a GuardedOp loop.
  [[nodiscard]] WorklistResult run_worklist(OpKind kind, std::size_t count,
                                            double cost_per_op,
                                            const RunRound& run_round,
                                            const FallbackOne& fallback) const;

  /// Serves every op straight from the fallback engine (the circuit-breaker
  /// bypass path): each result is checked and reported as kReferenceFallback.
  [[nodiscard]] WorklistResult run_all_fallback(
      std::size_t count, double cost_per_op,
      const FallbackOne& fallback) const;

 private:
  /// Runs + checks one fallback execution and appends it to `out`.
  /// `escalated_kind` is set when the fallback serves an escalated op (its
  /// duration profiles as that kind's recovery time) and empty on the
  /// breaker-bypass path (profiled as kReferenceFallback compute).
  void serve_fallback(std::size_t index, double cost_per_op,
                      const FallbackOne& fallback, WorklistResult& out,
                      std::optional<OpKind> escalated_kind = {}) const;

  /// The comparison behind both judge overloads.
  [[nodiscard]] CheckVerdict judge_with(const Checker& checker,
                                        const CheckedOp& op) const;

  Options options_;
  Checker checker_;
  Tolerances tolerances_;
  Tamper tamper_;
};

}  // namespace flashabft
