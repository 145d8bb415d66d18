// The unified kernel-entry API: one context object instead of ad-hoc
// per-call parameters.
//
// Before this header existed every kernel entry point grew its own
// `(ComputeBackend backend)` tail parameter and every comparator used one
// hand-set CheckerConfig. Low-precision storage broke that pattern twice
// over: kernels additionally need the storage dtype (where to round on
// write-back), and one global tolerance cannot serve ops whose fault-free
// rounding residuals differ by orders of magnitude (a bf16 projection's
// output-rounding residual vs a KV running-checksum's exact-zero
// residual). `KernelContext{backend, dtype, tolerances}` is the single
// bundle the executor hands to every kernel, and `Tolerances` is the
// per-OpKind comparator configuration that `derive_tolerances()` in
// fault/calibrate.hpp produces from the rounding-error-bound model — the
// one calibration source of truth. DESIGN.md §12 has the migration table.
#pragma once

#include <array>
#include <cstddef>
#include <optional>
#include <string_view>

#include "core/checker.hpp"
#include "numerics/dtype.hpp"
#include "tensor/backend.hpp"

namespace flashabft {

/// The checkable operator classes of the protected inference path.
enum class OpKind {
  kAttentionFlashAbft = 0,  ///< fused Alg. 3 checksum (software or accel).
  kAttentionTwoStepAbft,    ///< classic two-product ABFT attention baseline.
  kProjection,              ///< Q/K/V/output projection under matmul-ABFT.
  kFfn,                     ///< feed-forward product under matmul-ABFT.
  kKvPage,                  ///< paged KV pool: page contents + page table.
  kReferenceFallback,       ///< software Alg. 3 serving an escalated op.
  kControlPlane,            ///< sealed scheduler/session metadata + DMR glue.
};
inline constexpr std::size_t kOpKindCount = 7;

[[nodiscard]] const char* op_kind_name(OpKind kind);
/// Inverse of op_kind_name: parses the canonical name (the one report/JSON
/// emitters produce); nullopt for anything else.
[[nodiscard]] std::optional<OpKind> parse_op_kind(std::string_view name);

/// Per-OpKind comparator tolerances — the calibrated replacement for the
/// single hand-set CheckerConfig. Under `DType::kF32` every kind derives to
/// the paper's experimental configuration (abs 1e-6, rel 0); under bf16/f16
/// the quantized kinds carry thresholds from the rounding-error-bound model
/// in fault/calibrate.hpp while storage-consistency checks (KV running
/// sums) keep the tight floor.
struct Tolerances {
  std::array<CheckerConfig, kOpKindCount> per_kind{};
  /// Storage dtype the thresholds were derived for.
  DType dtype = DType::kF32;
  /// True when produced by `derive_tolerances()` (vs a uniform hand-set
  /// config) — telemetry/report surfaces use it to label the regime.
  bool calibrated = false;

  /// Every kind at one hand-set config — the pre-calibration behaviour and
  /// the executor's default when no derived Tolerances are supplied.
  [[nodiscard]] static Tolerances uniform(const CheckerConfig& config) {
    Tolerances t;
    t.per_kind.fill(config);
    return t;
  }

  [[nodiscard]] const CheckerConfig& of(OpKind kind) const {
    return per_kind[std::size_t(kind)];
  }
  [[nodiscard]] CheckerConfig& of(OpKind kind) {
    return per_kind[std::size_t(kind)];
  }

  /// Scales every kind's abs + rel tolerance — the corrupted-calibration
  /// fault site (see GuardedExecutor::corrupt_checker_tolerances).
  void scale(double factor) {
    for (CheckerConfig& cfg : per_kind) {
      cfg.abs_tolerance *= factor;
      cfg.rel_tolerance *= factor;
    }
  }
};

/// Everything a kernel entry point needs to know about *how* to execute:
/// which compute backend, which storage dtype to round materialized
/// outputs to, and which calibrated tolerances its checksums are judged
/// against. Default-constructed it reproduces the legacy behaviour
/// exactly: process-default backend, f32 (identity rounding), the paper's
/// uniform thresholds.
struct KernelContext {
  ComputeBackend backend = default_backend();
  DType dtype = DType::kF32;
  Tolerances tolerances = Tolerances::uniform(CheckerConfig{});

  /// Same dtype/tolerances on an explicit backend — how callers pin the
  /// reference fallback to kScalar while keeping the storage regime (the
  /// fallback must produce outputs in the same format or golden
  /// comparisons against it would see quantization noise as divergence).
  [[nodiscard]] KernelContext with_backend(ComputeBackend b) const {
    KernelContext out = *this;
    out.backend = b;
    return out;
  }

  [[nodiscard]] const CheckerConfig& tolerance(OpKind kind) const {
    return tolerances.of(kind);
  }
};

}  // namespace flashabft
