// Control-plane integrity: sealed metadata records + dual-modular glue.
//
// ABFT checksums cover the matmuls and the KV pages, but the fault campaign
// (PR 6) measured the part they don't: scheduler/session metadata sat at 0%
// detection coverage with ~90% SDC — a flipped generated token, prompt token
// or budget silently steers the whole generation. This header closes that
// hole with two mechanisms, both surfaced through the existing
// `GuardedExecutor` alarm → repair → escalate ladder as
// `OpKind::kControlPlane`:
//
//  1. `GuardedRecord<T>` — a sealed-struct wrapper holding a running hash
//     (seal) over a metadata struct plus a dual-copy mirror with its own
//     seal. Legitimate writes go through `mutate()` (re-seals both copies);
//     an upset that writes the record directly (`raw()` is the fault
//     surface's backdoor) leaves the seal stale, so the next
//     `guarded_meta_verify` alarms and repairs the value from the mirror.
//     Detection is content-independent: ANY raw mutation breaks the seal,
//     even one that lands on a semantically plausible value.
//
//  2. `dmr_guard` — selective dual-modular execution for the cheap
//     non-matmul glue (LayerNorm, GELU) that no checksum identity covers:
//     run twice, compare bitwise, retry through the executor ladder on
//     mismatch (a third run then votes). Behind
//     `GuardedExecutor::Options::dmr_glue`, off by default — deterministic
//     software never mismatches organically, so this buys transient-fault
//     coverage at 2x glue cost, not correctness. (The softmax rescale
//     inside the fused attention kernel is already covered by the paper's
//     online checksum and needs no duplication.)
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <utility>
#include <vector>

#include "core/guarded_op.hpp"

namespace flashabft {

/// Incremental FNV-1a over 64-bit words — the seal hash. Exact (bitwise)
/// by construction: metadata is integral, so there is no tolerance to
/// calibrate and a corrupted checker threshold cannot blind it (verifies
/// report through `CheckedOp::self_verdict`, not the float comparator).
class MetaHash {
 public:
  void fold(std::uint64_t word) {
    for (int byte = 0; byte < 8; ++byte) {
      hash_ ^= (word >> (8 * byte)) & 0xffu;
      hash_ *= 0x100000001b3ull;
    }
  }
  void fold(std::span<const std::size_t> words) {
    fold(std::uint64_t(words.size()));
    for (const std::size_t word : words) fold(std::uint64_t(word));
  }
  [[nodiscard]] std::uint64_t digest() const { return hash_; }

 private:
  std::uint64_t hash_ = 0xcbf29ce484222325ull;
};

/// The guarded session metadata: everything the serving control plane reads
/// to steer a generation — the prompt it (re)prefills, the budget that
/// terminates it, the tokens it feeds back and the step counter that
/// addresses faults. One record per session, sealed by `GuardedRecord`.
struct SessionMeta {
  std::vector<std::size_t> prompt;
  std::size_t max_new_tokens = 0;
  std::vector<std::size_t> tokens;   ///< generated so far.
  std::size_t steps_done = 0;        ///< decode steps executed.
};

inline void meta_hash_fold(MetaHash& hash, const SessionMeta& meta) {
  hash.fold(meta.prompt);
  hash.fold(std::uint64_t(meta.max_new_tokens));
  hash.fold(meta.tokens);
  hash.fold(std::uint64_t(meta.steps_done));
}

/// Sealed-struct wrapper: value + seal hash, mirrored by a second copy with
/// its own seal. `T` needs an ADL-visible
/// `meta_hash_fold(MetaHash&, const T&)`.
template <typename T>
class GuardedRecord {
 public:
  GuardedRecord() { seal(); }
  explicit GuardedRecord(T value) : value_(std::move(value)) { seal(); }

  /// The guarded value. Callers verify at step/tick boundaries via
  /// `guarded_meta_verify`; reads between a verify and the next foreign
  /// write window are covered by that verify.
  [[nodiscard]] const T& value() const { return value_; }

  /// The one legitimate write path: applies `fn` to the value, then
  /// re-seals value and mirror together.
  template <typename Fn>
  void mutate(Fn&& fn) {
    fn(value_);
    seal();
  }

  /// Fault-surface backdoor: direct mutable access that deliberately does
  /// NOT re-seal — writes through it model a memory upset and leave the
  /// seal stale for the next verify to catch.
  [[nodiscard]] T& raw() { return value_; }

  /// True iff the primary copy still matches its seal.
  [[nodiscard]] bool verify() const { return hash_of(value_) == seal_; }
  /// True iff the mirror copy still matches its seal.
  [[nodiscard]] bool mirror_intact() const {
    return hash_of(mirror_) == mirror_seal_;
  }

  /// Restores the primary from the mirror when the mirror verifies; false
  /// when both copies are hit (the double-fault case — the caller's verify
  /// keeps alarming and escalates dirty).
  bool repair() {
    if (!mirror_intact()) return false;
    value_ = mirror_;
    seal_ = mirror_seal_;
    return true;
  }

  /// Nominal cost of one verify (hashing is O(record words), negligible
  /// next to a GEMM — reported so per-kind cost accounting stays nonzero).
  [[nodiscard]] double verify_cost() const { return 8.0; }

 private:
  static std::uint64_t hash_of(const T& value) {
    MetaHash hash;
    meta_hash_fold(hash, value);
    return hash.digest();
  }
  void seal() {
    seal_ = hash_of(value_);
    mirror_ = value_;
    mirror_seal_ = seal_;
  }

  T value_{};
  std::uint64_t seal_ = 0;
  T mirror_{};
  std::uint64_t mirror_seal_ = 0;
};

/// Guarded verify of a sealed record, in the same shape as
/// guarded_page_verify: attempt 0 checks the live
/// seal; every retry repairs from the mirror first and re-checks. A
/// transient upset therefore reports kRecovered; a double-fault (mirror hit
/// too) exhausts the retries and is accepted dirty (verdict kAlarm — the
/// response goes checksum-dirty). Returns true iff the accepted state is
/// clean.
template <typename T>
bool guarded_meta_verify(GuardedRecord<T>& record, std::size_t index,
                         const GuardedExecutor& executor,
                         LayerReport& report) {
  GuardedOp op = executor.run(
      OpKind::kControlPlane, index, record.verify_cost(),
      [&](std::size_t attempt) {
        if (attempt > 0) (void)record.repair();
        CheckedOp checked;
        checked.output = MatrixD(1, 1);
        const bool intact = record.verify();
        // The seal compare is exact; report it as a 1/0 pair so the
        // OpReport's residual reads 0 (clean) or 1 (seal mismatch).
        checked.check = {1.0, intact ? 1.0 : 0.0};
        checked.self_verdict =
            intact ? CheckVerdict::kPass : CheckVerdict::kAlarm;
        return checked;
      });
  const bool clean = op.report.verdict == CheckVerdict::kPass;
  report.add(std::move(op));
  return clean;
}

/// Dual-modular execution of an unchecked glue op (LayerNorm/GELU): when
/// `Options::dmr_glue` is on, `compute` runs twice and the outputs must
/// match bitwise; a mismatch alarms through the executor ladder, which
/// re-runs the pair (majority vote by re-execution). Off, it is exactly one
/// `compute()` call — zero overhead. Compare/mismatch counts land on the
/// report's dmr counters; mismatches additionally emit a kControlPlane
/// OpReport.
[[nodiscard]] MatrixD dmr_guard(const GuardedExecutor& executor,
                                std::size_t index, double cost,
                                const std::function<MatrixD()>& compute,
                                LayerReport& report);

}  // namespace flashabft
