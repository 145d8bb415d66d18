// Dense (fully-connected) layer: y = x W + b.
//
// Part of the Fig. 1 encoder-layer substrate: the Q/K/V projections, the
// attention output projection and both feed-forward layers are Linear.
#pragma once

#include <span>
#include <vector>

#include "core/guarded_op.hpp"
#include "tensor/backend.hpp"
#include "tensor/matrix.hpp"
#include "tensor/random.hpp"

namespace flashabft {

/// A dense layer with an in_features x out_features weight and a bias.
class Linear {
 public:
  Linear() = default;
  Linear(std::size_t in_features, std::size_t out_features);

  /// Xavier/Glorot-style initialization: W ~ N(0, 1/in_features), b = 0.
  static Linear random_init(std::size_t in_features, std::size_t out_features,
                            Rng& rng);

  /// y = x W + b for a batch of rows (x: n x in_features).
  [[nodiscard]] MatrixD forward(const MatrixD& x) const;

  /// The same forward under the classic ABFT product check (Huang & Abraham
  /// 1984): predicted = dot(colsum(x), rowsum(W)) + n * sum(b), compared
  /// against the element sum of the produced output — so both the product
  /// and the bias add are covered. On context.backend == kSimd the pair
  /// comes out of the fused product tiles (backend_linear_fused) instead of
  /// a second pass; context.dtype is the storage format of the output (the
  /// fused kernels' write-back rounding contract). Executed through a
  /// GuardedExecutor this is the `kProjection` / `kFfn` GuardedOp.
  /// Replaces the former `ComputeBackend backend` parameter — see the
  /// DESIGN.md §12 migration table. With `cached` (see input_checksums())
  /// the prediction uses those construction-time sums, and the fused kernel
  /// skips its own rowsum(W) pass.
  [[nodiscard]] CheckedOp checked_forward(
      const MatrixD& x, const KernelContext& context = {},
      const InputChecksums* cached = nullptr) const;

  /// Rounds the weights and bias through `dtype` in place — the one-time
  /// storage quantization of a frozen layer. Must run BEFORE
  /// input_checksums() is cached: the input-side rowsum(W)/Σb must describe
  /// the weights as stored, else every later compare carries a permanent
  /// quantization offset and false-alarms.
  void quantize(DType dtype);

  /// MACs of one forward (the OpReport cost metric).
  [[nodiscard]] double forward_cost(std::size_t rows) const {
    return double(rows) * double(weight_.rows()) * double(weight_.cols());
  }

  [[nodiscard]] std::size_t in_features() const { return weight_.rows(); }
  [[nodiscard]] std::size_t out_features() const { return weight_.cols(); }

  [[nodiscard]] MatrixD& weight() { return weight_; }
  [[nodiscard]] const MatrixD& weight() const { return weight_; }
  [[nodiscard]] std::vector<double>& bias() { return bias_; }
  [[nodiscard]] const std::vector<double>& bias() const { return bias_; }

  /// The input-side ABFT checksums of the *current* weights: rowsum(W)
  /// and Σb. Owners whose weights are frozen after construction (the
  /// model layers) compute this once and hand it to guarded_linear_batch
  /// on every call — the cache lives with whoever can guarantee it stays
  /// valid, not inside Linear (whose weight()/bias() accessors are
  /// mutable).
  using InputChecksums = flashabft::InputChecksums;
  [[nodiscard]] InputChecksums input_checksums() const;

  /// Storage-integrity staleness of `cached` against the live weights: the
  /// max absolute drift of any recomputed rowsum(W) entry or Σb from the
  /// cached copy. Both sides sum the same stored values in the same order,
  /// so a clean layer reads exactly 0.0 at EVERY storage dtype — unlike the
  /// arithmetic checksum compare, whose low-precision threshold must sit
  /// above quantization noise, this check never widens. A resident weight
  /// upset surfaces as its exact delta (the weight scrub's detection
  /// signal).
  [[nodiscard]] double checksum_staleness(const InputChecksums& cached) const;

 private:
  MatrixD weight_;            // in x out
  std::vector<double> bias_;  // out
};

/// One independently verifiable weight matrix of a frozen model: a Linear
/// and the input-side checksums its owner cached at construction — the
/// unit the weight scrub walks one slice at a time.
struct WeightPart {
  const Linear& linear;
  const Linear::InputChecksums& cached;

  /// See Linear::checksum_staleness; 0.0 iff this matrix did not drift.
  [[nodiscard]] double staleness() const {
    return linear.checksum_staleness(cached);
  }
};

/// Runs one Linear as a guarded op of `kind` — checked, retried on alarm,
/// recomputed as its own fallback on escalation — appending the report(s)
/// to `report` and returning the accepted output. Guarded attempts run on
/// the executor's compute backend; the fallback recomputation always runs
/// kScalar (implementation diversity against a systematically wrong kernel).
///
/// Pass the owner's construction-time `cached` checksums and the first
/// attempt predicts against rowsum(W)/Σb *as built* instead of the live
/// weights — the fix for the fault campaign's legacy weight blind spot: a
/// post-construction weight upset used to re-enter both sides of the
/// compare and stay self-consistent (13.3% detection); against the stale
/// cache it alarms. Retries fall back to live-weight prediction, exactly
/// like `guarded_linear_batch`'s retry path.
[[nodiscard]] MatrixD guarded_linear(
    const Linear& layer, const MatrixD& in, OpKind kind, std::size_t index,
    const GuardedExecutor& executor, LayerReport& report,
    const Linear::InputChecksums* cached = nullptr);

/// The continuous-batching form of `guarded_linear`: ONE stacked product
/// y = [x_1; ...; x_G] W + b — the weight matrix (and its rowsum checksum)
/// streams once per batch instead of once per session — checked *per row
/// group*. The matmul-ABFT identity holds on any row subset, so group g
/// (rows `group_rows[g]` of the stack, one group per session) gets its own
/// pair (predicted = dot(colsum(x_g), rowsum(W)) + rows_g·Σb, actual =
/// Σ y_g), its own GuardedOp run under `executors[g]` (whose tamper hook
/// carries only that session's faults; retries recompute only that group's
/// rows, the escalation fallback recomputes them on kScalar), and its own
/// report appended to `reports[g]`. Protection granularity, fault
/// attribution and recovery semantics are therefore exactly the
/// per-session ones; only the clean-path compute is shared. The scalar
/// product keeps `matmul`'s accumulation order, so per-group outputs are
/// bit-identical to per-session `guarded_linear` calls.
[[nodiscard]] std::vector<MatrixD> guarded_linear_batch(
    const Linear& layer, const MatrixD& x_stacked,
    std::span<const std::size_t> group_rows, OpKind kind, std::size_t index,
    std::span<const GuardedExecutor* const> executors,
    std::span<LayerReport* const> reports,
    const Linear::InputChecksums* cached = nullptr);

}  // namespace flashabft
