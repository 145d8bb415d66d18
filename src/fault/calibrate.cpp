#include "fault/calibrate.hpp"

#include <algorithm>
#include <cmath>

#include "common/ensure.hpp"

namespace flashabft {

CheckerCalibration calibrate_checker(
    const Accelerator& accel, std::span<const AttentionInputs> workloads,
    double margin) {
  FLASHABFT_ENSURE_MSG(!workloads.empty(), "calibration needs workloads");
  CheckerCalibration cal;
  for (const AttentionInputs& w : workloads) {
    const AccelRunResult run = accel.run(w.q, w.k, w.v);
    for (std::size_t i = 0; i < run.per_query_pred.size(); ++i) {
      const double r =
          std::fabs(run.per_query_pred[i] - run.per_query_actual[i]);
      FLASHABFT_ENSURE_MSG(std::isfinite(r),
                           "non-finite fault-free residual at query " << i);
      cal.worst_per_query_residual =
          std::max(cal.worst_per_query_residual, r);
    }
    const double g = std::fabs(run.global_pred - run.global_actual);
    FLASHABFT_ENSURE(std::isfinite(g));
    cal.worst_global_residual = std::max(cal.worst_global_residual, g);
  }
  constexpr double kFloor = 1e-12;  // keep thresholds meaningful if exact
  cal.per_query_threshold =
      std::max(cal.worst_per_query_residual * margin, kFloor);
  cal.global_threshold = std::max(cal.worst_global_residual * margin, kFloor);
  return cal;
}

AccelConfig with_calibrated_thresholds(
    AccelConfig cfg, std::span<const AttentionInputs> workloads,
    double margin) {
  const Accelerator accel(cfg);
  const CheckerCalibration cal = calibrate_checker(accel, workloads, margin);
  cfg.detect_threshold = cal.per_query_threshold;
  cfg.detect_threshold_global = cal.global_threshold;
  return cfg;
}

ToleranceModelShape tolerance_shape_for(const TransformerConfig& cfg) {
  ToleranceModelShape shape;
  shape.model_dim = cfg.model_dim;
  shape.num_heads = cfg.num_heads;
  shape.head_dim = cfg.head_dim;
  shape.ffn_dim = cfg.ffn_dim;
  shape.vocab_size = cfg.vocab_size;
  shape.max_seq_len = cfg.max_seq_len;
  return shape;
}

double rounding_residual_bound(std::size_t reduction_depth,
                               std::size_t output_count, double magnitude,
                               DType dtype) {
  const double u = dtype_unit_roundoff(dtype);
  const double n_out = double(output_count);
  const double storage = u * magnitude * std::sqrt(n_out);
  constexpr double kEps64 = 2.220446049250313e-16;
  const double wide = kEps64 * magnitude * double(reduction_depth) * n_out;
  return storage + wide;
}

Tolerances derive_tolerances(DType dtype, const ToleranceModelShape& shape,
                             double margin) {
  FLASHABFT_ENSURE_MSG(margin >= 1.0, "tolerance margin must be >= 1");
  // The exact-storage regime: seed thresholds everywhere (golden parity).
  Tolerances tol = Tolerances::uniform(CheckerConfig{1e-6, 0.0});
  tol.dtype = dtype;
  tol.calibrated = true;
  if (dtype == DType::kF32) return tol;

  const double u = dtype_unit_roundoff(dtype);
  const double scale = shape.activation_scale;
  // Relative term: u-proportional, but at a quarter coefficient — coherent
  // checksums (|sum y| ~ n * y_rms) would otherwise overstate the
  // sqrt(n)-concentrating rounding noise by up to sqrt(n).
  const double rel = margin * u / 4.0;
  const auto derived = [&](std::size_t depth, std::size_t n_out,
                           double magnitude) {
    const double abs =
        margin * rounding_residual_bound(depth, n_out, magnitude, dtype);
    return CheckerConfig{std::max(abs, 1e-6), rel};
  };
  const auto set = [&](OpKind kind, CheckerConfig cfg) {
    tol.per_kind[std::size_t(kind)] = cfg;
  };

  const std::size_t width = shape.num_heads * shape.head_dim;
  // Projections: the widest checked product is the tied LM head (depth
  // model_dim, vocab_size logits per row); prefill checks sum a whole
  // seq_len x out matrix at once.
  const std::size_t proj_out =
      shape.max_seq_len *
      std::max({shape.vocab_size, shape.model_dim, width});
  const CheckerConfig proj =
      derived(shape.model_dim, proj_out, scale);
  set(OpKind::kProjection, proj);
  // FFN: depth up to ffn_dim (second product), output up to ffn_dim wide.
  set(OpKind::kFfn,
      derived(std::max(shape.model_dim, shape.ffn_dim),
              shape.max_seq_len * std::max(shape.model_dim, shape.ffn_dim),
              scale));
  // Flash attention: outputs are convex combinations of (stored) V rows, so
  // the per-element magnitude stays at activation scale; one checked op
  // covers up to seq_len x head_dim outputs over a seq_len-deep reduction.
  set(OpKind::kAttentionFlashAbft,
      derived(shape.max_seq_len, shape.max_seq_len * shape.head_dim, scale));
  // Two-step baseline: the score matrix check is the larger of its two
  // checks — seq_len^2 stored scores over a head_dim-deep reduction.
  set(OpKind::kAttentionTwoStepAbft,
      derived(std::max(shape.head_dim, shape.max_seq_len),
              shape.max_seq_len * std::max(shape.max_seq_len, shape.head_dim),
              scale));
  // Reference fallback re-runs the op it replaces at the same dtype, so its
  // residual obeys the widest compute-kind bound.
  set(OpKind::kReferenceFallback, proj);
  // kKvPage / kControlPlane deliberately keep the exact floor: KV page
  // verification recomputes column sums from the stored (already rounded)
  // rows, so clean verifies are bit-exact at every dtype, and the
  // control plane checks metadata words, not arithmetic.
  return tol;
}

}  // namespace flashabft
