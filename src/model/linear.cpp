#include "model/linear.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

#include "tensor/product_tile.hpp"
#include "tensor/tensor_ops.hpp"

namespace flashabft {

Linear::Linear(std::size_t in_features, std::size_t out_features)
    : weight_(in_features, out_features), bias_(out_features, 0.0) {}

Linear Linear::random_init(std::size_t in_features, std::size_t out_features,
                           Rng& rng) {
  Linear layer(in_features, out_features);
  const double stddev = 1.0 / std::sqrt(double(in_features));
  fill_gaussian(layer.weight_, rng, 0.0, stddev);
  return layer;
}

MatrixD Linear::forward(const MatrixD& x) const {
  FLASHABFT_ENSURE_MSG(x.cols() == weight_.rows(),
                       "Linear: input width " << x.cols() << " != "
                                              << weight_.rows());
  MatrixD y = matmul(x, weight_);
  for (std::size_t i = 0; i < y.rows(); ++i) {
    for (std::size_t j = 0; j < y.cols(); ++j) y(i, j) += bias_[j];
  }
  return y;
}

CheckedOp Linear::checked_forward(const MatrixD& x,
                                  const KernelContext& context,
                                  const InputChecksums* cached) const {
  FLASHABFT_ENSURE_MSG(x.cols() == weight_.rows(),
                       "Linear: input width " << x.cols() << " != "
                                              << weight_.rows());
  FusedMatmul fused = backend_linear_fused(x, weight_, bias_, context.backend,
                                           context.dtype, cached);
  CheckedOp op;
  op.check = {fused.predicted, fused.actual};
  op.output = std::move(fused.c);
  return op;
}

void Linear::quantize(DType dtype) {
  dtype_round_span(weight_.flat(), dtype);
  dtype_round_span(bias_, dtype);
}

namespace {

/// Raw-pointer y = x W (+ bias), weight-stationary: for each 256-column
/// block of W, each W row segment is loaded once and applied to every
/// stacked row of x, so a batch streams W once instead of once per row.
/// Every element still accumulates in `matmul`'s order (k ascending, zero x
/// entries skipped, bias added after the full sum), so rows are
/// bit-identical to Linear::forward / scalar_fused, without the
/// per-element bounds checks the hot batched path cannot afford. The
/// AVX-512F compile runs the product through the register tile
/// (tensor/product_tile.hpp); the narrower ones keep the axpy loop, which
/// reads and writes each y segment once per k. Elementwise only: carries
/// the ISA dispatch.
template <WideIsa isa>
[[gnu::always_inline]] inline MatrixD raw_linear_scalar_body(
    const MatrixD& x, const MatrixD& w, std::span<const double> bias) {
  const std::size_t rows = x.rows();
  const std::size_t inner = x.cols();
  const std::size_t out = w.cols();
  MatrixD y(rows, out);
  const double* x_data = x.flat().data();
  const double* w_data = w.flat().data();
  double* y_data = y.flat().data();
  if constexpr (isa == WideIsa::kAvx512f) {
    product_tile::tiled_product</*kSkipZeros=*/true>(x_data, inner, w_data,
                                                     out, y_data, rows);
  } else {
    for (std::size_t j0 = 0; j0 < out; j0 += product_tile::kColumnBlock) {
      const std::size_t width = std::min(product_tile::kColumnBlock, out - j0);
      for (std::size_t k = 0; k < inner; ++k) {
        const double* w_seg = w_data + k * out + j0;
        for (std::size_t i = 0; i < rows; ++i) {
          const double aik = x_data[i * inner + k];
          if (aik == 0.0) continue;
          simd::axpy(y_data + i * out + j0, aik, w_seg, width);
        }
      }
    }
  }
  if (!bias.empty()) {
    for (std::size_t i = 0; i < rows; ++i) {
      double* y_row = y_data + i * out;
      FLASHABFT_PRAGMA(omp simd)
      for (std::size_t j = 0; j < out; ++j) y_row[j] += bias[j];
    }
  }
  return y;
}
FLASHABFT_WIDE_KERNEL(MatrixD, raw_linear_scalar,
                      (const MatrixD& x, const MatrixD& w,
                       std::span<const double> bias),
                      (x, w, bias))

}  // namespace

MatrixD guarded_linear(const Linear& layer, const MatrixD& in, OpKind kind,
                       std::size_t index, const GuardedExecutor& executor,
                       LayerReport& report,
                       const Linear::InputChecksums* cached) {
  const KernelContext context = executor.kernel_context();
  GuardedOp op = executor.run(
      kind, index, layer.forward_cost(in.rows()),
      [&](std::size_t attempt) {
        return layer.checked_forward(in, context,
                                     attempt == 0 ? cached : nullptr);
      },
      [&] { return layer.checked_forward(in, executor.fallback_context()); });
  MatrixD out = std::move(op.output);
  report.add(std::move(op));
  return out;
}

Linear::InputChecksums Linear::input_checksums() const {
  InputChecksums sums;
  sums.row_w = row_sums(weight_);
  for (const double b : bias_) sums.bias_sum += b;
  return sums;
}

double Linear::checksum_staleness(const InputChecksums& cached) const {
  const InputChecksums live = input_checksums();
  double worst = std::abs(live.bias_sum - cached.bias_sum);
  const std::size_t n = std::min(live.row_w.size(), cached.row_w.size());
  for (std::size_t i = 0; i < n; ++i) {
    worst = std::max(worst, std::abs(live.row_w[i] - cached.row_w[i]));
  }
  return worst;
}

std::vector<MatrixD> guarded_linear_batch(
    const Linear& layer, const MatrixD& x_stacked,
    std::span<const std::size_t> group_rows, OpKind kind, std::size_t index,
    std::span<const GuardedExecutor* const> executors,
    std::span<LayerReport* const> reports,
    const Linear::InputChecksums* cached) {
  const std::size_t groups = group_rows.size();
  FLASHABFT_ENSURE_MSG(groups > 0, "empty linear batch");
  FLASHABFT_ENSURE(executors.size() == groups && reports.size() == groups);
  std::size_t total_rows = 0;
  for (const std::size_t rows : group_rows) total_rows += rows;
  FLASHABFT_ENSURE_MSG(total_rows == x_stacked.rows(),
                       "group rows " << total_rows << " != stacked "
                                     << x_stacked.rows());
  const MatrixD& w = layer.weight();
  const std::vector<double>& bias = layer.bias();
  const std::size_t inner = w.rows();
  const std::size_t out_cols = w.cols();
  const KernelContext context = executors.front()->kernel_context();
  const ComputeBackend compute = context.backend;

  // The shared clean-path work: one product over every group's rows, one
  // input-side rowsum(W) / Σb for every group's prediction. The tiled SIMD
  // microkernel only pays off once the stack is deep enough to amortize
  // its packing; decode batches (a handful of single-token rows) run the
  // raw ordered loop on either backend.
  const bool tiled = compute == ComputeBackend::kSimd &&
                     x_stacked.rows() >= 4 * kSimdRowTile;
  MatrixD y = tiled ? [&] {
    MatrixD product = backend_matmul(x_stacked, w, compute);
    if (!bias.empty()) {
      for (std::size_t i = 0; i < product.rows(); ++i) {
        double* row = product.row(i).data();
        for (std::size_t j = 0; j < out_cols; ++j) row[j] += bias[j];
      }
    }
    return product;
  }()
                    : raw_linear_scalar(x_stacked, w, bias);
  // Storage write-back: the stacked product is stored in context.dtype, so
  // every group's actual checksum (accumulated at the row copy below) sums
  // the rounded values — matching checked_forward's per-session residuals.
  dtype_round_span(y.flat(), context.dtype);
  const Linear::InputChecksums local =
      cached != nullptr ? Linear::InputChecksums{} : layer.input_checksums();
  const std::vector<double>& row_w =
      cached != nullptr ? cached->row_w : local.row_w;
  const double bias_sum =
      cached != nullptr ? cached->bias_sum : local.bias_sum;
  FLASHABFT_ENSURE(row_w.size() == inner);

  std::vector<MatrixD> outputs;
  outputs.reserve(groups);
  std::size_t base = 0;
  for (std::size_t g = 0; g < groups; ++g) {
    const std::size_t rows = group_rows[g];
    CheckedOp first;
    first.output = MatrixD(rows, out_cols);
    // The summation orders (element order for actual; k-outer, then rows,
    // for predicted) are part of the pair's bits: the fault campaign's
    // baseline reproduces only while they stay.
    double actual = 0.0;
    const double* y_group = y.flat().data() + base * out_cols;
    double* out = first.output.flat().data();
    for (std::size_t e = 0; e < rows * out_cols; ++e) {
      out[e] = y_group[e];
      actual += y_group[e];
    }
    double predicted = 0.0;
    const double* x_group = x_stacked.flat().data() + base * inner;
    for (std::size_t k = 0; k < inner; ++k) {
      double col = 0.0;
      for (std::size_t r = 0; r < rows; ++r) col += x_group[r * inner + k];
      predicted += col * row_w[k];
    }
    first.check.actual = actual;
    first.check.predicted = predicted + double(rows) * bias_sum;

    // Retries (and the diverse fallback) recompute only this group's rows
    // — the same engine shape as the per-session guarded_linear.
    const auto group_input = [&, base, rows] {
      MatrixD x_g(rows, x_stacked.cols());
      for (std::size_t r = 0; r < rows; ++r) {
        const double* src = x_stacked.row(base + r).data();
        double* dst = x_g.row(r).data();
        for (std::size_t k = 0; k < inner; ++k) dst[k] = src[k];
      }
      return x_g;
    };
    GuardedOp op = executors[g]->run(
        kind, index, layer.forward_cost(rows),
        [&](std::size_t attempt) {
          if (attempt == 0) return std::move(first);
          return layer.checked_forward(group_input(), context);
        },
        [&] {
          return layer.checked_forward(group_input(),
                                       executors[g]->fallback_context());
        });
    outputs.push_back(std::move(op.output));
    reports[g]->add(std::move(op));
    base += rows;
  }
  return outputs;
}

}  // namespace flashabft
