// Reference linear algebra on Matrix<double>.
//
// These are the golden-path operations: plain double-precision matmul,
// transpose, row softmax and comparison metrics used to validate the
// attention kernels and the checksum algebra. They favor clarity over
// speed — performance lives in the kernels, not here.
#pragma once

#include <span>

#include "tensor/matrix.hpp"
#include "tensor/random.hpp"

namespace flashabft {

/// C = A * B. Requires A.cols() == B.rows().
[[nodiscard]] MatrixD matmul(const MatrixD& a, const MatrixD& b);

/// C = A * B^T. Requires A.cols() == B.cols(). (QK^T shape.)
[[nodiscard]] MatrixD matmul_transposed(const MatrixD& a, const MatrixD& b);

[[nodiscard]] MatrixD transpose(const MatrixD& a);

/// Numerically-stable row-wise softmax (max subtraction, as paper Alg. 1).
[[nodiscard]] MatrixD row_softmax(const MatrixD& scores);

/// C = A + B element-wise. Requires matching shapes. (Residual adds.)
[[nodiscard]] MatrixD element_add(const MatrixD& a, const MatrixD& b);

/// Sum of every element (sequential order).
[[nodiscard]] double element_sum(const MatrixD& a);

/// Per-column sums — the "sumcol" checksum vector of classic ABFT (Eq. 3).
[[nodiscard]] std::vector<double> column_sums(const MatrixD& a);

/// Per-row sums — the "sumrow" checksum vector of classic ABFT (Eq. 4).
[[nodiscard]] std::vector<double> row_sums(const MatrixD& a);

/// row_sums over `rows` rows of `cols` doubles starting `stride` apart at
/// `data`, written to `out[0, rows)`: each row summed in column order.
void row_sums(const double* data, std::size_t rows, std::size_t cols,
              std::size_t stride, double* out);

/// Largest absolute element-wise difference.
[[nodiscard]] double max_abs_diff(const MatrixD& a, const MatrixD& b);

/// Largest absolute element.
[[nodiscard]] double max_abs(const MatrixD& a);

/// Fills with iid N(mean, stddev^2) draws.
void fill_gaussian(MatrixD& m, Rng& rng, double mean = 0.0,
                   double stddev = 1.0);

/// Fills with iid U[lo, hi) draws.
void fill_uniform(MatrixD& m, Rng& rng, double lo, double hi);

/// Rounds every element through bf16 storage — models matrices living in the
/// accelerator's local bf16 memories before being streamed in.
[[nodiscard]] MatrixD quantize_bf16(const MatrixD& m);

}  // namespace flashabft
