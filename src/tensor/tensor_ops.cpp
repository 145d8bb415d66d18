#include "tensor/tensor_ops.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "numerics/bfloat16.hpp"

namespace flashabft {

MatrixD matmul(const MatrixD& a, const MatrixD& b) {
  FLASHABFT_ENSURE_MSG(a.cols() == b.rows(), "matmul " << a.rows() << 'x'
                                                       << a.cols() << " * "
                                                       << b.rows() << 'x'
                                                       << b.cols());
  MatrixD c(a.rows(), b.cols());
  for (std::size_t i = 0; i < a.rows(); ++i) {
    for (std::size_t k = 0; k < a.cols(); ++k) {
      const double aik = a(i, k);
      if (aik == 0.0) continue;
      for (std::size_t j = 0; j < b.cols(); ++j) {
        c(i, j) += aik * b(k, j);
      }
    }
  }
  return c;
}

MatrixD matmul_transposed(const MatrixD& a, const MatrixD& b) {
  FLASHABFT_ENSURE_MSG(a.cols() == b.cols(), "matmul_transposed inner dims "
                                                 << a.cols() << " vs "
                                                 << b.cols());
  MatrixD c(a.rows(), b.rows());
  for (std::size_t i = 0; i < a.rows(); ++i) {
    for (std::size_t j = 0; j < b.rows(); ++j) {
      double acc = 0.0;
      for (std::size_t k = 0; k < a.cols(); ++k) acc += a(i, k) * b(j, k);
      c(i, j) = acc;
    }
  }
  return c;
}

MatrixD transpose(const MatrixD& a) {
  MatrixD t(a.cols(), a.rows());
  for (std::size_t i = 0; i < a.rows(); ++i) {
    for (std::size_t j = 0; j < a.cols(); ++j) t(j, i) = a(i, j);
  }
  return t;
}

MatrixD row_softmax(const MatrixD& scores) {
  MatrixD out(scores.rows(), scores.cols());
  for (std::size_t i = 0; i < scores.rows(); ++i) {
    const auto row = scores.row(i);
    const double m = *std::max_element(row.begin(), row.end());
    double denom = 0.0;
    for (std::size_t j = 0; j < scores.cols(); ++j) {
      const double e = std::exp(scores(i, j) - m);
      out(i, j) = e;
      denom += e;
    }
    for (std::size_t j = 0; j < scores.cols(); ++j) out(i, j) /= denom;
  }
  return out;
}

MatrixD element_add(const MatrixD& a, const MatrixD& b) {
  FLASHABFT_ENSURE(a.rows() == b.rows() && a.cols() == b.cols());
  MatrixD out(a.rows(), a.cols());
  for (std::size_t i = 0; i < a.rows(); ++i) {
    for (std::size_t j = 0; j < a.cols(); ++j) {
      out(i, j) = a(i, j) + b(i, j);
    }
  }
  return out;
}

double element_sum(const MatrixD& a) {
  double acc = 0.0;
  for (const double v : a.flat()) acc += v;
  return acc;
}

// Both walk raw row pointers (the bounds-checked operator() made them 4-9x
// slower on the large tables they sum: the tied LM head's colsum(E), the
// weight scrub's rowsum(W)). Each output still accumulates its terms in
// the same order, so the sums are bit-identical to the element-wise loop.
std::vector<double> column_sums(const MatrixD& a) {
  const std::size_t cols = a.cols();
  std::vector<double> sums(cols, 0.0);
  const double* data = a.flat().data();
  for (std::size_t i = 0; i < a.rows(); ++i) {
    const double* row = data + i * cols;
    for (std::size_t j = 0; j < cols; ++j) sums[j] += row[j];
  }
  return sums;
}

std::vector<double> row_sums(const MatrixD& a) {
  std::vector<double> sums(a.rows(), 0.0);
  row_sums(a.flat().data(), a.rows(), a.cols(), a.cols(), sums.data());
  return sums;
}

void row_sums(const double* data, std::size_t rows, std::size_t cols,
              std::size_t stride, double* out) {
  // Four rows per sweep: their independent accumulator chains overlap
  // instead of each row waiting out the add latency alone.
  std::size_t i = 0;
  for (; i + 4 <= rows; i += 4) {
    const double* r0 = data + i * stride;
    const double* r1 = r0 + stride;
    const double* r2 = r1 + stride;
    const double* r3 = r2 + stride;
    double a0 = 0.0, a1 = 0.0, a2 = 0.0, a3 = 0.0;
    for (std::size_t j = 0; j < cols; ++j) {
      a0 += r0[j];
      a1 += r1[j];
      a2 += r2[j];
      a3 += r3[j];
    }
    out[i] = a0;
    out[i + 1] = a1;
    out[i + 2] = a2;
    out[i + 3] = a3;
  }
  for (; i < rows; ++i) {
    const double* row = data + i * stride;
    double acc = 0.0;
    for (std::size_t j = 0; j < cols; ++j) acc += row[j];
    out[i] = acc;
  }
}

double max_abs_diff(const MatrixD& a, const MatrixD& b) {
  FLASHABFT_ENSURE(a.rows() == b.rows() && a.cols() == b.cols());
  double worst = 0.0;
  const auto fa = a.flat();
  const auto fb = b.flat();
  for (std::size_t i = 0; i < fa.size(); ++i) {
    // NaN-aware: a NaN difference is "maximally different", not ignored.
    const double d = std::fabs(fa[i] - fb[i]);
    if (std::isnan(d)) return std::numeric_limits<double>::infinity();
    worst = std::max(worst, d);
  }
  return worst;
}

double max_abs(const MatrixD& a) {
  double worst = 0.0;
  for (const double v : a.flat()) {
    const double d = std::fabs(v);
    if (std::isnan(d)) return std::numeric_limits<double>::infinity();
    worst = std::max(worst, d);
  }
  return worst;
}

void fill_gaussian(MatrixD& m, Rng& rng, double mean, double stddev) {
  for (double& v : m.flat()) v = mean + stddev * rng.next_gaussian();
}

void fill_uniform(MatrixD& m, Rng& rng, double lo, double hi) {
  for (double& v : m.flat()) v = lo + (hi - lo) * rng.next_double();
}

MatrixD quantize_bf16(const MatrixD& m) {
  MatrixD q(m.rows(), m.cols());
  const auto src = m.flat();
  const auto dst = q.flat();
  for (std::size_t i = 0; i < src.size(); ++i) {
    dst[i] = double(bf16::round(float(src[i])));
  }
  return q;
}

}  // namespace flashabft
