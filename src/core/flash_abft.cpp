#include "core/flash_abft.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

#include "tensor/tensor_ops.hpp"

namespace flashabft {

double CheckedAttention::residual() const {
  return std::fabs(predicted_checksum - actual_checksum);
}

namespace {

/// The output pass of a chunk on the SIMD backend: for each row r in order,
/// o = o * corrections[r] + weights[r] * v_r, an axpy when the correction
/// is 1. A block of o stays in registers (eight zmm vectors on AVX-512F,
/// four vectors on the narrower compiles, whose 16 registers would spill
/// more) while the rows stream past, then the axpy loops take the columns
/// left over. Elementwise, so every FLASHABFT_WIDE_KERNEL compile
/// gives each o element simd::axpy's or simd::scale_accumulate's IEEE
/// operations in the same row order.
template <WideIsa isa>
[[gnu::always_inline]] inline void accumulate_rows_body(
    double* o, const double* v, std::size_t stride, const double* corrections,
    const double* weights, std::size_t rows, std::size_t d) {
  constexpr std::size_t kLanes = isa == WideIsa::kAvx512f ? 8
                                 : isa == WideIsa::kAvx2  ? 4
                                                          : 2;
  constexpr std::size_t kVecs = isa == WideIsa::kAvx512f ? 8 : 4;
  constexpr std::size_t kBlock = kVecs * kLanes;
  typedef double Vec __attribute__((vector_size(kLanes * sizeof(double))));

  std::size_t x0 = 0;
  for (; x0 + kBlock <= d; x0 += kBlock) {
    Vec acc[kVecs];
    for (std::size_t j = 0; j < kVecs; ++j) {
      __builtin_memcpy(&acc[j], o + x0 + j * kLanes, sizeof(Vec));
    }
    for (std::size_t r = 0; r < rows; ++r) {
      const double* vp = v + r * stride + x0;
      const double correction = corrections[r];
      const double weight = weights[r];
      for (std::size_t j = 0; j < kVecs; ++j) {
        Vec row;
        __builtin_memcpy(&row, vp + j * kLanes, sizeof(Vec));
        acc[j] = correction == 1.0 ? acc[j] + weight * row
                                   : acc[j] * correction + weight * row;
      }
    }
    for (std::size_t j = 0; j < kVecs; ++j) {
      __builtin_memcpy(o + x0 + j * kLanes, &acc[j], sizeof(Vec));
    }
  }
  if (x0 == d) return;
  for (std::size_t r = 0; r < rows; ++r) {
    const double* vp = v + r * stride + x0;
    if (corrections[r] == 1.0) {
      simd::axpy(o + x0, weights[r], vp, d - x0);
    } else {
      simd::scale_accumulate(o + x0, corrections[r], weights[r], vp, d - x0);
    }
  }
}
FLASHABFT_WIDE_KERNEL(void, accumulate_rows,
                      (double* o, const double* v, std::size_t stride,
                       const double* corrections, const double* weights,
                       std::size_t rows, std::size_t d),
                      (o, v, stride, corrections, weights, rows, d))

/// Alg. 3, one query lane at a time, over the chunked K/V. kVectorized picks
/// the backend once per call. kScalar walks each attended row once: plain
/// loops for the score, the recurrence step, then the output update.
/// kSimd makes two passes per chunk: simd::dot4 scores and the recurrence
/// steps, which keep each row's correction and weight; then the output
/// update with them (accumulate_rows). Each variable sees the same
/// operations in the same order either way, so the split is invisible in
/// the bits. kSimd also bypasses exp(0) and finalizes by the reciprocal.
template <bool kVectorized>
void attend(const MatrixD& q, std::span<const KvChunk> chunks,
            std::size_t stride, std::size_t offset,
            const std::vector<double>& row_v, const AttentionConfig& cfg,
            const FlashAbftOptions& options, CheckedAttention& result) {
  const std::size_t n_q = q.rows();
  const std::size_t d = q.cols();
  const double scale = cfg.scale;
  const ExpMode exp_mode = options.exp_mode;
  const bool replicate_ell = options.replicate_ell;
  // When the running max does not move, the correction argument is exactly
  // 0, so the (scalar, expensive) exp unit is bypassed with its precomputed
  // value — the dominant case once the max has settled.
  const double exp_zero = eval_exp(0.0, exp_mode);

  std::size_t max_rows = 0;
  for (const KvChunk& chunk : chunks) max_rows = std::max(max_rows, chunk.rows);
  std::vector<double> scores(kVectorized ? max_rows : 0);
  std::vector<double> corrections(kVectorized ? max_rows : 0);
  std::vector<double> weights(kVectorized ? max_rows : 0);
  std::vector<double> o(d);
  for (std::size_t qi = 0; qi < n_q; ++qi) {
    const double* q_row = q.row(qi).data();
    double m = -std::numeric_limits<double>::infinity();
    double ell = 0.0;
    double c = 0.0;      // Alg. 3 line 7 accumulator.
    double ell_c = 0.0;  // checker's own sum-of-exponents (optional).
    std::fill(o.begin(), o.end(), 0.0);

    // One recurrence step for the key at position i with score q·k = dot:
    // updates m, ℓ and c (and ℓ_c) and sets the correction and weight the
    // output update applies.
    const auto step = [&](double dot, std::size_t i, double& correction,
                          double& weight) {
      const double s = dot * scale;
      const double m_new = std::max(m, s);
      if (std::isinf(m)) {
        correction = 0.0;
      } else if (kVectorized && m - m_new == 0.0) {
        correction = exp_zero;
      } else {
        correction = eval_exp(m - m_new, exp_mode);
      }
      weight = eval_exp(s - m_new, exp_mode);
      ell = ell * correction + weight;
      // Line 7: the checksum lane — same recurrence, value row sum in place
      // of the value vector (Eq. 9).
      c = c * correction + weight * row_v[i];
      if (replicate_ell) ell_c = ell_c * correction + weight;
      m = m_new;
    };

    std::size_t first = 0;  // key position of the chunk's first row.
    for (const KvChunk& chunk : chunks) {
      // Under either mask the attended keys are a prefix of the walk: the
      // chunk's first `rows`, and none after a chunk the mask cuts short.
      std::size_t rows = 0;
      while (rows < chunk.rows && mask_allows(cfg.mask, qi, first + rows)) {
        ++rows;
      }
      const double* k = chunk.k + offset;
      const double* v = chunk.v + offset;

      if constexpr (kVectorized) {
        std::size_t r = 0;
        for (; r + 4 <= rows; r += 4) {
          const double* kp = k + r * stride;
          simd::dot4(q_row, kp, kp + stride, kp + 2 * stride,
                     kp + 3 * stride, d, &scores[r]);
        }
        for (; r < rows; ++r) scores[r] = simd::dot(q_row, k + r * stride, d);
        for (r = 0; r < rows; ++r) {
          step(scores[r], first + r, corrections[r], weights[r]);
        }
        accumulate_rows(o.data(), v, stride, corrections.data(),
                        weights.data(), rows, d);
      } else {
        for (std::size_t r = 0; r < rows; ++r) {
          const double* kp = k + r * stride;
          const double* vp = v + r * stride;
          double dot = 0.0;
          for (std::size_t x = 0; x < d; ++x) dot += q_row[x] * kp[x];
          double correction, weight;
          step(dot, first + r, correction, weight);
          for (std::size_t x = 0; x < d; ++x) {
            o[x] = o[x] * correction + weight * vp[x];
          }
        }
      }
      first += chunk.rows;
      if (rows < chunk.rows) break;
    }

    // Lines 9-10: delayed divisions, then storage write-back: the served
    // row is the rounded one and the actual lane sums what was stored (kF32
    // keeps the fused finalize reduction).
    double* out = result.output.row(qi).data();
    double row_actual = 0.0;
    if constexpr (kVectorized) {
      row_actual = simd::scale_to(out, o.data(), 1.0 / ell, d);
    } else {
      for (std::size_t x = 0; x < d; ++x) {
        out[x] = o[x] / ell;
        row_actual += out[x];
      }
    }
    if (options.context.dtype != DType::kF32) {
      dtype_round_span(result.output.row(qi), options.context.dtype);
      if constexpr (kVectorized) {
        row_actual = simd::sum(out, d);
      } else {
        row_actual = 0.0;
        for (std::size_t x = 0; x < d; ++x) row_actual += out[x];
      }
    }
    const double divisor = replicate_ell ? ell_c : ell;
    result.per_query_predicted[qi] = c / divisor;
    result.per_query_actual[qi] = row_actual;
    result.stats.row_max[qi] = m;
    result.stats.row_sum_exp[qi] = ell;

    // Line 11: global accumulation across queries.
    result.predicted_checksum += result.per_query_predicted[qi];
    result.actual_checksum += row_actual;
  }
}

}  // namespace

CheckedAttention flash_abft_chunks(const MatrixD& q,
                                   std::span<const KvChunk> chunks,
                                   std::size_t stride, std::size_t offset,
                                   const AttentionConfig& cfg,
                                   const FlashAbftOptions& options) {
  const std::size_t n_q = q.rows();
  const std::size_t d = q.cols();
  FLASHABFT_ENSURE_MSG(offset + d <= stride || chunks.empty(),
                       "head columns [" << offset << ", " << offset + d
                                        << ") outside rows " << stride
                                        << " wide");

  CheckedAttention result;
  result.output = MatrixD(n_q, d);
  result.per_query_predicted.assign(n_q, 0.0);
  result.per_query_actual.assign(n_q, 0.0);
  result.stats.row_max.assign(n_q, 0.0);
  result.stats.row_sum_exp.assign(n_q, 0.0);

  // Fig. 3's Σ block: the per-row checksum of V, computed once as the value
  // vectors stream in and shared by all query lanes.
  std::size_t n_k = 0;
  for (const KvChunk& chunk : chunks) n_k += chunk.rows;
  std::vector<double> row_v(n_k);
  std::size_t first = 0;
  for (const KvChunk& chunk : chunks) {
    row_sums(chunk.v + offset, chunk.rows, d, stride, row_v.data() + first);
    first += chunk.rows;
  }

  if (options.context.backend == ComputeBackend::kSimd) {
    attend<true>(q, chunks, stride, offset, row_v, cfg, options, result);
  } else {
    attend<false>(q, chunks, stride, offset, row_v, cfg, options, result);
  }
  return result;
}

CheckedAttention flash_abft_attention(const MatrixD& q, const MatrixD& k,
                                      const MatrixD& v,
                                      const AttentionConfig& cfg,
                                      const FlashAbftOptions& options) {
  FLASHABFT_ENSURE(q.cols() == k.cols() && q.cols() == v.cols());
  FLASHABFT_ENSURE(k.rows() == v.rows());
  const KvChunk whole{k.flat().data(), v.flat().data(), k.rows()};
  return flash_abft_chunks(q, {&whole, 1}, q.cols(), 0, cfg, options);
}

CheckVerdict flash_abft_verify(const MatrixD& q, const MatrixD& k,
                               const MatrixD& v, const AttentionConfig& cfg,
                               const Checker& checker,
                               const FlashAbftOptions& options) {
  const CheckedAttention run = flash_abft_attention(q, k, v, cfg, options);
  return checker.compare(run.predicted_checksum, run.actual_checksum);
}

}  // namespace flashabft
