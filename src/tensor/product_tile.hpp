// The register-blocked product tile of the AVX-512F kernel compiles
// (DESIGN.md §7): y[r, :] += x[r, :] · W over raw row-major panels.
//
// Shared by the two dense product kernels — `product_row_block` (the tiled
// fused matmul, tensor/backend.cpp) and `raw_linear_scalar` (the stacked
// decode linear, model/linear.cpp) — and instantiated only inside their
// target("avx512f") compiles, where its 8-double vectors are zmm registers.
//
// Bit-identity: every y element is one lane of one accumulator. It is
// loaded from y, takes one IEEE mul x(r, k)·W(k, j) and one add per k in
// ascending k, and is stored back — the same sequence as the axpy loop of
// the narrower compiles (the build pins -ffp-contract=off, so no FMA).
// Blocking changes which elements are in registers together, never the
// operations one element sees.
#pragma once

#include <algorithm>
#include <cstddef>

#include "tensor/backend.hpp"

namespace flashabft::product_tile {

/// Columns of W per weight-stationary sweep: the block of every y row in
/// flight (at most 15 rows x 2 KiB on the decode path) stays in L1 while
/// W's row segments stream past it.
inline constexpr std::size_t kColumnBlock = 256;

/// k rows of W applied per register-tile visit. Short on purpose: a tile
/// that ran the whole k range would walk W down one 32-column strip with a
/// stride of a full W row (2-8 KiB at the model's widths), which streams W
/// from L3 worse than this row-major order — at batch 1 that tile was
/// slower than the axpy loop it replaced.
inline constexpr std::size_t kDepthChunk = 8;

/// y rows held in registers per tile.
inline constexpr std::size_t kTileRows = 4;

/// zmm accumulators per y row: 32 columns.
inline constexpr std::size_t kTileVecs = 4;
inline constexpr std::size_t kLanes = 8;
inline constexpr std::size_t kTileCols = kTileVecs * kLanes;

typedef double Vec8 __attribute__((vector_size(kLanes * sizeof(double))));

/// y[r, 0:kTileCols) += x[r, k] · w[k, 0:kTileCols) for r < kRows and
/// ascending k < depth. The kRows x kTileVecs accumulators (16 zmm at
/// kRows = 4, plus 4 for the W row) are loaded from y once, take every k
/// of the chunk in registers and are stored once, so y is read and written
/// once per chunk instead of once per multiply-add.
template <std::size_t kRows, bool kSkipZeros>
[[gnu::always_inline]] inline void register_tile(
    const double* x, std::size_t x_stride, const double* w,
    std::size_t w_stride, double* y, std::size_t y_stride,
    std::size_t depth) {
  Vec8 acc[kRows][kTileVecs];
  FLASHABFT_PRAGMA(GCC unroll 4)
  for (std::size_t r = 0; r < kRows; ++r) {
    FLASHABFT_PRAGMA(GCC unroll 4)
    for (std::size_t v = 0; v < kTileVecs; ++v) {
      __builtin_memcpy(&acc[r][v], y + r * y_stride + v * kLanes,
                       sizeof(Vec8));
    }
  }
  for (std::size_t k = 0; k < depth; ++k) {
    Vec8 w_k[kTileVecs];
    FLASHABFT_PRAGMA(GCC unroll 4)
    for (std::size_t v = 0; v < kTileVecs; ++v) {
      __builtin_memcpy(&w_k[v], w + k * w_stride + v * kLanes, sizeof(Vec8));
    }
    FLASHABFT_PRAGMA(GCC unroll 4)
    for (std::size_t r = 0; r < kRows; ++r) {
      const double x_rk = x[r * x_stride + k];
      if (kSkipZeros && x_rk == 0.0) continue;
      FLASHABFT_PRAGMA(GCC unroll 4)
      for (std::size_t v = 0; v < kTileVecs; ++v) acc[r][v] += x_rk * w_k[v];
    }
  }
  FLASHABFT_PRAGMA(GCC unroll 4)
  for (std::size_t r = 0; r < kRows; ++r) {
    FLASHABFT_PRAGMA(GCC unroll 4)
    for (std::size_t v = 0; v < kTileVecs; ++v) {
      __builtin_memcpy(y + r * y_stride + v * kLanes, &acc[r][v],
                       sizeof(Vec8));
    }
  }
}

/// One k chunk of kRows y rows over `width` columns: register tiles across
/// the columns they cover, then the axpy loop on the < kTileCols tail.
template <std::size_t kRows, bool kSkipZeros>
[[gnu::always_inline]] inline void tile_rows(
    const double* x, std::size_t x_stride, const double* w,
    std::size_t w_stride, double* y, std::size_t y_stride, std::size_t width,
    std::size_t depth) {
  std::size_t j = 0;
  for (; j + kTileCols <= width; j += kTileCols) {
    register_tile<kRows, kSkipZeros>(x, x_stride, w + j, w_stride, y + j,
                                     y_stride, depth);
  }
  if (j == width) return;
  for (std::size_t k = 0; k < depth; ++k) {
    for (std::size_t r = 0; r < kRows; ++r) {
      const double x_rk = x[r * x_stride + k];
      if (kSkipZeros && x_rk == 0.0) continue;
      simd::axpy(y + r * y_stride + j, x_rk, w + k * w_stride + j, width - j);
    }
  }
}

/// y[0:rows) += x[0:rows) · W for row-major x (rows x inner), W (inner x
/// out) and y (rows x out): 256-column blocks of W, k in chunks of
/// kDepthChunk, and per chunk every group of kTileRows y rows through the
/// register tile. W's chunk (8 rows x 2 KiB) stays in L1 across the row
/// groups, so a batch streams W once. With kSkipZeros, x entries equal to
/// zero contribute nothing (tensor_ops `matmul`'s rule).
template <bool kSkipZeros>
[[gnu::always_inline]] inline void tiled_product(const double* x,
                                                 std::size_t inner,
                                                 const double* w,
                                                 std::size_t out, double* y,
                                                 std::size_t rows) {
  for (std::size_t j0 = 0; j0 < out; j0 += kColumnBlock) {
    const std::size_t width = std::min(kColumnBlock, out - j0);
    for (std::size_t k0 = 0; k0 < inner; k0 += kDepthChunk) {
      const std::size_t depth = std::min(kDepthChunk, inner - k0);
      for (std::size_t r0 = 0; r0 < rows; r0 += kTileRows) {
        const double* x_rk = x + r0 * inner + k0;
        const double* w_kj = w + k0 * out + j0;
        double* y_rj = y + r0 * out + j0;
        switch (std::min(kTileRows, rows - r0)) {
          case 1:
            tile_rows<1, kSkipZeros>(x_rk, inner, w_kj, out, y_rj, out,
                                     width, depth);
            break;
          case 2:
            tile_rows<2, kSkipZeros>(x_rk, inner, w_kj, out, y_rj, out,
                                     width, depth);
            break;
          case 3:
            tile_rows<3, kSkipZeros>(x_rk, inner, w_kj, out, y_rj, out,
                                     width, depth);
            break;
          default:
            tile_rows<4, kSkipZeros>(x_rk, inner, w_kj, out, y_rj, out,
                                     width, depth);
            break;
        }
      }
    }
  }
}

}  // namespace flashabft::product_tile
