/**
 * @file
 * The vector kernels behind tensor/ops.hpp, one copy per ISA.
 *
 * ops_kernels.cpp is compiled once per vector ISA the build targets
 * (common/simd.hpp), each copy in namespace kernels::<isa> with its own
 * VecF. ops.cpp keeps the public entry points, their checks and the
 * scalar oracles, and calls the copy simd::isa() names (none when it
 * is Scalar). Every kernel covers a leading run of the columns, in
 * multiples of its lane width, and returns how many; the caller
 * finishes the rest with the scalar oracle. Columns are independent
 * outputs, so the split is bitwise exact.
 */
#pragma once

#include <cstdint>

#include "common/simd.hpp"
#include "tensor/panel_matrix.hpp"

namespace mesorasi::tensor::kernels {

struct Table
{
    /** dst[r][0, c) = a[r] * B for r in [0, rows): the SIMD matmul of
     *  ops.hpp's matmulInto contract, over every column but the last
     *  b.cols % width (returned: c). */
    int32_t (*matmul)(float *dst, int64_t dstStride, const float *a,
                      int64_t aStride, int32_t rows, const MatrixView &b);

    /** dst[c] = std::max(dst[c], src[c]). */
    int32_t (*maxIntoRow)(float *dst, const float *src, int32_t cols);

    /** row[c] = max(0, row[c] + bias[c]), either part optional. */
    int64_t (*biasRelu)(float *row, int64_t cols, const float *bias,
                        bool applyRelu);

    /** row[c] = row[c] * scale[c] + shift[c] (the batchnorm fold). */
    int32_t (*scaleShift)(float *row, const float *scale,
                          const float *shift, int32_t cols);

    /** row[c] -= sub[c]. */
    int32_t (*subtractRow)(float *row, const float *sub, int32_t cols);

    /** dst[c] = clamp(nearbyint(src[c] * invScale), -lim, lim). */
    int32_t (*quantizeRowI8)(int8_t *dst, const float *src, int32_t cols,
                             float invScale, float lim);

    /** dst[c] = max_i src[rows[i]][c] * scale over int8 rows. */
    int32_t (*gatherMaxI8)(float *dst, const int8_t *src, int64_t stride,
                           int32_t cols, const int32_t *rows,
                           int32_t count, float scale);

    /** The packed-int4 twin; covers (and returns) byte columns, each
     *  holding output columns 2b and 2b + 1. */
    int32_t (*gatherMaxI4)(float *dst, const uint8_t *src,
                           int64_t strideBytes, int32_t cols,
                           const int32_t *rows, int32_t count,
                           float scale);
};

#if MESORASI_SIMD_SSE2
namespace sse2 {
extern const Table kTable;
}
#endif
#if MESORASI_SIMD_AVX2
namespace avx2 {
extern const Table kTable;
}
#endif
#if MESORASI_SIMD_NEON
namespace neon {
extern const Table kTable;
}
#endif

} // namespace mesorasi::tensor::kernels
