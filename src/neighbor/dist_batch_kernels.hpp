/**
 * @file
 * The vector kernels behind neighbor/dist_batch.hpp, one copy per ISA.
 *
 * dist_batch_kernels.cpp is compiled once per vector ISA the build
 * targets (common/simd.hpp), each copy in namespace kernels::<isa> with
 * its own VecF; dist_batch.cpp gathers and transposes the operands,
 * calls the copy simd::isa() names (none when it is Scalar) and
 * finishes the candidates a copy leaves with PointsView::dist2To. Every
 * distance is an independent output, so the split is bitwise exact.
 */
#pragma once

#include <cstdint>

#include "common/simd.hpp"

namespace mesorasi::neighbor::kernels {

struct Table
{
    /** f32 lanes of this copy. */
    int32_t width;

    /** out[i] = (xs[i] - q[0])^2 + (ys[i] - q[1])^2 + (zs[i] - q[2])^2
     *  over the SoA-gathered 3-D candidates, in dist2To's order, for
     *  the leading i (returned: how many). */
    int32_t (*dist2Soa3)(const float *xs, const float *ys,
                         const float *zs, int32_t n, const float *query,
                         float *out);

    /** The kQueryBlock x n block out[j * n + i] = ||p_i - q_j||^2 from
     *  the block's queries, stored transposed in @p qT (dim x
     *  kQueryBlock), to the candidate rows p_i = points + i * ld, for
     *  the leading candidates (returned: a multiple of 4). */
    int32_t (*dist2QueryBlock)(const float *points, int64_t ld, int32_t n,
                               int32_t dim, const float *qT, float *out);
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

} // namespace mesorasi::neighbor::kernels
