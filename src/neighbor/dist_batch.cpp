#include "neighbor/dist_batch.hpp"

#include "common/simd.hpp"
#include "common/workspace.hpp"
#include "neighbor/dist_batch_kernels.hpp"

namespace mesorasi::neighbor {

namespace {

/** The vector copy simd::isa() names, or null for the scalar path.
 *  Entry points read it once per call. */
const kernels::Table *
vectorKernels()
{
    switch (simd::isa()) {
#if MESORASI_SIMD_SSE2
    case simd::Isa::Sse2:
        return &kernels::sse2::kTable;
#endif
#if MESORASI_SIMD_AVX2
    case simd::Isa::Avx2:
        return &kernels::avx2::kTable;
#endif
#if MESORASI_SIMD_NEON
    case simd::Isa::Neon:
        return &kernels::neon::kTable;
#endif
    default:
        return nullptr;
    }
}

/** Gather rows into the per-thread SoA scratch, then run @p k's 3-D
 *  kernel; @p rowOf lets the same fill serve index lists (rowOf =
 *  idx[i]) and ranges. The candidates the kernel leaves run the scalar
 *  sequence (dx*dx) + dy*dy + dz*dz. */
template <class RowOf>
void
dist2Batch3(const kernels::Table &k, const PointsView &points, int32_t n,
            RowOf rowOf, const float *query, float *out)
{
    Workspace &ws = Workspace::local();
    Workspace::ScopedClaim claim(ws, Workspace::kDistSoA);
    float *scratch =
        ws.floats(Workspace::kDistSoA, static_cast<size_t>(n) * 3);
    float *xs = scratch;
    float *ys = scratch + n;
    float *zs = scratch + 2 * static_cast<size_t>(n);
    for (int32_t i = 0; i < n; ++i) {
        const float *p = points.row(rowOf(i));
        xs[i] = p[0];
        ys[i] = p[1];
        zs[i] = p[2];
    }
    for (int32_t i = k.dist2Soa3(xs, ys, zs, n, query, out); i < n; ++i) {
        float dx = xs[i] - query[0];
        float dy = ys[i] - query[1];
        float dz = zs[i] - query[2];
        float acc = dx * dx;
        acc += dy * dy;
        acc += dz * dz;
        out[i] = acc;
    }
}

/** One full query block: transpose its queries into @p qT (dim x
 *  kQueryBlock), so a load at qT + d * kQueryBlock yields coordinate d
 *  of a register of queries, run @p k's block kernel, and finish the
 *  candidates it leaves (n mod 4) with dist2To. */
void
dist2QueryBlock(const kernels::Table &k, const PointsView &points,
                const int32_t *rows, float *qT, float *out)
{
    constexpr int32_t B = kQueryBlock;
    const int32_t n = points.size();
    const int32_t dim = points.dim();
    const float *q[B];
    for (int32_t j = 0; j < B; ++j) {
        q[j] = points.row(rows[j]);
        for (int32_t d = 0; d < dim; ++d)
            qT[static_cast<size_t>(d) * B + j] = q[j][d];
    }
    for (int32_t i = k.dist2QueryBlock(points.row(0), points.ld(), n, dim,
                                       qT, out);
         i < n; ++i)
        for (int32_t j = 0; j < B; ++j)
            out[static_cast<size_t>(j) * n + i] = points.dist2To(i, q[j]);
}

} // namespace

void
dist2Batch(const PointsView &points, const int32_t *idx, int32_t n,
           const float *query, float *out)
{
    const kernels::Table *k = vectorKernels();
    if (k && points.dim() == 3 && n >= k->width) {
        dist2Batch3(*k, points, n, [&](int32_t i) { return idx[i]; },
                    query, out);
        return;
    }
    for (int32_t i = 0; i < n; ++i)
        out[i] = points.dist2To(idx[i], query);
}

void
dist2Range(const PointsView &points, int32_t begin, int32_t n,
           const float *query, float *out)
{
    const kernels::Table *k = vectorKernels();
    if (k && points.dim() == 3 && n >= k->width) {
        dist2Batch3(*k, points, n, [&](int32_t i) { return begin + i; },
                    query, out);
        return;
    }
    for (int32_t i = 0; i < n; ++i)
        out[i] = points.dist2To(begin + i, query);
}

void
dist2Block(const PointsView &points, const int32_t *rows, int32_t nq,
           float *out)
{
    const int32_t n = points.size();
    const kernels::Table *k = vectorKernels();
    const int32_t full = k ? nq - nq % kQueryBlock : 0;
    if (full > 0) {
        Workspace &ws = Workspace::local();
        Workspace::ScopedClaim claim(ws, Workspace::kDistSoA);
        float *qT = ws.floats(Workspace::kDistSoA,
                              static_cast<size_t>(points.dim()) *
                                  kQueryBlock);
        for (int32_t b = 0; b < full; b += kQueryBlock)
            dist2QueryBlock(*k, points, rows + b, qT,
                            out + static_cast<size_t>(b) * n);
    }
    // The 3-D dist2Range claims kDistSoA itself, so the claim above
    // must be released before the per-query pass.
    for (int32_t j = full; j < nq; ++j)
        dist2Range(points, 0, n, points.row(rows[j]),
                   out + static_cast<size_t>(j) * n);
}

} // namespace mesorasi::neighbor
