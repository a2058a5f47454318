// One copy of the neighbor dist2 vector kernels, compiled once per ISA
// (see dist_batch_kernels.hpp). Only register code lives here: the
// gathers, tails and the per-query fallbacks stay in dist_batch.cpp.
#include "neighbor/dist_batch_kernels.hpp"

#include "common/simd_vec.hpp"
#include "neighbor/dist_batch.hpp"

#if defined(MESORASI_ISA)

namespace mesorasi::neighbor::kernels::MESORASI_ISA {

namespace {

using namespace simd::MESORASI_ISA;

constexpr int32_t W = kWidth;
constexpr int32_t B = kQueryBlock;

// The query block is whole pairs of this copy's registers: one pair on
// AVX2, two on SSE2 and NEON under a 16-query block.
static_assert(B % (2 * W) == 0, "query block per lane width");

/** Each lane runs the scalar accumulation sequence (dx*dx) + dy*dy +
 *  dz*dz for one candidate (dist2To's 0 + dx*dx, a bitwise no-op since
 *  a square is never -0). */
int32_t
dist2Soa3(const float *xs, const float *ys, const float *zs, int32_t n,
          const float *query, float *out)
{
    const VecF qx = VecF::broadcast(query[0]);
    const VecF qy = VecF::broadcast(query[1]);
    const VecF qz = VecF::broadcast(query[2]);
    int32_t i = 0;
    for (; i + W <= n; i += W) {
        VecF dx = sub(VecF::load(xs + i), qx);
        VecF dy = sub(VecF::load(ys + i), qy);
        VecF dz = sub(VecF::load(zs + i), qz);
        VecF acc = mul(dx, dx);
        acc = add(acc, mul(dy, dy));
        acc = add(acc, mul(dz, dz));
        acc.store(out + i);
    }
    return i;
}

/** acc_v += (p - q_v)^2 for the two query registers: one candidate
 *  coordinate against both registers of a query pair. */
inline void
accumulate2(VecF p, VecF q0, VecF q1, VecF &acc0, VecF &acc1)
{
    VecF t0 = sub(p, q0);
    VecF t1 = sub(p, q1);
    acc0 = add(acc0, mul(t0, t0));
    acc1 = add(acc1, mul(t1, t1));
}

/** One register pair of queries (lanes h .. h + 2W of the block) against
 *  the leading candidates, four at a time with each coordinate
 *  broadcast: 8 independent accumulators, each running dist2To's
 *  sequence (acc = 0, acc += diff * diff for d ascending). */
void
queryPair(const float *points, int64_t ld, int32_t n, int32_t dim,
          const float *qT, int32_t h, float *out)
{
    float *out0 = out + static_cast<int64_t>(h) * n;
    float *out1 = out0 + static_cast<int64_t>(W) * n;
    for (int32_t i = 0; i + 4 <= n; i += 4) {
        const float *p0 = points + i * ld;
        const float *p1 = p0 + ld;
        const float *p2 = p1 + ld;
        const float *p3 = p2 + ld;
        VecF a00 = VecF::zero(), a01 = VecF::zero();
        VecF a10 = VecF::zero(), a11 = VecF::zero();
        VecF a20 = VecF::zero(), a21 = VecF::zero();
        VecF a30 = VecF::zero(), a31 = VecF::zero();
        const float *qd = qT + h;
        for (int32_t d = 0; d < dim; ++d, qd += B) {
            VecF q0 = VecF::load(qd);
            VecF q1 = VecF::load(qd + W);
            accumulate2(VecF::broadcast(p0[d]), q0, q1, a00, a01);
            accumulate2(VecF::broadcast(p1[d]), q0, q1, a10, a11);
            accumulate2(VecF::broadcast(p2[d]), q0, q1, a20, a21);
            accumulate2(VecF::broadcast(p3[d]), q0, q1, a30, a31);
        }
        storeTransposed4(a00, a10, a20, a30, out0 + i, n);
        storeTransposed4(a01, a11, a21, a31, out1 + i, n);
    }
}

int32_t
dist2QueryBlock(const float *points, int64_t ld, int32_t n, int32_t dim,
                const float *qT, float *out)
{
    for (int32_t h = 0; h < B; h += 2 * W)
        queryPair(points, ld, n, dim, qT, h, out);
    return n - n % 4;
}

} // namespace

const Table kTable = {W, dist2Soa3, dist2QueryBlock};

} // namespace mesorasi::neighbor::kernels::MESORASI_ISA

#endif // MESORASI_ISA
