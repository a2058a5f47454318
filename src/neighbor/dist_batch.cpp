#include "neighbor/dist_batch.hpp"

#include "common/simd.hpp"
#include "common/workspace.hpp"

namespace mesorasi::neighbor {

namespace {

using simd::VecF;

/** SoA 3-D kernel body: xs/ys/zs hold the gathered candidate
 *  coordinates. Each lane runs the scalar accumulation sequence
 *  (dx*dx) + dy*dy + dz*dz for one candidate. */
void
dist2Soa3(const float *xs, const float *ys, const float *zs, int32_t n,
          const float *query, float *out)
{
    const VecF qx = VecF::broadcast(query[0]);
    const VecF qy = VecF::broadcast(query[1]);
    const VecF qz = VecF::broadcast(query[2]);
    constexpr int W = simd::kWidth;
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
    for (; i < n; ++i) {
        float dx = xs[i] - query[0];
        float dy = ys[i] - query[1];
        float dz = zs[i] - query[2];
        float acc = dx * dx;
        acc += dy * dy;
        acc += dz * dz;
        out[i] = acc;
    }
}

/** Gather rows into the per-thread SoA scratch; @p rowOf lets the
 *  same fill serve index lists (rowOf = idx[i]) and ranges. */
template <class RowOf>
void
dist2Batch3(const PointsView &points, int32_t n, RowOf rowOf,
            const float *query, float *out)
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
    dist2Soa3(xs, ys, zs, n, query, out);
}

/** acc_v += (p - q_v)^2 for the two query registers: one candidate
 *  coordinate against both halves of the query block. */
inline void
accumulate2(VecF p, VecF q0, VecF q1, VecF &acc0, VecF &acc1)
{
    VecF t0 = sub(p, q0);
    VecF t1 = sub(p, q1);
    acc0 = add(acc0, mul(t0, t0));
    acc1 = add(acc1, mul(t1, t1));
}

/** One full query block. @p qT receives the block's queries
 *  transposed (dim x kQueryBlock), so a load at qT + d * kQueryBlock
 *  yields coordinate d of kWidth queries; candidates are swept four at
 *  a time with each coordinate broadcast, and every accumulator runs
 *  dist2To's sequence (acc = 0, acc += diff * diff for d ascending). */
void
dist2QueryBlock(const PointsView &points, const int32_t *rows, float *qT,
                float *out)
{
    constexpr int32_t W = simd::kWidth;
    constexpr int32_t B = kQueryBlock;
    const int32_t n = points.size();
    const int32_t dim = points.dim();
    const float *q[B];
    for (int32_t j = 0; j < B; ++j) {
        q[j] = points.row(rows[j]);
        for (int32_t d = 0; d < dim; ++d)
            qT[static_cast<size_t>(d) * B + j] = q[j][d];
    }
    float *out1 = out + static_cast<size_t>(W) * n; // queries W..B-1
    int32_t i = 0;
    for (; i + 4 <= n; i += 4) {
        const float *p0 = points.row(i);
        const float *p1 = points.row(i + 1);
        const float *p2 = points.row(i + 2);
        const float *p3 = points.row(i + 3);
        VecF a00 = VecF::zero(), a01 = VecF::zero();
        VecF a10 = VecF::zero(), a11 = VecF::zero();
        VecF a20 = VecF::zero(), a21 = VecF::zero();
        VecF a30 = VecF::zero(), a31 = VecF::zero();
        const float *qd = qT;
        for (int32_t d = 0; d < dim; ++d, qd += B) {
            VecF q0 = VecF::load(qd);
            VecF q1 = VecF::load(qd + W);
            accumulate2(VecF::broadcast(p0[d]), q0, q1, a00, a01);
            accumulate2(VecF::broadcast(p1[d]), q0, q1, a10, a11);
            accumulate2(VecF::broadcast(p2[d]), q0, q1, a20, a21);
            accumulate2(VecF::broadcast(p3[d]), q0, q1, a30, a31);
        }
        simd::storeTransposed4(a00, a10, a20, a30, out + i, n);
        simd::storeTransposed4(a01, a11, a21, a31, out1 + i, n);
    }
    for (; i < n; ++i)
        for (int32_t j = 0; j < B; ++j)
            out[static_cast<size_t>(j) * n + i] = points.dist2To(i, q[j]);
}

} // namespace

void
dist2Batch(const PointsView &points, const int32_t *idx, int32_t n,
           const float *query, float *out)
{
    if (simd::enabled() && points.dim() == 3 && n >= simd::kWidth) {
        dist2Batch3(points, n, [&](int32_t i) { return idx[i]; }, query,
                    out);
        return;
    }
    for (int32_t i = 0; i < n; ++i)
        out[i] = points.dist2To(idx[i], query);
}

void
dist2Range(const PointsView &points, int32_t begin, int32_t n,
           const float *query, float *out)
{
    if (simd::enabled() && points.dim() == 3 && n >= simd::kWidth) {
        dist2Batch3(points, n, [&](int32_t i) { return begin + i; },
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
    const int32_t full = simd::enabled() ? nq - nq % kQueryBlock : 0;
    if (full > 0) {
        Workspace &ws = Workspace::local();
        Workspace::ScopedClaim claim(ws, Workspace::kDistSoA);
        float *qT = ws.floats(Workspace::kDistSoA,
                              static_cast<size_t>(points.dim()) *
                                  kQueryBlock);
        for (int32_t b = 0; b < full; b += kQueryBlock)
            dist2QueryBlock(points, rows + b, qT,
                            out + static_cast<size_t>(b) * n);
    }
    // The 3-D dist2Range claims kDistSoA itself, so the claim above
    // must be released before the per-query pass.
    for (int32_t j = full; j < nq; ++j)
        dist2Range(points, 0, n, points.row(rows[j]),
                   out + static_cast<size_t>(j) * n);
}

} // namespace mesorasi::neighbor
