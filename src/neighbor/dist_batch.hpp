/**
 * @file
 * Batched squared-distance kernels for the neighbor-search backends.
 *
 * Every backend's inner loop is the same shape: given a candidate index
 * list (a grid cell, a KD-tree leaf, or the whole point set), compute
 * d2 = ||p[idx[i]] - q||^2 for each candidate and then filter/rank.
 * These kernels batch that loop two ways:
 *
 *  - One query, many candidates (dist2Batch, dist2Range): for 3-D views
 *    the candidate coordinates are gathered into a small SoA scratch
 *    (per-thread Workspace slot kDistSoA) and the arithmetic runs one
 *    SIMD lane per candidate; other dimensionalities run the scalar
 *    PointsView::dist2To loop.
 *  - Many self-queries, every candidate (dist2Block), for brute-force
 *    k-NN over the indexed set's own rows in any dimension (DGCNN's
 *    feature-space graphs): a block of kQueryBlock query rows is
 *    transposed into a dim x kQueryBlock scratch (kDistSoA) so the
 *    lanes run over *queries*, and each register block broadcasts the
 *    coordinates of 4 candidate rows against a pair of query registers,
 *    keeping 8 independent accumulators in flight instead of one
 *    latency-bound scalar chain.
 *
 * The vector arithmetic runs in the copy the ISA dispatch picks
 * (dist_batch_kernels.hpp, common/simd.hpp); the gathers, transposes
 * and tails run here. Candidates are addressed as rows ld floats apart,
 * as PointsView::row does, so views over padded rows (ld > dim, the
 * plan optimizer's aligned PFT layout) work unchanged in every path.
 *
 * Bitwise contract: every output is byte-identical to the matching
 * points.dist2To call in every path. Each lane runs dist2To's exact op
 * sequence — acc = 0, then acc += (p[d] - q[d])^2 for d ascending, as
 * mul then add, never FMA (the 3-D SoA kernel seeds acc with the first
 * square instead of 0 + square, a bitwise no-op because a square is
 * never -0.0). Neighbor *results* therefore cannot differ between any
 * SIMD copy and the scalar path or between the block and per-query
 * paths: identical distances rank and tie-break identically.
 */
#pragma once

#include <cstdint>

#include "common/simd.hpp"
#include "neighbor/points_view.hpp"

namespace mesorasi::neighbor {

/**
 * out[i] = points.dist2To(idx[i], query) for i in [0, n), bitwise.
 * Uses the calling thread's Workspace (slot kDistSoA) as gather
 * scratch; never allocates once the slot is warm.
 */
void dist2Batch(const PointsView &points, const int32_t *idx, int32_t n,
                const float *query, float *out);

/**
 * out[i] = points.dist2To(begin + i, query) for i in [0, n), bitwise —
 * the contiguous-range variant the brute-force scans use.
 */
void dist2Range(const PointsView &points, int32_t begin, int32_t n,
                const float *query, float *out);

/** Queries per dist2Block block: two registers of the widest compiled
 *  lane width (16 on x86-64, 8 on AArch64, 2 with no vector copy). It
 *  does not depend on the dispatched copy, which covers a block in
 *  pairs of its own registers (one pair on AVX2, two on SSE2). Callers
 *  that split self-queries across threads use it as the minimum chunk
 *  so chunks hold whole blocks. */
inline constexpr int32_t kQueryBlock = 2 * simd::kMaxWidth;

/**
 * The nq x n block of squared distances from self-queries to every
 * row: out[j * n + i] = points.dist2To(i, points.row(rows[j])) for
 * j in [0, nq), i in [0, n = points.size()), bitwise. Full blocks of
 * kQueryBlock queries run the query-lane SIMD kernel; a partial final
 * block, and every query when the scalar path is dispatched, run the
 * per-query dist2Range pass, and candidate tails (n mod 4) run
 * dist2To. Uses the calling thread's Workspace slot kDistSoA for the
 * transposed queries; never allocates once the slot is warm.
 */
void dist2Block(const PointsView &points, const int32_t *rows, int32_t nq,
                float *out);

} // namespace mesorasi::neighbor
