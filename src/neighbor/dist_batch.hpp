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
 *    transposed into a dim x lanes scratch (kDistSoA) so the lanes run
 *    over *queries*, and each register block broadcasts the
 *    coordinates of 4 candidate rows, keeping 8 independent
 *    accumulators in flight instead of one latency-bound scalar chain.
 *
 * All candidate access goes through PointsView::row, so views over
 * padded rows (ld > dim, the plan optimizer's aligned PFT layout) work
 * unchanged in every path.
 *
 * Bitwise contract: every output is byte-identical to the matching
 * points.dist2To call in every path. Each lane runs dist2To's exact op
 * sequence — acc = 0, then acc += (p[d] - q[d])^2 for d ascending, as
 * mul then add, never FMA (the 3-D SoA kernel seeds acc with the first
 * square instead of 0 + square, a bitwise no-op because a square is
 * never -0.0). Neighbor *results* therefore cannot differ between the
 * SIMD and scalar builds or between the block and per-query paths:
 * identical distances rank and tie-break identically.
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

/** Queries per dist2Block register block: two SIMD registers of query
 *  lanes. Callers that split self-queries across threads use it as
 *  the minimum chunk so chunks hold whole blocks. */
inline constexpr int32_t kQueryBlock = 2 * simd::kWidth;

/**
 * The nq x n block of squared distances from self-queries to every
 * row: out[j * n + i] = points.dist2To(i, points.row(rows[j])) for
 * j in [0, nq), i in [0, n = points.size()), bitwise. Full blocks of
 * kQueryBlock queries run the query-lane SIMD kernel; a partial final
 * block, and every query when simd::enabled() is false, run the
 * per-query dist2Range pass, and candidate tails (n mod 4) run
 * dist2To. Uses the calling thread's Workspace slot kDistSoA for the
 * transposed queries; never allocates once the slot is warm.
 */
void dist2Block(const PointsView &points, const int32_t *rows, int32_t nq,
                float *out);

} // namespace mesorasi::neighbor
