/**
 * @file
 * Brute-force neighbor search: the O(N^2) reference implementation all
 * accelerated structures are validated against, and the model of how the
 * GPU baseline actually executes k-NN in the evaluated networks.
 */
#pragma once

#include <cstdint>
#include <vector>

#include "neighbor/nit.hpp"
#include "neighbor/points_view.hpp"

namespace mesorasi::neighbor {

/**
 * Exact k nearest neighbors of the external point @p query (dim
 * floats) by exhaustive scan, sorted by (distance, index). The single
 * source of truth for brute-force ordering semantics — the table
 * builders below and the brute_force SearchBackend both delegate here.
 *
 * A NaN distance (a NaN coordinate in the row or the query, e.g. a
 * poisoned or overflowed feature row searched by a later EdgeConv)
 * ranks as +infinity, ties broken by index like any other distance: a
 * NaN row never displaces a finite neighbor, and it comes after every
 * finite row when k reaches it.
 */
std::vector<int32_t> knnScan(const PointsView &points, const float *query,
                             int32_t k);

/**
 * All points within @p radius of the external point @p query, sorted
 * by (distance, index), truncated to @p maxK if maxK > 0.
 */
std::vector<int32_t> radiusScan(const PointsView &points,
                                const float *query, float radius,
                                int32_t maxK = -1);

/**
 * knnScan into caller-owned memory: writes exactly k indices to
 * out[0..k). Identical results to knnScan; ranking scratch lives in
 * grow-only per-thread storage, so the steady state never allocates
 * (the compiled-plan serving contract).
 */
void knnScanInto(const PointsView &points, const float *query, int32_t k,
                 int32_t *out);

/**
 * knnScanInto for the self-queries points.row(rows[j]), j in [0, nq):
 * writes k indices per query to out[j * k .. (j + 1) * k), bitwise
 * identical to one knnScanInto per query. Distances come from
 * dist2Block (query-blocked SIMD in every dimension) and both paths
 * rank through one shared selection; the d2 block lives in the
 * calling thread's Workspace slot kDistOut, so the steady state never
 * allocates.
 */
void knnScanRowsInto(const PointsView &points, const int32_t *rows,
                     int32_t nq, int32_t k, int32_t *out);

/**
 * radiusScan into caller-owned memory (@p maxK must be positive):
 * writes up to maxK indices to @p out and returns the count written.
 */
int32_t radiusScanInto(const PointsView &points, const float *query,
                       float radius, int32_t maxK, int32_t *out);

/**
 * Exact k nearest neighbors of each query point, by exhaustive scan.
 *
 * @param points   the searchable point set
 * @param queries  indices into @p points that act as centroids
 * @param k        neighbors per centroid (the centroid itself counts as
 *                 its own nearest neighbor, as in PointNet++ grouping)
 */
NeighborIndexTable knnBruteForce(const PointsView &points,
                                 const std::vector<int32_t> &queries,
                                 int32_t k);

/**
 * Ball query: up to @p maxK neighbors within @p radius of each centroid
 * (PointNet++-style grouping). If fewer than maxK points fall inside the
 * ball, the first found is repeated to pad the group, matching the
 * reference implementation's behaviour.
 */
NeighborIndexTable ballQueryBruteForce(const PointsView &points,
                                       const std::vector<int32_t> &queries,
                                       float radius, int32_t maxK,
                                       bool padToMaxK = true);

} // namespace mesorasi::neighbor
