#include "neighbor/brute_force.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/check.hpp"
#include "common/workspace.hpp"
#include "neighbor/dist_batch.hpp"

namespace mesorasi::neighbor {

namespace {

/** Grow-only per-thread (distance, index) ranking scratch shared by
 *  the scan kernels, so the Into variants never allocate once warm. */
std::vector<std::pair<float, int32_t>> &
rankScratch()
{
    static thread_local std::vector<std::pair<float, int32_t>> scratch;
    return scratch;
}

/** Fill the ranking scratch with the in-ball (d2, index) pairs of
 *  @p query, sorted nearest first with ties by index. */
void
collectInBall(const PointsView &points, const float *query, float radius,
              std::vector<std::pair<float, int32_t>> &found)
{
    MESO_REQUIRE(radius > 0.0f, "radius must be positive");
    float r2 = radius * radius;
    int32_t n = points.size();
    Workspace &ws = Workspace::local();
    Workspace::ScopedClaim claim(ws, Workspace::kDistOut);
    float *d2 = ws.floats(Workspace::kDistOut, static_cast<size_t>(n));
    dist2Range(points, 0, n, query, d2);
    found.clear();
    for (int32_t i = 0; i < n; ++i) {
        if (d2[i] <= r2)
            found.push_back({d2[i], i});
    }
    // Nearest first, ties by index, so truncation at maxK keeps the
    // same set no matter which search structure answered the query.
    std::sort(found.begin(), found.end());
}

/**
 * The k-NN ranking every brute-force path shares: writes the k
 * nearest of candidates [0, n), given their squared distances, to
 * out[0..k) in (distance, index) order — the ordering contract shared
 * by every search backend. One bounded sorted insertion over the
 * ranking scratch, in candidate (= index) order: past the first k, a
 * candidate enters only if strictly below the current k-th distance,
 * so ties keep the smaller index. A NaN distance ranks as +infinity:
 * it never passes the strict test, and among the first k it enters as
 * +infinity, behind every finite distance.
 */
void
selectNearest(const float *d2, int32_t n, int32_t k, int32_t *out)
{
    std::vector<std::pair<float, int32_t>> &best = rankScratch();
    best.resize(static_cast<size_t>(k));
    // Insert (d, i) at or before slot @p pos, shifting farther entries
    // back; an equal distance stays ahead (its index is smaller).
    auto insert = [&](int32_t pos, float d, int32_t i) {
        for (; pos > 0 && d < best[static_cast<size_t>(pos - 1)].first;
             --pos)
            best[static_cast<size_t>(pos)] =
                best[static_cast<size_t>(pos - 1)];
        best[static_cast<size_t>(pos)] = {d, i};
    };
    for (int32_t i = 0; i < k; ++i)
        insert(i,
               std::isnan(d2[i]) ? std::numeric_limits<float>::infinity()
                                 : d2[i],
               i);
    float kth = best[static_cast<size_t>(k - 1)].first;
    for (int32_t i = k; i < n; ++i) {
        if (d2[i] < kth) {
            insert(k - 1, d2[i], i);
            kth = best[static_cast<size_t>(k - 1)].first;
        }
    }
    for (int32_t j = 0; j < k; ++j)
        out[j] = best[static_cast<size_t>(j)].second;
}

} // namespace

void
knnScanInto(const PointsView &points, const float *query, int32_t k,
            int32_t *out)
{
    MESO_REQUIRE(k > 0 && k <= points.size(),
                 "k=" << k << " with " << points.size() << " points");
    int32_t n = points.size();
    // Batched distance pass (SIMD over candidates), then rank. The d2
    // values are bitwise identical to per-point dist2To, so the
    // (distance, index) order — and therefore the result — is too.
    Workspace &ws = Workspace::local();
    Workspace::ScopedClaim claim(ws, Workspace::kDistOut);
    float *d2 = ws.floats(Workspace::kDistOut, static_cast<size_t>(n));
    dist2Range(points, 0, n, query, d2);
    selectNearest(d2, n, k, out);
}

void
knnScanRowsInto(const PointsView &points, const int32_t *rows, int32_t nq,
                int32_t k, int32_t *out)
{
    MESO_REQUIRE(k > 0 && k <= points.size(),
                 "k=" << k << " with " << points.size() << " points");
    int32_t n = points.size();
    Workspace &ws = Workspace::local();
    Workspace::ScopedClaim claim(ws, Workspace::kDistOut);
    float *d2 = ws.floats(Workspace::kDistOut,
                          static_cast<size_t>(std::min(nq, kQueryBlock)) *
                              n);
    for (int32_t b = 0; b < nq; b += kQueryBlock) {
        int32_t m = std::min(kQueryBlock, nq - b);
        dist2Block(points, rows + b, m, d2);
        for (int32_t j = 0; j < m; ++j)
            selectNearest(d2 + static_cast<size_t>(j) * n, n, k,
                          out + static_cast<size_t>(b + j) * k);
    }
}

std::vector<int32_t>
knnScan(const PointsView &points, const float *query, int32_t k)
{
    std::vector<int32_t> out(static_cast<size_t>(k));
    knnScanInto(points, query, k, out.data());
    return out;
}

int32_t
radiusScanInto(const PointsView &points, const float *query, float radius,
               int32_t maxK, int32_t *out)
{
    MESO_REQUIRE(maxK > 0, "radiusScanInto needs a positive maxK");
    std::vector<std::pair<float, int32_t>> &found = rankScratch();
    collectInBall(points, query, radius, found);
    int32_t count =
        std::min<int32_t>(maxK, static_cast<int32_t>(found.size()));
    for (int32_t j = 0; j < count; ++j)
        out[j] = found[static_cast<size_t>(j)].second;
    return count;
}

std::vector<int32_t>
radiusScan(const PointsView &points, const float *query, float radius,
           int32_t maxK)
{
    std::vector<std::pair<float, int32_t>> &found = rankScratch();
    collectInBall(points, query, radius, found);
    std::vector<int32_t> out;
    for (const auto &[d2, i] : found) {
        if (maxK > 0 && static_cast<int32_t>(out.size()) >= maxK)
            break;
        out.push_back(i);
    }
    return out;
}

NeighborIndexTable
knnBruteForce(const PointsView &points, const std::vector<int32_t> &queries,
              int32_t k)
{
    MESO_REQUIRE(k > 0 && k <= points.size(),
                 "k=" << k << " with " << points.size() << " points");
    NeighborIndexTable nit(k);
    for (int32_t q : queries) {
        MESO_REQUIRE(q >= 0 && q < points.size(), "query " << q);
        NitEntry entry;
        entry.centroid = q;
        entry.neighbors = knnScan(points, points.row(q), k);
        nit.add(std::move(entry));
    }
    return nit;
}

NeighborIndexTable
ballQueryBruteForce(const PointsView &points,
                    const std::vector<int32_t> &queries, float radius,
                    int32_t maxK, bool padToMaxK)
{
    MESO_REQUIRE(radius > 0.0f && maxK > 0,
                 "radius=" << radius << " maxK=" << maxK);
    NeighborIndexTable nit(maxK);
    for (int32_t q : queries) {
        MESO_REQUIRE(q >= 0 && q < points.size(), "query " << q);
        NitEntry entry;
        entry.centroid = q;
        entry.neighbors = radiusScan(points, points.row(q), radius, maxK);
        // Overfull balls keep the *nearest* maxK (the cross-backend
        // ordering contract; the original reference kept the first maxK
        // in index order instead). padBallEntry keeps the padding
        // contract shared with SearchBackend::ballTable.
        if (padToMaxK)
            padBallEntry(entry, maxK);
        nit.add(std::move(entry));
    }
    return nit;
}

} // namespace mesorasi::neighbor
