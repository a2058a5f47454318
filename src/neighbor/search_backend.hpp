/**
 * @file
 * Pluggable neighbor-search backends.
 *
 * Neighbor search (the N stage of every N-A-F module) is decoupled from
 * feature computation in the delayed-aggregation pipeline, so the
 * executor must not care *how* neighbors are found. SearchBackend is the
 * unified interface: exact k-NN and ball (radius) queries over a
 * dimension-generic PointsView, with every backend returning neighbors
 * sorted by (distance, index) so results are identical across backends
 * — ties broken by index — and bitwise reproducible.
 *
 * Three backends ship by default:
 *  - brute_force: exhaustive O(N) per query; fastest for small clouds
 *    and the only sensible choice in high-dimensional feature spaces.
 *  - grid:        uniform hash-grid, 3-D only; near-constant-time ball
 *    queries on LiDAR-scale clouds, expanding-shell exact k-NN.
 *  - kdtree:      median-split KD-tree; the general fast path.
 *
 * Backends are registered by name in a small factory (the pattern of a
 * compiler target registry), and Backend::Auto picks one per module from
 * the query shape (N, k, radius, dimensionality). Table construction is
 * parallelized over queries via the shared thread pool.
 */
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "neighbor/nit.hpp"
#include "neighbor/points_view.hpp"

namespace mesorasi::neighbor {

/** Backend selector carried by module configurations. */
enum class Backend
{
    Auto,       ///< pick per query shape (see chooseBackend)
    BruteForce,
    Grid,
    KdTree,
};

/** Canonical registry name of a backend ("auto" for Backend::Auto). */
const char *backendName(Backend b);

/** Inverse of backendName; throws UsageError on unknown names. */
Backend backendFromName(const std::string &name);

/** Query-shape hints used by Auto selection and backend tuning. */
struct SearchHints
{
    /** Expected query count (0 = unknown); a handful of queries never
     *  amortizes an index build, so Auto falls back to brute force. */
    int32_t numQueries = 0;
    int32_t k = 0;       ///< neighbors per query (0 = unknown)
    float radius = 0.0f; ///< ball radius (0 = k-NN workload)
};

/**
 * Abstract search structure over one point set. The view must outlive
 * the backend. Queries are const and thread-safe; the table builders
 * fan the per-centroid queries out across the global thread pool.
 */
class SearchBackend
{
  public:
    virtual ~SearchBackend() = default;

    /** Registry name of the concrete backend. */
    virtual const char *name() const = 0;

    /** k nearest neighbors of the external point @p query (dim floats),
     *  sorted by (distance, index). */
    virtual std::vector<int32_t> knn(const float *query,
                                     int32_t k) const = 0;

    /** All points within @p radius of @p query, sorted by (distance,
     *  index), truncated to @p maxK if maxK > 0. */
    virtual std::vector<int32_t> radius(const float *query, float radius,
                                        int32_t maxK = -1) const = 0;

    /**
     * knn into caller-owned memory: writes exactly k indices to
     * out[0..k). Identical results to knn(). The base implementation
     * delegates to knn() (and allocates); the shipped backends override
     * it with grow-only per-thread scratch so compiled-plan serving
     * loops stay allocation-free in steady state.
     */
    virtual void knnInto(const float *query, int32_t k,
                         int32_t *out) const;

    /**
     * knn for a block of the indexed set's own rows: writes k indices
     * per query points().row(rows[j]), j in [0, nq), to
     * out[j * k .. (j + 1) * k). Identical results to one knnInto per
     * query. The base implementation is exactly that loop, so kdtree,
     * grid and custom backends keep their per-query behaviour;
     * brute_force overrides it with the query-blocked SIMD distance
     * kernel (neighbor/dist_batch.hpp), which answers kQueryBlock
     * queries per candidate sweep. Self-query table builders call it
     * once per pool chunk, with chunks of at least kQueryBlock rows.
     */
    virtual void knnRowsInto(const int32_t *rows, int32_t nq, int32_t k,
                             int32_t *out) const;

    /** radius into caller-owned memory (@p maxK must be positive):
     *  writes up to maxK indices to @p out, returns the count. Same
     *  override contract as knnInto. */
    virtual int32_t radiusInto(const float *query, float radius,
                               int32_t maxK, int32_t *out) const;

    /** Build a NIT of the k nearest neighbors of each query index,
     *  through knnRowsInto. */
    NeighborIndexTable knnTable(const std::vector<int32_t> &queries,
                                int32_t k) const;

    /** Build a NIT by running a radius query for each query index;
     *  pads to maxK by repeating the nearest member. An empty ball is
     *  padded with the centroid itself (max over the pad is idempotent
     *  and the centroid is the natural degenerate neighborhood), so
     *  padded entries always have exactly maxK neighbors. */
    NeighborIndexTable ballTable(const std::vector<int32_t> &queries,
                                 float radius, int32_t maxK,
                                 bool padToMaxK = true) const;

    const PointsView &points() const { return points_; }

  protected:
    explicit SearchBackend(const PointsView &points) : points_(points) {}

    PointsView points_;
};

/** Auto policy: choose a backend from the point set and query shape. */
Backend chooseBackend(const PointsView &points, const SearchHints &hints);

/** Construct a backend; Backend::Auto goes through chooseBackend. */
std::unique_ptr<SearchBackend> makeBackend(Backend kind,
                                           const PointsView &points,
                                           const SearchHints &hints = {});

// --- Name registry ----------------------------------------------------

using BackendFactory = std::function<std::unique_ptr<SearchBackend>(
    const PointsView &, const SearchHints &)>;

/** Register a backend constructor under @p name (replaces existing). */
void registerSearchBackend(const std::string &name,
                           BackendFactory factory);

/** Construct a registered backend by name; throws UsageError if the
 *  name is unknown. */
std::unique_ptr<SearchBackend>
makeBackendByName(const std::string &name, const PointsView &points,
                  const SearchHints &hints = {});

/** Sorted names of all registered backends. */
std::vector<std::string> registeredBackendNames();

} // namespace mesorasi::neighbor
