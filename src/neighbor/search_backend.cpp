#include "neighbor/search_backend.hpp"

#include <algorithm>
#include <cmath>
#include <map>
#include <mutex>

#include "common/check.hpp"
#include "common/thread_pool.hpp"
#include "neighbor/brute_force.hpp"
#include "neighbor/dist_batch.hpp"
#include "neighbor/grid.hpp"
#include "neighbor/kdtree.hpp"

namespace mesorasi::neighbor {

const char *
backendName(Backend b)
{
    switch (b) {
      case Backend::Auto: return "auto";
      case Backend::BruteForce: return "brute_force";
      case Backend::Grid: return "grid";
      case Backend::KdTree: return "kdtree";
    }
    return "?";
}

Backend
backendFromName(const std::string &name)
{
    if (name == "auto")
        return Backend::Auto;
    if (name == "brute_force")
        return Backend::BruteForce;
    if (name == "grid")
        return Backend::Grid;
    if (name == "kdtree")
        return Backend::KdTree;
    MESO_REQUIRE(false, "unknown search backend '" << name << "'");
}

void
SearchBackend::knnInto(const float *query, int32_t k, int32_t *out) const
{
    std::vector<int32_t> nn = knn(query, k);
    std::copy(nn.begin(), nn.end(), out);
}

void
SearchBackend::knnRowsInto(const int32_t *rows, int32_t nq, int32_t k,
                           int32_t *out) const
{
    for (int32_t j = 0; j < nq; ++j)
        knnInto(points_.row(rows[j]), k, out + static_cast<size_t>(j) * k);
}

int32_t
SearchBackend::radiusInto(const float *query, float r, int32_t maxK,
                          int32_t *out) const
{
    MESO_REQUIRE(maxK > 0, "radiusInto needs a positive maxK");
    std::vector<int32_t> nn = radius(query, r, maxK);
    std::copy(nn.begin(), nn.end(), out);
    return static_cast<int32_t>(nn.size());
}

// ---------------------------------------------------------------------
// Shared table builders: per-centroid queries fan out across the pool.
// ---------------------------------------------------------------------

NeighborIndexTable
SearchBackend::knnTable(const std::vector<int32_t> &queries,
                        int32_t k) const
{
    MESO_REQUIRE(k > 0 && k <= points_.size(),
                 "k=" << k << " with " << points_.size() << " points");
    for (int32_t q : queries)
        MESO_REQUIRE(q >= 0 && q < points_.size(), "query " << q);

    std::vector<int32_t> flat(queries.size() * static_cast<size_t>(k));
    ThreadPool::global().parallelFor(
        static_cast<int64_t>(queries.size()), kQueryBlock,
        [&](int64_t begin, int64_t end) {
            knnRowsInto(queries.data() + begin,
                        static_cast<int32_t>(end - begin), k,
                        flat.data() + begin * k);
        });

    NeighborIndexTable nit(k);
    for (size_t i = 0; i < queries.size(); ++i) {
        NitEntry e;
        e.centroid = queries[i];
        e.neighbors.assign(flat.begin() + i * k, flat.begin() + (i + 1) * k);
        nit.add(std::move(e));
    }
    return nit;
}

NeighborIndexTable
SearchBackend::ballTable(const std::vector<int32_t> &queries, float r,
                         int32_t maxK, bool padToMaxK) const
{
    MESO_REQUIRE(r > 0.0f && maxK > 0, "radius=" << r << " maxK=" << maxK);
    for (int32_t q : queries)
        MESO_REQUIRE(q >= 0 && q < points_.size(), "query " << q);

    std::vector<NitEntry> entries(queries.size());
    ThreadPool::global().parallelFor(
        static_cast<int64_t>(queries.size()), /*grain=*/4,
        [&](int64_t begin, int64_t end) {
            for (int64_t i = begin; i < end; ++i) {
                NitEntry &e = entries[i];
                e.centroid = queries[i];
                e.neighbors = radius(points_.row(queries[i]), r, maxK);
                // A ball query over the indexed set always contains
                // its own center, but feature-space or custom backends
                // may legitimately return nothing — padBallEntry seeds
                // the padding with the centroid itself so consumers
                // (executor group loops, the AU's non-empty-entry
                // invariant) never see an empty or underfull entry.
                if (padToMaxK)
                    padBallEntry(e, maxK);
            }
        });

    NeighborIndexTable nit(maxK);
    for (auto &e : entries)
        nit.add(std::move(e));
    return nit;
}

// ---------------------------------------------------------------------
// Concrete backends
// ---------------------------------------------------------------------

namespace {

class BruteForceBackend final : public SearchBackend
{
  public:
    explicit BruteForceBackend(const PointsView &points)
        : SearchBackend(points)
    {
    }

    const char *name() const override { return "brute_force"; }

    std::vector<int32_t>
    knn(const float *query, int32_t k) const override
    {
        return knnScan(points_, query, k);
    }

    std::vector<int32_t>
    radius(const float *query, float r, int32_t maxK) const override
    {
        return radiusScan(points_, query, r, maxK);
    }

    void
    knnInto(const float *query, int32_t k, int32_t *out) const override
    {
        knnScanInto(points_, query, k, out);
    }

    void
    knnRowsInto(const int32_t *rows, int32_t nq, int32_t k,
                int32_t *out) const override
    {
        knnScanRowsInto(points_, rows, nq, k, out);
    }

    int32_t
    radiusInto(const float *query, float r, int32_t maxK,
               int32_t *out) const override
    {
        return radiusScanInto(points_, query, r, maxK, out);
    }
};

class KdTreeBackend final : public SearchBackend
{
  public:
    explicit KdTreeBackend(const PointsView &points)
        : SearchBackend(points), tree_(points)
    {
    }

    const char *name() const override { return "kdtree"; }

    std::vector<int32_t>
    knn(const float *query, int32_t k) const override
    {
        return tree_.knn(query, k);
    }

    std::vector<int32_t>
    radius(const float *query, float r, int32_t maxK) const override
    {
        return tree_.radius(query, r, maxK);
    }

    void
    knnInto(const float *query, int32_t k, int32_t *out) const override
    {
        tree_.knnInto(query, k, out);
    }

    int32_t
    radiusInto(const float *query, float r, int32_t maxK,
               int32_t *out) const override
    {
        return tree_.radiusInto(query, r, maxK, out);
    }

  private:
    KdTree tree_;
};

class GridBackend final : public SearchBackend
{
  public:
    GridBackend(const PointsView &points, const SearchHints &hints)
        : SearchBackend(points), grid_(makeGrid(points, hints))
    {
    }

    const char *name() const override { return "grid"; }

    std::vector<int32_t>
    knn(const float *query, int32_t k) const override
    {
        return grid_.knn(query, k);
    }

    std::vector<int32_t>
    radius(const float *query, float r, int32_t maxK) const override
    {
        return grid_.radius(query, r, maxK);
    }

    void
    knnInto(const float *query, int32_t k, int32_t *out) const override
    {
        grid_.knnInto(query, k, out);
    }

    int32_t
    radiusInto(const float *query, float r, int32_t maxK,
               int32_t *out) const override
    {
        return grid_.radiusInto(query, r, maxK, out);
    }

  private:
    /** One bounding-box pass serves both the cell-size heuristic and
     *  the grid origin. Ball workloads get cell size == radius; k-NN
     *  workloads size the cell so one cell holds roughly the expected
     *  group. */
    static GridIndex
    makeGrid(const PointsView &points, const SearchHints &hints)
    {
        MESO_REQUIRE(points.dim() == 3,
                     "grid backend is 3-D only, got dim "
                         << points.dim());
        MESO_REQUIRE(points.size() > 0, "cannot index an empty view");
        float lo[3], hi[3];
        const float *p0 = points.row(0);
        for (int32_t d = 0; d < 3; ++d)
            lo[d] = hi[d] = p0[d];
        for (int32_t i = 1; i < points.size(); ++i) {
            const float *p = points.row(i);
            for (int32_t d = 0; d < 3; ++d) {
                lo[d] = std::min(lo[d], p[d]);
                hi[d] = std::max(hi[d], p[d]);
            }
        }
        float cell;
        if (hints.radius > 0.0f) {
            cell = hints.radius;
        } else {
            float volume = 1.0f;
            for (int32_t d = 0; d < 3; ++d)
                volume *= std::max(hi[d] - lo[d], 1e-3f);
            float k = static_cast<float>(hints.k > 0 ? hints.k : 16);
            cell = std::max(
                std::cbrt(volume * k /
                          static_cast<float>(points.size())),
                1e-4f);
        }
        return GridIndex(points, cell, lo);
    }

    GridIndex grid_;
};

// --- Registry ---------------------------------------------------------

struct Registry
{
    std::mutex mutex;
    std::map<std::string, BackendFactory> factories;
};

Registry &
registry()
{
    static Registry r;
    static std::once_flag init;
    std::call_once(init, [] {
        r.factories["brute_force"] = [](const PointsView &p,
                                        const SearchHints &) {
            return std::unique_ptr<SearchBackend>(
                std::make_unique<BruteForceBackend>(p));
        };
        r.factories["kdtree"] = [](const PointsView &p,
                                   const SearchHints &) {
            return std::unique_ptr<SearchBackend>(
                std::make_unique<KdTreeBackend>(p));
        };
        r.factories["grid"] = [](const PointsView &p,
                                 const SearchHints &h) {
            return std::unique_ptr<SearchBackend>(
                std::make_unique<GridBackend>(p, h));
        };
    });
    return r;
}

} // namespace

void
registerSearchBackend(const std::string &name, BackendFactory factory)
{
    MESO_REQUIRE(!name.empty() && factory, "bad backend registration");
    Registry &r = registry();
    std::lock_guard<std::mutex> lock(r.mutex);
    r.factories[name] = std::move(factory);
}

std::unique_ptr<SearchBackend>
makeBackendByName(const std::string &name, const PointsView &points,
                  const SearchHints &hints)
{
    BackendFactory factory;
    {
        Registry &r = registry();
        std::lock_guard<std::mutex> lock(r.mutex);
        auto it = r.factories.find(name);
        MESO_REQUIRE(it != r.factories.end(),
                     "no search backend registered as '" << name << "'");
        factory = it->second;
    }
    return factory(points, hints);
}

std::vector<std::string>
registeredBackendNames()
{
    Registry &r = registry();
    std::lock_guard<std::mutex> lock(r.mutex);
    std::vector<std::string> names;
    names.reserve(r.factories.size());
    for (const auto &[name, factory] : r.factories)
        names.push_back(name);
    return names;
}

// ---------------------------------------------------------------------
// Auto policy
// ---------------------------------------------------------------------

Backend
chooseBackend(const PointsView &points, const SearchHints &hints)
{
    int32_t n = points.size();
    int32_t dim = points.dim();

    // Tiny clouds or almost no queries to amortize the build over:
    // index construction costs more than it saves.
    if (n <= 128 || (hints.numQueries > 0 && hints.numQueries <= 4))
        return Backend::BruteForce;
    // 3-D ball queries map perfectly onto a grid with cell ~= radius.
    if (dim == 3 && hints.radius > 0.0f)
        return Backend::Grid;
    // High-dimensional feature-space search (DGCNN's dynamic graphs):
    // KD-tree pruning collapses, so exhaustive scan wins except at
    // scales where even a degraded tree helps.
    if (dim > 8)
        return n <= 4096 ? Backend::BruteForce : Backend::KdTree;
    return Backend::KdTree;
}

std::unique_ptr<SearchBackend>
makeBackend(Backend kind, const PointsView &points,
            const SearchHints &hints)
{
    if (kind == Backend::Auto)
        kind = chooseBackend(points, hints);
    return makeBackendByName(backendName(kind), points, hints);
}

} // namespace mesorasi::neighbor
