/**
 * @file
 * Tests for the pluggable search-backend layer: cross-backend parity
 * (identical k-NN and ball-query results, ties broken by index), the
 * name registry/factory, and the Auto selection policy.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>
#include <optional>
#include <set>
#include <tuple>

#include "common/check.hpp"
#include "common/rng.hpp"
#include "core/pipeline.hpp"
#include "hwsim/agg_unit.hpp"
#include "neighbor/brute_force.hpp"
#include "neighbor/dist_batch.hpp"
#include "neighbor/search_backend.hpp"
#include "tensor/tensor.hpp"

namespace mesorasi::neighbor {
namespace {

using mesorasi::Rng;

std::vector<float>
randomRows(Rng &rng, int32_t n, int32_t dim)
{
    std::vector<float> data(static_cast<size_t>(n) * dim);
    for (auto &v : data)
        v = rng.uniform(-1.0f, 1.0f);
    return data;
}

std::vector<int32_t>
someQueries(int32_t n)
{
    std::vector<int32_t> q;
    for (int32_t i = 0; i < n; i += std::max(1, n / 23))
        q.push_back(i);
    return q;
}

/** All registered backends applicable to a view of this dimension. */
std::vector<std::string>
applicableBackends(int32_t dim)
{
    std::vector<std::string> names = registeredBackendNames();
    if (dim != 3)
        names.erase(std::remove(names.begin(), names.end(), "grid"),
                    names.end());
    return names;
}

std::vector<int32_t>
allRows(int32_t n)
{
    std::vector<int32_t> q(static_cast<size_t>(n));
    std::iota(q.begin(), q.end(), 0);
    return q;
}

/** Every applicable backend's knnTable, and the per-query
 *  knnBruteForce oracle, equal brute_force's table. */
void
expectKnnParity(const PointsView &v, const std::vector<int32_t> &queries,
                int32_t k, const std::string &what)
{
    SearchHints hints;
    hints.numQueries = static_cast<int32_t>(queries.size());
    hints.k = k;
    auto ref =
        makeBackendByName("brute_force", v, hints)->knnTable(queries, k);
    auto oracle = knnBruteForce(v, queries, k);
    ASSERT_EQ(ref.size(), oracle.size()) << what;
    for (int32_t i = 0; i < ref.size(); ++i)
        EXPECT_EQ(ref[i].neighbors, oracle[i].neighbors)
            << "knnBruteForce " << what << " query " << queries[i];
    for (const std::string &name : applicableBackends(v.dim())) {
        auto got = makeBackendByName(name, v, hints)->knnTable(queries, k);
        ASSERT_EQ(ref.size(), got.size()) << name << " " << what;
        for (int32_t i = 0; i < ref.size(); ++i)
            EXPECT_EQ(ref[i].neighbors, got[i].neighbors)
                << name << " " << what << " query " << queries[i];
    }
}

TEST(BackendParity, KnnIdenticalAcrossBackends)
{
    // Feature-space shapes (DGCNN's 64-d / 128-d graphs) and k == n
    // included; the all-rows query set makes pool chunks hold full
    // query blocks plus tails.
    for (auto [n, dim, k] : {std::tuple<int32_t, int32_t, int32_t>{
                                 400, 3, 16},
                             {150, 3, 8},
                             {200, 8, 12},
                             {64, 32, 7},
                             {1000, 64, 20},
                             {257, 128, 20},
                             {45, 16, 45}}) {
        Rng rng(100 + n + dim);
        auto data = randomRows(rng, n, dim);
        PointsView v(data.data(), n, dim);
        std::string what =
            "n=" + std::to_string(n) + " dim=" + std::to_string(dim);
        expectKnnParity(v, someQueries(n), k, what);
        expectKnnParity(v, allRows(n), k, what + " all rows");
    }

    // Duplicate rows: distances tie exactly, so the ranking rests on
    // the index tie-break alone.
    for (int32_t dim : {3, 64}) {
        const int32_t n = 120, distinct = 13;
        Rng rng(300 + dim);
        auto base = randomRows(rng, distinct, dim);
        std::vector<float> data(static_cast<size_t>(n) * dim);
        for (int32_t i = 0; i < n; ++i)
            std::copy_n(base.begin() + (i % distinct) * dim, dim,
                        data.begin() + static_cast<size_t>(i) * dim);
        PointsView v(data.data(), n, dim);
        expectKnnParity(v, allRows(n), 20,
                        "duplicates dim=" + std::to_string(dim));
    }
}

TEST(BackendParity, NanRowRanksAfterEveryFiniteRow)
{
    // A NaN coordinate makes every distance to that row NaN; the
    // brute-force ranking treats it as +infinity, ties by index.
    const int32_t n = 3 * kQueryBlock + 5, dim = 64, bad = 7;
    Rng rng(12);
    auto data = randomRows(rng, n, dim);
    data[static_cast<size_t>(bad) * dim + 5] =
        std::numeric_limits<float>::quiet_NaN();
    PointsView v(data.data(), n, dim);
    auto backend = makeBackendByName("brute_force", v);
    std::vector<int32_t> rows = allRows(n);

    for (int32_t k : {10, n}) {
        std::vector<int32_t> block(static_cast<size_t>(n) * k);
        backend->knnRowsInto(rows.data(), n, k, block.data());
        for (int32_t q = 0; q < n; ++q) {
            // Independent oracle: sort the finite (d2, index) pairs,
            // then the NaN row (all of them, by index, for the NaN
            // query itself).
            std::vector<std::pair<float, int32_t>> finite;
            std::vector<int32_t> expect;
            for (int32_t i = 0; i < n; ++i) {
                float d2 = v.dist2(i, q);
                if (std::isnan(d2))
                    expect.push_back(i);
                else
                    finite.push_back({d2, i});
            }
            std::sort(finite.begin(), finite.end());
            std::vector<int32_t> order;
            for (const auto &[d2, i] : finite)
                order.push_back(i);
            order.insert(order.end(), expect.begin(), expect.end());
            order.resize(static_cast<size_t>(k));

            std::vector<int32_t> perQuery(static_cast<size_t>(k));
            backend->knnInto(v.row(q), k, perQuery.data());
            std::vector<int32_t> blocked(
                block.begin() + static_cast<size_t>(q) * k,
                block.begin() + static_cast<size_t>(q + 1) * k);
            for (const auto &got : {perQuery, blocked}) {
                EXPECT_EQ(got, order) << "k " << k << " query " << q;
                if (q != bad && k < n) {
                    EXPECT_EQ(std::count(got.begin(), got.end(), bad), 0)
                        << "query " << q;
                }
                if (q != bad && k == n) {
                    EXPECT_EQ(got.back(), bad) << "query " << q;
                }
            }
        }
    }
}

TEST(BackendParity, BallIdenticalAcrossBackends)
{
    for (auto [n, dim, maxK, radius] :
         {std::tuple<int32_t, int32_t, int32_t, float>{400, 3, 12, 0.4f},
          {150, 3, 64, 0.9f}, // large ball: exercises truncation
          {200, 8, 16, 1.1f}}) {
        Rng rng(200 + n + dim);
        auto data = randomRows(rng, n, dim);
        PointsView v(data.data(), n, dim);
        auto queries = someQueries(n);
        SearchHints hints;
        hints.numQueries = static_cast<int32_t>(queries.size());
        hints.k = maxK;
        hints.radius = radius;

        auto ref = makeBackendByName("brute_force", v, hints)
                       ->ballTable(queries, radius, maxK);
        for (const std::string &name : applicableBackends(dim)) {
            auto got = makeBackendByName(name, v, hints)
                           ->ballTable(queries, radius, maxK);
            ASSERT_EQ(ref.size(), got.size()) << name;
            for (int32_t i = 0; i < ref.size(); ++i)
                EXPECT_EQ(ref[i].neighbors, got[i].neighbors)
                    << name << " n=" << n << " dim=" << dim
                    << " query " << queries[i];
        }
    }
}

TEST(BackendParity, UnpaddedBallKeepsShortGroups)
{
    Rng rng(5);
    auto data = randomRows(rng, 120, 3);
    PointsView v(data.data(), 120, 3);
    std::vector<int32_t> queries{0, 17, 60, 119};
    for (const std::string &name : applicableBackends(3)) {
        auto nit = makeBackendByName(name, v)->ballTable(
            queries, 0.05f, 8, /*padToMaxK=*/false);
        for (int32_t i = 0; i < nit.size(); ++i) {
            // Tight radius: groups may hold fewer than maxK members but
            // always include the centroid itself.
            EXPECT_GE(nit[i].neighbors.size(), 1u) << name;
            EXPECT_EQ(nit[i].neighbors[0], queries[i]) << name;
        }
    }
}

TEST(BackendParity, UnderfullBallsPadToMaxKAcrossBackends)
{
    // A radius so tight that every ball holds only its own center: all
    // three backends must pad the entry to exactly maxK copies of the
    // centroid, so executors that index neighbors[j] for j < k and the
    // AU's non-empty-entry invariant stay safe.
    Rng rng(8);
    auto data = randomRows(rng, 120, 3);
    PointsView v(data.data(), 120, 3);
    std::vector<int32_t> queries{0, 17, 60, 119};
    for (const std::string &name : applicableBackends(3)) {
        auto nit =
            makeBackendByName(name, v)->ballTable(queries, 1e-5f, 8);
        ASSERT_EQ(nit.size(), static_cast<int32_t>(queries.size()))
            << name;
        for (int32_t i = 0; i < nit.size(); ++i) {
            ASSERT_EQ(nit[i].neighbors.size(), 8u) << name;
            for (int32_t n : nit[i].neighbors)
                EXPECT_EQ(n, queries[i]) << name;
        }
    }
}

TEST(BackendParity, EmptyBallsPadWithCentroid)
{
    // A backend may legitimately return nothing inside the radius
    // (approximate or filtered indexes, external-query adapters);
    // ballTable must still emit full entries seeded with the centroid.
    class EmptyBackend final : public SearchBackend
    {
      public:
        explicit EmptyBackend(const PointsView &p) : SearchBackend(p) {}
        const char *name() const override { return "empty"; }
        std::vector<int32_t>
        knn(const float *, int32_t) const override
        {
            return {};
        }
        std::vector<int32_t>
        radius(const float *, float, int32_t) const override
        {
            return {};
        }
    };

    Rng rng(9);
    auto data = randomRows(rng, 30, 3);
    PointsView v(data.data(), 30, 3);
    EmptyBackend backend(v);
    std::vector<int32_t> queries{3, 11, 29};
    auto nit = backend.ballTable(queries, 0.5f, 4);
    ASSERT_EQ(nit.size(), 3);
    for (int32_t i = 0; i < nit.size(); ++i) {
        ASSERT_EQ(nit[i].neighbors.size(), 4u);
        for (int32_t n : nit[i].neighbors)
            EXPECT_EQ(n, queries[i]);
    }
    // The padded table satisfies the AU's non-empty-entry requirement.
    hwsim::AggregationUnit au(hwsim::AuConfig{}, hwsim::NpuConfig{},
                              hwsim::EnergyConfig{});
    auto stats = au.aggregate(nit, 30, 8);
    EXPECT_GT(stats.cycles, 0);
}

TEST(BackendRegistry, ShipsThreeBackends)
{
    auto names = registeredBackendNames();
    EXPECT_NE(std::find(names.begin(), names.end(), "brute_force"),
              names.end());
    EXPECT_NE(std::find(names.begin(), names.end(), "grid"),
              names.end());
    EXPECT_NE(std::find(names.begin(), names.end(), "kdtree"),
              names.end());
}

TEST(BackendRegistry, NamesRoundTripAndRejectUnknown)
{
    EXPECT_EQ(backendFromName("auto"), Backend::Auto);
    for (Backend b :
         {Backend::BruteForce, Backend::Grid, Backend::KdTree})
        EXPECT_EQ(backendFromName(backendName(b)), b);
    EXPECT_THROW(backendFromName("octree"), mesorasi::UsageError);

    Rng rng(6);
    auto data = randomRows(rng, 10, 3);
    PointsView v(data.data(), 10, 3);
    EXPECT_THROW(makeBackendByName("octree", v), mesorasi::UsageError);
}

TEST(BackendRegistry, CustomBackendIsConstructible)
{
    registerSearchBackend(
        "test_alias", [](const PointsView &p, const SearchHints &h) {
            return makeBackendByName("brute_force", p, h);
        });
    Rng rng(7);
    auto data = randomRows(rng, 20, 3);
    PointsView v(data.data(), 20, 3);
    auto backend = makeBackendByName("test_alias", v);
    EXPECT_STREQ(backend->name(), "brute_force");
    auto nit = backend->knnTable({0, 5}, 3);
    EXPECT_EQ(nit.size(), 2);
}

TEST(AutoPolicy, PicksSensibleBackends)
{
    Rng rng(8);
    auto small = randomRows(rng, 64, 3);
    auto big = randomRows(rng, 4096, 3);
    auto feat = randomRows(rng, 1024, 64);

    SearchHints knn_hints;
    knn_hints.k = 16;
    SearchHints ball_hints;
    ball_hints.k = 32;
    ball_hints.radius = 0.2f;

    // Tiny cloud: index construction never pays off.
    EXPECT_EQ(chooseBackend({small.data(), 64, 3}, knn_hints),
              Backend::BruteForce);
    // 3-D ball query at scale: the grid.
    EXPECT_EQ(chooseBackend({big.data(), 4096, 3}, ball_hints),
              Backend::Grid);
    // 3-D k-NN at scale: the KD-tree.
    EXPECT_EQ(chooseBackend({big.data(), 4096, 3}, knn_hints),
              Backend::KdTree);
    // High-dimensional feature space (DGCNN): exhaustive scan.
    EXPECT_EQ(chooseBackend({feat.data(), 1024, 64}, knn_hints),
              Backend::BruteForce);

    // makeBackend(Auto) constructs what the policy picked.
    auto backend =
        makeBackend(Backend::Auto, {big.data(), 4096, 3}, ball_hints);
    EXPECT_STREQ(backend->name(), "grid");
}

TEST(AutoPolicy, GridRefusesNon3d)
{
    Rng rng(9);
    auto data = randomRows(rng, 100, 5);
    PointsView v(data.data(), 100, 5);
    EXPECT_THROW(makeBackend(Backend::Grid, v), mesorasi::UsageError);
}

// --- Pipeline-level parity: the executor must produce identical
// features no matter which backend answers the N stage. --------------

core::ModuleState
torusState(int32_t n)
{
    Rng rng(11);
    core::ModuleState state;
    state.coords = tensor::Tensor(n, 3);
    for (int32_t i = 0; i < n; ++i) {
        float u = rng.uniform(0.0f, 6.2831853f);
        float w = rng.uniform(0.0f, 6.2831853f);
        float r = 0.7f + 0.25f * std::cos(w);
        state.coords(i, 0) = r * std::cos(u);
        state.coords(i, 1) = r * std::sin(u);
        state.coords(i, 2) = 0.25f * std::sin(w);
    }
    state.features = state.coords;
    return state;
}

TEST(BackendRegistry, PipelineRoutesThroughCustomBackend)
{
    registerSearchBackend(
        "counting", [](const PointsView &p, const SearchHints &h) {
            return makeBackendByName("brute_force", p, h);
        });
    core::ModuleConfig cfg;
    cfg.name = "m";
    cfg.numCentroids = 32;
    cfg.k = 8;
    cfg.search = core::SearchKind::Knn;
    cfg.customBackend = "counting";
    cfg.mlpWidths = {16};
    Rng wrng(3);
    core::ModuleExecutor ex(cfg, 3, wrng);
    core::ModuleState state = torusState(128);
    Rng srng(4);
    core::ModuleResult r =
        ex.run(state, core::PipelineKind::Delayed, srng);
    EXPECT_EQ(r.out.features.rows(), 32);

    cfg.customBackend = "no_such_backend";
    core::ModuleExecutor bad(cfg, 3, wrng);
    Rng srng2(4);
    EXPECT_THROW(bad.run(state, core::PipelineKind::Delayed, srng2),
                 mesorasi::UsageError);
}

TEST(BackendParity, PipelineOutputsIdenticalAcrossBackends)
{
    core::ModuleState state = torusState(512);
    for (core::SearchKind search :
         {core::SearchKind::Knn, core::SearchKind::Ball}) {
        std::optional<tensor::Tensor> ref;
        for (Backend b :
             {Backend::BruteForce, Backend::Grid, Backend::KdTree}) {
            core::ModuleConfig cfg;
            cfg.name = "m";
            cfg.numCentroids = 128;
            cfg.k = 16;
            cfg.search = search;
            cfg.radius = 0.3f;
            cfg.backend = b;
            cfg.mlpWidths = {32, 64};
            Rng wrng(3);
            core::ModuleExecutor ex(cfg, 3, wrng);
            Rng srng(4);
            core::ModuleResult r =
                ex.run(state, core::PipelineKind::Delayed, srng);
            if (!ref)
                ref = r.out.features;
            else
                EXPECT_EQ(ref->maxAbsDiff(r.out.features), 0.0f)
                    << "backend " << backendName(b);
        }
    }
}

} // namespace
} // namespace mesorasi::neighbor
