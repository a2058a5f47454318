/**
 * @file
 * CompiledEngine tests:
 *
 *  1. Arena planning: overlapping live ranges never share bytes;
 *     disjoint live ranges alias (planned size < naive size).
 *  2. Bitwise parity: a compiled plan executed repeatedly produces
 *     logits bitwise identical to the sequential reference, across
 *     all 3 pipelines x all 3 backends, across reps and seeds, for
 *     plain / concat-head / linked / interp-decoder / detection
 *     network shapes.
 *  3. Re-entrancy: concurrent evaluations on separate contexts (the
 *     plan-cached BatchRunner path, 1 vs 4 cloud workers) match the
 *     serial walk bitwise.
 *  4. Zero allocation: after the first evaluation warms the context,
 *     plan.execute on the cached brute-force backend performs zero
 *     heap allocation (global operator-new hook, force-inline pool).
 *  5. Compile-time backend resolution follows the hwsim cost model.
 *  6. The Workspace debug ownership guard trips on double claims.
 */
#include <gtest/gtest.h>

#include <cstdlib>
#include <new>
#include <thread>
#include <vector>

#include "common/thread_pool.hpp"
#include "common/workspace.hpp"
#include "core/batch_runner.hpp"
#include "core/networks.hpp"
#include "core/plan/arena.hpp"
#include "core/plan/plan_compiler.hpp"
#include "geom/datasets.hpp"

// --- Test allocator hook (as in test_fused_ops) -----------------------

namespace {

thread_local int64_t t_alloc_count = 0;
thread_local bool t_count_allocs = false;

struct AllocCounterScope
{
    AllocCounterScope()
    {
        t_alloc_count = 0;
        t_count_allocs = true;
    }
    ~AllocCounterScope() { t_count_allocs = false; }
    int64_t count() const { return t_alloc_count; }
};

} // namespace

void *
operator new(std::size_t n)
{
    if (t_count_allocs)
        ++t_alloc_count;
    void *p = std::malloc(n ? n : 1);
    if (!p)
        throw std::bad_alloc();
    return p;
}

void *
operator new[](std::size_t n)
{
    return ::operator new(n);
}

// The nothrow variants must be replaced too (std::stable_sort's
// temporary buffer uses them): leaving them to the default operator
// new while delete routes to free() trips ASan's alloc-dealloc-
// mismatch check.
void *
operator new(std::size_t n, const std::nothrow_t &) noexcept
{
    if (t_count_allocs)
        ++t_alloc_count;
    return std::malloc(n ? n : 1);
}

void *
operator new[](std::size_t n, const std::nothrow_t &tag) noexcept
{
    return ::operator new(n, tag);
}

void operator delete(void *p) noexcept { std::free(p); }
void operator delete(void *p, std::size_t) noexcept { std::free(p); }
void operator delete[](void *p) noexcept { std::free(p); }
void operator delete[](void *p, std::size_t) noexcept { std::free(p); }
void operator delete(void *p, const std::nothrow_t &) noexcept
{
    std::free(p);
}
void operator delete[](void *p, const std::nothrow_t &) noexcept
{
    std::free(p);
}

namespace mesorasi::core::plan {
namespace {

using geom::PointCloud;
using tensor::Tensor;

// --- Miniature networks covering every compiled shape -----------------

ModuleConfig
miniSa(const std::string &name, int32_t centroids, int32_t k,
       float radius, std::vector<int32_t> widths)
{
    ModuleConfig m;
    m.name = name;
    m.numCentroids = centroids;
    m.k = k;
    m.search = SearchKind::Ball;
    m.sampling = SamplingKind::Random;
    m.radius = radius;
    m.mlpWidths = std::move(widths);
    return m;
}

ModuleConfig
miniKnn(const std::string &name, int32_t centroids, int32_t k,
        std::vector<int32_t> widths)
{
    ModuleConfig m = miniSa(name, centroids, k, 0.2f, std::move(widths));
    m.search = SearchKind::Knn;
    return m;
}

ModuleConfig
miniGlobal(const std::string &name, std::vector<int32_t> widths)
{
    ModuleConfig m;
    m.name = name;
    m.search = SearchKind::Global;
    m.mlpWidths = std::move(widths);
    return m;
}

ModuleConfig
miniEdge(const std::string &name, int32_t k, int32_t width)
{
    ModuleConfig m;
    m.name = name;
    m.k = k;
    m.search = SearchKind::Knn;
    m.space = SearchSpace::Features;
    m.sampling = SamplingKind::All;
    m.aggregation = AggregationKind::ConcatCentroidDifference;
    m.mlpWidths = {width};
    return m;
}

/** Coords-space net: Ball + Knn + Global modules, plain FC head. All
 *  searches are 3-D, so every backend (incl. grid) can answer them. */
NetworkConfig
miniPointNet()
{
    NetworkConfig net;
    net.name = "mini-pnpp";
    net.numInputPoints = 256;
    net.numClasses = 8;
    net.modules = {
        miniSa("sa1", 96, 16, 0.3f, {32, 32}),
        miniKnn("sa2", 32, 12, {32, 64}),
        miniGlobal("sa3", {64, 96}),
    };
    net.headWidths = {64};
    return net;
}

/** miniPointNet with farthest-point sampling in both searching
 *  modules: the only ResolveSample mode that reads a buffer. */
NetworkConfig
miniFpsNet()
{
    NetworkConfig net = miniPointNet();
    net.name = "mini-pnpp-fps";
    net.modules[0].sampling = SamplingKind::FarthestPoint;
    net.modules[1].sampling = SamplingKind::FarthestPoint;
    return net;
}

/** Linked EdgeConv net with a DGCNN concat head (feature-space k-NN,
 *  concat aggregation, single-layer MLPs). */
NetworkConfig
miniEdgeNet()
{
    NetworkConfig net;
    net.name = "mini-edge";
    net.numInputPoints = 128;
    net.numClasses = 6;
    net.linkedInputs = true;
    net.modules = {miniEdge("ec1", 8, 16), miniEdge("ec2", 8, 24)};
    net.concatModuleOutputs = true;
    net.globalMlpWidths = {64};
    net.headWidths = {32};
    return net;
}

/** Segmentation net with an interpolation decoder. */
NetworkConfig
miniSegNet()
{
    NetworkConfig net;
    net.name = "mini-seg";
    net.task = Task::Segmentation;
    net.numInputPoints = 128;
    net.numClasses = 5;
    net.modules = {
        miniSa("sa1", 48, 12, 0.35f, {16, 32}),
        miniGlobal("sa2", {32, 64}),
    };
    InterpModuleConfig fp1;
    fp1.name = "fp1";
    fp1.mlpWidths = {32};
    InterpModuleConfig fp2;
    fp2.name = "fp2";
    fp2.mlpWidths = {16};
    net.interpModules = {fp1, fp2};
    net.headWidths = {16};
    return net;
}

/** Detection net: encoder + two global stage-2 branches + box head. */
NetworkConfig
miniDetNet()
{
    NetworkConfig net;
    net.name = "mini-det";
    net.task = Task::Detection;
    net.numInputPoints = 96;
    net.numClasses = 2;
    net.modules = {
        miniSa("sa1", 32, 8, 0.4f, {16, 16}),
        miniGlobal("sa2", {32}),
    };
    net.headWidths = {16};
    net.stage2Modules = {miniGlobal("tnet", {16, 32}),
                         miniGlobal("boxnet", {32})};
    net.stage2HeadWidths = {16};
    net.stage2Outputs = 11;
    return net;
}

PointCloud
cloudFor(const NetworkConfig &cfg, uint64_t seed = 17)
{
    geom::ModelNetSim sim(seed, cfg.numInputPoints);
    return sim.sample().cloud;
}

void
expectBitwise(const Tensor &a, const Tensor &b, const std::string &what)
{
    ASSERT_EQ(a.rows(), b.rows()) << what;
    ASSERT_EQ(a.cols(), b.cols()) << what;
    EXPECT_EQ(a.maxAbsDiff(b), 0.0f) << what;
}

/** Plan logits vs reference logits, several reps and seeds. */
void
checkParity(const NetworkConfig &cfg, PipelineKind kind,
            const std::string &what)
{
    NetworkExecutor exec(cfg, /*weightSeed=*/3);
    CompiledEngine plan = PlanCompiler::compile(exec, kind);
    auto ctx = plan.makeContext();
    PointCloud cloud = cloudFor(cfg);
    PointCloud cloud2 = cloudFor(cfg, 23);

    for (uint64_t seed : {1ull, 9ull}) {
        Tensor ref = exec.run(cloud, kind, seed).logits;
        // Same compiled plan, executed repeatedly on one context.
        for (int rep = 0; rep < 2; ++rep) {
            const Tensor &got = plan.execute(cloud, seed, *ctx);
            expectBitwise(got, ref,
                          what + " seed " + std::to_string(seed) +
                              " rep " + std::to_string(rep));
        }
    }
    // A different cloud through the same warm context.
    Tensor ref2 = exec.run(cloud2, kind, 5).logits;
    expectBitwise(plan.execute(cloud2, 5, *ctx), ref2, what + " cloud2");
}

// --- Arena planner ----------------------------------------------------

TEST(ArenaPlanner, OverlappingLivesNeverShareBytes)
{
    ArenaPlanner p;
    int32_t a = p.add(100, 0);
    p.extendLive(a, 3);
    int32_t b = p.add(50, 2); // overlaps a at steps 2..3
    p.extendLive(b, 4);
    int32_t c = p.add(80, 1); // overlaps both
    p.extendLive(c, 5);
    p.plan();

    auto overlaps = [&](int32_t x, int32_t y) {
        int64_t xo = p.offset(x), yo = p.offset(y);
        int64_t xs = p.buffer(x).floats, ys = p.buffer(y).floats;
        return xo < yo + ys && yo < xo + xs;
    };
    EXPECT_FALSE(overlaps(a, b));
    EXPECT_FALSE(overlaps(a, c));
    EXPECT_FALSE(overlaps(b, c));
}

TEST(ArenaPlanner, DisjointLivesAlias)
{
    ArenaPlanner p;
    int32_t a = p.add(1000, 0);
    p.extendLive(a, 1);
    int32_t b = p.add(1000, 2); // dead a: may reuse its bytes
    p.extendLive(b, 3);
    int64_t total = p.plan();
    EXPECT_EQ(p.offset(a), p.offset(b));
    EXPECT_LT(total, p.naiveFloats());
}

// --- Bitwise parity ---------------------------------------------------

TEST(CompiledEngine, ParityAcrossPipelinesAndBackends)
{
    for (const NetworkConfig &base : {miniPointNet(), miniFpsNet()}) {
        for (PipelineKind kind :
             {PipelineKind::Original, PipelineKind::Delayed,
              PipelineKind::LtdDelayed}) {
            for (neighbor::Backend backend :
                 {neighbor::Backend::BruteForce, neighbor::Backend::Grid,
                  neighbor::Backend::KdTree}) {
                NetworkConfig cfg = base;
                cfg.backend = backend;
                checkParity(cfg, kind,
                            base.name + "/" + pipelineName(kind) + "/" +
                                neighbor::backendName(backend));
            }
        }
    }
}

TEST(CompiledEngine, ParityAutoBackendCostModel)
{
    // Backend::Auto resolves through the hwsim cost model at compile
    // time; whatever it picks must reproduce the per-run path's bits.
    checkParity(miniPointNet(), PipelineKind::Delayed, "auto-resolved");
}

TEST(CompiledEngine, ParityLinkedConcatHead)
{
    NetworkConfig cfg = miniEdgeNet();
    for (PipelineKind kind :
         {PipelineKind::Original, PipelineKind::Delayed,
          PipelineKind::LtdDelayed})
        checkParity(cfg, kind,
                    std::string("edge/") + pipelineName(kind));

    // The reference answers its k-NN through the same batched
    // brute-force code as the engine, so also check the engine's
    // feature-space searches against a KD-tree reference run: an
    // oracle that shares no k-NN code with it.
    NetworkConfig bf = cfg, kd = cfg;
    bf.backend = neighbor::Backend::BruteForce;
    kd.backend = neighbor::Backend::KdTree;
    PointCloud cloud = cloudFor(cfg);
    for (PipelineKind kind :
         {PipelineKind::Original, PipelineKind::Delayed,
          PipelineKind::LtdDelayed}) {
        NetworkExecutor execBf(bf, /*weightSeed=*/3);
        NetworkExecutor execKd(kd, /*weightSeed=*/3);
        CompiledEngine plan = PlanCompiler::compile(execBf, kind);
        auto ctx = plan.makeContext();
        for (uint64_t seed : {1ull, 9ull})
            expectBitwise(plan.execute(cloud, seed, *ctx),
                          execKd.run(cloud, kind, seed).logits,
                          std::string("edge brute_force vs kdtree/") +
                              pipelineName(kind));
    }
}

TEST(CompiledEngine, ParityInterpDecoder)
{
    checkParity(miniSegNet(), PipelineKind::Delayed, "seg");
    checkParity(miniSegNet(), PipelineKind::Original, "seg-orig");
}

TEST(CompiledEngine, ParityDetection)
{
    checkParity(miniDetNet(), PipelineKind::Delayed, "det");
}

TEST(CompiledEngine, ParityFullZooNetwork)
{
    // One full-size network from the zoo end to end.
    NetworkConfig cfg = zoo::pointnetppClassification();
    NetworkExecutor exec(cfg, 1);
    CompiledEngine plan = PlanCompiler::compile(exec, PipelineKind::Delayed);
    auto ctx = plan.makeContext();
    PointCloud cloud = cloudFor(cfg);
    Tensor ref = exec.run(cloud, PipelineKind::Delayed, 7).logits;
    expectBitwise(plan.execute(cloud, 7, *ctx), ref, "pnpp full");
    // The arena plan must actually alias buffers on a deep network.
    EXPECT_LT(plan.stats().arenaFloats, plan.stats().naiveFloats);
}

// --- Descriptor completeness ------------------------------------------

TEST(CompiledEngine, NoGenericStepsAcrossPipelinesAndShapes)
{
    // The IR is descriptor-complete: every emitted step is a structured
    // op the passes (and the serializer) understand. OpKind::Generic is
    // the invalid sentinel — it must never appear, in head descriptors
    // or fused tails, with the optimizer on or off (off exposes the raw
    // emission, including steps DCE would drop).
    for (const NetworkConfig &cfg : {miniPointNet(), miniEdgeNet(),
                                     miniSegNet(), miniDetNet()}) {
        NetworkExecutor exec(cfg, /*weightSeed=*/3);
        for (PipelineKind kind :
             {PipelineKind::Original, PipelineKind::Delayed,
              PipelineKind::LtdDelayed}) {
            for (auto enable : {PassOptions::Enable::Off,
                                PassOptions::Enable::On}) {
                CompileOptions opts;
                opts.passes.enable = enable;
                CompiledEngine eng =
                    PlanCompiler::compile(exec, kind, opts);
                ASSERT_GT(eng.steps().size(), 0u);
                for (const StepIR &s : eng.steps()) {
                    EXPECT_NE(s.desc.op, OpKind::Generic)
                        << cfg.name << "/" << pipelineName(kind) << ": "
                        << s.name;
                    for (const OpDesc &t : s.tail)
                        EXPECT_NE(t.op, OpKind::Generic)
                            << cfg.name << "/" << pipelineName(kind)
                            << ": " << s.name << " (tail)";
                }
            }
        }
    }
}

// --- Scheduling / re-entrancy -----------------------------------------

TEST(CompiledEngine, SerialAndPooledExecutionsMatch)
{
    NetworkConfig cfg = miniPointNet();
    NetworkExecutor exec(cfg, 3);
    CompiledEngine plan = PlanCompiler::compile(exec, PipelineKind::Delayed);
    PointCloud cloud = cloudFor(cfg);

    auto ctxSerial = plan.makeContext();
    Tensor serial;
    {
        ThreadPool::ScopedForceInline inlineAll;
        serial = plan.execute(cloud, 11, *ctxSerial);
    }
    auto ctxPooled = plan.makeContext();
    expectBitwise(plan.execute(cloud, 11, *ctxPooled), serial,
                  "pooled vs serial");
}

TEST(CompiledEngine, PlanCachedBatchMatchesReference)
{
    NetworkConfig cfg = miniPointNet();
    NetworkExecutor exec(cfg, 3);
    CompiledEngine plan = PlanCompiler::compile(exec, PipelineKind::Delayed);

    std::vector<PointCloud> clouds;
    geom::ModelNetSim sim(29, cfg.numInputPoints);
    for (int i = 0; i < 6; ++i)
        clouds.push_back(sim.sample().cloud);

    BatchRunner serial(/*numThreads=*/1);
    BatchRunner parallel(/*numThreads=*/4);

    ContextPool ctxPool(plan);
    // Reuse the pool across calls: contexts stay warm, and concurrent
    // evaluations (4 cloud workers) each get their own arena.
    BatchResult planSeq = serial.run(plan, clouds, 7, &ctxPool);
    BatchResult planPar = parallel.run(plan, clouds, 7, &ctxPool);

    ASSERT_EQ(planSeq.items.size(), clouds.size());
    for (size_t i = 0; i < clouds.size(); ++i) {
        Tensor ref = exec.run(clouds[i], PipelineKind::Delayed,
                              7 + static_cast<uint64_t>(i))
                         .logits;
        expectBitwise(planSeq.items[i].logits, ref,
                      "plan seq item " + std::to_string(i));
        expectBitwise(planPar.items[i].logits, ref,
                      "plan par item " + std::to_string(i));
        EXPECT_EQ(planSeq.items[i].predicted, planPar.items[i].predicted);
    }
    EXPECT_EQ(predictionAgreement(planSeq, planPar), 1.0);
}

TEST(CompiledEngine, ConcurrentContextsAreIndependent)
{
    NetworkConfig cfg = miniPointNet();
    NetworkExecutor exec(cfg, 3);
    CompiledEngine plan = PlanCompiler::compile(exec, PipelineKind::Delayed);
    PointCloud cloud = cloudFor(cfg);

    auto ref_ctx = plan.makeContext();
    Tensor ref = plan.execute(cloud, 13, *ref_ctx);

    // Four raw threads, each with its own context, same inputs.
    std::vector<Tensor> results(4);
    std::vector<std::thread> threads;
    for (int t = 0; t < 4; ++t) {
        threads.emplace_back([&, t] {
            auto ctx = plan.makeContext();
            for (int rep = 0; rep < 3; ++rep)
                results[static_cast<size_t>(t)] =
                    plan.execute(cloud, 13, *ctx);
        });
    }
    for (auto &th : threads)
        th.join();
    for (int t = 0; t < 4; ++t)
        expectBitwise(results[static_cast<size_t>(t)], ref,
                      "thread " + std::to_string(t));
}

// --- Zero allocation --------------------------------------------------

TEST(CompiledEngine, SteadyStateExecutesWithoutHeapAllocation)
{
    // 3-D searches (miniPointNet) and feature-space k-NN through the
    // query-blocked brute-force path (miniEdgeNet).
    for (NetworkConfig cfg : {miniPointNet(), miniEdgeNet()}) {
        cfg.backend = neighbor::Backend::BruteForce; // no per-run build
        NetworkExecutor exec(cfg, 3);
        CompiledEngine plan =
            PlanCompiler::compile(exec, PipelineKind::Delayed);
        auto ctx = plan.makeContext();
        PointCloud cloud = cloudFor(cfg);

        // All work on this thread so the thread-local hook sees every
        // allocation; two warm-up passes grow every grow-only buffer.
        ThreadPool::ScopedForceInline inlineAll;
        plan.execute(cloud, 7, *ctx);
        plan.execute(cloud, 7, *ctx);

        int64_t allocs;
        {
            AllocCounterScope counter;
            plan.execute(cloud, 7, *ctx);
            allocs = counter.count();
        }
        EXPECT_EQ(allocs, 0)
            << cfg.name << ": plan.execute allocated in steady state";
    }
}

// --- Compile-time backend resolution ----------------------------------

TEST(PlanCompiler, CostModelResolution)
{
    // Large 3-D ball workload: the grid's ~8k candidates beat both the
    // exhaustive scan and the tree.
    ModuleIo ball;
    ball.nIn = 4096;
    ball.nOut = 1024;
    ball.k = 32;
    ball.searchDim = 3;
    EXPECT_EQ(PlanCompiler::resolveAutoBackend(ball, /*knn=*/false),
              neighbor::Backend::Grid);

    // Tiny cloud: index builds cannot amortize.
    ModuleIo tiny = ball;
    tiny.nIn = 64;
    tiny.nOut = 16;
    EXPECT_EQ(PlanCompiler::resolveAutoBackend(tiny, /*knn=*/true),
              neighbor::Backend::BruteForce);

    // High-dimensional feature-space k-NN: tree pruning collapses,
    // grid is infeasible.
    ModuleIo feat = ball;
    feat.nIn = 1024;
    feat.nOut = 1024;
    feat.searchDim = 24;
    EXPECT_EQ(PlanCompiler::resolveAutoBackend(feat, /*knn=*/true),
              neighbor::Backend::BruteForce);
    EXPECT_EQ(PlanCompiler::plannedSearchCostMs(neighbor::Backend::Grid,
                                                feat, true),
              std::numeric_limits<double>::infinity());

    // The non-cost-model fallback replays chooseBackend on the shape.
    CompileOptions heur;
    heur.costModelBackendSelection = false;
    EXPECT_EQ(PlanCompiler::resolveAutoBackend(ball, /*knn=*/false, heur),
              neighbor::Backend::Grid);
    EXPECT_EQ(PlanCompiler::resolveAutoBackend(feat, /*knn=*/true, heur),
              neighbor::Backend::BruteForce);
}

// --- Workspace ownership guard ----------------------------------------

TEST(WorkspaceGuard, DoubleClaimTrips)
{
#ifdef NDEBUG
    GTEST_SKIP() << "ownership guard is compiled out of release builds";
#else
    Workspace &ws = Workspace::local();
    Workspace::ScopedClaim first(ws, Workspace::kScratch);
    EXPECT_THROW(
        { Workspace::ScopedClaim second(ws, Workspace::kScratch); },
        InternalError);
    // Distinct slots coexist.
    Workspace::ScopedClaim other(ws, Workspace::kDistOut);
#endif
}

TEST(WorkspaceGuard, ReclaimAfterReleaseIsFine)
{
    Workspace &ws = Workspace::local();
    { Workspace::ScopedClaim a(ws, Workspace::kScratch); }
    { Workspace::ScopedClaim b(ws, Workspace::kScratch); }
    SUCCEED();
}

} // namespace
} // namespace mesorasi::core::plan
