/**
 * @file
 * Plan optimizer pass-pipeline tests:
 *
 *  1. Dead-step elimination: detection plans execute strictly fewer
 *     steps over a strictly smaller arena (the unread encoder tail is
 *     dropped); a synthetic IR shows the post-DCE re-plan shrinking
 *     offsets while overlapping live ranges still never share bytes.
 *  2. Bitwise parity: logits of an optimized plan equal the
 *     unoptimized plan and the sequential reference bit for bit,
 *     across 3 pipelines x 3 backends and the concat-head / interp-
 *     decoder / detection network shapes.
 *  3. Epilogue fusion: adjacent aggregate/bias epilogues fold into
 *     their producers ("+sub"/"+tail" step names, fused notes).
 *  4. PFT layout selection: the hwsim cost model's decision function,
 *     the in-place aligned layout on a width-30 PFT (ld > cols with
 *     unchanged bits), and the synthetic-IR proof that the rewrite is
 *     a one-word ld change — no conversion steps, no new buffers, no
 *     rewiring (the descriptor-complete IR has no opaque producers).
 *  5. Satellites: sampler/search DCE liveness (a dead search branch is
 *     actually eliminated), BatchRunner worker clamping, strided
 *     PointsView / dist2Batch parity over padded rows,
 *     CompiledEngine::dump content.
 *
 * Every compile here pins PassOptions::Enable to On or Off explicitly,
 * so the suite is green regardless of the MESORASI_PLAN_PASSES
 * environment (the CI passes-off leg runs it with the pipeline
 * disabled by default).
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include "common/thread_pool.hpp"
#include "core/batch_runner.hpp"
#include "core/networks.hpp"
#include "core/plan/passes/pass.hpp"
#include "core/plan/plan_compiler.hpp"
#include "core/plan/step_ir.hpp"
#include "geom/datasets.hpp"
#include "hwsim/config.hpp"
#include "neighbor/dist_batch.hpp"
#include "neighbor/points_view.hpp"
#include "tensor/ops.hpp"

namespace mesorasi::core::plan {
namespace {

using geom::PointCloud;
using tensor::Tensor;

// --- Miniature networks (as in test_plan.cpp) -------------------------

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

/** miniPointNet with a 30-wide PFT: 120-byte rows straddle cache lines,
 *  so the layout pass's cost model picks the aligned-blocked layout. */
NetworkConfig
miniRaggedNet()
{
    NetworkConfig net = miniPointNet();
    net.name = "mini-ragged";
    net.modules[0].mlpWidths = {32, 30};
    net.modules[1].mlpWidths = {30, 64};
    return net;
}

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

CompileOptions
passesOff()
{
    CompileOptions o;
    o.passes.enable = PassOptions::Enable::Off;
    return o;
}

CompileOptions
passesOn()
{
    CompileOptions o;
    o.passes.enable = PassOptions::Enable::On;
    return o;
}

void
expectBitwise(const Tensor &a, const Tensor &b, const std::string &what)
{
    ASSERT_EQ(a.rows(), b.rows()) << what;
    ASSERT_EQ(a.cols(), b.cols()) << what;
    EXPECT_EQ(a.maxAbsDiff(b), 0.0f) << what;
}

/** Optimized and unoptimized plans vs the sequential reference, bitwise,
 *  over several seeds on warm contexts. */
void
checkOptimizedParity(const NetworkConfig &cfg, PipelineKind kind,
                     const std::string &what,
                     const CompileOptions &optimized = passesOn())
{
    NetworkExecutor exec(cfg, /*weightSeed=*/3);
    CompiledEngine off = PlanCompiler::compile(exec, kind, passesOff());
    CompiledEngine on = PlanCompiler::compile(exec, kind, optimized);
    auto ctxOff = off.makeContext();
    auto ctxOn = on.makeContext();
    PointCloud cloud = cloudFor(cfg);

    for (uint64_t seed : {1ull, 9ull}) {
        Tensor ref = exec.run(cloud, kind, seed).logits;
        expectBitwise(off.execute(cloud, seed, *ctxOff), ref,
                      what + " unoptimized seed " + std::to_string(seed));
        expectBitwise(on.execute(cloud, seed, *ctxOn), ref,
                      what + " optimized seed " + std::to_string(seed));
    }
}

bool
hasStepNamed(const CompiledEngine &plan, const std::string &substr)
{
    for (const StepIR &s : plan.steps())
        if (s.name.find(substr) != std::string::npos)
            return true;
    return false;
}

// --- Dead-step elimination --------------------------------------------

TEST(DeadStepElimination, DetectionDropsEncoderTail)
{
    // Detection stage 2 reads only the raw input features, so the
    // whole encoder is compiled but never consumed: DCE must execute
    // strictly fewer steps over a strictly smaller arena, bitwise
    // unchanged. Stage-2 branches are slim here so the encoder
    // dominates the pre-DCE arena peak — with fat stage-2 buffers the
    // planner aliases the dead encoder into them and only the step
    // count (not the arena) would shrink.
    NetworkConfig cfg = miniDetNet();
    cfg.stage2Modules = {miniGlobal("tnet", {8}),
                         miniGlobal("boxnet", {8})};
    NetworkExecutor exec(cfg, 3);
    CompiledEngine off =
        PlanCompiler::compile(exec, PipelineKind::Delayed, passesOff());
    CompiledEngine on =
        PlanCompiler::compile(exec, PipelineKind::Delayed, passesOn());

    EXPECT_LT(on.stats().numSteps, off.stats().numSteps);
    EXPECT_LT(on.stats().arenaFloats, off.stats().arenaFloats);
    EXPECT_GT(on.stats().stepsRemoved, 0);
    EXPECT_EQ(on.stats().numStepsPrePass, off.stats().numSteps);
    // The encoder modules are gone; stage 2 and the box head survive.
    EXPECT_FALSE(hasStepNamed(on, "sa1."));
    EXPECT_TRUE(hasStepNamed(on, "tnet.feature"));
    EXPECT_TRUE(hasStepNamed(on, "head.box"));

    for (const PassStat &p : off.passStats())
        EXPECT_FALSE(p.ran) << p.pass;
    // Every pass runs except quantize_pft, which needs a calibration
    // table.
    for (const PassStat &p : on.passStats())
        EXPECT_EQ(p.ran, p.pass != "quantize_pft") << p.pass;

    auto ctxOff = off.makeContext();
    auto ctxOn = on.makeContext();
    PointCloud cloud = cloudFor(cfg);
    expectBitwise(on.execute(cloud, 7, *ctxOn),
                  off.execute(cloud, 7, *ctxOff), "det optimized");
}

TEST(DeadStepElimination, DropsDeadSamplerAndSearchSteps)
{
    // Sampler draws, sample resolution, and neighbor searches are
    // ordinary descriptor steps with declared read/write sets, so they
    // participate in liveness like any compute step. In the detection
    // plan the encoder branch that consumes them is dead: the whole
    // sampler/search chain must vanish with passes on, and exist with
    // passes off.
    NetworkExecutor exec(miniDetNet(), 3);
    CompiledEngine off =
        PlanCompiler::compile(exec, PipelineKind::Delayed, passesOff());
    CompiledEngine on =
        PlanCompiler::compile(exec, PipelineKind::Delayed, passesOn());

    auto countOp = [](const CompiledEngine &e, OpKind k) {
        int n = 0;
        for (const StepIR &s : e.steps()) {
            n += s.desc.op == k ? 1 : 0;
            for (const OpDesc &t : s.tail)
                n += t.op == k ? 1 : 0;
        }
        return n;
    };
    for (OpKind k : {OpKind::RngDraw, OpKind::ResolveSample,
                     OpKind::SearchNit}) {
        EXPECT_GT(countOp(off, k), 0)
            << "unoptimized plan lost op kind " << opKindName(k);
        EXPECT_EQ(countOp(on, k), 0)
            << "dead " << opKindName(k) << " survived DCE";
    }

    // Eliminating the dead search branch leaves the logits bitwise
    // unchanged.
    auto ctxOff = off.makeContext();
    auto ctxOn = on.makeContext();
    PointCloud cloud = cloudFor(miniDetNet());
    expectBitwise(on.execute(cloud, 5, *ctxOn),
                  off.execute(cloud, 5, *ctxOff), "sampler DCE");
}

TEST(DeadStepElimination, FullZooDetectionShrinks)
{
    // Compile-only (no execution): the full F-PointNet from the zoo.
    NetworkConfig cfg = zoo::fPointNet();
    NetworkExecutor exec(cfg, 1);
    CompiledEngine off =
        PlanCompiler::compile(exec, PipelineKind::Delayed, passesOff());
    CompiledEngine on =
        PlanCompiler::compile(exec, PipelineKind::Delayed, passesOn());
    EXPECT_LT(on.stats().numSteps, off.stats().numSteps);
    // F-PointNet's stage-2 feature buffers (1024x512) dominate the
    // arena peak, so the dead encoder aliases into them either way:
    // the live footprint can only stay equal, while the registered
    // (naive) footprint strictly shrinks with the dead buffers gone.
    EXPECT_LE(on.stats().arenaFloats, off.stats().arenaFloats);
    EXPECT_LT(on.stats().naiveFloats, off.stats().naiveFloats);
}

TEST(DeadStepElimination, SyntheticReplanShrinksArena)
{
    // a feeds b feeds the logits; one step computes an unread buffer.
    PlanIR ir;
    int32_t a = ir.addBuffer(64, 16);
    int32_t b = ir.addBuffer(64, 16);
    int32_t dead = ir.addBuffer(256, 16);

    StepIR s0;
    s0.name = "produce.a";
    s0.writes = {a};
    ir.steps.push_back(s0);
    StepIR s1;
    s1.name = "a.to.b";
    s1.reads = {a};
    s1.writes = {b};
    ir.steps.push_back(s1);
    StepIR s2;
    s2.name = "wasted";
    s2.reads = {b};
    s2.writes = {dead};
    ir.steps.push_back(s2);
    StepIR s3;
    s3.name = "emit";
    s3.reads = {b};
    s3.writes = {kResLogits};
    s3.root = true;
    ir.steps.push_back(s3);

    ArenaPlanResult pre = planArenaFor(ir.steps, ir.bufs);
    ASSERT_GE(pre.planId[static_cast<size_t>(dead)], 0);

    PassStat stat;
    PassOptions opts;
    opts.enable = PassOptions::Enable::On;
    makeDeadStepElimination()->run(ir, opts, stat);

    EXPECT_EQ(stat.stepsRemoved, 1);
    ASSERT_EQ(ir.steps.size(), 3u);
    EXPECT_EQ(ir.steps[2].name, "emit");

    ArenaPlanResult post = planArenaFor(ir.steps, ir.bufs);
    // The unread buffer is dead and the arena shrinks.
    EXPECT_EQ(post.planId[static_cast<size_t>(dead)], -1);
    EXPECT_LT(post.planner.totalFloats(), pre.planner.totalFloats());
    EXPECT_EQ(post.planner.numBuffers(), 2u);
    // a and b overlap at the a.to.b step: they must not share bytes.
    int32_t pa = post.planId[static_cast<size_t>(a)];
    int32_t pb = post.planId[static_cast<size_t>(b)];
    ASSERT_GE(pa, 0);
    ASSERT_GE(pb, 0);
    int64_t ao = post.planner.offset(pa), bo = post.planner.offset(pb);
    int64_t as = post.planner.buffer(pa).floats;
    int64_t bs = post.planner.buffer(pb).floats;
    EXPECT_FALSE(ao < bo + bs && bo < ao + as)
        << "overlapping live ranges share bytes";
}

// --- Bitwise parity of the optimized plan -----------------------------

TEST(PassParity, AcrossPipelinesAndBackends)
{
    NetworkConfig base = miniPointNet();
    for (PipelineKind kind :
         {PipelineKind::Original, PipelineKind::Delayed,
          PipelineKind::LtdDelayed}) {
        for (neighbor::Backend backend :
             {neighbor::Backend::BruteForce, neighbor::Backend::Grid,
              neighbor::Backend::KdTree}) {
            NetworkConfig cfg = base;
            cfg.backend = backend;
            checkOptimizedParity(cfg, kind,
                                 std::string(pipelineName(kind)) + "/" +
                                     neighbor::backendName(backend));
        }
    }
}

TEST(PassParity, LinkedConcatHead)
{
    NetworkConfig cfg = miniEdgeNet();
    for (PipelineKind kind :
         {PipelineKind::Original, PipelineKind::Delayed,
          PipelineKind::LtdDelayed})
        checkOptimizedParity(cfg, kind,
                             std::string("edge/") + pipelineName(kind));
}

TEST(PassParity, InterpDecoder)
{
    checkOptimizedParity(miniSegNet(), PipelineKind::Delayed, "seg");
    checkOptimizedParity(miniSegNet(), PipelineKind::Original,
                         "seg-orig");
}

TEST(PassParity, Detection)
{
    checkOptimizedParity(miniDetNet(), PipelineKind::Delayed, "det");
}

// --- Epilogue fusion --------------------------------------------------

TEST(EpilogueFusion, FoldsDelayedCentroidSubtract)
{
    NetworkConfig cfg = miniPointNet();
    NetworkExecutor exec(cfg, 3);
    CompiledEngine off =
        PlanCompiler::compile(exec, PipelineKind::Delayed, passesOff());
    CompiledEngine on =
        PlanCompiler::compile(exec, PipelineKind::Delayed, passesOn());

    // Both delayed encoder modules fuse aggregate + centroid-subtract.
    EXPECT_EQ(on.stats().fusionsApplied, 2);
    EXPECT_TRUE(hasStepNamed(on, "sa1.aggregate+sub"));
    EXPECT_TRUE(hasStepNamed(on, "sa2.aggregate+sub"));
    EXPECT_FALSE(hasStepNamed(off, "+sub"));

    bool fusedNote = false;
    for (const StepIR &s : on.steps())
        fusedNote |= s.note.find("fused") != std::string::npos;
    EXPECT_TRUE(fusedNote);
}

TEST(EpilogueFusion, FoldsLtdBiasIntoTail)
{
    // LtdDelayed: the post-aggregation bias/ReLU step fuses with the
    // remaining MLP layers that follow it.
    NetworkConfig cfg = miniPointNet();
    NetworkExecutor exec(cfg, 3);
    CompiledEngine on = PlanCompiler::compile(
        exec, PipelineKind::LtdDelayed, passesOn());
    EXPECT_GE(on.stats().fusionsApplied, 2);
    EXPECT_TRUE(hasStepNamed(on, "+tail"));
}

TEST(EpilogueFusion, FoldsEdgeConvAddEpilogue)
{
    NetworkConfig cfg = miniEdgeNet();
    NetworkExecutor exec(cfg, 3);
    CompiledEngine on =
        PlanCompiler::compile(exec, PipelineKind::Delayed, passesOn());
    EXPECT_GE(on.stats().fusionsApplied, 1);
    EXPECT_TRUE(hasStepNamed(on, "+add"));
}

// --- PFT layout selection ---------------------------------------------

TEST(PftLayoutCostModel, DecisionFollowsGatherProfile)
{
    hwsim::GpuConfig gpu;
    // 30 floats = 120-byte rows straddling 64-byte lines, gathered hot:
    // aligning saves DRAM lines on every gathered row.
    GatherProfile hot{/*gatheredRows=*/1000000, /*producedRows=*/1000,
                     /*cols=*/30};
    EXPECT_EQ(chooseAlignedLayout(hot, gpu), PftLayout::AlignedBlocked);

    // 32-float rows are already line-aligned: nothing to gain.
    GatherProfile aligned{1000000, 1000, 32};
    EXPECT_EQ(chooseAlignedLayout(aligned, gpu), PftLayout::RowMajor);

    // Cold gather over a huge produced buffer: padding traffic
    // dominates the few gathered rows.
    GatherProfile cold{100, 1000000, 30};
    EXPECT_EQ(chooseAlignedLayout(cold, gpu), PftLayout::RowMajor);
}

TEST(PftLayoutSelection, AlignsRaggedPftInPlaceBitwise)
{
    // The width-30 PFT is produced and gathered by descriptor ops only,
    // so the cost-model decision applies in place: ld 30 -> 32, bits
    // unchanged (padding is never read).
    NetworkConfig cfg = miniRaggedNet();
    NetworkExecutor exec(cfg, 3);
    CompiledEngine on =
        PlanCompiler::compile(exec, PipelineKind::Delayed, passesOn());
    EXPECT_GE(on.stats().layoutsChanged, 1);
    bool padded = false;
    for (const BufferShape &bs : on.bufferShapes())
        padded |= bs.cols == 30 && bs.ld == 32;
    EXPECT_TRUE(padded) << "no 30-col buffer got the aligned ld";

    checkOptimizedParity(cfg, PipelineKind::Delayed, "ragged");

    // Forcing row-major keeps every buffer packed.
    CompileOptions rowMajor = passesOn();
    rowMajor.passes.forceLayout = PftLayout::RowMajor;
    CompiledEngine rm =
        PlanCompiler::compile(exec, PipelineKind::Delayed, rowMajor);
    EXPECT_EQ(rm.stats().layoutsChanged, 0);
    for (const BufferShape &bs : rm.bufferShapes())
        EXPECT_EQ(bs.ld, bs.cols);
}

TEST(PftLayoutSelection, RewritesLdInPlaceWithoutNewSteps)
{
    // Every producer is a descriptor whose strides freeze from the
    // buffer table at bake time, so the aligned layout is a one-word
    // in-place ld change: no conversion steps, no new buffers, no
    // consumer rewiring.
    PlanIR ir;
    int32_t src = ir.addBuffer(8, 30);
    int32_t out = ir.addBuffer(4, 30);

    StepIR produce;
    produce.name = "m.pft";
    produce.desc.op = OpKind::MlpForward;
    produce.desc.out = src;
    produce.desc.rows = 8;
    produce.desc.mlpId = 0;
    produce.writes = {src};
    ir.steps.push_back(produce);

    StepIR gather;
    gather.name = "m.aggregate";
    gather.desc.op = OpKind::AggGatherMax;
    gather.desc.in = src;
    gather.desc.out = out;
    gather.desc.rows = 4;
    gather.desc.cols = 30;
    gather.desc.k = 2;
    gather.desc.srcRows = 8;
    gather.reads = {src, virtNit(0)};
    gather.writes = {out};
    ir.steps.push_back(gather);

    StepIR emit;
    emit.name = "emit";
    emit.desc.op = OpKind::ReduceMaxAll;
    emit.desc.in = out;
    emit.desc.out = kResLogits;
    emit.desc.rows = 1;
    emit.desc.cols = 30;
    emit.desc.srcRows = 4;
    emit.reads = {out};
    emit.writes = {kResLogits};
    emit.root = true;
    ir.steps.push_back(emit);

    PassStat stat;
    PassOptions opts;
    opts.enable = PassOptions::Enable::On;
    opts.forceLayout = PftLayout::AlignedBlocked;
    makePftLayoutSelection()->run(ir, opts, stat);

    EXPECT_EQ(stat.layoutsChanged, 1);
    // In place: same steps, same buffers, same wiring.
    ASSERT_EQ(ir.steps.size(), 3u);
    ASSERT_EQ(ir.bufs.size(), 2u);
    EXPECT_EQ(ir.steps[1].desc.in, src);
    // The gathered buffer's ld is padded to the line; cols unchanged.
    EXPECT_EQ(ir.bufs[static_cast<size_t>(src)].cols, 30);
    EXPECT_EQ(ir.bufs[static_cast<size_t>(src)].ld, 32);
    // The ungathered output keeps its packed layout.
    EXPECT_EQ(ir.bufs[static_cast<size_t>(out)].ld, 30);
    // The producer carries the annotation.
    EXPECT_NE(ir.steps[0].note.find("aligned16"), std::string::npos);
}

// --- Satellite runtime checks ----------------------------------------

TEST(BatchRunnerClamp, OversizedRequestClampsToHardware)
{
    BatchRunner big(/*numThreads=*/1024);
    EXPECT_LE(big.numThreads(),
              std::max(1, ThreadPool::defaultThreads()));
    BatchRunner serial(/*numThreads=*/1);
    EXPECT_EQ(serial.numThreads(), 1);
}

TEST(StridedPoints, PaddedRowsMatchPackedBitwise)
{
    constexpr int32_t kN = 24, kDim = 3, kLd = 8;
    std::vector<float> packed(kN * kDim);
    for (size_t i = 0; i < packed.size(); ++i)
        packed[i] = static_cast<float>((7 * i) % 23) * 0.25f - 2.0f;
    std::vector<float> strided(kN * kLd, 99.0f); // poison the padding
    for (int32_t r = 0; r < kN; ++r)
        std::copy(packed.begin() + r * kDim,
                  packed.begin() + (r + 1) * kDim,
                  strided.begin() + r * kLd);

    neighbor::PointsView a(packed.data(), kN, kDim);
    neighbor::PointsView b(strided.data(), kN, kDim, kLd);
    const float query[kDim] = {0.3f, -1.2f, 0.9f};
    std::vector<int32_t> idx = {0, 5, 7, 11, 13, 17, 22, 23, 2};

    std::vector<float> da(idx.size()), db(idx.size());
    neighbor::dist2Batch(a, idx.data(),
                         static_cast<int32_t>(idx.size()), query,
                         da.data());
    neighbor::dist2Batch(b, idx.data(),
                         static_cast<int32_t>(idx.size()), query,
                         db.data());
    for (size_t i = 0; i < idx.size(); ++i) {
        EXPECT_EQ(da[i], db[i]) << "idx " << idx[i];
        EXPECT_EQ(db[i], b.dist2To(idx[i], query)) << "idx " << idx[i];
    }

    std::vector<float> ra(kN), rb(kN);
    neighbor::dist2Range(a, 0, kN, query, ra.data());
    neighbor::dist2Range(b, 0, kN, query, rb.data());
    for (int32_t i = 0; i < kN; ++i)
        EXPECT_EQ(ra[static_cast<size_t>(i)], rb[static_cast<size_t>(i)])
            << "row " << i;
}

// --- Dump -------------------------------------------------------------

TEST(PlanDump, ListsStepsArenaAndPassStats)
{
    NetworkConfig cfg = miniPointNet();
    NetworkExecutor exec(cfg, 3);
    CompiledEngine on =
        PlanCompiler::compile(exec, PipelineKind::Delayed, passesOn());
    std::ostringstream ss;
    on.dump(ss);
    const std::string s = ss.str();
    EXPECT_NE(s.find("engine: pipeline=delayed"), std::string::npos)
        << s;
    EXPECT_NE(s.find("steps: "), std::string::npos);
    EXPECT_NE(s.find("arena: "), std::string::npos);
    EXPECT_NE(s.find("artifact: "), std::string::npos);
    EXPECT_NE(s.find("passes:"), std::string::npos);
    EXPECT_NE(s.find("dead_step_elim: ran"), std::string::npos);
    EXPECT_NE(s.find("sa1.aggregate+sub"), std::string::npos);
    EXPECT_NE(s.find("fused"), std::string::npos);

    CompiledEngine off =
        PlanCompiler::compile(exec, PipelineKind::Delayed, passesOff());
    std::ostringstream so;
    off.dump(so);
    EXPECT_NE(so.str().find("skipped"), std::string::npos);
}

} // namespace
} // namespace mesorasi::core::plan
