/**
 * @file
 * Step emission: one walk over the NetworkExecutor produces the
 * descriptor-complete program (step_ir.hpp) plus the engine's AOT
 * tables (module infos, logits shape, owned copies of every weight and
 * MLP the descriptors reference).
 *
 * Emission invariants the rest of the stack leans on:
 *
 *  - Every step is a structured OpDesc — no closures, no pointers into
 *    the executor. Parameters go through addMlp/addWeight into the
 *    engine-owned tables, so the emitted program serializes and the
 *    executor may die after compile.
 *  - Read/write sets are never written here: deriveAccess
 *    (op_schema.hpp) derives them from each descriptor, and liveness
 *    (DCE, arena planning) trusts them. Virtual resources carry the
 *    non-arena dataflow: the RNG stream chains RngDraw steps in draw
 *    order, centroid lists and NITs link sample/search to their
 *    consumers.
 *  - Step order reproduces the sequential reference exactly — the RNG
 *    draws replay NetworkExecutor::run's sampler stream, and
 *    per-element kernel order is identical, so engine logits are
 *    bitwise equal to the per-run reference.
 *  - Fusible pairs (matmul+bias, gather+sub/add, bias+tail-MLP) are
 *    emitted adjacently so the epilogue-fusion pass sees them.
 */
#include "core/plan/plan_compiler.hpp"

#include <algorithm>
#include <unordered_map>
#include <utility>

#include "common/check.hpp"
#include "core/plan/op_schema.hpp"

namespace mesorasi::core::plan {

namespace {

using tensor::Tensor;

/** The program under construction. */
struct Build
{
    PlanIR ir;
    std::vector<nn::Mlp> *mlps = nullptr;       ///< engine MLP table
    std::vector<Tensor> *weights = nullptr;     ///< engine weight table
    /** Dedup cache: executor MLP address -> engine table id. */
    std::unordered_map<const nn::Mlp *, int32_t> mlpIds;

    /** Register a rows x cols row-major buffer. */
    int32_t
    make(int64_t rows, int32_t cols)
    {
        return ir.addBuffer(rows, cols);
    }

    /** Append a step; the caller fills in its descriptor (the access
     *  sets derive from the op schema once the program is complete). */
    StepIR &
    emit(StageKind kind, std::string name)
    {
        StepIR s;
        s.kind = kind;
        s.name = std::move(name);
        ir.steps.push_back(std::move(s));
        return ir.steps.back();
    }

    /** Copy @p m into the engine's MLP table (dedup by source). */
    int32_t
    addMlp(const nn::Mlp &m)
    {
        auto it = mlpIds.find(&m);
        if (it != mlpIds.end())
            return it->second;
        int32_t id = static_cast<int32_t>(mlps->size());
        mlps->push_back(m);
        mlpIds.emplace(&m, id);
        return id;
    }

    /** Move @p w into the engine's weight table. */
    int32_t
    addWeight(Tensor w)
    {
        weights->push_back(std::move(w));
        return static_cast<int32_t>(weights->size()) - 1;
    }
};

/** One resolution level flowing between modules. */
struct LevelBuf
{
    int32_t coords = -1; ///< buffer id, n x 3
    int32_t feat = -1;   ///< buffer id, n x m
    int32_t n = 0;
    int32_t m = 0;
};

} // namespace

PlanIR
PlanCompiler::emitProgram(const NetworkExecutor &exec, PipelineKind kind,
                          const CompileOptions &opts, CompiledEngine &eng)
{
    const NetworkConfig &cfg = exec.config();
    bool detection = cfg.task == Task::Detection;
    // The interp decoder (and the classification-style head) only feed
    // the final logits outside detection; for detection networks the
    // box head overwrites them, so the engine compiles only the live
    // output path. The encoder is still emitted — its shapes feed
    // stage 2's contract — but nothing downstream reads its outputs,
    // so dead-step elimination drops it from the executed program.
    bool wantInterp = exec.numInterps() > 0 && !detection;

    eng.kind_ = kind;
    eng.numInputPoints_ = cfg.numInputPoints;

    Build b;
    b.mlps = &eng.mlps_;
    b.weights = &eng.weights_;

    // --- AOT shape walk: modules, backends, sampler-draw specs. -----
    struct DrawSpec
    {
        size_t mod;
        int32_t n;
        int32_t want;
    };
    std::vector<DrawSpec> draws;
    int32_t n = cfg.numInputPoints;
    for (size_t i = 0; i < exec.numModules(); ++i) {
        const ModuleExecutor &me = exec.module(i);
        const ModuleConfig &mc = me.config();
        PlanModuleInfo info;
        info.name = mc.name;
        info.io = me.analyticIo(n, exec.moduleInDim(i));
        info.global = mc.search == SearchKind::Global;
        info.effective = kind;
        if (kind == PipelineKind::LtdDelayed &&
            mc.aggregation == AggregationKind::ConcatCentroidDifference)
            info.effective = PipelineKind::Delayed;
        info.customBackend = mc.customBackend;
        if (!info.global && mc.customBackend.empty()) {
            info.backend =
                mc.backend == neighbor::Backend::Auto
                    ? resolveAutoBackend(info.io,
                                         mc.search == SearchKind::Knn,
                                         opts)
                    : mc.backend;
        }

        if (!info.global) {
            int32_t want = mc.centroids(n);
            MESO_REQUIRE(want <= n, "module '" << mc.name << "': " << want
                                               << " centroids from " << n
                                               << " points");
            MESO_REQUIRE(mc.sampling != SamplingKind::All || want == n,
                         "module '" << mc.name
                                    << "': SamplingKind::All keeps all "
                                    << n << " points but numCentroids="
                                    << want);
            if (want != n && mc.sampling == SamplingKind::Random)
                draws.push_back({i, n, want});
        }
        n = info.io.nOut;
        eng.modules_.push_back(std::move(info));
    }
    for (size_t i = 0; i < exec.numStage2Modules(); ++i) {
        const ModuleExecutor &me = exec.stage2Module(i);
        // NetworkExecutor's constructor rejects non-Global stage-2
        // modules; the compiled steps below bake in that semantics
        // (MLP over all points + one reduction, no sampler draws), so
        // assert the assumption rather than inherit it silently.
        MESO_CHECK(me.config().search == SearchKind::Global,
                   "stage-2 module '" << me.config().name
                                      << "' is not Global");
        PlanModuleInfo info;
        info.name = me.config().name;
        info.io = me.analyticIo(cfg.numInputPoints, 3);
        info.global = true;
        eng.stage2_.push_back(std::move(info));
    }

    // --- Steps 0..d: replay the sampler RNG stream. ------------------
    // NetworkExecutor::run draws every sampler decision in module order
    // from one stream; the engine replays the identical stream up front
    // (only Random sampling consumes draws), so logits match bitwise.
    // One step per draw, chained through kResRng: liveness can drop a
    // dead suffix of the stream (detection drops all draws with the
    // encoder) but never reorder or skip a middle draw.
    for (const DrawSpec &d : draws) {
        StepIR &s =
            b.emit(StageKind::Sample, eng.modules_[d.mod].name + ".draw");
        s.desc.op = OpKind::RngDraw;
        s.desc.mod = static_cast<int32_t>(d.mod);
        s.desc.rows = d.want;
        s.desc.srcRows = d.n;
    }

    // --- Input materialization. -------------------------------------
    int32_t n0 = cfg.numInputPoints;
    int32_t inBuf = b.make(n0, 3);
    {
        StepIR &s = b.emit(StageKind::Epilogue, "net.input");
        s.desc.op = OpKind::MaterializeCloud;
        s.desc.out = inBuf;
        s.desc.rows = n0;
        s.desc.cols = 3;
    }

    LevelBuf level{inBuf, inBuf, n0, 3};
    std::vector<int32_t> chainBufs{inBuf};
    std::vector<LevelBuf> levels{level}; // decoder skip connections

    // --- Encoder modules. -------------------------------------------
    for (size_t i = 0; i < exec.numModules(); ++i) {
        const ModuleExecutor &me = exec.module(i);
        const ModuleConfig &mc = me.config();
        const PlanModuleInfo &info = eng.modules_[i];
        const ModuleIo &io = info.io;
        const std::string &grp = mc.name;

        // Input assembly: linked networks concatenate the chain.
        int32_t inFeat;
        int32_t mIn = io.mIn;
        if (cfg.linkedInputs && chainBufs.size() > 1) {
            inFeat = b.make(level.n, mIn);
            StepIR &s = b.emit(StageKind::Epilogue, grp + ".input");
            s.desc.op = OpKind::ConcatCols;
            s.desc.srcs = chainBufs;
            s.desc.out = inFeat;
            s.desc.rows = level.n;
            s.desc.cols = mIn;
        } else {
            inFeat = cfg.linkedInputs ? chainBufs[0] : level.feat;
        }
        int32_t inCoords = level.coords;
        int32_t nIn = level.n;

        // Sample: resolve the centroid list exactly like
        // ModuleExecutor::sample.
        {
            bool fps = mc.sampling == SamplingKind::FarthestPoint;
            bool global = info.global;
            int32_t want = global ? 1 : mc.centroids(nIn);
            // Keeping every point short-circuits before the sampler
            // strategy (ModuleExecutor::sample's want == n return), so
            // even an FPS module degrades to the iota list there.
            SampleMode mode = SampleMode::Random;
            if (global)
                mode = SampleMode::Global;
            else if (want == nIn)
                mode = SampleMode::All;
            else if (fps)
                mode = SampleMode::Fps;
            StepIR &s = b.emit(StageKind::Sample, grp + ".sample");
            s.desc.op = OpKind::ResolveSample;
            s.desc.mod = static_cast<int32_t>(i);
            s.desc.rows = want;
            s.desc.srcRows = nIn;
            s.desc.mode = static_cast<int32_t>(mode);
            if (mode == SampleMode::Fps)
                s.desc.in = inCoords;
        }

        int32_t nOut = io.nOut;
        int32_t mOut = io.mOut;
        int32_t outFeat = -1;
        int32_t outCoords = -1;

        if (info.global) {
            // Global module: MLP over all points, one reduction; the
            // output coordinate is the origin.
            int32_t tmp = b.make(nIn, mOut);
            {
                StepIR &s = b.emit(StageKind::Feature, grp + ".feature");
                s.desc.op = OpKind::MlpForward;
                s.desc.mlpId = b.addMlp(me.mlp());
                s.desc.in = inFeat;
                s.desc.out = tmp;
                s.desc.rows = nIn;
                s.desc.cols = mOut;
            }

            outFeat = b.make(1, mOut);
            {
                StepIR &s =
                    b.emit(StageKind::Aggregate, grp + ".reduce");
                s.desc.op = OpKind::ReduceMaxAll;
                s.desc.in = tmp;
                s.desc.out = outFeat;
                s.desc.rows = 1;
                s.desc.cols = mOut;
                s.desc.srcRows = nIn;
            }

            outCoords = b.make(1, 3);
            {
                StepIR &s = b.emit(StageKind::Epilogue, grp + ".coords");
                s.desc.op = OpKind::FillZero;
                s.desc.out = outCoords;
                s.desc.rows = 1;
                s.desc.cols = 3;
            }
        } else {
            // Search: fill the flat NIT with the compile-resolved
            // backend.
            bool knnQ = mc.search == SearchKind::Knn;
            bool coordsSpace = mc.space == SearchSpace::Coords;
            int32_t spaceBuf = coordsSpace ? inCoords : inFeat;
            int32_t spaceDim = coordsSpace ? 3 : mIn;
            int32_t k = mc.k;
            {
                StepIR &s = b.emit(StageKind::Search, grp + ".search");
                s.desc.op = OpKind::SearchNit;
                s.desc.in = spaceBuf;
                s.desc.inCols = spaceDim;
                s.desc.srcRows = nIn;
                s.desc.rows = nOut;
                s.desc.k = k;
                s.desc.mod = static_cast<int32_t>(i);
                s.desc.knn = knnQ;
                s.desc.radius = mc.radius;
                s.desc.backend = static_cast<int32_t>(info.backend);
                s.desc.custom = mc.customBackend;
            }

            bool concat = mc.aggregation ==
                          AggregationKind::ConcatCentroidDifference;
            switch (info.effective) {
              case PipelineKind::Delayed: {
                if (concat) {
                    // Single-layer EdgeConv, split at compile time:
                    // P = X W_d and Q = X (W_c - W_d) + b, so the
                    // aggregate is act(max_j P_j + Q_i) — the exact
                    // algebra of appendDelayedStages, with the weight
                    // split hoisted out of the serving loop.
                    const nn::Linear &l0 = me.mlp().layer(0);
                    int32_t h = l0.outDim();
                    Tensor wd(mIn, h);
                    Tensor wcd(mIn, h);
                    for (int32_t r = 0; r < mIn; ++r)
                        for (int32_t c = 0; c < h; ++c) {
                            float vc = l0.panels().at(r, c);
                            float vd = l0.panels().at(mIn + r, c);
                            wd(r, c) = vd;
                            wcd(r, c) = vc - vd;
                        }

                    int32_t p = b.make(nIn, h);
                    int32_t q = b.make(nIn, h);
                    {
                        StepIR &s =
                            b.emit(StageKind::Feature, grp + ".feature.p");
                        s.desc.op = OpKind::Matmul;
                        s.desc.in = inFeat;
                        s.desc.out = p;
                        s.desc.rows = nIn;
                        s.desc.cols = h;
                        s.desc.weightId = b.addWeight(std::move(wd));
                    }
                    {
                        StepIR &s =
                            b.emit(StageKind::Feature, grp + ".feature.q");
                        s.desc.op = OpKind::Matmul;
                        s.desc.in = inFeat;
                        s.desc.out = q;
                        s.desc.rows = nIn;
                        s.desc.cols = h;
                        s.desc.weightId = b.addWeight(std::move(wcd));
                    }
                    if (l0.hasBias()) {
                        StepIR &s = b.emit(StageKind::Feature,
                                           grp + ".feature.bias");
                        s.desc.op = OpKind::BiasRelu;
                        s.desc.out = q;
                        s.desc.rows = nIn;
                        s.desc.cols = h;
                        s.desc.biasId = b.addWeight(l0.bias());
                        s.desc.relu = false;
                    }

                    outFeat = b.make(nOut, mOut);
                    bool isRelu =
                        l0.activation() == nn::Activation::Relu;
                    {
                        StepIR &s = b.emit(StageKind::Aggregate,
                                           grp + ".aggregate");
                        s.desc.op = OpKind::AggGatherMax;
                        s.desc.in = p;
                        s.desc.out = outFeat;
                        s.desc.rows = nOut;
                        s.desc.cols = mOut;
                        s.desc.mod = static_cast<int32_t>(i);
                        s.desc.k = k;
                        s.desc.srcRows = nIn;
                    }
                    {
                        StepIR &s = b.emit(StageKind::Aggregate,
                                           grp + ".aggregate.add");
                        s.desc.op = OpKind::AggAddAuxRelu;
                        s.desc.out = outFeat;
                        s.desc.aux = q;
                        s.desc.rows = nOut;
                        s.desc.cols = mOut;
                        s.desc.mod = static_cast<int32_t>(i);
                        s.desc.relu = isRelu;
                    }
                } else {
                    // PFT over raw inputs, fused gather + max-before-
                    // subtract aggregation (paper Fig. 8).
                    int32_t pft = b.make(nIn, mOut);
                    {
                        StepIR &s =
                            b.emit(StageKind::Feature, grp + ".feature");
                        s.desc.op = OpKind::MlpForward;
                        s.desc.mlpId = b.addMlp(me.mlp());
                        s.desc.in = inFeat;
                        s.desc.out = pft;
                        s.desc.rows = nIn;
                        s.desc.cols = mOut;
                    }

                    outFeat = b.make(nOut, mOut);
                    {
                        StepIR &s = b.emit(StageKind::Aggregate,
                                           grp + ".aggregate");
                        s.desc.op = OpKind::AggGatherMax;
                        s.desc.in = pft;
                        s.desc.out = outFeat;
                        s.desc.rows = nOut;
                        s.desc.cols = mOut;
                        s.desc.mod = static_cast<int32_t>(i);
                        s.desc.k = k;
                        s.desc.srcRows = nIn;
                    }
                    {
                        StepIR &s = b.emit(StageKind::Aggregate,
                                           grp + ".aggregate.sub");
                        s.desc.op = OpKind::AggSubCentroid;
                        s.desc.out = outFeat;
                        s.desc.aux = pft;
                        s.desc.rows = nOut;
                        s.desc.cols = mOut;
                        s.desc.mod = static_cast<int32_t>(i);
                    }
                }
                break;
              }

              case PipelineKind::Original: {
                int32_t mlpIn = io.mlpInDim;
                int64_t rows = static_cast<int64_t>(nOut) * k;
                int32_t batched = b.make(rows, mlpIn);
                {
                    StepIR &s =
                        b.emit(StageKind::Aggregate, grp + ".aggregate");
                    s.desc.op = OpKind::GroupDiff;
                    s.desc.in = inFeat;
                    s.desc.out = batched;
                    s.desc.rows = nOut;
                    s.desc.cols = mlpIn;
                    s.desc.inCols = mIn;
                    s.desc.mod = static_cast<int32_t>(i);
                    s.desc.k = k;
                    s.desc.srcRows = nIn;
                    s.desc.concat = concat;
                }

                int32_t feat = b.make(rows, mOut);
                {
                    StepIR &s = b.emit(StageKind::Feature,
                                       grp + ".feature.mlp");
                    s.desc.op = OpKind::MlpForward;
                    s.desc.mlpId = b.addMlp(me.mlp());
                    s.desc.in = batched;
                    s.desc.out = feat;
                    s.desc.rows = rows;
                    s.desc.cols = mOut;
                }

                outFeat = b.make(nOut, mOut);
                {
                    StepIR &s = b.emit(StageKind::Feature,
                                       grp + ".feature.reduce");
                    s.desc.op = OpKind::ReduceMaxRows;
                    s.desc.in = feat;
                    s.desc.out = outFeat;
                    s.desc.rows = nOut;
                    s.desc.cols = mOut;
                    s.desc.k = k;
                }
                break;
              }

              case PipelineKind::LtdDelayed: {
                // Only the first (linear) product is hoisted; bias,
                // activation, and the remaining layers run on grouped
                // rows after aggregation.
                const nn::Mlp &mlp = me.mlp();
                const nn::Linear &l0 = mlp.layer(0);
                int32_t h1 = l0.outDim();
                int64_t rows = static_cast<int64_t>(nOut) * k;

                int32_t pft1 = b.make(nIn, h1);
                {
                    StepIR &s =
                        b.emit(StageKind::Feature, grp + ".feature");
                    s.desc.op = OpKind::Matmul;
                    s.desc.in = inFeat;
                    s.desc.out = pft1;
                    s.desc.rows = nIn;
                    s.desc.cols = h1;
                    s.desc.weightId =
                        b.addWeight(l0.panels().toTensor());
                }

                int32_t batched = b.make(rows, h1);
                {
                    StepIR &s =
                        b.emit(StageKind::Aggregate, grp + ".aggregate");
                    s.desc.op = OpKind::GroupDiff;
                    s.desc.in = pft1;
                    s.desc.out = batched;
                    s.desc.rows = nOut;
                    s.desc.cols = h1;
                    s.desc.inCols = h1;
                    s.desc.mod = static_cast<int32_t>(i);
                    s.desc.k = k;
                    s.desc.srcRows = nIn;
                    s.desc.concat = false;
                }

                // Tail: layer-0 bias/activation in place, then the
                // remaining layers (if any) onto the grouped rows.
                size_t numLayers = mlp.numLayers();
                {
                    StepIR &s = b.emit(StageKind::Feature,
                                       grp + ".feature.bias");
                    s.desc.op = OpKind::BiasRelu;
                    s.desc.out = batched;
                    s.desc.rows = rows;
                    s.desc.cols = h1;
                    s.desc.biasId =
                        l0.hasBias() ? b.addWeight(l0.bias()) : -1;
                    s.desc.relu =
                        l0.activation() == nn::Activation::Relu;
                }
                int32_t feat = batched;
                if (numLayers > 1) {
                    feat = b.make(rows, mOut);
                    StepIR &s = b.emit(StageKind::Feature,
                                       grp + ".feature.tail");
                    s.desc.op = OpKind::MlpForward;
                    s.desc.mlpId = b.addMlp(me.mlp());
                    s.desc.in = batched;
                    s.desc.out = feat;
                    s.desc.rows = rows;
                    s.desc.cols = mOut;
                    s.desc.firstLayer = 1;
                }

                outFeat = b.make(nOut, mOut);
                {
                    StepIR &s = b.emit(StageKind::Feature,
                                       grp + ".feature.reduce");
                    s.desc.op = OpKind::ReduceMaxRows;
                    s.desc.in = feat;
                    s.desc.out = outFeat;
                    s.desc.rows = nOut;
                    s.desc.cols = mOut;
                    s.desc.k = k;
                }
                break;
              }
            }

            // Output coordinates: the centroids' xyz.
            outCoords = b.make(nOut, 3);
            {
                StepIR &s = b.emit(StageKind::Epilogue, grp + ".coords");
                s.desc.op = OpKind::GatherRows;
                s.desc.in = inCoords;
                s.desc.out = outCoords;
                s.desc.rows = nOut;
                s.desc.cols = 3;
                s.desc.mod = static_cast<int32_t>(i);
            }
        }

        // Level / link bookkeeping (mirrors harvestModule).
        if (cfg.linkedInputs) {
            if (nOut == level.n)
                chainBufs.push_back(outFeat);
            else
                chainBufs = {outFeat};
        }
        level = LevelBuf{outCoords, outFeat, nOut, mOut};
        levels.push_back(level);
    }

    // --- Head. -------------------------------------------------------
    int32_t numClasses = cfg.numClasses;
    if (cfg.concatModuleOutputs) {
        int32_t rows = cfg.numInputPoints;
        int32_t concatDim = exec.concatDim();
        std::vector<int32_t> moduleOutBufs;
        for (size_t i = 0; i < exec.numModules(); ++i)
            moduleOutBufs.push_back(levels[i + 1].feat);
        int32_t cat = b.make(rows, concatDim);
        {
            StepIR &s = b.emit(StageKind::Epilogue, "head.concat");
            s.desc.op = OpKind::ConcatCols;
            s.desc.srcs = moduleOutBufs;
            s.desc.out = cat;
            s.desc.rows = rows;
            s.desc.cols = concatDim;
        }

        const nn::Mlp *gmlp = exec.globalMlp();
        int32_t g = gmlp->outDim();
        int32_t gl = b.make(rows, g);
        {
            StepIR &s = b.emit(StageKind::Feature, "head.global");
            s.desc.op = OpKind::MlpForward;
            s.desc.mlpId = b.addMlp(*gmlp);
            s.desc.in = cat;
            s.desc.out = gl;
            s.desc.rows = rows;
            s.desc.cols = g;
        }

        int32_t pooled = b.make(1, g);
        {
            StepIR &s = b.emit(StageKind::Feature, "head.pool");
            s.desc.op = OpKind::ReduceMaxAll;
            s.desc.in = gl;
            s.desc.out = pooled;
            s.desc.rows = 1;
            s.desc.cols = g;
            s.desc.srcRows = rows;
        }

        if (cfg.task == Task::Classification) {
            eng.logitsRows_ = 1;
            eng.logitsCols_ = numClasses;
            StepIR &s = b.emit(StageKind::Epilogue, "head.fc");
            s.desc.op = OpKind::MlpForward;
            s.desc.mlpId = b.addMlp(exec.head());
            s.desc.in = pooled;
            s.desc.out = kResLogits;
            s.desc.rows = 1;
            s.desc.cols = numClasses;
        } else {
            // Broadcast the pooled vector back onto every point
            // (ConcatCols broadcasts 1-row sources).
            int32_t xh = b.make(rows, concatDim + g);
            {
                StepIR &s = b.emit(StageKind::Epilogue, "head.bcast");
                s.desc.op = OpKind::ConcatCols;
                s.desc.srcs = {cat, pooled};
                s.desc.out = xh;
                s.desc.rows = rows;
                s.desc.cols = concatDim + g;
            }
            eng.logitsRows_ = rows;
            eng.logitsCols_ = numClasses;
            StepIR &s = b.emit(StageKind::Epilogue, "head.fc");
            s.desc.op = OpKind::MlpForward;
            s.desc.mlpId = b.addMlp(exec.head());
            s.desc.in = xh;
            s.desc.out = kResLogits;
            s.desc.rows = rows;
            s.desc.cols = numClasses;
        }
    } else if (wantInterp) {
        // Interpolation decoder, emitted as per-level structured steps
        // (three-interpolate, skip concat, per-point MLP) against the
        // encoder levels kept live above — no captured module states.
        // Backend choice replays InterpExecutor::run's: Auto resolves
        // through the shape-only chooseBackend heuristic at compile
        // time (identical decision, the view never carries data there).
        eng.logitsRows_ = cfg.numInputPoints;
        eng.logitsCols_ = numClasses;
        size_t nlev = exec.numModules();
        int32_t cur = levels[nlev].feat;
        int32_t curDim = levels[nlev].m;
        int32_t curN = levels[nlev].n;
        for (size_t j = 0; j < exec.numInterps(); ++j) {
            const InterpExecutor &ie = exec.interp(j);
            const InterpModuleConfig &icfg = ie.config();
            const LevelBuf &fine = levels[nlev - 1 - j];
            int32_t coarseCoords = levels[nlev - j].coords;
            int32_t nCoarse = curN;
            int32_t kk = std::min(icfg.numNeighbors, nCoarse);
            neighbor::Backend bk = icfg.backend;
            if (bk == neighbor::Backend::Auto) {
                neighbor::PointsView shape(nullptr, nCoarse, 3);
                neighbor::SearchHints hints;
                hints.numQueries = fine.n;
                hints.k = kk;
                bk = neighbor::chooseBackend(shape, hints);
            }

            int32_t interpBuf = b.make(fine.n, curDim);
            {
                StepIR &s =
                    b.emit(StageKind::Epilogue, icfg.name + ".interp");
                s.desc.op = OpKind::Interp3NN;
                s.desc.in = cur;
                s.desc.aux = coarseCoords;
                s.desc.in2 = fine.coords;
                s.desc.out = interpBuf;
                s.desc.rows = fine.n;
                s.desc.cols = curDim;
                s.desc.srcRows = nCoarse;
                s.desc.k = kk;
                s.desc.backend = static_cast<int32_t>(bk);
            }

            int32_t catBuf = b.make(fine.n, curDim + fine.m);
            {
                StepIR &s =
                    b.emit(StageKind::Epilogue, icfg.name + ".concat");
                s.desc.op = OpKind::ConcatCols;
                s.desc.srcs = {interpBuf, fine.feat};
                s.desc.out = catBuf;
                s.desc.rows = fine.n;
                s.desc.cols = curDim + fine.m;
            }

            int32_t outDim = icfg.outDim();
            int32_t outBuf = b.make(fine.n, outDim);
            {
                StepIR &s =
                    b.emit(StageKind::Feature, icfg.name + ".mlp");
                s.desc.op = OpKind::MlpForward;
                s.desc.mlpId = b.addMlp(ie.mlp());
                s.desc.in = catBuf;
                s.desc.out = outBuf;
                s.desc.rows = fine.n;
                s.desc.cols = outDim;
            }

            cur = outBuf;
            curDim = outDim;
            curN = fine.n;
        }
        MESO_CHECK(curN == cfg.numInputPoints,
                   "decoder ends at " << curN << " points, expected "
                                      << cfg.numInputPoints);
        StepIR &s = b.emit(StageKind::Epilogue, "head.fc");
        s.desc.op = OpKind::MlpForward;
        s.desc.mlpId = b.addMlp(exec.head());
        s.desc.in = cur;
        s.desc.out = kResLogits;
        s.desc.rows = curN;
        s.desc.cols = numClasses;
    } else if (!detection) {
        eng.logitsRows_ = level.n;
        eng.logitsCols_ = numClasses;
        StepIR &s = b.emit(StageKind::Epilogue, "head.fc");
        s.desc.op = OpKind::MlpForward;
        s.desc.mlpId = b.addMlp(exec.head());
        s.desc.in = level.feat;
        s.desc.out = kResLogits;
        s.desc.rows = level.n;
        s.desc.cols = numClasses;
    }

    // --- Detection stage 2: global branches over the raw input. ------
    if (detection) {
        int32_t d2 = 0;
        for (size_t i = 0; i < exec.numStage2Modules(); ++i)
            d2 += exec.stage2Module(i).config().outDim();
        int32_t pooled = b.make(1, d2);
        int32_t off = 0;
        for (size_t i = 0; i < exec.numStage2Modules(); ++i) {
            const ModuleExecutor &sm = exec.stage2Module(i);
            const std::string &sname = sm.config().name;
            int32_t w = sm.config().outDim();
            int32_t tmp = b.make(n0, w);
            {
                StepIR &s =
                    b.emit(StageKind::Feature, sname + ".feature");
                s.desc.op = OpKind::MlpForward;
                s.desc.mlpId = b.addMlp(sm.mlp());
                s.desc.in = inBuf;
                s.desc.out = tmp;
                s.desc.rows = n0;
                s.desc.cols = w;
            }
            {
                StepIR &s =
                    b.emit(StageKind::Aggregate, sname + ".reduce");
                s.desc.op = OpKind::ReduceMaxAll;
                s.desc.in = tmp;
                s.desc.out = pooled;
                s.desc.rows = 1;
                s.desc.cols = w;
                s.desc.srcRows = n0;
                s.desc.outCol = off;
            }
            off += w;
        }

        eng.logitsRows_ = 1;
        eng.logitsCols_ = cfg.stage2Outputs;
        StepIR &s = b.emit(StageKind::Epilogue, "head.box");
        s.desc.op = OpKind::MlpForward;
        s.desc.mlpId = b.addMlp(*exec.stage2Head());
        s.desc.in = pooled;
        s.desc.out = kResLogits;
        s.desc.rows = 1;
        s.desc.cols = cfg.stage2Outputs;
    }

    for (StepIR &s : b.ir.steps)
        deriveAccess(s, b.ir.bufs);
    return std::move(b.ir);
}

} // namespace mesorasi::core::plan
