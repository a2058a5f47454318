/**
 * @file
 * Bitwise parity suite for the vector kernel copies and the ISA
 * dispatch.
 *
 * The vector kernels carry a hard contract: byte-for-byte identical
 * results to their scalar oracles at every lane width — same
 * accumulation order, mul+add instead of FMA, and std::max's exact
 * NaN / signed-zero semantics. Every parity test here runs the same
 * computation forced scalar (the oracle) and then once on every vector
 * copy the binary compiled and the host runs (simd::setIsa, via
 * simd_parity.hpp), over the same inputs and packed panels, and
 * memcmp's each result against the oracle:
 *
 *  - matmul / matmulInto over both B views (row-major and column
 *    panels) across odd (non-multiple-of-lane) column counts, odd K,
 *    row-tile remainders, strided A and dst, sparse inputs holding +0
 *    and -0 (the zero skip, and the finite-B tiles that drop it),
 *    products that underflow to -0, and non-finite values in B;
 *  - max-reduce / gather-max-reduce including NaN propagation from the
 *    first gathered row and NaN-dropping from later rows;
 *  - bias / ReLU / batchnorm / subtract epilogues including NaN and
 *    negative zero;
 *  - batched neighbor dist2 kernels (3-D SoA fast path, the
 *    generic-dimension fallback, and the query-blocked self-query
 *    kernel in every dimension, padded rows included);
 *  - all 3 neighbor backends, query-level and end-to-end through all 3
 *    pipelines of a ModuleExecutor, and the logits of compiled zoo
 *    engines.
 *
 * The SimdDispatch tests pin the selection rule itself. Under a
 * -DMESORASI_FORCE_SCALAR=1 build no vector copy exists and the parity
 * tests degenerate to self-consistency, which is exactly what that CI
 * leg is for.
 */
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "common/check.hpp"
#include "common/rng.hpp"
#include "common/simd.hpp"
#include "common/workspace.hpp"
#include "core/networks.hpp"
#include "core/pipeline.hpp"
#include "core/plan/plan_compiler.hpp"
#include "geom/datasets.hpp"
#include "geom/shapes.hpp"
#include "neighbor/dist_batch.hpp"
#include "neighbor/search_backend.hpp"
#include "simd_parity.hpp"
#include "tensor/init.hpp"
#include "tensor/ops.hpp"

namespace mesorasi {
namespace {

using parity::expectParityAtEveryIsa;
using parity::sameBytes;
using tensor::Tensor;

constexpr float kNan = std::numeric_limits<float>::quiet_NaN();
constexpr float kInf = std::numeric_limits<float>::infinity();

Tensor
randomTensor(uint64_t seed, int32_t rows, int32_t cols, float lo = -2.0f,
             float hi = 2.0f)
{
    Rng rng(seed);
    return tensor::uniform(rng, rows, cols, lo, hi);
}

/** Sprinkle exact zeros so the matmul zero-skip branch is exercised. */
void
sprinkleZeros(Tensor &t, uint64_t seed, double frac = 0.3)
{
    Rng rng(seed);
    for (int32_t r = 0; r < t.rows(); ++r)
        for (int32_t c = 0; c < t.cols(); ++c)
            if (rng.uniform() < frac)
                t(r, c) = 0.0f;
}

// --- Matmul ------------------------------------------------------------

/** The two views the kernel reads B through: row-major (with B's
 *  finiteness, as an engine bake records it) and packed column panels. */
struct BViews
{
    tensor::PanelMatrix packed;
    tensor::MatrixView rowMajor;
    tensor::MatrixView panels;

    explicit BViews(const Tensor &b)
        : packed(b),
          rowMajor(tensor::rowMajorView(
              b, tensor::allFinite(b.data(), b.numel()))),
          panels(packed.view())
    {
    }
};

/** dst = a * b over strided blocks at every width; memcmp of the whole
 *  strided destinations, padding included. */
void
expectMatmulParity(const Tensor &a, const tensor::MatrixView &b,
                   const std::string &what)
{
    const int32_t rows = a.rows();
    const int64_t aStride = a.cols() + 3;
    const int64_t dstStride = b.cols + 5;
    std::vector<float> as(static_cast<size_t>(rows) * aStride, 7.0f);
    for (int32_t r = 0; r < rows; ++r)
        std::memcpy(&as[static_cast<size_t>(r * aStride)], a.row(r),
                    static_cast<size_t>(a.cols()) * sizeof(float));
    expectParityAtEveryIsa(
        [&] {
            std::vector<float> dst(static_cast<size_t>(rows) * dstStride,
                                   -5.0f);
            tensor::matmulInto(dst.data(), dstStride, as.data(), aStride,
                               rows, b);
            return dst;
        },
        what);
}

TEST(SimdParity, MatmulAcrossShapesAndViews)
{
    // Odd column counts cover every panel tail (full panel, 4-vector
    // and 1-vector tiles of a narrower last panel, scalar columns) at
    // every lane width; the row counts cover the 2-row tile remainder;
    // K is odd.
    const int32_t colCases[] = {1,  3,  5,  8,  16,  17, 31,
                                32, 33, 40, 48, 127, 128};
    const int32_t rowCases[] = {1, 2, 3, 5, 7, 64};
    uint64_t seed = 100;
    for (int32_t m : colCases) {
        for (int32_t n : rowCases) {
            int32_t k = 23;
            Tensor a = randomTensor(seed++, n, k);
            Tensor b = randomTensor(seed++, k, m);
            sprinkleZeros(a, seed++);
            std::string what = std::to_string(n) + "x" + std::to_string(k) +
                               " * " + std::to_string(k) + "x" +
                               std::to_string(m);
            BViews v(b);
            ASSERT_TRUE(v.rowMajor.finite && v.panels.finite);
            expectMatmulParity(a, v.rowMajor, what + " row-major");
            expectMatmulParity(a, v.panels, what + " panels");
            // The Tensor overloads (zero skip on every tile) agree too.
            Tensor viaTensor = expectParityAtEveryIsa(
                [&] { return tensor::matmul(a, b); }, what + " tensor");
            Tensor viaPanels = expectParityAtEveryIsa(
                [&] { return tensor::matmul(a, v.panels); },
                what + " matmul(panels)");
            EXPECT_TRUE(sameBytes(viaTensor, viaPanels)) << what;
        }
    }
}

TEST(SimdParity, MatmulSignedZerosAndUnderflow)
{
    // The finite-B tiles add a * w where the oracle skips a == 0: the
    // sum must stay bitwise the same for +0 and -0 activations, rows
    // that are entirely zero (the result must be +0, never -0), and
    // products that underflow to -0 (1e-30 * -1e-30).
    const int32_t k = 21, m = 37, n = 6;
    Tensor a = randomTensor(7, n, k);
    Tensor b = randomTensor(8, k, m);
    for (int32_t c = 0; c < k; ++c) {
        a(0, c) = 0.0f;
        a(1, c) = -0.0f;
        a(2, c) = (c % 2) ? 0.0f : -0.0f;
        a(3, c) = 1e-30f;
        a(4, c) = (c % 3 == 0) ? -0.0f : a(4, c);
    }
    for (int32_t j = 0; j < m; ++j)
        b(0, j) = (j % 2) ? -1e-30f : 1e-30f;
    BViews v(b);
    expectMatmulParity(a, v.rowMajor, "row-major");
    expectMatmulParity(a, v.panels, "panels");
    Tensor c = expectParityAtEveryIsa(
        [&] { return tensor::matmul(a, v.panels); }, "matmul(panels)");
    for (int32_t j = 0; j < m; ++j)
        for (int32_t r : {0, 1, 2})
            EXPECT_FALSE(std::signbit(c(r, j))) << r << "," << j;
}

TEST(SimdParity, MatmulWithNonFiniteWeights)
{
    // The zero skip makes 0 * inf and 0 * NaN visible: skipping adds
    // nothing where a naive multiply would add NaN. A B holding +Inf,
    // -Inf or NaN is recorded non-finite when it is packed, so every
    // tile keeps the skip and every path stays identical.
    Tensor a = randomTensor(1, 9, 12);
    Tensor b = randomTensor(2, 12, 21);
    for (int32_t r = 0; r < a.rows(); ++r)
        a(r, 3) = 0.0f;
    a(4, 7) = 0.0f;
    b(3, 5) = kInf;
    b(7, 2) = kNan;
    b(3, 20) = -kInf;

    BViews v(b);
    EXPECT_FALSE(v.packed.finite());
    EXPECT_FALSE(v.rowMajor.finite);
    expectMatmulParity(a, v.rowMajor, "row-major");
    expectMatmulParity(a, v.panels, "panels");

    Tensor viaTensor = expectParityAtEveryIsa(
        [&] { return tensor::matmul(a, b); }, "matmul(tensor)");
    Tensor viaPanels = expectParityAtEveryIsa(
        [&] { return tensor::matmul(a, v.panels); }, "matmul(panels)");
    EXPECT_TRUE(sameBytes(viaTensor, viaPanels));
    // Row 0 skips the Inf row of B: its column 5 stays finite, and row 4
    // skips the NaN: its column 2 too.
    EXPECT_TRUE(std::isfinite(viaPanels(0, 5)));
    EXPECT_TRUE(std::isfinite(viaPanels(4, 2)));
    EXPECT_TRUE(std::isnan(viaPanels(0, 2)));
}

// --- Reductions --------------------------------------------------------

TEST(SimdParity, MaxReduceWithNanAndOddCols)
{
    for (int32_t cols : {1, 5, 8, 16, 33, 130}) {
        Tensor x = randomTensor(10 + cols, 40, cols);
        // NaN in the middle of a later row: dropped (std::max keeps the
        // left operand on unordered compares).
        x(17, cols / 2) = kNan;
        // NaN in row 0: propagates through the whole-tensor reduce,
        // which seeds from the first row.
        x(0, cols - 1) = kNan;
        x(3, 0) = -0.0f;
        const std::vector<int32_t> rows{0, 3, 17, 17, 21};
        const std::string what = "cols " + std::to_string(cols);

        Tensor all = expectParityAtEveryIsa(
            [&] { return tensor::maxReduceRows(x); }, what + " all rows");
        expectParityAtEveryIsa([&] { return tensor::maxReduceRows(x, rows); },
                               what + " row list");
        // NaN actually propagated (sanity that the case is exercised).
        EXPECT_TRUE(std::isnan(all(0, cols - 1)));

        expectParityAtEveryIsa(
            [&] {
                std::vector<float> out(cols);
                tensor::maxReduceRowsInto(out.data(), x, 15, 10);
                return out;
            },
            what + " block");
        expectParityAtEveryIsa(
            [&] {
                std::vector<float> out(cols);
                tensor::gatherMaxReduceInto(out.data(), x, rows);
                return out;
            },
            what + " gather");
    }
}

TEST(SimdParity, GatherMaxReducePropagatesFirstRowNan)
{
    Tensor x = randomTensor(60, 8, 11);
    x(5, 4) = kNan;
    // Gathering row 5 first seeds the reduce with the NaN, which must
    // then survive every later max in every path.
    std::vector<int32_t> rows{5, 1, 2};
    std::vector<float> out = expectParityAtEveryIsa(
        [&] {
            std::vector<float> dst(x.cols());
            tensor::gatherMaxReduceInto(dst.data(), x, rows);
            return dst;
        },
        "gather");
    EXPECT_TRUE(std::isnan(out[4]));
}

// --- Elementwise epilogues ---------------------------------------------

TEST(SimdParity, BiasReluBatchnormSubtract)
{
    for (int32_t cols : {3, 16, 37}) {
        Tensor base = randomTensor(70 + cols, 25, cols);
        base(1, 0) = kNan;
        base(2, cols - 1) = -0.0f;
        base(3, cols / 2) = -kInf;
        Tensor bias = randomTensor(71, 1, cols);
        Tensor gamma = randomTensor(72, 1, cols, 0.5f, 1.5f);
        Tensor beta = randomTensor(73, 1, cols);
        Tensor mean = randomTensor(74, 1, cols);
        Tensor var = randomTensor(75, 1, cols, 0.1f, 2.0f);

        expectParityAtEveryIsa(
            [&] {
                Tensor x = base;
                tensor::addBiasInPlace(x, bias);
                tensor::reluInPlace(x);
                tensor::batchNormInPlace(x, gamma, beta, mean, var);
                tensor::subtractRowInPlace(x, bias);
                tensor::biasReluBlockInPlace(x.data(), x.cols(), x.rows(),
                                             x.cols(), bias.row(0),
                                             /*applyRelu=*/true);
                return x;
            },
            "cols " + std::to_string(cols));
    }
}

TEST(SimdParity, FusedBiasReluMatchesSeparatePasses)
{
    Tensor x = randomTensor(80, 30, 23);
    x(0, 0) = -0.0f;
    x(1, 5) = kNan;
    Tensor bias = randomTensor(81, 1, 23);

    for (simd::Isa isa : simd::runnableIsas()) {
        simd::ScopedIsa g(isa);
        Tensor separate = x;
        tensor::addBiasInPlace(separate, bias);
        tensor::reluInPlace(separate);

        Tensor fused = x;
        tensor::biasReluBlockInPlace(fused.data(), fused.cols(),
                                     fused.rows(), fused.cols(),
                                     bias.row(0), true);
        EXPECT_TRUE(sameBytes(separate, fused)) << simd::isaName(isa);
    }
}

// --- Batched neighbor distances ----------------------------------------

TEST(SimdParity, Dist2BatchMatchesDist2To)
{
    for (int32_t dim : {3, 8}) {
        for (int32_t n : {1, 2, 4, 7, 8, 33, 100}) {
            Tensor pts = randomTensor(200 + dim * 10 + n, n, dim);
            neighbor::PointsView view(pts.data(), n, dim);
            Tensor q = randomTensor(90, 1, dim);
            const std::string what =
                "dim " + std::to_string(dim) + " n " + std::to_string(n);

            Rng rng(91);
            std::vector<int32_t> idx(n);
            for (int32_t i = 0; i < n; ++i)
                idx[i] = static_cast<int32_t>(rng.uniformInt(0, n - 1));

            std::vector<float> ref(n), rangeRef(n);
            for (int32_t i = 0; i < n; ++i) {
                ref[i] = view.dist2To(idx[i], q.row(0));
                rangeRef[i] = view.dist2To(i, q.row(0));
            }
            std::vector<float> batch = expectParityAtEveryIsa(
                [&] {
                    std::vector<float> out(n);
                    neighbor::dist2Batch(view, idx.data(), n, q.row(0),
                                         out.data());
                    return out;
                },
                what + " batch");
            EXPECT_TRUE(sameBytes(ref, batch)) << what;
            std::vector<float> range = expectParityAtEveryIsa(
                [&] {
                    std::vector<float> out(n);
                    neighbor::dist2Range(view, 0, n, q.row(0), out.data());
                    return out;
                },
                what + " range");
            EXPECT_TRUE(sameBytes(rangeRef, range)) << what;
        }
    }

    // The query-blocked self-query kernel: candidate tails (n mod 4),
    // a partial final query block, and padded rows (ld > dim).
    const int32_t nq = 2 * neighbor::kQueryBlock + 3;
    for (int32_t dim : {3, 8, 64, 128}) {
        for (int32_t n : {3, 37}) {
            for (int32_t ld : {dim, dim + 5}) {
                Tensor pts = randomTensor(400 + dim + n + ld, n, ld);
                neighbor::PointsView view(pts.data(), n, dim, ld);
                Rng rng(92);
                std::vector<int32_t> rows(nq);
                for (auto &r : rows)
                    r = static_cast<int32_t>(rng.uniformInt(0, n - 1));
                const std::string what = "block dim " + std::to_string(dim) +
                                         " n " + std::to_string(n) +
                                         " ld " + std::to_string(ld);

                size_t total = static_cast<size_t>(nq) * n;
                std::vector<float> ref(total);
                for (int32_t j = 0; j < nq; ++j)
                    for (int32_t i = 0; i < n; ++i)
                        ref[static_cast<size_t>(j) * n + i] =
                            view.dist2To(i, view.row(rows[j]));
                std::vector<float> block = expectParityAtEveryIsa(
                    [&] {
                        std::vector<float> out(total);
                        neighbor::dist2Block(view, rows.data(), nq,
                                             out.data());
                        return out;
                    },
                    what);
                EXPECT_TRUE(sameBytes(ref, block)) << what;
            }
        }
    }
}

TEST(SimdParity, BackendsReturnIdenticalNeighbors)
{
    Rng rng(7);
    geom::ShapeParams p{600, 0.0f, -1};
    geom::PointCloud cloud = geom::makeTorus(rng, p, {}, 0.7f, 0.25f);
    neighbor::FlatPoints flat(cloud);

    std::vector<int32_t> queries;
    for (int32_t i = 0; i < 600; i += 13)
        queries.push_back(i);

    for (const char *name : {"brute_force", "grid", "kdtree"}) {
        neighbor::SearchHints hints;
        hints.k = 12;
        hints.radius = 0.25f;
        auto backend =
            neighbor::makeBackendByName(name, flat.view(), hints);

        // Every query's k-NN and ball result, each preceded by its size.
        expectParityAtEveryIsa(
            [&] {
                std::vector<int32_t> all;
                for (int32_t q : queries) {
                    for (const std::vector<int32_t> &found :
                         {backend->knn(flat.view().row(q), 12),
                          backend->radius(flat.view().row(q), 0.25f, 16)}) {
                        all.push_back(static_cast<int32_t>(found.size()));
                        all.insert(all.end(), found.begin(), found.end());
                    }
                }
                return all;
            },
            name);
    }
}

// --- End-to-end: backends x pipelines, compiled engines ----------------

TEST(SimdParity, ModulePipelinesBitwiseAcrossBackends)
{
    core::ModuleState in;
    {
        Rng rng(17);
        geom::ShapeParams p{384, 0.0f, -1};
        geom::PointCloud cloud = geom::makeTorus(rng, p, {}, 0.7f, 0.25f);
        in.coords = Tensor(384, 3);
        for (int32_t i = 0; i < 384; ++i) {
            in.coords(i, 0) = cloud[i].x;
            in.coords(i, 1) = cloud[i].y;
            in.coords(i, 2) = cloud[i].z;
        }
        in.features = in.coords;
    }

    const neighbor::Backend backends[] = {neighbor::Backend::BruteForce,
                                          neighbor::Backend::Grid,
                                          neighbor::Backend::KdTree};
    const core::PipelineKind pipelines[] = {
        core::PipelineKind::Original, core::PipelineKind::Delayed,
        core::PipelineKind::LtdDelayed};

    for (neighbor::Backend backend : backends) {
        core::ModuleConfig cfg;
        cfg.name = "simd_parity";
        cfg.numCentroids = 96;
        cfg.k = 16;
        cfg.search = core::SearchKind::Ball;
        cfg.radius = 0.3f;
        cfg.mlpWidths = {32, 48};
        cfg.backend = backend;
        Rng wrng(23);
        core::ModuleExecutor ex(cfg, 3, wrng);

        for (core::PipelineKind kind : pipelines)
            expectParityAtEveryIsa(
                [&] {
                    Rng srng(29);
                    return ex.run(in, kind, srng).out.features;
                },
                std::string(neighbor::backendName(backend)) + " / " +
                    core::pipelineName(kind));
    }
}

TEST(SimdParity, EngineLogitsAcrossWidths)
{
    // One compiled engine per network, its weights packed once, executed
    // on one context at every width: PointNet++ runs its F steps on the
    // shared panels, DGCNN its feature-space k-NN in query blocks.
    for (const core::NetworkConfig &cfg :
         {core::zoo::pointnetppClassification(),
          core::zoo::dgcnnClassification()}) {
        core::NetworkExecutor exec(cfg, /*weightSeed=*/1);
        core::plan::CompiledEngine engine = core::plan::PlanCompiler::compile(
            exec, core::PipelineKind::Delayed);
        auto ctx = engine.makeContext();
        geom::ModelNetSim sim(17, cfg.numInputPoints);
        geom::PointCloud cloud = sim.sample().cloud;
        expectParityAtEveryIsa(
            [&] { return Tensor(engine.execute(cloud, 7, *ctx)); }, cfg.name);
    }
}

// --- The dispatch itself -----------------------------------------------

TEST(SimdDispatch, SelectionRule)
{
    using simd::Isa;
    const simd::CpuFeatures none;
    const simd::CpuFeatures sse2{true, false, false};
    const simd::CpuFeatures avx2{true, true, false};
    const simd::CpuFeatures neon{false, false, true};
    // The widest compiled copy the CPU runs.
#if MESORASI_SIMD_AVX2
    EXPECT_EQ(simd::selectIsa(avx2, false), Isa::Avx2);
    EXPECT_EQ(simd::selectIsa(sse2, false), Isa::Sse2);
    EXPECT_EQ(simd::selectIsa(neon, false), Isa::Scalar);
#elif MESORASI_SIMD_NEON
    EXPECT_EQ(simd::selectIsa(neon, false), Isa::Neon);
    EXPECT_EQ(simd::selectIsa(avx2, false), Isa::Scalar);
#else
    for (const simd::CpuFeatures &cpu : {sse2, avx2, neon})
        EXPECT_EQ(simd::selectIsa(cpu, false), Isa::Scalar);
#endif
    EXPECT_EQ(simd::selectIsa(none, false), Isa::Scalar);
    // Forcing scalar wins over every CPU.
    for (const simd::CpuFeatures &cpu : {none, sse2, avx2, neon})
        EXPECT_EQ(simd::selectIsa(cpu, true), Isa::Scalar);

    // Start-up applies the rule to the host: its widest runnable copy.
    EXPECT_EQ(simd::selectIsa(simd::hostCpu(), simd::forceScalar()),
              simd::isa());
    EXPECT_EQ(simd::runnableIsas().back(),
              simd::selectIsa(simd::hostCpu(), false));
    EXPECT_EQ(simd::runnableIsas().front(), Isa::Scalar);
}

TEST(SimdDispatch, ForceScalarTakesPrecedence)
{
    const simd::Isa widest = simd::runnableIsas().back();
    simd::ScopedIsa g(widest);
    {
        parity::ScalarGuard forced;
        EXPECT_EQ(simd::isa(), simd::Isa::Scalar);
        // What the benchmark reports follows the dispatch (assigned the
        // way its host block reads them).
        std::string name;
        int32_t width = 0;
        name = simd::kIsa;
        width = simd::kWidth;
        EXPECT_EQ(name, "scalar");
        EXPECT_EQ(width, 1);
        // Pinning a copy while forced does not unforce.
        simd::ScopedIsa inner(widest);
        EXPECT_EQ(simd::isa(), simd::Isa::Scalar);
    }
    EXPECT_EQ(simd::isa(), widest);
    for (simd::Isa isa : simd::runnableIsas()) {
        simd::ScopedIsa pin(isa);
        std::string name;
        int32_t width = 0;
        name = simd::kIsa;
        width = simd::kWidth;
        EXPECT_EQ(simd::isa(), isa);
        EXPECT_EQ(name, simd::isaName(isa));
        EXPECT_EQ(width, simd::isaWidth(isa));
    }
}

TEST(SimdDispatch, RejectsIsaTheCpuLacksOrTheBuildOmits)
{
    using simd::Isa;
    const simd::Isa before = simd::isa();
    for (Isa isa : {Isa::Sse2, Isa::Avx2, Isa::Neon}) {
        // A CPU without the extension: typed usage error.
        try {
            simd::requireRunnable(isa, simd::CpuFeatures{});
            ADD_FAILURE() << simd::isaName(isa) << " accepted";
        } catch (const UsageError &e) {
            EXPECT_EQ(e.code(), StatusCode::InvalidInput);
        }
        // An ISA this binary compiled no copy for, whatever the CPU.
        if (!simd::compiled(isa)) {
            EXPECT_THROW(simd::setIsa(isa), UsageError) << simd::isaName(isa);
            EXPECT_THROW(simd::requireRunnable(isa, {true, true, true}),
                         UsageError)
                << simd::isaName(isa);
        }
    }
    simd::requireRunnable(Isa::Scalar, simd::CpuFeatures{});
    // A refused pin leaves the dispatch as it was.
    EXPECT_EQ(simd::isa(), before);
}

} // namespace
} // namespace mesorasi
