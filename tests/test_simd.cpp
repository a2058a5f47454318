/**
 * @file
 * Bitwise parity suite for the portable SIMD kernel layer.
 *
 * The vector kernels (common/simd.hpp consumers) carry a hard
 * contract: byte-for-byte identical results to their forced-scalar
 * fallbacks — same accumulation order, mul+add instead of FMA, and
 * std::max's exact NaN / signed-zero semantics. Every test here runs
 * the same computation twice, once with simd::setForceScalar(true) and
 * once with the vector path, and memcmp's the outputs:
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
 *    pipelines of a ModuleExecutor.
 *
 * Under a -DMESORASI_FORCE_SCALAR=1 build both paths are the scalar
 * one and the suite degenerates to self-consistency, which is exactly
 * what that CI leg is for.
 */
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "common/simd.hpp"
#include "common/workspace.hpp"
#include "core/pipeline.hpp"
#include "geom/shapes.hpp"
#include "neighbor/dist_batch.hpp"
#include "neighbor/search_backend.hpp"
#include "tensor/init.hpp"
#include "tensor/ops.hpp"

namespace mesorasi {
namespace {

using tensor::Tensor;

constexpr float kNan = std::numeric_limits<float>::quiet_NaN();
constexpr float kInf = std::numeric_limits<float>::infinity();

/** Restores the force-scalar flag even if an assertion throws. */
struct ScalarGuard
{
    explicit ScalarGuard(bool force) { simd::setForceScalar(force); }
    ~ScalarGuard() { simd::setForceScalar(false); }
};

bool
bitwiseEqual(const Tensor &a, const Tensor &b)
{
    return a.rows() == b.rows() && a.cols() == b.cols() &&
           std::memcmp(a.data(), b.data(),
                       static_cast<size_t>(a.bytes())) == 0;
}

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

/** dst = a * b over strided blocks, forced scalar (the oracle) and with
 *  the SIMD kernel; memcmp of the whole strided destinations, padding
 *  included. */
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
    std::vector<float> scalar(static_cast<size_t>(rows) * dstStride,
                              -5.0f);
    std::vector<float> simdOut = scalar;
    {
        ScalarGuard g(true);
        tensor::matmulInto(scalar.data(), dstStride, as.data(), aStride,
                           rows, b);
    }
    tensor::matmulInto(simdOut.data(), dstStride, as.data(), aStride, rows,
                       b);
    EXPECT_EQ(std::memcmp(scalar.data(), simdOut.data(),
                          scalar.size() * sizeof(float)),
              0)
        << what;
}

TEST(SimdParity, MatmulAcrossShapesAndViews)
{
    // Odd column counts cover every panel tail (full panel, 1-vector
    // tiles, scalar columns) at both lane widths; the row counts cover
    // the 2-row tile remainder; K is odd.
    const int32_t colCases[] = {1, 3, 5, 8, 17, 31, 32, 33, 40, 127, 128};
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
            Tensor scalar, simdOut;
            {
                ScalarGuard g(true);
                scalar = tensor::matmul(a, b);
            }
            simdOut = tensor::matmul(a, b);
            EXPECT_TRUE(bitwiseEqual(scalar, simdOut)) << what;
            EXPECT_TRUE(bitwiseEqual(simdOut, tensor::matmul(a, v.panels)))
                << what;
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
    Tensor c = tensor::matmul(a, v.panels);
    for (int32_t j = 0; j < m; ++j)
        for (int32_t r : {0, 1, 2})
            EXPECT_FALSE(std::signbit(c(r, j))) << r << "," << j;
}

TEST(SimdParity, MatmulWithNonFiniteWeights)
{
    // The zero skip makes 0 * inf and 0 * NaN visible: skipping adds
    // nothing where a naive multiply would add NaN. A B holding +Inf,
    // -Inf or NaN is recorded non-finite when it is packed, so every
    // tile keeps the skip and both paths stay identical.
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

    Tensor scalar, simdOut;
    {
        ScalarGuard g(true);
        scalar = tensor::matmul(a, b);
    }
    simdOut = tensor::matmul(a, v.panels);
    EXPECT_TRUE(bitwiseEqual(scalar, simdOut));
    // Row 0 skips the Inf row of B: its column 5 stays finite, and row 4
    // skips the NaN: its column 2 too.
    EXPECT_TRUE(std::isfinite(simdOut(0, 5)));
    EXPECT_TRUE(std::isfinite(simdOut(4, 2)));
    EXPECT_TRUE(std::isnan(simdOut(0, 2)));
}

// --- Reductions --------------------------------------------------------

TEST(SimdParity, MaxReduceWithNanAndOddCols)
{
    for (int32_t cols : {1, 5, 16, 33, 130}) {
        Tensor x = randomTensor(10 + cols, 40, cols);
        // NaN in the middle of a later row: dropped (std::max keeps the
        // left operand on unordered compares).
        x(17, cols / 2) = kNan;
        // NaN in row 0: propagates through the whole-tensor reduce,
        // which seeds from the first row.
        x(0, cols - 1) = kNan;
        x(3, 0) = -0.0f;

        Tensor scalarAll, simdAll, scalarList, simdList;
        std::vector<int32_t> rows{0, 3, 17, 17, 21};
        {
            ScalarGuard g(true);
            scalarAll = tensor::maxReduceRows(x);
            scalarList = tensor::maxReduceRows(x, rows);
        }
        simdAll = tensor::maxReduceRows(x);
        simdList = tensor::maxReduceRows(x, rows);
        EXPECT_TRUE(bitwiseEqual(scalarAll, simdAll)) << cols;
        EXPECT_TRUE(bitwiseEqual(scalarList, simdList)) << cols;

        // NaN actually propagated (sanity that the case is exercised).
        EXPECT_TRUE(std::isnan(simdAll(0, cols - 1)));

        std::vector<float> scalarInto(cols), simdInto(cols);
        {
            ScalarGuard g(true);
            tensor::maxReduceRowsInto(scalarInto.data(), x, 15, 10);
        }
        tensor::maxReduceRowsInto(simdInto.data(), x, 15, 10);
        EXPECT_EQ(std::memcmp(scalarInto.data(), simdInto.data(),
                              scalarInto.size() * sizeof(float)),
                  0)
            << cols;

        std::vector<float> scalarGather(cols), simdGather(cols);
        {
            ScalarGuard g(true);
            tensor::gatherMaxReduceInto(scalarGather.data(), x, rows);
        }
        tensor::gatherMaxReduceInto(simdGather.data(), x, rows);
        EXPECT_EQ(std::memcmp(scalarGather.data(), simdGather.data(),
                              scalarGather.size() * sizeof(float)),
                  0)
            << cols;
    }
}

TEST(SimdParity, GatherMaxReducePropagatesFirstRowNan)
{
    Tensor x = randomTensor(60, 8, 11);
    x(5, 4) = kNan;
    // Gathering row 5 first seeds the reduce with the NaN, which must
    // then survive every later max in both paths.
    std::vector<int32_t> rows{5, 1, 2};
    std::vector<float> scalar(x.cols()), simdOut(x.cols());
    {
        ScalarGuard g(true);
        tensor::gatherMaxReduceInto(scalar.data(), x, rows);
    }
    tensor::gatherMaxReduceInto(simdOut.data(), x, rows);
    EXPECT_TRUE(std::isnan(simdOut[4]));
    EXPECT_EQ(std::memcmp(scalar.data(), simdOut.data(),
                          scalar.size() * sizeof(float)),
              0);
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

        auto runAll = [&](Tensor x) {
            tensor::addBiasInPlace(x, bias);
            tensor::reluInPlace(x);
            tensor::batchNormInPlace(x, gamma, beta, mean, var);
            tensor::subtractRowInPlace(x, bias);
            Tensor fusedEpilogue = x;
            tensor::biasReluBlockInPlace(fusedEpilogue.data(),
                                         fusedEpilogue.cols(),
                                         fusedEpilogue.rows(),
                                         fusedEpilogue.cols(),
                                         bias.row(0),
                                         /*applyRelu=*/true);
            return fusedEpilogue;
        };
        Tensor scalar, simdOut;
        {
            ScalarGuard g(true);
            scalar = runAll(base);
        }
        simdOut = runAll(base);
        EXPECT_TRUE(bitwiseEqual(scalar, simdOut)) << cols;
    }
}

TEST(SimdParity, FusedBiasReluMatchesSeparatePasses)
{
    Tensor x = randomTensor(80, 30, 23);
    x(0, 0) = -0.0f;
    x(1, 5) = kNan;
    Tensor bias = randomTensor(81, 1, 23);

    Tensor separate = x;
    tensor::addBiasInPlace(separate, bias);
    tensor::reluInPlace(separate);

    Tensor fused = x;
    tensor::biasReluBlockInPlace(fused.data(), fused.cols(), fused.rows(),
                                 fused.cols(), bias.row(0), true);
    EXPECT_TRUE(bitwiseEqual(separate, fused));
}

// --- Batched neighbor distances ----------------------------------------

TEST(SimdParity, Dist2BatchMatchesDist2To)
{
    for (int32_t dim : {3, 8}) {
        for (int32_t n : {1, 2, 4, 7, 33, 100}) {
            Tensor pts = randomTensor(200 + dim * 10 + n, n, dim);
            neighbor::PointsView view(pts.data(), n, dim);
            Tensor q = randomTensor(90, 1, dim);

            Rng rng(91);
            std::vector<int32_t> idx(n);
            for (int32_t i = 0; i < n; ++i)
                idx[i] = static_cast<int32_t>(rng.uniformInt(0, n - 1));

            std::vector<float> ref(n), scalar(n), simdOut(n);
            for (int32_t i = 0; i < n; ++i)
                ref[i] = view.dist2To(idx[i], q.row(0));
            {
                ScalarGuard g(true);
                neighbor::dist2Batch(view, idx.data(), n, q.row(0),
                                     scalar.data());
            }
            neighbor::dist2Batch(view, idx.data(), n, q.row(0),
                                 simdOut.data());
            EXPECT_EQ(std::memcmp(ref.data(), scalar.data(),
                                  ref.size() * sizeof(float)),
                      0)
                << "dim " << dim << " n " << n;
            EXPECT_EQ(std::memcmp(ref.data(), simdOut.data(),
                                  ref.size() * sizeof(float)),
                      0)
                << "dim " << dim << " n " << n;

            std::vector<float> range(n);
            neighbor::dist2Range(view, 0, n, q.row(0), range.data());
            for (int32_t i = 0; i < n; ++i)
                EXPECT_EQ(range[i], view.dist2To(i, q.row(0)));
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

                size_t total = static_cast<size_t>(nq) * n;
                std::vector<float> ref(total), scalar(total),
                    simdOut(total);
                for (int32_t j = 0; j < nq; ++j)
                    for (int32_t i = 0; i < n; ++i)
                        ref[static_cast<size_t>(j) * n + i] =
                            view.dist2To(i, view.row(rows[j]));
                {
                    ScalarGuard g(true);
                    neighbor::dist2Block(view, rows.data(), nq,
                                         scalar.data());
                }
                neighbor::dist2Block(view, rows.data(), nq,
                                     simdOut.data());
                EXPECT_EQ(std::memcmp(ref.data(), scalar.data(),
                                      total * sizeof(float)),
                          0)
                    << "block dim " << dim << " n " << n << " ld " << ld;
                EXPECT_EQ(std::memcmp(ref.data(), simdOut.data(),
                                      total * sizeof(float)),
                          0)
                    << "block dim " << dim << " n " << n << " ld " << ld;
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

        std::vector<std::vector<int32_t>> scalarKnn, scalarBall;
        {
            ScalarGuard g(true);
            for (int32_t q : queries) {
                scalarKnn.push_back(backend->knn(flat.view().row(q), 12));
                scalarBall.push_back(
                    backend->radius(flat.view().row(q), 0.25f, 16));
            }
        }
        for (size_t i = 0; i < queries.size(); ++i) {
            EXPECT_EQ(scalarKnn[i],
                      backend->knn(flat.view().row(queries[i]), 12))
                << name;
            EXPECT_EQ(scalarBall[i],
                      backend->radius(flat.view().row(queries[i]), 0.25f,
                                      16))
                << name;
        }
    }
}

// --- End-to-end: backends x pipelines ----------------------------------

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

        for (core::PipelineKind kind : pipelines) {
            Tensor scalar, simdOut;
            {
                ScalarGuard g(true);
                Rng srng(29);
                scalar = ex.run(in, kind, srng).out.features;
            }
            {
                Rng srng(29);
                simdOut = ex.run(in, kind, srng).out.features;
            }
            EXPECT_TRUE(bitwiseEqual(scalar, simdOut))
                << neighbor::backendName(backend) << " / "
                << core::pipelineName(kind);
        }
    }
}

} // namespace
} // namespace mesorasi
