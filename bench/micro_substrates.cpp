/**
 * @file
 * google-benchmark microbenchmarks of the substrate libraries: host
 * performance of the neighbor-search backends, tensor ops, pipelines,
 * and the AU simulator itself. These are engineering benchmarks of
 * *this* implementation, complementing the figure-reproduction benches.
 *
 * Besides the google-benchmark suite, main() measures the kernels and
 * the batched serving loop — the matmul at the engine's F-step shapes
 * (each SIMD result memcmp-checked against the scalar oracle), the
 * aggregation and k-NN kernels, and a 16-cloud batch through
 * BatchRunner on one compiled engine, sequential vs 8 worker threads —
 * and writes the machine-readable BENCH_micro_substrates.json consumed
 * by the perf-trajectory tooling.
 * Pass --batch-only to skip the google-benchmark suite.
 */
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstring>
#include <functional>
#include <iostream>
#include <numeric>
#include <tuple>
#include <utility>

#include "bench_common.hpp"
#include "common/check.hpp"
#include "common/rng.hpp"
#include "common/simd.hpp"
#include "common/stats.hpp"
#include "common/table.hpp"
#include "common/thread_pool.hpp"
#include "core/batch_runner.hpp"
#include "core/networks.hpp"
#include "core/plan/plan_compiler.hpp"
#include "core/plan/serialize.hpp"
#include "geom/sampling.hpp"
#include "geom/shapes.hpp"
#include "hwsim/agg_unit.hpp"
#include "neighbor/search_backend.hpp"
#include "tensor/init.hpp"
#include "tensor/ops.hpp"

namespace {

using namespace mesorasi;

// ---------------------------------------------------------------------
// Interleaved A/B sampling.
//
// Back-to-back sample blocks (all A reps, then all B reps) let one
// load spike or frequency step land entirely on one variant, which is
// how p90 inversions like "fused slower than unfused" ended up in
// BENCH json on earlier runs. Instead every repetition times each
// variant once, rotating which variant goes first so slow drift
// cancels too, and one discarded warmup pass per variant pre-faults
// buffers and warms caches before anything is recorded.
// ---------------------------------------------------------------------

double
timeMs(const std::function<void()> &fn)
{
    auto t0 = std::chrono::steady_clock::now();
    fn();
    auto t1 = std::chrono::steady_clock::now();
    return std::chrono::duration<double, std::milli>(t1 - t0).count();
}

/** Run @p variants round-robin for @p reps recorded repetitions (plus
 *  one discarded warmup pass each); returns per-variant samples. */
std::vector<std::vector<double>>
runInterleaved(int reps, const std::vector<std::function<void()>> &variants)
{
    std::vector<std::vector<double>> samples(variants.size());
    for (const auto &v : variants)
        v(); // warmup, discarded
    for (int rep = 0; rep < reps; ++rep) {
        for (size_t i = 0; i < variants.size(); ++i) {
            size_t vi = (rep + i) % variants.size();
            samples[vi].push_back(timeMs(variants[vi]));
        }
    }
    return samples;
}

/** The effective SIMD lane width, recorded in every BENCH record so
 *  scalar-vs-SIMD runs are distinguishable in the perf trajectory. */
std::string
simdWidthStr(bool forcedScalar = false)
{
    return std::to_string(forcedScalar ? 1 : simd::isaWidth(simd::isa()));
}

/** The vector copies the per-width records sweep: every compiled ISA
 *  the host runs, narrowest first, or none while forced scalar (each
 *  would then run the oracle). */
std::vector<simd::Isa>
vectorIsas()
{
    std::vector<simd::Isa> out;
    if (!simd::forceScalar())
        for (simd::Isa isa : simd::runnableIsas())
            if (isa != simd::Isa::Scalar)
                out.push_back(isa);
    return out;
}

/** Runs @p fn forced scalar, restoring the prior flag (not plain false)
 *  so a MESORASI_FORCE_SCALAR=1 run stays scalar throughout. */
void
runScalar(const std::function<void()> &fn)
{
    bool prev = simd::forceScalar();
    simd::setForceScalar(true);
    fn();
    simd::setForceScalar(prev);
}

geom::PointCloud
cloudOf(int n)
{
    Rng rng(1);
    geom::ShapeParams p{n, 0.0f, -1};
    return geom::makeTorus(rng, p, {}, 0.7f, 0.25f);
}

/** Backend under benchmark, selected by the Arg index into the sorted
 *  registry names (state.range(1)). */
std::string
backendArg(int64_t i)
{
    auto names = neighbor::registeredBackendNames();
    return names[static_cast<size_t>(i) % names.size()];
}

void
BM_BackendBuild(benchmark::State &state)
{
    auto cloud = cloudOf(static_cast<int>(state.range(0)));
    neighbor::FlatPoints flat(cloud);
    std::string name = backendArg(state.range(1));
    for (auto _ : state) {
        auto backend = neighbor::makeBackendByName(name, flat.view());
        benchmark::DoNotOptimize(backend.get());
    }
    state.SetLabel(name);
}
BENCHMARK(BM_BackendBuild)
    ->ArgsProduct({{1024, 4096, 16384}, {0, 1, 2}});

void
BM_BackendKnn(benchmark::State &state)
{
    auto cloud = cloudOf(static_cast<int>(state.range(0)));
    neighbor::FlatPoints flat(cloud);
    std::string name = backendArg(state.range(1));
    neighbor::SearchHints hints;
    hints.k = 32;
    auto backend = neighbor::makeBackendByName(name, flat.view(), hints);
    std::vector<int32_t> queries;
    for (int i = 0; i < state.range(0); i += 4)
        queries.push_back(i);
    for (auto _ : state) {
        auto nit = backend->knnTable(queries, 32);
        benchmark::DoNotOptimize(nit.size());
    }
    state.SetLabel(name);
}
BENCHMARK(BM_BackendKnn)->ArgsProduct({{1024, 4096}, {0, 1, 2}});

void
BM_BackendBall(benchmark::State &state)
{
    auto cloud = cloudOf(static_cast<int>(state.range(0)));
    neighbor::FlatPoints flat(cloud);
    std::string name = backendArg(state.range(1));
    neighbor::SearchHints hints;
    hints.k = 32;
    hints.radius = 0.2f;
    auto backend = neighbor::makeBackendByName(name, flat.view(), hints);
    std::vector<int32_t> queries;
    for (int i = 0; i < state.range(0); i += 4)
        queries.push_back(i);
    for (auto _ : state) {
        auto nit = backend->ballTable(queries, 0.2f, 32);
        benchmark::DoNotOptimize(nit.size());
    }
    state.SetLabel(name);
}
BENCHMARK(BM_BackendBall)->ArgsProduct({{1024, 4096}, {0, 1, 2}});

void
BM_Fps(benchmark::State &state)
{
    auto cloud = cloudOf(static_cast<int>(state.range(0)));
    for (auto _ : state) {
        auto idx = geom::farthestPointSample(cloud, 512);
        benchmark::DoNotOptimize(idx.size());
    }
}
BENCHMARK(BM_Fps)->Arg(2048)->Arg(8192);

void
BM_Matmul(benchmark::State &state)
{
    Rng rng(2);
    int n = static_cast<int>(state.range(0));
    tensor::Tensor a = tensor::uniform(rng, n, 64, -1, 1);
    tensor::Tensor b = tensor::uniform(rng, 64, 128, -1, 1);
    for (auto _ : state) {
        tensor::Tensor c = tensor::matmul(a, b);
        benchmark::DoNotOptimize(c.data());
    }
    state.SetItemsProcessed(state.iterations() * int64_t(n) * 64 * 128);
}
BENCHMARK(BM_Matmul)->Arg(1024)->Arg(16384);

void
BM_PipelineModule(benchmark::State &state)
{
    bool delayed = state.range(0) != 0;
    Rng wrng(3);
    core::ModuleConfig cfg;
    cfg.name = "m";
    cfg.numCentroids = 512;
    cfg.k = 32;
    cfg.search = core::SearchKind::Knn;
    cfg.mlpWidths = {64, 64, 128};
    core::ModuleExecutor ex(cfg, 3, wrng);

    auto cloud = cloudOf(1024);
    core::ModuleState in;
    in.coords = tensor::Tensor(1024, 3);
    for (int i = 0; i < 1024; ++i) {
        in.coords(i, 0) = cloud[i].x;
        in.coords(i, 1) = cloud[i].y;
        in.coords(i, 2) = cloud[i].z;
    }
    in.features = in.coords;

    for (auto _ : state) {
        Rng srng(4);
        auto r = ex.run(in,
                        delayed ? core::PipelineKind::Delayed
                                : core::PipelineKind::Original,
                        srng);
        benchmark::DoNotOptimize(r.out.features.data());
    }
}
BENCHMARK(BM_PipelineModule)->Arg(0)->Arg(1);

void
BM_AuSimulate(benchmark::State &state)
{
    Rng rng(5);
    neighbor::NeighborIndexTable nit(32);
    for (int i = 0; i < 512; ++i) {
        neighbor::NitEntry e;
        e.centroid = static_cast<int32_t>(rng.uniformInt(0, 1023));
        e.neighbors = rng.sampleWithoutReplacement(1024, 32);
        nit.add(std::move(e));
    }
    hwsim::AggregationUnit au(hwsim::AuConfig{}, hwsim::NpuConfig{},
                              hwsim::EnergyConfig{});
    for (auto _ : state) {
        auto s = au.aggregate(nit, 1024, 128);
        benchmark::DoNotOptimize(s.cycles);
    }
}
BENCHMARK(BM_AuSimulate);

// ---------------------------------------------------------------------
// Aggregation kernels: allocating gather+reduce vs the fused
// zero-allocation gatherMaxReduceInto (SIMD and forced-scalar), plus
// the quantized int8 / packed-int4 gather-max over the same PFT (4x /
// 8x fewer bytes moved per entry — the aggregation is memory-bound, so
// bytes_per_entry is the lever). Variants are sampled interleaved (see
// runInterleaved above).
// ---------------------------------------------------------------------

constexpr int kAggReps = 7;

void
runAggKernelBench(bench::BenchJsonWriter &json)
{
    constexpr int32_t kPftRows = 4096;
    constexpr int32_t kPftCols = 128;
    constexpr int32_t kCentroids = 1024;
    constexpr int32_t kGroup = 32;

    Rng rng(23);
    tensor::Tensor pft =
        tensor::uniform(rng, kPftRows, kPftCols, -1.0f, 1.0f);
    std::vector<std::vector<int32_t>> groups(kCentroids);
    for (auto &g : groups)
        g = rng.sampleWithoutReplacement(kPftRows, kGroup);

    // Quantized copies of the PFT: the uniform(-1, 1) values calibrate
    // to maxAbs 1, so the scales are the full int8/int4 grids.
    const float scaleI8 = 1.0f / 127.0f;
    const float scaleI4 = 1.0f / 7.0f;
    std::vector<int8_t> pftI8(size_t(kPftRows) * kPftCols);
    std::vector<uint8_t> pftI4(size_t(kPftRows) * kPftCols / 2);
    tensor::quantizeRowsI8(pftI8.data(), kPftCols, pft.data(), kPftCols,
                           kPftRows, kPftCols, scaleI8);
    tensor::quantizeRowsI4(pftI4.data(), kPftCols / 2, pft.data(),
                           kPftCols, kPftRows, kPftCols, scaleI4);

    tensor::Tensor outUnfused(kCentroids, kPftCols);
    tensor::Tensor outFused(kCentroids, kPftCols);
    tensor::Tensor outScalar(kCentroids, kPftCols);
    tensor::Tensor outI8(kCentroids, kPftCols);
    tensor::Tensor outI8Scalar(kCentroids, kPftCols);
    tensor::Tensor outI4(kCentroids, kPftCols);

    auto samples = runInterleaved(
        kAggReps,
        {[&] {
             for (int32_t c = 0; c < kCentroids; ++c) {
                 tensor::Tensor g = tensor::gatherRows(pft, groups[c]);
                 tensor::Tensor red = tensor::maxReduceRows(g);
                 std::copy(red.row(0), red.row(0) + kPftCols,
                           outUnfused.row(c));
             }
         },
         [&] {
             for (int32_t c = 0; c < kCentroids; ++c)
                 tensor::gatherMaxReduceInto(outFused.row(c), pft,
                                             groups[c]);
         },
         [&] {
             runScalar([&] {
                 for (int32_t c = 0; c < kCentroids; ++c)
                     tensor::gatherMaxReduceInto(outScalar.row(c), pft,
                                                 groups[c]);
             });
         },
         [&] {
             for (int32_t c = 0; c < kCentroids; ++c)
                 tensor::gatherMaxReduceI8Into(
                     outI8.row(c), pftI8.data(), kPftCols, kPftCols,
                     kPftRows, groups[c].data(),
                     static_cast<int32_t>(groups[c].size()), scaleI8);
         },
         [&] {
             runScalar([&] {
                 for (int32_t c = 0; c < kCentroids; ++c)
                     tensor::gatherMaxReduceI8Into(
                         outI8Scalar.row(c), pftI8.data(), kPftCols,
                         kPftCols, kPftRows, groups[c].data(),
                         static_cast<int32_t>(groups[c].size()), scaleI8);
             });
         },
         [&] {
             for (int32_t c = 0; c < kCentroids; ++c)
                 tensor::gatherMaxReduceI4Into(
                     outI4.row(c), pftI4.data(), kPftCols / 2, kPftCols,
                     kPftRows, groups[c].data(),
                     static_cast<int32_t>(groups[c].size()), scaleI4);
         }});
    const auto &unfused = samples[0];
    const auto &fused = samples[1];
    const auto &fusedScalar = samples[2];
    const auto &int8Samples = samples[3];
    const auto &int8Scalar = samples[4];
    const auto &int4Samples = samples[5];
    MESO_CHECK(outFused.maxAbsDiff(outUnfused) == 0.0f,
               "fused aggregation kernel diverged from unfused path");
    MESO_CHECK(outFused.maxAbsDiff(outScalar) == 0.0f,
               "SIMD aggregation kernel diverged from forced-scalar");
    MESO_CHECK(outI8.maxAbsDiff(outI8Scalar) == 0.0f,
               "SIMD int8 aggregation diverged from forced-scalar");
    // The quantized outputs track fp32 within the grid resolution.
    MESO_CHECK(outI8.maxAbsDiff(outFused) <= scaleI8,
               "int8 aggregation drifted past one quantization step");
    MESO_CHECK(outI4.maxAbsDiff(outFused) <= scaleI4,
               "int4 aggregation drifted past one quantization step");

    Table t("Aggregation kernel — " + std::to_string(kCentroids) +
                " centroids x k=" + std::to_string(kGroup) + " over " +
                std::to_string(kPftRows) + "x" +
                std::to_string(kPftCols) + " PFT",
            {"Kernel", "Median ms", "p90 ms"});
    t.addRow({"gatherRows + maxReduceRows", fmt(percentile(unfused, 50.0), 3),
              fmt(percentile(unfused, 90.0), 3)});
    t.addRow({"gatherMaxReduceInto (fused)", fmt(percentile(fused, 50.0), 3),
              fmt(percentile(fused, 90.0), 3)});
    t.addRow({"gatherMaxReduceInto (forced scalar)",
              fmt(percentile(fusedScalar, 50.0), 3),
              fmt(percentile(fusedScalar, 90.0), 3)});
    t.addRow({"gatherMaxReduceI8Into (int8)",
              fmt(percentile(int8Samples, 50.0), 3),
              fmt(percentile(int8Samples, 90.0), 3)});
    t.addRow({"gatherMaxReduceI8Into (forced scalar)",
              fmt(percentile(int8Scalar, 50.0), 3),
              fmt(percentile(int8Scalar, 90.0), 3)});
    t.addRow({"gatherMaxReduceI4Into (packed int4)",
              fmt(percentile(int4Samples, 50.0), 3),
              fmt(percentile(int4Samples, 90.0), 3)});
    t.print();
    double medFused = percentile(fused, 50.0);
    double medI8 = percentile(int8Samples, 50.0);
    double medI4 = percentile(int4Samples, 50.0);
    std::cout << "int8 speedup over fp32 fused: "
              << fmtX(medI8 > 0.0 ? medFused / medI8 : 0.0)
              << "   int4: "
              << fmtX(medI4 > 0.0 ? medFused / medI4 : 0.0) << "\n";

    auto params = [&](const std::string &kernel, bool forcedScalar,
                      int32_t bytesPerEntry) {
        return std::vector<std::pair<std::string, std::string>>{
            {"kernel", kernel},
            {"pft_rows", std::to_string(kPftRows)},
            {"pft_cols", std::to_string(kPftCols)},
            {"centroids", std::to_string(kCentroids)},
            {"k", std::to_string(kGroup)},
            {"bytes_per_entry", std::to_string(bytesPerEntry)},
            {"simd_width", simdWidthStr(forcedScalar)},
        };
    };
    const int32_t bytesF32 = kPftCols * 4;
    json.add("agg_kernel_unfused",
             params("gather_reduce", false, bytesF32), unfused);
    json.add("agg_kernel_fused",
             params("gather_max_reduce_into", false, bytesF32), fused);
    json.add("agg_kernel_fused_scalar",
             params("gather_max_reduce_into", true, bytesF32),
             fusedScalar);
    json.add("agg_kernel_int8",
             params("gather_max_reduce_i8_into", false, kPftCols),
             int8Samples);
    json.add("agg_kernel_int8_scalar",
             params("gather_max_reduce_i8_into", true, kPftCols),
             int8Scalar);
    json.add("agg_kernel_int4",
             params("gather_max_reduce_i4_into", false, kPftCols / 2),
             int4Samples);
}

// ---------------------------------------------------------------------
// Matmul substrate: the register-blocked SIMD kernel vs the forced
// scalar reference on the PFT-shaped product every module runs, with a
// dense row-major B and no finiteness record, so every tile keeps the
// zero skip (single-thread, so the ratio is pure SIMD, not threading).
// ---------------------------------------------------------------------

constexpr int kMatmulReps = 9;

void
runMatmulSimdBench(bench::BenchJsonWriter &json)
{
    constexpr int32_t kRows = 2048;
    constexpr int32_t kInner = 64;
    constexpr int32_t kCols = 128;

    Rng rng(31);
    tensor::Tensor a = tensor::uniform(rng, kRows, kInner, -1.0f, 1.0f);
    tensor::Tensor b = tensor::uniform(rng, kInner, kCols, -1.0f, 1.0f);
    tensor::Tensor outSimd(kRows, kCols);
    tensor::Tensor outScalar(kRows, kCols);

    auto samples = runInterleaved(
        kMatmulReps,
        {[&] {
             runScalar([&] {
                 tensor::matmulInto(outScalar.data(), kCols, a.data(),
                                    kInner, kRows, b);
             });
         },
         [&] {
             tensor::matmulInto(outSimd.data(), kCols, a.data(), kInner,
                                kRows, b);
         }});
    const auto &scalar = samples[0];
    const auto &simdSamples = samples[1];
    MESO_CHECK(outSimd.maxAbsDiff(outScalar) == 0.0f,
               "SIMD matmul diverged from forced-scalar kernel");

    double medScalar = percentile(scalar, 50.0);
    double medSimd = percentile(simdSamples, 50.0);
    Table t("Matmul kernel — " + std::to_string(kRows) + "x" +
                std::to_string(kInner) + " * " + std::to_string(kInner) +
                "x" + std::to_string(kCols) + " (single thread)",
            {"Kernel", "Median ms", "p90 ms"});
    t.addRow({"forced scalar", fmt(medScalar, 3),
              fmt(percentile(scalar, 90.0), 3)});
    t.addRow({std::string("simd (") + simd::isaName(simd::isa()) +
                  ", width " + simdWidthStr() + ")",
              fmt(medSimd, 3), fmt(percentile(simdSamples, 90.0), 3)});
    t.print();
    std::cout << "matmul simd speedup: "
              << fmtX(medSimd > 0.0 ? medScalar / medSimd : 0.0) << "\n";

    auto params = [&](bool forcedScalar) {
        return std::vector<std::pair<std::string, std::string>>{
            {"rows", std::to_string(kRows)},
            {"inner", std::to_string(kInner)},
            {"cols", std::to_string(kCols)},
            {"isa", forcedScalar ? "scalar" : simd::isaName(simd::isa())},
            {"simd_width", simdWidthStr(forcedScalar)},
        };
    };
    json.add("matmul_scalar", params(true), scalar);
    json.add("matmul_simd", params(false), simdSamples);
}

// ---------------------------------------------------------------------
// Matmul at the engine's F-step shapes, single thread: every compiled
// SIMD copy the host runs vs the forced-scalar oracle on half-zero
// (ReLU-like) activations, reading B through the view the engine uses.
// MLP layers run on panels: sa3's last layer (128 x 512 -> 1024),
// DGCNN's head.global (1024 x 512 -> 1024) and head.fc's first layer
// (one row, 1024 -> 512). DGCNN's ec4 split-weight Matmul steps (1024 x
// 128 -> 256) run on a row-major view. Every copy runs over the same
// panels (kPanelWidth does not depend on the dispatch), so the narrower
// copies' cost under the wide panel shows; each result is checked
// memcmp-equal to the oracle.
// ---------------------------------------------------------------------

constexpr int kMatmulFReps = 5;

void
runMatmulFShapeBench(bench::BenchJsonWriter &json)
{
    struct Shape
    {
        int32_t rows, inner, cols;
        bool panels;
    };
    const Shape shapes[] = {{128, 512, 1024, true},
                            {1024, 512, 1024, true},
                            {1024, 128, 256, false},
                            {1, 1024, 512, true}};
    const std::vector<simd::Isa> isas = vectorIsas();
    Table t("Matmul at the F-step shapes, half-zero input (single thread)",
            {"Shape", "B view", "Kernel", "Median ms", "Speedup"});
    for (const Shape &sh : shapes) {
        Rng rng(41);
        tensor::Tensor a =
            tensor::uniform(rng, sh.rows, sh.inner, -1.0f, 1.0f);
        for (int64_t i = 0; i < a.numel(); ++i)
            a.data()[i] = std::max(0.0f, a.data()[i]);
        tensor::Tensor w = tensor::kaimingNormal(rng, sh.inner, sh.cols);
        tensor::PanelMatrix packed(w);
        tensor::MatrixView b =
            sh.panels ? packed.view()
                      : tensor::rowMajorView(
                            w, tensor::allFinite(w.data(), w.numel()));
        // Variant 0 is the oracle, variant 1 + i runs isas[i].
        std::vector<tensor::Tensor> outs(1 + isas.size(),
                                         tensor::Tensor(sh.rows, sh.cols));
        auto product = [&](size_t v) {
            tensor::matmulInto(outs[v].data(), sh.cols, a.data(), sh.inner,
                               sh.rows, b);
        };
        std::vector<std::function<void()>> variants{
            [&] { runScalar([&] { product(0); }); }};
        for (size_t i = 0; i < isas.size(); ++i)
            variants.push_back([&, i] {
                simd::ScopedIsa g(isas[i]);
                product(1 + i);
            });
        auto samples = runInterleaved(kMatmulFReps, variants);

        std::string shape = std::to_string(sh.rows) + "x" +
                            std::to_string(sh.inner) + "x" +
                            std::to_string(sh.cols);
        const char *view = sh.panels ? "panels" : "row_major";
        auto params = [&](simd::Isa isa) {
            return std::vector<std::pair<std::string, std::string>>{
                {"rows", std::to_string(sh.rows)},
                {"inner", std::to_string(sh.inner)},
                {"cols", std::to_string(sh.cols)},
                {"b_view", view},
                {"input", "half_zero"},
                {"isa", simd::isaName(isa)},
                {"simd_width", std::to_string(simd::isaWidth(isa))},
            };
        };
        double medScalar = percentile(samples[0], 50.0);
        t.addRow({shape, view, "scalar", fmt(medScalar, 3), "1.00x"});
        json.add("matmul_f_scalar", params(simd::Isa::Scalar), samples[0]);
        for (size_t i = 0; i < isas.size(); ++i) {
            MESO_CHECK(std::memcmp(outs[0].data(), outs[1 + i].data(),
                                   static_cast<size_t>(outs[0].bytes())) ==
                           0,
                       "matmul " << simd::isaName(isas[i])
                                 << " kernel diverged from the scalar "
                                    "oracle at "
                                 << shape);
            double med = percentile(samples[1 + i], 50.0);
            t.addRow({shape, view, simd::isaName(isas[i]), fmt(med, 3),
                      fmtX(med > 0.0 ? medScalar / med : 0.0)});
            json.add("matmul_f_simd", params(isas[i]), samples[1 + i]);
        }
    }
    t.print();
}

// ---------------------------------------------------------------------
// Feature-space brute-force k-NN at DGCNN's ec2 / ec4 search shapes
// (n = 1024 rows, k = 20, 64-d and 128-d): one knnInto per query vs
// the query-blocked knnRowsInto under forced scalar and at every
// compiled SIMD copy the host runs. Single thread; all must return
// identical NITs.
// ---------------------------------------------------------------------

constexpr int kKnnFeatureReps = 9;

void
runKnnFeatureBench(bench::BenchJsonWriter &json)
{
    constexpr int32_t kN = 1024;
    constexpr int32_t kK = 20;
    constexpr size_t kOut = static_cast<size_t>(kN) * kK;
    const std::vector<simd::Isa> isas = vectorIsas();

    Table t("Feature-space brute-force k-NN — n=" + std::to_string(kN) +
                ", k=" + std::to_string(kK) + " (single thread)",
            {"dim", "Path", "Median ms", "p90 ms"});
    for (int32_t dim : {64, 128}) {
        Rng rng(41 + static_cast<uint64_t>(dim));
        tensor::Tensor feat = tensor::uniform(rng, kN, dim, -1.0f, 1.0f);
        neighbor::PointsView view(feat.data(), kN, dim);
        auto backend = neighbor::makeBackendByName("brute_force", view);
        std::vector<int32_t> rows(kN);
        std::iota(rows.begin(), rows.end(), 0);
        // Variant 0 runs one knnInto per query at the dispatched copy,
        // 1 the blocked path forced scalar, 2 + i the blocked path on
        // isas[i].
        std::vector<std::vector<int32_t>> nits(2 + isas.size(),
                                               std::vector<int32_t>(kOut));
        auto blocked = [&](size_t v) {
            backend->knnRowsInto(rows.data(), kN, kK, nits[v].data());
        };
        std::vector<std::function<void()>> variants{
            [&] {
                for (int32_t i = 0; i < kN; ++i)
                    backend->knnInto(view.row(i), kK,
                                     nits[0].data() +
                                         static_cast<size_t>(i) * kK);
            },
            [&] { runScalar([&] { blocked(1); }); }};
        for (size_t i = 0; i < isas.size(); ++i)
            variants.push_back([&, i] {
                simd::ScopedIsa g(isas[i]);
                blocked(2 + i);
            });
        auto samples = runInterleaved(kKnnFeatureReps, variants);

        auto params = [&](simd::Isa isa) {
            return std::vector<std::pair<std::string, std::string>>{
                {"n", std::to_string(kN)},
                {"k", std::to_string(kK)},
                {"dim", std::to_string(dim)},
                {"isa", simd::isaName(isa)},
                {"simd_width", std::to_string(simd::isaWidth(isa))},
            };
        };
        auto row = [&](const std::string &path, size_t v) {
            t.addRow({std::to_string(dim), path,
                      fmt(percentile(samples[v], 50.0), 3),
                      fmt(percentile(samples[v], 90.0), 3)});
        };
        MESO_CHECK(nits[1] == nits[0],
                   "forced-scalar batched k-NN diverged from per-query "
                   "k-NN at dim "
                       << dim);
        row(std::string("per-query knnInto (") +
                simd::isaName(simd::isa()) + ")",
            0);
        row("knnRowsInto (forced scalar)", 1);
        json.add("knn_feature_per_query", params(simd::isa()), samples[0]);
        json.add("knn_feature_rows_scalar", params(simd::Isa::Scalar),
                 samples[1]);
        for (size_t i = 0; i < isas.size(); ++i) {
            MESO_CHECK(nits[2 + i] == nits[0],
                       "batched k-NN on " << simd::isaName(isas[i])
                                          << " diverged from per-query "
                                             "k-NN at dim "
                                          << dim);
            row(std::string("knnRowsInto (") + simd::isaName(isas[i]) + ")",
                2 + i);
            json.add("knn_feature_rows", params(isas[i]), samples[2 + i]);
        }
    }
    t.print();
}

// ---------------------------------------------------------------------
// Compile-once plan runtime: the sequential reference executor per
// request vs one compiled engine evaluated over a warm context — the
// compile/eval split's cost trajectory (plus the one-off compile).
// ---------------------------------------------------------------------

constexpr int kPlanReps = 9;

void
runPlanRuntimeBench(bench::BenchJsonWriter &json)
{
    core::NetworkConfig cfg = core::zoo::pointnetppClassification();
    core::NetworkExecutor exec(cfg, /*weightSeed=*/1);

    geom::ModelNetSim sim(17, cfg.numInputPoints);
    geom::PointCloud cloud = sim.sample().cloud;

    // One-off compile cost (AOT shapes, backend resolution, arena plan).
    std::vector<double> compileMs;
    for (int rep = 0; rep < 5; ++rep)
        compileMs.push_back(timeMs([&] {
            auto p = core::plan::PlanCompiler::compile(
                exec, core::PipelineKind::Delayed);
            MESO_CHECK(p.stats().numSteps > 0, "empty plan");
        }));

    core::plan::CompiledEngine plan = core::plan::PlanCompiler::compile(
        exec, core::PipelineKind::Delayed);
    auto ctx = plan.makeContext();
    plan.execute(cloud, 7, *ctx); // warm the context

    tensor::Tensor refOut, planOut;
    auto samples = runInterleaved(
        kPlanReps,
        {[&] {
             // The reference executor: allocate every intermediate,
             // re-infer shapes, re-select backends, run, harvest.
             auto r = exec.run(cloud, core::PipelineKind::Delayed, 7);
             refOut = std::move(r.logits);
         },
         [&] {
             planOut = plan.execute(cloud, 7, *ctx);
         }});
    const auto &reference = samples[0];
    const auto &planExec = samples[1];
    MESO_CHECK(planOut.maxAbsDiff(refOut) == 0.0f,
               "compiled plan diverged from the reference executor");

    double medReference = percentile(reference, 50.0);
    double medPlan = percentile(planExec, 50.0);
    Table t("Plan runtime — " + cfg.name + " (delayed pipeline)",
            {"Path", "Median ms", "p90 ms"});
    t.addRow({"reference executor per run", fmt(medReference, 3),
              fmt(percentile(reference, 90.0), 3)});
    t.addRow({"plan execute (compiled)", fmt(medPlan, 3),
              fmt(percentile(planExec, 90.0), 3)});
    t.addRow({"plan compile (one-off)", fmt(percentile(compileMs, 50.0), 3),
              fmt(percentile(compileMs, 90.0), 3)});
    t.print();
    std::cout << "plan speedup over the reference executor: "
              << fmtX(medPlan > 0.0 ? medReference / medPlan : 0.0)
              << "   arena "
              << plan.stats().arenaFloats * 4 / 1024 << " KiB vs "
              << plan.stats().naiveFloats * 4 / 1024
              << " KiB unaliased\n";

    auto params = [&](const std::string &path) {
        return std::vector<std::pair<std::string, std::string>>{
            {"network", cfg.name},
            {"pipeline", "delayed"},
            {"path", path},
            {"arena_kib",
             std::to_string(plan.stats().arenaFloats * 4 / 1024)},
            {"passes", core::plan::passesEnabled({}) ? "on" : "off"},
            {"hw_threads", std::to_string(ThreadPool::defaultThreads())},
            {"simd_width", simdWidthStr()},
        };
    };
    json.add("reference_run_per_cloud", params("reference_run"),
             reference);
    json.add("plan_execute", params("plan_execute"), planExec);
    json.add("plan_compile", params("plan_compile"), compileMs);
}

// ---------------------------------------------------------------------
// Plan optimizer: the same network compiled with the pass pipeline off
// (the raw emitted step list) vs on (dead-step elimination, epilogue
// fusion, PFT layout selection), executed over warm contexts. Logits
// must match bitwise; the optimized plan should never be slower, and
// the detection network (whose dead encoder tail DCE drops) should be
// measurably faster.
// ---------------------------------------------------------------------

constexpr int kOptReps = 7;

void
runPlanOptimizerBench(bench::BenchJsonWriter &json)
{
    struct Case
    {
        core::NetworkConfig cfg;
        core::PipelineKind kind;
    };
    std::vector<Case> cases;
    for (auto kind :
         {core::PipelineKind::Original, core::PipelineKind::Delayed,
          core::PipelineKind::LtdDelayed})
        cases.push_back({core::zoo::pointnetppClassification(), kind});
    cases.push_back({core::zoo::fPointNet(), core::PipelineKind::Delayed});

    Table t("Plan optimizer — pass pipeline off vs on (warm contexts)",
            {"Network / pipeline", "Off ms", "On ms", "Steps",
             "Arena KiB"});
    for (const Case &c : cases) {
        core::NetworkExecutor exec(c.cfg, /*weightSeed=*/1);
        geom::ModelNetSim sim(17, c.cfg.numInputPoints);
        geom::PointCloud cloud = sim.sample().cloud;

        core::plan::CompileOptions off, on;
        off.passes.enable = core::plan::PassOptions::Enable::Off;
        on.passes.enable = core::plan::PassOptions::Enable::On;
        core::plan::CompiledEngine planOff =
            core::plan::PlanCompiler::compile(exec, c.kind, off);
        core::plan::CompiledEngine planOn =
            core::plan::PlanCompiler::compile(exec, c.kind, on);
        auto ctxOff = planOff.makeContext();
        auto ctxOn = planOn.makeContext();

        tensor::Tensor outOff, outOn;
        auto samples = runInterleaved(
            kOptReps,
            {[&] { outOff = planOff.execute(cloud, 7, *ctxOff); },
             [&] { outOn = planOn.execute(cloud, 7, *ctxOn); }});
        const auto &unopt = samples[0];
        const auto &opt = samples[1];
        MESO_CHECK(outOn.maxAbsDiff(outOff) == 0.0f,
                   "optimized plan diverged from unoptimized plan on "
                       << c.cfg.name);

        const auto &st = planOn.stats();
        std::string label =
            c.cfg.name + " / " + pipelineName(c.kind);
        t.addRow({label, fmt(percentile(unopt, 50.0), 3),
                  fmt(percentile(opt, 50.0), 3),
                  std::to_string(st.numSteps) + " (was " +
                      std::to_string(st.numStepsPrePass) + ")",
                  std::to_string(st.arenaFloats * 4 / 1024) + " (was " +
                      std::to_string(st.arenaFloatsPrePass * 4 / 1024) +
                      ")"});

        auto params = [&](const std::string &passes,
                          const core::plan::PlanStats &s) {
            return std::vector<std::pair<std::string, std::string>>{
                {"network", c.cfg.name},
                {"pipeline", pipelineName(c.kind)},
                {"passes", passes},
                {"steps_removed", std::to_string(s.stepsRemoved)},
                {"fusions_applied", std::to_string(s.fusionsApplied)},
                {"arena_kib_post",
                 std::to_string(s.arenaFloats * 4 / 1024)},
                {"simd_width", simdWidthStr()},
            };
        };
        json.add("plan_execute", params("off", planOff.stats()), unopt);
        json.add("plan_execute_optimized", params("on", planOn.stats()),
                 opt);
    }
    t.print();
}

// ---------------------------------------------------------------------
// Engine artifacts: serialize / deserialize cost of one compiled
// engine, against the recompile it replaces. Loading skips shape
// inference, backend resolution, the pass pipeline, and arena
// planning, so a warm artifact cache must be strictly cheaper than
// compiling from the executor — asserted, not just reported.
// ---------------------------------------------------------------------

constexpr int kArtifactReps = 9;

void
runEngineArtifactBench(bench::BenchJsonWriter &json)
{
    core::NetworkConfig cfg = core::zoo::pointnetppClassification();
    core::NetworkExecutor exec(cfg, /*weightSeed=*/1);

    core::plan::CompiledEngine engine = core::plan::PlanCompiler::compile(
        exec, core::PipelineKind::Delayed);
    std::vector<uint8_t> bytes = core::plan::saveEngineToBytes(engine);

    std::vector<double> saveMs, loadMs, recompileMs;
    for (int rep = 0; rep < kArtifactReps; ++rep) {
        saveMs.push_back(timeMs([&] {
            auto blob = core::plan::saveEngineToBytes(engine);
            MESO_CHECK(blob.size() == bytes.size(),
                       "artifact size changed between saves");
        }));
        loadMs.push_back(timeMs([&] {
            auto e = core::plan::loadEngineFromBytes(bytes.data(),
                                                     bytes.size());
            MESO_CHECK(e.stats().numSteps == engine.stats().numSteps,
                       "loaded engine lost steps");
        }));
        recompileMs.push_back(timeMs([&] {
            // The artifact carries the trained weights, so a serving
            // process without one rebuilds them too: executor weight
            // init + compile is the honest no-artifact cold path.
            core::NetworkExecutor cold(cfg, /*weightSeed=*/1);
            auto e = core::plan::PlanCompiler::compile(
                cold, core::PipelineKind::Delayed);
            MESO_CHECK(e.stats().numSteps > 0, "empty engine");
        }));
    }

    double medSave = percentile(saveMs, 50.0);
    double medLoad = percentile(loadMs, 50.0);
    double medRecompile = percentile(recompileMs, 50.0);
    MESO_CHECK(medLoad < medRecompile,
               "loading an artifact (" << medLoad
                                       << " ms) is not cheaper than "
                                          "recompiling ("
                                       << medRecompile << " ms)");

    Table t("Engine artifacts — " + cfg.name + " (delayed pipeline)",
            {"Operation", "Median ms", "p90 ms"});
    t.addRow({"save (serialize)", fmt(medSave, 3),
              fmt(percentile(saveMs, 90.0), 3)});
    t.addRow({"load (parse+validate+bake)", fmt(medLoad, 3),
              fmt(percentile(loadMs, 90.0), 3)});
    t.addRow({"recompile (init weights + compile)", fmt(medRecompile, 3),
              fmt(percentile(recompileMs, 90.0), 3)});
    t.print();
    std::cout << "artifact " << bytes.size() << " bytes (v"
              << core::plan::kEngineFormatVersion
              << "); load is " << fmtX(medLoad > 0.0
                                           ? medRecompile / medLoad
                                           : 0.0)
              << " cheaper than recompiling\n";

    auto params = [&](const std::string &op) {
        return std::vector<std::pair<std::string, std::string>>{
            {"network", cfg.name},
            {"pipeline", "delayed"},
            {"op", op},
            {"artifact_bytes", std::to_string(bytes.size())},
            {"format_version",
             std::to_string(core::plan::kEngineFormatVersion)},
            {"simd_width", simdWidthStr()},
        };
    };
    json.add("engine_save", params("save"), saveMs);
    json.add("engine_load", params("load"), loadMs);
    json.add("load_vs_recompile",
             {{"metric", "x"},
              {"value",
               fmt(medLoad > 0.0 ? medRecompile / medLoad : 0.0, 3)},
              {"network", cfg.name},
              {"artifact_bytes", std::to_string(bytes.size())},
              {"simd_width", simdWidthStr()}},
             {});
}

// ---------------------------------------------------------------------
// Batched serving loop: 16 clouds through one compiled engine,
// sequential vs 8 cloud workers, contexts kept warm across reps.
// ---------------------------------------------------------------------

constexpr int kBatchSize = 16;
constexpr int kBatchThreads = 8;
constexpr int kBatchReps = 3;

void
runBatchEngineBench(bench::BenchJsonWriter &json)
{
    core::NetworkConfig cfg = core::zoo::pointnetppClassification();
    core::NetworkExecutor exec(cfg, /*weightSeed=*/1);
    core::plan::CompiledEngine engine = core::plan::PlanCompiler::compile(
        exec, core::PipelineKind::Delayed);
    core::plan::ContextPool ctxPool(engine);

    geom::ModelNetSim sim(17, cfg.numInputPoints);
    std::vector<geom::PointCloud> clouds;
    for (int i = 0; i < kBatchSize; ++i)
        clouds.push_back(sim.sample().cloud);

    core::BatchRunner sequential(/*numThreads=*/1);
    core::BatchRunner parallel(kBatchThreads);
    parallel.run(engine, clouds, /*seedBase=*/7, &ctxPool); // warm up

    // Per-cloud latencies aggregate across every repetition so the
    // table's wall and latency columns describe the same sample set.
    auto measure = [&](const core::BatchRunner &runner) {
        std::vector<double> wall, latencies;
        for (int rep = 0; rep < kBatchReps; ++rep) {
            core::BatchResult r =
                runner.run(engine, clouds, /*seedBase=*/7, &ctxPool);
            wall.push_back(r.wallMs);
            for (const auto &item : r.items)
                latencies.push_back(item.latencyMs);
        }
        return std::make_tuple(wall, percentile(latencies, 50.0),
                               percentile(latencies, 90.0));
    };

    auto [seqWall, seqMed, seqP90] = measure(sequential);
    auto [parWall, parMed, parP90] = measure(parallel);

    double seqMedWall = percentile(seqWall, 50.0);
    double parMedWall = percentile(parWall, 50.0);
    double speedup = parMedWall > 0.0 ? seqMedWall / parMedWall : 0.0;

    Table t("Batched serving loop — " + cfg.name + ", " +
                std::to_string(kBatchSize) + " clouds (delayed pipeline)",
            {"Mode", "Batch wall ms", "Median cloud ms", "p90 cloud ms",
             "Clouds/s"});
    t.addRow({"sequential", fmt(seqMedWall, 1), fmt(seqMed, 1),
              fmt(seqP90, 1), fmt(kBatchSize * 1000.0 / seqMedWall, 1)});
    t.addRow({std::to_string(kBatchThreads) + " threads",
              fmt(parMedWall, 1), fmt(parMed, 1), fmt(parP90, 1),
              fmt(kBatchSize * 1000.0 / parMedWall, 1)});
    t.print();
    std::cout << "speedup: " << fmtX(speedup) << "\n";

    auto params = [&](const std::string &mode, int threads) {
        return std::vector<std::pair<std::string, std::string>>{
            {"network", cfg.name},
            {"pipeline", "delayed"},
            {"clouds", std::to_string(kBatchSize)},
            {"threads", std::to_string(threads)},
            {"mode", mode},
            {"path", "compiled_engine"},
            {"simd_width", simdWidthStr()},
        };
    };
    json.add("batch16_sequential", params("sequential", 1), seqWall);
    json.add("batch16_parallel", params("parallel", kBatchThreads),
             parWall);
    json.add("batch16_speedup",
             {{"metric", "x"},
              {"value", fmt(speedup, 3)},
              {"hw_threads",
               std::to_string(ThreadPool::defaultThreads())},
              {"simd_width", simdWidthStr()}},
             {});
}

} // namespace

int
main(int argc, char **argv)
{
    bool batch_only = false;
    for (int i = 1; i < argc; ++i)
        if (std::strcmp(argv[i], "--batch-only") == 0)
            batch_only = true;

    if (!batch_only) {
        ::benchmark::Initialize(&argc, argv);
        ::benchmark::RunSpecifiedBenchmarks();
        ::benchmark::Shutdown();
    }

    bench::BenchJsonWriter json("micro_substrates");
    runMatmulSimdBench(json);
    runMatmulFShapeBench(json);
    runAggKernelBench(json);
    runKnnFeatureBench(json);
    runPlanRuntimeBench(json);
    runPlanOptimizerBench(json);
    runEngineArtifactBench(json);
    runBatchEngineBench(json);
    if (json.write())
        std::cout << "wrote " << json.path() << "\n";
    return 0;
}
