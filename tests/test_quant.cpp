/**
 * @file
 * Quantized PFT datapath tests:
 *
 *  1. Kernel parity: quantizeRowsI8/I4 and gatherMaxReduceI8/I4Into are
 *     byte-for-byte identical between the forced-scalar oracle and
 *     every SIMD copy the host runs (integer max is exact, rounding is
 *     nearest-even in all, NaN clamps to the negative limit in all)
 *     across odd column counts, strided buffers, and saturating inputs.
 *  2. Quantizer semantics: grid values round-trip exactly; the int4
 *     nibble packing clamps to [-7, 7] and zeroes odd trailing high
 *     nibbles.
 *  3. Calibration: determinism across runs, scale for a constant-zero
 *     buffer is 1 (never 0/NaN), non-finite activations and empty
 *     calibration sets are rejected with UsageError, and a network
 *     with no gather buffers (global-only, single-point cloud)
 *     compiles through the workflow unquantized.
 *  4. The calibration alone arms quantize_pft: without one the pass
 *     records ran=false and logits stay bitwise identical to the fp32
 *     reference.
 *  5. End-to-end: compileQuantizedPft rewrites the delayed and
 *     EdgeConv gathers to int8 (and to packed int4 under
 *     int4MinRows=0, including an odd-width PFT), shrinks the arena,
 *     and keeps logits close to fp32.
 *  6. Artifacts: quantized engines round-trip bitwise through
 *     save/load and re-save byte-identically; the checked-in
 *     pre-quantization fp32 artifact still loads, matches a fresh
 *     compile bitwise, and re-saves to the exact original bytes.
 */
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "common/check.hpp"
#include "common/rng.hpp"
#include "core/networks.hpp"
#include "core/plan/passes/pass.hpp"
#include "core/plan/plan_compiler.hpp"
#include "core/plan/serialize.hpp"
#include "core/plan/step_ir.hpp"
#include "geom/datasets.hpp"
#include "quant/calibrate.hpp"
#include "simd_parity.hpp"
#include "tensor/init.hpp"
#include "tensor/ops.hpp"

namespace mesorasi::core::plan {
namespace {

using geom::PointCloud;
using tensor::Tensor;

constexpr float kNan = std::numeric_limits<float>::quiet_NaN();

using parity::expectParityAtEveryIsa;

Tensor
randomTensor(uint64_t seed, int32_t rows, int32_t cols, float lo = -2.0f,
             float hi = 2.0f)
{
    Rng rng(seed);
    return tensor::uniform(rng, rows, cols, lo, hi);
}

// --- Miniature networks (as in test_plan_passes.cpp) -------------------

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

/** miniPointNet with odd (31-wide) PFTs, exercising the packed-int4
 *  odd-column path (ld padded to 32, trailing high nibble unused). */
NetworkConfig
miniOddNet()
{
    NetworkConfig net = miniPointNet();
    net.name = "mini-odd";
    net.modules[0].mlpWidths = {32, 31};
    net.modules[1].mlpWidths = {31, 64};
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
    ModuleConfig ec;
    ec.name = "ec1";
    ec.k = 8;
    ec.search = SearchKind::Knn;
    ec.space = SearchSpace::Features;
    ec.sampling = SamplingKind::All;
    ec.aggregation = AggregationKind::ConcatCentroidDifference;
    ec.mlpWidths = {16};
    ModuleConfig ec2 = ec;
    ec2.name = "ec2";
    ec2.mlpWidths = {24};
    net.modules = {ec, ec2};
    net.concatModuleOutputs = true;
    net.globalMlpWidths = {64};
    net.headWidths = {32};
    return net;
}

PointCloud
cloudFor(const NetworkConfig &cfg, uint64_t seed = 17)
{
    geom::ModelNetSim sim(seed, cfg.numInputPoints);
    return sim.sample().cloud;
}

std::vector<PointCloud>
calibClouds(const NetworkConfig &cfg, int32_t n = 3)
{
    std::vector<PointCloud> clouds;
    for (int32_t i = 0; i < n; ++i)
        clouds.push_back(cloudFor(cfg, 40 + static_cast<uint64_t>(i)));
    return clouds;
}

CompileOptions
passesOn()
{
    CompileOptions o;
    o.passes.enable = PassOptions::Enable::On;
    return o;
}

bool
bitwiseEqual(const Tensor &a, const Tensor &b)
{
    return a.rows() == b.rows() && a.cols() == b.cols() &&
           std::memcmp(a.data(), b.data(),
                       static_cast<size_t>(a.bytes())) == 0;
}

int32_t
countOp(const CompiledEngine &e, OpKind op)
{
    int32_t n = 0;
    for (const StepIR &s : e.steps())
        n += s.desc.op == op ? 1 : 0;
    return n;
}

int32_t
countDtype(const CompiledEngine &e, DType dt)
{
    int32_t n = 0;
    for (const BufferShape &b : e.bufferShapes())
        n += b.dtype == dt ? 1 : 0;
    return n;
}

float
rangeOf(const Tensor &t)
{
    float lo = t.data()[0], hi = t.data()[0];
    for (int64_t i = 0; i < t.numel(); ++i) {
        lo = std::min(lo, t.data()[i]);
        hi = std::max(hi, t.data()[i]);
    }
    return hi - lo;
}

// --- Quantizer scale ---------------------------------------------------

TEST(QuantScale, MapsRangeToClampLimit)
{
    EXPECT_FLOAT_EQ(quantScaleFor(12.7f, DType::I8), 0.1f);
    EXPECT_FLOAT_EQ(quantScaleFor(0.7f, DType::I4), 0.1f);
}

TEST(QuantScale, ConstantZeroBufferGetsScaleOne)
{
    // Any positive scale encodes an all-zero buffer exactly; 0 would
    // divide by zero in the quantizer and NaN the whole datapath.
    EXPECT_EQ(quantScaleFor(0.0f, DType::I8), 1.0f);
    EXPECT_EQ(quantScaleFor(0.0f, DType::I4), 1.0f);
}

TEST(QuantScale, RejectsNonFiniteRange)
{
    EXPECT_THROW(quantScaleFor(kNan, DType::I8), UsageError);
    EXPECT_THROW(
        quantScaleFor(std::numeric_limits<float>::infinity(), DType::I8),
        UsageError);
    EXPECT_THROW(quantScaleFor(-1.0f, DType::I4), UsageError);
}

// --- Kernel parity (every SIMD copy vs forced scalar, memcmp) ----------

TEST(QuantKernelParity, QuantizeRowsI8AcrossShapes)
{
    for (int32_t cols : {1, 3, 8, 16, 31, 33, 64, 130}) {
        int64_t rows = 7;
        Tensor src = randomTensor(500 + cols, static_cast<int32_t>(rows),
                                  cols, -3.0f, 3.0f);
        src(0, 0) = kNan;          // clamps to -127 in both paths
        src(1, cols / 2) = 400.0f; // saturates to +127
        src(2, cols - 1) = -400.0f;
        int64_t srcStride = cols + 3;
        Tensor padded(static_cast<int32_t>(rows),
                      static_cast<int32_t>(srcStride));
        for (int64_t r = 0; r < rows; ++r)
            for (int32_t c = 0; c < cols; ++c)
                padded(static_cast<int32_t>(r), c) =
                    src(static_cast<int32_t>(r), c);
        int64_t dstStride = cols + 5;
        float scale = 3.0f / 127.0f;

        std::vector<int8_t> scalar = expectParityAtEveryIsa(
            [&] {
                std::vector<int8_t> out(rows * dstStride, 42);
                tensor::quantizeRowsI8(out.data(), dstStride, padded.data(),
                                       srcStride, rows, cols, scale);
                return out;
            },
            std::to_string(cols) + " cols");
        EXPECT_EQ(scalar[0], -127); // the NaN input
        EXPECT_EQ(scalar[1 * dstStride + cols / 2], 127);
        EXPECT_EQ(scalar[2 * dstStride + cols - 1], -127);
        // Padding bytes between rows are untouched by both paths.
        if (dstStride > cols) {
            EXPECT_EQ(scalar[cols], 42);
        }
    }
}

TEST(QuantKernelParity, QuantizeRowsI4AcrossShapes)
{
    for (int32_t cols : {1, 2, 5, 16, 31, 64, 129}) {
        int64_t rows = 5;
        Tensor src = randomTensor(700 + cols, static_cast<int32_t>(rows),
                                  cols, -1.0f, 1.0f);
        src(0, 0) = kNan;
        src(1, cols / 2) = 50.0f; // saturates to +7
        int64_t strideBytes = (cols + 1) / 2 + 3;
        float scale = 1.0f / 7.0f;

        std::vector<uint8_t> scalar = expectParityAtEveryIsa(
            [&] {
                std::vector<uint8_t> out(rows * strideBytes, 0xAB);
                tensor::quantizeRowsI4(out.data(), strideBytes, src.data(),
                                       cols, rows, cols, scale);
                return out;
            },
            std::to_string(cols) + " cols");
        // NaN clamps to -7 (two's-complement nibble 0b1001).
        EXPECT_EQ(scalar[0] & 0x0F, 9);
        if (cols % 2 == 1) { // odd trailing column: high nibble zeroed
            EXPECT_EQ(scalar[(cols - 1) / 2] >> 4, 0);
        }
    }
}

TEST(QuantKernelParity, GatherMaxReduceI8AcrossShapes)
{
    Rng rng(900);
    for (int32_t cols : {1, 5, 16, 31, 33, 64, 130}) {
        int32_t srcRows = 50;
        int64_t stride = cols + 2;
        std::vector<int8_t> src(srcRows * stride);
        for (auto &v : src)
            v = static_cast<int8_t>(rng.uniformInt(-127, 127));
        std::vector<int32_t> rows;
        for (int32_t i = 0; i < 9; ++i)
            rows.push_back(
                static_cast<int32_t>(rng.uniformInt(0, srcRows - 1)));
        rows.push_back(rows[0]); // duplicate index
        float scale = 0.037f;

        std::vector<float> scalar = expectParityAtEveryIsa(
            [&] {
                std::vector<float> out(cols, -9.0f);
                tensor::gatherMaxReduceI8Into(
                    out.data(), src.data(), stride, cols, srcRows,
                    rows.data(), static_cast<int32_t>(rows.size()), scale);
                return out;
            },
            std::to_string(cols) + " cols");

        // Against a plain reference: int max then one dequantize.
        for (int32_t c = 0; c < cols; ++c) {
            int8_t m = src[static_cast<size_t>(rows[0]) * stride + c];
            for (int32_t r : rows)
                m = std::max(
                    m, src[static_cast<size_t>(r) * stride + c]);
            EXPECT_EQ(scalar[static_cast<size_t>(c)],
                      static_cast<float>(m) * scale);
        }
    }
}

TEST(QuantKernelParity, GatherMaxReduceI4AcrossShapes)
{
    Rng rng(901);
    for (int32_t cols : {1, 2, 5, 16, 31, 32, 64, 129}) {
        int32_t srcRows = 40;
        int32_t ld = cols + (cols & 1);
        int64_t strideBytes = ld / 2 + 3;
        std::vector<uint8_t> src(
            static_cast<size_t>(srcRows) * strideBytes);
        for (auto &v : src)
            v = static_cast<uint8_t>(rng.uniformInt(0, 255));
        std::vector<int32_t> rows;
        for (int32_t i = 0; i < 7; ++i)
            rows.push_back(
                static_cast<int32_t>(rng.uniformInt(0, srcRows - 1)));
        float scale = 0.21f;

        std::vector<float> scalar = expectParityAtEveryIsa(
            [&] {
                std::vector<float> out(cols);
                tensor::gatherMaxReduceI4Into(
                    out.data(), src.data(), strideBytes, cols, srcRows,
                    rows.data(), static_cast<int32_t>(rows.size()), scale);
                return out;
            },
            std::to_string(cols) + " cols");

        // Reference: unpack nibbles (sign-extended), max, dequantize.
        auto nib = [&](int32_t r, int32_t c) {
            uint8_t b =
                src[static_cast<size_t>(r) * strideBytes + (c >> 1)];
            uint8_t n = (c & 1) ? static_cast<uint8_t>(b >> 4)
                                : static_cast<uint8_t>(b & 0x0F);
            return static_cast<int8_t>((n ^ 8u) - 8);
        };
        for (int32_t c = 0; c < cols; ++c) {
            int8_t m = nib(rows[0], c);
            for (int32_t r : rows)
                m = std::max(m, nib(r, c));
            EXPECT_EQ(scalar[static_cast<size_t>(c)],
                      static_cast<float>(m) * scale);
        }
    }
}

TEST(QuantKernels, GridValuesRoundTripExactly)
{
    // Values already on the quantization grid survive quantize ->
    // dequantize bitwise: q in [-127, 127] is exact in float, and
    // q * scale -> round(x / scale) recovers q for scale a power of 2.
    const float scale = 0.03125f; // 2^-5
    const int32_t cols = 37;
    Tensor src(1, cols);
    for (int32_t c = 0; c < cols; ++c)
        src(0, c) = static_cast<float>((c * 7) % 255 - 127) * scale;
    std::vector<int8_t> q(cols);
    tensor::quantizeRowsI8(q.data(), cols, src.data(), cols, 1, cols,
                           scale);
    std::vector<float> back(cols);
    tensor::dequantizeRowI8(back.data(), q.data(), cols, scale);
    EXPECT_EQ(std::memcmp(back.data(), src.data(), cols * sizeof(float)),
              0);

    // Int4 twin over its [-7, 7] grid.
    Tensor src4(1, cols);
    for (int32_t c = 0; c < cols; ++c)
        src4(0, c) = static_cast<float>(c % 15 - 7) * scale;
    std::vector<uint8_t> q4((cols + 1) / 2);
    tensor::quantizeRowsI4(q4.data(), (cols + 1) / 2, src4.data(), cols,
                           1, cols, scale);
    std::vector<float> back4(cols);
    tensor::dequantizeRowI4(back4.data(), q4.data(), cols, scale);
    EXPECT_EQ(
        std::memcmp(back4.data(), src4.data(), cols * sizeof(float)), 0);
}

// --- Calibration -------------------------------------------------------

TEST(Calibration, DeterministicAndCoversGatherInputs)
{
    NetworkConfig cfg = miniPointNet();
    NetworkExecutor exec(cfg, /*weightSeed=*/3);
    CompiledEngine fp32 =
        PlanCompiler::compile(exec, PipelineKind::Delayed, passesOn());
    std::vector<PointCloud> clouds = calibClouds(cfg);

    PftCalibration a = quant::calibratePft(fp32, clouds, 7);
    PftCalibration b = quant::calibratePft(fp32, clouds, 7);
    ASSERT_FALSE(a.empty());
    // One gathered PFT per non-global encoder module (sa1, sa2).
    EXPECT_EQ(a.maxAbs.size(), 2u);
    EXPECT_EQ(a.maxAbs, b.maxAbs);
    for (const auto &[buf, maxAbs] : a.maxAbs) {
        EXPECT_TRUE(std::isfinite(maxAbs)) << "buffer " << buf;
        EXPECT_GT(maxAbs, 0.0f) << "buffer " << buf;
    }
}

TEST(Calibration, RejectsEmptyCloudSet)
{
    NetworkConfig cfg = miniPointNet();
    NetworkExecutor exec(cfg, 3);
    CompiledEngine fp32 =
        PlanCompiler::compile(exec, PipelineKind::Delayed, passesOn());
    EXPECT_THROW(quant::calibratePft(fp32, {}, 0), UsageError);
}

TEST(Calibration, RejectsNonFiniteActivations)
{
    // NaN coordinates never reach the PFT (relu flushes NaN to +0), so
    // the non-finite case is +Inf: a single-layer MLP (no later
    // Inf - Inf wash) over a point with all-huge coordinates overflows
    // relu(Wx + b) to +Inf in the gathered buffer.
    NetworkConfig cfg;
    cfg.name = "mini-1layer";
    cfg.numInputPoints = 64;
    cfg.numClasses = 4;
    ModuleConfig sa1;
    sa1.name = "sa1";
    sa1.numCentroids = 16;
    sa1.k = 8;
    sa1.search = SearchKind::Knn;
    sa1.sampling = SamplingKind::Random;
    sa1.mlpWidths = {16};
    cfg.modules = {sa1};
    cfg.headWidths = {8};
    NetworkExecutor exec(cfg, 3);
    CompiledEngine fp32 =
        PlanCompiler::compile(exec, PipelineKind::Delayed, passesOn());
    PointCloud bad = cloudFor(cfg);
    bad[0] = {3.0e38f, 3.0e38f, 3.0e38f};
    EXPECT_THROW(quant::calibratePft(fp32, {bad}, 0), UsageError);
}

TEST(Calibration, GlobalOnlySinglePointNetworkStaysUnquantized)
{
    // One global module over a single-point cloud: no gathers, so
    // calibration is empty and the workflow must come back fp32
    // instead of crashing on the degenerate shape.
    NetworkConfig cfg;
    cfg.name = "mini-global";
    cfg.numInputPoints = 1;
    cfg.numClasses = 3;
    cfg.modules = {miniGlobal("g", {8, 16})};
    cfg.headWidths = {8};
    NetworkExecutor exec(cfg, 3);
    CompiledEngine fp32 =
        PlanCompiler::compile(exec, PipelineKind::Delayed, passesOn());
    std::vector<PointCloud> clouds = calibClouds(cfg, 2);
    EXPECT_TRUE(quant::calibratePft(fp32, clouds).empty());

    CompiledEngine q = quant::compileQuantizedPft(
        exec, PipelineKind::Delayed, passesOn(), clouds);
    EXPECT_EQ(q.stats().buffersQuantized, 0);
    EXPECT_EQ(countOp(q, OpKind::QuantizeRows), 0);
    auto ctx = q.makeContext();
    auto ctxRef = fp32.makeContext();
    EXPECT_TRUE(bitwiseEqual(q.execute(clouds[0], 1, *ctx),
                             fp32.execute(clouds[0], 1, *ctxRef)));
}

TEST(Calibration, ConstantZeroRangeQuantizesWithScaleOne)
{
    NetworkConfig cfg = miniPointNet();
    NetworkExecutor exec(cfg, 3);
    CompiledEngine fp32 =
        PlanCompiler::compile(exec, PipelineKind::Delayed, passesOn());
    PftCalibration real =
        quant::calibratePft(fp32, calibClouds(cfg, 1), 0);
    ASSERT_FALSE(real.empty());

    // Forge a constant-zero range for every gathered buffer: the pass
    // must still produce a positive scale (1), not 0 or NaN.
    CompileOptions opts = passesOn();
    for (const auto &[buf, unused] : real.maxAbs)
        opts.passes.quantCalibration.maxAbs[buf] = 0.0f;
    CompiledEngine q =
        PlanCompiler::compile(exec, PipelineKind::Delayed, opts);
    EXPECT_GT(q.stats().buffersQuantized, 0);
    for (const BufferShape &b : q.bufferShapes())
        if (b.dtype != DType::F32) {
            EXPECT_EQ(b.qscale, 1.0f);
        }
    auto ctx = q.makeContext();
    const Tensor &logits = q.execute(cloudFor(cfg), 1, *ctx);
    for (int64_t i = 0; i < logits.numel(); ++i)
        EXPECT_TRUE(std::isfinite(logits.data()[i]));
}

// --- The calibration arms the pass ------------------------------------

TEST(QuantGate, NoCalibrationIsBitwiseFp32)
{
    // Only a calibration table arms quantize_pft: without one the pass
    // records ran=false and the engine matches the fp32 reference bit
    // for bit.
    NetworkConfig cfg = miniPointNet();
    NetworkExecutor exec(cfg, 3);
    CompiledEngine fp32 =
        PlanCompiler::compile(exec, PipelineKind::Delayed, passesOn());

    bool sawSkipped = false;
    for (const PassStat &p : fp32.passStats())
        if (p.pass == "quantize_pft") {
            EXPECT_FALSE(p.ran);
            sawSkipped = true;
        }
    EXPECT_TRUE(sawSkipped);
    EXPECT_EQ(fp32.stats().buffersQuantized, 0);
    EXPECT_EQ(countOp(fp32, OpKind::QuantizeRows), 0);

    PointCloud cloud = cloudFor(cfg);
    auto ctx = fp32.makeContext();
    for (uint64_t seed : {1ull, 9ull})
        EXPECT_TRUE(
            bitwiseEqual(fp32.execute(cloud, seed, *ctx),
                         exec.run(cloud, PipelineKind::Delayed, seed).logits))
            << "seed " << seed;
}

// --- End-to-end quantized engines --------------------------------------

TEST(QuantEndToEnd, DelayedInt8ShrinksArenaAndTracksFp32)
{
    NetworkConfig cfg = miniPointNet();
    NetworkExecutor exec(cfg, 3);
    CompiledEngine fp32 =
        PlanCompiler::compile(exec, PipelineKind::Delayed, passesOn());
    std::vector<PointCloud> clouds = calibClouds(cfg);
    CompiledEngine q = quant::compileQuantizedPft(
        exec, PipelineKind::Delayed, passesOn(), clouds);

    EXPECT_EQ(q.stats().buffersQuantized, 2);
    EXPECT_EQ(countOp(q, OpKind::QuantizeRows), 2);
    EXPECT_EQ(countDtype(q, DType::I8), 2);
    // The int8 PFT copies die right after the gathers, so the arena
    // never grows past fp32 despite the extra buffers.
    EXPECT_LE(q.stats().arenaFloats, fp32.stats().arenaFloats);

    std::ostringstream dump;
    q.dump(dump);
    EXPECT_NE(dump.str().find(":i8"), std::string::npos);
    EXPECT_NE(dump.str().find("quantize_rows"), std::string::npos);
    EXPECT_NE(dump.str().find("quantized"), std::string::npos);

    PointCloud cloud = cloudFor(cfg, 99);
    auto ctxRef = fp32.makeContext();
    auto ctxQ = q.makeContext();
    const Tensor &ref = fp32.execute(cloud, 5, *ctxRef);
    const Tensor &got = q.execute(cloud, 5, *ctxQ);
    ASSERT_EQ(ref.rows(), got.rows());
    ASSERT_EQ(ref.cols(), got.cols());
    float range = rangeOf(ref);
    ASSERT_GT(range, 0.0f);
    EXPECT_LT(ref.maxAbsDiff(got), 0.25f * range);
}

TEST(QuantEndToEnd, EdgeConcatQuantizesTheGatherOperandOnly)
{
    // EdgeConv's split-weight epilogue reads a separate f32 aux buffer:
    // only the gather operand quantizes, exercising the mixed
    // int8-in / f32-aux fused path.
    NetworkConfig cfg = miniEdgeNet();
    NetworkExecutor exec(cfg, 3);
    std::vector<PointCloud> clouds = calibClouds(cfg);
    CompiledEngine q = quant::compileQuantizedPft(
        exec, PipelineKind::Delayed, passesOn(), clouds);

    EXPECT_EQ(q.stats().buffersQuantized, 2); // one per EdgeConv module
    auto ctx = q.makeContext();
    const Tensor &logits = q.execute(clouds[0], 1, *ctx);
    for (int64_t i = 0; i < logits.numel(); ++i)
        EXPECT_TRUE(std::isfinite(logits.data()[i]));
}

TEST(QuantEndToEnd, Int4PacksIncludingOddWidths)
{
    NetworkConfig cfg = miniOddNet();
    NetworkExecutor exec(cfg, 3);
    CompiledEngine fp32 =
        PlanCompiler::compile(exec, PipelineKind::Delayed, passesOn());
    std::vector<PointCloud> clouds = calibClouds(cfg);
    CompiledEngine q = quant::compileQuantizedPft(
        exec, PipelineKind::Delayed, passesOn(), clouds,
        /*seedBase=*/0, /*int4MinRows=*/0);

    EXPECT_EQ(countDtype(q, DType::I4), 2);
    for (const BufferShape &b : q.bufferShapes())
        if (b.dtype == DType::I4) {
            EXPECT_EQ(b.ld % 2, 0);
            EXPECT_GE(b.ld, b.cols);
        }
    EXPECT_LE(q.stats().arenaFloats, fp32.stats().arenaFloats);

    auto ctx = q.makeContext();
    const Tensor &logits = q.execute(clouds[0], 3, *ctx);
    for (int64_t i = 0; i < logits.numel(); ++i)
        EXPECT_TRUE(std::isfinite(logits.data()[i]));
}

// --- Artifacts ---------------------------------------------------------

TEST(QuantSerialize, QuantizedEngineRoundTripsBitwise)
{
    NetworkConfig cfg = miniPointNet();
    NetworkExecutor exec(cfg, 3);
    std::vector<PointCloud> clouds = calibClouds(cfg);
    for (int64_t int4MinRows :
         {std::numeric_limits<int64_t>::max(), int64_t{0}}) {
        CompiledEngine q = quant::compileQuantizedPft(
            exec, PipelineKind::Delayed, passesOn(), clouds, 0,
            int4MinRows);
        std::vector<uint8_t> bytes = saveEngineToBytes(q);
        CompiledEngine loaded =
            loadEngineFromBytes(bytes.data(), bytes.size());

        EXPECT_EQ(loaded.stats().buffersQuantized,
                  q.stats().buffersQuantized);
        for (size_t i = 0; i < q.bufferShapes().size(); ++i) {
            EXPECT_EQ(loaded.bufferShapes()[i].dtype,
                      q.bufferShapes()[i].dtype);
            EXPECT_EQ(loaded.bufferShapes()[i].qscale,
                      q.bufferShapes()[i].qscale);
        }

        PointCloud cloud = cloudFor(cfg, 123);
        auto ctxA = q.makeContext();
        auto ctxB = loaded.makeContext();
        for (uint64_t seed : {2ull, 11ull})
            EXPECT_TRUE(bitwiseEqual(q.execute(cloud, seed, *ctxA),
                                     loaded.execute(cloud, seed, *ctxB)))
                << "int4MinRows " << int4MinRows << " seed " << seed;

        EXPECT_EQ(saveEngineToBytes(loaded), bytes);
    }
}

TEST(QuantSerialize, RejectsCorruptQuantSection)
{
    NetworkConfig cfg = miniPointNet();
    NetworkExecutor exec(cfg, 3);
    CompiledEngine q = quant::compileQuantizedPft(
        exec, PipelineKind::Delayed, passesOn(), calibClouds(cfg, 1));
    std::vector<uint8_t> bytes = saveEngineToBytes(q);

    // Truncating the quant section mid-entry must fail cleanly.
    std::vector<uint8_t> cut(bytes.begin(), bytes.end() - 3);
    EXPECT_THROW(loadEngineFromBytes(cut.data(), cut.size()),
                 UsageError);
}

TEST(QuantSerialize, PreQuantizationArtifactStillLoads)
{
    // Checked-in fp32 artifact from the PR 7 format (no quant
    // section): it must load, execute bitwise identically to a fresh
    // compile of the same network/weights, and re-save to the exact
    // original bytes (the quant section is absent, not empty).
    const std::string path = std::string(MESORASI_TEST_DATA_DIR) +
                             "/engine_pr7_fp32_delayed.meso";
    std::ifstream in(path, std::ios::binary | std::ios::ate);
    ASSERT_TRUE(in.good()) << path;
    std::vector<uint8_t> original(static_cast<size_t>(in.tellg()));
    in.seekg(0);
    in.read(reinterpret_cast<char *>(original.data()),
            static_cast<std::streamsize>(original.size()));
    ASSERT_TRUE(in.good());

    CompiledEngine loaded = loadEngine(path);
    EXPECT_EQ(loaded.stats().buffersQuantized, 0);
    EXPECT_EQ(countOp(loaded, OpKind::QuantizeRows), 0);

    NetworkConfig cfg = miniPointNet();
    NetworkExecutor exec(cfg, /*weightSeed=*/1);
    CompiledEngine fresh =
        PlanCompiler::compile(exec, PipelineKind::Delayed);
    PointCloud cloud = cloudFor(cfg, 23);
    auto ctxA = loaded.makeContext();
    auto ctxB = fresh.makeContext();
    for (uint64_t seed : {7ull, 8ull})
        EXPECT_TRUE(bitwiseEqual(loaded.execute(cloud, seed, *ctxA),
                                 fresh.execute(cloud, seed, *ctxB)))
            << "seed " << seed;

    EXPECT_EQ(saveEngineToBytes(loaded), original);
}

} // namespace
} // namespace mesorasi::core::plan
