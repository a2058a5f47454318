/**
 * @file
 * Engine artifact serialization tests:
 *
 *  1. Round-trip bitwise parity: a saved-then-loaded engine's logits
 *     equal the freshly compiled engine's and the sequential reference
 *     bit for bit — across 3 pipelines x 3 neighbor backends,
 *     with the optimizer pass pipeline on AND off, and over the
 *     concat-head / interp-decoder / detection network shapes.
 *  2. Determinism of the bytes themselves: re-serializing yields the
 *     identical artifact, and serializedEngineSize matches it; every zoo
 *     network x pipeline saves to pinned bytes (FNV-1a digests), so the
 *     row-major weight codec over matmul panels cannot drift.
 *  3. Concurrency: several ExecutionContexts execute one loaded
 *     CompiledEngine from parallel threads with bitwise-deterministic
 *     results.
 *  4. Robustness: truncated, bit-flipped, magic- and version-mangled
 *     artifacts either throw UsageError/InternalError with a clear
 *     message or (for flips that keep the artifact well-formed) load
 *     an engine that then executes once cleanly or with a typed error
 *     — never UB. The loader re-derives each step's read/write sets
 *     from the op schema and rejects stored sets that differ, and
 *     rejects the retired op kind 7 and stored plan statistics that
 *     differ from the decoded plan. A module no step touches gets no
 *     context state, whatever its stored shapes. The CI sanitize job runs this
 *     suite under ASan/UBSan, which is what turns "never UB" from a
 *     comment into a checked property.
 *
 * Every compile pins PassOptions::Enable explicitly so the suite is
 * green regardless of MESORASI_PLAN_PASSES.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "common/check.hpp"
#include "common/rng.hpp"
#include "core/networks.hpp"
#include "core/plan/op_schema.hpp"
#include "core/plan/plan_compiler.hpp"
#include "core/plan/serialize.hpp"
#include "core/plan/step_ir.hpp"
#include "geom/datasets.hpp"
#include "quant/calibrate.hpp"

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

/** miniPointNet with farthest-point sampling: the only ResolveSample
 *  mode that reads a buffer. */
NetworkConfig
miniFpsNet()
{
    NetworkConfig net = miniPointNet();
    net.name = "mini-pnpp-fps";
    net.modules[0].sampling = SamplingKind::FarthestPoint;
    net.modules[1].sampling = SamplingKind::FarthestPoint;
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

/** Smallest viable network: keeps the mangling sweeps affordable. */
NetworkConfig
tinyNet()
{
    NetworkConfig net;
    net.name = "tiny";
    net.numInputPoints = 32;
    net.numClasses = 2;
    net.modules = {miniSa("sa1", 8, 4, 0.5f, {4}), miniGlobal("g", {4})};
    net.headWidths = {4};
    return net;
}

PointCloud
cloudFor(const NetworkConfig &cfg, uint64_t seed = 17)
{
    geom::ModelNetSim sim(seed, cfg.numInputPoints);
    return sim.sample().cloud;
}

CompileOptions
withPasses(PassOptions::Enable enable)
{
    CompileOptions o;
    o.passes.enable = enable;
    return o;
}

void
expectBitwise(const Tensor &a, const Tensor &b, const std::string &what)
{
    ASSERT_EQ(a.rows(), b.rows()) << what;
    ASSERT_EQ(a.cols(), b.cols()) << what;
    EXPECT_EQ(a.maxAbsDiff(b), 0.0f) << what;
}

/** Compile, round-trip through bytes, and assert the loaded engine
 *  matches both the fresh engine and the sequential reference bitwise. */
void
checkRoundTrip(const NetworkConfig &cfg, PipelineKind kind,
               PassOptions::Enable enable, const std::string &what)
{
    NetworkExecutor exec(cfg, /*weightSeed=*/3);
    CompiledEngine fresh =
        PlanCompiler::compile(exec, kind, withPasses(enable));
    std::vector<uint8_t> bytes = saveEngineToBytes(fresh);
    CompiledEngine loaded = loadEngineFromBytes(bytes.data(), bytes.size());

    EXPECT_EQ(loaded.pipeline(), fresh.pipeline()) << what;
    EXPECT_EQ(loaded.steps().size(), fresh.steps().size()) << what;
    EXPECT_EQ(saveEngineToBytes(loaded), bytes) << what << " re-save";

    auto fctx = fresh.makeContext();
    auto lctx = loaded.makeContext();
    PointCloud cloud = cloudFor(cfg);
    for (uint64_t seed : {1ull, 9ull}) {
        Tensor ref = exec.run(cloud, kind, seed).logits;
        expectBitwise(fresh.execute(cloud, seed, *fctx), ref,
                      what + " fresh seed " + std::to_string(seed));
        expectBitwise(loaded.execute(cloud, seed, *lctx), ref,
                      what + " loaded seed " + std::to_string(seed));
    }
}

/** Load deliberately mangled bytes and, if they load, execute the
 *  engine once on a fresh context. The only acceptable load outcomes
 *  are UsageError carrying StatusCode::CorruptArtifact, InternalError,
 *  or a decoded engine; a decoded engine must then execute cleanly or
 *  fail with a typed (UsageError/InternalError) error. Anything else —
 *  another exception type, an untyped rejection, a crash, or memory
 *  badness under the sanitizers — fails the test. */
void
loadMangled(const std::vector<uint8_t> &bytes, const PointCloud &cloud,
            const std::string &what)
{
    std::optional<CompiledEngine> e;
    try {
        e.emplace(loadEngineFromBytes(bytes.data(), bytes.size()));
    } catch (const UsageError &err) {
        EXPECT_EQ(err.code(), StatusCode::CorruptArtifact)
            << what << ": untyped rejection: " << err.what();
        return;
    } catch (const InternalError &) {
        return;
    } catch (...) {
        FAIL() << what << ": unexpected exception type escaped load";
    }
    try {
        auto ctx = e->makeContext();
        e->execute(cloud, 1, *ctx);
    } catch (const UsageError &) {
    } catch (const InternalError &) {
    } catch (...) {
        FAIL() << what << ": unexpected exception type escaped execute";
    }
}

/** Expect @p bytes to be rejected at load with CorruptArtifact and a
 *  message naming @p reason. */
void
expectCorrupt(const std::vector<uint8_t> &bytes, const std::string &reason,
              const std::string &what)
{
    Expected<CompiledEngine> got =
        tryLoadEngineFromBytes(bytes.data(), bytes.size());
    ASSERT_FALSE(got.hasValue()) << what << ": mangled artifact loaded";
    EXPECT_EQ(got.status().code(), StatusCode::CorruptArtifact)
        << what << ": " << got.status().toString();
    EXPECT_NE(got.status().message().find(reason), std::string::npos)
        << what << ": " << got.status().toString();
}

// --- Artifact surgery: locate one step's fields in the bytes ----------

int32_t
readI32(const std::vector<uint8_t> &b, size_t at)
{
    int32_t v;
    std::memcpy(&v, b.data() + at, sizeof v);
    return v;
}

void
writeI32(std::vector<uint8_t> &b, size_t at, int32_t v)
{
    std::memcpy(b.data() + at, &v, sizeof v);
}

/** Offset just past the descriptor field (tag, value) at @p at. */
size_t
skipField(const std::vector<uint8_t> &b, size_t at)
{
    uint8_t tag = b[at++];
    if (tag == 6)
        return at + 8; // rows: i64
    if (tag >= 20 && tag <= 22)
        return at + 1; // relu, knn, concat: u8
    if (tag == 23)
        return at + 4 + static_cast<size_t>(readI32(b, at)); // custom
    if (tag == 24)
        return at + 4 + 4 * static_cast<size_t>(readI32(b, at)); // srcs
    return at + 4; // every other tag: i32 or f32
}

/** Offset just past the descriptor starting at @p at. */
size_t
skipDesc(const std::vector<uint8_t> &b, size_t at)
{
    while (b[at] != 0)
        at = skipField(b, at);
    return at + 1;
}

/** Byte offsets of one serialized step's fields. */
struct StepBytes
{
    size_t desc;   ///< the head descriptor's first tag
    size_t reads;  ///< the read set's u32 count
    size_t writes; ///< the write set's u32 count
    size_t root;   ///< the root flag
};

/** Find step @p name: its length-prefixed name is unique in the
 *  artifact, and the step's fields follow it in save order. */
StepBytes
findStep(const std::vector<uint8_t> &b, const std::string &name)
{
    std::vector<uint8_t> key(4 + name.size());
    uint32_t n = static_cast<uint32_t>(name.size());
    std::memcpy(key.data(), &n, 4);
    std::memcpy(key.data() + 4, name.data(), name.size());
    auto it = std::search(b.begin(), b.end(), key.begin(), key.end());
    MESO_CHECK(it != b.end(), "no step named " << name);
    StepBytes s;
    s.desc = static_cast<size_t>(it - b.begin()) + key.size();
    size_t at = skipDesc(b, s.desc);
    int32_t tails = readI32(b, at);
    at += 4;
    for (int32_t t = 0; t < tails; ++t)
        at = skipDesc(b, at);
    s.reads = at;
    s.writes = s.reads + 4 + 4 * static_cast<size_t>(readI32(b, s.reads));
    s.root = s.writes + 4 + 4 * static_cast<size_t>(readI32(b, s.writes));
    return s;
}

/** Offset of the value of tag @p tag in the descriptor at @p at. */
size_t
findTag(const std::vector<uint8_t> &b, size_t at, uint8_t tag)
{
    while (b[at] != tag && b[at] != 0)
        at = skipField(b, at);
    EXPECT_EQ(b[at], tag) << "tag " << static_cast<int>(tag)
                          << " not in descriptor";
    return at + 1;
}

// --- Round-trip bitwise parity ----------------------------------------

TEST(EngineSerialize, RoundTripAcrossPipelinesBackendsAndPasses)
{
    NetworkConfig base = miniPointNet();
    for (PipelineKind kind :
         {PipelineKind::Original, PipelineKind::Delayed,
          PipelineKind::LtdDelayed}) {
        for (neighbor::Backend backend :
             {neighbor::Backend::BruteForce, neighbor::Backend::Grid,
              neighbor::Backend::KdTree}) {
            for (auto enable :
                 {PassOptions::Enable::Off, PassOptions::Enable::On}) {
                NetworkConfig cfg = base;
                cfg.backend = backend;
                checkRoundTrip(
                    cfg, kind, enable,
                    std::string(pipelineName(kind)) + "/" +
                        neighbor::backendName(backend) +
                        (enable == PassOptions::Enable::On ? "/on"
                                                           : "/off"));
            }
        }
    }
}

TEST(EngineSerialize, RoundTripNetworkShapes)
{
    for (auto enable :
         {PassOptions::Enable::Off, PassOptions::Enable::On}) {
        std::string sfx =
            enable == PassOptions::Enable::On ? "/on" : "/off";
        for (PipelineKind kind :
             {PipelineKind::Original, PipelineKind::Delayed,
              PipelineKind::LtdDelayed})
            checkRoundTrip(miniEdgeNet(), kind, enable,
                           std::string("edge/") + pipelineName(kind) +
                               sfx);
        checkRoundTrip(miniSegNet(), PipelineKind::Delayed, enable,
                       "seg" + sfx);
        checkRoundTrip(miniSegNet(), PipelineKind::Original, enable,
                       "seg-orig" + sfx);
        checkRoundTrip(miniDetNet(), PipelineKind::Delayed, enable,
                       "det" + sfx);
        for (PipelineKind kind :
             {PipelineKind::Original, PipelineKind::Delayed,
              PipelineKind::LtdDelayed})
            checkRoundTrip(miniFpsNet(), kind, enable,
                           std::string("fps/") + pipelineName(kind) + sfx);
    }
}

// --- Artifact bytes ---------------------------------------------------

TEST(EngineSerialize, SerializationIsDeterministic)
{
    NetworkExecutor exec(miniPointNet(), 3);
    CompiledEngine eng = PlanCompiler::compile(
        exec, PipelineKind::Delayed, withPasses(PassOptions::Enable::On));
    std::vector<uint8_t> a = saveEngineToBytes(eng);
    std::vector<uint8_t> b = saveEngineToBytes(eng);
    EXPECT_EQ(a, b);
    EXPECT_EQ(serializedEngineSize(eng),
              static_cast<int64_t>(a.size()));

    // A loaded engine re-serializes to the identical artifact.
    CompiledEngine loaded = loadEngineFromBytes(a.data(), a.size());
    EXPECT_EQ(saveEngineToBytes(loaded), a);
}

/** FNV-1a 64 over @p bytes. */
uint64_t
fnv1a(const std::vector<uint8_t> &bytes)
{
    uint64_t h = 1469598103934665603ull;
    for (uint8_t b : bytes) {
        h ^= b;
        h *= 1099511628211ull;
    }
    return h;
}

TEST(EngineSerialize, ZooArtifactsKeepTheirPinnedBytes)
{
    // Every zoo network x pipeline (weight seed 3, passes on), pinned
    // from the row-major weight storage that preceded matmul panels.
    // Layer weights now live as panels, and save must still write the
    // row-major bytes of the matrix each panel set packs; a loaded
    // engine must re-save them unchanged.
    struct Pin
    {
        const char *net;
        PipelineKind kind;
        size_t size;
        uint64_t fnv;
    };
    const Pin pins[] = {
        {"PointNet++ (c)", PipelineKind::Original, 5873905, 0xa4fc7d6368080095ull},
        {"PointNet++ (c)", PipelineKind::Delayed, 5873740, 0x47b6bfa140a46832ull},
        {"PointNet++ (c)", PipelineKind::LtdDelayed, 5941311, 0xe96cae19f7d363f2ull},
        {"PointNet++ (s)", PipelineKind::Original, 5601835, 0x9640a123eb8aa296ull},
        {"PointNet++ (s)", PipelineKind::Delayed, 5601670, 0xefd10dc899646882ull},
        {"PointNet++ (s)", PipelineKind::LtdDelayed, 5669241, 0xd87354d357299bd8ull},
        {"DGCNN (c)", PipelineKind::Original, 5134227, 0x950f590e758535baull},
        {"DGCNN (c)", PipelineKind::Delayed, 5134546, 0x7ba266816a68fcfaull},
        {"DGCNN (c)", PipelineKind::LtdDelayed, 5134546, 0x002a90661e574635ull},
        {"DGCNN (s)", PipelineKind::Original, 2527938, 0x22721b7244937889ull},
        {"DGCNN (s)", PipelineKind::Delayed, 2528171, 0x4f33fb12646b1534ull},
        {"DGCNN (s)", PipelineKind::LtdDelayed, 2528171, 0xb34e0d0142a78c51ull},
        {"F-PointNet", PipelineKind::Original, 7279902, 0x5ddb54e82b835ed6ull},
        {"F-PointNet", PipelineKind::Delayed, 7279854, 0x3bdbf6912929dd01ull},
        {"F-PointNet", PipelineKind::LtdDelayed, 7347054, 0x95fa001f01a9a252ull},
        {"LDGCNN", PipelineKind::Original, 4288045, 0x079a93a9e901f2d7ull},
        {"LDGCNN", PipelineKind::Delayed, 4288302, 0x5743d1b565e05d9bull},
        {"LDGCNN", PipelineKind::LtdDelayed, 4288302, 0xc525a4d4e118594cull},
        {"DensePoint", PipelineKind::Original, 1069678, 0x51f20293254da40cull},
        {"DensePoint", PipelineKind::Delayed, 1069215, 0x66c72110e5aaeaa9ull},
        {"DensePoint", PipelineKind::LtdDelayed, 1070084, 0xace1c65258347eb9ull},
    };
    std::vector<NetworkConfig> nets = zoo::allNetworks();
    ASSERT_EQ(std::size(pins), 3 * nets.size());
    for (const NetworkConfig &cfg : nets) {
        NetworkExecutor exec(cfg, /*weightSeed=*/3);
        for (const Pin &pin : pins) {
            if (cfg.name != pin.net)
                continue;
            std::string what = cfg.name + "/" + pipelineName(pin.kind);
            std::vector<uint8_t> bytes = saveEngineToBytes(
                PlanCompiler::compile(exec, pin.kind,
                                      withPasses(PassOptions::Enable::On)));
            EXPECT_EQ(bytes.size(), pin.size) << what;
            EXPECT_EQ(fnv1a(bytes), pin.fnv) << what;
            CompiledEngine loaded =
                loadEngineFromBytes(bytes.data(), bytes.size());
            EXPECT_EQ(saveEngineToBytes(loaded), bytes) << what << " re-save";
        }
    }
}

// --- Concurrency on a loaded engine -----------------------------------

TEST(EngineSerialize, ConcurrentContextsOnLoadedEngine)
{
    NetworkConfig cfg = miniPointNet();
    NetworkExecutor exec(cfg, 3);
    CompiledEngine fresh = PlanCompiler::compile(
        exec, PipelineKind::Delayed, withPasses(PassOptions::Enable::On));
    std::vector<uint8_t> bytes = saveEngineToBytes(fresh);
    CompiledEngine loaded = loadEngineFromBytes(bytes.data(), bytes.size());

    constexpr int kThreads = 4;
    constexpr int kRepsPerThread = 3;
    std::vector<PointCloud> clouds;
    for (int s = 0; s < kThreads; ++s)
        clouds.push_back(cloudFor(cfg, 31 + static_cast<uint64_t>(s)));

    // Serial references from the fresh engine.
    std::vector<Tensor> ref;
    auto rctx = fresh.makeContext();
    for (int i = 0; i < kThreads; ++i)
        ref.push_back(
            fresh.execute(clouds[static_cast<size_t>(i)],
                          100 + static_cast<uint64_t>(i), *rctx));

    // One loaded engine, one context per thread, repeated executions.
    std::vector<Tensor> got(kThreads);
    std::vector<std::thread> workers;
    for (int t = 0; t < kThreads; ++t)
        workers.emplace_back([&, t] {
            auto ctx = loaded.makeContext();
            for (int rep = 0; rep < kRepsPerThread; ++rep)
                got[static_cast<size_t>(t)] = loaded.execute(
                    clouds[static_cast<size_t>(t)],
                    100 + static_cast<uint64_t>(t), *ctx);
        });
    for (std::thread &w : workers)
        w.join();

    for (int i = 0; i < kThreads; ++i)
        expectBitwise(got[static_cast<size_t>(i)],
                      ref[static_cast<size_t>(i)],
                      "thread " + std::to_string(i));
}

// --- Robustness: corrupt artifacts never UB ---------------------------

TEST(EngineSerialize, RejectsBadMagic)
{
    NetworkExecutor exec(tinyNet(), 3);
    CompiledEngine eng = PlanCompiler::compile(
        exec, PipelineKind::Delayed, withPasses(PassOptions::Enable::On));
    std::vector<uint8_t> bytes = saveEngineToBytes(eng);
    bytes[0] ^= 0x5A;
    try {
        loadEngineFromBytes(bytes.data(), bytes.size());
        FAIL() << "bad magic accepted";
    } catch (const UsageError &e) {
        EXPECT_NE(std::string(e.what()).find("bad magic"),
                  std::string::npos)
            << e.what();
    }
}

TEST(EngineSerialize, RejectsVersionMismatch)
{
    NetworkExecutor exec(tinyNet(), 3);
    CompiledEngine eng = PlanCompiler::compile(
        exec, PipelineKind::Delayed, withPasses(PassOptions::Enable::On));
    std::vector<uint8_t> bytes = saveEngineToBytes(eng);
    uint32_t bogus = kEngineFormatVersion + 1;
    std::memcpy(bytes.data() + 4, &bogus, sizeof bogus);
    try {
        loadEngineFromBytes(bytes.data(), bytes.size());
        FAIL() << "future format version accepted";
    } catch (const UsageError &e) {
        EXPECT_NE(std::string(e.what()).find("not supported"),
                  std::string::npos)
            << e.what();
    }
}

TEST(EngineSerialize, TruncationSweepNeverUB)
{
    NetworkExecutor exec(tinyNet(), 3);
    CompiledEngine eng = PlanCompiler::compile(
        exec, PipelineKind::Delayed, withPasses(PassOptions::Enable::On));
    std::vector<uint8_t> bytes = saveEngineToBytes(eng);
    ASSERT_GT(bytes.size(), 64u);

    // Every prefix of the header region, then evenly spaced cuts
    // through the tables. A strict prefix can never decode to a full
    // artifact (the trailing-bytes check would need the exact size),
    // so each cut must throw — cleanly.
    std::vector<size_t> cuts;
    for (size_t n = 0; n < 64; ++n)
        cuts.push_back(n);
    for (size_t n = 64; n + 1 < bytes.size();
         n += std::max<size_t>(1, bytes.size() / 256))
        cuts.push_back(n);
    for (size_t n : cuts) {
        std::vector<uint8_t> cut(bytes.begin(),
                                 bytes.begin() +
                                     static_cast<ptrdiff_t>(n));
        try {
            loadEngineFromBytes(cut.data(), cut.size());
            FAIL() << "truncated artifact of " << n
                   << " bytes accepted";
        } catch (const UsageError &) {
        } catch (const InternalError &) {
        } catch (...) {
            FAIL() << "truncation at " << n
                   << ": unexpected exception type";
        }
    }
}

TEST(EngineSerialize, ByteFlipSweepNeverUB)
{
    NetworkExecutor exec(tinyNet(), 3);
    CompiledEngine eng = PlanCompiler::compile(
        exec, PipelineKind::Delayed, withPasses(PassOptions::Enable::On));
    const std::vector<uint8_t> good = saveEngineToBytes(eng);
    const PointCloud cloud = cloudFor(tinyNet());

    // Flip every byte once (XOR 0xFF), plus milder single-bit flips at
    // every offset; each mangled artifact must either throw a typed
    // error or decode+validate+bake and then execute cleanly or with a
    // typed error. Under the CI sanitize job this sweep is the "never
    // UB" proof.
    for (size_t i = 0; i < good.size(); ++i) {
        std::vector<uint8_t> m = good;
        m[i] ^= 0xFF;
        loadMangled(m, cloud, "xor 0xFF at " + std::to_string(i));
        m = good;
        m[i] ^= 0x01;
        loadMangled(m, cloud, "xor 0x01 at " + std::to_string(i));
    }
}

TEST(EngineSerialize, SeededFuzzFlipsNeverCrashAndStayTyped)
{
    // Deterministic fuzz over an artifact WITH a QNT1 quant section,
    // so the quant-entry decoding and the quantized-role validation
    // are in the blast radius too. Each round flips 1-4 seed-chosen
    // bits anywhere in the artifact; the only acceptable outcomes are
    // a typed CorruptArtifact rejection, or a clean decode that then
    // executes cleanly or with a typed error. The seed is fixed so a CI
    // failure reproduces locally.
    NetworkConfig cfg = tinyNet();
    NetworkExecutor exec(cfg, 3);
    std::vector<PointCloud> calib = {cloudFor(cfg, 5), cloudFor(cfg, 6)};
    CompiledEngine eng = quant::compileQuantizedPft(
        exec, PipelineKind::Delayed,
        withPasses(PassOptions::Enable::On), calib, /*seedBase=*/1);
    ASSERT_GT(eng.stats().buffersQuantized, 0)
        << "fuzz corpus lost its quant section";
    const std::vector<uint8_t> good = saveEngineToBytes(eng);
    const PointCloud cloud = cloudFor(cfg);

    Rng rng(20260808);
    for (int round = 0; round < 1000; ++round) {
        std::vector<uint8_t> m = good;
        int64_t flips = rng.uniformInt(1, 4);
        for (int64_t f = 0; f < flips; ++f) {
            size_t at = static_cast<size_t>(rng.uniformInt(
                0, static_cast<int64_t>(m.size()) - 1));
            m[at] ^= static_cast<uint8_t>(1u << rng.uniformInt(0, 7));
        }
        loadMangled(m, cloud, "fuzz round " + std::to_string(round));
        if (::testing::Test::HasFailure())
            break; // first failing round pinpoints the repro
    }
}

TEST(EngineSerialize, RejectsLoadsThatWouldOverrunOnExecute)
{
    // Two one-field manglings that used to load cleanly and then write
    // out of bounds when executed.
    {
        // Header logitsRows 1 -> 0: the head's logits write went
        // through a null pointer.
        NetworkExecutor exec(tinyNet(), 3);
        CompiledEngine eng = PlanCompiler::compile(
            exec, PipelineKind::Delayed,
            withPasses(PassOptions::Enable::On));
        std::vector<uint8_t> m = saveEngineToBytes(eng);
        constexpr size_t kLogitsRows = 16; // magic, version, kind, points
        ASSERT_EQ(readI32(m, kLogitsRows), eng.logitsRows());
        writeI32(m, kLogitsRows, 0);
        expectCorrupt(m, "touches", "logitsRows 0");
    }
    {
        // One bit flip of sa1.coords' cols (3 -> 16387): GatherRows
        // copied 16387 floats per row out of a 3-column buffer.
        NetworkExecutor exec(miniPointNet(), 3);
        CompiledEngine eng = PlanCompiler::compile(
            exec, PipelineKind::Delayed,
            withPasses(PassOptions::Enable::On));
        std::vector<uint8_t> m = saveEngineToBytes(eng);
        size_t cols = findTag(m, findStep(m, "sa1.coords").desc, 7);
        ASSERT_EQ(readI32(m, cols), 3);
        m[cols + 1] ^= 0x40;
        ASSERT_EQ(readI32(m, cols), 16387);
        expectCorrupt(m, "touches", "sa1.coords cols 16387");
    }
}

TEST(EngineSerialize, RejectsStoredAccessSetsThatDifferFromTheSchema)
{
    NetworkExecutor exec(tinyNet(), 3);
    CompiledEngine eng = PlanCompiler::compile(
        exec, PipelineKind::Delayed, withPasses(PassOptions::Enable::On));
    const std::vector<uint8_t> good = saveEngineToBytes(eng);
    const std::string kSets = "stored read/write sets differ";

    // sa1.search reads {coords, cent(sa1)} and writes {nit(sa1)}.
    const StepBytes st = findStep(good, "sa1.search");
    for (size_t set : {st.reads, st.writes}) {
        std::string which = set == st.reads ? "reads" : "writes";
        int32_t n = readI32(good, set);
        ASSERT_GT(n, 0);
        auto last = good.begin() + static_cast<ptrdiff_t>(set + 4 * n);

        std::vector<uint8_t> dropped(good.begin(), last);
        dropped.insert(dropped.end(), last + 4, good.end());
        writeI32(dropped, set, n - 1);
        expectCorrupt(dropped, kSets, which + " with one id dropped");

        std::vector<uint8_t> added(good.begin(), last + 4);
        added.insert(added.end(), last, last + 4); // repeat the last id
        added.insert(added.end(), last + 4, good.end());
        writeI32(added, set, n + 1);
        expectCorrupt(added, kSets, which + " with one id added");
    }

    // Root: the logits writer must be the root, and only it.
    std::vector<uint8_t> m = good;
    m[findStep(m, "head.fc").root] ^= 1;
    expectCorrupt(m, kSets, "head.fc root cleared");
    m = good;
    m[st.root] ^= 1;
    expectCorrupt(m, kSets, "sa1.search root set");
}

TEST(EngineSerialize, RejectsStatsThatDifferFromTheDecodedPlan)
{
    NetworkExecutor exec(tinyNet(), 3);
    CompiledEngine eng = PlanCompiler::compile(
        exec, PipelineKind::Delayed, withPasses(PassOptions::Enable::On));
    const std::vector<uint8_t> good = saveEngineToBytes(eng);
    const PlanStats &st = eng.stats();

    // An fp32 artifact ends with the stats block: arenaFloats,
    // naiveFloats (i64), numSteps, numBuffers (i32),
    // arenaFloatsPrePass (i64), numStepsPrePass, stepsRemoved,
    // fusionsApplied, layoutsChanged (i32).
    const size_t at = good.size() - 48;
    const size_t naive = at + 8, steps = at + 16, bufs = at + 20;
    const size_t prePassArena = at + 24, prePassSteps = at + 32;
    ASSERT_EQ(readI32(good, steps), st.numSteps);
    ASSERT_EQ(readI32(good, bufs), st.numBuffers);

    // One bit flip of numSteps (9 -> 1048585) used to load, and dump()
    // then reported a million-step plan.
    std::vector<uint8_t> m = good;
    m[steps + 2] ^= 0x10;
    ASSERT_EQ(readI32(m, steps), 1048585);
    expectCorrupt(m, "stats of", "numSteps 1048585");

    // Each re-derived figure, one off.
    for (size_t field : {naive, bufs}) {
        m = good;
        writeI32(m, field, readI32(m, field) + 1);
        expectCorrupt(m, "stats of", "field at " + std::to_string(field));
    }
    for (size_t field : {at + 36, at + 40, at + 44}) {
        m = good;
        writeI32(m, field, readI32(m, field) + 1);
        expectCorrupt(m, "differ from the sums of the pass records",
                      "pass counter at " + std::to_string(field));
    }

    // The pre-pass figures describe a program the artifact does not
    // hold, so they are bounded rather than re-derived.
    int32_t maxPrePass = st.numSteps + st.stepsRemoved + st.fusionsApplied;
    ASSERT_LE(st.numStepsPrePass, maxPrePass);
    for (int32_t bad : {-1, maxPrePass + 1}) {
        m = good;
        writeI32(m, prePassSteps, bad);
        expectCorrupt(m, "pre-pass", "numStepsPrePass " + std::to_string(bad));
    }
    for (int64_t bad : {int64_t{-1}, (int64_t{1} << 32) + 1}) {
        m = good;
        std::memcpy(m.data() + prePassArena, &bad, sizeof bad);
        expectCorrupt(m, "pre-pass",
                      "arenaFloatsPrePass " + std::to_string(bad));
    }
}

TEST(EngineSerialize, DeadModulesGetNoContextState)
{
    // miniDetNet's stage 2 never reads its encoder, so with passes on
    // dead-step elimination drops every step of sa1 and sa2, and the
    // loader cannot bound their shapes through the steps that fill
    // them. One bit flip of sa1's k (8 -> 16777224) used to load and
    // then size a 2 GiB NIT in every context.
    NetworkConfig cfg = miniDetNet();
    NetworkExecutor exec(cfg, 3);
    CompiledEngine eng = PlanCompiler::compile(
        exec, PipelineKind::Delayed, withPasses(PassOptions::Enable::On));
    std::vector<uint8_t> m = saveEngineToBytes(eng);

    // A module record opens with its name twice (module, then io), then
    // nIn, mIn, nOut, mOut, k.
    std::vector<uint8_t> key;
    for (int rep = 0; rep < 2; ++rep) {
        const uint8_t name[] = {3, 0, 0, 0, 's', 'a', '1'};
        key.insert(key.end(), std::begin(name), std::end(name));
    }
    auto it = std::search(m.begin(), m.end(), key.begin(), key.end());
    ASSERT_NE(it, m.end());
    size_t k = static_cast<size_t>(it - m.begin()) + key.size() + 4 * 4;
    ASSERT_EQ(readI32(m, k), 8);
    m[k + 3] ^= 0x01;
    ASSERT_EQ(readI32(m, k), 16777224);

    Expected<CompiledEngine> got =
        tryLoadEngineFromBytes(m.data(), m.size());
    if (!got.hasValue()) {
        EXPECT_EQ(got.status().code(), StatusCode::CorruptArtifact)
            << got.status().toString();
        return;
    }
    const CompiledEngine &loaded = got.value();
    ASSERT_EQ(loaded.modules().at(0).io.k, 16777224);
    auto ctx = loaded.makeContext();
    for (const StepIR &s : loaded.steps())
        for (const std::vector<int32_t> *set : {&s.reads, &s.writes})
            for (int32_t id : *set)
                ASSERT_GT(id, virtCentroids(0))
                    << s.name << " touches encoder module state";
    for (const PlanModuleCtx &mod : ctx->mods_) {
        EXPECT_EQ(mod.centroids.capacity(), 0u);
        EXPECT_EQ(mod.nitFlat.capacity(), 0u);
    }
    PointCloud cloud = cloudFor(cfg);
    auto fctx = eng.makeContext();
    expectBitwise(loaded.execute(cloud, 1, *ctx),
                  eng.execute(cloud, 1, *fctx), "mangled dead module");
}

TEST(EngineSerialize, RejectsRetiredOpKind)
{
    // Op value 7 is retired and never reused: naming it is corruption.
    NetworkExecutor exec(tinyNet(), 3);
    CompiledEngine eng = PlanCompiler::compile(
        exec, PipelineKind::Delayed, withPasses(PassOptions::Enable::On));
    std::vector<uint8_t> m = saveEngineToBytes(eng);
    size_t op = findTag(m, findStep(m, "sa1.search").desc, 1);
    ASSERT_EQ(readI32(m, op), static_cast<int32_t>(OpKind::SearchNit));
    writeI32(m, op, 7);
    expectCorrupt(m, "not a valid kind", "op 7");
    EXPECT_EQ(opSchema(static_cast<OpKind>(7)), nullptr);
}

TEST(EngineSerialize, TryLoadReturnsTypedStatusInsteadOfThrowing)
{
    NetworkExecutor exec(tinyNet(), 3);
    CompiledEngine eng = PlanCompiler::compile(
        exec, PipelineKind::Delayed, withPasses(PassOptions::Enable::On));
    std::vector<uint8_t> bytes = saveEngineToBytes(eng);

    Expected<CompiledEngine> ok =
        tryLoadEngineFromBytes(bytes.data(), bytes.size());
    ASSERT_TRUE(ok.hasValue()) << ok.status().toString();
    PointCloud cloud = cloudFor(tinyNet());
    auto ctx = ok.value().makeContext();
    expectBitwise(ok.value().execute(cloud, 1, *ctx),
                  exec.run(cloud, PipelineKind::Delayed, 1).logits,
                  "tryLoad engine parity");

    bytes[0] ^= 0xFF; // break the magic
    Expected<CompiledEngine> bad =
        tryLoadEngineFromBytes(bytes.data(), bytes.size());
    ASSERT_FALSE(bad.hasValue());
    EXPECT_EQ(bad.status().code(), StatusCode::CorruptArtifact)
        << bad.status().toString();

    Expected<CompiledEngine> missing =
        tryLoadEngine("/nonexistent/engine.meso");
    ASSERT_FALSE(missing.hasValue());
    EXPECT_EQ(missing.status().code(), StatusCode::InvalidInput)
        << missing.status().toString();
}

} // namespace
} // namespace mesorasi::core::plan
