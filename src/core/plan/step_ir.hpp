/**
 * @file
 * Descriptor-complete step IR: the mutable program the plan optimizer
 * passes rewrite and the serializable body of a CompiledEngine.
 *
 * Every step is a structured OpDesc — there are no opaque closures in
 * the IR. Emission (compiler_emit.cpp) produces StepIR records whose
 * read/write resource sets derive from the op schema (op_schema.hpp),
 * never from a hand-written list; the pass pipeline
 * (core/plan/passes) rewrites them (removing dead steps, folding
 * epilogues into their producers, choosing PFT layouts); then
 * CompiledEngine::bake lowers every descriptor to a runtime closure
 * with strides frozen from the (possibly layout-rewritten) buffer
 * table. Because the descriptors carry the whole program, the same
 * bake serves a freshly compiled engine and one loaded from a
 * serialized artifact (core/plan/serialize.hpp).
 *
 * Resource space: arena buffer ids are >= 0 and index PlanIR::bufs.
 * State that lives outside the arena but still carries data between
 * steps (the RNG draw stream, resolved centroid lists, flat NITs, the
 * logits tensor) gets a negative virtual id, so liveness analysis sees
 * every producer/consumer edge — including the ones the arena planner
 * does not care about.
 *
 * Bitwise contract: baking a step (fused or not) reproduces the exact
 * per-element operation sequence of the reference executor, so any legal
 * rewrite keeps engine logits byte-identical to the unoptimized engine
 * and to the per-run reference (asserted in tests/test_plan_passes.cpp).
 */
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/plan/arena.hpp"
#include "core/trace.hpp"

namespace mesorasi::core::plan {

// --- Virtual (non-arena) resources ------------------------------------

constexpr int32_t kResLogits = -1;

/**
 * The sampler RNG stream. Every RngDraw step reads and writes this
 * resource, chaining the draws in emission order: dead-step
 * elimination can drop a dead *suffix* of the stream (detection plans
 * drop all draws with the encoder), but never a middle draw — removing
 * one would shift every later draw and break bitwise replay of the
 * reference executor's draw stream.
 */
constexpr int32_t kResRng = -2;

/** Resolved centroid index list of encoder module @p mod. */
inline int32_t
virtCentroids(size_t mod)
{
    return -3 - 2 * static_cast<int32_t>(mod);
}

/** Flat NIT (nOut x k neighbor ids) of encoder module @p mod. */
inline int32_t
virtNit(size_t mod)
{
    return -4 - 2 * static_cast<int32_t>(mod);
}

/** Short printable name of a resource id, for dump/debugging. */
std::string resourceName(int32_t id);

// --- Structured ops ----------------------------------------------------

/**
 * Op vocabulary. Every step the compiler emits is one of these
 * descriptors — there is no opaque-closure escape hatch, so the passes
 * see the whole program and an engine can be serialized and reloaded
 * byte-exactly. Generic survives only as the invalid/default sentinel:
 * emitting or baking it is an error (tests iterate compiled IR to
 * assert none appear).
 *
 * Descriptors reference weights and MLPs by id into the engine-owned
 * tables (CompiledEngine::mlps/weights) — never by pointer — so a
 * baked engine is self-contained and a loaded one bit-identical.
 */
enum class OpKind
{
    Generic = 0, ///< invalid sentinel; never emitted, never baked
    /** mlp(mlpId).forwardInto(in, ld(in), rows, out, ld(out),
     *  firstLayer). @p out may be kResLogits (writes ctx.logits_). */
    MlpForward = 1,
    /** matmulIntoParallel(out, ld(out), in, ld(in), rows,
     *  weight(weightId)): row chunks on the pool. */
    Matmul = 2,
    /** biasReluBlockInPlace(out, ld(out), rows, cols, bias(biasId),
     *  relu); biasId < 0 means no bias row. */
    BiasRelu = 3,
    /** Per-centroid fused gather + column max from @p in into @p out
     *  over module @p mod's NIT rows. */
    AggGatherMax = 4,
    /** out.row(c) -= aux.row(centroid[c]) — the delayed-aggregation
     *  centroid subtraction (exact past the max). */
    AggSubCentroid = 5,
    /** out.row(c) = act(out.row(c) + aux.row(centroid[c])) — the
     *  EdgeConv split-weight epilogue. */
    AggAddAuxRelu = 6,
    // 7 is retired (a row-copy layout conversion, unused since PFT
    // layout became an in-place ld change) and never reused: the
    // loader rejects op 7 as a corrupt artifact.
    /** One sampler draw: sampleWithoutReplacementInto(srcRows, rows,
     *  centroids(mod)). Chained through kResRng (see above). */
    RngDraw = 8,
    /** Unpack the input cloud's xyz into arena buffer @p out
     *  (rows x 3). */
    MaterializeCloud = 9,
    /** Resolve module @p mod's centroid list (@p mode — see
     *  SampleMode): iota, sorted random draws, FPS over @p in coords,
     *  or the global singleton {0}. */
    ResolveSample = 10,
    /** Fill module @p mod's flat NIT: knn/radius queries with the
     *  compile-resolved @p backend over @p in (srcRows x inCols),
     *  queried at the module's centroids. */
    SearchNit = 11,
    /** Grouped neighbor-difference rows: for centroid c and neighbor j,
     *  row (c*k+j) of @p out is nf-cf (or [cf | nf-cf] when @p concat)
     *  gathered from @p in via module @p mod's NIT/centroids. */
    GroupDiff = 12,
    /** Per-centroid max over k contiguous rows: out.row(c) =
     *  colmax(in.rows[c*k .. c*k+k)). */
    ReduceMaxRows = 13,
    /** Column max over all @p srcRows rows of @p in, written to
     *  out.row(0) starting at column @p outCol. */
    ReduceMaxAll = 14,
    /** out.row(c) = in.row(centroids(mod)[c]), @p cols floats. */
    GatherRows = 15,
    /** Zero @p rows x @p cols of @p out. */
    FillZero = 16,
    /** Column concatenation of @p srcs into @p out; a 1-row source is
     *  broadcast onto every output row. */
    ConcatCols = 17,
    /** PointNet++ three-interpolate: inverse-distance-weighted average
     *  of the k nearest coarse points. in = coarse features
     *  (srcRows x cols), aux = coarse coords, in2 = fine coords,
     *  out = rows x cols. Queries the compile-resolved @p backend. */
    Interp3NN = 18,
    /** Symmetric quantization of @p rows x @p cols of f32 buffer @p in
     *  into quantized buffer @p out; @p out's BufferShape dtype/qscale
     *  select int8 or packed int4 (quantize_pft pass). */
    QuantizeRows = 19,
};

/** The op's schema name (op_schema.hpp); "?" for values with no row. */
const char *opKindName(OpKind op);

/** ResolveSample strategies (OpDesc::mode). */
enum class SampleMode : int32_t
{
    Global = 0, ///< centroid list = {0}
    All = 1,    ///< iota over all srcRows points
    Random = 2, ///< sort the RngDraw-produced list ascending
    Fps = 3,    ///< farthest-point sample over @p in coords, sorted
};

/** Operands and immediates of one structured op. Unused fields stay at
 *  their defaults; buffer operands are PlanIR buffer ids (>= 0) or
 *  virtual resources (< 0). Weights/MLPs are ids into the
 *  engine-owned tables, so a descriptor is location-independent and
 *  serializes with a stable tag per field (core/plan/serialize.cpp). */
struct OpDesc
{
    OpKind op = OpKind::Generic;
    int32_t in = -1;  ///< primary input buffer
    int32_t out = -1; ///< output buffer (in-place target of epilogues)
    int32_t aux = -1; ///< auxiliary rows (AggSub/AggAdd/Interp coords)
    int32_t in2 = -1; ///< secondary input (Interp3NN fine coords)
    int64_t rows = 0; ///< rows processed (output rows / centroids)
    int32_t cols = 0; ///< output columns
    int32_t mod = 0;  ///< module index (centroids/NIT source)
    int32_t k = 0;    ///< neighbors per centroid
    int32_t srcRows = 0; ///< gather/search-source row bound
    int32_t inCols = 0;  ///< input width (SearchNit space dim, GroupDiff)
    int32_t outCol = 0;  ///< ReduceMaxAll output column offset
    int32_t mlpId = -1;  ///< MlpForward: CompiledEngine MLP table id
    int32_t weightId = -1; ///< Matmul: weight table id
    int32_t biasId = -1;   ///< BiasRelu: 1 x cols bias table id; -1 none
    int32_t firstLayer = 0; ///< MlpForward start layer
    int32_t mode = 0;       ///< ResolveSample: SampleMode
    int32_t backend = 0;    ///< neighbor::Backend (SearchNit/Interp3NN)
    float radius = 0.0f;    ///< ball query radius (SearchNit)
    bool relu = false;      ///< BiasRelu/AggAddAuxRelu activation
    bool knn = false;       ///< SearchNit: knn query (else radius)
    bool concat = false;    ///< GroupDiff: emit [cf | nf-cf]
    std::string custom;     ///< registered custom backend name
    std::vector<int32_t> srcs; ///< ConcatCols source buffers
};

// --- Steps and the whole-plan IR ---------------------------------------

/** One step of the program. The descriptor (plus any epilogues the
 *  fusion pass folded into @p tail) fully determines the baked
 *  closure. @p reads/@p writes/@p root are the resource sets liveness
 *  analysis and arena planning trust; deriveAccess (op_schema.hpp)
 *  sets them from the descriptors whenever a step is built or
 *  rewritten, and the artifact loader rejects stored sets that differ
 *  from the derived ones. */
struct StepIR
{
    StageKind kind = StageKind::Epilogue;
    std::string name;
    OpDesc desc;
    std::vector<OpDesc> tail; ///< fused epilogues, applied in order
    std::vector<int32_t> reads;  ///< resources consumed
    std::vector<int32_t> writes; ///< resources produced/updated
    bool root = false; ///< observable output (writes logits); DCE keeps it
    std::string note;  ///< optimizer annotation, carried into the engine
};

/** Element type of an arena buffer. Quantized types are produced only
 *  by the quantize_pft pass, which a calibration table arms; everything
 *  else stays F32. */
enum class DType : int32_t
{
    F32 = 0, ///< 4-byte float rows (the default)
    I8 = 1,  ///< symmetric int8 rows, dequant = q * qscale
    I4 = 2,  ///< packed int4: two's-complement nibbles, two per byte
};

const char *dtypeName(DType t);

/** Shape of one arena buffer. @p ld is the leading dimension in
 *  elements (>= cols; larger when the layout pass padded rows to cache
 *  lines, or when an int4 buffer padded its odd column count to a whole
 *  number of bytes). Quantized buffers carry their symmetric
 *  quantization parameters here — the descriptor ops stay polymorphic
 *  over the operand dtype, and bake dispatches on this table. */
struct BufferShape
{
    int64_t rows = 0;
    int32_t cols = 0;
    int32_t ld = 0;
    DType dtype = DType::F32;
    /** Symmetric scale (x ~ q * qscale); 0 on F32 buffers. */
    float qscale = 0.0f;
    /** Zero point — always 0 today (symmetric quantization); carried
     *  so the serialized form can grow asymmetric schemes. */
    int32_t qzero = 0;

    /** Bytes of one ld-element row (int4 packs two per byte). */
    int64_t
    rowBytes() const
    {
        switch (dtype) {
          case DType::I8:
            return ld;
          case DType::I4:
            return ld / 2;
          case DType::F32:
            break;
        }
        return static_cast<int64_t>(ld) * 4;
    }

    /** Arena footprint in floats: the arena stays a flat f32 store, so
     *  quantized buffers round their byte footprint up to whole
     *  floats (this is where int8 shrinks the plan 4x, int4 8x). */
    int64_t
    floats() const
    {
        if (dtype == DType::F32)
            return rows * ld;
        return (rows * rowBytes() + 3) / 4;
    }
};

/** The mutable program under optimization: the step sequence plus the
 *  size/layout table of every arena buffer. */
struct PlanIR
{
    std::vector<StepIR> steps;
    std::vector<BufferShape> bufs;

    /** Register a rows x cols row-major buffer; returns its id. */
    int32_t
    addBuffer(int64_t rows, int32_t cols)
    {
        bufs.push_back(BufferShape{rows, cols, cols});
        return static_cast<int32_t>(bufs.size()) - 1;
    }
};

// --- Arena planning ----------------------------------------------------

/** Liveness-driven arena planning over the (post-pass) step sequence. */
struct ArenaPlanResult
{
    ArenaPlanner planner;        ///< plan() already ran
    std::vector<int32_t> planId; ///< per-IR-buffer planner id; -1 = dead
};

/** Re-run the ArenaPlanner over @p steps: every buffer referenced by a
 *  step is registered with its first/last touching step as the live
 *  range; buffers no step references are dead (planId -1). The loader
 *  re-runs it to check an artifact's stored offsets. */
ArenaPlanResult planArenaFor(const std::vector<StepIR> &steps,
                             const std::vector<BufferShape> &bufs);

} // namespace mesorasi::core::plan
