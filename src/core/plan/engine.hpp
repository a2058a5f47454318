/**
 * @file
 * CompiledEngine / ExecutionContext: the compile-once serving seam.
 *
 * Every NetworkExecutor::run allocates its intermediates, re-infers
 * shapes, and re-selects search backends per request. The paper's SoC
 * does all of that work once, at configuration time, when it sizes the
 * NIT/PFT buffers for a fixed network (Sec. VI) — and graph compilers
 * (TVM, MIGraphX, TensorRT) make the same split in software: an
 * expensive compile producing an immutable program, then a tight
 * evaluation loop over per-thread mutable state.
 *
 * CompiledEngine is the immutable artifact: the descriptor step
 * program (step_ir.hpp), every tensor shape inferred ahead of time,
 * every Backend::Auto resolved at compile time against the hwsim
 * analytic cost model, every intermediate buffer assigned an offset in
 * a liveness-planned arena, and private copies of all weights and MLPs
 * — the engine does NOT borrow the NetworkExecutor it was compiled
 * from and is safe to use after the executor is gone. Because the
 * program is pure descriptors, an engine round-trips through a
 * versioned binary artifact (core/plan/serialize.hpp) with bitwise-
 * identical logits.
 *
 * ExecutionContext is the mutable half of one evaluation: arena
 * storage, RNG replay cursor, resolved centroid/NIT state, backend
 * scratch, and the logits tensor. One context per concurrent
 * evaluation; ContextPool recycles warm contexts across requests.
 * Evaluation walks the baked step closures: no graph construction, no
 * shape inference, and — for the compiled compute path on the cached
 * brute-force backend — no heap allocation after the first evaluation
 * warms the context (asserted with an operator-new hook in
 * tests/test_plan.cpp). Index-building backends (kdtree, grid) still
 * allocate their per-request index; their query paths are
 * allocation-free via the *Into API.
 *
 * Results are bitwise identical to the sequential reference
 * (NetworkExecutor::run): the steps run the same kernels in the same
 * accumulation order, sampler RNG draws replay the exact stream the
 * reference draws, and all backends agree bitwise on neighbor results
 * (tests/test_plan.cpp asserts parity across 3 pipelines x 3 backends).
 */
#pragma once

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <iosfwd>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "core/pipeline.hpp"
#include "core/plan/arena.hpp"
#include "core/plan/passes/pass.hpp"
#include "core/plan/step_ir.hpp"
#include "geom/point_cloud.hpp"
#include "neighbor/search_backend.hpp"
#include "nn/mlp.hpp"

namespace mesorasi::core::plan {

class CompiledEngine;

/** AOT-compiled facts about one N-A-F module. */
struct PlanModuleInfo
{
    std::string name;
    ModuleIo io;             ///< AOT-inferred shapes
    PipelineKind effective = PipelineKind::Delayed; ///< after Ltd folding
    bool global = false;     ///< SearchKind::Global (no search/NIT)
    neighbor::Backend backend = neighbor::Backend::BruteForce; ///< resolved
    std::string customBackend; ///< registry name; overrides backend
};

/** Compile-time footprint summary. */
struct PlanStats
{
    int64_t arenaFloats = 0; ///< planned (aliased) arena size
    int64_t naiveFloats = 0; ///< sum of all buffers without aliasing
    int32_t numSteps = 0;
    int32_t numBuffers = 0;

    // Pre-optimizer footprint (equal to the post numbers when the pass
    // pipeline is disabled via MESORASI_PLAN_PASSES=0 or
    // CompileOptions).
    int64_t arenaFloatsPrePass = 0;
    int32_t numStepsPrePass = 0;
    // Aggregated over all passes that ran.
    int32_t stepsRemoved = 0;
    int32_t fusionsApplied = 0;
    int32_t layoutsChanged = 0;
    int32_t buffersQuantized = 0;
};

/** Per-module mutable evaluation state (reused across executions). */
struct PlanModuleCtx
{
    std::vector<int32_t> centroids; ///< resolved centroid indices
    std::vector<int32_t> nitFlat;   ///< nOut x k neighbor ids, row-major
    /** Backend cached across executions. Only backends with no
     *  data-dependent build (brute force) are cached; index-building
     *  backends are rebuilt per execution. */
    std::unique_ptr<neighbor::SearchBackend> cachedBackend;
};

/**
 * The mutable half of one evaluation: the arena, reusable index
 * storage, and the logits output. Create via
 * CompiledEngine::makeContext and reuse across executions — the first
 * execution warms every grow-only buffer, after which the compiled
 * compute path performs no heap allocation. One context per concurrent
 * evaluation.
 *
 * Members are an internal contract between the baked step closures and
 * the runtime; user code should treat a context as opaque apart from
 * logits().
 */
struct ExecutionContext
{
    explicit ExecutionContext(const CompiledEngine &engine);

    /** The engine this context was built for. */
    const CompiledEngine &engine() const { return *engine_; }

    /** The last execution's logits. */
    const tensor::Tensor &logits() const { return logits_; }

    /** Arena pointer of engine buffer @p id. */
    float *buf(int32_t id);

    /**
     * True after an execution threw mid-plan: arena/module state is
     * indeterminate and further execute() calls are rejected with
     * StatusCode::PoisonedContext until reset() runs. Input-validation
     * failures (bad cloud, wrong engine) do NOT poison — they are
     * rejected before any step touches context state.
     */
    bool poisoned() const { return poisoned_; }

    /** Rendered Status of the failure that poisoned this context. */
    const std::string &poisonMessage() const { return poisonMessage_; }

    /**
     * Restore the context to its freshly-constructed state — arena and
     * logits zeroed, per-module neighbor state cleared, cached backend
     * scratch dropped, poison flag lifted — while keeping warmed
     * capacities. After reset() the context produces bitwise-identical
     * results to a brand-new context.
     */
    void reset();

    // --- internal state touched by baked steps ----------------------
    const CompiledEngine *engine_ = nullptr;
    Arena arena_;
    tensor::Tensor logits_;
    std::vector<PlanModuleCtx> mods_; ///< encoder modules
    const geom::PointCloud *cloud_ = nullptr;
    Rng rng_{0}; ///< reseeded per execution
    bool poisoned_ = false;
    std::string poisonMessage_;
};

class CompiledEngine
{
  public:
    CompiledEngine(CompiledEngine &&) = default;
    CompiledEngine &operator=(CompiledEngine &&) = default;

    /**
     * Evaluate one cloud. @p runSeed drives centroid sampling exactly
     * as NetworkExecutor::run's seed does; identical seeds produce
     * bitwise-identical logits to the sequential reference. Returns
     * @p ctx's logits tensor. Thread-safe across distinct contexts.
     */
    const tensor::Tensor &execute(const geom::PointCloud &cloud,
                                  uint64_t runSeed,
                                  ExecutionContext &ctx) const;

    /**
     * Instrumented evaluation: @p afterStep is invoked with the step
     * index right after each baked step runs, while the arena still
     * holds its outputs. The calibration pass (quant/calibrate.hpp)
     * uses this to observe gathered-PFT activation ranges; same logits
     * as the plain overload (the hot path stays callback-free).
     */
    const tensor::Tensor &
    execute(const geom::PointCloud &cloud, uint64_t runSeed,
            ExecutionContext &ctx,
            const std::function<void(int32_t)> &afterStep) const;

    /**
     * Input front door: is @p cloud one this engine can evaluate?
     * Returns InvalidInput for an empty cloud or non-finite/absurd
     * coordinates, ShapeMismatch when the point count differs from
     * numInputPoints(), Ok otherwise. execute() calls this itself and
     * throws UsageError carrying the same code; callers that prefer
     * not to pay exception unwinding on bad requests call it directly.
     * Allocation-free on the Ok path.
     */
    Status validate(const geom::PointCloud &cloud) const;

    /**
     * Non-throwing execute for hot serving paths: every failure —
     * invalid input, poisoned context, mid-plan fault, non-finite
     * logits — comes back as a typed Status instead of unwinding
     * through the caller. On Ok the result is in ctx.logits(), bitwise
     * identical to execute().
     */
    Status tryExecute(const geom::PointCloud &cloud, uint64_t runSeed,
                      ExecutionContext &ctx) const;

    /** Build a fresh evaluation context (all storage preallocated to
     *  the engine's AOT shapes). */
    std::unique_ptr<ExecutionContext> makeContext() const;

    PipelineKind pipeline() const { return kind_; }
    int32_t numInputPoints() const { return numInputPoints_; }
    int32_t logitsRows() const { return logitsRows_; }
    int32_t logitsCols() const { return logitsCols_; }
    const PlanStats &stats() const { return stats_; }
    const std::vector<PlanModuleInfo> &modules() const { return modules_; }
    /** Detection stage-2 branch infos (empty outside detection). */
    const std::vector<PlanModuleInfo> &stage2Modules() const
    { return stage2_; }

    /** The descriptor step program, post-pass. Iterate this to inspect
     *  the compiled IR (op kinds, operands, fused tails). */
    const std::vector<StepIR> &steps() const { return steps_; }

    /** Per-pass optimizer statistics, in pipeline order. Skipped
     *  passes (pipeline disabled, quantize_pft without calibration)
     *  have ran=false. */
    const std::vector<PassStat> &passStats() const { return passStats_; }

    /** Shapes (incl. chosen leading dimensions) of all arena buffers. */
    const std::vector<BufferShape> &bufferShapes() const
    { return bufferShapes_; }

    /** Arena offset of buffer @p id. */
    int64_t offsetOf(int32_t id) const { return offsets_[id]; }

    /** Engine-owned MLP / weight tables the descriptors index. */
    const std::vector<nn::Mlp> &mlps() const { return mlps_; }
    const std::vector<tensor::Tensor> &weights() const { return weights_; }

    /**
     * Human-readable engine listing: one line per step (stage kind,
     * name, structured descriptor — op kind, operand buffers with
     * shapes and arena offsets, resolved backend / draw spec /
     * immediates — and optimizer annotations), then the arena summary,
     * resolved backends, per-pass statistics, and the serialized
     * artifact size. Debugging aid for the optimizer pipeline
     * (`batch_throughput --dump-plan`).
     */
    void dump(std::ostream &os) const;

  private:
    friend class PlanCompiler;
    friend class EngineSerializer;
    CompiledEngine() = default;

    /** Shared body of both execute overloads: validation, the step
     *  loop (with fault-injection sites), the logits finite check, and
     *  context poisoning on mid-plan failure. @p afterStep is null on
     *  the hot path so no std::function is ever constructed there. */
    const tensor::Tensor &
    executeImpl(const geom::PointCloud &cloud, uint64_t runSeed,
                ExecutionContext &ctx,
                const std::function<void(int32_t)> *afterStep) const;

    /** Lower every descriptor step to its runtime closure (strides
     *  frozen from the buffer table). Called once, after the engine is
     *  sealed — by the compiler and by the artifact loader, so a
     *  loaded engine executes the identical closures. Defined in
     *  engine_bake.cpp. */
    void bake();

    PipelineKind kind_ = PipelineKind::Delayed;
    int32_t numInputPoints_ = 0;
    int32_t logitsRows_ = 0;
    int32_t logitsCols_ = 0;
    std::vector<PlanModuleInfo> modules_;
    std::vector<PlanModuleInfo> stage2_;
    std::vector<int64_t> offsets_; ///< per-buffer arena offsets
    std::vector<BufferShape> bufferShapes_;
    std::vector<StepIR> steps_; ///< the (post-pass) descriptor program
    /** Baked closure per step (parallel to steps_); rebuilt by bake(),
     *  never serialized. */
    std::vector<std::function<void(ExecutionContext &)>> baked_;
    std::vector<PassStat> passStats_;
    /** Engine-owned parameter tables. Descriptors address them by id,
     *  so the engine is self-contained (weights are copied out of the
     *  executor at compile time, or restored from the artifact). */
    std::vector<nn::Mlp> mlps_;
    std::vector<tensor::Tensor> weights_;
    PlanStats stats_;
};

/**
 * Thread-safe recycler of warm ExecutionContexts for concurrent
 * serving (BatchRunner's engine-cached path, the serve::ServingEngine
 * shards). acquire() hands out a free context or builds a new one;
 * release() returns it warm for the next request — poisoned contexts
 * are reset() on the way in, so the pool never hands out a context
 * that rejects execution.
 *
 * A pool may be capacity-bounded: contexts are arena-sized allocations
 * (hundreds of KiB to MiB each), so an unbounded pool under load turns
 * admission pressure into memory growth. With capacity > 0 at most
 * that many contexts ever exist at once: tryAcquire() is the
 * non-blocking admission-control probe (nullptr when every context is
 * checked out), acquire() blocks until a context is released. A
 * bounded pool requires every acquired context to come back through
 * release() — destroying one elsewhere leaks its capacity slot.
 */
class ContextPool
{
  public:
    /** @param capacity max live contexts; 0 = unbounded (grow on
     *  demand, the historical behavior). */
    explicit ContextPool(const CompiledEngine &engine,
                         int32_t capacity = 0)
        : engine_(engine), capacity_(capacity)
    {
    }

    /** A warm or fresh context; with a bounded pool, blocks until one
     *  is available. */
    std::unique_ptr<ExecutionContext> acquire();

    /**
     * Non-blocking acquire: a warm context if one is free, a fresh one
     * if the pool may still grow, else nullptr (bounded pool fully
     * checked out — the caller applies backpressure instead of
     * queueing on the pool).
     */
    std::unique_ptr<ExecutionContext> tryAcquire();

    void release(std::unique_ptr<ExecutionContext> ctx);

    int32_t capacity() const { return capacity_; }

    /** Contexts built by this pool so far (free + checked out). */
    int32_t created() const;

    /** Contexts currently checked out. */
    int32_t outstanding() const;

  private:
    /** Pop a free context or reserve a creation slot. Returns the
     *  context, (nullptr, build=true) when the caller must build one,
     *  or (nullptr, build=false) when the bounded pool is exhausted. */
    std::unique_ptr<ExecutionContext> takeFreeOrReserve(bool &build);
    std::unique_ptr<ExecutionContext> buildReserved();

    const CompiledEngine &engine_;
    int32_t capacity_ = 0;
    mutable std::mutex mutex_;
    std::condition_variable available_;
    std::vector<std::unique_ptr<ExecutionContext>> free_;
    int32_t created_ = 0;
};

} // namespace mesorasi::core::plan
