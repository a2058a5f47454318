/**
 * @file
 * PlanCompiler: one walk over a NetworkExecutor produces an immutable
 * CompiledEngine.
 *
 * The compile does, once, everything the per-run path re-does per
 * request:
 *
 *  - AOT shape inference: every module boundary's (nIn, mIn, nOut,
 *    mOut, k, searchDim) is derived from the network configuration —
 *    point counts are statically known because each module keeps
 *    centroids(n) points.
 *  - Backend resolution: every Backend::Auto is resolved to a concrete
 *    backend at compile time against the hwsim analytic search-cost
 *    model (GpuConfig's calibrated per-candidate costs), instead of the
 *    per-run chooseBackend heuristic. All backends agree bitwise on
 *    results, so resolution never changes outputs — only cost.
 *    (compiler_resolve.cpp)
 *  - Step emission: the pipeline bodies are emitted as a
 *    descriptor-complete step IR (step_ir.hpp) with declared read/write
 *    sets — every step a structured OpDesc, no opaque closures — and
 *    the network's weights/MLPs are copied into engine-owned tables the
 *    descriptors reference by id. (compiler_emit.cpp)
 *  - Optimization and freezing: the pass pipeline (passes/pass.hpp:
 *    dead-step elimination, epilogue fusion, PFT layout selection)
 *    rewrites the IR; every intermediate is then assigned a
 *    liveness-aliased arena offset and CompiledEngine::bake lowers the
 *    descriptors to closures, replaying the exact kernels and RNG
 *    stream of the sequential reference (bitwise-identical logits; see
 *    tests/test_plan.cpp and tests/test_plan_passes.cpp).
 *    (plan_compiler.cpp)
 *
 * The engine is self-contained: it owns copies of all parameters, so
 * the executor may be destroyed after compile — and the engine
 * round-trips through a serialized artifact (core/plan/serialize.hpp).
 */
#pragma once

#include "core/network.hpp"
#include "core/plan/engine.hpp"
#include "core/plan/passes/pass.hpp"

namespace mesorasi::core::plan {

struct CompileOptions
{
    /**
     * Resolve Backend::Auto with the hwsim analytic cost model
     * (default). When false the compiler replays the per-run
     * chooseBackend shape heuristic instead — useful for isolating the
     * cost model's decisions.
     */
    bool costModelBackendSelection = true;

    /** Optimizer pipeline knobs (enable/disable, forced PFT layout,
     *  the calibration that arms PFT quantization). */
    PassOptions passes;
};

class PlanCompiler
{
  public:
    /** Compile @p exec under @p kind into an immutable engine. */
    static CompiledEngine compile(const NetworkExecutor &exec,
                                  PipelineKind kind,
                                  const CompileOptions &opts = {});

    /**
     * Resolve Backend::Auto for one module shape. @p knnQuery
     * distinguishes k-NN from ball workloads (they carry different
     * per-candidate costs in the hwsim model). Exposed for tests and
     * benches.
     */
    static neighbor::Backend
    resolveAutoBackend(const ModuleIo &io, bool knnQuery,
                       const CompileOptions &opts = {});

    /**
     * Analytic cost (ms) of answering one module's N stage with
     * @p backend: per-candidate distance costs from hwsim::GpuConfig
     * plus per-execution index build charges. Grid on a non-3-D space
     * returns +inf (infeasible).
     */
    static double plannedSearchCostMs(neighbor::Backend backend,
                                      const ModuleIo &io, bool knnQuery);

  private:
    /** Emit the whole descriptor program and fill @p eng's AOT tables
     *  (module infos, logits shape, weight/MLP copies). Defined in
     *  compiler_emit.cpp; the returned IR is what the pass pipeline
     *  rewrites before the engine is frozen. */
    static PlanIR emitProgram(const NetworkExecutor &exec,
                              PipelineKind kind,
                              const CompileOptions &opts,
                              CompiledEngine &eng);
};

} // namespace mesorasi::core::plan
