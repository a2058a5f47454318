/**
 * @file
 * The compile driver: emission (compiler_emit.cpp) produces the
 * descriptor program, the pass pipeline rewrites it, the arena planner
 * assigns offsets, and bake (engine_bake.cpp) lowers the surviving
 * descriptors to closures. Nothing here inspects individual ops — the
 * IR is descriptor-complete, so the driver is pure plumbing.
 */
#include "core/plan/plan_compiler.hpp"

#include "core/plan/step_ir.hpp"

namespace mesorasi::core::plan {

CompiledEngine
PlanCompiler::compile(const NetworkExecutor &exec, PipelineKind kind,
                      const CompileOptions &opts)
{
    CompiledEngine eng;
    PlanIR ir = emitProgram(exec, kind, opts, eng);

    // --- Optimize: run the pass pipeline over the IR. ----------------
    {
        ArenaPlanResult pre = planArenaFor(ir.steps, ir.bufs);
        eng.stats_.arenaFloatsPrePass = pre.planner.totalFloats();
        eng.stats_.numStepsPrePass =
            static_cast<int32_t>(ir.steps.size());
    }
    eng.passStats_ = PassManager::defaultPipeline().run(ir, opts.passes);
    for (const PassStat &ps : eng.passStats_) {
        eng.stats_.stepsRemoved += ps.stepsRemoved;
        eng.stats_.fusionsApplied += ps.fusionsApplied;
        eng.stats_.layoutsChanged += ps.layoutsChanged;
        eng.stats_.buffersQuantized += ps.buffersQuantized;
    }

    // --- Freeze: re-plan the arena, bake closures, seal the engine. --
    ArenaPlanResult post = planArenaFor(ir.steps, ir.bufs);
    eng.stats_.naiveFloats = post.planner.naiveFloats();
    eng.stats_.arenaFloats = post.planner.totalFloats();
    eng.stats_.numBuffers =
        static_cast<int32_t>(post.planner.numBuffers());
    eng.stats_.numSteps = static_cast<int32_t>(ir.steps.size());
    // Dead buffers (every step touching them was eliminated) keep
    // offset 0; nothing executes against them.
    eng.offsets_.assign(ir.bufs.size(), 0);
    for (size_t id = 0; id < ir.bufs.size(); ++id)
        if (post.planId[id] >= 0)
            eng.offsets_[id] = post.planner.offset(post.planId[id]);
    eng.bufferShapes_ = ir.bufs;
    eng.steps_ = std::move(ir.steps);
    eng.bake();
    return eng;
}

} // namespace mesorasi::core::plan
