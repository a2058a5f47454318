#include "core/plan/passes/pass.hpp"

#include <cstdlib>
#include <cstring>

namespace mesorasi::core::plan {

bool
passesEnabled(const PassOptions &opts)
{
    switch (opts.enable) {
      case PassOptions::Enable::On:
        return true;
      case PassOptions::Enable::Off:
        return false;
      case PassOptions::Enable::Auto:
        break;
    }
    const char *env = std::getenv("MESORASI_PLAN_PASSES");
    return !(env && std::strcmp(env, "0") == 0);
}

void
PassManager::add(std::unique_ptr<Pass> pass)
{
    passes_.push_back(std::move(pass));
}

PassManager
PassManager::defaultPipeline()
{
    PassManager pm;
    // DCE first so fusion and layout never optimize dead steps; fusion
    // before layout so the layout pass profiles the final consumers;
    // quantization last so the numerics-preserving passes never see
    // quantized buffers (its int8/int4 buffers keep ld == cols).
    pm.add(makeDeadStepElimination());
    pm.add(makeEpilogueFusion());
    pm.add(makePftLayoutSelection());
    pm.add(makePftQuantization());
    return pm;
}

std::vector<PassStat>
PassManager::run(PlanIR &ir, const PassOptions &opts) const
{
    std::vector<PassStat> stats;
    stats.reserve(passes_.size());
    bool enabled = passesEnabled(opts);
    for (const auto &p : passes_) {
        PassStat stat;
        stat.pass = p->name();
        stat.ran = enabled;
        if (stat.ran)
            p->run(ir, opts, stat);
        stats.push_back(std::move(stat));
    }
    return stats;
}

} // namespace mesorasi::core::plan
