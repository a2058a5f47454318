#include "core/plan/step_ir.hpp"

#include "common/check.hpp"

namespace mesorasi::core::plan {

std::string
resourceName(int32_t id)
{
    if (id >= 0)
        return "b" + std::to_string(id);
    if (id == kResLogits)
        return "logits";
    if (id == kResRng)
        return "rng";
    int32_t v = -id - 3; // pair-coded virtual resources
    int32_t idx = v / 2;
    return (v % 2 == 0 ? "cent(" : "nit(") + std::to_string(idx) + ")";
}

const char *
dtypeName(DType t)
{
    switch (t) {
      case DType::F32:
        return "f32";
      case DType::I8:
        return "i8";
      case DType::I4:
        return "i4";
    }
    return "?";
}

ArenaPlanResult
planArenaFor(const std::vector<StepIR> &steps,
             const std::vector<BufferShape> &bufs)
{
    ArenaPlanResult res;
    res.planId.assign(bufs.size(), -1);
    for (size_t si = 0; si < steps.size(); ++si) {
        int32_t step = static_cast<int32_t>(si);
        auto touch = [&](int32_t id) {
            if (id < 0)
                return; // virtual resource, not arena-backed
            size_t b = static_cast<size_t>(id);
            MESO_CHECK(b < bufs.size(), "bad buffer id " << id);
            if (res.planId[b] < 0)
                res.planId[b] = res.planner.add(bufs[b].floats(), step);
            else
                res.planner.extendLive(res.planId[b], step);
        };
        // Steps appear in execution order and every buffer is written
        // before it is read, so the first touch opens the live range.
        for (int32_t id : steps[si].writes)
            touch(id);
        for (int32_t id : steps[si].reads)
            touch(id);
    }
    res.planner.plan();
    return res;
}

} // namespace mesorasi::core::plan
