#include "quant/calibrate.hpp"

#include <algorithm>
#include <cmath>

#include "common/check.hpp"

namespace mesorasi::quant {

using core::plan::BufferShape;
using core::plan::CompiledEngine;
using core::plan::DType;
using core::plan::OpKind;
using core::plan::PftCalibration;
using core::plan::StepIR;

core::plan::PftCalibration
calibratePft(const CompiledEngine &engine,
             const std::vector<geom::PointCloud> &clouds,
             uint64_t seedBase)
{
    MESO_REQUIRE(!clouds.empty(),
                 "calibration needs at least one representative cloud");

    // Watch every f32 AggGatherMax input, scanned right after the step
    // that writes it (not at the gather — by then the arena row may
    // already alias a later buffer in some plans, and scanning at the
    // producer observes each value exactly once per execution).
    PftCalibration cal;
    const std::vector<StepIR> &steps = engine.steps();
    for (const StepIR &s : steps) {
        int32_t in = s.desc.in;
        if (s.desc.op != OpKind::AggGatherMax || in < 0)
            continue;
        if (engine.bufferShapes()[static_cast<size_t>(in)].dtype !=
            DType::F32)
            continue;
        cal.maxAbs.emplace(in, 0.0f);
    }
    if (cal.empty())
        return cal;

    std::vector<std::vector<int32_t>> scanAfter(steps.size());
    for (const auto &[buf, unused] : cal.maxAbs) {
        for (size_t i = 0; i < steps.size(); ++i) {
            const StepIR &s = steps[i];
            if (std::find(s.writes.begin(), s.writes.end(), buf) !=
                s.writes.end())
                scanAfter[i].push_back(buf);
        }
    }

    auto ctx = engine.makeContext();
    auto afterStep = [&](int32_t step) {
        for (int32_t buf : scanAfter[static_cast<size_t>(step)]) {
            const BufferShape &bs =
                engine.bufferShapes()[static_cast<size_t>(buf)];
            const float *p = ctx->buf(buf);
            float &m = cal.maxAbs[buf];
            for (int64_t r = 0; r < bs.rows; ++r) {
                const float *row = p + r * bs.ld;
                for (int32_t c = 0; c < bs.cols; ++c) {
                    float v = row[c];
                    MESO_REQUIRE(
                        std::isfinite(v),
                        "non-finite activation "
                            << v << " in PFT buffer " << buf
                            << " during calibration; the network "
                               "cannot be quantized");
                    m = std::max(m, std::fabs(v));
                }
            }
        }
    };
    for (size_t i = 0; i < clouds.size(); ++i)
        engine.execute(clouds[i], seedBase + i, *ctx, afterStep);
    return cal;
}

core::plan::CompiledEngine
compileQuantizedPft(const core::NetworkExecutor &exec,
                    core::PipelineKind kind,
                    const core::plan::CompileOptions &opts,
                    const std::vector<geom::PointCloud> &clouds,
                    uint64_t seedBase, int64_t int4MinRows)
{
    core::plan::CompileOptions fp = opts;
    fp.passes.quantCalibration = PftCalibration{};
    CompiledEngine fp32 =
        core::plan::PlanCompiler::compile(exec, kind, fp);
    PftCalibration cal = calibratePft(fp32, clouds, seedBase);

    core::plan::CompileOptions q = opts;
    q.passes.quantCalibration = std::move(cal);
    q.passes.quantInt4MinRows = int4MinRows;
    return core::plan::PlanCompiler::compile(exec, kind, q);
}

} // namespace mesorasi::quant
