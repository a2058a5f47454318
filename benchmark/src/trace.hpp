/**
 * @file
 * Step tracing from outside the engine, through the public
 * CompiledEngine::execute(cloud, seed, ctx, afterStep) overload.
 *
 * Each traced execute records one request span and one child span per
 * engine step, sharing the request id. A step's span runs from the
 * previous step's callback (or the call into execute) to its own
 * callback, so the step spans tile the request span; what is left over
 * (logits check, return) is the unaccounted remainder. Spans go into a
 * buffer preallocated at construction and are written as Chrome
 * trace-event JSON at the end of the run. Per-step times are also
 * summed in place, and rolled up by N/A/F phase (the step's StageKind),
 * OpKind, module and repo layer. Work counts (MACs, bytes gathered,
 * neighbor queries, brute-force distance evaluations) are computed once
 * from the step descriptors and tensor shapes, not counted at run time.
 */
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "core/plan/engine.hpp"
#include "report.hpp"

namespace mbench {

class StepTracer
{
  public:
    explicit StepTracer(const mesorasi::core::plan::CompiledEngine &engine,
                        size_t spanCapacity = size_t{1} << 17);

    /** afterStep_ captures this object. */
    StepTracer(const StepTracer &) = delete;
    StepTracer &operator=(const StepTracer &) = delete;

    /** One traced execute; returns its wall time in ms. */
    double execute(const mesorasi::geom::PointCloud &cloud, uint64_t seed,
                   mesorasi::core::plan::ExecutionContext &ctx);

    /** Per-request means over every traced execute so far. */
    void rollup(Metrics &m) const;

    void writeChromeTrace(const std::string &path) const;

  private:
    using Clock = std::chrono::steady_clock;

    struct StepInfo
    {
        std::string name;
        std::string module; ///< step-name prefix ("sa1", "ec3", "head")
        std::string op;     ///< opKindName of the step's descriptor
        const char *phase;  ///< N / A / F / other
        const char *layer;  ///< neighbor / nn / tensor / geom
        double macs = 0.0;
        double bytes = 0.0;   ///< tensor layer: bytes gathered or read
        double queries = 0.0; ///< neighbor layer
        double distEvals = 0.0;
    };

    struct Span
    {
        int64_t startNs;
        int64_t durNs;
        int32_t request;
        int32_t step; ///< -1 for the request span
    };

    void record(int64_t startNs, int64_t durNs, int32_t step);
    int64_t sinceEpoch(Clock::time_point t) const;

    std::vector<StepInfo> steps_;
    std::vector<int64_t> stepNs_; ///< summed over traced requests
    int64_t wallNs_ = 0;
    int64_t requests_ = 0;

    std::vector<Span> spans_;
    int64_t dropped_ = 0;

    const mesorasi::core::plan::CompiledEngine &engine_;
    Clock::time_point epoch_;
    Clock::time_point last_;
    std::function<void(int32_t)> afterStep_;
};

} // namespace mbench
