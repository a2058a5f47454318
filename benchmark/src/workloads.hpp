/**
 * @file
 * The four benchmark workloads and the run that measures one of them.
 */
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "report.hpp"

namespace mbench {

struct RunOptions
{
    std::string workload;
    uint64_t seed = 1;
    double seconds = 20.0; ///< timed window
    bool trace = false;
    bool quick = false;    ///< 1 s window, short warm-up, all checks
    std::string goldenPath;
    std::string outDir;    ///< Chrome trace files go here
};

std::vector<std::string> workloadNames();

/**
 * Set up, check the canary, warm up, measure and re-check one workload.
 * Untraced runs fill the end-to-end metrics; traced runs fill the
 * per-layer metrics and write <outDir>/<workload>.trace.json. A failed
 * correctness check leaves RunResult::correct false. Throws on unknown
 * workloads and unreadable inputs.
 */
RunResult runWorkload(const RunOptions &opts);

} // namespace mbench
