/**
 * @file
 * `mesorasi_bench compare A/ B/`: two directories of result sets
 * (benchmark/out/results-*.json files, at least three each), judged
 * metric by metric against the bounds in BENCHMARK.json.
 */
#pragma once

#include <string>

namespace mbench {

/** Prints the comparison table; returns 1 if any metric got worse. */
int compareResultSets(const std::string &dirA, const std::string &dirB,
                      const std::string &specPath);

} // namespace mbench
