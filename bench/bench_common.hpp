/**
 * @file
 * Shared helpers for the figure-reproduction benches.
 *
 * Every bench binary regenerates one table/figure from the paper's
 * evaluation: it executes the real networks on synthetic datasets,
 * simulates the SoC, and prints our measured rows next to the paper's
 * reported numbers.
 */
#pragma once

#include <string>
#include <utility>
#include <vector>

#include "core/networks.hpp"
#include "geom/datasets.hpp"
#include "hwsim/soc.hpp"

namespace mesorasi::bench {

/**
 * Machine-readable bench output: collects named sample sets and writes
 * them as BENCH_<benchName>.json next to the human-readable tables, so
 * the performance trajectory is tracked across PRs. A host block
 * records where the numbers came from (nproc, pool threads, the SIMD
 * ISA the kernels dispatched to — "scalar" when forced — and its lane
 * width, compiler, build type, git sha of the working directory); each
 * record carries the bench-specific parameters plus median and p90
 * milliseconds.
 */
class BenchJsonWriter
{
  public:
    /** @param benchName stem of the output file (BENCH_<stem>.json). */
    explicit BenchJsonWriter(std::string benchName);

    /** Record one timed configuration. @p samplesMs holds one wall
     *  time per repetition; median/p90 are derived at write time. */
    void add(const std::string &name,
             std::vector<std::pair<std::string, std::string>> params,
             const std::vector<double> &samplesMs);

    /** Write BENCH_<benchName>.json into @p dir (default: cwd).
     *  Returns false (and prints a warning) if the file can't be
     *  opened. */
    bool write(const std::string &dir = ".") const;

    /** Output path the next write() call would use. */
    std::string path(const std::string &dir = ".") const;

  private:
    struct Record
    {
        std::string name;
        std::vector<std::pair<std::string, std::string>> params;
        std::vector<double> samplesMs;
    };

    std::string benchName_;
    std::vector<Record> records_;
};

/** Build the right synthetic input for a network (ModelNet-style for
 *  classification, ShapeNet-style for segmentation, a KITTI frustum
 *  for detection). */
geom::PointCloud inputFor(const core::NetworkConfig &cfg,
                          uint64_t seed = 11);

/** One network executed under the pipelines a bench needs. */
struct NetRun
{
    core::NetworkConfig cfg;
    core::RunResult original;
    core::RunResult delayed;
    core::RunResult ltd; ///< filled only when requested
};

/** Execute a network under original+delayed (and optionally ltd). */
NetRun runNetwork(const core::NetworkConfig &cfg, bool needLtd = false,
                  uint64_t seed = 11);

/** Execute every network of a list. */
std::vector<NetRun> runAll(const std::vector<core::NetworkConfig> &cfgs,
                           bool needLtd = false, uint64_t seed = 11);

/** Short display name matching the paper's figure labels. */
std::string shortName(const std::string &networkName);

} // namespace mesorasi::bench
