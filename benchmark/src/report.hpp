/**
 * @file
 * What one benchmark run produces and how it is reported: the metric
 * set, host metadata, the human-readable table, the result-file record
 * and the one-line JSON summary whose metric list BENCHMARK.json fixes.
 */
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

namespace mbench {

struct Metric
{
    std::string name;
    double value = 0.0;
    std::string unit;
    int64_t samples = 1; ///< measurements behind the value
};

/** Insertion-ordered metric set. */
class Metrics
{
  public:
    void add(const std::string &name, double value, const std::string &unit,
             int64_t samples = 1);
    const Metric *find(const std::string &name) const;
    const std::vector<Metric> &all() const { return list_; }

  private:
    std::vector<Metric> list_;
};

/** Linearly interpolated @p q-quantile (q in [0, 1]) of @p v; 0 if empty. */
double percentile(std::vector<double> v, double q);

struct Host
{
    int32_t nproc = 0;
    int32_t poolThreads = 0; ///< global ThreadPool size
    std::string simdIsa;
    int32_t simdWidth = 0;   ///< f32 lanes
    bool forceScalar = false;
    std::string compiler;
    std::string buildType;
    std::string gitSha;
};

Host hostInfo(const std::string &gitSha);

struct RunResult
{
    std::string workload;
    uint64_t seed = 0;
    bool trace = false;
    bool quick = false;
    double windowS = 0.0;
    std::string loop; ///< "closed" / "open"
    int32_t clients = 0;
    double offeredQps = 0.0;
    double tailQ = 0.0; ///< percentile behind latency_tail_ms

    bool correct = true;
    std::vector<std::string> checks; ///< one line per check, pass or fail
    int64_t attempted = 0;
    int64_t failed = 0; ///< failed + rejected requests
    Metrics metrics;
};

/** One entry of a BENCHMARK.json metric list. */
struct SpecMetric
{
    std::string name;
    std::string unit;
    std::string better; ///< "lower" / "higher"
    double bound = 0.0; ///< end_to_end only
};

/** The @p key list ("end_to_end" / "per_layer") of the spec file. */
std::vector<SpecMetric> loadSpecList(const std::string &specPath,
                                     const std::string &key);

/** Peak resident set size of this process, MiB. */
double peakRssMib();

void printHuman(std::ostream &os, const RunResult &r, const Host &host);

/** Full record: run settings, host metadata, checks, every metric. */
std::string resultJson(const RunResult &r, const Host &host);

/**
 * The one-line summary: correct/attempted/failed plus exactly the
 * metrics of @p list. A listed op.* or module.* breakdown that this
 * network does not run reads 0 ms; any other listed metric the run did
 * not produce is an error (throws).
 */
std::string summaryLine(const RunResult &r,
                        const std::vector<SpecMetric> &list);

} // namespace mbench
