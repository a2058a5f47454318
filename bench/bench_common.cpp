#include "bench_common.hpp"

#include <cstdio>
#include <fstream>
#include <iostream>
#include <sstream>
#include <thread>

#include "common/simd.hpp"
#include "common/stats.hpp"
#include "common/thread_pool.hpp"

#ifndef MESORASI_BENCH_COMPILER
#define MESORASI_BENCH_COMPILER "unknown"
#endif
#ifndef MESORASI_BENCH_BUILD_TYPE
#define MESORASI_BENCH_BUILD_TYPE "unknown"
#endif

namespace mesorasi::bench {

namespace {

/** Minimal JSON string escaping (quotes, backslashes, control chars). */
std::string
jsonEscape(const std::string &s)
{
    std::ostringstream os;
    for (char c : s) {
        switch (c) {
          case '"': os << "\\\""; break;
          case '\\': os << "\\\\"; break;
          case '\n': os << "\\n"; break;
          case '\t': os << "\\t"; break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x",
                              static_cast<int>(c));
                os << buf;
            } else {
                os << c;
            }
        }
    }
    return os.str();
}

/** First line of @p cmd's stdout, or "" when it fails. */
std::string
firstLineOf(const char *cmd)
{
    std::string out;
    if (FILE *p = popen(cmd, "r")) {
        char buf[256];
        if (std::fgets(buf, sizeof buf, p))
            out = buf;
        pclose(p);
    }
    while (!out.empty() && (out.back() == '\n' || out.back() == '\r'))
        out.pop_back();
    return out;
}

/** Short sha of the working directory's checkout, "-dirty" when it has
 *  uncommitted changes (as benchmark/run.sh reports it); "unknown"
 *  outside a git checkout. */
std::string
gitSha()
{
    std::string sha =
        firstLineOf("git rev-parse --short=12 HEAD 2>/dev/null");
    if (sha.empty())
        return "unknown";
    if (!firstLineOf("git status --porcelain 2>/dev/null").empty())
        sha += "-dirty";
    return sha;
}

} // namespace

BenchJsonWriter::BenchJsonWriter(std::string benchName)
    : benchName_(std::move(benchName))
{
}

void
BenchJsonWriter::add(
    const std::string &name,
    std::vector<std::pair<std::string, std::string>> params,
    const std::vector<double> &samplesMs)
{
    records_.push_back({name, std::move(params), samplesMs});
}

std::string
BenchJsonWriter::path(const std::string &dir) const
{
    return dir + "/BENCH_" + benchName_ + ".json";
}

bool
BenchJsonWriter::write(const std::string &dir) const
{
    std::ofstream out(path(dir));
    if (!out) {
        std::cerr << "warning: cannot write " << path(dir) << "\n";
        return false;
    }
    out << "{\n  \"bench\": \"" << jsonEscape(benchName_) << "\",\n"
        << "  \"host\": {\"nproc\": " << std::thread::hardware_concurrency()
        << ", \"pool_threads\": " << ThreadPool::global().size()
        << ", \"isa\": \"" << simd::isaName(simd::isa())
        << "\", \"simd_width\": " << simd::isaWidth(simd::isa())
        << ", \"compiler\": \""
        << jsonEscape(MESORASI_BENCH_COMPILER) << "\", \"build_type\": \""
        << jsonEscape(MESORASI_BENCH_BUILD_TYPE) << "\", \"git_sha\": \""
        << jsonEscape(gitSha()) << "\"},\n  \"records\": [\n";
    for (size_t i = 0; i < records_.size(); ++i) {
        const Record &r = records_[i];
        double median = 0.0, p90 = 0.0;
        if (!r.samplesMs.empty()) {
            median = percentile(r.samplesMs, 50.0);
            p90 = percentile(r.samplesMs, 90.0);
        }
        out << "    {\"name\": \"" << jsonEscape(r.name)
            << "\", \"params\": {";
        for (size_t j = 0; j < r.params.size(); ++j) {
            out << (j ? ", " : "") << "\"" << jsonEscape(r.params[j].first)
                << "\": \"" << jsonEscape(r.params[j].second) << "\"";
        }
        out << "}, \"samples\": " << r.samplesMs.size()
            << ", \"median_ms\": " << median << ", \"p90_ms\": " << p90
            << "}" << (i + 1 < records_.size() ? "," : "") << "\n";
    }
    out << "  ]\n}\n";
    return static_cast<bool>(out);
}

geom::PointCloud
inputFor(const core::NetworkConfig &cfg, uint64_t seed)
{
    switch (cfg.task) {
      case core::Task::Segmentation: {
        geom::ShapeNetSim sim(seed, cfg.numInputPoints);
        return sim.sample(0).cloud;
      }
      case core::Task::Detection: {
        geom::KittiSim sim(seed);
        auto frame = sim.frame(4, 2, 1);
        auto frustums = sim.frustums(frame, cfg.numInputPoints);
        MESO_CHECK(!frustums.empty(), "no frustums generated");
        return frustums.front();
      }
      case core::Task::Classification:
      default: {
        geom::ModelNetSim sim(seed, cfg.numInputPoints);
        return sim.sample(0).cloud;
      }
    }
}

NetRun
runNetwork(const core::NetworkConfig &cfg, bool needLtd, uint64_t seed)
{
    NetRun out;
    out.cfg = cfg;
    core::NetworkExecutor exec(cfg, /*weightSeed=*/1);
    geom::PointCloud cloud = inputFor(cfg, seed);
    out.original = exec.run(cloud, core::PipelineKind::Original, seed);
    out.delayed = exec.run(cloud, core::PipelineKind::Delayed, seed);
    if (needLtd)
        out.ltd = exec.run(cloud, core::PipelineKind::LtdDelayed, seed);
    return out;
}

std::vector<NetRun>
runAll(const std::vector<core::NetworkConfig> &cfgs, bool needLtd,
       uint64_t seed)
{
    std::vector<NetRun> out;
    out.reserve(cfgs.size());
    for (const auto &cfg : cfgs)
        out.push_back(runNetwork(cfg, needLtd, seed));
    return out;
}

std::string
shortName(const std::string &networkName)
{
    return networkName;
}

} // namespace mesorasi::bench
