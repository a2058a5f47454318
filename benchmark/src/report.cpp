#include "report.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <iomanip>
#include <ostream>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "common/simd.hpp"
#include "common/thread_pool.hpp"
#include "json.hpp"

namespace mbench {

void
Metrics::add(const std::string &name, double value, const std::string &unit,
             int64_t samples)
{
    list_.push_back(Metric{name, value, unit, samples});
}

const Metric *
Metrics::find(const std::string &name) const
{
    for (const Metric &m : list_)
        if (m.name == name)
            return &m;
    return nullptr;
}

double
percentile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    double pos = q * static_cast<double>(v.size() - 1);
    size_t lo = static_cast<size_t>(std::floor(pos));
    size_t hi = std::min(lo + 1, v.size() - 1);
    double frac = pos - static_cast<double>(lo);
    return v[lo] + (v[hi] - v[lo]) * frac;
}

Host
hostInfo(const std::string &gitSha)
{
    Host h;
    h.nproc = static_cast<int32_t>(std::thread::hardware_concurrency());
    h.poolThreads = mesorasi::ThreadPool::defaultThreads();
    h.simdIsa = mesorasi::simd::kIsa;
    h.simdWidth = mesorasi::simd::kWidth;
    h.forceScalar = mesorasi::simd::forceScalar();
    h.compiler = MBENCH_COMPILER;
    h.buildType = MBENCH_BUILD_TYPE;
    h.gitSha = gitSha;
    return h;
}

std::vector<SpecMetric>
loadSpecList(const std::string &specPath, const std::string &key)
{
    json::Value spec = json::parseFile(specPath);
    std::vector<SpecMetric> out;
    for (const json::Value &m : spec.at(key).items) {
        SpecMetric s;
        s.name = m.at("name").str;
        s.unit = m.at("unit").str;
        s.better = m.at("better").str;
        if (const json::Value *b = m.find("bound"))
            s.bound = b->number;
        out.push_back(std::move(s));
    }
    return out;
}

double
peakRssMib()
{
    struct rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // Linux: KiB
}

void
printHuman(std::ostream &os, const RunResult &r, const Host &host)
{
    os << "== " << r.workload << "  seed " << r.seed << ", " << r.loop
       << " loop";
    if (r.loop == "open")
        os << " at " << r.offeredQps << " QPS";
    else
        os << ", " << r.clients << " client(s)";
    os << ", tail p" << r.tailQ * 100 << ", window " << r.windowS << " s, "
       << (r.trace ? "traced" : "untraced") << (r.quick ? ", quick" : "")
       << " ==\n";
    os << "host: nproc " << host.nproc << ", pool threads "
       << host.poolThreads << ", simd " << host.simdIsa << " x"
       << host.simdWidth << (host.forceScalar ? " (forced scalar)" : "")
       << ", " << host.compiler << ", " << host.buildType << ", sha "
       << host.gitSha << "\n";
    for (const std::string &c : r.checks)
        os << "check: " << c << "\n";
    os << "requests: attempted " << r.attempted << ", failed or rejected "
       << r.failed << "\n";
    os << std::left << std::setw(30) << "metric" << std::right
       << std::setw(16) << "value" << "  " << std::left << std::setw(8)
       << "unit" << std::right << std::setw(8) << "n" << "\n";
    for (const Metric &m : r.metrics.all()) {
        std::ostringstream v;
        v << std::setprecision(6) << m.value;
        os << std::left << std::setw(30) << m.name << std::right
           << std::setw(16) << v.str() << "  " << std::left << std::setw(8)
           << m.unit << std::right << std::setw(8) << m.samples << "\n";
    }
}

std::string
resultJson(const RunResult &r, const Host &host)
{
    std::ostringstream os;
    os << "{\"workload\": " << json::quote(r.workload)
       << ", \"seed\": " << r.seed
       << ", \"trace\": " << (r.trace ? "true" : "false")
       << ", \"quick\": " << (r.quick ? "true" : "false")
       << ", \"window_s\": " << json::number(r.windowS)
       << ", \"loop\": " << json::quote(r.loop)
       << ", \"clients\": " << r.clients
       << ", \"offered_qps\": " << json::number(r.offeredQps)
       << ", \"tail_percentile\": " << json::number(r.tailQ * 100)
       << ",\n \"host\": {\"nproc\": " << host.nproc
       << ", \"pool_threads\": " << host.poolThreads
       << ", \"simd_isa\": " << json::quote(host.simdIsa)
       << ", \"simd_width\": " << host.simdWidth
       << ", \"force_scalar\": " << (host.forceScalar ? "true" : "false")
       << ", \"compiler\": " << json::quote(host.compiler)
       << ", \"build_type\": " << json::quote(host.buildType)
       << ", \"git_sha\": " << json::quote(host.gitSha) << "}"
       << ",\n \"correct\": " << (r.correct ? "true" : "false")
       << ", \"attempted\": " << r.attempted
       << ", \"failed\": " << r.failed << ", \"checks\": [";
    for (size_t i = 0; i < r.checks.size(); ++i)
        os << (i ? ", " : "") << json::quote(r.checks[i]);
    os << "],\n \"metrics\": {";
    const std::vector<Metric> &all = r.metrics.all();
    for (size_t i = 0; i < all.size(); ++i)
        os << (i ? ",\n  " : "\n  ") << json::quote(all[i].name)
           << ": {\"value\": " << json::number(all[i].value)
           << ", \"unit\": " << json::quote(all[i].unit)
           << ", \"n\": " << all[i].samples << "}";
    os << "}}";
    return os.str();
}

std::string
summaryLine(const RunResult &r, const std::vector<SpecMetric> &list)
{
    std::ostringstream os;
    os << "{\"correct\": " << (r.correct ? "true" : "false")
       << ", \"attempted\": " << r.attempted << ", \"failed\": " << r.failed
       << ", \"metrics\": {";
    for (size_t i = 0; i < list.size(); ++i) {
        const SpecMetric &s = list[i];
        double value = 0.0;
        if (const Metric *m = r.metrics.find(s.name)) {
            if (m->unit != s.unit)
                throw std::runtime_error("metric " + s.name + " has unit " +
                                         m->unit + ", BENCHMARK.json says " +
                                         s.unit);
            value = m->value;
        } else if (s.name.rfind("op.", 0) != 0 &&
                   s.name.rfind("module.", 0) != 0) {
            throw std::runtime_error("run produced no metric " + s.name);
        }
        os << (i ? ", " : "") << json::quote(s.name)
           << ": {\"value\": " << json::number(value)
           << ", \"unit\": " << json::quote(s.unit) << "}";
    }
    os << "}}";
    return os.str();
}

} // namespace mbench
