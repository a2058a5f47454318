#include "compare.hpp"

#include <algorithm>
#include <filesystem>
#include <iomanip>
#include <iostream>
#include <map>
#include <sstream>
#include <stdexcept>
#include <vector>

#include "json.hpp"
#include "report.hpp"
#include "workloads.hpp"

namespace mbench {

namespace {

/** Values of one (workload, metric) pair, one per result set. */
using Samples = std::map<std::pair<std::string, std::string>,
                         std::vector<double>>;

struct Quartiles
{
    double q1, median, q3;
};

/** Python's statistics.quantiles(v, n=4) (exclusive method) and
 *  statistics.median, so spreads match the ones computed in Python. */
Quartiles
quartiles(std::vector<double> v)
{
    std::sort(v.begin(), v.end());
    const size_t n = v.size();
    const double mid = n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2.0;
    if (n < 2)
        return {mid, mid, mid};
    auto q = [&](size_t i) {
        const size_t m = n + 1;
        size_t j = std::clamp<size_t>(i * m / 4, 1, n - 1);
        const double delta =
            static_cast<double>(i * m) - static_cast<double>(j * 4);
        return (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0;
    };
    return {q(1), mid, q(3)};
}

/** Every untraced run of every result set under @p dir. */
Samples
loadDir(const std::string &dir, size_t &sets)
{
    std::vector<std::filesystem::path> files;
    for (const auto &e : std::filesystem::directory_iterator(dir))
        if (e.is_regular_file() && e.path().extension() == ".json")
            files.push_back(e.path());
    std::sort(files.begin(), files.end());
    sets = files.size();
    Samples out;
    for (const auto &f : files) {
        const json::Value set = json::parseFile(f.string());
        for (const json::Value &run : set.at("runs").items) {
            if (run.at("trace").boolean || run.at("quick").boolean)
                continue;
            const std::string &w = run.at("workload").str;
            for (const auto &[name, m] : run.at("metrics").members)
                out[{w, name}].push_back(m.at("value").number);
        }
    }
    return out;
}

std::string
fmtQuartiles(const Quartiles &q)
{
    std::ostringstream os;
    os << std::setprecision(4) << q.median << " [" << q.q1 << ", " << q.q3
       << "]";
    return os.str();
}

} // namespace

int
compareResultSets(const std::string &dirA, const std::string &dirB,
                  const std::string &specPath)
{
    std::vector<SpecMetric> metrics = loadSpecList(specPath, "end_to_end");
    // Failures are gated absolutely: any rise is a regression.
    metrics.push_back(SpecMetric{"error_frac", "fraction", "lower", 0.0});

    size_t setsA = 0, setsB = 0;
    const Samples a = loadDir(dirA, setsA);
    const Samples b = loadDir(dirB, setsB);
    if (setsA < 3 || setsB < 3)
        throw std::runtime_error("compare needs at least 3 result sets per "
                                 "side, got " +
                                 std::to_string(setsA) + " and " +
                                 std::to_string(setsB));

    std::cout << "A: " << dirA << " (" << setsA << " sets)   B: " << dirB
              << " (" << setsB << " sets)\n"
              << std::left << std::setw(19) << "workload" << std::setw(17)
              << "metric" << std::setw(28) << "A median [q1, q3]"
              << std::setw(28) << "B median [q1, q3]" << std::setw(9)
              << "change" << std::setw(7) << "bound" << "verdict\n";
    bool anyWorse = false;
    for (const std::string &w : workloadNames()) {
        for (const SpecMetric &m : metrics) {
            auto ia = a.find({w, m.name});
            auto ib = b.find({w, m.name});
            if (ia == a.end() || ib == b.end()) {
                std::cout << std::left << std::setw(19) << w
                          << std::setw(17) << m.name << "missing\n";
                continue;
            }
            const std::vector<double> &va = ia->second;
            const std::vector<double> &vb = ib->second;
            const Quartiles qa = quartiles(va), qb = quartiles(vb);
            const bool lower = m.better == "lower";
            // Positive change = worse, as a share of A's median.
            const double change =
                qa.median != 0.0
                    ? (lower ? 1.0 : -1.0) * (qb.median - qa.median) /
                          qa.median
                    : 0.0;
            std::string verdict;
            if (m.name == "error_frac") {
                verdict = *std::max_element(vb.begin(), vb.end()) >
                                  *std::max_element(va.begin(), va.end())
                              ? "worse"
                              : "within bound";
            } else {
                const double spread =
                    std::max((qa.q3 - qa.q1) / qa.median,
                             (qb.q3 - qb.q1) / qb.median);
                const bool allBetter =
                    lower ? *std::max_element(vb.begin(), vb.end()) <
                                *std::min_element(va.begin(), va.end())
                          : *std::min_element(vb.begin(), vb.end()) >
                                *std::max_element(va.begin(), va.end());
                if (allBetter)
                    verdict = "within bound";
                else if (spread > m.bound)
                    verdict = "unresolved";
                else if (change > m.bound)
                    verdict = "worse";
                else
                    verdict = "within bound";
            }
            anyWorse = anyWorse || verdict == "worse";
            std::ostringstream ch, bd;
            ch << std::showpos << std::fixed << std::setprecision(1)
               << change * 100.0 << "%";
            bd << m.bound;
            std::cout << std::left << std::setw(19) << w << std::setw(17)
                      << m.name << std::setw(28) << fmtQuartiles(qa)
                      << std::setw(28) << fmtQuartiles(qb) << std::setw(9)
                      << ch.str() << std::setw(7) << bd.str() << verdict
                      << "\n";
        }
    }
    return anyWorse ? 1 : 0;
}

} // namespace mbench
