/**
 * @file
 * mesorasi_bench: runs, reports and compares the repo benchmark.
 *
 *   mesorasi_bench run --workload <name> [--seed N] [--seconds S]
 *                      [--trace 0|1] [--quick] [--spec BENCHMARK.json]
 *                      [--golden benchmark/golden.json]
 *                      [--out-dir benchmark/out] [--git-sha SHA]
 *   mesorasi_bench compare <dirA> <dirB> [--spec BENCHMARK.json]
 *
 * `run` prints a human-readable report, writes
 * <out-dir>/<workload>[.trace].result.json, and prints as its last line
 * one JSON object with the metrics BENCHMARK.json lists for the mode
 * (end_to_end untraced, per_layer traced). It exits 1 if a correctness
 * check failed and 2 on usage or I/O errors.
 */
#include <malloc.h>

#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <stdexcept>
#include <string>

#include "compare.hpp"
#include "json.hpp"
#include "report.hpp"
#include "workloads.hpp"

using namespace mbench;

namespace {

int
usage()
{
    std::cerr << "usage: mesorasi_bench run --workload <name> [--seed N] "
                 "[--seconds S] [--trace 0|1] [--quick]\n"
                 "                          [--spec BENCHMARK.json] "
                 "[--golden benchmark/golden.json]\n"
                 "                          [--out-dir benchmark/out] "
                 "[--git-sha SHA]\n"
                 "       mesorasi_bench compare <dirA> <dirB> "
                 "[--spec BENCHMARK.json]\n"
                 "workloads:";
    for (const std::string &w : workloadNames())
        std::cerr << " " << w;
    std::cerr << "\n";
    return 2;
}

uint64_t
parseUnsigned(const std::string &flag, const char *s)
{
    char *end = nullptr;
    unsigned long long v = std::strtoull(s, &end, 10);
    if (*s == '\0' || *s == '-' || *end != '\0')
        throw std::runtime_error(flag + " needs a whole number, got '" + s +
                                 "'");
    return v;
}

int
cmdRun(int argc, char **argv)
{
    RunOptions opts;
    opts.goldenPath = "benchmark/golden.json";
    opts.outDir = "benchmark/out";
    std::string spec = "BENCHMARK.json";
    std::string gitSha = "unknown";
    double seconds = 0.0;
    for (int i = 2; i < argc; ++i) {
        const std::string flag = argv[i];
        if (flag == "--quick") {
            opts.quick = true;
            continue;
        }
        if (i + 1 >= argc)
            return usage();
        const char *value = argv[++i];
        if (flag == "--workload")
            opts.workload = value;
        else if (flag == "--seed")
            opts.seed = parseUnsigned(flag, value);
        else if (flag == "--seconds")
            seconds = static_cast<double>(parseUnsigned(flag, value));
        else if (flag == "--trace")
            opts.trace = parseUnsigned(flag, value) != 0;
        else if (flag == "--spec")
            spec = value;
        else if (flag == "--golden")
            opts.goldenPath = value;
        else if (flag == "--out-dir")
            opts.outDir = value;
        else if (flag == "--git-sha")
            gitSha = value;
        else
            return usage();
    }
    if (opts.workload.empty())
        return usage();

    const std::vector<SpecMetric> summary =
        loadSpecList(spec, opts.trace ? "per_layer" : "end_to_end");
    opts.seconds = seconds > 0.0
                       ? seconds
                       : json::parseFile(spec).at("run_seconds").number;
    std::filesystem::create_directories(opts.outDir);

    const RunResult r = runWorkload(opts);
    const Host host = hostInfo(gitSha);
    printHuman(std::cout, r, host);

    const std::string path = opts.outDir + "/" + r.workload +
                             (r.trace ? ".trace" : "") + ".result.json";
    std::ofstream(path) << resultJson(r, host) << "\n";
    std::cout << "wrote " << path << "\n";

    if (!r.correct) {
        std::cout << "{\"correct\": false, \"attempted\": " << r.attempted
                  << ", \"failed\": " << r.failed << ", \"metrics\": {}}"
                  << std::endl;
        return 1;
    }
    std::cout << summaryLine(r, summary) << std::endl;
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
#ifdef __GLIBC__
    // One malloc arena: with per-thread arenas, whether the serving
    // workers' contexts reuse memory freed after set-up or touch a fresh
    // arena depends on thread timing, and peak RSS jumps by ~4 MiB
    // between otherwise identical runs.
    mallopt(M_ARENA_MAX, 1);
#endif
    try {
        if (argc >= 2 && std::strcmp(argv[1], "run") == 0)
            return cmdRun(argc, argv);
        if (argc >= 4 && std::strcmp(argv[1], "compare") == 0) {
            std::string spec = "BENCHMARK.json";
            if (argc == 6 && std::strcmp(argv[4], "--spec") == 0)
                spec = argv[5];
            else if (argc != 4)
                return usage();
            return compareResultSets(argv[2], argv[3], spec);
        }
        return usage();
    } catch (const std::exception &e) {
        std::cerr << "mesorasi_bench: " << e.what() << "\n";
        return 2;
    }
}
