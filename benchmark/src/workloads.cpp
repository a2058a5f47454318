#include "workloads.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <memory>
#include <random>
#include <stdexcept>
#include <thread>

#include "common/status.hpp"
#include "core/networks.hpp"
#include "core/plan/engine.hpp"
#include "core/plan/plan_compiler.hpp"
#include "core/plan/serialize.hpp"
#include "geom/datasets.hpp"
#include "json.hpp"
#include "serve/serving_engine.hpp"
#include "trace.hpp"

namespace mbench {

namespace plan = mesorasi::core::plan;
namespace serve = mesorasi::serve;
using mesorasi::Status;
using mesorasi::StatusCode;
using mesorasi::geom::PointCloud;

namespace {

using Clock = std::chrono::steady_clock;

enum class Loop { Stream, ServeOpen, ServeClosed };

struct Workload
{
    const char *name;
    const char *network; ///< golden.json key
    mesorasi::core::NetworkConfig (*config)();
    Loop loop;
    int32_t clients; ///< closed-loop client threads
    double qps;      ///< open-loop offered rate
    /** Percentile reported as latency_tail_ms: the highest with at
     *  least ten samples beyond it in a 25 s window. */
    double tailQ;
};

// Why each workload exists is recorded in benchmark/README.md.
const Workload kWorkloads[] = {
    {"pnpp-stream", "pointnetpp_c",
     mesorasi::core::zoo::pointnetppClassification, Loop::Stream, 1, 0.0,
     0.99},
    {"dgcnn-stream", "dgcnn_c", mesorasi::core::zoo::dgcnnClassification,
     Loop::Stream, 1, 0.0, 0.95},
    {"pnpp-serve-open", "pointnetpp_c",
     mesorasi::core::zoo::pointnetppClassification, Loop::ServeOpen, 0,
     40.0, 0.99},
    {"pnpp-serve-closed", "pointnetpp_c",
     mesorasi::core::zoo::pointnetppClassification, Loop::ServeClosed, 4,
     0.0, 0.99},
};

constexpr int32_t kPoolClouds = 64;
/** Every 64th request of a window, starting with its first, is
 *  re-checked. */
constexpr uint64_t kCheckStride = 64;
constexpr int32_t kColdSetups = 5;
constexpr uint64_t kWeightSeed = 1;
constexpr uint64_t kCanaryDataSeed = 17;
constexpr int32_t kCanaryClouds = 16;
constexpr uint64_t kCanaryRunSeed = 100; ///< seeds 100..115

/** Topology pinned at 2 shards x 2 workers; batch and queue policy
 *  stay at the library defaults. */
serve::ServingOptions
serveOptions()
{
    serve::ServingOptions o;
    o.numShards = 2;
    o.threadsPerShard = 2;
    return o;
}

double
toMs(Clock::duration d)
{
    return std::chrono::duration<double, std::milli>(d).count();
}

double
median(std::vector<double> v)
{
    return percentile(std::move(v), 0.5);
}

/** The generated inputs: a pool of clouds, and per-request run seeds
 *  derived from the workload seed. Request i uses cloud i mod 64. */
struct Inputs
{
    std::vector<PointCloud> clouds;
    uint64_t seed = 0;

    const PointCloud &
    cloud(uint64_t i) const
    {
        return clouds[i % clouds.size()];
    }

    uint64_t runSeed(uint64_t i) const { return seed * 1000003ull + i; }
};

/** Logits of one sampled request, kept for the bitwise re-check. */
struct Kept
{
    uint64_t index = 0;
    std::vector<float> logits;
};

std::vector<float>
copyLogits(const mesorasi::tensor::Tensor &t)
{
    return std::vector<float>(
        t.data(), t.data() + static_cast<size_t>(t.rows()) * t.cols());
}

/** What one measured phase saw. */
struct Load
{
    std::vector<double> latencyMs; ///< ok requests, as the client saw them
    std::vector<double> tracedMs;  ///< traced executes (trace runs)
    std::vector<double> sojournMs; ///< serve: Ticket::latencyMs()
    std::vector<double> submitUs;  ///< serve: time inside submit()
    std::vector<double> lagMs;     ///< open loop: submit time - due time
    int64_t attempted = 0;
    int64_t failed = 0;
    int64_t rejected = 0;
    double wallS = 0.0; ///< window start to last completion
    std::vector<Kept> kept;

    void
    reserve(size_t n)
    {
        latencyMs.reserve(n);
        sojournMs.reserve(n);
        submitUs.reserve(n);
        kept.reserve(n / kCheckStride + 1);
    }

    void
    append(Load &&o)
    {
        auto cat = [](auto &a, auto &b) {
            a.insert(a.end(), std::make_move_iterator(b.begin()),
                     std::make_move_iterator(b.end()));
        };
        cat(latencyMs, o.latencyMs);
        cat(tracedMs, o.tracedMs);
        cat(sojournMs, o.sojournMs);
        cat(submitUs, o.submitUs);
        cat(lagMs, o.lagMs);
        cat(kept, o.kept);
        attempted += o.attempted;
        failed += o.failed;
        rejected += o.rejected;
        wallS = std::max(wallS, o.wallS);
    }
};

struct Setup
{
    double totalS = 0.0;
    double compileMs = 0.0;
    double loadMs = 0.0;
    double makeContextMs = 0.0;
    double firstExecuteMs = 0.0;
};

/**
 * One cold set-up: weight init, compile, one context per worker and one
 * cold execute on each. Artifact load is timed apart from the set-up.
 */
std::unique_ptr<plan::CompiledEngine>
coldSetup(const Workload &w, const Inputs &in, int32_t workers, Setup &out)
{
    const Clock::time_point t0 = Clock::now();
    mesorasi::core::NetworkExecutor exec(w.config(), kWeightSeed);
    const Clock::time_point t1 = Clock::now();
    auto engine = std::make_unique<plan::CompiledEngine>(
        plan::PlanCompiler::compile(exec,
                                    mesorasi::core::PipelineKind::Delayed));
    const Clock::time_point t2 = Clock::now();
    std::vector<std::unique_ptr<plan::ExecutionContext>> contexts;
    for (int32_t i = 0; i < workers; ++i)
        contexts.push_back(engine->makeContext());
    const Clock::time_point t3 = Clock::now();
    for (auto &ctx : contexts)
        engine->execute(in.cloud(0), in.runSeed(0), *ctx);
    const Clock::time_point t4 = Clock::now();

    out.totalS = toMs(t4 - t0) / 1e3;
    out.compileMs = toMs(t2 - t1);
    out.makeContextMs = toMs(t3 - t2) / workers;
    out.firstExecuteMs = toMs(t4 - t3) / workers;

    const std::vector<uint8_t> bytes = plan::saveEngineToBytes(*engine);
    const Clock::time_point t5 = Clock::now();
    plan::CompiledEngine loaded =
        plan::loadEngineFromBytes(bytes.data(), bytes.size());
    out.loadMs = toMs(Clock::now() - t5);
    return engine;
}

/** FNV-1a over the logits of the fixed canary requests. */
std::string
canaryDigest(const plan::CompiledEngine &engine)
{
    mesorasi::geom::ModelNetSim sim(kCanaryDataSeed,
                                    engine.numInputPoints());
    std::unique_ptr<plan::ExecutionContext> ctx = engine.makeContext();
    uint64_t h = 1469598103934665603ull;
    for (int32_t i = 0; i < kCanaryClouds; ++i) {
        const PointCloud cloud = sim.sample().cloud;
        const mesorasi::tensor::Tensor &lg =
            engine.execute(cloud, kCanaryRunSeed + i, *ctx);
        const auto *p = reinterpret_cast<const unsigned char *>(lg.data());
        const size_t n =
            static_cast<size_t>(lg.rows()) * lg.cols() * sizeof(float);
        for (size_t b = 0; b < n; ++b) {
            h ^= p[b];
            h *= 1099511628211ull;
        }
    }
    char buf[24];
    std::snprintf(buf, sizeof buf, "0x%016llx",
                  static_cast<unsigned long long>(h));
    return buf;
}

/** Closed loop on one context: each request starts when the last ends.
 *  With a tracer, every other request is traced. */
void
runStream(const plan::CompiledEngine &engine, plan::ExecutionContext &ctx,
          const Inputs &in, uint64_t &next, double seconds,
          StepTracer *tracer, Load &out)
{
    out.reserve(static_cast<size_t>(seconds * 1000.0) + 16);
    out.tracedMs.reserve(out.latencyMs.capacity());
    const Clock::time_point t0 = Clock::now();
    const Clock::time_point end =
        t0 + std::chrono::duration_cast<Clock::duration>(
                 std::chrono::duration<double>(seconds));
    Clock::time_point last = t0;
    const uint64_t first = next;
    bool traced = false;
    while (last < end) {
        const uint64_t i = next++;
        traced = tracer && !traced;
        ++out.attempted;
        Status status;
        double ms = 0.0;
        const Clock::time_point a = Clock::now();
        if (traced) {
            try {
                ms = tracer->execute(in.cloud(i), in.runSeed(i), ctx);
            } catch (...) {
                status = Status::fromCurrentException();
            }
        } else {
            status = engine.tryExecute(in.cloud(i), in.runSeed(i), ctx);
            ms = toMs(Clock::now() - a);
        }
        last = Clock::now();
        if (!status.isOk()) {
            ++out.failed;
            if (ctx.poisoned())
                ctx.reset();
            continue;
        }
        (traced ? out.tracedMs : out.latencyMs).push_back(ms);
        if ((i - first) % kCheckStride == 0)
            out.kept.push_back(Kept{i, copyLogits(ctx.logits())});
    }
    out.wallS = toMs(last - t0) / 1e3;
}

/** Sort one completed ticket into @p out. @p clientMs is the latency
 *  the client saw; returns false if the request did not succeed. */
bool
collect(const serve::Ticket &t, uint64_t index, uint64_t first,
        double clientMs, Load &out)
{
    ++out.attempted;
    if (!t.status().isOk()) {
        if (t.status().code() == StatusCode::ResourceExhausted)
            ++out.rejected;
        else
            ++out.failed;
        return false;
    }
    out.latencyMs.push_back(clientMs);
    out.sojournMs.push_back(t.latencyMs());
    if ((index - first) % kCheckStride == 0)
        out.kept.push_back(Kept{index, copyLogits(t.logits())});
    return true;
}

/**
 * Open loop: the arrivals of a Poisson process at @p qps, conditioned
 * on qps * seconds arrivals in the window (the order statistics of
 * uniform draws), from one generator thread. Each request is timed
 * from when it was due, so generator lateness counts.
 */
void
runOpen(serve::ServingEngine &server, const Inputs &in, uint64_t &next,
        double qps, double seconds, uint64_t scheduleSeed, Load &out)
{
    const size_t n =
        std::max<size_t>(1, static_cast<size_t>(std::llround(qps * seconds)));
    std::mt19937_64 rng(scheduleSeed);
    std::vector<double> dueS(n);
    for (double &d : dueS)
        d = seconds * (static_cast<double>(rng() >> 11) * 0x1.0p-53);
    std::sort(dueS.begin(), dueS.end());

    std::vector<serve::Ticket> tickets;
    tickets.reserve(n);
    std::vector<uint64_t> index(n);
    std::vector<Clock::time_point> sent(n);
    out.reserve(n);
    out.lagMs.reserve(n);

    const uint64_t first = next;
    const Clock::time_point t0 = Clock::now();
    for (size_t k = 0; k < n; ++k) {
        const Clock::time_point due =
            t0 + std::chrono::duration_cast<Clock::duration>(
                     std::chrono::duration<double>(dueS[k]));
        std::this_thread::sleep_until(due);
        const uint64_t i = next++;
        const Clock::time_point a = Clock::now();
        tickets.push_back(server.submit(in.cloud(i), in.runSeed(i)));
        const Clock::time_point b = Clock::now();
        out.lagMs.push_back(toMs(a - due));
        out.submitUs.push_back(toMs(b - a) * 1e3);
        index[k] = i;
        sent[k] = a;
    }
    Clock::time_point lastDone = t0;
    for (size_t k = 0; k < n; ++k) {
        tickets[k].wait();
        if (!collect(tickets[k], index[k], first,
                     out.lagMs[k] + tickets[k].latencyMs(), out))
            continue;
        lastDone = std::max(
            lastDone, sent[k] + std::chrono::duration_cast<Clock::duration>(
                                    std::chrono::duration<double, std::milli>(
                                        tickets[k].latencyMs())));
    }
    out.wallS = toMs(lastDone - t0) / 1e3;
}

/** Closed loop through the server: @p clients threads, each submitting
 *  a request and waiting for it before sending the next. */
void
runClosed(serve::ServingEngine &server, const Inputs &in, uint64_t &next,
          int32_t clients, double seconds, Load &out)
{
    const uint64_t first = next;
    std::atomic<uint64_t> counter{next};
    std::vector<Load> parts(static_cast<size_t>(clients));
    std::vector<std::string> errors(static_cast<size_t>(clients));
    const Clock::time_point t0 = Clock::now();
    const Clock::time_point end =
        t0 + std::chrono::duration_cast<Clock::duration>(
                 std::chrono::duration<double>(seconds));
    std::vector<std::thread> threads;
    for (size_t c = 0; c < parts.size(); ++c) {
        threads.emplace_back([&, c] {
            Load &part = parts[c];
            try {
                part.reserve(static_cast<size_t>(seconds * 1000.0) + 16);
                Clock::time_point last = t0;
                while (last < end) {
                    const uint64_t i = counter.fetch_add(1);
                    const Clock::time_point a = Clock::now();
                    serve::Ticket t =
                        server.submit(in.cloud(i), in.runSeed(i));
                    const Clock::time_point b = Clock::now();
                    t.wait();
                    last = Clock::now();
                    part.submitUs.push_back(toMs(b - a) * 1e3);
                    collect(t, i, first, toMs(last - a), part);
                }
                part.wallS = toMs(last - t0) / 1e3;
            } catch (const std::exception &e) {
                errors[c] = e.what();
            }
        });
    }
    for (std::thread &t : threads)
        t.join();
    for (const std::string &e : errors)
        if (!e.empty())
            throw std::runtime_error("closed-loop client: " + e);
    next = counter.load();
    for (Load &p : parts)
        out.append(std::move(p));
}

/** Re-execute every kept request on a fresh context and compare the
 *  logits bit for bit. Returns the number of mismatches. */
int64_t
recheck(const plan::CompiledEngine &engine, const Inputs &in,
        const std::vector<Kept> &kept, std::string &firstError)
{
    int64_t bad = 0;
    for (const Kept &k : kept) {
        std::unique_ptr<plan::ExecutionContext> ctx = engine.makeContext();
        Status s = engine.tryExecute(in.cloud(k.index), in.runSeed(k.index),
                                     *ctx);
        bool ok = s.isOk();
        if (ok) {
            const std::vector<float> ref = copyLogits(ctx->logits());
            ok = ref.size() == k.logits.size() &&
                 std::memcmp(ref.data(), k.logits.data(),
                             ref.size() * sizeof(float)) == 0 &&
                 std::all_of(k.logits.begin(), k.logits.end(),
                             [](float v) { return std::isfinite(v); });
        }
        if (!ok && bad++ == 0)
            firstError = "request " + std::to_string(k.index) +
                         (s.isOk() ? " logits differ" : ": " + s.toString());
    }
    return bad;
}

const Workload &
findWorkload(const std::string &name)
{
    for (const Workload &w : kWorkloads)
        if (name == w.name)
            return w;
    throw std::runtime_error("unknown workload '" + name + "'");
}

void
setEndToEnd(Metrics &m, const Workload &w, const Load &load,
            const std::vector<Setup> &setups)
{
    const std::vector<double> &lat = load.latencyMs;
    const int64_t n = static_cast<int64_t>(lat.size());
    m.add("latency_p50_ms", percentile(lat, 0.50), "ms", n);
    m.add("latency_p95_ms", percentile(lat, 0.95), "ms", n);
    m.add("latency_p99_ms", percentile(lat, 0.99), "ms", n);
    m.add("latency_tail_ms", percentile(lat, w.tailQ), "ms", n);
    m.add("throughput_cps",
          load.wallS > 0 ? static_cast<double>(n) / load.wallS : 0.0,
          "1/s", n);
    m.add("error_frac",
          load.attempted > 0
              ? static_cast<double>(load.failed + load.rejected) /
                    static_cast<double>(load.attempted)
              : 0.0,
          "fraction", load.attempted);
    std::vector<double> total;
    for (const Setup &s : setups)
        total.push_back(s.totalS);
    m.add("setup_s", median(total), "s",
          static_cast<int64_t>(setups.size()));
    m.add("peak_rss_mib", peakRssMib(), "MiB");
}

void
setPerLayer(Metrics &m, const Workload &w, const Load &load,
            const Load &solo, const serve::ServingStats &stats,
            const std::vector<Setup> &setups,
            const plan::CompiledEngine &engine, const StepTracer &tracer)
{
    const double soloP50 = percentile(solo.latencyMs, 0.5);
    const bool served = w.loop != Loop::Stream;
    const int64_t n = static_cast<int64_t>(load.sojournMs.size());

    std::vector<double> excess;
    for (double s : load.sojournMs)
        excess.push_back(s - soloP50);
    const double attempted =
        std::max<double>(1.0, static_cast<double>(load.attempted));
    const int32_t maxBatch = serveOptions().maxBatch;
    m.add("serve.submit_us_p50", percentile(load.submitUs, 0.50), "us", n);
    m.add("serve.submit_us_p99", percentile(load.submitUs, 0.99), "us", n);
    m.add("serve.excess_ms_p50", percentile(excess, 0.50), "ms", n);
    m.add("serve.excess_ms_p99", percentile(excess, 0.99), "ms", n);
    const int64_t batches = static_cast<int64_t>(stats.batches);
    m.add("serve.batch_mean", stats.meanBatchSize(), "requests", batches);
    m.add("serve.batch_fill", stats.meanBatchSize() / maxBatch, "fraction",
          batches);
    m.add("serve.rejected_frac",
          served ? static_cast<double>(load.rejected) / attempted : 0.0,
          "fraction", load.attempted);
    m.add("serve.failed_frac",
          served ? static_cast<double>(load.failed) / attempted : 0.0,
          "fraction", load.attempted);
    const int64_t lags = static_cast<int64_t>(load.lagMs.size());
    m.add("loadgen.lag_ms_p50", percentile(load.lagMs, 0.50), "ms", lags);
    m.add("loadgen.lag_ms_p99", percentile(load.lagMs, 0.99), "ms", lags);

    auto setupMedian = [&](double Setup::*field) {
        std::vector<double> v;
        for (const Setup &s : setups)
            v.push_back(s.*field);
        return median(v);
    };
    const int64_t k = static_cast<int64_t>(setups.size());
    m.add("plan.compile_ms", setupMedian(&Setup::compileMs), "ms", k);
    m.add("plan.load_ms", setupMedian(&Setup::loadMs), "ms", k);
    m.add("plan.make_context_ms", setupMedian(&Setup::makeContextMs), "ms",
          k);
    m.add("plan.first_execute_ms", setupMedian(&Setup::firstExecuteMs),
          "ms", k);
    m.add("plan.solo_execute_ms_p50", soloP50, "ms",
          static_cast<int64_t>(solo.latencyMs.size()));
    m.add("plan.steps", static_cast<double>(engine.steps().size()), "count");
    m.add("plan.arena_kib",
          static_cast<double>(engine.stats().arenaFloats) * 4.0 / 1024.0,
          "KiB");

    tracer.rollup(m);
    m.add("trace.overhead_frac",
          percentile(solo.tracedMs, 0.5) / soloP50 - 1.0, "fraction",
          static_cast<int64_t>(solo.tracedMs.size()));
}

} // namespace

std::vector<std::string>
workloadNames()
{
    std::vector<std::string> names;
    for (const Workload &w : kWorkloads)
        names.push_back(w.name);
    return names;
}

RunResult
runWorkload(const RunOptions &opts)
{
    const Workload &w = findWorkload(opts.workload);
    const double window = opts.quick ? 1.0 : opts.seconds;
    const double warmup = opts.quick ? 0.2 : 2.0;
    if (!(window > 0.0))
        throw std::runtime_error("--seconds must be > 0");

    RunResult r;
    r.workload = w.name;
    r.seed = opts.seed;
    r.trace = opts.trace;
    r.quick = opts.quick;
    r.windowS = window;
    r.loop = w.loop == Loop::ServeOpen ? "open" : "closed";
    r.clients = w.clients;
    r.offeredQps = w.qps;
    r.tailQ = w.tailQ;

    const std::string golden =
        json::parseFile(opts.goldenPath).at(w.network).str;

    Inputs in;
    in.seed = opts.seed;
    mesorasi::geom::ModelNetSim sim(opts.seed, w.config().numInputPoints);
    for (int32_t c = 0; c < kPoolClouds; ++c)
        in.clouds.push_back(sim.sample().cloud);

    const serve::ServingOptions sopts = serveOptions();
    const int32_t workers =
        w.loop == Loop::Stream ? 1 : sopts.numShards * sopts.threadsPerShard;
    std::vector<Setup> setups(kColdSetups);
    std::unique_ptr<plan::CompiledEngine> engine;
    for (Setup &s : setups)
        engine = coldSetup(w, in, workers, s);

    const std::string digest = canaryDigest(*engine);
    if (digest != golden) {
        r.correct = false;
        r.checks.push_back("canary FAILED: digest " + digest + ", golden " +
                           golden);
        return r;
    }
    r.checks.push_back("canary ok: " + std::to_string(kCanaryClouds) +
                       " clouds, digest " + digest);

    std::unique_ptr<StepTracer> tracer;
    if (opts.trace)
        tracer = std::make_unique<StepTracer>(*engine);
    Load load, solo, discard;
    serve::ServingStats stats; // stays empty on the stream workloads
    uint64_t next = 0;
    if (w.loop == Loop::Stream) {
        std::unique_ptr<plan::ExecutionContext> ctx = engine->makeContext();
        runStream(*engine, *ctx, in, next, warmup, nullptr, discard);
        runStream(*engine, *ctx, in, next, window, tracer.get(), load);
    } else {
        // A traced run splits the window between the served load and a
        // traced solo phase on one context.
        const double served = opts.trace ? window / 2 : window;
        serve::ServingEngine server(*engine, sopts);
        if (w.loop == Loop::ServeOpen) {
            runOpen(server, in, next, w.qps, warmup, ~opts.seed, discard);
            runOpen(server, in, next, w.qps, served, opts.seed, load);
        } else {
            runClosed(server, in, next, w.clients, warmup, discard);
            runClosed(server, in, next, w.clients, served, load);
        }
        server.shutdown();
        stats = server.stats();
        if (opts.trace) {
            std::unique_ptr<plan::ExecutionContext> ctx =
                engine->makeContext();
            runStream(*engine, *ctx, in, next, warmup / 4, nullptr, discard);
            runStream(*engine, *ctx, in, next, window / 2, tracer.get(),
                      solo);
        }
    }

    std::vector<Kept> kept = load.kept;
    kept.insert(kept.end(), solo.kept.begin(), solo.kept.end());
    std::string firstError;
    const int64_t bad = recheck(*engine, in, kept, firstError);
    if (bad > 0) {
        r.correct = false;
        r.checks.push_back("bitwise re-check FAILED: " + std::to_string(bad) +
                           " of " + std::to_string(kept.size()) +
                           " sampled requests, first: " + firstError);
    } else {
        r.checks.push_back("bitwise re-check ok: " +
                           std::to_string(kept.size()) +
                           " sampled requests on fresh contexts");
    }
    if (kept.empty()) {
        r.correct = false;
        r.checks.push_back("bitwise re-check FAILED: no request sampled");
    }

    r.attempted = load.attempted + solo.attempted;
    r.failed = load.failed + load.rejected + solo.failed;
    if (!opts.trace) {
        setEndToEnd(r.metrics, w, load, setups);
    } else {
        setPerLayer(r.metrics, w, load,
                    w.loop == Loop::Stream ? load : solo, stats,
                    setups, *engine, *tracer);
        tracer->writeChromeTrace(opts.outDir + "/" + w.name +
                                 ".trace.json");
    }
    return r;
}

} // namespace mbench
