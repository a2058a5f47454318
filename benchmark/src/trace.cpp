#include "trace.hpp"

#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <stdexcept>

#include "json.hpp"

namespace mbench {

namespace plan = mesorasi::core::plan;
using mesorasi::core::StageKind;
using plan::OpKind;

namespace {

const char *
phaseOf(StageKind kind)
{
    switch (kind) {
      case StageKind::Sample:
      case StageKind::Search:
        return "N";
      case StageKind::Aggregate:
        return "A";
      case StageKind::Feature:
        return "F";
      case StageKind::Epilogue:
        break;
    }
    return "other";
}

const char *
layerOf(OpKind op)
{
    switch (op) {
      case OpKind::SearchNit:
      case OpKind::Interp3NN:
        return "neighbor";
      case OpKind::MlpForward:
      case OpKind::Matmul:
      case OpKind::BiasRelu:
        return "nn";
      case OpKind::RngDraw:
      case OpKind::ResolveSample:
      case OpKind::MaterializeCloud:
        return "geom";
      default:
        return "tensor";
    }
}

/** Multiply-accumulates of one nn-layer op, from its descriptor. */
double
macsOf(const plan::OpDesc &d, const plan::CompiledEngine &eng)
{
    const double rows = static_cast<double>(d.rows);
    if (d.op == OpKind::MlpForward) {
        const mesorasi::nn::Mlp &mlp = eng.mlps().at(d.mlpId);
        double macs = 0.0;
        for (size_t l = static_cast<size_t>(d.firstLayer);
             l < mlp.numLayers(); ++l)
            macs += rows * mlp.layer(l).inDim() * mlp.layer(l).outDim();
        return macs;
    }
    if (d.op == OpKind::Matmul) {
        const mesorasi::tensor::Tensor &w = eng.weights().at(d.weightId);
        return rows * w.rows() * w.cols();
    }
    return 0.0;
}

/** Bytes a tensor-layer op gathers or reads (fp32 rows). */
double
bytesOf(const plan::OpDesc &d)
{
    const double row = 4.0 * d.cols;
    switch (d.op) {
      case OpKind::AggGatherMax:
      case OpKind::ReduceMaxRows:
      case OpKind::GroupDiff:
        return static_cast<double>(d.rows) * d.k * row;
      case OpKind::ReduceMaxAll:
        return static_cast<double>(d.srcRows) * row;
      default:
        return static_cast<double>(d.rows) * row;
    }
}

/** Nanoseconds as trace-event microseconds. */
std::string
micros(int64_t ns)
{
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.3f", static_cast<double>(ns) / 1e3);
    return buf;
}

} // namespace

StepTracer::StepTracer(const plan::CompiledEngine &engine,
                       size_t spanCapacity)
    : engine_(engine), epoch_(Clock::now())
{
    for (const plan::StepIR &s : engine.steps()) {
        StepInfo info;
        info.name = s.name;
        info.module = s.name.substr(0, s.name.find('.'));
        info.op = plan::opKindName(s.desc.op);
        info.phase = phaseOf(s.kind);
        info.layer = layerOf(s.desc.op);
        std::vector<const plan::OpDesc *> descs{&s.desc};
        for (const plan::OpDesc &t : s.tail)
            descs.push_back(&t);
        for (const plan::OpDesc *d : descs) {
            const char *layer = layerOf(d->op);
            info.macs += macsOf(*d, engine);
            if (std::strcmp(layer, "tensor") == 0)
                info.bytes += bytesOf(*d);
            if (std::strcmp(layer, "neighbor") == 0) {
                info.queries += static_cast<double>(d->rows);
                info.distEvals +=
                    static_cast<double>(d->rows) * d->srcRows;
            }
        }
        steps_.push_back(std::move(info));
    }
    stepNs_.assign(steps_.size(), 0);
    spans_.reserve(spanCapacity);
    afterStep_ = [this](int32_t step) {
        Clock::time_point now = Clock::now();
        int64_t dur = std::chrono::duration_cast<std::chrono::nanoseconds>(
                          now - last_)
                          .count();
        stepNs_[static_cast<size_t>(step)] += dur;
        record(sinceEpoch(last_), dur, step);
        last_ = now;
    };
}

int64_t
StepTracer::sinceEpoch(Clock::time_point t) const
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(t - epoch_)
        .count();
}

void
StepTracer::record(int64_t startNs, int64_t durNs, int32_t step)
{
    if (spans_.size() == spans_.capacity()) {
        ++dropped_;
        return;
    }
    spans_.push_back(
        Span{startNs, durNs, static_cast<int32_t>(requests_), step});
}

double
StepTracer::execute(const mesorasi::geom::PointCloud &cloud, uint64_t seed,
                    plan::ExecutionContext &ctx)
{
    const Clock::time_point start = Clock::now();
    last_ = start;
    engine_.execute(cloud, seed, ctx, afterStep_);
    const Clock::time_point end = Clock::now();
    const int64_t wall =
        std::chrono::duration_cast<std::chrono::nanoseconds>(end - start)
            .count();
    record(sinceEpoch(start), wall, -1);
    wallNs_ += wall;
    ++requests_;
    return static_cast<double>(wall) / 1e6;
}

void
StepTracer::rollup(Metrics &m) const
{
    if (requests_ == 0)
        throw std::runtime_error("no traced requests to roll up");
    const double n = static_cast<double>(requests_);
    std::map<std::string, double> phaseMs{
        {"N", 0.0}, {"A", 0.0}, {"F", 0.0}, {"other", 0.0}};
    std::map<std::string, double> layerMs{
        {"neighbor", 0.0}, {"nn", 0.0}, {"tensor", 0.0}, {"geom", 0.0}};
    std::map<std::string, double> opMs, moduleMs;
    double stepsMs = 0.0, macs = 0.0, bytes = 0.0, queries = 0.0,
           distEvals = 0.0;
    for (size_t i = 0; i < steps_.size(); ++i) {
        const StepInfo &s = steps_[i];
        const double ms = static_cast<double>(stepNs_[i]) / n / 1e6;
        stepsMs += ms;
        phaseMs[s.phase] += ms;
        layerMs[s.layer] += ms;
        opMs[s.op] += ms;
        moduleMs[s.module] += ms;
        macs += s.macs;
        bytes += s.bytes;
        queries += s.queries;
        distEvals += s.distEvals;
    }
    const int64_t k = requests_;
    for (const auto &[phase, ms] : phaseMs) {
        m.add("phase." + phase + "_ms", ms, "ms", k);
        m.add("phase." + phase + "_share", stepsMs > 0 ? ms / stepsMs : 0.0,
              "fraction", k);
    }
    const double wallMs = static_cast<double>(wallNs_) / n / 1e6;
    m.add("phase.unaccounted_frac", (wallMs - stepsMs) / wallMs, "fraction",
          k);

    const double searchMs = layerMs["neighbor"];
    m.add("neighbor.search_ms", searchMs, "ms", k);
    m.add("neighbor.queries", queries, "count");
    m.add("neighbor.ns_per_query",
          queries > 0 ? searchMs * 1e6 / queries : 0.0, "ns", k);
    m.add("neighbor.bf_dist_evals", distEvals, "count");

    const double mlpMs = layerMs["nn"];
    m.add("nn.mlp_ms", mlpMs, "ms", k);
    m.add("nn.macs", macs, "count");
    m.add("nn.gflops", mlpMs > 0 ? 2.0 * macs / (mlpMs * 1e6) : 0.0,
          "GFLOP/s", k);

    const double aggMs = layerMs["tensor"];
    m.add("agg.ms", aggMs, "ms", k);
    m.add("agg.gathered_bytes", bytes, "bytes");
    m.add("agg.gbps", aggMs > 0 ? bytes / (aggMs * 1e6) : 0.0, "GB/s", k);

    m.add("geom.sample_ms", layerMs["geom"], "ms", k);

    for (const auto &[op, ms] : opMs)
        m.add("op." + op + "_ms", ms, "ms", k);
    for (const auto &[module, ms] : moduleMs)
        m.add("module." + module + "_ms", ms, "ms", k);
    m.add("trace.spans_dropped", static_cast<double>(dropped_), "count");
}

void
StepTracer::writeChromeTrace(const std::string &path) const
{
    std::ofstream out(path);
    if (!out)
        throw std::runtime_error("cannot write " + path);
    out << "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [";
    for (size_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        const bool request = s.step < 0;
        const StepInfo *info =
            request ? nullptr : &steps_[static_cast<size_t>(s.step)];
        out << (i ? ",\n" : "\n") << "{\"name\": "
            << json::quote(request ? "execute" : info->name)
            << ", \"cat\": \"" << (request ? "request" : info->phase)
            << "\", \"ph\": \"X\", \"pid\": 1, \"tid\": 1, \"ts\": "
            << micros(s.startNs) << ", \"dur\": " << micros(s.durNs)
            << ", \"args\": {\"request\": " << s.request;
        if (!request)
            out << ", \"op\": \"" << info->op << "\", \"layer\": \""
                << info->layer << "\", \"parent\": \"execute\"";
        out << "}}";
    }
    out << "\n]}\n";
    if (!out)
        throw std::runtime_error("failed writing " + path);
}

} // namespace mbench
