#include "core/plan/engine.hpp"

#include <algorithm>
#include <cmath>
#include <iomanip>
#include <limits>
#include <ostream>
#include <sstream>

#include "common/check.hpp"
#include "common/fault_injection.hpp"
#include "core/plan/serialize.hpp"

namespace mesorasi::core::plan {

ExecutionContext::ExecutionContext(const CompiledEngine &engine)
    : engine_(&engine), arena_(engine.stats().arenaFloats),
      logits_(engine.logitsRows(), engine.logitsCols())
{
    // Module state is sized only where some step touches it. Dead-step
    // elimination can drop every step of a module (F-PointNet's
    // encoder), and the artifact loader bounds a module's shapes only
    // through the steps that fill them, so an untouched module's
    // nOut/k are never trusted with an allocation.
    mods_.resize(engine.modules().size());
    for (const StepIR &s : engine.steps()) {
        for (const std::vector<int32_t> *set : {&s.reads, &s.writes}) {
            for (int32_t id : *set) {
                if (id > virtCentroids(0))
                    continue; // arena buffer, logits or the RNG stream
                size_t i = static_cast<size_t>(-id - 3) / 2;
                MESO_CHECK(i < mods_.size(), "step '" << s.name
                                                      << "' names module "
                                                      << i);
                const PlanModuleInfo &info = engine.modules()[i];
                if (id == virtCentroids(i))
                    mods_[i].centroids.resize(
                        static_cast<size_t>(info.global ? 1 : info.io.nOut));
                else if (!info.global)
                    mods_[i].nitFlat.resize(
                        static_cast<size_t>(info.io.nOut) * info.io.k);
            }
        }
    }
}

float *
ExecutionContext::buf(int32_t id)
{
    return arena_.at(engine_->offsetOf(id));
}

void
ExecutionContext::reset()
{
    arena_.zeroFill();
    logits_.fill(0.0f);
    for (PlanModuleCtx &m : mods_) {
        std::fill(m.centroids.begin(), m.centroids.end(), 0);
        std::fill(m.nitFlat.begin(), m.nitFlat.end(), 0);
        // Brute-force backend caches only borrow engine state, but
        // dropping them keeps "fresh context" literal; the next
        // execution rebuilds (and re-warms) them.
        m.cachedBackend.reset();
    }
    cloud_ = nullptr;
    rng_ = Rng(0);
    poisoned_ = false;
    poisonMessage_.clear();
}

namespace {

/** NaN-poison the first writable F32 float of step @p i — the
 *  fault-injection site plan.nan_poison. Prefers the step's first F32
 *  arena write; falls back to logits when the step writes no arena
 *  buffer (e.g. the final logits-producing step). */
void
poisonStepOutput(const CompiledEngine &eng, const StepIR &step,
                 ExecutionContext &ctx)
{
    const float nan = std::numeric_limits<float>::quiet_NaN();
    for (int32_t id : step.writes) {
        if (id >= 0 &&
            id < static_cast<int32_t>(eng.bufferShapes().size()) &&
            eng.bufferShapes()[static_cast<size_t>(id)].dtype ==
                DType::F32) {
            ctx.buf(id)[0] = nan;
            return;
        }
    }
    ctx.logits_.data()[0] = nan;
}

} // namespace

const tensor::Tensor &
CompiledEngine::executeImpl(
    const geom::PointCloud &cloud, uint64_t runSeed,
    ExecutionContext &ctx,
    const std::function<void(int32_t)> *afterStep) const
{
    // Rejections below happen before any step touches context state,
    // so none of them poison the context.
    MESO_REQUIRE_C(StatusCode::PoisonedContext, !ctx.poisoned_,
                   "context is poisoned by a previous failure ("
                       << ctx.poisonMessage_
                       << "); call reset() before reuse");
    MESO_REQUIRE(ctx.engine_ == this,
                 "context was built for a different engine");
    MESO_CHECK(baked_.size() == steps_.size(), "engine was not baked");
    {
        Status s = validate(cloud);
        if (!s.isOk())
            throw UsageError(s);
    }
    ctx.cloud_ = &cloud;
    ctx.rng_ = Rng(runSeed);
    try {
        for (size_t i = 0; i < baked_.size(); ++i) {
            fault::maybeThrow(fault::kPlanStepThrow,
                              StatusCode::ExecFault);
            baked_[i](ctx);
            if (fault::fires(fault::kPlanNanPoison))
                poisonStepOutput(*this, steps_[i], ctx);
            if (afterStep)
                (*afterStep)(static_cast<int32_t>(i));
        }
        // Numeric back door: a plan that ran to completion but emitted
        // non-finite logits failed, it just failed quietly. Surface it
        // as a typed NumericFault (the scan is tiny — rows x cols — and
        // allocation-free).
        const float *lg = ctx.logits_.data();
        const size_t n = static_cast<size_t>(ctx.logits_.rows()) *
                         static_cast<size_t>(ctx.logits_.cols());
        for (size_t i = 0; i < n; ++i) {
            MESO_CHECK_C(StatusCode::NumericFault, std::isfinite(lg[i]),
                         "non-finite logit at flat index "
                             << i << " (" << lg[i] << ")");
        }
    } catch (...) {
        // Mid-plan failure: arena and module state are indeterminate.
        // Poison the context so reuse without reset() is rejected.
        ctx.poisoned_ = true;
        ctx.poisonMessage_ = Status::fromCurrentException().toString();
        throw;
    }
    return ctx.logits_;
}

const tensor::Tensor &
CompiledEngine::execute(const geom::PointCloud &cloud, uint64_t runSeed,
                        ExecutionContext &ctx) const
{
    return executeImpl(cloud, runSeed, ctx, nullptr);
}

const tensor::Tensor &
CompiledEngine::execute(
    const geom::PointCloud &cloud, uint64_t runSeed,
    ExecutionContext &ctx,
    const std::function<void(int32_t)> &afterStep) const
{
    return executeImpl(cloud, runSeed, ctx, &afterStep);
}

Status
CompiledEngine::validate(const geom::PointCloud &cloud) const
{
    Status s = geom::validatePointCloud(cloud);
    if (!s.isOk())
        return s;
    if (static_cast<int32_t>(cloud.size()) != numInputPoints_) {
        std::ostringstream os;
        os << "engine expects " << numInputPoints_ << " points, got "
           << cloud.size();
        return Status(StatusCode::ShapeMismatch, os.str());
    }
    return Status();
}

Status
CompiledEngine::tryExecute(const geom::PointCloud &cloud,
                           uint64_t runSeed, ExecutionContext &ctx) const
{
    try {
        executeImpl(cloud, runSeed, ctx, nullptr);
        return Status();
    } catch (...) {
        return Status::fromCurrentException();
    }
}

namespace {

/** Compact one-token rendering of a descriptor's immediates. */
std::string
describeOp(const OpDesc &d)
{
    std::ostringstream os;
    os << opKindName(d.op);
    switch (d.op) {
      case OpKind::RngDraw:
        os << "(" << d.rows << "/" << d.srcRows << ")";
        break;
      case OpKind::ResolveSample:
        switch (static_cast<SampleMode>(d.mode)) {
          case SampleMode::Global: os << "(global)"; break;
          case SampleMode::All: os << "(all)"; break;
          case SampleMode::Random: os << "(random)"; break;
          case SampleMode::Fps: os << "(fps)"; break;
        }
        break;
      case OpKind::SearchNit:
        os << "(" << (d.knn ? "knn" : "ball") << " k=" << d.k << " ";
        if (!d.custom.empty())
            os << d.custom;
        else
            os << neighbor::backendName(
                static_cast<neighbor::Backend>(d.backend));
        os << ")";
        break;
      case OpKind::MlpForward:
        os << "(#" << d.mlpId;
        if (d.firstLayer > 0)
            os << " from L" << d.firstLayer;
        os << ")";
        break;
      case OpKind::Matmul:
        os << "(w" << d.weightId << ")";
        break;
      case OpKind::BiasRelu:
        os << "(b" << d.biasId << (d.relu ? " relu" : "") << ")";
        break;
      case OpKind::GroupDiff:
        if (d.concat)
            os << "(concat)";
        break;
      case OpKind::ReduceMaxAll:
        if (d.outCol > 0)
            os << "(@col" << d.outCol << ")";
        break;
      case OpKind::Interp3NN:
        os << "(k=" << d.k << " "
           << neighbor::backendName(
                  static_cast<neighbor::Backend>(d.backend))
           << ")";
        break;
      default:
        break;
    }
    return os.str();
}

} // namespace

void
CompiledEngine::dump(std::ostream &os) const
{
    os << "engine: pipeline=" << pipelineName(kind_) << " input="
       << numInputPoints_ << "pts logits=" << logitsRows_ << "x"
       << logitsCols_ << "\n";
    os << "steps: " << steps_.size();
    if (stats_.numStepsPrePass != static_cast<int32_t>(steps_.size()))
        os << " (pre-pass " << stats_.numStepsPrePass << ")";
    os << "\n";

    auto describe = [&](int32_t id) {
        std::string s = resourceName(id);
        if (id >= 0 &&
            id < static_cast<int32_t>(bufferShapes_.size())) {
            const BufferShape &bs =
                bufferShapes_[static_cast<size_t>(id)];
            s += "[" + std::to_string(bs.rows) + "x" +
                 std::to_string(bs.cols);
            if (bs.ld != bs.cols)
                s += "/ld" + std::to_string(bs.ld);
            if (bs.dtype != DType::F32) {
                std::ostringstream q;
                q << ":" << dtypeName(bs.dtype) << " s=" << bs.qscale;
                s += q.str();
            }
            s += "@" + std::to_string(offsets_[static_cast<size_t>(id)]) +
                 "]";
        }
        return s;
    };
    for (size_t i = 0; i < steps_.size(); ++i) {
        const StepIR &st = steps_[i];
        std::string op = describeOp(st.desc);
        for (const OpDesc &t : st.tail)
            op += "+" + std::string(opKindName(t.op));
        os << "  [" << std::setw(3) << i << "] " << std::left
           << std::setw(10) << stageKindName(st.kind) << std::setw(28)
           << st.name << std::setw(26) << op << std::right;
        const char *sep = " w:";
        for (int32_t id : st.writes) {
            os << sep << describe(id);
            sep = ",";
        }
        sep = " r:";
        for (int32_t id : st.reads) {
            os << sep << describe(id);
            sep = ",";
        }
        if (!st.note.empty())
            os << "  // " << st.note;
        os << "\n";
    }

    os << "arena: " << stats_.arenaFloats << " floats ("
       << stats_.arenaFloats * 4 / 1024 << " KiB)";
    if (stats_.arenaFloatsPrePass != stats_.arenaFloats)
        os << ", pre-pass " << stats_.arenaFloatsPrePass << " floats";
    os << ", naive " << stats_.naiveFloats << ", buffers "
       << stats_.numBuffers;
    if (stats_.buffersQuantized > 0)
        os << " (" << stats_.buffersQuantized << " quantized)";
    os << "\n";

    os << "modules:\n";
    for (const PlanModuleInfo &m : modules_) {
        os << "  " << m.name << ": ";
        if (m.global)
            os << "global";
        else if (!m.customBackend.empty())
            os << "backend=" << m.customBackend;
        else
            os << "backend=" << neighbor::backendName(m.backend);
        os << " pipeline=" << pipelineName(m.effective) << "\n";
    }
    for (const PlanModuleInfo &m : stage2_)
        os << "  " << m.name << ": stage2 global\n";

    os << "passes:\n";
    for (const PassStat &p : passStats_) {
        os << "  " << p.pass << ": "
           << (p.ran ? "ran" : "skipped");
        if (p.ran)
            os << " steps_removed=" << p.stepsRemoved
               << " fusions=" << p.fusionsApplied
               << " layouts=" << p.layoutsChanged
               << " buffers_quantized=" << p.buffersQuantized;
        os << "\n";
    }

    os << "artifact: " << serializedEngineSize(*this) << " bytes (v"
       << kEngineFormatVersion << ")\n";
}

std::unique_ptr<ExecutionContext>
CompiledEngine::makeContext() const
{
    return std::make_unique<ExecutionContext>(*this);
}

std::unique_ptr<ExecutionContext>
ContextPool::takeFreeOrReserve(bool &build)
{
    build = false;
    std::lock_guard<std::mutex> lock(mutex_);
    if (!free_.empty()) {
        auto ctx = std::move(free_.back());
        free_.pop_back();
        return ctx;
    }
    if (capacity_ == 0 || created_ < capacity_) {
        // Reserve the slot before building so concurrent acquirers
        // cannot overshoot the bound while makeContext runs unlocked.
        ++created_;
        build = true;
    }
    return nullptr;
}

std::unique_ptr<ExecutionContext>
ContextPool::buildReserved()
{
    try {
        return engine_.makeContext();
    } catch (...) {
        // Construction failed (allocation, injected arena fault): give
        // the reserved slot back so the pool's capacity is not leaked.
        {
            std::lock_guard<std::mutex> lock(mutex_);
            --created_;
        }
        available_.notify_one();
        throw;
    }
}

std::unique_ptr<ExecutionContext>
ContextPool::acquire()
{
    for (;;) {
        bool build = false;
        if (auto ctx = takeFreeOrReserve(build))
            return ctx;
        if (build)
            return buildReserved();
        // Bounded pool fully checked out: wait for a release.
        std::unique_lock<std::mutex> lock(mutex_);
        available_.wait(lock, [&] {
            return !free_.empty() || created_ < capacity_;
        });
    }
}

std::unique_ptr<ExecutionContext>
ContextPool::tryAcquire()
{
    bool build = false;
    if (auto ctx = takeFreeOrReserve(build))
        return ctx;
    if (build)
        return buildReserved();
    return nullptr;
}

int32_t
ContextPool::created() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return created_;
}

int32_t
ContextPool::outstanding() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return created_ - static_cast<int32_t>(free_.size());
}

void
ContextPool::release(std::unique_ptr<ExecutionContext> ctx)
{
    if (!ctx)
        return;
    MESO_REQUIRE(&ctx->engine() == &engine_,
                 "context returned to the wrong pool");
    // Never recycle a poisoned context as-is: the next acquirer would
    // be rejected through no fault of its own. Reset restores the
    // serviceable (fresh) state while keeping warmed capacities.
    if (ctx->poisoned())
        ctx->reset();
    {
        std::lock_guard<std::mutex> lock(mutex_);
        free_.push_back(std::move(ctx));
    }
    available_.notify_one();
}

} // namespace mesorasi::core::plan
