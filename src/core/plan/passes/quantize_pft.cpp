#include <algorithm>
#include <cmath>

#include "common/check.hpp"
#include "core/plan/op_schema.hpp"
#include "core/plan/passes/pass.hpp"

namespace mesorasi::core::plan {

float
quantScaleFor(float maxAbs, DType dtype)
{
    MESO_REQUIRE(std::isfinite(maxAbs) && maxAbs >= 0.0f,
                 "calibration range must be finite and non-negative, got "
                     << maxAbs);
    float lim = dtype == DType::I4 ? 7.0f : 127.0f;
    return maxAbs > 0.0f ? maxAbs / lim : 1.0f;
}

namespace {

/**
 * Rewrites each calibrated AggGatherMax input PFT to quantized storage.
 *
 * For every buffer X in the calibration table that is (a) f32, (b)
 * written by exactly one step, and (c) only ever read through operands
 * the op schema marks Dt::Any (a gather-max input, an aggregate-
 * epilogue aux), the pass:
 *
 *   - appends a quantized buffer Xq (int8, or packed int4 when X has at
 *     least PassOptions::quantInt4MinRows rows) with the symmetric
 *     scale quantScaleFor(maxAbs, dtype),
 *   - inserts a QuantizeRows step X -> Xq right after X's producer,
 *   - repoints every one of those operands at Xq and re-derives the
 *     touched steps' access sets.
 *
 * X's last reader is then the quantize step itself, so the re-planned
 * arena overlaps X with downstream buffers and the resident footprint
 * shrinks by Xq's 4x/8x packing. Buffers are appended, never
 * renumbered, so calibration ids recorded against the fp32 engine stay
 * valid across the recompile. Without a calibration table the pass
 * does nothing and records ran=false.
 */
class PftQuantization final : public Pass
{
  public:
    const char *name() const override { return "quantize_pft"; }

    void
    run(PlanIR &ir, const PassOptions &opts, PassStat &stat) override
    {
        if (opts.quantCalibration.empty()) {
            stat.ran = false;
            return;
        }
        // Quantize steps to splice in after their producer, keyed by
        // the producer's index in the unmodified step sequence.
        std::vector<std::vector<StepIR>> insertAfter(ir.steps.size());
        for (const auto &[buf, maxAbs] : opts.quantCalibration.maxAbs) {
            if (buf < 0 || buf >= static_cast<int32_t>(ir.bufs.size()))
                continue;
            if (ir.bufs[buf].dtype != DType::F32)
                continue;
            int32_t writer = soleWriter(ir, buf);
            if (writer < 0 || !readersQuantizable(ir, buf))
                continue;

            int64_t rows = ir.bufs[buf].rows;
            int32_t cols = ir.bufs[buf].cols;
            DType dt = rows >= opts.quantInt4MinRows ? DType::I4
                                                     : DType::I8;
            int32_t ldq = cols;
            if (dt == DType::I4 && (ldq & 1))
                ++ldq; // whole number of packed bytes per row
            int32_t xq = static_cast<int32_t>(ir.bufs.size());
            ir.bufs.push_back(BufferShape{
                rows, cols, ldq, dt, quantScaleFor(maxAbs, dt), 0});

            StepIR q;
            q.kind = StageKind::Feature;
            q.name = ir.steps[writer].name + ".quant";
            q.desc.op = OpKind::QuantizeRows;
            q.desc.in = buf;
            q.desc.out = xq;
            q.desc.rows = rows;
            q.desc.cols = cols;
            deriveAccess(q, ir.bufs);
            q.note = std::string(dtypeName(dt)) + " pft, scale " +
                     std::to_string(ir.bufs[xq].qscale);
            insertAfter[writer].push_back(std::move(q));

            repointReaders(ir, buf, xq);
            ++stat.buffersQuantized;
        }
        if (stat.buffersQuantized == 0)
            return;
        std::vector<StepIR> out;
        out.reserve(ir.steps.size() + stat.buffersQuantized);
        for (size_t i = 0; i < ir.steps.size(); ++i) {
            out.push_back(std::move(ir.steps[i]));
            for (StepIR &q : insertAfter[i])
                out.push_back(std::move(q));
        }
        ir.steps = std::move(out);
    }

  private:
    /** Index of the single step writing @p buf, or -1 when the buffer
     *  has zero or several writers. */
    static int32_t
    soleWriter(const PlanIR &ir, int32_t buf)
    {
        int32_t writer = -1;
        for (size_t i = 0; i < ir.steps.size(); ++i) {
            const StepIR &s = ir.steps[i];
            if (std::find(s.writes.begin(), s.writes.end(), buf) ==
                s.writes.end())
                continue;
            if (writer >= 0)
                return -1;
            writer = static_cast<int32_t>(i);
        }
        return writer;
    }

    /** Whether every read of @p buf is through an operand the schema
     *  lets hold a quantized buffer. In-place reads of an op's own out
     *  are skipped: such an op also writes @p buf, so it is the sole
     *  writer and runs before the quantize step. */
    static bool
    readersQuantizable(const PlanIR &ir, int32_t buf)
    {
        auto ok = [&](const OpDesc &d) {
            for (const Operand &o : operandsOf(d, ir.bufs))
                if (!o.write && o.id == buf &&
                    o.touch->role != Role::Out &&
                    o.touch->dtype != Dt::Any)
                    return false;
            return true;
        };
        for (const StepIR &s : ir.steps) {
            if (!ok(s.desc))
                return false;
            for (const OpDesc &t : s.tail)
                if (!ok(t))
                    return false;
        }
        return true;
    }

    /** Repoint every Dt::Any read of @p buf at @p xq and re-derive the
     *  access sets of the steps that changed (the producer still
     *  writes the f32 buffer the new QuantizeRows step packs). */
    static void
    repointReaders(PlanIR &ir, int32_t buf, int32_t xq)
    {
        for (StepIR &s : ir.steps) {
            bool hit = false;
            auto repoint = [&](OpDesc &d) {
                for (const Touch &t : opSchema(d.op)->reads) {
                    int32_t *f = operandField(d, t.role);
                    if (t.dtype == Dt::Any && f && *f == buf) {
                        *f = xq;
                        hit = true;
                    }
                }
            };
            repoint(s.desc);
            for (OpDesc &t : s.tail)
                repoint(t);
            if (hit)
                deriveAccess(s, ir.bufs);
        }
    }
};

} // namespace

std::unique_ptr<Pass>
makePftQuantization()
{
    return std::make_unique<PftQuantization>();
}

} // namespace mesorasi::core::plan
