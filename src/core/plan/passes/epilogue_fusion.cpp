#include "core/plan/op_schema.hpp"
#include "core/plan/passes/pass.hpp"

namespace mesorasi::core::plan {

namespace {

/**
 * Folds an adjacent epilogue step into its producer. Recognized pairs
 * (producer A immediately followed by epilogue B, both single-op):
 *
 *   Matmul(out=X)        + BiasRelu(out=X)            -> one step
 *   AggGatherMax(out=X)  + AggSubCentroid(out=X)      -> one loop
 *   AggGatherMax(out=X)  + AggAddAuxRelu(out=X)       -> one loop
 *   BiasRelu(out=X)      + MlpForward(in=X, layer>0)  -> one step
 *
 * The merged step keeps A's descriptor and carries B's as its tail,
 * and its access sets are re-derived from both (op_schema.hpp folds a
 * tail's reads and writes in after the head's). bakeStep lowers the
 * aggregate pairs to the single per-centroid loop (each output row
 * finished cache-hot) and the block pairs to the ops back to back. B
 * ran immediately after A before the merge, so the per-element
 * operation sequence — and therefore every output bit — is unchanged.
 */
class EpilogueFusion final : public Pass
{
  public:
    const char *name() const override { return "epilogue_fusion"; }

    void
    run(PlanIR &ir, const PassOptions &, PassStat &stat) override
    {
        std::vector<StepIR> out;
        out.reserve(ir.steps.size());
        for (StepIR &s : ir.steps) {
            if (!out.empty() && fusible(out.back(), s)) {
                fuse(out.back(), s, ir.bufs);
                ++stat.fusionsApplied;
            } else {
                out.push_back(std::move(s));
            }
        }
        ir.steps = std::move(out);
    }

  private:
    static bool
    fusible(const StepIR &a, const StepIR &b)
    {
        if (!a.tail.empty() || !b.tail.empty() || a.root)
            return false;
        const OpDesc &pa = a.desc;
        const OpDesc &pb = b.desc;
        if (pa.op == OpKind::Matmul && pb.op == OpKind::BiasRelu)
            return pb.out == pa.out && pb.rows == pa.rows &&
                   pb.cols == pa.cols;
        if (pa.op == OpKind::AggGatherMax &&
            (pb.op == OpKind::AggSubCentroid ||
             pb.op == OpKind::AggAddAuxRelu))
            return pb.out == pa.out && pb.rows == pa.rows &&
                   pb.cols == pa.cols && pb.mod == pa.mod;
        if (pa.op == OpKind::BiasRelu && pb.op == OpKind::MlpForward)
            return pb.in == pa.out && pb.rows == pa.rows &&
                   pb.firstLayer > 0;
        return false;
    }

    static void
    fuse(StepIR &a, StepIR &b, const std::vector<BufferShape> &bufs)
    {
        // "grp.aggregate" + "grp.aggregate.sub" -> "grp.aggregate+sub".
        std::string suffix = b.name;
        size_t dot = suffix.rfind('.');
        if (dot != std::string::npos)
            suffix = suffix.substr(dot + 1);
        a.name += "+" + suffix;
        a.tail.push_back(std::move(b.desc));
        deriveAccess(a, bufs);
        if (!a.note.empty())
            a.note += "; ";
        a.note += "fused +" + suffix;
    }
};

} // namespace

std::unique_ptr<Pass>
makeEpilogueFusion()
{
    return std::make_unique<EpilogueFusion>();
}

} // namespace mesorasi::core::plan
