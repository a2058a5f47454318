#include <algorithm>
#include <numeric>

#include "core/plan/passes/pass.hpp"
#include "hwsim/config.hpp"

namespace mesorasi::core::plan {

namespace {

constexpr int32_t kLineBytes = 64; ///< DRAM/cache line
constexpr int32_t kAlignFloats = 16; ///< one line of floats

int32_t
alignedLd(int32_t cols)
{
    return (cols + kAlignFloats - 1) / kAlignFloats * kAlignFloats;
}

} // namespace

PftLayout
chooseAlignedLayout(const GatherProfile &p, const hwsim::GpuConfig &gpu)
{
    int64_t rowBytes = 4LL * p.cols;
    int32_t ld = alignedLd(p.cols);
    if (rowBytes <= 0 || ld == p.cols)
        return PftLayout::RowMajor; // already line-aligned
    // Rows packed back to back start at offsets cycling through the
    // multiples of gcd(rowBytes, line) modulo the line size, so a
    // gathered row touches this many lines on average...
    int64_t g = std::gcd(rowBytes, static_cast<int64_t>(kLineBytes));
    double avgLines =
        static_cast<double>(rowBytes - g) / kLineBytes + 1.0;
    // ...while a line-aligned row always touches the minimum.
    double alignedLines =
        static_cast<double>((rowBytes + kLineBytes - 1) / kLineBytes);
    if (avgLines <= alignedLines)
        return PftLayout::RowMajor;
    // Gathers run at the large-set efficiency (random rows of a PFT
    // that spills L1); the padding cost is the extra bytes streamed
    // when producing the buffer. GB/s is numerically bytes/ns.
    double benefitNs = static_cast<double>(p.gatheredRows) *
                       (avgLines - alignedLines) * kLineBytes /
                       (gpu.dramBandwidthGBs * gpu.gatherEffLarge);
    double padNs = static_cast<double>(p.producedRows) *
                   static_cast<double>(ld * 4 - rowBytes) /
                   (gpu.dramBandwidthGBs * gpu.streamEff);
    return benefitNs > padNs ? PftLayout::AlignedBlocked
                             : PftLayout::RowMajor;
}

namespace {

/**
 * Chooses the PFT storage layout per buffer. Candidates are the
 * buffers random-row gathered by an AggGatherMax or GroupDiff consumer
 * — the reads the paper's Aggregation Unit banks its PFT buffer for.
 * When the hwsim gather profile says line-aligned rows save more DRAM
 * traffic than the padding costs to produce, the buffer's leading
 * dimension is padded to a 64-byte multiple.
 *
 * The rewrite is numerics-preserving: padding floats are never read
 * (every kernel touches exactly cols floats per row) and per-element
 * accumulation order is unchanged.
 *
 * Mechanics: the IR is descriptor-complete and every baked kernel
 * honors each operand's leading dimension (strides freeze from the
 * buffer table at bake time), so the rewrite is always a one-word
 * in-place change to the buffer's ld — no conversion steps, no
 * rewiring.
 */
class PftLayoutSelection final : public Pass
{
  public:
    const char *name() const override { return "pft_layout"; }

    void
    run(PlanIR &ir, const PassOptions &opts, PassStat &stat) override
    {
        if (opts.forceLayout == PftLayout::RowMajor)
            return;
        const hwsim::GpuConfig gpu;

        // Profile gather traffic per buffer.
        std::vector<GatherProfile> prof(ir.bufs.size());
        for (size_t b = 0; b < ir.bufs.size(); ++b) {
            prof[b].producedRows = ir.bufs[b].rows;
            prof[b].cols = ir.bufs[b].cols;
        }
        auto addGather = [&](const OpDesc &d) {
            if ((d.op == OpKind::AggGatherMax ||
                 d.op == OpKind::GroupDiff) &&
                d.in >= 0)
                prof[static_cast<size_t>(d.in)].gatheredRows +=
                    d.rows * d.k;
        };
        for (const StepIR &s : ir.steps) {
            addGather(s.desc);
            for (const OpDesc &d : s.tail)
                addGather(d);
        }

        for (size_t b = 0; b < ir.bufs.size(); ++b) {
            if (prof[b].gatheredRows == 0)
                continue;
            if (ir.bufs[b].ld != ir.bufs[b].cols)
                continue; // already rewritten
            PftLayout want =
                opts.forceLayout == PftLayout::AlignedBlocked
                    ? PftLayout::AlignedBlocked
                    : chooseAlignedLayout(prof[b], gpu);
            if (want != PftLayout::AlignedBlocked)
                continue;
            if (alignedLd(ir.bufs[b].cols) == ir.bufs[b].cols)
                continue;
            ir.bufs[b].ld = alignedLd(ir.bufs[b].cols);
            annotateProducer(ir, static_cast<int32_t>(b),
                             "layout(" +
                                 resourceName(static_cast<int32_t>(b)) +
                                 ")=aligned16");
            ++stat.layoutsChanged;
        }
    }

  private:
    static void
    annotateProducer(PlanIR &ir, int32_t b, const std::string &note)
    {
        for (StepIR &s : ir.steps) {
            auto &w = s.writes;
            if (std::find(w.begin(), w.end(), b) != w.end()) {
                if (!s.note.empty())
                    s.note += "; ";
                s.note += note;
                return;
            }
        }
    }
};

} // namespace

std::unique_ptr<Pass>
makePftLayoutSelection()
{
    return std::make_unique<PftLayoutSelection>();
}

} // namespace mesorasi::core::plan
