/**
 * @file
 * The plan optimizer: an ordered pass pipeline over the step IR.
 *
 * PlanCompiler::compile emits a PlanIR (step_ir.hpp), hands it to a
 * PassManager, then bakes the surviving steps and re-runs the
 * ArenaPlanner. Passes rewrite the IR in place; a pass that builds or
 * rewrites a step re-derives its read/write sets with deriveAccess
 * (op_schema.hpp) rather than editing them, so the sets liveness
 * analysis and arena planning trust always match the descriptors.
 *
 * Numerics contract: without a calibration table the pipeline is
 * entirely numerics-preserving — optimized logits are bitwise equal to
 * the unoptimized plan and to the sequential reference executor. The
 * one pass that changes numerics, quantize_pft, is armed only by a
 * non-empty PassOptions::quantCalibration (quant::compileQuantizedPft
 * builds one); without it the pass records ran=false.
 *
 * Kill switch: MESORASI_PLAN_PASSES=0 (or PassOptions::Enable::Off)
 * disables the whole pipeline; the plan then executes exactly the
 * steps the compiler emitted.
 */
#pragma once

#include <limits>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/plan/step_ir.hpp"

namespace mesorasi::hwsim {
struct GpuConfig;
}

namespace mesorasi::core::plan {

/** PFT storage layout choice (the layout-selection pass). */
enum class PftLayout
{
    Auto,          ///< cost-model decision per buffer
    RowMajor,      ///< packed rows (ld == cols); never convert
    AlignedBlocked ///< rows padded to 64-byte lines (ld rounded to 16)
};

/**
 * Per-buffer calibration ranges for the quantize_pft pass: the max |x|
 * observed in each gathered PFT buffer over representative clouds,
 * keyed by PlanIR buffer id (quant::calibratePft produces one against
 * the fp32 engine — buffer ids are stable across recompiles of the
 * same executor/options because passes append buffers, never renumber
 * them). Empty -> the pass does not run.
 */
struct PftCalibration
{
    std::map<int32_t, float> maxAbs;

    bool empty() const { return maxAbs.empty(); }
};

/** Knobs of one PassManager::run invocation. */
struct PassOptions
{
    enum class Enable
    {
        Auto, ///< on unless MESORASI_PLAN_PASSES=0
        On,
        Off
    };
    Enable enable = Enable::Auto;
    /** Override the layout pass's cost-model decision (tests). */
    PftLayout forceLayout = PftLayout::Auto;
    /** Calibration ranges arming the quantize_pft pass. */
    PftCalibration quantCalibration;
    /** Calibrated PFT buffers with at least this many rows store
     *  packed int4 instead of int8 (default: int8 only — int4 is the
     *  opt-in second level for the largest tables). */
    int64_t quantInt4MinRows = std::numeric_limits<int64_t>::max();
};

/** Per-pass statistics recorded by the optimizer pipeline. */
struct PassStat
{
    std::string pass;
    /** False when the pass was skipped (pipeline disabled, or
     *  quantize_pft without a calibration table). */
    bool ran = false;
    int32_t stepsRemoved = 0;
    int32_t fusionsApplied = 0;
    int32_t layoutsChanged = 0;
    int32_t buffersQuantized = 0;
};

/** Whether the pipeline runs under @p opts (env kill switch applied). */
bool passesEnabled(const PassOptions &opts);

/** One IR rewrite. Implementations live in core/plan/passes/. */
class Pass
{
  public:
    virtual ~Pass() = default;

    virtual const char *name() const = 0;

    /** Rewrite @p ir in place, recording what changed in @p stat
     *  (stat.pass is managed by the PassManager; stat.ran arrives true
     *  and a pass with nothing to do may clear it). */
    virtual void run(PlanIR &ir, const PassOptions &opts,
                     PassStat &stat) = 0;
};

// --- The shipped passes ------------------------------------------------

/** Backward liveness from root steps; removes steps none of whose
 *  written resources are ever consumed (detection plans drop the whole
 *  unread encoder tail). */
std::unique_ptr<Pass> makeDeadStepElimination();

/** Folds adjacent epilogue steps (bias/ReLU, centroid subtract/add)
 *  into their producer matmul/gather step, baking the existing fused
 *  kernels. Per-element accumulation order is preserved, so results
 *  stay bitwise identical. */
std::unique_ptr<Pass> makeEpilogueFusion();

/** Chooses row-major vs cache-line-aligned PFT layouts from the hwsim
 *  gather profile. The IR is descriptor-complete and every baked
 *  kernel is stride-aware, so the rewrite is always an in-place change
 *  to the buffer's leading dimension. Padding is never read, so the
 *  pass is numerics-preserving. */
std::unique_ptr<Pass> makePftLayoutSelection();

/** Rewrites each calibrated AggGatherMax input PFT to int8 (or packed
 *  int4) storage: a QuantizeRows step is inserted after the buffer's
 *  producer and every gather/epilogue consumer is repointed at the
 *  quantized copy (the f32 original dies immediately, shrinking the
 *  re-planned arena). Max commutes with the monotone symmetric
 *  quantizer, so the gather-max runs entirely in the integer domain
 *  and dequantizes once per output element. Changes numerics, so it is
 *  armed only by a non-empty PassOptions::quantCalibration. */
std::unique_ptr<Pass> makePftQuantization();

/** Symmetric quantization scale for a buffer with observed range
 *  max |x| (clamp limit 127 for int8, 7 for int4). A constant-zero
 *  buffer has no range; any positive scale encodes it exactly, so it
 *  gets scale 1 (never 0 or NaN). Throws UsageError on a non-finite
 *  range. */
float quantScaleFor(float maxAbs, DType dtype);

// --- Layout cost model (exposed for tests/benchmarks) ------------------

/** Gather traffic profile of one PFT buffer. */
struct GatherProfile
{
    int64_t gatheredRows = 0; ///< rows fetched by gather consumers
    int64_t producedRows = 0; ///< rows written by the producer
    int32_t cols = 0;
};

/** The layout pass's decision function: aligned blocking pays when the
 *  DRAM lines saved across gathered rows outweigh the padding bytes
 *  streamed when producing them (hwsim gather/stream efficiencies). */
PftLayout chooseAlignedLayout(const GatherProfile &profile,
                              const hwsim::GpuConfig &gpu);

// --- The manager -------------------------------------------------------

class PassManager
{
  public:
    /** Append @p pass to the pipeline (runs in registration order). */
    void add(std::unique_ptr<Pass> pass);

    /** The shipped pipeline: DCE, epilogue fusion, PFT layout, PFT
     *  quantization (the last runs only with a calibration table). */
    static PassManager defaultPipeline();

    /**
     * Run the pipeline over @p ir. Returns one PassStat per registered
     * pass, in order; skipped passes (pipeline disabled, or a pass with
     * nothing to do) appear with ran=false.
     */
    std::vector<PassStat> run(PlanIR &ir, const PassOptions &opts) const;

  private:
    std::vector<std::unique_ptr<Pass>> passes_;
};

} // namespace mesorasi::core::plan
