/**
 * @file
 * The op schema: one row per OpKind declaring the op's name, the
 * operands it reads and writes (in order), which of them may hold a
 * quantized buffer, and how many rows and columns of each it touches —
 * the software form of the paper's configuration-time NIT/PFT sizing
 * (Sec. VI): which buffer each N/A/F op touches, and how much of it.
 *
 * What used to be written out per op derives from these rows: a step's
 * reads/writes/root (deriveAccess, called by emission, epilogue fusion
 * and quantize_pft), quantize_pft's reader check and repointing
 * (Dt::Any operands), and the artifact loader's validation
 * (serialize.cpp: operand ids, touched extents, dtype rules, stored
 * access sets). Lowering (engine_bake.cpp) stays hand-written: the
 * schema says what an op touches, the bake says how.
 */
#pragma once

#include <cstdint>
#include <vector>

#include "core/plan/step_ir.hpp"

namespace mesorasi::core::plan {

/** An operand a schema row names. In..Srcs are descriptor fields
 *  holding buffer ids (Out may be kResLogits where the row allows it);
 *  Cent/Nit are module @p mod's centroid list and flat NIT; Rng is the
 *  sampler stream. Cloud (the input points) and Bias (the BiasRelu bias
 *  row) have extents but are not IR resources. */
enum class Role : uint8_t
{ In, Out, Aux, In2, Srcs, Cent, Nit, Rng, Cloud, Bias };

/** Rows an op touches (for Cent/Nit: entries it reads or writes). */
enum class RowExt : uint8_t
{
    None,
    Rows,    ///< rows
    RowsK,   ///< rows * k
    SrcRows, ///< srcRows
    ModIn,   ///< the module's input count: rows its ids address
    One,
    Sample,  ///< ResolveSample's list: 1 (Global), srcRows (All), rows
    Bcast,   ///< ConcatCols source: rows, or its one broadcast row
};

/** Columns an op touches (for Cent/Nit writes: the ids' range). */
enum class ColExt : uint8_t
{
    None,
    Cols,      ///< cols
    InCols,    ///< inCols
    GroupCols, ///< concat ? 2 * inCols : inCols
    SliceCols, ///< outCol + cols
    Xyz,       ///< 3
    MlpIn,     ///< input width of MLP mlpId's layer firstLayer
    MlpOut,    ///< output width of MLP mlpId
    WeightIn,  ///< rows of weight weightId
    WeightOut, ///< cols of weight weightId
    Own,       ///< a ConcatCols source's own width
    SumSrcs,   ///< the summed width of the ConcatCols sources
    Ids,       ///< ids below srcRows
};

/** Element types an operand accepts: f32 only, either (bake dispatches
 *  on the dtype), or quantized only. */
enum class Dt : uint8_t { F32, Any, Quant };

/** When a touch applies: always, in one ResolveSample mode, when
 *  ReduceMaxAll writes a column slice of out, or when a bias is set. */
enum class When : uint8_t { Always, Fps, Random, Slice, Bias };

/** One operand of a schema row and the extent it is touched over. */
struct Touch
{
    Role role;
    RowExt rows = RowExt::None;
    ColExt cols = ColExt::None;
    Dt dtype = Dt::F32;
    When when = When::Always;
};

/** One op's declaration. */
struct OpSchema
{
    const char *name = nullptr;
    std::vector<Touch> reads;  ///< in read-set order
    std::vector<Touch> writes; ///< in write-set order
    bool logitsOut = false;    ///< Out may be kResLogits
    bool kFromSrc = false;     ///< k neighbours come from srcRows points
};

/** The row of @p op; nullptr for Generic, the retired value 7 and any
 *  value outside the enum. */
const OpSchema *opSchema(OpKind op);

/** One active operand of a descriptor: its touch, whether it is a
 *  write, and its resource id (-1 for Cloud and Bias). */
struct Operand
{
    const Touch *touch;
    bool write;
    int32_t id;
};

/** The active operands of @p d in schema order, reads first; Srcs
 *  expands to one operand per source. @p d must name an op with a row
 *  and, when it touches Cent/Nit, a valid module; @p bufs decides the
 *  ReduceMaxAll slice read. */
std::vector<Operand> operandsOf(const OpDesc &d,
                                const std::vector<BufferShape> &bufs);

/** The field of @p d holding scalar buffer role @p r (In, Out, Aux,
 *  In2), or nullptr for any other role. */
int32_t *operandField(OpDesc &d, Role r);

/** A step's resource sets, derived from its descriptors. */
struct StepAccess
{
    std::vector<int32_t> reads;
    std::vector<int32_t> writes;
    bool root = false; ///< writes kResLogits
};

/** The access sets of a step with head @p desc and fused @p tail: the
 *  head's operands in schema order, then each tail op's reads not yet
 *  read or written and its writes not yet written. */
StepAccess stepAccess(const OpDesc &desc, const std::vector<OpDesc> &tail,
                      const std::vector<BufferShape> &bufs);

/** Set @p s's reads/writes/root to stepAccess(s.desc, s.tail, bufs). */
void deriveAccess(StepIR &s, const std::vector<BufferShape> &bufs);

} // namespace mesorasi::core::plan
