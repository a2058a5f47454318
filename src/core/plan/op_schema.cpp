#include "core/plan/op_schema.hpp"

#include <algorithm>
#include <iterator>

#include "common/check.hpp"

namespace mesorasi::core::plan {

namespace {

using R = Role;
using X = RowExt;
using C = ColExt;

const Touch kOut{R::Out, X::Rows, C::Cols}; ///< rows x cols of out
const Touch kCent{R::Cent, X::Rows};        ///< rows centroid ids

/** Indexed by OpKind value. Value 7 is retired and never reused, so an
 *  artifact naming it is rejected like any unknown op. */
const OpSchema kSchema[] = {
    {"generic", {}, {}},
    {"mlp", {{R::In, X::Rows, C::MlpIn}}, {{R::Out, X::Rows, C::MlpOut}},
     /*logitsOut=*/true},
    {"matmul", {{R::In, X::Rows, C::WeightIn}},
     {{R::Out, X::Rows, C::WeightOut}}},
    {"bias_relu", {kOut, {R::Bias, X::One, C::Cols, Dt::F32, When::Bias}},
     {kOut}},
    {"gather_max", {{R::In, X::ModIn, C::Cols, Dt::Any}, {R::Nit, X::RowsK}},
     {kOut}},
    {"sub_centroid", {kOut, {R::Aux, X::ModIn, C::Cols, Dt::Any}, kCent},
     {kOut}},
    {"add_aux_relu", {kOut, {R::Aux, X::ModIn, C::Cols, Dt::Any}, kCent},
     {kOut}},
    {}, // 7: retired
    // Draws chain through the stream (step_ir.hpp, kResRng).
    {"rng_draw", {{R::Rng}}, {{R::Cent, X::Rows, C::Ids}, {R::Rng}}},
    {"materialize_cloud", {{R::Cloud, X::Rows, C::Xyz}},
     {{R::Out, X::Rows, C::Xyz}}},
    // FPS reads the coords; Random sorts the RngDraw list.
    {"resolve_sample",
     {{R::In, X::SrcRows, C::Xyz, Dt::F32, When::Fps},
      {R::Cent, X::Rows, C::None, Dt::F32, When::Random}},
     {{R::Cent, X::Sample, C::Ids}}},
    {"search_nit", {{R::In, X::ModIn, C::InCols}, kCent},
     {{R::Nit, X::RowsK, C::Ids}}},
    {"group_diff", {{R::In, X::ModIn, C::InCols}, {R::Nit, X::RowsK}, kCent},
     {{R::Out, X::RowsK, C::GroupCols}}},
    {"reduce_max_rows", {{R::In, X::RowsK, C::Cols}}, {kOut}},
    // A column-slice write also reads the rest of out.
    {"reduce_max_all",
     {{R::In, X::SrcRows, C::Cols},
      {R::Out, X::One, C::SliceCols, Dt::F32, When::Slice}},
     {{R::Out, X::One, C::SliceCols}}},
    {"gather_rows", {{R::In, X::ModIn, C::Cols}, kCent}, {kOut}},
    {"fill_zero", {}, {kOut}},
    {"concat_cols", {{R::Srcs, X::Bcast, C::Own}},
     {{R::Out, X::Rows, C::SumSrcs}}},
    // in = coarse features, aux = coarse coords, in2 = fine coords.
    {"interp_3nn",
     {{R::In, X::SrcRows, C::Cols}, {R::Aux, X::SrcRows, C::Xyz},
      {R::In2, X::Rows, C::Xyz}},
     {kOut}, /*logitsOut=*/false, /*kFromSrc=*/true},
    {"quantize_rows", {{R::In, X::Rows, C::Cols}},
     {{R::Out, X::Rows, C::Cols, Dt::Quant}}},
};
static_assert(std::size(kSchema) ==
                  static_cast<size_t>(OpKind::QuantizeRows) + 1,
              "one schema row per OpKind value");

bool
active(const Touch &t, const OpDesc &d, const std::vector<BufferShape> &bufs)
{
    switch (t.when) {
      case When::Always:
        return true;
      case When::Fps:
        return d.mode == static_cast<int32_t>(SampleMode::Fps);
      case When::Random:
        return d.mode == static_cast<int32_t>(SampleMode::Random);
      case When::Slice:
        return d.out >= 0 && d.out < static_cast<int32_t>(bufs.size()) &&
               d.cols < bufs[static_cast<size_t>(d.out)].cols;
      case When::Bias:
        return d.biasId >= 0;
    }
    return false;
}

bool
contains(const std::vector<int32_t> &v, int32_t id)
{
    return std::find(v.begin(), v.end(), id) != v.end();
}

/** Whether @p r names an IR resource (all roles but Cloud and Bias). */
bool
isResource(Role r)
{
    return r != Role::Cloud && r != Role::Bias;
}

} // namespace

const OpSchema *
opSchema(OpKind op)
{
    auto i = static_cast<size_t>(op);
    if (op == OpKind::Generic || i >= std::size(kSchema) ||
        !kSchema[i].name)
        return nullptr;
    return &kSchema[i];
}

const char *
opKindName(OpKind op)
{
    auto i = static_cast<size_t>(op);
    return i < std::size(kSchema) && kSchema[i].name ? kSchema[i].name
                                                      : "?";
}

int32_t *
operandField(OpDesc &d, Role r)
{
    switch (r) {
      case Role::In: return &d.in;
      case Role::Out: return &d.out;
      case Role::Aux: return &d.aux;
      case Role::In2: return &d.in2;
      default: return nullptr;
    }
}

std::vector<Operand>
operandsOf(const OpDesc &d, const std::vector<BufferShape> &bufs)
{
    const OpSchema *s = opSchema(d.op);
    MESO_CHECK(s, "op " << static_cast<int32_t>(d.op) << " has no schema");
    std::vector<Operand> ops;
    auto add = [&](const std::vector<Touch> &touches, bool write) {
        for (const Touch &t : touches) {
            if (!active(t, d, bufs))
                continue;
            if (t.role == Role::Srcs) {
                for (int32_t id : d.srcs)
                    ops.push_back({&t, write, id});
                continue;
            }
            int32_t id = -1;
            switch (t.role) {
              case Role::In: id = d.in; break;
              case Role::Out: id = d.out; break;
              case Role::Aux: id = d.aux; break;
              case Role::In2: id = d.in2; break;
              case Role::Cent: id = virtCentroids(d.mod); break;
              case Role::Nit: id = virtNit(d.mod); break;
              case Role::Rng: id = kResRng; break;
              default: break; // Cloud, Bias: not resources
            }
            ops.push_back({&t, write, id});
        }
    };
    add(s->reads, false);
    add(s->writes, true);
    return ops;
}

StepAccess
stepAccess(const OpDesc &desc, const std::vector<OpDesc> &tail,
           const std::vector<BufferShape> &bufs)
{
    StepAccess a;
    for (const Operand &o : operandsOf(desc, bufs))
        if (isResource(o.touch->role))
            (o.write ? a.writes : a.reads).push_back(o.id);
    for (const OpDesc &t : tail) {
        std::vector<Operand> ops = operandsOf(t, bufs);
        for (const Operand &o : ops)
            if (!o.write && isResource(o.touch->role) &&
                !contains(a.reads, o.id) && !contains(a.writes, o.id))
                a.reads.push_back(o.id);
        for (const Operand &o : ops)
            if (o.write && isResource(o.touch->role) &&
                !contains(a.writes, o.id))
                a.writes.push_back(o.id);
    }
    a.root = contains(a.writes, kResLogits);
    return a;
}

void
deriveAccess(StepIR &s, const std::vector<BufferShape> &bufs)
{
    StepAccess a = stepAccess(s.desc, s.tail, bufs);
    s.reads = std::move(a.reads);
    s.writes = std::move(a.writes);
    s.root = a.root;
}

} // namespace mesorasi::core::plan
