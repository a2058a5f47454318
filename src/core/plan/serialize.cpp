#include "core/plan/serialize.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <fstream>
#include <iterator>
#include <utility>
#include <variant>

#include "common/check.hpp"
#include "common/fault_injection.hpp"
#include "core/plan/op_schema.hpp"

/** Every corrupt-input rejection in this file throws the same typed
 *  code and message prefix; a local alias keeps the call sites
 *  readable. */
#define MESO_REQUIRE_ARTIFACT(cond, ...)                                  \
    MESO_REQUIRE_C(::mesorasi::StatusCode::CorruptArtifact, cond,         \
                   "corrupt engine artifact: " << __VA_ARGS__)

namespace mesorasi::core::plan {

namespace {

constexpr uint32_t kMagic = 0x4F53454Du; // "MESO" little-endian

/**
 * Optional trailing quantization section ("QNT1" little-endian).
 * Engines with only f32 buffers write nothing here, so their artifacts
 * stay byte-identical to the pre-quantization v1 format — and a
 * pre-quantization reader's "trailing bytes" check doubles as its
 * (correct) rejection of artifacts it cannot execute. Layout:
 * u32 magic, u32 entry count, entries {u32 bufId, i32 dtype,
 * f32 qscale, i32 qzero}, u32 pass-stat count, per-pass i32
 * buffersQuantized.
 */
constexpr uint32_t kQuantMagic = 0x31544E51u;

/** One OpDesc field. Its tag is its 1-based position in kDescFields;
 *  tag 0 ends a descriptor. */
using DescField =
    std::variant<OpKind OpDesc::*, int32_t OpDesc::*, int64_t OpDesc::*,
                 float OpDesc::*, bool OpDesc::*, std::string OpDesc::*,
                 std::vector<int32_t> OpDesc::*>;

// OpDesc fields in tag order. Append-only: a tag's position, type and
// meaning are frozen forever; new fields get new tags. A field equal to
// its OpDesc{} default is omitted.
const DescField kDescFields[] = {
    &OpDesc::op,       &OpDesc::in,         &OpDesc::out,
    &OpDesc::aux,      &OpDesc::in2,        &OpDesc::rows,
    &OpDesc::cols,     &OpDesc::mod,        &OpDesc::k,
    &OpDesc::srcRows,  &OpDesc::inCols,     &OpDesc::outCol,
    &OpDesc::mlpId,    &OpDesc::weightId,   &OpDesc::biasId,
    &OpDesc::firstLayer, &OpDesc::mode,     &OpDesc::backend,
    &OpDesc::radius,   &OpDesc::relu,       &OpDesc::knn,
    &OpDesc::concat,   &OpDesc::custom,     &OpDesc::srcs,
};
constexpr uint8_t kTagEnd = 0;
const OpDesc kDescDefaults{};

class Writer
{
  public:
    void reserve(size_t n) { bytes_.reserve(n); }

    void u8(uint8_t v) { bytes_.push_back(v); }

    void
    u32(uint32_t v)
    {
        raw(&v, sizeof v);
    }

    void i32(int32_t v) { raw(&v, sizeof v); }
    void i64(int64_t v) { raw(&v, sizeof v); }
    void f32(float v) { raw(&v, sizeof v); }

    void
    str(const std::string &s)
    {
        u32(static_cast<uint32_t>(s.size()));
        raw(s.data(), s.size());
    }

    void
    vecI32(const std::vector<int32_t> &v)
    {
        u32(static_cast<uint32_t>(v.size()));
        raw(v.data(), v.size() * sizeof(int32_t));
    }

    void
    tensor(const tensor::Tensor &t)
    {
        i32(t.rows());
        i32(t.cols());
        raw(t.data(), static_cast<size_t>(t.numel()) * sizeof(float));
    }

    /** A panel-packed matrix, written row-major: the same bytes
     *  tensor() writes for the matrix it packs. Each row is gathered
     *  from its panels into one buffer and appended at once. */
    void
    panels(const tensor::PanelMatrix &m)
    {
        i32(m.rows());
        i32(m.cols());
        tensor::MatrixView v = m.view();
        std::vector<float> row(static_cast<size_t>(v.cols));
        for (int32_t k = 0; k < v.rows; ++k) {
            for (int32_t j0 = 0; j0 < v.cols; j0 += tensor::kPanelWidth)
                std::copy_n(v.panel(j0 / tensor::kPanelWidth) +
                                k * v.kStride,
                            std::min(tensor::kPanelWidth, v.cols - j0),
                            row.begin() + j0);
            raw(row.data(), row.size() * sizeof(float));
        }
    }

    // Descriptor field encodings, one per DescField type.
    void put(OpKind v) { i32(static_cast<int32_t>(v)); }
    void put(int32_t v) { i32(v); }
    void put(int64_t v) { i64(v); }
    void put(float v) { f32(v); }
    void put(bool v) { u8(v ? 1 : 0); }
    void put(const std::string &v) { str(v); }
    void put(const std::vector<int32_t> &v) { vecI32(v); }

    std::vector<uint8_t> take() { return std::move(bytes_); }

  private:
    void
    raw(const void *p, size_t n)
    {
        if (n == 0) // empty vectors hand over a null data()
            return;
        const auto *b = static_cast<const uint8_t *>(p);
        bytes_.insert(bytes_.end(), b, b + n);
    }

    std::vector<uint8_t> bytes_;
};

/** Bounds-checked little-endian reader. Every primitive checks the
 *  remaining byte count, so truncated or length-corrupted artifacts
 *  fail with UsageError instead of reading out of bounds. */
class Reader
{
  public:
    Reader(const uint8_t *data, size_t size) : data_(data), size_(size) {}

    uint8_t
    u8()
    {
        need(1, "byte");
        return data_[pos_++];
    }

    uint32_t
    u32()
    {
        uint32_t v;
        raw(&v, sizeof v, "u32");
        return v;
    }

    int32_t
    i32()
    {
        int32_t v;
        raw(&v, sizeof v, "i32");
        return v;
    }

    int64_t
    i64()
    {
        int64_t v;
        raw(&v, sizeof v, "i64");
        return v;
    }

    float
    f32()
    {
        float v;
        raw(&v, sizeof v, "f32");
        return v;
    }

    std::string
    str()
    {
        uint32_t n = u32();
        need(n, "string body");
        std::string s(reinterpret_cast<const char *>(data_ + pos_), n);
        pos_ += n;
        return s;
    }

    /** Element count for a vector of @p elemBytes-sized elements; the
     *  count is validated against the remaining bytes before any
     *  allocation, so a corrupt count cannot trigger a huge resize. */
    uint32_t
    count(size_t elemBytes, const char *what)
    {
        uint32_t n = u32();
        MESO_REQUIRE_ARTIFACT(
            static_cast<uint64_t>(n) * elemBytes <= size_ - pos_,
            what << " count " << n << " exceeds remaining " << (size_ - pos_)
                << " bytes");
        return n;
    }

    std::vector<int32_t>
    vecI32(const char *what)
    {
        uint32_t n = count(sizeof(int32_t), what);
        std::vector<int32_t> v(n);
        raw(v.data(), n * sizeof(int32_t), what);
        return v;
    }

    tensor::Tensor
    tensor(const char *what)
    {
        auto [rows, cols] = matrixShape(what);
        std::vector<float> data(static_cast<size_t>(rows) * cols);
        raw(data.data(), data.size() * sizeof(float), what);
        return tensor::Tensor(rows, cols, std::move(data));
    }

    /** A row-major matrix decoded straight into matmul panels, with no
     *  row-major copy in between. */
    tensor::PanelMatrix
    panels(const char *what)
    {
        auto [rows, cols] = matrixShape(what);
        tensor::PanelMatrix m(rows, cols, data_ + pos_);
        pos_ += static_cast<size_t>(rows) * cols * sizeof(float);
        return m;
    }

    void get(OpKind &v) { v = static_cast<OpKind>(i32()); }
    void get(int32_t &v) { v = i32(); }
    void get(int64_t &v) { v = i64(); }
    void get(float &v) { v = f32(); }
    void get(bool &v) { v = u8() != 0; }
    void get(std::string &v) { v = str(); }
    void get(std::vector<int32_t> &v) { v = vecI32("descriptor list"); }

    bool done() const { return pos_ == size_; }
    size_t pos() const { return pos_; }

  private:
    /** A matrix header (rows, cols), checked against the bytes left
     *  for its row-major body before anything is allocated. */
    std::pair<int32_t, int32_t>
    matrixShape(const char *what)
    {
        int32_t rows = i32();
        int32_t cols = i32();
        MESO_REQUIRE_ARTIFACT(rows >= 0 && cols >= 0,
                              what << " shape " << rows << "x" << cols);
        uint64_t n = static_cast<uint64_t>(rows) * cols;
        MESO_REQUIRE_ARTIFACT(n * sizeof(float) <= size_ - pos_,
                              what << " data " << rows << "x" << cols
                                  << " exceeds remaining " << (size_ - pos_)
                                  << " bytes");
        return {rows, cols};
    }

    void
    need(size_t n, const char *what)
    {
        MESO_REQUIRE_ARTIFACT(n <= size_ - pos_,
                              "truncated reading " << what << " at byte "
                                  << pos_);
    }

    void
    raw(void *p, size_t n, const char *what)
    {
        need(n, what);
        if (n > 0) // empty vectors hand over a null data()
            std::memcpy(p, data_ + pos_, n);
        pos_ += n;
    }

    const uint8_t *data_;
    size_t size_;
    size_t pos_ = 0;
};

void
writeDesc(Writer &w, const OpDesc &d)
{
    for (size_t i = 0; i < std::size(kDescFields); ++i)
        std::visit(
            [&](auto field) {
                if (d.*field == kDescDefaults.*field)
                    return;
                w.u8(static_cast<uint8_t>(i + 1));
                w.put(d.*field);
            },
            kDescFields[i]);
    w.u8(kTagEnd);
}

OpDesc
readDesc(Reader &r)
{
    OpDesc d;
    for (uint8_t tag = r.u8(); tag != kTagEnd; tag = r.u8()) {
        MESO_REQUIRE_ARTIFACT(tag <= std::size(kDescFields),
                              "unknown descriptor tag " << static_cast<int>(tag)
                                  << " at byte " << r.pos());
        std::visit([&](auto field) { r.get(d.*field); },
                   kDescFields[tag - 1]);
    }
    return d;
}

void
writeModuleInfo(Writer &w, const PlanModuleInfo &m)
{
    w.str(m.name);
    w.str(m.io.name);
    w.i32(m.io.nIn);
    w.i32(m.io.mIn);
    w.i32(m.io.nOut);
    w.i32(m.io.mOut);
    w.i32(m.io.k);
    w.i32(m.io.searchDim);
    w.vecI32(m.io.mlpWidths);
    w.i32(m.io.mlpInDim);
    w.i32(static_cast<int32_t>(m.effective));
    w.u8(m.global ? 1 : 0);
    w.i32(static_cast<int32_t>(m.backend));
    w.str(m.customBackend);
}

PlanModuleInfo
readModuleInfo(Reader &r)
{
    PlanModuleInfo m;
    m.name = r.str();
    m.io.name = r.str();
    m.io.nIn = r.i32();
    m.io.mIn = r.i32();
    m.io.nOut = r.i32();
    m.io.mOut = r.i32();
    m.io.k = r.i32();
    m.io.searchDim = r.i32();
    m.io.mlpWidths = r.vecI32("module mlp widths");
    m.io.mlpInDim = r.i32();
    int32_t eff = r.i32();
    MESO_REQUIRE_ARTIFACT(
        eff >= 0 && eff <= static_cast<int32_t>(PipelineKind::LtdDelayed),
        "bad pipeline kind " << eff);
    m.effective = static_cast<PipelineKind>(eff);
    m.global = r.u8() != 0;
    int32_t b = r.i32();
    MESO_REQUIRE_ARTIFACT(
        b >= 0 && b <= static_cast<int32_t>(neighbor::Backend::KdTree),
        "bad backend " << b);
    m.backend = static_cast<neighbor::Backend>(b);
    m.customBackend = r.str();
    MESO_REQUIRE_ARTIFACT(m.io.nIn >= 0 && m.io.nOut >= 0 && m.io.k >= 0 &&
                              m.io.mIn >= 0 && m.io.mOut >= 0,
                          "negative module shape in '" << m.name << "'");
    return m;
}

} // namespace

/** Private-access helper (friended by CompiledEngine): encodes and
 *  decodes the artifact, validates decoded structure before bake. */
class EngineSerializer
{
  public:
    static std::vector<uint8_t>
    save(const CompiledEngine &e)
    {
        Writer w;
        // The parameter tables dominate the artifact; reserving their
        // size upfront keeps serialization a single growth-free pass.
        size_t paramBytes = 0;
        for (const nn::Mlp &m : e.mlps_)
            for (size_t l = 0; l < m.numLayers(); ++l)
                paramBytes +=
                    static_cast<size_t>(m.layer(l).panels().numel() +
                                        m.layer(l).bias().numel()) *
                    sizeof(float);
        for (const tensor::Tensor &t : e.weights_)
            paramBytes += static_cast<size_t>(t.numel()) * sizeof(float);
        w.reserve(paramBytes + (64u << 10));
        w.u32(kMagic);
        w.u32(kEngineFormatVersion);

        w.i32(static_cast<int32_t>(e.kind_));
        w.i32(e.numInputPoints_);
        w.i32(e.logitsRows_);
        w.i32(e.logitsCols_);

        w.u32(static_cast<uint32_t>(e.modules_.size()));
        for (const PlanModuleInfo &m : e.modules_)
            writeModuleInfo(w, m);
        w.u32(static_cast<uint32_t>(e.stage2_.size()));
        for (const PlanModuleInfo &m : e.stage2_)
            writeModuleInfo(w, m);

        w.u32(static_cast<uint32_t>(e.bufferShapes_.size()));
        for (const BufferShape &b : e.bufferShapes_) {
            w.i64(b.rows);
            w.i32(b.cols);
            w.i32(b.ld);
        }
        w.u32(static_cast<uint32_t>(e.offsets_.size()));
        for (int64_t off : e.offsets_)
            w.i64(off);

        w.u32(static_cast<uint32_t>(e.steps_.size()));
        for (const StepIR &s : e.steps_) {
            w.i32(static_cast<int32_t>(s.kind));
            w.str(s.name);
            writeDesc(w, s.desc);
            w.u32(static_cast<uint32_t>(s.tail.size()));
            for (const OpDesc &t : s.tail)
                writeDesc(w, t);
            StepAccess a = stepAccess(s.desc, s.tail, e.bufferShapes_);
            w.vecI32(a.reads);
            w.vecI32(a.writes);
            w.u8(a.root ? 1 : 0);
            w.str(s.note);
        }

        w.u32(static_cast<uint32_t>(e.passStats_.size()));
        for (const PassStat &p : e.passStats_) {
            w.str(p.pass);
            w.u8(p.ran ? 1 : 0);
            w.i32(p.stepsRemoved);
            w.i32(p.fusionsApplied);
            w.i32(p.layoutsChanged);
        }

        w.u32(static_cast<uint32_t>(e.mlps_.size()));
        for (const nn::Mlp &m : e.mlps_) {
            w.u32(static_cast<uint32_t>(m.numLayers()));
            for (size_t i = 0; i < m.numLayers(); ++i) {
                const nn::Linear &l = m.layer(i);
                w.i32(static_cast<int32_t>(l.activation()));
                w.u8(l.hasBias() ? 1 : 0);
                w.panels(l.panels());
                if (l.hasBias())
                    w.tensor(l.bias());
            }
        }
        w.u32(static_cast<uint32_t>(e.weights_.size()));
        for (const tensor::Tensor &t : e.weights_)
            w.tensor(t);

        w.i64(e.stats_.arenaFloats);
        w.i64(e.stats_.naiveFloats);
        w.i32(e.stats_.numSteps);
        w.i32(e.stats_.numBuffers);
        w.i64(e.stats_.arenaFloatsPrePass);
        w.i32(e.stats_.numStepsPrePass);
        w.i32(e.stats_.stepsRemoved);
        w.i32(e.stats_.fusionsApplied);
        w.i32(e.stats_.layoutsChanged);

        bool anyQuant = false;
        for (const BufferShape &b : e.bufferShapes_)
            anyQuant = anyQuant || b.dtype != DType::F32;
        if (anyQuant) {
            w.u32(kQuantMagic);
            uint32_t n = 0;
            for (const BufferShape &b : e.bufferShapes_)
                if (b.dtype != DType::F32)
                    ++n;
            w.u32(n);
            for (size_t i = 0; i < e.bufferShapes_.size(); ++i) {
                const BufferShape &b = e.bufferShapes_[i];
                if (b.dtype == DType::F32)
                    continue;
                w.u32(static_cast<uint32_t>(i));
                w.i32(static_cast<int32_t>(b.dtype));
                w.f32(b.qscale);
                w.i32(b.qzero);
            }
            w.u32(static_cast<uint32_t>(e.passStats_.size()));
            for (const PassStat &p : e.passStats_)
                w.i32(p.buffersQuantized);
        }
        return w.take();
    }

    static CompiledEngine
    load(const uint8_t *data, size_t size)
    {
        MESO_REQUIRE(data != nullptr || size == 0,
                     "null engine artifact buffer");
        try {
            return loadImpl(data, size);
        } catch (const UsageError &e) {
            if (e.code() == StatusCode::CorruptArtifact)
                throw;
            // Decoded tables can trip checks deeper in the library
            // (e.g. nn::Mlp layer chaining on a mangled shape). During
            // a load every such failure IS corruption; re-tag so
            // callers can route on one code.
            throw UsageError(StatusCode::CorruptArtifact, e.what());
        }
    }

  private:
    static CompiledEngine
    loadImpl(const uint8_t *data, size_t size)
    {
        Reader r(data, size);
        uint32_t magic = r.u32();
        MESO_REQUIRE_ARTIFACT(magic == kMagic,
                              "bad magic 0x" << std::hex << magic);
        uint32_t version = r.u32();
        MESO_REQUIRE_ARTIFACT(version == kEngineFormatVersion,
                              "format v" << version
                                  << " is not supported (this build reads v"
                                  << kEngineFormatVersion
                                  << "); recompile the engine");

        CompiledEngine e;
        int32_t kind = r.i32();
        MESO_REQUIRE_ARTIFACT(
            kind >= 0 && kind <= static_cast<int32_t>(PipelineKind::LtdDelayed),
            "bad pipeline kind " << kind);
        e.kind_ = static_cast<PipelineKind>(kind);
        e.numInputPoints_ = r.i32();
        e.logitsRows_ = r.i32();
        e.logitsCols_ = r.i32();
        MESO_REQUIRE_ARTIFACT(e.numInputPoints_ > 0 && e.logitsRows_ >= 0 &&
                                  e.logitsCols_ >= 0,
                              "bad engine dims");

        uint32_t nMods = r.count(8, "modules");
        for (uint32_t i = 0; i < nMods; ++i)
            e.modules_.push_back(readModuleInfo(r));
        uint32_t nStage2 = r.count(8, "stage2 modules");
        for (uint32_t i = 0; i < nStage2; ++i)
            e.stage2_.push_back(readModuleInfo(r));

        uint32_t nBufs = r.count(16, "buffer shapes");
        for (uint32_t i = 0; i < nBufs; ++i) {
            BufferShape b;
            b.rows = r.i64();
            b.cols = r.i32();
            b.ld = r.i32();
            // The magnitude bound keeps every later extent product
            // (rows * ld in floats(), rows * k in validate) far from
            // int64 overflow on fuzzed bytes; real engines are bounded
            // by the 2^32-float arena anyway.
            MESO_REQUIRE_ARTIFACT(
                b.rows >= 0 && b.cols >= 0 && b.ld >= b.cols &&
                    b.rows <= (int64_t{1} << 31),
                "bad shape for buffer " << i);
            e.bufferShapes_.push_back(b);
        }
        uint32_t nOffs = r.count(8, "offsets");
        for (uint32_t i = 0; i < nOffs; ++i)
            e.offsets_.push_back(r.i64());

        // Stored access sets, checked against the derived ones once the
        // whole artifact is decoded.
        std::vector<StepAccess> stored;
        uint32_t nSteps = r.count(1, "steps");
        for (uint32_t i = 0; i < nSteps; ++i) {
            StepIR s;
            int32_t sk = r.i32();
            MESO_REQUIRE_ARTIFACT(
                sk >= 0 && sk <= static_cast<int32_t>(StageKind::Epilogue),
                "bad stage kind " << sk);
            s.kind = static_cast<StageKind>(sk);
            s.name = r.str();
            s.desc = readDesc(r);
            uint32_t nTail = r.count(1, "step tail");
            for (uint32_t t = 0; t < nTail; ++t)
                s.tail.push_back(readDesc(r));
            stored.push_back({r.vecI32("step reads"),
                              r.vecI32("step writes"), r.u8() != 0});
            s.note = r.str();
            e.steps_.push_back(std::move(s));
        }

        uint32_t nPass = r.count(1, "pass stats");
        for (uint32_t i = 0; i < nPass; ++i) {
            PassStat p;
            p.pass = r.str();
            p.ran = r.u8() != 0;
            p.stepsRemoved = r.i32();
            p.fusionsApplied = r.i32();
            p.layoutsChanged = r.i32();
            e.passStats_.push_back(std::move(p));
        }

        uint32_t nMlps = r.count(1, "mlps");
        for (uint32_t i = 0; i < nMlps; ++i) {
            nn::Mlp mlp;
            uint32_t nLayers = r.count(1, "mlp layers");
            for (uint32_t l = 0; l < nLayers; ++l) {
                int32_t act = r.i32();
                MESO_REQUIRE_ARTIFACT(
                    act >= 0 &&
                        act <= static_cast<int32_t>(nn::Activation::Relu),
                    "bad activation " << act);
                bool hasBias = r.u8() != 0;
                tensor::PanelMatrix weight = r.panels("layer weight");
                tensor::Tensor bias;
                if (hasBias) {
                    bias = r.tensor("layer bias");
                    MESO_REQUIRE_ARTIFACT(bias.rows() == 1 &&
                                              bias.cols() == weight.cols(),
                                          "bias shape " << bias.shapeStr()
                                              << " for weight "
                                              << weight.rows() << "x"
                                              << weight.cols());
                }
                mlp.addLayer(nn::Linear(
                    std::move(weight), std::move(bias),
                    static_cast<nn::Activation>(act)));
            }
            e.mlps_.push_back(std::move(mlp));
        }
        uint32_t nWeights = r.count(1, "weights");
        for (uint32_t i = 0; i < nWeights; ++i)
            e.weights_.push_back(r.tensor("weight table entry"));

        e.stats_.arenaFloats = r.i64();
        e.stats_.naiveFloats = r.i64();
        e.stats_.numSteps = r.i32();
        e.stats_.numBuffers = r.i32();
        e.stats_.arenaFloatsPrePass = r.i64();
        e.stats_.numStepsPrePass = r.i32();
        e.stats_.stepsRemoved = r.i32();
        e.stats_.fusionsApplied = r.i32();
        e.stats_.layoutsChanged = r.i32();

        // Optional quantization section: absent from (and therefore
        // back-compatible with) pre-quantization fp32 artifacts.
        if (!r.done()) {
            uint32_t qmagic = r.u32();
            MESO_REQUIRE_ARTIFACT(qmagic == kQuantMagic,
                                  "bad quant section magic 0x" << std::hex
                                      << qmagic);
            uint32_t nQuant = r.count(16, "quant entries");
            for (uint32_t i = 0; i < nQuant; ++i) {
                uint32_t id = r.u32();
                int32_t dt = r.i32();
                float scale = r.f32();
                int32_t zero = r.i32();
                MESO_REQUIRE_ARTIFACT(id < e.bufferShapes_.size(),
                                      "quant entry for buffer " << id << " of "
                                          << e.bufferShapes_.size());
                MESO_REQUIRE_ARTIFACT(
                    dt == static_cast<int32_t>(DType::I8) ||
                        dt == static_cast<int32_t>(DType::I4),
                    "quant dtype " << dt);
                MESO_REQUIRE_ARTIFACT(std::isfinite(scale) && scale > 0.0f,
                                      "quant scale " << scale << " for buffer "
                                          << id);
                MESO_REQUIRE_ARTIFACT(zero == 0,
                                      "non-symmetric zero point " << zero
                                          << " is not supported");
                BufferShape &b = e.bufferShapes_[id];
                MESO_REQUIRE_ARTIFACT(
                    dt != static_cast<int32_t>(DType::I4) || b.ld % 2 == 0,
                    "int4 buffer " << id << " has odd ld " << b.ld);
                b.dtype = static_cast<DType>(dt);
                b.qscale = scale;
                b.qzero = zero;
            }
            uint32_t nQp = r.count(4, "quant pass stats");
            MESO_REQUIRE_ARTIFACT(nQp == e.passStats_.size(),
                                  nQp << " quant pass stats for "
                                      << e.passStats_.size() << " passes");
            for (uint32_t i = 0; i < nQp; ++i)
                e.passStats_[i].buffersQuantized = r.i32();
        }
        for (const BufferShape &b : e.bufferShapes_)
            if (b.dtype != DType::F32)
                ++e.stats_.buffersQuantized;

        MESO_REQUIRE_ARTIFACT(r.done(), (size - r.pos()) << " trailing bytes");
        validate(e, stored);
        e.bake();
        return e;
    }

  private:
    /**
     * Validation of a decoded engine, driven by the op schema
     * (op_schema.hpp): every operand id, every touched extent against
     * the buffer, table or module state it lands in, the dtype rule, and
     * the @p stored access sets against the derived ones; then the arena
     * plan is re-derived and must reproduce the stored offsets and size.
     * Runs before bake, so an artifact that loads executes without UB:
     * corrupt input fails here with CorruptArtifact, or at execute with
     * a typed error from a kernel's own check.
     */
    static void
    validate(CompiledEngine &e, const std::vector<StepAccess> &stored)
    {
        const std::vector<BufferShape> &bufs = e.bufferShapes_;
        MESO_REQUIRE_ARTIFACT(e.offsets_.size() == bufs.size(),
                              e.offsets_.size() << " offsets for "
                                  << bufs.size() << " buffers");
        MESO_REQUIRE_ARTIFACT(e.stats_.arenaFloats >= 0 &&
                                  e.stats_.arenaFloats <= (int64_t{1} << 32),
                              "arena size " << e.stats_.arenaFloats);
        bool logitsWritten = false;
        for (size_t i = 0; i < e.steps_.size(); ++i) {
            StepIR &s = e.steps_[i];
            checkDesc(e, s.desc, s.name);
            for (const OpDesc &t : s.tail)
                checkDesc(e, t, s.name);
            deriveAccess(s, bufs);
            MESO_REQUIRE_ARTIFACT(
                s.reads == stored[i].reads && s.writes == stored[i].writes &&
                    s.root == stored[i].root,
                "step '" << s.name
                    << "' stored read/write sets differ from its descriptors");
            logitsWritten = logitsWritten || s.root;
        }
        // The logits tensor is sized by the step that writes it.
        MESO_REQUIRE_ARTIFACT(logitsWritten, "no step writes the logits");

        ArenaPlanResult plan = planArenaFor(e.steps_, bufs);
        MESO_REQUIRE_ARTIFACT(
            plan.planner.totalFloats() == e.stats_.arenaFloats,
            "arena of " << e.stats_.arenaFloats << " floats, the steps plan "
                << plan.planner.totalFloats());
        for (size_t b = 0; b < bufs.size(); ++b) {
            int64_t want = plan.planId[b] < 0
                               ? 0
                               : plan.planner.offset(plan.planId[b]);
            MESO_REQUIRE_ARTIFACT(e.offsets_[b] == want,
                                  "buffer " << b << " at offset "
                                      << e.offsets_[b] << ", planned at "
                                      << want);
        }
        checkStats(e, plan);
    }

    /**
     * The stored PlanStats against what the decoded engine implies: the
     * step program and its arena plan fix the post-pass figures, the
     * pass records fix the counters (their sums), and the pre-pass
     * figures, which describe a program the artifact does not hold, are
     * bounded: every pass either removes steps (DCE), merges two into
     * one (fusion), leaves the count alone (layout) or adds one per
     * quantized buffer, so the pre-pass program had at most
     * numSteps + stepsRemoved + fusionsApplied steps.
     */
    static void
    checkStats(const CompiledEngine &e, const ArenaPlanResult &plan)
    {
        const PlanStats &st = e.stats_;
        int64_t removed = 0, fused = 0, layouts = 0, quantized = 0;
        for (const PassStat &p : e.passStats_) {
            MESO_REQUIRE_ARTIFACT(p.stepsRemoved >= 0 &&
                                      p.fusionsApplied >= 0 &&
                                      p.layoutsChanged >= 0 &&
                                      p.buffersQuantized >= 0,
                                  "pass '" << p.pass
                                      << "' has a negative counter");
            removed += p.stepsRemoved;
            fused += p.fusionsApplied;
            layouts += p.layoutsChanged;
            quantized += p.buffersQuantized;
        }
        MESO_REQUIRE_ARTIFACT(
            st.numSteps == static_cast<int64_t>(e.steps_.size()) &&
                st.numBuffers ==
                    static_cast<int64_t>(plan.planner.numBuffers()) &&
                st.naiveFloats == plan.planner.naiveFloats(),
            "stats of " << st.numSteps << " steps, " << st.numBuffers
                << " buffers, " << st.naiveFloats
                << " naive floats; the plan has " << e.steps_.size()
                << ", " << plan.planner.numBuffers() << ", "
                << plan.planner.naiveFloats());
        MESO_REQUIRE_ARTIFACT(
            st.stepsRemoved == removed && st.fusionsApplied == fused &&
                st.layoutsChanged == layouts &&
                st.buffersQuantized == quantized,
            "stats counters differ from the sums of the pass records");
        MESO_REQUIRE_ARTIFACT(
            st.arenaFloatsPrePass >= 0 &&
                st.arenaFloatsPrePass <= (int64_t{1} << 32) &&
                st.numStepsPrePass >= 0 &&
                st.numStepsPrePass <= st.numSteps + removed + fused,
            "pre-pass stats of " << st.numStepsPrePass << " steps, "
                << st.arenaFloatsPrePass << " arena floats");
    }

    /** Check one descriptor against its schema row. */
    static void
    checkDesc(const CompiledEngine &e, const OpDesc &d,
              const std::string &step)
    {
        static const char *const kRoleNames[] = {
            "in", "out", "aux", "in2", "src",
            "cent", "nit", "rng", "cloud", "bias"};
        const OpSchema *schema = opSchema(d.op);
        MESO_REQUIRE_ARTIFACT(schema,
                              "step '" << step << "' op "
                                  << static_cast<int32_t>(d.op)
                                  << " is not a valid kind");
        // mod <= the module count keeps virtual ids from overflowing;
        // each use of a module looks it up through table().
        MESO_REQUIRE_ARTIFACT(
            d.rows >= 0 && d.rows <= (int64_t{1} << 31) && d.cols >= 0 &&
                d.k >= 0 && d.srcRows >= 0 && d.inCols >= 0 && d.outCol >= 0 &&
                d.mod >= 0 &&
                d.mod <= static_cast<int32_t>(e.modules_.size()) &&
                d.mode >= 0 &&
                d.mode <= static_cast<int32_t>(SampleMode::Fps) &&
                d.backend >= 0 &&
                d.backend <= static_cast<int32_t>(neighbor::Backend::KdTree) &&
                (!schema->kFromSrc || d.k <= d.srcRows),
            "step '" << step << "' bad immediates");

        const std::vector<BufferShape> &bufs = e.bufferShapes_;
        for (const Operand &o : operandsOf(d, bufs)) {
            const Touch &t = *o.touch;
            if (t.role == Role::Rng)
                continue;
            // What the operand lands in: rows x cols, filled exactly
            // (a module's centroid list and NIT by their writers, the
            // logits by the head) or at most.
            int64_t capRows = 0, capCols = 0;
            bool exact = false;
            if (t.role == Role::Cent || t.role == Role::Nit) {
                const PlanModuleInfo &m =
                    table(e.modules_, d.mod, "module", step);
                int64_t cent = m.global ? 1 : m.io.nOut;
                int64_t nit = m.global
                                  ? 0
                                  : static_cast<int64_t>(m.io.nOut) * m.io.k;
                capRows = t.role == Role::Cent ? cent : nit;
                capCols = m.io.nIn; // ids index the module's input rows
                exact = o.write;
            } else if (t.role == Role::Cloud) {
                capRows = e.numInputPoints_;
                capCols = 3;
            } else if (t.role == Role::Bias) {
                const tensor::Tensor &w = table(e.weights_, d.biasId,
                                                "bias", step);
                capRows = w.rows();
                capCols = w.cols();
            } else if (o.id == kResLogits && schema->logitsOut &&
                       t.role == Role::Out) {
                capRows = e.logitsRows_;
                capCols = e.logitsCols_;
                exact = true;
            } else {
                MESO_REQUIRE_ARTIFACT(
                    o.id >= 0 && o.id < static_cast<int32_t>(bufs.size()),
                    "step '" << step << "' " << kRoleNames[int(t.role)]
                        << " buffer " << o.id << " out of range ("
                        << bufs.size() << " buffers)");
                const BufferShape &b = bufs[static_cast<size_t>(o.id)];
                MESO_REQUIRE_ARTIFACT(b.floats() <= e.stats_.arenaFloats,
                                      "buffer " << o.id << " of " << b.floats()
                                          << " floats exceeds the arena");
                bool quant = b.dtype != DType::F32;
                MESO_REQUIRE_ARTIFACT(
                    t.dtype == Dt::Any || quant == (t.dtype == Dt::Quant),
                    "step '" << step << "' " << kRoleNames[int(t.role)]
                        << " buffer " << o.id << " is " << dtypeName(b.dtype)
                        << ", outside the op's dtype rule");
                capRows = b.rows;
                capCols = b.cols;
            }
            int64_t rows = rowExtent(e, d, t, o.id, step);
            int64_t cols = colExtent(e, d, t, o.id, step);
            bool fits = exact ? rows == capRows && cols == capCols
                              : rows <= capRows && cols <= capCols;
            MESO_REQUIRE_ARTIFACT(fits, "step '" << step << "' touches "
                                                 << rows << "x" << cols
                                                 << " of its "
                                                 << kRoleNames[int(t.role)]
                                                 << " (" << capRows << "x"
                                                 << capCols << ")");
        }
    }

    /** Entry @p id of an engine table, or CorruptArtifact. */
    template <class T>
    static const T &
    table(const std::vector<T> &v, int32_t id, const char *what,
          const std::string &step)
    {
        MESO_REQUIRE_ARTIFACT(id >= 0 && id < static_cast<int32_t>(v.size()),
                              "step '" << step << "' " << what << " id " << id
                                  << " of " << v.size());
        return v[static_cast<size_t>(id)];
    }

    static int64_t
    rowExtent(const CompiledEngine &e, const OpDesc &d, const Touch &t,
              int32_t id, const std::string &step)
    {
        switch (t.rows) {
          case RowExt::None:
            return 0;
          case RowExt::Rows:
            return d.rows;
          case RowExt::RowsK:
            return d.rows * d.k;
          case RowExt::SrcRows:
            return d.srcRows;
          case RowExt::ModIn:
            return table(e.modules_, d.mod, "module", step).io.nIn;
          case RowExt::One:
            return 1;
          case RowExt::Sample:
            if (d.mode == static_cast<int32_t>(SampleMode::Global))
                return 1;
            return d.mode == static_cast<int32_t>(SampleMode::All)
                       ? d.srcRows
                       : d.rows;
          case RowExt::Bcast:
            return e.bufferShapes_[static_cast<size_t>(id)].rows == 1 &&
                           d.rows > 1
                       ? 1
                       : d.rows;
        }
        return 0;
    }

    static int64_t
    colExtent(const CompiledEngine &e, const OpDesc &d, const Touch &t,
              int32_t id, const std::string &step)
    {
        auto mlp = [&]() -> const nn::Mlp & {
            const nn::Mlp &m = table(e.mlps_, d.mlpId, "mlp", step);
            MESO_REQUIRE_ARTIFACT(
                d.firstLayer >= 0 &&
                    d.firstLayer < static_cast<int32_t>(m.numLayers()),
                "step '" << step << "' first layer " << d.firstLayer << " of "
                    << m.numLayers());
            return m;
        };
        const std::vector<BufferShape> &bufs = e.bufferShapes_;
        switch (t.cols) {
          case ColExt::None:
            return 0;
          case ColExt::Cols:
            return d.cols;
          case ColExt::InCols:
            return d.inCols;
          case ColExt::GroupCols:
            return (d.concat ? 2 : 1) * int64_t{d.inCols};
          case ColExt::SliceCols:
            return int64_t{d.outCol} + d.cols;
          case ColExt::Xyz:
            return 3;
          case ColExt::MlpIn:
            return mlp().layer(static_cast<size_t>(d.firstLayer)).inDim();
          case ColExt::MlpOut:
            return mlp().outDim();
          case ColExt::WeightIn:
            return table(e.weights_, d.weightId, "weight", step).rows();
          case ColExt::WeightOut:
            return table(e.weights_, d.weightId, "weight", step).cols();
          case ColExt::Own:
            return bufs[static_cast<size_t>(id)].cols;
          case ColExt::SumSrcs: {
            int64_t sum = 0;
            for (int32_t src : d.srcs)
                sum += bufs[static_cast<size_t>(src)].cols;
            return sum;
          }
          case ColExt::Ids:
            return d.srcRows;
        }
        return 0;
    }
};

std::vector<uint8_t>
saveEngineToBytes(const CompiledEngine &engine)
{
    return EngineSerializer::save(engine);
}

void
saveEngine(const CompiledEngine &engine, const std::string &path)
{
    std::vector<uint8_t> bytes = EngineSerializer::save(engine);
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    MESO_REQUIRE(out.good(), "cannot open '" << path << "' for writing");
    out.write(reinterpret_cast<const char *>(bytes.data()),
              static_cast<std::streamsize>(bytes.size()));
    out.flush();
    MESO_REQUIRE(out.good(), "failed writing engine artifact to '"
                                 << path << "'");
}

CompiledEngine
loadEngineFromBytes(const uint8_t *data, size_t size)
{
    // Fault-injection site: flip one seed-chosen bit of the artifact
    // before parsing, exercising the corrupt-input rejection path end
    // to end (the flip may also land in weight data and load cleanly —
    // the fuzz harness accepts both outcomes).
    if (size > 0 && fault::fires(fault::kArtifactByteFlip)) {
        std::vector<uint8_t> mangled(data, data + size);
        uint64_t bit = fault::pick(fault::kArtifactByteFlip,
                                   static_cast<uint64_t>(size) * 8);
        mangled[bit / 8] ^= static_cast<uint8_t>(1u << (bit % 8));
        return EngineSerializer::load(mangled.data(), mangled.size());
    }
    return EngineSerializer::load(data, size);
}

Expected<CompiledEngine>
tryLoadEngineFromBytes(const uint8_t *data, size_t size)
{
    try {
        return Expected<CompiledEngine>(loadEngineFromBytes(data, size));
    } catch (...) {
        return Expected<CompiledEngine>(Status::fromCurrentException());
    }
}

CompiledEngine
loadEngine(const std::string &path)
{
    std::ifstream in(path, std::ios::binary | std::ios::ate);
    MESO_REQUIRE(in.good(), "cannot open engine artifact '" << path
                                                            << "'");
    std::streamsize size = in.tellg();
    in.seekg(0);
    std::vector<uint8_t> bytes(static_cast<size_t>(size));
    in.read(reinterpret_cast<char *>(bytes.data()), size);
    MESO_REQUIRE(in.good(), "failed reading engine artifact '" << path
                                                               << "'");
    return loadEngineFromBytes(bytes.data(), bytes.size());
}

Expected<CompiledEngine>
tryLoadEngine(const std::string &path)
{
    try {
        return Expected<CompiledEngine>(loadEngine(path));
    } catch (...) {
        return Expected<CompiledEngine>(Status::fromCurrentException());
    }
}

int64_t
serializedEngineSize(const CompiledEngine &engine)
{
    return static_cast<int64_t>(EngineSerializer::save(engine).size());
}

} // namespace mesorasi::core::plan
