/**
 * @file
 * The generic descriptor interpreter: lowers every StepIR to its
 * runtime closure.
 *
 * This is the single place descriptors become executable code, shared
 * by PlanCompiler::compile and loadEngine — a loaded artifact bakes
 * the identical closures a fresh compile does, which is what makes the
 * save/load bitwise-parity contract hold. Strides are frozen from the
 * (possibly layout-rewritten) buffer table here, after all passes ran,
 * so every kernel honors each operand's leading dimension.
 *
 * Bitwise contract: each case replays the exact kernel calls, loop
 * order, and accumulation order of the sequential reference (and of the
 * pre-refactor closure emission), asserted by the parity tests across
 * 3 pipelines x 3 backends.
 */
#include <algorithm>
#include <cmath>

#include "common/check.hpp"
#include "common/thread_pool.hpp"
#include "common/workspace.hpp"
#include "core/plan/engine.hpp"
#include "geom/sampling.hpp"
#include "neighbor/dist_batch.hpp"
#include "tensor/ops.hpp"

namespace mesorasi::core::plan {

namespace {

const BufferShape &
shapeOf(const CompiledEngine &eng, int32_t id)
{
    const auto &bufs = eng.bufferShapes();
    MESO_CHECK(id >= 0 && id < static_cast<int32_t>(bufs.size()),
               "bad buffer id " << id);
    return bufs[static_cast<size_t>(id)];
}

int64_t
ldOf(const CompiledEngine &eng, int32_t id)
{
    return shapeOf(eng, id).ld;
}

/**
 * Element @p e of a row starting at byte pointer @p row, dequantized
 * per @p dt. The quantized cases use the exact expression of
 * tensor::dequantizeRowI8/I4 (scalar, single multiply), so epilogues
 * reading a quantized aux row match those kernels bitwise in every
 * SIMD mode.
 */
inline float
rowElem(const uint8_t *row, DType dt, int32_t e, float scale)
{
    switch (dt) {
      case DType::I8:
        return static_cast<float>(
                   reinterpret_cast<const int8_t *>(row)[e]) *
               scale;
      case DType::I4: {
        uint8_t b = row[e >> 1];
        uint8_t n = (e & 1) ? static_cast<uint8_t>(b >> 4)
                            : static_cast<uint8_t>(b & 0x0F);
        return static_cast<float>(
                   static_cast<int8_t>((n ^ 8u) - 8)) *
               scale;
      }
      case DType::F32:
        break;
    }
    return reinterpret_cast<const float *>(row)[e];
}

/** Pad a flat ball-query NIT row exactly like padBallEntry: an empty
 *  ball is seeded with the centroid, then the first (nearest) member
 *  repeats until the row holds k entries. */
inline void
padNitRow(int32_t *row, int32_t count, int32_t k, int32_t centroid)
{
    if (count == 0)
        row[count++] = centroid;
    for (; count < k; ++count)
        row[count] = row[0];
}

/** Lower one descriptor op to a closure. */
std::function<void(ExecutionContext &)>
bakeOne(const OpDesc &d, const CompiledEngine &eng)
{
    switch (d.op) {
      case OpKind::MlpForward: {
        MESO_CHECK(d.mlpId >= 0 &&
                       d.mlpId < static_cast<int32_t>(eng.mlps().size()),
                   "bad mlp id " << d.mlpId);
        const nn::Mlp *mlp = &eng.mlps()[static_cast<size_t>(d.mlpId)];
        int32_t in = d.in, out = d.out;
        bool toLogits = out == kResLogits;
        int64_t ldIn = ldOf(eng, in);
        int64_t ldOut = toLogits ? eng.logitsCols() : ldOf(eng, out);
        int32_t rows = static_cast<int32_t>(d.rows);
        size_t firstLayer = static_cast<size_t>(d.firstLayer);
        return [=](ExecutionContext &ctx) {
            float *dst = toLogits ? ctx.logits_.data() : ctx.buf(out);
            mlp->forwardInto(ctx.buf(in), ldIn, rows, dst, ldOut,
                             firstLayer);
        };
      }
      case OpKind::Matmul: {
        MESO_CHECK(d.weightId >= 0 &&
                       d.weightId <
                           static_cast<int32_t>(eng.weights().size()),
                   "bad weight id " << d.weightId);
        // Weight-table matrices (EdgeConv's split W_d and W_c - W_d,
        // an ltd-delayed module's first layer) stay row-major; their
        // finiteness is checked here, once per bake.
        const tensor::Tensor &w =
            eng.weights()[static_cast<size_t>(d.weightId)];
        tensor::MatrixView b = tensor::rowMajorView(
            w, tensor::allFinite(w.data(), w.numel()));
        int32_t in = d.in, out = d.out;
        int64_t ldIn = ldOf(eng, in), ldOut = ldOf(eng, out);
        int32_t rows = static_cast<int32_t>(d.rows);
        return [=](ExecutionContext &ctx) {
            tensor::matmulIntoParallel(ctx.buf(out), ldOut, ctx.buf(in),
                                       ldIn, rows, b);
        };
      }
      case OpKind::BiasRelu: {
        int32_t out = d.out;
        int64_t ldOut = ldOf(eng, out);
        int32_t rows = static_cast<int32_t>(d.rows), cols = d.cols;
        const float *bias =
            d.biasId >= 0
                ? eng.weights()[static_cast<size_t>(d.biasId)].row(0)
                : nullptr;
        bool relu = d.relu;
        return [=](ExecutionContext &ctx) {
            tensor::biasReluBlockInPlace(ctx.buf(out), ldOut, rows, cols,
                                         bias, relu);
        };
      }
      case OpKind::AggGatherMax: {
        size_t mod = static_cast<size_t>(d.mod);
        int32_t in = d.in, out = d.out;
        const BufferShape &bi = shapeOf(eng, in);
        int64_t ldIn = bi.ld, ldOut = ldOf(eng, out);
        int64_t rowBytesIn = bi.rowBytes();
        DType dtIn = bi.dtype;
        float scaleIn = bi.qscale;
        int64_t rows = d.rows;
        int32_t cols = d.cols, k = d.k, srcRows = d.srcRows;
        return [=](ExecutionContext &ctx) {
            const float *src = ctx.buf(in);
            float *o = ctx.buf(out);
            const int32_t *flat = ctx.mods_[mod].nitFlat.data();
            ThreadPool::global().parallelFor(
                rows, /*grain=*/16, [&](int64_t lo, int64_t hi) {
                    for (int64_t c = lo; c < hi; ++c) {
                        switch (dtIn) {
                          case DType::F32:
                            tensor::gatherMaxReduceInto(
                                o + c * ldOut, src, ldIn, cols, srcRows,
                                flat + c * k, k);
                            break;
                          case DType::I8:
                            tensor::gatherMaxReduceI8Into(
                                o + c * ldOut,
                                reinterpret_cast<const int8_t *>(src),
                                ldIn, cols, srcRows, flat + c * k, k,
                                scaleIn);
                            break;
                          case DType::I4:
                            tensor::gatherMaxReduceI4Into(
                                o + c * ldOut,
                                reinterpret_cast<const uint8_t *>(src),
                                rowBytesIn, cols, srcRows, flat + c * k,
                                k, scaleIn);
                            break;
                        }
                    }
                });
        };
      }
      case OpKind::AggSubCentroid: {
        size_t mod = static_cast<size_t>(d.mod);
        int32_t out = d.out, aux = d.aux;
        const BufferShape &ba = shapeOf(eng, aux);
        int64_t ldOut = ldOf(eng, out);
        int64_t rowBytesAux = ba.rowBytes();
        DType dtAux = ba.dtype;
        float scaleAux = ba.qscale;
        int64_t rows = d.rows;
        int32_t cols = d.cols;
        return [=](ExecutionContext &ctx) {
            const uint8_t *a =
                reinterpret_cast<const uint8_t *>(ctx.buf(aux));
            float *o = ctx.buf(out);
            const int32_t *cent = ctx.mods_[mod].centroids.data();
            ThreadPool::global().parallelFor(
                rows, /*grain=*/16, [&](int64_t lo, int64_t hi) {
                    for (int64_t c = lo; c < hi; ++c) {
                        float *orow = o + c * ldOut;
                        const uint8_t *cf =
                            a + static_cast<int64_t>(
                                    cent[static_cast<size_t>(c)]) *
                                    rowBytesAux;
                        for (int32_t e = 0; e < cols; ++e)
                            orow[e] -= rowElem(cf, dtAux, e, scaleAux);
                    }
                });
        };
      }
      case OpKind::AggAddAuxRelu: {
        size_t mod = static_cast<size_t>(d.mod);
        int32_t out = d.out, aux = d.aux;
        const BufferShape &ba = shapeOf(eng, aux);
        int64_t ldOut = ldOf(eng, out);
        int64_t rowBytesAux = ba.rowBytes();
        DType dtAux = ba.dtype;
        float scaleAux = ba.qscale;
        int64_t rows = d.rows;
        int32_t cols = d.cols;
        bool relu = d.relu;
        return [=](ExecutionContext &ctx) {
            const uint8_t *a =
                reinterpret_cast<const uint8_t *>(ctx.buf(aux));
            float *o = ctx.buf(out);
            const int32_t *cent = ctx.mods_[mod].centroids.data();
            ThreadPool::global().parallelFor(
                rows, /*grain=*/16, [&](int64_t lo, int64_t hi) {
                    for (int64_t c = lo; c < hi; ++c) {
                        float *orow = o + c * ldOut;
                        const uint8_t *qr =
                            a + static_cast<int64_t>(
                                    cent[static_cast<size_t>(c)]) *
                                    rowBytesAux;
                        for (int32_t e = 0; e < cols; ++e) {
                            float v =
                                orow[e] + rowElem(qr, dtAux, e, scaleAux);
                            if (relu)
                                v = std::max(0.0f, v);
                            orow[e] = v;
                        }
                    }
                });
        };
      }
      case OpKind::RngDraw: {
        size_t mod = static_cast<size_t>(d.mod);
        int32_t n = d.srcRows;
        int32_t want = static_cast<int32_t>(d.rows);
        return [=](ExecutionContext &ctx) {
            ctx.rng_.sampleWithoutReplacementInto(
                n, want, ctx.mods_[mod].centroids);
        };
      }
      case OpKind::MaterializeCloud: {
        int32_t out = d.out;
        int64_t ldOut = ldOf(eng, out);
        int32_t rows = static_cast<int32_t>(d.rows);
        return [=](ExecutionContext &ctx) {
            const geom::PointCloud &cloud = *ctx.cloud_;
            float *dst = ctx.buf(out);
            for (int32_t i = 0; i < rows; ++i) {
                float *row = dst + i * ldOut;
                row[0] = cloud[static_cast<size_t>(i)].x;
                row[1] = cloud[static_cast<size_t>(i)].y;
                row[2] = cloud[static_cast<size_t>(i)].z;
            }
        };
      }
      case OpKind::ResolveSample: {
        size_t mod = static_cast<size_t>(d.mod);
        SampleMode mode = static_cast<SampleMode>(d.mode);
        int32_t want = static_cast<int32_t>(d.rows);
        int32_t nIn = d.srcRows;
        int32_t in = d.in;
        int64_t ldIn = mode == SampleMode::Fps ? ldOf(eng, in) : 0;
        return [=](ExecutionContext &ctx) {
            std::vector<int32_t> &cent = ctx.mods_[mod].centroids;
            switch (mode) {
              case SampleMode::Global:
                cent.resize(1);
                cent[0] = 0;
                return;
              case SampleMode::All:
                cent.resize(static_cast<size_t>(nIn));
                for (int32_t j = 0; j < nIn; ++j)
                    cent[static_cast<size_t>(j)] = j;
                return;
              case SampleMode::Fps: {
                // FPS goes through the geom API (cloud rebuild + fresh
                // result vector), so engines over FPS modules allocate
                // per execution — outside the zero-allocation
                // contract, which covers the paper's optimized
                // baseline (random sampling, Sec. VI).
                const float *src = ctx.buf(in);
                geom::PointCloud cloud;
                for (int32_t j = 0; j < nIn; ++j) {
                    const float *r = src + j * ldIn;
                    cloud.add({r[0], r[1], r[2]});
                }
                cent = geom::farthestPointSample(cloud, want);
                break;
              }
              case SampleMode::Random:
                // The RngDraw step already filled cent.
                break;
            }
            // Both drawn paths keep ascending index order (the spatial
            // ordering contract of ModuleExecutor::sample).
            std::sort(cent.begin(), cent.end());
        };
      }
      case OpKind::SearchNit: {
        size_t mod = static_cast<size_t>(d.mod);
        bool knnQ = d.knn;
        int32_t in = d.in, spaceDim = d.inCols;
        int64_t ldIn = ldOf(eng, in);
        int32_t nIn = d.srcRows;
        int32_t nOut = static_cast<int32_t>(d.rows);
        int32_t k = d.k;
        float radius = d.radius;
        auto kindB = static_cast<neighbor::Backend>(d.backend);
        std::string custom = d.custom;
        return [=](ExecutionContext &ctx) {
            PlanModuleCtx &m = ctx.mods_[mod];
            neighbor::PointsView view(ctx.buf(in), nIn, spaceDim, ldIn);
            neighbor::SearchHints hints;
            hints.numQueries = nOut;
            hints.k = k;
            if (!knnQ)
                hints.radius = radius;
            std::unique_ptr<neighbor::SearchBackend> local;
            const neighbor::SearchBackend *backend = nullptr;
            if (!custom.empty()) {
                local = neighbor::makeBackendByName(custom, view, hints);
                backend = local.get();
            } else if (kindB == neighbor::Backend::BruteForce) {
                if (!m.cachedBackend)
                    m.cachedBackend =
                        neighbor::makeBackend(kindB, view, hints);
                backend = m.cachedBackend.get();
            } else {
                local = neighbor::makeBackend(kindB, view, hints);
                backend = local.get();
            }
            int32_t *flat = m.nitFlat.data();
            const int32_t *cent = m.centroids.data();
            if (knnQ) {
                // One batched call per chunk: the centroids are rows of
                // the searched view, so brute force answers them a
                // query block at a time.
                ThreadPool::global().parallelFor(
                    nOut, neighbor::kQueryBlock,
                    [&](int64_t lo, int64_t hi) {
                        backend->knnRowsInto(cent + lo,
                                             static_cast<int32_t>(hi - lo),
                                             k, flat + lo * k);
                    });
                return;
            }
            ThreadPool::global().parallelFor(
                nOut, /*grain=*/4, [&](int64_t lo, int64_t hi) {
                    for (int64_t c = lo; c < hi; ++c) {
                        int32_t *row = flat + c * k;
                        int32_t cnt = backend->radiusInto(
                            view.row(cent[c]), radius, k, row);
                        padNitRow(row, cnt, k, cent[c]);
                    }
                });
        };
      }
      case OpKind::GroupDiff: {
        size_t mod = static_cast<size_t>(d.mod);
        int32_t in = d.in, out = d.out;
        int64_t ldIn = ldOf(eng, in), ldOut = ldOf(eng, out);
        int32_t nOut = static_cast<int32_t>(d.rows);
        int32_t w = d.inCols, k = d.k;
        bool cc = d.concat;
        return [=](ExecutionContext &ctx) {
            PlanModuleCtx &m = ctx.mods_[mod];
            const float *src = ctx.buf(in);
            float *dst = ctx.buf(out);
            const int32_t *flat = m.nitFlat.data();
            const int32_t *cent = m.centroids.data();
            ThreadPool::global().parallelFor(
                nOut, /*grain=*/16, [&](int64_t lo, int64_t hi) {
                    for (int64_t c = lo; c < hi; ++c) {
                        const float *cf =
                            src + static_cast<int64_t>(
                                      cent[static_cast<size_t>(c)]) *
                                      ldIn;
                        for (int32_t j = 0; j < k; ++j) {
                            const float *nf =
                                src + static_cast<int64_t>(
                                          flat[c * k + j]) *
                                          ldIn;
                            float *row = dst + (c * k + j) * ldOut;
                            if (cc) {
                                for (int32_t e = 0; e < w; ++e) {
                                    row[e] = cf[e];
                                    row[w + e] = nf[e] - cf[e];
                                }
                            } else {
                                for (int32_t e = 0; e < w; ++e)
                                    row[e] = nf[e] - cf[e];
                            }
                        }
                    }
                });
        };
      }
      case OpKind::ReduceMaxRows: {
        int32_t in = d.in, out = d.out;
        int64_t ldIn = ldOf(eng, in), ldOut = ldOf(eng, out);
        int32_t nOut = static_cast<int32_t>(d.rows);
        int32_t cols = d.cols, k = d.k;
        return [=](ExecutionContext &ctx) {
            const float *src = ctx.buf(in);
            float *o = ctx.buf(out);
            ThreadPool::global().parallelFor(
                nOut, /*grain=*/16, [&](int64_t lo, int64_t hi) {
                    for (int64_t c = lo; c < hi; ++c)
                        tensor::maxReduceRowsInto(o + c * ldOut,
                                                  src + c * k * ldIn,
                                                  ldIn, cols, k);
                });
        };
      }
      case OpKind::ReduceMaxAll: {
        int32_t in = d.in, out = d.out;
        int64_t ldIn = ldOf(eng, in);
        int32_t srcRows = d.srcRows, cols = d.cols, outCol = d.outCol;
        return [=](ExecutionContext &ctx) {
            tensor::maxReduceAllRowsInto(ctx.buf(out) + outCol,
                                         ctx.buf(in), ldIn, cols,
                                         srcRows);
        };
      }
      case OpKind::GatherRows: {
        size_t mod = static_cast<size_t>(d.mod);
        int32_t in = d.in, out = d.out;
        int64_t ldIn = ldOf(eng, in), ldOut = ldOf(eng, out);
        int32_t rows = static_cast<int32_t>(d.rows);
        int32_t cols = d.cols;
        return [=](ExecutionContext &ctx) {
            const float *src = ctx.buf(in);
            float *dst = ctx.buf(out);
            const int32_t *cent = ctx.mods_[mod].centroids.data();
            for (int32_t c = 0; c < rows; ++c) {
                const float *row =
                    src + static_cast<int64_t>(
                              cent[static_cast<size_t>(c)]) *
                              ldIn;
                std::copy(row, row + cols, dst + c * ldOut);
            }
        };
      }
      case OpKind::FillZero: {
        int32_t out = d.out;
        int64_t ldOut = ldOf(eng, out);
        int32_t rows = static_cast<int32_t>(d.rows);
        int32_t cols = d.cols;
        return [=](ExecutionContext &ctx) {
            float *dst = ctx.buf(out);
            for (int32_t r = 0; r < rows; ++r)
                std::fill(dst + r * ldOut, dst + r * ldOut + cols, 0.0f);
        };
      }
      case OpKind::ConcatCols: {
        struct Src
        {
            int32_t id;
            int64_t ld;
            int32_t w;
            bool bcast;
        };
        int32_t out = d.out;
        int64_t ldOut = ldOf(eng, out);
        int32_t rows = static_cast<int32_t>(d.rows);
        std::vector<Src> srcs;
        for (int32_t id : d.srcs) {
            const BufferShape &bs =
                eng.bufferShapes()[static_cast<size_t>(id)];
            srcs.push_back(Src{id, bs.ld, bs.cols,
                               bs.rows == 1 && rows > 1});
        }
        return [=](ExecutionContext &ctx) {
            float *dst = ctx.buf(out);
            int32_t off = 0;
            for (const Src &s : srcs) {
                const float *src = ctx.buf(s.id);
                for (int32_t r = 0; r < rows; ++r) {
                    const float *row =
                        s.bcast ? src
                                : src + static_cast<int64_t>(r) * s.ld;
                    std::copy(row, row + s.w,
                              dst + static_cast<int64_t>(r) * ldOut +
                                  off);
                }
                off += s.w;
            }
        };
      }
      case OpKind::Interp3NN: {
        int32_t in = d.in, aux = d.aux, in2 = d.in2, out = d.out;
        int64_t ldIn = ldOf(eng, in), ldAux = ldOf(eng, aux),
                ldIn2 = ldOf(eng, in2), ldOut = ldOf(eng, out);
        int32_t nFine = static_cast<int32_t>(d.rows);
        int32_t nCoarse = d.srcRows;
        int32_t cols = d.cols, kk = d.k;
        auto kindB = static_cast<neighbor::Backend>(d.backend);
        return [=](ExecutionContext &ctx) {
            const float *feat = ctx.buf(in);
            const float *fine = ctx.buf(in2);
            float *dstBase = ctx.buf(out);
            // The reference accumulates into a zero-initialized
            // Tensor; the recycled arena is not zeroed, so zero the
            // written region first.
            for (int32_t r = 0; r < nFine; ++r)
                std::fill(dstBase + r * ldOut,
                          dstBase + r * ldOut + cols, 0.0f);
            neighbor::PointsView view(ctx.buf(aux), nCoarse, 3, ldAux);
            neighbor::SearchHints hints;
            hints.numQueries = nFine;
            hints.k = kk;
            auto backend = neighbor::makeBackend(kindB, view, hints);
            ThreadPool::global().parallelFor(
                nFine, /*grain=*/32, [&](int64_t b, int64_t e) {
                    // Per-thread scratch for the inverse-distance
                    // weights, as in InterpExecutor::run.
                    Workspace &ws = Workspace::local();
                    Workspace::ScopedClaim claim(ws,
                                                 Workspace::kScratch);
                    float *w = ws.floats(Workspace::kScratch, kk);
                    std::vector<int32_t> nn(static_cast<size_t>(kk));
                    for (int64_t ii = b; ii < e; ++ii) {
                        const float *q = fine + ii * ldIn2;
                        backend->knnInto(q, kk, nn.data());
                        float wsum = 0.0f;
                        for (int32_t j = 0; j < kk; ++j) {
                            float d2 = view.dist2To(
                                nn[static_cast<size_t>(j)], q);
                            w[j] = 1.0f / (d2 + 1e-8f);
                            wsum += w[j];
                        }
                        float *dst = dstBase + ii * ldOut;
                        for (int32_t j = 0; j < kk; ++j) {
                            const float *src =
                                feat + static_cast<int64_t>(
                                           nn[static_cast<size_t>(j)]) *
                                           ldIn;
                            float wj = w[j] / wsum;
                            for (int32_t e2 = 0; e2 < cols; ++e2)
                                dst[e2] += wj * src[e2];
                        }
                    }
                });
        };
      }
      case OpKind::QuantizeRows: {
        int32_t in = d.in, out = d.out;
        const BufferShape &bo = shapeOf(eng, out);
        int64_t ldIn = ldOf(eng, in);
        int64_t rows = d.rows;
        int32_t cols = d.cols;
        float scale = bo.qscale;
        MESO_CHECK(bo.dtype != DType::F32,
                   "QuantizeRows output must be quantized");
        if (bo.dtype == DType::I8) {
            int64_t ldOut = bo.ld;
            return [=](ExecutionContext &ctx) {
                tensor::quantizeRowsI8(
                    reinterpret_cast<int8_t *>(ctx.buf(out)), ldOut,
                    ctx.buf(in), ldIn, rows, cols, scale);
            };
        }
        int64_t rowBytesOut = bo.rowBytes();
        return [=](ExecutionContext &ctx) {
            tensor::quantizeRowsI4(
                reinterpret_cast<uint8_t *>(ctx.buf(out)), rowBytesOut,
                ctx.buf(in), ldIn, rows, cols, scale);
        };
      }
      case OpKind::Generic:
        break;
    }
    MESO_CHECK(false, "cannot bake a Generic descriptor");
    return {};
}

/** Lower one step: the descriptor plus any fused tail. */
std::function<void(ExecutionContext &)>
bakeStep(const StepIR &s, const CompiledEngine &eng)
{
    // The per-centroid fused aggregates: gather + max and the epilogue
    // run in one loop over centroids, so each output row is finished
    // while cache-hot — exactly the hand-fused kernels this pipeline
    // replaces. Per-element operation order matches the two-step bake,
    // so both forms are bitwise identical.
    if (s.desc.op == OpKind::AggGatherMax && s.tail.size() == 1 &&
        (s.tail[0].op == OpKind::AggSubCentroid ||
         s.tail[0].op == OpKind::AggAddAuxRelu)) {
        const OpDesc &g = s.desc;
        const OpDesc &e = s.tail[0];
        MESO_CHECK(e.out == g.out && e.rows == g.rows && e.cols == g.cols,
                   "fused aggregate shape mismatch in '" << s.name
                                                         << "'");
        size_t mod = static_cast<size_t>(g.mod);
        int32_t in = g.in, dst = g.out, aux = e.aux;
        const BufferShape &bi = shapeOf(eng, in);
        const BufferShape &ba = shapeOf(eng, aux);
        int64_t ldIn = bi.ld, ldDst = ldOf(eng, dst);
        int64_t rows = g.rows;
        int32_t cols = g.cols, k = g.k, srcRows = g.srcRows;
        bool sub = e.op == OpKind::AggSubCentroid;
        bool relu = e.relu;
        if (bi.dtype == DType::F32 && ba.dtype == DType::F32) {
            int64_t ldAux = ba.ld;
            return [=](ExecutionContext &ctx) {
                PlanModuleCtx &m = ctx.mods_[mod];
                const float *src = ctx.buf(in);
                const float *a = ctx.buf(aux);
                float *o = ctx.buf(dst);
                const int32_t *flat = m.nitFlat.data();
                const int32_t *cent = m.centroids.data();
                ThreadPool::global().parallelFor(
                    rows, /*grain=*/16, [&](int64_t lo, int64_t hi) {
                        for (int64_t c = lo; c < hi; ++c) {
                            float *orow = o + c * ldDst;
                            tensor::gatherMaxReduceInto(orow, src, ldIn,
                                                        cols, srcRows,
                                                        flat + c * k, k);
                            const float *ar =
                                a + static_cast<int64_t>(
                                        cent[static_cast<size_t>(c)]) *
                                        ldAux;
                            if (sub) {
                                for (int32_t e2 = 0; e2 < cols; ++e2)
                                    orow[e2] -= ar[e2];
                            } else {
                                for (int32_t e2 = 0; e2 < cols; ++e2) {
                                    float v = orow[e2] + ar[e2];
                                    if (relu)
                                        v = std::max(0.0f, v);
                                    orow[e2] = v;
                                }
                            }
                        }
                    });
            };
        }
        // Quantized variant: the gather-max runs in the integer domain
        // (one dequantize per output element), and the epilogue
        // dequantizes the aux row element-wise — same per-element
        // operation order as the unfused two-step bake, so fused and
        // unfused quantized plans stay bitwise identical.
        int64_t rowBytesIn = bi.rowBytes(), rowBytesAux = ba.rowBytes();
        DType dtIn = bi.dtype, dtAux = ba.dtype;
        float scaleIn = bi.qscale, scaleAux = ba.qscale;
        return [=](ExecutionContext &ctx) {
            PlanModuleCtx &m = ctx.mods_[mod];
            const float *src = ctx.buf(in);
            const uint8_t *a =
                reinterpret_cast<const uint8_t *>(ctx.buf(aux));
            float *o = ctx.buf(dst);
            const int32_t *flat = m.nitFlat.data();
            const int32_t *cent = m.centroids.data();
            ThreadPool::global().parallelFor(
                rows, /*grain=*/16, [&](int64_t lo, int64_t hi) {
                    for (int64_t c = lo; c < hi; ++c) {
                        float *orow = o + c * ldDst;
                        switch (dtIn) {
                          case DType::F32:
                            tensor::gatherMaxReduceInto(
                                orow, src, ldIn, cols, srcRows,
                                flat + c * k, k);
                            break;
                          case DType::I8:
                            tensor::gatherMaxReduceI8Into(
                                orow,
                                reinterpret_cast<const int8_t *>(src),
                                ldIn, cols, srcRows, flat + c * k, k,
                                scaleIn);
                            break;
                          case DType::I4:
                            tensor::gatherMaxReduceI4Into(
                                orow,
                                reinterpret_cast<const uint8_t *>(src),
                                rowBytesIn, cols, srcRows, flat + c * k,
                                k, scaleIn);
                            break;
                        }
                        const uint8_t *ar =
                            a + static_cast<int64_t>(
                                    cent[static_cast<size_t>(c)]) *
                                    rowBytesAux;
                        if (sub) {
                            for (int32_t e2 = 0; e2 < cols; ++e2)
                                orow[e2] -=
                                    rowElem(ar, dtAux, e2, scaleAux);
                        } else {
                            for (int32_t e2 = 0; e2 < cols; ++e2) {
                                float v = orow[e2] +
                                          rowElem(ar, dtAux, e2,
                                                  scaleAux);
                                if (relu)
                                    v = std::max(0.0f, v);
                                orow[e2] = v;
                            }
                        }
                    }
                });
        };
    }

    // Block-level ops (matmul, bias/relu, MLP tails): the descriptor op
    // followed by its tail in order IS the fused form — each op sweeps
    // the whole block, so fusion here saves step dispatch and keeps the
    // intermediate in a register-blocked hot path, not a loop merge.
    std::function<void(ExecutionContext &)> head = bakeOne(s.desc, eng);
    if (s.tail.empty())
        return head;
    std::vector<std::function<void(ExecutionContext &)>> fns;
    fns.push_back(std::move(head));
    for (const OpDesc &d : s.tail)
        fns.push_back(bakeOne(d, eng));
    return [fns](ExecutionContext &ctx) {
        for (const auto &f : fns)
            f(ctx);
    };
}

} // namespace

void
CompiledEngine::bake()
{
    baked_.clear();
    baked_.reserve(steps_.size());
    for (const StepIR &s : steps_)
        baked_.push_back(bakeStep(s, *this));
}

} // namespace mesorasi::core::plan
