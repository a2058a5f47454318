#include "tensor/ops.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/simd.hpp"
#include "common/thread_pool.hpp"
#include "tensor/ops_kernels.hpp"

namespace mesorasi::tensor {

namespace {

/** Rows-per-chunk grain so small products stay serial: splitting a
 *  matmul pays off only once each thread gets ~1M MACs. */
int64_t
matmulGrain(int64_t flopsPerRow)
{
    constexpr int64_t kMinFlopsPerChunk = 1 << 20;
    return std::max<int64_t>(1, kMinFlopsPerChunk /
                                    std::max<int64_t>(1, flopsPerRow));
}

/** The vector copy simd::isa() names, or null for the scalar oracles.
 *  Entry points read it once per call. */
const kernels::Table *
vectorKernels()
{
    switch (simd::isa()) {
#if MESORASI_SIMD_SSE2
    case simd::Isa::Sse2:
        return &kernels::sse2::kTable;
#endif
#if MESORASI_SIMD_AVX2
    case simd::Isa::Avx2:
        return &kernels::avx2::kTable;
#endif
#if MESORASI_SIMD_NEON
    case simd::Isa::Neon:
        return &kernels::neon::kTable;
#endif
    default:
        return nullptr;
    }
}

// ---------------------------------------------------------------------
// Matmul: one scalar oracle here, and one SIMD kernel per ISA
// (ops_kernels.cpp), both reading B through a MatrixView (row-major or
// column panels). Both accumulate every output element c[r][j] as
// sum_k a[r][k] * b[k][j] in ascending-k order with mul+add (no FMA)
// from a +0.0f seed, so they are bitwise identical (see matmulInto).
// ---------------------------------------------------------------------

/** Scalar oracle: crow must be zeroed. Panel by panel, so a packed B
 *  streams each panel contiguously instead of touching every panel
 *  once per k; the zero skip makes ReLU-sparse activations cheap. */
inline void
matmulRowScalar(float *crow, const float *arow, const MatrixView &b)
{
    for (int32_t j0 = 0; j0 < b.cols; j0 += kPanelWidth) {
        const float *panel = b.panel(j0 / kPanelWidth);
        const int32_t width = std::min(kPanelWidth, b.cols - j0);
        for (int32_t k = 0; k < b.rows; ++k) {
            float av = arow[k];
            if (av == 0.0f)
                continue;
            const float *brow = panel + k * b.kStride;
            for (int32_t j = 0; j < width; ++j)
                crow[j0 + j] += av * brow[j];
        }
    }
}

/** Shared strided-block body of every matmul entry point: the vector
 *  kernel covers all columns but a last few, which (like every column
 *  when forced scalar) the oracle computes. */
void
matmulRowsInto(float *dst, int64_t dstStride, const float *a,
               int64_t aStride, int32_t rows, const MatrixView &b)
{
    const kernels::Table *k = vectorKernels();
    const int32_t c0 = k ? k->matmul(dst, dstStride, a, aStride, rows, b) : 0;
    if (c0 == b.cols)
        return;
    // The tail lies inside one panel (c0 is a multiple of a lane width
    // that divides kPanelWidth), or c0 is 0.
    MatrixView tail = b;
    tail.data = b.panel(c0 / kPanelWidth) + c0 % kPanelWidth;
    tail.cols = b.cols - c0;
    for (int32_t r = 0; r < rows; ++r) {
        float *crow = dst + static_cast<int64_t>(r) * dstStride + c0;
        std::fill(crow, crow + tail.cols, 0.0f);
        matmulRowScalar(crow, a + static_cast<int64_t>(r) * aStride, tail);
    }
}

/** dst[c] = std::max(dst[c], src[c]) for c in [0, cols), with @p k's
 *  vector loop (if any) over the leading columns. maxOrdered replicates
 *  std::max bit-for-bit (NaN on the right is dropped, NaN on the left
 *  propagates), so the reduce kernels keep their NaN-propagation
 *  contract in every path. */
inline void
maxIntoRow(const kernels::Table *k, float *dst, const float *src,
           int32_t cols)
{
    for (int32_t c = k ? k->maxIntoRow(dst, src, cols) : 0; c < cols; ++c)
        dst[c] = std::max(dst[c], src[c]);
}

/** row[c] = max(0, row[c] + bias[c]), either part optional. */
inline void
biasReluRow(const kernels::Table *k, float *row, int64_t cols,
            const float *bias, bool applyRelu)
{
    for (int64_t c = k ? k->biasRelu(row, cols, bias, applyRelu) : 0;
         c < cols; ++c) {
        float v = row[c];
        if (bias)
            v += bias[c];
        if (applyRelu)
            v = std::max(0.0f, v);
        row[c] = v;
    }
}

} // namespace

Tensor
matmul(const Tensor &a, const MatrixView &b)
{
    MESO_REQUIRE(a.cols() == b.rows, "matmul " << a.shapeStr() << " * "
                                               << b.rows << "x" << b.cols);
    Tensor c(a.rows(), b.cols);
    matmulIntoParallel(c.data(), c.cols(), a.data(), a.cols(), a.rows(), b);
    return c;
}

Tensor
matmul(const Tensor &a, const Tensor &b)
{
    return matmul(a, rowMajorView(b, /*finite=*/false));
}

void
matmulInto(float *dst, int64_t dstStride, const float *a, int64_t aStride,
           int32_t rows, const MatrixView &b)
{
    MESO_REQUIRE(dstStride >= b.cols && aStride >= b.rows,
                 "matmulInto strides " << dstStride << "/" << aStride
                                       << " for " << b.rows << "x"
                                       << b.cols);
    // Serial over the block: this kernel is the body of already
    // parallelized row-chunk loops (nn::Mlp::forward), so it must not
    // allocate or spawn.
    matmulRowsInto(dst, dstStride, a, aStride, rows, b);
}

void
matmulInto(float *dst, int64_t dstStride, const float *a, int64_t aStride,
           int32_t rows, const Tensor &b)
{
    matmulInto(dst, dstStride, a, aStride, rows,
               rowMajorView(b, /*finite=*/false));
}

void
matmulIntoParallel(float *dst, int64_t dstStride, const float *a,
                   int64_t aStride, int32_t rows, const MatrixView &b)
{
    MESO_REQUIRE(dstStride >= b.cols && aStride >= b.rows,
                 "matmulIntoParallel strides " << dstStride << "/"
                                               << aStride << " for "
                                               << b.rows << "x" << b.cols);
    // Output rows are independent, so the row loop parallelizes with
    // bitwise-identical results to the serial execution.
    ThreadPool::global().parallelFor(
        rows, matmulGrain(static_cast<int64_t>(b.rows) * b.cols),
        [&](int64_t begin, int64_t end) {
            matmulRowsInto(dst + begin * dstStride, dstStride,
                           a + begin * aStride, aStride,
                           static_cast<int32_t>(end - begin), b);
        });
}

void
addBiasInPlace(Tensor &x, const Tensor &bias)
{
    MESO_REQUIRE(bias.rows() == 1 && bias.cols() == x.cols(),
                 "bias " << bias.shapeStr() << " for " << x.shapeStr());
    ThreadPool::global().parallelFor(
        x.rows(), matmulGrain(x.cols()),
        [&](int64_t begin, int64_t end) {
            biasReluBlockInPlace(x.row(static_cast<int32_t>(begin)),
                                 x.cols(),
                                 static_cast<int32_t>(end - begin),
                                 x.cols(), bias.row(0),
                                 /*applyRelu=*/false);
        });
}

void
reluInPlace(Tensor &x)
{
    float *d = x.data();
    ThreadPool::global().parallelFor(
        x.numel(), /*grain=*/1 << 20,
        [&, k = vectorKernels()](int64_t begin, int64_t end) {
            biasReluRow(k, d + begin, end - begin, nullptr,
                        /*applyRelu=*/true);
        });
}

Tensor
relu(const Tensor &x)
{
    Tensor y = x;
    reluInPlace(y);
    return y;
}

void
biasReluBlockInPlace(float *dst, int64_t stride, int32_t rows,
                     int32_t cols, const float *bias, bool applyRelu)
{
    const kernels::Table *k = vectorKernels();
    for (int32_t r = 0; r < rows; ++r)
        biasReluRow(k, dst + static_cast<int64_t>(r) * stride, cols, bias,
                    applyRelu);
}

void
batchNormInPlace(Tensor &x, const Tensor &gamma, const Tensor &beta,
                 const Tensor &mean, const Tensor &var, float eps)
{
    MESO_REQUIRE(gamma.rows() == 1 && gamma.cols() == x.cols() &&
                     beta.rows() == 1 && beta.cols() == x.cols() &&
                     mean.rows() == 1 && mean.cols() == x.cols() &&
                     var.rows() == 1 && var.cols() == x.cols(),
                 "batchnorm parameter shape mismatch for "
                     << x.shapeStr());
    // The per-column scale/shift fold is shared by both paths, so the
    // rsqrt never enters the parity equation.
    std::vector<float> scale(x.cols()), shift(x.cols());
    for (int32_t c = 0; c < x.cols(); ++c) {
        float inv = 1.0f / std::sqrt(var(0, c) + eps);
        scale[c] = gamma(0, c) * inv;
        shift[c] = beta(0, c) - mean(0, c) * scale[c];
    }
    const kernels::Table *k = vectorKernels();
    for (int32_t r = 0; r < x.rows(); ++r) {
        float *row = x.row(r);
        for (int32_t c = k ? k->scaleShift(row, scale.data(), shift.data(),
                                           x.cols())
                           : 0;
             c < x.cols(); ++c)
            row[c] = row[c] * scale[c] + shift[c];
    }
}

Tensor
maxReduceRows(const Tensor &x)
{
    MESO_REQUIRE(x.rows() > 0, "max-reduce of empty tensor");
    Tensor out(1, x.cols());
    maxReduceAllRowsInto(out.row(0), x.data(), x.cols(), x.cols(),
                         x.rows());
    return out;
}

Tensor
maxReduceRows(const Tensor &x, const std::vector<int32_t> &rows)
{
    MESO_REQUIRE(!rows.empty(), "max-reduce over no rows");
    Tensor out(1, x.cols());
    out.fill(-std::numeric_limits<float>::infinity());
    const kernels::Table *k = vectorKernels();
    for (int32_t r : rows) {
        MESO_REQUIRE(r >= 0 && r < x.rows(), "row " << r);
        maxIntoRow(k, out.row(0), x.row(r), x.cols());
    }
    return out;
}

void
maxReduceRowsInto(float *dst, const Tensor &x, int32_t rowBegin,
                  int32_t numRows)
{
    MESO_REQUIRE(numRows > 0 && rowBegin >= 0 &&
                     rowBegin + numRows <= x.rows(),
                 "block reduce rows [" << rowBegin << ", "
                                       << rowBegin + numRows << ") of "
                                       << x.shapeStr());
    maxReduceRowsInto(dst, x.row(rowBegin), x.cols(), x.cols(), numRows);
}

void
maxReduceRowsInto(float *dst, const float *src, int64_t stride,
                  int32_t cols, int32_t numRows)
{
    MESO_REQUIRE(numRows > 0 && stride >= cols,
                 "block reduce of " << numRows << " rows, stride "
                                    << stride << " < " << cols);
    // Seed with -inf, exactly like the index-list maxReduceRows
    // overload this replaces — the choice is visible when inputs carry
    // NaNs (std::max drops a NaN right operand), so matching it keeps
    // the bitwise-parity contract unconditional.
    std::fill(dst, dst + cols,
              -std::numeric_limits<float>::infinity());
    const kernels::Table *k = vectorKernels();
    for (int32_t r = 0; r < numRows; ++r)
        maxIntoRow(k, dst, src + static_cast<int64_t>(r) * stride, cols);
}

void
maxReduceAllRowsInto(float *dst, const float *src, int64_t stride,
                     int32_t cols, int32_t numRows)
{
    MESO_REQUIRE(numRows > 0 && stride >= cols,
                 "max-reduce of " << numRows << " rows, stride "
                                  << stride << " < " << cols);
    // First-row seed, exactly like maxReduceRows(x).
    std::copy(src, src + cols, dst);
    const kernels::Table *k = vectorKernels();
    for (int32_t r = 1; r < numRows; ++r)
        maxIntoRow(k, dst, src + static_cast<int64_t>(r) * stride, cols);
}

void
gatherMaxReduceInto(float *dst, const Tensor &src,
                    const std::vector<int32_t> &rows)
{
    gatherMaxReduceInto(dst, src.data(), src.cols(), src.cols(),
                        src.rows(), rows.data(),
                        static_cast<int32_t>(rows.size()));
}

void
gatherMaxReduceInto(float *dst, const float *src, int64_t stride,
                    int32_t cols, int32_t srcRows, const int32_t *rows,
                    int32_t count)
{
    MESO_REQUIRE(count > 0, "gather-reduce over no rows");
    const kernels::Table *k = vectorKernels();
    for (int32_t i = 0; i < count; ++i) {
        MESO_REQUIRE(rows[i] >= 0 && rows[i] < srcRows,
                     "gather index " << rows[i] << " of " << srcRows);
        const float *row = src + static_cast<int64_t>(rows[i]) * stride;
        if (i == 0)
            std::copy(row, row + cols, dst);
        else
            maxIntoRow(k, dst, row, cols);
    }
}

// ---------------------------------------------------------------------
// Quantized PFT kernels (see ops.hpp for the numerics contract).
// ---------------------------------------------------------------------

namespace {

/** Sign-extend a two's-complement nibble n in [0, 15] to int8. */
inline int8_t
nibbleToI8(uint8_t n)
{
    return static_cast<int8_t>((n ^ 8u) - 8);
}

/** Quantize one row: dst[c] = clamp(nearbyint(src[c] * invScale),
 *  -lim, lim). The clamp runs in the float domain before conversion —
 *  scalar std::min(lim, std::max(-lim, t)) and vector
 *  minOrdered(lim, maxOrdered(-lim, t)) agree bitwise, including
 *  NaN -> -lim. */
inline void
quantizeRowI8(const kernels::Table *k, int8_t *dst, const float *src,
              int32_t cols, float invScale, float lim)
{
    for (int32_t c = k ? k->quantizeRowI8(dst, src, cols, invScale, lim) : 0;
         c < cols; ++c) {
        float t = src[c] * invScale;
        t = std::min(lim, std::max(-lim, t));
        dst[c] = static_cast<int8_t>(
            static_cast<int32_t>(std::nearbyintf(t)));
    }
}

} // namespace

void
quantizeRowsI8(int8_t *dst, int64_t dstStride, const float *src,
               int64_t srcStride, int64_t rows, int32_t cols,
               float scale)
{
    MESO_REQUIRE(scale > 0.0f && std::isfinite(scale),
                 "int8 quantization scale " << scale);
    MESO_REQUIRE(dstStride >= cols && srcStride >= cols,
                 "quantizeRowsI8 strides " << dstStride << "/"
                                           << srcStride << " for "
                                           << cols << " cols");
    float invScale = 1.0f / scale;
    const kernels::Table *k = vectorKernels();
    for (int64_t r = 0; r < rows; ++r)
        quantizeRowI8(k, dst + r * dstStride, src + r * srcStride, cols,
                      invScale, 127.0f);
}

void
quantizeRowsI4(uint8_t *dst, int64_t dstStrideBytes, const float *src,
               int64_t srcStride, int64_t rows, int32_t cols,
               float scale)
{
    MESO_REQUIRE(scale > 0.0f && std::isfinite(scale),
                 "int4 quantization scale " << scale);
    MESO_REQUIRE(dstStrideBytes >= (cols + 1) / 2 && srcStride >= cols,
                 "quantizeRowsI4 strides " << dstStrideBytes << "B/"
                                           << srcStride << " for "
                                           << cols << " cols");
    float invScale = 1.0f / scale;
    // Quantize an even-sized chunk to int8 (shared, parity-tested
    // kernel), then pack nibble pairs — the float->int conversion
    // dominates; the integer pack is exact in any form.
    constexpr int32_t kChunk = 64;
    int8_t tmp[kChunk + 1];
    const kernels::Table *k = vectorKernels();
    for (int64_t r = 0; r < rows; ++r) {
        const float *s = src + r * srcStride;
        uint8_t *d = dst + r * dstStrideBytes;
        for (int32_t c = 0; c < cols; c += kChunk) {
            int32_t n = std::min(kChunk, cols - c);
            quantizeRowI8(k, tmp, s + c, n, invScale, 7.0f);
            if (n & 1)
                tmp[n] = 0; // odd trailing column: high nibble stays 0
            for (int32_t j = 0; j < n; j += 2)
                d[(c + j) >> 1] = static_cast<uint8_t>(
                    (tmp[j] & 0x0F) | ((tmp[j + 1] & 0x0F) << 4));
        }
    }
}

void
dequantizeRowI8(float *dst, const int8_t *src, int32_t cols, float scale)
{
    for (int32_t c = 0; c < cols; ++c)
        dst[c] = static_cast<float>(src[c]) * scale;
}

void
dequantizeRowI4(float *dst, const uint8_t *src, int32_t cols, float scale)
{
    for (int32_t c = 0; c < cols; ++c) {
        uint8_t b = src[c >> 1];
        uint8_t n = (c & 1) ? static_cast<uint8_t>(b >> 4)
                            : static_cast<uint8_t>(b & 0x0F);
        dst[c] = static_cast<float>(nibbleToI8(n)) * scale;
    }
}

void
gatherMaxReduceI8Into(float *dst, const int8_t *src, int64_t stride,
                      int32_t cols, int32_t srcRows, const int32_t *rows,
                      int32_t count, float scale)
{
    MESO_REQUIRE(count > 0, "gather-reduce over no rows");
    MESO_REQUIRE(stride >= cols, "gatherMaxReduceI8Into stride "
                                     << stride << " < " << cols);
    for (int32_t i = 0; i < count; ++i)
        MESO_REQUIRE(rows[i] >= 0 && rows[i] < srcRows,
                     "gather index " << rows[i] << " of " << srcRows);
    const kernels::Table *k = vectorKernels();
    for (int32_t c = k ? k->gatherMaxI8(dst, src, stride, cols, rows, count,
                                        scale)
                       : 0;
         c < cols; ++c) {
        int8_t m = src[static_cast<int64_t>(rows[0]) * stride + c];
        for (int32_t i = 1; i < count; ++i)
            m = std::max(
                m, src[static_cast<int64_t>(rows[i]) * stride + c]);
        dst[c] = static_cast<float>(m) * scale;
    }
}

void
gatherMaxReduceI4Into(float *dst, const uint8_t *src, int64_t strideBytes,
                      int32_t cols, int32_t srcRows, const int32_t *rows,
                      int32_t count, float scale)
{
    MESO_REQUIRE(count > 0, "gather-reduce over no rows");
    MESO_REQUIRE(strideBytes * 2 >= cols,
                 "gatherMaxReduceI4Into stride " << strideBytes
                                                 << "B < " << cols
                                                 << " cols");
    for (int32_t i = 0; i < count; ++i)
        MESO_REQUIRE(rows[i] >= 0 && rows[i] < srcRows,
                     "gather index " << rows[i] << " of " << srcRows);
    // The vector kernel covers whole bytes (output columns 2cb, 2cb+1).
    const kernels::Table *k = vectorKernels();
    const int32_t cb = k ? k->gatherMaxI4(dst, src, strideBytes, cols, rows,
                                          count, scale)
                         : 0;
    for (int32_t c = 2 * cb; c < cols; ++c) {
        int32_t byteIdx = c >> 1;
        auto nib = [&](int32_t row) {
            uint8_t b =
                src[static_cast<int64_t>(row) * strideBytes + byteIdx];
            uint8_t n = (c & 1) ? static_cast<uint8_t>(b >> 4)
                                : static_cast<uint8_t>(b & 0x0F);
            return nibbleToI8(n);
        };
        int8_t m = nib(rows[0]);
        for (int32_t i = 1; i < count; ++i)
            m = std::max(m, nib(rows[i]));
        dst[c] = static_cast<float>(m) * scale;
    }
}

std::vector<int32_t>
argmaxReduceRows(const Tensor &x)
{
    MESO_REQUIRE(x.rows() > 0, "argmax of empty tensor");
    std::vector<int32_t> out(x.cols(), 0);
    for (int32_t r = 1; r < x.rows(); ++r) {
        const float *row = x.row(r);
        for (int32_t c = 0; c < x.cols(); ++c) {
            if (row[c] > x(out[c], c))
                out[c] = r;
        }
    }
    return out;
}

Tensor
gatherRows(const Tensor &x, const std::vector<int32_t> &idx)
{
    Tensor out(static_cast<int32_t>(idx.size()), x.cols());
    for (size_t i = 0; i < idx.size(); ++i) {
        MESO_REQUIRE(idx[i] >= 0 && idx[i] < x.rows(),
                     "gather index " << idx[i] << " of " << x.rows());
        const float *src = x.row(idx[i]);
        float *dst = out.row(static_cast<int32_t>(i));
        std::copy(src, src + x.cols(), dst);
    }
    return out;
}

Tensor
subtractRow(const Tensor &x, const Tensor &sub)
{
    Tensor y = x;
    subtractRowInPlace(y, sub);
    return y;
}

void
subtractRowInPlace(Tensor &x, const Tensor &sub)
{
    MESO_REQUIRE(sub.rows() == 1 && sub.cols() == x.cols(),
                 "subtract row " << sub.shapeStr() << " from "
                                 << x.shapeStr());
    const float *s = sub.row(0);
    const kernels::Table *k = vectorKernels();
    for (int32_t r = 0; r < x.rows(); ++r) {
        float *row = x.row(r);
        for (int32_t c = k ? k->subtractRow(row, s, x.cols()) : 0;
             c < x.cols(); ++c)
            row[c] -= s[c];
    }
}

Tensor
concatCols(const Tensor &a, const Tensor &b)
{
    MESO_REQUIRE(a.rows() == b.rows(), "concatCols " << a.shapeStr()
                                                     << " | "
                                                     << b.shapeStr());
    Tensor out(a.rows(), a.cols() + b.cols());
    for (int32_t r = 0; r < a.rows(); ++r) {
        std::copy(a.row(r), a.row(r) + a.cols(), out.row(r));
        std::copy(b.row(r), b.row(r) + b.cols(), out.row(r) + a.cols());
    }
    return out;
}

Tensor
concatRows(const Tensor &a, const Tensor &b)
{
    MESO_REQUIRE(a.cols() == b.cols(), "concatRows " << a.shapeStr()
                                                     << " ; "
                                                     << b.shapeStr());
    Tensor out(a.rows() + b.rows(), a.cols());
    for (int32_t r = 0; r < a.rows(); ++r)
        std::copy(a.row(r), a.row(r) + a.cols(), out.row(r));
    for (int32_t r = 0; r < b.rows(); ++r)
        std::copy(b.row(r), b.row(r) + b.cols(), out.row(a.rows() + r));
    return out;
}

Tensor
softmaxRows(const Tensor &x)
{
    Tensor y(x.rows(), x.cols());
    for (int32_t r = 0; r < x.rows(); ++r) {
        const float *in = x.row(r);
        float *out = y.row(r);
        float mx = in[0];
        for (int32_t c = 1; c < x.cols(); ++c)
            mx = std::max(mx, in[c]);
        float sum = 0.0f;
        for (int32_t c = 0; c < x.cols(); ++c) {
            out[c] = std::exp(in[c] - mx);
            sum += out[c];
        }
        for (int32_t c = 0; c < x.cols(); ++c)
            out[c] /= sum;
    }
    return y;
}

Tensor
transpose(const Tensor &x)
{
    Tensor y(x.cols(), x.rows());
    for (int32_t r = 0; r < x.rows(); ++r)
        for (int32_t c = 0; c < x.cols(); ++c)
            y(c, r) = x(r, c);
    return y;
}

} // namespace mesorasi::tensor
