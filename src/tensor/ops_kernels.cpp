// One copy of the tensor vector kernels, compiled once per ISA (see
// ops_kernels.hpp). Only register code lives here: the scalar oracles,
// tails and checks stay in ops.cpp, and nothing here calls an inline
// function shared with the other copies, so each copy's code stays in
// its own namespace.
#include "tensor/ops_kernels.hpp"

#include "common/simd_vec.hpp"

#if defined(MESORASI_ISA)

namespace mesorasi::tensor::kernels::MESORASI_ISA {

namespace {

using namespace simd::MESORASI_ISA;

constexpr int W = kWidth;

// The panel covers whole 4-vector tiles of this copy: two tiles per
// panel on SSE2 and NEON under a 32-wide panel, one on AVX2.
static_assert(kPanelWidth % (4 * W) == 0, "panel width per lane width");

// ---------------------------------------------------------------------
// Matmul (the contract is on ops.hpp's matmulInto). Each output element
// c[r][j] is summed over ascending k with mul then add (no FMA) from
// +0, like the scalar oracle. Tiles keep the oracle's skip of
// a[r][k] == 0 on single rows and over a B that may hold a non-finite
// value; multi-row tiles over a finite B add the product instead, which
// is exact: under round-to-nearest a sum seeded with +0 never becomes
// -0, so adding 0 * w = +-0 for a finite w changes no accumulator bit.
// Lanes across j are independent elements and register blocking across
// rows only shares the B loads, so every copy is bitwise identical to
// the oracle whatever its width.
// ---------------------------------------------------------------------

/**
 * One register tile: R rows x TJ vectors, accumulated in registers over
 * all of K, each B load shared by the R rows. @p Skip keeps the per-row
 * zero test. R=2 x TJ=4 holds 8 accumulators and 4 B vectors, which
 * fits the 16 vector registers of SSE2, AVX2 and NEON.
 */
template <int R, int TJ, bool Skip>
inline void
panelTile(float *const crow[R], const float *const arow[R],
          const float *b, int64_t kStride, int32_t K)
{
    VecF acc[R][TJ];
    for (int r = 0; r < R; ++r)
        for (int t = 0; t < TJ; ++t)
            acc[r][t] = VecF::zero();
    for (int32_t k = 0; k < K; ++k, b += kStride) {
        VecF bv[TJ];
        for (int t = 0; t < TJ; ++t)
            bv[t] = VecF::load(b + t * W);
        for (int r = 0; r < R; ++r) {
            float av = arow[r][k];
            if (Skip && av == 0.0f)
                continue;
            VecF v = VecF::broadcast(av);
            for (int t = 0; t < TJ; ++t)
                acc[r][t] = add(acc[r][t], mul(v, bv[t]));
        }
    }
    for (int r = 0; r < R; ++r)
        for (int t = 0; t < TJ; ++t)
            acc[r][t].store(crow[r] + t * W);
}

/** R rows against the panel holding columns [j0, j0 + kPanelWidth):
 *  4-vector tiles while they fit, then 1-vector tiles. The last
 *  width % W columns of a narrower last panel are left to the oracle. */
template <int R, bool Skip>
inline void
panelRows(float *dst, int64_t dstStride, const float *a, int64_t aStride,
          const MatrixView &b, int32_t j0)
{
    const float *arow[R];
    float *crow[R];
    for (int r = 0; r < R; ++r) {
        arow[r] = a + static_cast<int64_t>(r) * aStride;
        crow[r] = dst + static_cast<int64_t>(r) * dstStride + j0;
    }
    const float *panel = b.data + (j0 / kPanelWidth) * b.panelStride;
    const int32_t width =
        b.cols - j0 < kPanelWidth ? b.cols - j0 : kPanelWidth;
    float *c[R];
    int32_t j = 0;
    for (; j + 4 * W <= width; j += 4 * W) {
        for (int r = 0; r < R; ++r)
            c[r] = crow[r] + j;
        panelTile<R, 4, Skip>(c, arow, panel + j, b.kStride, b.rows);
    }
    for (; j + W <= width; j += W) {
        for (int r = 0; r < R; ++r)
            c[r] = crow[r] + j;
        panelTile<R, 1, Skip>(c, arow, panel + j, b.kStride, b.rows);
    }
}

/**
 * The loop order goes with the tiles. Branchless tiles (a finite B) run
 * panel-outer: each panel stays cache-resident while every row pair of
 * the block runs against it, so B streams in once. Skipping tiles run
 * row-outer: a row pair's zero pattern then replays across every
 * panel, which the branch predictor learns; panel-outer, the same skip
 * ran about 2x slower. A leftover odd row takes a 1-row skipping tile
 * either way.
 */
int32_t
matmul(float *dst, int64_t dstStride, const float *a, int64_t aStride,
       int32_t rows, const MatrixView &b)
{
    auto tile = [&](int32_t r, int32_t j0) {
        float *d = dst + static_cast<int64_t>(r) * dstStride;
        const float *s = a + static_cast<int64_t>(r) * aStride;
        if (r + 1 == rows)
            panelRows<1, true>(d, dstStride, s, aStride, b, j0);
        else if (b.finite)
            panelRows<2, false>(d, dstStride, s, aStride, b, j0);
        else
            panelRows<2, true>(d, dstStride, s, aStride, b, j0);
    };
    if (b.finite) {
        for (int32_t j0 = 0; j0 < b.cols; j0 += kPanelWidth)
            for (int32_t r = 0; r < rows; r += 2)
                tile(r, j0);
    } else {
        for (int32_t r = 0; r < rows; r += 2)
            for (int32_t j0 = 0; j0 < b.cols; j0 += kPanelWidth)
                tile(r, j0);
    }
    return b.cols - b.cols % W;
}

// ---------------------------------------------------------------------
// Column-wise max and the elementwise epilogues. maxOrdered and relu
// replicate std::max bit-for-bit, so NaN and signed-zero behavior
// matches the oracle.
// ---------------------------------------------------------------------

/** Unrolled 4 wide so the loop overhead matches what the compiler
 *  gives the scalar oracle. */
int32_t
maxIntoRow(float *dst, const float *src, int32_t cols)
{
    int32_t c = 0;
    for (; c + 4 * W <= cols; c += 4 * W) {
        maxOrdered(VecF::load(dst + c), VecF::load(src + c)).store(dst + c);
        maxOrdered(VecF::load(dst + c + W), VecF::load(src + c + W))
            .store(dst + c + W);
        maxOrdered(VecF::load(dst + c + 2 * W), VecF::load(src + c + 2 * W))
            .store(dst + c + 2 * W);
        maxOrdered(VecF::load(dst + c + 3 * W), VecF::load(src + c + 3 * W))
            .store(dst + c + 3 * W);
    }
    for (; c + W <= cols; c += W)
        maxOrdered(VecF::load(dst + c), VecF::load(src + c)).store(dst + c);
    return c;
}

int64_t
biasRelu(float *row, int64_t cols, const float *bias, bool applyRelu)
{
    int64_t c = 0;
    for (; c + W <= cols; c += W) {
        VecF v = VecF::load(row + c);
        if (bias)
            v = add(v, VecF::load(bias + c));
        if (applyRelu)
            v = relu(v);
        v.store(row + c);
    }
    return c;
}

int32_t
scaleShift(float *row, const float *scale, const float *shift, int32_t cols)
{
    int32_t c = 0;
    for (; c + W <= cols; c += W)
        add(mul(VecF::load(row + c), VecF::load(scale + c)),
            VecF::load(shift + c))
            .store(row + c);
    return c;
}

int32_t
subtractRow(float *row, const float *s, int32_t cols)
{
    int32_t c = 0;
    for (; c + W <= cols; c += W)
        sub(VecF::load(row + c), VecF::load(s + c)).store(row + c);
    return c;
}

// ---------------------------------------------------------------------
// Quantized PFT kernels (the numerics contract is on ops.hpp).
// ---------------------------------------------------------------------

/** The clamp runs in the float domain before conversion:
 *  minOrdered(lim, maxOrdered(-lim, t)) agrees bitwise with the
 *  oracle's std::min(lim, std::max(-lim, t)), including NaN -> -lim. */
int32_t
quantizeRowI8(int8_t *dst, const float *src, int32_t cols, float invScale,
              float lim)
{
    VecF vinv = VecF::broadcast(invScale);
    VecF vlo = VecF::broadcast(-lim);
    VecF vhi = VecF::broadcast(lim);
    int32_t c = 0;
    for (; c + W <= cols; c += W) {
        VecF t = mul(VecF::load(src + c), vinv);
        t = minOrdered(vhi, maxOrdered(vlo, t));
        cvtF32ToI8(t, dst + c);
    }
    return c;
}

/** Column tiles held in a register accumulator across the row loop:
 *  int8 max is exact, so the transposed traversal is bitwise equal to
 *  the oracle's column loop. Every int8 value is exactly representable
 *  in f32, so the single dequantize per output element agrees too. */
int32_t
gatherMaxI8(float *dst, const int8_t *src, int64_t stride, int32_t cols,
            const int32_t *rows, int32_t count, float scale)
{
    int8_t tmp[kWidthB];
    int32_t c = 0;
    for (; c + kWidthB <= cols; c += kWidthB) {
        VecB acc =
            VecB::load(src + static_cast<int64_t>(rows[0]) * stride + c);
        for (int32_t i = 1; i < count; ++i)
            acc = maxI8(acc, VecB::load(src +
                                        static_cast<int64_t>(rows[i]) *
                                            stride +
                                        c));
        acc.store(tmp);
        for (int32_t e = 0; e < kWidthB; ++e)
            dst[c + e] = static_cast<float>(tmp[e]) * scale;
    }
    return c;
}

/** Each loaded byte carries two columns: accumulate the low and high
 *  nibble planes separately (sign-extend n via (n ^ 8) - 8 in the byte
 *  domain), dequantize once per output element. */
int32_t
gatherMaxI4(float *dst, const uint8_t *src, int64_t strideBytes,
            int32_t cols, const int32_t *rows, int32_t count, float scale)
{
    const int32_t fullBytes = cols / 2;
    const VecB mask = VecB::broadcast(0x0F);
    const VecB bias = VecB::broadcast(8);
    auto sx = [&](VecB n) { return subI8(xorB(n, bias), bias); };
    int8_t lo[kWidthB], hi[kWidthB];
    int32_t cb = 0;
    for (; cb + kWidthB <= fullBytes; cb += kWidthB) {
        VecB b0 = VecB::load(
            src + static_cast<int64_t>(rows[0]) * strideBytes + cb);
        VecB accLo = sx(andB(b0, mask));
        VecB accHi = sx(srl4(b0));
        for (int32_t i = 1; i < count; ++i) {
            VecB b = VecB::load(
                src + static_cast<int64_t>(rows[i]) * strideBytes + cb);
            accLo = maxI8(accLo, sx(andB(b, mask)));
            accHi = maxI8(accHi, sx(srl4(b)));
        }
        accLo.store(lo);
        accHi.store(hi);
        for (int32_t e = 0; e < kWidthB; ++e) {
            dst[2 * (cb + e)] = static_cast<float>(lo[e]) * scale;
            dst[2 * (cb + e) + 1] = static_cast<float>(hi[e]) * scale;
        }
    }
    return cb;
}

} // namespace

const Table kTable = {matmul,     maxIntoRow,    biasRelu,
                      scaleShift, subtractRow,   quantizeRowI8,
                      gatherMaxI8, gatherMaxI4};

} // namespace mesorasi::tensor::kernels::MESORASI_ISA

#endif // MESORASI_ISA
