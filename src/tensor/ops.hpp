/**
 * @file
 * Tensor operations used by the point-cloud pipelines.
 *
 * Everything the original and delayed-aggregation pipelines need:
 * matmul, bias/activation, column-wise max reduction, gather/scatter by
 * index, row-wise subtract, and concatenation.
 */
#pragma once

#include <cstdint>
#include <vector>

#include "tensor/panel_matrix.hpp"
#include "tensor/tensor.hpp"

namespace mesorasi::tensor {

/** C = A (n x k) * B (k x m), output rows split over the global pool.
 *  B may be row-major or column panels (MatrixView). */
Tensor matmul(const Tensor &a, const MatrixView &b);

/** matmul over a row-major B. A Tensor carries no finiteness record,
 *  so every tile keeps the zero skip (see matmulInto). */
Tensor matmul(const Tensor &a, const Tensor &b);

/** Add a 1 x C bias row to every row of @p x in place. */
void addBiasInPlace(Tensor &x, const Tensor &bias);

/** Element-wise ReLU in place. */
void reluInPlace(Tensor &x);

/** Element-wise ReLU (copy). */
Tensor relu(const Tensor &x);

/**
 * Inference-mode batch normalization per column:
 * y = gamma * (x - mean) / sqrt(var + eps) + beta. All parameter tensors
 * are 1 x C.
 */
void batchNormInPlace(Tensor &x, const Tensor &gamma, const Tensor &beta,
                      const Tensor &mean, const Tensor &var,
                      float eps = 1e-5f);

/** Column-wise max over all rows: returns 1 x C. */
Tensor maxReduceRows(const Tensor &x);

/** Column-wise max over a subset of rows: returns 1 x C. */
Tensor maxReduceRows(const Tensor &x, const std::vector<int32_t> &rows);

// --- Fused workspace kernels ------------------------------------------
//
// The _Into variants write into caller-owned memory (typically a row of
// a preallocated output tensor or a Workspace buffer) and allocate
// nothing, so per-centroid hot loops stay free of allocator traffic.
// Results are bitwise identical to the allocating compositions they
// replace (gatherRows + maxReduceRows, matmul): same accumulation
// order, max is exact.

/**
 * Column-wise max over the contiguous row block
 * [rowBegin, rowBegin + numRows) of @p x, written to dst[0..cols).
 * Bitwise equal to maxReduceRows(x, {rowBegin, ...}), including its
 * -inf seed (NaNs on the right of std::max are dropped).
 */
void maxReduceRowsInto(float *dst, const Tensor &x, int32_t rowBegin,
                       int32_t numRows);

/**
 * Fused gather + column-wise max: dst[c] = max_i src(rows[i], c),
 * without materializing the K x M gathered group. Bitwise equal to
 * maxReduceRows(gatherRows(src, rows)), including its first-row seed
 * (a NaN in the first gathered row propagates, as there).
 */
void gatherMaxReduceInto(float *dst, const Tensor &src,
                         const std::vector<int32_t> &rows);

// --- Raw-span twins ---------------------------------------------------
//
// Compiled execution plans (core/plan) keep their intermediates in a
// flat liveness-planned arena rather than in Tensors, so the reduce
// kernels they run need raw (pointer + stride) sources. Each twin
// shares the Tensor overload's inner kernel (same seed, same
// accumulation order), so results stay bitwise identical to the
// sequential reference executor.

/** maxReduceRowsInto over a raw row block: column-wise max of numRows
 *  rows of src (stride floats apart), -inf seed, written to
 *  dst[0..cols). */
void maxReduceRowsInto(float *dst, const float *src, int64_t stride,
                       int32_t cols, int32_t numRows);

/** maxReduceRows(x) over a raw row block: first-row seed (bitwise like
 *  the Tensor overload), then column-wise max of the remaining rows. */
void maxReduceAllRowsInto(float *dst, const float *src, int64_t stride,
                          int32_t cols, int32_t numRows);

/** gatherMaxReduceInto from a raw source: dst[c] = max_i
 *  src[rows[i]*stride + c], first-gathered-row seed. @p srcRows bounds
 *  the gather indices. */
void gatherMaxReduceInto(float *dst, const float *src, int64_t stride,
                         int32_t cols, int32_t srcRows,
                         const int32_t *rows, int32_t count);

/**
 * Strided-block matrix product into caller-owned memory:
 * for r in [0, rows): dst[r*dstStride .. +b.cols) =
 *   a[r*aStride .. +b.rows) * B, with B read through @p b.
 * The destination block is fully overwritten; strides are in floats and
 * must be >= the respective logical widths. Serial: it is the body of
 * already parallelized row-chunk loops, and allocates nothing.
 *
 * Kernel contract. There is one SIMD kernel, compiled once per ISA and
 * picked at runtime (common/simd.hpp), and one scalar oracle (the
 * forced-scalar path), and they are bitwise identical at every width.
 * All sum every output element over ascending k with mul then add,
 * from +0. The oracle skips k where a[r][k] == 0; it also computes the
 * last b.cols mod width columns for the SIMD kernel. The SIMD kernel
 * works in 2-row x 4-vector register tiles, in panel-wide steps (one
 * tile per 32-wide panel on AVX2, two on SSE2). When @p b is finite
 * those tiles drop the zero skip and run panel-outer, so each panel
 * stays cache-resident while every row pair runs against it. Dropping
 * the skip is exact: a sum seeded with +0 never becomes -0 under
 * round-to-nearest, so adding 0 * w = +-0 for a finite w changes no
 * accumulator bit. Single-row tiles, the oracle's column tails and
 * every tile of a non-finite view keep the skip, so 0 * Inf and 0 * NaN
 * never enter a sum in any path; a non-finite view runs row-outer,
 * where a row pair's zero pattern repeats across the panels and the
 * branch predictor learns it.
 */
void matmulInto(float *dst, int64_t dstStride, const float *a,
                int64_t aStride, int32_t rows, const MatrixView &b);

/** matmulInto over a row-major B, with the zero skip on every tile. */
void matmulInto(float *dst, int64_t dstStride, const float *a,
                int64_t aStride, int32_t rows, const Tensor &b);

/** matmulInto with the output rows split into chunks on the global pool,
 *  at the grain matmul() uses (about 1M MACs per chunk, so small
 *  products stay inline). Bitwise equal to matmulInto; allocates nothing
 *  when it runs inline. */
void matmulIntoParallel(float *dst, int64_t dstStride, const float *a,
                        int64_t aStride, int32_t rows,
                        const MatrixView &b);

/**
 * Fused bias + ReLU epilogue over a strided row block, in place:
 * row[c] = max(0, row[c] + bias[c]) with either part optional
 * (@p bias may be null, @p applyRelu may be false). One pass over the
 * block instead of separate bias and activation sweeps — the MLP
 * forward path runs this right after matmulInto so each activation row
 * is touched once while still cache-hot. Bitwise equal to
 * addBiasInPlace followed by reluInPlace over the same elements.
 */
void biasReluBlockInPlace(float *dst, int64_t stride, int32_t rows,
                          int32_t cols, const float *bias,
                          bool applyRelu);

// --- Quantized PFT kernels --------------------------------------------
//
// The delayed-aggregation gather is memory-bound: the AU streams NIT
// entries against PFT rows, so PFT bytes-per-entry dominate traffic.
// These kernels run the gather in symmetric int8 (4x fewer bytes) or
// packed int4 (8x): max commutes with the monotone affine quantizer
// q(x) = clamp(round(x / scale)), so the column max is taken in the
// integer domain and dequantized once per output element. Integer max
// is exact, so every SIMD copy and the forced-scalar path are bitwise
// identical (tests/test_quant.cpp memcmp parity); scales come from the
// calibration pass (quant/calibrate.hpp).

/**
 * Symmetric int8 row quantization: dst[r*dstStride + c] =
 * clamp(nearbyint(src[r*srcStride + c] / scale), -127, 127). NaN
 * inputs clamp to -127 in both paths (calibration rejects them
 * upstream); rounding is nearest-even, matching CVTPS2DQ under the
 * default rounding mode. Strides are elements.
 */
void quantizeRowsI8(int8_t *dst, int64_t dstStride, const float *src,
                    int64_t srcStride, int64_t rows, int32_t cols,
                    float scale);

/**
 * Packed-int4 row quantization: values clamp to [-7, 7] and columns
 * 2i / 2i+1 land in the low / high nibble of byte i (two's-complement
 * nibbles). @p dstStrideBytes is the destination row pitch in bytes
 * (>= ceil(cols/2)); an odd trailing column leaves its high nibble 0.
 */
void quantizeRowsI4(uint8_t *dst, int64_t dstStrideBytes,
                    const float *src, int64_t srcStride, int64_t rows,
                    int32_t cols, float scale);

/** dst[c] = (float)src[c] * scale — the int8 dequantize epilogue.
 *  Scalar by design: it runs once per output row and must be
 *  deterministic across SIMD modes. */
void dequantizeRowI8(float *dst, const int8_t *src, int32_t cols,
                     float scale);

/** Packed-int4 twin of dequantizeRowI8 (nibble layout as above). */
void dequantizeRowI4(float *dst, const uint8_t *src, int32_t cols,
                     float scale);

/** gatherMaxReduceInto over an int8 source: the column max runs
 *  entirely in int8 (exact), then each output element dequantizes once:
 *  dst[c] = (float)max_i src[rows[i]*stride + c] * scale. */
void gatherMaxReduceI8Into(float *dst, const int8_t *src, int64_t stride,
                           int32_t cols, int32_t srcRows,
                           const int32_t *rows, int32_t count,
                           float scale);

/** Packed-int4 twin: @p strideBytes is the source row pitch in bytes;
 *  nibbles are unpacked (sign-extended) in the gather inner loop. */
void gatherMaxReduceI4Into(float *dst, const uint8_t *src,
                           int64_t strideBytes, int32_t cols,
                           int32_t srcRows, const int32_t *rows,
                           int32_t count, float scale);

/** Column-wise argmax over all rows: returns per-column winning row. */
std::vector<int32_t> argmaxReduceRows(const Tensor &x);

/** Gather rows by index: out.row(i) = x.row(idx[i]). */
Tensor gatherRows(const Tensor &x, const std::vector<int32_t> &idx);

/** out.row(i) = x.row(i) - sub (1 x C), for all rows. */
Tensor subtractRow(const Tensor &x, const Tensor &sub);

/** In-place row subtract: x.row(r) -= sub for each row. */
void subtractRowInPlace(Tensor &x, const Tensor &sub);

/** Horizontal concat: [a | b], row counts must match. */
Tensor concatCols(const Tensor &a, const Tensor &b);

/** Vertical concat: [a ; b], column counts must match. */
Tensor concatRows(const Tensor &a, const Tensor &b);

/** Row-wise softmax (copy). */
Tensor softmaxRows(const Tensor &x);

/** Transpose. */
Tensor transpose(const Tensor &x);

/** MAC count of a matmul with these shapes. */
inline int64_t
matmulMacs(int64_t n, int64_t k, int64_t m)
{
    return n * k * m;
}

} // namespace mesorasi::tensor
