/**
 * @file
 * Column-panel storage for the right-hand factor of a matmul.
 *
 * Every F step multiplies activation rows by a weight matrix B (K x N).
 * The SIMD kernel (tensor/ops.hpp) holds register tiles of a few rows
 * by one panel of P = kPanelWidth columns (one tile on AVX2, two
 * narrower ones on SSE2) and walks all of K. Stored
 * row-major, that walk reads B in P-float slices N floats apart, so a
 * large weight is re-streamed from far caches for every tile. A
 * PanelMatrix instead stores B as ceil(N / P) column panels of K x P
 * floats, the classic GEMM weight packing (Goto and van de Geijn,
 * "Anatomy of High-Performance Matrix Multiplication", ACM TOMS 2008):
 * a tile reads one contiguous panel, which stays cache-resident while
 * the kernel runs every row of the block against it. The last panel is
 * zero-padded to P columns; the kernel never reads or writes past N.
 *
 * Packing moves values, never changes them: each element is copied or
 * drawn once, in row-major order, and readers that need row-major
 * values (artifact save, the EdgeConv weight split) get them back
 * exactly through at() and view().
 */
#pragma once

#include <cstdint>
#include <vector>

#include "common/simd.hpp"
#include "tensor/tensor.hpp"

namespace mesorasi::tensor {

/** Panel width P in floats: four registers of the widest compiled lane
 *  width (32 on x86-64, 16 on AArch64, 4 with no vector copy). It does
 *  not depend on the dispatched copy, so weights are packed once and
 *  every copy runs over the same panels: AVX2 covers a 32-wide panel
 *  with one 4-register tile, SSE2 with two. */
inline constexpr int32_t kPanelWidth = 4 * simd::kMaxWidth;

/**
 * Read-only view of the right-hand factor B (K x N) of a matmul.
 * Element (k, j) lives at
 *
 *   data[(j / kPanelWidth) * panelStride + k * kStride + j % kPanelWidth]
 *
 * A row-major matrix with leading dimension ld is the view with
 * kStride = ld and panelStride = kPanelWidth; a PanelMatrix is the view
 * with kStride = kPanelWidth and panelStride = K * kPanelWidth.
 *
 * @p finite promises that no element is NaN or infinite. It is what
 * lets the kernel drop its zero skip (see matmulInto), so it is set
 * once, where the matrix is packed or an engine weight is baked, and
 * never guessed: a view built without that knowledge says false.
 */
struct MatrixView
{
    const float *data = nullptr;
    int32_t rows = 0; ///< K
    int32_t cols = 0; ///< N
    int64_t kStride = 0;
    int64_t panelStride = 0;
    bool finite = false;

    /** First element of column panel @p p (columns p*P .. p*P+P). */
    const float *
    panel(int32_t p) const
    {
        return data + p * panelStride;
    }
};

/** View of a row-major tensor. A Tensor carries no finiteness record,
 *  so pass what the caller knows (allFinite, checked once). */
MatrixView rowMajorView(const Tensor &t, bool finite);

/** True when none of the @p n floats at @p data is NaN or infinite. */
bool allFinite(const float *data, int64_t n);

/** A K x N matrix stored as zero-padded K x kPanelWidth column panels.
 *  Immutable once built, so its finiteness record cannot go stale. */
class PanelMatrix
{
  public:
    PanelMatrix() = default;

    /** Pack the row-major @p rows x @p cols floats at @p src. @p src
     *  need not be float-aligned (it may point into artifact bytes):
     *  rows are copied with memcpy. */
    PanelMatrix(int32_t rows, int32_t cols, const void *src);

    /** Pack a row-major tensor. */
    explicit PanelMatrix(const Tensor &t);

    /** A @p rows x @p cols matrix whose elements are successive
     *  @p draw() results in row-major order, written straight into
     *  their panel slots: the same draws, in the same order, as filling
     *  a row-major Tensor element by element. */
    template <class Draw>
    static PanelMatrix
    generate(int32_t rows, int32_t cols, Draw &&draw)
    {
        PanelMatrix m(rows, cols);
        for (int32_t k = 0; k < rows; ++k)
            for (int32_t j = 0; j < cols; ++j)
                m.data_[m.index(k, j)] = draw();
        m.finite_ = allFinite(m.data_.data(),
                              static_cast<int64_t>(m.data_.size()));
        return m;
    }

    int32_t rows() const { return rows_; }
    int32_t cols() const { return cols_; }
    /** Logical element count rows x cols (padding excluded). */
    int64_t numel() const { return static_cast<int64_t>(rows_) * cols_; }
    /** True when no element is NaN or infinite. */
    bool finite() const { return finite_; }

    float at(int32_t k, int32_t j) const { return data_[index(k, j)]; }

    /** The row-major matrix (a copy; for readers off the hot path). */
    Tensor toTensor() const;

    MatrixView view() const;

  private:
    /** Zeroed storage for @p rows x @p cols. */
    PanelMatrix(int32_t rows, int32_t cols);

    size_t
    index(int32_t k, int32_t j) const
    {
        return static_cast<size_t>(j / kPanelWidth) * rows_ * kPanelWidth +
               static_cast<size_t>(k) * kPanelWidth + j % kPanelWidth;
    }

    int32_t rows_ = 0;
    int32_t cols_ = 0;
    bool finite_ = true;
    std::vector<float> data_;
};

} // namespace mesorasi::tensor
