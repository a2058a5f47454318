#include "tensor/panel_matrix.hpp"

#include <cstring>

namespace mesorasi::tensor {

MatrixView
rowMajorView(const Tensor &t, bool finite)
{
    return MatrixView{t.data(), t.rows(), t.cols(), t.cols(), kPanelWidth,
                      finite};
}

bool
allFinite(const float *data, int64_t n)
{
    // An all-ones exponent is exactly NaN or +-Inf. Testing the bits
    // with no early exit lets the loop vectorize: it runs over every
    // weight of a network at load.
    uint32_t nonFinite = 0;
    for (int64_t i = 0; i < n; ++i) {
        uint32_t bits;
        std::memcpy(&bits, data + i, sizeof bits);
        nonFinite |= (bits & 0x7f800000u) == 0x7f800000u;
    }
    return nonFinite == 0;
}

PanelMatrix::PanelMatrix(int32_t rows, int32_t cols)
    : rows_(rows), cols_(cols)
{
    MESO_REQUIRE(rows >= 0 && cols >= 0,
                 "bad shape " << rows << "x" << cols);
    int64_t panels = (cols + kPanelWidth - 1) / kPanelWidth;
    data_.assign(static_cast<size_t>(panels * rows * kPanelWidth), 0.0f);
}

PanelMatrix::PanelMatrix(int32_t rows, int32_t cols, const void *src)
    : PanelMatrix(rows, cols)
{
    const auto *bytes = static_cast<const unsigned char *>(src);
    for (int32_t k = 0; k < rows; ++k) {
        const unsigned char *row =
            bytes + static_cast<size_t>(k) * cols * sizeof(float);
        // Full panels copy a constant size, which compiles to plain
        // vector moves; only the last, narrower one calls memcpy.
        int32_t j0 = 0;
        for (; j0 + kPanelWidth <= cols; j0 += kPanelWidth)
            std::memcpy(&data_[index(k, j0)], row + j0 * sizeof(float),
                        kPanelWidth * sizeof(float));
        if (j0 < cols)
            std::memcpy(&data_[index(k, j0)], row + j0 * sizeof(float),
                        static_cast<size_t>(cols - j0) * sizeof(float));
    }
    finite_ = allFinite(data_.data(), static_cast<int64_t>(data_.size()));
}

PanelMatrix::PanelMatrix(const Tensor &t)
    : PanelMatrix(t.rows(), t.cols(), t.data())
{
}

Tensor
PanelMatrix::toTensor() const
{
    Tensor t(rows_, cols_);
    for (int32_t k = 0; k < rows_; ++k)
        for (int32_t j = 0; j < cols_; ++j)
            t(k, j) = at(k, j);
    return t;
}

MatrixView
PanelMatrix::view() const
{
    return MatrixView{data_.data(),
                      rows_,
                      cols_,
                      kPanelWidth,
                      static_cast<int64_t>(rows_) * kPanelWidth,
                      finite_};
}

} // namespace mesorasi::tensor
