#include "tensor/init.hpp"

#include <cmath>

namespace mesorasi::tensor {

Tensor
xavierUniform(Rng &rng, int32_t rows, int32_t cols)
{
    float a = std::sqrt(6.0f / (rows + cols));
    return uniform(rng, rows, cols, -a, a);
}

Tensor
kaimingNormal(Rng &rng, int32_t rows, int32_t cols)
{
    Tensor t(rows, cols);
    float stddev = std::sqrt(2.0f / rows);
    for (int32_t r = 0; r < rows; ++r)
        for (int32_t c = 0; c < cols; ++c)
            t(r, c) = rng.gaussian(0.0f, stddev);
    return t;
}

PanelMatrix
xavierUniformPanels(Rng &rng, int32_t rows, int32_t cols)
{
    float a = std::sqrt(6.0f / (rows + cols));
    return PanelMatrix::generate(rows, cols,
                                 [&] { return rng.uniform(-a, a); });
}

PanelMatrix
kaimingNormalPanels(Rng &rng, int32_t rows, int32_t cols)
{
    float stddev = std::sqrt(2.0f / rows);
    return PanelMatrix::generate(
        rows, cols, [&] { return rng.gaussian(0.0f, stddev); });
}

Tensor
uniform(Rng &rng, int32_t rows, int32_t cols, float lo, float hi)
{
    Tensor t(rows, cols);
    for (int32_t r = 0; r < rows; ++r)
        for (int32_t c = 0; c < cols; ++c)
            t(r, c) = rng.uniform(lo, hi);
    return t;
}

Tensor
constant(int32_t rows, int32_t cols, float value)
{
    Tensor t(rows, cols);
    t.fill(value);
    return t;
}

Tensor
identity(int32_t n)
{
    Tensor t(n, n);
    for (int32_t i = 0; i < n; ++i)
        t(i, i) = 1.0f;
    return t;
}

} // namespace mesorasi::tensor
