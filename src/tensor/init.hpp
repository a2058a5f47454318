/**
 * @file
 * Deterministic weight initializers.
 */
#pragma once

#include "common/rng.hpp"
#include "tensor/panel_matrix.hpp"
#include "tensor/tensor.hpp"

namespace mesorasi::tensor {

/** Xavier/Glorot uniform: U(-a, a) with a = sqrt(6 / (fanIn + fanOut)). */
Tensor xavierUniform(Rng &rng, int32_t rows, int32_t cols);

/** Kaiming/He normal for ReLU layers: N(0, sqrt(2 / fanIn)). */
Tensor kaimingNormal(Rng &rng, int32_t rows, int32_t cols);

/** xavierUniform drawn straight into matmul panels: the same draws in
 *  the same order, so the values are bitwise those of xavierUniform. */
PanelMatrix xavierUniformPanels(Rng &rng, int32_t rows, int32_t cols);

/** kaimingNormal drawn straight into matmul panels (same draws). */
PanelMatrix kaimingNormalPanels(Rng &rng, int32_t rows, int32_t cols);

/** Uniform in [lo, hi). */
Tensor uniform(Rng &rng, int32_t rows, int32_t cols, float lo, float hi);

/** All-constant tensor. */
Tensor constant(int32_t rows, int32_t cols, float value);

/** Identity-like tensor (ones on the main diagonal). */
Tensor identity(int32_t n);

} // namespace mesorasi::tensor
