/**
 * @file
 * A fully-connected layer with optional bias and activation.
 */
#pragma once

#include <cstdint>

#include "common/rng.hpp"
#include "tensor/panel_matrix.hpp"
#include "tensor/tensor.hpp"

namespace mesorasi::nn {

/** Activation applied after the affine transform. */
enum class Activation
{
    None, ///< identity — makes delayed-aggregation *exact*
    Relu, ///< the paper's default nonlinearity
};

/**
 * y = act(x * W + b). Weights are In x Out; inputs are batched rows
 * (N x In -> N x Out). W is stored once, as matmul column panels
 * (tensor/panel_matrix.hpp), built straight from its source; its
 * finiteness is recorded when it is packed, which is why a layer's
 * parameters are immutable after construction.
 */
class Linear
{
  public:
    /** Randomly initialized layer (Kaiming for ReLU, Xavier otherwise). */
    Linear(Rng &rng, int32_t inDim, int32_t outDim,
           Activation act = Activation::Relu, bool useBias = true);

    /** Layer with explicit parameters (bias may be empty for no bias). */
    Linear(tensor::PanelMatrix weight, tensor::Tensor bias,
           Activation act = Activation::Relu);

    /** Same, packing a row-major weight tensor. */
    Linear(const tensor::Tensor &weight, tensor::Tensor bias,
           Activation act = Activation::Relu);

    /** Forward pass over batched rows. */
    tensor::Tensor forward(const tensor::Tensor &x) const;

    /** Forward without the activation (used by Ltd-Mesorasi hoisting). */
    tensor::Tensor forwardLinearOnly(const tensor::Tensor &x) const;

    int32_t inDim() const { return weight_.rows(); }
    int32_t outDim() const { return weight_.cols(); }
    Activation activation() const { return act_; }
    bool hasBias() const { return !bias_.empty(); }

    /** The weight as matmul panels: at(in, out) reads one element,
     *  view() feeds the kernel. */
    const tensor::PanelMatrix &panels() const { return weight_; }
    const tensor::Tensor &bias() const { return bias_; }

    /** MACs for a batch of @p numRows input rows. */
    int64_t macs(int64_t numRows) const;

    /** Parameter bytes (weights + bias). */
    int64_t paramBytes() const;

  private:
    tensor::PanelMatrix weight_;
    tensor::Tensor bias_;
    Activation act_;
};

} // namespace mesorasi::nn
