#include "nn/linear.hpp"

#include "tensor/init.hpp"
#include "tensor/ops.hpp"

namespace mesorasi::nn {

Linear::Linear(Rng &rng, int32_t inDim, int32_t outDim, Activation act,
               bool useBias)
    : weight_(act == Activation::Relu
                  ? tensor::kaimingNormalPanels(rng, inDim, outDim)
                  : tensor::xavierUniformPanels(rng, inDim, outDim)),
      act_(act)
{
    if (useBias)
        bias_ = tensor::Tensor(1, outDim);
}

Linear::Linear(tensor::PanelMatrix weight, tensor::Tensor bias,
               Activation act)
    : weight_(std::move(weight)), bias_(std::move(bias)), act_(act)
{
    MESO_REQUIRE(bias_.empty() ||
                     (bias_.rows() == 1 && bias_.cols() == weight_.cols()),
                 "bias shape " << bias_.shapeStr() << " for weight "
                               << weight_.rows() << "x" << weight_.cols());
}

Linear::Linear(const tensor::Tensor &weight, tensor::Tensor bias,
               Activation act)
    : Linear(tensor::PanelMatrix(weight), std::move(bias), act)
{
}

tensor::Tensor
Linear::forward(const tensor::Tensor &x) const
{
    tensor::Tensor y = forwardLinearOnly(x);
    if (act_ == Activation::Relu)
        tensor::reluInPlace(y);
    return y;
}

tensor::Tensor
Linear::forwardLinearOnly(const tensor::Tensor &x) const
{
    tensor::Tensor y = tensor::matmul(x, weight_.view());
    if (!bias_.empty())
        tensor::addBiasInPlace(y, bias_);
    return y;
}

int64_t
Linear::macs(int64_t numRows) const
{
    return tensor::matmulMacs(numRows, inDim(), outDim());
}

int64_t
Linear::paramBytes() const
{
    return weight_.numel() * static_cast<int64_t>(sizeof(float)) +
           bias_.bytes();
}

} // namespace mesorasi::nn
