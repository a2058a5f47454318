/**
 * @file
 * Shared-weight multilayer perceptron.
 *
 * In point-cloud networks the same MLP is applied to every row vector of
 * every Neighbor Feature Matrix (paper Fig. 3), so the MLP processes
 * batched inputs as matrix-matrix products — which is exactly what maps
 * onto the NPU's systolic array.
 */
#pragma once

#include <cstdint>
#include <vector>

#include "nn/linear.hpp"

namespace mesorasi::nn {

/** A stack of Linear layers. */
class Mlp
{
  public:
    Mlp() = default;

    /**
     * Build an MLP with the given layer widths, e.g. dims={3,64,64,128}
     * creates three layers 3->64->64->128. All hidden layers use @p act;
     * the final layer uses @p act as well (point-cloud modules apply the
     * nonlinearity to every layer, paper Fig. 3).
     */
    Mlp(Rng &rng, const std::vector<int32_t> &dims,
        Activation act = Activation::Relu, bool useBias = true);

    /** Append an explicitly-constructed layer. */
    void addLayer(Linear layer);

    /** Forward through all layers. */
    tensor::Tensor forward(const tensor::Tensor &x) const;

    /**
     * Forward @p rows input rows through layers [firstLayer, end) into
     * caller-owned strided memory — the allocation-free twin of
     * forward() used by compiled execution plans (intermediates stay in
     * the per-thread Workspace ping/pong slots; the destination block
     * is the only output storage). Bitwise identical to forward() /
     * forwardAfterFirstLinear()'s tail over the same rows: shared
     * chunked row kernel.
     */
    void forwardInto(const float *x, int64_t xStride, int32_t rows,
                     float *out, int64_t outStride,
                     size_t firstLayer = 0) const;

    /**
     * Forward where only the *first* layer's matrix product runs, without
     * bias/activation — the Ltd-Mesorasi (GNN-style) hoisting applies
     * the first MVM before aggregation because it alone is linear.
     */
    tensor::Tensor forwardFirstLinearOnly(const tensor::Tensor &x) const;

    /**
     * Finish a Ltd-Mesorasi forward: apply the first layer's bias and
     * activation to an already-multiplied tensor, then the remaining
     * layers.
     */
    tensor::Tensor forwardAfterFirstLinear(const tensor::Tensor &x) const;

    size_t numLayers() const { return layers_.size(); }
    const Linear &layer(size_t i) const { return layers_[i]; }

    int32_t inDim() const;
    int32_t outDim() const;

    /** Per-layer output widths, e.g. {64, 64, 128}. */
    std::vector<int32_t> layerWidths() const;

    /** Total MACs to process @p numRows batched rows. */
    int64_t macs(int64_t numRows) const;

    /** Total parameter bytes. */
    int64_t paramBytes() const;

  private:
    std::vector<Linear> layers_;
};

} // namespace mesorasi::nn
