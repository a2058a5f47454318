#include "nn/mlp.hpp"

#include <algorithm>

#include "common/thread_pool.hpp"
#include "common/workspace.hpp"
#include "tensor/ops.hpp"

namespace mesorasi::nn {

namespace {

constexpr int64_t kMinRowsPerChunk = 256;

/** Bias + activation over a strided row block, in place: a single
 *  fused (and SIMD-vectorized) pass while the block is cache-hot. */
void
biasActBlock(float *dst, int64_t stride, int32_t rows, const Linear &layer)
{
    const float *b = layer.hasBias() ? layer.bias().row(0) : nullptr;
    bool relu = layer.activation() == Activation::Relu;
    tensor::biasReluBlockInPlace(dst, stride, rows, layer.outDim(), b,
                                 relu);
}

/**
 * Forward a row block through @p layers, writing the final activations
 * into the caller-owned strided block @p out. Intermediate activations
 * ping-pong between two Workspace slots, so the steady state allocates
 * nothing; results are bitwise identical to the layer-by-layer tensor
 * path (same matmul row kernel, same bias/activation element ops).
 */
void
forwardBlockInto(const Linear *layers, size_t numLayers, const float *x,
                 int64_t xStride, int32_t rows, float *out,
                 int64_t outStride)
{
    int64_t maxW = 0;
    for (size_t l = 0; l + 1 < numLayers; ++l)
        maxW = std::max<int64_t>(maxW, layers[l].outDim());
    Workspace &ws = Workspace::local();
    Workspace::ScopedClaim claimPing(ws, Workspace::kMlpPing);
    Workspace::ScopedClaim claimPong(ws, Workspace::kMlpPong);
    float *ping =
        ws.floats(Workspace::kMlpPing, static_cast<size_t>(rows) * maxW);
    float *pong =
        ws.floats(Workspace::kMlpPong, static_cast<size_t>(rows) * maxW);

    const float *cur = x;
    int64_t curStride = xStride;
    float *next = ping;
    for (size_t l = 0; l < numLayers; ++l) {
        bool last = l + 1 == numLayers;
        float *dst = last ? out : next;
        int64_t dstStride = last ? outStride : layers[l].outDim();
        tensor::matmulInto(dst, dstStride, cur, curStride, rows,
                           layers[l].panels().view());
        biasActBlock(dst, dstStride, rows, layers[l]);
        cur = dst;
        curStride = dstStride;
        next = dst == ping ? pong : ping;
    }
}

/** Chunked strided forward through layers [first, first+count). */
void
forwardChunked(const Linear *layers, size_t count, const float *x,
               int64_t xStride, int32_t rows, float *out,
               int64_t outStride)
{
    auto runBlock = [&](int64_t begin, int64_t end) {
        forwardBlockInto(layers, count, x + begin * xStride, xStride,
                         static_cast<int32_t>(end - begin),
                         out + begin * outStride, outStride);
    };
    const ThreadPool &pool = ThreadPool::global();
    if (pool.size() <= 1 || ThreadPool::insideWorker()) {
        // Serial, but still in cache-resident row chunks so the
        // workspace stays small and every chunk's activations flow
        // through the whole stack before the next chunk starts.
        for (int64_t begin = 0; begin < rows; begin += kMinRowsPerChunk)
            runBlock(begin,
                     std::min<int64_t>(rows, begin + kMinRowsPerChunk));
        return;
    }
    // Adaptive grain matching matmul's: split only once each chunk
    // carries ~1M MACs through the whole stack, so small wide inputs
    // (a 128-point PFT through 128-wide layers) still fan out while
    // tiny products stay inline. Chunking never changes the bytes:
    // every row is independent.
    int64_t flopsPerRow = 0;
    for (size_t l = 0; l < count; ++l)
        flopsPerRow += static_cast<int64_t>(layers[l].inDim()) *
                       layers[l].outDim();
    constexpr int64_t kMinFlopsPerChunk = 1 << 20;
    int64_t grain = std::max<int64_t>(
        1, kMinFlopsPerChunk / std::max<int64_t>(1, flopsPerRow));
    pool.parallelFor(rows, std::min(grain, kMinRowsPerChunk), runBlock);
}

} // namespace

Mlp::Mlp(Rng &rng, const std::vector<int32_t> &dims, Activation act,
         bool useBias)
{
    MESO_REQUIRE(dims.size() >= 2, "MLP needs at least in/out dims");
    for (size_t i = 0; i + 1 < dims.size(); ++i)
        layers_.emplace_back(rng, dims[i], dims[i + 1], act, useBias);
}

void
Mlp::addLayer(Linear layer)
{
    MESO_REQUIRE(layers_.empty() || layers_.back().outDim() ==
                                        layer.inDim(),
                 "layer dims mismatch");
    layers_.push_back(std::move(layer));
}

tensor::Tensor
Mlp::forward(const tensor::Tensor &x) const
{
    MESO_REQUIRE(!layers_.empty(), "empty MLP");
    MESO_REQUIRE(x.cols() == inDim(), "MLP expects " << inDim()
                                                     << " inputs, got "
                                                     << x.shapeStr());
    // Every row flows through the stack independently, so chunk the
    // batch (across workers when profitable): each chunk's intermediate
    // activations stay cache-resident in per-thread workspace buffers
    // through all layers — the output tensor is the only allocation.
    tensor::Tensor out(x.rows(), outDim());
    forwardChunked(layers_.data(), layers_.size(), x.data(), x.cols(),
                   x.rows(), out.data(), out.cols());
    return out;
}

void
Mlp::forwardInto(const float *x, int64_t xStride, int32_t rows,
                 float *out, int64_t outStride, size_t firstLayer) const
{
    MESO_REQUIRE(firstLayer < layers_.size(),
                 "forwardInto from layer " << firstLayer << " of "
                                           << layers_.size());
    MESO_REQUIRE(xStride >= layers_[firstLayer].inDim() &&
                     outStride >= outDim(),
                 "forwardInto strides " << xStride << "/" << outStride);
    forwardChunked(layers_.data() + firstLayer,
                   layers_.size() - firstLayer, x, xStride, rows, out,
                   outStride);
}

tensor::Tensor
Mlp::forwardFirstLinearOnly(const tensor::Tensor &x) const
{
    MESO_REQUIRE(!layers_.empty(), "empty MLP");
    // Matrix product only — bias and activation are deferred so the
    // hoisted computation remains linear (distributes over subtraction
    // exactly).
    return tensor::matmul(x, layers_[0].panels().view());
}

tensor::Tensor
Mlp::forwardAfterFirstLinear(const tensor::Tensor &x) const
{
    MESO_REQUIRE(!layers_.empty(), "empty MLP");
    tensor::Tensor y = x;
    if (layers_[0].hasBias())
        tensor::addBiasInPlace(y, layers_[0].bias());
    if (layers_[0].activation() == Activation::Relu)
        tensor::reluInPlace(y);
    if (layers_.size() == 1)
        return y;
    tensor::Tensor out(y.rows(), outDim());
    forwardChunked(layers_.data() + 1, layers_.size() - 1, y.data(),
                   y.cols(), y.rows(), out.data(), out.cols());
    return out;
}

int32_t
Mlp::inDim() const
{
    MESO_REQUIRE(!layers_.empty(), "empty MLP");
    return layers_.front().inDim();
}

int32_t
Mlp::outDim() const
{
    MESO_REQUIRE(!layers_.empty(), "empty MLP");
    return layers_.back().outDim();
}

std::vector<int32_t>
Mlp::layerWidths() const
{
    std::vector<int32_t> out;
    for (const auto &l : layers_)
        out.push_back(l.outDim());
    return out;
}

int64_t
Mlp::macs(int64_t numRows) const
{
    int64_t acc = 0;
    for (const auto &l : layers_)
        acc += l.macs(numRows);
    return acc;
}

int64_t
Mlp::paramBytes() const
{
    int64_t acc = 0;
    for (const auto &l : layers_)
        acc += l.paramBytes();
    return acc;
}

} // namespace mesorasi::nn
