#include "core/pipeline.hpp"

#include <algorithm>
#include <cmath>

#include "common/thread_pool.hpp"
#include "common/workspace.hpp"
#include "geom/sampling.hpp"
#include "neighbor/search_backend.hpp"
#include "tensor/ops.hpp"

namespace mesorasi::core {

using tensor::Tensor;

const char *
pipelineName(PipelineKind kind)
{
    switch (kind) {
      case PipelineKind::Original: return "original";
      case PipelineKind::Delayed: return "delayed";
      case PipelineKind::LtdDelayed: return "ltd-delayed";
    }
    return "?";
}

ModuleExecutor::ModuleExecutor(ModuleConfig cfg, int32_t inFeatureDim,
                               Rng &weightRng, nn::Activation act)
    : cfg_(std::move(cfg)), inFeatureDim_(inFeatureDim)
{
    cfg_.validate();
    MESO_REQUIRE(inFeatureDim > 0, "module '" << cfg_.name
                                              << "': bad input dim");
    std::vector<int32_t> dims;
    dims.push_back(cfg_.mlpInDim(inFeatureDim));
    for (int32_t w : cfg_.mlpWidths)
        dims.push_back(w);
    mlp_ = nn::Mlp(weightRng, dims, act);
}

std::vector<int32_t>
ModuleExecutor::sample(const ModuleState &in, Rng &samplerRng) const
{
    int32_t n = in.numPoints();
    int32_t want = cfg_.centroids(n);
    MESO_REQUIRE(want <= n, "module '" << cfg_.name << "': " << want
                                       << " centroids from " << n
                                       << " points");
    if (cfg_.search == SearchKind::Global) {
        return {0}; // single pseudo-centroid; unused by aggregation
    }
    // SamplingKind::All promises every point becomes a centroid, so a
    // smaller configured centroid count is a contradiction — reject it
    // instead of silently falling through to random sampling.
    MESO_REQUIRE(cfg_.sampling != SamplingKind::All || want == n,
                 "module '" << cfg_.name << "': SamplingKind::All keeps "
                 "all " << n << " points but numCentroids=" << want);
    if (want == n) {
        std::vector<int32_t> all(n);
        for (int32_t i = 0; i < n; ++i)
            all[i] = i;
        return all;
    }
    std::vector<int32_t> picked;
    if (cfg_.sampling == SamplingKind::FarthestPoint) {
        geom::PointCloud cloud;
        for (int32_t i = 0; i < n; ++i)
            cloud.add({in.coords(i, 0), in.coords(i, 1), in.coords(i, 2)});
        picked = geom::farthestPointSample(cloud, want);
    } else {
        picked = samplerRng.sampleWithoutReplacement(n, want);
    }
    // Keep centroids in ascending index order so the input's spatial
    // (scan/Morton) ordering survives downsampling — real gather-based
    // implementations behave the same way, and the AU's LSB bank
    // interleaving relies on it (Sec. V-B).
    std::sort(picked.begin(), picked.end());
    return picked;
}

neighbor::NeighborIndexTable
ModuleExecutor::search(const ModuleState &in,
                       const std::vector<int32_t> &centroids) const
{
    if (cfg_.search == SearchKind::Global) {
        neighbor::NeighborIndexTable nit(in.numPoints());
        neighbor::NitEntry entry;
        entry.centroid = 0;
        entry.neighbors.resize(in.numPoints());
        for (int32_t i = 0; i < in.numPoints(); ++i)
            entry.neighbors[i] = i;
        nit.add(std::move(entry));
        return nit;
    }

    const Tensor &space = cfg_.space == SearchSpace::Coords ? in.coords
                                                            : in.features;
    neighbor::PointsView view(space.data(), space.rows(), space.cols());
    neighbor::SearchHints hints;
    hints.numQueries = static_cast<int32_t>(centroids.size());
    hints.k = cfg_.k;
    if (cfg_.search == SearchKind::Ball)
        hints.radius = cfg_.radius;
    auto backend =
        cfg_.customBackend.empty()
            ? neighbor::makeBackend(cfg_.backend, view, hints)
            : neighbor::makeBackendByName(cfg_.customBackend, view,
                                          hints);
    if (cfg_.search == SearchKind::Knn)
        return backend->knnTable(centroids, cfg_.k);
    return backend->ballTable(centroids, cfg_.radius, cfg_.k);
}

ModuleIo
ModuleExecutor::analyticIo(int32_t nIn, int32_t mIn,
                           int32_t nOutOverride) const
{
    ModuleIo io;
    io.name = cfg_.name;
    io.nIn = nIn;
    io.mIn = mIn;
    io.nOut = nOutOverride > 0 && cfg_.search != SearchKind::Global
                  ? nOutOverride
                  : cfg_.centroids(nIn);
    io.mOut = cfg_.outDim();
    io.k = cfg_.groupSize(nIn);
    io.searchDim = cfg_.space == SearchSpace::Coords ? 3 : mIn;
    io.mlpWidths = cfg_.mlpWidths;
    io.mlpInDim = cfg_.mlpInDim(mIn);
    return io;
}

ModuleTrace
ModuleExecutor::analyticTrace(PipelineKind kind, int32_t nIn, int32_t mIn,
                              int32_t nOutOverride) const
{
    ModuleIo io = analyticIo(nIn, mIn, nOutOverride);
    ModuleTrace mt;
    mt.name = cfg_.name;

    bool global = cfg_.search == SearchKind::Global;

    if (!global) {
        mt.ops.push_back(makeSamplingOp(
            nIn, io.nOut, cfg_.sampling == SamplingKind::FarthestPoint,
            cfg_.name + ".sample"));
        mt.ops.push_back(makeSearchOp(io.nOut, nIn, io.k, io.searchDim,
                                      cfg_.name + ".search",
                                      cfg_.search == SearchKind::Knn));
    }

    auto emitMlp = [&](int64_t rows, int64_t inDim,
                       const std::string &tag) {
        int64_t d = inDim;
        for (size_t l = 0; l < cfg_.mlpWidths.size(); ++l) {
            mt.ops.push_back(makeMlpOp(
                rows, d, cfg_.mlpWidths[l],
                cfg_.name + tag + ".mlp" + std::to_string(l)));
            d = cfg_.mlpWidths[l];
        }
    };

    if (global) {
        // Global modules have no neighbor search or aggregation under
        // either pipeline: MLP over all points, then one reduction.
        emitMlp(nIn, mIn, "");
        mt.ops.push_back(
            makeReduceOp(1, nIn, io.mOut, cfg_.name + ".reduce"));
        return mt;
    }

    int64_t groupedRows = static_cast<int64_t>(io.nOut) * io.k;

    switch (kind) {
      case PipelineKind::Original:
        // A gathers (and normalizes) neighbors from the *input* features.
        mt.ops.push_back(makeAggregateOp(io.nOut, io.k, mIn, nIn,
                                         cfg_.name + ".aggregate"));
        emitMlp(groupedRows, io.mlpInDim, "");
        mt.ops.push_back(makeReduceOp(io.nOut, io.k, io.mOut,
                                      cfg_.name + ".reduce"));
        break;

      case PipelineKind::Delayed:
        if (cfg_.aggregation == AggregationKind::ConcatCentroidDifference) {
            // The first (only) layer splits into the neighbor path W_d
            // and the centroid path W_c - W_d, both applied per input
            // point (see runDelayed for the algebra).
            mt.ops.push_back(makeMlpOp(nIn, mIn, cfg_.mlpWidths[0],
                                       cfg_.name + ".pft_d"));
            mt.ops.push_back(makeMlpOp(nIn, mIn, cfg_.mlpWidths[0],
                                       cfg_.name + ".pft_c"));
        } else {
            emitMlp(nIn, mIn, ".pft");
        }
        // A gathers from the PFT (Nin x Mout) and fuses the reduction
        // and the centroid subtraction (max-before-subtract).
        mt.ops.push_back(makeAggregateOp(io.nOut, io.k, io.mOut, nIn,
                                         cfg_.name + ".aggregate"));
        break;

      case PipelineKind::LtdDelayed:
        // Only the first matrix product is hoisted. Its input width is
        // the MLP's real first-layer input dim — which for concat
        // aggregation is 2*mIn (the W_d neighbor path plus the W_c
        // centroid path, each mIn wide, applied per input point), so a
        // single op at mlpInDim accounts for the full split product.
        mt.ops.push_back(makeMlpOp(nIn, io.mlpInDim, cfg_.mlpWidths[0],
                                   cfg_.name + ".pft1"));
        mt.ops.push_back(makeAggregateOp(io.nOut, io.k, cfg_.mlpWidths[0],
                                         nIn, cfg_.name + ".aggregate"));
        {
            // Remaining layers still run on grouped rows.
            int64_t d = cfg_.mlpWidths[0];
            for (size_t l = 1; l < cfg_.mlpWidths.size(); ++l) {
                mt.ops.push_back(makeMlpOp(
                    groupedRows, d, cfg_.mlpWidths[l],
                    cfg_.name + ".mlp" + std::to_string(l)));
                d = cfg_.mlpWidths[l];
            }
        }
        mt.ops.push_back(makeReduceOp(io.nOut, io.k, io.mOut,
                                      cfg_.name + ".reduce"));
        break;
    }
    return mt;
}

namespace {

/** Output coordinates: the centroids' xyz (or the origin for Global). */
Tensor
centroidCoords(const ModuleState &in, const std::vector<int32_t> &idx,
               bool global)
{
    if (global)
        return Tensor(1, 3);
    std::vector<int32_t> rows(idx.begin(), idx.end());
    return tensor::gatherRows(in.coords, rows);
}

} // namespace

Tensor
ModuleExecutor::runOriginal(const ModuleState &in,
                            const neighbor::NeighborIndexTable &nit) const
{
    // A gathers (and normalizes) neighbors from the *input* features.
    // Batch all NFMs into one (Nout*K) x In matrix so the shared MLP
    // runs as a single matrix product — exactly how the GPU/NPU sees it.
    // Centroids write disjoint row blocks, so the gather parallelizes.
    int32_t nOut = nit.size();
    int32_t k = cfg_.k;
    int32_t m = in.featureDim();
    Tensor batched(nOut * k, cfg_.mlpInDim(m));
    ThreadPool::global().parallelFor(
        nOut, /*grain=*/16, [&](int64_t b, int64_t e) {
            for (int64_t c = b; c < e; ++c) {
                const auto &entry = nit[static_cast<int32_t>(c)];
                const float *cf = in.features.row(entry.centroid);
                for (int32_t j = 0; j < k; ++j) {
                    const float *nf = in.features.row(entry.neighbors[j]);
                    float *row = batched.row(static_cast<int32_t>(c) * k + j);
                    if (cfg_.aggregation ==
                        AggregationKind::ConcatCentroidDifference) {
                        for (int32_t d = 0; d < m; ++d) {
                            row[d] = cf[d];
                            row[m + d] = nf[d] - cf[d];
                        }
                    } else {
                        for (int32_t d = 0; d < m; ++d)
                            row[d] = nf[d] - cf[d];
                    }
                }
            }
        });

    // F runs on the grouped rows; each group is a contiguous k-row
    // block, so the reduction writes straight into the output row.
    Tensor feat = mlp_.forward(batched);
    Tensor out(nOut, cfg_.outDim());
    ThreadPool::global().parallelFor(
        nOut, /*grain=*/16, [&](int64_t b, int64_t e) {
            for (int64_t c = b; c < e; ++c)
                tensor::maxReduceRowsInto(out.row(static_cast<int32_t>(c)),
                                          feat, static_cast<int32_t>(c) * k,
                                          k);
        });
    return out;
}

Tensor
ModuleExecutor::runDelayed(const ModuleState &in,
                           const neighbor::NeighborIndexTable &nit) const
{
    // The whole point of delayed aggregation is that the feature
    // computation depends only on the raw input, not on the neighbor
    // search (Fig. 8); aggregation then works in the output space.
    int32_t nOut = nit.size();
    int32_t mOut = cfg_.outDim();
    Tensor out(nOut, mOut);
    if (cfg_.aggregation == AggregationKind::ConcatCentroidDifference) {
        // Single-layer EdgeConv:
        //   out_i = max_j act(x_i W_c + (x_j - x_i) W_d + b)
        // With P_j = x_j W_d and Q_i = x_i (W_c - W_d) + b:
        //   out_i = act(max_j P_j + Q_i)
        // which is exact because act (ReLU) is monotone and commutes
        // with max, and the affine Q_i term is constant within a group.
        const nn::Linear &l0 = mlp_.layer(0);
        int32_t m = in.featureDim();
        int32_t h = l0.outDim();
        Tensor wc(m, h), wd(m, h);
        for (int32_t r = 0; r < m; ++r)
            for (int32_t c = 0; c < h; ++c) {
                wc(r, c) = l0.panels().at(r, c);
                wd(r, c) = l0.panels().at(m + r, c);
            }
        Tensor p = tensor::matmul(in.features, wd); // Nin x H
        Tensor wcd(m, h);
        for (int32_t r = 0; r < m; ++r)
            for (int32_t c = 0; c < h; ++c)
                wcd(r, c) = wc(r, c) - wd(r, c);
        Tensor q = tensor::matmul(in.features, wcd); // Nin x H
        if (l0.hasBias())
            tensor::addBiasInPlace(q, l0.bias());

        bool isRelu = l0.activation() == nn::Activation::Relu;
        ThreadPool::global().parallelFor(
            nOut, /*grain=*/16, [&](int64_t b, int64_t e) {
                for (int64_t ci = b; ci < e; ++ci) {
                    int32_t c = static_cast<int32_t>(ci);
                    const auto &entry = nit[c];
                    // Fused gather + max straight into the output row,
                    // then the centroid path and activation in place.
                    float *orow = out.row(c);
                    tensor::gatherMaxReduceInto(orow, p, entry.neighbors);
                    const float *qr = q.row(entry.centroid);
                    for (int32_t d = 0; d < h; ++d) {
                        float v = orow[d] + qr[d];
                        if (isRelu)
                            v = std::max(0.0f, v);
                        orow[d] = v;
                    }
                }
            });
        return out;
    }

    // Point Feature Table: the full MLP over raw input points. A gathers
    // from it (Nin x Mout) and fuses the reduction and the centroid
    // subtraction (max-before-subtract).
    Tensor pft = mlp_.forward(in.features);
    ThreadPool::global().parallelFor(
        nOut, /*grain=*/16, [&](int64_t b, int64_t e) {
            for (int64_t ci = b; ci < e; ++ci) {
                int32_t c = static_cast<int32_t>(ci);
                const auto &entry = nit[c];
                // Fused gather + max-before-subtract: exact because
                // subtraction of the centroid feature distributes over
                // max, and the K x Mout group never exists.
                float *orow = out.row(c);
                tensor::gatherMaxReduceInto(orow, pft, entry.neighbors);
                const float *cf = pft.row(entry.centroid);
                for (int32_t d = 0; d < mOut; ++d)
                    orow[d] -= cf[d];
            }
        });
    return out;
}

Tensor
ModuleExecutor::runLtd(const ModuleState &in,
                       const neighbor::NeighborIndexTable &nit) const
{
    // Hoist only the first matrix product (exactly distributive); the
    // remaining layers run after aggregation.
    Tensor pft1 = mlp_.forwardFirstLinearOnly(in.features); // Nin x H1
    int32_t nOut = nit.size();
    int32_t k = cfg_.k;
    int32_t h1 = pft1.cols();
    Tensor batched(nOut * k, h1);
    ThreadPool::global().parallelFor(
        nOut, /*grain=*/16, [&](int64_t b, int64_t e) {
            for (int64_t ci = b; ci < e; ++ci) {
                int32_t c = static_cast<int32_t>(ci);
                const auto &entry = nit[c];
                const float *cf = pft1.row(entry.centroid);
                for (int32_t j = 0; j < k; ++j) {
                    const float *nf = pft1.row(entry.neighbors[j]);
                    float *row = batched.row(c * k + j);
                    for (int32_t d = 0; d < h1; ++d)
                        row[d] = nf[d] - cf[d];
                }
            }
        });

    // Remaining layers still run on grouped rows; contiguous k-row
    // blocks reduce straight into the output rows.
    Tensor feat = mlp_.forwardAfterFirstLinear(batched);
    Tensor out(nOut, cfg_.outDim());
    ThreadPool::global().parallelFor(
        nOut, /*grain=*/16, [&](int64_t b, int64_t e) {
            for (int64_t ci = b; ci < e; ++ci) {
                int32_t c = static_cast<int32_t>(ci);
                tensor::maxReduceRowsInto(out.row(c), feat, c * k, k);
            }
        });
    return out;
}

ModuleResult
ModuleExecutor::run(const ModuleState &in, PipelineKind kind,
                    Rng &samplerRng) const
{
    MESO_REQUIRE(in.featureDim() == inFeatureDim_,
                 "module '" << cfg_.name << "' expects dim "
                            << inFeatureDim_ << ", got "
                            << in.featureDim());
    // For a single-layer concat module the limited hoisting covers the
    // whole MLP, so Ltd coincides with the full delayed form.
    if (kind == PipelineKind::LtdDelayed &&
        cfg_.aggregation == AggregationKind::ConcatCentroidDifference)
        kind = PipelineKind::Delayed;

    ModuleResult res;
    res.centroidIdx = sample(in, samplerRng);
    res.io = analyticIo(in.numPoints(), in.featureDim());
    res.trace = analyticTrace(kind, in.numPoints(), in.featureDim());
    // For Global modules search builds the trivial one-entry NIT (every
    // point in one group) the AU simulator consumes.
    res.nit = search(in, res.centroidIdx);

    bool global = cfg_.search == SearchKind::Global;
    if (global) {
        // Global modules have no real neighbor search or aggregation
        // under any pipeline: MLP over all points, then one reduction.
        res.out.features = tensor::maxReduceRows(mlp_.forward(in.features));
    } else if (kind == PipelineKind::Original) {
        res.out.features = runOriginal(in, res.nit);
    } else if (kind == PipelineKind::Delayed) {
        res.out.features = runDelayed(in, res.nit);
    } else {
        res.out.features = runLtd(in, res.nit);
    }
    res.out.coords = centroidCoords(in, res.centroidIdx, global);
    return res;
}

// ---------------------------------------------------------------------
// InterpExecutor
// ---------------------------------------------------------------------

InterpExecutor::InterpExecutor(InterpModuleConfig cfg, int32_t coarseDim,
                               int32_t skipDim, Rng &weightRng,
                               nn::Activation act)
    : cfg_(std::move(cfg)), coarseDim_(coarseDim), skipDim_(skipDim)
{
    MESO_REQUIRE(!cfg_.mlpWidths.empty(), "interp module without MLP");
    std::vector<int32_t> dims;
    dims.push_back(coarseDim + skipDim);
    for (int32_t w : cfg_.mlpWidths)
        dims.push_back(w);
    mlp_ = nn::Mlp(weightRng, dims, act);
}

ModuleResult
InterpExecutor::run(const ModuleState &fine,
                    const ModuleState &coarse) const
{
    MESO_REQUIRE(coarse.featureDim() == coarseDim_ &&
                     fine.featureDim() == skipDim_,
                 "interp '" << cfg_.name << "' dim mismatch");
    int32_t nFine = fine.numPoints();
    int32_t nCoarse = coarse.numPoints();

    Tensor interp(nFine, coarseDim_);
    neighbor::PointsView view(coarse.coords.data(), nCoarse, 3);
    int32_t kk = std::min(cfg_.numNeighbors, nCoarse);
    neighbor::SearchHints hints;
    hints.numQueries = nFine;
    hints.k = kk;
    auto backend = neighbor::makeBackend(cfg_.backend, view, hints);
    ThreadPool::global().parallelFor(
        nFine, /*grain=*/32, [&](int64_t b, int64_t e) {
            // Per-thread scratch for the inverse-distance weights.
            Workspace &ws = Workspace::local();
            Workspace::ScopedClaim claim(ws, Workspace::kScratch);
            float *w = ws.floats(Workspace::kScratch, kk);
            std::vector<int32_t> nn;
            for (int64_t ii = b; ii < e; ++ii) {
                int32_t i = static_cast<int32_t>(ii);
                nn = backend->knn(fine.coords.row(i), kk);
                // Inverse-distance weights, as in PointNet++
                // three_interpolate.
                float wsum = 0.0f;
                for (size_t j = 0; j < nn.size(); ++j) {
                    float d2 =
                        view.dist2To(nn[j], fine.coords.row(i));
                    w[j] = 1.0f / (d2 + 1e-8f);
                    wsum += w[j];
                }
                float *dst = interp.row(i);
                for (size_t j = 0; j < nn.size(); ++j) {
                    const float *src = coarse.features.row(nn[j]);
                    float wj = w[j] / wsum;
                    for (int32_t d = 0; d < coarseDim_; ++d)
                        dst[d] += wj * src[d];
                }
            }
        });

    Tensor x = tensor::concatCols(interp, fine.features);
    ModuleResult res;
    res.out.coords = fine.coords;
    res.out.features = mlp_.forward(x);

    res.trace.name = cfg_.name;
    res.trace.ops.push_back(makeInterpolateOp(nFine, nCoarse, coarseDim_,
                                              cfg_.name + ".interp"));
    res.trace.ops.push_back(
        makeConcatOp(nFine, coarseDim_ + skipDim_, cfg_.name + ".concat"));
    int64_t d = coarseDim_ + skipDim_;
    for (size_t l = 0; l < cfg_.mlpWidths.size(); ++l) {
        res.trace.ops.push_back(makeMlpOp(
            nFine, d, cfg_.mlpWidths[l],
            cfg_.name + ".mlp" + std::to_string(l)));
        d = cfg_.mlpWidths[l];
    }

    res.io.name = cfg_.name;
    res.io.nIn = nFine;
    res.io.mIn = skipDim_;
    res.io.nOut = nFine;
    res.io.mOut = cfg_.outDim();
    res.io.k = cfg_.numNeighbors;
    res.io.searchDim = 3;
    res.io.mlpWidths = cfg_.mlpWidths;
    res.io.mlpInDim = coarseDim_ + skipDim_;
    return res;
}

} // namespace mesorasi::core
