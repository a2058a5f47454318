/**
 * @file
 * Post-training int8/int4 calibration for the quantized PFT datapath.
 *
 * The quantize_pft pass (core/plan/passes) needs one number per
 * gathered PFT buffer: the max |activation| observed over
 * representative inputs, from which it derives the symmetric
 * quantization scale. This module produces that table the way
 * TensorRT-style post-training calibrators do — run the fp32 engine
 * over a calibration set and record per-buffer ranges — using the
 * engine's instrumented execute hook, so the ranges are measured on
 * exactly the buffers (and exactly the values) the quantized engine
 * will replace.
 *
 * Workflow (compileQuantizedPft wraps all three steps):
 *
 *   1. compile the network fp32 (no calibration in the options);
 *   2. calibratePft() over representative clouds;
 *   3. recompile with the calibration table, which alone arms the
 *      quantize_pft pass — buffer ids are stable across the recompile
 *      because passes append buffers, never renumber them.
 */
#pragma once

#include <cstdint>
#include <limits>
#include <vector>

#include "core/plan/plan_compiler.hpp"
#include "geom/point_cloud.hpp"

namespace mesorasi::quant {

/**
 * Run @p engine (an fp32 compile of the target network) over
 * @p clouds and record the max |x| of every f32 AggGatherMax input
 * buffer, scanned right after its producing step while the arena still
 * holds the rows. Cloud i runs with seed @p seedBase + i, mirroring
 * the serving loop's per-request seeds.
 *
 * Throws UsageError when @p clouds is empty or when any watched
 * activation is non-finite (a NaN/Inf range would poison the scale —
 * quantizing such a network is a usage error, not something to clamp
 * silently).
 */
core::plan::PftCalibration
calibratePft(const core::plan::CompiledEngine &engine,
             const std::vector<geom::PointCloud> &clouds,
             uint64_t seedBase = 0);

/**
 * The whole calibrate-then-recompile workflow: compile @p exec fp32
 * under @p opts (any calibration already in the options is cleared for
 * the fp32 compile), calibrate over @p clouds, then recompile with the
 * measured ranges and quantInt4MinRows = @p int4MinRows (default: int8
 * everywhere; pass a row threshold to pack the largest PFTs to int4).
 */
core::plan::CompiledEngine
compileQuantizedPft(const core::NetworkExecutor &exec,
                    core::PipelineKind kind,
                    const core::plan::CompileOptions &opts,
                    const std::vector<geom::PointCloud> &clouds,
                    uint64_t seedBase = 0,
                    int64_t int4MinRows =
                        std::numeric_limits<int64_t>::max());

} // namespace mesorasi::quant
