/**
 * @file
 * Versioned binary engine artifacts: save a CompiledEngine once,
 * reload it in another process, and execute with bitwise-identical
 * logits — the software analogue of shipping the configured
 * accelerator image (NIT/PFT sizing, resolved schedules) instead of
 * re-deriving it per boot.
 *
 * Format: little-endian, magic "MESO" + format version, then every
 * engine table (modules, buffer shapes, arena offsets, descriptor
 * steps with their read/write sets and root flag, pass stats,
 * MLP/weight parameter tables). Parameters are stored row-major
 * whatever their in-memory layout: MLP layer weights live as matmul
 * column panels (tensor/panel_matrix.hpp), save writes each one's
 * row-major bytes, and load decodes them straight back into panels
 * with no row-major copy in between, so the artifact bytes do not
 * depend on the panel width of the build that wrote them.
 * OpDesc fields are written as (tag,
 * value) pairs with defaults omitted, from one field table in tag order,
 * so the format survives adding descriptor fields without a version
 * bump: old tags keep their meaning, unknown tags are a hard error (they
 * would change numerics silently).
 *
 * Versioning policy: kEngineFormatVersion bumps whenever a change
 * would make an old reader mis-execute (changed field meaning). Loaders
 * reject any other version — artifacts are a cache, not an interchange
 * format, and recompiling is always correct. Op kinds are serialized by
 * explicit value, and a reader rejects any value it has no schema row
 * for, so adding an op kind needs no bump; retiring one leaves its value
 * unused forever (7 is retired this way, still format v1).
 *
 * Robustness contract: an artifact that loads executes without UB.
 * Every read is bounds-checked, and before bake() the decoded engine is
 * validated against the op schema (op_schema.hpp): operand ids, every
 * touched extent against its buffer, table, module state or the
 * logits, dtype rules, the stored read/write sets and root flags
 * against the derived ones, and the stored arena plan against a
 * re-derived one, and the stored plan statistics against what the
 * decoded plan and pass records imply. Failures throw UsageError
 * carrying CorruptArtifact;
 * execution fails only with typed errors from the kernels' own checks
 * (tests/test_engine_serialize.cpp loads truncated and bit-flipped
 * artifacts and executes every one that loads, under ASan+UBSan in CI).
 */
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/plan/engine.hpp"

namespace mesorasi::core::plan {

/** Bumped on any change an old reader would mis-execute. */
constexpr uint32_t kEngineFormatVersion = 1;

/** Serialize @p engine to the versioned binary artifact format. */
std::vector<uint8_t> saveEngineToBytes(const CompiledEngine &engine);

/** Serialize @p engine to @p path (overwrites). */
void saveEngine(const CompiledEngine &engine, const std::string &path);

/**
 * Reconstruct an engine from artifact bytes. The loaded engine bakes
 * the same closures a fresh compile would, so its logits are bitwise
 * identical to the compiling process's. Throws UsageError carrying
 * StatusCode::CorruptArtifact on corrupt, truncated, or version-
 * mismatched input.
 */
CompiledEngine loadEngineFromBytes(const uint8_t *data, size_t size);

/** Load an engine artifact from @p path. */
CompiledEngine loadEngine(const std::string &path);

/**
 * Non-throwing loaders for serving bring-up: a corrupt or unreadable
 * artifact comes back as a typed Status (CorruptArtifact for decode/
 * validation failures, InvalidInput for unreadable paths) instead of
 * unwinding — a server can fall back to recompiling without a
 * try/catch at every call site.
 */
Expected<CompiledEngine> tryLoadEngineFromBytes(const uint8_t *data,
                                                size_t size);
Expected<CompiledEngine> tryLoadEngine(const std::string &path);

/** Size in bytes of @p engine's serialized artifact. */
int64_t serializedEngineSize(const CompiledEngine &engine);

} // namespace mesorasi::core::plan
