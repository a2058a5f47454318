/**
 * @file
 * Per-thread reusable scratch memory for allocation-free hot loops.
 *
 * The aggregation and MLP hot paths stream the same-shaped intermediate
 * buffers millions of times per second (one activation block per row
 * chunk, one reduction row per centroid). Allocating them per iteration
 * turns the paper's memory-streaming workload into allocator traffic, so
 * every thread — pool workers and the caller thread alike — owns a
 * Workspace of grow-only slots that is warmed up on the first pass and
 * then reused for the lifetime of the thread.
 *
 * Contract:
 *  - Workspace::local() returns the calling thread's instance; buffers
 *    must never be shared across threads or held across a parallelFor
 *    boundary (a pool worker's slot belongs to that worker only).
 *  - floats(slot, n) returns at least n floats, uninitialized. Capacity
 *    only grows, so after one warm-up pass at the steady-state shape no
 *    further heap allocation happens (the zero-allocation property the
 *    fused kernels rely on; see tests/test_fused_ops.cpp).
 *  - Distinct slots are independent — use different slots for buffers
 *    that are alive simultaneously (e.g. ping/pong MLP activations).
 */
#pragma once

#include <cstddef>
#include <vector>

#include "common/check.hpp"

namespace mesorasi {

class Workspace
{
  public:
    /** Independent simultaneously-usable scratch buffers per thread. */
    static constexpr int kNumSlots = 6;

    // Slot reservations. The MLP forward path owns the first two as
    // ping/pong activation buffers on every thread it runs on; any
    // other per-thread scratch must use kScratch or above, or it will
    // be clobbered by an MLP forward on the same thread. The two
    // distance slots belong to the batched neighbor dist2 kernels:
    // kDistSoA holds the gathered SoA candidate coordinates (or the
    // transposed query block of dist2Block) inside the kernel itself,
    // kDistOut is for the caller's d2 result array.
    // They are separate from kScratch because neighbor queries run
    // inside loops that already hold kScratch pointers (e.g. the
    // interp executor's weight buffer).
    static constexpr int kMlpPing = 0;
    static constexpr int kMlpPong = 1;
    static constexpr int kScratch = 2;
    static constexpr int kDistSoA = 3;
    static constexpr int kDistOut = 4;

    /**
     * Scratch buffer of at least @p n floats in @p slot. Contents are
     * unspecified; the pointer is invalidated by a later call with a
     * larger @p n for the same slot, and stable otherwise.
     */
    float *floats(int slot, size_t n);

    /** Current capacity (in floats) of @p slot. */
    size_t capacity(int slot) const;

    /** Release all slot memory (mainly for tests). */
    void clear();

    /** The calling thread's workspace (thread-local, lazily built). */
    static Workspace &local();

    /**
     * Debug-build ownership assertion for the slot reservations above.
     * The fixed-slot contract is convention-enforced: if two live users
     * on one thread pick the same slot, the second floats() call
     * silently clobbers the first user's data (the risk the reservation
     * comment documents). ScopedClaim makes that a hard error in debug
     * builds: every slot user brackets its use in a claim, and a second
     * overlapping claim of the same slot on the same thread throws
     * InternalError. Release builds compile the guard away entirely.
     *
     * This remains the contract for code not yet on a compiled plan's
     * arena (core/plan/arena.hpp), which supersedes fixed slots for the
     * plan evaluation path by assigning per-plan offsets from liveness.
     */
    class ScopedClaim
    {
      public:
        ScopedClaim(Workspace &ws, int slot)
#ifndef NDEBUG
            : ws_(&ws), slot_(slot)
        {
            MESO_CHECK(slot >= 0 && slot < kNumSlots,
                       "workspace slot " << slot << " out of range");
            MESO_CHECK(!ws_->claimed_[slot_],
                       "workspace slot " << slot_
                                         << " already claimed by a live "
                                            "user on this thread");
            ws_->claimed_[slot_] = true;
        }
#else
        {
            (void)ws;
            (void)slot;
        }
#endif

        ~ScopedClaim()
        {
#ifndef NDEBUG
            ws_->claimed_[slot_] = false;
#endif
        }

        ScopedClaim(const ScopedClaim &) = delete;
        ScopedClaim &operator=(const ScopedClaim &) = delete;

#ifndef NDEBUG
      private:
        Workspace *ws_;
        int slot_;
#endif
    };

  private:
    std::vector<float> slots_[kNumSlots];
#ifndef NDEBUG
    bool claimed_[kNumSlots] = {};
#endif
};

} // namespace mesorasi
