#include "common/simd.hpp"

#include <atomic>
#include <cstdlib>
#include <cstring>

#include "common/check.hpp"

namespace mesorasi::simd {

namespace {

/** Ascending lane width, so the last runnable one is the widest. */
constexpr Isa kAllIsas[] = {Isa::Scalar, Isa::Sse2, Isa::Neon, Isa::Avx2};

bool
cpuRuns(const CpuFeatures &cpu, Isa isa)
{
    switch (isa) {
    case Isa::Scalar:
        return true;
    case Isa::Sse2:
        return cpu.sse2;
    case Isa::Avx2:
        return cpu.avx2;
    case Isa::Neon:
        return cpu.neon;
    }
    return false;
}

/** Relaxed is enough for both flags: they are only flipped between
 *  parallel regions (see setForceScalar), the atomics just keep the
 *  reads from racing on paper. */
std::atomic<bool> &
forceFlag()
{
    static std::atomic<bool> flag = [] {
        const char *env = std::getenv("MESORASI_FORCE_SCALAR");
        return env != nullptr && *env != '\0' &&
               std::strcmp(env, "0") != 0;
    }();
    return flag;
}

/** The pinned copy, ignoring force-scalar. */
std::atomic<Isa> &
pinnedIsa()
{
    static std::atomic<Isa> pinned{selectIsa(hostCpu(), false)};
    return pinned;
}

} // namespace

const char *
isaName(Isa isa)
{
    switch (isa) {
    case Isa::Scalar:
        return "scalar";
    case Isa::Sse2:
        return "sse2";
    case Isa::Avx2:
        return "avx2";
    case Isa::Neon:
        return "neon";
    }
    return "unknown";
}

int32_t
isaWidth(Isa isa)
{
    switch (isa) {
    case Isa::Scalar:
        return 1;
    case Isa::Sse2:
    case Isa::Neon:
        return 4;
    case Isa::Avx2:
        return 8;
    }
    return 1;
}

bool
compiled(Isa isa)
{
    switch (isa) {
    case Isa::Scalar:
        return true;
    case Isa::Sse2:
        return MESORASI_SIMD_SSE2;
    case Isa::Avx2:
        return MESORASI_SIMD_AVX2;
    case Isa::Neon:
        return MESORASI_SIMD_NEON;
    }
    return false;
}

CpuFeatures
hostCpu()
{
    CpuFeatures cpu;
#if defined(__x86_64__) || defined(_M_X64)
    // Also checks that the OS saves the YMM state AVX2 needs.
    __builtin_cpu_init();
    cpu.sse2 = __builtin_cpu_supports("sse2");
    cpu.avx2 = __builtin_cpu_supports("avx2");
#elif defined(__aarch64__)
    cpu.neon = true; // Advanced SIMD is mandatory on AArch64.
#endif
    return cpu;
}

Isa
selectIsa(const CpuFeatures &cpu, bool forceScalar)
{
    Isa best = Isa::Scalar;
    if (!forceScalar)
        for (Isa isa : kAllIsas)
            if (compiled(isa) && cpuRuns(cpu, isa))
                best = isa;
    return best;
}

void
requireRunnable(Isa isa, const CpuFeatures &cpu)
{
    MESO_REQUIRE(compiled(isa), "this build compiled no "
                                    << isaName(isa) << " kernel copy");
    MESO_REQUIRE(cpuRuns(cpu, isa),
                 "this CPU cannot run the " << isaName(isa) << " kernels");
}

std::vector<Isa>
runnableIsas()
{
    CpuFeatures cpu = hostCpu();
    std::vector<Isa> out;
    for (Isa isa : kAllIsas)
        if (compiled(isa) && cpuRuns(cpu, isa))
            out.push_back(isa);
    return out;
}

Isa
isa()
{
    return forceScalar() ? Isa::Scalar
                         : pinnedIsa().load(std::memory_order_relaxed);
}

void
setIsa(Isa isa)
{
    requireRunnable(isa, hostCpu());
    pinnedIsa().store(isa, std::memory_order_relaxed);
}

bool
forceScalar()
{
#if defined(MESORASI_FORCE_SCALAR)
    return true;
#else
    return forceFlag().load(std::memory_order_relaxed);
#endif
}

void
setForceScalar(bool force)
{
    forceFlag().store(force, std::memory_order_relaxed);
}

ScopedIsa::ScopedIsa(Isa isa)
    : prev_(pinnedIsa().load(std::memory_order_relaxed))
{
    setIsa(isa);
}

ScopedIsa::~ScopedIsa()
{
    pinnedIsa().store(prev_, std::memory_order_relaxed);
}

} // namespace mesorasi::simd
