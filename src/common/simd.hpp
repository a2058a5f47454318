/**
 * @file
 * Runtime ISA dispatch for the vector kernels.
 *
 * Mesorasi's premise is that delayed aggregation turns irregular gather
 * work into regular streaming matrix/reduce work that dense hardware
 * executes efficiently. On the host, "dense hardware" means the vector
 * units, so every hot kernel (matmul, max-reduce, gather-reduce, bias /
 * ReLU / batchnorm epilogues, the int8/int4 gather kernels, neighbor
 * dist2 batches) is written against a small register abstraction,
 * VecF/VecB (common/simd_vec.hpp), instead of raw intrinsics.
 *
 * Design:
 *  - One binary, every width. The kernel sources (*_kernels.cpp) are
 *    compiled once per vector ISA the target has: SSE2 (4 x f32) and
 *    AVX2 (8 x f32) on x86-64, NEON (4 x f32) on AArch64. Each copy
 *    takes its VecF from its own define, not from the ambient -m flags,
 *    and lives in an ISA-named namespace, so no inline symbol is shared
 *    between copies and a -mavx2 build still holds a true 4-lane SSE2
 *    copy. Only the AVX2 copy gets -mavx2 (never -mfma).
 *  - Selection. At start-up the widest compiled copy the CPU runs is
 *    picked (__builtin_cpu_supports); every public kernel entry point
 *    asks isa() once per call and runs that copy. Layouts that must not
 *    depend on the pick (the matmul panel width, the k-NN query block)
 *    are sized from kMaxWidth, the widest compiled width, and each copy
 *    covers them in multiples of its own width.
 *  - Bitwise scalar parity is a hard contract. Every copy produces
 *    byte-identical results to the scalar oracle, so the register layer
 *    exposes no FMA (mul+add keeps scalar rounding) and no native
 *    min/max semantics: maxOrdered() and relu() replicate std::max's
 *    exact NaN and signed-zero behavior. A build whose flags let the
 *    compiler contract mul+add into FMA (-mfma, -mavx512f,
 *    -march=native on an FMA host) is refused below.
 *  - Scalar forcing. Defining MESORASI_FORCE_SCALAR at compile time
 *    compiles no vector copy at all; setting the MESORASI_FORCE_SCALAR
 *    environment variable (or calling setForceScalar) routes every
 *    kernel to its scalar oracle at runtime. Forcing takes precedence
 *    over the ISA pick, which setIsa() changes, so one process can run
 *    the oracle and every compiled width over the same data (the
 *    parity tests and the per-width bench records do).
 */
#pragma once

#include <cstdint>
#include <vector>

#if defined(__FMA__) || defined(__AVX512F__)
#error "mesorasi kernels are bitwise identical to their scalar oracles only without FMA contraction (mul then add): build without -mfma, -mavx512f or -march=native"
#endif

// The vector copies this build compiles (CMakeLists.txt compiles the
// kernel sources once per ISA on the same condition).
#if defined(MESORASI_FORCE_SCALAR)
#define MESORASI_SIMD_SSE2 0
#define MESORASI_SIMD_AVX2 0
#define MESORASI_SIMD_NEON 0
#elif defined(__x86_64__) || defined(_M_X64)
#define MESORASI_SIMD_SSE2 1
#define MESORASI_SIMD_AVX2 1
#define MESORASI_SIMD_NEON 0
#elif defined(__aarch64__)
#define MESORASI_SIMD_SSE2 0
#define MESORASI_SIMD_AVX2 0
#define MESORASI_SIMD_NEON 1
#else
#define MESORASI_SIMD_SSE2 0
#define MESORASI_SIMD_AVX2 0
#define MESORASI_SIMD_NEON 0
#endif

namespace mesorasi::simd {

/** An instruction set a kernel copy targets. Scalar is the oracle. */
enum class Isa : uint8_t
{
    Scalar,
    Sse2,
    Avx2,
    Neon,
};

/** "scalar", "sse2", "avx2" or "neon". */
const char *isaName(Isa isa);

/** f32 lanes per register: 1, 4, 8 or 4. */
int32_t isaWidth(Isa isa);

/** The widest f32 lane width of any compiled copy (8 on x86-64, 4 on
 *  AArch64, 1 when no vector copy is compiled). Sizes the layouts that
 *  stay fixed whatever copy runs: tensor::kPanelWidth and
 *  neighbor::kQueryBlock. */
inline constexpr int32_t kMaxWidth =
    MESORASI_SIMD_AVX2 ? 8 : (MESORASI_SIMD_SSE2 || MESORASI_SIMD_NEON ? 4 : 1);

/** True when this binary holds a kernel copy for @p isa (Scalar always). */
bool compiled(Isa isa);

/** The CPU features the kernel copies need. */
struct CpuFeatures
{
    bool sse2 = false;
    bool avx2 = false;
    bool neon = false;
};

/** What the host CPU (and its OS) can run. */
CpuFeatures hostCpu();

/**
 * The selection rule: Scalar when @p forceScalar, else the widest copy
 * this binary compiled that @p cpu runs (Scalar if none).
 */
Isa selectIsa(const CpuFeatures &cpu, bool forceScalar);

/** Throws UsageError unless this binary compiled @p isa and @p cpu
 *  runs it. */
void requireRunnable(Isa isa, const CpuFeatures &cpu);

/** Every ISA this binary compiled that the host runs, in ascending
 *  width, Scalar first: the copies setIsa() accepts. */
std::vector<Isa> runnableIsas();

/**
 * The ISA the kernels dispatch to now: Scalar while forceScalar(),
 * else the copy picked at start-up (selectIsa(hostCpu(), false)) or
 * pinned by setIsa().
 */
Isa isa();

/** Pin the copy the kernels run (UsageError, via requireRunnable, for
 *  one the binary lacks or the host cannot run). Force-scalar keeps
 *  precedence. Not thread-safe against concurrent kernels; switch only
 *  between parallel regions. */
void setIsa(Isa isa);

/**
 * Runtime kill switch for the vector paths. Initialized once from the
 * MESORASI_FORCE_SCALAR environment variable; tests and benches flip it
 * with setForceScalar() to compare both implementations inside one
 * process. Always true when compiled with -DMESORASI_FORCE_SCALAR.
 */
bool forceScalar();

/** Override the runtime force-scalar flag (no-op when the scalar build
 *  was selected at compile time). Not thread-safe against concurrent
 *  kernels; flip it only between parallel regions. */
void setForceScalar(bool force);

/** Runs a scope on one copy (setIsa), then restores the previous pick,
 *  also when the scope throws. */
class ScopedIsa
{
  public:
    explicit ScopedIsa(Isa isa);
    ~ScopedIsa();
    ScopedIsa(const ScopedIsa &) = delete;
    ScopedIsa &operator=(const ScopedIsa &) = delete;

  private:
    Isa prev_;
};

/** The dispatched ISA's name and lane width under the names the old
 *  compile-time constants had, for code that assigns them (`str =
 *  kIsa;` into a std::string, `int32_t w = kWidth;`): each conversion
 *  reads isa(). */
struct DispatchedIsaName
{
    operator const char *() const { return isaName(isa()); }
};
struct DispatchedWidth
{
    operator int32_t() const { return isaWidth(isa()); }
};
inline constexpr DispatchedIsaName kIsa{};
inline constexpr DispatchedWidth kWidth{};

} // namespace mesorasi::simd
