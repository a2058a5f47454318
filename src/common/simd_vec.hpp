/**
 * @file
 * The register layer of one kernel copy: VecF (kWidth packed f32
 * lanes) and VecB (kWidthB packed bytes) in namespace
 * mesorasi::simd::MESORASI_ISA.
 *
 * Included only by the kernel sources (*_kernels.cpp), which the build
 * compiles once per vector ISA with MESORASI_KERNEL_ISA_<ISA> defined
 * (see common/simd.hpp for the dispatch). The copy is picked by that
 * define, never by the ambient -m flags, and this header defines
 * MESORASI_ISA only when the copy is part of the build, so a kernel
 * source wraps its body in `#if defined(MESORASI_ISA)`.
 *
 *  - Loads and stores are always unaligned: tensor rows and workspace
 *    buffers carry no alignment guarantee, and unaligned loads are free
 *    on every target we build for.
 *  - No FMA and no native min/max: maxOrdered(), minOrdered() and
 *    relu() keep std::max / std::min's exact NaN and signed-zero
 *    behavior, so every kernel stays bitwise equal to its scalar
 *    oracle.
 */
#pragma once

#include <cstdint>

#include "common/simd.hpp"

#if defined(MESORASI_KERNEL_ISA_AVX2) && MESORASI_SIMD_AVX2
#if !defined(__AVX2__)
#error "the AVX2 kernel copy must be compiled with -mavx2"
#endif
#include <immintrin.h>
#define MESORASI_ISA avx2
#elif defined(MESORASI_KERNEL_ISA_SSE2) && MESORASI_SIMD_SSE2
#include <emmintrin.h>
#define MESORASI_ISA sse2
#elif defined(MESORASI_KERNEL_ISA_NEON) && MESORASI_SIMD_NEON
#include <arm_neon.h>
#define MESORASI_ISA neon
#endif

#if defined(MESORASI_ISA)

namespace mesorasi::simd::MESORASI_ISA {

// ---------------------------------------------------------------------
// VecF: one register of kWidth packed f32 lanes.
// ---------------------------------------------------------------------

#if defined(MESORASI_KERNEL_ISA_AVX2)

inline constexpr int kWidth = 8;

struct VecF
{
    __m256 v;

    static VecF load(const float *p) { return {_mm256_loadu_ps(p)}; }
    static VecF broadcast(float x) { return {_mm256_set1_ps(x)}; }
    static VecF zero() { return {_mm256_setzero_ps()}; }
    void store(float *p) const { _mm256_storeu_ps(p, v); }
};

inline VecF add(VecF a, VecF b) { return {_mm256_add_ps(a.v, b.v)}; }
inline VecF sub(VecF a, VecF b) { return {_mm256_sub_ps(a.v, b.v)}; }
inline VecF mul(VecF a, VecF b) { return {_mm256_mul_ps(a.v, b.v)}; }

#elif defined(MESORASI_KERNEL_ISA_SSE2)

inline constexpr int kWidth = 4;

struct VecF
{
    __m128 v;

    static VecF load(const float *p) { return {_mm_loadu_ps(p)}; }
    static VecF broadcast(float x) { return {_mm_set1_ps(x)}; }
    static VecF zero() { return {_mm_setzero_ps()}; }
    void store(float *p) const { _mm_storeu_ps(p, v); }
};

inline VecF add(VecF a, VecF b) { return {_mm_add_ps(a.v, b.v)}; }
inline VecF sub(VecF a, VecF b) { return {_mm_sub_ps(a.v, b.v)}; }
inline VecF mul(VecF a, VecF b) { return {_mm_mul_ps(a.v, b.v)}; }

#else // NEON

inline constexpr int kWidth = 4;

struct VecF
{
    float32x4_t v;

    static VecF load(const float *p) { return {vld1q_f32(p)}; }
    static VecF broadcast(float x) { return {vdupq_n_f32(x)}; }
    static VecF zero() { return {vdupq_n_f32(0.0f)}; }
    void store(float *p) const { vst1q_f32(p, v); }
};

inline VecF add(VecF a, VecF b) { return {vaddq_f32(a.v, b.v)}; }
inline VecF sub(VecF a, VecF b) { return {vsubq_f32(a.v, b.v)}; }
inline VecF mul(VecF a, VecF b) { return {vmulq_f32(a.v, b.v)}; }

/** All-ones lanes where a < b (ordered: NaN compares false). */
inline VecF
cmpLt(VecF a, VecF b)
{
    return {vreinterpretq_f32_u32(vcltq_f32(a.v, b.v))};
}

/** Lane-wise mask ? a : b (mask lanes must be all-ones or all-zero). */
inline VecF
blend(VecF mask, VecF a, VecF b)
{
    return {vbslq_f32(vreinterpretq_u32_f32(mask.v), a.v, b.v)};
}

#endif

/** std::max(a, b) per lane, bit-for-bit: keeps `a` unless a < b, so
 *  NaN in `b` is dropped, NaN in `a` propagates, and a +0/-0 tie keeps
 *  `a` — exactly the scalar semantics every reduce kernel relies on.
 *
 *  On x86 this is a single MAXPS with *swapped* operands: MAX(SRC1,
 *  SRC2) returns SRC1 only when SRC1 > SRC2 and otherwise SRC2 —
 *  including both NaN cases and +/-0 ties — so MAX(b, a) is exactly
 *  (a < b) ? b : a. NEON's vmax quietens NaNs differently, so it uses
 *  the explicit cmpLt + blend form. */
inline VecF
maxOrdered(VecF a, VecF b)
{
#if defined(MESORASI_KERNEL_ISA_AVX2)
    return {_mm256_max_ps(b.v, a.v)};
#elif defined(MESORASI_KERNEL_ISA_SSE2)
    return {_mm_max_ps(b.v, a.v)};
#else
    return blend(cmpLt(a, b), b, a);
#endif
}

/** std::min(a, b) per lane, bit-for-bit: keeps `a` unless b < a, so
 *  NaN in `b` is dropped, NaN in `a` propagates, and a +0/-0 tie keeps
 *  `a` — the mirror of maxOrdered. On x86 a single MINPS with swapped
 *  operands: MIN(SRC1, SRC2) returns SRC1 only when SRC1 < SRC2 and
 *  otherwise SRC2, so MIN(b, a) is exactly (b < a) ? b : a. */
inline VecF
minOrdered(VecF a, VecF b)
{
#if defined(MESORASI_KERNEL_ISA_AVX2)
    return {_mm256_min_ps(b.v, a.v)};
#elif defined(MESORASI_KERNEL_ISA_SSE2)
    return {_mm_min_ps(b.v, a.v)};
#else
    return blend(cmpLt(b, a), b, a);
#endif
}

/** std::max(0.0f, x) per lane, bit-for-bit: NaN and -0.0 map to +0.0
 *  (MAX(x, 0) keeps x only when x > 0, so every other input — NaN,
 *  -0.0, negatives — yields the +0.0 of the second operand, exactly
 *  like the scalar (0 < x) ? x : 0). */
inline VecF
relu(VecF x)
{
    VecF z = VecF::zero();
#if defined(MESORASI_KERNEL_ISA_AVX2)
    return {_mm256_max_ps(x.v, z.v)};
#elif defined(MESORASI_KERNEL_ISA_SSE2)
    return {_mm_max_ps(x.v, z.v)};
#else
    return blend(cmpLt(z, x), x, z);
#endif
}

/** Store the 4 x kWidth block held in r0..r3 transposed: lane l of
 *  r_c goes to p[l * ld + c], i.e. kWidth rows of 4 floats, @p ld
 *  floats apart. Pure data movement, so bitwise by construction. */
inline void
storeTransposed4(VecF r0, VecF r1, VecF r2, VecF r3, float *p, int64_t ld)
{
#if defined(MESORASI_KERNEL_ISA_AVX2)
    __m256 t0 = _mm256_unpacklo_ps(r0.v, r1.v);
    __m256 t1 = _mm256_unpackhi_ps(r0.v, r1.v);
    __m256 t2 = _mm256_unpacklo_ps(r2.v, r3.v);
    __m256 t3 = _mm256_unpackhi_ps(r2.v, r3.v);
    // Each 128-bit half of u_l holds lane l (low) / l + 4 (high).
    __m256 u[4] = {_mm256_shuffle_ps(t0, t2, _MM_SHUFFLE(1, 0, 1, 0)),
                   _mm256_shuffle_ps(t0, t2, _MM_SHUFFLE(3, 2, 3, 2)),
                   _mm256_shuffle_ps(t1, t3, _MM_SHUFFLE(1, 0, 1, 0)),
                   _mm256_shuffle_ps(t1, t3, _MM_SHUFFLE(3, 2, 3, 2))};
    for (int l = 0; l < 4; ++l) {
        _mm_storeu_ps(p + l * ld, _mm256_castps256_ps128(u[l]));
        _mm_storeu_ps(p + (l + 4) * ld, _mm256_extractf128_ps(u[l], 1));
    }
#elif defined(MESORASI_KERNEL_ISA_SSE2)
    _MM_TRANSPOSE4_PS(r0.v, r1.v, r2.v, r3.v);
    _mm_storeu_ps(p, r0.v);
    _mm_storeu_ps(p + ld, r1.v);
    _mm_storeu_ps(p + 2 * ld, r2.v);
    _mm_storeu_ps(p + 3 * ld, r3.v);
#else
    float t[4][kWidth];
    r0.store(t[0]);
    r1.store(t[1]);
    r2.store(t[2]);
    r3.store(t[3]);
    for (int l = 0; l < kWidth; ++l)
        for (int c = 0; c < 4; ++c)
            p[l * ld + c] = t[c][l];
#endif
}

// ---------------------------------------------------------------------
// VecB: one register of kWidthB packed bytes — the quantized-PFT
// datapath (the int8/int4 gather-max kernels). Integer max is exact,
// associative and commutative, so — unlike the float lanes above — the
// byte kernels have no NaN/ordering subtleties: any traversal order is
// bitwise identical to the scalar reference.
// ---------------------------------------------------------------------

#if defined(MESORASI_KERNEL_ISA_AVX2)

inline constexpr int kWidthB = 32;

struct VecB
{
    __m256i v;

    static VecB load(const void *p)
    {
        return {_mm256_loadu_si256(static_cast<const __m256i *>(p))};
    }
    static VecB broadcast(int8_t x) { return {_mm256_set1_epi8(x)}; }
    void store(void *p) const
    {
        _mm256_storeu_si256(static_cast<__m256i *>(p), v);
    }
};

inline VecB maxI8(VecB a, VecB b) { return {_mm256_max_epi8(a.v, b.v)}; }
inline VecB andB(VecB a, VecB b) { return {_mm256_and_si256(a.v, b.v)}; }
inline VecB xorB(VecB a, VecB b) { return {_mm256_xor_si256(a.v, b.v)}; }
inline VecB subI8(VecB a, VecB b) { return {_mm256_sub_epi8(a.v, b.v)}; }

/** Per-byte logical shift right by 4 (the high-nibble extract). x86 has
 *  no per-byte shift, so shift 16-bit lanes and mask the bits that
 *  crossed byte boundaries. */
inline VecB
srl4(VecB a)
{
    return {_mm256_and_si256(_mm256_srli_epi16(a.v, 4),
                             _mm256_set1_epi8(0x0F))};
}

/** Convert kWidth f32 lanes (already clamped into int8 range) to int8
 *  and store to p[0..kWidth). Rounds to nearest-even via CVTPS2DQ,
 *  matching the scalar reference's std::nearbyintf under the default
 *  rounding mode; the saturating packs are exact for pre-clamped
 *  values. */
inline void
cvtF32ToI8(VecF x, int8_t *p)
{
    __m256i i = _mm256_cvtps_epi32(x.v);
    __m128i w = _mm_packs_epi32(_mm256_castsi256_si128(i),
                                _mm256_extracti128_si256(i, 1));
    __m128i b = _mm_packs_epi16(w, w);
    _mm_storel_epi64(reinterpret_cast<__m128i *>(p), b);
}

#elif defined(MESORASI_KERNEL_ISA_SSE2)

inline constexpr int kWidthB = 16;

struct VecB
{
    __m128i v;

    static VecB load(const void *p)
    {
        return {_mm_loadu_si128(static_cast<const __m128i *>(p))};
    }
    static VecB broadcast(int8_t x) { return {_mm_set1_epi8(x)}; }
    void store(void *p) const
    {
        _mm_storeu_si128(static_cast<__m128i *>(p), v);
    }
};

/** Signed byte max. SSE2 only has the unsigned PMAXUB, so bias both
 *  operands by 0x80 (flipping the sign bit maps signed order onto
 *  unsigned order) and bias the result back. */
inline VecB
maxI8(VecB a, VecB b)
{
    __m128i bias = _mm_set1_epi8(static_cast<char>(0x80));
    return {_mm_xor_si128(_mm_max_epu8(_mm_xor_si128(a.v, bias),
                                       _mm_xor_si128(b.v, bias)),
                          bias)};
}

inline VecB andB(VecB a, VecB b) { return {_mm_and_si128(a.v, b.v)}; }
inline VecB xorB(VecB a, VecB b) { return {_mm_xor_si128(a.v, b.v)}; }
inline VecB subI8(VecB a, VecB b) { return {_mm_sub_epi8(a.v, b.v)}; }

inline VecB
srl4(VecB a)
{
    return {_mm_and_si128(_mm_srli_epi16(a.v, 4), _mm_set1_epi8(0x0F))};
}

inline void
cvtF32ToI8(VecF x, int8_t *p)
{
    __m128i i = _mm_cvtps_epi32(x.v);
    __m128i w = _mm_packs_epi32(i, i);
    __m128i b = _mm_packs_epi16(w, w);
    int32_t lo = _mm_cvtsi128_si32(b);
    __builtin_memcpy(p, &lo, 4);
}

#else // NEON

inline constexpr int kWidthB = 16;

struct VecB
{
    int8x16_t v;

    static VecB load(const void *p)
    {
        return {vld1q_s8(static_cast<const int8_t *>(p))};
    }
    static VecB broadcast(int8_t x) { return {vdupq_n_s8(x)}; }
    void store(void *p) const { vst1q_s8(static_cast<int8_t *>(p), v); }
};

inline VecB maxI8(VecB a, VecB b) { return {vmaxq_s8(a.v, b.v)}; }
inline VecB andB(VecB a, VecB b) { return {vandq_s8(a.v, b.v)}; }
inline VecB xorB(VecB a, VecB b) { return {veorq_s8(a.v, b.v)}; }
inline VecB subI8(VecB a, VecB b) { return {vsubq_s8(a.v, b.v)}; }

inline VecB
srl4(VecB a)
{
    return {vreinterpretq_s8_u8(vshrq_n_u8(vreinterpretq_u8_s8(a.v), 4))};
}

inline void
cvtF32ToI8(VecF x, int8_t *p)
{
    int32x4_t i = vcvtnq_s32_f32(x.v); // round to nearest-even
    int16x4_t w = vqmovn_s32(i);
    int8x8_t b = vqmovn_s16(vcombine_s16(w, w));
    int8_t tmp[8];
    vst1_s8(tmp, b);
    __builtin_memcpy(p, tmp, 4);
}

#endif

} // namespace mesorasi::simd::MESORASI_ISA

#endif // MESORASI_ISA
