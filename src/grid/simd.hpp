#pragma once

/// \file simd.hpp
/// Compile-time-dispatched SIMD primitives for the generation hot loops.
///
/// Three backends, selected by the compiler's target flags at build time
/// (no runtime dispatch — the whole binary is one backend, so results are
/// reproducible for a given build):
///
///   * AVX2 + FMA (x86-64, `-march=native` / `-mavx2 -mfma`),
///   * NEON (aarch64, where float64x2 is baseline),
///   * scalar fallback (always correct, always available).
///
/// Determinism contract: for a fixed (pointer contents, length) each
/// primitive performs a fixed sequence of floating-point operations — the
/// lane decomposition depends only on the length — so results are bitwise
/// reproducible across calls, threads, and processes *of the same build*.
/// Different backends may differ from each other at rounding level
/// (FMA contracts the multiply-add); the differential-equivalence suite
/// (tests/test_kernel_equivalence.cpp) bounds that difference against the
/// scalar reference.
///
/// All loads are unaligned (`loadu`): callers slide windows over rows at
/// arbitrary offsets (the separable-convolution inner loop), so alignment
/// cannot be assumed even though Array2D storage is 64-byte aligned.

#include <complex>
#include <cstddef>

#if defined(__AVX__)
#include <immintrin.h>
#endif

#if defined(__AVX2__) && defined(__FMA__)
#define RRS_SIMD_AVX2 1
#elif defined(__ARM_NEON) || defined(__aarch64__)
#include <arm_neon.h>
#define RRS_SIMD_NEON 1
#endif

namespace rrs::simd {

/// Name of the backend this translation unit was compiled against.
constexpr const char* backend() noexcept {
#if defined(RRS_SIMD_AVX2)
    return "avx2";
#elif defined(RRS_SIMD_NEON)
    return "neon";
#else
    return "scalar";
#endif
}

/// Clears the upper halves of the vector registers (`vzeroupper`).  Not a
/// no-op: code built with AVX that returns without clearing them (GCC 12
/// leaves them dirty on one path of TileService::generate_or_join, after a
/// 32-byte TileAddress copy) makes every later SSE instruction on that
/// thread pay the AVX→SSE transition penalty — glibc's scalar `log`/`cos`
/// then run ~25× slower, and the Box–Muller lattice fill ~5× slower.  Call
/// it at the entry of a hot loop that leaves AVX code for libm; it changes
/// no arithmetic.  Compiles to nothing without AVX.
inline void clear_upper_state() noexcept {
#if defined(__AVX__)
    _mm256_zeroupper();
#endif
}

/// Σ a[i]·b[i] for i in [0, n).  The separable engine's horizontal pass.
inline double dot(const double* a, const double* b, std::size_t n) noexcept {
#if defined(RRS_SIMD_AVX2)
    __m256d acc0 = _mm256_setzero_pd();
    __m256d acc1 = _mm256_setzero_pd();
    std::size_t i = 0;
    for (; i + 8 <= n; i += 8) {
        acc0 = _mm256_fmadd_pd(_mm256_loadu_pd(a + i), _mm256_loadu_pd(b + i), acc0);
        acc1 = _mm256_fmadd_pd(_mm256_loadu_pd(a + i + 4), _mm256_loadu_pd(b + i + 4),
                               acc1);
    }
    if (i + 4 <= n) {
        acc0 = _mm256_fmadd_pd(_mm256_loadu_pd(a + i), _mm256_loadu_pd(b + i), acc0);
        i += 4;
    }
    const __m256d acc = _mm256_add_pd(acc0, acc1);
    const __m128d lo = _mm256_castpd256_pd128(acc);
    const __m128d hi = _mm256_extractf128_pd(acc, 1);
    const __m128d pair = _mm_add_pd(lo, hi);
    double total = _mm_cvtsd_f64(_mm_add_sd(pair, _mm_unpackhi_pd(pair, pair)));
    for (; i < n; ++i) {
        total += a[i] * b[i];
    }
    return total;
#elif defined(RRS_SIMD_NEON)
    float64x2_t acc0 = vdupq_n_f64(0.0);
    float64x2_t acc1 = vdupq_n_f64(0.0);
    std::size_t i = 0;
    for (; i + 4 <= n; i += 4) {
        acc0 = vfmaq_f64(acc0, vld1q_f64(a + i), vld1q_f64(b + i));
        acc1 = vfmaq_f64(acc1, vld1q_f64(a + i + 2), vld1q_f64(b + i + 2));
    }
    if (i + 2 <= n) {
        acc0 = vfmaq_f64(acc0, vld1q_f64(a + i), vld1q_f64(b + i));
        i += 2;
    }
    double total = vaddvq_f64(vaddq_f64(acc0, acc1));
    for (; i < n; ++i) {
        total += a[i] * b[i];
    }
    return total;
#else
    double total = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
        total += a[i] * b[i];
    }
    return total;
#endif
}

/// y[i] += s·x[i] for i in [0, n).  The separable engine's vertical pass
/// accumulates kernel rows into the output row with this.
inline void axpy(double* y, const double* x, double s, std::size_t n) noexcept {
#if defined(RRS_SIMD_AVX2)
    const __m256d vs = _mm256_set1_pd(s);
    std::size_t i = 0;
    for (; i + 4 <= n; i += 4) {
        _mm256_storeu_pd(y + i,
                         _mm256_fmadd_pd(vs, _mm256_loadu_pd(x + i),
                                         _mm256_loadu_pd(y + i)));
    }
    for (; i < n; ++i) {
        y[i] += s * x[i];
    }
#elif defined(RRS_SIMD_NEON)
    const float64x2_t vs = vdupq_n_f64(s);
    std::size_t i = 0;
    for (; i + 2 <= n; i += 2) {
        vst1q_f64(y + i, vfmaq_f64(vld1q_f64(y + i), vs, vld1q_f64(x + i)));
    }
    for (; i < n; ++i) {
        y[i] += s * x[i];
    }
#else
    for (std::size_t i = 0; i < n; ++i) {
        y[i] += s * x[i];
    }
#endif
}

/// a[i] *= b[i] over complex arrays — the FFT engine's spectral pointwise
/// multiply.  std::complex<double> is layout-guaranteed {re, im}, so the
/// arrays are reinterpreted as interleaved doubles.
inline void cmul(std::complex<double>* a, const std::complex<double>* b,
                 std::size_t n) noexcept {
#if defined(RRS_SIMD_AVX2)
    auto* ap = reinterpret_cast<double*>(a);
    const auto* bp = reinterpret_cast<const double*>(b);
    std::size_t i = 0;
    for (; i + 2 <= n; i += 2) {  // two complex values per 256-bit vector
        const __m256d va = _mm256_loadu_pd(ap + 2 * i);
        const __m256d vb = _mm256_loadu_pd(bp + 2 * i);
        const __m256d b_re = _mm256_movedup_pd(vb);        // [s0 s0 s1 s1]
        const __m256d b_im = _mm256_permute_pd(vb, 0xF);   // [t0 t0 t1 t1]
        const __m256d a_sw = _mm256_permute_pd(va, 0x5);   // [i0 r0 i1 r1]
        // even lanes: r·s − i·t, odd lanes: i·s + r·t.
        _mm256_storeu_pd(ap + 2 * i,
                         _mm256_fmaddsub_pd(va, b_re, _mm256_mul_pd(a_sw, b_im)));
    }
    for (; i < n; ++i) {
        a[i] *= b[i];
    }
#elif defined(RRS_SIMD_NEON)
    auto* ap = reinterpret_cast<double*>(a);
    const auto* bp = reinterpret_cast<const double*>(b);
    const float64x2_t sign = {-1.0, 1.0};
    for (std::size_t i = 0; i < n; ++i) {
        const float64x2_t va = vld1q_f64(ap + 2 * i);      // [r i]
        const float64x2_t vb = vld1q_f64(bp + 2 * i);      // [s t]
        const float64x2_t b_re = vdupq_laneq_f64(vb, 0);
        const float64x2_t b_im = vdupq_laneq_f64(vb, 1);
        const float64x2_t a_sw = vextq_f64(va, va, 1);     // [i r]
        // lane 0: r·s − i·t, lane 1: i·s + r·t.
        vst1q_f64(ap + 2 * i,
                  vfmaq_f64(vmulq_f64(vmulq_f64(a_sw, b_im), sign), va, b_re));
    }
#else
    for (std::size_t i = 0; i < n; ++i) {
        a[i] *= b[i];
    }
#endif
}

}  // namespace rrs::simd
