#ifndef S2_SIMD_VEC_H_
#define S2_SIMD_VEC_H_

/// Backend vector wrappers: four double lanes per logical vector, one
/// struct per ISA. Each backend exposes the identical static interface
/// consumed by the generic kernels in kernels_inl.h:
///
///   struct B {
///     using Vec = ...;                       // 4 double lanes
///     static Vec Zero();
///     static Vec Broadcast(double v);
///     static Vec Load(const double* p);      // 4 consecutive, unaligned
///     static void Store(double* p, Vec v);
///     static Vec Add(Vec a, Vec b);          // lane-wise IEEE ops
///     static Vec Sub(Vec a, Vec b);
///     static Vec Mul(Vec a, Vec b);
///     static Vec Div(Vec a, Vec b);
///     static Vec Min(Vec a, Vec b);          // lane: a<b ? a : b
///     static Vec GtZeroize(Vec x, Vec y, Vec v);  // lane: x>y ? v : +0.0
///     static double Reduce(Vec v);           // (l0+l2)+(l1+l3), exactly
///   };
///
/// Lane-wise +-*/ are IEEE-754 deterministic, GtZeroize is a bitwise
/// mask-and (comparisons with NaN are false, so NaN lanes zeroize — same
/// as the scalar ternary), Min is MINPD's operand rule (the second operand
/// wins a tie, a signed-zero pair or any NaN; NEON's own vminq would return
/// the NaN, so NEON compare-selects), and every Reduce implements the same
/// tree, so any two backends are bit-interchangeable. Only the ISA blocks that the
/// current translation unit is compiled for are defined; kernels_scalar.cc
/// sees just VecScalar while kernels_avx2.cc (built with -mavx2) also sees
/// VecAvx2.
///
/// Keep FMA out: these translation units build with -ffp-contract=off and
/// no backend uses fused ops, so a*b+c never contracts on any ISA
/// (aarch64 would otherwise fuse by default and break bit-compatibility).

#if defined(__SSE2__)
#include <emmintrin.h>
#endif
#if defined(__AVX2__)
#include <immintrin.h>
#endif
#if defined(__aarch64__)
#include <arm_neon.h>
#endif

namespace s2::simd::detail {

struct VecScalar {
  struct Vec {
    double l0, l1, l2, l3;
  };
  static Vec Zero() { return {0.0, 0.0, 0.0, 0.0}; }
  static Vec Broadcast(double v) { return {v, v, v, v}; }
  static Vec Load(const double* p) { return {p[0], p[1], p[2], p[3]}; }
  static void Store(double* p, Vec v) {
    p[0] = v.l0;
    p[1] = v.l1;
    p[2] = v.l2;
    p[3] = v.l3;
  }
  static Vec Add(Vec a, Vec b) {
    return {a.l0 + b.l0, a.l1 + b.l1, a.l2 + b.l2, a.l3 + b.l3};
  }
  static Vec Sub(Vec a, Vec b) {
    return {a.l0 - b.l0, a.l1 - b.l1, a.l2 - b.l2, a.l3 - b.l3};
  }
  static Vec Mul(Vec a, Vec b) {
    return {a.l0 * b.l0, a.l1 * b.l1, a.l2 * b.l2, a.l3 * b.l3};
  }
  static Vec Div(Vec a, Vec b) {
    return {a.l0 / b.l0, a.l1 / b.l1, a.l2 / b.l2, a.l3 / b.l3};
  }
  static Vec Min(Vec a, Vec b) {
    return {a.l0 < b.l0 ? a.l0 : b.l0, a.l1 < b.l1 ? a.l1 : b.l1,
            a.l2 < b.l2 ? a.l2 : b.l2, a.l3 < b.l3 ? a.l3 : b.l3};
  }
  static Vec GtZeroize(Vec x, Vec y, Vec v) {
    return {x.l0 > y.l0 ? v.l0 : 0.0, x.l1 > y.l1 ? v.l1 : 0.0,
            x.l2 > y.l2 ? v.l2 : 0.0, x.l3 > y.l3 ? v.l3 : 0.0};
  }
  static double Reduce(Vec v) { return (v.l0 + v.l2) + (v.l1 + v.l3); }
};

#if defined(__SSE2__)
// Two 128-bit halves: lo = (l0, l1), hi = (l2, l3).
struct VecSse2 {
  struct Vec {
    __m128d lo, hi;
  };
  static Vec Zero() { return {_mm_setzero_pd(), _mm_setzero_pd()}; }
  static Vec Broadcast(double v) { return {_mm_set1_pd(v), _mm_set1_pd(v)}; }
  static Vec Load(const double* p) {
    return {_mm_loadu_pd(p), _mm_loadu_pd(p + 2)};
  }
  static void Store(double* p, Vec v) {
    _mm_storeu_pd(p, v.lo);
    _mm_storeu_pd(p + 2, v.hi);
  }
  static Vec Add(Vec a, Vec b) {
    return {_mm_add_pd(a.lo, b.lo), _mm_add_pd(a.hi, b.hi)};
  }
  static Vec Sub(Vec a, Vec b) {
    return {_mm_sub_pd(a.lo, b.lo), _mm_sub_pd(a.hi, b.hi)};
  }
  static Vec Mul(Vec a, Vec b) {
    return {_mm_mul_pd(a.lo, b.lo), _mm_mul_pd(a.hi, b.hi)};
  }
  static Vec Div(Vec a, Vec b) {
    return {_mm_div_pd(a.lo, b.lo), _mm_div_pd(a.hi, b.hi)};
  }
  static Vec Min(Vec a, Vec b) {
    return {_mm_min_pd(a.lo, b.lo), _mm_min_pd(a.hi, b.hi)};
  }
  static Vec GtZeroize(Vec x, Vec y, Vec v) {
    return {_mm_and_pd(_mm_cmpgt_pd(x.lo, y.lo), v.lo),
            _mm_and_pd(_mm_cmpgt_pd(x.hi, y.hi), v.hi)};
  }
  static double Reduce(Vec v) {
    const __m128d s = _mm_add_pd(v.lo, v.hi);  // (l0+l2, l1+l3)
    const __m128d swapped = _mm_unpackhi_pd(s, s);
    return _mm_cvtsd_f64(_mm_add_sd(s, swapped));
  }
};
#endif  // __SSE2__

#if defined(__AVX2__)
// One 256-bit register: lanes (l0, l1, l2, l3).
struct VecAvx2 {
  using Vec = __m256d;
  static Vec Zero() { return _mm256_setzero_pd(); }
  static Vec Broadcast(double v) { return _mm256_set1_pd(v); }
  static Vec Load(const double* p) { return _mm256_loadu_pd(p); }
  static void Store(double* p, Vec v) { _mm256_storeu_pd(p, v); }
  static Vec Add(Vec a, Vec b) { return _mm256_add_pd(a, b); }
  static Vec Sub(Vec a, Vec b) { return _mm256_sub_pd(a, b); }
  static Vec Mul(Vec a, Vec b) { return _mm256_mul_pd(a, b); }
  static Vec Div(Vec a, Vec b) { return _mm256_div_pd(a, b); }
  static Vec Min(Vec a, Vec b) { return _mm256_min_pd(a, b); }
  static Vec GtZeroize(Vec x, Vec y, Vec v) {
    return _mm256_and_pd(_mm256_cmp_pd(x, y, _CMP_GT_OQ), v);
  }
  static double Reduce(Vec v) {
    const __m128d lo = _mm256_castpd256_pd128(v);        // (l0, l1)
    const __m128d hi = _mm256_extractf128_pd(v, 1);      // (l2, l3)
    const __m128d s = _mm_add_pd(lo, hi);                // (l0+l2, l1+l3)
    const __m128d swapped = _mm_unpackhi_pd(s, s);
    return _mm_cvtsd_f64(_mm_add_sd(s, swapped));
  }
};
#endif  // __AVX2__

#if defined(__aarch64__)
// Two 128-bit halves: lo = (l0, l1), hi = (l2, l3).
struct VecNeon {
  struct Vec {
    float64x2_t lo, hi;
  };
  static Vec Zero() { return {vdupq_n_f64(0.0), vdupq_n_f64(0.0)}; }
  static Vec Broadcast(double v) { return {vdupq_n_f64(v), vdupq_n_f64(v)}; }
  static Vec Load(const double* p) { return {vld1q_f64(p), vld1q_f64(p + 2)}; }
  static void Store(double* p, Vec v) {
    vst1q_f64(p, v.lo);
    vst1q_f64(p + 2, v.hi);
  }
  static Vec Add(Vec a, Vec b) {
    return {vaddq_f64(a.lo, b.lo), vaddq_f64(a.hi, b.hi)};
  }
  static Vec Sub(Vec a, Vec b) {
    return {vsubq_f64(a.lo, b.lo), vsubq_f64(a.hi, b.hi)};
  }
  static Vec Mul(Vec a, Vec b) {
    return {vmulq_f64(a.lo, b.lo), vmulq_f64(a.hi, b.hi)};
  }
  static Vec Div(Vec a, Vec b) {
    return {vdivq_f64(a.lo, b.lo), vdivq_f64(a.hi, b.hi)};
  }
  static Vec Min(Vec a, Vec b) {
    return {vbslq_f64(vcltq_f64(a.lo, b.lo), a.lo, b.lo),
            vbslq_f64(vcltq_f64(a.hi, b.hi), a.hi, b.hi)};
  }
  static Vec GtZeroize(Vec x, Vec y, Vec v) {
    const uint64x2_t mlo = vcgtq_f64(x.lo, y.lo);
    const uint64x2_t mhi = vcgtq_f64(x.hi, y.hi);
    return {vreinterpretq_f64_u64(
                vandq_u64(mlo, vreinterpretq_u64_f64(v.lo))),
            vreinterpretq_f64_u64(
                vandq_u64(mhi, vreinterpretq_u64_f64(v.hi)))};
  }
  static double Reduce(Vec v) {
    const float64x2_t s = vaddq_f64(v.lo, v.hi);  // (l0+l2, l1+l3)
    return vgetq_lane_f64(s, 0) + vgetq_lane_f64(s, 1);
  }
};
#endif  // __aarch64__

}  // namespace s2::simd::detail

#endif  // S2_SIMD_VEC_H_
