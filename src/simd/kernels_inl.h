#ifndef S2_SIMD_KERNELS_INL_H_
#define S2_SIMD_KERNELS_INL_H_

/// Generic kernel bodies, instantiated once per backend translation unit
/// (kernels_scalar.cc, kernels_sse2.cc, kernels_avx2.cc, kernels_neon.cc).
/// The backend parameter B is one of the wrappers in vec.h.
///
/// This file IS the canonical arithmetic spec the bit-compatibility
/// contract refers to:
///   - four accumulator lanes; the element at global index j contributes
///     to lane (j mod 4);
///   - the vectorized body consumes 4-element groups in index order;
///   - early-abandon kernels reduce and test the accumulator after every
///     16 elements ("> limit_sq" abandons, returning that partial sum);
///   - the remainder (n mod 4) is accumulated with scalar arithmetic into
///     the spilled lanes, still addressed by global index mod 4;
///   - every reduction — mid-loop or final — is the same fixed tree
///     (lane0+lane2) + (lane1+lane3).
/// Because each step is a lane-wise IEEE-754 operation in a fixed order,
/// instantiating this file with any backend yields bit-identical results,
/// including the partial sums returned on abandonment. Goldens were
/// regenerated once when this blocked order replaced the old sequential
/// summation; from then on every backend must reproduce them exactly.

#include <cstddef>

#include "simd/kernels.h"
#include "simd/vec.h"

namespace s2::simd::detail {

// Reduces spilled lanes with the canonical tree; the scalar twin of
// B::Reduce so "spill + finish scalar tail + reduce" matches "B::Reduce"
// whenever the tail is empty.
inline double ReduceLanes(const double lanes[4]) {
  return (lanes[0] + lanes[2]) + (lanes[1] + lanes[3]);
}

template <class B>
double SumImpl(const double* x, size_t n) {
  typename B::Vec acc = B::Zero();
  size_t j = 0;
  for (; j + 4 <= n; j += 4) acc = B::Add(acc, B::Load(x + j));
  double lanes[4];
  B::Store(lanes, acc);
  for (; j < n; ++j) lanes[j & 3] += x[j];
  return ReduceLanes(lanes);
}

template <class B>
double SumSqImpl(const double* x, size_t n) {
  typename B::Vec acc = B::Zero();
  size_t j = 0;
  for (; j + 4 <= n; j += 4) {
    const typename B::Vec v = B::Load(x + j);
    acc = B::Add(acc, B::Mul(v, v));
  }
  double lanes[4];
  B::Store(lanes, acc);
  for (; j < n; ++j) lanes[j & 3] += x[j] * x[j];
  return ReduceLanes(lanes);
}

template <class B>
double CenteredSumSqImpl(const double* x, size_t n, double mean) {
  const typename B::Vec mean_v = B::Broadcast(mean);
  typename B::Vec acc = B::Zero();
  size_t j = 0;
  for (; j + 4 <= n; j += 4) {
    const typename B::Vec d = B::Sub(B::Load(x + j), mean_v);
    acc = B::Add(acc, B::Mul(d, d));
  }
  double lanes[4];
  B::Store(lanes, acc);
  for (; j < n; ++j) {
    const double d = x[j] - mean;
    lanes[j & 3] += d * d;
  }
  return ReduceLanes(lanes);
}

template <class B>
double SumSqDiffImpl(const double* a, const double* b, size_t n) {
  typename B::Vec acc = B::Zero();
  size_t j = 0;
  for (; j + 4 <= n; j += 4) {
    const typename B::Vec d = B::Sub(B::Load(a + j), B::Load(b + j));
    acc = B::Add(acc, B::Mul(d, d));
  }
  double lanes[4];
  B::Store(lanes, acc);
  for (; j < n; ++j) {
    const double d = a[j] - b[j];
    lanes[j & 3] += d * d;
  }
  return ReduceLanes(lanes);
}

template <class B>
double SumSqDiffAbandonImpl(const double* a, const double* b, size_t n,
                            double limit_sq) {
  typename B::Vec acc = B::Zero();
  size_t j = 0;
  while (j + 16 <= n) {
    for (size_t c = 0; c < 16; c += 4) {
      const typename B::Vec d =
          B::Sub(B::Load(a + j + c), B::Load(b + j + c));
      acc = B::Add(acc, B::Mul(d, d));
    }
    j += 16;
    const double partial = B::Reduce(acc);
    if (partial > limit_sq) return partial;
  }
  for (; j + 4 <= n; j += 4) {
    const typename B::Vec d = B::Sub(B::Load(a + j), B::Load(b + j));
    acc = B::Add(acc, B::Mul(d, d));
  }
  double lanes[4];
  B::Store(lanes, acc);
  for (; j < n; ++j) {
    const double d = a[j] - b[j];
    lanes[j & 3] += d * d;
  }
  return ReduceLanes(lanes);
}

template <class B>
double LbKeoghSqAbandonImpl(const double* lower, const double* upper,
                            const double* candidate, size_t n,
                            double limit_sq) {
  typename B::Vec acc = B::Zero();
  size_t j = 0;
  while (j + 16 <= n) {
    for (size_t c = 0; c < 16; c += 4) {
      const typename B::Vec cv = B::Load(candidate + j + c);
      const typename B::Vec uv = B::Load(upper + j + c);
      const typename B::Vec lv = B::Load(lower + j + c);
      const typename B::Vec over = B::GtZeroize(cv, uv, B::Sub(cv, uv));
      const typename B::Vec under = B::GtZeroize(lv, cv, B::Sub(lv, cv));
      acc = B::Add(acc, B::Mul(over, over));
      acc = B::Add(acc, B::Mul(under, under));
    }
    j += 16;
    const double partial = B::Reduce(acc);
    if (partial > limit_sq) return partial;
  }
  for (; j + 4 <= n; j += 4) {
    const typename B::Vec cv = B::Load(candidate + j);
    const typename B::Vec uv = B::Load(upper + j);
    const typename B::Vec lv = B::Load(lower + j);
    const typename B::Vec over = B::GtZeroize(cv, uv, B::Sub(cv, uv));
    const typename B::Vec under = B::GtZeroize(lv, cv, B::Sub(lv, cv));
    acc = B::Add(acc, B::Mul(over, over));
    acc = B::Add(acc, B::Mul(under, under));
  }
  double lanes[4];
  B::Store(lanes, acc);
  for (; j < n; ++j) {
    const double c = candidate[j];
    const double over = c > upper[j] ? c - upper[j] : 0.0;
    const double under = lower[j] > c ? lower[j] - c : 0.0;
    lanes[j & 3] += over * over;
    lanes[j & 3] += under * under;
  }
  return ReduceLanes(lanes);
}

template <class B>
void StandardizeImpl(const double* x, size_t n, double mean, double stddev,
                     double* out) {
  const typename B::Vec mean_v = B::Broadcast(mean);
  const typename B::Vec std_v = B::Broadcast(stddev);
  size_t j = 0;
  for (; j + 4 <= n; j += 4) {
    B::Store(out + j, B::Div(B::Sub(B::Load(x + j), mean_v), std_v));
  }
  for (; j < n; ++j) out[j] = (x[j] - mean) / stddev;
}

template <class B>
KernelTable MakeTable(Isa isa, const char* name) {
  KernelTable t;
  t.isa = isa;
  t.name = name;
  t.sum = &SumImpl<B>;
  t.sum_sq = &SumSqImpl<B>;
  t.centered_sum_sq = &CenteredSumSqImpl<B>;
  t.sum_sq_diff = &SumSqDiffImpl<B>;
  t.sum_sq_diff_abandon = &SumSqDiffAbandonImpl<B>;
  t.lb_keogh_sq_abandon = &LbKeoghSqAbandonImpl<B>;
  t.standardize = &StandardizeImpl<B>;
  return t;
}

}  // namespace s2::simd::detail

#endif  // S2_SIMD_KERNELS_INL_H_
