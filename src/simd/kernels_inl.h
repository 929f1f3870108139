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

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <limits>

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

// The lane DP (DtwLanes in simd.h). Every step runs one row of each lane's
// band DP over all 2w + 1 cells, in t order, each cell exactly the scalar
// DP's `std::min(std::min(up, up_left), left) + cost`. std::min(x, y) is
// `y < x ? y : x`, which is B::Min(y, x), so every min keeps the scalar
// DP's operand order and agrees with it on NaN too. Cells off the matrix
// read +inf from the query ring and come out +inf (or NaN from an infinite
// row value); either way they only ever reach the second operand of a min
// (the up-left or left of a first in-band cell, or the row minimum), where
// +inf and NaN both leave the first operand — exactly what the scalar DP's
// never-written +inf cells do. A free lane computes on stale cells and its
// tests never fire.
template <class B>
uint32_t DtwLanesRunImpl(DtwLanes::State* s) {
  using Vec = typename B::Vec;
  constexpr size_t kL = DtwLanes::kLanes;
  constexpr size_t kVecs = kL / 4;
  static_assert(kL % 4 == 0 && kL <= 32, "lanes come in vectors of four");
  if (std::all_of(s->row, s->row + kL, [](const double* r) { return r == nullptr; })) {
    return 0;
  }
  const size_t n = s->n;
  const size_t w2 = 2 * s->w;
  const size_t slots = w2 + 2;
  const Vec inf = B::Broadcast(std::numeric_limits<double>::infinity());
  for (;;) {
    // Feed the next step: query slot clock + 2w + 1 and the next row value
    // of every lane that has a next row.
    size_t feed = s->slot + w2 + 1;
    if (feed >= slots) feed -= slots;
    double* next_value = s->value + ((s->clock + 1) & 1) * kL;
    for (size_t l = 0; l < kL; ++l) {
      if (s->row[l] == nullptr) continue;
      const size_t next = s->clock + 1 - s->start[l];
      if (next == n) continue;
      const double q = s->padded[next + w2];
      s->query[feed * kL + l] = q;
      if (feed < w2) s->query[(feed + slots) * kL + l] = q;
      next_value[l] = s->row[l][next];
    }

    const double* prev = s->band.data() + s->parity * slots * kL;
    double* curr = s->band.data() + (s->parity ^ 1) * slots * kL;
    const double* query = s->query.data() + s->slot * kL;
    const double* value = s->value + (s->clock & 1) * kL;
    Vec ai[kVecs];
    Vec left[kVecs];
    Vec row_min[kVecs];
    for (size_t v = 0; v < kVecs; ++v) {
      ai[v] = B::Load(value + 4 * v);
      left[v] = inf;
      row_min[v] = inf;
    }
    for (size_t t = 0; t <= w2; ++t) {
      const size_t at = t * kL;
      for (size_t v = 0; v < kVecs; ++v) {
        const size_t c = at + 4 * v;
        const Vec d = B::Sub(ai[v], B::Load(query + c));
        const Vec up = B::Min(B::Load(prev + c), B::Load(prev + c + kL));
        left[v] = B::Add(B::Min(left[v], up), B::Mul(d, d));
        B::Store(curr + c, left[v]);
        row_min[v] = B::Min(left[v], row_min[v]);
      }
    }
    s->parity ^= 1;
    ++s->clock;
    if (++s->slot == slots) s->slot = 0;

    alignas(64) double mins[kL];
    for (size_t v = 0; v < kVecs; ++v) B::Store(mins + 4 * v, row_min[v]);
    uint32_t done = 0;
    for (size_t l = 0; l < kL; ++l) {
      // Abandon is tested first, as in the scalar DP's last row. A free
      // lane's limit is +inf.
      if (mins[l] > s->limit[l]) {
        s->result[l] = mins[l];
      } else if (s->row[l] != nullptr && s->clock - s->start[l] == n) {
        s->result[l] = curr[s->w * kL + l];
      } else {
        continue;
      }
      s->row[l] = nullptr;
      s->limit[l] = std::numeric_limits<double>::infinity();
      done |= uint32_t{1} << l;
    }
    if (done != 0) return done;
  }
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
  t.dtw_lanes_run = &DtwLanesRunImpl<B>;
  return t;
}

}  // namespace s2::simd::detail

#endif  // S2_SIMD_KERNELS_INL_H_
