#ifndef S2_SIMD_SIMD_H_
#define S2_SIMD_SIMD_H_

#include <cstddef>
#include <string_view>
#include <vector>

#include "common/status.h"

/// Portable vectorized kernels with runtime dispatch (DESIGN.md §12).
///
/// Every function here computes one *canonical* result defined by a fixed
/// blocked reduction order (see kernels_inl.h): four logical accumulator
/// lanes, element j contributing to lane j mod 4, early-abandon checks at
/// 16-element boundaries, and the final reduction tree (l0+l2)+(l1+l3).
/// The scalar fallback implements that exact order with plain doubles, so
/// every backend — scalar, SSE2, AVX2, NEON — produces bit-identical
/// output for identical input. Kernel translation units are compiled with
/// -ffp-contract=off so no backend silently fuses multiply-add.
///
/// Dispatch resolves once (lazily) from CPUID plus the S2_SIMD environment
/// variable ("off"/"scalar", "sse2", "avx2", "neon", "auto"; unknown or
/// unavailable values fall back to scalar). Tests and benchmarks may pin a
/// backend with SetIsa(); engines may override per-process via
/// core::S2Engine::Options::simd -> Configure().
namespace s2::simd {

enum class Isa {
  kScalar = 0,
  kSse2 = 1,
  kAvx2 = 2,
  kNeon = 3,
};

/// Human-readable backend name ("scalar", "sse2", "avx2", "neon").
const char* IsaName(Isa isa);

/// The backend currently answering kernel calls.
Isa ActiveIsa();

/// Every backend compiled into this binary AND supported by this CPU,
/// scalar always included.
std::vector<Isa> AvailableIsas();

/// Pin dispatch to one backend. Unavailable if it was not compiled in or
/// the CPU lacks it. Intended for tests/benches; call while no kernels are
/// in flight (the switch itself is atomic, but in-flight callers may have
/// already resolved the old table — results are still bit-identical).
Status SetIsa(Isa isa);

/// Apply a textual mode: "" or "auto" re-resolves from CPUID + S2_SIMD,
/// "off"/"scalar" force the scalar backend, "sse2"/"avx2"/"neon" pin that
/// backend (Unavailable if absent). Anything else is InvalidArgument.
Status Configure(std::string_view mode);

/// Drop any pin and re-resolve from CPUID + S2_SIMD on next use.
void ResetDispatch();

// --- Dispatched kernels (canonical blocked order, see above) ---

/// Sum of x[0..n).
double Sum(const double* x, size_t n);

/// Sum of squares of x[0..n) (signal energy).
double SumSq(const double* x, size_t n);

/// Sum of (x[i] - mean)^2 — the two-pass centered variance numerator.
double CenteredSumSq(const double* x, size_t n, double mean);

/// Sum of (a[i] - b[i])^2 — squared Euclidean distance.
double SumSqDiff(const double* a, const double* b, size_t n);

/// Squared Euclidean distance with early abandoning: after every 16
/// elements the partial sum is reduced and compared against `limit_sq`
/// (strictly greater abandons). Returns either the complete canonical sum
/// or the canonical partial sum at the abandoning 16-element boundary; the
/// partial sums are themselves part of the canonical spec, so abandoned
/// return values are bit-identical across backends too. The result is
/// <= limit_sq if and only if it is the complete sum, which is what makes
/// squared-domain gating at call sites exact (index/vp_tree.cc).
double SumSqDiffAbandon(const double* a, const double* b, size_t n,
                        double limit_sq);

/// Squared LB_Keogh envelope distance with the same 16-element abandoning
/// contract as SumSqDiffAbandon. Clamp is branchless compare-select:
/// (c>upper ? c-upper : 0) and (lower>c ? lower-c : 0), each squared and
/// accumulated separately — NaN candidates contribute 0, matching the
/// branchy scalar reference.
double LbKeoghSqAbandon(const double* lower, const double* upper,
                        const double* candidate, size_t n, double limit_sq);

/// out[i] = (x[i] - mean) / stddev. Caller handles stddev == 0.
void Standardize(const double* x, size_t n, double mean, double stddev,
                 double* out);

/// Best-effort read prefetch hint; no-op where unsupported.
inline void PrefetchRead(const void* p) {
#if defined(__GNUC__) || defined(__clang__)
  __builtin_prefetch(p, 0, 3);
#else
  (void)p;
#endif
}

}  // namespace s2::simd

#endif  // S2_SIMD_SIMD_H_
