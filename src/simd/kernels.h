#ifndef S2_SIMD_KERNELS_H_
#define S2_SIMD_KERNELS_H_

#include <cstddef>

#include "simd/simd.h"

namespace s2::simd {

/// One resolved backend: a function pointer per kernel. All entries of all
/// tables compute the same canonical result bit-for-bit (see simd.h); only
/// the instruction mix differs. Exposed so the differential test harness
/// and bench_kernels can drive specific backends side by side without
/// flipping global dispatch.
struct KernelTable {
  Isa isa;
  const char* name;
  double (*sum)(const double* x, size_t n);
  double (*sum_sq)(const double* x, size_t n);
  double (*centered_sum_sq)(const double* x, size_t n, double mean);
  double (*sum_sq_diff)(const double* a, const double* b, size_t n);
  double (*sum_sq_diff_abandon)(const double* a, const double* b, size_t n,
                                double limit_sq);
  double (*lb_keogh_sq_abandon)(const double* lower, const double* upper,
                                const double* candidate, size_t n,
                                double limit_sq);
  void (*standardize)(const double* x, size_t n, double mean, double stddev,
                      double* out);
};

/// Table for one backend, or nullptr when it is not compiled in or the CPU
/// lacks it. TableFor(Isa::kScalar) never returns nullptr.
const KernelTable* TableFor(Isa isa);

/// The table kernel calls currently route through.
const KernelTable& ActiveTable();

}  // namespace s2::simd

#endif  // S2_SIMD_KERNELS_H_
