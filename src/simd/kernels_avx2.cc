#include "simd/kernels_inl.h"

// Compiled with -mavx2 (and -ffp-contract=off, like every kernel TU) only
// when the toolchain supports it; dispatch.cc gates use on CPUID.
#if defined(__AVX2__)

namespace s2::simd {

const KernelTable* Avx2Table() {
  static const KernelTable table =
      detail::MakeTable<detail::VecAvx2>(Isa::kAvx2, "avx2");
  return &table;
}

}  // namespace s2::simd

#else
#error "kernels_avx2.cc must be compiled with -mavx2"
#endif
