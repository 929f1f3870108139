#include <atomic>
#include <cstdlib>
#include <string>

#include "simd/kernels.h"
#include "simd/simd.h"

namespace s2::simd {

// Defined in the per-ISA translation units that the build included.
const KernelTable* ScalarTable();
#if defined(S2_SIMD_HAS_SSE2)
const KernelTable* Sse2Table();
#endif
#if defined(S2_SIMD_HAS_AVX2)
const KernelTable* Avx2Table();
#endif
#if defined(S2_SIMD_HAS_NEON)
const KernelTable* NeonTable();
#endif

namespace {

bool CpuHasAvx2() {
#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
  return __builtin_cpu_supports("avx2") != 0;
#else
  return false;
#endif
}

// Best backend this binary + CPU can run: AVX2 when CPUID says so, else
// the architecture baseline (SSE2 on x86-64, NEON on aarch64), else
// scalar.
const KernelTable* BestTable() {
#if defined(S2_SIMD_HAS_AVX2)
  if (CpuHasAvx2()) return Avx2Table();
#endif
#if defined(S2_SIMD_HAS_SSE2)
  return Sse2Table();
#elif defined(S2_SIMD_HAS_NEON)
  return NeonTable();
#else
  return ScalarTable();
#endif
}

std::string Lower(std::string_view s) {
  std::string out(s);
  for (char& c : out) {
    if (c >= 'A' && c <= 'Z') c = static_cast<char>(c - 'A' + 'a');
  }
  return out;
}

// Resolves the S2_SIMD environment override. Unknown or unavailable
// values deliberately degrade to scalar (never upward): the variable
// exists to turn vectorization off, so a typo must not silently leave it
// on.
const KernelTable* TableFromEnv() {
  const char* env = std::getenv("S2_SIMD");
  if (env == nullptr || *env == '\0') return BestTable();
  const std::string mode = Lower(env);
  if (mode == "auto" || mode == "on") return BestTable();
  if (const KernelTable* t = TableFor(Isa::kSse2); t && mode == "sse2") {
    return t;
  }
  if (const KernelTable* t = TableFor(Isa::kAvx2); t && mode == "avx2") {
    return t;
  }
  if (const KernelTable* t = TableFor(Isa::kNeon); t && mode == "neon") {
    return t;
  }
  return ScalarTable();
}

// Resolved lazily on first kernel call; SetIsa/Configure store directly,
// ResetDispatch clears back to lazy. The pointer is atomic so a pin from
// a test thread is safe, but callers already inside a kernel use the
// table they resolved — bit-compatibility makes that a non-event.
std::atomic<const KernelTable*> g_active{nullptr};

const KernelTable* Resolve() {
  const KernelTable* t = g_active.load(std::memory_order_acquire);
  if (t != nullptr) return t;
  const KernelTable* fresh = TableFromEnv();
  const KernelTable* expected = nullptr;
  if (g_active.compare_exchange_strong(expected, fresh,
                                       std::memory_order_acq_rel)) {
    return fresh;
  }
  return expected;
}

}  // namespace

const KernelTable* TableFor(Isa isa) {
  switch (isa) {
    case Isa::kScalar:
      return ScalarTable();
    case Isa::kSse2:
#if defined(S2_SIMD_HAS_SSE2)
      return Sse2Table();
#else
      return nullptr;
#endif
    case Isa::kAvx2:
#if defined(S2_SIMD_HAS_AVX2)
      return CpuHasAvx2() ? Avx2Table() : nullptr;
#else
      return nullptr;
#endif
    case Isa::kNeon:
#if defined(S2_SIMD_HAS_NEON)
      return NeonTable();
#else
      return nullptr;
#endif
  }
  return nullptr;
}

const KernelTable& ActiveTable() { return *Resolve(); }

const char* IsaName(Isa isa) {
  switch (isa) {
    case Isa::kScalar:
      return "scalar";
    case Isa::kSse2:
      return "sse2";
    case Isa::kAvx2:
      return "avx2";
    case Isa::kNeon:
      return "neon";
  }
  return "unknown";
}

Isa ActiveIsa() { return ActiveTable().isa; }

std::vector<Isa> AvailableIsas() {
  std::vector<Isa> out;
  for (Isa isa : {Isa::kScalar, Isa::kSse2, Isa::kAvx2, Isa::kNeon}) {
    if (TableFor(isa) != nullptr) out.push_back(isa);
  }
  return out;
}

Status SetIsa(Isa isa) {
  const KernelTable* t = TableFor(isa);
  if (t == nullptr) {
    return Status::Unavailable(std::string("simd backend not available: ") +
                               IsaName(isa));
  }
  g_active.store(t, std::memory_order_release);
  return Status::OK();
}

Status Configure(std::string_view mode) {
  const std::string m = Lower(mode);
  if (m.empty() || m == "auto" || m == "on") {
    g_active.store(TableFromEnv(), std::memory_order_release);
    return Status::OK();
  }
  if (m == "off" || m == "scalar") return SetIsa(Isa::kScalar);
  if (m == "sse2") return SetIsa(Isa::kSse2);
  if (m == "avx2") return SetIsa(Isa::kAvx2);
  if (m == "neon") return SetIsa(Isa::kNeon);
  return Status::InvalidArgument("unknown simd mode: " + m);
}

void ResetDispatch() { g_active.store(nullptr, std::memory_order_release); }

double Sum(const double* x, size_t n) { return ActiveTable().sum(x, n); }

double SumSq(const double* x, size_t n) { return ActiveTable().sum_sq(x, n); }

double CenteredSumSq(const double* x, size_t n, double mean) {
  return ActiveTable().centered_sum_sq(x, n, mean);
}

double SumSqDiff(const double* a, const double* b, size_t n) {
  return ActiveTable().sum_sq_diff(a, b, n);
}

double SumSqDiffAbandon(const double* a, const double* b, size_t n,
                        double limit_sq) {
  return ActiveTable().sum_sq_diff_abandon(a, b, n, limit_sq);
}

double LbKeoghSqAbandon(const double* lower, const double* upper,
                        const double* candidate, size_t n, double limit_sq) {
  return ActiveTable().lb_keogh_sq_abandon(lower, upper, candidate, n,
                                           limit_sq);
}

void Standardize(const double* x, size_t n, double mean, double stddev,
                 double* out) {
  ActiveTable().standardize(x, n, mean, stddev, out);
}

}  // namespace s2::simd
