#include "simd/simd.h"

#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "simd/kernels.h"

// Differential harness for the simd kernel tables (DESIGN.md §12).
//
// The contract under test: every backend compiled into this binary and
// supported by this CPU computes the *same bits* as the scalar reference
// for every kernel, every length, and every abandon threshold — including
// the partial sums returned by an abandoning kernel, which are part of the
// canonical spec. The fuzz rounds steer inputs through the hostile corners
// of IEEE double: denormals, +/-inf (whose differences manufacture NaNs),
// constant series, and thresholds planted exactly on 16-element block
// boundaries where one ulp of divergence would flip the abandon decision.

namespace s2::simd {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

uint64_t Bits(double x) {
  uint64_t b = 0;
  std::memcpy(&b, &x, sizeof(b));
  return b;
}

// Bitwise equality, except any-NaN == any-NaN: inf - inf produces a NaN on
// every backend, but we do not insist on one particular payload.
bool BitEq(double a, double b) {
  if (std::isnan(a) && std::isnan(b)) return true;
  return Bits(a) == Bits(b);
}

#define EXPECT_BITEQ(a, b, what)                                            \
  EXPECT_TRUE(BitEq((a), (b)))                                              \
      << what << ": scalar=" << (a) << " (0x" << std::hex << Bits(a)        \
      << ") other=" << (b) << " (0x" << Bits(b) << std::dec << ")"

// One fuzzed input set: two aligned-ish series plus an envelope.
struct Inputs {
  std::vector<double> a;
  std::vector<double> b;
  std::vector<double> lower;
  std::vector<double> upper;
  double mean = 0.0;
  double stddev = 1.0;
  double limit_sq = kInf;
};

// Draws one value from a mixture that covers magnitudes from denormal to
// huge, exact small integers (which expose reassociation instantly), and
// occasionally +/-inf.
double HostileValue(Rng& rng, bool allow_inf) {
  const int kind = static_cast<int>(rng.UniformInt(0, 9));
  switch (kind) {
    case 0:
      return static_cast<double>(rng.UniformInt(-8, 8));  // exact integers
    case 1:
      return rng.Uniform(-1e-308, 1e-308);  // denormal territory
    case 2:
      return rng.Uniform(-1e12, 1e12);  // large magnitudes
    case 3:
      if (allow_inf && rng.Bernoulli(0.3)) return rng.Bernoulli(0.5) ? kInf : -kInf;
      return rng.Normal(0.0, 1.0);
    default:
      return rng.Normal(0.0, 1.0);  // the common case
  }
}

Inputs MakeInputs(Rng& rng, size_t n, bool allow_inf) {
  Inputs in;
  in.a.resize(n);
  in.b.resize(n);
  in.lower.resize(n);
  in.upper.resize(n);
  const bool constant_a = rng.Bernoulli(0.1);
  const double const_val = rng.Normal(0.0, 3.0);
  for (size_t i = 0; i < n; ++i) {
    in.a[i] = constant_a ? const_val : HostileValue(rng, allow_inf);
    in.b[i] = HostileValue(rng, allow_inf);
    double lo = HostileValue(rng, allow_inf);
    double hi = HostileValue(rng, allow_inf);
    if (lo > hi) std::swap(lo, hi);
    in.lower[i] = lo;
    in.upper[i] = hi;
  }
  in.mean = rng.Normal(0.0, 2.0);
  in.stddev = rng.Bernoulli(0.05) ? 1e-300 : rng.Uniform(0.1, 10.0);
  // Thresholds: mostly infinite (no abandon), sometimes tiny (abandon at
  // the first boundary), sometimes mid-range.
  const int tk = static_cast<int>(rng.UniformInt(0, 3));
  if (tk == 0) in.limit_sq = kInf;
  else if (tk == 1) in.limit_sq = 0.0;
  else in.limit_sq = rng.Uniform(0.0, static_cast<double>(n) * 4.0);
  return in;
}

// Runs every kernel of `table` against the scalar reference on `in`,
// failing with `tag` context on any bit mismatch.
void CheckAllKernels(const KernelTable& scalar, const KernelTable& table,
                     const Inputs& in, const std::string& tag) {
  const size_t n = in.a.size();
  const double* a = in.a.data();
  const double* b = in.b.data();

  EXPECT_BITEQ(scalar.sum(a, n), table.sum(a, n), tag + " sum");
  EXPECT_BITEQ(scalar.sum_sq(a, n), table.sum_sq(a, n), tag + " sum_sq");
  EXPECT_BITEQ(scalar.centered_sum_sq(a, n, in.mean),
               table.centered_sum_sq(a, n, in.mean), tag + " centered_sum_sq");
  EXPECT_BITEQ(scalar.sum_sq_diff(a, b, n), table.sum_sq_diff(a, b, n),
               tag + " sum_sq_diff");
  EXPECT_BITEQ(scalar.sum_sq_diff_abandon(a, b, n, in.limit_sq),
               table.sum_sq_diff_abandon(a, b, n, in.limit_sq),
               tag + " sum_sq_diff_abandon");
  EXPECT_BITEQ(
      scalar.lb_keogh_sq_abandon(in.lower.data(), in.upper.data(), a, n,
                                 in.limit_sq),
      table.lb_keogh_sq_abandon(in.lower.data(), in.upper.data(), a, n,
                                in.limit_sq),
      tag + " lb_keogh_sq_abandon");

  std::vector<double> out_ref(n, -1.0);
  std::vector<double> out_got(n, -1.0);
  scalar.standardize(a, n, in.mean, in.stddev, out_ref.data());
  table.standardize(a, n, in.mean, in.stddev, out_got.data());
  for (size_t i = 0; i < n; ++i) {
    EXPECT_BITEQ(out_ref[i], out_got[i],
                 tag + " standardize[" + std::to_string(i) + "]");
  }
}

TEST(SimdKernelTest, ScalarTableAlwaysAvailable) {
  ASSERT_NE(TableFor(Isa::kScalar), nullptr);
  EXPECT_STREQ(TableFor(Isa::kScalar)->name, "scalar");
  const std::vector<Isa> isas = AvailableIsas();
  ASSERT_FALSE(isas.empty());
  EXPECT_EQ(isas.front(), Isa::kScalar);
  for (Isa isa : isas) EXPECT_NE(TableFor(isa), nullptr) << IsaName(isa);
}

// The centerpiece: 520 seeded rounds over lengths 0..130 (every tail
// residue and up to eight 16-element blocks), all backends vs scalar.
TEST(SimdKernelTest, DifferentialFuzzAllBackends) {
  const KernelTable& scalar = *TableFor(Isa::kScalar);
  const std::vector<Isa> isas = AvailableIsas();
  Rng rng(20260808);
  int rounds = 0;
  for (int rep = 0; rep < 4; ++rep) {
    for (size_t n = 0; n <= 130; ++n) {
      const bool allow_inf = rep == 3;  // one hostile pass with infinities
      const Inputs in = MakeInputs(rng, n, allow_inf);
      for (Isa isa : isas) {
        if (isa == Isa::kScalar) continue;
        const std::string tag = "n=" + std::to_string(n) + " rep=" +
                                std::to_string(rep) + " isa=" + IsaName(isa);
        CheckAllKernels(scalar, *TableFor(isa), in, tag);
        if (HasFailure()) {
          FAIL() << "stopping at first diverging round: " << tag;
        }
      }
      ++rounds;
    }
  }
  EXPECT_GE(rounds, 500);
}

// Thresholds planted exactly on the canonical partial sums at every
// 16-element boundary: one ulp below must abandon with the identical
// partial, exactly-at must continue, and the abandoned partials themselves
// must match bit-for-bit across backends.
TEST(SimdKernelTest, AbandonThresholdAtEveryBlockBoundary) {
  const KernelTable& scalar = *TableFor(Isa::kScalar);
  const std::vector<Isa> isas = AvailableIsas();
  Rng rng(77);
  for (size_t n : {16u, 32u, 48u, 64u, 128u, 130u}) {
    const Inputs in = MakeInputs(rng, n, /*allow_inf=*/false);
    const double* a = in.a.data();
    const double* b = in.b.data();
    for (size_t boundary = 16; boundary <= n; boundary += 16) {
      // The canonical partial at a 16-boundary equals the canonical full
      // sum over the prefix (same lane assignment, same reduction tree).
      const double partial = scalar.sum_sq_diff(a, b, boundary);
      ASSERT_TRUE(std::isfinite(partial));
      const double below = std::nextafter(partial, -kInf);
      for (Isa isa : isas) {
        const KernelTable& t = *TableFor(isa);
        const std::string tag = std::string(IsaName(isa)) + " n=" +
                                std::to_string(n) + " boundary=" +
                                std::to_string(boundary);
        // limit one ulp below the partial: must abandon here (or earlier,
        // if an earlier partial already exceeds it) — in every backend
        // with the same bits as scalar.
        EXPECT_BITEQ(scalar.sum_sq_diff_abandon(a, b, n, below),
                     t.sum_sq_diff_abandon(a, b, n, below), tag + " below");
        // limit exactly at the partial: boundary check is strict-greater,
        // so the scan must continue past this block identically.
        EXPECT_BITEQ(scalar.sum_sq_diff_abandon(a, b, n, partial),
                     t.sum_sq_diff_abandon(a, b, n, partial), tag + " at");
      }
      // Abandoning at `below` before the end must return a value that is
      // strictly greater than the limit (the squared-gating contract).
      if (boundary < n) {
        const double got = scalar.sum_sq_diff_abandon(a, b, n, below);
        EXPECT_GT(got, below);
      }
    }
    // Infinite limit must reproduce the no-abandon kernel bit-for-bit.
    for (Isa isa : isas) {
      const KernelTable& t = *TableFor(isa);
      EXPECT_BITEQ(t.sum_sq_diff(a, b, n),
                   t.sum_sq_diff_abandon(a, b, n, kInf),
                   std::string(IsaName(isa)) + " inf-limit n=" +
                       std::to_string(n));
    }
  }
}

// Same boundary drill for the LB_Keogh kernel, whose per-element terms go
// through the compare-select clamp.
TEST(SimdKernelTest, LbKeoghAbandonBoundaries) {
  const KernelTable& scalar = *TableFor(Isa::kScalar);
  const std::vector<Isa> isas = AvailableIsas();
  Rng rng(78);
  for (size_t n : {16u, 64u, 129u}) {
    const Inputs in = MakeInputs(rng, n, /*allow_inf=*/false);
    for (size_t boundary = 16; boundary <= n; boundary += 16) {
      const double partial = scalar.lb_keogh_sq_abandon(
          in.lower.data(), in.upper.data(), in.a.data(), boundary, kInf);
      const double below = std::nextafter(partial, -kInf);
      for (Isa isa : isas) {
        const KernelTable& t = *TableFor(isa);
        for (double limit : {below, partial}) {
          EXPECT_BITEQ(
              scalar.lb_keogh_sq_abandon(in.lower.data(), in.upper.data(),
                                         in.a.data(), n, limit),
              t.lb_keogh_sq_abandon(in.lower.data(), in.upper.data(),
                                    in.a.data(), n, limit),
              std::string(IsaName(isa)) + " lbk n=" + std::to_string(n) +
                  " boundary=" + std::to_string(boundary));
        }
      }
    }
  }
}

// A candidate inside the envelope contributes exactly zero, even when the
// series is constant or denormal.
TEST(SimdKernelTest, LbKeoghInsideEnvelopeIsZero) {
  for (size_t n : {0u, 1u, 3u, 16u, 33u, 128u}) {
    std::vector<double> lower(n, -1.0), upper(n, 1.0), cand(n, 0.5);
    for (Isa isa : AvailableIsas()) {
      const KernelTable& t = *TableFor(isa);
      EXPECT_EQ(t.lb_keogh_sq_abandon(lower.data(), upper.data(), cand.data(),
                                      n, kInf),
                0.0)
          << IsaName(isa) << " n=" << n;
    }
  }
}

TEST(SimdKernelTest, EmptyAndTinyLengths) {
  const double x[4] = {2.0, -3.0, 5e-320, kInf};
  for (Isa isa : AvailableIsas()) {
    const KernelTable& t = *TableFor(isa);
    EXPECT_EQ(t.sum(x, 0), 0.0) << IsaName(isa);
    EXPECT_EQ(t.sum_sq(x, 0), 0.0) << IsaName(isa);
    EXPECT_EQ(t.sum_sq_diff(x, x, 0), 0.0) << IsaName(isa);
    EXPECT_EQ(t.sum_sq_diff_abandon(x, x, 0, 0.0), 0.0) << IsaName(isa);
    EXPECT_EQ(t.sum(x, 1), 2.0) << IsaName(isa);
    EXPECT_EQ(t.sum(x, 2), -1.0) << IsaName(isa);
    EXPECT_EQ(t.sum_sq_diff(x, x, 3), 0.0) << IsaName(isa);
  }
}

// Public dispatched entry points must answer through whichever backend is
// pinned, and flipping the pin must not change a single bit.
TEST(SimdKernelTest, DispatchPinningIsBitInvariant) {
  Rng rng(5150);
  const Inputs in = MakeInputs(rng, 100, /*allow_inf=*/false);
  const double ref_sum = Sum(in.a.data(), in.a.size());
  const double ref_dist =
      SumSqDiffAbandon(in.a.data(), in.b.data(), in.a.size(), in.limit_sq);
  for (Isa isa : AvailableIsas()) {
    ASSERT_TRUE(SetIsa(isa).ok()) << IsaName(isa);
    EXPECT_EQ(ActiveIsa(), isa);
    EXPECT_BITEQ(ref_sum, Sum(in.a.data(), in.a.size()),
                 std::string("dispatched sum via ") + IsaName(isa));
    EXPECT_BITEQ(ref_dist,
                 SumSqDiffAbandon(in.a.data(), in.b.data(), in.a.size(),
                                  in.limit_sq),
                 std::string("dispatched abandon via ") + IsaName(isa));
  }
  ResetDispatch();
}

TEST(SimdKernelTest, ConfigureModes) {
  EXPECT_TRUE(Configure("off").ok());
  EXPECT_EQ(ActiveIsa(), Isa::kScalar);
  EXPECT_TRUE(Configure("scalar").ok());
  EXPECT_EQ(ActiveIsa(), Isa::kScalar);
  EXPECT_TRUE(Configure("auto").ok());
  EXPECT_TRUE(Configure("").ok());
  EXPECT_FALSE(Configure("sse9").ok());
  // Pinning a backend that exists must succeed; one that does not must
  // come back Unavailable, not crash.
  for (Isa isa : {Isa::kSse2, Isa::kAvx2, Isa::kNeon}) {
    const Status s = SetIsa(isa);
    if (TableFor(isa) != nullptr) {
      EXPECT_TRUE(s.ok()) << IsaName(isa);
    } else {
      EXPECT_FALSE(s.ok()) << IsaName(isa);
    }
  }
  ResetDispatch();
}

}  // namespace
}  // namespace s2::simd
