#include "simd/simd.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "dtw/dtw.h"
#include "simd/kernels.h"

// Differential fuzz for the lane DP (simd::DtwLanes, DESIGN.md §12.5).
//
// Two contracts, both bit for bit:
//   - every available backend returns the scalar backend's value for every
//     lane of every schedule;
//   - every lane returns what dtw::DtwDistanceEarlyAbandonSq returns for its
//     candidate at its limit: the complete squared distance, or the minimum
//     of the row that abandoned.
// Schedules are per-lane job queues. A lane takes its next job the moment
// it is free, as the DTW search refills it, and "walker" jobs, which
// abandon on their first row, delay the next admission by one step each —
// so a test can admit a candidate at any clock offset.

namespace s2::simd {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr size_t kLanes = DtwLanes::kLanes;

// Bitwise equality, except any-NaN == any-NaN.
bool BitEq(double a, double b) {
  if (std::isnan(a) && std::isnan(b)) return true;
  return std::bit_cast<uint64_t>(a) == std::bit_cast<uint64_t>(b);
}

struct Job {
  const std::vector<double>* row;
  double limit_sq;
};

// Every DP row minimum is >= 0, so a walker abandons on its first row.
Job Walker(const std::vector<double>& row) { return {&row, -1.0}; }

// Runs each lane's queue through `table`. Returns every job's value, per
// lane in queue order, and the most lanes that finished on one step.
struct Outcome {
  std::vector<std::vector<double>> values;
  int most_together = 0;
};

Outcome RunQueues(const KernelTable& table, const std::vector<double>& query,
                  size_t window, const std::vector<std::vector<Job>>& queues) {
  DtwLanes lanes(query.data(), query.size(), window);
  Outcome out;
  out.values.resize(queues.size());
  auto admit = [&](size_t l) {
    const size_t next = out.values[l].size();
    if (next < queues[l].size()) {
      lanes.Admit(l, queues[l][next].row->data(), queues[l][next].limit_sq);
    }
  };
  for (size_t l = 0; l < queues.size(); ++l) admit(l);
  while (const uint32_t done = lanes.Run(table)) {
    out.most_together = std::max(out.most_together, std::popcount(done));
    for (size_t l = 0; l < queues.size(); ++l) {
      if ((done >> l & 1) == 0) continue;
      EXPECT_FALSE(lanes.busy(l));
      out.values[l].push_back(lanes.result(l));
      admit(l);
    }
  }
  return out;
}

// Runs `queues` on every backend and checks both contracts. Returns the
// most lanes that finished on one step.
int CheckQueues(const std::vector<double>& query, size_t window,
                const std::vector<std::vector<Job>>& queues,
                const std::string& where) {
  EXPECT_LE(queues.size(), kLanes);
  const Outcome scalar = RunQueues(*TableFor(Isa::kScalar), query, window, queues);
  for (size_t l = 0; l < queues.size(); ++l) {
    EXPECT_EQ(scalar.values[l].size(), queues[l].size()) << where << " lane " << l;
    for (size_t j = 0; j < scalar.values[l].size(); ++j) {
      const Job& job = queues[l][j];
      const double oracle =
          *dtw::DtwDistanceEarlyAbandonSq(*job.row, query, window, job.limit_sq);
      EXPECT_TRUE(BitEq(scalar.values[l][j], oracle))
          << where << " lane " << l << " job " << j << " limit " << job.limit_sq
          << ": lanes " << scalar.values[l][j] << " scalar DP " << oracle;
    }
  }
  for (Isa isa : AvailableIsas()) {
    if (isa == Isa::kScalar) continue;
    const Outcome got = RunQueues(*TableFor(isa), query, window, queues);
    EXPECT_EQ(got.most_together, scalar.most_together) << where << " " << IsaName(isa);
    for (size_t l = 0; l < queues.size(); ++l) {
      EXPECT_EQ(got.values[l].size(), scalar.values[l].size()) << where;
      for (size_t j = 0; j < std::min(got.values[l].size(), scalar.values[l].size());
           ++j) {
        EXPECT_TRUE(BitEq(got.values[l][j], scalar.values[l][j]))
            << where << " " << IsaName(isa) << " lane " << l << " job " << j;
      }
    }
  }
  return scalar.most_together;
}

// A uniform index in [0, hi].
size_t Pick(Rng& rng, size_t hi) {
  return static_cast<size_t>(rng.UniformInt(0, static_cast<int64_t>(hi)));
}

std::vector<double> Normal(Rng& rng, size_t n) {
  std::vector<double> x(n);
  for (double& v : x) v = rng.Normal(0.0, 1.0);
  return x;
}

// The minimum of every DP row over the band, from a full-matrix recurrence
// written apart from the library's band DP. Cell values are the same
// minimum plus the same cost, so the minima are bit-exact.
std::vector<double> RowMinima(const std::vector<double>& row,
                              const std::vector<double>& query, size_t window) {
  const size_t n = row.size();
  const size_t w = window == 0 ? n : window;
  std::vector<std::vector<double>> dp(n + 1, std::vector<double>(n + 1, kInf));
  dp[0][0] = 0.0;
  std::vector<double> minima;
  for (size_t i = 1; i <= n; ++i) {
    double m = kInf;
    for (size_t j = 1; j <= n; ++j) {
      if ((i > j ? i - j : j - i) > w) continue;
      const double d = row[i - 1] - query[j - 1];
      dp[i][j] = std::min({dp[i - 1][j], dp[i][j - 1], dp[i - 1][j - 1]}) + d * d;
      m = std::min(m, dp[i][j]);
    }
    minima.push_back(m);
  }
  return minima;
}

// Limits that land every decision on an edge: +inf, 0, one ulp around the
// complete value, and one ulp below the minimum of a sampled row — the
// first row, the last and two between — which abandons there.
std::vector<double> EdgeLimits(const std::vector<double>& row,
                               const std::vector<double>& query, size_t window,
                               Rng& rng) {
  const double exact = *dtw::DtwDistanceEarlyAbandonSq(row, query, window, kInf);
  std::vector<double> limits = {kInf, 0.0, std::nextafter(exact, -kInf), exact,
                                std::nextafter(exact, kInf)};
  const std::vector<double> minima = RowMinima(row, query, window);
  const size_t n = minima.size();
  for (size_t r : {size_t{0}, n - 1, Pick(rng, n - 1), Pick(rng, n - 1)}) {
    limits.push_back(std::nextafter(minima[r], -kInf));
  }
  return limits;
}

std::vector<size_t> Lengths(Rng& rng) {
  std::vector<size_t> lengths = {1, 2, 3, 4, 5, 7, 8, 16, 33, 300};
  for (int i = 0; i < 14; ++i) lengths.push_back(9 + Pick(rng, 290));
  return lengths;
}

// The main sweep: lengths 1..300, every window class, 1 to kLanes live
// lanes, each with a random queue of candidates (random rows, the query
// itself, duplicates, constant rows) at edge limits with random walker
// delays between them.
TEST(DtwLanesTest, EveryLaneMatchesTheScalarDpOnEveryBackend) {
  Rng rng(20261021);
  int trial = 0;
  for (size_t n : Lengths(rng)) {
    for (size_t w : {size_t{0}, size_t{1}, size_t{2}, size_t{16}, n - 1, n,
                     2 * n}) {
      const std::vector<double> query = Normal(rng, n);
      std::vector<std::vector<double>> pool = {
          query,
          std::vector<double>(n, 0.0),
          std::vector<double>(n, rng.Normal(0.0, 2.0)),
      };
      for (int c = 0; c < 3; ++c) pool.push_back(Normal(rng, n));
      std::vector<std::vector<double>> limits;
      for (const auto& row : pool) limits.push_back(EdgeLimits(row, query, w, rng));

      const size_t live = 1 + static_cast<size_t>(trial++) % kLanes;
      std::vector<std::vector<Job>> queues(live);
      for (auto& queue : queues) {
        for (int j = 0; j < 4; ++j) {
          for (size_t d = Pick(rng, 3); d > 0; --d) queue.push_back(Walker(pool[0]));
          const size_t c = Pick(rng, pool.size() - 1);
          const auto& edges = limits[c];
          queue.push_back({&pool[c], edges[Pick(rng, edges.size() - 1)]});
        }
      }
      CheckQueues(query, w, queues,
                  "n=" + std::to_string(n) + " w=" + std::to_string(w) +
                      " live=" + std::to_string(live));
      if (HasFailure()) return;
    }
  }
}

// Lane 1 is admitted at every clock offset against lane 0 and against the
// ring's period (n + 2w), and both keep going for several periods, so every
// admission phase meets every wrap position.
TEST(DtwLanesTest, AdmissionAtEveryClockOffsetAndAcrossTheRingWrap) {
  Rng rng(7);
  for (size_t n : {1u, 5u, 24u}) {
    for (size_t w : {size_t{1}, size_t{4}, n}) {
      const std::vector<double> query = Normal(rng, n);
      const std::vector<double> a = Normal(rng, n);
      const std::vector<double> b = Normal(rng, n);
      const double b_exact = *dtw::DtwDistanceEarlyAbandonSq(b, query, w, kInf);
      const size_t period = n + 2 * std::min(w, n - 1);
      for (size_t delay = 0; delay <= 2 * period; ++delay) {
        std::vector<std::vector<Job>> queues(2);
        for (int j = 0; j < 3; ++j) queues[0].push_back({&a, kInf});
        for (size_t d = 0; d < delay; ++d) queues[1].push_back(Walker(a));
        queues[1].push_back({&b, kInf});
        queues[1].push_back({&b, b_exact * 0.5});
        queues[1].push_back({&a, kInf});
        CheckQueues(query, w, queues,
                    "n=" + std::to_string(n) + " w=" + std::to_string(w) +
                        " delay=" + std::to_string(delay));
        if (HasFailure()) return;
      }
    }
  }
}

// Duplicates admitted on one step with one limit finish on one step, and
// the lane DP reports all of them at once.
TEST(DtwLanesTest, LanesFinishingOnTheSameStepAllReport) {
  Rng rng(11);
  const size_t n = 40;
  const std::vector<double> query = Normal(rng, n);
  const std::vector<double> row = Normal(rng, n);
  const double exact = *dtw::DtwDistanceEarlyAbandonSq(row, query, 8, kInf);
  for (double limit : {kInf, exact * 0.5}) {
    std::vector<std::vector<Job>> queues(kLanes);
    for (auto& queue : queues) queue.push_back({&row, limit});
    EXPECT_EQ(CheckQueues(query, 8, queues, "duplicates"),
              static_cast<int>(kLanes));
    // Two lanes, one step apart at admission, then level again.
    std::vector<std::vector<Job>> pair(2);
    pair[0] = {Walker(row), {&row, limit}};
    pair[1] = {Walker(row), {&row, limit}};
    EXPECT_EQ(CheckQueues(query, 8, pair, "pair"), 2);
  }
}

// On the last row the scalar DP tests abandon before it returns the
// complete value: a limit one ulp below the last row's minimum (with every
// earlier row at or under it) returns that minimum, and a limit at it
// returns the complete distance.
TEST(DtwLanesTest, AbandonOnTheLastRowWinsOverCompletion) {
  Rng rng(13);
  int planted = 0;
  for (int trial = 0; trial < 40; ++trial) {
    const size_t n = 2 + Pick(rng, 60);
    const size_t w = Pick(rng, 6);
    const std::vector<double> query = Normal(rng, n);
    const std::vector<double> row = Normal(rng, n);
    const std::vector<double> minima = RowMinima(row, query, w);
    const double last = minima.back();
    const double below = std::nextafter(last, -kInf);
    if (!(minima[n - 2] <= below)) continue;  // Would abandon earlier.
    ++planted;
    const double exact = *dtw::DtwDistanceEarlyAbandonSq(row, query, w, kInf);
    EXPECT_EQ(*dtw::DtwDistanceEarlyAbandonSq(row, query, w, below), last);
    std::vector<std::vector<Job>> queues(kLanes);
    for (size_t l = 0; l < kLanes; ++l) {
      queues[l].push_back({&row, l % 2 == 0 ? below : last});
    }
    CheckQueues(query, w, queues, "trial " + std::to_string(trial));
    const Outcome got = RunQueues(*TableFor(Isa::kScalar), query, w, queues);
    EXPECT_EQ(got.values[0][0], last);
    EXPECT_EQ(got.values[1][0], exact);
  }
  EXPECT_GT(planted, 10);
}

// Infinities and NaNs in the query and the rows: cells off the matrix come
// out NaN rather than +inf for an infinite row value, and the min operand
// order keeps both contracts anyway.
TEST(DtwLanesTest, NonFiniteInputsKeepBothContracts) {
  Rng rng(17);
  const double specials[] = {kInf, -kInf, std::numeric_limits<double>::quiet_NaN(),
                             0.0, 1e-310};
  for (int trial = 0; trial < 60; ++trial) {
    const size_t n = 1 + Pick(rng, 20);
    const size_t w = Pick(rng, 5);
    std::vector<double> query = Normal(rng, n);
    std::vector<std::vector<double>> pool(3, std::vector<double>(n));
    for (auto& row : pool) {
      for (double& v : row) {
        v = rng.Bernoulli(0.2) ? specials[Pick(rng, 4)] : rng.Normal(0.0, 1.0);
      }
    }
    for (double& v : query) {
      if (rng.Bernoulli(0.1)) v = specials[Pick(rng, 4)];
    }
    std::vector<std::vector<Job>> queues(kLanes);
    for (auto& queue : queues) {
      for (int j = 0; j < 3; ++j) {
        const double limits[] = {kInf, 0.0, rng.Uniform(0.0, 4.0 * static_cast<double>(n))};
        queue.push_back({&pool[Pick(rng, 2)], limits[Pick(rng, 2)]});
      }
    }
    CheckQueues(query, w, queues, "trial " + std::to_string(trial));
    if (HasFailure()) return;
  }
}

TEST(DtwLanesTest, NoBusyLaneRunsNothing) {
  const std::vector<double> query = {1.0, 2.0, 3.0};
  for (Isa isa : AvailableIsas()) {
    DtwLanes lanes(query.data(), query.size(), 1);
    EXPECT_EQ(lanes.Run(*TableFor(isa)), 0u) << IsaName(isa);
    EXPECT_EQ(lanes.steps(), 0u) << IsaName(isa);
  }
}

}  // namespace
}  // namespace s2::simd
