// Checks of S2Server answers against the benchmark's own computations. Each
// returns an empty string when the answer passes and a description of the
// first disagreement otherwise. They run outside the timed phase.
#ifndef S2BENCH_CHECKS_H_
#define S2BENCH_CHECKS_H_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "approx/summary.h"
#include "burst/burst_detector.h"
#include "burst/burst_table.h"
#include "index/knn.h"
#include "monitor/subscription.h"
#include "period/period_detector.h"
#include "reference.h"

namespace s2bench {

/// True distance of a series id to the query under check.
using DistanceOf = std::function<double(uint32_t)>;

/// Exact kNN: same length as `truth`; ids equal except among distance ties
/// (an id may differ from the truth only if its own true distance ties the
/// truth's at that rank); every distance within kTol of the truth; no id
/// repeated or equal to `query`.
std::string CheckExactKnn(const std::vector<s2::index::Neighbor>& got,
                          const std::vector<Scored>& truth, uint32_t query,
                          const DistanceOf& distance_of);

/// Approximate kNN: every reported distance is its id's true distance; the
/// i-th reported distance is never below the true i-th distance; an answer
/// whose bound says guaranteed_exact must pass CheckExactKnn. `recall`
/// receives the share of the true top-k found (ties counted as found).
std::string CheckApproxKnn(const std::vector<s2::index::Neighbor>& got,
                           const s2::approx::QualityBound& bound,
                           const std::vector<Scored>& truth, uint32_t query,
                           const DistanceOf& distance_of, double* recall);

/// Periods: the reported bins are exactly those whose direct-DFT power of
/// the z-normalised series exceeds T_p = -mean ln(p) with period <= half
/// the series (bins within kTol of T_p may go either way); each power
/// within kTol of the direct one; descending by power.
std::string CheckPeriods(const std::vector<s2::period::PeriodHit>& got,
                         const std::vector<double>& raw, double p);

/// Bursts: the reported regions equal the benchmark's moving-average
/// computation (`window`, cutoff mean + x * std) on `raw` starting at
/// absolute day `start_day`.
std::string CheckBursts(const std::vector<s2::burst::BurstRegion>& got,
                        const std::vector<double>& raw, int32_t start_day,
                        size_t window, double x_std);

/// Query-by-burst: each score equals BSim recomputed from the benchmark's
/// regions of the query and of the matched series; scores descend; the
/// matches are the k best positive scores of all series but the query
/// (scores tied within kTol with the k-th may be exchanged).
std::string CheckQueryByBurst(const std::vector<s2::burst::BurstMatch>& got,
                              const std::vector<Region>& query_regions,
                              const std::vector<std::vector<Region>>& all_regions,
                              uint32_t query, size_t k);

/// One standing burst subscription as the benchmark simulates it.
struct SubscriptionModel {
  uint64_t id = 0;
  uint32_t series = 0;
  uint32_t window = 7;
  double enter = 1.5;
  double exit = 1.2;
  bool engaged = false;
};

/// Advances one subscription's hysteresis over the series' window after an
/// append on absolute day `day`, appending the alert it fires (if any) to
/// `out` with the next sequence number.
void StepSubscription(SubscriptionModel* m, const std::vector<double>& window,
                      int64_t day, uint64_t* next_seq,
                      std::vector<s2::monitor::Alert>* out);

/// Alerts: sequence numbers run without a gap from `first_seq`; every alert
/// equals the benchmark's expected alert at that position (subscription,
/// kind, day), its value is the recomputed moving-average ratio within kTol
/// and crosses the subscription's bound.
std::string CheckAlerts(const std::vector<s2::monitor::Alert>& polled,
                        const std::vector<s2::monitor::Alert>& expected,
                        uint64_t first_seq);

/// Recovery: the anchor the server restarted from plus the WAL records it
/// replayed must equal the appends it acknowledged.
std::string CheckRecoveryCount(uint64_t anchor, uint64_t replayed,
                               uint64_t acknowledged);

}  // namespace s2bench

#endif  // S2BENCH_CHECKS_H_
