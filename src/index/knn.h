#ifndef S2_INDEX_KNN_H_
#define S2_INDEX_KNN_H_

#include <algorithm>
#include <atomic>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <vector>

#include "timeseries/time_series.h"

namespace s2::index {

/// One nearest-neighbor answer.
struct Neighbor {
  ts::SeriesId id = ts::kInvalidSeriesId;
  double distance = 0.0;
};

/// Total order of answers: ascending distance, ties to the smaller id. Every
/// best-k list and every gather merge ranks by it, so which of several equal
/// distances make the cut never depends on offer order or shard layout.
inline bool NeighborLess(const Neighbor& a, const Neighbor& b) {
  return a.distance != b.distance ? a.distance < b.distance : a.id < b.id;
}

/// A bounded best-k list: the k smallest offers by `NeighborLess`, in that
/// order, whatever order they were offered in.
///
/// `Threshold()` is the current k-th distance (the pruning radius),
/// +infinity until the list fills.
class BestList {
 public:
  explicit BestList(size_t k) : k_(k) {}

  /// Offers a candidate; keeps it if it ranks before the current k-th.
  void Offer(ts::SeriesId id, double distance) {
    const Neighbor candidate{id, distance};
    if (k_ == 0) return;
    if (items_.size() == k_ && !NeighborLess(candidate, items_.back())) return;
    // Insert sorted; lists are tiny (k is small), linear insertion is fine.
    items_.insert(std::upper_bound(items_.begin(), items_.end(), candidate,
                                   NeighborLess),
                  candidate);
    if (items_.size() > k_) items_.pop_back();
  }

  /// Current pruning radius: k-th best distance, +infinity while unfilled.
  double Threshold() const {
    if (k_ == 0 || items_.size() < k_) {
      return std::numeric_limits<double>::infinity();
    }
    return items_.back().distance;
  }

  bool Full() const { return items_.size() == k_; }
  const std::vector<Neighbor>& items() const { return items_; }
  std::vector<Neighbor> Take() && { return std::move(items_); }

 private:
  size_t k_;
  std::vector<Neighbor> items_;
};

/// The squared-domain gate for a sqrt-domain radius `r`: r*r nudged up two
/// ulps (+infinity stays +infinity). A radius is sqrt(d) of some squared
/// distance d, and sqrt(d)^2 can round below d, so gating `dist_sq <= r*r`
/// would reject the very row tied at the radius — a tie another partition
/// published, which the (distance, id) order may need. The nudge admits it;
/// admitting a row a few ulps beyond the radius only adds an exact
/// distance the best-k list or the merge then ranks, never a wrong one.
inline double SquaredGate(double r) {
  const double sq = r * r;
  if (!(sq < std::numeric_limits<double>::infinity())) return sq;
  // Non-negative doubles order like their bit patterns: +2 is two ulps up.
  return std::bit_cast<double>(std::bit_cast<uint64_t>(sq) + 2);
}

/// A monotonically shrinking global best-k radius shared by concurrent
/// searches over disjoint partitions of one corpus (the scatter-gather kNN
/// of `s2::shard`, following TSseek's shared-pruning-bound pattern).
///
/// Each partition publishes (`Tighten`) any upper bound it can certify on
/// the *global* k-th nearest distance — its best-list threshold once full,
/// or the DTW search's Euclidean seed — and reads (`load`) the
/// tightest bound published by anyone to prune harder than its local state
/// alone would allow. Soundness: every published value is witnessed by k
/// real objects at that distance or closer, so a candidate provably beyond
/// the shared radius can never be in the global top-k; a stale (larger)
/// read only prunes less. Relaxed ordering is therefore enough — the value
/// is a hint for pruning, never a synchronization edge.
class SharedRadius {
 public:
  SharedRadius() = default;
  SharedRadius(const SharedRadius&) = delete;
  SharedRadius& operator=(const SharedRadius&) = delete;

  /// The tightest radius published so far (+infinity until someone has a
  /// full best-k list).
  double load() const { return radius_.load(std::memory_order_relaxed); }

  /// Publishes `r` if it improves on the current radius (atomic min).
  void Tighten(double r) {
    double current = radius_.load(std::memory_order_relaxed);
    while (r < current && !radius_.compare_exchange_weak(
                              current, r, std::memory_order_relaxed)) {
    }
  }

 private:
  std::atomic<double> radius_{std::numeric_limits<double>::infinity()};
};

}  // namespace s2::index

#endif  // S2_INDEX_KNN_H_
