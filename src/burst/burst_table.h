#ifndef S2_BURST_BURST_TABLE_H_
#define S2_BURST_BURST_TABLE_H_

#include <atomic>
#include <cstdint>
#include <limits>
#include <utility>
#include <vector>

#include "burst/burst_detector.h"
#include "burst/burst_similarity.h"
#include "common/result.h"
#include "storage/bptree.h"
#include "timeseries/time_series.h"

namespace s2::burst {

/// One row of the paper's DBMS burst table:
/// `[sequenceID, startDate, endDate, average burst value]`.
struct BurstRecord {
  ts::SeriesId series_id = ts::kInvalidSeriesId;
  int32_t start = 0;  ///< Absolute day index of the first burst day.
  int32_t end = 0;    ///< Absolute day index of the last burst day.
  double avg_value = 0.0;

  BurstRegion region() const { return BurstRegion{start, end, avg_value}; }
};

/// A ranked query-by-burst answer.
struct BurstMatch {
  ts::SeriesId series_id = ts::kInvalidSeriesId;
  double bsim = 0.0;
};

/// The relational burst store of Section 6.3: burst triplets as records,
/// indexed with a B-tree on `startDate` so the SQL plan
///
///   SELECT B FROM Bursts B
///   WHERE B.startDate <= Q.endDate AND B.endDate >= Q.startDate
///
/// becomes one index range scan plus a residual filter. `QueryByBurst`
/// aggregates `BSim` per sequence over the qualifying records.
class BurstTable {
 public:
  BurstTable() = default;

  BurstTable(const BurstTable&) = delete;
  BurstTable& operator=(const BurstTable&) = delete;
  // Hand-written moves: the atomic scan counter is not movable by default.
  // Moving is not thread-safe (single-owner operation, like Insert).
  BurstTable(BurstTable&& other) noexcept { *this = std::move(other); }
  BurstTable& operator=(BurstTable&& other) noexcept {
    records_ = std::move(other.records_);
    next_slot_ = std::move(other.next_slot_);
    series_head_ = std::move(other.series_head_);
    free_head_ = std::exchange(other.free_head_, kNoSlot);
    start_index_ = std::move(other.start_index_);
    last_scanned_.store(other.last_scanned_.load(std::memory_order_relaxed),
                        std::memory_order_relaxed);
    return *this;
  }

  /// Inserts the burst triplets of one sequence. `offset` shifts
  /// region-local positions into absolute day indices (pass the series'
  /// `start_day`). Records reuse the slots `EraseSeries` freed. Series ids
  /// index a dense per-series array, so they should be small integers (the
  /// engine's corpus indices); `kInvalidSeriesId` is rejected.
  void Insert(ts::SeriesId series_id, const std::vector<BurstRegion>& regions,
              int32_t offset);

  /// Drops every record of one sequence (the streaming append path replaces
  /// a series' bursts after its window slides). Returns the number of
  /// records removed. Touches only that sequence's own records: each goes
  /// from the start-date index by its (start, slot) pair and its slot joins
  /// the free list. Not thread-safe against concurrent queries
  /// (single-owner operation, like Insert).
  size_t EraseSeries(ts::SeriesId series_id);

  /// All records overlapping `[query.start, query.end]`, via the start-date
  /// index, in ascending start date; records with equal start dates come in
  /// the order they were inserted (slot reuse does not reorder them).
  std::vector<BurstRecord> FindOverlapping(const BurstRegion& query) const;

  /// Query-by-burst: ranks sequences by `BSim` against the query's burst
  /// set. Only sequences with at least one overlapping burst can appear.
  /// Returns the top `k` (or all positive-score matches when k == 0),
  /// descending by score. `exclude` drops one id (typically the query's own
  /// sequence when it is part of the table).
  std::vector<BurstMatch> QueryByBurst(const std::vector<BurstRegion>& query_bursts,
                                       size_t k,
                                       ts::SeriesId exclude = ts::kInvalidSeriesId) const;

  /// Number of stored (live) burst records.
  size_t size() const { return start_index_.size(); }

  /// Bytes of the live records (the paper's "significantly less storage
  /// space" claim: 4 numbers per burst instead of the full sequence).
  size_t StorageBytes() const { return size() * sizeof(BurstRecord); }

  /// Scan statistics of the last FindOverlapping/QueryByBurst call:
  /// records touched by the index scan before the endDate filter. Under
  /// concurrent queries this reports *some* recent call's count (each query
  /// stores atomically; interleavings do not corrupt the value).
  size_t last_scanned() const {
    return last_scanned_.load(std::memory_order_relaxed);
  }

  /// Structural self-check: every slot is on exactly one list, either the
  /// free list (carrying no series id) or the list of the series it holds;
  /// every live record has `start <= end` with a finite average; the
  /// start-date index and the live records agree exactly (one entry per
  /// live slot and none for a free one, key == start, scan keys
  /// non-decreasing), including the B+-tree's own `Validate()`. Reports the
  /// exact violations as `Status::Corruption`.
  Status Validate() const;

 private:
  friend struct BurstTableTestPeer;  // Corruption injection in validator tests.

  // FindOverlapping core that reports the scan count to the caller instead
  // of the shared counter, keeping QueryByBurst accurate under concurrency.
  std::vector<BurstRecord> FindOverlappingCounted(const BurstRegion& query,
                                                  size_t* scanned) const;

  static constexpr uint32_t kNoSlot = std::numeric_limits<uint32_t>::max();

  // Record heap. A free slot holds series_id == kInvalidSeriesId.
  std::vector<BurstRecord> records_;
  // Per slot, the next slot on the same list: the slots of one series are
  // chained from series_head_[id], the free slots from free_head_.
  std::vector<uint32_t> next_slot_;
  std::vector<uint32_t> series_head_;
  uint32_t free_head_ = kNoSlot;
  // startDate -> slot. The B+-tree provides the ordered range scan the SQL
  // plan needs; equal start dates keep their insertion order.
  storage::BPlusTree<int32_t, uint32_t> start_index_;
  mutable std::atomic<size_t> last_scanned_ = 0;
};

}  // namespace s2::burst

#endif  // S2_BURST_BURST_TABLE_H_
