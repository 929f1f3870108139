#include "burst/burst_table.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <string>
#include <unordered_map>

#include "diag/check.h"
#include "diag/validate.h"

namespace s2::burst {

void BurstTable::Insert(ts::SeriesId series_id,
                        const std::vector<BurstRegion>& regions, int32_t offset) {
  if (regions.empty()) return;
  S2_CHECK(series_id != ts::kInvalidSeriesId)
      << "BurstTable::Insert: the invalid series id marks free slots";
  if (series_id >= series_head_.size()) {
    series_head_.resize(static_cast<size_t>(series_id) + 1, kNoSlot);
  }
  for (const BurstRegion& region : regions) {
    uint32_t slot = free_head_;
    if (slot != kNoSlot) {
      free_head_ = next_slot_[slot];
    } else {
      slot = static_cast<uint32_t>(records_.size());
      records_.emplace_back();
      next_slot_.push_back(kNoSlot);
    }
    BurstRecord& record = records_[slot];
    record.series_id = series_id;
    record.start = region.start + offset;
    record.end = region.end + offset;
    record.avg_value = region.avg_value;
    next_slot_[slot] = series_head_[series_id];
    series_head_[series_id] = slot;
    start_index_.Insert(record.start, slot);
  }
}

size_t BurstTable::EraseSeries(ts::SeriesId series_id) {
  if (series_id >= series_head_.size()) return 0;
  size_t erased = 0;
  uint32_t slot = series_head_[series_id];
  while (slot != kNoSlot) {
    const uint32_t next = next_slot_[slot];
    const bool indexed = start_index_.Erase(records_[slot].start, slot);
    S2_DCHECK(indexed) << "slot " << slot << " missing from the index";
    records_[slot] = BurstRecord{};
    next_slot_[slot] = free_head_;
    free_head_ = slot;
    ++erased;
    slot = next;
  }
  series_head_[series_id] = kNoSlot;
  return erased;
}

std::vector<BurstRecord> BurstTable::FindOverlappingCounted(
    const BurstRegion& query, size_t* scanned) const {
  // Index scan: startDate <= query.end; residual filter: endDate >= query.start.
  std::vector<BurstRecord> out;
  start_index_.Scan(std::numeric_limits<int32_t>::min(), query.end,
                    [&](int32_t /*start*/, uint32_t record_idx) {
                      ++*scanned;
                      const BurstRecord& record = records_[record_idx];
                      if (record.end >= query.start) out.push_back(record);
                      return true;
                    });
  return out;
}

std::vector<BurstRecord> BurstTable::FindOverlapping(const BurstRegion& query) const {
  size_t scanned = 0;
  std::vector<BurstRecord> out = FindOverlappingCounted(query, &scanned);
  last_scanned_.store(scanned, std::memory_order_relaxed);
  return out;
}

std::vector<BurstMatch> BurstTable::QueryByBurst(
    const std::vector<BurstRegion>& query_bursts, size_t k,
    ts::SeriesId exclude) const {
  std::unordered_map<ts::SeriesId, double> scores;
  size_t scanned_total = 0;
  for (const BurstRegion& q : query_bursts) {
    const std::vector<BurstRecord> overlapping =
        FindOverlappingCounted(q, &scanned_total);
    for (const BurstRecord& record : overlapping) {
      if (record.series_id == exclude) continue;
      const BurstRegion b = record.region();
      const double intersect = Intersect(q, b);
      if (intersect == 0.0) continue;
      scores[record.series_id] += intersect * ValueSimilarity(q, b);
    }
  }
  last_scanned_.store(scanned_total, std::memory_order_relaxed);

  std::vector<BurstMatch> matches;
  matches.reserve(scores.size());
  for (const auto& [id, score] : scores) matches.push_back({id, score});
  std::sort(matches.begin(), matches.end(), [](const BurstMatch& a, const BurstMatch& b) {
    if (a.bsim != b.bsim) return a.bsim > b.bsim;
    return a.series_id < b.series_id;  // Deterministic order for ties.
  });
  if (k > 0 && matches.size() > k) matches.resize(k);
  return matches;
}

Status BurstTable::Validate() const {
  diag::Validator v("BurstTable");
  if (next_slot_.size() != records_.size()) {
    v.AddViolation(std::to_string(next_slot_.size()) + " slot links for " +
                   std::to_string(records_.size()) + " slots");
    return v.ToStatus();
  }

  // Every slot sits on exactly one list: the free list, or the list of the
  // series it holds. A link that overruns the heap or revisits a slot ends
  // the walk.
  std::vector<uint8_t> listed(records_.size(), 0);
  auto walk = [&](uint32_t head, ts::SeriesId owner) {
    auto name = [owner] {
      return owner == ts::kInvalidSeriesId
                 ? std::string("the free list")
                 : "the list of series " + std::to_string(owner);
    };
    for (uint32_t slot = head; slot != kNoSlot; slot = next_slot_[slot]) {
      if (slot >= records_.size() || listed[slot] != 0) {
        v.AddViolation(name() + " links to slot " + std::to_string(slot) +
                       (slot >= records_.size() ? ", past the record heap"
                                                : ", already listed"));
        return;
      }
      listed[slot] = 1;
      v.Check(records_[slot].series_id == owner)
          << "slot " << slot << " on " << name() << " holds series "
          << records_[slot].series_id;
    }
  };
  walk(free_head_, ts::kInvalidSeriesId);
  for (size_t id = 0; id < series_head_.size(); ++id) {
    walk(series_head_[id], static_cast<ts::SeriesId>(id));
  }

  // The index and the live records must agree exactly: one index entry per
  // live slot and none for a free one, keyed by its start date, scanned
  // back in non-decreasing key order.
  S2_RETURN_NOT_OK(start_index_.Validate());
  std::vector<uint8_t> indexed(records_.size(), 0);
  int32_t prev_key = std::numeric_limits<int32_t>::min();
  start_index_.ScanAll([&](int32_t key, uint32_t slot) {
    v.Check(key >= prev_key)
        << "index scan keys decrease at " << key << " after " << prev_key;
    prev_key = key;
    if (slot >= records_.size()) {
      v.AddViolation("index entry points past the record heap (slot " +
                     std::to_string(slot) + " of " +
                     std::to_string(records_.size()) + ")");
      return true;
    }
    v.Check(records_[slot].series_id != ts::kInvalidSeriesId)
        << "index entry " << key << " points at free slot " << slot;
    v.Check(indexed[slot] == 0) << "record " << slot << " indexed twice";
    indexed[slot] = 1;
    v.Check(records_[slot].start == key)
        << "index key " << key << " != record " << slot << " start date "
        << records_[slot].start;
    return true;
  });

  for (size_t i = 0; i < records_.size(); ++i) {
    v.Check(listed[i] != 0) << "slot " << i << " is on no list";
    const BurstRecord& record = records_[i];
    if (record.series_id == ts::kInvalidSeriesId) continue;  // Free slot.
    v.Check(indexed[i] != 0) << "record " << i << " missing from the index";
    v.Check(record.start <= record.end)
        << "record " << i << " has an inverted interval [" << record.start
        << ", " << record.end << "]";
    v.Check(std::isfinite(record.avg_value))
        << "record " << i << " has a non-finite average burst value";
  }
  return v.ToStatus();
}

}  // namespace s2::burst
