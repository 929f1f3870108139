#include "burst/burst_table.h"

#include <algorithm>
#include <cstring>
#include <map>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"

namespace s2::burst {

struct BurstTableTestPeer {
  static size_t HeapSlots(const BurstTable& table) { return table.records_.size(); }
};

namespace {

BurstRegion R(int32_t start, int32_t end, double avg) { return {start, end, avg}; }

TEST(BurstTableTest, EmptyTable) {
  BurstTable table;
  EXPECT_EQ(table.size(), 0u);
  EXPECT_TRUE(table.FindOverlapping(R(0, 100, 1.0)).empty());
  EXPECT_TRUE(table.QueryByBurst({R(0, 100, 1.0)}, 5).empty());
}

TEST(BurstTableTest, InsertWithOffsetShiftsDates) {
  BurstTable table;
  table.Insert(3, {R(10, 20, 1.5)}, 1000);
  ASSERT_EQ(table.size(), 1u);
  const std::vector<BurstRecord> records = table.FindOverlapping(R(0, 2000, 1.0));
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].start, 1010);
  EXPECT_EQ(records[0].end, 1020);
  EXPECT_EQ(records[0].series_id, 3u);
}

TEST(BurstTableTest, FindOverlappingMatchesSqlPredicate) {
  BurstTable table;
  table.Insert(0, {R(10, 20, 1.0)}, 0);
  table.Insert(1, {R(15, 30, 1.0)}, 0);
  table.Insert(2, {R(40, 50, 1.0)}, 0);
  table.Insert(3, {R(0, 9, 1.0)}, 0);

  const auto hits = table.FindOverlapping(R(12, 22, 1.0));
  std::vector<ts::SeriesId> ids;
  for (const BurstRecord& r : hits) ids.push_back(r.series_id);
  std::sort(ids.begin(), ids.end());
  EXPECT_EQ(ids, (std::vector<ts::SeriesId>{0, 1}));
}

TEST(BurstTableTest, BoundaryOverlapIsInclusive) {
  BurstTable table;
  table.Insert(0, {R(10, 20, 1.0)}, 0);
  EXPECT_EQ(table.FindOverlapping(R(20, 25, 1.0)).size(), 1u);  // Shares day 20.
  EXPECT_EQ(table.FindOverlapping(R(21, 25, 1.0)).size(), 0u);
  EXPECT_EQ(table.FindOverlapping(R(5, 10, 1.0)).size(), 1u);   // Shares day 10.
  EXPECT_EQ(table.FindOverlapping(R(5, 9, 1.0)).size(), 0u);
}

TEST(BurstTableTest, AgreesWithFullScan) {
  Rng rng(1);
  BurstTable table;
  std::vector<BurstRecord> all;
  for (ts::SeriesId id = 0; id < 200; ++id) {
    std::vector<BurstRegion> regions;
    const int n = static_cast<int>(rng.UniformInt(0, 3));
    for (int b = 0; b < n; ++b) {
      const int32_t start = static_cast<int32_t>(rng.UniformInt(0, 1000));
      const int32_t len = static_cast<int32_t>(rng.UniformInt(1, 60));
      regions.push_back(R(start, start + len - 1, rng.Uniform(0.5, 4.0)));
    }
    table.Insert(id, regions, 0);
    for (const BurstRegion& r : regions) {
      all.push_back(BurstRecord{id, r.start, r.end, r.avg_value});
    }
  }
  for (int trial = 0; trial < 50; ++trial) {
    const int32_t qs = static_cast<int32_t>(rng.UniformInt(0, 1000));
    const int32_t qe = qs + static_cast<int32_t>(rng.UniformInt(0, 100));
    const BurstRegion query = R(qs, qe, 1.0);
    auto indexed = table.FindOverlapping(query);
    size_t expected = 0;
    for (const BurstRecord& r : all) {
      if (r.start <= qe && r.end >= qs) ++expected;
    }
    EXPECT_EQ(indexed.size(), expected) << "trial " << trial;
  }
}

TEST(BurstTableTest, QueryByBurstRanksAlignedSeriesFirst) {
  BurstTable table;
  table.Insert(0, {R(100, 130, 2.0)}, 0);  // Perfectly aligned.
  table.Insert(1, {R(120, 160, 2.0)}, 0);  // Partial overlap.
  table.Insert(2, {R(500, 520, 2.0)}, 0);  // No overlap.
  const auto matches = table.QueryByBurst({R(100, 130, 2.0)}, 10);
  ASSERT_EQ(matches.size(), 2u);
  EXPECT_EQ(matches[0].series_id, 0u);
  EXPECT_EQ(matches[1].series_id, 1u);
  EXPECT_GT(matches[0].bsim, matches[1].bsim);
}

TEST(BurstTableTest, QueryByBurstAggregatesAcrossBursts) {
  BurstTable table;
  // Series 0 overlaps both query bursts; series 1 only one.
  table.Insert(0, {R(10, 20, 1.0), R(100, 110, 1.0)}, 0);
  table.Insert(1, {R(10, 20, 1.0)}, 0);
  const auto matches =
      table.QueryByBurst({R(10, 20, 1.0), R(100, 110, 1.0)}, 10);
  ASSERT_EQ(matches.size(), 2u);
  EXPECT_EQ(matches[0].series_id, 0u);
  EXPECT_NEAR(matches[0].bsim, 2.0, 1e-12);
  EXPECT_NEAR(matches[1].bsim, 1.0, 1e-12);
}

TEST(BurstTableTest, QueryByBurstExcludesSelf) {
  BurstTable table;
  table.Insert(0, {R(10, 20, 1.0)}, 0);
  table.Insert(1, {R(12, 22, 1.0)}, 0);
  const auto matches = table.QueryByBurst({R(10, 20, 1.0)}, 10, /*exclude=*/0);
  ASSERT_EQ(matches.size(), 1u);
  EXPECT_EQ(matches[0].series_id, 1u);
}

TEST(BurstTableTest, TopKTruncates) {
  BurstTable table;
  for (ts::SeriesId id = 0; id < 20; ++id) {
    table.Insert(id, {R(100, 120 + static_cast<int32_t>(id), 2.0)}, 0);
  }
  const auto matches = table.QueryByBurst({R(100, 120, 2.0)}, 5);
  EXPECT_EQ(matches.size(), 5u);
  // Descending scores.
  for (size_t i = 1; i < matches.size(); ++i) {
    EXPECT_GE(matches[i - 1].bsim, matches[i].bsim);
  }
}

TEST(BurstTableTest, StorageIsCompact) {
  BurstTable table;
  table.Insert(0, {R(10, 20, 1.0), R(30, 40, 2.0)}, 0);
  // Two records, far below the footprint of a 1024-double sequence.
  EXPECT_LE(table.StorageBytes(), 2 * sizeof(BurstRecord));
  EXPECT_LT(table.StorageBytes(), 1024 * sizeof(double));
}

TEST(BurstTableTest, ScanStatisticsExposed) {
  BurstTable table;
  for (ts::SeriesId id = 0; id < 100; ++id) {
    table.Insert(id, {R(static_cast<int32_t>(id * 10), static_cast<int32_t>(id * 10 + 5), 1.0)}, 0);
  }
  table.FindOverlapping(R(0, 50, 1.0));
  // The index scan stops at startDate <= 50: only ~6 records touched.
  EXPECT_LE(table.last_scanned(), 7u);
}


// The naive burst table the in-place erase must reproduce: records in
// insertion order, a stable erase, answers computed by full scans.
class ReferenceTable {
 public:
  void Insert(ts::SeriesId id, const std::vector<BurstRegion>& regions) {
    for (const BurstRegion& r : regions) {
      records_.push_back(BurstRecord{id, r.start, r.end, r.avg_value});
    }
  }

  size_t EraseSeries(ts::SeriesId id) {
    return std::erase_if(records_,
                         [id](const BurstRecord& r) { return r.series_id == id; });
  }

  size_t size() const { return records_.size(); }

  // Ascending start date; equal start dates in insertion order.
  std::vector<BurstRecord> FindOverlapping(const BurstRegion& q) const {
    std::vector<BurstRecord> out;
    for (const BurstRecord& r : records_) {
      if (r.start <= q.end && r.end >= q.start) out.push_back(r);
    }
    std::stable_sort(out.begin(), out.end(),
                     [](const BurstRecord& a, const BurstRecord& b) {
                       return a.start < b.start;
                     });
    return out;
  }

  std::vector<BurstMatch> QueryByBurst(const std::vector<BurstRegion>& query,
                                       size_t k, ts::SeriesId exclude) const {
    std::map<ts::SeriesId, double> scores;
    for (const BurstRegion& q : query) {
      for (const BurstRecord& r : FindOverlapping(q)) {
        if (r.series_id == exclude) continue;
        const double intersect = Intersect(q, r.region());
        if (intersect == 0.0) continue;
        scores[r.series_id] += intersect * ValueSimilarity(q, r.region());
      }
    }
    std::vector<BurstMatch> out;
    for (const auto& [id, score] : scores) out.push_back({id, score});
    std::sort(out.begin(), out.end(), [](const BurstMatch& a, const BurstMatch& b) {
      if (a.bsim != b.bsim) return a.bsim > b.bsim;
      return a.series_id < b.series_id;
    });
    if (k > 0 && out.size() > k) out.resize(k);
    return out;
  }

 private:
  std::vector<BurstRecord> records_;
};

bool SameBits(double a, double b) { return std::memcmp(&a, &b, sizeof a) == 0; }

std::vector<BurstRegion> RandomRegions(Rng* rng, int max_count) {
  std::vector<BurstRegion> regions;
  const int n = static_cast<int>(rng->UniformInt(0, max_count));
  for (int b = 0; b < n; ++b) {
    // A narrow start range makes equal start dates common.
    const int32_t start = static_cast<int32_t>(rng->UniformInt(0, 120));
    const int32_t len = static_cast<int32_t>(rng->UniformInt(1, 30));
    regions.push_back(R(start, start + len - 1, rng->Uniform(0.5, 4.0)));
  }
  return regions;
}

void ExpectSameAnswers(const BurstTable& table, const ReferenceTable& ref,
                       Rng* rng, int step) {
  ASSERT_EQ(table.size(), ref.size()) << "step " << step;
  EXPECT_EQ(table.StorageBytes(), ref.size() * sizeof(BurstRecord)) << "step " << step;
  ASSERT_TRUE(table.Validate().ok())
      << "step " << step << ": " << table.Validate().ToString();

  const int32_t qs = static_cast<int32_t>(rng->UniformInt(-10, 150));
  const BurstRegion query = R(qs, qs + static_cast<int32_t>(rng->UniformInt(0, 40)), 2.0);
  const std::vector<BurstRecord> got = table.FindOverlapping(query);
  const std::vector<BurstRecord> want = ref.FindOverlapping(query);
  ASSERT_EQ(got.size(), want.size()) << "step " << step;
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].series_id, want[i].series_id) << "step " << step << " #" << i;
    EXPECT_EQ(got[i].start, want[i].start) << "step " << step << " #" << i;
    EXPECT_EQ(got[i].end, want[i].end) << "step " << step << " #" << i;
    EXPECT_TRUE(SameBits(got[i].avg_value, want[i].avg_value))
        << "step " << step << " #" << i;
  }

  const std::vector<BurstRegion> bursts = RandomRegions(rng, 4);
  const ts::SeriesId exclude = static_cast<ts::SeriesId>(rng->UniformInt(0, 199));
  const std::vector<BurstMatch> got_matches = table.QueryByBurst(bursts, 0, exclude);
  const std::vector<BurstMatch> want_matches = ref.QueryByBurst(bursts, 0, exclude);
  ASSERT_EQ(got_matches.size(), want_matches.size()) << "step " << step;
  for (size_t i = 0; i < got_matches.size(); ++i) {
    EXPECT_EQ(got_matches[i].series_id, want_matches[i].series_id)
        << "step " << step << " #" << i;
    EXPECT_TRUE(SameBits(got_matches[i].bsim, want_matches[i].bsim))
        << "step " << step << " #" << i;
  }
}

TEST(BurstTableTest, EraseSeriesMatchesNaiveReferenceOverSeededSchedule) {
  constexpr ts::SeriesId kSeries = 200;
  Rng rng(16);
  BurstTable table;
  ReferenceTable ref;
  size_t peak_live = 0;
  for (ts::SeriesId id = 0; id < kSeries; ++id) {
    const std::vector<BurstRegion> regions = RandomRegions(&rng, 3);
    table.Insert(id, regions, 0);
    ref.Insert(id, regions);
  }
  peak_live = ref.size();
  ExpectSameAnswers(table, ref, &rng, -1);

  for (int step = 0; step < 400; ++step) {
    // Erase one series (sometimes unknown to the table), then re-insert a
    // fresh set of bursts for it, as an append does.
    const ts::SeriesId id = static_cast<ts::SeriesId>(rng.UniformInt(0, kSeries + 9));
    EXPECT_EQ(table.EraseSeries(id), ref.EraseSeries(id)) << "step " << step;
    ExpectSameAnswers(table, ref, &rng, step);
    if (id < kSeries) {
      const std::vector<BurstRegion> regions = RandomRegions(&rng, 3);
      table.Insert(id, regions, 0);
      ref.Insert(id, regions);
    }
    peak_live = std::max(peak_live, ref.size());
    EXPECT_LE(BurstTableTestPeer::HeapSlots(table), peak_live) << "step " << step;
    ExpectSameAnswers(table, ref, &rng, step);
  }
}

TEST(BurstTableTest, EraseOfUnknownOrBurstFreeSeriesIsANoOp) {
  BurstTable table;
  EXPECT_EQ(table.EraseSeries(0), 0u);  // Empty table.
  table.Insert(0, {R(10, 20, 1.0)}, 0);
  table.Insert(1, {}, 0);  // Burst-free series.
  EXPECT_EQ(table.EraseSeries(1), 0u);
  EXPECT_EQ(table.EraseSeries(5), 0u);  // Never inserted.
  EXPECT_EQ(table.EraseSeries(ts::kInvalidSeriesId), 0u);
  EXPECT_EQ(table.size(), 1u);
  EXPECT_EQ(table.EraseSeries(0), 1u);
  EXPECT_EQ(table.EraseSeries(0), 0u);  // Already erased.
  EXPECT_EQ(table.size(), 0u);
  EXPECT_EQ(table.StorageBytes(), 0u);
  EXPECT_TRUE(table.FindOverlapping(R(0, 100, 1.0)).empty());
  EXPECT_TRUE(table.Validate().ok());
}

TEST(BurstTableTest, FreedSlotsAreReused) {
  BurstTable table;
  table.Insert(0, {R(10, 20, 1.0), R(30, 40, 1.0)}, 0);
  table.Insert(1, {R(12, 22, 1.0)}, 0);
  ASSERT_EQ(table.EraseSeries(0), 2u);
  table.Insert(2, {R(50, 60, 1.0), R(70, 80, 1.0)}, 0);
  EXPECT_EQ(BurstTableTestPeer::HeapSlots(table), 3u);
  EXPECT_EQ(table.size(), 3u);
  EXPECT_TRUE(table.Validate().ok());
}

}  // namespace
}  // namespace s2::burst
