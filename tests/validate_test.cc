#include "diag/validate.h"

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "burst/burst_table.h"
#include "common/rng.h"
#include "common/status.h"
#include "index/mvp_tree.h"
#include "index/vp_tree.h"
#include "storage/bptree.h"
#include "storage/sequence_store.h"

namespace s2::storage {

// Test-only backdoor for corrupting private B+-tree state.
struct BPlusTreeTestPeer {
  template <typename Tree>
  static auto* Root(Tree* tree) {
    return tree->root_.get();
  }
  template <typename Tree>
  static void SetSize(Tree* tree, size_t size) {
    tree->size_ = size;
  }
};

}  // namespace s2::storage

namespace s2::index {

struct VpTreeTestPeer {
  static auto& Nodes(VpTreeIndex* index) { return index->nodes_; }
  static void SetNumObjects(VpTreeIndex* index, size_t n) {
    index->num_objects_ = n;
  }
};

struct MvpTreeTestPeer {
  static auto& Nodes(MvpTreeIndex* index) { return index->nodes_; }
  static void SetNumObjects(MvpTreeIndex* index, size_t n) {
    index->num_objects_ = n;
  }
};

}  // namespace s2::index

namespace s2::burst {

struct BurstTableTestPeer {
  static constexpr uint32_t kNoSlot = BurstTable::kNoSlot;
  static std::vector<BurstRecord>& Records(BurstTable* table) {
    return table->records_;
  }
  static std::vector<uint32_t>& NextSlot(BurstTable* table) {
    return table->next_slot_;
  }
  static std::vector<uint32_t>& SeriesHead(BurstTable* table) {
    return table->series_head_;
  }
  static uint32_t FreeHead(const BurstTable& table) { return table.free_head_; }
  static auto& Index(BurstTable* table) { return table->start_index_; }
};

}  // namespace s2::burst

namespace s2::diag {
namespace {

// ---------------------------------------------------------------------------
// Validator itself.

TEST(ValidatorTest, CleanValidatorIsOk) {
  Validator v("Thing");
  v.Check(true) << "never recorded";
  EXPECT_TRUE(v.ok());
  EXPECT_EQ(v.violation_count(), 0u);
  EXPECT_TRUE(v.ToStatus().ok());
}

TEST(ValidatorTest, FailingCheckRecordsStreamedDetail) {
  Validator v("Thing");
  v.Check(false) << "slot " << 3 << " broke";
  EXPECT_FALSE(v.ok());
  ASSERT_EQ(v.violations().size(), 1u);
  EXPECT_EQ(v.violations().front(), "slot 3 broke");
  const Status status = v.ToStatus();
  EXPECT_EQ(status.code(), StatusCode::kCorruption);
  EXPECT_EQ(status.message(), "Thing: slot 3 broke");
}

TEST(ValidatorTest, MultipleViolationsJoinWithSemicolons) {
  Validator v("Thing");
  v.AddViolation("first");
  v.Check(false) << "second";
  EXPECT_EQ(v.ToStatus().message(), "Thing: first; second");
}

TEST(ValidatorTest, ViolationsAreCappedButCounted) {
  Validator v("Thing");
  for (int i = 0; i < 20; ++i) v.AddViolation("v" + std::to_string(i));
  EXPECT_EQ(v.violations().size(), Validator::kMaxViolations);
  EXPECT_EQ(v.violation_count(), 20u);
  // The summary must admit that violations were dropped.
  EXPECT_NE(v.ToStatus().message().find("12 more"), std::string::npos);
}

TEST(ValidatorTest, CorruptionErrorFormatsLikeSingleViolation) {
  const Status status = CorruptionError("Pager", "bad magic");
  EXPECT_EQ(status.code(), StatusCode::kCorruption);
  EXPECT_EQ(status.message(), "Pager: bad magic");
}

// ---------------------------------------------------------------------------
// In-memory B+-tree: seeded corruptions must produce exact reports.

using TestTree = storage::BPlusTree<int64_t, uint64_t, 4>;

TestTree BuildTree(int n) {
  TestTree tree;
  s2::Rng rng(17);
  std::vector<int64_t> keys(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) keys[static_cast<size_t>(i)] = i;
  rng.Shuffle(&keys);
  for (int64_t key : keys) {
    tree.Insert(key, static_cast<uint64_t>(key) * 10);
  }
  return tree;
}

TEST(BPlusTreeValidateTest, HealthyTreeValidates) {
  TestTree tree = BuildTree(100);
  EXPECT_TRUE(tree.Validate().ok());
}

TEST(BPlusTreeValidateTest, SwappedLeafKeysAreReported) {
  TestTree tree = BuildTree(100);
  auto* node = storage::BPlusTreeTestPeer::Root(&tree);
  while (!node->leaf) node = node->children.front().get();
  ASSERT_GE(node->keys.size(), 2u);
  std::swap(node->keys[0], node->keys[1]);
  const Status status = tree.Validate();
  ASSERT_EQ(status.code(), StatusCode::kCorruption);
  EXPECT_NE(status.message().find("keys not sorted"), std::string::npos);
}

TEST(BPlusTreeValidateTest, SeparatorViolationIsReported) {
  TestTree tree = BuildTree(100);
  auto* root = storage::BPlusTreeTestPeer::Root(&tree);
  ASSERT_FALSE(root->leaf);
  // Push a key of the leftmost subtree above the first separator.
  auto* node = root->children.front().get();
  while (!node->leaf) node = node->children.front().get();
  node->keys.back() = 1000;
  const Status status = tree.Validate();
  ASSERT_EQ(status.code(), StatusCode::kCorruption);
  EXPECT_NE(status.message().find("above the separator window"),
            std::string::npos);
}

TEST(BPlusTreeValidateTest, BrokenLeafChainIsReported) {
  TestTree tree = BuildTree(100);
  auto* node = storage::BPlusTreeTestPeer::Root(&tree);
  while (!node->leaf) node = node->children.front().get();
  ASSERT_NE(node->next, nullptr);
  node->next = node->next->next;  // Skip one leaf.
  const Status status = tree.Validate();
  ASSERT_EQ(status.code(), StatusCode::kCorruption);
  EXPECT_NE(status.message().find("leaf chain"), std::string::npos);
}

TEST(BPlusTreeValidateTest, SizeMismatchIsReported) {
  TestTree tree = BuildTree(50);
  storage::BPlusTreeTestPeer::SetSize(&tree, 49);
  const Status status = tree.Validate();
  ASSERT_EQ(status.code(), StatusCode::kCorruption);
  EXPECT_NE(status.message().find("!= size()"), std::string::npos);
  EXPECT_FALSE(tree.CheckInvariants());
}

// ---------------------------------------------------------------------------
// VP-tree.

std::vector<std::vector<double>> MakeRows(size_t n, size_t length,
                                          uint64_t seed) {
  s2::Rng rng(seed);
  std::vector<std::vector<double>> rows(n, std::vector<double>(length));
  for (auto& row : rows) {
    for (double& x : row) x = rng.Normal(0.0, 1.0);
  }
  return rows;
}

index::VpTreeIndex BuildVpTree(const std::vector<std::vector<double>>& rows) {
  index::VpTreeIndex::Options options;
  options.leaf_size = 4;
  auto built = index::VpTreeIndex::Build(rows, options);
  EXPECT_TRUE(built.ok()) << built.status().ToString();
  return std::move(built).value();
}

TEST(VpTreeValidateTest, HealthyTreeValidatesWithExactDistances) {
  const auto rows = MakeRows(60, 32, 3);
  index::VpTreeIndex tree = BuildVpTree(rows);
  auto source = storage::InMemorySequenceSource::Create(rows);
  ASSERT_TRUE(source.ok());
  EXPECT_TRUE(tree.Validate(source->get()).ok());
}

TEST(VpTreeValidateTest, NegativeRadiusIsReported) {
  index::VpTreeIndex tree = BuildVpTree(MakeRows(60, 32, 3));
  for (auto& node : index::VpTreeTestPeer::Nodes(&tree)) {
    if (!node.leaf) {
      node.median = -1.0;
      break;
    }
  }
  const Status status = tree.Validate();
  ASSERT_EQ(status.code(), StatusCode::kCorruption);
  EXPECT_NE(status.message().find("invalid split radius"), std::string::npos);
}

TEST(VpTreeValidateTest, BrokenRadiusFailsExactDistanceCheck) {
  const auto rows = MakeRows(60, 32, 3);
  index::VpTreeIndex tree = BuildVpTree(rows);
  // Shrink one internal radius so its left subtree spills outside it.
  for (auto& node : index::VpTreeTestPeer::Nodes(&tree)) {
    if (!node.leaf && node.left != -1) {
      node.median /= 4.0;
      break;
    }
  }
  auto source = storage::InMemorySequenceSource::Create(rows);
  ASSERT_TRUE(source.ok());
  const Status status = tree.Validate(source->get());
  ASSERT_EQ(status.code(), StatusCode::kCorruption);
  EXPECT_NE(status.message().find("vantage point"), std::string::npos);
}

TEST(VpTreeValidateTest, SharedChildIsReported) {
  index::VpTreeIndex tree = BuildVpTree(MakeRows(60, 32, 3));
  auto& nodes = index::VpTreeTestPeer::Nodes(&tree);
  for (auto& node : nodes) {
    if (!node.leaf && node.left != -1 && node.right != -1) {
      node.right = node.left;  // Two edges into one subtree.
      break;
    }
  }
  const Status status = tree.Validate();
  ASSERT_EQ(status.code(), StatusCode::kCorruption);
  EXPECT_NE(status.message().find("reachable twice"), std::string::npos);
}

TEST(VpTreeValidateTest, ObjectCountMismatchIsReported) {
  index::VpTreeIndex tree = BuildVpTree(MakeRows(60, 32, 3));
  index::VpTreeTestPeer::SetNumObjects(&tree, 59);
  const Status status = tree.Validate();
  ASSERT_EQ(status.code(), StatusCode::kCorruption);
  EXPECT_NE(status.message().find("census finds"), std::string::npos);
}

// ---------------------------------------------------------------------------
// MVP-tree.

index::MvpTreeIndex BuildMvpTree(const std::vector<std::vector<double>>& rows) {
  index::MvpTreeIndex::Options options;
  options.leaf_size = 4;
  auto built = index::MvpTreeIndex::Build(rows, options);
  EXPECT_TRUE(built.ok()) << built.status().ToString();
  return std::move(built).value();
}

TEST(MvpTreeValidateTest, HealthyTreeValidatesWithExactDistances) {
  const auto rows = MakeRows(80, 32, 5);
  index::MvpTreeIndex tree = BuildMvpTree(rows);
  auto source = storage::InMemorySequenceSource::Create(rows);
  ASSERT_TRUE(source.ok());
  EXPECT_TRUE(tree.Validate(source->get()).ok());
}

TEST(MvpTreeValidateTest, BrokenVp1RadiusFailsExactDistanceCheck) {
  const auto rows = MakeRows(80, 32, 5);
  index::MvpTreeIndex tree = BuildMvpTree(rows);
  for (auto& node : index::MvpTreeTestPeer::Nodes(&tree)) {
    if (!node.leaf) {
      node.mu1 /= 4.0;
      break;
    }
  }
  auto source = storage::InMemorySequenceSource::Create(rows);
  ASSERT_TRUE(source.ok());
  const Status status = tree.Validate(source->get());
  ASSERT_EQ(status.code(), StatusCode::kCorruption);
  EXPECT_NE(status.message().find("vp1 window"), std::string::npos);
}

TEST(MvpTreeValidateTest, OutOfRangeChildIsReported) {
  index::MvpTreeIndex tree = BuildMvpTree(MakeRows(80, 32, 5));
  auto& nodes = index::MvpTreeTestPeer::Nodes(&tree);
  for (auto& node : nodes) {
    if (!node.leaf) {
      node.children[0] = static_cast<int32_t>(nodes.size()) + 7;
      break;
    }
  }
  const Status status = tree.Validate();
  ASSERT_EQ(status.code(), StatusCode::kCorruption);
  EXPECT_NE(status.message().find("out of range"), std::string::npos);
}

TEST(MvpTreeValidateTest, ObjectCountMismatchIsReported) {
  index::MvpTreeIndex tree = BuildMvpTree(MakeRows(80, 32, 5));
  index::MvpTreeTestPeer::SetNumObjects(&tree, 3);
  const Status status = tree.Validate();
  ASSERT_EQ(status.code(), StatusCode::kCorruption);
  EXPECT_NE(status.message().find("census finds"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Burst table.

burst::BurstTable BuildBurstTable() {
  burst::BurstTable table;
  s2::Rng rng(23);
  for (ts::SeriesId id = 0; id < 20; ++id) {
    std::vector<burst::BurstRegion> regions;
    const int count = static_cast<int>(rng.UniformInt(1, 4));
    for (int i = 0; i < count; ++i) {
      const int32_t start = static_cast<int32_t>(rng.UniformInt(0, 300));
      regions.push_back(
          {start, start + static_cast<int32_t>(rng.UniformInt(0, 20)),
           rng.Uniform(0.5, 3.0)});
    }
    table.Insert(id, regions, /*offset=*/0);
  }
  return table;
}

TEST(BurstTableValidateTest, HealthyTableValidates) {
  burst::BurstTable table = BuildBurstTable();
  EXPECT_TRUE(table.Validate().ok());
}

TEST(BurstTableValidateTest, InvertedIntervalIsReported) {
  burst::BurstTable table = BuildBurstTable();
  auto& records = burst::BurstTableTestPeer::Records(&table);
  std::swap(records[2].start, records[2].end);
  records[2].start += 50;  // Guarantee start > end.
  const Status status = table.Validate();
  ASSERT_EQ(status.code(), StatusCode::kCorruption);
  EXPECT_NE(status.message().find("inverted interval"), std::string::npos);
}

TEST(BurstTableValidateTest, IndexDisagreementIsReported) {
  burst::BurstTable table = BuildBurstTable();
  // Move a record's start date without touching the index.
  burst::BurstTableTestPeer::Records(&table)[5].start += 1;
  const Status status = table.Validate();
  ASSERT_EQ(status.code(), StatusCode::kCorruption);
  EXPECT_NE(status.message().find("start date"), std::string::npos);
}

TEST(BurstTableValidateTest, IndexedFreeSlotIsReported) {
  using Peer = burst::BurstTableTestPeer;
  burst::BurstTable table = BuildBurstTable();
  ASSERT_GT(table.EraseSeries(7), 0u);
  ASSERT_TRUE(table.Validate().ok());
  const uint32_t free_slot = Peer::FreeHead(table);
  ASSERT_NE(free_slot, Peer::kNoSlot);
  // Index the freed slot again under the start date it held.
  Peer::Index(&table).Insert(Peer::Records(&table)[free_slot].start, free_slot);
  const Status status = table.Validate();
  ASSERT_EQ(status.code(), StatusCode::kCorruption);
  EXPECT_NE(status.message().find("points at free slot"), std::string::npos);
}

TEST(BurstTableValidateTest, UnlistedLiveSlotIsReported) {
  using Peer = burst::BurstTableTestPeer;
  burst::BurstTable table = BuildBurstTable();
  std::vector<uint32_t>& next = Peer::NextSlot(&table);
  // Unlink the second slot of the first series holding two or more records.
  bool unlinked = false;
  for (const uint32_t head : Peer::SeriesHead(&table)) {
    if (head != Peer::kNoSlot && next[head] != Peer::kNoSlot) {
      next[head] = next[next[head]];
      unlinked = true;
      break;
    }
  }
  ASSERT_TRUE(unlinked);
  const Status status = table.Validate();
  ASSERT_EQ(status.code(), StatusCode::kCorruption);
  EXPECT_NE(status.message().find("is on no list"), std::string::npos);
}

TEST(BurstTableValidateTest, SlotListedUnderAnotherSeriesIsReported) {
  using Peer = burst::BurstTableTestPeer;
  burst::BurstTable table = BuildBurstTable();
  std::vector<uint32_t>& heads = Peer::SeriesHead(&table);
  std::swap(heads[3], heads[4]);
  const Status status = table.Validate();
  ASSERT_EQ(status.code(), StatusCode::kCorruption);
  EXPECT_NE(status.message().find("on the list of series 3 holds series 4"),
            std::string::npos);
}

}  // namespace
}  // namespace s2::diag
