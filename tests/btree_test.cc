#include <algorithm>
#include <map>
#include <set>
#include <type_traits>
#include <vector>

#include "common/random.h"
#include "gtest/gtest.h"
#include "index/btree.h"
#include "storage/memory_device.h"
#include "test_util.h"

namespace fieldrep {
namespace {

class BTreeTest : public ::testing::Test {
 protected:
  BTreeTest() : pool_(&device_, 256), tree_(&pool_) {
    EXPECT_TRUE(tree_.Init().ok());
  }
  Oid MakeOid(uint32_t i) { return Oid(1, i / 16, i % 16); }

  MemoryDevice device_;
  BufferPool pool_;
  BTree tree_;
};

TEST_F(BTreeTest, EmptyTree) {
  EXPECT_TRUE(tree_.empty());
  std::vector<Oid> out;
  FR_ASSERT_OK(tree_.Lookup(5, &out));
  EXPECT_TRUE(out.empty());
  auto height = tree_.Height();
  ASSERT_TRUE(height.ok());
  EXPECT_EQ(*height, 1u);
}

TEST_F(BTreeTest, InsertLookup) {
  FR_ASSERT_OK(tree_.Insert(42, MakeOid(1)));
  std::vector<Oid> out;
  FR_ASSERT_OK(tree_.Lookup(42, &out));
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0], MakeOid(1));
  FR_ASSERT_OK(tree_.Lookup(41, &out));  // appends nothing
  EXPECT_EQ(out.size(), 1u);
}

TEST_F(BTreeTest, DuplicateKeysDistinctValues) {
  for (uint32_t i = 0; i < 10; ++i) {
    FR_ASSERT_OK(tree_.Insert(7, MakeOid(i)));
  }
  std::vector<Oid> out;
  FR_ASSERT_OK(tree_.Lookup(7, &out));
  EXPECT_EQ(out.size(), 10u);
  // Values come back sorted (clustered order).
  EXPECT_TRUE(std::is_sorted(out.begin(), out.end()));
}

TEST_F(BTreeTest, ExactDuplicateEntryRejected) {
  FR_ASSERT_OK(tree_.Insert(7, MakeOid(3)));
  EXPECT_EQ(tree_.Insert(7, MakeOid(3)).code(), StatusCode::kAlreadyExists);
}

TEST_F(BTreeTest, DeleteSpecificEntry) {
  FR_ASSERT_OK(tree_.Insert(7, MakeOid(1)));
  FR_ASSERT_OK(tree_.Insert(7, MakeOid(2)));
  FR_ASSERT_OK(tree_.Delete(7, MakeOid(1)));
  std::vector<Oid> out;
  FR_ASSERT_OK(tree_.Lookup(7, &out));
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0], MakeOid(2));
  EXPECT_TRUE(tree_.Delete(7, MakeOid(1)).IsNotFound());
}

TEST_F(BTreeTest, RangeScanInclusive) {
  for (int64_t key = 0; key < 100; ++key) {
    FR_ASSERT_OK(tree_.Insert(key, MakeOid(static_cast<uint32_t>(key))));
  }
  std::vector<int64_t> keys;
  FR_ASSERT_OK(tree_.ScanRange(10, 20, [&](int64_t key, Oid) {
    keys.push_back(key);
    return true;
  }));
  ASSERT_EQ(keys.size(), 11u);
  EXPECT_EQ(keys.front(), 10);
  EXPECT_EQ(keys.back(), 20);
}

TEST_F(BTreeTest, ScanEarlyStop) {
  for (int64_t key = 0; key < 50; ++key) {
    FR_ASSERT_OK(tree_.Insert(key, MakeOid(static_cast<uint32_t>(key))));
  }
  int count = 0;
  FR_ASSERT_OK(tree_.ScanRange(0, 49, [&](int64_t, Oid) {
    return ++count < 5;
  }));
  EXPECT_EQ(count, 5);
}

TEST_F(BTreeTest, NegativeKeys) {
  for (int64_t key = -50; key <= 50; key += 10) {
    FR_ASSERT_OK(tree_.Insert(key, MakeOid(static_cast<uint32_t>(key + 50))));
  }
  std::vector<int64_t> keys;
  FR_ASSERT_OK(tree_.ScanRange(-30, 10, [&](int64_t key, Oid) {
    keys.push_back(key);
    return true;
  }));
  EXPECT_EQ(keys, (std::vector<int64_t>{-30, -20, -10, 0, 10}));
}

TEST_F(BTreeTest, GrowsToMultipleLevelsAndStaysValid) {
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    FR_ASSERT_OK(tree_.Insert(i, MakeOid(i)));
  }
  EXPECT_EQ(tree_.size(), static_cast<uint64_t>(n));
  auto height = tree_.Height();
  ASSERT_TRUE(height.ok());
  EXPECT_GE(*height, 2u);
  FR_ASSERT_OK(tree_.CheckInvariants());
  // Full scan visits every key in order.
  int64_t expected = 0;
  FR_ASSERT_OK(tree_.ScanRange(INT64_MIN, INT64_MAX, [&](int64_t key, Oid) {
    EXPECT_EQ(key, expected++);
    return true;
  }));
  EXPECT_EQ(expected, n);
}

TEST_F(BTreeTest, ReverseInsertionOrder) {
  for (int i = 5000; i > 0; --i) {
    FR_ASSERT_OK(tree_.Insert(i, MakeOid(i)));
  }
  FR_ASSERT_OK(tree_.CheckInvariants());
  std::vector<Oid> out;
  FR_ASSERT_OK(tree_.Lookup(1, &out));
  EXPECT_EQ(out.size(), 1u);
}

TEST_F(BTreeTest, ScanTraversesEmptiedLeaves) {
  // Lazy deletion can leave empty leaves in the chain; scans must skip
  // them without losing later entries.
  for (int i = 0; i < 2000; ++i) FR_ASSERT_OK(tree_.Insert(i, MakeOid(i)));
  // Empty out the middle third.
  for (int i = 600; i < 1400; ++i) {
    FR_ASSERT_OK(tree_.Delete(i, MakeOid(i)));
  }
  std::vector<int64_t> keys;
  FR_ASSERT_OK(tree_.ScanRange(0, 1999, [&](int64_t key, Oid) {
    keys.push_back(key);
    return true;
  }));
  ASSERT_EQ(keys.size(), 1200u);
  EXPECT_EQ(keys[599], 599);
  EXPECT_EQ(keys[600], 1400);
  FR_ASSERT_OK(tree_.CheckInvariants());
}

TEST_F(BTreeTest, HeightAndPageCountGrow) {
  auto h0 = tree_.Height();
  ASSERT_TRUE(h0.ok());
  EXPECT_EQ(*h0, 1u);
  for (int i = 0; i < 300; ++i) FR_ASSERT_OK(tree_.Insert(i, MakeOid(i)));
  auto h1 = tree_.Height();
  ASSERT_TRUE(h1.ok());
  EXPECT_EQ(*h1, 2u);  // 300 > 252 leaf capacity
  auto pages = tree_.PageCount();
  ASSERT_TRUE(pages.ok());
  EXPECT_GE(*pages, 3u);  // root + 2 leaves
}

TEST_F(BTreeTest, MetadataRoundTrip) {
  for (int i = 0; i < 1000; ++i) FR_ASSERT_OK(tree_.Insert(i, MakeOid(i)));
  std::string meta = tree_.EncodeMetadata();
  BTree reopened(&pool_);
  FR_ASSERT_OK(reopened.DecodeMetadata(meta));
  EXPECT_EQ(reopened.size(), 1000u);
  std::vector<Oid> out;
  FR_ASSERT_OK(reopened.Lookup(500, &out));
  EXPECT_EQ(out.size(), 1u);
}

// gtest prints this case as raw bytes and the ctest name is built from that
// print, so the struct must have no padding: padding bytes are uninitialised
// and would give the test a different name on every discovery run.
struct BTreePropertyCase {
  uint64_t seed;
  int64_t operations;
  int64_t key_space;
};
static_assert(std::has_unique_object_representations_v<BTreePropertyCase>);

class BTreePropertyTest : public ::testing::TestWithParam<BTreePropertyCase> {};

TEST_P(BTreePropertyTest, MatchesMultimap) {
  const BTreePropertyCase& param = GetParam();
  MemoryDevice device;
  BufferPool pool(&device, 512);
  BTree tree(&pool);
  FR_ASSERT_OK(tree.Init());

  Random rng(param.seed);
  std::multimap<int64_t, uint64_t> shadow;
  std::set<std::pair<int64_t, uint64_t>> entries;
  for (int64_t step = 0; step < param.operations; ++step) {
    int64_t key = static_cast<int64_t>(rng.Uniform(param.key_space)) -
                  param.key_space / 2;
    uint64_t value = rng.Uniform(1u << 20);
    Oid oid = Oid::FromPacked((static_cast<uint64_t>(1) << 48) | value);
    if (rng.Bernoulli(0.7)) {
      bool fresh = entries.insert({key, oid.Packed()}).second;
      Status s = tree.Insert(key, oid);
      if (fresh) {
        ASSERT_TRUE(s.ok()) << s.ToString();
        shadow.emplace(key, oid.Packed());
      } else {
        ASSERT_EQ(s.code(), StatusCode::kAlreadyExists);
      }
    } else if (!entries.empty()) {
      auto it = entries.begin();
      std::advance(it, rng.Uniform(entries.size()));
      Status s = tree.Delete(it->first, Oid::FromPacked(it->second));
      ASSERT_TRUE(s.ok()) << s.ToString();
      auto range = shadow.equal_range(it->first);
      for (auto sit = range.first; sit != range.second; ++sit) {
        if (sit->second == it->second) {
          shadow.erase(sit);
          break;
        }
      }
      entries.erase(it);
    }
  }
  ASSERT_EQ(tree.size(), shadow.size());
  FR_ASSERT_OK(tree.CheckInvariants());
  // Full scan equals the shadow in (key, value) order.
  std::vector<std::pair<int64_t, uint64_t>> from_tree;
  FR_ASSERT_OK(tree.ScanRange(INT64_MIN, INT64_MAX, [&](int64_t key, Oid oid) {
    from_tree.emplace_back(key, oid.Packed());
    return true;
  }));
  std::vector<std::pair<int64_t, uint64_t>> from_shadow(shadow.begin(),
                                                        shadow.end());
  std::sort(from_shadow.begin(), from_shadow.end());
  ASSERT_EQ(from_tree, from_shadow);
  // Random range probes.
  for (int probe = 0; probe < 20; ++probe) {
    int64_t lo = static_cast<int64_t>(rng.Uniform(param.key_space)) -
                 param.key_space / 2;
    int64_t hi = lo + static_cast<int64_t>(rng.Uniform(param.key_space / 4));
    size_t expected = 0;
    for (const auto& [key, value] : shadow) {
      if (key >= lo && key <= hi) ++expected;
    }
    size_t got = 0;
    FR_ASSERT_OK(tree.ScanRange(lo, hi, [&](int64_t, Oid) {
      ++got;
      return true;
    }));
    ASSERT_EQ(got, expected);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, BTreePropertyTest,
    ::testing::Values(BTreePropertyCase{1, 2000, 50},      // heavy duplicates
                      BTreePropertyCase{2, 5000, 100000},  // sparse keys
                      BTreePropertyCase{3, 8000, 1000},    // mixed
                      BTreePropertyCase{4, 3000, 10}));    // pathological dup

TEST(BTreeKeyTest, IntegersMapDirectly) {
  auto key = BTreeKeyForValue(Value(int32_t{-5}));
  ASSERT_TRUE(key.ok());
  EXPECT_EQ(*key, -5);
  key = BTreeKeyForValue(Value(int64_t{1} << 40));
  ASSERT_TRUE(key.ok());
  EXPECT_EQ(*key, int64_t{1} << 40);
}

TEST(BTreeKeyTest, DoubleTransformPreservesOrder) {
  double values[] = {-1e30, -2.5, -0.0, 0.0, 1e-10, 3.7, 1e30};
  int64_t prev = 0;
  bool first = true;
  for (double d : values) {
    auto key = BTreeKeyForValue(Value(d));
    ASSERT_TRUE(key.ok());
    if (!first) {
      EXPECT_LE(prev, *key) << d;
    }
    prev = *key;
    first = false;
  }
}

TEST(BTreeKeyTest, StringPrefixPreservesOrder) {
  auto a = BTreeKeyForValue(Value("apple"));
  auto b = BTreeKeyForValue(Value("banana"));
  auto c = BTreeKeyForValue(Value("cherry"));
  ASSERT_TRUE(a.ok() && b.ok() && c.ok());
  EXPECT_LT(*a, *b);
  EXPECT_LT(*b, *c);
  // Long shared prefixes collide (the documented post-filter case).
  auto x = BTreeKeyForValue(Value("averylongprefix_1"));
  auto y = BTreeKeyForValue(Value("averylongprefix_2"));
  EXPECT_EQ(*x, *y);
}

TEST(BTreeKeyTest, NullRejected) {
  EXPECT_FALSE(BTreeKeyForValue(Value::Null()).ok());
}

}  // namespace
}  // namespace fieldrep
