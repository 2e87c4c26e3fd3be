// Tests for the transactional hash map and sorted list: functional
// behaviour, model checking against std containers under randomized op
// sequences (parameterized), and concurrent stress with invariant checks.
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <thread>
#include <type_traits>
#include <unordered_map>
#include <vector>

#include "src/stm/stm.hpp"
#include "src/util/rng.hpp"
#include "src/util/spin_barrier.hpp"
#include "src/tds/thashmap.hpp"
#include "src/tds/tlist.hpp"

namespace rubic::tds {
namespace {

// ---------- THashMap ----------

class THashMapTest : public ::testing::Test {
 protected:
  stm::Runtime rt_;
  stm::TxnDesc& ctx_ = rt_.register_thread();
  THashMap map_{64};

  template <typename F>
  auto tx(F&& f) {
    return stm::atomically(ctx_, std::forward<F>(f));
  }
};

TEST_F(THashMapTest, InsertGetErase) {
  EXPECT_TRUE(tx([&](stm::Txn& t) { return map_.insert(t, 1, 10); }));
  EXPECT_FALSE(tx([&](stm::Txn& t) { return map_.insert(t, 1, 11); }));
  EXPECT_EQ(tx([&](stm::Txn& t) { return map_.get(t, 1); }), 10);
  EXPECT_EQ(tx([&](stm::Txn& t) { return map_.get(t, 2); }), std::nullopt);
  EXPECT_TRUE(tx([&](stm::Txn& t) { return map_.erase(t, 1); }));
  EXPECT_FALSE(tx([&](stm::Txn& t) { return map_.erase(t, 1); }));
  EXPECT_EQ(map_.unsafe_size(), 0u);
  EXPECT_TRUE(map_.check_invariants());
}

TEST_F(THashMapTest, PutOverwrites) {
  EXPECT_TRUE(tx([&](stm::Txn& t) { return map_.put(t, 5, 1); }));
  EXPECT_FALSE(tx([&](stm::Txn& t) { return map_.put(t, 5, 2); }));
  EXPECT_EQ(tx([&](stm::Txn& t) { return map_.get(t, 5); }), 2);
  EXPECT_EQ(map_.unsafe_size(), 1u);
}

TEST_F(THashMapTest, ChainsHandleCollisions) {
  // 64 buckets, 500 keys: every bucket chains multiple keys.
  for (std::int64_t k = 0; k < 500; ++k) {
    ASSERT_TRUE(tx([&](stm::Txn& t) { return map_.insert(t, k, k * 3); }));
  }
  EXPECT_EQ(map_.unsafe_size(), 500u);
  for (std::int64_t k = 0; k < 500; ++k) {
    EXPECT_EQ(tx([&](stm::Txn& t) { return map_.get(t, k); }), k * 3);
  }
  std::string error;
  EXPECT_TRUE(map_.check_invariants(&error)) << error;
  // Erase the middle of every chain too.
  for (std::int64_t k = 0; k < 500; k += 3) {
    ASSERT_TRUE(tx([&](stm::Txn& t) { return map_.erase(t, k); }));
  }
  EXPECT_TRUE(map_.check_invariants(&error)) << error;
}

TEST_F(THashMapTest, NegativeKeys) {
  EXPECT_TRUE(tx([&](stm::Txn& t) { return map_.insert(t, -42, 7); }));
  EXPECT_EQ(tx([&](stm::Txn& t) { return map_.get(t, -42); }), 7);
  EXPECT_TRUE(map_.check_invariants());
}

TEST_F(THashMapTest, AbortRollsBackInsert) {
  EXPECT_THROW(tx([&](stm::Txn& t) {
    map_.insert(t, 9, 9);
    throw std::runtime_error("abort");
  }),
               std::runtime_error);
  EXPECT_EQ(map_.unsafe_size(), 0u);
  EXPECT_FALSE(tx([&](stm::Txn& t) { return map_.contains(t, 9); }));
}

TEST_F(THashMapTest, TransactionalSizeConsistentWithShards) {
  for (std::int64_t k = 0; k < 100; ++k) {
    tx([&](stm::Txn& t) { map_.insert(t, k, k); });
  }
  EXPECT_EQ(tx([&](stm::Txn& t) { return map_.size(t); }), 100);
}

// Two full words, so no byte of the param is padding: gtest prints a param
// that has no operator<< as a dump of its bytes, and gtest_discover_tests
// puts that dump in the ctest test name.
struct HashMapRandomParam {
  std::uint64_t seed;
  std::int64_t key_range;
};
static_assert(std::has_unique_object_representations_v<HashMapRandomParam>);

class THashMapRandomOps : public ::testing::TestWithParam<HashMapRandomParam> {};

TEST_P(THashMapRandomOps, MatchesUnorderedMap) {
  const auto [seed, key_range] = GetParam();
  stm::Runtime rt;
  stm::TxnDesc& ctx = rt.register_thread();
  THashMap map(32);  // small table → long chains under test
  std::unordered_map<std::int64_t, std::int64_t> model;
  util::Xoshiro256 rng(seed);
  for (int op = 0; op < 3000; ++op) {
    const auto key = static_cast<std::int64_t>(
        rng.below(static_cast<std::uint64_t>(key_range))) -
                     key_range / 2;  // include negatives
    switch (rng.below(4)) {
      case 0: {
        const bool did = stm::atomically(
            ctx, [&](stm::Txn& t) { return map.insert(t, key, op); });
        EXPECT_EQ(did, model.emplace(key, op).second);
        break;
      }
      case 1: {
        const bool was_new = stm::atomically(
            ctx, [&](stm::Txn& t) { return map.put(t, key, op); });
        EXPECT_EQ(was_new, model.find(key) == model.end());
        model[key] = op;
        break;
      }
      case 2: {
        const bool did = stm::atomically(
            ctx, [&](stm::Txn& t) { return map.erase(t, key); });
        EXPECT_EQ(did, model.erase(key) == 1);
        break;
      }
      default: {
        const auto got = stm::atomically(
            ctx, [&](stm::Txn& t) { return map.get(t, key); });
        const auto it = model.find(key);
        if (it == model.end()) {
          EXPECT_EQ(got, std::nullopt);
        } else {
          EXPECT_EQ(got, it->second);
        }
      }
    }
  }
  EXPECT_EQ(map.unsafe_size(), model.size());
  std::string error;
  EXPECT_TRUE(map.check_invariants(&error)) << error;
  std::size_t visited = 0;
  map.unsafe_for_each([&](std::int64_t k, std::int64_t v) {
    ++visited;
    const auto it = model.find(k);
    ASSERT_NE(it, model.end());
    EXPECT_EQ(v, it->second);
  });
  EXPECT_EQ(visited, model.size());
}

INSTANTIATE_TEST_SUITE_P(Sweeps, THashMapRandomOps,
                         ::testing::Values(HashMapRandomParam{1, 64},
                                           HashMapRandomParam{2, 16},
                                           HashMapRandomParam{3, 1024},
                                           HashMapRandomParam{4, 4}),
                         [](const auto& param_info) {
                           return "seed" + std::to_string(param_info.param.seed) +
                                  "_range" + std::to_string(param_info.param.key_range);
                         });

TEST(THashMapConcurrent, DisjointInsertsAllLand) {
  stm::Runtime rt;
  THashMap map(256);
  constexpr int kThreads = 4, kPerThread = 500;
  util::SpinBarrier barrier(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      stm::TxnDesc& ctx = rt.register_thread();
      barrier.arrive_and_wait();
      for (int i = 0; i < kPerThread; ++i) {
        const std::int64_t key = t * 100000 + i;
        stm::atomically(ctx, [&](stm::Txn& tx) { map.insert(tx, key, key); });
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(map.unsafe_size(), static_cast<std::size_t>(kThreads * kPerThread));
  std::string error;
  EXPECT_TRUE(map.check_invariants(&error)) << error;
}

TEST(THashMapConcurrent, ContendedChurnKeepsInvariants) {
  stm::Runtime rt;
  THashMap map(16);  // tiny: heavy chain contention
  constexpr int kThreads = 4;
  util::SpinBarrier barrier(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      stm::TxnDesc& ctx = rt.register_thread();
      util::Xoshiro256 rng(t + 1);
      barrier.arrive_and_wait();
      for (int op = 0; op < 1000; ++op) {
        const auto key = static_cast<std::int64_t>(rng.below(64));
        if (rng.below(2) == 0) {
          stm::atomically(ctx, [&](stm::Txn& tx) { map.insert(tx, key, op); });
        } else {
          stm::atomically(ctx, [&](stm::Txn& tx) { map.erase(tx, key); });
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  std::string error;
  EXPECT_TRUE(map.check_invariants(&error)) << error;
}

// ---------- TList ----------

class TListTest : public ::testing::Test {
 protected:
  stm::Runtime rt_;
  stm::TxnDesc& ctx_ = rt_.register_thread();
  TList list_;

  template <typename F>
  auto tx(F&& f) {
    return stm::atomically(ctx_, std::forward<F>(f));
  }
};

TEST_F(TListTest, SortedInsertAndTraversal) {
  for (std::int64_t k : {30, 10, 20, 40, 15}) {
    EXPECT_TRUE(tx([&](stm::Txn& t) { return list_.insert(t, k, k * 2); }));
  }
  EXPECT_FALSE(tx([&](stm::Txn& t) { return list_.insert(t, 20, 0); }));
  std::vector<std::int64_t> keys;
  list_.unsafe_for_each([&](std::int64_t k, std::int64_t) { keys.push_back(k); });
  EXPECT_EQ(keys, (std::vector<std::int64_t>{10, 15, 20, 30, 40}));
  std::string error;
  EXPECT_TRUE(list_.check_invariants(&error)) << error;
}

TEST_F(TListTest, EraseHeadMiddleTail) {
  for (std::int64_t k : {1, 2, 3, 4, 5}) {
    tx([&](stm::Txn& t) { list_.insert(t, k, k); });
  }
  EXPECT_TRUE(tx([&](stm::Txn& t) { return list_.erase(t, 1); }));  // head
  EXPECT_TRUE(tx([&](stm::Txn& t) { return list_.erase(t, 3); }));  // middle
  EXPECT_TRUE(tx([&](stm::Txn& t) { return list_.erase(t, 5); }));  // tail
  EXPECT_FALSE(tx([&](stm::Txn& t) { return list_.erase(t, 9); }));
  EXPECT_EQ(list_.unsafe_size(), 2u);
  EXPECT_TRUE(list_.check_invariants());
}

TEST_F(TListTest, RangeScanIteration) {
  for (std::int64_t k : {10, 20, 30}) {
    tx([&](stm::Txn& t) { list_.insert(t, k, k * 10); });
  }
  using Pairs = std::vector<std::pair<std::int64_t, std::int64_t>>;
  auto scan = [&](std::int64_t lo, std::int64_t hi) {
    Pairs seen;
    tx([&](stm::Txn& t) {
      seen.clear();
      list_.range_scan(t, lo, hi, [&](std::int64_t k, std::int64_t v) {
        seen.emplace_back(k, v);
      });
    });
    return seen;
  };
  EXPECT_EQ(scan(0, 100), (Pairs{{10, 100}, {20, 200}, {30, 300}}));
  EXPECT_EQ(scan(10, 30), (Pairs{{10, 100}, {20, 200}}));  // [lo, hi)
  EXPECT_EQ(scan(11, 31), (Pairs{{20, 200}, {30, 300}}));
  EXPECT_EQ(scan(25, 26), Pairs{});
  EXPECT_EQ(scan(31, 100), Pairs{});
}

TEST_F(TListTest, GetAndContains) {
  tx([&](stm::Txn& t) { list_.insert(t, 7, 70); });
  EXPECT_TRUE(tx([&](stm::Txn& t) { return list_.contains(t, 7); }));
  EXPECT_EQ(tx([&](stm::Txn& t) { return list_.get(t, 7); }), 70);
  EXPECT_FALSE(tx([&](stm::Txn& t) { return list_.contains(t, 8); }));
}

TEST(TListRandomOps, MatchesStdMap) {
  stm::Runtime rt;
  stm::TxnDesc& ctx = rt.register_thread();
  TList list;
  std::map<std::int64_t, std::int64_t> model;
  util::Xoshiro256 rng(11);
  for (int op = 0; op < 2000; ++op) {
    const auto key = static_cast<std::int64_t>(rng.below(128));
    if (rng.below(2) == 0) {
      const bool did = stm::atomically(
          ctx, [&](stm::Txn& t) { return list.insert(t, key, op); });
      EXPECT_EQ(did, model.emplace(key, op).second);
    } else {
      const bool did = stm::atomically(
          ctx, [&](stm::Txn& t) { return list.erase(t, key); });
      EXPECT_EQ(did, model.erase(key) == 1);
    }
  }
  EXPECT_EQ(list.unsafe_size(), model.size());
  auto it = model.begin();
  list.unsafe_for_each([&](std::int64_t k, std::int64_t v) {
    ASSERT_NE(it, model.end());
    EXPECT_EQ(k, it->first);
    EXPECT_EQ(v, it->second);
    ++it;
  });
  std::string error;
  EXPECT_TRUE(list.check_invariants(&error)) << error;
}

TEST(TListConcurrent, ChurnKeepsSortedInvariant) {
  stm::Runtime rt;
  TList list;
  constexpr int kThreads = 4;
  util::SpinBarrier barrier(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      stm::TxnDesc& ctx = rt.register_thread();
      util::Xoshiro256 rng(100 + t);
      barrier.arrive_and_wait();
      for (int op = 0; op < 800; ++op) {
        const auto key = static_cast<std::int64_t>(rng.below(96));
        if (rng.below(2) == 0) {
          stm::atomically(ctx, [&](stm::Txn& tx) { list.insert(tx, key, op); });
        } else {
          stm::atomically(ctx, [&](stm::Txn& tx) { list.erase(tx, key); });
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  std::string error;
  EXPECT_TRUE(list.check_invariants(&error)) << error;
}

}  // namespace
}  // namespace rubic::tds
