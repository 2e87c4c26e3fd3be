// Tests for the transactional data-structure library (src/tds/):
//
//  - the shared serializability/stress suite every structure must pass on
//    every backend (seeded fill vs. reference model, single-threaded mixed
//    ops vs. std::map, 4-thread churn with operation-count accounting and
//    in-transaction snapshot ordering checks),
//  - range-scan edge cases (empty map, hi <= lo, whole-map windows, keys at
//    the int64 extremes) vs. std::map, snapshot atomicity of scans against
//    pair-writing transactions, and read-count bounds on rbtree/list scans,
//  - structure-specific shape tests for the new skiplist and B+-tree,
//  - FIFO/ordering invariants for TQueue and TList under 4-thread
//    concurrent transactions on every backend (previously untested here),
//  - disjoint updates: hand-driven pairs of inserts into disjoint parts of
//    each ordered structure both commit on tl2 and norec, and an update
//    that needs no restructuring writes only the words it changes,
//  - registry round-trips and the listing the CLI agreement rides on.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <limits>
#include <map>
#include <optional>
#include <string>
#include <thread>
#include <type_traits>
#include <vector>

#include "src/stm/stm.hpp"
#include "src/tds/btree.hpp"
#include "src/tds/harness.hpp"
#include "src/tds/rbtree.hpp"
#include "src/tds/registry.hpp"
#include "src/tds/skiplist.hpp"
#include "src/tds/thashmap.hpp"
#include "src/tds/tlist.hpp"
#include "src/tds/tqueue.hpp"
#include "src/util/listing.hpp"
#include "src/util/rng.hpp"
#include "src/util/spin_barrier.hpp"

namespace rubic::tds {
namespace {

stm::RuntimeConfig with_backend(stm::BackendKind kind) {
  stm::RuntimeConfig cfg;
  cfg.backend = kind;
  return cfg;
}

// --- registry + listing ---

TEST(TdsRegistry, KnownStructuresSortedAndConstructible) {
  const auto names = known_structures();
  ASSERT_EQ(names.size(), 5u);
  for (std::size_t i = 1; i < names.size(); ++i) {
    EXPECT_LT(names[i - 1], names[i]) << "listing must stay sorted";
  }
  for (const auto name : names) {
    auto map = make_structure(name);
    ASSERT_NE(map, nullptr);
    EXPECT_EQ(map->structure(), name)
        << "structure() must round-trip the registry name";
  }
}

TEST(TdsRegistry, UnknownStructureNamesTheCandidates) {
  try {
    make_structure("btre");
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string msg = e.what();
    for (const auto name : known_structures()) {
      EXPECT_NE(msg.find(name), std::string::npos)
          << "error must list '" << name << "': " << msg;
    }
  }
}

TEST(TdsRegistry, ListingMatchesFormatNameList) {
  // The CLI prints util::format_name_list(known_structures()); pin the
  // rendered form so --list-structures output and the registry agree.
  EXPECT_EQ(util::format_name_list(known_structures()),
            "btree\nhashmap\nlist\nrbtree\nskiplist\n");
}

TEST(TdsRegistry, OrderedFlagMatchesStructure) {
  for (const auto name : known_structures()) {
    auto map = make_structure(name);
    EXPECT_EQ(map->ordered(), name != "hashmap");
  }
}

// --- TSet view ---

TEST(TSetView, MembershipOverAnyMap) {
  stm::Runtime rt;
  stm::TxnDesc& ctx = rt.register_thread();
  auto map = make_structure("skiplist");
  TSet set(*map);
  stm::atomically(ctx, [&](stm::Txn& tx) {
    EXPECT_TRUE(set.add(tx, 7));
    EXPECT_FALSE(set.add(tx, 7));
    EXPECT_TRUE(set.contains(tx, 7));
    EXPECT_FALSE(set.contains(tx, 8));
    EXPECT_EQ(set.size(tx), 1);
    EXPECT_TRUE(set.remove(tx, 7));
    EXPECT_FALSE(set.remove(tx, 7));
  });
}

// --- the shared structure × backend suite ---

using Pairs = std::vector<std::pair<std::int64_t, std::int64_t>>;
using Model = std::map<std::int64_t, std::int64_t>;

constexpr std::int64_t kMin = std::numeric_limits<std::int64_t>::min();
constexpr std::int64_t kMax = std::numeric_limits<std::int64_t>::max();

// Scans [lo, hi) in one transaction; the returned count must match the
// visits, and unordered structures are sorted for comparison.
Pairs scan_pairs(TMap& map, stm::TxnDesc& ctx, std::int64_t lo,
                 std::int64_t hi) {
  Pairs seen;
  const std::size_t n = stm::atomically(ctx, [&](stm::Txn& tx) {
    seen.clear();
    return map.range_scan(tx, lo, hi, [&](std::int64_t k, std::int64_t v) {
      seen.emplace_back(k, v);
    });
  });
  EXPECT_EQ(n, seen.size()) << "range_scan must return the visit count";
  if (!map.ordered()) std::sort(seen.begin(), seen.end());
  return seen;
}

Pairs model_window(const Model& model, std::int64_t lo, std::int64_t hi) {
  Pairs want;
  for (auto it = model.lower_bound(lo); it != model.end() && it->first < hi;
       ++it) {
    want.emplace_back(it->first, it->second);
  }
  return want;
}

// Inserts every key with a value that stays defined at the int64 extremes.
void insert_keys(TMap& map, stm::TxnDesc& ctx, Model& model,
                 const std::vector<std::int64_t>& keys) {
  for (const std::int64_t k : keys) {
    const std::int64_t v = k ^ 0x5a5a;
    stm::atomically(ctx, [&](stm::Txn& tx) { map.insert(tx, k, v); });
    model.emplace(k, v);
  }
}

// The structure name is held inline and no byte of the param is padding.
// gtest prints a param that has no operator<< as a dump of its bytes, and
// gtest_discover_tests puts that dump in the ctest test name; a
// string_view's pointer and uninitialized padding made the name change
// from run to run.
struct MatrixParam {
  std::array<char, 23> structure{};  // NUL-terminated
  stm::BackendKind backend{};
};
static_assert(std::has_unique_object_representations_v<MatrixParam>);

std::vector<MatrixParam> matrix_params() {
  std::vector<MatrixParam> params;
  for (const auto structure : known_structures()) {
    for (const auto backend : stm::known_backends()) {
      MatrixParam param;
      structure.copy(param.structure.data(), param.structure.size() - 1);
      param.backend = backend;
      params.push_back(param);
    }
  }
  return params;
}

std::string matrix_name(const ::testing::TestParamInfo<MatrixParam>& info) {
  return std::string(info.param.structure.data()) + "_" +
         std::string(stm::backend_name(info.param.backend));
}

class StructureMatrix : public ::testing::TestWithParam<MatrixParam> {};

TEST_P(StructureMatrix, SeededFillMatchesReference) {
  stm::Runtime rt(with_backend(GetParam().backend));
  stm::TxnDesc& ctx = rt.register_thread();
  auto map = make_structure(GetParam().structure.data());
  const FillResult r = fill(*map, ctx, 512, 2048, /*seed=*/0xf111ed);
  EXPECT_EQ(r.inserted, 512u);
  EXPECT_GE(r.attempts, r.inserted);
  const auto model = reference_fill(512, 2048, /*seed=*/0xf111ed);
  std::string error;
  EXPECT_TRUE(verify_against(*map, model, &error)) << error;
}

TEST_P(StructureMatrix, MixedOpsMatchStdMap) {
  stm::Runtime rt(with_backend(GetParam().backend));
  stm::TxnDesc& ctx = rt.register_thread();
  auto map = make_structure(GetParam().structure.data());
  Model model;
  util::Xoshiro256 rng(0x0b5e55ed);
  constexpr std::int64_t kRange = 256;
  for (int op = 0; op < 3000; ++op) {
    const auto key = static_cast<std::int64_t>(rng.below(kRange));
    switch (rng.below(5)) {
      case 0: {  // insert
        const bool added = stm::atomically(ctx, [&](stm::Txn& tx) {
          return map->insert(tx, key, fill_value(key));
        });
        EXPECT_EQ(added, model.emplace(key, fill_value(key)).second);
        break;
      }
      case 1: {  // remove
        const bool removed = stm::atomically(
            ctx, [&](stm::Txn& tx) { return map->remove(tx, key); });
        EXPECT_EQ(removed, model.erase(key) != 0);
        break;
      }
      case 2: {  // get
        const auto got = stm::atomically(
            ctx, [&](stm::Txn& tx) { return map->get(tx, key); });
        const auto it = model.find(key);
        if (it == model.end()) {
          EXPECT_FALSE(got.has_value());
        } else {
          ASSERT_TRUE(got.has_value());
          EXPECT_EQ(*got, it->second);
        }
        break;
      }
      case 3: {  // size
        const auto n = stm::atomically(
            ctx, [&](stm::Txn& tx) { return map->size(tx); });
        EXPECT_EQ(n, static_cast<std::int64_t>(model.size()));
        break;
      }
      default:  // range scan over a short window
        EXPECT_EQ(scan_pairs(*map, ctx, key, key + 16),
                  model_window(model, key, key + 16));
        break;
    }
  }
  std::string error;
  EXPECT_TRUE(verify_against(*map, model, &error)) << error;
}

// The stress half of the shared suite: 4 threads of mixed ops. Successful
// insert/remove counts must reconcile with the final size (transactions
// lost or doubled by a backend would break the ledger), scans inside a
// transaction must observe a sorted snapshot, and the structure's own
// invariants must hold quiescently.
TEST_P(StructureMatrix, ConcurrentChurnReconcilesCounts) {
  stm::Runtime rt(with_backend(GetParam().backend));
  auto map = make_structure(GetParam().structure.data());
  constexpr std::int64_t kRange = 512;
  constexpr int kThreads = 4;
  constexpr int kOpsPerThread = 500;
  {
    stm::TxnDesc& ctx = rt.register_thread();
    fill(*map, ctx, 256, kRange, /*seed=*/0xc0ffee);
  }
  const auto initial = static_cast<std::int64_t>(map->unsafe_size());
  std::atomic<std::int64_t> net{0};
  std::atomic<bool> scans_sorted{true};
  util::SpinBarrier barrier(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      stm::TxnDesc& ctx = rt.register_thread();
      util::Xoshiro256 rng(0x57a7e + t);
      std::int64_t local_net = 0;
      barrier.arrive_and_wait();
      for (int op = 0; op < kOpsPerThread; ++op) {
        const auto key = static_cast<std::int64_t>(rng.below(kRange));
        switch (rng.below(4)) {
          case 0:
            local_net += stm::atomically(ctx, [&](stm::Txn& tx) {
              return map->insert(tx, key, fill_value(key)) ? 1 : 0;
            });
            break;
          case 1:
            local_net -= stm::atomically(ctx, [&](stm::Txn& tx) {
              return map->remove(tx, key) ? 1 : 0;
            });
            break;
          case 2:
            stm::atomically(ctx,
                            [&](stm::Txn& tx) { (void)map->contains(tx, key); });
            break;
          default: {
            std::int64_t prev = -1;
            bool sorted = true;
            stm::atomically(ctx, [&](stm::Txn& tx) {
              prev = -1;
              sorted = true;
              map->range_scan(tx, key, key + 32,
                              [&](std::int64_t k, std::int64_t) {
                                sorted = sorted && k > prev;
                                prev = k;
                              });
            });
            if (map->ordered() && !sorted) scans_sorted = false;
            break;
          }
        }
      }
      net += local_net;
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_TRUE(scans_sorted.load())
      << "a range scan observed an unsorted snapshot";
  EXPECT_EQ(static_cast<std::int64_t>(map->unsafe_size()), initial + net.load())
      << "successful op ledger does not reconcile with the final size";
  std::string error;
  EXPECT_TRUE(map->check_invariants(&error)) << error;
  bool values_ok = true;
  map->unsafe_for_each([&](std::int64_t k, std::int64_t v) {
    values_ok = values_ok && v == fill_value(k);
  });
  EXPECT_TRUE(values_ok) << "a value diverged from the fill convention";
}

// --- range-scan edge cases and snapshot atomicity ---

TEST_P(StructureMatrix, ScanOfEmptyMapVisitsNothing) {
  stm::Runtime rt(with_backend(GetParam().backend));
  stm::TxnDesc& ctx = rt.register_thread();
  auto map = make_structure(GetParam().structure.data());
  EXPECT_TRUE(scan_pairs(*map, ctx, 0, 16).empty());
  EXPECT_TRUE(scan_pairs(*map, ctx, kMin, kMin + 16).empty());
  EXPECT_TRUE(scan_pairs(*map, ctx, kMax - 16, kMax).empty());
  // The hash map probes every key in the window, so only ordered
  // structures take the unbounded one.
  if (map->ordered()) {
    EXPECT_TRUE(scan_pairs(*map, ctx, kMin, kMax).empty());
  }
}

TEST_P(StructureMatrix, ScanWithHiNotAboveLoVisitsNothing) {
  stm::Runtime rt(with_backend(GetParam().backend));
  stm::TxnDesc& ctx = rt.register_thread();
  auto map = make_structure(GetParam().structure.data());
  Model model;
  std::vector<std::int64_t> keys;
  for (std::int64_t k = 0; k < 64; ++k) keys.push_back(k);
  insert_keys(*map, ctx, model, keys);
  EXPECT_TRUE(scan_pairs(*map, ctx, 10, 10).empty());
  EXPECT_TRUE(scan_pairs(*map, ctx, 20, 10).empty());
  EXPECT_TRUE(scan_pairs(*map, ctx, 63, 0).empty());
  EXPECT_TRUE(scan_pairs(*map, ctx, kMax, kMin).empty());
  EXPECT_TRUE(scan_pairs(*map, ctx, 0, kMin).empty());
}

TEST_P(StructureMatrix, ScanCoveringWholeMapVisitsEveryPair) {
  stm::Runtime rt(with_backend(GetParam().backend));
  stm::TxnDesc& ctx = rt.register_thread();
  auto map = make_structure(GetParam().structure.data());
  Model model;
  util::Xoshiro256 rng(0x5ca9);
  std::vector<std::int64_t> keys;
  for (int i = 0; i < 120; ++i) {
    keys.push_back(static_cast<std::int64_t>(rng.below(256)));
  }
  insert_keys(*map, ctx, model, keys);
  const std::int64_t first = model.begin()->first;
  const std::int64_t last = model.rbegin()->first;
  const Pairs all = model_window(model, kMin, kMax);
  EXPECT_EQ(scan_pairs(*map, ctx, first, last + 1), all);
  EXPECT_EQ(scan_pairs(*map, ctx, -1, 257), all);
  if (map->ordered()) {
    EXPECT_EQ(scan_pairs(*map, ctx, kMin, kMax), all);
  }
}

TEST_P(StructureMatrix, ScanAtInt64ExtremesMatchesStdMap) {
  stm::Runtime rt(with_backend(GetParam().backend));
  stm::TxnDesc& ctx = rt.register_thread();
  auto map = make_structure(GetParam().structure.data());
  Model model;
  insert_keys(*map, ctx, model,
              {kMin, kMin + 1, kMin + 5, -1, 0, 1, kMax - 5, kMax - 1, kMax});
  const std::vector<std::pair<std::int64_t, std::int64_t>> windows = {
      {kMin, kMin + 8}, {kMin + 1, kMin + 2}, {kMin + 2, kMin + 5},
      {-2, 2},          {kMax - 8, kMax},     {kMax - 1, kMax},
      {kMax, kMax},
  };
  for (const auto& [lo, hi] : windows) {
    EXPECT_EQ(scan_pairs(*map, ctx, lo, hi), model_window(model, lo, hi))
        << "window [" << lo << ", " << hi << ")";
  }
  if (map->ordered()) {
    for (const std::int64_t lo : {kMin, kMin + 1, std::int64_t{0}, kMax - 1}) {
      EXPECT_EQ(scan_pairs(*map, ctx, lo, kMax), model_window(model, lo, kMax))
          << "window [" << lo << ", INT64_MAX)";
    }
  }
}

// Writers insert or remove the pair (2i, 2i+1) in one transaction, so a
// scan that runs in one transaction must see each pair whole or not at all.
TEST_P(StructureMatrix, ScansSeeWritePairsAtomically) {
  stm::Runtime rt(with_backend(GetParam().backend));
  auto map = make_structure(GetParam().structure.data());
  constexpr std::int64_t kPairs = 64;
  constexpr int kWriters = 2, kScanners = 2, kOpsPerThread = 400;
  std::atomic<int> torn{0};
  std::atomic<int> ledger_errors{0};
  util::SpinBarrier barrier(kWriters + kScanners);
  std::vector<std::thread> threads;
  for (int t = 0; t < kWriters; ++t) {
    threads.emplace_back([&, t] {
      stm::TxnDesc& ctx = rt.register_thread();
      util::Xoshiro256 rng(0xba1 + t);
      barrier.arrive_and_wait();
      for (int op = 0; op < kOpsPerThread; ++op) {
        const auto key = 2 * static_cast<std::int64_t>(rng.below(kPairs));
        const bool consistent = stm::atomically(ctx, [&](stm::Txn& tx) {
          if (map->contains(tx, key)) {
            return map->remove(tx, key) && map->remove(tx, key + 1);
          }
          return map->insert(tx, key, key) && map->insert(tx, key + 1, key);
        });
        if (!consistent) ++ledger_errors;
      }
    });
  }
  for (int t = 0; t < kScanners; ++t) {
    threads.emplace_back([&, t] {
      stm::TxnDesc& ctx = rt.register_thread();
      util::Xoshiro256 rng(0x5c4 + t);
      std::vector<std::int64_t> seen;
      barrier.arrive_and_wait();
      for (int op = 0; op < kOpsPerThread; ++op) {
        // Even bounds, so a window never splits a pair.
        const auto lo = 2 * static_cast<std::int64_t>(rng.below(kPairs));
        stm::atomically(ctx, [&](stm::Txn& tx) {
          seen.clear();
          map->range_scan(tx, lo, lo + 32, [&](std::int64_t k, std::int64_t) {
            seen.push_back(k);
          });
        });
        std::sort(seen.begin(), seen.end());
        for (const std::int64_t k : seen) {
          const std::int64_t mate = k % 2 == 0 ? k + 1 : k - 1;
          if (!std::binary_search(seen.begin(), seen.end(), mate)) ++torn;
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(ledger_errors.load(), 0)
      << "a pair was half present inside a writer's transaction";
  EXPECT_EQ(torn.load(), 0) << "a scan saw half of a pair";
  EXPECT_EQ(map->unsafe_size() % 2, 0u);
  std::string error;
  EXPECT_TRUE(map->check_invariants(&error)) << error;
}

INSTANTIATE_TEST_SUITE_P(AllStructuresAllBackends, StructureMatrix,
                         ::testing::ValuesIn(matrix_params()), matrix_name);

// --- range-scan cost ---

// Transactional reads one committed transaction spends on a [lo, hi) scan.
std::uint64_t scan_reads(TMap& map, stm::TxnDesc& ctx, std::int64_t lo,
                         std::int64_t hi, std::size_t* visited) {
  const std::uint64_t before = ctx.stats().reads.load();
  *visited = stm::atomically(ctx, [&](stm::Txn& tx) {
    return map.range_scan(tx, lo, hi, [](std::int64_t, std::int64_t) {});
  });
  return ctx.stats().reads.load() - before;
}

// A scan must cost one descent plus a walk over the visited keys, not a
// fresh descent (rbtree) or head-of-list walk (list) per key.
TEST(RangeScanCost, RbTreeReadsLinearInHeightPlusWindow) {
  stm::Runtime rt;
  stm::TxnDesc& ctx = rt.register_thread();
  auto map = make_structure("rbtree");
  constexpr std::int64_t kKeys = 4096;
  for (std::int64_t i = 0; i < kKeys; ++i) {
    const std::int64_t k = (i * 2897) % kKeys;  // odd stride: a permutation
    stm::atomically(ctx, [&](stm::Txn& tx) { map->insert(tx, k, k); });
  }
  constexpr std::int64_t kWindow = 64;
  constexpr std::uint64_t kMaxHeight = 2 * 13;  // 2 * ceil(log2(kKeys + 1))
  std::size_t visited = 0;
  const std::uint64_t reads =
      scan_reads(*map, ctx, 2000, 2000 + kWindow, &visited);
  EXPECT_EQ(visited, static_cast<std::size_t>(kWindow));
  EXPECT_LE(reads, 4 * kMaxHeight + 4 * kWindow + 8);
}

TEST(RangeScanCost, ListReadsLinearInPositionPlusWindow) {
  stm::Runtime rt;
  stm::TxnDesc& ctx = rt.register_thread();
  auto map = make_structure("list");
  for (std::int64_t k = 0; k < 1024; ++k) {
    stm::atomically(ctx, [&](stm::Txn& tx) { map->insert(tx, k, k); });
  }
  constexpr std::int64_t kPosition = 512, kWindow = 64;
  std::size_t visited = 0;
  const std::uint64_t reads =
      scan_reads(*map, ctx, kPosition, kPosition + kWindow, &visited);
  EXPECT_EQ(visited, static_cast<std::size_t>(kWindow));
  EXPECT_LE(reads, 2 * kPosition + 4 * kWindow + 16);
}

// --- skiplist shape ---

TEST(TSkipList, TowerHeightsAreSeededAndDeterministic) {
  TSkipList a(42);
  TSkipList b(42);
  TSkipList c(43);
  bool differs = false;
  for (std::int64_t k = 0; k < 512; ++k) {
    const int h = a.height_for(k);
    EXPECT_GE(h, 1);
    EXPECT_LE(h, TSkipList::kMaxHeight);
    EXPECT_EQ(h, b.height_for(k)) << "same seed must give the same tower";
    differs = differs || h != c.height_for(k);
  }
  EXPECT_TRUE(differs) << "different seeds should reshape some towers";
}

TEST(TSkipList, InsertRemoveKeepsAllLevelsConsistent) {
  stm::Runtime rt;
  stm::TxnDesc& ctx = rt.register_thread();
  TSkipList list(7);
  for (std::int64_t k = 0; k < 400; ++k) {
    const std::int64_t key = (k * 37) % 400;  // permutation of 0..399
    stm::atomically(ctx, [&](stm::Txn& tx) {
      EXPECT_TRUE(list.insert(tx, key, fill_value(key)));
    });
  }
  std::string error;
  ASSERT_TRUE(list.check_invariants(&error)) << error;
  for (std::int64_t key = 0; key < 400; key += 2) {
    stm::atomically(ctx, [&](stm::Txn& tx) {
      EXPECT_TRUE(list.remove(tx, key));
      EXPECT_FALSE(list.remove(tx, key));
    });
  }
  ASSERT_TRUE(list.check_invariants(&error)) << error;
  EXPECT_EQ(list.unsafe_size(), 200u);
}

// --- B+-tree shape ---

TEST(TBTree, AscendingInsertSplitsCleanly) {
  stm::Runtime rt;
  stm::TxnDesc& ctx = rt.register_thread();
  TBTree tree;
  constexpr std::int64_t kN = 1000;
  for (std::int64_t k = 0; k < kN; ++k) {
    stm::atomically(ctx, [&](stm::Txn& tx) {
      EXPECT_TRUE(tree.insert(tx, k, fill_value(k)));
      EXPECT_FALSE(tree.insert(tx, k, 0)) << "duplicate insert must refuse";
    });
  }
  std::string error;
  ASSERT_TRUE(tree.check_invariants(&error)) << error;
  EXPECT_EQ(tree.unsafe_size(), static_cast<std::size_t>(kN));
  stm::atomically(ctx, [&](stm::Txn& tx) {
    EXPECT_EQ(tree.size(tx), kN);
    EXPECT_EQ(tree.get(tx, 0), fill_value(0));
    EXPECT_EQ(tree.get(tx, kN - 1), fill_value(kN - 1));
    EXPECT_EQ(tree.get(tx, kN), std::nullopt);
  });
}

TEST(TBTree, LazyDeletionToleratesEmptyLeaves) {
  stm::Runtime rt;
  stm::TxnDesc& ctx = rt.register_thread();
  TBTree tree;
  for (std::int64_t k = 0; k < 256; ++k) {
    stm::atomically(ctx,
                    [&](stm::Txn& tx) { tree.insert(tx, k, fill_value(k)); });
  }
  // Drain a whole aligned block so at least one leaf goes empty.
  for (std::int64_t k = 0; k < 64; ++k) {
    stm::atomically(ctx, [&](stm::Txn& tx) { EXPECT_TRUE(tree.remove(tx, k)); });
  }
  std::string error;
  ASSERT_TRUE(tree.check_invariants(&error)) << error;
  EXPECT_EQ(tree.unsafe_size(), 192u);
  // Keys re-insert into the (possibly empty) leaves they map to.
  for (std::int64_t k = 0; k < 64; ++k) {
    stm::atomically(ctx, [&](stm::Txn& tx) {
      EXPECT_TRUE(tree.insert(tx, k, fill_value(k)));
    });
  }
  ASSERT_TRUE(tree.check_invariants(&error)) << error;
  EXPECT_EQ(tree.unsafe_size(), 256u);
}

TEST(TBTree, RangeScanWalksLeafChain) {
  stm::Runtime rt;
  stm::TxnDesc& ctx = rt.register_thread();
  TBTree tree;
  for (std::int64_t k = 0; k < 500; k += 5) {
    stm::atomically(ctx, [&](stm::Txn& tx) { tree.insert(tx, k, k); });
  }
  std::vector<std::int64_t> keys;
  const std::size_t n = stm::atomically(ctx, [&](stm::Txn& tx) {
    keys.clear();
    return tree.range_scan(tx, 123, 321,
                           [&](std::int64_t k, std::int64_t) {
                             keys.push_back(k);
                           });
  });
  ASSERT_EQ(n, keys.size());
  std::vector<std::int64_t> want;
  for (std::int64_t k = 125; k < 321; k += 5) want.push_back(k);
  EXPECT_EQ(keys, want);
}

// --- TQueue FIFO under concurrency (per backend) ---

// 4 threads (2 producers, 2 consumers) against one queue: every produced
// item is consumed exactly once and each producer's items arrive in
// per-producer FIFO order — transactional enqueue/dequeue may interleave
// producers but must never reorder one producer's stream.
TEST(TQueueConcurrent, FifoPerProducerOnEveryBackend) {
  for (const auto backend : stm::known_backends()) {
    SCOPED_TRACE(std::string(stm::backend_name(backend)));
    stm::Runtime rt(with_backend(backend));
    TQueue<std::int64_t> queue;
    constexpr int kProducers = 2, kConsumers = 2, kPerProducer = 400;
    // Payload pool outlives the queue nodes; values tag (producer, seq).
    std::vector<std::int64_t> payloads(
        static_cast<std::size_t>(kProducers) * kPerProducer);
    for (int p = 0; p < kProducers; ++p) {
      for (int i = 0; i < kPerProducer; ++i) {
        payloads[static_cast<std::size_t>(p) * kPerProducer +
                 static_cast<std::size_t>(i)] = p * 1000000 + i;
      }
    }
    std::atomic<int> consumed{0};
    std::vector<std::vector<std::int64_t>> per_consumer(kConsumers);
    util::SpinBarrier barrier(kProducers + kConsumers);
    std::vector<std::thread> threads;
    for (int p = 0; p < kProducers; ++p) {
      threads.emplace_back([&, p] {
        stm::TxnDesc& ctx = rt.register_thread();
        barrier.arrive_and_wait();
        for (int i = 0; i < kPerProducer; ++i) {
          auto* item = &payloads[static_cast<std::size_t>(p) * kPerProducer +
                                 static_cast<std::size_t>(i)];
          stm::atomically(ctx,
                          [&](stm::Txn& tx) { queue.enqueue(tx, item); });
        }
      });
    }
    for (int c = 0; c < kConsumers; ++c) {
      threads.emplace_back([&, c] {
        stm::TxnDesc& ctx = rt.register_thread();
        barrier.arrive_and_wait();
        while (consumed.load() < kProducers * kPerProducer) {
          std::int64_t* item = stm::atomically(
              ctx, [&](stm::Txn& tx) { return queue.try_dequeue(tx); });
          if (item != nullptr) {
            per_consumer[static_cast<std::size_t>(c)].push_back(*item);
            consumed.fetch_add(1);
          }
        }
      });
    }
    for (auto& th : threads) th.join();
    EXPECT_EQ(queue.unsafe_size(), 0);
    // Exactly-once: multiset of consumed values == produced values.
    std::vector<std::int64_t> all;
    for (const auto& v : per_consumer) all.insert(all.end(), v.begin(), v.end());
    ASSERT_EQ(all.size(), payloads.size());
    std::vector<std::int64_t> sorted_all = all;
    std::sort(sorted_all.begin(), sorted_all.end());
    std::vector<std::int64_t> sorted_payloads = payloads;
    std::sort(sorted_payloads.begin(), sorted_payloads.end());
    EXPECT_EQ(sorted_all, sorted_payloads);
    // Per-producer FIFO within each consumer's observed stream.
    for (const auto& stream : per_consumer) {
      std::vector<std::int64_t> last(kProducers, -1);
      for (const std::int64_t v : stream) {
        const auto p = static_cast<std::size_t>(v / 1000000);
        const std::int64_t seq = v % 1000000;
        EXPECT_GT(seq, last[p]) << "producer stream reordered";
        last[p] = seq;
      }
    }
  }
}

// --- TList ordering under concurrency (per backend) ---

TEST(TListConcurrent, InterleavedInsertsStaySortedOnEveryBackend) {
  for (const auto backend : stm::known_backends()) {
    SCOPED_TRACE(std::string(stm::backend_name(backend)));
    stm::Runtime rt(with_backend(backend));
    TList list;
    constexpr int kThreads = 4, kPerThread = 250;
    util::SpinBarrier barrier(kThreads);
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] {
        stm::TxnDesc& ctx = rt.register_thread();
        barrier.arrive_and_wait();
        // Thread t owns keys ≡ t (mod kThreads): disjoint but interleaved,
        // so every insert races on neighbouring links.
        for (int i = 0; i < kPerThread; ++i) {
          const std::int64_t key = static_cast<std::int64_t>(i) * kThreads + t;
          stm::atomically(ctx, [&](stm::Txn& tx) {
            EXPECT_TRUE(list.insert(tx, key, fill_value(key)));
          });
        }
      });
    }
    for (auto& th : threads) th.join();
    std::string error;
    EXPECT_TRUE(list.check_invariants(&error)) << error;
    std::vector<std::int64_t> keys;
    list.unsafe_for_each(
        [&](std::int64_t k, std::int64_t) { keys.push_back(k); });
    ASSERT_EQ(keys.size(), static_cast<std::size_t>(kThreads * kPerThread));
    for (std::size_t i = 0; i < keys.size(); ++i) {
      EXPECT_EQ(keys[i], static_cast<std::int64_t>(i)) << "dense sorted keys";
    }
  }
}

TEST(TListConcurrent, ChurnReconcilesCountsOnEveryBackend) {
  for (const auto backend : stm::known_backends()) {
    SCOPED_TRACE(std::string(stm::backend_name(backend)));
    stm::Runtime rt(with_backend(backend));
    TList list;
    constexpr std::int64_t kRange = 128;
    constexpr int kThreads = 4;
    std::atomic<std::int64_t> net{0};
    util::SpinBarrier barrier(kThreads);
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] {
        stm::TxnDesc& ctx = rt.register_thread();
        util::Xoshiro256 rng(0x11f0 + t);
        std::int64_t local = 0;
        barrier.arrive_and_wait();
        for (int op = 0; op < 400; ++op) {
          const auto key = static_cast<std::int64_t>(rng.below(kRange));
          if (rng.below(2) == 0) {
            local += stm::atomically(ctx, [&](stm::Txn& tx) {
              return list.insert(tx, key, fill_value(key)) ? 1 : 0;
            });
          } else {
            local -= stm::atomically(ctx, [&](stm::Txn& tx) {
              return list.erase(tx, key) ? 1 : 0;
            });
          }
        }
        net += local;
      });
    }
    for (auto& th : threads) th.join();
    EXPECT_EQ(static_cast<std::int64_t>(list.unsafe_size()), net.load());
    std::string error;
    EXPECT_TRUE(list.check_invariants(&error)) << error;
  }
}

// --- disjoint updates ---
//
// No structure keeps a size word, so two updates whose paths do not meet
// must not conflict. Each test drives two transactions by hand: both begin,
// each inserts one key, then `first` commits and `second` commits. With a
// shared size word the second commit aborts (it read the count the first
// one overwrote); here both commit.

constexpr stm::BackendKind kInvisibleReadBackends[] = {stm::BackendKind::kTl2,
                                                       stm::BackendKind::kNorec};

// First key in [lo, hi) accepted by `pick`; fails the test if none is.
template <typename Pick>
std::int64_t first_key_in(std::int64_t lo, std::int64_t hi, Pick&& pick) {
  for (std::int64_t k = lo; k < hi; ++k) {
    if (pick(k)) return k;
  }
  ADD_FAILURE() << "no key in [" << lo << ", " << hi << ") qualifies";
  return lo;
}

template <typename Map>
void expect_disjoint_inserts_both_commit(stm::Runtime& rt, Map& map,
                                         std::int64_t first,
                                         std::int64_t second) {
  stm::TxnDesc& ctx = rt.register_thread();
  const std::int64_t before =
      stm::atomically(ctx, [&](stm::Txn& tx) { return map.size(tx); });
  stm::TxnDesc& a = rt.register_thread();
  stm::TxnDesc& b = rt.register_thread();
  a.begin(true);
  stm::Txn atx(a);
  ASSERT_TRUE(map.insert(atx, first, first));
  b.begin(true);
  stm::Txn btx(b);
  ASSERT_TRUE(map.insert(btx, second, second));
  ASSERT_NO_THROW(a.commit());
  bool second_committed = true;
  try {
    b.commit();
  } catch (const stm::detail::AbortTx&) {
    second_committed = false;
    b.rollback(stm::AbortCause::kValidationFailed);
  }
  EXPECT_TRUE(second_committed)
      << "inserts of " << first << " and " << second << " share no word";
  std::string error;
  EXPECT_TRUE(map.check_invariants(&error)) << error;
  const std::int64_t after =
      stm::atomically(ctx, [&](stm::Txn& tx) { return map.size(tx); });
  EXPECT_EQ(after, before + (second_committed ? 2 : 1));
}

// 40, 20, 60, 10 leaves 40, 20 and 60 black and 10 red: a key in (20, 40)
// becomes 20's red right child and a key above 60 becomes 60's red right
// child, neither needing a fix-up, and erasing 10 needs none either.
void fill_rbtree_with_black_parents(stm::TxnDesc& ctx, RbTree& tree) {
  for (const std::int64_t k : {40, 20, 60, 10}) {
    stm::atomically(ctx, [&](stm::Txn& tx) { tree.insert(tx, k, k); });
  }
}

TEST(DisjointUpdates, RbTreeRedLeavesUnderBlackParentsCommitTogether) {
  for (const auto backend : kInvisibleReadBackends) {
    SCOPED_TRACE(std::string(stm::backend_name(backend)));
    stm::Runtime rt(with_backend(backend));
    RbTree tree;
    fill_rbtree_with_black_parents(rt.register_thread(), tree);
    expect_disjoint_inserts_both_commit(rt, tree, 30, 70);
  }
}

TEST(DisjointUpdates, BTreeInsertsIntoDifferentLeavesCommitTogether) {
  for (const auto backend : kInvisibleReadBackends) {
    SCOPED_TRACE(std::string(stm::backend_name(backend)));
    stm::Runtime rt(with_backend(backend));
    stm::TxnDesc& ctx = rt.register_thread();
    TBTree tree;
    // The eighth ascending insert splits the root leaf into [10..40] and
    // [50..80]; both leaves keep room for three more keys.
    for (std::int64_t k = 10; k <= 80; k += 10) {
      stm::atomically(ctx, [&](stm::Txn& tx) { tree.insert(tx, k, k); });
    }
    expect_disjoint_inserts_both_commit(rt, tree, 25, 65);
  }
}

TEST(DisjointUpdates, SkipListInsertsBehindAnExpressLaneCommitTogether) {
  for (const auto backend : kInvisibleReadBackends) {
    SCOPED_TRACE(std::string(stm::backend_name(backend)));
    stm::Runtime rt(with_backend(backend));
    stm::TxnDesc& ctx = rt.register_thread();
    TSkipList list;
    for (std::int64_t k = 100; k <= 1600; k += 100) {
      stm::atomically(ctx, [&](stm::Txn& tx) { list.insert(tx, k, k); });
    }
    // `first` is a height-1 node behind 100, so it writes only 100's
    // level-0 link. `second` sits behind a taller node, whose level-1 lane
    // lets the second descent skip 100 entirely.
    const std::int64_t first = first_key_in(
        101, 200, [&](std::int64_t k) { return list.height_for(k) == 1; });
    const std::int64_t tall = first_key_in(2, 17, [&](std::int64_t i) {
                                return list.height_for(i * 100) >= 2;
                              }) * 100;
    const std::int64_t second = first_key_in(
        tall + 1, tall + 100,
        [&](std::int64_t k) { return list.height_for(k) == 1; });
    expect_disjoint_inserts_both_commit(rt, list, first, second);
  }
}

TEST(DisjointUpdates, ListInsertsCommitTogetherWhenTheFartherOneCommitsFirst) {
  for (const auto backend : kInvisibleReadBackends) {
    SCOPED_TRACE(std::string(stm::backend_name(backend)));
    stm::Runtime rt(with_backend(backend));
    stm::TxnDesc& ctx = rt.register_thread();
    TList list;
    for (std::int64_t k = 10; k <= 100; k += 10) {
      stm::atomically(ctx, [&](stm::Txn& tx) { list.insert(tx, k, k); });
    }
    // The walk to 85 reads the link that the insert of 15 writes, so 85
    // commits first; the walk to 15 stops long before 80's link.
    expect_disjoint_inserts_both_commit(rt, list, 85, 15);
  }
}

// --- update footprints ---
//
// An update that needs no restructuring writes only the words it changes:
// no size word, and no field of the rbtree's shared sentinel. Each case
// runs one update in a transaction of its own and reads the write set
// before rolling the attempt back.

// Words `update` wrote in a fresh transaction on `ctx`; the transaction is
// then rolled back, so the structure is left as it was.
template <typename Update>
std::size_t words_written(stm::TxnDesc& ctx, Update&& update) {
  ctx.begin(true);
  stm::Txn tx(ctx);
  EXPECT_TRUE(update(tx)) << "the update must apply";
  const std::size_t words = ctx.write_set_size();
  ctx.rollback(stm::AbortCause::kUserRetry);
  return words;
}

TEST(UpdateFootprint, RbTreeRedLeafInsertAndEraseWriteOneLink) {
  for (const auto backend : kInvisibleReadBackends) {
    SCOPED_TRACE(std::string(stm::backend_name(backend)));
    stm::Runtime rt(with_backend(backend));
    stm::TxnDesc& ctx = rt.register_thread();
    RbTree tree;
    fill_rbtree_with_black_parents(ctx, tree);
    EXPECT_EQ(words_written(ctx, [&](stm::Txn& tx) {
                return tree.insert(tx, 30, 30);
              }),
              1u)
        << "only 20's right link";
    // Erasing a leaf hands its parent the sentinel; the sentinel itself
    // must not learn its new parent.
    EXPECT_EQ(
        words_written(ctx, [&](stm::Txn& tx) { return tree.erase(tx, 10); }),
        1u)
        << "only 20's left link";
    std::string error;
    EXPECT_TRUE(tree.check_invariants(&error)) << error;
  }
}

TEST(UpdateFootprint, HashMapInsertAndEraseWriteOneLink) {
  for (const auto backend : kInvisibleReadBackends) {
    SCOPED_TRACE(std::string(stm::backend_name(backend)));
    stm::Runtime rt(with_backend(backend));
    stm::TxnDesc& ctx = rt.register_thread();
    THashMap map(64);
    for (std::int64_t k = 1; k <= 32; ++k) {
      stm::atomically(ctx, [&](stm::Txn& tx) { map.insert(tx, k, k); });
    }
    EXPECT_EQ(words_written(
                  ctx, [&](stm::Txn& tx) { return map.insert(tx, 100, 100); }),
              1u)
        << "only the bucket head";
    EXPECT_EQ(
        words_written(ctx, [&](stm::Txn& tx) { return map.erase(tx, 7); }), 1u)
        << "only the link that led to 7";
  }
}

TEST(UpdateFootprint, BTreeAppendWritesOneSlotAndRemovingTheLastKeyOnlyCount) {
  for (const auto backend : kInvisibleReadBackends) {
    SCOPED_TRACE(std::string(stm::backend_name(backend)));
    stm::Runtime rt(with_backend(backend));
    stm::TxnDesc& ctx = rt.register_thread();
    TBTree tree;
    for (const std::int64_t k : {10, 20, 30}) {
      stm::atomically(ctx, [&](stm::Txn& tx) { tree.insert(tx, k, k); });
    }
    EXPECT_EQ(words_written(
                  ctx, [&](stm::Txn& tx) { return tree.insert(tx, 40, 40); }),
              3u)
        << "the new key, its value and the leaf's count";
    EXPECT_EQ(
        words_written(ctx, [&](stm::Txn& tx) { return tree.remove(tx, 30); }),
        1u)
        << "only the leaf's count";
  }
}

TEST(UpdateFootprint, ListAndHeightOneSkipListUpdatesWriteOneLink) {
  for (const auto backend : kInvisibleReadBackends) {
    SCOPED_TRACE(std::string(stm::backend_name(backend)));
    stm::Runtime rt(with_backend(backend));
    stm::TxnDesc& ctx = rt.register_thread();
    TList list;
    TSkipList skiplist;
    for (std::int64_t k = 10; k <= 100; k += 10) {
      stm::atomically(ctx, [&](stm::Txn& tx) {
        list.insert(tx, k, k);
        skiplist.insert(tx, k, k);
      });
    }
    EXPECT_EQ(words_written(
                  ctx, [&](stm::Txn& tx) { return list.insert(tx, 45, 45); }),
              1u)
        << "only 40's link";
    EXPECT_EQ(
        words_written(ctx, [&](stm::Txn& tx) { return list.erase(tx, 50); }),
        1u)
        << "only 40's link";
    const std::int64_t low = first_key_in(
        41, 50, [&](std::int64_t k) { return skiplist.height_for(k) == 1; });
    EXPECT_EQ(words_written(ctx,
                            [&](stm::Txn& tx) {
                              return skiplist.insert(tx, low, low);
                            }),
              1u)
        << "only 40's level-0 link";
  }
}

}  // namespace
}  // namespace rubic::tds
