// Single-threaded unit tests of the STM machinery: lock-word encoding,
// write-set semantics, commit/abort behaviour, read-own-writes, the version
// clock, transactional allocation, and the epoch reclaimer's bookkeeping.
#include <gtest/gtest.h>

#include <cstdint>
#include <stdexcept>
#include <vector>

#include "src/stm/stm.hpp"

namespace rubic::stm {
namespace {

TEST(OrecEncoding, VersionRoundTrip) {
  for (std::uint64_t ts : {0ull, 1ull, 42ull, (1ull << 60)}) {
    const LockWord w = make_version(ts);
    EXPECT_FALSE(is_locked(w));
    EXPECT_EQ(version_of(w), ts);
  }
}

TEST(OrecEncoding, LockRoundTrip) {
  Runtime rt;
  TxnDesc& ctx = rt.register_thread();
  const LockWord w = make_lock(&ctx);
  EXPECT_TRUE(is_locked(w));
  EXPECT_EQ(owner_of(w), &ctx);
}

TEST(OrecTable, StableAndWordGranular) {
  OrecTable table;
  std::uint64_t a = 0, b = 0;
  EXPECT_EQ(&table.for_address(&a), &table.for_address(&a));
  // Distinct stripes virtually never alias in a 2^20-entry table.
  EXPECT_NE(&table.for_address(&a), &table.for_address(&b));
}

TEST(WriteSet, PutFindUpdate) {
  WriteSet ws;
  std::uint64_t a = 0, b = 0;
  EXPECT_TRUE(ws.empty());
  EXPECT_EQ(ws.find(&a), nullptr);
  ws.put(&a, 1);
  ws.put(&b, 2);
  ASSERT_NE(ws.find(&a), nullptr);
  EXPECT_EQ(ws.find(&a)->value, 1u);
  ws.put(&a, 3);  // update, not duplicate
  EXPECT_EQ(ws.size(), 2u);
  EXPECT_EQ(ws.find(&a)->value, 3u);
  ws.clear();
  EXPECT_TRUE(ws.empty());
  EXPECT_EQ(ws.find(&a), nullptr);
}

TEST(WriteSet, GrowsPastInitialBuckets) {
  WriteSet ws;
  std::vector<std::uint64_t> words(1000);
  for (std::size_t i = 0; i < words.size(); ++i) {
    ws.put(&words[i], i);
  }
  EXPECT_EQ(ws.size(), words.size());
  for (std::size_t i = 0; i < words.size(); ++i) {
    ASSERT_NE(ws.find(&words[i]), nullptr);
    EXPECT_EQ(ws.find(&words[i])->value, i);
  }
}

TEST(WriteSet, GenerationClearIsolatesTransactions) {
  WriteSet ws;
  std::uint64_t a = 0;
  for (int txn = 0; txn < 100; ++txn) {
    EXPECT_EQ(ws.find(&a), nullptr) << "stale entry leaked into txn " << txn;
    ws.put(&a, static_cast<std::uint64_t>(txn));
    ws.clear();
  }
}

// The fixture runs on the process-default backend (RUBIC_STM_BACKEND), so
// CI replays the whole file against NOrec; tests asserting orec-specific
// mechanics (clock ticks, published orec versions) pin the backend instead.
RuntimeConfig orec_pinned() {
  RuntimeConfig cfg;
  cfg.backend = BackendKind::kOrecSwiss;
  return cfg;
}

class StmTest : public ::testing::Test {
 protected:
  Runtime rt_;
  TxnDesc& ctx_ = rt_.register_thread();
};

TEST_F(StmTest, ReadWriteCommit) {
  TVar<std::int64_t> x(10);
  atomically(ctx_, [&](Txn& tx) {
    EXPECT_EQ(x.read(tx), 10);
    x.write(tx, 20);
    EXPECT_EQ(x.read(tx), 20) << "read-own-writes must see the buffer";
  });
  EXPECT_EQ(x.unsafe_read(), 20);
  const auto stats = rt_.aggregate_stats();
  EXPECT_EQ(stats.commits, 1u);
  EXPECT_EQ(stats.total_aborts(), 0u);
}

TEST_F(StmTest, WriteStaysInvisibleUntilCommit) {
  // Every engine buffers its writes: memory holds the old value until the
  // commit publishes the new one.
  TVar<std::int64_t> x(1);
  atomically(ctx_, [&](Txn& tx) {
    x.write(tx, 2);
    EXPECT_EQ(x.unsafe_read(), 1);
  });
  EXPECT_EQ(x.unsafe_read(), 2);
}

TEST_F(StmTest, UserExceptionRollsBackAndPropagates) {
  TVar<std::int64_t> x(5);
  EXPECT_THROW(atomically(ctx_,
                          [&](Txn& tx) {
                            x.write(tx, 99);
                            throw std::runtime_error("boom");
                          }),
               std::runtime_error);
  EXPECT_EQ(x.unsafe_read(), 5) << "aborted writes must not reach memory";
  EXPECT_FALSE(ctx_.active());
}

TEST_F(StmTest, ReturnsBodyValue) {
  TVar<std::int64_t> x(21);
  const std::int64_t doubled = atomically(ctx_, [&](Txn& tx) {
    const auto v = x.read(tx);
    x.write(tx, v * 2);
    return v * 2;
  });
  EXPECT_EQ(doubled, 42);
  EXPECT_EQ(x.unsafe_read(), 42);
}

TEST_F(StmTest, FlatNestingJoinsOuterTransaction) {
  TVar<std::int64_t> x(0);
  atomically(ctx_, [&](Txn&) {
    atomically(ctx_, [&](Txn& inner) { x.write(inner, 7); });
    // The inner "transaction" must not have committed independently: its
    // write is still in the outer transaction's buffer (an independent
    // commit would also have bumped the commit counter, checked below).
    EXPECT_EQ(x.unsafe_read(), 0);
  });
  EXPECT_EQ(x.unsafe_read(), 7);
  EXPECT_EQ(rt_.aggregate_stats().commits, 1u);
}

TEST_F(StmTest, ReadOnlyCommitSkipsClock) {
  TVar<std::int64_t> x(3);
  const std::uint64_t before = rt_.clock().load();
  atomically(ctx_, [&](Txn& tx) { (void)x.read(tx); });
  EXPECT_EQ(rt_.clock().load(), before);
  EXPECT_EQ(rt_.aggregate_stats().read_only_commits, 1u);
}

TEST(StmOrec, WritingCommitAdvancesClock) {
  Runtime rt(orec_pinned());
  TxnDesc& ctx = rt.register_thread();
  TVar<std::int64_t> x(3);
  const std::uint64_t before = rt.clock().load();
  atomically(ctx, [&](Txn& tx) { x.write(tx, 4); });
  EXPECT_EQ(rt.clock().load(), before + 1);
}

TEST(StmOrec, VersionsPublishedAtCommitTimestamp) {
  Runtime rt(orec_pinned());
  TxnDesc& ctx = rt.register_thread();
  TVar<std::int64_t> x(0);
  atomically(ctx, [&](Txn& tx) { x.write(tx, 1); });
  const std::uint64_t wv = rt.clock().load();
  const Orec& o = rt.orecs().for_address(&x);
  EXPECT_FALSE(is_locked(o.load()));
  EXPECT_EQ(version_of(o.load()), wv);
}

TEST_F(StmTest, TxMakeSurvivesCommit) {
  struct Node {
    std::int64_t value;
  };
  Node* made = nullptr;
  atomically(ctx_, [&](Txn& tx) {
    made = tx.make<Node>(Node{77});
  });
  ASSERT_NE(made, nullptr);
  EXPECT_EQ(made->value, 77);
  ::operator delete(made);  // committed allocations are ordinary heap memory
}

TEST_F(StmTest, TxMakeReclaimedOnUserException) {
  struct Node {
    std::int64_t value;
  };
  // The allocation is freed during rollback; absence of leaks is verified by
  // ASAN builds, here we only check control flow.
  EXPECT_THROW(atomically(ctx_,
                          [&](Txn& tx) {
                            (void)tx.make<Node>(Node{1});
                            throw std::logic_error("abort");
                          }),
               std::logic_error);
  EXPECT_FALSE(ctx_.active());
}

TEST_F(StmTest, TxFreeDeferredToEpoch) {
  auto* victim = new std::uint64_t(0);
  atomically(ctx_, [&](Txn& tx) { tx.free(victim); });
  // The free is queued, not executed: with only this quiescent thread the
  // epoch can advance on demand.
  EXPECT_EQ(rt_.limbo_size(), 1u);
  rt_.try_advance_epoch(ctx_);
  rt_.try_advance_epoch(ctx_);
  EXPECT_EQ(rt_.limbo_size(), 0u);
}

TEST_F(StmTest, TxFreeCancelledOnAbort) {
  auto* survivor = new std::uint64_t(123);
  EXPECT_THROW(atomically(ctx_,
                          [&](Txn& tx) {
                            tx.free(survivor);
                            throw std::runtime_error("no");
                          }),
               std::runtime_error);
  EXPECT_EQ(rt_.limbo_size(), 0u);
  EXPECT_EQ(*survivor, 123u) << "freed-by-aborted-txn memory must survive";
  delete survivor;
}

TEST_F(StmTest, MaxRetriesThrows) {
  RuntimeConfig cfg;
  cfg.max_retries = 3;
  Runtime limited(cfg);
  TxnDesc& ctx = limited.register_thread();
  int attempts = 0;
  EXPECT_THROW(atomically(ctx,
                          [&](Txn& tx) {
                            ++attempts;
                            tx.retry();  // always abort
                          }),
               RetriesExhausted);
  EXPECT_EQ(attempts, 3);
}

TEST_F(StmTest, StatsCountReadsAndWrites) {
  TVar<std::int64_t> x(0), y(0);
  atomically(ctx_, [&](Txn& tx) {
    (void)x.read(tx);
    (void)y.read(tx);
    x.write(tx, 1);
  });
  const auto s = rt_.aggregate_stats();
  EXPECT_EQ(s.reads, 2u);
  EXPECT_EQ(s.writes, 1u);
}

TEST_F(StmTest, GlobalRuntimeSingleton) {
  Runtime& a = global_runtime();
  Runtime& b = global_runtime();
  EXPECT_EQ(&a, &b);
}

TEST(StmEpoch, AdvanceBlockedByActiveTxn) {
  Runtime rt;
  TxnDesc& busy = rt.register_thread();
  TxnDesc& idle = rt.register_thread();
  busy.begin(true);
  const std::uint64_t e0 = rt.current_epoch();
  // busy entered epoch e0; idle cannot advance past it.
  rt.try_advance_epoch(idle);
  const std::uint64_t e1 = rt.current_epoch();
  EXPECT_LE(e1, e0 + 1);
  rt.try_advance_epoch(idle);
  EXPECT_EQ(rt.current_epoch(), e1) << "epoch must stall behind active txn";
  busy.rollback(AbortCause::kUserRetry);
  rt.try_advance_epoch(idle);
  EXPECT_GT(rt.current_epoch(), e1);
}

}  // namespace
}  // namespace rubic::stm
