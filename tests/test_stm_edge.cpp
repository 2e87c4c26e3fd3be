// STM edge cases: orec aliasing (two addresses sharing one ownership
// record), timestamp extension, abort-cause accounting, small-type TVars,
// misuse crashes, and torn-state probes that the basic suite doesn't reach.
#include <gtest/gtest.h>

#include <cstdint>
#include <thread>
#include <unordered_map>
#include <vector>

#include "src/stm/stm.hpp"
#include "src/util/rng.hpp"

namespace rubic::stm {
namespace {

// Finds two distinct word slots in `pool` that alias to the same orec.
// The Fibonacci multiply-shift hash is so equidistributive that random
// probing virtually never collides within one allocation; instead we use a
// known property of the golden-ratio constant: stripe offsets equal to a
// Fibonacci number map K·d very close to a multiple of 2^64, so
// bucket(s) == bucket(s + d) for ~91% of bases when d = 514229 (F(29)).
// We still verify via for_address (no dependence on hash internals).
constexpr std::size_t kAliasStride = 514229;

std::pair<std::uint64_t*, std::uint64_t*> find_alias(
    Runtime& rt, std::vector<std::uint64_t>& pool) {
  RUBIC_CHECK(pool.size() > kAliasStride + 2048);
  for (std::size_t base = 0; base < 2048; ++base) {
    std::uint64_t* a = &pool[base];
    std::uint64_t* b = &pool[base + kAliasStride];
    if (&rt.orecs().for_address(a) == &rt.orecs().for_address(b)) {
      return {a, b};
    }
  }
  return {nullptr, nullptr};
}

TEST(StmAliasing, ReadThroughOwnLockedStripeSeesPreImage) {
  Runtime rt;
  TxnDesc& ctx = rt.register_thread();
  std::vector<std::uint64_t> pool(kAliasStride + 4096, 0);
  auto [a, b] = find_alias(rt, pool);
  if (a == nullptr) GTEST_SKIP() << "no orec alias in pool";
  *a = 11;
  *b = 22;
  atomically(ctx, [&](Txn& tx) {
    tx.write_word(a, 100);  // locks the shared orec
    // Reading the *other* address of the same stripe must return the
    // memory value (22), not the buffered write for `a`.
    EXPECT_EQ(tx.read_word(b), 22u);
    EXPECT_EQ(tx.read_word(a), 100u) << "read-own-write through the buffer";
  });
  EXPECT_EQ(*a, 100u);
  EXPECT_EQ(*b, 22u);
}

TEST(StmAliasing, AliasedWritesBothCommit) {
  Runtime rt;
  TxnDesc& ctx = rt.register_thread();
  std::vector<std::uint64_t> pool(kAliasStride + 4096, 0);
  auto [a, b] = find_alias(rt, pool);
  if (a == nullptr) GTEST_SKIP() << "no orec alias in pool";
  atomically(ctx, [&](Txn& tx) {
    tx.write_word(a, 1);
    tx.write_word(b, 2);  // same orec, second write must not re-lock
  });
  EXPECT_EQ(*a, 1u);
  EXPECT_EQ(*b, 2u);
  const Orec& orec = rt.orecs().for_address(a);
  EXPECT_FALSE(is_locked(orec.load()));
}

// The tests below drive hand-rolled lock-step interleavings on the default
// engine; the extension test skips on TL2, which never extends.
bool default_backend_is(BackendKind k) { return RuntimeConfig{}.backend == k; }

TEST(StmExtension, ReadAfterForeignCommitExtends) {
  // A transaction that starts, then reads data committed *after* its start
  // timestamp, must extend (not abort) when its prior reads are untouched.
  if (default_backend_is(BackendKind::kTl2)) {
    GTEST_SKIP() << "timestamp extension exists only on orec_swiss/norec";
  }
  Runtime rt;
  TxnDesc& reader = rt.register_thread();
  TxnDesc& writer = rt.register_thread();
  TVar<std::int64_t> x(1), y(2);

  reader.begin(true);
  Txn rtx(reader);
  EXPECT_EQ(x.read(rtx), 1);

  // Foreign commit bumps the clock past the reader's rv.
  atomically(writer, [&](Txn& tx) { y.write(tx, 20); });

  // y's version is now > rv; the read triggers an extension that validates
  // x and succeeds.
  EXPECT_EQ(y.read(rtx), 20);
  reader.commit();
  EXPECT_EQ(snapshot(reader.stats()).extensions, 1u);
  EXPECT_EQ(snapshot(reader.stats()).commits, 1u);
}

TEST(StmExtension, ExtensionFailsWhenPriorReadIsStale) {
  Runtime rt;
  TxnDesc& reader = rt.register_thread();
  TxnDesc& writer = rt.register_thread();
  TVar<std::int64_t> x(1), y(2);

  reader.begin(true);
  Txn rtx(reader);
  EXPECT_EQ(x.read(rtx), 1);

  // Foreign commit modifies BOTH x (invalidating the prior read) and y.
  atomically(writer, [&](Txn& tx) {
    x.write(tx, 10);
    y.write(tx, 20);
  });

  EXPECT_THROW((void)y.read(rtx), detail::AbortTx);
  reader.rollback(AbortCause::kValidationFailed);
  EXPECT_EQ(snapshot(reader.stats())
                .aborts[static_cast<std::size_t>(AbortCause::kValidationFailed)],
            1u);
}

TEST(StmAbortCauses, CountedPerCause) {
  Runtime rt;
  TxnDesc& ctx = rt.register_thread();
  int attempts = 0;
  atomically(ctx, [&](Txn& tx) {
    if (++attempts < 3) tx.retry();
  });
  const auto stats = snapshot(ctx.stats());
  EXPECT_EQ(stats.aborts[static_cast<std::size_t>(AbortCause::kUserRetry)], 2u);
  EXPECT_EQ(stats.commits, 1u);
  EXPECT_EQ(attempts, 3);
}

TEST(StmSmallTypes, TVarHoldsVariousValueTypes) {
  Runtime rt;
  TxnDesc& ctx = rt.register_thread();
  TVar<bool> flag(false);
  TVar<double> ratio(0.25);
  TVar<std::int8_t> tiny(-5);
  TVar<std::uint32_t> medium(0xdeadbeef);
  struct Pair {
    std::int32_t a, b;
  };
  TVar<Pair> pair(Pair{1, -2});
  atomically(ctx, [&](Txn& tx) {
    EXPECT_FALSE(flag.read(tx));
    flag.write(tx, true);
    EXPECT_DOUBLE_EQ(ratio.read(tx), 0.25);
    ratio.write(tx, 0.75);
    EXPECT_EQ(tiny.read(tx), -5);
    tiny.write(tx, 7);
    EXPECT_EQ(medium.read(tx), 0xdeadbeefu);
    const Pair p = pair.read(tx);
    EXPECT_EQ(p.a, 1);
    EXPECT_EQ(p.b, -2);
    pair.write(tx, Pair{3, 4});
  });
  EXPECT_TRUE(flag.unsafe_read());
  EXPECT_DOUBLE_EQ(ratio.unsafe_read(), 0.75);
  EXPECT_EQ(tiny.unsafe_read(), 7);
  EXPECT_EQ(pair.unsafe_read().a, 3);
}

TEST(StmMisuse, AccessOutsideTransactionAborts) {
  Runtime rt;
  TxnDesc& ctx = rt.register_thread();
  std::uint64_t word = 0;
  EXPECT_DEATH((void)ctx.read_word(&word), "outside a transaction");
  EXPECT_DEATH(ctx.write_word(&word, 1), "outside a transaction");
}

TEST(StmMisuse, UnalignedAccessAborts) {
  Runtime rt;
  TxnDesc& ctx = rt.register_thread();
  alignas(8) char buffer[16] = {};
  auto* unaligned = reinterpret_cast<std::uint64_t*>(buffer + 1);
  ctx.begin(true);
  EXPECT_DEATH((void)ctx.read_word(unaligned), "aligned");
  ctx.rollback(AbortCause::kUserRetry);
}

TEST(StmMisuse, DoubleBeginAborts) {
  Runtime rt;
  TxnDesc& ctx = rt.register_thread();
  ctx.begin(true);
  EXPECT_DEATH(ctx.begin(true), "already running");
  ctx.rollback(AbortCause::kUserRetry);
}

TEST(StmFree, NullFreeIsNoop) {
  Runtime rt;
  TxnDesc& ctx = rt.register_thread();
  atomically(ctx, [&](Txn& tx) { tx.free(nullptr); });
  EXPECT_EQ(rt.limbo_size(), 0u);
}

TEST(StmFree, AllocThenFreeInSameTxnCommits) {
  Runtime rt;
  TxnDesc& ctx = rt.register_thread();
  atomically(ctx, [&](Txn& tx) {
    auto* p = tx.make<std::int64_t>(7);
    tx.free(p);  // allocated and retired in one transaction
  });
  rt.try_advance_epoch(ctx);
  rt.try_advance_epoch(ctx);
  EXPECT_EQ(rt.limbo_size(), 0u);
}

TEST(StmWriteSet, LargeWriteSetCommitsAtomically) {
  Runtime rt;
  TxnDesc& ctx = rt.register_thread();
  std::vector<TVar<std::int64_t>> vars(5000);
  atomically(ctx, [&](Txn& tx) {
    for (std::size_t i = 0; i < vars.size(); ++i) {
      vars[i].write(tx, static_cast<std::int64_t>(i));
    }
  });
  for (std::size_t i = 0; i < vars.size(); ++i) {
    EXPECT_EQ(vars[i].unsafe_read(), static_cast<std::int64_t>(i));
  }
}

TEST(StmWriteSet, RepeatedWritesToSameWordKeepLast) {
  RuntimeConfig cfg;
  cfg.backend = BackendKind::kOrecSwiss;  // asserts orec clock accounting
  Runtime rt(cfg);
  TxnDesc& ctx = rt.register_thread();
  TVar<std::int64_t> x(0);
  atomically(ctx, [&](Txn& tx) {
    for (int i = 1; i <= 100; ++i) x.write(tx, i);
    EXPECT_EQ(x.read(tx), 100);
  });
  EXPECT_EQ(x.unsafe_read(), 100);
  EXPECT_EQ(rt.clock().load(), 1u) << "one commit, one clock tick";
}

TEST(StmCommitTime, WritesDoNotLockUntilCommit) {
  RuntimeConfig cfg;
  cfg.lock_timing = LockTiming::kCommitTime;
  Runtime rt(cfg);
  TxnDesc& ctx = rt.register_thread();
  TVar<std::int64_t> x(0);
  const Orec& orec = rt.orecs().for_address(&x);
  ctx.begin(true);
  Txn tx(ctx);
  x.write(tx, 42);
  EXPECT_FALSE(is_locked(orec.load()))
      << "commit-time mode must not acquire locks at encounter";
  EXPECT_EQ(x.read(tx), 42) << "read-own-write through the buffer";
  EXPECT_EQ(x.unsafe_read(), 0);
  ctx.commit();
  EXPECT_FALSE(is_locked(orec.load()));
  EXPECT_EQ(x.unsafe_read(), 42);
}

TEST(StmCommitTime, CommitDetectsInterveningWriter) {
  RuntimeConfig cfg;
  cfg.lock_timing = LockTiming::kCommitTime;
  Runtime rt(cfg);
  TxnDesc& a = rt.register_thread();
  TxnDesc& b = rt.register_thread();
  TVar<std::int64_t> x(0);

  // A reads x then buffers a write; B commits to x in between; A's commit
  // must fail validation instead of publishing a lost update.
  a.begin(true);
  Txn atx(a);
  const auto seen = x.read(atx);
  x.write(atx, seen + 1);

  atomically(b, [&](Txn& tx) { x.write(tx, 100); });

  EXPECT_THROW(a.commit(), detail::AbortTx);
  a.rollback(AbortCause::kValidationFailed);
  EXPECT_EQ(x.unsafe_read(), 100) << "B's commit must survive";
}

TEST(StmCommitTime, BlindWritesCommute) {
  // Without reading, two buffered writers to the same word serialize
  // cleanly — the later committer simply overwrites (no validation entry).
  RuntimeConfig cfg;
  cfg.lock_timing = LockTiming::kCommitTime;
  Runtime rt(cfg);
  TxnDesc& a = rt.register_thread();
  TxnDesc& b = rt.register_thread();
  TVar<std::int64_t> x(0);
  a.begin(true);
  Txn atx(a);
  x.write(atx, 1);
  atomically(b, [&](Txn& tx) { x.write(tx, 2); });
  a.commit();  // blind write: validation has nothing to check
  EXPECT_EQ(x.unsafe_read(), 1) << "A serialized after B";
}

TEST(StmClock, ReadOnlySnapshotIgnoresLaterCommits) {
  // Opacity probe: a read-only transaction that began before a writer
  // committed must observe either the full pre-state or abort — never a
  // mix. Single-threaded deterministic version of the bank test.
  Runtime rt;
  TxnDesc& reader = rt.register_thread();
  TxnDesc& writer = rt.register_thread();
  TVar<std::int64_t> a(1), b(1);

  reader.begin(true);
  Txn rtx(reader);
  const auto first = a.read(rtx);

  atomically(writer, [&](Txn& tx) {
    a.write(tx, 2);
    b.write(tx, 2);
  });

  // The second read must not silently pair new-b with old-a.
  try {
    const auto second = b.read(rtx);
    EXPECT_EQ(first, second) << "torn snapshot escaped validation";
    reader.commit();
  } catch (const detail::AbortTx&) {
    reader.rollback(AbortCause::kValidationFailed);  // also acceptable
  }
}

}  // namespace
}  // namespace rubic::stm
