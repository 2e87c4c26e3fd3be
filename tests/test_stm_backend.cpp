// Backend-layer tests: name/parse round-trips, NOrec protocol semantics
// (sequence-lock accounting, value-based validation, ABA tolerance,
// write-back deferral), cross-backend coexistence in one process, and a
// full workload-registry smoke run on NOrec.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "src/stm/stm.hpp"
#include "src/util/spin_barrier.hpp"
#include "src/workloads/registry.hpp"

namespace rubic::stm {
namespace {

RuntimeConfig with_backend(BackendKind backend) {
  RuntimeConfig cfg;
  cfg.backend = backend;
  return cfg;
}

TEST(BackendRegistry, NamesAndParseRoundTrip) {
  const auto all = known_backends();
  ASSERT_EQ(all.size(), 3u);
  for (const BackendKind k : all) {
    const auto parsed = parse_backend(backend_name(k));
    ASSERT_TRUE(parsed.has_value()) << backend_name(k);
    EXPECT_EQ(*parsed, k);
  }
  EXPECT_EQ(backend_name(BackendKind::kOrecSwiss), "orec_swiss");
  EXPECT_EQ(backend_name(BackendKind::kNorec), "norec");
  EXPECT_EQ(backend_name(BackendKind::kTl2), "tl2");
}

TEST(BackendRegistry, ParseRejectsUnknownNames) {
  EXPECT_FALSE(parse_backend("").has_value());
  EXPECT_FALSE(parse_backend("TL2").has_value());
  EXPECT_FALSE(parse_backend("2pl").has_value());
  EXPECT_FALSE(parse_backend("OREC_SWISS").has_value());
  EXPECT_FALSE(parse_backend("norec ").has_value());
}

TEST(BackendRegistry, RetiredTokenFailsLoudly) {
  // The eager 2PL-undo engine ("2plundo") was retired. A stale script or CI
  // line naming it must fail, never silently run another engine.
  EXPECT_FALSE(parse_backend("2plundo").has_value());
  // A fresh process (threadsafe style re-executes the binary) so the cached
  // default is read from the environment set inside the child.
  const std::string style = ::testing::FLAGS_gtest_death_test_style;
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(
      {
        ::setenv("RUBIC_STM_BACKEND", "2plundo", 1);
        (void)default_backend();
      },
      "RUBIC_STM_BACKEND='2plundo' is not a known backend "
      "\\(known: orec_swiss norec tl2\\)");
  ::testing::FLAGS_gtest_death_test_style = style;
}

TEST(BackendRegistry, TxnDescReportsItsRuntimeBackend) {
  for (const BackendKind k : known_backends()) {
    Runtime rt(with_backend(k));
    EXPECT_EQ(rt.backend(), k);
    EXPECT_EQ(rt.register_thread().backend(), k);
  }
}

TEST(NorecProtocol, WriteBackIsDeferredUntilCommit) {
  Runtime rt(with_backend(BackendKind::kNorec));
  TxnDesc& ctx = rt.register_thread();
  TVar<std::int64_t> x(1);
  atomically(ctx, [&](Txn& tx) {
    x.write(tx, 2);
    EXPECT_EQ(x.unsafe_read(), 1) << "NOrec must buffer until commit";
    EXPECT_EQ(x.read(tx), 2) << "read-own-writes must see the buffer";
  });
  EXPECT_EQ(x.unsafe_read(), 2);
}

TEST(NorecProtocol, SequenceAdvancesByTwoPerWritingCommit) {
  Runtime rt(with_backend(BackendKind::kNorec));
  TxnDesc& ctx = rt.register_thread();
  TVar<std::int64_t> x(0);
  EXPECT_EQ(rt.norec_seq().load(), 0u);
  for (int i = 1; i <= 5; ++i) {
    atomically(ctx, [&](Txn& tx) { x.write(tx, i); });
    EXPECT_EQ(rt.norec_seq().load(), 2u * static_cast<unsigned>(i));
  }
  // Read-only commits never touch the sequence lock or the version clock.
  atomically(ctx, [&](Txn& tx) { (void)x.read(tx); });
  EXPECT_EQ(rt.norec_seq().load(), 10u);
  EXPECT_EQ(rt.clock().load(), 0u);
  EXPECT_EQ(rt.aggregate_stats().read_only_commits, 1u);
}

TEST(NorecProtocol, ValueValidationToleratesSameValueRepublish) {
  // ABA at the value level is not a conflict under NOrec: a foreign commit
  // that leaves every value this transaction read unchanged extends the
  // snapshot instead of aborting it.
  Runtime rt(with_backend(BackendKind::kNorec));
  TxnDesc& reader = rt.register_thread();
  TxnDesc& writer = rt.register_thread();
  TVar<std::int64_t> x(5), y(9);
  int attempts = 0;
  const std::int64_t got = atomically(reader, [&](Txn& tx) {
    ++attempts;
    const auto vx = x.read(tx);
    if (attempts == 1) {
      // Foreign commit republishing the same value: bumps the sequence,
      // changes nothing the reader saw.
      atomically(writer, [&](Txn& wtx) { x.write(wtx, 5); });
    }
    return vx + y.read(tx);  // y's read forces revalidation
  });
  EXPECT_EQ(got, 14);
  EXPECT_EQ(attempts, 1) << "same-value republish must not abort the reader";
  const auto stats = rt.aggregate_stats();
  EXPECT_GE(stats.extensions, 1u) << "revalidation must extend the snapshot";
  EXPECT_EQ(stats.total_aborts(), 0u);
}

TEST(NorecProtocol, ValueValidationAbortsOnChangedValue) {
  Runtime rt(with_backend(BackendKind::kNorec));
  TxnDesc& reader = rt.register_thread();
  TxnDesc& writer = rt.register_thread();
  TVar<std::int64_t> x(5), y(9);
  int attempts = 0;
  const std::int64_t got = atomically(reader, [&](Txn& tx) {
    ++attempts;
    const auto vx = x.read(tx);
    if (attempts == 1) {
      atomically(writer, [&](Txn& wtx) { x.write(wtx, 6); });
    }
    return vx + y.read(tx);
  });
  EXPECT_EQ(got, 15) << "the retry must observe the committed value";
  EXPECT_EQ(attempts, 2);
  const auto stats = rt.aggregate_stats();
  EXPECT_EQ(
      stats.aborts[static_cast<std::size_t>(AbortCause::kValidationFailed)],
      1u);
}

TEST(NorecProtocol, WriterCommitRevalidatesAgainstInterveningCommit) {
  // A writer whose read set was invalidated between its last read and its
  // commit-time CAS must abort rather than publish a stale update.
  Runtime rt(with_backend(BackendKind::kNorec));
  TxnDesc& rmw = rt.register_thread();
  TxnDesc& other = rt.register_thread();
  TVar<std::int64_t> x(0);
  int attempts = 0;
  atomically(rmw, [&](Txn& tx) {
    ++attempts;
    const auto v = x.read(tx);
    if (attempts == 1) {
      atomically(other, [&](Txn& otx) { x.write(otx, x.read(otx) + 1); });
    }
    x.write(tx, v + 1);
  });
  EXPECT_EQ(attempts, 2) << "lost update must be caught at commit";
  EXPECT_EQ(x.unsafe_read(), 2);
}

TEST(NorecProtocol, IgnoresOrecOnlyConfigKnobs) {
  // cm / lock_timing have no meaning under NOrec; any combination must
  // behave identically (and correctly).
  for (const CmPolicy cm : {CmPolicy::kTimidBackoff, CmPolicy::kGreedyTimestamp}) {
    for (const LockTiming t : {LockTiming::kEncounterTime, LockTiming::kCommitTime}) {
      RuntimeConfig cfg = with_backend(BackendKind::kNorec);
      cfg.cm = cm;
      cfg.lock_timing = t;
      Runtime rt(cfg);
      TxnDesc& ctx = rt.register_thread();
      TVar<std::int64_t> x(0);
      for (int i = 0; i < 50; ++i) {
        atomically(ctx, [&](Txn& tx) { x.write(tx, x.read(tx) + 1); });
      }
      EXPECT_EQ(x.unsafe_read(), 50);
      EXPECT_EQ(rt.norec_seq().load(), 100u);
    }
  }
}

TEST(NorecProtocol, RetryBudgetAndUserRetryBehaveAsOnOrec) {
  RuntimeConfig cfg = with_backend(BackendKind::kNorec);
  cfg.max_retries = 3;
  Runtime rt(cfg);
  TxnDesc& ctx = rt.register_thread();
  TVar<std::int64_t> x(0);
  int attempts = 0;
  EXPECT_THROW(atomically(ctx,
                          [&](Txn& tx) {
                            ++attempts;
                            x.write(tx, 7);
                            tx.retry();
                          }),
               RetriesExhausted);
  EXPECT_EQ(attempts, 3);
  EXPECT_EQ(x.unsafe_read(), 0) << "no aborted attempt may have written back";
  EXPECT_EQ(rt.norec_seq().load(), 0u)
      << "aborted writers must leave the sequence lock untouched";
  EXPECT_FALSE(ctx.active());
  // The context stays usable.
  atomically(ctx, [&](Txn& tx) { x.write(tx, 1); });
  EXPECT_EQ(x.unsafe_read(), 1);
}

TEST(NorecProtocol, EpochReclamationWorks) {
  Runtime rt(with_backend(BackendKind::kNorec));
  TxnDesc& ctx = rt.register_thread();
  auto* victim = new std::uint64_t(0);
  atomically(ctx, [&](Txn& tx) { tx.free(victim); });
  EXPECT_EQ(rt.limbo_size(), 1u);
  rt.try_advance_epoch(ctx);
  rt.try_advance_epoch(ctx);
  EXPECT_EQ(rt.limbo_size(), 0u);
}

TEST(NorecConcurrent, CounterIncrementsAreAtomic) {
  Runtime rt(with_backend(BackendKind::kNorec));
  constexpr int kThreads = 4;
  constexpr int kIncrements = 2000;
  TVar<std::int64_t> counter(0);
  util::SpinBarrier barrier(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      TxnDesc& ctx = rt.register_thread();
      barrier.arrive_and_wait();
      for (int i = 0; i < kIncrements; ++i) {
        atomically(ctx, [&](Txn& tx) { counter.write(tx, counter.read(tx) + 1); });
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(counter.unsafe_read(), kThreads * kIncrements);
  EXPECT_EQ(rt.norec_seq().load(),
            2ull * static_cast<unsigned>(kThreads) * kIncrements);
}

TEST(Tl2Protocol, ReadAbortsInsteadOfExtending) {
  // The protocol split from orec_swiss: a stripe committed after the read
  // snapshot aborts the reader instead of triggering a timestamp extension.
  Runtime rt(with_backend(BackendKind::kTl2));
  TxnDesc& reader = rt.register_thread();
  TxnDesc& writer = rt.register_thread();
  TVar<std::int64_t> x(1), y(2);
  reader.begin(true);
  Txn rtx(reader);
  EXPECT_EQ(x.read(rtx), 1);
  atomically(writer, [&](Txn& tx) { y.write(tx, 20); });
  EXPECT_THROW((void)y.read(rtx), detail::AbortTx);
  reader.rollback(AbortCause::kValidationFailed);
  EXPECT_EQ(snapshot(reader.stats()).extensions, 0u)
      << "TL2 must never extend";
}

TEST(Tl2Protocol, WritesNeverLockBeforeCommit) {
  Runtime rt(with_backend(BackendKind::kTl2));
  TxnDesc& ctx = rt.register_thread();
  TVar<std::int64_t> x(0);
  const Orec& orec = rt.orecs().for_address(&x);
  ctx.begin(true);
  Txn tx(ctx);
  x.write(tx, 42);
  EXPECT_FALSE(is_locked(orec.load()))
      << "TL2 is commit-time only, regardless of the lock_timing knob";
  EXPECT_EQ(x.read(tx), 42) << "read-own-write through the buffer";
  EXPECT_EQ(x.unsafe_read(), 0) << "write-back must defer";
  ctx.commit();
  EXPECT_FALSE(is_locked(orec.load()));
  EXPECT_EQ(x.unsafe_read(), 42);
  EXPECT_EQ(rt.clock().load(), 1u) << "one writing commit, one clock tick";
}

TEST(Tl2Protocol, CommitAbortsOnForeignLockInsteadOfWaiting) {
  Runtime rt(with_backend(BackendKind::kTl2));
  TxnDesc& a = rt.register_thread();
  TxnDesc& b = rt.register_thread();
  TVar<std::int64_t> x(0);
  // b write-locks x's stripe by hand (simulating a stalled committer).
  Orec& orec = rt.orecs().for_address(&x);
  const LockWord pre = orec.load();
  ASSERT_TRUE(orec.try_lock(pre, &b));
  a.begin(true);
  Txn atx(a);
  x.write(atx, 1);
  EXPECT_THROW(a.commit(), detail::AbortTx);
  a.rollback(AbortCause::kWriteConflict);
  orec.restore(pre);
  EXPECT_EQ(x.unsafe_read(), 0);
}

TEST(Tl2Protocol, CommitDetectsInterveningWriter) {
  Runtime rt(with_backend(BackendKind::kTl2));
  TxnDesc& a = rt.register_thread();
  TxnDesc& b = rt.register_thread();
  TVar<std::int64_t> x(0);
  a.begin(true);
  Txn atx(a);
  const auto seen = x.read(atx);
  x.write(atx, seen + 1);
  atomically(b, [&](Txn& tx) { x.write(tx, 100); });
  EXPECT_THROW(a.commit(), detail::AbortTx);
  a.rollback(AbortCause::kValidationFailed);
  EXPECT_EQ(x.unsafe_read(), 100) << "B's commit must survive";
}

TEST(BackendCoexistence, MixedRuntimesShareOneProcess) {
  // One orec runtime and one NOrec runtime, active concurrently on
  // interleaved threads: the global-clock world and the sequence-lock
  // world must not bleed into each other.
  Runtime orec_rt(with_backend(BackendKind::kOrecSwiss));
  Runtime norec_rt(with_backend(BackendKind::kNorec));
  TVar<std::int64_t> a(0), b(0);
  constexpr int kThreads = 2;
  constexpr int kOps = 800;
  util::SpinBarrier barrier(2 * kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      TxnDesc& ctx = orec_rt.register_thread();
      barrier.arrive_and_wait();
      for (int i = 0; i < kOps; ++i) {
        atomically(ctx, [&](Txn& tx) { a.write(tx, a.read(tx) + 1); });
      }
    });
    threads.emplace_back([&] {
      TxnDesc& ctx = norec_rt.register_thread();
      barrier.arrive_and_wait();
      for (int i = 0; i < kOps; ++i) {
        atomically(ctx, [&](Txn& tx) { b.write(tx, b.read(tx) + 1); });
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(a.unsafe_read(), kThreads * kOps);
  EXPECT_EQ(b.unsafe_read(), kThreads * kOps);
  EXPECT_EQ(orec_rt.clock().load(), static_cast<unsigned>(kThreads) * kOps);
  EXPECT_EQ(orec_rt.norec_seq().load(), 0u);
  EXPECT_EQ(norec_rt.clock().load(), 0u);
  EXPECT_EQ(norec_rt.norec_seq().load(),
            2ull * static_cast<unsigned>(kThreads) * kOps);
}

TEST(BackendWorkloads, FullRegistrySmokesOnNorec) {
  // Every registered workload must run unmodified on the NOrec backend and
  // still verify: this is the cross-backend acceptance gate in miniature.
  for (const auto name : workloads::known_workloads()) {
    Runtime rt(with_backend(BackendKind::kNorec));
    auto workload = workloads::make_workload(name, rt);
    constexpr int kThreads = 2;
    util::SpinBarrier barrier(kThreads);
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] {
        TxnDesc& ctx = rt.register_thread();
        util::Xoshiro256 rng(40 + t);
        barrier.arrive_and_wait();
        for (int i = 0; i < 30 && !workload->done(); ++i) {
          workload->run_task(ctx, rng);
        }
      });
    }
    for (auto& th : threads) th.join();
    std::string error;
    EXPECT_TRUE(workload->verify(&error))
        << "workload=" << name << ": " << error;
    // montecarlo is deliberately non-transactional (Workload-interface-only
    // demo); every other workload must have committed through NOrec.
    if (name != "montecarlo") {
      EXPECT_GT(rt.aggregate_stats().commits, 0u) << "workload=" << name;
    }
  }
}

}  // namespace
}  // namespace rubic::stm
