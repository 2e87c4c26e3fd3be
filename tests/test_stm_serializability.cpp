// Serializability checker for the STM.
//
// Worker threads run randomized read/write transactions over a small set of
// TVars, recording for every *committed* transaction its serialization
// point (commit timestamp for writers, final read timestamp for read-only
// transactions), the exact values it read, and the values it wrote. After
// quiescence the checker replays all writing transactions in global commit-
// timestamp order from the initial state and verifies:
//
//   1. every writer's recorded reads equal the replayed state just before
//      its commit point (TL2-family writers serialize at their wv; NOrec
//      writers at the sequence value they publish);
//   2. every read-only transaction's reads equal the replayed state as of
//      its read timestamp (they serialize at rv — the final snapshot);
//   3. the final replayed state equals the actual memory contents.
//
// Any opacity violation, lost update, torn snapshot or validation bug in
// the STM shows up here as a concrete value mismatch. Runs over the
// contention-manager × lock-timing matrix on the orec backend, on the
// NOrec and TL2 backends (value validation and commit-time locking each
// replay-verified end-to-end through the same contract), and for every
// backend under an armed fault plan forcing kFaultInjected commit aborts
// (the same forced conflicts `rubic_colocate --fault-spec` arms).
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <tuple>
#include <type_traits>
#include <vector>

#include "src/fault/fault.hpp"
#include "src/stm/stm.hpp"
#include "src/util/rng.hpp"
#include "src/util/spin_barrier.hpp"

namespace rubic::stm {
namespace {

constexpr int kVars = 6;
constexpr std::int64_t kInitialValue = 1000;

struct CommittedTxn {
  std::uint64_t serialization_point;  // wv for writers, rv for read-only
  bool read_only;
  // (var index, value) pairs in access order.
  std::vector<std::pair<int, std::int64_t>> reads;
  std::vector<std::pair<int, std::int64_t>> writes;
};

constexpr const char* kFaultStormSpec = "seed=17;stm_conflict:prob=0.05";

// Every byte of the param is a value, never a pointer or padding. gtest
// prints a param that has no operator<< as a dump of its bytes, and
// gtest_discover_tests puts that dump in the ctest test name; the name and
// fault-spec pointers made it change from run to run.
struct SerializabilityCase {
  std::array<char, 20> name{};  // NUL-terminated only when shorter
  BackendKind backend{};
  CmPolicy cm{};
  LockTiming lock_timing{};
  // Arms kFaultStormSpec for the whole run: injected commit aborts must
  // never let a non-serializable history commit.
  bool fault_storm = false;

  std::string test_name() const {
    const auto end = std::find(name.begin(), name.end(), '\0');
    return std::string(name.begin(), end) + (fault_storm ? "FaultStorm" : "");
  }
};
static_assert(std::has_unique_object_representations_v<SerializabilityCase>);

SerializabilityCase make_case(std::string_view name, BackendKind backend,
                              CmPolicy cm, LockTiming lock_timing,
                              bool fault_storm = false) {
  SerializabilityCase test_case;
  name.copy(test_case.name.data(), test_case.name.size());
  test_case.backend = backend;
  test_case.cm = cm;
  test_case.lock_timing = lock_timing;
  test_case.fault_storm = fault_storm;
  return test_case;
}

class SerializabilityTest
    : public ::testing::TestWithParam<SerializabilityCase> {
 protected:
  void TearDown() override { fault::disarm(); }
};

TEST_P(SerializabilityTest, CommitOrderReplayMatchesEveryObservation) {
  const SerializabilityCase& test_case = GetParam();
  RuntimeConfig config;
  config.backend = test_case.backend;
  config.cm = test_case.cm;
  config.lock_timing = test_case.lock_timing;
  Runtime rt(config);

  std::unique_ptr<fault::Plan> plan;
  std::unique_ptr<fault::Armed> armed;
  if (test_case.fault_storm) {
    plan = fault::Plan::parse(kFaultStormSpec);
    armed = std::make_unique<fault::Armed>(*plan);
  }

  std::vector<TVar<std::int64_t>> vars(kVars);
  for (auto& var : vars) var.unsafe_write(kInitialValue);

  constexpr int kThreads = 4;
  constexpr int kTxnsPerThread = 1200;
  std::mutex log_mutex;
  std::vector<CommittedTxn> log;
  util::SpinBarrier barrier(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      TxnDesc& ctx = rt.register_thread();
      util::Xoshiro256 rng(7000 + t);
      std::vector<CommittedTxn> local;
      local.reserve(kTxnsPerThread);
      barrier.arrive_and_wait();
      for (int i = 0; i < kTxnsPerThread; ++i) {
        // Plan drawn outside the transaction so retries repeat it.
        const bool read_only = rng.below(3) == 0;
        const int read_count = 1 + static_cast<int>(rng.below(3));
        int read_vars[4];
        for (int r = 0; r < read_count; ++r) {
          read_vars[r] = static_cast<int>(rng.below(kVars));
        }
        const int write_var = static_cast<int>(rng.below(kVars));
        const auto delta = static_cast<std::int64_t>(rng.below(9)) - 4;

        // A quarter of the transactions yield between their reads and
        // their write: on a 1-core host this manufactures exactly the
        // read-then-preempted-then-stale interleavings the checker exists
        // to vet (without it, microsecond transactions rarely overlap).
        const bool yield_mid_txn = rng.below(4) == 0;

        CommittedTxn record;
        atomically(ctx, [&](Txn& tx) {
          record.reads.clear();
          record.writes.clear();
          // Chained sums outgrow int64 over a long run: accumulate with
          // unsigned (defined, wrapping) arithmetic.
          std::uint64_t sum = 0;
          for (int r = 0; r < read_count; ++r) {
            const std::int64_t value =
                vars[static_cast<std::size_t>(read_vars[r])].read(tx);
            record.reads.emplace_back(read_vars[r], value);
            sum += static_cast<std::uint64_t>(value);
          }
          if (yield_mid_txn) std::this_thread::yield();
          if (!read_only) {
            // Value derived from the reads: a stale read produces a wrong
            // write that the replay will catch twice over.
            const auto value = static_cast<std::int64_t>(
                sum + static_cast<std::uint64_t>(delta));
            vars[static_cast<std::size_t>(write_var)].write(tx, value);
            record.writes.emplace_back(write_var, value);
          }
        });
        record.read_only = ctx.last_commit_timestamp() == 0;
        record.serialization_point = record.read_only
                                         ? ctx.last_read_timestamp()
                                         : ctx.last_commit_timestamp();
        local.push_back(std::move(record));
      }
      std::lock_guard lock(log_mutex);
      for (auto& entry : local) log.push_back(std::move(entry));
    });
  }
  for (auto& th : threads) th.join();

  // Split and order the log.
  std::vector<const CommittedTxn*> writers;
  std::vector<const CommittedTxn*> readers;
  for (const auto& entry : log) {
    (entry.read_only ? readers : writers).push_back(&entry);
  }
  std::sort(writers.begin(), writers.end(), [](const auto* a, const auto* b) {
    return a->serialization_point < b->serialization_point;
  });
  // Commit timestamps are unique: one clock tick per writing commit on the
  // orec/tl2 backends, one +2 sequence step per writing commit on
  // NOrec.
  for (std::size_t i = 1; i < writers.size(); ++i) {
    ASSERT_NE(writers[i - 1]->serialization_point,
              writers[i]->serialization_point)
        << "two writers share a commit timestamp";
  }
  std::sort(readers.begin(), readers.end(), [](const auto* a, const auto* b) {
    return a->serialization_point < b->serialization_point;
  });

  // Replay writers in commit order; interleave read-only checks at their
  // read timestamps (a reader with rv = T sees all commits with wv <= T).
  std::int64_t state[kVars];
  for (auto& value : state) value = kInitialValue;
  std::size_t reader_index = 0;
  auto check_readers_up_to = [&](std::uint64_t timestamp) {
    while (reader_index < readers.size() &&
           readers[reader_index]->serialization_point < timestamp) {
      const CommittedTxn* reader = readers[reader_index];
      for (const auto& [var, value] : reader->reads) {
        ASSERT_EQ(value, state[var])
            << "read-only txn at rv=" << reader->serialization_point
            << " observed a non-serializable value for var " << var;
      }
      ++reader_index;
    }
  };

  std::uint64_t violations = 0;
  for (const CommittedTxn* writer : writers) {
    check_readers_up_to(writer->serialization_point);
    for (const auto& [var, value] : writer->reads) {
      if (value != state[var]) ++violations;
      ASSERT_EQ(value, state[var])
          << "writer at wv=" << writer->serialization_point
          << " committed against a stale read of var " << var;
    }
    for (const auto& [var, value] : writer->writes) {
      state[var] = value;
    }
  }
  check_readers_up_to(~std::uint64_t{0});
  EXPECT_EQ(violations, 0u);
  EXPECT_EQ(reader_index, readers.size());

  // The replayed final state must equal actual memory.
  for (int v = 0; v < kVars; ++v) {
    EXPECT_EQ(vars[static_cast<std::size_t>(v)].unsafe_read(), state[v])
        << "final state diverged for var " << v;
  }
  // Sanity: contention actually happened (the checker would be vacuous on
  // a conflict-free run).
  EXPECT_GT(rt.aggregate_stats().total_aborts(), 0u)
      << "test produced no conflicts; tighten the variable count";
  if (test_case.fault_storm) {
    EXPECT_GT(rt.aggregate_stats()
                  .aborts[static_cast<std::size_t>(AbortCause::kFaultInjected)],
              0u)
        << "the armed fault plan never fired; the variant is vacuous";
  }
}

// NOrec ignores cm/lock-timing (no per-stripe locks), so one norec entry
// per orthogonal axis of interest suffices; the orec engine runs the full
// 2×2 matrix it always has.
INSTANTIATE_TEST_SUITE_P(
    Matrix, SerializabilityTest,
    ::testing::Values(
        make_case("TimidEncounterOrec", BackendKind::kOrecSwiss,
                  CmPolicy::kTimidBackoff, LockTiming::kEncounterTime),
        make_case("TimidCommitTimeOrec", BackendKind::kOrecSwiss,
                  CmPolicy::kTimidBackoff, LockTiming::kCommitTime),
        make_case("GreedyEncounterOrec", BackendKind::kOrecSwiss,
                  CmPolicy::kGreedyTimestamp, LockTiming::kEncounterTime),
        make_case("GreedyCommitTimeOrec", BackendKind::kOrecSwiss,
                  CmPolicy::kGreedyTimestamp, LockTiming::kCommitTime),
        make_case("Norec", BackendKind::kNorec, CmPolicy::kTimidBackoff,
                  LockTiming::kEncounterTime),
        // TL2 ignores cm/lock-timing (commit-time only): one entry, plus
        // the fault-storm variant below, replay-verifies the whole protocol
        // end-to-end.
        make_case("Tl2", BackendKind::kTl2, CmPolicy::kTimidBackoff,
                  LockTiming::kEncounterTime),
        make_case("TimidEncounterOrec", BackendKind::kOrecSwiss,
                  CmPolicy::kTimidBackoff, LockTiming::kEncounterTime,
                  /*fault_storm=*/true),
        make_case("Norec", BackendKind::kNorec, CmPolicy::kTimidBackoff,
                  LockTiming::kEncounterTime, /*fault_storm=*/true),
        make_case("Tl2", BackendKind::kTl2, CmPolicy::kTimidBackoff,
                  LockTiming::kEncounterTime, /*fault_storm=*/true)),
    [](const auto& param_info) { return param_info.param.test_name(); });

}  // namespace
}  // namespace rubic::stm
