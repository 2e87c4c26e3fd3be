// Chaos suite for the deterministic fault-injection layer (src/fault/).
//
// Every test arms a seeded FaultPlan against the hook points threaded
// through the stack — monitor tick, controller output, worker loop,
// co-location bus, STM commit — and asserts the graceful-degradation
// contracts: the applied level never leaves [1, pool_size], the monitor
// never deadlocks, the report is still produced, and two runs under the
// same seed observe the byte-identical fault schedule (and, with every
// nondeterministic input scripted, byte-identical monitor traces).
#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "src/control/contention.hpp"
#include "src/control/factory.hpp"
#include "src/control/fixed.hpp"
#include "src/control/guard.hpp"
#include "src/fault/fault.hpp"
#include "src/ipc/colocation_bus.hpp"
#include "src/runtime/malleable_pool.hpp"
#include "src/runtime/monitor.hpp"
#include "src/runtime/process.hpp"
#include "src/stm/stm.hpp"
#include "src/telemetry/audit.hpp"
#include "src/workloads/rbset_workload.hpp"

namespace rubic {
namespace {

using namespace std::chrono_literals;
using std::chrono::milliseconds;
using std::chrono::steady_clock;

// Every test must leave the process disarmed even when an assertion fails
// mid-body; gtest keeps running the remaining tests in the same process.
class FaultInjectionTest : public ::testing::Test {
 protected:
  void TearDown() override { fault::disarm(); }
};

using PlanTest = FaultInjectionTest;
using GuardTest = FaultInjectionTest;
using MonitorChaosTest = FaultInjectionTest;
using PoolChaosTest = FaultInjectionTest;
using BusChaosTest = FaultInjectionTest;
using StmChaosTest = FaultInjectionTest;
using EndToEndChaosTest = FaultInjectionTest;

template <typename Pred>
bool eventually(Pred&& pred, milliseconds limit = 10s) {
  const auto deadline = steady_clock::now() + limit;
  while (steady_clock::now() < deadline) {
    if (pred()) return true;
    std::this_thread::sleep_for(1ms);
  }
  return pred();
}

std::uint64_t bits_of(double v) {
  std::uint64_t out;
  std::memcpy(&out, &v, sizeof(out));
  return out;
}

// A trivial workload with instantaneous tasks (no STM traffic).
class NopWorkload final : public workloads::Workload {
 public:
  std::string_view name() const override { return "nop"; }
  void run_task(stm::TxnDesc&, util::Xoshiro256&) override {
    std::this_thread::yield();
  }
  bool verify(std::string*) override { return true; }
};

// Records what actually reaches the policy behind the guard.
class CountingController final : public control::Controller {
 public:
  explicit CountingController(int level) : level_(level) {}
  int initial_level() const override { return level_; }
  int on_sample(double throughput) override {
    samples_.push_back(throughput);
    return level_;
  }
  void reset() override { samples_.clear(); }
  std::string_view name() const override { return "Counting"; }
  const std::vector<double>& samples() const { return samples_; }

 private:
  int level_;
  std::vector<double> samples_;
};

class ThrowingController final : public control::Controller {
 public:
  // Throws from the N-th on_sample onwards (0 = always).
  explicit ThrowingController(int good_calls, int good_level = 5)
      : good_calls_(good_calls), good_level_(good_level) {}
  int initial_level() const override {
    if (good_calls_ == 0) throw std::runtime_error("no initial level either");
    return good_level_;
  }
  int on_sample(double) override {
    if (++calls_ > good_calls_) throw std::runtime_error("policy blew up");
    return good_level_;
  }
  void reset() override { throw std::runtime_error("reset blew up"); }
  std::string_view name() const override { return "Throwing"; }

 private:
  int good_calls_;
  int good_level_;
  int calls_ = 0;
};

// ---------------------------------------------------------------------------
// FaultPlan core: parsing, scheduling, determinism, the disarmed fast path.

TEST_F(PlanTest, ParseEmptyAndSeedOnly) {
  EXPECT_EQ(fault::Plan::parse("")->seed(), 0u);
  EXPECT_EQ(fault::Plan::parse("seed=42")->seed(), 42u);
  // Seed position is irrelevant (two-pass parse).
  EXPECT_EQ(fault::Plan::parse("stm_conflict:prob=1;seed=9")->seed(), 9u);
}

TEST_F(PlanTest, ParseFullRuleAndSpecialValues) {
  auto plan = fault::Plan::parse(
      "seed=3;monitor_stall:ms=25,from=2,until=10,every=4,prob=1");
  // Hits 0,1 are before the window; 2, 6, 10 fire; 14 is past it.
  std::vector<bool> fired;
  for (int i = 0; i < 15; ++i) {
    fired.push_back(bool(plan->fire(fault::Site::kMonitorStall)));
  }
  for (int i = 0; i < 15; ++i) {
    EXPECT_EQ(fired[static_cast<std::size_t>(i)], i == 2 || i == 6 || i == 10)
        << "hit " << i;
  }
  EXPECT_EQ(plan->hits(fault::Site::kMonitorStall), 15u);
  EXPECT_EQ(plan->fires(fault::Site::kMonitorStall), 3u);
  const auto log = plan->log();
  ASSERT_EQ(log.size(), 3u);
  EXPECT_EQ(log[0].hit, 2u);
  EXPECT_EQ(log[1].hit, 6u);
  EXPECT_EQ(log[2].hit, 10u);
  EXPECT_EQ(log[0].value, 25.0);

  const auto nan_fire =
      fault::Plan::parse("sample_corrupt:value=nan")
          ->fire(fault::Site::kMonitorSampleCorrupt);
  ASSERT_TRUE(bool(nan_fire));
  EXPECT_TRUE(std::isnan(nan_fire.value));
  const auto inf_fire =
      fault::Plan::parse("sample_corrupt:value=-inf")
          ->fire(fault::Site::kMonitorSampleCorrupt);
  ASSERT_TRUE(bool(inf_fire));
  EXPECT_EQ(inf_fire.value, -std::numeric_limits<double>::infinity());
}

TEST_F(PlanTest, ParseRejectsMalformedSpecs) {
  EXPECT_THROW(fault::Plan::parse("bogus_site"), std::invalid_argument);
  EXPECT_THROW(fault::Plan::parse("monitor_stall:wat=1"),
               std::invalid_argument);
  EXPECT_THROW(fault::Plan::parse("monitor_stall:prob=1.5"),
               std::invalid_argument);
  EXPECT_THROW(fault::Plan::parse("monitor_stall:ms=abc"),
               std::invalid_argument);
  EXPECT_THROW(fault::Plan::parse("monitor_stall:from=5,until=2"),
               std::invalid_argument);
  EXPECT_THROW(fault::Plan::parse("monitor_stall:every=0"),
               std::invalid_argument);
  EXPECT_THROW(fault::Plan::parse("monitor_stall:from="),
               std::invalid_argument);
}

TEST_F(PlanTest, SameSeedSameSchedule) {
  const std::string spec =
      "seed=1234;stm_conflict:prob=0.5;worker_stall:us=100,seeded,prob=0.7";
  auto a = fault::Plan::parse(spec);
  auto b = fault::Plan::parse(spec);
  for (int i = 0; i < 256; ++i) {
    a->fire(fault::Site::kStmForceConflict);
    a->fire(fault::Site::kWorkerStall);
    b->fire(fault::Site::kStmForceConflict);
    b->fire(fault::Site::kWorkerStall);
  }
  // Probabilistic rules actually discriminate (neither all-fire nor none).
  EXPECT_GT(a->fires(fault::Site::kStmForceConflict), 0u);
  EXPECT_LT(a->fires(fault::Site::kStmForceConflict), 256u);
  // The determinism contract: identical logs, entry for entry.
  EXPECT_EQ(a->log(), b->log());

  // A different seed yields a different schedule (256 independent draws;
  // a collision across all of them is beyond astronomically unlikely).
  auto c = fault::Plan::parse("seed=99;stm_conflict:prob=0.5;"
                              "worker_stall:us=100,seeded,prob=0.7");
  for (int i = 0; i < 256; ++i) {
    c->fire(fault::Site::kStmForceConflict);
    c->fire(fault::Site::kWorkerStall);
  }
  EXPECT_NE(a->log(), c->log());
}

TEST_F(PlanTest, SeededValuesStayInRange) {
  auto plan = fault::Plan::parse("seed=5;worker_stall:us=100,seeded");
  bool varied = false;
  double first = -1.0;
  for (int i = 0; i < 64; ++i) {
    const auto f = plan->fire(fault::Site::kWorkerStall);
    ASSERT_TRUE(bool(f));
    EXPECT_GE(f.value, 0.0);
    EXPECT_LT(f.value, 100.0);
    if (i == 0) first = f.value;
    if (f.value != first) varied = true;
  }
  EXPECT_TRUE(varied);
}

TEST_F(PlanTest, DisarmedProbeIsInertAndArmedIsScoped) {
  ASSERT_EQ(fault::armed(), nullptr);
  EXPECT_FALSE(bool(fault::probe(fault::Site::kStmForceConflict)));
  auto plan = fault::Plan::parse("stm_conflict:prob=1");
  {
    fault::Armed armed(*plan);
    EXPECT_EQ(fault::armed(), plan.get());
    EXPECT_TRUE(bool(fault::probe(fault::Site::kStmForceConflict)));
  }
  EXPECT_EQ(fault::armed(), nullptr);
  EXPECT_FALSE(bool(fault::probe(fault::Site::kStmForceConflict)));
  // The disarmed probe never touched the plan's counters.
  EXPECT_EQ(plan->hits(fault::Site::kStmForceConflict), 1u);
}

// ---------------------------------------------------------------------------
// ControllerGuard: clamping, absorption, garbage injection. (Satellite: the
// guard holds [1, max] for EVERY registered policy under hostile inputs.)

control::PolicyConfig guard_policy_config() {
  control::PolicyConfig config;
  config.contexts = 8;
  config.pool_size = 16;
  config.allocator = std::make_shared<control::CentralAllocator>(8);
  return config;
}

TEST_F(GuardTest, EveryKnownPolicyStaysInBoundsUnderHostileInputs) {
  const double hostile[] = {std::numeric_limits<double>::quiet_NaN(),
                            std::numeric_limits<double>::infinity(),
                            -std::numeric_limits<double>::infinity(),
                            -5.0,
                            1e300,
                            0.0,
                            1e6,
                            123.0};
  for (std::string_view policy : control::known_policies()) {
    SCOPED_TRACE(std::string(policy));
    control::ControllerGuard guard(
        control::make_controller(policy, guard_policy_config()),
        control::LevelBounds{1, 16});
    const int initial = guard.initial_level();
    EXPECT_GE(initial, 1);
    EXPECT_LE(initial, 16);
    for (int round = 0; round < 8; ++round) {
      for (double sample : hostile) {
        const int level = guard.on_sample(sample);
        EXPECT_GE(level, 1) << "sample " << sample;
        EXPECT_LE(level, 16) << "sample " << sample;
        EXPECT_EQ(level, guard.level());
      }
      if (guard.consumes_contention()) {
        for (double ratio : {std::numeric_limits<double>::quiet_NaN(), -5.0,
                             2.0, 0.5}) {
          const int level = guard.on_commit_ratio(ratio);
          EXPECT_GE(level, 1) << "ratio " << ratio;
          EXPECT_LE(level, 16) << "ratio " << ratio;
        }
      }
    }
    guard.reset();
    EXPECT_GE(guard.level(), 1);
    EXPECT_LE(guard.level(), 16);
    EXPECT_GT(guard.sanitized_inputs(), 0u);
  }
}

TEST_F(GuardTest, AbsorbsThrowingPolicyAndHoldsLastGoodLevel) {
  ThrowingController inner(/*good_calls=*/2, /*good_level=*/5);
  control::ControllerGuard guard(inner, control::LevelBounds{1, 8});
  EXPECT_EQ(guard.on_sample(100.0), 5);
  EXPECT_EQ(guard.on_sample(100.0), 5);
  // From here on every call throws; the guard answers 5 and keeps going.
  for (int i = 0; i < 4; ++i) EXPECT_EQ(guard.on_sample(100.0), 5);
  EXPECT_EQ(guard.absorbed_exceptions(), 4u);
  // reset() throws too; the guard swallows it and re-derives the level.
  guard.reset();
  EXPECT_GE(guard.level(), 1);
}

TEST_F(GuardTest, FloorsPolicyWhoseInitialLevelThrows) {
  ThrowingController inner(/*good_calls=*/0);
  control::ControllerGuard guard(inner, control::LevelBounds{1, 8});
  EXPECT_EQ(guard.initial_level(), 1);
  EXPECT_EQ(guard.level(), 1);
}

TEST_F(GuardTest, InjectedGarbageAndThrowsNeverEscapeTheBounds) {
  auto plan = fault::Plan::parse(
      "seed=11;controller_garbage:level=inf,every=3;controller_throw:from=1,"
      "every=5");
  fault::Armed armed(*plan);
  CountingController inner(3);
  control::ControllerGuard guard(inner, control::LevelBounds{1, 8});
  for (int i = 0; i < 30; ++i) {
    const int level = guard.on_sample(50.0);
    EXPECT_GE(level, 1);
    EXPECT_LE(level, 8);
  }
  EXPECT_GT(guard.clamped_outputs(), 0u);   // inf garbage was clamped
  EXPECT_GT(guard.absorbed_exceptions(), 0u);
  EXPECT_GT(plan->fires(fault::Site::kControllerGarbage), 0u);
  EXPECT_GT(plan->fires(fault::Site::kControllerThrow), 0u);
}

// ---------------------------------------------------------------------------
// Monitor: sample sanitization, overrun skip, stall tolerance, determinism.

runtime::MonitorConfig chaos_monitor_config(std::uint64_t max_rounds) {
  runtime::MonitorConfig config;
  config.period = 2ms;
  config.raise_priority = false;
  config.max_rounds = max_rounds;
  return config;
}

TEST_F(MonitorChaosTest, SanitizesCorruptSamplesToZero) {
  auto plan = fault::Plan::parse("sample_corrupt:value=nan,every=1");
  fault::Armed armed(*plan);
  stm::Runtime rt;
  NopWorkload workload;
  runtime::MalleablePool pool(
      rt, workload, runtime::PoolConfig{.pool_size = 2, .initial_level = 1});
  CountingController controller(1);
  runtime::Monitor monitor(pool, controller, chaos_monitor_config(6));
  ASSERT_TRUE(eventually([&] { return monitor.rounds() >= 6; }));
  monitor.stop();
  EXPECT_EQ(monitor.sanitized_samples(), monitor.rounds());
  for (const auto& sample : monitor.trace()) {
    EXPECT_EQ(sample.throughput, 0.0);  // NaN never reaches the trace
    EXPECT_GE(sample.level, 1);
    EXPECT_LE(sample.level, 2);
  }
  // The policy saw the clamped 0.0, not the NaN.
  for (double s : controller.samples()) EXPECT_EQ(s, 0.0);
}

TEST_F(MonitorChaosTest, StalledRoundsAreSkippedNotFedToThePolicy) {
  // Every round stalls 25 ms against a 2 ms period (overrun_factor 8 →
  // 16 ms threshold): the measured duration flags each round as an overrun,
  // so the policy is never consulted and the level holds.
  auto plan = fault::Plan::parse("monitor_stall:ms=25,every=1");
  fault::Armed armed(*plan);
  stm::Runtime rt;
  NopWorkload workload;
  runtime::MalleablePool pool(
      rt, workload, runtime::PoolConfig{.pool_size = 4, .initial_level = 2});
  CountingController controller(2);
  runtime::Monitor monitor(pool, controller, chaos_monitor_config(4));
  ASSERT_TRUE(eventually([&] { return monitor.rounds() >= 4; }));
  monitor.stop();  // must return promptly despite the injected stalls
  EXPECT_EQ(monitor.overrun_rounds(), monitor.rounds());
  EXPECT_TRUE(controller.samples().empty());
  EXPECT_EQ(pool.level(), 2);
}

TEST_F(MonitorChaosTest, ScriptedClockJumpCountsAsOverrun) {
  // The round claims half a second; real time stays at the 2 ms period.
  auto plan = fault::Plan::parse("clock_jump:ns=500000000,every=1");
  fault::Armed armed(*plan);
  stm::Runtime rt;
  NopWorkload workload;
  runtime::MalleablePool pool(
      rt, workload, runtime::PoolConfig{.pool_size = 2, .initial_level = 1});
  CountingController controller(1);
  runtime::Monitor monitor(pool, controller, chaos_monitor_config(3));
  ASSERT_TRUE(eventually([&] { return monitor.rounds() >= 3; }));
  monitor.stop();
  EXPECT_EQ(monitor.overrun_rounds(), 3u);
  // Trace time is the accumulated scripted durations, exactly.
  ASSERT_EQ(monitor.trace().size(), 3u);
  EXPECT_EQ(monitor.trace()[2].elapsed, std::chrono::nanoseconds(1500000000));
}

std::vector<runtime::MonitorSample> run_scripted_monitor(
    const std::string& spec) {
  auto plan = fault::Plan::parse(spec);
  stm::Runtime rt;
  NopWorkload workload;
  runtime::MalleablePool pool(
      rt, workload, runtime::PoolConfig{.pool_size = 4, .initial_level = 1});
  auto controller = control::make_controller("rubic", guard_policy_config());
  fault::Armed armed(*plan);
  runtime::Monitor monitor(pool, *controller, chaos_monitor_config(8));
  EXPECT_TRUE(eventually([&] { return monitor.rounds() >= 8; }));
  monitor.stop();
  return monitor.trace();
}

TEST_F(MonitorChaosTest, SameSeedSameTrace) {
  // With every round's duration and throughput sample scripted by the plan
  // (5 ms claimed rounds, seeded-but-deterministic throughput), the whole
  // trace is a pure function of the fault seed: two runs must match bit
  // for bit, across elapsed time, throughput and chosen level.
  const std::string spec =
      "seed=77;clock_jump:ns=5000000,every=1;"
      "sample_corrupt:value=1000,seeded,every=1";
  const auto first = run_scripted_monitor(spec);
  const auto second = run_scripted_monitor(spec);
  ASSERT_EQ(first.size(), 8u);
  ASSERT_EQ(second.size(), 8u);
  for (std::size_t i = 0; i < first.size(); ++i) {
    EXPECT_EQ(first[i].elapsed.count(), second[i].elapsed.count()) << i;
    EXPECT_EQ(bits_of(first[i].throughput), bits_of(second[i].throughput))
        << i;
    EXPECT_EQ(first[i].level, second[i].level) << i;
  }
  // And a different seed yields different scripted samples.
  const auto other = run_scripted_monitor(
      "seed=78;clock_jump:ns=5000000,every=1;"
      "sample_corrupt:value=1000,seeded,every=1");
  bool any_difference = false;
  for (std::size_t i = 0; i < other.size(); ++i) {
    if (bits_of(other[i].throughput) != bits_of(first[i].throughput)) {
      any_difference = true;
    }
  }
  EXPECT_TRUE(any_difference);
}

// The audit stream tools/rubic_replay consumes, for fully scripted rounds
// (as above) with an STM runtime wired: under "rubic" (no backend
// sub-record) and under "adaptive" (12 rounds reach its first online
// switch, at round 8), then "adaptive" again with an overrun round 2 and a
// sanitized round 5. The expected bytes were written by the monitor before
// it built one RoundRecord per round, so that refactor provably left replay
// input byte-identical.
constexpr const char* kScriptedRounds =
    "seed=77;clock_jump:ns=5000000,every=1;"
    "sample_corrupt:value=1000,seeded,every=1";
constexpr const char* kScriptedStorm =
    "seed=77;clock_jump:ns=500000000,from=2,until=2;"
    "clock_jump:ns=5000000,every=1;sample_corrupt:value=nan,from=5,until=5;"
    "sample_corrupt:value=1000,seeded,every=1";

constexpr const char* kScriptedRubicAudit = R"json(
{"schema":"rubic-audit/v1","policy":"rubic","min_level":1,"max_level":4,"contexts":8,"pool":16,"aimd_alpha":0.5,"processes":1,"seed":77,"stm_backend":"orec_swiss"}
{"round":0,"prev":1,"next":2,"kind":"throughput","input":526.94881052609355,"overrun":false,"sanitized":false,"phase":{"id":2,"name":"linear/linear","aux":1}}
{"round":1,"prev":2,"next":1,"kind":"throughput","input":21.064553156163402,"overrun":false,"sanitized":false,"phase":{"id":3,"name":"linear/multiplicative","aux":1}}
{"round":2,"prev":1,"next":2,"kind":"throughput","input":944.61429597562869,"overrun":false,"sanitized":false,"phase":{"id":1,"name":"cubic/multiplicative","aux":1}}
{"round":3,"prev":2,"next":2,"kind":"throughput","input":937.67177779467045,"overrun":false,"sanitized":false,"phase":{"id":2,"name":"linear/linear","aux":2}}
{"round":4,"prev":2,"next":3,"kind":"throughput","input":790.17500797504886,"overrun":false,"sanitized":false,"phase":{"id":0,"name":"cubic/linear","aux":2}}
{"round":5,"prev":3,"next":1,"kind":"throughput","input":285.21538011199323,"overrun":false,"sanitized":false,"phase":{"id":3,"name":"linear/multiplicative","aux":2}}
{"round":6,"prev":1,"next":2,"kind":"throughput","input":541.91463278343247,"overrun":false,"sanitized":false,"phase":{"id":1,"name":"cubic/multiplicative","aux":2}}
{"round":7,"prev":2,"next":2,"kind":"throughput","input":439.05162144689393,"overrun":false,"sanitized":false,"phase":{"id":2,"name":"linear/linear","aux":2}}
{"round":8,"prev":2,"next":3,"kind":"throughput","input":516.61163931430224,"overrun":false,"sanitized":false,"phase":{"id":0,"name":"cubic/linear","aux":2}}
{"round":9,"prev":3,"next":1,"kind":"throughput","input":473.17376492409159,"overrun":false,"sanitized":false,"phase":{"id":3,"name":"linear/multiplicative","aux":2}}
{"round":10,"prev":1,"next":2,"kind":"throughput","input":369.30769855921329,"overrun":false,"sanitized":false,"phase":{"id":1,"name":"cubic/multiplicative","aux":2}}
{"round":11,"prev":2,"next":3,"kind":"throughput","input":382.06112136531476,"overrun":false,"sanitized":false,"phase":{"id":2,"name":"linear/linear","aux":2}}
)json";

constexpr const char* kScriptedAdaptiveAudit = R"json(
{"schema":"rubic-audit/v1","policy":"adaptive","min_level":1,"max_level":4,"contexts":8,"pool":16,"aimd_alpha":0.5,"processes":1,"seed":77,"stm_backend":"orec_swiss"}
{"round":0,"prev":1,"next":2,"kind":"throughput","input":526.94881052609355,"overrun":false,"sanitized":false,"phase":{"id":2,"name":"linear/linear","aux":1},"backend":{"name":"orec_swiss","switched":false,"throughput":526.94881052609355,"abort_rate":0,"commit_lat_ns":0}}
{"round":1,"prev":2,"next":1,"kind":"throughput","input":21.064553156163402,"overrun":false,"sanitized":false,"phase":{"id":3,"name":"linear/multiplicative","aux":1},"backend":{"name":"orec_swiss","switched":false,"throughput":21.064553156163402,"abort_rate":0,"commit_lat_ns":0}}
{"round":2,"prev":1,"next":2,"kind":"throughput","input":944.61429597562869,"overrun":false,"sanitized":false,"phase":{"id":1,"name":"cubic/multiplicative","aux":1},"backend":{"name":"orec_swiss","switched":false,"throughput":944.61429597562869,"abort_rate":0,"commit_lat_ns":0}}
{"round":3,"prev":2,"next":2,"kind":"throughput","input":937.67177779467045,"overrun":false,"sanitized":false,"phase":{"id":2,"name":"linear/linear","aux":2},"backend":{"name":"orec_swiss","switched":false,"throughput":937.67177779467045,"abort_rate":0,"commit_lat_ns":0}}
{"round":4,"prev":2,"next":3,"kind":"throughput","input":790.17500797504886,"overrun":false,"sanitized":false,"phase":{"id":0,"name":"cubic/linear","aux":2},"backend":{"name":"orec_swiss","switched":false,"throughput":790.17500797504886,"abort_rate":0,"commit_lat_ns":0}}
{"round":5,"prev":3,"next":1,"kind":"throughput","input":285.21538011199323,"overrun":false,"sanitized":false,"phase":{"id":3,"name":"linear/multiplicative","aux":2},"backend":{"name":"orec_swiss","switched":false,"throughput":285.21538011199323,"abort_rate":0,"commit_lat_ns":0}}
{"round":6,"prev":1,"next":2,"kind":"throughput","input":541.91463278343247,"overrun":false,"sanitized":false,"phase":{"id":1,"name":"cubic/multiplicative","aux":2},"backend":{"name":"orec_swiss","switched":false,"throughput":541.91463278343247,"abort_rate":0,"commit_lat_ns":0}}
{"round":7,"prev":2,"next":2,"kind":"throughput","input":439.05162144689393,"overrun":false,"sanitized":false,"phase":{"id":2,"name":"linear/linear","aux":2},"backend":{"name":"orec_swiss","switched":false,"throughput":439.05162144689393,"abort_rate":0,"commit_lat_ns":0}}
{"round":8,"prev":2,"next":3,"kind":"throughput","input":516.61163931430224,"overrun":false,"sanitized":false,"phase":{"id":0,"name":"cubic/linear","aux":2},"backend":{"name":"norec","switched":true,"throughput":516.61163931430224,"abort_rate":0,"commit_lat_ns":0}}
{"round":9,"prev":3,"next":1,"kind":"throughput","input":473.17376492409159,"overrun":false,"sanitized":false,"phase":{"id":3,"name":"linear/multiplicative","aux":2},"backend":{"name":"norec","switched":false,"throughput":473.17376492409159,"abort_rate":0,"commit_lat_ns":0}}
{"round":10,"prev":1,"next":2,"kind":"throughput","input":369.30769855921329,"overrun":false,"sanitized":false,"phase":{"id":1,"name":"cubic/multiplicative","aux":2},"backend":{"name":"norec","switched":false,"throughput":369.30769855921329,"abort_rate":0,"commit_lat_ns":0}}
{"round":11,"prev":2,"next":3,"kind":"throughput","input":382.06112136531476,"overrun":false,"sanitized":false,"phase":{"id":2,"name":"linear/linear","aux":2},"backend":{"name":"norec","switched":false,"throughput":382.06112136531476,"abort_rate":0,"commit_lat_ns":0}}
)json";

constexpr const char* kScriptedStormAudit = R"json(
{"schema":"rubic-audit/v1","policy":"adaptive","min_level":1,"max_level":4,"contexts":8,"pool":16,"aimd_alpha":0.5,"processes":1,"seed":77,"stm_backend":"orec_swiss"}
{"round":0,"prev":1,"next":2,"kind":"throughput","input":526.94881052609355,"overrun":false,"sanitized":false,"phase":{"id":2,"name":"linear/linear","aux":1},"backend":{"name":"orec_swiss","switched":false,"throughput":526.94881052609355,"abort_rate":0,"commit_lat_ns":0}}
{"round":1,"prev":2,"next":1,"kind":"throughput","input":21.064553156163402,"overrun":false,"sanitized":false,"phase":{"id":3,"name":"linear/multiplicative","aux":1},"backend":{"name":"orec_swiss","switched":false,"throughput":21.064553156163402,"abort_rate":0,"commit_lat_ns":0}}
{"round":2,"prev":1,"next":1,"kind":"throughput","input":944.61429597562869,"overrun":true,"sanitized":false,"phase":null}
{"round":3,"prev":1,"next":2,"kind":"throughput","input":937.67177779467045,"overrun":false,"sanitized":false,"phase":{"id":1,"name":"cubic/multiplicative","aux":1},"backend":{"name":"orec_swiss","switched":false,"throughput":937.67177779467045,"abort_rate":0,"commit_lat_ns":0}}
{"round":4,"prev":2,"next":2,"kind":"throughput","input":790.17500797504886,"overrun":false,"sanitized":false,"phase":{"id":2,"name":"linear/linear","aux":2},"backend":{"name":"orec_swiss","switched":false,"throughput":790.17500797504886,"abort_rate":0,"commit_lat_ns":0}}
{"round":5,"prev":2,"next":3,"kind":"throughput","input":0,"overrun":false,"sanitized":true,"phase":{"id":0,"name":"cubic/linear","aux":2},"backend":{"name":"orec_swiss","switched":false,"throughput":0,"abort_rate":0,"commit_lat_ns":0}}
{"round":6,"prev":3,"next":4,"kind":"throughput","input":541.91463278343247,"overrun":false,"sanitized":false,"phase":{"id":2,"name":"linear/linear","aux":2},"backend":{"name":"orec_swiss","switched":false,"throughput":541.91463278343247,"abort_rate":0,"commit_lat_ns":0}}
{"round":7,"prev":4,"next":2,"kind":"throughput","input":439.05162144689393,"overrun":false,"sanitized":false,"phase":{"id":3,"name":"linear/multiplicative","aux":2},"backend":{"name":"orec_swiss","switched":false,"throughput":439.05162144689393,"abort_rate":0,"commit_lat_ns":0}}
{"round":8,"prev":2,"next":3,"kind":"throughput","input":516.61163931430224,"overrun":false,"sanitized":false,"phase":{"id":1,"name":"cubic/multiplicative","aux":2},"backend":{"name":"orec_swiss","switched":false,"throughput":516.61163931430224,"abort_rate":0,"commit_lat_ns":0}}
{"round":9,"prev":3,"next":2,"kind":"throughput","input":473.17376492409159,"overrun":false,"sanitized":false,"phase":{"id":2,"name":"linear/linear","aux":3},"backend":{"name":"norec","switched":true,"throughput":473.17376492409159,"abort_rate":0,"commit_lat_ns":0}}
{"round":10,"prev":2,"next":3,"kind":"throughput","input":369.30769855921329,"overrun":false,"sanitized":false,"phase":{"id":0,"name":"cubic/linear","aux":3},"backend":{"name":"norec","switched":false,"throughput":369.30769855921329,"abort_rate":0,"commit_lat_ns":0}}
{"round":11,"prev":3,"next":4,"kind":"throughput","input":382.06112136531476,"overrun":false,"sanitized":false,"phase":{"id":2,"name":"linear/linear","aux":3},"backend":{"name":"norec","switched":false,"throughput":382.06112136531476,"abort_rate":0,"commit_lat_ns":0}}
)json";

std::string scripted_audit_jsonl(const std::string& policy, const char* spec) {
  auto plan = fault::Plan::parse(spec);
  stm::RuntimeConfig stm_config;
  stm_config.backend = stm::BackendKind::kOrecSwiss;
  stm::Runtime rt(stm_config);
  NopWorkload workload;
  runtime::MalleablePool pool(
      rt, workload, runtime::PoolConfig{.pool_size = 4, .initial_level = 1});
  control::PolicyConfig policy_config = guard_policy_config();
  policy_config.initial_backend = "orec_swiss";
  auto controller = control::make_controller(policy, policy_config);
  telemetry::AuditMeta meta;
  meta.policy = policy;
  meta.max_level = 4;
  meta.contexts = policy_config.contexts;
  meta.pool = policy_config.pool_size;
  meta.seed = 77;
  meta.stm_backend = "orec_swiss";
  telemetry::AuditLog audit(meta);
  fault::Armed armed(*plan);
  runtime::MonitorConfig config = chaos_monitor_config(12);
  config.stm_runtime = &rt;
  config.audit = &audit;
  runtime::Monitor monitor(pool, *controller, config);
  EXPECT_TRUE(eventually([&] { return monitor.rounds() >= 12; }));
  monitor.stop();
  return telemetry::to_jsonl(audit);
}

TEST_F(MonitorChaosTest, ScriptedAuditBytesArePinned) {
  // Each expected string opens with a newline to keep its first line short.
  EXPECT_EQ("\n" + scripted_audit_jsonl("rubic", kScriptedRounds),
            kScriptedRubicAudit);
  EXPECT_EQ("\n" + scripted_audit_jsonl("adaptive", kScriptedRounds),
            kScriptedAdaptiveAudit);
  EXPECT_EQ("\n" + scripted_audit_jsonl("adaptive", kScriptedStorm),
            kScriptedStormAudit);
}

// ---------------------------------------------------------------------------
// MalleablePool: injected worker preemption windows.

TEST_F(PoolChaosTest, WorkersKeepProgressingThroughStallWindows) {
  auto plan = fault::Plan::parse("seed=2;worker_stall:us=100,seeded,every=2");
  fault::Armed armed(*plan);
  stm::Runtime rt;
  NopWorkload workload;
  runtime::MalleablePool pool(
      rt, workload, runtime::PoolConfig{.pool_size = 4, .initial_level = 4});
  ASSERT_TRUE(eventually([&] { return pool.total_completed() > 1000; }));
  EXPECT_GT(plan->fires(fault::Site::kWorkerStall), 0u);
  const std::uint64_t before = pool.total_completed();
  ASSERT_TRUE(eventually([&] { return pool.total_completed() > before; }));
  pool.stop();  // a stalled worker must still notice the stop promptly
}

// ---------------------------------------------------------------------------
// Co-location bus: acquisition failure, heartbeat suppression, payload
// corruption — and the readers' plausibility screen.

std::string unique_bus_name(const char* tag) {
  static std::atomic<int> counter{0};
  return "/rubic-chaos-" + std::string(tag) + "-" +
         std::to_string(static_cast<int>(getpid())) + "-" +
         std::to_string(counter.fetch_add(1));
}

struct Unlinker {
  std::string name;
  ~Unlinker() { ipc::CoLocationBus::unlink(name); }
};

ipc::BusConfig chaos_bus_config(const std::string& name) {
  ipc::BusConfig config;
  config.name = name;
  config.contexts = 8;
  config.max_slots = 4;
  return config;
}

TEST_F(BusChaosTest, PayloadPlausibilityScreen) {
  ipc::SlotPayload p;
  EXPECT_TRUE(ipc::payload_plausible(p));
  auto corrupted = [&](auto&& mutate) {
    ipc::SlotPayload q;
    mutate(q);
    return ipc::payload_plausible(q);
  };
  EXPECT_FALSE(corrupted([](ipc::SlotPayload& q) {
    q.commit_ratio = std::numeric_limits<double>::quiet_NaN();
  }));
  EXPECT_FALSE(corrupted([](ipc::SlotPayload& q) { q.commit_ratio = 1.5; }));
  EXPECT_FALSE(corrupted([](ipc::SlotPayload& q) {
    q.throughput = -std::numeric_limits<double>::infinity();
  }));
  EXPECT_FALSE(corrupted([](ipc::SlotPayload& q) { q.level = -1; }));
  EXPECT_FALSE(corrupted([](ipc::SlotPayload& q) { q.level = 1 << 21; }));
  EXPECT_FALSE(corrupted([](ipc::SlotPayload& q) { q.tasks_per_second = -1.0; }));
  EXPECT_FALSE(corrupted([](ipc::SlotPayload& q) { q.done = 7; }));
  EXPECT_FALSE(corrupted([](ipc::SlotPayload& q) {
    for (char& c : q.label) c = 'X';  // no NUL terminator
  }));
}

TEST_F(BusChaosTest, AcquireFailureWindowThenRecovery) {
  const std::string name = unique_bus_name("acquire");
  Unlinker cleanup{name};
  auto bus = ipc::CoLocationBus::create_or_attach(chaos_bus_config(name));
  auto plan = fault::Plan::parse("bus_acquire_fail:until=2");
  fault::Armed armed(*plan);
  // Three acquisition attempts fail inside the fault window…
  EXPECT_EQ(bus->acquire_slot("me"), -1);
  EXPECT_EQ(bus->acquire_slot("me"), -1);
  EXPECT_EQ(bus->acquire_slot("me"), -1);
  EXPECT_FALSE(bus->has_slot());
  // …and the fourth (past the window) succeeds — the capped-backoff retry
  // loop in rubic_colocate rides exactly this recovery.
  EXPECT_GE(bus->acquire_slot("me"), 0);
  EXPECT_TRUE(bus->has_slot());
}

TEST_F(BusChaosTest, SuppressedHeartbeatsGoStaleThenRecover) {
  const std::string name = unique_bus_name("suppress");
  Unlinker cleanup{name};
  auto bus = ipc::CoLocationBus::create_or_attach(chaos_bus_config(name));
  ASSERT_GE(bus->acquire_slot("victim"), 0);
  bus->publish(ipc::SlotSample{.level = 2, .throughput = 10.0});
  const auto before = bus->snapshot();
  ASSERT_EQ(before.size(), 1u);
  const std::uint64_t hb0 = before[0].payload.heartbeat;

  {
    auto plan = fault::Plan::parse("bus_suppress:every=1");
    fault::Armed armed(*plan);
    for (int i = 0; i < 3; ++i) {
      bus->publish(ipc::SlotSample{.level = 3, .throughput = 20.0});
    }
    EXPECT_EQ(plan->fires(fault::Site::kBusSuppressHeartbeat), 3u);
  }
  // Nothing reached shared memory: readers still see the old beat.
  const auto during = bus->snapshot();
  ASSERT_EQ(during.size(), 1u);
  EXPECT_EQ(during[0].payload.heartbeat, hb0);
  EXPECT_EQ(during[0].payload.level, 2);

  // One clean publish recovers the slot completely (the writer-side shadow
  // kept advancing through the suppression window).
  bus->publish(ipc::SlotSample{.level = 3, .throughput = 20.0});
  const auto after = bus->snapshot();
  ASSERT_EQ(after.size(), 1u);
  EXPECT_EQ(after[0].payload.heartbeat, hb0 + 4);
  EXPECT_EQ(after[0].payload.level, 3);
}

TEST_F(BusChaosTest, CorruptPayloadIsRejectedNotPropagated) {
  const std::string name = unique_bus_name("corrupt");
  Unlinker cleanup{name};
  auto bus = ipc::CoLocationBus::create_or_attach(chaos_bus_config(name));
  ASSERT_GE(bus->acquire_slot("scribbler"), 0);
  bus->publish(ipc::SlotSample{.level = 2, .throughput = 10.0});

  {
    auto plan = fault::Plan::parse("bus_corrupt:every=1");
    fault::Armed armed(*plan);
    bus->publish(ipc::SlotSample{.level = 3, .throughput = 20.0});
  }
  const auto peers = bus->snapshot();
  ASSERT_EQ(peers.size(), 1u);
  // The snapshot is flagged unusable, but the peer is NOT declared dead:
  // its pid is alive, so it keeps counting toward EqualShare's N.
  EXPECT_TRUE(peers[0].torn);
  EXPECT_TRUE(peers[0].corrupt);
  EXPECT_EQ(peers[0].state, ipc::PeerState::kAlive);
  EXPECT_EQ(bus->live_count(), 1);

  // The next clean publish restores a readable, plausible payload.
  bus->publish(ipc::SlotSample{.level = 3, .throughput = 20.0});
  const auto after = bus->snapshot();
  ASSERT_EQ(after.size(), 1u);
  EXPECT_FALSE(after[0].torn);
  EXPECT_FALSE(after[0].corrupt);
  EXPECT_EQ(after[0].payload.level, 3);
  EXPECT_STREQ(after[0].payload.label, "scribbler");
}

// ---------------------------------------------------------------------------
// STM: forced conflicts, the retry budget, and lock hygiene after the storm.
// (Satellite: RetriesExhausted after exactly the budgeted attempts, orecs
// left unlocked.)

TEST_F(StmChaosTest, AbortStormExhaustsRetryBudgetExactlyAndReleasesLocks) {
  // The forced-conflict probe sits in the backend-independent commit
  // prologue, so the storm must behave identically on every engine.
  for (const stm::BackendKind backend : stm::known_backends()) {
    stm::RuntimeConfig config;
    config.backend = backend;
    config.max_retries = 3;
    config.backoff_base = 1;  // keep the injected storm fast
    config.backoff_max = 4;
    stm::Runtime rt(config);
    stm::TxnDesc& ctx = rt.register_thread();
    stm::TVar<int> var(7);

    auto plan = fault::Plan::parse("stm_conflict:every=1");
    {
      fault::Armed armed(*plan);
      EXPECT_THROW(stm::atomically(ctx,
                                   [&](stm::Txn& tx) {
                                     var.write(tx, var.read(tx) + 1);
                                   }),
                   stm::RetriesExhausted);
    }
    // Exactly max_retries attempts reached commit, every one was aborted by
    // the injected conflict, none committed.
    EXPECT_EQ(plan->hits(fault::Site::kStmForceConflict), 3u);
    EXPECT_EQ(plan->fires(fault::Site::kStmForceConflict), 3u);
    const auto stats = rt.aggregate_stats();
    EXPECT_EQ(stats.commits, 0u);
    EXPECT_EQ(
        stats.aborts[static_cast<std::size_t>(stm::AbortCause::kFaultInjected)],
        3u);
    EXPECT_EQ(var.unsafe_read(), 7);  // no torn half-commit

    // The rollback released every lock (orecs / the NOrec sequence): a
    // fresh transaction on the same stripe commits first try once the plan
    // is disarmed.
    const int result = stm::atomically(ctx, [&](stm::Txn& tx) {
      var.write(tx, var.read(tx) + 1);
      return var.read(tx);
    });
    EXPECT_EQ(result, 8) << "backend=" << stm::backend_name(backend);
    EXPECT_EQ(rt.aggregate_stats().commits, 1u);
  }
}

TEST_F(StmChaosTest, ProbabilisticConflictInjectionStillMakesProgress) {
  for (const stm::BackendKind backend : stm::known_backends()) {
    stm::RuntimeConfig config;
    config.backend = backend;
    stm::Runtime rt(config);  // unlimited retries
    stm::TxnDesc& ctx = rt.register_thread();
    stm::TVar<int> var(0);
    auto plan = fault::Plan::parse("seed=4;stm_conflict:prob=0.3");
    fault::Armed armed(*plan);
    for (int i = 0; i < 100; ++i) {
      stm::atomically(ctx, [&](stm::Txn& tx) { var.write(tx, i); });
    }
    EXPECT_EQ(var.unsafe_read(), 99) << "backend=" << stm::backend_name(backend);
    const auto stats = rt.aggregate_stats();
    EXPECT_EQ(stats.commits, 100u);
    EXPECT_GT(
        stats.aborts[static_cast<std::size_t>(stm::AbortCause::kFaultInjected)],
        0u);
  }
}

// ---------------------------------------------------------------------------
// End to end: a TunedProcess survives a multi-fault storm and still
// produces a coherent report.

TEST_F(EndToEndChaosTest, TunedProcessSurvivesMultiFaultStorm) {
  auto plan = fault::Plan::parse(
      "seed=13;"
      "monitor_stall:ms=1,prob=0.2;"
      "sample_corrupt:value=nan,prob=0.3;"
      "controller_garbage:level=inf,prob=0.2;"
      "controller_throw:prob=0.1;"
      "worker_stall:us=200,seeded,prob=0.05;"
      "stm_conflict:prob=0.02");
  fault::Armed armed(*plan);

  stm::Runtime rt;
  workloads::RbSetParams params;
  params.initial_size = 1024;
  workloads::RbSetWorkload workload(rt, params);
  auto controller = control::make_controller("rubic", guard_policy_config());
  runtime::ProcessConfig config;
  config.pool = runtime::PoolConfig{.pool_size = 4, .initial_level = 2};
  config.monitor.period = 2ms;
  config.monitor.raise_priority = false;
  config.monitor.stm_runtime = &rt;
  runtime::TunedProcess process(rt, workload, *controller, config);
  const auto report = process.run_for(300ms);

  // The run completed and the report is coherent despite the storm.
  EXPECT_GT(report.monitor_rounds, 0u);
  EXPECT_GT(report.tasks_completed, 0u);
  EXPECT_GT(report.stm_stats.commits, 0u);
  EXPECT_GE(report.final_level, 1);
  EXPECT_LE(report.final_level, 4);
  for (const auto& sample : report.trace) {
    EXPECT_GE(sample.level, 1);
    EXPECT_LE(sample.level, 4);
    EXPECT_TRUE(std::isfinite(sample.throughput));
    EXPECT_GE(sample.throughput, 0.0);
  }
  // The storm actually happened…
  EXPECT_GT(plan->fires(fault::Site::kStmForceConflict), 0u);
  // …and the tree survived it intact.
  std::string error;
  EXPECT_TRUE(workload.verify(&error)) << error;
}

}  // namespace
}  // namespace rubic
