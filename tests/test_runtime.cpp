// Tests for the malleable runtime: Algorithm 1 gating semantics, counter
// accounting, monitor feedback wiring, and the end-to-end TunedProcess.
#include <gtest/gtest.h>

#include <pthread.h>
#include <sched.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <optional>
#include <string>
#include <thread>

#include "src/control/ebs.hpp"
#include "src/control/fixed.hpp"
#include "src/control/rubic.hpp"
#include "src/ipc/colocation_bus.hpp"
#include "src/runtime/malleable_pool.hpp"
#include "src/runtime/monitor.hpp"
#include "src/runtime/process.hpp"
#include "src/workloads/intruder/intruder_workload.hpp"
#include "src/workloads/rbset_workload.hpp"

namespace rubic::runtime {
namespace {

using namespace std::chrono_literals;

// A trivial workload whose tasks are instantaneous; lets the pool tests
// observe gating without STM noise.
class NopWorkload final : public workloads::Workload {
 public:
  std::string_view name() const override { return "nop"; }
  void run_task(stm::TxnDesc&, util::Xoshiro256&) override {
    tasks_.fetch_add(1, std::memory_order_relaxed);
    // Tiny pause so a gated worker cannot complete unbounded tasks between
    // two level changes on a single-core host.
    std::this_thread::yield();
  }
  bool verify(std::string*) override { return true; }
  std::uint64_t tasks() const { return tasks_.load(); }

 private:
  std::atomic<std::uint64_t> tasks_{0};
};

// Waits until `pred` holds or ~2s elapse; returns pred().
template <typename Pred>
bool eventually(Pred&& pred) {
  for (int i = 0; i < 2000; ++i) {
    if (pred()) return true;
    std::this_thread::sleep_for(1ms);
  }
  return pred();
}

TEST(MalleablePool, StartsAtInitialLevelWithRestBlocked) {
  stm::Runtime rt;
  NopWorkload workload;
  MalleablePool pool(rt, workload, PoolConfig{.pool_size = 6, .initial_level = 1});
  EXPECT_EQ(pool.level(), 1);
  // Workers 1..5 park on their semaphores (Alg. 1 lines 8-10).
  EXPECT_TRUE(eventually([&] { return pool.blocked_workers() == 5; }));
  EXPECT_TRUE(eventually([&] { return pool.total_completed() > 0; }))
      << "worker 0 must be running tasks";
}

TEST(MalleablePool, OnlyActiveWorkersCompleteTasks) {
  stm::Runtime rt;
  NopWorkload workload;
  MalleablePool pool(rt, workload, PoolConfig{.pool_size = 4, .initial_level = 2});
  EXPECT_TRUE(eventually([&] { return pool.blocked_workers() == 2; }));
  std::this_thread::sleep_for(50ms);
  const auto counters = pool.per_worker_completed();
  EXPECT_GT(counters[0], 0u);
  EXPECT_GT(counters[1], 0u);
  EXPECT_EQ(counters[2], 0u) << "tid 2 >= level 2 must never run";
  EXPECT_EQ(counters[3], 0u);
}

TEST(MalleablePool, RaisingLevelWakesExactlyTheNewWorkers) {
  stm::Runtime rt;
  NopWorkload workload;
  MalleablePool pool(rt, workload,
                     PoolConfig{.pool_size = 4, .initial_level = 1});
  ASSERT_TRUE(eventually([&] { return pool.blocked_workers() == 3; }));
  pool.set_level(3);
  EXPECT_TRUE(eventually([&] { return pool.blocked_workers() == 1; }));
  std::this_thread::sleep_for(30ms);
  const auto counters = pool.per_worker_completed();
  EXPECT_GT(counters[1], 0u);
  EXPECT_GT(counters[2], 0u);
  EXPECT_EQ(counters[3], 0u) << "tid 3 was not part of the raise";
}

TEST(MalleablePool, LoweringLevelParksSurplusWorkers) {
  stm::Runtime rt;
  NopWorkload workload;
  MalleablePool pool(rt, workload, PoolConfig{.pool_size = 4, .initial_level = 4});
  ASSERT_TRUE(eventually([&] { return pool.total_completed() > 0; }));
  pool.set_level(1);
  EXPECT_TRUE(eventually([&] { return pool.blocked_workers() == 3; }));
  // Frozen workers stop accumulating.
  const auto before = pool.per_worker_completed();
  std::this_thread::sleep_for(30ms);
  const auto after = pool.per_worker_completed();
  for (int tid = 1; tid < 4; ++tid) {
    EXPECT_EQ(before[static_cast<std::size_t>(tid)],
              after[static_cast<std::size_t>(tid)])
        << "parked worker " << tid << " kept running";
  }
  EXPECT_GT(after[0], before[0]) << "worker 0 must keep running";
}

TEST(MalleablePool, LevelClampedToPool) {
  stm::Runtime rt;
  NopWorkload workload;
  MalleablePool pool(rt, workload, PoolConfig{.pool_size = 3, .initial_level = 1});
  pool.set_level(100);
  EXPECT_EQ(pool.level(), 3);
  pool.set_level(-5);
  EXPECT_EQ(pool.level(), 1);
}

TEST(MalleablePool, RepeatedResizeCyclesAreLossless) {
  stm::Runtime rt;
  NopWorkload workload;
  MalleablePool pool(rt, workload, PoolConfig{.pool_size = 8, .initial_level = 1});
  for (int cycle = 0; cycle < 50; ++cycle) {
    pool.set_level(1 + cycle % 8);
    std::this_thread::sleep_for(1ms);
  }
  pool.set_level(8);
  const auto before = pool.total_completed();
  EXPECT_TRUE(eventually([&] { return pool.total_completed() > before; }));
  pool.stop();  // must join cleanly with no stuck worker
  SUCCEED();
}

TEST(MalleablePool, StopWhileMostlyParkedJoins) {
  stm::Runtime rt;
  NopWorkload workload;
  auto pool = std::make_unique<MalleablePool>(
      rt, workload, PoolConfig{.pool_size = 16, .initial_level = 1});
  ASSERT_TRUE(eventually([&] { return pool->blocked_workers() == 15; }));
  pool.reset();  // destructor path: must not hang
  SUCCEED();
}

// Counts the tasks it starts; each busy-spins ~2 ms of wall time.
class SpinWorkload final : public workloads::Workload {
 public:
  std::string_view name() const override { return "spin"; }
  void run_task(stm::TxnDesc&, util::Xoshiro256&) override {
    started_.fetch_add(1, std::memory_order_relaxed);
    const auto until = std::chrono::steady_clock::now() + 2ms;
    while (std::chrono::steady_clock::now() < until) continue;
  }
  bool verify(std::string*) override { return true; }
  std::uint64_t started() const {
    return started_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<std::uint64_t> started_{0};
};

TEST(MalleablePool, RealtimeQuiescerDoesNotStarveAWorkerOnItsCpu) {
  // The monitor raises itself to SCHED_RR and calls run_quiesced for a
  // backend switch. If the quiescer waited by yielding, a worker preempted
  // mid-task on the same CPU would never get it back before the kernel's RT
  // throttling (~1 s). Pinning the quiescer and a 1-worker pool to one CPU
  // makes that interleaving certain.
  cpu_set_t allowed;
  ASSERT_EQ(sched_getaffinity(0, sizeof allowed, &allowed), 0);
  int cpu = 0;
  while (!CPU_ISSET(cpu, &allowed)) ++cpu;
  bool realtime = false;
  std::chrono::nanoseconds quiesce{0};
  std::thread helper([&] {
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpu, &one);
    ASSERT_EQ(pthread_setaffinity_np(pthread_self(), sizeof one, &one), 0);
    stm::Runtime rt;
    SpinWorkload workload;  // the worker inherits the one-CPU mask
    MalleablePool pool(rt, workload,
                       PoolConfig{.pool_size = 1, .initial_level = 1});
    while (workload.started() == 0) std::this_thread::sleep_for(1ms);
    // Waking preempts the worker, almost surely inside its 2 ms spin.
    std::this_thread::sleep_for(1ms);
    sched_param rr{};
    rr.sched_priority = 1;
    realtime = pthread_setschedparam(pthread_self(), SCHED_RR, &rr) == 0;
    if (realtime) {
      const auto start = std::chrono::steady_clock::now();
      pool.run_quiesced([] {});
      quiesce = std::chrono::steady_clock::now() - start;
      const sched_param normal{};
      pthread_setschedparam(pthread_self(), SCHED_OTHER, &normal);
    }
    pool.stop();
  });
  helper.join();
  if (!realtime) GTEST_SKIP() << "SCHED_RR refused (needs CAP_SYS_NICE)";
  EXPECT_LT(quiesce, 200ms);
}

// Models a worker preempted between the pool's quiesce fence and its own
// read of the workload's release epoch (the open-loop service's arrival
// wait): the first task reads the epoch only 5 ms in, then waits for the
// next wake_waiters(), bounded at 5 s. Later tasks return at once.
class LateWaiterWorkload final : public workloads::Workload {
 public:
  std::string_view name() const override { return "late-waiter"; }
  void run_task(stm::TxnDesc&, util::Xoshiro256&) override {
    if (started_.fetch_add(1, std::memory_order_release) != 0) {
      std::this_thread::yield();
      return;
    }
    std::this_thread::sleep_for(5ms);
    const std::uint64_t epoch = epoch_.load(std::memory_order_acquire);
    const auto deadline = std::chrono::steady_clock::now() + 5s;
    while (epoch_.load(std::memory_order_acquire) == epoch &&
           std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(50us);
    }
  }
  void wake_waiters() noexcept override {
    epoch_.fetch_add(1, std::memory_order_acq_rel);
  }
  bool verify(std::string*) override { return true; }
  std::uint64_t started() const {
    return started_.load(std::memory_order_acquire);
  }

 private:
  std::atomic<std::uint64_t> started_{0};
  std::atomic<std::uint64_t> epoch_{0};
};

TEST(MalleablePool, RunQuiescedReleasesAWorkerThatWaitsAfterTheFirstRelease) {
  stm::Runtime rt;
  LateWaiterWorkload workload;
  MalleablePool pool(rt, workload,
                     PoolConfig{.pool_size = 1, .initial_level = 1});
  while (workload.started() == 0) std::this_thread::yield();
  // The worker is inside its 5 ms delay: the release run_quiesced sends
  // first lands before the worker starts waiting.
  const auto start = std::chrono::steady_clock::now();
  pool.run_quiesced([] {});
  EXPECT_LT(std::chrono::steady_clock::now() - start, 1s);
  pool.stop();
}

// Controller with a pre-scripted level schedule; records every throughput
// sample the monitor feeds it. Makes the monitor test deterministic (real
// throughput on a 1-core CI host is a noisy plateau).
class ScriptedController final : public control::Controller {
 public:
  explicit ScriptedController(std::vector<int> schedule)
      : schedule_(std::move(schedule)) {}
  int initial_level() const override { return 1; }
  int on_sample(double throughput) override {
    samples_.push_back(throughput);
    const auto i = std::min(index_++, schedule_.size() - 1);
    return schedule_[i];
  }
  void reset() override { index_ = 0; }
  std::string_view name() const override { return "Scripted"; }
  const std::vector<double>& samples() const { return samples_; }

 private:
  std::vector<int> schedule_;
  std::size_t index_ = 0;
  std::vector<double> samples_;
};

TEST(Monitor, DrivesControllerAndAppliesLevels) {
  stm::Runtime rt;
  NopWorkload workload;
  MalleablePool pool(rt, workload, PoolConfig{.pool_size = 16, .initial_level = 4});
  ScriptedController controller({2, 7, 16, 3});
  MonitorConfig mcfg;
  mcfg.period = 5ms;
  Monitor monitor(pool, controller, mcfg);
  // Constructor applies initial_level() before the first sample.
  EXPECT_TRUE(eventually([&] { return pool.level() == 1 || monitor.rounds() > 0; }));
  // The scripted schedule must be applied round by round, ending at 3.
  EXPECT_TRUE(eventually([&] { return monitor.rounds() >= 6; }));
  monitor.stop();
  EXPECT_EQ(pool.level(), 3);
  const auto& trace = monitor.trace();
  ASSERT_GE(trace.size(), 4u);
  EXPECT_EQ(trace[0].level, 2);
  EXPECT_EQ(trace[1].level, 7);
  EXPECT_EQ(trace[2].level, 16);
  EXPECT_EQ(trace[3].level, 3);
  // Every sample is a non-negative rate, and the worker pool demonstrably
  // produced work during the run.
  for (double s : controller.samples()) EXPECT_GE(s, 0.0);
  EXPECT_GT(pool.total_completed(), 0u);
  // Timestamps are monotone.
  for (std::size_t i = 1; i < trace.size(); ++i) {
    EXPECT_GT(trace[i].elapsed, trace[i - 1].elapsed);
  }
}

TEST(Monitor, FixedControllerHoldsLevel) {
  stm::Runtime rt;
  NopWorkload workload;
  MalleablePool pool(rt, workload, PoolConfig{.pool_size = 8, .initial_level = 1});
  control::FixedController controller(control::LevelBounds{1, 8}, 5, "Fixed");
  MonitorConfig mcfg;
  mcfg.period = 5ms;
  Monitor monitor(pool, controller, mcfg);
  EXPECT_TRUE(eventually([&] { return pool.level() == 5; }));
  std::this_thread::sleep_for(30ms);
  EXPECT_EQ(pool.level(), 5);
  monitor.stop();
}

TEST(Monitor, StopIsIdempotentAndDestructorSafe) {
  stm::Runtime rt;
  NopWorkload workload;
  MalleablePool pool(rt, workload,
                     PoolConfig{.pool_size = 4, .initial_level = 1});
  control::FixedController controller(control::LevelBounds{1, 4}, 2, "Fixed");
  MonitorConfig mcfg;
  mcfg.period = 5ms;
  {
    Monitor monitor(pool, controller, mcfg);
    EXPECT_TRUE(eventually([&] { return monitor.rounds() > 0; }));
    // Contract (monitor.hpp): stop() may be called any number of times,
    // from several threads at once, and the destructor may follow an
    // explicit stop. Each call returns only after the thread is joined.
    std::thread concurrent([&] { monitor.stop(); });
    monitor.stop();
    concurrent.join();
    monitor.stop();
    const std::uint64_t rounds = monitor.rounds();
    std::this_thread::sleep_for(20ms);
    EXPECT_EQ(monitor.rounds(), rounds) << "loop must not run after stop()";
  }  // destructor after explicit stop: must not deadlock or double-join
}

TEST(Monitor, PublishesRoundsToCoLocationBus) {
  const std::string bus_name =
      "/rubic-test-monitor-" + std::to_string(::getpid());
  ipc::BusConfig bus_config;
  bus_config.name = bus_name;
  bus_config.contexts = 8;
  auto bus = ipc::CoLocationBus::create_or_attach(bus_config);
  ASSERT_GE(bus->acquire_slot("nop/fixed"), 0);

  stm::Runtime rt;
  NopWorkload workload;
  MalleablePool pool(rt, workload,
                     PoolConfig{.pool_size = 4, .initial_level = 1});
  control::FixedController controller(control::LevelBounds{1, 4}, 3, "Fixed");
  MonitorConfig mcfg;
  mcfg.period = 5ms;
  mcfg.stm_runtime = &rt;
  mcfg.bus = bus.get();
  Monitor monitor(pool, controller, mcfg);
  EXPECT_TRUE(eventually([&] { return monitor.rounds() >= 3; }));
  monitor.stop();

  const auto peers = bus->snapshot();
  ASSERT_EQ(peers.size(), 1u);
  EXPECT_EQ(peers[0].state, ipc::PeerState::kAlive);
  EXPECT_GE(peers[0].payload.heartbeat, 3u);
  EXPECT_EQ(peers[0].payload.level, 3);
  EXPECT_GT(peers[0].payload.tasks_completed, 0u);

  bus.reset();
  ipc::CoLocationBus::unlink(bus_name);
}

TEST(Monitor, LatestIsTheLastRoundRecordAndSafeToReadLive) {
  constexpr std::uint64_t kRounds = 12;
  stm::Runtime rt;
  workloads::RbSetWorkload workload(rt, workloads::RbSetParams::tiny());
  MalleablePool pool(rt, workload,
                     PoolConfig{.pool_size = 4, .initial_level = 1});
  control::RubicController controller(control::LevelBounds{1, 4});
  MonitorConfig mcfg;
  mcfg.period = 2ms;
  mcfg.raise_priority = false;
  mcfg.max_rounds = kRounds;
  mcfg.stm_runtime = &rt;
  Monitor monitor(pool, controller, mcfg);
  // The /status endpoint's shape: another thread reads while the loop runs.
  std::atomic<bool> done{false};
  std::thread reader([&] {
    std::uint64_t last_round = 0;
    while (!done.load(std::memory_order_acquire)) {
      if (const std::optional<RoundRecord> record = monitor.latest()) {
        EXPECT_GE(record->decision.round, last_round);
        last_round = record->decision.round;
      }
    }
  });
  EXPECT_TRUE(eventually([&] { return monitor.rounds() >= kRounds; }));
  monitor.stop();
  done.store(true, std::memory_order_release);
  reader.join();

  const std::optional<RoundRecord> latest = monitor.latest();
  ASSERT_TRUE(latest.has_value());
  EXPECT_EQ(latest->decision.round, kRounds - 1);
  EXPECT_EQ(latest->decision.next, pool.level());
  ASSERT_EQ(monitor.trace().size(), kRounds);
  EXPECT_EQ(latest->throughput, monitor.trace().back().throughput);
  EXPECT_EQ(latest->decision.input, latest->throughput);
  EXPECT_GT(latest->commits, 0u);
  EXPECT_GT(latest->commit_ratio, 0.0);
  EXPECT_LE(latest->commit_ratio, 1.0);
  EXPECT_EQ(latest->backend, static_cast<int>(rt.backend()));
  const control::DecisionInfo phase = controller.decision_info();
  ASSERT_TRUE(latest->phase.valid);
  EXPECT_EQ(latest->phase.phase_name, phase.phase_name);
  if (!latest->decision.overrun) {
    EXPECT_EQ(latest->decision.phase_name, phase.phase_name);
  }
  pool.stop();
}

TEST(TunedProcess, EndToEndRbSetWithRubic) {
  stm::Runtime rt;
  workloads::RbSetParams params = workloads::RbSetParams::tiny();
  workloads::RbSetWorkload workload(rt, params);
  control::RubicController controller(control::LevelBounds{1, 8});
  ProcessConfig cfg;
  cfg.pool.pool_size = 8;
  cfg.monitor.period = 5ms;
  TunedProcess process(rt, workload, controller, cfg);
  const RunReport report = process.run_for(300ms);

  EXPECT_GT(report.tasks_completed, 100u) << "the process must make progress";
  EXPECT_GT(report.tasks_per_second, 0.0);
  EXPECT_GE(report.final_level, 1);
  EXPECT_LE(report.final_level, 8);
  EXPECT_FALSE(report.trace.empty());
  EXPECT_GE(report.mean_level, 1.0);
  EXPECT_GT(report.stm_stats.commits, 0u);
  std::string error;
  EXPECT_TRUE(workload.verify(&error)) << error;
}

TEST(TunedProcess, MeanLevelDoesNotNeedTheTrace) {
  stm::Runtime rt;
  NopWorkload workload;
  control::FixedController controller(control::LevelBounds{1, 4}, 3, "Fixed");
  ProcessConfig cfg;
  cfg.pool.pool_size = 4;
  cfg.monitor.period = 5ms;
  cfg.monitor.record_trace = false;
  TunedProcess process(rt, workload, controller, cfg);
  const RunReport report = process.run_for(100ms);
  EXPECT_TRUE(report.trace.empty());
  ASSERT_GT(report.monitor_rounds, 0u);
  EXPECT_DOUBLE_EQ(report.mean_level, 3.0);
}

TEST(TunedProcess, RunToCompletionReportsMakespan) {
  // Finite Intruder (exactly one epoch): run_to_completion must stop when
  // every packet has been processed, well before the timeout, and the
  // results must match ground truth exactly.
  stm::Runtime rt;
  workloads::intruder::StreamParams params;
  params.flow_count = 400;
  workloads::intruder::IntruderWorkload workload(rt, params,
                                                 /*epochs_limit=*/1);
  control::RubicController controller(control::LevelBounds{1, 4});
  ProcessConfig cfg;
  cfg.pool.pool_size = 4;
  cfg.monitor.period = 5ms;
  TunedProcess process(rt, workload, controller, cfg);
  bool completed = false;
  const RunReport report = process.run_to_completion(10s, &completed);
  EXPECT_TRUE(completed) << "one tiny epoch must finish within 10s";
  EXPECT_LT(report.seconds, 9.0);
  EXPECT_TRUE(workload.done());
  EXPECT_EQ(workload.flows_completed(), params.flow_count);
  EXPECT_EQ(workload.attacks_found(), workload.stream().attack_flow_count());
  std::string error;
  EXPECT_TRUE(workload.verify(&error)) << error;
}

TEST(TunedProcess, RunToCompletionTimesOutOnStreamingWorkload) {
  stm::Runtime rt;
  workloads::RbSetParams params = workloads::RbSetParams::tiny();
  workloads::RbSetWorkload workload(rt, params);  // never done()
  control::RubicController controller(control::LevelBounds{1, 2});
  ProcessConfig cfg;
  cfg.pool.pool_size = 2;
  cfg.monitor.period = 5ms;
  TunedProcess process(rt, workload, controller, cfg);
  bool completed = true;
  const RunReport report = process.run_to_completion(100ms, &completed);
  EXPECT_FALSE(completed);
  EXPECT_GE(report.seconds, 0.1);
}

TEST(TunedProcess, VerifiableUnderAggressiveResizing) {
  // Force violent level swings while transactions run; the workload's
  // invariants must survive (workers are parked only between tasks, never
  // mid-transaction).
  stm::Runtime rt;
  workloads::RbSetParams params = workloads::RbSetParams::tiny();
  workloads::RbSetWorkload workload(rt, params);
  MalleablePool pool(rt, workload, PoolConfig{.pool_size = 8, .initial_level = 8});
  for (int i = 0; i < 100; ++i) {
    pool.set_level(i % 2 == 0 ? 1 : 8);
    std::this_thread::sleep_for(1ms);
  }
  pool.stop();
  std::string error;
  EXPECT_TRUE(workload.verify(&error)) << error;
}

}  // namespace
}  // namespace rubic::runtime
