// Online STM backend adaptation: the AdaptiveController's deterministic
// explore-then-commit schedule, the ControllerGuard's BackendAdapter
// defenses, MalleablePool::run_quiesced + Runtime::try_set_backend
// quiescence semantics, the monitor's end-to-end switch path (trace event,
// telemetry label flip, bus field), and the acceptance property: an
// adaptive-controller audit log containing at least one online switch
// replays byte-identically through telemetry::replay_audit.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "src/control/adaptive.hpp"
#include "src/control/backend_adapter.hpp"
#include "src/control/factory.hpp"
#include "src/control/fixed.hpp"
#include "src/control/guard.hpp"
#include "src/fault/fault.hpp"
#include "src/runtime/malleable_pool.hpp"
#include "src/runtime/monitor.hpp"
#include "src/stm/stm.hpp"
#include "src/telemetry/audit.hpp"
#include "src/telemetry/telemetry.hpp"

namespace rubic {
namespace {

using namespace std::chrono_literals;
using control::AdaptiveController;
using control::BackendSignal;

// --- candidate-universe sync ------------------------------------------------

// The control library cannot link the STM (stm -> telemetry -> control), so
// default_backend_candidates() duplicates stm::known_backends() by hand.
// This test is the sync contract: it fails the moment an engine is added to
// one list but not the other.
TEST(BackendCandidates, MatchDefaultListToStmRegistry) {
  const std::vector<std::string> candidates =
      control::default_backend_candidates();
  const std::vector<stm::BackendKind> kinds = stm::known_backends();
  ASSERT_EQ(candidates.size(), kinds.size());
  for (std::size_t i = 0; i < kinds.size(); ++i) {
    EXPECT_EQ(candidates[i], std::string(stm::backend_name(kinds[i])))
        << "candidate list diverged from stm::known_backends() at " << i;
    // The monitor publishes static_cast<int>(kind) as the bus backend
    // index; the enum must stay aligned with the display order.
    EXPECT_EQ(static_cast<std::size_t>(kinds[i]), i);
  }
}

// --- the adaptive schedule, driven synthetically ---------------------------

std::unique_ptr<AdaptiveController> make_adaptive(int initial = 0) {
  return std::make_unique<AdaptiveController>(
      std::make_unique<control::FixedController>(control::LevelBounds{1, 8}, 4,
                                                 "Fixed"),
      control::default_backend_candidates(), initial);
}

BackendSignal tput(double t) {
  BackendSignal s;
  s.throughput = t;
  return s;
}

TEST(AdaptiveSchedule, WarmsUpProbesEveryCandidateThenCommitsToArgmax) {
  auto adaptive = make_adaptive(/*initial=*/1);
  const int n = static_cast<int>(adaptive->candidates().size());
  ASSERT_EQ(n, 3);

  // Warmup: the initial backend holds.
  for (int i = 0; i < AdaptiveController::kWarmupRounds; ++i) {
    EXPECT_EQ(adaptive->desired_backend(), 1) << "round " << i;
    adaptive->on_backend_signal(tput(100.0));
  }
  // Probe phase: each candidate in list order, skip rounds then scored
  // rounds; candidate 2 gets the highest throughput.
  const double scores[] = {50.0, 80.0, 120.0};
  std::vector<int> visited;
  for (int c = 0; c < n; ++c) {
    visited.push_back(adaptive->desired_backend());
    for (int r = 0;
         r < AdaptiveController::kProbeSkip + AdaptiveController::kProbeRounds;
         ++r) {
      EXPECT_EQ(adaptive->desired_backend(), c);
      adaptive->on_backend_signal(tput(scores[c]));
    }
  }
  EXPECT_EQ(visited, (std::vector<int>{0, 1, 2}))
      << "probe must visit every candidate in order";
  EXPECT_EQ(adaptive->desired_backend(), 2) << "argmax candidate must win";
}

TEST(AdaptiveSchedule, SustainedDegradationTriggersReprobe) {
  auto adaptive = make_adaptive();
  // Fast-forward through warmup + probing; every candidate scores 100.
  const int probe_len =
      AdaptiveController::kProbeSkip + AdaptiveController::kProbeRounds;
  const int to_commit =
      AdaptiveController::kWarmupRounds +
      probe_len * static_cast<int>(adaptive->candidates().size());
  for (int i = 0; i < to_commit; ++i) adaptive->on_backend_signal(tput(100.0));
  const int committed = adaptive->desired_backend();

  // A transient dip shorter than kDegradeRounds must not re-trigger.
  for (int i = 0; i < AdaptiveController::kDegradeRounds - 1; ++i) {
    adaptive->on_backend_signal(tput(10.0));
  }
  adaptive->on_backend_signal(tput(100.0));
  EXPECT_EQ(adaptive->desired_backend(), committed);

  // A sustained collapse below kRetriggerFraction × committed score does.
  for (int i = 0; i < AdaptiveController::kDegradeRounds; ++i) {
    adaptive->on_backend_signal(tput(10.0));
  }
  EXPECT_EQ(adaptive->desired_backend(), 0)
      << "re-probe must restart from candidate 0";
}

TEST(AdaptiveSchedule, ResetRestoresTheInitialBackend) {
  auto adaptive = make_adaptive(/*initial=*/2);
  for (int i = 0; i < 40; ++i) adaptive->on_backend_signal(tput(100.0));
  adaptive->reset();
  EXPECT_EQ(adaptive->desired_backend(), 2);
}

// --- factory forms ---------------------------------------------------------

TEST(AdaptiveFactory, BuildsPlainAndPrefixedFormsRejectsNesting) {
  control::PolicyConfig config;
  config.contexts = 8;
  const auto plain = control::make_controller("adaptive", config);
  EXPECT_EQ(plain->name(), "adaptive:RUBIC");
  const auto wrapped = control::make_controller("adaptive:ebs", config);
  EXPECT_EQ(wrapped->name(), "adaptive:EBS");
  EXPECT_THROW((void)control::make_controller("adaptive:adaptive", config),
               std::invalid_argument);
  EXPECT_THROW((void)control::make_controller("adaptive:adaptive:ebs", config),
               std::invalid_argument);
  EXPECT_THROW((void)control::make_controller("adaptive:bogus", config),
               std::invalid_argument);

  EXPECT_TRUE(control::policy_known("adaptive"));
  EXPECT_TRUE(control::policy_known("adaptive:ebs"));
  EXPECT_TRUE(control::policy_known("rubic"));
  EXPECT_FALSE(control::policy_known("adaptive:adaptive"));
  EXPECT_FALSE(control::policy_known("adaptive:bogus"));
  EXPECT_FALSE(control::policy_known("bogus"));
}

TEST(AdaptiveFactory, InitialBackendSeedsTheStartIndex) {
  control::PolicyConfig config;
  config.contexts = 8;
  config.initial_backend = "tl2";
  const auto controller = control::make_controller("adaptive", config);
  auto* adapter = dynamic_cast<control::BackendAdapter*>(controller.get());
  ASSERT_NE(adapter, nullptr);
  EXPECT_EQ(adapter->desired_backend(), 2);
  EXPECT_EQ(adapter->candidates()[2], "tl2");

  // An initial backend outside the candidate universe falls back to 0.
  config.initial_backend = "no_such_engine";
  const auto fallback = control::make_controller("adaptive", config);
  EXPECT_EQ(dynamic_cast<control::BackendAdapter*>(fallback.get())
                ->desired_backend(),
            0);
}

// --- guard defenses --------------------------------------------------------

// A hostile adapter: throws on every Nth signal and answers out-of-range
// indexes in between.
class EvilAdapter final : public control::Controller,
                          public control::BackendAdapter {
 public:
  int initial_level() const override { return 1; }
  int on_sample(double) override { return 1; }
  void reset() override {}
  std::string_view name() const override { return "Evil"; }
  void on_backend_signal(const BackendSignal&) override {
    if (++calls_ % 2 == 0) throw std::runtime_error("boom");
  }
  int desired_backend() const override { return calls_ % 3 == 0 ? -7 : 99; }
  const std::vector<std::string>& candidates() const override {
    return candidates_;
  }

 private:
  mutable int calls_ = 0;
  std::vector<std::string> candidates_ =
      control::default_backend_candidates();
};

TEST(AdapterGuard, DiscoversAdaptersAndAbsorbsHostility) {
  control::PolicyConfig config;
  config.contexts = 8;
  const auto plain = control::make_controller("rubic", config);
  control::ControllerGuard plain_guard(*plain, control::LevelBounds{1, 8});
  EXPECT_FALSE(plain_guard.adapts_backend());
  EXPECT_EQ(plain_guard.backend_candidates(), nullptr);

  EvilAdapter evil;
  control::ControllerGuard guard(evil, control::LevelBounds{1, 8});
  ASSERT_TRUE(guard.adapts_backend());
  const int count = static_cast<int>(guard.backend_candidates()->size());
  for (int i = 0; i < 20; ++i) {
    const int desired = guard.on_backend_signal(tput(100.0));
    EXPECT_GE(desired, 0);
    EXPECT_LT(desired, count) << "guard must clamp out-of-range answers";
  }
  EXPECT_GT(guard.absorbed_exceptions(), 0u);
}

// --- quiescence ------------------------------------------------------------

// A workload whose every task is a real transaction, so a mid-task backend
// switch would be a protocol violation (caught by try_set_backend).
class TxnWorkload final : public workloads::Workload {
 public:
  explicit TxnWorkload(stm::Runtime&) {}
  std::string_view name() const override { return "txn"; }
  void run_task(stm::TxnDesc& ctx, util::Xoshiro256& rng) override {
    stm::atomically(ctx, [&](stm::Txn& tx) {
      const std::size_t i = rng.below(kVars);
      const auto v = vars_[i].read(tx);
      vars_[i].write(tx, v + 1);
    });
    std::this_thread::yield();
  }
  bool verify(std::string*) override { return true; }
  std::int64_t total() {
    std::int64_t sum = 0;
    for (auto& var : vars_) sum += var.unsafe_read();
    return sum;
  }

 private:
  static constexpr std::size_t kVars = 4;
  stm::TVar<std::int64_t> vars_[kVars];
};

template <typename Pred>
bool eventually(Pred&& pred, int budget_ms = 5000) {
  for (int i = 0; i < budget_ms; ++i) {
    if (pred()) return true;
    std::this_thread::sleep_for(1ms);
  }
  return pred();
}

TEST(QuiescentSwitch, RunQuiescedSwitchesUnderLiveLoad) {
  stm::RuntimeConfig config;
  config.backend = stm::BackendKind::kOrecSwiss;
  stm::Runtime rt(config);
  TxnWorkload workload(rt);
  runtime::MalleablePool pool(rt, workload,
                              runtime::PoolConfig{.pool_size = 4,
                                                  .initial_level = 4});
  ASSERT_TRUE(eventually([&] { return pool.total_completed() > 100; }));

  // Walk the runtime through every engine while the pool hammers it.
  for (const stm::BackendKind kind :
       {stm::BackendKind::kNorec, stm::BackendKind::kTl2,
        stm::BackendKind::kOrecSwiss}) {
    bool switched = false;
    pool.run_quiesced([&] { switched = rt.try_set_backend(kind); });
    EXPECT_TRUE(switched) << "quiesced pool must allow the switch";
    EXPECT_EQ(rt.backend(), kind);
    const std::uint64_t before = pool.total_completed();
    EXPECT_TRUE(eventually([&] { return pool.total_completed() > before; }))
        << "pool must resume after the switch";
  }
  pool.stop();
  // Every increment survived three protocol changes.
  EXPECT_EQ(workload.total(),
            static_cast<std::int64_t>(pool.total_completed()));
}

TEST(QuiescentSwitch, TrySetBackendRefusesWhileAForeignTxnIsActive) {
  stm::Runtime rt;
  stm::TxnDesc& ctx = rt.register_thread();
  ctx.begin(true);
  EXPECT_FALSE(rt.try_set_backend(stm::BackendKind::kNorec))
      << "an in-flight transaction must veto the switch";
  EXPECT_EQ(rt.backend(), rt.config().backend);
  ctx.rollback(stm::AbortCause::kUserRetry);
  EXPECT_TRUE(rt.try_set_backend(stm::BackendKind::kNorec));
  EXPECT_EQ(rt.backend(), stm::BackendKind::kNorec);
}

// --- the monitor end-to-end + the audit/replay acceptance property ---------

struct AdaptiveRun {
  telemetry::AuditMeta meta;
  std::vector<telemetry::AuditRecord> records;
  std::uint64_t switches = 0;
  std::int64_t workload_total = 0;
  std::uint64_t tasks_completed = 0;
  stm::BackendKind final_backend = stm::BackendKind::kOrecSwiss;
};

// `candidates` empty = the factory default, left out of the audit meta.
AdaptiveRun run_adaptive_monitor(
    const char* policy, std::uint64_t max_rounds, stm::BackendKind initial,
    const std::vector<std::string>& candidates = {}) {
  AdaptiveRun out;
  stm::RuntimeConfig stm_config;
  stm_config.backend = initial;
  stm::Runtime rt(stm_config);
  TxnWorkload workload(rt);

  control::PolicyConfig policy_config;
  policy_config.contexts = 4;
  policy_config.pool_size = 4;
  policy_config.initial_backend = std::string(stm::backend_name(initial));
  policy_config.backend_candidates = candidates;
  auto controller = control::make_controller(policy, policy_config);

  telemetry::AuditLog audit;
  out.meta.policy = policy;
  out.meta.min_level = 1;
  out.meta.max_level = 4;
  out.meta.contexts = 4;
  out.meta.pool = 4;
  out.meta.seed = 42;
  out.meta.stm_backend = std::string(stm::backend_name(initial));
  out.meta.backend_candidates = candidates;
  audit.set_meta(out.meta);

  runtime::MalleablePool pool(rt, workload,
                              runtime::PoolConfig{.pool_size = 4,
                                                  .initial_level = 2});
  runtime::MonitorConfig monitor_config;
  monitor_config.period = 2ms;
  monitor_config.raise_priority = false;
  monitor_config.record_trace = false;
  monitor_config.max_rounds = max_rounds;
  monitor_config.stm_runtime = &rt;
  monitor_config.audit = &audit;
  {
    runtime::Monitor monitor(pool, *controller, monitor_config);
    EXPECT_TRUE(
        eventually([&] { return monitor.rounds() >= max_rounds; }, 30000))
        << "monitor stalled at round " << monitor.rounds();
    monitor.stop();
    out.switches = monitor.backend_switches();
  }
  pool.stop();
  out.records = audit.records();
  out.workload_total = workload.total();
  out.tasks_completed = pool.total_completed();
  out.final_backend = rt.backend();
  return out;
}

TEST(AdaptiveMonitor, SwitchesBackendsOnlineWithoutLosingUpdates) {
  const AdaptiveRun run =
      run_adaptive_monitor("adaptive", 40, stm::BackendKind::kOrecSwiss);
  // The probe schedule guarantees at least one switch inside 40 rounds
  // (warmup 4, then candidate 1 becomes desired at round ~9).
  EXPECT_GE(run.switches, 1u);
  // Every task was one counter increment; engines interleaved must
  // not lose or duplicate a single one.
  EXPECT_EQ(run.workload_total,
            static_cast<std::int64_t>(run.tasks_completed));
}

TEST(AdaptiveMonitor, AuditLogWithOnlineSwitchReplaysByteIdentically) {
  const AdaptiveRun run =
      run_adaptive_monitor("adaptive", 40, stm::BackendKind::kOrecSwiss);
  ASSERT_GE(run.switches, 1u) << "acceptance requires >= 1 online switch";
  std::size_t backend_rounds = 0;
  std::size_t switched_rounds = 0;
  std::set<std::string> desired_names;
  for (const auto& record : run.records) {
    if (!record.backend_valid) continue;
    ++backend_rounds;
    desired_names.insert(record.backend);
    if (record.backend_switched) ++switched_rounds;
  }
  EXPECT_GT(backend_rounds, 0u);
  EXPECT_GE(switched_rounds, 1u);
  EXPECT_GT(desired_names.size(), 1u)
      << "probing must walk through multiple backends";

  // Serialize -> parse -> byte-identical re-serialize.
  const std::string text = telemetry::to_jsonl(run.meta, run.records);
  telemetry::AuditMeta parsed_meta;
  std::vector<telemetry::AuditRecord> parsed;
  std::string error;
  ASSERT_TRUE(telemetry::parse_audit(text, &parsed_meta, &parsed, &error))
      << error;
  EXPECT_EQ(telemetry::to_jsonl(parsed_meta, parsed), text);

  // Replay: every level decision AND every desired-backend answer must be
  // re-derived exactly from the recorded signals.
  const telemetry::ReplayResult result =
      telemetry::replay_audit(parsed_meta, parsed);
  EXPECT_TRUE(result.ok) << telemetry::explain_replay(parsed_meta, result);
  EXPECT_EQ(result.mismatches, 0u);
  EXPECT_EQ(result.rounds, run.records.size());
}

TEST(AdaptiveMonitor, RecordedCandidateListReplaysAgainstADifferentDefault) {
  // A run whose candidate universe is not today's default list (different
  // length and order): the header carries the list, so replay re-derives
  // every desired backend from it rather than from the default.
  const std::vector<std::string> candidates = {"tl2", "norec"};
  ASSERT_NE(candidates, control::default_backend_candidates());
  const AdaptiveRun run = run_adaptive_monitor(
      "adaptive", 40, stm::BackendKind::kTl2, candidates);
  ASSERT_GE(run.switches, 1u);

  const std::string text = telemetry::to_jsonl(run.meta, run.records);
  telemetry::AuditMeta parsed_meta;
  std::vector<telemetry::AuditRecord> parsed;
  std::string error;
  ASSERT_TRUE(telemetry::parse_audit(text, &parsed_meta, &parsed, &error))
      << error;
  EXPECT_EQ(parsed_meta.backend_candidates, candidates);
  EXPECT_EQ(telemetry::to_jsonl(parsed_meta, parsed), text);
  const telemetry::ReplayResult result =
      telemetry::replay_audit(parsed_meta, parsed);
  EXPECT_TRUE(result.ok) << telemetry::explain_replay(parsed_meta, result);
  EXPECT_EQ(result.mismatches, 0u);

  // Without the recorded list, replay falls back to the default and the
  // recorded backend choices no longer line up.
  telemetry::AuditMeta stripped = parsed_meta;
  stripped.backend_candidates.clear();
  EXPECT_GT(telemetry::replay_audit(stripped, parsed).mismatches, 0u);
}

TEST(AdaptiveMonitor, TelemetryLabelsFollowTheActiveBackend) {
  telemetry::Armed armed;
  const AdaptiveRun run =
      run_adaptive_monitor("adaptive", 40, stm::BackendKind::kOrecSwiss);
  ASSERT_GE(run.switches, 1u);
  telemetry::Registry& reg = telemetry::registry();
  // Commits must have accumulated under at least two distinct backend
  // labels — the per-backend telemetry seam follows the switch.
  int labelled_backends = 0;
  for (const auto kind : stm::known_backends()) {
    const auto commits =
        reg.counter("rubic_stm_commits_total",
                    {{"backend", std::string(stm::backend_name(kind))}})
            .value();
    if (commits > 0) ++labelled_backends;
  }
  EXPECT_GE(labelled_backends, 2);
  EXPECT_GE(reg.counter("rubic_backend_switches_total").value(),
            run.switches);
}

TEST(AdaptiveMonitor, SurvivesAFaultStormMidAdaptation) {
  // Controller throws, worker stalls and forced commit conflicts all armed
  // while the adaptive schedule is walking the engines: the run must
  // complete, stay lossless, and still make progress every round.
  const auto plan = fault::Plan::parse(
      "seed=11;controller_throw:prob=0.2;"
      "worker_stall:us=100,prob=0.05;"
      "stm_conflict:prob=0.02");
  const AdaptiveRun run = [&] {
    fault::Armed armed(*plan);
    return run_adaptive_monitor("adaptive:ebs", 48, stm::BackendKind::kNorec);
  }();
  EXPECT_EQ(run.workload_total,
            static_cast<std::int64_t>(run.tasks_completed));
  // Switching is best-effort under the storm, but the schedule retries
  // every round, and absorbed controller throws must not kill the monitor.
  EXPECT_GE(run.records.size(), 48u);
}

}  // namespace
}  // namespace rubic
