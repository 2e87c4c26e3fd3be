// Scenario soak layer (src/scenario/): spec grammar accept/reject,
// fault-schedule determinism from the top-level seed, every invariant
// class firing on synthetic inputs, the hung-child watchdog, telemetry
// part accounting, and three end-to-end engine runs — a kill plus
// freeze/thaw timeline that must pass, rubic_colocate's shape (identical
// processes, one kill, live endpoint, trace and audit parts), and a
// zero-sum tamper that must fail with the verified invariant named.
#include <gtest/gtest.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <set>
#include <stop_token>
#include <string>
#include <thread>

#include "src/fault/fault.hpp"
#include "src/scenario/engine.hpp"
#include "src/scenario/invariant.hpp"
#include "src/scenario/launcher.hpp"
#include "src/scenario/spec.hpp"
#include "src/telemetry/audit.hpp"
#include "src/telemetry/http_server.hpp"
#include "src/trace/trace.hpp"
#include "tests/http_client.hpp"

namespace {

using namespace rubic;
using namespace std::chrono;

std::string unique_tag(const char* tag) {
  static std::atomic<int> counter{0};
  return std::string(tag) + "-" + std::to_string(static_cast<int>(getpid())) +
         "-" + std::to_string(counter.fetch_add(1));
}

// ---------------------------------------------------------------------------
// Spec parsing.

constexpr const char* kFullSpec = R"(# full grammar round-trip
name = full
seed = 42
seconds = 12
contexts = 4
pool = 8
period_ms = 5
tick_ms = 100
hung_after_ms = 3000

[process web]
workload = traffic:mix=ycsb-b;curve=constant:rate=200,seconds=8
policy = rubic
backend = norec
fault_spec = monitor_stall:ms=10,every=16
start_ms = 0
stop_ms = 9000

[process batch]
workload = rbset
policy = greedy
start_ms = 1000

[trouble]
at_ms = 3000
kind = freeze
target = batch

[trouble]
at_ms = 5000
kind = thaw
target = batch

[trouble]
at_ms = 7000
kind = kill
target = batch

[invariant verified]

[invariant liveness]
grace_ms = 1500

[invariant slo_floor]
min = 0.25
phase = steady

[invariant jain_min]
min = 0.4

[invariant counter_max]
metric = rubic_monitor_sanitized_samples_total
max = 10

[invariant counter_min]
metric = rubic_stm_commits_total
min = 1
)";

TEST(ScenarioSpec, ParsesFullGrammar) {
  const scenario::ScenarioSpec spec = scenario::parse_scenario(kFullSpec);
  EXPECT_EQ(spec.name, "full");
  EXPECT_EQ(spec.seed, 42u);
  EXPECT_EQ(spec.seconds, 12);
  EXPECT_EQ(spec.contexts, 4);
  EXPECT_EQ(spec.pool, 8);
  EXPECT_EQ(spec.period_ms, 5);
  EXPECT_EQ(spec.tick_ms, 100);
  EXPECT_EQ(spec.hung_after_ms, 3000);

  ASSERT_EQ(spec.processes.size(), 2u);
  EXPECT_EQ(spec.processes[0].name, "web");
  EXPECT_EQ(spec.processes[0].backend, stm::BackendKind::kNorec);
  EXPECT_EQ(spec.processes[0].stop_ms, 9000);
  EXPECT_EQ(spec.effective_stop_ms(spec.processes[0]), 9000);
  EXPECT_EQ(spec.processes[1].policy, "greedy");
  EXPECT_EQ(spec.effective_stop_ms(spec.processes[1]), 12000);

  ASSERT_EQ(spec.troubles.size(), 3u);
  EXPECT_EQ(spec.troubles[0].kind, scenario::TroubleKind::kFreeze);
  EXPECT_EQ(spec.troubles[1].kind, scenario::TroubleKind::kThaw);
  EXPECT_EQ(spec.troubles[2].kind, scenario::TroubleKind::kKill);

  ASSERT_EQ(spec.invariants.size(), 6u);
  EXPECT_EQ(spec.invariants[0].kind, scenario::InvariantKind::kVerified);
  EXPECT_EQ(spec.invariants[1].grace_ms, 1500);
  EXPECT_EQ(spec.invariants[2].phase, "steady");
  EXPECT_DOUBLE_EQ(spec.invariants[3].min, 0.4);
  EXPECT_EQ(spec.invariants[4].metric,
            "rubic_monitor_sanitized_samples_total");
  EXPECT_DOUBLE_EQ(spec.invariants[5].min, 1.0);
}

TEST(ScenarioSpec, RejectsMalformedSpecs) {
  const auto rejects = [](const std::string& text) {
    EXPECT_THROW(scenario::parse_scenario(text), std::invalid_argument)
        << text;
  };
  rejects("");                                    // no processes
  rejects("bogus_key = 1\n[process a]\nworkload = rbset\n");
  rejects("[bogus_section]\n");
  rejects("[process a]\nworkload = rbset\nbogus = 1\n");
  rejects("[process a]\nworkload = rbset\nstart_ms = soon\n");  // bad number
  rejects("[process a]\n");                       // missing workload
  rejects("[process a]\nworkload = rbset\n[process a]\nworkload = rbset\n");
  rejects("[process a]\nworkload = rbset\nbackend = tl3\n");
  rejects("seconds = 5\n[process a]\nworkload = rbset\n"
          "start_ms = 2000\nstop_ms = 1000\n");   // departs before arrival
  rejects("[process a]\nworkload = rbset\n"
          "[trouble]\nat_ms = 1\nkind = kill\ntarget = ghost\n");
  rejects("[process a]\nworkload = rbset\n"
          "[trouble]\nat_ms = 1\nkind = melt\ntarget = a\n");
  rejects("[process a]\nworkload = rbset\n"
          "[trouble]\nat_ms = 1\nkind = thaw\ntarget = a\n");  // no freeze
  rejects("[process a]\nworkload = rbset\n[invariant bogus]\n");
  rejects("[process a]\nworkload = rbset\n[invariant slo_floor]\nmin = 2\n");
  rejects("[process a]\nworkload = rbset\n[invariant counter_max]\nmax = 1\n");
  rejects("[process a]\nworkload = rbset\n"
          "fault_spec = no_such_site:ms=1\n");    // validated at parse time
}

TEST(ScenarioSpec, UnknownFaultSiteErrorNamesKnownSites) {
  try {
    scenario::parse_scenario(
        "[process a]\nworkload = rbset\nfault_spec = no_such_site:ms=1\n");
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("no_such_site"), std::string::npos) << what;
    // The message quotes the registered list (the same names
    // --list-fault-sites prints).
    for (const std::string_view site : fault::known_site_names()) {
      EXPECT_NE(what.find(site), std::string::npos) << what << " / " << site;
    }
  }
}

TEST(ScenarioSpec, FaultScheduleIsDeterministicPerSeed) {
  const char* body =
      "[process a]\nworkload = rbset\nfault_spec = monitor_stall:ms=5\n"
      "[process b]\nworkload = rbset\nfault_spec = clock_jump:ns=100\n";
  const std::string text = std::string("seed = 9\n") + body;
  const scenario::ScenarioSpec one = scenario::parse_scenario(text);
  const scenario::ScenarioSpec two = scenario::parse_scenario(text);
  // Same spec + seed: byte-identical derived fault specs (the whole fault
  // schedule is a pure function of them).
  EXPECT_EQ(one.effective_fault_spec(0), two.effective_fault_spec(0));
  EXPECT_EQ(one.effective_fault_spec(1), two.effective_fault_spec(1));
  // Sibling processes arm different derived seeds.
  EXPECT_NE(one.effective_fault_spec(0), one.effective_fault_spec(1));
  // A spec that pins its own seed is passed through untouched.
  const scenario::ScenarioSpec pinned = scenario::parse_scenario(
      "[process a]\nworkload = rbset\n"
      "fault_spec = seed=123;monitor_stall:ms=5\n");
  EXPECT_EQ(pinned.effective_fault_spec(0), "seed=123;monitor_stall:ms=5");
  // And a different top-level seed derives a different schedule.
  const scenario::ScenarioSpec other =
      scenario::parse_scenario(std::string("seed = 10\n") + body);
  EXPECT_NE(one.effective_fault_spec(0), other.effective_fault_spec(0));
}

// ---------------------------------------------------------------------------
// Invariant evaluators on synthetic inputs: each class must fire.

scenario::ProcessExit clean_exit(const char* name, double rate) {
  scenario::ProcessExit e;
  e.name = name;
  e.started = true;
  e.clean_exit = true;
  e.completed_on_bus = true;
  e.tasks_per_second = rate;
  return e;
}

TEST(ScenarioInvariants, VerifiedFiresOnEveryFailureClass) {
  std::string detail;
  std::vector<scenario::ProcessExit> exits = {clean_exit("a", 100.0)};
  EXPECT_TRUE(scenario::eval_verified(exits, &detail));

  exits.push_back(clean_exit("chaos", 0.0));
  exits.back().chaos_killed = true;
  exits.back().clean_exit = false;  // SIGKILLed, but an expected casualty
  EXPECT_TRUE(scenario::eval_verified(exits, &detail));

  auto fails_with = [&exits](scenario::ProcessExit bad,
                             const char* needle) {
    std::string why;
    auto copy = exits;
    copy.push_back(std::move(bad));
    EXPECT_FALSE(scenario::eval_verified(copy, &why));
    EXPECT_NE(why.find(needle), std::string::npos) << why;
  };
  scenario::ProcessExit hung = clean_exit("wedged", 0.0);
  hung.hung = true;
  fails_with(hung, "hung");
  scenario::ProcessExit tampered = clean_exit("tampered", 0.0);
  tampered.clean_exit = false;
  tampered.verify_failed = true;
  fails_with(tampered, "verification");
  scenario::ProcessExit crashed = clean_exit("crashed", 0.0);
  crashed.clean_exit = false;
  fails_with(crashed, "clean exit");
}

telemetry::MetricSnapshot counter(const char* name, std::uint64_t value,
                                  telemetry::Labels labels = {}) {
  telemetry::MetricSnapshot m;
  m.name = name;
  m.labels = std::move(labels);
  m.type = telemetry::MetricType::kCounter;
  m.value_u64 = value;
  return m;
}

TEST(ScenarioInvariants, SloFloorJudgesPerPhaseAttainment) {
  telemetry::Snapshot snap;
  snap.metrics.push_back(counter("rubic_traffic_requests_total", 1000,
                                 {{"mix", "ycsb-b"}, {"phase", "steady"}}));
  snap.metrics.push_back(counter("rubic_traffic_slo_ok_total", 900,
                                 {{"mix", "ycsb-b"}, {"phase", "steady"}}));
  snap.metrics.push_back(counter("rubic_traffic_requests_total", 100,
                                 {{"mix", "ycsb-b"}, {"phase", "spike"}}));
  snap.metrics.push_back(counter("rubic_traffic_slo_ok_total", 10,
                                 {{"mix", "ycsb-b"}, {"phase", "spike"}}));

  scenario::Invariant floor;
  floor.kind = scenario::InvariantKind::kSloFloor;
  floor.min = 0.5;
  std::string detail;
  // The spike phase's 10% attainment breaks the all-phase floor...
  EXPECT_FALSE(scenario::eval_slo_floor(floor, snap, &detail));
  EXPECT_NE(detail.find("spike"), std::string::npos) << detail;
  // ...but the steady phase alone clears it.
  floor.phase = "steady";
  EXPECT_TRUE(scenario::eval_slo_floor(floor, snap, &detail));
  // A floor over metrics that do not exist fails loudly, not vacuously.
  floor.phase = "missing-phase";
  EXPECT_FALSE(scenario::eval_slo_floor(floor, snap, &detail));
  EXPECT_NE(detail.find("missing-phase"), std::string::npos) << detail;
}

TEST(ScenarioInvariants, JainMinFiresOnStarvation) {
  scenario::Invariant jain;
  jain.kind = scenario::InvariantKind::kJainMin;
  jain.min = 0.8;
  std::string detail;
  std::vector<scenario::ProcessExit> fair = {clean_exit("a", 100.0),
                                             clean_exit("b", 120.0)};
  EXPECT_TRUE(scenario::eval_jain_min(jain, fair, &detail));
  std::vector<scenario::ProcessExit> starved = {clean_exit("a", 100.0),
                                                clean_exit("b", 2.0)};
  EXPECT_FALSE(scenario::eval_jain_min(jain, starved, &detail));
  EXPECT_NE(detail.find("Jain"), std::string::npos) << detail;
  // Fewer than two completed processes: fairness is trivially satisfied.
  std::vector<scenario::ProcessExit> solo = {clean_exit("a", 100.0)};
  EXPECT_TRUE(scenario::eval_jain_min(jain, solo, &detail));
}

TEST(ScenarioInvariants, CounterBoundsFireBothWays) {
  telemetry::Snapshot snap;
  snap.metrics.push_back(
      counter("rubic_stm_aborts_total", 40, {{"cause", "conflict"}}));
  snap.metrics.push_back(
      counter("rubic_stm_aborts_total", 5, {{"cause", "fault"}}));

  scenario::Invariant bound;
  bound.kind = scenario::InvariantKind::kCounterMax;
  bound.metric = "rubic_stm_aborts_total";
  bound.max = 100.0;
  std::string detail;
  EXPECT_TRUE(scenario::eval_counter_bound(bound, snap, &detail));
  bound.max = 10.0;  // sums both label sets: 45 > 10
  EXPECT_FALSE(scenario::eval_counter_bound(bound, snap, &detail));
  bound.label_key = "cause";
  bound.label_value = "fault";  // filtered sum: 5 <= 10
  EXPECT_TRUE(scenario::eval_counter_bound(bound, snap, &detail));

  scenario::Invariant need;
  need.kind = scenario::InvariantKind::kCounterMin;
  need.metric = "rubic_stm_aborts_total";
  need.min = 50.0;
  EXPECT_FALSE(scenario::eval_counter_bound(need, snap, &detail));
  need.min = 45.0;
  EXPECT_TRUE(scenario::eval_counter_bound(need, snap, &detail));
  // An absent counter with a positive floor fails and says "absent".
  need.metric = "rubic_never_emitted_total";
  need.min = 1.0;
  EXPECT_FALSE(scenario::eval_counter_bound(need, snap, &detail));
  EXPECT_NE(detail.find("absent"), std::string::npos) << detail;
  // An absent counter trivially satisfies any upper bound.
  bound.metric = "rubic_never_emitted_total";
  bound.label_key.clear();
  EXPECT_TRUE(scenario::eval_counter_bound(bound, snap, &detail));
}

// ---------------------------------------------------------------------------
// Hung-child watchdog.

TEST(ScenarioLauncher, WatchdogKillsHungChildAndNamesIt) {
  // A child that blocks forever: no bus slot, no exit. The watchdog must
  // SIGKILL it once the (already expired) deadline passes and report
  // hung=true rather than blocking this test forever.
  const pid_t pid = scenario::spawn_child([]() {
    for (;;) pause();
    return 0;
  });
  ASSERT_GT(pid, 0);
  std::vector<scenario::WatchedChild> watched = {
      {pid, steady_clock::now() - milliseconds(1)}};
  const auto reaped =
      scenario::reap_with_watchdog(watched, nullptr, milliseconds(50));
  ASSERT_EQ(reaped.size(), 1u);
  EXPECT_TRUE(reaped[0].hung);
  EXPECT_EQ(reaped[0].signal, SIGKILL);
}

TEST(ScenarioLauncher, WatchdogLeavesPromptExitsAlone) {
  const pid_t pid = scenario::spawn_child([]() { return 7; });
  ASSERT_GT(pid, 0);
  std::vector<scenario::WatchedChild> watched = {
      {pid, steady_clock::now() + seconds(30)}};
  const auto reaped =
      scenario::reap_with_watchdog(watched, nullptr, milliseconds(50));
  ASSERT_EQ(reaped.size(), 1u);
  EXPECT_FALSE(reaped[0].hung);
  EXPECT_EQ(reaped[0].exit_code, 7);
  EXPECT_EQ(reaped[0].signal, 0);
}

// ---------------------------------------------------------------------------
// Telemetry part accounting.

TEST(ScenarioLauncher, TelemetryPartAccountingCoversEveryFate) {
  const std::string base = unique_tag("parts");
  // A valid part: an (empty) registry snapshot round-trips the schema.
  const std::string good = scenario::part_path(base, 1, ".tpart");
  ASSERT_TRUE(trace::write_file(
      good, telemetry::to_json(telemetry::Snapshot{},
                               telemetry::JsonStyle::kCompact)));
  // A torn part: killed mid-write.
  const std::string torn = scenario::part_path(base, 2, ".tpart");
  ASSERT_TRUE(trace::write_file(torn, "{\"schema\": \"rubic-telem"));
  // pid 3's part is missing entirely.
  const auto collected = scenario::collect_telemetry_parts(
      {{1, good}, {2, torn}, {3, scenario::part_path(base, 3, ".tpart")}});
  EXPECT_EQ(collected.expected, 3);
  EXPECT_EQ(collected.merged, 1);
  EXPECT_EQ(collected.discarded, 1);
  EXPECT_EQ(collected.missing, 1);
  ASSERT_EQ(collected.snapshots.size(), 1u);
  EXPECT_EQ(collected.snapshots[0].first, 1);
  // Parts are consumed: a second collection finds nothing.
  const auto again = scenario::collect_telemetry_parts({{1, good}});
  EXPECT_EQ(again.missing, 1);
}

// ---------------------------------------------------------------------------
// End-to-end engine runs.

scenario::EngineOptions quiet_options(const char* tag) {
  scenario::EngineOptions opt;
  opt.bus_name = "/" + unique_tag(tag);
  opt.child.telemetry = true;
  opt.child.telemetry_base = unique_tag(tag);
  opt.echo_child_stderr = false;
  return opt;
}

TEST(ScenarioEngine, KillAndFreezeThawTimelinePasses) {
  const char* text =
      "name = e2e-chaos\n"
      "seed = 11\n"
      "seconds = 5\n"
      "contexts = 2\n"
      "pool = 4\n"
      "tick_ms = 100\n"
      "hung_after_ms = 20000\n"
      "[process survivor]\nworkload = rbset\nstart_ms = 0\n"
      "[process victim]\nworkload = rbset\nstart_ms = 0\n"
      "[process sleeper]\nworkload = rbset\nstart_ms = 500\n"
      "[trouble]\nat_ms = 1200\nkind = kill\ntarget = victim\n"
      "[trouble]\nat_ms = 1500\nkind = freeze\ntarget = sleeper\n"
      "[trouble]\nat_ms = 2500\nkind = thaw\ntarget = sleeper\n"
      "[invariant verified]\n"
      "[invariant liveness]\ngrace_ms = 3000\n";
  const scenario::ScenarioSpec spec = scenario::parse_scenario(text);
  const scenario::RunResult result =
      scenario::run_scenario(spec, quiet_options("e2e"));

  EXPECT_TRUE(result.passed);
  ASSERT_EQ(result.processes.size(), 3u);
  EXPECT_EQ(result.processes[0].outcome, "completed");
  EXPECT_EQ(result.processes[1].outcome, "chaos-killed");
  EXPECT_EQ(result.processes[2].outcome, "completed");
  for (const scenario::TroubleOutcome& trouble : result.troubles) {
    EXPECT_TRUE(trouble.delivered);
    EXPECT_GE(trouble.applied_at_ms, trouble.spec.at_ms);
  }
  for (const scenario::InvariantVerdict& verdict : result.verdicts) {
    EXPECT_TRUE(verdict.passed) << verdict.detail;
  }
  EXPECT_FALSE(result.timeline.empty());
  // The chaos-killed child never dumped its telemetry part: the report
  // must say so instead of silently skipping it.
  EXPECT_EQ(result.telemetry.expected, 3);
  EXPECT_EQ(result.telemetry.missing, 1);
  EXPECT_EQ(result.telemetry.merged, 2);

  const std::string report = scenario::report_json(result);
  EXPECT_NE(report.find("\"schema\": \"rubic-soak-report/v1\""),
            std::string::npos);
  EXPECT_NE(report.find("\"passed\": true"), std::string::npos);
  EXPECT_NE(report.find("chaos-killed"), std::string::npos);
}

// Every distinct "pid": value in a merged Chrome trace document.
std::set<long long> trace_pids(const std::string& trace) {
  std::set<long long> pids;
  const std::string key = "\"pid\":";
  for (std::size_t at = trace.find(key); at != std::string::npos;
       at = trace.find(key, at + key.size())) {
    pids.insert(std::atoll(trace.c_str() + at + key.size()));
  }
  return pids;
}

TEST(ScenarioEngine, ColocateShapedRunDeliversEveryArtifact) {
  // rubic_colocate's shape: identical processes sharing one name and bus
  // label, one kill trouble on the first of them, a live endpoint, and
  // trace and audit bases in the child template.
  scenario::ScenarioSpec spec;
  spec.name = "colocate-shape";
  spec.seconds = 3;
  spec.contexts = 2;
  spec.pool = 4;
  spec.tick_ms = 100;
  spec.hung_after_ms = 20000;
  scenario::ProcessSpec proc;
  proc.name = "rbset/rubic";
  proc.workload = "rbset";
  spec.processes.assign(2, proc);
  spec.troubles.push_back({800, scenario::TroubleKind::kKill, proc.name});

  scenario::EngineOptions opt = quiet_options("shape");
  opt.tool = "shape_tool";
  opt.child.trace_base = unique_tag("shape-trace") + ".json";
  opt.child.audit_base = unique_tag("shape-audit");
  // An ephemeral port: the kernel picks a free one, the probe releases it.
  std::uint16_t port = 0;
  {
    telemetry::HttpServer probe(
        *telemetry::parse_listen_spec("127.0.0.1:0"));
    port = probe.port();
  }
  ASSERT_NE(port, 0);
  opt.listen = "127.0.0.1:" + std::to_string(port);
  opt.child.live_base = opt.child.telemetry_base;

  // The poller must be asleep, not starting up, while the engine forks: a
  // child inherits any runtime lock another parent thread holds at fork
  // time (thread start-up takes some under the sanitizers) as held.
  std::atomic<bool> running{false};
  std::string status;
  std::jthread poller([&](std::stop_token stop) {
    running = true;
    std::this_thread::sleep_for(milliseconds(500));
    while (!stop.stop_requested()) {
      const std::string response = test::http_get(port, "/status");
      if (response.find("200 OK") != std::string::npos) {
        status = response;
        return;
      }
      std::this_thread::sleep_for(milliseconds(50));
    }
  });
  while (!running.load()) std::this_thread::yield();
  std::this_thread::sleep_for(milliseconds(20));
  const scenario::RunResult result = scenario::run_scenario(spec, opt);
  poller.request_stop();
  poller.join();

  EXPECT_NE(status.find("\"tool\": \"shape_tool\""), std::string::npos)
      << status;
  ASSERT_EQ(result.processes.size(), 2u);
  const scenario::ProcessOutcome& victim = result.processes[0];
  const scenario::ProcessOutcome& survivor = result.processes[1];
  EXPECT_EQ(victim.outcome, "chaos-killed");
  EXPECT_EQ(survivor.outcome, "completed");

  // Each outcome carries its last bus record: the survivor's final sample,
  // the victim's last heartbeat before the kill.
  EXPECT_NE(survivor.payload.done, 0u);
  EXPECT_STREQ(survivor.payload.label, "rbset/rubic");
  EXPECT_EQ(survivor.payload.tasks_per_second, survivor.tasks_per_second);
  EXPECT_GT(survivor.payload.tasks_completed, 0u);
  EXPECT_EQ(victim.payload.done, 0u);
  EXPECT_STREQ(victim.payload.label, "rbset/rubic");
  EXPECT_GT(victim.payload.heartbeat, 0u);

  // Per-child telemetry survives next to the merge: only the survivor's.
  ASSERT_EQ(result.telemetry.snapshots.size(), 1u);
  EXPECT_EQ(result.telemetry.snapshots[0].first, survivor.pid);

  // The merged trace holds the survivor's track only.
  const std::string trace = scenario::read_file(opt.child.trace_base);
  ::unlink(opt.child.trace_base.c_str());
  EXPECT_EQ(trace_pids(trace), std::set<long long>{survivor.pid}) << trace;

  // The survivor wrote an audit part; the victim died before its dump.
  const std::string audit_path =
      scenario::part_path(opt.child.audit_base, survivor.pid, ".jsonl");
  const std::string audit = scenario::read_file(audit_path);
  ::unlink(audit_path.c_str());
  telemetry::AuditMeta meta;
  std::vector<telemetry::AuditRecord> records;
  std::string error;
  EXPECT_TRUE(telemetry::parse_audit(audit, &meta, &records, &error))
      << error;
  EXPECT_FALSE(records.empty());
  EXPECT_TRUE(scenario::read_file(scenario::part_path(
                                      opt.child.audit_base, victim.pid,
                                      ".jsonl"))
                  .empty());
}

TEST(ScenarioEngine, TamperedZeroSumFailsTheVerifiedInvariant) {
  const char* text =
      "name = e2e-violation\n"
      "seed = 12\n"
      "seconds = 3\n"
      "contexts = 2\n"
      "pool = 4\n"
      "tick_ms = 100\n"
      "[process tampered]\n"
      "workload = traffic:mix=ycsb-b;curve=constant:rate=120,seconds=2;keys=2048\n"
      "start_ms = 0\n"
      "tamper = zero_sum\n"
      "[invariant verified]\n";
  const scenario::ScenarioSpec spec = scenario::parse_scenario(text);
  const scenario::RunResult result =
      scenario::run_scenario(spec, quiet_options("viol"));

  EXPECT_FALSE(result.passed);
  ASSERT_EQ(result.processes.size(), 1u);
  EXPECT_EQ(result.processes[0].outcome, "verify-failed");
  ASSERT_EQ(result.verdicts.size(), 1u);
  EXPECT_FALSE(result.verdicts[0].passed);
  EXPECT_GE(result.verdicts[0].first_violation_ms, 0);
  EXPECT_GE(result.verdicts[0].nearest_snapshot_ms, 0);
  EXPECT_NE(result.verdicts[0].detail.find("tampered"), std::string::npos)
      << result.verdicts[0].detail;
  const std::string report = scenario::report_json(result);
  EXPECT_NE(report.find("\"passed\": false"), std::string::npos);
}

}  // namespace
