// The soak-scenario orchestrator (the "troubleaux" engine).
//
// run_scenario() executes one parsed ScenarioSpec against real forked
// processes on a private co-location bus:
//
//   tick loop (spec.tick_ms)
//     ├── fork processes whose start_ms has arrived (launcher.hpp's
//     │   child body);
//     ├── deliver scripted troubles whose at_ms has arrived (SIGKILL /
//     │   SIGSTOP / SIGCONT to the first process of the target name);
//     ├── reap exits non-blockingly, timestamping each departure;
//     ├── append a bus snapshot to the timeline (per-peer level,
//     │   throughput, commit ratio — the "nearest telemetry snapshot"
//     │   every violation points at);
//     └── evaluate the continuous liveness invariants: every running,
//         unfrozen, slot-holding process must advance its bus heartbeat
//         within grace_ms.
//
// The loop sleeps to the next tick or the next scripted arrival or
// trouble, whichever comes first, so an event lands at its offset rather
// than on a tick boundary.
//
// After the horizon: thaw anything still frozen, reap the stragglers under
// the hung-child watchdog, collect + merge the per-child telemetry parts
// (with explicit missing/discarded accounting for children that died
// mid-write) and trace fragments, evaluate the exit-time invariants, and
// render one rubic-soak-report/v1 JSON document.
//
// Both co-location tools run here: rubic_soak from a scenario file,
// rubic_colocate from flags (N identical processes, an optional kill).
//
// Determinism: the spec plus its seed fix every derived schedule (child
// fault plans via effective_fault_spec). Wall-clock jitter moves timestamps
// but — for scenarios with sane margins — never the verdicts: the same
// seed yields the same fault schedule and the same pass/fail outcome.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "src/scenario/invariant.hpp"
#include "src/scenario/launcher.hpp"
#include "src/scenario/spec.hpp"

namespace rubic::scenario {

inline constexpr std::string_view kSoakReportSchema = "rubic-soak-report/v1";

struct EngineOptions {
  std::string tool = "rubic_soak";  // the caller: /status "tool", stderr
  std::string bus_name;  // "" = /rubic-soak-<parent pid>
  bool echo_child_stderr = true;  // false: children write to /dev/null
  // Live introspection (docs/observability.md). `listen` is a
  // parse_listen_spec value ("PORT" or "HOST:PORT"); non-empty starts an
  // HTTP endpoint on the parent serving /metrics (merged live child
  // telemetry), /status (bus view), /hotspots (merged live contention) and
  // /healthz for the duration of the run. The merged routes read the
  // child.live_base parts, so set that base too.
  std::string listen;
  // The ChildRun every child starts from. The engine overwrites the
  // per-process fields from the spec (label through procs, and
  // tamper_zero_sum; fault_spec only when the spec names one); the
  // template carries the run-wide settings:
  //   telemetry, telemetry_base — children dump .tpart snapshots that the
  //     engine collects and merges;
  //   profiler — the contention profiler in every child;
  //   live_base — children refresh .tlive/.clive parts mid-run for the
  //     endpoint's routes, and the tick loop answers SIGUSR1
  //     (snapshot_signal.hpp) by dumping merged <live_base>.signal.*.json
  //     documents;
  //   trace_base — children write .part trace fragments, merged into the
  //     Chrome trace file <trace_base> after the run;
  //   audit_base — children write <audit_base>.<pid>.jsonl decision logs,
  //     left on disk for rubic_replay;
  //   fault_spec — armed as given in every process whose spec names none.
  ChildRun child;
};

// One process's fate, as the report tells it.
struct ProcessOutcome {
  std::string name;
  pid_t pid = 0;
  bool started = false;
  bool chaos_killed = false;  // scripted kill (or killed while frozen)
  bool hung = false;          // watchdog SIGKILL
  int exit_code = -1;
  int signal = 0;
  bool completed_on_bus = false;  // final sample published before exit
  double tasks_per_second = 0.0;
  std::uint64_t tasks_completed = 0;
  // The child's last clean bus record (its final sample when
  // completed_on_bus, else its last heartbeat); zeros when it had none.
  ipc::SlotPayload payload{};
  std::int64_t started_at_ms = -1;
  std::int64_t ended_at_ms = -1;  // -1 while running at horizon
  // "completed" | "verify-failed" | "chaos-killed" | "hung" | "died" |
  // "crashed" | "not-started"
  std::string outcome;
};

struct TroubleOutcome {
  TroubleSpec spec;
  std::int64_t applied_at_ms = -1;  // actual delivery timestamp
  bool delivered = false;  // false: target not running when it came due
};

// One timeline entry: the bus as seen at at_ms.
struct PeerPoint {
  std::string label;
  std::int32_t pid = 0;
  int level = 0;
  double throughput = 0.0;
  double commit_ratio = 1.0;
  std::uint64_t tasks_completed = 0;
  std::uint64_t heartbeat = 0;
  bool done = false;
};

struct TimelinePoint {
  std::int64_t at_ms = 0;
  int live = 0;
  std::vector<PeerPoint> peers;
};

struct RunResult {
  ScenarioSpec spec;
  bool passed = false;
  double wall_seconds = 0.0;
  std::vector<ProcessOutcome> processes;
  std::vector<TroubleOutcome> troubles;
  std::vector<InvariantVerdict> verdicts;
  std::vector<TimelinePoint> timeline;
  // Exit-time telemetry: each child's parsed snapshot with the part
  // accounting (launcher.hpp), and their merge.
  bool telemetry_enabled = false;
  CollectedTelemetry telemetry;
  telemetry::Snapshot merged_telemetry;
};

// Runs the scenario to completion. Throws std::invalid_argument on
// un-runnable specs (unknown policy names surface here, before any fork).
RunResult run_scenario(const ScenarioSpec& spec, const EngineOptions& opt);

// Renders the rubic-soak-report/v1 document (scripts/check_soak.py is the
// schema's executable spec).
std::string report_json(const RunResult& result);

}  // namespace rubic::scenario
