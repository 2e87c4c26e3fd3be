// Child-process launcher for co-located runs.
//
// The scenario engine (engine.hpp), which both rubic_colocate and
// rubic_soak run through, forks real OS processes that run one workload
// under one policy on a private STM runtime and meet only on the
// shared-memory co-location bus. This header is the per-child machinery:
//
//   * run_workload_child — everything a child does between fork and _exit:
//     arm the fault plan / tracer / telemetry, claim a bus slot (capped
//     backoff, solo fallback), build the workload ("traffic:" specs
//     included), run under the policy, publish the final bus sample, dump
//     trace/audit/telemetry parts, verify;
//   * spawn_child — the fork boilerplate (flush, exception fence, _exit);
//   * reap_with_watchdog — waitpid with a hung-child watchdog: a child
//     that neither exits nor advances its bus heartbeat by its deadline is
//     SIGKILLed and reported as hung (distinct from a scripted chaos
//     kill), so a wedged child can never hang the launcher forever;
//   * collect_telemetry_parts — reads the per-child snapshot parts and
//     accounts for every expected file: parsed, missing (the child died
//     before its exit-time dump), or discarded (a torn fragment from a
//     mid-write kill). The counts flow into the merged report instead of
//     being silently skipped.
#pragma once

#include <sys/types.h>

#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "src/ipc/colocation_bus.hpp"
#include "src/stm/backend/backend.hpp"
#include "src/stm/stm.hpp"
#include "src/telemetry/telemetry.hpp"
#include "src/workloads/workload.hpp"

namespace rubic::scenario {

// Everything one child needs, fixed before fork. Part paths are *bases*:
// the child appends ".<pid><suffix>" itself (parent and child derive the
// same name from the recorded pid), so the struct is fork-safe by value.
struct ChildRun {
  std::string label;     // bus slot label (the scenario process name)
  std::string workload;  // registry name or "traffic:<spec>"
  std::string policy = "rubic";
  stm::BackendKind backend = stm::default_backend();
  std::string fault_spec;  // armed first thing in the child; "" = none
  std::int64_t run_ms = 5000;
  int contexts = 1;
  int pool = 1;
  int period_ms = 10;
  int child_index = 0;  // pool-seed disambiguator for slot-less children
  int procs = 1;        // audit-meta echo: co-located process count
  bool telemetry = false;
  bool profiler = false;  // arm the contention profiler in the child
  std::string telemetry_base;  // "" = no telemetry part ("<base>.<pid>.tpart")
  std::string trace_base;      // "" = no trace part   ("<base>.<pid>.part")
  std::string audit_base;      // "" = no audit stream ("<base>.<pid>.jsonl")
  // Live-introspection parts: while the run is in flight the child refreshes
  // "<base>.<pid>.tlive" (telemetry snapshot) and "<base>.<pid>.clive"
  // (contention snapshot) every 250 ms via atomic tmp+rename, so the
  // parent's HTTP endpoint can serve a merged mid-run view. "" = disabled.
  std::string live_base;
  // Violation-demo knob: corrupt the zero-sum account state after the run
  // so verify() must reject it. Traffic workloads only.
  bool tamper_zero_sum = false;
};

// "<base>.<pid><suffix>" — the shared naming for every per-child artifact.
std::string part_path(const std::string& base, pid_t pid,
                      std::string_view suffix);

// A whole part file; "" when it is absent or unreadable.
std::string read_file(const std::string& path);

// Builds a child workload: names from the registry, or a traffic-driven KV
// service via the "traffic:<spec>" form (grammar in src/traffic/).
std::unique_ptr<workloads::Workload> make_child_workload(
    const std::string& spec, stm::Runtime& rt);

// Claims a bus slot with capped exponential backoff (~1.3 s total) before
// the caller degrades to solo tuning.
int acquire_slot_with_backoff(ipc::CoLocationBus& bus,
                              const std::string& label);

// The whole child body; never returns control flow to the parent's logic —
// callers _exit with the returned code (0 ok, 3 verify failure). `bus` may
// be null for a deliberately bus-less child.
int run_workload_child(const ChildRun& run, ipc::CoLocationBus* bus);

// fork() + stdio flush + exception fence + _exit(body()). Returns the child
// pid to the parent, or -1 on fork failure (errno set).
pid_t spawn_child(const std::function<int()>& body);

struct WatchedChild {
  pid_t pid = 0;
  // Hung judgement starts here: expected exit time plus the configured
  // hung-after slack.
  std::chrono::steady_clock::time_point deadline{};
};

struct ReapedChild {
  pid_t pid = 0;
  int exit_code = -1;  // valid when the child exited
  int signal = 0;      // non-zero when the child died to a signal
  bool hung = false;   // watchdog SIGKILL: neither exited nor heartbeat
};

// Reaps every watched child, SIGKILLing any that is past its deadline and
// has not advanced its bus heartbeat within `heartbeat_grace` (no slot on
// the bus = judged by the deadline alone). A child still heartbeating past
// its deadline gets at most 4 × heartbeat_grace extra before it is killed
// anyway — the launcher's total wait is always bounded.
std::vector<ReapedChild> reap_with_watchdog(
    const std::vector<WatchedChild>& children, ipc::CoLocationBus* bus,
    std::chrono::milliseconds heartbeat_grace);

// One expected per-child telemetry snapshot part.
struct TelemetryPart {
  pid_t pid = 0;
  std::string path;
};

struct CollectedTelemetry {
  // (pid, snapshot) for every part that parsed, in input order.
  std::vector<std::pair<pid_t, telemetry::Snapshot>> snapshots;
  int expected = 0;
  int merged = 0;     // parsed cleanly
  int missing = 0;    // no file / empty file (child died before its dump)
  int discarded = 0;  // present but unparseable (torn mid-write fragment)
};

// Reads and unlinks every part, accounting for each one. Nothing is
// silently skipped: expected == merged + missing + discarded always holds.
CollectedTelemetry collect_telemetry_parts(
    const std::vector<TelemetryPart>& parts);

}  // namespace rubic::scenario
