// Declarative soak-scenario specifications (DESIGN: robustness layer).
//
// A scenario is the "troubleaux" composition the ROADMAP asks for: a
// timeline of process arrivals and departures, scripted troubles (kills,
// freeze/thaw windows, per-process fault plans covering monitor stalls,
// clock jumps and bus-corruption windows), and the invariants the run must
// uphold — evaluated continuously while the children run and once more from
// the merged artifacts after they exit. The spec is a small declarative
// text format so a scenario is one reviewable committed file
// (scenarios/*.scn), not a hand-typed CLI incantation.
//
// Grammar (full walk-through in docs/soak.md):
//
//   # comment                      blank lines and '#' comments ignored
//   name = tenant-churn            top-level keys before the first section
//   seed = 42
//   seconds = 12
//
//   [process web]                  one co-located process, keyed by name
//   workload = traffic:mix=ycsb-b;curve=constant:rate=400,seconds=8
//   policy = rubic
//   start_ms = 0                   arrival offset on the timeline
//   stop_ms = 8000                 departure offset (0 = scenario end)
//   fault_spec = monitor_stall:ms=30,every=16
//
//   [trouble]                      one scripted trouble at a timeline offset
//   at_ms = 3000
//   kind = kill                    kill | freeze | thaw
//   target = web
//
//   [invariant liveness]           one declared invariant (see invariant.hpp)
//   grace_ms = 2000
//
// Determinism: the spec plus the top-level seed fully determine every
// derived schedule — per-process fault plans that do not pin their own seed
// get one derived from (seed, process index), so two runs of the same spec
// with the same seed arm byte-identical fault schedules.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "src/scenario/invariant.hpp"
#include "src/stm/backend/backend.hpp"

namespace rubic::scenario {

// One co-located process on the timeline.
struct ProcessSpec {
  std::string name;      // unique; doubles as the bus slot label
  std::string workload;  // registry name or "traffic:..." (launcher.hpp)
  std::string policy = "rubic";
  stm::BackendKind backend = stm::default_backend();
  std::string fault_spec;      // armed inside the child; may omit "seed="
  std::int64_t start_ms = 0;   // arrival offset
  std::int64_t stop_ms = 0;    // departure offset; 0 = run to scenario end
  // Demo/violation-scenario knob: after the run, the child corrupts its own
  // zero-sum state before verify() so the verification invariant must trip.
  // Only meaningful for traffic workloads.
  bool tamper_zero_sum = false;
};

enum class TroubleKind {
  kKill,    // SIGKILL the target (an expected casualty, "chaos-killed")
  kFreeze,  // SIGSTOP the target (liveness checks pause for it)
  kThaw,    // SIGCONT a previously frozen target
};

std::string_view trouble_kind_name(TroubleKind kind) noexcept;

struct TroubleSpec {
  std::int64_t at_ms = 0;
  TroubleKind kind = TroubleKind::kKill;
  std::string target;  // a ProcessSpec::name
};

struct ScenarioSpec {
  std::string name = "unnamed";
  std::uint64_t seed = 1;
  std::int64_t seconds = 10;  // scenario horizon
  int contexts = 0;           // 0 = hardware_concurrency
  int pool = 0;               // 0 = 2 × contexts
  int period_ms = 10;         // monitor period inside every child
  std::int64_t tick_ms = 250;       // engine tick: snapshots + troubles
  std::int64_t hung_after_ms = 10000;  // launcher watchdog slack past stop
  std::vector<ProcessSpec> processes;
  std::vector<TroubleSpec> troubles;   // sorted by at_ms after parse
  std::vector<Invariant> invariants;

  // Effective departure offset of one process on the timeline.
  std::int64_t effective_stop_ms(const ProcessSpec& proc) const noexcept {
    return proc.stop_ms > 0 ? proc.stop_ms : seconds * 1000;
  }

  // The fault spec actually armed in the child: specs that do not pin their
  // own "seed=" get one derived from (scenario seed, process index) so the
  // whole run is reproducible from the one top-level seed.
  std::string effective_fault_spec(std::size_t process_index) const;
};

// Parses the scenario grammar above. Throws std::invalid_argument naming
// the offending line on: unknown keys or sections, malformed numbers,
// duplicate or missing process names, troubles targeting unknown processes,
// thaw without a preceding freeze, departures at or before arrivals,
// invariant parameters out of range, or an empty process list.
ScenarioSpec parse_scenario(std::string_view text);

// parse_scenario over a file's contents. Throws std::invalid_argument with
// the path on unreadable files.
ScenarioSpec load_scenario(const std::string& path);

}  // namespace rubic::scenario
