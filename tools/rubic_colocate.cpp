// rubic_colocate — true multi-process co-location launcher.
//
// Forks N real OS processes, each running one workload from the registry
// under one tuning policy on its own STM runtime, worker pool and monitor —
// separate address spaces contending for the machine's actual cores, which
// is the paper's headline scenario. The processes meet only on the
// shared-memory co-location bus (src/ipc/): every monitor round is
// published there, the cross-process EqualShare baseline reads its share
// from there, and the parent collects each child's final RunReport from its
// slot to compute the paper's system metrics (NSBP speed-up product,
// efficiency product, Jain fairness) against a sequential baseline measured
// before the fork.
//
// The parent loop is the scenario engine's (src/scenario/engine.hpp): this
// tool turns its flags into a ScenarioSpec of --procs identical processes
// and makes one run_scenario call, the same path rubic_soak takes.
//
// Robustness: a child that dies mid-run (crash, OOM-kill, kill -9) simply
// stops heartbeating — the survivors' monitors never block on it, bus-based
// EqualShare re-divides the contexts once the heartbeat goes stale, and the
// final JSON marks the dead slot instead of hanging the run.
// `--chaos-kill-ms T` scripts one kill trouble: the engine SIGKILLs the
// first child T ms into the run, exercising exactly that path (used by the
// ctest suite).
//
// Run:  rubic_colocate --procs 2 --workload intruder --policy rubic
//       rubic_colocate --procs 3 --workload rbset --policy equalshare
//                      --contexts 8 --seconds 5 --json out.json
//       rubic_colocate --list-workloads   /   --list-controllers
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "src/control/factory.hpp"
#include "src/control/fixed.hpp"
#include "src/fault/fault.hpp"
#include "src/ipc/colocation_bus.hpp"
#include "src/metrics/metrics.hpp"
#include "src/runtime/process.hpp"
#include "src/scenario/engine.hpp"
#include "src/telemetry/http_server.hpp"
#include "src/telemetry/json.hpp"
#include "src/telemetry/telemetry.hpp"
#include "src/trace/trace.hpp"
#include "src/util/cli.hpp"
#include "src/util/listing.hpp"
#include "src/workloads/registry.hpp"

using namespace rubic;
using namespace std::chrono;
using telemetry::jsonutil::append_quoted;
using telemetry::jsonutil::escaped;

namespace {

struct Options {
  int procs = 2;
  std::string workload = "intruder";
  std::string policy = "rubic";
  // Concurrency-control backend for every child's STM runtime (and the
  // sequential baseline, so speedups compare like with like).
  stm::BackendKind stm_backend = stm::default_backend();
  int seconds = 5;
  int baseline_seconds = 1;
  int contexts = 0;  // 0 → hardware_concurrency
  int pool = 0;      // 0 → 2 × contexts
  int period_ms = 10;
  int chaos_kill_ms = 0;  // > 0: SIGKILL the first child after this delay
  // Watchdog slack past the expected run end: a child that neither exits
  // nor advances its bus heartbeat by then is SIGKILLed and reported as
  // hung — a wedged child can no longer hang the launcher forever.
  int hung_after_ms = 15000;
  std::string fault_spec;  // armed inside every child (see src/fault/)
  std::string bus_name;
  std::string json_path;
  // Non-empty: every child records an event trace (src/trace/) and the
  // parent merges the per-child fragments into one Chrome trace-event file
  // loadable at ui.perfetto.dev — one process track per child.
  std::string trace_out;
  // --telemetry: arm the metric registry in every child; each child dumps a
  // JSON snapshot the parent aggregates into the report's "telemetry" key
  // (per-process sections plus a cross-process merge).
  bool telemetry = false;
  // Non-empty: the parent also writes the merged snapshot in Prometheus
  // text exposition format to this path (implies --telemetry).
  std::string prom_out;
  // Non-empty: every child records a controller decision audit log
  // (src/telemetry/audit.hpp) to <prefix>.<pid>.jsonl — the streams
  // tools/rubic_replay re-drives offline.
  std::string audit_out;
  // Non-empty: the parent serves /metrics (merged live child telemetry),
  // /status (bus view), /hotspots (merged live contention) and /healthz for
  // the duration of the run (implies --telemetry; docs/observability.md).
  std::string listen;
  // Arm the contention profiler in every child (children then refresh the
  // .clive live parts the /hotspots route merges).
  bool profile = false;

  bool telemetry_enabled() const {
    return telemetry || !prom_out.empty() || !listen.empty();
  }
};

// Base path for the per-child telemetry snapshot parts: any output path the
// run already has (parent and children derive identical part names from it
// via scenario::part_path).
std::string telemetry_base(const Options& opt) {
  if (!opt.json_path.empty()) return opt.json_path;
  if (!opt.prom_out.empty()) return opt.prom_out;
  return "rubic_colocate_telemetry";
}

// Flags → scenario: --procs identical processes sharing one name (and bus
// label), and --chaos-kill-ms as one kill trouble on the first of them.
scenario::ScenarioSpec make_spec(const Options& opt) {
  scenario::ScenarioSpec spec;
  spec.name = "rubic_colocate";
  spec.seconds = opt.seconds;
  spec.contexts = opt.contexts;
  spec.pool = opt.pool;
  spec.period_ms = opt.period_ms;
  spec.hung_after_ms = opt.hung_after_ms;
  scenario::ProcessSpec proc;
  proc.name = opt.workload + "/" + opt.policy;
  proc.workload = opt.workload;
  proc.policy = opt.policy;
  proc.backend = opt.stm_backend;
  spec.processes.assign(static_cast<std::size_t>(opt.procs), proc);
  if (opt.chaos_kill_ms > 0) {
    spec.troubles.push_back(
        {opt.chaos_kill_ms, scenario::TroubleKind::kKill, proc.name});
  }
  return spec;
}

// Run-wide engine settings; the child body itself (slot claim with backoff,
// solo fallback, policy construction, final-sample publish, part dumps,
// exit-time verify) lives in src/scenario/launcher.cpp.
scenario::EngineOptions make_engine_options(const Options& opt) {
  scenario::EngineOptions engine;
  engine.tool = "rubic_colocate";
  engine.bus_name = opt.bus_name;
  engine.listen = opt.listen;
  // Armed as given: a spec without seed= keeps the plan's default seed.
  engine.child.fault_spec = opt.fault_spec;
  engine.child.telemetry = opt.telemetry_enabled();
  engine.child.telemetry_base = telemetry_base(opt);
  if (!opt.listen.empty()) engine.child.live_base = telemetry_base(opt);
  engine.child.profiler = opt.profile;
  engine.child.trace_base = opt.trace_out;
  engine.child.audit_base = opt.audit_out;
  return engine;
}

// A child completed when it exited 0 after publishing its final sample. A
// clean exit without one means the child ran in the degraded solo mode (no
// slot): the run succeeded, its metrics are simply not observable here.
bool completed(const scenario::ProcessOutcome& p) {
  return p.exit_code == 0 && p.completed_on_bus;
}
bool solo(const scenario::ProcessOutcome& p) {
  return p.exit_code == 0 && !p.completed_on_bus;
}

double measure_baseline(const Options& opt) {
  stm::RuntimeConfig stm_config;
  stm_config.backend = opt.stm_backend;
  stm::Runtime rt(stm_config);
  auto workload = scenario::make_child_workload(opt.workload, rt);
  control::FixedController sequential(control::LevelBounds{1, 1}, 1, "Seq");
  runtime::ProcessConfig config;
  config.pool.pool_size = 1;
  config.monitor.record_trace = false;
  runtime::TunedProcess process(rt, *workload, sequential, config);
  return process.run_for(seconds(opt.baseline_seconds)).tasks_per_second;
}

// The report's "telemetry" value: per-process sections plus the
// cross-process merge. Every expected part is accounted for — parsed,
// missing (a chaos-killed or hung child never wrote one), or discarded (a
// torn mid-write fragment) — instead of being silently skipped.
std::string telemetry_section(const scenario::RunResult& result) {
  const scenario::CollectedTelemetry& parts = result.telemetry;
  std::string per_process;
  for (const auto& [pid, snap] : parts.snapshots) {
    if (!per_process.empty()) per_process += ",";
    per_process += "\n      {\"pid\": ";
    per_process += std::to_string(static_cast<int>(pid));
    per_process += ", \"metrics\": ";
    per_process += telemetry::to_json_metrics(snap, "      ");
    per_process += "}";
  }
  std::string out = "{\n    \"schema\": \"";
  out += telemetry::kJsonSchema;
  out += "\",\n    \"parts\": {\"expected\": ";
  out += std::to_string(parts.expected);
  out += ", \"merged\": ";
  out += std::to_string(parts.merged);
  out += ", \"missing\": ";
  out += std::to_string(parts.missing);
  out += ", \"discarded\": ";
  out += std::to_string(parts.discarded);
  out += "},\n    \"processes\": [";
  out += per_process;
  if (!per_process.empty()) out += "\n    ";
  out += "],\n    \"merged\": ";
  out += telemetry::to_json_metrics(result.merged_telemetry, "    ");
  out += "\n  }";
  return out;
}

// `telemetry_section` is the pre-rendered value of the report's "telemetry"
// key (or empty to omit the key).
std::string format_report(const Options& opt, double baseline,
                          const scenario::RunResult& result,
                          const std::string& telemetry_section) {
  const std::vector<scenario::ProcessOutcome>& children = result.processes;
  // The workload and policy strings are unbounded ("traffic:" specs):
  // appended, not formatted into the fixed buffer.
  char buffer[512];
  std::string out = "{\n  \"tool\": \"rubic_colocate\",\n  \"workload\": ";
  append_quoted(out, opt.workload);
  out += ",\n  \"policy\": ";
  append_quoted(out, opt.policy);
  out += ",\n  \"stm_backend\": ";
  append_quoted(out, stm::backend_name(opt.stm_backend));
  out += ",\n";
  std::snprintf(buffer, sizeof buffer,
                "  \"procs\": %d,\n"
                "  \"contexts\": %d,\n"
                "  \"pool\": %d,\n"
                "  \"seconds\": %d,\n"
                "  \"wall_seconds\": %.3f,\n"
                "  \"baseline_tasks_per_second\": %.3f,\n"
                "  \"processes\": [\n",
                opt.procs, opt.contexts, opt.pool, opt.seconds,
                result.wall_seconds, baseline);
  out += buffer;
  std::vector<double> speedups;
  std::vector<double> efficiencies;
  int dead = 0;
  int solos = 0;
  for (std::size_t i = 0; i < children.size(); ++i) {
    const auto& child = children[i];
    const auto& p = child.payload;
    // Scored on the final report, or on the last heartbeat of a child that
    // never finished; only finished children enter the system metrics.
    const bool done = completed(child);
    const double speedup = metrics::speedup(
        done ? p.tasks_per_second : p.throughput, baseline);
    const double efficiency =
        metrics::efficiency(speedup, done ? p.mean_level : p.level);
    if (done) {
      speedups.push_back(speedup);
      efficiencies.push_back(efficiency);
    } else if (solo(child)) {
      // Finished cleanly in the degraded bus-less mode: a survivor whose
      // metrics are simply not observable from the launcher.
      ++solos;
    } else {
      ++dead;
    }
    std::snprintf(
        buffer, sizeof buffer,
        "    {\"pid\": %d, \"label\": \"%s\", \"completed\": %s, "
        "\"solo\": %s, \"hung\": %s, \"exit_code\": %d, \"signal\": %d, "
        "\"tasks_per_second\": %.3f, \"tasks_completed\": %llu, "
        "\"mean_level\": %.2f, \"final_level\": %d, "
        "\"commits\": %llu, \"aborts\": %llu, \"commit_ratio\": %.4f, "
        "\"speedup\": %.4f, \"efficiency\": %.4f}%s\n",
        static_cast<int>(child.pid), escaped(p.label).c_str(),
        done ? "true" : "false", solo(child) ? "true" : "false",
        child.hung ? "true" : "false", child.exit_code, child.signal,
        done ? p.tasks_per_second : p.throughput,
        static_cast<unsigned long long>(p.tasks_completed),
        done ? p.mean_level : 0.0, done ? p.final_level : p.level,
        static_cast<unsigned long long>(p.commits),
        static_cast<unsigned long long>(p.aborts),
        p.commits + p.aborts
            ? static_cast<double>(p.commits) /
                  static_cast<double>(p.commits + p.aborts)
            : 1.0,
        speedup, efficiency, i + 1 < children.size() ? "," : "");
    out += buffer;
  }
  out += "  ],\n";
  if (!telemetry_section.empty()) {
    out += "  \"telemetry\": ";
    out += telemetry_section;
    out += ",\n";
  }
  std::snprintf(
      buffer, sizeof buffer,
      "  \"system\": {\"nsbp\": %.6g, \"efficiency_product\": %.6g, "
      "\"jain\": %.4f, \"survivors\": %d, \"solo\": %d, \"dead\": %d}\n"
      "}\n",
      metrics::nsbp_product(speedups),
      metrics::efficiency_product(efficiencies),
      metrics::jain_fairness(speedups),
      static_cast<int>(children.size()) - dead, solos, dead);
  out += buffer;
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  try {
    util::Cli cli(argc, argv);
    const bool list_workloads = cli.get_bool("list-workloads");
    const bool list_controllers = cli.get_bool("list-controllers");
    const bool list_backends = cli.get_bool("list-backends");
    const bool list_fault_sites = cli.get_bool("list-fault-sites");
    if (list_workloads || list_controllers || list_backends ||
        list_fault_sites) {
      // One shared renderer (util/listing.hpp) so every binary's listing is
      // sorted and byte-identical for the same registry.
      if (list_workloads) {
        util::print_name_list(workloads::known_workloads());
      }
      if (list_controllers) {
        util::print_name_list(control::known_policies());
      }
      if (list_backends) {
        std::vector<std::string_view> names;
        for (const auto k : stm::known_backends()) {
          names.push_back(stm::backend_name(k));
        }
        util::print_name_list(std::move(names));
      }
      if (list_fault_sites) {
        util::print_name_list(fault::known_site_names());
      }
      return 0;
    }

    opt.procs = static_cast<int>(cli.get_int("procs", opt.procs));
    opt.workload = cli.get_string("workload", opt.workload);
    opt.policy = cli.get_string("policy", opt.policy);
    const std::string backend_flag = cli.get_string("stm-backend", "");
    if (!backend_flag.empty()) {
      const auto parsed = stm::parse_backend(backend_flag);
      if (!parsed) {
        std::fprintf(stderr,
                     "rubic_colocate: unknown --stm-backend '%s' "
                     "(try --list-backends)\n",
                     backend_flag.c_str());
        return 2;
      }
      opt.stm_backend = *parsed;
    }
    opt.seconds = static_cast<int>(cli.get_int("seconds", opt.seconds));
    opt.baseline_seconds = static_cast<int>(
        cli.get_int("baseline-seconds", opt.baseline_seconds));
    opt.contexts = static_cast<int>(cli.get_int("contexts", 0));
    opt.pool = static_cast<int>(cli.get_int("pool", 0));
    opt.period_ms = static_cast<int>(cli.get_int("period-ms", opt.period_ms));
    opt.chaos_kill_ms =
        static_cast<int>(cli.get_int("chaos-kill-ms", opt.chaos_kill_ms));
    opt.hung_after_ms =
        static_cast<int>(cli.get_int("hung-after-ms", opt.hung_after_ms));
    opt.fault_spec = cli.get_string("fault-spec", "");
    opt.bus_name = cli.get_string("bus", "");
    opt.json_path = cli.get_string("json", "");
    opt.trace_out = cli.get_string("trace-out", "");
    opt.telemetry = cli.get_bool("telemetry");
    opt.prom_out = cli.get_string("prom-out", "");
    opt.audit_out = cli.get_string("audit-out", "");
    opt.listen = cli.get_string("listen", "");
    opt.profile = cli.get_bool("profile");
    cli.check_unknown();
    if (!opt.fault_spec.empty()) {
      fault::Plan::parse(opt.fault_spec);  // reject bad specs before forking
    }
    if (!opt.listen.empty() &&
        !telemetry::parse_listen_spec(opt.listen)) {
      std::fprintf(stderr,
                   "rubic_colocate: bad --listen value '%s' "
                   "(want PORT or HOST:PORT)\n",
                   opt.listen.c_str());
      return 2;
    }
    if (!control::policy_known(opt.policy)) {
      std::fprintf(stderr,
                   "rubic_colocate: unknown --policy '%s' "
                   "(try --list-controllers)\n",
                   opt.policy.c_str());
      return 2;
    }

    if (opt.procs < 1 || opt.seconds < 1) {
      std::fprintf(stderr,
                   "usage: rubic_colocate --procs N --workload W --policy P "
                   "(W: registry name or traffic:mix=...;curve=...) "
                   "[--stm-backend B] "
                   "[--seconds S] [--contexts C] [--pool SZ] [--period-ms M] "
                   "[--baseline-seconds B] [--chaos-kill-ms T] "
                   "[--hung-after-ms T] "
                   "[--fault-spec SPEC] [--bus /name] "
                   "[--json out.json] [--trace-out trace.json] "
                   "[--telemetry] [--prom-out metrics.prom] "
                   "[--audit-out prefix] "
                   "[--listen PORT|HOST:PORT] [--profile] "
                   "[--list-workloads] [--list-controllers] "
                   "[--list-backends] [--list-fault-sites]\n");
      return 2;
    }
    if (opt.contexts <= 0) {
      opt.contexts =
          std::max(1, static_cast<int>(std::thread::hardware_concurrency()));
    }
    if (opt.pool <= 0) opt.pool = 2 * opt.contexts;
    if (opt.bus_name.empty()) {
      opt.bus_name =
          "/rubic-colocate-" + std::to_string(static_cast<int>(getpid()));
    }

    // Sequential baseline for the speed-up denominators (paper §4.1's
    // T_seq), measured before any fork while the machine is otherwise idle.
    // All baseline threads are joined before fork() — mandatory for a safe
    // fork-without-exec.
    double baseline = 0.0;
    if (opt.baseline_seconds > 0) baseline = measure_baseline(opt);

    const scenario::RunResult result =
        scenario::run_scenario(make_spec(opt), make_engine_options(opt));
    const std::vector<scenario::ProcessOutcome>& children = result.processes;
    for (const scenario::TroubleOutcome& trouble : result.troubles) {
      if (!trouble.delivered) continue;
      std::fprintf(stderr, "chaos: SIGKILLed child %d after %lld ms\n",
                   static_cast<int>(children.front().pid),
                   static_cast<long long>(trouble.applied_at_ms));
    }

    std::string section;
    if (result.telemetry_enabled) {
      section = telemetry_section(result);
      if (!opt.prom_out.empty() &&
          !trace::write_file(opt.prom_out,
                             telemetry::to_prometheus(result.merged_telemetry))) {
        std::fprintf(stderr, "failed to write %s\n", opt.prom_out.c_str());
      }
    }
    const std::string report = format_report(opt, baseline, result, section);
    std::fputs(report.c_str(), stdout);
    if (!opt.json_path.empty() && !trace::write_file(opt.json_path, report)) {
      std::fprintf(stderr, "failed to write %s\n", opt.json_path.c_str());
    }

    // The launcher succeeds if every child that we did NOT kill ourselves
    // finished cleanly (a bus-less solo run still counts); a chaos-killed
    // child is an expected casualty. Every other death is named on stderr —
    // a silent dead slot in the JSON is not a diagnosis.
    int failures = 0;
    for (std::size_t i = 0; i < children.size(); ++i) {
      const scenario::ProcessOutcome& child = children[i];
      const bool chaos_victim = opt.chaos_kill_ms > 0 && i == 0;
      if (completed(child) || solo(child) || chaos_victim) continue;
      ++failures;
      if (child.hung) {
        std::fprintf(stderr,
                     "rubic_colocate: child %d (%s/%s) hung: no exit and no "
                     "bus heartbeat within %d ms past its run; SIGKILLed by "
                     "the watchdog\n",
                     static_cast<int>(child.pid), opt.workload.c_str(),
                     opt.policy.c_str(), opt.hung_after_ms);
      } else if (child.signal != 0) {
        std::fprintf(stderr,
                     "rubic_colocate: child %d (%s/%s) died: killed by "
                     "signal %d (%s)\n",
                     static_cast<int>(child.pid), opt.workload.c_str(),
                     opt.policy.c_str(), child.signal,
                     strsignal(child.signal));
      } else {
        std::fprintf(stderr,
                     "rubic_colocate: child %d (%s/%s) died: exited with "
                     "code %d\n",
                     static_cast<int>(child.pid), opt.workload.c_str(),
                     opt.policy.c_str(), child.exit_code);
      }
    }
    return failures == 0 ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "rubic_colocate: %s\n", e.what());
    if (!opt.bus_name.empty()) ipc::CoLocationBus::unlink(opt.bus_name);
    return 2;
  }
}
