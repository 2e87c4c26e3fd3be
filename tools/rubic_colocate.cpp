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
// Robustness: a child that dies mid-run (crash, OOM-kill, kill -9) simply
// stops heartbeating — the survivors' monitors never block on it, bus-based
// EqualShare re-divides the contexts once the heartbeat goes stale, and the
// final JSON marks the dead slot instead of hanging the run.
// `--chaos-kill-ms T` makes the launcher itself SIGKILL its first child
// after T ms, exercising exactly that path (used by the ctest suite).
//
// Run:  rubic_colocate --procs 2 --workload intruder --policy rubic
//       rubic_colocate --procs 3 --workload rbset --policy equalshare
//                      --contexts 8 --seconds 5 --json out.json
//       rubic_colocate --list-workloads   /   --list-controllers
#include <signal.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "src/control/factory.hpp"
#include "src/control/fixed.hpp"
#include "src/fault/fault.hpp"
#include "src/ipc/colocation_bus.hpp"
#include "src/metrics/metrics.hpp"
#include "src/runtime/process.hpp"
#include "src/scenario/launcher.hpp"
#include "src/telemetry/http_server.hpp"
#include "src/telemetry/json.hpp"
#include "src/telemetry/telemetry.hpp"
#include "src/trace/trace.hpp"
#include "src/util/cli.hpp"
#include "src/util/listing.hpp"
#include "src/workloads/registry.hpp"

using namespace rubic;
using namespace std::chrono;
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

std::string read_file(const std::string& path) {
  std::string out;
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return out;
  char buffer[4096];
  std::size_t n = 0;
  while ((n = std::fread(buffer, 1, sizeof buffer, f)) > 0) {
    out.append(buffer, n);
  }
  std::fclose(f);
  return out;
}

struct ChildResult {
  pid_t pid = 0;
  bool completed = false;  // exited 0 AND published a final report
  bool solo = false;       // exited 0 without a bus slot (degraded mode)
  bool hung = false;       // watchdog SIGKILL: neither exited nor heartbeat
  int exit_code = -1;
  int signal = 0;
  bool found_on_bus = false;
  ipc::SlotPayload payload{};
  double speedup = 0.0;
  double efficiency = 0.0;
};

// The shared launcher's child configuration for one rubic_colocate child.
// The child body itself (slot claim with backoff, solo fallback, policy
// construction, final-sample publish, trace/audit/telemetry part dumps,
// exit-time verify) lives in src/scenario/launcher.cpp, shared with the
// rubic_soak orchestrator.
scenario::ChildRun make_child_run(const Options& opt, int child_index) {
  scenario::ChildRun run;
  run.label = opt.workload + "/" + opt.policy;
  run.workload = opt.workload;
  run.policy = opt.policy;
  run.backend = opt.stm_backend;
  run.fault_spec = opt.fault_spec;
  run.run_ms = static_cast<std::int64_t>(opt.seconds) * 1000;
  run.contexts = opt.contexts;
  run.pool = opt.pool;
  run.period_ms = opt.period_ms;
  run.child_index = child_index;
  run.procs = opt.procs;
  run.telemetry = opt.telemetry_enabled();
  if (run.telemetry) run.telemetry_base = telemetry_base(opt);
  run.trace_base = opt.trace_out;
  run.audit_base = opt.audit_out;
  run.profiler = opt.profile;
  if (!opt.listen.empty()) run.live_base = telemetry_base(opt);
  return run;
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

// `telemetry_section` is the pre-rendered value of the report's "telemetry"
// key (or empty to omit the key) — built by the parent from the child
// snapshot parts after the run.
std::string format_report(const Options& opt, double baseline,
                          const std::vector<ChildResult>& children,
                          double wall_seconds,
                          const std::string& telemetry_section) {
  std::vector<double> speedups;
  std::vector<double> efficiencies;
  int dead = 0;
  int solo = 0;
  for (const auto& child : children) {
    if (child.completed) {
      speedups.push_back(child.speedup);
      efficiencies.push_back(child.efficiency);
    } else if (child.solo) {
      // Finished cleanly in the degraded bus-less mode: a survivor whose
      // metrics are simply not observable from the launcher.
      ++solo;
    } else {
      ++dead;
    }
  }

  char buffer[512];
  std::string out = "{\n";
  std::snprintf(buffer, sizeof buffer,
                "  \"tool\": \"rubic_colocate\",\n"
                "  \"workload\": \"%s\",\n"
                "  \"policy\": \"%s\",\n"
                "  \"stm_backend\": \"%s\",\n"
                "  \"procs\": %d,\n"
                "  \"contexts\": %d,\n"
                "  \"pool\": %d,\n"
                "  \"seconds\": %d,\n"
                "  \"wall_seconds\": %.3f,\n"
                "  \"baseline_tasks_per_second\": %.3f,\n"
                "  \"processes\": [\n",
                escaped(opt.workload).c_str(),
                escaped(opt.policy).c_str(),
                std::string(stm::backend_name(opt.stm_backend)).c_str(),
                opt.procs, opt.contexts,
                opt.pool, opt.seconds, wall_seconds, baseline);
  out += buffer;
  for (std::size_t i = 0; i < children.size(); ++i) {
    const auto& child = children[i];
    const auto& p = child.payload;
    std::snprintf(
        buffer, sizeof buffer,
        "    {\"pid\": %d, \"label\": \"%s\", \"completed\": %s, "
        "\"solo\": %s, \"hung\": %s, \"exit_code\": %d, \"signal\": %d, "
        "\"tasks_per_second\": %.3f, \"tasks_completed\": %llu, "
        "\"mean_level\": %.2f, \"final_level\": %d, "
        "\"commits\": %llu, \"aborts\": %llu, \"commit_ratio\": %.4f, "
        "\"speedup\": %.4f, \"efficiency\": %.4f}%s\n",
        static_cast<int>(child.pid), escaped(p.label).c_str(),
        child.completed ? "true" : "false", child.solo ? "true" : "false",
        child.hung ? "true" : "false", child.exit_code, child.signal,
        child.completed ? p.tasks_per_second : p.throughput,
        static_cast<unsigned long long>(p.tasks_completed),
        child.completed ? p.mean_level : 0.0,
        child.completed ? p.final_level : p.level,
        static_cast<unsigned long long>(p.commits),
        static_cast<unsigned long long>(p.aborts),
        p.commits + p.aborts
            ? static_cast<double>(p.commits) /
                  static_cast<double>(p.commits + p.aborts)
            : 1.0,
        child.speedup, child.efficiency,
        i + 1 < children.size() ? "," : "");
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
      static_cast<int>(children.size()) - dead, solo, dead);
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

    ipc::BusConfig bus_config;
    bus_config.name = opt.bus_name;
    bus_config.contexts = opt.contexts;
    bus_config.max_slots = opt.procs + 4;
    bus_config.stale_after = milliseconds(25 * opt.period_ms);
    auto bus = ipc::CoLocationBus::create_or_attach(bus_config);

    std::vector<pid_t> pids;
    for (int i = 0; i < opt.procs; ++i) {
      const scenario::ChildRun run = make_child_run(opt, i);
      ipc::CoLocationBus* bus_ptr = bus.get();
      const pid_t pid = scenario::spawn_child(
          [&run, bus_ptr]() { return scenario::run_workload_child(run, bus_ptr); });
      if (pid < 0) {
        std::perror("fork");
        ipc::CoLocationBus::unlink(opt.bus_name);
        return 1;
      }
      pids.push_back(pid);
    }

    const auto wall_start = steady_clock::now();

    // Live introspection: all children are forked, so `pids` is final and
    // the handlers can capture it by reference. The server stops before the
    // bus and the live part files go away.
    std::unique_ptr<telemetry::HttpServer> server;
    if (!opt.listen.empty()) {
      const std::string live_base = telemetry_base(opt);
      server = std::make_unique<telemetry::HttpServer>(
          *telemetry::parse_listen_spec(opt.listen));
      server->route("/healthz",
                    [] { return telemetry::healthz_response(); });
      server->route("/metrics", [live_base, &pids] {
        return telemetry::HttpResponse{
            200, "text/plain; version=0.0.4; charset=utf-8",
            telemetry::to_prometheus(
                scenario::merged_live_telemetry(live_base, pids))};
      });
      server->route("/status", [bus_ptr = bus.get(), wall_start] {
        return telemetry::HttpResponse{
            200, "application/json; charset=utf-8",
            scenario::bus_status_json(
                "rubic_colocate", *bus_ptr,
                duration_cast<milliseconds>(steady_clock::now() - wall_start)
                    .count())};
      });
      server->route("/hotspots", [live_base, &pids] {
        return telemetry::HttpResponse{
            200, "application/json; charset=utf-8",
            stm::profiler::to_json(
                scenario::merged_live_contention(live_base, pids))};
      });
      server->start();
      std::fprintf(stderr, "rubic_colocate: introspection endpoint on %s:%u\n",
                   server->host().c_str(), server->port());
    }

    if (opt.chaos_kill_ms > 0 && !pids.empty()) {
      std::this_thread::sleep_for(milliseconds(opt.chaos_kill_ms));
      kill(pids.front(), SIGKILL);
      std::fprintf(stderr, "chaos: SIGKILLed child %d after %d ms\n",
                   static_cast<int>(pids.front()), opt.chaos_kill_ms);
    }

    // Reap under the hung-child watchdog: each child gets its run duration
    // plus --hung-after-ms of slack, after which a silent heartbeat means
    // SIGKILL and a distinct "hung" verdict in the report.
    std::vector<scenario::WatchedChild> watched;
    for (const pid_t pid : pids) {
      watched.push_back(
          {pid, wall_start + milliseconds(static_cast<std::int64_t>(
                                 opt.seconds) * 1000 + opt.hung_after_ms)});
    }
    const std::vector<scenario::ReapedChild> reaped =
        scenario::reap_with_watchdog(watched, bus.get(),
                                     milliseconds(25 * opt.period_ms));
    std::vector<ChildResult> children(pids.size());
    for (std::size_t i = 0; i < pids.size(); ++i) {
      children[i].pid = pids[i];
      children[i].exit_code = reaped[i].exit_code;
      children[i].signal = reaped[i].signal;
      children[i].hung = reaped[i].hung;
    }
    const double wall_seconds =
        duration<double>(steady_clock::now() - wall_start).count();

    // Collect every child's final report (or last heartbeat) from the bus.
    for (auto& child : children) {
      const ipc::PeerInfo info =
          bus->find_pid(static_cast<std::int32_t>(child.pid));
      child.found_on_bus = info.slot >= 0 && !info.torn;
      if (child.found_on_bus) child.payload = info.payload;
      child.completed = child.exit_code == 0 && child.found_on_bus &&
                        child.payload.done != 0;
      // A clean exit without a bus record means the child ran in the
      // degraded solo mode (no slot): the run succeeded, the metrics are
      // simply not observable from here.
      child.solo = child.exit_code == 0 && !child.completed;
      const double rate = child.completed ? child.payload.tasks_per_second
                                          : child.payload.throughput;
      child.speedup = metrics::speedup(rate, baseline);
      child.efficiency = metrics::efficiency(
          child.speedup,
          child.completed ? child.payload.mean_level : child.payload.level);
    }

    if (!opt.trace_out.empty()) {
      // Merge the per-child fragments into one Perfetto-loadable document.
      // A chaos-killed child never wrote its part (or wrote a truncated
      // tail); the merge skips missing files and partial lines.
      std::vector<std::string> fragments;
      for (const pid_t pid : pids) {
        const std::string part = scenario::part_path(opt.trace_out, pid,
                                                     ".part");
        fragments.push_back(read_file(part));
        ::unlink(part.c_str());
      }
      if (!trace::write_file(opt.trace_out,
                             trace::merge_chrome_fragments(fragments))) {
        std::fprintf(stderr, "failed to write %s\n", opt.trace_out.c_str());
      }
    }

    // Collect the per-child telemetry snapshots, merge them, and render the
    // report's "telemetry" key: per-process sections plus the cross-process
    // aggregate. Every expected part is accounted for — parsed, missing (a
    // chaos-killed or hung child never wrote one), or discarded (a torn
    // mid-write fragment) — instead of being silently skipped.
    std::string telemetry_section;
    if (opt.telemetry_enabled()) {
      std::vector<scenario::TelemetryPart> parts;
      for (const pid_t pid : pids) {
        parts.push_back(
            {pid, scenario::part_path(telemetry_base(opt), pid, ".tpart")});
      }
      const scenario::CollectedTelemetry collected =
          scenario::collect_telemetry_parts(parts);
      std::vector<telemetry::Snapshot> snapshots;
      std::string per_process;
      for (const auto& [pid, snap] : collected.snapshots) {
        if (!per_process.empty()) per_process += ",";
        per_process += "\n      {\"pid\": ";
        per_process += std::to_string(static_cast<int>(pid));
        per_process += ", \"metrics\": ";
        per_process += telemetry::to_json_metrics(snap, "      ");
        per_process += "}";
        snapshots.push_back(snap);
      }
      const telemetry::Snapshot merged = telemetry::merge_snapshots(snapshots);
      telemetry_section = "{\n    \"schema\": \"";
      telemetry_section += telemetry::kJsonSchema;
      telemetry_section += "\",\n    \"parts\": {\"expected\": ";
      telemetry_section += std::to_string(collected.expected);
      telemetry_section += ", \"merged\": ";
      telemetry_section += std::to_string(collected.merged);
      telemetry_section += ", \"missing\": ";
      telemetry_section += std::to_string(collected.missing);
      telemetry_section += ", \"discarded\": ";
      telemetry_section += std::to_string(collected.discarded);
      telemetry_section += "},\n    \"processes\": [";
      telemetry_section += per_process;
      if (!per_process.empty()) telemetry_section += "\n    ";
      telemetry_section += "],\n    \"merged\": ";
      telemetry_section += telemetry::to_json_metrics(merged, "    ");
      telemetry_section += "\n  }";
      if (!opt.prom_out.empty()) {
        if (!trace::write_file(opt.prom_out,
                               telemetry::to_prometheus(merged))) {
          std::fprintf(stderr, "failed to write %s\n", opt.prom_out.c_str());
        }
      }
    }

    const std::string report =
        format_report(opt, baseline, children, wall_seconds,
                      telemetry_section);
    std::fputs(report.c_str(), stdout);
    if (!opt.json_path.empty()) {
      if (std::FILE* f = std::fopen(opt.json_path.c_str(), "w")) {
        std::fputs(report.c_str(), f);
        std::fclose(f);
      } else {
        std::fprintf(stderr, "failed to write %s\n", opt.json_path.c_str());
      }
    }

    if (server) {
      server->stop();
      for (const pid_t pid : pids) {
        ::unlink(scenario::part_path(telemetry_base(opt), pid, ".tlive")
                     .c_str());
        ::unlink(scenario::part_path(telemetry_base(opt), pid, ".clive")
                     .c_str());
      }
    }

    bus.reset();
    ipc::CoLocationBus::unlink(opt.bus_name);

    // The launcher succeeds if every child that we did NOT kill ourselves
    // finished cleanly (a bus-less solo run still counts); a chaos-killed
    // child is an expected casualty. Every other death is named on stderr —
    // a silent dead slot in the JSON is not a diagnosis.
    int failures = 0;
    for (std::size_t i = 0; i < children.size(); ++i) {
      const ChildResult& child = children[i];
      const bool chaos_victim = opt.chaos_kill_ms > 0 && i == 0;
      if (child.completed || child.solo || chaos_victim) continue;
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
