// rubic_soak — scenario-scripted soak orchestrator.
//
// Runs one declarative scenario file (scenarios/*.scn, grammar in
// src/scenario/spec.hpp and docs/soak.md): forks the scripted co-located
// processes on a private co-location bus, delivers the scripted troubles
// (kills, freeze/thaw windows, per-process fault plans), checks the
// declared invariants continuously and at exit, and writes one
// rubic-soak-report/v1 JSON document naming every verdict, the first
// violation's timestamp, and the telemetry snapshot nearest to it.
//
// Exit codes: 0 every invariant held and nothing died unexpectedly;
// 1 a violation or unexpected death; 2 usage / unreadable or invalid spec.
//
// Live introspection (docs/observability.md): --listen PORT|HOST:PORT
// serves /metrics, /status, /hotspots, /healthz from the parent for the
// duration of the run; --profile arms the contention profiler in every
// child. `kill -USR1 <pid>` dumps merged telemetry + contention snapshots
// next to the part base without stopping the run.
//
// Run:  rubic_soak --scenario scenarios/tenant_churn.scn
//       rubic_soak --scenario s.scn --json report.json --quiet-children
//       rubic_soak --scenario s.scn --listen 9464 --profile
//       rubic_soak --list-fault-sites
#include <unistd.h>

#include <cstdio>
#include <string>

#include "src/fault/fault.hpp"
#include "src/scenario/engine.hpp"
#include "src/telemetry/snapshot_signal.hpp"
#include "src/trace/trace.hpp"
#include "src/util/cli.hpp"
#include "src/util/listing.hpp"

using namespace rubic;

int main(int argc, char** argv) {
  try {
    util::Cli cli(argc, argv);
    if (cli.get_bool("list-fault-sites")) {
      // Same renderer as every other listing flag (util/listing.hpp), and
      // the same names Plan::parse quotes on an unknown-site error.
      util::print_name_list(fault::known_site_names());
      return 0;
    }
    const std::string scenario_path = cli.get_string("scenario", "");
    const std::string json_path = cli.get_string("json", "");
    scenario::EngineOptions opt;
    opt.bus_name = cli.get_string("bus", "");
    std::string part_base = cli.get_string("part-base", "");
    opt.child.telemetry = !cli.get_bool("no-telemetry");
    opt.echo_child_stderr = !cli.get_bool("quiet-children");
    opt.listen = cli.get_string("listen", "");
    opt.child.profiler = cli.get_bool("profile");
    cli.check_unknown();

    if (scenario_path.empty()) {
      std::fprintf(stderr,
                   "usage: rubic_soak --scenario file.scn [--json out.json] "
                   "[--bus /name] [--part-base path] [--no-telemetry] "
                   "[--quiet-children] [--listen PORT|HOST:PORT] [--profile] "
                   "[--list-fault-sites]\n");
      return 2;
    }

    // SIGUSR1 = on-demand merged snapshot dump; the engine's tick loop
    // polls the counter. Live parts must be flowing for the dump (and the
    // endpoint) to have anything to merge.
    telemetry::install_snapshot_signal();
    if (part_base.empty()) {
      part_base = "rubic_soak_" + std::to_string(static_cast<int>(getpid()));
    }
    opt.child.telemetry_base = part_base;
    opt.child.live_base = part_base;

    const scenario::ScenarioSpec spec =
        scenario::load_scenario(scenario_path);
    const scenario::RunResult result = scenario::run_scenario(spec, opt);
    const std::string report = scenario::report_json(result);
    std::fputs(report.c_str(), stdout);
    if (!json_path.empty() && !trace::write_file(json_path, report)) {
      std::fprintf(stderr, "rubic_soak: failed to write %s\n",
                   json_path.c_str());
    }

    for (const scenario::InvariantVerdict& verdict : result.verdicts) {
      if (verdict.passed) continue;
      std::fprintf(stderr,
                   "rubic_soak: invariant %s violated at %lld ms "
                   "(nearest snapshot %lld ms): %s\n",
                   std::string(
                       scenario::invariant_kind_name(verdict.invariant.kind))
                       .c_str(),
                   static_cast<long long>(verdict.first_violation_ms),
                   static_cast<long long>(verdict.nearest_snapshot_ms),
                   verdict.detail.c_str());
    }
    for (const scenario::ProcessOutcome& proc : result.processes) {
      if (proc.outcome == "hung" || proc.outcome == "crashed" ||
          proc.outcome == "died" || proc.outcome == "verify-failed") {
        std::fprintf(stderr, "rubic_soak: process '%s' %s (exit %d signal "
                     "%d)\n",
                     proc.name.c_str(), proc.outcome.c_str(), proc.exit_code,
                     proc.signal);
      }
    }
    return result.passed ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "rubic_soak: %s\n", e.what());
    return 2;
  }
}
