// rubic_synchro — Synchrobench-style evaluation grid over src/tds/.
//
// Closed-loop driver sweeping structure × backend × update-ratio ×
// key-range × threads × controller with fixed seeds. Each cell builds a
// fresh STM runtime on the cell's backend, fills the cell's structure
// through the seeded tds harness, and runs the `synchro` workload under a
// TunedProcess (so adaptive policies like `rubic` tune the cell's
// parallelism exactly the way co-located tenants are tuned); the cell's
// metric is closed-loop committed tasks/s, and the structure is verified
// against its own invariants after every repetition — a sweep that
// corrupts a structure fails loudly instead of reporting throughput.
//
// Results are written by the shared bench-results writer
// (src/telemetry/bench_results.hpp), the one rubic_bench uses, so
// scripts/bench_compare.py trend-diffs and
// scripts/check_backend_grid.py --synchro completeness checks work
// unchanged. Cell names are
//   synchro_<structure>_<backend>_u<update%>_r<keyrange>_t<threads>_<policy>
// and are never gated: multi-threaded throughput on a shared CI runner is
// a trend signal, not a regression gate (the gated synchro_*_rmw_ns cells
// live in rubic_bench's micro_tds suite).
//
// Run:  rubic_synchro --out synchro_grid.json
//       rubic_synchro --structures skiplist,btree --backends orec_swiss
//                     --updates 0,20,100 --threads 1,4 --cell-ms 500
//       rubic_synchro --list-structures / --list-backends / --list-controllers
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "src/control/factory.hpp"
#include "src/control/fixed.hpp"
#include "src/runtime/process.hpp"
#include "src/stm/stm.hpp"
#include "src/tds/registry.hpp"
#include "src/telemetry/bench_results.hpp"
#include "src/trace/trace.hpp"
#include "src/util/cli.hpp"
#include "src/util/listing.hpp"
#include "src/workloads/synchro_workload.hpp"

using namespace rubic;
using namespace std::chrono;

namespace {

struct Options {
  std::vector<std::string> structures;   // default: every known structure
  std::vector<std::string> backends;     // default: every known backend
  std::vector<int> updates{20};          // Synchrobench -u, percent
  std::vector<std::int64_t> ranges{16 * 1024};  // key universe per cell
  std::vector<int> threads{4};
  std::vector<std::string> controllers{"fixed"};
  int cell_ms = 400;
  int reps = 1;
  int scan_pct = 5;
  std::uint64_t seed = 0x5c2a11ceULL;
  std::string out = "synchro_grid.json";
};

std::vector<std::string> split_csv(const std::string& csv) {
  std::vector<std::string> out;
  std::size_t start = 0;
  while (start <= csv.size()) {
    const std::size_t comma = csv.find(',', start);
    const std::size_t end = comma == std::string::npos ? csv.size() : comma;
    if (end > start) out.push_back(csv.substr(start, end - start));
    if (comma == std::string::npos) break;
    start = comma + 1;
  }
  return out;
}

std::vector<int> parse_int_list(const std::string& csv, const char* flag) {
  std::vector<int> out;
  for (const std::string& item : split_csv(csv)) {
    std::size_t used = 0;
    const int value = std::stoi(item, &used);
    if (used != item.size()) {
      throw std::invalid_argument(std::string("--") + flag +
                                  ": bad integer '" + item + "'");
    }
    out.push_back(value);
  }
  if (out.empty()) {
    throw std::invalid_argument(std::string("--") + flag + ": empty list");
  }
  return out;
}

std::vector<std::string_view> backend_names() {
  std::vector<std::string_view> names;
  for (const stm::BackendKind kind : stm::known_backends()) {
    names.push_back(stm::backend_name(kind));
  }
  return names;
}

std::vector<std::string_view> controller_names() {
  // "fixed" pins the pool at the cell's thread count — the classic
  // Synchrobench shape; everything else is the tuning-policy registry.
  std::vector<std::string_view> names{"fixed"};
  for (const std::string_view policy : control::known_policies()) {
    names.push_back(policy);
  }
  return names;
}

// Policy names may carry ':' (adaptive:rubic); keep cell names flat.
std::string sanitize(std::string name) {
  for (char& c : name) {
    if (c == ':' || c == '=' || c == ',') c = '-';
  }
  return name;
}

std::string cell_name(const std::string& structure,
                      const std::string& backend, int update,
                      std::int64_t range, int threads,
                      const std::string& controller) {
  char buffer[256];
  std::snprintf(buffer, sizeof buffer, "synchro_%s_%s_u%d_r%lld_t%d_%s",
                structure.c_str(), backend.c_str(), update,
                static_cast<long long>(range), threads,
                sanitize(controller).c_str());
  return buffer;
}

// Runs one repetition of one cell; returns closed-loop tasks/s.
double run_cell_once(const Options& opt, const std::string& structure,
                     stm::BackendKind backend, int update, std::int64_t range,
                     int threads, const std::string& controller) {
  stm::RuntimeConfig cfg;
  cfg.backend = backend;
  stm::Runtime rt(cfg);

  workloads::SynchroParams params;
  params.structure = structure;
  params.key_range = range;
  params.initial_size = std::max<std::int64_t>(1, range / 2);
  params.update_pct = update;
  params.scan_pct = opt.scan_pct;
  params.seed = opt.seed;
  workloads::SynchroWorkload workload(rt, params);

  std::unique_ptr<control::Controller> policy;
  if (controller == "fixed") {
    policy = std::make_unique<control::FixedController>(
        control::LevelBounds{1, threads}, threads);
  } else {
    control::PolicyConfig policy_cfg;
    policy_cfg.contexts = threads;
    policy_cfg.pool_size = threads;
    policy = control::make_controller(controller, policy_cfg);
  }

  runtime::ProcessConfig config;
  config.pool.pool_size = threads;
  config.monitor.period = milliseconds(10);
  config.monitor.stm_runtime = &rt;
  runtime::TunedProcess process(rt, workload, *policy, config);
  const runtime::RunReport report =
      process.run_for(milliseconds(opt.cell_ms));

  std::string error;
  if (!workload.verify(&error)) {
    std::fprintf(stderr, "rubic_synchro: verification failed in %s: %s\n",
                 workload.name().data(), error.c_str());
    std::exit(1);
  }
  return report.tasks_per_second;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    util::Cli cli(argc, argv);
    const bool list_structures = cli.get_bool("list-structures");
    const bool list_backends = cli.get_bool("list-backends");
    const bool list_controllers = cli.get_bool("list-controllers");

    Options opt;
    const std::string structures_csv = cli.get_string("structures", "all");
    const std::string backends_csv = cli.get_string("backends", "all");
    const std::string updates_csv = cli.get_string("updates", "20");
    const std::string ranges_csv = cli.get_string("ranges", "16384");
    const std::string threads_csv = cli.get_string("threads", "4");
    const std::string controllers_csv = cli.get_string("controllers", "fixed");
    opt.cell_ms = static_cast<int>(cli.get_int("cell-ms", 400));
    opt.reps = static_cast<int>(cli.get_int("reps", 1));
    opt.scan_pct = static_cast<int>(cli.get_int("scan-pct", 5));
    opt.seed = static_cast<std::uint64_t>(cli.get_int("seed", 0x5c2a11ceLL));
    opt.out = cli.get_string("out", "synchro_grid.json");
    const std::string git_sha_flag = cli.get_string("git-sha", "");
    cli.check_unknown();

    if (list_structures) util::print_name_list(tds::known_structures());
    if (list_backends) util::print_name_list(backend_names());
    if (list_controllers) util::print_name_list(controller_names());
    if (list_structures || list_backends || list_controllers) return 0;

    if (opt.cell_ms < 1 || opt.reps < 1) {
      std::fprintf(stderr,
                   "rubic_synchro: --cell-ms and --reps must be >= 1\n");
      return 2;
    }

    // Resolve and validate every dimension up front so a typo fails before
    // the first cell burns wall-clock.
    if (structures_csv == "all") {
      for (const std::string_view s : tds::known_structures()) {
        opt.structures.emplace_back(s);
      }
    } else {
      opt.structures = split_csv(structures_csv);
      for (const std::string& s : opt.structures) {
        (void)tds::make_structure(s);  // throws, naming the candidates
      }
    }
    std::vector<stm::BackendKind> backends;
    if (backends_csv == "all") {
      backends = stm::known_backends();
    } else {
      for (const std::string& b : split_csv(backends_csv)) {
        const auto kind = stm::parse_backend(b);
        if (!kind) {
          std::fprintf(stderr,
                       "rubic_synchro: unknown backend '%s' "
                       "(try --list-backends)\n",
                       b.c_str());
          return 2;
        }
        backends.push_back(*kind);
      }
    }
    opt.updates = parse_int_list(updates_csv, "updates");
    for (const int u : opt.updates) {
      if (u < 0 || u > 100) {
        std::fprintf(stderr, "rubic_synchro: --updates must be 0..100\n");
        return 2;
      }
      if (opt.scan_pct < 0 || u + opt.scan_pct > 100) {
        std::fprintf(stderr,
                     "rubic_synchro: --updates %d + --scan-pct %d exceeds "
                     "100%%\n",
                     u, opt.scan_pct);
        return 2;
      }
    }
    const std::vector<int> ranges_int = parse_int_list(ranges_csv, "ranges");
    opt.ranges.clear();
    for (const int r : ranges_int) {
      if (r < 2) {
        std::fprintf(stderr, "rubic_synchro: --ranges must be >= 2\n");
        return 2;
      }
      opt.ranges.push_back(r);
    }
    opt.threads = parse_int_list(threads_csv, "threads");
    for (const int t : opt.threads) {
      if (t < 1) {
        std::fprintf(stderr, "rubic_synchro: --threads must be >= 1\n");
        return 2;
      }
    }
    opt.controllers = split_csv(controllers_csv);
    for (const std::string& c : opt.controllers) {
      if (c != "fixed" && !control::policy_known(c)) {
        std::fprintf(stderr,
                     "rubic_synchro: unknown controller '%s' "
                     "(try --list-controllers)\n",
                     c.c_str());
        return 2;
      }
    }

    const std::size_t total = opt.structures.size() * backends.size() *
                              opt.updates.size() * opt.ranges.size() *
                              opt.threads.size() * opt.controllers.size();
    std::printf("rubic_synchro: %zu cells x %d reps x %d ms\n", total,
                opt.reps, opt.cell_ms);

    std::vector<telemetry::BenchCell> results;
    std::size_t done = 0;
    for (const std::string& structure : opt.structures) {
      for (const stm::BackendKind backend : backends) {
        const std::string backend_str{stm::backend_name(backend)};
        for (const int update : opt.updates) {
          for (const std::int64_t range : opt.ranges) {
            for (const int threads : opt.threads) {
              for (const std::string& controller : opt.controllers) {
                telemetry::BenchCell cell{
                    cell_name(structure, backend_str, update, range, threads,
                              controller),
                    "tasks_per_s", "higher", false, {}};
                for (int rep = 0; rep < opt.reps; ++rep) {
                  cell.values.push_back(run_cell_once(opt, structure, backend,
                                                      update, range, threads,
                                                      controller));
                }
                ++done;
                std::printf("  [%zu/%zu] %-56s median=%.4g tasks/s\n", done,
                            total, cell.name.c_str(),
                            telemetry::summarize_reps(cell.values).median);
                std::fflush(stdout);
                results.push_back(std::move(cell));
              }
            }
          }
        }
      }
    }

    const std::string git_sha = telemetry::resolve_git_sha(git_sha_flag);
    const std::string report =
        telemetry::format_bench_results("synchro", opt.reps, git_sha, results);
    if (!trace::write_file(opt.out, report)) {
      std::fprintf(stderr, "rubic_synchro: failed to write %s\n",
                   opt.out.c_str());
      return 1;
    }
    std::printf("wrote %s (git %s)\n", opt.out.c_str(),
                git_sha.substr(0, 12).c_str());
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "rubic_synchro: %s\n", e.what());
    return 2;
  }
}
