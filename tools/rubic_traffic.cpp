// rubic_traffic — SLO-driven open-loop traffic runner.
//
// Runs the transactional KV service workload (src/traffic/) under one or
// more parallelism controllers over the *same* precomputed arrival schedule
// (same seed → bit-identical requests), so RUBIC, EqualShare and static
// baselines compare on what a service operator actually buys: per-phase
// p50/p99/p999 latency and SLO attainment under a fixed offered load. The
// generator is open-loop — a controller that starves the pool grows a
// backlog and blows the tail, it never slows the arrivals — and every run
// ends with the zero-sum + per-client sequence verification, which makes
// this binary double as a correctness harness under --fault-spec chaos.
//
// Live introspection (docs/observability.md): --listen PORT|HOST:PORT
// serves /metrics (live registry), /status (level, backend, controller
// phase, backlog, SLO attainment), /hotspots (contention profiler) and
// /healthz while a run is in flight. --profile arms the contention profiler
// without the endpoint; --contention-out writes the final
// rubic-contention/v1 document. `kill -USR1 <pid>` dumps telemetry +
// contention snapshots mid-run without stopping.
//
// Run:  rubic_traffic --mix ycsb-a --curve flash:base=500,spike=4000,seconds=6
//                     --policies rubic,fixed:4 --json out.json
//       rubic_traffic --mix tpcc-lite --rate 1500 --seconds 5 --policies rubic
//       rubic_traffic --mix ycsb-b --rate 2000 --listen 9464 --contention-out c.json
//       rubic_traffic --list-mixes / --list-controllers / --list-backends
#include <unistd.h>

#include <atomic>
#include <cstdio>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "src/control/factory.hpp"
#include "src/control/fixed.hpp"
#include "src/fault/fault.hpp"
#include "src/runtime/process.hpp"
#include "src/stm/profiler.hpp"
#include "src/telemetry/bench_results.hpp"
#include "src/telemetry/http_server.hpp"
#include "src/telemetry/json.hpp"
#include "src/telemetry/snapshot_signal.hpp"
#include "src/telemetry/telemetry.hpp"
#include "src/trace/trace.hpp"
#include "src/traffic/traffic.hpp"
#include "src/util/cli.hpp"
#include "src/util/listing.hpp"

using namespace rubic;
using namespace std::chrono;

namespace {

struct Options {
  traffic::TrafficConfig config;
  std::vector<std::string> policies = {"rubic"};
  stm::BackendKind stm_backend = stm::default_backend();
  int contexts = 0;  // 0 → hardware_concurrency
  int pool = 0;      // 0 → 2 × contexts
  int period_ms = 10;
  double timeout_factor = 4.0;  // timeout = factor × curve duration + 5 s
  std::string fault_spec;
  std::string json_path;
  std::string bench_out;
  std::string listen;          // "" = no live endpoint
  std::string contention_out;  // "" = no final contention document
  bool profile = false;        // arm the contention profiler
};

std::vector<std::string> split_list(const std::string& text) {
  std::vector<std::string> out;
  std::size_t at = 0;
  while (at <= text.size()) {
    const std::size_t comma = text.find(',', at);
    const std::string item =
        text.substr(at, comma == std::string::npos ? comma : comma - at);
    if (!item.empty()) out.push_back(item);
    if (comma == std::string::npos) break;
    at = comma + 1;
  }
  return out;
}

// "fixed:N" → a static level; anything else goes to the policy factory.
std::unique_ptr<control::Controller> make_policy(const std::string& policy,
                                                 const Options& opt) {
  if (policy.rfind("fixed:", 0) == 0) {
    const int level = std::stoi(policy.substr(6));
    return std::make_unique<control::FixedController>(
        control::LevelBounds{1, opt.pool}, level, "Fixed");
  }
  control::PolicyConfig config;
  config.contexts = opt.contexts;
  config.pool_size = opt.pool;
  // "adaptive" starts its backend search from the engine of this run.
  config.initial_backend = std::string(stm::backend_name(opt.stm_backend));
  if (policy == "equalshare") {
    // Single-process tool: the "central entity" sees one process and hands
    // it every context — EqualShare's intended degenerate behaviour.
    config.allocator =
        std::make_shared<control::CentralAllocator>(opt.contexts);
  }
  return control::make_controller(policy, config);
}

// --bench-out: each run's overall p50/p99/p999 latency and SLO attainment
// as one-value bench cells (all gate:false — regression gating picks
// specific names via the curated baseline, not this file).
std::vector<telemetry::BenchCell> bench_cells(
    const std::vector<traffic::RunResult>& runs) {
  std::vector<telemetry::BenchCell> cells;
  for (const traffic::RunResult& run : runs) {
    const traffic::PhaseSummary& overall = run.summary.overall;
    const std::string prefix = "traffic_" + run.policy + "_";
    cells.push_back(
        {prefix + "p50_us", "us", "lower", false, {overall.p50_us}});
    cells.push_back(
        {prefix + "p99_us", "us", "lower", false, {overall.p99_us}});
    cells.push_back(
        {prefix + "p999_us", "us", "lower", false, {overall.p999_us}});
    cells.push_back({prefix + "slo_attainment", "fraction", "higher", false,
                     {overall.slo_attainment}});
  }
  return cells;
}

// The /status body: the monitor's latest round (published under
// MonitorConfig::publish_status) plus the workload's open-loop debt — what
// an operator checks before blaming the SLO.
std::string traffic_status_json(const std::string& policy,
                                runtime::TunedProcess& process,
                                traffic::KvTrafficWorkload& workload) {
  using telemetry::jsonutil::append_double;
  using telemetry::jsonutil::append_quoted;
  using telemetry::jsonutil::append_u64;
  const runtime::LiveStatus status = process.monitor().live_status();
  const traffic::TrafficSummary sum = workload.summary();
  std::string out = "{\"tool\": \"rubic_traffic\", \"policy\": ";
  append_quoted(out, policy);
  out += ", \"backend\": ";
  append_quoted(out, status.backend);
  out += ", \"rounds\": ";
  append_u64(out, status.rounds);
  out += ", \"level\": ";
  append_u64(out, static_cast<std::uint64_t>(
                      status.level < 0 ? 0 : status.level));
  out += ", \"throughput\": ";
  append_double(out, status.throughput);
  out += ", \"commit_ratio\": ";
  append_double(out, status.commit_ratio);
  out += ", \"phase\": ";
  if (status.phase_valid) {
    append_quoted(out, status.phase_name);
  } else {
    out += "null";
  }
  out += ", \"backlog\": ";
  append_u64(out, workload.backlog_now());
  out += ", \"executed\": ";
  append_u64(out, sum.executed);
  out += ", \"scheduled\": ";
  append_u64(out, sum.scheduled);
  out += ", \"slo_attainment\": ";
  append_double(out, sum.overall.slo_attainment);
  out += "}\n";
  return out;
}

// Polls the SIGUSR1 counter (snapshot_signal.hpp) while runs are in flight
// and dumps telemetry + contention JSON next to the process without
// stopping it. One instance spans all policy runs.
class SignalWatcher {
 public:
  SignalWatcher() {
    thread_ = std::thread([this] {
      const std::string base =
          "rubic_traffic." + std::to_string(static_cast<int>(getpid()));
      while (!stop_.load(std::memory_order_acquire)) {
        if (telemetry::consume_snapshot_signal()) {
          trace::write_file(base + ".signal.telemetry.json",
                     telemetry::to_json(telemetry::registry().snapshot()));
          trace::write_file(base + ".signal.contention.json",
                     stm::profiler::to_json(stm::profiler::snapshot()));
          std::fprintf(stderr,
                       "rubic_traffic: SIGUSR1 snapshot -> "
                       "%s.signal.{telemetry,contention}.json\n",
                       base.c_str());
        }
        for (int waited = 0;
             waited < 200 && !stop_.load(std::memory_order_acquire);
             waited += 20) {
          std::this_thread::sleep_for(std::chrono::milliseconds(20));
        }
      }
    });
  }
  ~SignalWatcher() {
    stop_.store(true, std::memory_order_release);
    thread_.join();
  }
  SignalWatcher(const SignalWatcher&) = delete;
  SignalWatcher& operator=(const SignalWatcher&) = delete;

 private:
  std::atomic<bool> stop_{false};
  std::thread thread_;
};

traffic::RunResult run_policy(const std::string& policy, const Options& opt) {
  // Each policy gets a fresh fault plan so all runs see the identical
  // per-site schedule (hit counters restart from zero). Declared before
  // the process, so it stays armed until the workers are joined.
  std::unique_ptr<fault::Plan> plan;
  std::optional<fault::Armed> armed;
  if (!opt.fault_spec.empty()) {
    plan = fault::Plan::parse(opt.fault_spec);
    armed.emplace(*plan);
  }

  stm::RuntimeConfig stm_config;
  stm_config.backend = opt.stm_backend;
  stm::Runtime rt(stm_config);
  traffic::KvTrafficWorkload workload(
      rt, traffic::build_schedule(opt.config));
  auto controller = make_policy(policy, opt);

  runtime::ProcessConfig config;
  config.pool.pool_size = opt.pool;
  config.pool.seed = 0xB007;
  config.monitor.period = milliseconds(opt.period_ms);
  config.monitor.stm_runtime = &rt;
  config.monitor.record_trace = false;
  // The /status handler reads the monitor's round from another thread;
  // publish_status makes the copy it reads.
  config.monitor.publish_status = !opt.listen.empty();
  runtime::TunedProcess process(rt, workload, *controller, config);

  // Declared after process/workload so the serving thread is gone before
  // anything its handlers read (destruction is reverse order).
  std::unique_ptr<telemetry::HttpServer> server;
  if (!opt.listen.empty()) {
    // main() validated the spec already.
    server = std::make_unique<telemetry::HttpServer>(
        *telemetry::parse_listen_spec(opt.listen));
    server->route("/healthz", [] { return telemetry::healthz_response(); });
    server->route("/metrics", [] {
      return telemetry::metrics_response(telemetry::registry());
    });
    server->route("/status", [policy, &process, &workload] {
      return telemetry::HttpResponse{
          200, "application/json; charset=utf-8",
          traffic_status_json(policy, process, workload)};
    });
    server->route("/hotspots", [] {
      return telemetry::HttpResponse{
          200, "application/json; charset=utf-8",
          stm::profiler::to_json(stm::profiler::snapshot())};
    });
    server->start();
    std::fprintf(stderr, "rubic_traffic: introspection endpoint on %s:%u\n",
                 server->host().c_str(), server->port());
  }

  const auto timeout = milliseconds(static_cast<std::int64_t>(
      1000.0 *
      (opt.timeout_factor * workload.schedule().curve.total_seconds() +
       5.0)));
  bool completed = false;
  const runtime::RunReport report =
      process.run_to_completion(timeout, &completed);
  if (!completed) workload.halt();

  traffic::RunResult result;
  result.policy = policy;
  result.backend = std::string(stm::backend_name(opt.stm_backend));
  result.summary = workload.summary();
  result.makespan_s = report.seconds;
  result.completed = completed;
  result.verified = workload.verify(&result.verify_error);
  result.mean_level = report.mean_level;
  result.final_level = report.final_level;
  result.commits = report.stm_stats.commits;
  result.aborts = report.stm_stats.total_aborts();
  return result;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  try {
    util::Cli cli(argc, argv);
    const bool list_mixes = cli.get_bool("list-mixes");
    const bool list_controllers = cli.get_bool("list-controllers");
    const bool list_backends = cli.get_bool("list-backends");
    const bool list_fault_sites = cli.get_bool("list-fault-sites");
    if (list_mixes || list_controllers || list_backends || list_fault_sites) {
      std::vector<std::string_view> names;
      const auto mixes = traffic::known_mixes();
      if (list_mixes) {
        names.assign(mixes.begin(), mixes.end());
      } else if (list_controllers) {
        names = control::known_policies();
      } else if (list_fault_sites) {
        names = fault::known_site_names();
      } else {
        for (const auto k : stm::known_backends()) {
          names.push_back(stm::backend_name(k));
        }
      }
      util::print_name_list(std::move(names));
      return 0;
    }

    traffic::TrafficConfig& config = opt.config;
    config.mix = cli.get_string("mix", config.mix);
    config.dist = cli.get_string("dist", config.dist);
    config.theta = cli.get_double("theta", config.theta);
    config.keys = static_cast<std::uint64_t>(
        cli.get_int("keys", static_cast<std::int64_t>(config.keys)));
    config.accounts = static_cast<std::uint64_t>(
        cli.get_int("accounts", static_cast<std::int64_t>(config.accounts)));
    config.clients = static_cast<std::uint32_t>(
        cli.get_int("clients", config.clients));
    config.scan_len = static_cast<std::uint64_t>(
        cli.get_int("scan-len", static_cast<std::int64_t>(config.scan_len)));
    config.seed = static_cast<std::uint64_t>(
        cli.get_int("seed", static_cast<std::int64_t>(config.seed)));
    config.index = cli.get_string("index", config.index);
    config.slo_us = static_cast<std::uint64_t>(
        cli.get_double("slo-ms", static_cast<double>(config.slo_us) / 1000.0) *
        1000.0);
    // --curve takes the full grammar; --rate/--seconds is the constant-curve
    // shorthand.
    const std::string curve_flag = cli.get_string("curve", "");
    const double rate = cli.get_double("rate", 0.0);
    const double run_seconds = cli.get_double("seconds", 5.0);
    if (!curve_flag.empty()) {
      config.curve = curve_flag;
    } else if (rate > 0.0) {
      config.curve = "constant:rate=" + std::to_string(rate) +
                     ",seconds=" + std::to_string(run_seconds);
    }

    opt.policies = split_list(cli.get_string("policies", "rubic"));
    const std::string backend_flag = cli.get_string("stm-backend", "");
    if (!backend_flag.empty()) {
      const auto parsed = stm::parse_backend(backend_flag);
      if (!parsed) {
        std::fprintf(stderr,
                     "rubic_traffic: unknown --stm-backend '%s' "
                     "(try --list-backends)\n",
                     backend_flag.c_str());
        return 2;
      }
      opt.stm_backend = *parsed;
    }
    opt.contexts = static_cast<int>(cli.get_int("contexts", 0));
    opt.pool = static_cast<int>(cli.get_int("pool", 0));
    opt.period_ms = static_cast<int>(cli.get_int("period-ms", opt.period_ms));
    opt.timeout_factor =
        cli.get_double("timeout-factor", opt.timeout_factor);
    opt.fault_spec = cli.get_string("fault-spec", "");
    opt.json_path = cli.get_string("json", "");
    opt.bench_out = cli.get_string("bench-out", "");
    opt.listen = cli.get_string("listen", "");
    opt.contention_out = cli.get_string("contention-out", "");
    opt.profile = cli.get_bool("profile") || !opt.contention_out.empty() ||
                  !opt.listen.empty();
    const std::string git_sha_flag = cli.get_string("git-sha", "");
    cli.check_unknown();

    if (opt.policies.empty()) {
      std::fprintf(
          stderr,
          "usage: rubic_traffic --mix M --policies P1,P2 "
          "[--curve SPEC | --rate R --seconds S] [--dist zipfian|uniform] "
          "[--theta T] [--keys N] [--accounts N] [--clients N] "
          "[--scan-len N] [--slo-ms MS] [--seed N] [--stm-backend B] "
          "[--contexts C] [--pool SZ] [--period-ms M] [--timeout-factor F] "
          "[--fault-spec SPEC] [--json out.json] [--bench-out bench.json] "
          "[--listen PORT|HOST:PORT] [--profile] [--contention-out c.json] "
          "[--list-mixes] [--list-controllers] [--list-backends] "
          "[--list-fault-sites]\n");
      return 2;
    }
    if (!opt.listen.empty() && !telemetry::parse_listen_spec(opt.listen)) {
      std::fprintf(stderr,
                   "rubic_traffic: bad --listen value '%s' "
                   "(want PORT or HOST:PORT)\n",
                   opt.listen.c_str());
      return 2;
    }
    if (opt.contexts <= 0) {
      opt.contexts =
          std::max(1, static_cast<int>(std::thread::hardware_concurrency()));
    }
    if (opt.pool <= 0) opt.pool = 2 * opt.contexts;
    if (!opt.fault_spec.empty()) {
      fault::Plan::parse(opt.fault_spec);  // reject bad specs up front
    }
    traffic::mix_by_name(config.mix);       // reject bad mixes up front
    traffic::RateCurve::parse(config.curve);

    // Observability arming spans all policy runs: /metrics and the
    // contention document are cumulative, the per-run /status is not.
    telemetry::install_snapshot_signal();
    if (!opt.listen.empty()) telemetry::arm();
    if (opt.profile) stm::profiler::arm();
    SignalWatcher signal_watcher;

    std::vector<traffic::RunResult> runs;
    bool all_verified = true;
    bool all_completed = true;
    for (const std::string& policy : opt.policies) {
      traffic::RunResult run = run_policy(policy, opt);
      const traffic::PhaseSummary& overall = run.summary.overall;
      const std::string status =
          run.verified ? "verified" : "VERIFY FAILED: " + run.verify_error;
      std::fprintf(
          stderr,
          "rubic_traffic: %-12s executed %llu/%llu in %.2fs  "
          "p50 %.0fus p99 %.0fus p999 %.0fus  slo %.1f%%  %s\n",
          policy.c_str(), static_cast<unsigned long long>(run.summary.executed),
          static_cast<unsigned long long>(run.summary.scheduled),
          run.makespan_s, overall.p50_us, overall.p99_us, overall.p999_us,
          100.0 * overall.slo_attainment, status.c_str());
      all_verified = all_verified && run.verified;
      all_completed = all_completed && run.completed;
      runs.push_back(std::move(run));
    }

    const std::string report = traffic::format_traffic_report(config, runs);
    if (opt.json_path.empty()) {
      std::fputs(report.c_str(), stdout);
    } else if (!trace::write_file(opt.json_path, report)) {
      std::fprintf(stderr, "rubic_traffic: failed to write %s\n",
                   opt.json_path.c_str());
      return 1;
    }
    if (!opt.bench_out.empty() &&
        !trace::write_file(opt.bench_out,
                           telemetry::format_bench_results(
                               "traffic:" + config.mix, 1,
                               telemetry::resolve_git_sha(git_sha_flag),
                               bench_cells(runs)))) {
      std::fprintf(stderr, "rubic_traffic: failed to write %s\n",
                   opt.bench_out.c_str());
      return 1;
    }
    if (!opt.contention_out.empty() &&
        !trace::write_file(opt.contention_out,
                    stm::profiler::to_json(stm::profiler::snapshot()))) {
      std::fprintf(stderr, "rubic_traffic: failed to write %s\n",
                   opt.contention_out.c_str());
      return 1;
    }

    if (!all_verified) return 3;
    if (!all_completed) return 4;
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "rubic_traffic: %s\n", e.what());
    return 2;
  }
}
