// perfbench — runs one workload of the repo benchmark in this process and
// prints one JSON object with its metrics.
//
//   perfbench --workload synchro-large|synchro-contended|kv-open --seed N
//             --seconds S [--trace] [--spans-out FILE] [--setup-only]
//             [--tamper]
//
// Load comes from one TunedProcess with kWorkers workers. After a warm-up
// the measured time lasts --seconds; every run ends with verify(). kv-open
// splits that time into ladders of about kLadderSeconds, each on a fresh
// schedule and service, so that the precomputed schedule stays small. The
// engine is pinned per workload and RUBIC_STM_BACKEND is ignored. --trace
// adds the per-layer metrics and keeps spans in memory, written to
// --spans-out at exit. --setup-only stops after set-up; --tamper (kv-open)
// breaks the map before verify() to exercise failure accounting. Exit code:
// 0 = verified with no failed operation, 3 = failures, 2 = usage error.
#include <sys/resource.h>

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <iterator>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "probes.hpp"
#include "src/control/factory.hpp"
#include "src/control/fixed.hpp"
#include "src/runtime/process.hpp"
#include "src/telemetry/json.hpp"
#include "src/traffic/traffic.hpp"
#include "src/util/cli.hpp"
#include "synchro.hpp"

namespace perfbench {
namespace {

namespace runtime = rubic::runtime;
namespace traffic = rubic::traffic;
using rubic::telemetry::jsonutil::append_double;
using rubic::telemetry::jsonutil::append_escaped;

constexpr int kWorkers = 3;
constexpr double kWarmupSeconds = 1.0;
constexpr double kSliceSeconds = 0.5;
constexpr std::uint64_t kSloUs = 1000;
constexpr double kDrainSeconds = 30.0;
// kv-open: each ladder is a warm-up phase, then kLadderKrps steps of
// kWindowsPerStep windows each, sharing the ladder's time equally.
constexpr double kLadderSeconds = 5.0;
constexpr double kKvWarmupRps = 100'000;
constexpr double kKvWarmupSeconds = 0.5;
constexpr std::size_t kWindowsPerStep = 8;
constexpr std::array<int, 9> kLadderKrps = {100, 200, 300, 400, 450,
                                            500, 550, 600, 1000};

struct WorkloadDef {
  const char* name;
  bool open_loop;
  stm::BackendKind engine;
  const char* policy;  // "fixed" = level kWorkers
  SynchroSpec synchro;
};

const std::array<WorkloadDef, 3> kWorkloads = {{
    {"synchro-large", false, stm::BackendKind::kTl2, "fixed",
     {"btree", std::int64_t{1} << 20, std::int64_t{1} << 19, 10, 5}},
    {"synchro-contended", false, stm::BackendKind::kTl2, "rubic",
     {"rbtree", 128, 64, 80, 5}},
    {"kv-open", true, stm::BackendKind::kNorec, "fixed", {}},
}};

struct Options {
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool traced = false;
  bool setup_only = false;
  bool tamper = false;
  std::string spans_out;
};

// One kv-open ladder step over all ladders of a run; p99 and attainment are
// medians over its windows.
struct Step {
  int krps = 0;
  double offered_rps = 0.0;
  double p99_us = 0.0;
  double slo_attainment = 0.0;  // within the SLO / scheduled
  double tasks_per_cpu_s = 0.0;
  std::uint64_t end_backlog = 0;  // median over ladders
  bool pass = false;
};

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

struct Result {
  bool verified = true;
  std::string error;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  double setup_s = 0.0;
  std::uint64_t latency_samples = 0;
  std::vector<Metric> metrics;
  std::vector<Step> steps;     // kv-open
  std::vector<double> slices;  // closed loop: tasks/s per slice

  void add(std::string name, double value, const char* unit) {
    metrics.push_back({std::move(name), value, unit});
  }
  void check(workloads::Workload& workload) {
    std::string why;
    if (!workload.verify(&why)) {
      verified = false;
      if (error.empty()) error = why;
    }
  }
};

double seconds_between(std::uint64_t a, std::uint64_t b) {
  return static_cast<double>(b - a) / 1e9;
}

double cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const auto tv = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) + static_cast<double>(t.tv_usec) / 1e6;
  };
  return tv(ru.ru_utime) + tv(ru.ru_stime);
}

double peak_rss_mib() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

void sleep_until_ns(std::uint64_t t) {
  const std::uint64_t now = now_ns();
  if (t > now) std::this_thread::sleep_for(std::chrono::nanoseconds(t - now));
}

std::unique_ptr<control::Controller> make_policy(std::string_view policy) {
  if (policy == "fixed") {
    return std::make_unique<control::FixedController>(
        control::LevelBounds{1, kWorkers}, kWorkers, "fixed");
  }
  control::PolicyConfig config;
  config.contexts = kWorkers;
  config.pool_size = kWorkers;
  return control::make_controller(policy, config);
}

runtime::ProcessConfig process_config(std::uint64_t seed) {
  runtime::ProcessConfig config;
  config.pool.pool_size = kWorkers;
  config.pool.seed = seed ^ 0x9e3779b97f4a7c15ULL;
  config.monitor.record_trace = false;  // levels come from ProbedController
  return config;
}

// Pool, process and STM state at one edge of a measured window.
struct Edge {
  std::uint64_t t_ns = 0;
  std::uint64_t completed = 0;
  double cpu_s = 0.0;
  std::vector<std::uint64_t> per_worker;
  stm::TxnStatsSnapshot stats;
};

Edge take_edge(runtime::TunedProcess& process, const stm::Runtime& rt) {
  Edge e;
  e.t_ns = now_ns();
  e.completed = process.pool().total_completed();
  e.cpu_s = cpu_seconds();
  e.per_worker = process.pool().per_worker_completed();
  e.stats = rt.aggregate_stats();
  return e;
}

// Everything the per-layer metrics need from the measured windows of a run.
struct Measured {
  std::vector<std::pair<std::uint64_t, std::uint64_t>> windows;
  std::uint64_t tasks = 0;
  double seconds = 0.0;  // window lengths, summed
  std::vector<std::uint64_t> per_worker = std::vector<std::uint64_t>(kWorkers);
  stm::TxnStatsSnapshot stats;  // deltas, summed

  void add(const Edge& a, const Edge& b) {
    windows.emplace_back(a.t_ns, b.t_ns);
    tasks += b.completed - a.completed;
    seconds += seconds_between(a.t_ns, b.t_ns);
    for (std::size_t i = 0; i < per_worker.size(); ++i) {
      per_worker[i] += b.per_worker[i] - a.per_worker[i];
    }
    stats.commits += b.stats.commits - a.stats.commits;
    stats.read_only_commits +=
        b.stats.read_only_commits - a.stats.read_only_commits;
    for (std::size_t i = 0; i < std::size(stats.aborts); ++i) {
      stats.aborts[i] += b.stats.aborts[i] - a.stats.aborts[i];
    }
    stats.reads += b.stats.reads - a.stats.reads;
    stats.writes += b.stats.writes - a.stats.writes;
    stats.extensions += b.stats.extensions - a.stats.extensions;
  }
};

std::vector<std::uint64_t> merged(
    const Recorder& rec, std::vector<std::uint64_t> WorkerSlot::*field) {
  std::vector<std::uint64_t> out;
  for (const WorkerSlot& w : rec.slots()) {
    out.insert(out.end(), (w.*field).begin(), (w.*field).end());
  }
  return out;
}

std::uint64_t retries_exhausted(const Recorder& rec) {
  std::uint64_t n = 0;
  for (const WorkerSlot& w : rec.slots()) n += w.retries_exhausted;
  return n;
}

// --- per-layer metrics ---

void add_stm_counts(Result& r, const stm::TxnStatsSnapshot& d) {
  const auto commits = static_cast<double>(d.commits);
  const auto aborts = static_cast<double>(d.total_aborts());
  const auto per = [&](std::uint64_t n, double scale) {
    return commits > 0 ? scale * static_cast<double>(n) / commits : 0.0;
  };
  r.add("stm.commit_ratio",
        commits + aborts > 0 ? commits / (commits + aborts) : 1.0, "fraction");
  for (const stm::AbortCause cause :
       {stm::AbortCause::kReadConflict, stm::AbortCause::kWriteConflict,
        stm::AbortCause::kValidationFailed, stm::AbortCause::kDoomed}) {
    r.add("stm.aborts_per_kcommit." + std::string(stm::abort_cause_name(cause)),
          per(d.aborts[static_cast<std::size_t>(cause)], 1000.0), "1/kcommit");
  }
  r.add("stm.reads_per_commit", per(d.reads, 1.0), "count");
  r.add("stm.writes_per_commit", per(d.writes, 1.0), "count");
  r.add("stm.extensions_per_kcommit", per(d.extensions, 1000.0), "1/kcommit");
  r.add("stm.read_only_share", per(d.read_only_commits, 1.0), "fraction");
}

// Walks every traced task's spans: checks that its child spans nest inside
// the task span without overlapping, so that children plus self time equal
// the task span, and adds the span-timed stm and tds metrics. Returns the
// number of tasks whose accounting does not add up.
std::uint64_t add_span_metrics(Result& r, const Recorder& rec,
                               bool task_body_traced) {
  std::vector<std::uint64_t> commit_ns;
  std::array<std::vector<std::uint64_t>, kOpCount> op_ns;
  std::uint64_t tasks = 0;
  std::uint64_t task_ns = 0;
  std::uint64_t aborted_ns = 0;
  std::uint64_t broken = 0;
  for (const WorkerSlot& w : rec.slots()) {
    std::size_t first_child = 0;
    for (std::size_t i = 0; i < w.spans.size(); ++i) {
      const Span& task = w.spans[i];
      if (std::string_view(task.name) != "task") continue;
      std::vector<Span> children(w.spans.begin() + first_child,
                                 w.spans.begin() + i);
      first_child = i + 1;
      std::sort(children.begin(), children.end(),
                [](const Span& x, const Span& y) {
                  return x.start_ns < y.start_ns;
                });
      std::uint64_t cursor = task.start_ns;
      bool nested = true;
      for (const Span& c : children) {
        nested = nested && c.id == task.id && c.start_ns >= cursor &&
                 c.end_ns >= c.start_ns && c.end_ns <= task.end_ns;
        cursor = c.end_ns;
        const std::string_view name = c.name;
        if (name == "stm.commit") {
          commit_ns.push_back(c.end_ns - c.start_ns);
        } else if (name == "stm.aborted_attempt") {
          aborted_ns += c.end_ns - c.start_ns;
        } else {
          for (std::size_t op = 0; op < kOpCount; ++op) {
            if (name == kOpSpanNames[op]) {
              op_ns[op].push_back(c.end_ns - c.start_ns);
            }
          }
        }
      }
      if (!nested) ++broken;
      ++tasks;
      task_ns += task.end_ns - task.start_ns;
    }
  }
  const bool on = task_body_traced && tasks > 0;
  r.add("stm.commit_ns.p50", on ? quantile(commit_ns, 0.50) : 0.0, "ns");
  r.add("stm.commit_ns.p99", on ? quantile(commit_ns, 0.99) : 0.0, "ns");
  r.add("stm.aborted_ns_per_task",
        on ? static_cast<double>(aborted_ns) / static_cast<double>(tasks) : 0.0,
        "ns");
  r.add("stm.wasted_share",
        on && task_ns > 0
            ? static_cast<double>(aborted_ns) / static_cast<double>(task_ns)
            : 0.0,
        "fraction");
  const std::array<const char*, kOpCount> names = {
      "tds.lookup_ns", "tds.insert_ns", "tds.remove_ns", "tds.scan_ns"};
  for (std::size_t op = 0; op < kOpCount; ++op) {
    r.add(names[op], on ? quantile(op_ns[op], 0.50) : 0.0, "ns");
  }
  std::uint64_t scans = 0;
  std::uint64_t scan_keys = 0;
  for (const WorkerSlot& w : rec.slots()) {
    scans += w.ops[static_cast<std::size_t>(Op::kScan)];
    scan_keys += w.scan_keys;
  }
  r.add("tds.scan_keys",
        task_body_traced && scans > 0
            ? static_cast<double>(scan_keys) / static_cast<double>(scans)
            : 0.0,
        "count");
  return broken;
}

void add_runtime_metrics(Result& r, const Recorder& rec, const Measured& m) {
  const std::vector<std::uint64_t> latency =
      merged(rec, &WorkerSlot::latency_ns);
  r.add("runtime.task_ns.p50", quantile(latency, 0.50), "ns");
  r.add("runtime.task_ns.p99", quantile(latency, 0.99), "ns");
  r.add("runtime.gap_ns", quantile(merged(rec, &WorkerSlot::gap_ns), 0.50),
        "ns");
  double mean_task_ns = 0.0;
  for (const std::uint64_t ns : latency) {
    mean_task_ns += static_cast<double>(ns);
  }
  if (!latency.empty()) mean_task_ns /= static_cast<double>(latency.size());
  const double busy_ns = mean_task_ns * static_cast<double>(m.tasks);
  r.add("runtime.idle_share",
        std::max(0.0, 1.0 - busy_ns / (kWorkers * m.seconds * 1e9)),
        "fraction");
  std::uint64_t most = 0;
  for (const std::uint64_t n : m.per_worker) most = std::max(most, n);
  r.add("runtime.worker_skew",
        m.tasks > 0 ? static_cast<double>(most) * kWorkers /
                          static_cast<double>(m.tasks)
                    : 0.0,
        "ratio");
}

void add_control_metrics(Result& r, const ProbedController& ctrl,
                         int initial_level, const Measured& m) {
  std::vector<std::uint64_t> cost;
  std::vector<double> interval_ms;
  double level_area = 0.0;
  double seconds = 0.0;
  std::uint64_t changes = 0;
  for (const auto& [t0, t1] : m.windows) {
    int level = initial_level;
    std::uint64_t level_since = t0;
    std::uint64_t prev_start = 0;
    for (const Round& round : ctrl.rounds()) {
      if (round.start_ns >= t1) break;
      const int next = std::clamp(round.level, 1, kWorkers);
      if (round.start_ns >= t0) {
        cost.push_back(round.end_ns - round.start_ns);
        if (prev_start >= t0) {
          interval_ms.push_back(
              static_cast<double>(round.start_ns - prev_start) / 1e6);
        }
        const std::uint64_t applied = std::min(round.end_ns, t1);
        level_area += level * seconds_between(level_since, applied);
        level_since = applied;
        if (next != level) ++changes;
      }
      level = next;
      prev_start = round.start_ns;
    }
    level_area += level * seconds_between(level_since, t1);
    seconds += seconds_between(t0, t1);
  }
  r.add("control.on_sample_ns", quantile(cost, 0.50), "ns");
  r.add("control.round_interval_ms.p99", quantile(interval_ms, 0.99), "ms");
  r.add("control.mean_level", level_area / seconds, "threads");
  r.add("control.level_changes_per_s", static_cast<double>(changes) / seconds,
        "1/s");
}

void add_traffic_metrics(Result& r, const Recorder& rec,
                         std::uint64_t backlog_max) {
  std::uint64_t cpu = 0;
  std::uint64_t wall = 0;
  std::uint64_t samples = 0;
  for (const WorkerSlot& w : rec.slots()) {
    cpu += w.cpu_ns;
    wall += w.wall_ns;
    samples += w.cpu_samples;
  }
  const double n = static_cast<double>(std::max<std::uint64_t>(samples, 1));
  r.add("traffic.task_wall_us", static_cast<double>(wall) / n / 1e3, "us");
  r.add("traffic.task_cpu_us", static_cast<double>(cpu) / n / 1e3, "us");
  r.add("traffic.wait_share",
        wall > 0 ? 1.0 - static_cast<double>(cpu) / static_cast<double>(wall)
                 : 0.0,
        "fraction");
  r.add("traffic.backlog_max", static_cast<double>(backlog_max), "count");
  for (std::size_t s = 0; s < kLadderKrps.size(); ++s) {
    r.add("traffic.step." + std::to_string(kLadderKrps[s]) + "k.p99_us",
          s < r.steps.size() ? r.steps[s].p99_us : 0.0, "us");
  }
}

void write_spans(const std::string& path, const Recorder& rec,
                 const ProbedController& ctrl) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) throw std::runtime_error("cannot write " + path);
  const auto line = [f](std::uint64_t id, const char* name, const char* parent,
                        std::uint64_t start, std::uint64_t end) {
    std::fprintf(f,
                 "{\"id\": %llu, \"name\": \"%s\", \"parent\": %s, "
                 "\"start_ns\": %llu, \"end_ns\": %llu}\n",
                 static_cast<unsigned long long>(id), name, parent,
                 static_cast<unsigned long long>(start),
                 static_cast<unsigned long long>(end));
  };
  for (const WorkerSlot& w : rec.slots()) {
    for (const Span& s : w.spans) {
      const bool root = std::string_view(s.name) == "task";
      line(s.id, s.name, root ? "null" : "\"task\"", s.start_ns, s.end_ns);
    }
  }
  std::uint64_t round_id = std::uint64_t{1} << 63;
  for (const Round& round : ctrl.rounds()) {
    line(round_id++, "control.on_sample", "null", round.start_ns, round.end_ns);
  }
  if (std::fclose(f) != 0) throw std::runtime_error("cannot write " + path);
}

// Common end of a run. In a traced run: the per-layer metrics, the span
// accounting check, and the spans file. A failed verify() or span check
// fails every operation of the run.
void finish(Result& r, const Options& opt, const Recorder& rec,
            const ProbedController& ctrl, int initial_level,
            const Measured& m, bool task_body_traced,
            std::uint64_t backlog_max) {
  if (opt.traced) {
    add_stm_counts(r, m.stats);
    const std::uint64_t broken = add_span_metrics(r, rec, task_body_traced);
    add_runtime_metrics(r, rec, m);
    add_control_metrics(r, ctrl, initial_level, m);
    add_traffic_metrics(r, rec, backlog_max);
    if (broken != 0 && r.verified) {
      r.verified = false;
      r.error = std::to_string(broken) + " traced tasks fail span accounting";
    }
    if (!opt.spans_out.empty()) write_spans(opt.spans_out, rec, ctrl);
  }
  if (!r.verified) r.failed = r.attempted;
}

Result run_closed(const WorkloadDef& def, const Options& opt) {
  Result r;
  Recorder rec(opt.traced);
  const std::uint64_t setup_start = now_ns();
  stm::RuntimeConfig stm_config;
  stm_config.backend = def.engine;
  stm::Runtime rt(stm_config);
  SynchroSpec spec = def.synchro;
  spec.seed = opt.seed;
  SynchroTasks tasks(rt, spec, rec);
  r.setup_s = seconds_between(setup_start, now_ns());
  if (opt.setup_only) return r;

  const auto inner = make_policy(def.policy);
  ProbedController ctrl(*inner, 8192);
  ProbedWorkload probe(tasks, rec);
  runtime::TunedProcess process(rt, probe, ctrl, process_config(opt.seed));
  std::this_thread::sleep_for(std::chrono::duration<double>(kWarmupSeconds));

  const Edge e0 = take_edge(process, rt);
  rec.set_recording(true);
  const auto slices = static_cast<std::uint64_t>(
      std::max(1.0, std::round(opt.seconds / kSliceSeconds)));
  const auto slice_ns =
      static_cast<std::uint64_t>(opt.seconds * 1e9) / slices;
  std::vector<double> per_cpu;
  Edge prev = e0;
  for (std::uint64_t k = 1; k <= slices; ++k) {
    sleep_until_ns(e0.t_ns + k * slice_ns);
    Edge e;
    e.t_ns = now_ns();
    e.completed = process.pool().total_completed();
    e.cpu_s = cpu_seconds();
    const auto done = static_cast<double>(e.completed - prev.completed);
    r.slices.push_back(done / seconds_between(prev.t_ns, e.t_ns));
    per_cpu.push_back(done / std::max(1e-9, e.cpu_s - prev.cpu_s));
    prev = e;
  }
  rec.set_recording(false);
  const Edge e1 = take_edge(process, rt);
  process.monitor().stop();
  process.pool().stop();
  Measured m;
  m.add(e0, e1);

  r.attempted = m.tasks;
  r.failed = retries_exhausted(rec);
  const std::vector<std::uint64_t> latency =
      merged(rec, &WorkerSlot::latency_ns);
  r.latency_samples = latency.size();
  std::uint64_t within = 0;
  for (const std::uint64_t ns : latency) within += ns <= kSloUs * 1000 ? 1 : 0;
  const double tasks_per_s = quantile(r.slices, 0.5);
  const double p99_us = quantile(latency, 0.99) / 1e3;
  r.add("tasks_per_s", tasks_per_s, "tasks/s");
  r.add("tasks_per_cpu_s", quantile(per_cpu, 0.5), "tasks/CPU-s");
  r.add("req_p50_us", quantile(latency, 0.50) / 1e3, "us");
  r.add("req_p99_us", p99_us, "us");
  r.add("slo_attainment",
        latency.empty() ? 0.0
                        : static_cast<double>(within) /
                              static_cast<double>(latency.size()),
        "fraction");
  r.add("max_slo_rate_rps", p99_us <= kSloUs ? tasks_per_s : 0.0, "req/s");
  r.add("peak_rss_mib", peak_rss_mib(), "MiB");

  r.check(probe);
  finish(r, opt, rec, ctrl, inner->initial_level(), m,
         /*task_body_traced=*/true, /*backlog_max=*/0);
  return r;
}

// One ladder: a warm-up phase, then each step split into kWindowsPerStep
// phases of the same rate, so that summary() reports every window.
traffic::TrafficConfig ladder_config(std::uint64_t seed, double seconds) {
  traffic::TrafficConfig config;
  config.mix = "tpcc-lite";
  config.index = "btree";
  config.dist = "zipfian";
  config.theta = 0.99;
  config.clients = 64;
  config.seed = seed;
  config.slo_us = kSloUs;
  const double window_s =
      seconds / static_cast<double>(kLadderKrps.size() * kWindowsPerStep);
  config.curve = "phases:warmup=" + std::to_string(kKvWarmupRps) + "@" +
                 std::to_string(kKvWarmupSeconds);
  for (const int krps : kLadderKrps) {
    for (std::size_t w = 0; w < kWindowsPerStep; ++w) {
      config.curve += "," + std::to_string(krps) + "k." + std::to_string(w) +
                      "=" + std::to_string(krps * 1000) + "@" +
                      std::to_string(window_s);
    }
  }
  return config;
}

// One ~70 ms window of a kv-open ladder step.
struct Window {
  std::size_t step = 0;
  std::uint64_t scheduled = 0;
  double p50_us = 0.0;
  double p99_us = 0.0;
  double within_slo = 0.0;  // requests within the SLO / scheduled
  double tasks_per_cpu_s = 0.0;
};

// kv-open figures over all ladders of a run.
struct LadderStats {
  std::vector<Window> windows;
  // Per step, the backlog at the end of each ladder's step.
  std::array<std::vector<double>, kLadderKrps.size()> end_backlog;
  double step_seconds = 0.0;  // per step, summed over ladders
  std::uint64_t backlog_max = 0;

  // Median of `field` over the windows of `step`, or over every window.
  double median(double Window::*field, std::size_t step = SIZE_MAX) const {
    std::vector<double> values;
    for (const Window& w : windows) {
      if (step == SIZE_MAX || w.step == step) values.push_back(w.*field);
    }
    return quantile(values, 0.5);
  }
};

// Runs one ladder on a fresh schedule and service; adds its windows to
// `stats` and `m`, and its request accounting and verify() to `r`.
void run_ladder(Result& r, const Options& opt, stm::Runtime& rt,
                traffic::KvTrafficWorkload& kv, Recorder& rec,
                ProbedController& ctrl, double seconds, LadderStats& stats,
                Measured& m) {
  ProbedWorkload probe(kv, rec);
  // The schedule's clock starts at the first task, as the pool starts.
  const std::uint64_t start = now_ns();
  runtime::TunedProcess process(rt, probe, ctrl, process_config(opt.seed));
  sleep_until_ns(start + static_cast<std::uint64_t>(kKvWarmupSeconds * 1e9));

  // The benchmark thread samples the backlog every millisecond, keeps the
  // last sample of each step, and takes the pool's count and the process
  // CPU time at each window edge.
  const std::size_t n_steps = kLadderKrps.size();
  const std::size_t n_windows = n_steps * kWindowsPerStep;
  const auto window_ns = static_cast<std::uint64_t>(
      seconds * 1e9 / static_cast<double>(n_windows));
  const Edge e0 = take_edge(process, rt);
  rec.set_recording(true);
  std::vector<Edge> edges = {e0};
  std::vector<std::uint64_t> end_backlog(n_steps, 0);
  for (std::uint64_t t = now_ns(); t < e0.t_ns + window_ns * n_windows;
       t = now_ns()) {
    const std::size_t window =
        std::min<std::size_t>((t - e0.t_ns) / window_ns, n_windows - 1);
    while (edges.size() <= window) {
      Edge e;
      e.t_ns = t;
      e.completed = process.pool().total_completed();
      e.cpu_s = cpu_seconds();
      edges.push_back(e);
    }
    const std::uint64_t backlog = kv.backlog_now();
    stats.backlog_max = std::max(stats.backlog_max, backlog);
    end_backlog[window / kWindowsPerStep] = backlog;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  rec.set_recording(false);
  const Edge e1 = take_edge(process, rt);
  edges.resize(n_windows, e1);
  edges.push_back(e1);
  m.add(e0, e1);

  const std::uint64_t drain_end =
      now_ns() + static_cast<std::uint64_t>(kDrainSeconds * 1e9);
  while (!kv.done() && now_ns() < drain_end) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  if (!kv.done()) kv.halt();
  process.monitor().stop();
  process.pool().stop();

  if (opt.tamper) {
    stm::TxnDesc& ctx = rt.register_thread();
    stm::atomically(ctx, [&](stm::Txn& tx) {
      kv.map().put(tx, traffic::kAccountBase,
                   kv.map().get(tx, traffic::kAccountBase).value_or(0) + 100);
    });
  }
  r.check(kv);

  const traffic::TrafficSummary summary = kv.summary();
  r.attempted += summary.scheduled;
  r.failed += summary.scheduled - summary.executed;
  r.latency_samples += summary.overall.completed;
  for (std::size_t w = 0; w < n_windows; ++w) {
    const traffic::PhaseSummary& phase = summary.phases[w + 1];
    Window window;
    window.step = w / kWindowsPerStep;
    window.scheduled = phase.scheduled;
    window.p50_us = phase.p50_us;
    window.p99_us = phase.p99_us;
    window.within_slo = phase.scheduled == 0
                            ? 0.0
                            : static_cast<double>(phase.slo_ok) /
                                  static_cast<double>(phase.scheduled);
    window.tasks_per_cpu_s =
        static_cast<double>(edges[w + 1].completed - edges[w].completed) /
        std::max(1e-9, edges[w + 1].cpu_s - edges[w].cpu_s);
    stats.windows.push_back(window);
  }
  for (std::size_t s = 0; s < n_steps; ++s) {
    stats.end_backlog[s].push_back(static_cast<double>(end_backlog[s]));
  }
  stats.step_seconds +=
      static_cast<double>(window_ns * kWindowsPerStep) / 1e9;
}

Result run_kv(const WorkloadDef& def, const Options& opt) {
  Result r;
  Recorder rec(opt.traced);
  const auto ladders = static_cast<std::uint64_t>(
      std::max(1.0, std::round(opt.seconds / kLadderSeconds)));
  const double ladder_s = opt.seconds / static_cast<double>(ladders);

  const std::uint64_t setup_start = now_ns();
  stm::RuntimeConfig stm_config;
  stm_config.backend = def.engine;
  stm::Runtime rt(stm_config);
  auto kv = std::make_unique<traffic::KvTrafficWorkload>(
      rt, traffic::build_schedule(ladder_config(opt.seed, ladder_s)));
  r.setup_s = seconds_between(setup_start, now_ns());
  if (opt.setup_only) return r;

  const auto inner = make_policy(def.policy);
  ProbedController ctrl(*inner, 8192);
  LadderStats stats;
  Measured m;
  for (std::uint64_t ladder = 0; ladder < ladders; ++ladder) {
    if (ladder > 0) {
      kv.reset();  // free the previous schedule and map first
      kv = std::make_unique<traffic::KvTrafficWorkload>(
          rt, traffic::build_schedule(ladder_config(
                  opt.seed + ladder * 0x9e3779b9ULL, ladder_s)));
    }
    run_ladder(r, opt, rt, *kv, rec, ctrl, ladder_s, stats, m);
  }
  r.failed += retries_exhausted(rec);

  // Windows of well under a second keep a host stall to the few windows it
  // hits: latency, attainment and efficiency are medians over windows.
  double max_slo_rate = 0.0;
  for (std::size_t s = 0; s < kLadderKrps.size(); ++s) {
    Step step;
    step.krps = kLadderKrps[s];
    std::uint64_t scheduled = 0;
    for (const Window& w : stats.windows) {
      if (w.step == s) scheduled += w.scheduled;
    }
    step.offered_rps = static_cast<double>(scheduled) / stats.step_seconds;
    step.p99_us = stats.median(&Window::p99_us, s);
    step.slo_attainment = stats.median(&Window::within_slo, s);
    step.tasks_per_cpu_s = stats.median(&Window::tasks_per_cpu_s, s);
    step.end_backlog =
        static_cast<std::uint64_t>(quantile(stats.end_backlog[s], 0.5));
    // Passing: in the median window 99% of requests meet the SLO, and less
    // than one SLO's worth of arrivals is still queued when the step ends.
    step.pass = step.slo_attainment >= 0.99 &&
                static_cast<double>(step.end_backlog) <
                    step.offered_rps * static_cast<double>(kSloUs) / 1e6;
    if (step.pass) max_slo_rate = std::max(max_slo_rate, step.offered_rps);
    r.steps.push_back(step);
  }
  r.add("tasks_per_s", static_cast<double>(m.tasks) / m.seconds, "tasks/s");
  r.add("tasks_per_cpu_s", stats.median(&Window::tasks_per_cpu_s),
        "tasks/CPU-s");
  r.add("req_p50_us", stats.median(&Window::p50_us), "us");
  r.add("req_p99_us", stats.median(&Window::p99_us), "us");
  r.add("slo_attainment", stats.median(&Window::within_slo), "fraction");
  r.add("max_slo_rate_rps", max_slo_rate, "req/s");
  r.add("peak_rss_mib", peak_rss_mib(), "MiB");

  finish(r, opt, rec, ctrl, inner->initial_level(), m,
         /*task_body_traced=*/false, stats.backlog_max);
  return r;
}

std::string to_json(const WorkloadDef& def, const Options& opt,
                    const Result& r) {
  std::string out = "{\"workload\": \"";
  out += def.name;
  out += "\", \"seed\": " + std::to_string(opt.seed);
  out += ", \"traced\": ";
  out += opt.traced ? "true" : "false";
  out += ", \"engine\": \"";
  out += stm::backend_name(def.engine);
  out += "\", \"policy\": \"";
  out += def.policy;
  out += "\", \"workers\": " + std::to_string(kWorkers);
  out += ", \"nproc\": " + std::to_string(std::thread::hardware_concurrency());
  out += ", \"build_type\": \"" PERFBENCH_BUILD_TYPE "\"";
  out += ", \"correct\": ";
  out += r.verified ? "true" : "false";
  out += ", \"error\": \"";
  append_escaped(out, r.error);
  out += "\", \"attempted\": " + std::to_string(r.attempted);
  out += ", \"failed\": " + std::to_string(r.failed);
  out += ", \"latency_samples\": " + std::to_string(r.latency_samples);
  out += ", \"setup_s\": ";
  append_double(out, r.setup_s);
  out += ", \"slices_tasks_per_s\": [";
  for (std::size_t i = 0; i < r.slices.size(); ++i) {
    if (i != 0) out += ", ";
    append_double(out, r.slices[i]);
  }
  out += "], \"steps\": [";
  for (std::size_t i = 0; i < r.steps.size(); ++i) {
    const Step& st = r.steps[i];
    out += i == 0 ? "{" : ", {";
    out += "\"krps\": " + std::to_string(st.krps) + ", \"offered_rps\": ";
    append_double(out, st.offered_rps);
    out += ", \"p99_us\": ";
    append_double(out, st.p99_us);
    out += ", \"slo_attainment\": ";
    append_double(out, st.slo_attainment);
    out += ", \"tasks_per_cpu_s\": ";
    append_double(out, st.tasks_per_cpu_s);
    out += ", \"end_backlog\": " + std::to_string(st.end_backlog);
    out += st.pass ? ", \"pass\": true}" : ", \"pass\": false}";
  }
  out += "], \"metrics\": {";
  for (std::size_t i = 0; i < r.metrics.size(); ++i) {
    const Metric& m = r.metrics[i];
    out += i == 0 ? "\"" : ", \"";
    append_escaped(out, m.name);
    out += "\": {\"value\": ";
    append_double(out, m.value);
    out += ", \"unit\": \"";
    out += m.unit;
    out += "\"}";
  }
  out += "}}";
  return out;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  // The engine is pinned per workload; the environment must not change
  // what is measured (nor abort the process on a value it cannot parse).
  unsetenv("RUBIC_STM_BACKEND");
  try {
    rubic::util::Cli cli(argc, argv);
    const std::string name = cli.get_string("workload", "");
    Options opt;
    opt.seed = static_cast<std::uint64_t>(cli.get_int("seed", 1));
    opt.seconds = cli.get_double("seconds", opt.seconds);
    opt.traced = cli.get_bool("trace");
    opt.setup_only = cli.get_bool("setup-only");
    opt.tamper = cli.get_bool("tamper");
    opt.spans_out = cli.get_string("spans-out", "");
    cli.check_unknown();

    const WorkloadDef* def = nullptr;
    for (const WorkloadDef& w : kWorkloads) {
      if (name == w.name) def = &w;
    }
    if (def == nullptr || opt.seconds <= 0.0 || opt.seconds > 60.0 ||
        (opt.tamper && !def->open_loop)) {
      std::fprintf(stderr,
                   "usage: perfbench --workload synchro-large|"
                   "synchro-contended|kv-open --seed N --seconds S(<=60) "
                   "[--trace] "
                   "[--spans-out FILE] [--setup-only] [--tamper (kv-open)]\n");
      return 2;
    }
    const Result r = def->open_loop ? run_kv(*def, opt) : run_closed(*def, opt);
    std::printf("%s\n", to_json(*def, opt, r).c_str());
    return r.verified && r.failed == 0 ? 0 : 3;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 2;
  }
}
