#include "src/scenario/launcher.hpp"

#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <exception>
#include <memory>
#include <thread>

#include "src/control/backend_adapter.hpp"
#include "src/control/factory.hpp"
#include "src/fault/fault.hpp"
#include "src/ipc/equal_share.hpp"
#include "src/runtime/process.hpp"
#include "src/stm/profiler.hpp"
#include "src/telemetry/audit.hpp"
#include "src/trace/trace.hpp"
#include "src/traffic/traffic.hpp"
#include "src/workloads/registry.hpp"

namespace rubic::scenario {

using namespace std::chrono;

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

namespace {

// Refresh cadence of a child's live-introspection parts (ChildRun::live_base).
constexpr int kLivePeriodMs = 250;

// Write-to-tmp-then-rename: a concurrent reader (the parent's endpoint, or
// a curious operator) sees either the previous complete file or the new one,
// never a torn fragment.
bool write_file_atomic(const std::string& path, const std::string& text) {
  const std::string tmp = path + ".tmp";
  if (!trace::write_file(tmp, text)) return false;
  if (::rename(tmp.c_str(), path.c_str()) != 0) {
    ::unlink(tmp.c_str());
    return false;
  }
  return true;
}

}  // namespace

std::unique_ptr<workloads::Workload> make_child_workload(
    const std::string& spec, stm::Runtime& rt) {
  constexpr std::string_view kTrafficPrefix = "traffic:";
  if (spec.rfind(kTrafficPrefix, 0) == 0) {
    return std::make_unique<traffic::KvTrafficWorkload>(
        rt, traffic::build_schedule(traffic::parse_traffic_config(
                spec.substr(kTrafficPrefix.size()))));
  }
  return workloads::make_workload(spec, rt);
}

std::string part_path(const std::string& base, pid_t pid,
                      std::string_view suffix) {
  return base + "." + std::to_string(static_cast<int>(pid)) +
         std::string(suffix);
}

int acquire_slot_with_backoff(ipc::CoLocationBus& bus,
                              const std::string& label) {
  int delay_ms = 1;
  for (int attempt = 0; attempt < 10; ++attempt) {
    const int slot = bus.acquire_slot(label);
    if (slot >= 0) return slot;
    std::this_thread::sleep_for(milliseconds(delay_ms));
    delay_ms = std::min(2 * delay_ms, 250);
  }
  return bus.acquire_slot(label);
}

int run_workload_child(const ChildRun& run, ipc::CoLocationBus* bus) {
  if (!run.fault_spec.empty()) {
    // The plan must outlive the run; a child process leaks it on _exit.
    fault::arm(*fault::Plan::parse(run.fault_spec).release());
  }
  // Arm tracing before any worker thread exists; the tracer (like the fault
  // plan) must outlive the run, so a child process leaks it on _exit.
  trace::Tracer* tracer = nullptr;
  if (!run.trace_base.empty()) {
    tracer = new trace::Tracer;
    trace::arm(*tracer);
  }
  // Telemetry likewise arms before the first worker so every commit lands
  // in the registry; the registry itself is a process singleton.
  if (run.telemetry) telemetry::arm();
  // The contention profiler follows the same arm-before-workers contract.
  if (run.profiler) stm::profiler::arm();

  // Live-part refresher: while the run is in flight, keep the .tlive /
  // .clive files current so the parent's introspection endpoint can serve a
  // merged mid-run view. Snapshots of live tables are statistical (see the
  // profiler/telemetry headers) — exactly what a scrape wants.
  std::atomic<bool> live_stop{false};
  std::thread live_thread;
  const bool live_parts =
      !run.live_base.empty() && (run.telemetry || run.profiler);
  const std::string tlive_path = part_path(run.live_base, getpid(), ".tlive");
  const std::string clive_path = part_path(run.live_base, getpid(), ".clive");
  const auto refresh_live_parts = [&run, &tlive_path, &clive_path] {
    if (run.telemetry) {
      write_file_atomic(tlive_path,
                        telemetry::to_json(telemetry::registry().snapshot(),
                                           telemetry::JsonStyle::kCompact));
    }
    if (run.profiler) {
      write_file_atomic(clive_path,
                        stm::profiler::to_json(stm::profiler::snapshot()));
    }
  };
  if (live_parts) {
    live_thread = std::thread([&live_stop, &refresh_live_parts] {
      while (!live_stop.load(std::memory_order_acquire)) {
        refresh_live_parts();
        for (int waited = 0; waited < kLivePeriodMs; waited += 20) {
          if (live_stop.load(std::memory_order_acquire)) break;
          std::this_thread::sleep_for(milliseconds(20));
        }
      }
    });
  }

  const bool have_slot =
      bus != nullptr && acquire_slot_with_backoff(*bus, run.label) >= 0;
  if (bus != nullptr && !have_slot) {
    // The segment is unusable (full of live peers, or a chaos acquire-fail
    // window): degrade to solo tuning — no publishes, no cross-process
    // arbitration — instead of giving up the run.
    std::fprintf(stderr,
                 "launcher[%d]: no bus slot after retries; "
                 "falling back to solo (bus-less) tuning\n",
                 static_cast<int>(getpid()));
  }

  stm::RuntimeConfig stm_config;
  stm_config.backend = run.backend;
  stm::Runtime rt(stm_config);
  auto workload = make_child_workload(run.workload, rt);

  std::unique_ptr<control::Controller> controller;
  if (run.policy == "equalshare" && have_slot) {
    // The bus is the §4.3 "central entity", valid across address spaces.
    controller = std::make_unique<ipc::BusEqualShareController>(*bus, run.pool);
  } else if (run.policy == "equalshare") {
    // Solo EqualShare degenerates to "the whole machine is my share".
    controller = control::make_greedy(std::min(run.contexts, run.pool));
  } else {
    control::PolicyConfig policy_config;
    policy_config.contexts = run.contexts;
    policy_config.pool_size = run.pool;
    // Adaptive policies start their backend search from the engine the
    // child booted on (the audit meta records the same name for replay).
    policy_config.initial_backend = std::string(stm::backend_name(run.backend));
    controller = control::make_controller(run.policy, policy_config);
  }

  runtime::ProcessConfig config;
  config.pool.pool_size = run.pool;
  config.pool.seed =
      0x9001 + static_cast<std::uint64_t>(
                   have_slot ? bus->slot_index() : 64 + run.child_index);
  config.monitor.period = milliseconds(run.period_ms);
  config.monitor.stm_runtime = &rt;
  config.monitor.bus = have_slot ? bus : nullptr;
  telemetry::AuditLog audit_log;
  if (!run.audit_base.empty()) {
    // The guard inside the monitor is bounded to [1, pool_size]; the meta
    // must carry the same bounds so replay clamps identically.
    telemetry::AuditMeta meta;
    meta.policy = run.policy;
    meta.min_level = 1;
    meta.max_level = run.pool;
    meta.contexts = run.contexts;
    meta.pool = run.pool;
    meta.processes = run.procs;
    meta.seed = config.pool.seed;
    meta.stm_backend = std::string(stm::backend_name(run.backend));
    // An adaptive policy's recorded backend indexes point into its
    // candidate list: record the list itself, so replay does not depend on
    // whatever the default list is when the log is read.
    if (const auto* adapter =
            dynamic_cast<const control::BackendAdapter*>(controller.get())) {
      meta.backend_candidates = adapter->candidates();
    }
    audit_log.set_meta(meta);
    config.monitor.audit = &audit_log;
  }
  runtime::TunedProcess process(rt, *workload, *controller, config);
  const runtime::RunReport report =
      process.run_for(milliseconds(run.run_ms));

  ipc::FinalSample final_sample;
  final_sample.final_level = report.final_level;
  final_sample.seconds = report.seconds;
  final_sample.mean_level = report.mean_level;
  final_sample.tasks_per_second = report.tasks_per_second;
  final_sample.tasks_completed = report.tasks_completed;
  final_sample.commits = report.stm_stats.commits;
  final_sample.aborts = report.stm_stats.total_aborts();
  if (have_slot) bus->publish_final(final_sample);

  if (live_thread.joinable()) {
    live_stop.store(true, std::memory_order_release);
    live_thread.join();
    // One last refresh with the pool and monitor stopped: the final live
    // parts cover the whole run, so a scrape racing the child's exit still
    // sees complete numbers.
    refresh_live_parts();
  }

  if (tracer != nullptr) {
    // run_for() stopped the monitor and the pool: writers are quiesced, so
    // disarm-and-export is safe. The fragment is newline-separated Chrome
    // event objects; the parent merges one fragment per surviving child.
    trace::disarm();
    const std::string fragment =
        trace::to_chrome_events(*tracer, getpid(), run.label);
    if (!trace::write_file(part_path(run.trace_base, getpid(), ".part"),
                           fragment)) {
      std::fprintf(stderr, "launcher[%d]: failed to write trace part\n",
                   static_cast<int>(getpid()));
    }
  }

  if (!run.audit_base.empty()) {
    // Audit parts are run outputs, not scratch files: rubic_replay's
    // --prefix flag consumes <prefix>.<pid>.jsonl directly.
    if (!trace::write_file(part_path(run.audit_base, getpid(), ".jsonl"),
                           telemetry::to_jsonl(audit_log))) {
      std::fprintf(stderr, "launcher[%d]: failed to write audit log\n",
                   static_cast<int>(getpid()));
    }
  }
  if (run.telemetry && !run.telemetry_base.empty()) {
    // Monitor and pool are stopped: the snapshot is quiescent and final.
    telemetry::disarm();
    const std::string snap = telemetry::to_json(
        telemetry::registry().snapshot(), telemetry::JsonStyle::kCompact);
    if (!trace::write_file(part_path(run.telemetry_base, getpid(), ".tpart"),
                           snap)) {
      std::fprintf(stderr, "launcher[%d]: failed to write telemetry part\n",
                   static_cast<int>(getpid()));
    }
  }

  if (run.tamper_zero_sum) {
    // Deliberately break the zero-sum account invariant so the verification
    // below must reject the state — the seeded-violation scenarios prove
    // the soak harness actually fails when the system lies.
    if (auto* kv = dynamic_cast<traffic::KvTrafficWorkload*>(workload.get())) {
      stm::TxnDesc& ctx = rt.register_thread();
      stm::atomically(ctx, [&](stm::Txn& tx) {
        const std::int64_t balance =
            kv->map().get(tx, traffic::kAccountBase).value_or(0);
        kv->map().put(tx, traffic::kAccountBase, balance + 100);
        return 0;
      });
    }
  }

  std::string error;
  if (!workload->verify(&error)) {
    std::fprintf(stderr, "launcher[%d]: consistency violation: %s\n",
                 static_cast<int>(getpid()), error.c_str());
    return 3;
  }
  return 0;
}

pid_t spawn_child(const std::function<int()>& body) {
  std::fflush(nullptr);  // children inherit stdio buffers: flush first
  const pid_t pid = fork();
  if (pid != 0) return pid;
  int code = 5;
  try {
    code = body();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "launcher[%d]: %s\n", static_cast<int>(getpid()),
                 e.what());
  }
  std::fflush(nullptr);
  _exit(code);
}

std::vector<ReapedChild> reap_with_watchdog(
    const std::vector<WatchedChild>& children, ipc::CoLocationBus* bus,
    std::chrono::milliseconds heartbeat_grace) {
  struct Pending {
    WatchedChild watched;
    std::size_t index = 0;
    // Last (heartbeat counter, time it changed) we observed on the bus.
    std::uint64_t last_beat = 0;
    steady_clock::time_point last_progress{};
  };
  std::vector<ReapedChild> reaped(children.size());
  std::vector<Pending> pending;
  const auto now0 = steady_clock::now();
  for (std::size_t i = 0; i < children.size(); ++i) {
    reaped[i].pid = children[i].pid;
    pending.push_back({children[i], i, 0, now0});
  }
  if (heartbeat_grace <= milliseconds(0)) heartbeat_grace = milliseconds(250);

  while (!pending.empty()) {
    for (std::size_t p = 0; p < pending.size();) {
      Pending& entry = pending[p];
      ReapedChild& out = reaped[entry.index];
      int status = 0;
      const pid_t got = waitpid(entry.watched.pid, &status, WNOHANG);
      if (got == entry.watched.pid) {
        if (WIFEXITED(status)) out.exit_code = WEXITSTATUS(status);
        if (WIFSIGNALED(status)) out.signal = WTERMSIG(status);
        pending.erase(pending.begin() + static_cast<std::ptrdiff_t>(p));
        continue;
      }
      if (got < 0) {
        // Already reaped elsewhere or never ours: nothing more to learn.
        pending.erase(pending.begin() + static_cast<std::ptrdiff_t>(p));
        continue;
      }
      const auto now = steady_clock::now();
      if (now >= entry.watched.deadline) {
        bool making_progress = false;
        if (bus != nullptr) {
          const ipc::PeerInfo info =
              bus->find_pid(static_cast<std::int32_t>(entry.watched.pid));
          if (info.slot >= 0 && !info.torn) {
            if (info.payload.heartbeat != entry.last_beat) {
              entry.last_beat = info.payload.heartbeat;
              entry.last_progress = now;
            }
            making_progress = now - entry.last_progress < heartbeat_grace;
          }
        }
        // Past the deadline with a silent (or absent) heartbeat: the child
        // is wedged. A still-beating child gets a bounded extension — the
        // wait can never become the unbounded hang this watchdog replaces.
        const bool hard_cap =
            now >= entry.watched.deadline + 4 * heartbeat_grace;
        if (!making_progress || hard_cap) {
          kill(entry.watched.pid, SIGKILL);
          out.hung = true;
          int final_status = 0;
          if (waitpid(entry.watched.pid, &final_status, 0) ==
              entry.watched.pid) {
            if (WIFSIGNALED(final_status)) {
              out.signal = WTERMSIG(final_status);
            } else if (WIFEXITED(final_status)) {
              // Raced a genuine exit; it still blew the deadline.
              out.exit_code = WEXITSTATUS(final_status);
            }
          }
          pending.erase(pending.begin() + static_cast<std::ptrdiff_t>(p));
          continue;
        }
      }
      ++p;
    }
    if (!pending.empty()) std::this_thread::sleep_for(milliseconds(20));
  }
  return reaped;
}

CollectedTelemetry collect_telemetry_parts(
    const std::vector<TelemetryPart>& parts) {
  CollectedTelemetry out;
  out.expected = static_cast<int>(parts.size());
  for (const TelemetryPart& part : parts) {
    const std::string text = read_file(part.path);
    ::unlink(part.path.c_str());
    if (text.empty()) {
      // The child died (or was killed) before its exit-time dump.
      ++out.missing;
      continue;
    }
    telemetry::Snapshot snap;
    std::string parse_error;
    if (!telemetry::parse_json_snapshot(text, &snap, &parse_error)) {
      std::fprintf(stderr,
                   "launcher: discarding torn telemetry part from pid %d "
                   "(%s): %s\n",
                   static_cast<int>(part.pid), part.path.c_str(),
                   parse_error.c_str());
      ++out.discarded;
      continue;
    }
    ++out.merged;
    out.snapshots.emplace_back(part.pid, std::move(snap));
  }
  return out;
}

}  // namespace rubic::scenario
