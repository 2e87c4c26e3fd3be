#include "src/scenario/engine.hpp"

#include <fcntl.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <thread>

#include "src/control/factory.hpp"
#include "src/stm/profiler.hpp"
#include "src/telemetry/http_server.hpp"
#include "src/telemetry/json.hpp"
#include "src/telemetry/snapshot_signal.hpp"
#include "src/trace/trace.hpp"

namespace rubic::scenario {

using namespace std::chrono;

namespace {

// Engine-side book-keeping for one ProcessSpec across the run.
struct ProcessState {
  const ProcessSpec* spec = nullptr;
  std::size_t index = 0;
  std::int64_t start_ms = 0;
  std::int64_t stop_ms = 0;  // effective (0 resolved to the horizon)
  pid_t pid = 0;
  bool started = false;
  bool exited = false;
  bool frozen = false;
  bool chaos_killed = false;
  bool hung = false;
  int exit_code = -1;
  int signal = 0;
  std::int64_t started_at_ms = -1;
  std::int64_t ended_at_ms = -1;
  // Liveness tracking: last observed heartbeat counter and the tick time it
  // last changed (also reset at start and at thaw, so grace restarts).
  std::uint64_t last_beat = 0;
  std::int64_t last_progress_ms = 0;
};

std::string classify_outcome(const ProcessOutcome& p) {
  if (!p.started) return "not-started";
  if (p.chaos_killed) return "chaos-killed";
  if (p.hung) return "hung";
  if (p.exit_code == 0) return "completed";
  if (p.exit_code == 3) return "verify-failed";
  if (p.signal != 0) return "crashed";
  return "died";
}

// Merged mid-run views from the children's live part files (.tlive /
// .clive, refreshed by run_workload_child when ChildRun::live_base is set).
// A part that is absent (child not yet started, or died before its first
// refresh) or torn is skipped: the caller serves whatever is currently
// readable, exactly like a scrape of a partially-up fleet. Files are read
// but never unlinked (the run owns their lifetime).
telemetry::Snapshot merged_live_telemetry(const std::string& base,
                                          const std::vector<pid_t>& pids) {
  std::vector<telemetry::Snapshot> snaps;
  for (pid_t pid : pids) {
    const std::string text = read_file(part_path(base, pid, ".tlive"));
    if (text.empty()) continue;
    telemetry::Snapshot snap;
    if (telemetry::parse_json_snapshot(text, &snap)) {
      snaps.push_back(std::move(snap));
    }
  }
  return telemetry::merge_snapshots(snaps);
}

stm::profiler::ContentionSnapshot merged_live_contention(
    const std::string& base, const std::vector<pid_t>& pids) {
  std::vector<stm::profiler::ContentionSnapshot> snaps;
  for (pid_t pid : pids) {
    const std::string text = read_file(part_path(base, pid, ".clive"));
    if (text.empty()) continue;
    stm::profiler::ContentionSnapshot snap;
    if (stm::profiler::parse_json(text, &snap)) {
      snaps.push_back(std::move(snap));
    }
  }
  return stm::profiler::merge(snaps);
}

// The co-location bus rendered as a /status JSON body: live count plus one
// row per healthy peer (label, pid, level, throughput, commit ratio, tasks,
// done). Safe from any thread: bus reads are seqlock-validated.
std::string bus_status_json(std::string_view tool, ipc::CoLocationBus& bus,
                            std::int64_t elapsed_ms) {
  using telemetry::jsonutil::append_double;
  using telemetry::jsonutil::append_i64;
  using telemetry::jsonutil::append_quoted;
  using telemetry::jsonutil::append_u64;
  std::string out = "{\"tool\": ";
  append_quoted(out, tool);
  out += ", \"elapsed_ms\": ";
  append_i64(out, elapsed_ms);
  out += ", \"live\": ";
  append_i64(out, bus.live_count());
  out += ", \"peers\": [";
  bool first = true;
  for (const ipc::PeerInfo& info : bus.snapshot()) {
    if (info.slot < 0 || info.torn || info.corrupt) continue;
    if (info.state == ipc::PeerState::kDead) continue;
    if (!first) out += ", ";
    first = false;
    out += "{\"label\": ";
    append_quoted(out, info.payload.label);
    out += ", \"pid\": ";
    append_i64(out, info.pid);
    out += ", \"level\": ";
    append_i64(out, info.payload.done != 0 ? info.payload.final_level
                                           : info.payload.level);
    out += ", \"throughput\": ";
    append_double(out, info.payload.throughput);
    out += ", \"commit_ratio\": ";
    append_double(out, info.payload.commit_ratio);
    out += ", \"tasks_completed\": ";
    append_u64(out, info.payload.tasks_completed);
    out += ", \"done\": ";
    out += info.payload.done != 0 ? "true" : "false";
    out += "}";
  }
  out += "]}\n";
  return out;
}

}  // namespace

RunResult run_scenario(const ScenarioSpec& input, const EngineOptions& opt) {
  RunResult result;
  result.spec = input;
  ScenarioSpec& spec = result.spec;

  // Resolve sizing defaults the way rubic_colocate does, so a scenario and
  // a hand-launched co-location of the same shape behave identically.
  if (spec.contexts <= 0) {
    spec.contexts =
        std::max(1, static_cast<int>(std::thread::hardware_concurrency()));
  }
  if (spec.pool <= 0) spec.pool = 2 * spec.contexts;

  // Fail on unknown policies before the first fork. policy_known also
  // resolves the "adaptive:<inner>" prefix form.
  for (const ProcessSpec& proc : spec.processes) {
    if (!control::policy_known(proc.policy)) {
      throw std::invalid_argument("scenario: process '" + proc.name +
                                  "' names unknown policy '" + proc.policy +
                                  "'");
    }
  }

  const std::string bus_name =
      opt.bus_name.empty()
          ? "/rubic-soak-" + std::to_string(static_cast<int>(getpid()))
          : opt.bus_name;
  // Run-wide child settings; the arrivals below add the per-process ones.
  const ChildRun& base = opt.child;
  const bool telemetry_on = base.telemetry;
  const bool live_parts = !base.live_base.empty();

  ipc::BusConfig bus_config;
  bus_config.name = bus_name;
  bus_config.contexts = spec.contexts;
  bus_config.max_slots = static_cast<int>(spec.processes.size()) + 4;
  const auto stale_after = milliseconds(25 * spec.period_ms);
  bus_config.stale_after = stale_after;
  auto bus = ipc::CoLocationBus::create_or_attach(bus_config);

  const std::int64_t horizon_ms = spec.seconds * 1000;

  // Live introspection: children refresh their .tlive/.clive parts, the
  // parent serves the merged view. The pid list is shared between the tick
  // loop (writer) and the HTTP thread (reader), hence the mutex.
  std::mutex live_mutex;
  std::vector<pid_t> live_pids;
  const auto live_pids_copy = [&live_mutex, &live_pids] {
    std::lock_guard<std::mutex> lock(live_mutex);
    return live_pids;
  };
  std::vector<ProcessState> states(spec.processes.size());
  for (std::size_t i = 0; i < states.size(); ++i) {
    states[i].spec = &spec.processes[i];
    states[i].index = i;
    states[i].start_ms = spec.processes[i].start_ms;
    states[i].stop_ms = spec.effective_stop_ms(spec.processes[i]);
  }
  auto state_by_name = [&states](const std::string& name) -> ProcessState* {
    for (ProcessState& s : states) {
      if (s.spec->name == name) return &s;
    }
    return nullptr;
  };

  // One verdict per declared invariant, in declaration order; liveness
  // verdicts accumulate their first violation inside the tick loop, the
  // rest are judged after the run.
  result.verdicts.resize(spec.invariants.size());
  for (std::size_t i = 0; i < spec.invariants.size(); ++i) {
    result.verdicts[i].invariant = spec.invariants[i];
  }

  const auto t0 = steady_clock::now();
  auto elapsed_ms = [&t0]() -> std::int64_t {
    return duration_cast<milliseconds>(steady_clock::now() - t0).count();
  };

  std::unique_ptr<telemetry::HttpServer> server;
  if (!opt.listen.empty()) {
    const auto listen_spec = telemetry::parse_listen_spec(opt.listen);
    if (!listen_spec) {
      throw std::invalid_argument("scenario: bad listen spec '" + opt.listen +
                                  "' (want PORT or HOST:PORT)");
    }
    server = std::make_unique<telemetry::HttpServer>(*listen_spec);
    server->route("/healthz",
                  [] { return telemetry::healthz_response(); });
    const std::string& live_base = base.live_base;
    server->route("/metrics", [live_base, live_pids_copy] {
      return telemetry::HttpResponse{
          200, "text/plain; version=0.0.4; charset=utf-8",
          telemetry::to_prometheus(
              merged_live_telemetry(live_base, live_pids_copy()))};
    });
    server->route("/status", [tool = opt.tool, bus_ptr = bus.get(),
                              elapsed_ms] {
      return telemetry::HttpResponse{
          200, "application/json; charset=utf-8",
          bus_status_json(tool, *bus_ptr, elapsed_ms())};
    });
    server->route("/hotspots", [live_base, live_pids_copy] {
      return telemetry::HttpResponse{
          200, "application/json; charset=utf-8",
          stm::profiler::to_json(
              merged_live_contention(live_base, live_pids_copy()))};
    });
  }

  std::size_t trouble_cursor = 0;
  result.troubles.reserve(spec.troubles.size());
  for (const TroubleSpec& t : spec.troubles) {
    result.troubles.push_back({t, -1, false});
  }

  // Forks every process whose start_ms has arrived.
  const auto fork_arrivals = [&](std::int64_t now_ms) {
    for (ProcessState& s : states) {
      if (s.started || s.start_ms > now_ms) continue;
      ChildRun run = base;
      run.label = s.spec->name;
      run.workload = s.spec->workload;
      run.policy = s.spec->policy;
      run.backend = s.spec->backend;
      if (!s.spec->fault_spec.empty()) {
        run.fault_spec = spec.effective_fault_spec(s.index);
      }
      run.run_ms = std::max<std::int64_t>(100, s.stop_ms - s.start_ms);
      run.contexts = spec.contexts;
      run.pool = spec.pool;
      run.period_ms = spec.period_ms;
      run.child_index = static_cast<int>(s.index);
      run.procs = static_cast<int>(spec.processes.size());
      run.tamper_zero_sum = s.spec->tamper_zero_sum;
      ipc::CoLocationBus* bus_ptr = bus.get();
      const bool quiet = !opt.echo_child_stderr;
      const pid_t pid = spawn_child([run, bus_ptr, quiet]() {
        if (quiet) {
          const int null_fd = ::open("/dev/null", O_WRONLY);
          if (null_fd >= 0) {
            ::dup2(null_fd, STDERR_FILENO);
            ::close(null_fd);
          }
        }
        return run_workload_child(run, bus_ptr);
      });
      if (pid < 0) {
        std::perror((opt.tool + ": fork").c_str());
        continue;  // retried next tick; a persistent failure ends as hung=no
      }
      s.pid = pid;
      s.started = true;
      s.started_at_ms = now_ms;
      s.last_progress_ms = now_ms;
      if (live_parts) {
        std::lock_guard<std::mutex> lock(live_mutex);
        live_pids.push_back(pid);
      }
    }
  };
  // Processes present from the start fork before the endpoint's thread
  // exists: fork() copies only the calling thread, so a lock another thread
  // holds at that instant stays held in the child for good. The socket is
  // already bound, so early connections wait in its backlog.
  fork_arrivals(0);
  if (server) {
    server->start();
    std::fprintf(stderr, "%s: introspection endpoint on %s:%u\n",
                 opt.tool.c_str(), server->host().c_str(), server->port());
  }

  auto next_tick = t0;
  for (;;) {
    const std::int64_t now_ms = elapsed_ms();
    if (now_ms >= horizon_ms) break;

    fork_arrivals(now_ms);

    // -- scripted troubles ---------------------------------------------
    while (trouble_cursor < spec.troubles.size() &&
           spec.troubles[trouble_cursor].at_ms <= now_ms) {
      const TroubleSpec& t = spec.troubles[trouble_cursor];
      TroubleOutcome& out = result.troubles[trouble_cursor];
      ++trouble_cursor;
      ProcessState* target = state_by_name(t.target);
      out.applied_at_ms = now_ms;
      if (target == nullptr || !target->started || target->exited) {
        continue;  // delivered stays false: the target was not running
      }
      switch (t.kind) {
        case TroubleKind::kKill:
          ::kill(target->pid, SIGKILL);
          target->chaos_killed = true;
          break;
        case TroubleKind::kFreeze:
          ::kill(target->pid, SIGSTOP);
          target->frozen = true;
          break;
        case TroubleKind::kThaw:
          ::kill(target->pid, SIGCONT);
          target->frozen = false;
          // Grace restarts at the thaw: the child needs a beat to wake.
          target->last_progress_ms = now_ms;
          break;
      }
      out.delivered = true;
    }

    // -- departures ----------------------------------------------------
    for (ProcessState& s : states) {
      if (!s.started || s.exited) continue;
      int status = 0;
      const pid_t got = waitpid(s.pid, &status, WNOHANG);
      if (got != s.pid) continue;
      s.exited = true;
      s.ended_at_ms = now_ms;
      if (WIFEXITED(status)) s.exit_code = WEXITSTATUS(status);
      if (WIFSIGNALED(status)) s.signal = WTERMSIG(status);
    }

    // -- timeline snapshot ---------------------------------------------
    TimelinePoint point;
    point.at_ms = now_ms;
    point.live = bus->live_count();
    for (const ipc::PeerInfo& info : bus->snapshot()) {
      if (info.slot < 0 || info.torn || info.corrupt) continue;
      if (info.state == ipc::PeerState::kDead) continue;
      PeerPoint peer;
      peer.label = info.payload.label;
      peer.pid = info.pid;
      peer.level = info.payload.done != 0 ? info.payload.final_level
                                          : info.payload.level;
      peer.throughput = info.payload.throughput;
      peer.commit_ratio = info.payload.commit_ratio;
      peer.tasks_completed = info.payload.tasks_completed;
      peer.heartbeat = info.payload.heartbeat;
      peer.done = info.payload.done != 0;
      point.peers.push_back(std::move(peer));
    }
    result.timeline.push_back(std::move(point));

    // -- continuous liveness -------------------------------------------
    for (ProcessState& s : states) {
      if (!s.started || s.exited || s.frozen) continue;
      const ipc::PeerInfo info =
          bus->find_pid(static_cast<std::int32_t>(s.pid));
      if (info.slot < 0) continue;  // solo child: watchdog territory
      if (info.torn) {
        // Mid-publish: definitely alive.
        s.last_progress_ms = now_ms;
        continue;
      }
      if (info.payload.done != 0) continue;  // finished; exit is imminent
      if (info.payload.heartbeat != s.last_beat) {
        s.last_beat = info.payload.heartbeat;
        s.last_progress_ms = now_ms;
      }
      const std::int64_t silent_ms = now_ms - s.last_progress_ms;
      for (std::size_t i = 0; i < spec.invariants.size(); ++i) {
        const Invariant& inv = spec.invariants[i];
        if (inv.kind != InvariantKind::kLiveness) continue;
        InvariantVerdict& verdict = result.verdicts[i];
        if (!verdict.passed) continue;  // first violation already recorded
        if (silent_ms > inv.grace_ms) {
          verdict.passed = false;
          verdict.first_violation_ms = now_ms;
          verdict.detail = "process '" + s.spec->name +
                           "' heartbeat silent for " +
                           std::to_string(silent_ms) + " ms (grace " +
                           std::to_string(inv.grace_ms) + " ms)";
        }
      }
    }

    // -- on-demand snapshot (kill -USR1 <parent pid>) ------------------
    if (live_parts && telemetry::consume_snapshot_signal()) {
      const std::vector<pid_t> pids = live_pids_copy();
      trace::write_file(base.live_base + ".signal.telemetry.json",
                        telemetry::to_json(
                            merged_live_telemetry(base.live_base, pids)));
      trace::write_file(base.live_base + ".signal.contention.json",
                        stm::profiler::to_json(
                            merged_live_contention(base.live_base, pids)));
      std::fprintf(stderr,
                   "%s: SIGUSR1 snapshot at %lld ms -> "
                   "%s.signal.{telemetry,contention}.json\n",
                   opt.tool.c_str(), static_cast<long long>(now_ms),
                   base.live_base.c_str());
    }

    // Sleep to the next tick, or earlier to the next scripted event.
    next_tick += milliseconds(spec.tick_ms);
    auto wake = next_tick;
    if (trouble_cursor < spec.troubles.size()) {
      wake = std::min(
          wake, t0 + milliseconds(spec.troubles[trouble_cursor].at_ms));
    }
    for (const ProcessState& s : states) {
      if (!s.started && s.start_ms > now_ms) {
        wake = std::min(wake, t0 + milliseconds(s.start_ms));
      }
    }
    std::this_thread::sleep_until(wake);
  }

  // -- drain: thaw stragglers, reap under the watchdog -------------------
  for (ProcessState& s : states) {
    if (s.started && !s.exited && s.frozen) {
      ::kill(s.pid, SIGCONT);
      s.frozen = false;
    }
  }
  std::vector<WatchedChild> watched;
  std::vector<ProcessState*> watched_states;
  for (ProcessState& s : states) {
    if (!s.started || s.exited) continue;
    WatchedChild w;
    w.pid = s.pid;
    w.deadline = t0 + milliseconds(s.stop_ms + spec.hung_after_ms);
    watched.push_back(w);
    watched_states.push_back(&s);
  }
  const std::vector<ReapedChild> reaped =
      reap_with_watchdog(watched, bus.get(), stale_after);
  for (std::size_t i = 0; i < reaped.size(); ++i) {
    ProcessState& s = *watched_states[i];
    s.exited = true;
    s.ended_at_ms = elapsed_ms();
    s.exit_code = reaped[i].exit_code;
    s.signal = reaped[i].signal;
    s.hung = reaped[i].hung;
  }
  result.wall_seconds =
      duration<double>(steady_clock::now() - t0).count();

  // -- final bus samples, telemetry parts, trace fragments ---------------
  std::vector<TelemetryPart> parts;
  result.processes.resize(states.size());
  for (std::size_t i = 0; i < states.size(); ++i) {
    const ProcessState& s = states[i];
    ProcessOutcome& out = result.processes[i];
    out.name = s.spec->name;
    out.pid = s.pid;
    out.started = s.started;
    out.chaos_killed = s.chaos_killed;
    out.hung = s.hung;
    out.exit_code = s.exit_code;
    out.signal = s.signal;
    out.started_at_ms = s.started_at_ms;
    out.ended_at_ms = s.ended_at_ms;
    if (s.started) {
      const ipc::PeerInfo info =
          bus->find_pid(static_cast<std::int32_t>(s.pid));
      if (info.slot >= 0 && !info.torn && !info.corrupt) {
        out.payload = info.payload;
        out.completed_on_bus = info.payload.done != 0;
        out.tasks_per_second = out.completed_on_bus
                                   ? info.payload.tasks_per_second
                                   : info.payload.throughput;
        out.tasks_completed = info.payload.tasks_completed;
      }
      if (telemetry_on) {
        parts.push_back(
            {s.pid, part_path(base.telemetry_base, s.pid, ".tpart")});
      }
    }
    out.outcome = classify_outcome(out);
  }
  result.telemetry_enabled = telemetry_on;
  if (telemetry_on) {
    result.telemetry = collect_telemetry_parts(parts);
    std::vector<telemetry::Snapshot> snapshots;
    snapshots.reserve(result.telemetry.snapshots.size());
    for (const auto& [pid, snap] : result.telemetry.snapshots) {
      snapshots.push_back(snap);
    }
    result.merged_telemetry = telemetry::merge_snapshots(snapshots);
  }
  if (!base.trace_base.empty()) {
    // One Perfetto-loadable document, one process track per child. A
    // killed child never wrote its part (or left a truncated tail); the
    // merge skips missing files and partial lines.
    std::vector<std::string> fragments;
    for (const ProcessState& s : states) {
      if (!s.started) continue;
      const std::string part = part_path(base.trace_base, s.pid, ".part");
      fragments.push_back(read_file(part));
      ::unlink(part.c_str());
    }
    if (!trace::write_file(base.trace_base,
                           trace::merge_chrome_fragments(fragments))) {
      std::fprintf(stderr, "%s: failed to write %s\n", opt.tool.c_str(),
                   base.trace_base.c_str());
    }
  }

  // The endpoint reads the bus and the live parts: stop it before either
  // goes away.
  if (server) server->stop();
  if (live_parts) {
    for (pid_t pid : live_pids_copy()) {
      ::unlink(part_path(base.live_base, pid, ".tlive").c_str());
      ::unlink(part_path(base.live_base, pid, ".clive").c_str());
    }
  }

  bus.reset();
  ipc::CoLocationBus::unlink(bus_name);

  // -- exit-time invariants ----------------------------------------------
  std::vector<ProcessExit> exits;
  exits.reserve(result.processes.size());
  for (const ProcessOutcome& p : result.processes) {
    ProcessExit e;
    e.name = p.name;
    e.started = p.started;
    e.chaos_killed = p.chaos_killed;
    e.hung = p.hung;
    e.verify_failed = p.exit_code == 3;
    e.clean_exit = p.exit_code == 0;
    e.completed_on_bus = p.completed_on_bus;
    e.tasks_per_second = p.tasks_per_second;
    exits.push_back(std::move(e));
  }
  const std::int64_t end_ms = horizon_ms;
  for (std::size_t i = 0; i < spec.invariants.size(); ++i) {
    const Invariant& inv = spec.invariants[i];
    InvariantVerdict& verdict = result.verdicts[i];
    std::string detail;
    switch (inv.kind) {
      case InvariantKind::kLiveness:
        break;  // judged continuously above
      case InvariantKind::kVerified:
        verdict.passed = eval_verified(exits, &detail);
        break;
      case InvariantKind::kJainMin:
        verdict.passed = eval_jain_min(inv, exits, &detail);
        break;
      case InvariantKind::kSloFloor:
        if (!telemetry_on) {
          verdict.passed = false;
          detail = "slo_floor needs telemetry, which this run disabled";
        } else {
          verdict.passed =
              eval_slo_floor(inv, result.merged_telemetry, &detail);
        }
        break;
      case InvariantKind::kCounterMax:
      case InvariantKind::kCounterMin:
        if (!telemetry_on) {
          verdict.passed = false;
          detail = "counter bounds need telemetry, which this run disabled";
        } else {
          verdict.passed =
              eval_counter_bound(inv, result.merged_telemetry, &detail);
        }
        break;
    }
    if (!verdict.passed && verdict.first_violation_ms < 0) {
      verdict.first_violation_ms = end_ms;
      verdict.detail = std::move(detail);
    }
  }
  // Point every violation at the timeline entry nearest to it.
  for (InvariantVerdict& verdict : result.verdicts) {
    if (verdict.passed || result.timeline.empty()) continue;
    std::int64_t best = result.timeline.front().at_ms;
    for (const TimelinePoint& point : result.timeline) {
      if (std::llabs(point.at_ms - verdict.first_violation_ms) <
          std::llabs(best - verdict.first_violation_ms)) {
        best = point.at_ms;
      }
    }
    verdict.nearest_snapshot_ms = best;
  }

  // A run passes when every declared invariant holds AND nothing died
  // unexpectedly — even a scenario that declares no invariants still fails
  // on a hung or crashed child.
  result.passed = true;
  for (const InvariantVerdict& verdict : result.verdicts) {
    if (!verdict.passed) result.passed = false;
  }
  for (const ProcessOutcome& p : result.processes) {
    if (p.outcome == "hung" || p.outcome == "crashed" ||
        p.outcome == "died" || p.outcome == "verify-failed") {
      result.passed = false;
    }
  }
  return result;
}

std::string report_json(const RunResult& result) {
  using telemetry::jsonutil::append_double;
  using telemetry::jsonutil::append_i64;
  using telemetry::jsonutil::append_quoted;
  using telemetry::jsonutil::append_u64;

  std::string out = "{\n  \"schema\": ";
  append_quoted(out, kSoakReportSchema);
  out += ",\n  \"scenario\": {\"name\": ";
  append_quoted(out, result.spec.name);
  out += ", \"seed\": ";
  append_u64(out, result.spec.seed);
  out += ", \"seconds\": ";
  append_i64(out, result.spec.seconds);
  out += ", \"contexts\": ";
  append_i64(out, result.spec.contexts);
  out += ", \"pool\": ";
  append_i64(out, result.spec.pool);
  out += ", \"tick_ms\": ";
  append_i64(out, result.spec.tick_ms);
  out += ", \"hung_after_ms\": ";
  append_i64(out, result.spec.hung_after_ms);
  out += "},\n  \"passed\": ";
  out += result.passed ? "true" : "false";
  out += ",\n  \"wall_seconds\": ";
  append_double(out, result.wall_seconds);

  out += ",\n  \"processes\": [";
  for (std::size_t i = 0; i < result.processes.size(); ++i) {
    const ProcessOutcome& p = result.processes[i];
    out += i == 0 ? "\n" : ",\n";
    out += "    {\"name\": ";
    append_quoted(out, p.name);
    out += ", \"pid\": ";
    append_i64(out, p.pid);
    out += ", \"outcome\": ";
    append_quoted(out, p.outcome);
    out += ", \"exit_code\": ";
    append_i64(out, p.exit_code);
    out += ", \"signal\": ";
    append_i64(out, p.signal);
    out += ", \"completed_on_bus\": ";
    out += p.completed_on_bus ? "true" : "false";
    out += ", \"tasks_per_second\": ";
    append_double(out, p.tasks_per_second);
    out += ", \"tasks_completed\": ";
    append_u64(out, p.tasks_completed);
    out += ", \"started_at_ms\": ";
    append_i64(out, p.started_at_ms);
    out += ", \"ended_at_ms\": ";
    append_i64(out, p.ended_at_ms);
    out += "}";
  }
  out += "\n  ]";

  out += ",\n  \"troubles\": [";
  for (std::size_t i = 0; i < result.troubles.size(); ++i) {
    const TroubleOutcome& t = result.troubles[i];
    out += i == 0 ? "\n" : ",\n";
    out += "    {\"kind\": ";
    append_quoted(out, trouble_kind_name(t.spec.kind));
    out += ", \"target\": ";
    append_quoted(out, t.spec.target);
    out += ", \"at_ms\": ";
    append_i64(out, t.spec.at_ms);
    out += ", \"applied_at_ms\": ";
    append_i64(out, t.applied_at_ms);
    out += ", \"delivered\": ";
    out += t.delivered ? "true" : "false";
    out += "}";
  }
  out += result.troubles.empty() ? "]" : "\n  ]";

  out += ",\n  \"invariants\": [";
  for (std::size_t i = 0; i < result.verdicts.size(); ++i) {
    const InvariantVerdict& v = result.verdicts[i];
    out += i == 0 ? "\n" : ",\n";
    out += "    {\"kind\": ";
    append_quoted(out, invariant_kind_name(v.invariant.kind));
    out += ", \"params\": ";
    append_quoted(out, describe(v.invariant));
    out += ", \"passed\": ";
    out += v.passed ? "true" : "false";
    out += ", \"first_violation_ms\": ";
    append_i64(out, v.first_violation_ms);
    out += ", \"nearest_snapshot_ms\": ";
    append_i64(out, v.nearest_snapshot_ms);
    out += ", \"detail\": ";
    append_quoted(out, v.detail);
    out += "}";
  }
  out += result.verdicts.empty() ? "]" : "\n  ]";

  out += ",\n  \"timeline\": [";
  for (std::size_t i = 0; i < result.timeline.size(); ++i) {
    const TimelinePoint& point = result.timeline[i];
    out += i == 0 ? "\n" : ",\n";
    out += "    {\"at_ms\": ";
    append_i64(out, point.at_ms);
    out += ", \"live\": ";
    append_i64(out, point.live);
    out += ", \"peers\": [";
    for (std::size_t j = 0; j < point.peers.size(); ++j) {
      const PeerPoint& peer = point.peers[j];
      if (j != 0) out += ", ";
      out += "{\"label\": ";
      append_quoted(out, peer.label);
      out += ", \"pid\": ";
      append_i64(out, peer.pid);
      out += ", \"level\": ";
      append_i64(out, peer.level);
      out += ", \"throughput\": ";
      append_double(out, peer.throughput);
      out += ", \"commit_ratio\": ";
      append_double(out, peer.commit_ratio);
      out += ", \"tasks_completed\": ";
      append_u64(out, peer.tasks_completed);
      out += ", \"heartbeat\": ";
      append_u64(out, peer.heartbeat);
      out += ", \"done\": ";
      out += peer.done ? "true" : "false";
      out += "}";
    }
    out += "]}";
  }
  out += result.timeline.empty() ? "]" : "\n  ]";

  out += ",\n  \"telemetry\": {\"enabled\": ";
  out += result.telemetry_enabled ? "true" : "false";
  out += ", \"parts\": {\"expected\": ";
  append_i64(out, result.telemetry.expected);
  out += ", \"merged\": ";
  append_i64(out, result.telemetry.merged);
  out += ", \"missing\": ";
  append_i64(out, result.telemetry.missing);
  out += ", \"discarded\": ";
  append_i64(out, result.telemetry.discarded);
  out += "}";
  if (result.telemetry_enabled) {
    out += ", \"schema\": ";
    append_quoted(out, telemetry::kJsonSchema);
    out += ", \"merged\": ";
    out += telemetry::to_json_metrics(result.merged_telemetry, "  ");
  }
  out += "}\n}\n";
  return out;
}

}  // namespace rubic::scenario
