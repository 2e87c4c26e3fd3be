// The monitoring thread (paper §3.1).
//
// Runs at elevated scheduling priority (best effort — the paper gives the
// monitor a higher priority so it keeps running when the machine is
// oversubscribed), wakes every TIME_PERIOD (10 ms in the paper), computes
// the process throughput from the workers' counters, feeds it to the
// controller and applies the returned parallelism level to the pool.
// Each round is computed once into a RoundRecord (measure → decide →
// publish) and handed directly to every consumer: the audit log, the
// co-location bus, latest(), the trace and telemetry.
//
// Robustness: throughput is always scaled by the *measured* elapsed time of
// the round (never the nominal period — a preempted monitor would otherwise
// report inflated tasks/sec), non-finite or negative samples are clamped to
// zero, rounds that overran the period by MonitorConfig::overrun_factor are
// counted and skipped (the level holds, one starved measurement must not
// drive a decision), and every controller is wrapped in a
// control::ControllerGuard so garbage or thrown answers cannot reach the
// pool. The chaos suite (tests/test_fault_injection.cpp) drives all of
// these paths through the src/fault/ hook points in the monitor loop.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <optional>
#include <thread>
#include <vector>

#include "src/control/contention.hpp"
#include "src/control/controller.hpp"
#include "src/control/guard.hpp"
#include "src/runtime/malleable_pool.hpp"
#include "src/telemetry/audit.hpp"

namespace rubic::ipc {
class CoLocationBus;
}

namespace rubic::runtime {

struct MonitorSample {
  std::chrono::nanoseconds elapsed;
  double throughput;  // tasks completed in the period, scaled to tasks/sec
  int level;          // level chosen for the NEXT period
};

struct MonitorConfig {
  std::chrono::milliseconds period{10};  // TIME_PERIOD (§4.4)
  bool raise_priority = true;
  bool record_trace = true;
  // A round whose measured duration exceeds overrun_factor × period was
  // preempted (or fault-stalled): its sample is recorded but not fed to the
  // controller, so one starved measurement cannot trigger a bogus level
  // change. <= 0 disables the check.
  double overrun_factor = 8.0;
  // Stop sampling after this many rounds (0 = run until stop()). Chaos
  // tests use this to make the trace length — and thus the whole trace —
  // deterministic under a fixed fault plan.
  std::uint64_t max_rounds = 0;
  // When set and the controller implements ContentionSignalConsumer, the
  // monitor also derives the commit ratio from this STM runtime's aggregate
  // statistics and feeds it instead of the raw throughput (used by the
  // related-work ContentionRatioController, §5). When the controller is a
  // control::BackendAdapter (the "adaptive" meta-controller), the monitor
  // additionally feeds it a per-round BackendSignal and applies requested
  // STM backend switches to this runtime at pool quiescent points.
  stm::Runtime* stm_runtime = nullptr;
  // When set (and a slot was acquired), every monitor round is published to
  // this co-location bus: level, throughput, commit ratio, heartbeat. The
  // publish is a wait-free seqlock write, so the TIME_PERIOD cadence is
  // unaffected. The bus must outlive the monitor.
  ipc::CoLocationBus* bus = nullptr;
  // When set, every round appends one decision record (input, prev/next
  // level, CIMD phase) to this audit log — the stream tools/rubic_replay
  // re-drives offline. The caller owns the log (and its AuditMeta) and must
  // keep it alive until after stop(). One uncontended mutex acquisition per
  // round; leave null to skip it.
  telemetry::AuditLog* audit = nullptr;
};

// One monitor round, built once and handed to every consumer.
struct RoundRecord {
  // What the audit log appends and tools/rubic_replay re-drives: the input
  // as fed to the guard, prev/next level, the overrun/sanitized flags, the
  // phase of a decided round and the backend-adaptation sub-record.
  telemetry::AuditRecord decision;
  std::chrono::nanoseconds duration{0};  // measured (or fault-scripted)
  double throughput = 0.0;               // tasks/sec over `duration`, sanitized
  double commit_ratio = 1.0;             // STM commits / attempts this round
  std::uint64_t tasks_completed = 0;     // pool total, monotonic
  std::uint64_t commits = 0;             // STM totals; 0 with no runtime wired
  std::uint64_t aborts = 0;
  int backend = -1;  // active stm::BackendKind after the round; -1 = none
  // The policy's phase as of its last decision. decision.phase_* is empty
  // on an overrun round (the policy was not consulted); this one holds.
  control::DecisionInfo phase;
};

class Monitor {
 public:
  // Applies controller.initial_level() to the pool and starts sampling.
  // All controller interaction goes through an internal ControllerGuard
  // bounded to [1, pool.pool_size()].
  Monitor(MalleablePool& pool, control::Controller& controller,
          MonitorConfig config = {});
  ~Monitor();

  Monitor(const Monitor&) = delete;
  Monitor& operator=(const Monitor&) = delete;

  // Stops the monitoring loop (workers keep running at the last level).
  // Contract: idempotent and thread-safe — any number of calls from any
  // threads is fine, every call returns only after the monitor thread has
  // been joined, and the destructor may run after an explicit stop() (it
  // simply calls stop() again). Concurrent callers serialize on the join.
  void stop();

  // Trace access is only valid after stop().
  const std::vector<MonitorSample>& trace() const noexcept { return trace_; }

  // Whether the priority raise actually succeeded on this host.
  bool priority_raised() const noexcept { return priority_raised_; }

  std::uint64_t rounds() const noexcept {
    return rounds_.load(std::memory_order_acquire);
  }

  // Degradation diagnostics: samples clamped by the guard or the monitor
  // (NaN/inf/negative throughput) and rounds skipped as overruns.
  std::uint64_t sanitized_samples() const noexcept {
    return sanitized_samples_.load(std::memory_order_acquire);
  }
  std::uint64_t overrun_rounds() const noexcept {
    return overrun_rounds_.load(std::memory_order_acquire);
  }

  // Online STM backend switches actually applied (adaptive policies only).
  std::uint64_t backend_switches() const noexcept {
    return backend_switches_.load(std::memory_order_acquire);
  }

  const control::ControllerGuard& guard() const noexcept { return guard_; }

  // Copy of the latest round's record; nullopt until the first round
  // completes. Thread-safe (one uncontended lock per round on the loop
  // side), unlike guard().decision_info(), which the monitor thread owns.
  std::optional<RoundRecord> latest() const;

  // Mean level chosen over all rounds, whether or not record_trace is set.
  // Only valid after stop().
  double mean_level() const noexcept {
    const std::uint64_t n = rounds();
    return n == 0 ? 0.0 : level_sum_ / static_cast<double>(n);
  }

 private:
  void loop();
  void publish(RoundRecord&& record);

  MalleablePool& pool_;
  control::ControllerGuard guard_;
  const MonitorConfig config_;

  std::atomic<bool> stopping_{false};
  std::mutex join_mutex_;  // serializes the join across concurrent stop()s
  std::atomic<std::uint64_t> rounds_{0};
  std::atomic<std::uint64_t> sanitized_samples_{0};
  std::atomic<std::uint64_t> overrun_rounds_{0};
  std::atomic<std::uint64_t> backend_switches_{0};
  bool priority_raised_ = false;
  std::vector<MonitorSample> trace_;
  // Trace timestamps accumulate the per-round durations (telescoping to
  // wall time in a normal run) so a clock-jump fault yields a fully
  // deterministic trace instead of leaking real time into it.
  std::chrono::nanoseconds elapsed_{0};
  double level_sum_ = 0.0;  // of every round's next level
  mutable std::mutex latest_mutex_;
  std::optional<RoundRecord> latest_;
  std::thread thread_;
};

}  // namespace rubic::runtime
