// Layer probes the benchmark wraps around the library's public entry points.
//
// The library is timed from outside: a forwarding Workload around the
// pool's run_task (runtime and traffic layers), a forwarding Controller
// around the monitor's on_sample (control layer), and the synchro task
// body, which calls TMap inside stm::atomically (stm and tds layers, see
// synchro.hpp). Each worker owns one WorkerSlot; the benchmark thread reads
// the slots only after the pool has joined its workers.
//
// Sampling rules are fixed constants, so every commit samples the same
// tasks: every kLatencyEvery-th task of a worker is timed, and in a traced
// run every kSpanEvery-th task also records its spans. Counters cover every
// task.
#pragma once

#include <time.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <string_view>
#include <vector>

#include "src/control/controller.hpp"
#include "src/stm/stm.hpp"
#include "src/util/check.hpp"
#include "src/workloads/workload.hpp"

namespace perfbench {

namespace stm = rubic::stm;
namespace control = rubic::control;
namespace workloads = rubic::workloads;

inline std::uint64_t now_ns() noexcept {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

inline std::uint64_t thread_cpu_ns() noexcept {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<std::uint64_t>(ts.tv_sec) * 1'000'000'000u +
         static_cast<std::uint64_t>(ts.tv_nsec);
}

inline constexpr std::uint64_t kLatencyEvery = 64;
inline constexpr std::uint64_t kSpanEvery = 1024;

// One timed interval. Spans of one task share its id; a task's child spans
// nest inside its "task" span.
struct Span {
  std::uint64_t id = 0;
  const char* name = "";  // static storage
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
};

// The synchro task's TMap operations.
enum class Op : std::uint8_t { kLookup, kInsert, kRemove, kScan };
inline constexpr std::size_t kOpCount = 4;
inline constexpr std::array<const char*, kOpCount> kOpSpanNames = {
    "tds.lookup", "tds.insert", "tds.remove", "tds.scan"};

// Written only by its worker thread.
struct alignas(64) WorkerSlot {
  std::uint64_t tasks = 0;        // tasks that entered the probe
  std::uint64_t open_task = 0;    // id of the traced task in flight, 0 = none
  std::uint64_t last_end_ns = 0;  // end of the task before a traced one
  std::uint64_t retries_exhausted = 0;
  std::vector<std::uint64_t> latency_ns;  // sampled task durations
  std::vector<std::uint64_t> gap_ns;      // end of one task to start of next
  std::uint64_t cpu_samples = 0;          // tasks timed for thread CPU
  std::uint64_t cpu_ns = 0;               // their thread CPU time
  std::uint64_t wall_ns = 0;              // their wall time
  std::vector<Span> spans;
  // Synchro task body counters (every task, whole run).
  std::array<std::uint64_t, kOpCount> ops{};
  std::uint64_t scan_keys = 0;
  std::int64_t size_delta = 0;
};

class Recorder {
 public:
  explicit Recorder(bool traced) : traced_(traced) {}
  Recorder(const Recorder&) = delete;
  Recorder& operator=(const Recorder&) = delete;

  bool traced() const noexcept { return traced_; }

  // Only the measured window is sampled; counters run all the time.
  void set_recording(bool on) noexcept {
    recording_.store(on, std::memory_order_release);
  }
  bool recording() const noexcept {
    return recording_.load(std::memory_order_acquire);
  }

  WorkerSlot& slot(const stm::TxnDesc& ctx) {
    const std::size_t id = ctx.ctx_id();
    RUBIC_CHECK_MSG(id < slots_.size(), "perfbench: too many STM contexts");
    return slots_[id];
  }
  const std::array<WorkerSlot, 64>& slots() const noexcept { return slots_; }

 private:
  const bool traced_;
  std::atomic<bool> recording_{false};
  std::array<WorkerSlot, 64> slots_;
};

// Forwarding Workload around the pool's run_task: times tasks, and in a
// traced run also the gap between them and their thread CPU time. Counts a
// RetriesExhausted escape as a failed task instead of ending the worker.
class ProbedWorkload final : public workloads::Workload {
 public:
  ProbedWorkload(workloads::Workload& inner, Recorder& rec)
      : inner_(inner), rec_(rec) {}

  std::string_view name() const override { return inner_.name(); }
  bool verify(std::string* error) override { return inner_.verify(error); }
  bool done() const override { return inner_.done(); }

  void run_task(stm::TxnDesc& ctx, rubic::util::Xoshiro256& rng) override {
    WorkerSlot& w = rec_.slot(ctx);
    const std::uint64_t i = w.tasks++;
    const bool traced = rec_.traced() && rec_.recording();
    const bool timed = i % kLatencyEvery == 0 && rec_.recording();
    const bool spanned = traced && i % kSpanEvery == 0;
    const bool before_spanned = traced && (i + 1) % kSpanEvery == 0;
    if (!timed && !before_spanned) {
      forward(w, ctx, rng);
      return;
    }
    // Not on a spanned task: the clock call would land inside its gap.
    const bool cpu = timed && traced && !spanned;
    const std::uint64_t cpu0 = cpu ? thread_cpu_ns() : 0;
    const std::uint64_t start = now_ns();
    if (spanned) {
      if (w.last_end_ns != 0) w.gap_ns.push_back(start - w.last_end_ns);
      w.open_task = (std::uint64_t{ctx.ctx_id()} << 40) | (i + 1);
    }
    forward(w, ctx, rng);
    const std::uint64_t end = now_ns();
    if (timed) w.latency_ns.push_back(end - start);
    if (cpu) {
      ++w.cpu_samples;
      w.cpu_ns += thread_cpu_ns() - cpu0;
      w.wall_ns += end - start;
    }
    if (spanned) {
      w.spans.push_back({w.open_task, "task", start, end});
      w.open_task = 0;
    }
    w.last_end_ns = before_spanned ? end : 0;
  }

 private:
  void forward(WorkerSlot& w, stm::TxnDesc& ctx,
               rubic::util::Xoshiro256& rng) {
    try {
      inner_.run_task(ctx, rng);
    } catch (const stm::RetriesExhausted&) {
      ++w.retries_exhausted;
    }
  }

  workloads::Workload& inner_;
  Recorder& rec_;
};

// One monitor round as the controller saw it.
struct Round {
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
  int level = 0;
};

// Forwarding Controller: times each on_sample and records the level it
// answered. Written by the monitor thread; read after Monitor::stop().
class ProbedController final : public control::Controller {
 public:
  ProbedController(control::Controller& inner, std::size_t expected_rounds)
      : inner_(inner) {
    rounds_.reserve(expected_rounds);
  }

  int initial_level() const override { return inner_.initial_level(); }
  int on_sample(double throughput) override {
    const std::uint64_t start = now_ns();
    const int level = inner_.on_sample(throughput);
    rounds_.push_back({start, now_ns(), level});
    return level;
  }
  void reset() override { inner_.reset(); }
  std::string_view name() const override { return inner_.name(); }
  control::DecisionInfo decision_info() const override {
    return inner_.decision_info();
  }

  const std::vector<Round>& rounds() const noexcept { return rounds_; }

 private:
  control::Controller& inner_;
  std::vector<Round> rounds_;
};

// Linear-interpolated quantile (q in [0, 1]); 0 for an empty sample.
template <typename T>
double quantile(std::vector<T> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return static_cast<double>(values[lo]) * (1.0 - frac) +
         static_cast<double>(values[hi]) * frac;
}

}  // namespace perfbench
