#include "src/runtime/malleable_pool.hpp"

#include <algorithm>
#include <chrono>

#include "src/fault/fault.hpp"
#include "src/telemetry/telemetry.hpp"
#include "src/trace/trace.hpp"
#include "src/util/check.hpp"

namespace rubic::runtime {

MalleablePool::MalleablePool(stm::Runtime& rt, workloads::Workload& workload,
                             PoolConfig config)
    : rt_(rt),
      workload_(workload),
      seed_(config.seed),
      level_(std::clamp(config.initial_level, 1, config.pool_size)) {
  RUBIC_CHECK(config.pool_size >= 1);
  workers_.reserve(static_cast<std::size_t>(config.pool_size));
  for (int tid = 0; tid < config.pool_size; ++tid) {
    workers_.push_back(std::make_unique<Worker>(tid));
  }
  // Launch after the vector is fully built: worker_loop only touches its
  // own Worker slot plus the pool-level atomics.
  for (auto& worker : workers_) {
    worker->thread = std::thread([this, w = worker.get()] { worker_loop(*w); });
  }
}

MalleablePool::~MalleablePool() { stop(); }

void MalleablePool::worker_loop(Worker& worker) {
  stm::TxnDesc& ctx = rt_.register_thread();
  util::Xoshiro256 rng(seed_ ^ (0x9e3779b97f4a7c15ULL *
                                static_cast<std::uint64_t>(worker.tid + 1)));
  while (!stopping_.load(std::memory_order_acquire)) {
    // Alg. 1 lines 8-10: the parallelism gate, checked before each task.
    if (worker.tid >= level_.load(std::memory_order_acquire)) {
      blocked_.fetch_add(1, std::memory_order_acq_rel);
      worker.semaphore.acquire();
      blocked_.fetch_sub(1, std::memory_order_acq_rel);
      continue;  // re-check the gate (the level may have dropped again)
    }
    if (const fault::Fire f = fault::probe(fault::Site::kWorkerStall))
        [[unlikely]] {
      // Injected preemption window: the worker holds its slot but makes no
      // progress, exactly like being descheduled by a co-runner. The gate
      // is re-checked afterwards so a stalled worker still obeys the level.
      std::this_thread::sleep_for(std::chrono::duration<double, std::micro>(
          f.value < 0.0 ? 0.0 : f.value));
      continue;
    }
    // Quiescence fence (run_quiesced): announce entry into the task region
    // *before* re-checking paused_ — seq_cst on both sides means either the
    // quiescer sees our in_task flag or we see its paused_ store, so no task
    // can slip past a quiescent-point callback. The flag is this worker's
    // own cache line, so the fence costs no shared RMW; leaving is a release
    // store the quiescer's load acquires.
    if (paused_.load(std::memory_order_seq_cst)) {
      std::this_thread::yield();
      continue;  // stopping_ is re-checked at the loop top
    }
    auto& in_task = worker.in_task.value;
    in_task.store(true, std::memory_order_seq_cst);
    if (paused_.load(std::memory_order_seq_cst)) {
      in_task.store(false, std::memory_order_release);
      std::this_thread::yield();
      continue;
    }
    // Finite workloads: the bag is empty, this worker retires (§3: the
    // worker "can then terminate"). run_task is never called after done().
    if (workload_.done()) {
      in_task.store(false, std::memory_order_release);
      break;
    }
    workload_.run_task(ctx, rng);
    // Single-writer counter (§3.1): plain load+store, no RMW.
    auto& counter = worker.completed.value;
    counter.store(counter.load(std::memory_order_relaxed) + 1,
                  std::memory_order_relaxed);
    in_task.store(false, std::memory_order_release);
  }
}

void MalleablePool::set_level(int new_level) {
  new_level = std::clamp(new_level, 1, pool_size());
  const std::uint64_t resize_begin_ns =
      telemetry::armed() ? trace::monotonic_ns() : 0;
  const int old_level = level_.exchange(new_level, std::memory_order_acq_rel);
  if (old_level != new_level) {
    trace::emit(trace::EventType::kPoolResize,
                static_cast<std::uint32_t>(old_level),
                static_cast<std::uint64_t>(new_level));
  }
  // Alg. 2 lines 20-22: wake exactly the workers entering the active range.
  for (int tid = old_level; tid < new_level; ++tid) {
    workers_[static_cast<std::size_t>(tid)]->semaphore.release();
  }
  // Workers leaving it may be blocked inside run_task; send them to the gate.
  if (new_level < old_level) workload_.wake_waiters();
  if (resize_begin_ns != 0) [[unlikely]] {
    telemetry::Registry& reg = telemetry::registry();
    static telemetry::Gauge& level_gauge =
        reg.gauge("rubic_pool_active_level");
    static telemetry::Histogram& resize_latency =
        reg.histogram("rubic_pool_resize_latency_ns");
    level_gauge.set(static_cast<double>(new_level));
    if (old_level != new_level) {
      resize_latency.observe(trace::monotonic_ns() - resize_begin_ns);
    }
  }
}

void MalleablePool::run_quiesced(const std::function<void()>& fn) {
  paused_.store(true, std::memory_order_seq_cst);
  workload_.wake_waiters();
  // Wait for in-flight tasks to drain, one worker at a time. Parked workers
  // hold no task; active ones finish their current run_task and then spin
  // at the fence, so a flag seen clear stays clear until paused_ drops.
  // Sleep, never yield: the caller is the monitor, raised to SCHED_RR, and
  // a realtime thread's yield never hands its CPU to a normal-priority
  // worker that is mid-task there (it would wait out RT throttling, ~1 s).
  for (const auto& worker : workers_) {
    while (worker->in_task.value.load(std::memory_order_seq_cst)) {
      std::this_thread::sleep_for(std::chrono::microseconds(20));
      // A worker that passed the fence just before paused_ rose may have
      // started waiting after the release above: release it again.
      workload_.wake_waiters();
    }
  }
  try {
    fn();
  } catch (...) {
    paused_.store(false, std::memory_order_seq_cst);
    throw;
  }
  paused_.store(false, std::memory_order_seq_cst);
}

std::uint64_t MalleablePool::total_completed() const noexcept {
  std::uint64_t total = 0;
  for (const auto& worker : workers_) {
    total += worker->completed.value.load(std::memory_order_relaxed);
  }
  return total;
}

std::vector<std::uint64_t> MalleablePool::per_worker_completed() const {
  std::vector<std::uint64_t> out;
  out.reserve(workers_.size());
  for (const auto& worker : workers_) {
    out.push_back(worker->completed.value.load(std::memory_order_relaxed));
  }
  return out;
}

void MalleablePool::stop() {
  if (stopping_.exchange(true, std::memory_order_acq_rel)) return;
  workload_.wake_waiters();
  // Unblock every parked worker so it can observe the stop flag.
  for (auto& worker : workers_) worker->semaphore.release();
  for (auto& worker : workers_) {
    if (worker->thread.joinable()) worker->thread.join();
  }
}

}  // namespace rubic::runtime
