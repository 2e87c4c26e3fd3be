// Malleable worker thread-pool — Algorithm 1 of the paper.
//
// Each worker has a unique tid in [0..S-1] and a private counting semaphore.
// Before picking up a task the worker compares its tid with the process-wide
// level word (L_RUBIC): tid >= L → block on the semaphore. The monitor
// raises the level by storing the new value and signalling exactly the
// semaphores of the workers being awakened; it lowers it by storing alone —
// surplus workers park themselves at their next gate check. The task
// acquisition fast path is therefore syscall-free (paper §3.1).
//
// Throughput accounting: one cache-line-padded counter per worker, written
// only by its owner (no atomic RMW, §3.1), read by the monitor. The
// run_quiesced fence is per worker too, so the task path touches no word
// that another worker writes.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <semaphore>
#include <thread>
#include <vector>

#include "src/stm/stm.hpp"
#include "src/util/cache_aligned.hpp"
#include "src/workloads/workload.hpp"

namespace rubic::runtime {

struct PoolConfig {
  int pool_size = 8;            // S: worker count (tid range)
  int initial_level = 1;        // L_RUBIC at initialization (Alg. 1 line 2)
  std::uint64_t seed = 0x9001;  // base seed for the workers' private RNGs
};

class MalleablePool {
 public:
  // Workers execute `workload.run_task` repeatedly; transaction contexts
  // are registered on `rt`. Threads launch immediately, gated at
  // `initial_level`.
  MalleablePool(stm::Runtime& rt, workloads::Workload& workload,
                PoolConfig config);
  ~MalleablePool();

  MalleablePool(const MalleablePool&) = delete;
  MalleablePool& operator=(const MalleablePool&) = delete;

  // Monitor-side: publish a new parallelism level and wake the workers in
  // [old_level, new_level). Clamped to [1, pool_size].
  void set_level(int new_level);

  // Monitor-side: pause every worker at a task boundary (no transaction in
  // flight anywhere in the pool), run `fn`, resume. This is the hook for
  // online STM backend switches — `Runtime::try_set_backend` requires that
  // no context be mid-transaction, which holds exactly when all workers are
  // outside `run_task`. Workers parked on their semaphore count as paused;
  // workers blocked inside `run_task` are released through
  // `Workload::wake_waiters`, as on a level drop and at stop().
  // `fn` must not enqueue work on this pool (it runs with workers fenced).
  void run_quiesced(const std::function<void()>& fn);

  int level() const noexcept {
    return level_.load(std::memory_order_acquire);
  }
  int pool_size() const noexcept { return static_cast<int>(workers_.size()); }

  // Sum of all per-worker completion counters (monotonic).
  std::uint64_t total_completed() const noexcept;
  // Per-worker counter snapshot (tests: verifies gating actually idles
  // high-tid workers).
  std::vector<std::uint64_t> per_worker_completed() const;

  // Number of workers currently parked on their semaphore (approximate,
  // test/diagnostic use).
  int blocked_workers() const noexcept {
    return blocked_.load(std::memory_order_acquire);
  }

  // Stops all workers and joins them. Idempotent; called by the destructor.
  void stop();

 private:
  struct Worker {
    explicit Worker(int tid_in) : tid(tid_in) {}
    const int tid;
    std::counting_semaphore<1 << 20> semaphore{0};  // Alg. 1 line 4
    util::CacheAligned<std::atomic<std::uint64_t>> completed{0};
    // Set while the worker is inside the task region; the owner's half of
    // the run_quiesced handshake.
    util::CacheAligned<std::atomic<bool>> in_task{false};
    std::thread thread;
  };

  void worker_loop(Worker& worker);

  stm::Runtime& rt_;
  workloads::Workload& workload_;
  const std::uint64_t seed_;

  alignas(util::kCacheLineSize) std::atomic<int> level_;
  std::atomic<bool> stopping_{false};
  std::atomic<int> blocked_{0};
  // run_quiesced handshake (seq_cst Dekker with each Worker::in_task):
  // workers that see paused_ spin at the gate instead of entering run_task.
  std::atomic<bool> paused_{false};
  std::vector<std::unique_ptr<Worker>> workers_;
};

}  // namespace rubic::runtime
