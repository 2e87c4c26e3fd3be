// Common interface between benchmark workloads and the malleable runtime.
//
// A workload is a bag of indefinitely many tasks (paper §3: workers pull
// tasks from a queue until told to stop); the runtime measures throughput as
// completed tasks per period. Each concrete workload corresponds to one of
// the paper's benchmarks (§4.4): Vacation, Intruder, RB-tree microbench.
#pragma once

#include <string>
#include <string_view>

#include "src/stm/stm.hpp"
#include "src/util/rng.hpp"

namespace rubic::workloads {

class Workload {
 public:
  virtual ~Workload() = default;

  virtual std::string_view name() const = 0;

  // Executes one task: one (or a few) transactions against the shared
  // state. `ctx` is the calling worker's transaction context; `rng` is the
  // worker-private generator (seeded deterministically by the harness).
  virtual void run_task(stm::TxnDesc& ctx, util::Xoshiro256& rng) = 0;

  // Quiescent consistency check after all workers stopped. Returns false
  // and fills `error` on violation.
  virtual bool verify(std::string* error = nullptr) = 0;

  // Finite workloads (§3: "until all tasks have been completed") return
  // true once the task bag is exhausted; workers then stop pulling and the
  // pool can report a makespan (runtime::TunedProcess::run_to_completion).
  // Streaming workloads keep the default: never done.
  virtual bool done() const { return false; }

  // Called by the pool when it needs every worker back at its gate soon: a
  // level drop, a quiescent point (run_quiesced) and stop. A workload whose
  // run_task blocks waiting for work releases those workers here; they may
  // return from run_task without having run a task. Thread-safe; the
  // default has nothing to release.
  virtual void wake_waiters() noexcept {}
};

}  // namespace rubic::workloads
