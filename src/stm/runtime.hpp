// STM runtime instance: global clock, orec table, thread registry, and the
// epoch-based reclamation scheme backing tx_free.
//
// Multiple Runtime instances can coexist (tests isolate state this way);
// transactions from different runtimes do not synchronize with each other
// and must not touch the same data.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "src/stm/config.hpp"
#include "src/stm/global_clock.hpp"
#include "src/stm/orec_table.hpp"
#include "src/stm/stats.hpp"
#include "src/stm/txn_desc.hpp"

namespace rubic::stm {

class Runtime {
 public:
  explicit Runtime(RuntimeConfig config = {});
  ~Runtime();

  Runtime(const Runtime&) = delete;
  Runtime& operator=(const Runtime&) = delete;

  // Creates a per-thread transaction context. The returned descriptor lives
  // until the Runtime is destroyed (never earlier: a peer may dereference it
  // through a stale lock word just after the owner finished), so contexts
  // are intended for pooled, long-lived worker threads.
  TxnDesc& register_thread();

  GlobalClock& clock() noexcept { return clock_; }
  OrecTable& orecs() noexcept { return orecs_; }
  const RuntimeConfig& config() const noexcept { return config_; }

  // The backend new transactions adopt. Starts as config().backend; the
  // backend-adaptation meta-controller may retarget it online through
  // try_set_backend.
  BackendKind backend() const noexcept {
    return active_backend_.load(std::memory_order_acquire);
  }

  // Online backend switch. The caller must guarantee quiescence (no
  // transaction running and none starting until this returns — e.g. from
  // MalleablePool::run_quiesced). Refuses with `false` if any registered
  // context still has a transaction in flight; on success the epoch is
  // advanced and every limbo queue drained (via
  // drain_all_matured_quiescent), so no deferred free can straddle the
  // protocol change, and subsequent begin()s adopt `kind`. The version
  // clock is shared by orec_swiss/tl2 and monotone across
  // switches; NOrec's sequence lock is independent state, quiescent-even
  // by construction.
  bool try_set_backend(BackendKind kind);

  // NOrec global sequence lock (even = unlocked, odd = a writer is in its
  // commit critical section). Only the kNorec backend touches it; it lives
  // here (not in the engine) because it is per-Runtime state, exactly like
  // the version clock the orec backend uses instead.
  std::atomic<std::uint64_t>& norec_seq() noexcept { return *norec_seq_; }

  // Sum of every registered thread's statistics.
  TxnStatsSnapshot aggregate_stats() const;

  std::size_t thread_count() const;

  // --- epoch-based reclamation (called by TxnDesc; owner thread only) ---

  void epoch_enter(TxnDesc& ctx) noexcept;
  void epoch_exit(TxnDesc& ctx) noexcept;
  // Queues ptr; reclaims matured entries opportunistically.
  void defer_free(TxnDesc& ctx, void* ptr);
  // Attempts to advance the global epoch and drain ctx's matured limbo
  // entries. Exposed for tests; called automatically every few defers.
  void try_advance_epoch(TxnDesc& ctx);

  // Quiescent-only maintenance: advances the epoch (twice, so every queued
  // entry matures) and drains EVERY context's limbo — including contexts
  // whose worker thread has exited and would otherwise hold its queue until
  // Runtime destruction. Callers must guarantee no transaction is running.
  void drain_all_matured_quiescent();

  std::uint64_t current_epoch() const noexcept {
    return global_epoch_.load(std::memory_order_acquire);
  }
  // Number of queued-but-unreclaimed frees across all threads (test hook).
  std::size_t limbo_size() const;

 private:
  void drain_matured(TxnDesc& ctx, std::uint64_t global);

  RuntimeConfig config_;
  std::atomic<BackendKind> active_backend_;
  GlobalClock clock_;
  OrecTable orecs_;
  util::CacheAligned<std::atomic<std::uint64_t>> norec_seq_{0};

  mutable std::mutex registry_mutex_;
  std::vector<std::unique_ptr<TxnDesc>> contexts_;
  std::atomic<std::uint32_t> next_ctx_id_{0};

  std::atomic<std::uint64_t> global_epoch_{1};
};

// Process-wide default runtime, for applications that need only one.
Runtime& global_runtime();

}  // namespace rubic::stm
