// Transaction descriptor: all per-transaction state plus the word-level
// read/write/commit/rollback entry points.
//
// The concurrency-control protocol behind those entry points is pluggable
// (RuntimeConfig::backend, switchable online at quiescent points): the
// orec-based SwissTM/TL2 hybrid in backend/orec_swiss.*, the NOrec engine
// in backend/norec.*, or the pure commit-time TL2 in backend/tl2.*. TxnDesc
// owns the protocol-independent pieces — lifecycle checks, statistics,
// telemetry, tracing, fault injection, transactional allocation and
// epoch-based reclamation — and tag-dispatches the per-word work to the
// engine adopted at begin(). Every engine buffers its writes, so shared
// memory is untouched until commit and an abort only releases locks.
// Engine hot paths are header-inline and compiled only into txn_desc.cpp,
// keeping the dispatch a single predictable branch.
#pragma once

#include <atomic>
#include <cstdint>
#include <vector>

#include "src/stm/backend/backend.hpp"
#include "src/stm/config.hpp"
#include "src/stm/orec.hpp"
#include "src/stm/read_write_set.hpp"
#include "src/stm/stats.hpp"
#include "src/util/cache_aligned.hpp"
#include "src/util/rng.hpp"

namespace rubic::stm {

class Runtime;

namespace detail {
// Control-flow exception that unwinds the user transaction body back to the
// retry loop in atomically(). Never escapes the STM layer.
struct AbortTx {
  AbortCause cause;
};
}  // namespace detail

enum class TxnStatus : std::uint32_t {
  kInactive,
  kActive,
  kDoomed,  // set remotely by a higher-priority transaction (greedy CM)
};

class alignas(util::kCacheLineSize) TxnDesc {
 public:
  TxnDesc(Runtime& rt, std::uint32_t ctx_id, std::uint64_t rng_seed);

  TxnDesc(const TxnDesc&) = delete;
  TxnDesc& operator=(const TxnDesc&) = delete;

  // --- lifecycle (driven by atomically()) ---

  // Starts an attempt. `first_attempt` keeps the greedy priority stable
  // across retries so a much-retried transaction eventually becomes oldest.
  void begin(bool first_attempt);

  // Validates, writes back, releases locks. Throws detail::AbortTx on
  // validation failure (caller rolls back and retries).
  void commit();

  // Releases locks (restoring pre-lock versions), frees transaction-local
  // allocations, discards deferred frees, clears all sets.
  void rollback(AbortCause cause);

  bool active() const noexcept {
    return status_.load(std::memory_order_relaxed) != TxnStatus::kInactive;
  }

  // --- data access ---

  std::uint64_t read_word(const std::uint64_t* addr);
  void write_word(std::uint64_t* addr, std::uint64_t value);

  // --- transactional memory management ---

  // Raw storage whose lifetime is tied to the transaction outcome: freed on
  // abort, kept on commit. Objects placed here must be trivially
  // destructible (reclamation after tx_free never runs destructors).
  void* tx_alloc(std::size_t bytes);
  // Defers reclamation to commit time + an epoch grace period (other
  // in-flight transactions may still hold invisible references).
  void tx_free(void* ptr);

  [[noreturn]] void user_retry();

  // --- contention management hooks ---

  // Called by a conflicting peer under CmPolicy::kGreedyTimestamp.
  // Returns true if this transaction was successfully doomed.
  bool try_doom() noexcept {
    TxnStatus expected = TxnStatus::kActive;
    return status_.compare_exchange_strong(expected, TxnStatus::kDoomed,
                                           std::memory_order_acq_rel,
                                           std::memory_order_acquire);
  }

  bool doomed() const noexcept {
    return status_.load(std::memory_order_acquire) == TxnStatus::kDoomed;
  }

  // Priority: lower value = older = wins. Start timestamp in the high bits,
  // context id breaks ties.
  std::uint64_t priority() const noexcept {
    return priority_.load(std::memory_order_acquire);
  }

  TxnStats& stats() noexcept { return stats_; }
  const TxnStats& stats() const noexcept { return stats_; }
  std::uint32_t ctx_id() const noexcept { return ctx_id_; }
  Runtime& runtime() noexcept { return rt_; }
  util::Xoshiro256& rng() noexcept { return rng_; }
  BackendKind backend() const noexcept { return backend_; }

  std::size_t read_set_size() const noexcept {
    return backend_ == BackendKind::kNorec ? value_reads_.size()
                                           : read_set_.size();
  }
  std::size_t write_set_size() const noexcept { return write_set_.size(); }

  // Serialization-point diagnostics, valid after a successful commit and
  // until the next begin(): the commit timestamp of the last writing
  // transaction (0 if it was read-only), and the final read timestamp
  // (after any extensions / snapshot re-adoptions). A writing transaction
  // serializes at last_commit_timestamp(); a read-only one at
  // last_read_timestamp(). Every backend provides the same contract —
  // orec_swiss/tl2 use version-clock timestamps, NOrec the global sequence
  // (post-publish value for writers, final snapshot for readers) — so
  // tests/test_stm_serializability.cpp replays the global commit order
  // against these to verify serializability end-to-end on every engine.
  std::uint64_t last_commit_timestamp() const noexcept {
    return last_commit_ts_;
  }
  std::uint64_t last_read_timestamp() const noexcept { return rv_; }

  // --- contention-profiler surface (src/stm/profiler.*) ---

  // The label this transaction was begun under (stamped from the thread's
  // current profiler label at begin() while the profiler is armed). Atomic
  // because a *conflicting* transaction reads it through the lock-word
  // owner pointer to attribute the conflict pair.
  std::uint16_t profiler_label() const noexcept {
    return pf_label_.load(std::memory_order_relaxed);
  }

  // The conflict note left by the engine's conflict site just before it
  // threw: the stripe the abort is attributed to plus the owner's label.
  // Consumed (and invalidated) by rollback's record_abort hook.
  struct ProfilerNote {
    std::uint64_t stripe = 0;
    std::uint16_t owner = 0;
    bool valid = false;
  };
  ProfilerNote profiler_note() const noexcept {
    return {pf_stripe_, pf_owner_, pf_note_};
  }

 private:
  // The engines implement the protocol over this descriptor's state; the
  // private surface they share is deliberately narrow (abort, doom check,
  // the extension counter) so protocol state stays engine-owned.
  friend struct OrecSwissEngine;
  friend struct NorecEngine;
  friend struct Tl2Engine;

  [[noreturn]] void conflict_abort(AbortCause cause);
  void check_doomed();
  void bump_extensions() noexcept;

  // Engine conflict sites call this (gated on profiler::armed()) right
  // before conflict_abort so rollback can attribute the abort. Owner-thread
  // only; plain stores because the note is consumed on this thread's own
  // rollback path.
  void note_conflict(std::uint64_t stripe, std::uint16_t owner) noexcept {
    pf_stripe_ = stripe;
    pf_owner_ = owner;
    pf_note_ = true;
  }

  Runtime& rt_;
  const std::uint32_t ctx_id_;
  // Snapshot of the runtime's active backend, refreshed at every begin():
  // the backend-adaptation meta-controller may retarget the runtime at
  // quiescent points (Runtime::try_set_backend), and a transaction must run
  // one protocol end-to-end. Stable across the retries of one atomically()
  // call because switches only happen while no transaction is in flight.
  BackendKind backend_;

  std::atomic<TxnStatus> status_{TxnStatus::kInactive};
  std::atomic<std::uint64_t> priority_{~std::uint64_t{0}};

  std::uint64_t rv_ = 0;  // read (validity) timestamp
  std::uint64_t last_commit_ts_ = 0;

  // Hot-path layout note: read_set_/write_set_/owned_ keep the original
  // declaration order (write_set_.find runs on every single read), and the
  // NOrec-only value log sits after them so the orec backend's working set
  // spans the same cache lines as before the backend split. The whole
  // descriptor is 512 bytes, 8 cache lines.
  ReadSet read_set_;    // orec/tl2 backends: (orec, seen-version) log
  WriteSet write_set_;  // every backend: write-back buffer
  OwnedSet owned_;      // orec/tl2 backends: write-locked stripes
  ValueReadSet value_reads_;  // norec backend: (address, value) log

  std::vector<void*> allocs_;
  std::vector<void*> frees_;

  TxnStats stats_;
  util::Xoshiro256 rng_;

  // Contention-profiler state, touched only while the profiler is armed
  // (see the surface above): the transaction's label and the engine's
  // last conflict note. pf_note_ is reset at begin() so a note can never
  // leak across attempts.
  std::atomic<std::uint16_t> pf_label_{0};
  std::uint64_t pf_stripe_ = 0;
  std::uint16_t pf_owner_ = 0;
  bool pf_note_ = false;

  // Telemetry attempt state, touched only while telemetry is armed:
  // begin() stamps the attempt start and counts attempts; commit() turns
  // them into latency/retry histogram samples. tm_begin_ns_ == 0 marks
  // "begin ran disarmed" so arming mid-transaction never yields a bogus
  // latency sample.
  std::uint64_t tm_begin_ns_ = 0;
  std::uint32_t tm_attempts_ = 0;

  // --- epoch-based reclamation state (owned here, orchestrated by Runtime;
  //     see Runtime::try_advance_epoch) ---
  friend class Runtime;
  struct LimboEntry {
    std::uint64_t epoch;
    void* ptr;
  };
  std::atomic<std::uint64_t> local_epoch_{0};  // 0 = quiescent
  std::vector<LimboEntry> limbo_;              // FIFO, owner-thread only
  std::size_t limbo_head_ = 0;
  std::uint64_t defers_since_advance_ = 0;

  // orec/tl2 backends: commit-time scratch for the sorted, deduplicated
  // write stripes; cleared per commit, capacity kept. Last, so the fields
  // the per-word paths touch keep their offsets.
  std::vector<Orec*> commit_orecs_;
};

}  // namespace rubic::stm
