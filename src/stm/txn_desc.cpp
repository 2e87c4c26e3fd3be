#include "src/stm/txn_desc.hpp"

#include <new>

#include "src/fault/fault.hpp"
#include "src/stm/backend/norec.hpp"
#include "src/stm/backend/orec_swiss.hpp"
#include "src/stm/backend/tl2.hpp"
#include "src/stm/profiler.hpp"
#include "src/stm/raw_access.hpp"
#include "src/stm/runtime.hpp"
#include "src/telemetry/telemetry.hpp"
#include "src/trace/trace.hpp"

namespace rubic::stm {

namespace {

// Single-writer counter bump without an atomic RMW (paper §3.1).
inline void bump(std::atomic<std::uint64_t>& c) noexcept {
  c.store(c.load(std::memory_order_relaxed) + 1, std::memory_order_relaxed);
}

// Registry references for the commit-path instrumentation, resolved once
// per backend (first armed transaction) and cached — the hot path never
// touches the registry itself, only the striped cells behind these
// pointers. Every metric carries a {"backend": <name>} label so cross-
// backend runs stay distinguishable in merged snapshots; a backend that
// never runs armed registers nothing.
struct StmTelemetry {
  telemetry::Counter& commits;
  telemetry::Counter& read_only_commits;
  telemetry::Counter* aborts[static_cast<std::size_t>(AbortCause::kCount)];
  telemetry::Histogram& retries;
  telemetry::Histogram& read_set_size;
  telemetry::Histogram& write_set_size;
  telemetry::Histogram& commit_latency_ns;

  static StmTelemetry make(BackendKind backend) {
    telemetry::Registry& reg = telemetry::registry();
    const telemetry::Labels labels = {
        {"backend", std::string(backend_name(backend))}};
    StmTelemetry t{
        reg.counter("rubic_stm_commits_total", labels),
        reg.counter("rubic_stm_read_only_commits_total", labels),
        {},
        reg.histogram("rubic_stm_txn_retries", labels),
        reg.histogram("rubic_stm_read_set_size", labels),
        reg.histogram("rubic_stm_write_set_size", labels),
        reg.histogram("rubic_stm_commit_latency_ns", labels),
    };
    for (std::size_t i = 0; i < static_cast<std::size_t>(AbortCause::kCount);
         ++i) {
      const auto cause = static_cast<AbortCause>(i);
      t.aborts[i] = &reg.counter(
          "rubic_stm_aborts_total",
          {{"backend", std::string(backend_name(backend))},
           {"cause", std::string(abort_cause_name(cause))}});
    }
    return t;
  }

  static StmTelemetry& get(BackendKind backend) {
    switch (backend) {
      case BackendKind::kNorec: {
        static StmTelemetry norec = make(BackendKind::kNorec);
        return norec;
      }
      case BackendKind::kTl2: {
        static StmTelemetry tl2 = make(BackendKind::kTl2);
        return tl2;
      }
      default: {
        static StmTelemetry orec = make(BackendKind::kOrecSwiss);
        return orec;
      }
    }
  }
};

}  // namespace

TxnDesc::TxnDesc(Runtime& rt, std::uint32_t ctx_id, std::uint64_t rng_seed)
    : rt_(rt),
      ctx_id_(ctx_id),
      backend_(rt.config().backend),
      rng_(rng_seed) {}

void TxnDesc::begin(bool first_attempt) {
  RUBIC_CHECK_MSG(!active(), "begin() with a transaction already running");
  // Adopt the runtime's active backend for this transaction: one acquire
  // load of a read-mostly word, the hook that makes online backend
  // adaptation work. Switches only happen at quiescent points, so the tag
  // cannot change between the attempts of one atomically() call.
  backend_ = rt_.backend();
  rt_.epoch_enter(*this);
  switch (backend_) {
    case BackendKind::kNorec:
      NorecEngine::begin(*this);
      break;
    case BackendKind::kTl2:
      Tl2Engine::begin(*this);
      break;
    default:
      OrecSwissEngine::begin(*this);
      break;
  }
  if (first_attempt) {
    // Priority is fixed at the *first* attempt so a transaction that keeps
    // retrying ages into the oldest (highest-priority) one and eventually
    // wins every greedy-CM conflict — the classic starvation-freedom
    // argument for Greedy contention management. (NOrec never dooms, but
    // keeps the field coherent for diagnostics.)
    priority_.store((rv_ << 20) | ctx_id_, std::memory_order_release);
  }
  status_.store(TxnStatus::kActive, std::memory_order_release);
  if (telemetry::armed()) [[unlikely]] {
    tm_attempts_ = first_attempt ? 1 : tm_attempts_ + 1;
    tm_begin_ns_ = trace::monotonic_ns();
  }
  if (profiler::armed()) [[unlikely]] {
    pf_label_.store(profiler::current_label(), std::memory_order_relaxed);
    pf_note_ = false;
  }
  trace::emit(trace::EventType::kTxnBegin, ctx_id_, first_attempt ? 1 : 0);
}

void TxnDesc::check_doomed() {
  if (doomed()) [[unlikely]] {
    conflict_abort(AbortCause::kDoomed);
  }
}

void TxnDesc::conflict_abort(AbortCause cause) {
  throw detail::AbortTx{cause};
}

void TxnDesc::bump_extensions() noexcept { bump(stats_.extensions); }

std::uint64_t TxnDesc::read_word(const std::uint64_t* addr) {
  RUBIC_CHECK_MSG(active(), "read_word outside a transaction");
  check_word_aligned(addr);
  check_doomed();
  bump(stats_.reads);
  // Read-own-writes first: the write-back buffer is the only place this
  // transaction's own writes are visible.
  if (const WriteEntry* e = write_set_.find(addr)) return e->value;
  switch (backend_) {
    case BackendKind::kNorec:
      return NorecEngine::read_word(*this, addr);
    case BackendKind::kTl2:
      return Tl2Engine::read_word(*this, addr);
    default:
      return OrecSwissEngine::read_word(*this, addr);
  }
}

void TxnDesc::write_word(std::uint64_t* addr, std::uint64_t value) {
  RUBIC_CHECK_MSG(active(), "write_word outside a transaction");
  check_word_aligned(addr);
  check_doomed();
  bump(stats_.writes);
  switch (backend_) {
    case BackendKind::kNorec:
      // NOrec is commit-time by construction: no stripe to lock exists.
      write_set_.put(addr, value);
      return;
    case BackendKind::kTl2:
      Tl2Engine::write_word(*this, addr, value);
      return;
    default:
      OrecSwissEngine::write_word(*this, addr, value);
      return;
  }
}

void TxnDesc::commit() {
  RUBIC_CHECK_MSG(active(), "commit without a running transaction");
  check_doomed();
  if (fault::probe(fault::Site::kStmForceConflict)) [[unlikely]] {
    // Injected abort storm: the commit behaves exactly as if validation
    // failed — rollback releases every lock, atomically() retries (or
    // throws RetriesExhausted once the budget is spent).
    conflict_abort(AbortCause::kFaultInjected);
  }
  const bool read_only = write_set_.empty();
  // Protocol-specific validation + publication. Throws detail::AbortTx on
  // failure; everything below is the shared success epilogue, identical
  // for every engine.
  switch (backend_) {
    case BackendKind::kNorec:
      NorecEngine::commit_writes(*this);
      break;
    case BackendKind::kTl2:
      Tl2Engine::commit_writes(*this);
      break;
    default:
      OrecSwissEngine::commit_writes(*this);
      break;
  }
  bump(stats_.commits);
  if (read_only) bump(stats_.read_only_commits);
  if (telemetry::armed()) [[unlikely]] {
    // Set sizes are captured here, before the epilogue clears them. A
    // transaction whose begin() ran disarmed contributes counters but no
    // latency/retry samples (tm_begin_ns_ == 0 sentinel).
    StmTelemetry& t = StmTelemetry::get(backend_);
    t.commits.add();
    if (read_only) t.read_only_commits.add();
    t.read_set_size.observe(read_set_size());
    t.write_set_size.observe(write_set_size());
    if (tm_begin_ns_ != 0) {
      t.commit_latency_ns.observe(trace::monotonic_ns() - tm_begin_ns_);
      t.retries.observe(tm_attempts_ - 1);
      tm_begin_ns_ = 0;
    }
  }
  // Success epilogue. Exit the epoch first (no more shared reads), then
  // queue deferred frees: concurrent transactions that might still hold
  // references pin the reclamation epoch themselves.
  status_.store(TxnStatus::kInactive, std::memory_order_release);
  rt_.epoch_exit(*this);
  allocs_.clear();  // allocations become ordinary heap objects
  for (void* p : frees_) rt_.defer_free(*this, p);
  frees_.clear();
  read_set_.clear();
  value_reads_.clear();
  write_set_.clear();
  owned_.clear();
  trace::emit(trace::EventType::kTxnCommit, ctx_id_, last_commit_ts_);
}

void TxnDesc::rollback(AbortCause cause) {
  RUBIC_CHECK_MSG(active(), "rollback without a running transaction");
  // Every engine buffers its writes, so shared memory was never touched:
  // rollback only releases the stripes the orec-word engines locked (under
  // NOrec the owned set is always empty and this is a no-op).
  OrecSwissEngine::rollback_locks(*this);
  // Speculative allocations were never published, free eagerly.
  for (void* p : allocs_) ::operator delete(p);
  allocs_.clear();
  frees_.clear();  // deferred frees are cancelled with the transaction
  stats_.bump_abort(cause);
  if (telemetry::armed()) [[unlikely]] {
    StmTelemetry::get(backend_).aborts[static_cast<std::size_t>(cause)]->add();
  }
  if (profiler::armed()) [[unlikely]] {
    // The shared attribution epilogue: one sample per abort, built from the
    // conflict note the engine site left (see profiler.hpp).
    profiler::record_abort(*this, cause);
    pf_note_ = false;
  }
  status_.store(TxnStatus::kInactive, std::memory_order_release);
  rt_.epoch_exit(*this);
  read_set_.clear();
  value_reads_.clear();
  write_set_.clear();
  owned_.clear();
  trace::emit(trace::EventType::kTxnAbort, ctx_id_,
              static_cast<std::uint64_t>(cause));
}

void* TxnDesc::tx_alloc(std::size_t bytes) {
  RUBIC_CHECK_MSG(active(), "tx_alloc outside a transaction");
  void* p = ::operator new(bytes);
  allocs_.push_back(p);
  return p;
}

void TxnDesc::tx_free(void* ptr) {
  RUBIC_CHECK_MSG(active(), "tx_free outside a transaction");
  if (ptr == nullptr) return;
  frees_.push_back(ptr);
}

void TxnDesc::user_retry() { conflict_abort(AbortCause::kUserRetry); }

}  // namespace rubic::stm
