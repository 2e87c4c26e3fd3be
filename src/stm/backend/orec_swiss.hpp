// Orec-based SwissTM/TL2 hybrid engine (the repo's original protocol).
//
//   * invisible reads, validated against a global version clock, with
//     timestamp extension to cut false aborts on long read phases;
//   * encounter-time write locking (eager write/write conflict detection,
//     which SwissTM showed is decisive for STAMP-style workloads) or
//     commit-time locking (TL2), per RuntimeConfig::lock_timing;
//   * write-back buffering: memory is only updated at commit;
//   * contention management on conflict: timid backoff (default) or
//     greedy timestamp priority with remote dooming.
//
// The per-word hot paths live here as inline statics and are included only
// by txn_desc.cpp, so backend dispatch stays one predictable branch with the
// engine body inlined into TxnDesc::read_word/write_word — the layer must
// not cost the orec backend more than the micro_stm_overhead budget.
// Engine methods run *after* the shared prologue in TxnDesc (active/
// alignment/doomed checks, stats, read-own-writes lookup).
#pragma once

#include <cstdint>
#include <vector>

#include "src/stm/raw_access.hpp"
#include "src/stm/runtime.hpp"
#include "src/stm/txn_desc.hpp"

namespace rubic::stm {

struct OrecSwissEngine {
  // Fixes the read timestamp for a fresh attempt.
  static void begin(TxnDesc& d) { d.rv_ = d.rt_.clock().load(); }

  static std::uint64_t read_word(TxnDesc& d, const std::uint64_t* addr) {
    Orec& o = d.rt_.orecs().for_address(addr);
    for (;;) {
      const LockWord w = o.load();
      if (is_locked(w)) {
        if (owner_of(w) == &d) {
          // Stripe owned through a different address (orec aliasing):
          // memory still holds the pre-image (write-back), validated like
          // a read of the pre-lock version.
          const OwnedOrec* oo = d.owned_.find(&o);
          RUBIC_CHECK(oo != nullptr);
          const std::uint64_t v = load_raw(addr);
          d.read_set_.record(&o, oo->pre_lock);
          return v;
        }
        on_conflict(d, o, w, AbortCause::kReadConflict);
        continue;  // lock released: re-read the orec
      }
      const std::uint64_t v = load_raw(addr);
      if (o.load() != w) continue;  // raced with a writer; retry
      if (version_of(w) > d.rv_) {
        extend(d, version_of(w));  // aborts the txn if extension fails
        // `v` predates the new read timestamp: a writer may have committed
        // to this stripe between the orec check and extend's clock sample,
        // and neither extend (which validates only earlier reads) nor the
        // commit fast path (wv == rv + 1) would notice. Re-read under the
        // extended snapshot.
        continue;
      }
      d.read_set_.record(&o, w);
      return v;
    }
  }

  static void write_word(TxnDesc& d, std::uint64_t* addr,
                         std::uint64_t value) {
    if (d.rt_.config().lock_timing == LockTiming::kCommitTime) {
      // Lazy W/W detection: buffer only; conflicts surface when commit
      // acquires the locks.
      d.write_set_.put(addr, value);
      return;
    }
    Orec& o = d.rt_.orecs().for_address(addr);
    for (;;) {
      const LockWord w = o.load();
      if (is_locked(w)) {
        if (owner_of(w) == &d) {
          d.write_set_.put(addr, value);
          return;
        }
        on_conflict(d, o, w, AbortCause::kWriteConflict);
        continue;
      }
      // Acquiring a lock whose version is past rv is not by itself a
      // conflict (blind writes commute), but extending here keeps the read
      // timestamp fresh and lets subsequent reads validate cheaply.
      if (version_of(w) > d.rv_) extend(d, version_of(w));
      if (!o.try_lock(w, &d)) continue;  // lost the CAS race
      d.owned_.record(&o, w);
      d.write_set_.put(addr, value);
      return;
    }
  }

  // Validates + publishes a writing transaction (no-op bookkeeping for
  // read-only ones). Throws detail::AbortTx on validation failure; the
  // shared epilogue in TxnDesc::commit runs only on success. Inline for the
  // same reason as read_word/write_word: the read-only return and the
  // uncontended TL2 fast path (wv == rv + 1, no validation) are the commit
  // hot path the micro_stm_overhead gate times.
  static void commit_writes(TxnDesc& d) {
    if (d.write_set_.empty()) {
      d.last_commit_ts_ = 0;
      return;
    }
    if (d.rt_.config().lock_timing == LockTiming::kCommitTime) {
      acquire_commit_locks(d);  // may abort via the contention manager
    }
    const std::uint64_t wv = d.rt_.clock().next();
    d.last_commit_ts_ = wv;
    // If nobody committed since we (last) fixed rv, the read set is
    // trivially still valid (TL2's commit-time fast path).
    if (wv != d.rv_ + 1) validate_read_set(d);
    for (const WriteEntry& e : d.write_set_.entries()) {
      store_raw(e.addr, e.value);
    }
    for (const OwnedOrec& oo : d.owned_.entries()) oo.orec->release(wv);
  }

  // Releases owned stripes, restoring pre-lock versions (abort path).
  static void rollback_locks(TxnDesc& d) noexcept;

  // --- cold paths (orec_swiss.cpp) ---
  static void validate_read_set(TxnDesc& d);
  static void extend(TxnDesc& d, std::uint64_t needed_version);
  static void on_conflict(TxnDesc& d, Orec& orec, LockWord observed,
                          AbortCause cause);
  static void acquire_commit_locks(TxnDesc& d);
  // The distinct stripes of the write set in ascending address order — the
  // deadlock-free commit-time locking order tl2 shares. Refills the
  // descriptor's scratch buffer, so a writing commit allocates nothing once
  // the buffer has grown to the largest write set seen.
  static const std::vector<Orec*>& sorted_write_orecs(TxnDesc& d);
};

}  // namespace rubic::stm
