#include "src/stm/backend/orec_swiss.hpp"

#include <algorithm>
#include <thread>
#include <vector>

#include "src/stm/profiler.hpp"

namespace rubic::stm {

void OrecSwissEngine::on_conflict(TxnDesc& d, Orec& orec, LockWord observed,
                                  AbortCause cause) {
  if (profiler::armed()) [[unlikely]] {
    // Attribute the (potential) abort before any of the abort paths below:
    // the stripe we hit, and the label of the owner we hit it through. The
    // note is only consumed if this attempt actually rolls back.
    d.note_conflict(d.rt_.orecs().index_of(orec),
                    owner_of(observed)->profiler_label());
  }
  if (d.rt_.config().cm == CmPolicy::kTimidBackoff) {
    d.conflict_abort(cause);
  }
  // Greedy timestamp CM. The owner descriptor stays valid for the lifetime
  // of the Runtime, so dereferencing it through a stale lock word is safe;
  // at worst we doom a *newer* transaction of the same context (spurious but
  // harmless abort — it simply retries).
  TxnDesc* owner = owner_of(observed);
  if (owner->priority() <= d.priority()) {
    // Owner is older (or ourselves aged equal): we lose.
    d.conflict_abort(cause);
  }
  owner->try_doom();
  // Wait (bounded) for the victim to notice and release the stripe. The
  // bound guards against a victim that is preempted indefinitely on an
  // oversubscribed machine — precisely the regime this paper studies.
  for (std::uint32_t spins = 0; spins < (1u << 22); ++spins) {
    if (orec.load(std::memory_order_acquire) != observed) return;
    d.check_doomed();  // an even older transaction may doom us meanwhile
    if ((spins & 1023u) == 1023u) std::this_thread::yield();
  }
  d.conflict_abort(cause);
}

void OrecSwissEngine::validate_read_set(TxnDesc& d) {
  for (const ReadEntry& e : d.read_set_.entries()) {
    const LockWord cur = e.orec->load();
    if (cur == e.seen) continue;  // unlocked, same version
    if (is_locked(cur) && owner_of(cur) == &d) {
      // We write-locked this stripe after reading it; valid iff nobody
      // committed in between, i.e. the pre-lock version is what we read.
      const OwnedOrec* oo = d.owned_.find(e.orec);
      RUBIC_CHECK(oo != nullptr);
      if (oo->pre_lock == e.seen) continue;
    }
    if (profiler::armed()) [[unlikely]] {
      d.note_conflict(d.rt_.orecs().index_of(*e.orec),
                      is_locked(cur) && owner_of(cur) != &d
                          ? owner_of(cur)->profiler_label()
                          : profiler::kUnlabeled);
    }
    d.conflict_abort(AbortCause::kValidationFailed);
  }
}

void OrecSwissEngine::extend(TxnDesc& d, std::uint64_t needed_version) {
  const std::uint64_t new_rv = d.rt_.clock().load();
  RUBIC_CHECK_MSG(new_rv >= needed_version,
                  "clock precedes an observed commit timestamp");
  validate_read_set(d);  // throws if any earlier read is now stale
  d.rv_ = new_rv;
  d.bump_extensions();
}

void OrecSwissEngine::acquire_commit_locks(TxnDesc& d) {
  // Lock every written stripe in sorted orec order (deadlock-free between
  // concurrent committers even without the contention manager's help).
  for (Orec* o : sorted_write_orecs(d)) {
    for (;;) {
      const LockWord w = o->load();
      if (is_locked(w)) {
        if (owner_of(w) == &d) break;  // defensive: dedup should prevent
        on_conflict(d, *o, w, AbortCause::kWriteConflict);
        continue;
      }
      if (!o->try_lock(w, &d)) continue;
      d.owned_.record(o, w);
      break;
    }
  }
}

const std::vector<Orec*>& OrecSwissEngine::sorted_write_orecs(TxnDesc& d) {
  std::vector<Orec*>& orecs = d.commit_orecs_;
  orecs.clear();
  for (const WriteEntry& e : d.write_set_.entries()) {
    orecs.push_back(&d.rt_.orecs().for_address(e.addr));
  }
  std::sort(orecs.begin(), orecs.end());
  orecs.erase(std::unique(orecs.begin(), orecs.end()), orecs.end());
  return orecs;
}

void OrecSwissEngine::rollback_locks(TxnDesc& d) noexcept {
  // Restore stripes in reverse acquisition order (not required for
  // correctness — each orec is restored independently — but keeps the
  // lock-release order symmetric for reasoning).
  const auto& owned = d.owned_.entries();
  for (auto it = owned.rbegin(); it != owned.rend(); ++it) {
    it->orec->restore(it->pre_lock);
  }
}

}  // namespace rubic::stm
