#include "src/stm/backend/tl2.hpp"

namespace rubic::stm {

void Tl2Engine::acquire_commit_locks(TxnDesc& d) {
  // Lock every written stripe in sorted orec order (deadlock-free between
  // concurrent committers). Unlike the orec_swiss commit-time path this
  // never consults the contention manager: canonical TL2 aborts on any
  // foreign lock and relies on atomically()'s randomized backoff for
  // livelock freedom.
  for (Orec* o : OrecSwissEngine::sorted_write_orecs(d)) {
    const LockWord w = o->load();
    if (is_locked(w)) {
      // The stripes are deduplicated, so the owner is foreign.
      if (profiler::armed()) [[unlikely]] {
        d.note_conflict(d.rt_.orecs().index_of(*o),
                        owner_of(w)->profiler_label());
      }
      d.conflict_abort(AbortCause::kWriteConflict);
    }
    if (!o->try_lock(w, &d)) {
      // Lost the CAS race; the winner's identity is gone with the CAS.
      if (profiler::armed()) [[unlikely]] {
        d.note_conflict(d.rt_.orecs().index_of(*o), profiler::kUnlabeled);
      }
      d.conflict_abort(AbortCause::kWriteConflict);
    }
    d.owned_.record(o, w);
  }
}

}  // namespace rubic::stm
