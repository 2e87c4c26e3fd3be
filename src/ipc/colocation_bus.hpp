// Shared-memory co-location bus: cross-process state publication.
//
// The paper's headline scenario is several *OS processes* tuning their
// parallelism side by side on one machine. RUBIC itself needs no
// coordination, but (a) the EqualShare baseline's "central entity" (§4.3)
// must exist across address spaces, and (b) a launcher that reports
// system-wide metrics (NSBP, efficiency product) needs each process's
// RunReport. The bus provides both: a named POSIX shared-memory segment of
// fixed-size per-process slots.
//
// Concurrency design:
//   * One slot has exactly one writer — the owning process's monitor thread.
//     Writes use a seqlock (odd sequence = write in progress), so the
//     10 ms monitor round is never blocked by readers: a publish is two
//     release stores of the sequence around a word-by-word release copy
//     of the payload, no syscalls and no fences.
//   * Reads never block either: a reader copies the payload word by word
//     (acquire loads) and rejects it if the sequence moved (torn read).
//     Retries are bounded (kSeqlockReadAttempts); a slot that stays torn
//     is reported as such — which itself proves the writer is alive and
//     mid-publish.
//   * Slot ownership is claimed with a compare-and-swap on the pid word
//     (0 = free). Acquisition reclaims slots whose owner died (kill(pid, 0)
//     == ESRCH — covers SIGKILL and launcher restarts) or whose heartbeat
//     stopped for kReclaimFactor × stale_after (covers pid reuse by an
//     unrelated process).
//   * Staleness is judged against CLOCK_MONOTONIC, which is machine-wide
//     and therefore comparable across the co-located processes.
//
// See docs/colocation.md for the byte-level layout and the protocol walk.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

namespace rubic::ipc {

inline constexpr std::uint32_t kBusMagic = 0x52554243;  // "RUBC"
// v2 filled the padding hole after `done` with the active STM backend
// index (layout size unchanged; a v1 reader would merely see the field as
// uninitialized padding, but versions must match exactly to attach).
inline constexpr std::uint32_t kBusVersion = 2;
inline constexpr int kDefaultMaxSlots = 16;
inline constexpr int kLabelBytes = 48;
// A torn snapshot read is retried this many times before being reported as
// torn (the slot owner is then mid-publish, i.e. definitely alive).
inline constexpr int kSeqlockReadAttempts = 16;
// A live pid whose heartbeat is silent for stale_after * kReclaimFactor is
// presumed to be an unrelated process that inherited a reused pid; its slot
// becomes reclaimable.
inline constexpr int kReclaimFactor = 8;

// The seqlock-protected per-process payload. Plain data only — it lives in
// shared memory and is copied out bytewise by readers.
struct SlotPayload {
  std::uint64_t heartbeat = 0;   // publish count, monotonically increasing
  std::uint64_t beat_ns = 0;     // CLOCK_MONOTONIC of the last publish
  std::int32_t level = 0;        // current parallelism level
  std::int32_t final_level = 0;  // valid once done != 0
  double throughput = 0.0;       // tasks/s over the last monitor period
  double commit_ratio = 1.0;     // commits / (commits + aborts), last period
  std::uint64_t tasks_completed = 0;
  std::uint64_t commits = 0;  // cumulative STM commits
  std::uint64_t aborts = 0;   // cumulative STM aborts
  // Filled by publish_final when the process finished its run cleanly:
  std::uint32_t done = 0;
  // Active STM backend as an index into stm::known_backends(); -1 when the
  // publisher has no STM runtime wired (sim, plain pool runs).
  std::int32_t backend = -1;
  double seconds = 0.0;
  double mean_level = 0.0;
  double tasks_per_second = 0.0;
  char label[kLabelBytes] = {};  // e.g. "intruder/rubic", NUL-terminated
};

// What a monitor publishes every round.
struct SlotSample {
  int level = 0;
  double throughput = 0.0;
  double commit_ratio = 1.0;
  std::uint64_t tasks_completed = 0;
  std::uint64_t commits = 0;
  std::uint64_t aborts = 0;
  // Active STM backend (stm::known_backends() index; -1 = no STM wired).
  // Lets co-runners observe a peer's online backend switches.
  int backend = -1;
};

// What a process publishes once, after its run completed.
struct FinalSample {
  int final_level = 0;
  double seconds = 0.0;
  double mean_level = 0.0;
  double tasks_per_second = 0.0;
  std::uint64_t tasks_completed = 0;
  std::uint64_t commits = 0;
  std::uint64_t aborts = 0;
};

enum class PeerState {
  kAlive,     // pid exists, heartbeat fresh (or mid-publish)
  kFinished,  // published a final report; no longer consumes contexts
  kStale,     // pid exists but heartbeat older than stale_after
  kDead,      // pid no longer exists (crash, SIGKILL, exit without release)
};

struct PeerInfo {
  int slot = -1;
  std::int32_t pid = 0;
  PeerState state = PeerState::kDead;
  bool torn = false;     // payload below is invalid; owner was mid-publish
  bool corrupt = false;  // payload read cleanly but failed plausibility
  SlotPayload payload{};
};

// Plausibility screen for payloads that passed the seqlock: shared memory is
// writable by every peer, so a buggy or hostile co-runner can scribble a
// structurally-valid-looking record. Bounds are deliberately loose — they
// reject corruption (non-finite rates, ratios outside [0,1], absurd or
// negative levels, an unterminated label), not unusual-but-legal values.
// Readers treat an implausible payload the same way as a torn read: the
// snapshot is unusable, the slot owner's liveness is judged by pid alone.
bool payload_plausible(const SlotPayload& payload) noexcept;

struct BusConfig {
  std::string name;  // shm_open name, e.g. "/rubic-bus-1234"
  int contexts = 64;
  int max_slots = kDefaultMaxSlots;
  // A slot whose heartbeat is older than this counts as stale. Must cover
  // several monitor periods plus scheduling jitter; 25 × the 10 ms default
  // period is comfortable even on an oversubscribed host.
  std::chrono::nanoseconds stale_after = std::chrono::milliseconds(250);
};

class CoLocationBus {
 public:
  // Shared-memory layout types, defined in the .cpp (opaque to clients,
  // visible for sizing helpers and tests).
  struct Header;
  struct Slot;

  // Creates the segment if absent, attaches otherwise; racing creators are
  // resolved with an initialization handshake in the header. On attach,
  // `contexts`/`max_slots` of the existing segment win over the config.
  // Throws std::system_error on shm/mmap failure, std::runtime_error on a
  // magic/version/size mismatch.
  static std::unique_ptr<CoLocationBus> create_or_attach(
      const BusConfig& config);

  // Releases the own slot (if any) and unmaps. Never unlinks: the segment
  // must outlive individual processes so survivors keep coordinating.
  ~CoLocationBus();

  CoLocationBus(const CoLocationBus&) = delete;
  CoLocationBus& operator=(const CoLocationBus&) = delete;

  // Removes the named segment from the system (parent/launcher cleanup).
  static bool unlink(const std::string& name);

  // Claims a slot for the calling process: first a free one, else one whose
  // owner is dead (ESRCH) or silent for stale_after * kReclaimFactor.
  // Returns the slot index, or -1 if the bus is full of live peers.
  // Idempotent: a second call returns the already-held slot.
  int acquire_slot(std::string_view label);

  // Marks the own slot free again. Safe to call without a slot.
  void release_slot();

  bool has_slot() const noexcept { return slot_ >= 0; }
  int slot_index() const noexcept { return slot_; }

  // Seqlock write on the own slot; wait-free, no syscalls. Heartbeat and
  // timestamp advance on every call. No-op without a slot.
  void publish(const SlotSample& sample);
  void publish_final(const FinalSample& sample);

  // Wait-free snapshot of every occupied slot (bounded seqlock retries;
  // never blocks on a writer).
  std::vector<PeerInfo> snapshot() const;

  // Number of peers currently holding contexts: kAlive slots, including the
  // caller's own. This is EqualShare's N.
  int live_count() const;

  // Finds the slot owned by `pid` (launcher-side collection), torn reads
  // already resolved. Returns nullopt-like PeerInfo with slot == -1 if the
  // pid holds no slot.
  PeerInfo find_pid(std::int32_t pid) const;

  int contexts() const noexcept;
  int max_slots() const noexcept;
  std::chrono::nanoseconds stale_after() const noexcept {
    return stale_after_;
  }
  const std::string& name() const noexcept { return name_; }

 private:
  CoLocationBus(std::string name, void* mapping, std::size_t map_bytes,
                std::chrono::nanoseconds stale_after);

  Header& header() const noexcept;
  Slot& slot_at(int index) const noexcept;
  // Copies `slot`'s payload under the seqlock (non-const: the word loads go
  // through std::atomic_ref). kTorn = the sequence kept moving for the
  // bounded retries; kImplausible = a stable snapshot failed
  // payload_plausible(). Either way `out` must not be trusted.
  enum class ReadResult { kOk, kTorn, kImplausible };
  ReadResult read_payload(Slot& slot, SlotPayload& out) const;
  // Classifies one occupied slot (liveness + staleness).
  PeerInfo classify(int index) const;
  void write_payload(const SlotPayload& payload);

  std::string name_;
  void* mapping_ = nullptr;
  std::size_t map_bytes_ = 0;
  std::chrono::nanoseconds stale_after_;
  int slot_ = -1;
  SlotPayload own_;  // writer-side shadow of the own slot's payload
};

}  // namespace rubic::ipc
