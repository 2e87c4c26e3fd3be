#include "src/ipc/colocation_bus.hpp"

#include <errno.h>
#include <fcntl.h>
#include <sched.h>
#include <signal.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <system_error>
#include <type_traits>

#include "src/fault/fault.hpp"
#include "src/telemetry/telemetry.hpp"
#include "src/trace/trace.hpp"
#include "src/util/check.hpp"

namespace rubic::ipc {

namespace {

// Registry references for the bus hot paths, resolved once and cached.
struct BusTelemetry {
  telemetry::Counter& publishes;
  telemetry::Counter& final_publishes;
  telemetry::Counter& snapshots;
  telemetry::Counter& torn_reads;
  telemetry::Counter& implausible_reads;

  static BusTelemetry& get() {
    static BusTelemetry instance{
        telemetry::registry().counter("rubic_bus_publishes_total"),
        telemetry::registry().counter("rubic_bus_final_publishes_total"),
        telemetry::registry().counter("rubic_bus_snapshots_total"),
        telemetry::registry().counter("rubic_bus_torn_reads_total"),
        telemetry::registry().counter("rubic_bus_implausible_reads_total"),
    };
    return instance;
  }
};

std::uint64_t monotonic_ns() {
  timespec ts{};
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<std::uint64_t>(ts.tv_sec) * 1'000'000'000ull +
         static_cast<std::uint64_t>(ts.tv_nsec);
}

// kill(pid, 0) probes existence without signalling. EPERM means the pid
// exists but belongs to another user — alive for our purposes.
bool pid_alive(std::int32_t pid) {
  if (pid <= 0) return false;
  return ::kill(pid, 0) == 0 || errno == EPERM;
}

[[noreturn]] void throw_errno(const char* what) {
  throw std::system_error(errno, std::generic_category(), what);
}

}  // namespace

// ---------------------------------------------------------------------------
// Shared-memory layout. Everything is process-shared plain data; the atomics
// must be address-free (lock-free) to be meaningful across address spaces.

// The seqlock moves a SlotPayload as whole 8-byte words, each stored and
// loaded through std::atomic_ref: a reader racing a publish sees the
// sequence move, and no plain access ever races.
static_assert(std::is_trivially_copyable_v<SlotPayload>);
static_assert(sizeof(SlotPayload) % sizeof(std::uint64_t) == 0 &&
              alignof(SlotPayload) == alignof(std::uint64_t));
static_assert(std::atomic_ref<std::uint64_t>::is_always_lock_free &&
              std::atomic_ref<std::uint64_t>::required_alignment ==
                  alignof(std::uint64_t));
constexpr std::size_t kPayloadWords =
    sizeof(SlotPayload) / sizeof(std::uint64_t);

struct alignas(64) CoLocationBus::Slot {
  std::atomic<std::uint32_t> seq{0};  // seqlock: odd = publish in progress
  std::atomic<std::int32_t> pid{0};   // 0 = free; owner's pid otherwise
  std::uint64_t payload[kPayloadWords]{};  // a SlotPayload's bytes
};

struct alignas(64) CoLocationBus::Header {
  std::atomic<std::uint32_t> init_state{0};  // 0 raw, 1 initializing, 2 ready
  std::uint32_t magic = 0;
  std::uint32_t version = 0;
  std::int32_t contexts = 0;
  std::int32_t max_slots = 0;
};

static_assert(std::atomic<std::uint32_t>::is_always_lock_free);
static_assert(std::atomic<std::int32_t>::is_always_lock_free);

namespace {

std::size_t segment_bytes(int max_slots) {
  return sizeof(CoLocationBus::Header) +
         static_cast<std::size_t>(max_slots) * sizeof(CoLocationBus::Slot);
}

}  // namespace

CoLocationBus::Header& CoLocationBus::header() const noexcept {
  return *static_cast<Header*>(mapping_);
}

CoLocationBus::Slot& CoLocationBus::slot_at(int index) const noexcept {
  auto* base = reinterpret_cast<char*>(mapping_) + sizeof(Header);
  return *(reinterpret_cast<Slot*>(base) + index);
}

// ---------------------------------------------------------------------------
// Lifecycle.

std::unique_ptr<CoLocationBus> CoLocationBus::create_or_attach(
    const BusConfig& config) {
  RUBIC_CHECK_MSG(!config.name.empty() && config.name.front() == '/',
                  "bus name must start with '/'");
  RUBIC_CHECK(config.max_slots > 0 && config.contexts > 0);

  const int fd =
      ::shm_open(config.name.c_str(), O_RDWR | O_CREAT, S_IRUSR | S_IWUSR);
  if (fd < 0) throw_errno("shm_open");

  // Freshly created segments are zero-filled, so a grown size is always
  // observed as init_state == 0 by the initialization handshake below.
  const std::size_t want = segment_bytes(config.max_slots);
  struct stat st{};
  if (::fstat(fd, &st) != 0) {
    ::close(fd);
    throw_errno("fstat");
  }
  std::size_t bytes = static_cast<std::size_t>(st.st_size);
  if (bytes == 0) {
    if (::ftruncate(fd, static_cast<off_t>(want)) != 0) {
      ::close(fd);
      throw_errno("ftruncate");
    }
    bytes = want;
  }

  void* mapping =
      ::mmap(nullptr, bytes, PROT_READ | PROT_WRITE, MAP_SHARED, fd, 0);
  ::close(fd);  // the mapping keeps the segment alive
  if (mapping == MAP_FAILED) throw_errno("mmap");

  std::unique_ptr<CoLocationBus> bus(
      new CoLocationBus(config.name, mapping, bytes, config.stale_after));

  // Initialization handshake between racing creators: exactly one CAS
  // winner formats the header; everybody else spins until it is ready.
  Header& header = bus->header();
  std::uint32_t expected = 0;
  if (header.init_state.compare_exchange_strong(expected, 1,
                                                std::memory_order_acq_rel)) {
    header.magic = kBusMagic;
    header.version = kBusVersion;
    header.contexts = config.contexts;
    header.max_slots = config.max_slots;
    header.init_state.store(2, std::memory_order_release);
  } else {
    // ~instant in practice; a generous bound turns a wedged creator into a
    // diagnosable error instead of a hang.
    const std::uint64_t deadline = monotonic_ns() + 2'000'000'000ull;
    while (header.init_state.load(std::memory_order_acquire) != 2) {
      if (monotonic_ns() > deadline) {
        throw std::runtime_error("co-location bus '" + config.name +
                                 "' stuck initializing");
      }
      ::sched_yield();
    }
  }

  if (header.magic != kBusMagic || header.version != kBusVersion) {
    throw std::runtime_error("'" + config.name +
                             "' is not a rubic co-location bus");
  }
  if (segment_bytes(header.max_slots) > bytes) {
    throw std::runtime_error("co-location bus '" + config.name +
                             "' truncated: header claims more slots than "
                             "the segment holds");
  }
  return bus;
}

CoLocationBus::CoLocationBus(std::string name, void* mapping,
                             std::size_t map_bytes,
                             std::chrono::nanoseconds stale_after)
    : name_(std::move(name)),
      mapping_(mapping),
      map_bytes_(map_bytes),
      stale_after_(stale_after) {}

CoLocationBus::~CoLocationBus() {
  release_slot();
  if (mapping_ != nullptr) ::munmap(mapping_, map_bytes_);
}

bool CoLocationBus::unlink(const std::string& name) {
  return ::shm_unlink(name.c_str()) == 0;
}

int CoLocationBus::contexts() const noexcept { return header().contexts; }
int CoLocationBus::max_slots() const noexcept { return header().max_slots; }

// ---------------------------------------------------------------------------
// Slot ownership.

int CoLocationBus::acquire_slot(std::string_view label) {
  if (slot_ >= 0) return slot_;
  if (fault::probe(fault::Site::kBusAcquireFail)) {
    // Injected unusable segment: callers must degrade to bus-less (solo)
    // tuning, which rubic_colocate exercises under a chaos plan.
    return -1;
  }
  const std::int32_t self = static_cast<std::int32_t>(::getpid());

  auto claim = [&](int index, std::int32_t expected) {
    Slot& slot = slot_at(index);
    if (!slot.pid.compare_exchange_strong(expected, self,
                                          std::memory_order_acq_rel)) {
      return false;
    }
    slot_ = index;
    own_ = SlotPayload{};
    own_.beat_ns = monotonic_ns();  // fresh owner counts as alive immediately
    const std::size_t n = std::min(label.size(), sizeof(own_.label) - 1);
    std::memcpy(own_.label, label.data(), n);
    own_.label[n] = '\0';
    write_payload(own_);
    return true;
  };

  // Pass 1: free slots.
  const int slots = max_slots();
  for (int i = 0; i < slots; ++i) {
    if (slot_at(i).pid.load(std::memory_order_acquire) == 0 && claim(i, 0)) {
      return slot_;
    }
  }

  // Pass 2: reclaim slots of dead or long-silent owners. The CAS carries
  // the observed pid, so a concurrent release/claim simply makes us move on.
  const std::uint64_t now = monotonic_ns();
  const std::uint64_t reclaim_ns =
      static_cast<std::uint64_t>(stale_after_.count()) * kReclaimFactor;
  for (int i = 0; i < slots; ++i) {
    Slot& slot = slot_at(i);
    const std::int32_t owner = slot.pid.load(std::memory_order_acquire);
    if (owner == 0) {
      if (claim(i, 0)) return slot_;
      continue;
    }
    if (owner == self) continue;
    bool reclaimable = !pid_alive(owner);
    if (!reclaimable) {
      // Owner pid exists, but if the heartbeat has been silent far past
      // staleness the pid was likely recycled by an unrelated process. A
      // torn or implausible payload is no evidence either way — leave the
      // slot alone.
      SlotPayload payload;
      if (read_payload(slot, payload) == ReadResult::kOk &&
          payload.beat_ns + reclaim_ns < now) {
        reclaimable = true;
      }
    }
    if (reclaimable && claim(i, owner)) return slot_;
  }
  return -1;
}

void CoLocationBus::release_slot() {
  if (slot_ < 0) return;
  Slot& slot = slot_at(slot_);
  std::int32_t self = static_cast<std::int32_t>(::getpid());
  // Only clear if we still own it (it may have been reclaimed from us after
  // a long stall — then it is no longer ours to free).
  slot.pid.compare_exchange_strong(self, 0, std::memory_order_acq_rel);
  slot_ = -1;
}

// ---------------------------------------------------------------------------
// Seqlock publish / read.

void CoLocationBus::write_payload(const SlotPayload& payload) {
  Slot& slot = slot_at(slot_);
  std::uint64_t words[kPayloadWords];
  std::memcpy(words, &payload, sizeof words);
  const std::uint32_t seq = slot.seq.load(std::memory_order_relaxed);
  slot.seq.store(seq + 1, std::memory_order_release);  // odd: write begins
  // Each word's release store keeps the odd sequence before it: a reader
  // that acquires any new word then sees the sequence moved.
  for (std::size_t i = 0; i < kPayloadWords; ++i) {
    std::atomic_ref<std::uint64_t>(slot.payload[i])
        .store(words[i], std::memory_order_release);
  }
  slot.seq.store(seq + 2, std::memory_order_release);  // even: write done
}

void CoLocationBus::publish(const SlotSample& sample) {
  if (slot_ < 0) return;
  own_.heartbeat += 1;
  own_.beat_ns = monotonic_ns();
  own_.level = sample.level;
  own_.throughput = sample.throughput;
  own_.commit_ratio = sample.commit_ratio;
  own_.tasks_completed = sample.tasks_completed;
  own_.commits = sample.commits;
  own_.aborts = sample.aborts;
  own_.backend = sample.backend;
  if (fault::probe(fault::Site::kBusSuppressHeartbeat)) {
    // Injected heartbeat suppression: the round's publish is dropped on the
    // floor. Readers must eventually classify the slot as stale; the own_
    // shadow stays current so the next clean publish recovers in one write.
    return;
  }
  if (fault::probe(fault::Site::kBusCorruptPayload)) {
    // Injected shared-memory corruption: a structurally complete write
    // whose values are impossible. Readers must reject it via
    // payload_plausible() instead of propagating garbage into EqualShare
    // shares or launcher reports. beat_ns stays fresh on purpose — the
    // rejection must come from plausibility, not staleness.
    SlotPayload garbage = own_;
    garbage.level = std::numeric_limits<std::int32_t>::max();
    garbage.throughput = -std::numeric_limits<double>::infinity();
    garbage.commit_ratio = std::numeric_limits<double>::quiet_NaN();
    garbage.tasks_per_second = -1.0;
    for (char& c : garbage.label) c = 'X';  // no terminator
    write_payload(garbage);
    return;
  }
  write_payload(own_);
  if (telemetry::armed()) [[unlikely]] BusTelemetry::get().publishes.add();
  trace::emit(trace::EventType::kBusPublish,
              static_cast<std::uint32_t>(sample.level), own_.heartbeat,
              sample.throughput);
}

void CoLocationBus::publish_final(const FinalSample& sample) {
  if (slot_ < 0) return;
  own_.heartbeat += 1;
  own_.beat_ns = monotonic_ns();
  own_.done = 1;
  own_.final_level = sample.final_level;
  own_.level = sample.final_level;
  own_.seconds = sample.seconds;
  own_.mean_level = sample.mean_level;
  own_.tasks_per_second = sample.tasks_per_second;
  own_.tasks_completed = sample.tasks_completed;
  own_.commits = sample.commits;
  own_.aborts = sample.aborts;
  write_payload(own_);
  if (telemetry::armed()) [[unlikely]] {
    BusTelemetry::get().final_publishes.add();
  }
}

bool payload_plausible(const SlotPayload& p) noexcept {
  // A level beyond this is nonsense on any machine this decade; the real
  // cap (the peer's pool size) is not knowable from here.
  constexpr std::int32_t kMaxPlausibleLevel = 1 << 20;
  if (!std::isfinite(p.throughput) || p.throughput < 0.0) return false;
  if (!std::isfinite(p.commit_ratio) || p.commit_ratio < 0.0 ||
      p.commit_ratio > 1.0) {
    return false;
  }
  if (p.level < 0 || p.level > kMaxPlausibleLevel) return false;
  if (p.final_level < 0 || p.final_level > kMaxPlausibleLevel) return false;
  // Backend indexes into a short name list; -1 means "no STM wired". Loose
  // upper bound — the reader cannot know the peer's actual backend count.
  if (p.backend < -1 || p.backend > 1024) return false;
  if (!std::isfinite(p.seconds) || p.seconds < 0.0) return false;
  if (!std::isfinite(p.mean_level) || p.mean_level < 0.0 ||
      p.mean_level > static_cast<double>(kMaxPlausibleLevel)) {
    return false;
  }
  if (!std::isfinite(p.tasks_per_second) || p.tasks_per_second < 0.0) {
    return false;
  }
  if (p.done > 1) return false;
  for (char c : p.label) {
    if (c == '\0') return true;
  }
  return false;  // label without a terminator
}

CoLocationBus::ReadResult CoLocationBus::read_payload(Slot& slot,
                                                      SlotPayload& out) const {
  for (int attempt = 0; attempt < kSeqlockReadAttempts; ++attempt) {
    const std::uint32_t before = slot.seq.load(std::memory_order_acquire);
    if (before & 1u) continue;  // publish in progress
    std::uint64_t words[kPayloadWords];
    for (std::size_t i = 0; i < kPayloadWords; ++i) {
      words[i] = std::atomic_ref<std::uint64_t>(slot.payload[i])
                     .load(std::memory_order_acquire);
    }
    const std::uint32_t after = slot.seq.load(std::memory_order_acquire);
    if (before == after) {
      SlotPayload copy;
      std::memcpy(&copy, words, sizeof copy);
      // A stable snapshot can still be garbage — shared memory has no
      // write protection between peers. Screen it before trusting it.
      if (!payload_plausible(copy)) {
        if (telemetry::armed()) [[unlikely]] {
          BusTelemetry::get().implausible_reads.add();
        }
        return ReadResult::kImplausible;
      }
      out = copy;
      return ReadResult::kOk;
    }
  }
  if (telemetry::armed()) [[unlikely]] BusTelemetry::get().torn_reads.add();
  return ReadResult::kTorn;  // the owner is actively publishing
}

// ---------------------------------------------------------------------------
// Peer observation.

PeerInfo CoLocationBus::classify(int index) const {
  Slot& slot = slot_at(index);
  PeerInfo info;
  info.slot = index;
  info.pid = slot.pid.load(std::memory_order_acquire);
  if (info.pid == 0) {
    info.slot = -1;
    return info;
  }
  switch (read_payload(slot, info.payload)) {
    case ReadResult::kTorn:
      // Mid-publish: the owner is alive by construction.
      info.torn = true;
      info.state = PeerState::kAlive;
      return info;
    case ReadResult::kImplausible:
      // Corrupted but structurally stable: the payload is unusable (treated
      // exactly like a torn read), and with no trustworthy heartbeat the
      // owner's liveness is judged by its pid alone.
      info.torn = true;
      info.corrupt = true;
      info.state = pid_alive(info.pid) ? PeerState::kAlive : PeerState::kDead;
      return info;
    case ReadResult::kOk:
      break;
  }
  if (info.payload.done != 0) {
    // A final report outlives its author: a process that published one and
    // exited is finished, not crashed.
    info.state = PeerState::kFinished;
  } else if (!pid_alive(info.pid)) {
    info.state = PeerState::kDead;
  } else {
    const std::uint64_t age = monotonic_ns() - info.payload.beat_ns;
    info.state =
        age > static_cast<std::uint64_t>(stale_after_.count())
            ? PeerState::kStale
            : PeerState::kAlive;
  }
  return info;
}

std::vector<PeerInfo> CoLocationBus::snapshot() const {
  if (telemetry::armed()) [[unlikely]] BusTelemetry::get().snapshots.add();
  std::vector<PeerInfo> peers;
  const int slots = max_slots();
  for (int i = 0; i < slots; ++i) {
    PeerInfo info = classify(i);
    if (info.slot >= 0) peers.push_back(info);
  }
  if (trace::armed() != nullptr) {
    std::uint32_t torn = 0;
    std::uint32_t corrupt = 0;
    int live = 0;
    for (const PeerInfo& peer : peers) {
      if (peer.torn) ++torn;
      if (peer.corrupt) ++corrupt;
      if (peer.state == PeerState::kAlive) ++live;
    }
    trace::emit(trace::EventType::kBusRead,
                static_cast<std::uint32_t>(peers.size()),
                (static_cast<std::uint64_t>(corrupt) << 16) | torn,
                static_cast<double>(live));
  }
  return peers;
}

int CoLocationBus::live_count() const {
  int alive = 0;
  const int slots = max_slots();
  for (int i = 0; i < slots; ++i) {
    const PeerInfo info = classify(i);
    if (info.slot >= 0 && info.state == PeerState::kAlive) ++alive;
  }
  return alive;
}

PeerInfo CoLocationBus::find_pid(std::int32_t pid) const {
  const int slots = max_slots();
  for (int i = 0; i < slots; ++i) {
    PeerInfo info = classify(i);
    if (info.slot >= 0 && info.pid == pid) return info;
  }
  return PeerInfo{};
}

}  // namespace rubic::ipc
