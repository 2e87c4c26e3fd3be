// Co-location bus: slot lifecycle, seqlock coherence under a concurrent
// writer, heartbeat staleness, and crash robustness (stale-pid slot
// reclamation after SIGKILL; cross-process EqualShare convergence).
//
// The multi-process cases fork() real children — the bus exists precisely
// to survive peers dying without cleanup, so the tests kill children with
// SIGKILL and assert the survivors' view.
#include <gtest/gtest.h>
#include <signal.h>
#include <sys/mman.h>
#include <sys/wait.h>
#include <unistd.h>

#include <array>
#include <atomic>
#include <chrono>
#include <new>
#include <string>
#include <thread>

#include "src/ipc/colocation_bus.hpp"
#include "src/ipc/equal_share.hpp"

namespace {

using namespace rubic;
using namespace std::chrono;
using std::chrono::steady_clock;

std::string unique_name(const char* tag) {
  static std::atomic<int> counter{0};
  return "/rubic-test-" + std::string(tag) + "-" +
         std::to_string(static_cast<int>(getpid())) + "-" +
         std::to_string(counter.fetch_add(1));
}

// Removes the segment when the test scope ends, pass or fail.
struct Unlinker {
  std::string name;
  ~Unlinker() { ipc::CoLocationBus::unlink(name); }
};

ipc::BusConfig test_config(const std::string& name, int contexts = 8,
                           int max_slots = 4) {
  ipc::BusConfig config;
  config.name = name;
  config.contexts = contexts;
  config.max_slots = max_slots;
  return config;
}

// Spins until `predicate` holds or `limit` elapses.
template <typename Predicate>
bool eventually(Predicate predicate, milliseconds limit = seconds(10)) {
  const auto deadline = steady_clock::now() + limit;
  while (steady_clock::now() < deadline) {
    if (predicate()) return true;
    std::this_thread::sleep_for(milliseconds(2));
  }
  return predicate();
}

TEST(IpcBus, AcquireReleaseRoundTrip) {
  const std::string name = unique_name("acquire");
  Unlinker cleanup{name};
  auto bus = ipc::CoLocationBus::create_or_attach(test_config(name));

  EXPECT_FALSE(bus->has_slot());
  const int slot = bus->acquire_slot("me");
  ASSERT_GE(slot, 0);
  EXPECT_TRUE(bus->has_slot());
  // Idempotent: a second acquire returns the held slot.
  EXPECT_EQ(bus->acquire_slot("me"), slot);

  const auto peers = bus->snapshot();
  ASSERT_EQ(peers.size(), 1u);
  EXPECT_EQ(peers[0].pid, getpid());
  EXPECT_EQ(peers[0].state, ipc::PeerState::kAlive);
  EXPECT_STREQ(peers[0].payload.label, "me");
  EXPECT_EQ(bus->live_count(), 1);

  bus->release_slot();
  EXPECT_FALSE(bus->has_slot());
  EXPECT_TRUE(bus->snapshot().empty());
  EXPECT_EQ(bus->acquire_slot("again"), slot);
}

TEST(IpcBus, AttachSeesCreatorGeometryAndFullBusRejects) {
  const std::string name = unique_name("attach");
  Unlinker cleanup{name};
  auto creator =
      ipc::CoLocationBus::create_or_attach(test_config(name, 16, 1));
  // Attacher passes different geometry; the existing segment wins.
  auto attacher =
      ipc::CoLocationBus::create_or_attach(test_config(name, 64, 8));
  EXPECT_EQ(attacher->contexts(), 16);
  EXPECT_EQ(attacher->max_slots(), 1);

  ASSERT_EQ(creator->acquire_slot("first"), 0);
  // The single slot is held by a live process (ourselves): no reclamation.
  EXPECT_EQ(attacher->acquire_slot("second"), -1);
}

TEST(IpcBus, SeqlockRejectsTornReadsUnderWriter) {
  const std::string name = unique_name("seqlock");
  Unlinker cleanup{name};
  auto writer_bus = ipc::CoLocationBus::create_or_attach(test_config(name));
  auto reader_bus = ipc::CoLocationBus::create_or_attach(test_config(name));
  ASSERT_GE(writer_bus->acquire_slot("writer"), 0);

  // The writer maintains the invariant heartbeat == tasks_completed ==
  // commits (publish() bumps the heartbeat once per call). Any read that
  // mixed two publishes would break it; the seqlock must either reject the
  // read (torn) or deliver a coherent triple.
  std::atomic<bool> stop{false};
  std::thread writer([&] {
    std::uint64_t i = 0;
    while (!stop.load(std::memory_order_acquire)) {
      ++i;
      ipc::SlotSample sample;
      sample.level = static_cast<int>(i % 64);
      sample.tasks_completed = i;
      sample.commits = i;
      writer_bus->publish(sample);
    }
  });

  std::uint64_t coherent_reads = 0;
  const auto deadline = steady_clock::now() + milliseconds(300);
  while (steady_clock::now() < deadline) {
    const auto peers = reader_bus->snapshot();
    ASSERT_EQ(peers.size(), 1u);
    if (peers[0].torn) continue;  // rejected — exactly the contract
    ++coherent_reads;
    EXPECT_EQ(peers[0].payload.heartbeat, peers[0].payload.tasks_completed);
    EXPECT_EQ(peers[0].payload.heartbeat, peers[0].payload.commits);
  }
  stop.store(true, std::memory_order_release);
  writer.join();
  EXPECT_GT(coherent_reads, 0u);
}

TEST(IpcBus, StaleHeartbeatExpires) {
  const std::string name = unique_name("stale");
  Unlinker cleanup{name};
  auto config = test_config(name);
  config.stale_after = milliseconds(40);
  auto bus = ipc::CoLocationBus::create_or_attach(config);
  ASSERT_GE(bus->acquire_slot("beater"), 0);
  bus->publish({});
  EXPECT_EQ(bus->live_count(), 1);

  // Stop beating; the same live pid must drop out of the live count.
  ASSERT_TRUE(eventually([&] {
    const auto peers = bus->snapshot();
    return peers.size() == 1 && peers[0].state == ipc::PeerState::kStale;
  }));
  EXPECT_EQ(bus->live_count(), 0);

  // One publish resurrects it.
  bus->publish({});
  EXPECT_EQ(bus->live_count(), 1);
}

TEST(IpcBus, FinishedPeerStopsCountingTowardShares) {
  const std::string name = unique_name("finished");
  Unlinker cleanup{name};
  auto bus = ipc::CoLocationBus::create_or_attach(test_config(name));
  ASSERT_GE(bus->acquire_slot("done-soon"), 0);
  ipc::FinalSample final_sample;
  final_sample.final_level = 3;
  final_sample.mean_level = 2.5;
  final_sample.tasks_per_second = 123.0;
  bus->publish_final(final_sample);

  const auto peers = bus->snapshot();
  ASSERT_EQ(peers.size(), 1u);
  EXPECT_EQ(peers[0].state, ipc::PeerState::kFinished);
  EXPECT_EQ(peers[0].payload.final_level, 3);
  EXPECT_DOUBLE_EQ(peers[0].payload.tasks_per_second, 123.0);
  EXPECT_EQ(bus->live_count(), 0);
}

// A child claims the only slot, is SIGKILLed (no cleanup of any kind), and
// the next acquisition must reclaim the slot via the dead-pid probe. This
// is both the crash case and the "launcher restart" case — a restarted
// launcher finds the previous generation's pids dead the same way.
TEST(IpcBus, ReclaimsSlotOfSigkilledChild) {
  const std::string name = unique_name("sigkill");
  Unlinker cleanup{name};
  auto bus = ipc::CoLocationBus::create_or_attach(test_config(name, 8, 1));

  const pid_t child = fork();
  ASSERT_GE(child, 0);
  if (child == 0) {
    // Child: claim the slot, then hang until killed. _exit codes (not
    // ASSERTs) — this is not the gtest process anymore.
    auto child_bus =
        ipc::CoLocationBus::create_or_attach(test_config(name, 8, 1));
    if (child_bus->acquire_slot("victim") != 0) _exit(1);
    child_bus->publish({});
    for (;;) pause();
  }

  ASSERT_TRUE(eventually([&] {
    const auto peers = bus->snapshot();
    return peers.size() == 1 && peers[0].pid == child;
  }));
  // Bus full of a live peer: no slot for us.
  EXPECT_EQ(bus->acquire_slot("survivor"), -1);

  ASSERT_EQ(kill(child, SIGKILL), 0);
  int status = 0;
  ASSERT_EQ(waitpid(child, &status, 0), child);
  ASSERT_TRUE(WIFSIGNALED(status));

  // The pid is gone; acquisition reclaims the slot in-place.
  EXPECT_EQ(bus->acquire_slot("survivor"), 0);
  const auto peers = bus->snapshot();
  ASSERT_EQ(peers.size(), 1u);
  EXPECT_EQ(peers[0].pid, getpid());
  EXPECT_STREQ(peers[0].payload.label, "survivor");
  EXPECT_EQ(peers[0].state, ipc::PeerState::kAlive);
}

// The §4.3 acceptance scenario: two real processes under bus-EqualShare
// must each settle at contexts / 2. Children sample their controller only
// once both are registered, and stay registered (beating) until both have
// finished sampling, so every sample must be exactly the fair share.
TEST(IpcBus, EqualShareAcrossProcesses) {
  const std::string name = unique_name("eqshare");
  Unlinker cleanup{name};
  constexpr int kContexts = 8;
  auto bus =
      ipc::CoLocationBus::create_or_attach(test_config(name, kContexts));
  // Children that have finished sampling. Without this rendezvous a child
  // scheduled a few rounds late would see its sibling exit (and drop out
  // of live_count()) before its own last sample.
  void* shared = mmap(nullptr, sizeof(std::atomic<int>),
                      PROT_READ | PROT_WRITE, MAP_SHARED | MAP_ANONYMOUS, -1,
                      0);
  ASSERT_NE(shared, MAP_FAILED);
  auto* finished = new (shared) std::atomic<int>{0};

  auto spawn = [&]() -> pid_t {
    const pid_t pid = fork();
    if (pid != 0) return pid;
    // Child: register, wait for the sibling, then sample the share.
    auto child_bus =
        ipc::CoLocationBus::create_or_attach(test_config(name, kContexts));
    if (child_bus->acquire_slot("eq") < 0) _exit(2);
    ipc::BusEqualShareController controller(*child_bus);
    const auto deadline = steady_clock::now() + seconds(10);
    while (child_bus->live_count() < 2) {
      if (steady_clock::now() > deadline) _exit(3);
      child_bus->publish({});
      std::this_thread::sleep_for(milliseconds(2));
    }
    double level_sum = 0;
    constexpr int kRounds = 20;
    for (int round = 0; round < kRounds; ++round) {
      ipc::SlotSample sample;
      sample.level = controller.on_sample(100.0);
      level_sum += sample.level;
      child_bus->publish(sample);
      std::this_thread::sleep_for(milliseconds(5));
    }
    const double mean_level = level_sum / kRounds;
    finished->fetch_add(1);
    while (finished->load() < 2) {
      if (steady_clock::now() > deadline) _exit(3);
      child_bus->publish({});
      std::this_thread::sleep_for(milliseconds(2));
    }
    // Both processes are alive the whole time: the share is exactly N/2.
    _exit(mean_level == kContexts / 2 ? 0 : 4);
  };

  const pid_t a = spawn();
  ASSERT_GE(a, 0);
  const pid_t b = spawn();
  ASSERT_GE(b, 0);
  for (const pid_t child : {a, b}) {
    int status = 0;
    ASSERT_EQ(waitpid(child, &status, 0), child);
    ASSERT_TRUE(WIFEXITED(status));
    EXPECT_EQ(WEXITSTATUS(status), 0) << "child " << child;
  }
  munmap(shared, sizeof(std::atomic<int>));
}

// Slot lifecycle under sustained churn: generations of children claim
// both slots of a 2-slot bus, are SIGKILLed with no cleanup, and the next
// generation must reclaim in-place. Every slot is reused at least twice.
// Invariants per generation: the peer table never exceeds max_slots (no
// slot leak), and a reclaimed slot carries the new owner's pid and label —
// never the dead generation's stale payload.
TEST(IpcBus, SlotChurnReclaimsWithoutLeaksOrStaleAdoption) {
  const std::string name = unique_name("churn");
  Unlinker cleanup{name};
  constexpr int kContexts = 8;
  constexpr int kSlots = 2;
  auto config = test_config(name, kContexts, kSlots);

  auto bus = ipc::CoLocationBus::create_or_attach(config);
  std::array<int, kSlots> reuses{};  // generations seen per slot beyond the first

  constexpr int kGenerations = 3;
  for (int generation = 0; generation < kGenerations; ++generation) {
    std::array<pid_t, kSlots> children{};
    for (int i = 0; i < kSlots; ++i) {
      const pid_t pid = fork();
      ASSERT_GE(pid, 0);
      if (pid == 0) {
        auto child_bus = ipc::CoLocationBus::create_or_attach(config);
        const std::string label =
            "gen" + std::to_string(generation) + "-" + std::to_string(i);
        if (child_bus->acquire_slot(label) < 0) _exit(2);
        for (;;) {
          child_bus->publish({});
          std::this_thread::sleep_for(milliseconds(2));
        }
      }
      children[i] = pid;
    }

    // Both children of this generation must surface as live peers.
    ASSERT_TRUE(eventually([&] {
      const auto peers = bus->snapshot();
      int live = 0;
      for (const auto& peer : peers) {
        for (const pid_t pid : children) {
          if (peer.pid == pid && peer.state == ipc::PeerState::kAlive) ++live;
        }
      }
      return live == kSlots;
    })) << "generation " << generation;

    const auto peers = bus->snapshot();
    ASSERT_LE(peers.size(), static_cast<std::size_t>(kSlots))
        << "slot leak in generation " << generation;
    const std::string expected_prefix = "gen" + std::to_string(generation);
    for (const auto& peer : peers) {
      // Fresh ownership: current pid, current generation's label. A stale
      // payload adopted from a dead generation would fail both.
      EXPECT_TRUE(peer.pid == children[0] || peer.pid == children[1])
          << "generation " << generation << " kept dead pid " << peer.pid;
      EXPECT_EQ(std::string(peer.payload.label).rfind(expected_prefix, 0), 0u)
          << "slot " << peer.slot << " shows stale label '"
          << peer.payload.label << "' in generation " << generation;
      if (generation > 0) ++reuses[static_cast<std::size_t>(peer.slot)];
    }
    // The bus is full of live peers: no slot for anyone else.
    EXPECT_EQ(bus->acquire_slot("outsider"), -1);

    for (const pid_t pid : children) {
      ASSERT_EQ(kill(pid, SIGKILL), 0);
      int status = 0;
      ASSERT_EQ(waitpid(pid, &status, 0), pid);
      ASSERT_TRUE(WIFSIGNALED(status));
    }
  }
  for (int slot = 0; slot < kSlots; ++slot) {
    EXPECT_GE(reuses[static_cast<std::size_t>(slot)], 2)
        << "slot " << slot << " never churned";
  }

  // After all that churn, arbitration is undisturbed: the parent and one
  // fresh child split the machine exactly in half under EqualShare.
  ASSERT_GE(bus->acquire_slot("closer"), 0);
  ipc::BusEqualShareController controller(*bus);
  const pid_t peer = fork();
  ASSERT_GE(peer, 0);
  if (peer == 0) {
    auto child_bus = ipc::CoLocationBus::create_or_attach(config);
    if (child_bus->acquire_slot("closer-peer") < 0) _exit(2);
    for (;;) {
      child_bus->publish({});
      std::this_thread::sleep_for(milliseconds(2));
    }
  }
  ASSERT_TRUE(eventually([&] {
    bus->publish({});
    return controller.on_sample(100.0) == kContexts / 2;
  }));
  ASSERT_EQ(kill(peer, SIGKILL), 0);
  int status = 0;
  ASSERT_EQ(waitpid(peer, &status, 0), peer);
}

// When one of the co-located processes is killed, the survivor's share
// grows from contexts/2 back to contexts once the victim's pid vanishes —
// survivors keep tuning without any cleanup step.
TEST(IpcBus, EqualShareRecoversAfterPeerDeath) {
  const std::string name = unique_name("eqrecover");
  Unlinker cleanup{name};
  constexpr int kContexts = 8;
  auto config = test_config(name, kContexts);
  config.stale_after = milliseconds(60);
  auto bus = ipc::CoLocationBus::create_or_attach(config);
  ASSERT_GE(bus->acquire_slot("survivor"), 0);
  ipc::BusEqualShareController controller(*bus);

  const pid_t child = fork();
  ASSERT_GE(child, 0);
  if (child == 0) {
    auto child_bus = ipc::CoLocationBus::create_or_attach(config);
    if (child_bus->acquire_slot("victim") < 0) _exit(2);
    for (;;) {
      child_bus->publish({});
      std::this_thread::sleep_for(milliseconds(5));
    }
  }

  ASSERT_TRUE(eventually([&] {
    bus->publish({});
    return controller.on_sample(100.0) == kContexts / 2;
  }));

  ASSERT_EQ(kill(child, SIGKILL), 0);
  int status = 0;
  ASSERT_EQ(waitpid(child, &status, 0), child);

  ASSERT_TRUE(eventually([&] {
    bus->publish({});
    return controller.on_sample(100.0) == kContexts;
  }));
}

}  // namespace
