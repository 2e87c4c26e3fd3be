// Tests for the STAMP-style workloads: Vacation manager semantics and
// check_tables, Intruder stream/detector/reassembly, the transactional
// queue, and the RB-set workload driver — single-threaded functional tests
// plus concurrent consistency runs.
#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "src/tds/registry.hpp"
#include "src/util/spin_barrier.hpp"
#include "src/workloads/intruder/intruder_workload.hpp"
#include "src/workloads/rbset_workload.hpp"
#include "src/workloads/synchro_workload.hpp"
#include "src/tds/tqueue.hpp"
#include "src/workloads/vacation/vacation_workload.hpp"

namespace rubic::workloads {
namespace {

using vacation::Manager;
using vacation::ResourceType;

// ---------- transactional queue ----------

TEST(TQueue, FifoOrder) {
  stm::Runtime rt;
  stm::TxnDesc& ctx = rt.register_thread();
  tds::TQueue<int> q;
  int items[3] = {1, 2, 3};
  stm::atomically(ctx, [&](stm::Txn& tx) {
    for (auto& item : items) q.enqueue(tx, &item);
  });
  EXPECT_EQ(q.unsafe_size(), 3);
  for (int expected = 1; expected <= 3; ++expected) {
    int* got = stm::atomically(ctx, [&](stm::Txn& tx) { return q.try_dequeue(tx); });
    ASSERT_NE(got, nullptr);
    EXPECT_EQ(*got, expected);
  }
  EXPECT_EQ(stm::atomically(ctx, [&](stm::Txn& tx) { return q.try_dequeue(tx); }),
            nullptr);
  EXPECT_EQ(q.unsafe_size(), 0);
}

TEST(TQueue, ConcurrentProducersConsumers) {
  stm::Runtime rt;
  tds::TQueue<std::int64_t> q;
  constexpr int kProducers = 2, kConsumers = 2, kPerProducer = 500;
  std::vector<std::int64_t> values(kProducers * kPerProducer);
  for (std::size_t i = 0; i < values.size(); ++i) values[i] = static_cast<std::int64_t>(i);
  std::atomic<std::int64_t> consumed_sum{0};
  std::atomic<int> consumed_count{0};
  util::SpinBarrier barrier(kProducers + kConsumers);
  std::vector<std::thread> threads;
  for (int p = 0; p < kProducers; ++p) {
    threads.emplace_back([&, p] {
      stm::TxnDesc& ctx = rt.register_thread();
      barrier.arrive_and_wait();
      for (int i = 0; i < kPerProducer; ++i) {
        auto* item = &values[static_cast<std::size_t>(p * kPerProducer + i)];
        stm::atomically(ctx, [&](stm::Txn& tx) { q.enqueue(tx, item); });
      }
    });
  }
  for (int c = 0; c < kConsumers; ++c) {
    threads.emplace_back([&] {
      stm::TxnDesc& ctx = rt.register_thread();
      barrier.arrive_and_wait();
      while (consumed_count.load() < kProducers * kPerProducer) {
        auto* item =
            stm::atomically(ctx, [&](stm::Txn& tx) { return q.try_dequeue(tx); });
        if (item != nullptr) {
          consumed_sum.fetch_add(*item);
          consumed_count.fetch_add(1);
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  std::int64_t expected = 0;
  for (auto v : values) expected += v;
  EXPECT_EQ(consumed_sum.load(), expected);
}

// ---------- vacation manager ----------

class ManagerTest : public ::testing::Test {
 protected:
  stm::Runtime rt_;
  stm::TxnDesc& ctx_ = rt_.register_thread();
  Manager mgr_;

  template <typename F>
  auto tx(F&& f) {
    return stm::atomically(ctx_, std::forward<F>(f));
  }
};

TEST_F(ManagerTest, AddAndQueryResource) {
  tx([&](stm::Txn& t) {
    EXPECT_TRUE(mgr_.add_resource(t, ResourceType::kCar, 7, 10, 99));
  });
  tx([&](stm::Txn& t) {
    EXPECT_EQ(mgr_.query_free(t, ResourceType::kCar, 7), 10);
    EXPECT_EQ(mgr_.query_price(t, ResourceType::kCar, 7), 99);
    EXPECT_EQ(mgr_.query_free(t, ResourceType::kFlight, 7), std::nullopt)
        << "relations must be independent per type";
  });
  EXPECT_TRUE(mgr_.check_tables());
}

TEST_F(ManagerTest, GrowExistingResourceUpdatesPrice) {
  tx([&](stm::Txn& t) { mgr_.add_resource(t, ResourceType::kRoom, 1, 5, 100); });
  tx([&](stm::Txn& t) { mgr_.add_resource(t, ResourceType::kRoom, 1, 3, 120); });
  tx([&](stm::Txn& t) {
    EXPECT_EQ(mgr_.query_free(t, ResourceType::kRoom, 1), 8);
    EXPECT_EQ(mgr_.query_price(t, ResourceType::kRoom, 1), 120);
  });
  EXPECT_TRUE(mgr_.check_tables());
}

TEST_F(ManagerTest, DeleteResourceRespectsFreeUnits) {
  tx([&](stm::Txn& t) {
    mgr_.add_resource(t, ResourceType::kFlight, 2, 4, 10);
    mgr_.add_customer(t, 50);
    EXPECT_TRUE(mgr_.reserve(t, 50, ResourceType::kFlight, 2));
  });
  tx([&](stm::Txn& t) {
    EXPECT_FALSE(mgr_.delete_resource(t, ResourceType::kFlight, 2, 4))
        << "cannot retire units that are in use";
    EXPECT_TRUE(mgr_.delete_resource(t, ResourceType::kFlight, 2, 3));
    EXPECT_EQ(mgr_.query_free(t, ResourceType::kFlight, 2), 0);
  });
  EXPECT_TRUE(mgr_.check_tables());
}

TEST_F(ManagerTest, ReserveDecrementsFreeTracksCustomer) {
  tx([&](stm::Txn& t) {
    mgr_.add_resource(t, ResourceType::kCar, 3, 2, 55);
    mgr_.add_customer(t, 9);
  });
  tx([&](stm::Txn& t) {
    EXPECT_TRUE(mgr_.reserve(t, 9, ResourceType::kCar, 3));
    EXPECT_TRUE(mgr_.reserve(t, 9, ResourceType::kCar, 3));
    EXPECT_FALSE(mgr_.reserve(t, 9, ResourceType::kCar, 3)) << "sold out";
    EXPECT_FALSE(mgr_.reserve(t, 777, ResourceType::kCar, 3)) << "no customer";
    EXPECT_FALSE(mgr_.reserve(t, 9, ResourceType::kCar, 999)) << "no resource";
  });
  EXPECT_TRUE(mgr_.check_tables());
}

TEST_F(ManagerTest, DeleteCustomerReleasesReservations) {
  tx([&](stm::Txn& t) {
    mgr_.add_resource(t, ResourceType::kCar, 1, 1, 30);
    mgr_.add_resource(t, ResourceType::kRoom, 2, 1, 70);
    mgr_.add_customer(t, 4);
    mgr_.reserve(t, 4, ResourceType::kCar, 1);
    mgr_.reserve(t, 4, ResourceType::kRoom, 2);
  });
  const auto released = tx([&](stm::Txn& t) { return mgr_.delete_customer(t, 4); });
  ASSERT_TRUE(released.has_value());
  EXPECT_EQ(*released, 100);
  tx([&](stm::Txn& t) {
    EXPECT_EQ(mgr_.query_free(t, ResourceType::kCar, 1), 1);
    EXPECT_EQ(mgr_.query_free(t, ResourceType::kRoom, 2), 1);
    EXPECT_EQ(mgr_.delete_customer(t, 4), std::nullopt) << "already deleted";
  });
  EXPECT_TRUE(mgr_.check_tables());
}

TEST_F(ManagerTest, DuplicateCustomerRejected) {
  tx([&](stm::Txn& t) {
    EXPECT_TRUE(mgr_.add_customer(t, 1));
    EXPECT_FALSE(mgr_.add_customer(t, 1));
  });
}

// ---------- vacation workload end-to-end ----------

TEST(VacationWorkload, ConcurrentMixKeepsTablesConsistent) {
  stm::Runtime rt;
  vacation::VacationWorkload workload(rt, vacation::VacationParams::tiny());
  constexpr int kThreads = 4;
  util::SpinBarrier barrier(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      stm::TxnDesc& ctx = rt.register_thread();
      util::Xoshiro256 rng(42 + t);
      barrier.arrive_and_wait();
      for (int i = 0; i < 600; ++i) workload.run_task(ctx, rng);
    });
  }
  for (auto& th : threads) th.join();
  std::string error;
  EXPECT_TRUE(workload.verify(&error)) << error;
}

// ---------- intruder ----------

TEST(IntruderStream, FragmentsReassembleToPayload) {
  intruder::StreamParams params;
  params.flow_count = 200;
  intruder::Stream stream(params);
  // Regroup fragments per flow and splice them in index order.
  std::vector<std::vector<const intruder::Packet*>> by_flow(
      static_cast<std::size_t>(params.flow_count));
  for (const auto& p : stream.packets()) {
    auto& frags = by_flow[static_cast<std::size_t>(p.flow_id)];
    frags.resize(static_cast<std::size_t>(p.fragment_count), nullptr);
    frags[static_cast<std::size_t>(p.fragment_index)] = &p;
  }
  for (std::int64_t id = 0; id < params.flow_count; ++id) {
    std::string assembled;
    for (const auto* p : by_flow[static_cast<std::size_t>(id)]) {
      ASSERT_NE(p, nullptr) << "missing fragment in flow " << id;
      assembled.append(p->data, p->length);
    }
    EXPECT_EQ(assembled, stream.flow(id).payload) << "flow " << id;
  }
}

TEST(IntruderStream, AttackFractionRoughlyMatches) {
  intruder::StreamParams params;
  params.flow_count = 4000;
  params.attack_pct = 10;
  intruder::Stream stream(params);
  const double fraction =
      static_cast<double>(stream.attack_flow_count()) /
      static_cast<double>(params.flow_count);
  EXPECT_NEAR(fraction, 0.10, 0.02);
}

TEST(IntruderDetector, FindsEverySignatureAndNoFalsePositives) {
  for (const auto sig : intruder::attack_signatures()) {
    EXPECT_TRUE(intruder::contains_attack(std::string("prefix ") +
                                          std::string(sig) + " suffix"));
  }
  EXPECT_FALSE(intruder::contains_attack("just some innocent lowercase text"));
  EXPECT_FALSE(intruder::contains_attack(""));
}

TEST(IntruderDetector, GroundTruthAgreesOnGeneratedFlows) {
  intruder::StreamParams params;
  params.flow_count = 1000;
  intruder::Stream stream(params);
  for (std::int64_t id = 0; id < params.flow_count; ++id) {
    EXPECT_EQ(intruder::contains_attack(stream.flow(id).payload),
              stream.flow(id).is_attack)
        << "flow " << id;
  }
}

TEST(IntruderWorkload, SingleThreadProcessesWholeEpochExactly) {
  stm::Runtime rt;
  intruder::StreamParams params;
  params.flow_count = 300;
  intruder::IntruderWorkload workload(rt, params);
  stm::TxnDesc& ctx = rt.register_thread();
  util::Xoshiro256 rng(1);
  const auto packet_count = workload.stream().packets().size();
  for (std::size_t i = 0; i < packet_count; ++i) workload.run_task(ctx, rng);
  EXPECT_EQ(workload.flows_completed(), params.flow_count);
  EXPECT_EQ(workload.attacks_found(), workload.stream().attack_flow_count());
  std::string error;
  EXPECT_TRUE(workload.verify(&error)) << error;
}

TEST(IntruderWorkload, ConcurrentWorkersStayConsistent) {
  stm::Runtime rt;
  intruder::StreamParams params;
  params.flow_count = 400;
  intruder::IntruderWorkload workload(rt, params);
  constexpr int kThreads = 4;
  util::SpinBarrier barrier(kThreads);
  std::vector<std::thread> threads;
  const auto packet_count = workload.stream().packets().size();
  // Two full epochs of packets split across the workers.
  const std::size_t tasks_per_thread = packet_count * 2 / kThreads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      stm::TxnDesc& ctx = rt.register_thread();
      util::Xoshiro256 rng(7 + t);
      barrier.arrive_and_wait();
      for (std::size_t i = 0; i < tasks_per_thread; ++i) {
        workload.run_task(ctx, rng);
      }
    });
  }
  for (auto& th : threads) th.join();
  std::string error;
  EXPECT_TRUE(workload.verify(&error)) << error;
  EXPECT_GE(workload.flows_completed(), params.flow_count)
      << "at least the first epoch must have fully completed";
}

// ---------- rbset workload ----------

TEST(RbSetWorkload, MixedOpsKeepInvariants) {
  stm::Runtime rt;
  RbSetWorkload workload(rt, RbSetParams::tiny());
  EXPECT_EQ(workload.tree().unsafe_size(), 512u);
  stm::TxnDesc& ctx = rt.register_thread();
  util::Xoshiro256 rng(99);
  for (int i = 0; i < 3000; ++i) workload.run_task(ctx, rng);
  std::string error;
  EXPECT_TRUE(workload.verify(&error)) << error;
  // 50% lookups / 25% insert / 25% erase: size stays in the same ballpark.
  EXPECT_GT(workload.tree().unsafe_size(), 200u);
  EXPECT_LT(workload.tree().unsafe_size(), 900u);
}

TEST(RbSetWorkload, ReadOnlyVariantNeverMutates) {
  stm::Runtime rt;
  RbSetParams params = RbSetParams::read_only();
  params.initial_size = 2048;
  RbSetWorkload workload(rt, params);
  const auto size_before = workload.tree().unsafe_size();
  const auto setup_stats = rt.aggregate_stats();
  stm::TxnDesc& ctx = rt.register_thread();
  util::Xoshiro256 rng(5);
  for (int i = 0; i < 1000; ++i) workload.run_task(ctx, rng);
  EXPECT_EQ(workload.tree().unsafe_size(), size_before);
  const auto stats = rt.aggregate_stats();
  EXPECT_EQ(stats.commits - setup_stats.commits,
            stats.read_only_commits - setup_stats.read_only_commits)
      << "100% look-up tasks must all be read-only commits";
}

// The structures keep no size word, so a lost update shows only in the
// workers' own count of their committed inserts and erases. An erase the
// workload does not count stands in for one: the structure stays valid,
// and verify() must still notice the missing key.
TEST(RbSetWorkload, VerifyCatchesAnEraseTheWorkersDidNotCount) {
  stm::Runtime rt;
  RbSetWorkload workload(rt, RbSetParams::tiny());
  stm::TxnDesc& ctx = rt.register_thread();
  util::Xoshiro256 rng(3);
  for (int i = 0; i < 500; ++i) workload.run_task(ctx, rng);
  std::string error;
  ASSERT_TRUE(workload.verify(&error)) << error;
  std::int64_t victim = 0;
  workload.tree().unsafe_for_each(
      [&](std::int64_t k, std::int64_t) { victim = k; });
  ASSERT_TRUE(stm::atomically(
      ctx, [&](stm::Txn& tx) { return workload.tree().erase(tx, victim); }));
  EXPECT_TRUE(workload.tree().check_invariants(&error)) << error;
  EXPECT_FALSE(workload.verify(&error));
  EXPECT_NE(error.find("committed inserts and erases"), std::string::npos)
      << error;
}

TEST(SynchroWorkload, VerifyCatchesARemoveTheWorkersDidNotCount) {
  for (const auto structure : tds::known_structures()) {
    SCOPED_TRACE(std::string(structure));
    stm::Runtime rt;
    SynchroWorkload workload(rt, SynchroParams::tiny(std::string(structure)));
    stm::TxnDesc& ctx = rt.register_thread();
    util::Xoshiro256 rng(3);
    for (int i = 0; i < 500; ++i) workload.run_task(ctx, rng);
    std::string error;
    ASSERT_TRUE(workload.verify(&error)) << error;
    std::int64_t victim = 0;
    workload.map().unsafe_for_each(
        [&](std::int64_t k, std::int64_t) { victim = k; });
    ASSERT_TRUE(stm::atomically(
        ctx, [&](stm::Txn& tx) { return workload.map().remove(tx, victim); }));
    EXPECT_TRUE(workload.map().check_invariants(&error)) << error;
    EXPECT_FALSE(workload.verify(&error));
    EXPECT_NE(error.find("committed inserts and erases"), std::string::npos)
        << error;
  }
}

}  // namespace
}  // namespace rubic::workloads
