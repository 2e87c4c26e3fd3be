// Traffic subsystem suite (src/traffic/): key-distribution statistics,
// rate-curve parsing, arrival-schedule determinism, open-loop backlog
// behaviour under an injected stall, the KV service workload end-to-end on
// the malleable runtime, and — the part that makes the rest trustworthy —
// proof that the exit-time verifier actually catches tampered state.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "src/control/factory.hpp"
#include "src/control/fixed.hpp"
#include "src/fault/fault.hpp"
#include "src/runtime/malleable_pool.hpp"
#include "src/runtime/process.hpp"
#include "src/stm/stm.hpp"
#include "src/telemetry/json.hpp"
#include "src/traffic/traffic.hpp"
#include "src/util/listing.hpp"
#include "src/util/rng.hpp"

namespace rubic {
namespace {

using std::chrono::milliseconds;

// Chaos tests must leave the process disarmed even when an assertion fails
// mid-body (gtest keeps running the remaining tests in this process).
class TrafficChaosTest : public ::testing::Test {
 protected:
  void TearDown() override { fault::disarm(); }
};

// --- key distributions -----------------------------------------------------

TEST(KeyDist, ZipfianHeadKeyFrequencyMatchesTheory) {
  constexpr std::uint64_t kN = 1000;
  constexpr int kSamples = 200000;
  traffic::ZipfianSampler sampler(kN, 0.99);
  util::Xoshiro256 rng(42);
  std::vector<int> counts(kN, 0);
  for (int i = 0; i < kSamples; ++i) {
    const std::uint64_t rank = sampler.sample(rng);
    ASSERT_LT(rank, kN);
    ++counts[rank];
  }
  // The hottest rank's empirical frequency must track 1/zeta(n, theta)
  // within 15% — the YCSB inversion is exact, so the slack is only
  // sampling noise at 200k draws.
  const double head = static_cast<double>(counts[0]) / kSamples;
  const double expected = sampler.head_probability();
  EXPECT_NEAR(head, expected, 0.15 * expected);
  // Skew sanity: the head outdraws rank 10 and rank 100 by a wide margin.
  EXPECT_GT(counts[0], 4 * counts[10]);
  EXPECT_GT(counts[0], 20 * counts[100]);
}

TEST(KeyDist, UniformChiSquaredWithinBound) {
  constexpr std::uint64_t kN = 64;
  constexpr int kSamples = 128000;
  traffic::UniformSampler sampler(kN);
  util::Xoshiro256 rng(7);
  std::vector<int> counts(kN, 0);
  for (int i = 0; i < kSamples; ++i) ++counts[sampler.sample(rng)];
  const double expected = static_cast<double>(kSamples) / kN;
  double chi2 = 0.0;
  for (const int c : counts) {
    const double d = c - expected;
    chi2 += d * d / expected;
  }
  // 63 degrees of freedom: P(chi2 > 120) < 1e-5. A biased generator (or a
  // broken below()) lands far above this.
  EXPECT_LT(chi2, 120.0);
}

TEST(KeyDist, ZipfianRejectsBadTheta) {
  // RUBIC_CHECK aborts rather than throwing (see src/util/check.hpp).
  EXPECT_DEATH(traffic::ZipfianSampler(100, 0.0), "theta");
  EXPECT_DEATH(traffic::ZipfianSampler(100, 1.0), "theta");
}

// --- rate curves -----------------------------------------------------------

TEST(RateCurve, ParsesEveryShape) {
  const auto constant =
      traffic::RateCurve::parse("constant:rate=100,seconds=2");
  ASSERT_EQ(constant.phases().size(), 1u);
  EXPECT_EQ(constant.phases()[0].name, "steady");
  EXPECT_DOUBLE_EQ(constant.total_seconds(), 2.0);
  EXPECT_DOUBLE_EQ(constant.rate_at(1.0), 100.0);
  EXPECT_DOUBLE_EQ(constant.rate_at(-0.1), 0.0);
  EXPECT_DOUBLE_EQ(constant.rate_at(2.0), 0.0);

  const auto ramp = traffic::RateCurve::parse("ramp:from=0,to=100,seconds=4");
  EXPECT_DOUBLE_EQ(ramp.rate_at(2.0), 50.0);

  const auto diurnal =
      traffic::RateCurve::parse("diurnal:low=10,high=90,seconds=8");
  ASSERT_EQ(diurnal.phases().size(), 4u);
  EXPECT_EQ(diurnal.phases()[0].name, "trough");
  EXPECT_EQ(diurnal.phases()[2].name, "peak");
  EXPECT_DOUBLE_EQ(diurnal.total_seconds(), 8.0);
  EXPECT_DOUBLE_EQ(diurnal.rate_at(3.0), 50.0);  // middle of the rise

  const auto flash =
      traffic::RateCurve::parse("flash:base=50,spike=500,seconds=10");
  ASSERT_EQ(flash.phases().size(), 3u);
  EXPECT_EQ(flash.phases()[1].name, "spike");
  EXPECT_DOUBLE_EQ(flash.rate_at(1.0), 50.0);
  EXPECT_DOUBLE_EQ(flash.rate_at(4.5), 500.0);
  EXPECT_DOUBLE_EQ(flash.rate_at(9.0), 50.0);

  const auto phases =
      traffic::RateCurve::parse("phases:warm=10@1,burst=200@2,cool=5@1");
  ASSERT_EQ(phases.phases().size(), 3u);
  EXPECT_EQ(phases.phases()[1].name, "burst");
  EXPECT_DOUBLE_EQ(phases.total_seconds(), 4.0);
  EXPECT_EQ(phases.phase_index_at(1.5), 1u);
  EXPECT_EQ(phases.phase_index_at(99.0), 2u);
}

TEST(RateCurve, RejectsMalformedSpecs) {
  EXPECT_THROW(traffic::RateCurve::parse("nocolon"), std::invalid_argument);
  EXPECT_THROW(traffic::RateCurve::parse("sine:rate=1,seconds=1"),
               std::invalid_argument);
  EXPECT_THROW(traffic::RateCurve::parse("constant:rate=100"),
               std::invalid_argument);
  EXPECT_THROW(traffic::RateCurve::parse("constant:rate=x,seconds=1"),
               std::invalid_argument);
  EXPECT_THROW(traffic::RateCurve::parse("constant:rate=1,bogus=2,seconds=1"),
               std::invalid_argument);
  EXPECT_THROW(traffic::RateCurve::parse("constant:rate=1,seconds=0"),
               std::invalid_argument);
  EXPECT_THROW(traffic::RateCurve::parse("constant:rate=-5,seconds=1"),
               std::invalid_argument);
  EXPECT_THROW(
      traffic::RateCurve::parse("flash:base=1,spike=2,seconds=1,spike_at=0.9"),
      std::invalid_argument);
  EXPECT_THROW(traffic::RateCurve::parse("phases:"), std::invalid_argument);
  EXPECT_THROW(traffic::RateCurve::parse("phases:a=1"), std::invalid_argument);
}

// --- op mixes --------------------------------------------------------------

TEST(OpMix, RegistryRoundTripsAndSharesSumToOne) {
  const auto names = traffic::known_mixes();
  ASSERT_FALSE(names.empty());
  for (const auto& name : names) {
    const traffic::OpMix& mix = traffic::mix_by_name(name);
    EXPECT_EQ(mix.name, name);
    double total = 0.0;
    for (const double share : mix.share) total += share;
    EXPECT_NEAR(total, 1.0, 1e-9) << name;
  }
  EXPECT_THROW(traffic::mix_by_name("ycsb-z"), std::invalid_argument);
  // Every mix must exercise the zero-sum invariant through some write op.
  for (const auto& name : names) {
    const traffic::OpMix& mix = traffic::mix_by_name(name);
    double writes = 0.0;
    for (std::size_t i = 0; i < mix.share.size(); ++i) {
      if (traffic::op_writes(static_cast<traffic::OpKind>(i))) {
        writes += mix.share[i];
      }
    }
    EXPECT_GT(writes, 0.0) << name;
  }
}

// --- config parsing --------------------------------------------------------

TEST(TrafficConfig, ParsesSemicolonGrammarWithNestedCurve) {
  const traffic::TrafficConfig config = traffic::parse_traffic_config(
      "mix=ycsb-e;dist=uniform;keys=2048;accounts=64;clients=8;seed=9;"
      "curve=flash:base=100,spike=900,seconds=6;slo_ms=2.5;index=btree");
  EXPECT_EQ(config.mix, "ycsb-e");
  EXPECT_EQ(config.dist, "uniform");
  EXPECT_EQ(config.keys, 2048u);
  EXPECT_EQ(config.accounts, 64u);
  EXPECT_EQ(config.clients, 8u);
  EXPECT_EQ(config.seed, 9u);
  EXPECT_EQ(config.curve, "flash:base=100,spike=900,seconds=6");
  EXPECT_EQ(config.slo_us, 2500u);
  EXPECT_EQ(config.index, "btree");
}

TEST(TrafficConfig, RejectsUnknownKeysAndBadValues) {
  EXPECT_THROW(traffic::parse_traffic_config("bogus=1"),
               std::invalid_argument);
  EXPECT_THROW(traffic::parse_traffic_config("keys=abc"),
               std::invalid_argument);
  EXPECT_THROW(traffic::parse_traffic_config("justakey"),
               std::invalid_argument);
}

// --- arrival schedules -----------------------------------------------------

traffic::TrafficConfig small_config() {
  traffic::TrafficConfig config;
  config.mix = "ycsb-a";
  config.keys = 1024;
  config.accounts = 32;
  config.clients = 8;
  config.seed = 11;
  config.curve = "constant:rate=500,seconds=2";
  return config;
}

TEST(Arrival, DeterministicPerSeedAndSensitiveToIt) {
  const traffic::TrafficConfig config = small_config();
  const traffic::Schedule a = traffic::build_schedule(config);
  const traffic::Schedule b = traffic::build_schedule(config);
  ASSERT_EQ(a.requests.size(), b.requests.size());
  for (std::size_t i = 0; i < a.requests.size(); ++i) {
    EXPECT_EQ(a.requests[i].arrival_ns(), b.requests[i].arrival_ns());
    EXPECT_EQ(a.requests[i].client(), b.requests[i].client());
    EXPECT_EQ(a.requests[i].seq(), b.requests[i].seq());
    EXPECT_EQ(a.requests[i].op(), b.requests[i].op());
    EXPECT_EQ(a.requests[i].key(), b.requests[i].key());
  }

  traffic::TrafficConfig other = config;
  other.seed = 12;
  const traffic::Schedule c = traffic::build_schedule(other);
  bool differs = c.requests.size() != a.requests.size();
  for (std::size_t i = 0; !differs && i < a.requests.size(); ++i) {
    differs = a.requests[i].arrival_ns() != c.requests[i].arrival_ns();
  }
  EXPECT_TRUE(differs);
}

TEST(Arrival, SchedulesAreOrderedSequencedAndRateAccurate) {
  const traffic::TrafficConfig config = small_config();
  const traffic::Schedule schedule = traffic::build_schedule(config);
  // Poisson count at rate 500 over 2 s: mean 1000, sd ~32. ±20% is > 6 sd.
  EXPECT_GT(schedule.requests.size(), 800u);
  EXPECT_LT(schedule.requests.size(), 1200u);

  std::vector<std::uint32_t> next_seq(config.clients, 1);
  std::uint64_t last_arrival = 0;
  for (const traffic::Request& req : schedule.requests) {
    EXPECT_GE(req.arrival_ns(), last_arrival);
    last_arrival = req.arrival_ns();
    ASSERT_LT(req.client(), config.clients);
    // Per-client sequence numbers are dense from 1 — the property the
    // checksum verifier leans on.
    EXPECT_EQ(req.seq(), next_seq[req.client()]++);
  }
}

TEST(Arrival, PhaseIndicesFollowTheCurve) {
  traffic::TrafficConfig config = small_config();
  config.curve = "phases:warm=200@1,burst=800@1";
  const traffic::Schedule schedule = traffic::build_schedule(config);
  std::uint64_t in_warm = 0;
  std::uint64_t in_burst = 0;
  for (const traffic::Request& req : schedule.requests) {
    if (req.phase() == 0) {
      ++in_warm;
      EXPECT_LT(req.arrival_ns(), 1'000'000'000u);
    } else {
      ASSERT_EQ(req.phase(), 1u);
      ++in_burst;
      EXPECT_GE(req.arrival_ns(), 1'000'000'000u);
    }
  }
  // Burst offers 4× the warm rate.
  EXPECT_GT(in_burst, 2 * in_warm);
}

TEST(Arrival, RequestIsTwentyFourBytesOrLess) {
  // The schedule is the open-loop run's largest allocation; the header's
  // static_assert holds the same line.
  EXPECT_LE(sizeof(traffic::Request), 24u);
}

// FNV-1a over every field a request carries, in the units the service uses
// (namespaced keys, scan lengths as aux).
std::uint64_t stream_digest(const traffic::Schedule& schedule) {
  std::uint64_t hash = 1469598103934665603ULL;
  const auto mix = [&hash](std::uint64_t value) {
    hash = (hash ^ value) * 1099511628211ULL;
  };
  for (const traffic::Request& req : schedule.requests) {
    const std::uint64_t scan_len = schedule.scan_len(req.op());
    mix(req.arrival_ns());
    mix(req.client());
    mix(req.seq());
    mix(static_cast<std::uint64_t>(req.op()));
    mix(static_cast<std::uint64_t>(req.key()));
    mix(static_cast<std::uint64_t>(req.key2()));
    mix(scan_len != 0 ? scan_len : static_cast<std::uint64_t>(req.aux()));
    mix(req.phase());
  }
  return hash;
}

TEST(Arrival, StreamMatchesTheHistoricalDigest) {
  // The expected digests and counts come from the 48-byte request layout
  // the packed one replaced: the same config must keep replaying the same
  // traffic, draw for draw. The curves cover a zero-rate phase and a ramp.
  traffic::TrafficConfig tpcc;
  tpcc.mix = "tpcc-lite";
  tpcc.keys = 2048;
  tpcc.accounts = 64;
  tpcc.clients = 16;
  tpcc.seed = 5;
  tpcc.curve = "phases:warm=2000@0.5,burst=8000@0.5,cool=0@0.25,tail=1000@0.25";
  const traffic::Schedule a = traffic::build_schedule(tpcc);
  EXPECT_EQ(a.requests.size(), 5141u);
  EXPECT_EQ(a.order_rows, 2146u);
  EXPECT_EQ(stream_digest(a), 0xf8b31b308f899e1bULL);

  traffic::TrafficConfig scans;
  scans.mix = "ycsb-e";
  scans.dist = "uniform";
  scans.keys = 4096;
  scans.accounts = 32;
  scans.clients = 8;
  scans.scan_len = 24;
  scans.seed = 7;
  scans.curve = "ramp:from=500,to=5000,seconds=1";
  const traffic::Schedule b = traffic::build_schedule(scans);
  EXPECT_EQ(b.requests.size(), 2702u);
  EXPECT_EQ(b.insert_keys, 149u);
  EXPECT_EQ(stream_digest(b), 0x6abf408e8b255d2bULL);
}

TEST(Arrival, LadderBuildsInOneAllocation) {
  // A rising ladder like kv-open's: reserving for the first phase's rate
  // alone would regrow the vector at every doubling.
  traffic::TrafficConfig config = small_config();
  config.mix = "tpcc-lite";
  config.curve = "phases:warmup=20000@0.05";
  for (const int krps : {100, 200, 300, 400, 450, 500, 550, 600, 1000}) {
    config.curve += "," + std::to_string(krps) + "k=" +
                    std::to_string(krps * 1000) + "@0.01";
  }
  const traffic::Schedule schedule = traffic::build_schedule(config);
  EXPECT_GT(schedule.requests.size(), 30000u);
  EXPECT_EQ(schedule.requests.capacity(),
            traffic::schedule_reserve(schedule.curve));
}

TEST(Arrival, RejectsConfigsThePackedLayoutCannotHold) {
  const auto rejects = [](const traffic::TrafficConfig& config) {
    EXPECT_THROW(traffic::build_schedule(config), std::invalid_argument)
        << config.mix << " " << config.curve;
  };
  traffic::TrafficConfig config = small_config();
  config.clients = traffic::kMaxClients;
  EXPECT_NO_THROW(traffic::build_schedule(config));
  config.clients = traffic::kMaxClients + 1;
  rejects(config);

  config = small_config();
  config.keys = traffic::kMaxRelativeKey + 1;
  rejects(config);

  config = small_config();
  config.accounts = traffic::kMaxRelativeKey + 1;
  rejects(config);

  // Insert keys start at `keys` and pass 2^32 a few requests in.
  config = small_config();
  config.mix = "ycsb-e";
  config.dist = "uniform";
  config.keys = traffic::kMaxRelativeKey - 4;
  rejects(config);

  // 2^32 order rows take 2^32 requests: refused before any is drawn.
  config = small_config();
  config.mix = "tpcc-lite";
  config.curve = "constant:rate=5e9,seconds=1";
  rejects(config);

  config = small_config();
  config.curve = "constant:rate=1,seconds=300000";  // past 2^48 ns
  rejects(config);

  config = small_config();
  config.curve = "phases:p0=1@1";
  for (std::uint64_t i = 1; i < traffic::kMaxPhases + 1; ++i) {
    config.curve += ",p" + std::to_string(i) + "=1@1";
  }
  rejects(config);
}

TEST(Arrival, RejectsUndersizedConfigs) {
  traffic::TrafficConfig config = small_config();
  config.accounts = 4;  // payment needs disjoint customer/warehouse pools
  EXPECT_THROW(traffic::build_schedule(config), std::invalid_argument);
  config = small_config();
  config.clients = 0;
  EXPECT_THROW(traffic::build_schedule(config), std::invalid_argument);
  config = small_config();
  config.mix = "nope";
  EXPECT_THROW(traffic::build_schedule(config), std::invalid_argument);
  config = small_config();
  config.index = "lsm";  // only hash and btree back the order table
  EXPECT_THROW(traffic::build_schedule(config), std::invalid_argument);
}

// --- end-to-end on the malleable runtime ------------------------------------

struct RunOutcome {
  bool completed = false;
  bool verified = false;
  std::string error;
  traffic::TrafficSummary summary;
};

RunOutcome run_workload(traffic::KvTrafficWorkload& workload,
                        stm::Runtime& rt, int level,
                        milliseconds timeout = milliseconds(30000)) {
  control::FixedController controller(control::LevelBounds{1, 8}, level,
                                      "Fixed");
  runtime::ProcessConfig config;
  config.pool.pool_size = 8;
  config.monitor.period = milliseconds(10);
  config.monitor.stm_runtime = &rt;
  config.monitor.record_trace = false;
  runtime::TunedProcess process(rt, workload, controller, config);
  RunOutcome outcome;
  process.run_to_completion(timeout, &outcome.completed);
  outcome.verified = workload.verify(&outcome.error);
  outcome.summary = workload.summary();
  return outcome;
}

TEST(KvService, DrainsScheduleAndVerifies) {
  stm::Runtime rt;
  traffic::KvTrafficWorkload workload(
      rt, traffic::build_schedule(small_config()));
  const RunOutcome outcome = run_workload(workload, rt, 4);
  ASSERT_TRUE(outcome.completed);
  EXPECT_TRUE(outcome.verified) << outcome.error;
  EXPECT_TRUE(workload.done());
  EXPECT_EQ(outcome.summary.executed, outcome.summary.scheduled);
  std::uint64_t phase_total = 0;
  for (const traffic::PhaseSummary& phase : outcome.summary.phases) {
    phase_total += phase.completed;
    EXPECT_EQ(phase.completed, phase.scheduled);
  }
  EXPECT_EQ(phase_total, outcome.summary.scheduled);
  EXPECT_GT(outcome.summary.overall.p50_us, 0.0);
  EXPECT_GE(outcome.summary.overall.p999_us, outcome.summary.overall.p99_us);
  EXPECT_GE(outcome.summary.overall.p99_us, outcome.summary.overall.p50_us);
}

TEST(KvService, TpccLiteMixDrainsAndVerifies) {
  traffic::TrafficConfig config = small_config();
  config.mix = "tpcc-lite";
  stm::Runtime rt;
  traffic::KvTrafficWorkload workload(rt, traffic::build_schedule(config));
  const RunOutcome outcome = run_workload(workload, rt, 4);
  ASSERT_TRUE(outcome.completed);
  EXPECT_TRUE(outcome.verified) << outcome.error;
}

TEST(KvService, BTreeOrderIndexDrainsScansAndVerifies) {
  traffic::TrafficConfig config = small_config();
  config.mix = "tpcc-lite";
  config.index = "btree";
  stm::Runtime rt;
  traffic::KvTrafficWorkload workload(rt, traffic::build_schedule(config));
  ASSERT_TRUE(workload.order_index_is_btree());
  const RunOutcome outcome = run_workload(workload, rt, 4);
  ASSERT_TRUE(outcome.completed);
  EXPECT_TRUE(outcome.verified) << outcome.error;
  // Every scheduled new_order landed exactly one row in the B+-tree, all
  // of them inside the order-key namespace and in insertion (= key) order.
  EXPECT_EQ(static_cast<std::uint64_t>(workload.orders().unsafe_size()),
            workload.schedule().order_rows);
  std::int64_t last_key = traffic::kOrderBase - 1;
  workload.orders().unsafe_for_each([&](std::int64_t key, std::int64_t) {
    EXPECT_GT(key, last_key);
    EXPECT_LT(key, traffic::kDistrictBase);
    last_key = key;
  });
}

TEST(KvService, DueByMatchesUpperBoundForAnyQueryOrder) {
  traffic::TrafficConfig config = small_config();
  config.curve = "constant:rate=20000,seconds=0.5";
  const traffic::Schedule schedule = traffic::build_schedule(config);
  std::vector<std::uint64_t> arrivals;
  for (const traffic::Request& req : schedule.requests) {
    arrivals.push_back(req.arrival_ns());
  }
  ASSERT_GT(arrivals.size(), 5000u);
  const auto expected = [&arrivals](std::uint64_t elapsed) {
    return static_cast<std::uint64_t>(
        std::upper_bound(arrivals.begin(), arrivals.end(), elapsed) -
        arrivals.begin());
  };
  const std::uint64_t end = arrivals.back();

  // due_by's hint only moves forward, so each query order starts on a
  // fresh service.
  stm::Runtime rt;
  const auto check = [&](const std::vector<std::uint64_t>& queries) {
    traffic::KvTrafficWorkload workload(rt, schedule);
    for (const std::uint64_t elapsed : queries) {
      ASSERT_EQ(workload.due_by(elapsed), expected(elapsed)) << elapsed;
    }
  };
  // Every arrival exactly, twice, in order: a worker's clock reaching
  // each request.
  std::vector<std::uint64_t> exact;
  for (const std::uint64_t at : arrivals) exact.insert(exact.end(), 2, at);
  check(exact);
  // Forward and repeated, then backward from past the end.
  std::vector<std::uint64_t> sweep;
  for (std::uint64_t t = 0; t <= end + 10'000; t += 7'919) {
    sweep.insert(sweep.end(), 2, t);
  }
  for (std::uint64_t t = end + 1'000; t > 20'000; t -= 20'011) {
    sweep.push_back(t);
  }
  check(sweep);
  // Edges, then random jumps either way onto arrivals and their
  // neighbours.
  std::vector<std::uint64_t> jumps = {0, end + 1'000'000'000, 0, end, 1};
  util::Xoshiro256 rng(5);
  for (int i = 0; i < 4000; ++i) {
    const std::uint64_t at = arrivals[rng.below(arrivals.size())];
    jumps.push_back(at - rng.below(2));
    jumps.push_back(at + rng.below(2));
    jumps.push_back(rng.below(end + 1'000));
  }
  check(jumps);

  // Three clocks at once, each walking the run with jitter either way:
  // the shared hint races, the answers must not.
  traffic::KvTrafficWorkload workload(rt, schedule);
  std::atomic<int> mismatches{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 3; ++t) {
    threads.emplace_back([&, t] {
      util::Xoshiro256 local(100 + t);
      for (std::uint64_t clock = 0; clock < end + 100'000;
           clock += local.below(60'000)) {
        const std::uint64_t jitter = std::min(clock, local.below(80'000));
        const std::uint64_t elapsed = clock - jitter;
        if (workload.due_by(elapsed) != expected(elapsed)) ++mismatches;
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(mismatches.load(), 0);
}

TEST(KvService, VerifyCatchesOrderBtreeTampering) {
  traffic::TrafficConfig config = small_config();
  config.mix = "tpcc-lite";
  config.index = "btree";
  config.curve = "constant:rate=400,seconds=1";
  stm::Runtime rt;
  traffic::KvTrafficWorkload workload(rt, traffic::build_schedule(config));
  const RunOutcome outcome = run_workload(workload, rt, 4);
  ASSERT_TRUE(outcome.completed);
  ASSERT_TRUE(outcome.verified) << outcome.error;

  // A phantom order with no new_order behind it must trip the row count.
  stm::TxnDesc& ctx = rt.register_thread();
  stm::atomically(ctx, [&](stm::Txn& tx) {
    workload.orders().insert(
        tx, traffic::kOrderBase + (std::int64_t{1} << 30), 0);
  });
  std::string error;
  EXPECT_FALSE(workload.verify(&error));
  EXPECT_NE(error.find("order rows"), std::string::npos) << error;
}

TEST(KvService, VerifyCatchesZeroSumTampering) {
  traffic::TrafficConfig config = small_config();
  config.curve = "constant:rate=400,seconds=1";
  stm::Runtime rt;
  traffic::KvTrafficWorkload workload(rt, traffic::build_schedule(config));
  const RunOutcome outcome = run_workload(workload, rt, 4);
  ASSERT_TRUE(outcome.completed);
  ASSERT_TRUE(outcome.verified) << outcome.error;

  // A rogue credit with no matching debit — the classic lost-effect shape.
  stm::TxnDesc& ctx = rt.register_thread();
  stm::atomically(ctx, [&](stm::Txn& tx) {
    const std::int64_t account = traffic::kAccountBase;
    workload.map().put(tx, account,
                       workload.map().get(tx, account).value_or(0) + 100);
  });
  std::string error;
  EXPECT_FALSE(workload.verify(&error));
  EXPECT_NE(error.find("zero-sum"), std::string::npos) << error;
}

TEST(KvService, VerifyCatchesDuplicatedEffects) {
  traffic::TrafficConfig config = small_config();
  config.curve = "constant:rate=400,seconds=1";
  stm::Runtime rt;
  traffic::KvTrafficWorkload workload(rt, traffic::build_schedule(config));
  const RunOutcome outcome = run_workload(workload, rt, 4);
  ASSERT_TRUE(outcome.completed);
  ASSERT_TRUE(outcome.verified) << outcome.error;

  // Replaying a request would bump its client's applied count a second
  // time; simulate just that and expect the count check to fire.
  stm::TxnDesc& ctx = rt.register_thread();
  stm::atomically(ctx, [&](stm::Txn& tx) {
    const std::int64_t count_key = traffic::kClientBase;  // client 0
    workload.map().put(tx, count_key,
                       workload.map().get(tx, count_key).value_or(0) + 1);
  });
  std::string error;
  EXPECT_FALSE(workload.verify(&error));
  EXPECT_NE(error.find("applied count"), std::string::npos) << error;
}

// --- open-loop semantics under chaos ---------------------------------------

TEST_F(TrafficChaosTest, BacklogGrowsWhenServerStalled) {
  traffic::TrafficConfig config = small_config();
  config.curve = "constant:rate=400,seconds=1";

  // Healthy run: one worker keeps up with sub-millisecond requests.
  std::uint64_t healthy_backlog = 0;
  {
    stm::Runtime rt;
    traffic::KvTrafficWorkload workload(rt, traffic::build_schedule(config));
    const RunOutcome outcome = run_workload(workload, rt, 1);
    ASSERT_TRUE(outcome.completed);
    healthy_backlog = outcome.summary.overall.max_backlog;
  }

  // Stalled run: every request eats a 5 ms injected stall, so one worker
  // serves ~200/s against 400/s offered — the open-loop generator must
  // pile up a backlog instead of slowing down.
  auto plan = fault::Plan::parse("seed=3;traffic_stall:us=5000,every=1");
  fault::arm(*plan);
  stm::Runtime rt;
  traffic::KvTrafficWorkload workload(rt, traffic::build_schedule(config));
  const RunOutcome outcome =
      run_workload(workload, rt, 1, milliseconds(60000));
  fault::disarm();
  ASSERT_TRUE(outcome.completed);
  EXPECT_TRUE(outcome.verified) << outcome.error;
  const std::uint64_t stalled_backlog = outcome.summary.overall.max_backlog;
  EXPECT_GE(stalled_backlog, 50u);
  EXPECT_GT(stalled_backlog, 3 * std::max<std::uint64_t>(healthy_backlog, 1));
  // Latency inflation is the other side of the same coin.
  EXPECT_GT(outcome.summary.overall.p99_us, 5000.0);
}

// --- arrival wait: liveness and request accounting -------------------------
//
// While nothing is due, one worker holds the arrival timer and the others
// block inside run_task. These tests run a 3-worker pool over a low-rate
// schedule with a long idle gap, so every worker is waiting in the service
// when the pool or the driver acts; each bound is in wall time and far
// below the gap.

// Forwards to a KvTrafficWorkload and watches each run_task call:
//  - a call that returns without committing on its caller's context while
//    the schedule still has undispatched requests is a phantom task;
//  - threads are numbered in the order they first call in, which matches
//    pool tids when the level is raised one worker at a time;
//  - hold() keeps every thread but one outside the service until
//    release_held();
//  - wake_waiters() reaches the service only when `forward_release` is set
//    (a wrapper that does not forward it, like perfbench's probe, leaves the
//    watchdog to hand the timer on).
class WatchedKv final : public workloads::Workload {
 public:
  WatchedKv(traffic::KvTrafficWorkload& kv, bool forward_release)
      : kv_(kv), forward_release_(forward_release) {}

  std::string_view name() const override { return kv_.name(); }
  bool verify(std::string* error) override { return kv_.verify(error); }
  bool done() const override { return kv_.done(); }
  void wake_waiters() noexcept override {
    if (forward_release_) kv_.wake_waiters();
  }

  void run_task(stm::TxnDesc& ctx, util::Xoshiro256& rng) override {
    const int me = thread_index(ctx);
    while (me != admitted_.load() && admitted_.load() >= 0) {
      std::this_thread::sleep_for(std::chrono::microseconds(100));
    }
    const std::uint64_t commits_before = ctx.stats().commits.load();
    kv_.run_task(ctx, rng);
    if (ctx.stats().commits.load() == commits_before &&
        kv_.summary().dispatched < kv_.schedule().requests.size()) {
      phantoms_.fetch_add(1);
    }
  }

  int threads_seen() const { return seen_.load(); }
  std::uint64_t phantoms() const { return phantoms_.load(); }
  void hold(int admitted) { admitted_.store(admitted); }
  void release_held() { admitted_.store(-1); }

 private:
  int thread_index(stm::TxnDesc& ctx) {
    std::lock_guard<std::mutex> lock(mu_);
    const auto it = std::find(ctxs_.begin(), ctxs_.end(), &ctx);
    if (it != ctxs_.end()) return static_cast<int>(it - ctxs_.begin());
    ctxs_.push_back(&ctx);
    seen_.store(static_cast<int>(ctxs_.size()));
    return static_cast<int>(ctxs_.size()) - 1;
  }

  traffic::KvTrafficWorkload& kv_;
  const bool forward_release_;
  std::mutex mu_;
  std::vector<stm::TxnDesc*> ctxs_;
  std::atomic<int> seen_{0};
  std::atomic<int> admitted_{-1};
  std::atomic<std::uint64_t> phantoms_{0};
};

constexpr int kWaitWorkers = 3;
// Far below the idle gap below, and loose enough for sanitizer builds.
constexpr auto kPrompt = milliseconds(500);

// 2000 requests/s for `busy_s` seconds, then `gap_s` seconds with no
// arrivals, then 2000/s for 0.2 s.
traffic::TrafficConfig gapped_config(double busy_s, double gap_s) {
  traffic::TrafficConfig config = small_config();
  config.curve = "phases:busy=2000@" + std::to_string(busy_s) +
                 ",gap=0@" + std::to_string(gap_s) + ",tail=2000@0.2";
  return config;
}

// Requests that arrive before the tail phase.
std::uint64_t before_tail(const traffic::KvTrafficWorkload& kv) {
  std::uint64_t n = 0;
  for (const traffic::Request& req : kv.schedule().requests) {
    n += req.phase() < 2 ? 1 : 0;
  }
  return n;
}

// Polls `ready` every millisecond; false if `timeout` passes first.
template <typename Ready>
bool wait_for(Ready ready, milliseconds timeout) {
  const auto deadline = std::chrono::steady_clock::now() + timeout;
  while (!ready()) {
    if (std::chrono::steady_clock::now() > deadline) return false;
    std::this_thread::sleep_for(milliseconds(1));
  }
  return true;
}

milliseconds since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration_cast<milliseconds>(
      std::chrono::steady_clock::now() - start);
}

// Waits out the busy phase, then lets every worker settle into the gap's
// wait.
void serve_busy_phase(traffic::KvTrafficWorkload& kv) {
  const std::uint64_t busy = before_tail(kv);
  ASSERT_TRUE(wait_for([&] { return kv.summary().executed >= busy; },
                       milliseconds(20000)));
  std::this_thread::sleep_for(milliseconds(20));
}

TEST(KvArrivalWait, HaltReleasesBlockedWaitersPromptly) {
  stm::Runtime rt;
  traffic::KvTrafficWorkload kv(
      rt, traffic::build_schedule(gapped_config(0.2, 30)));
  runtime::MalleablePool pool(rt, kv, {kWaitWorkers, kWaitWorkers, 7});
  serve_busy_phase(kv);
  const auto start = std::chrono::steady_clock::now();
  kv.halt();
  EXPECT_TRUE(wait_for([&] { return kv.done(); }, kPrompt))
      << "the halted tail took " << since(start).count() << " ms";
  pool.stop();
  std::string error;
  EXPECT_TRUE(kv.verify(&error)) << error;
  EXPECT_EQ(kv.summary().executed, kv.schedule().requests.size());
}

TEST(KvArrivalWait, PoolStopReturnsPromptly) {
  stm::Runtime rt;
  traffic::KvTrafficWorkload kv(
      rt, traffic::build_schedule(gapped_config(0.2, 30)));
  runtime::MalleablePool pool(rt, kv, {kWaitWorkers, kWaitWorkers, 7});
  serve_busy_phase(kv);
  const auto start = std::chrono::steady_clock::now();
  pool.stop();
  EXPECT_LT(since(start), kPrompt);
  std::string error;
  EXPECT_TRUE(kv.verify(&error)) << error;
  EXPECT_EQ(kv.summary().executed, before_tail(kv));
}

TEST(KvArrivalWait, RunQuiescedCompletesWhileWorkersWait) {
  stm::Runtime rt;
  traffic::KvTrafficWorkload kv(
      rt, traffic::build_schedule(gapped_config(0.2, 30)));
  runtime::MalleablePool pool(rt, kv, {kWaitWorkers, kWaitWorkers, 7});
  serve_busy_phase(kv);
  for (int round = 0; round < 3; ++round) {
    const auto start = std::chrono::steady_clock::now();
    bool ran = false;
    pool.run_quiesced([&] { ran = true; });
    EXPECT_TRUE(ran);
    EXPECT_LT(since(start), kPrompt) << "round " << round;
  }
  kv.halt();
  EXPECT_TRUE(wait_for([&] { return kv.done(); }, kPrompt));
  pool.stop();
  std::string error;
  EXPECT_TRUE(kv.verify(&error)) << error;
}

// The last worker to call in holds the timer through the gap; dropping the
// level parks it. The worker left must take the timer on and serve the
// whole tail on time, whether the pool's release reaches the service or
// only the follower watchdog does.
TEST(KvArrivalWait, LevelDropThatParksTheTimerHolderStillServes) {
  for (const bool forward_release : {true, false}) {
    SCOPED_TRACE(forward_release ? "release forwarded" : "watchdog only");
    stm::Runtime rt;
    traffic::KvTrafficWorkload kv(
        rt, traffic::build_schedule(gapped_config(0.5, 0.3)));
    WatchedKv watched(kv, forward_release);
    runtime::MalleablePool pool(rt, watched, {kWaitWorkers, 1, 7});
    for (int level = 1; level <= kWaitWorkers; ++level) {
      pool.set_level(level);
      ASSERT_TRUE(wait_for([&] { return watched.threads_seen() >= level; },
                           milliseconds(5000)));
    }
    // Only the highest tid enters the gap, so it takes the timer; the
    // others follow once it waits.
    watched.hold(kWaitWorkers - 1);
    serve_busy_phase(kv);
    watched.release_held();
    std::this_thread::sleep_for(milliseconds(20));
    const std::vector<std::uint64_t> before = pool.per_worker_completed();
    pool.set_level(1);

    ASSERT_TRUE(wait_for([&] { return kv.done(); }, milliseconds(20000)));
    pool.stop();
    std::string error;
    EXPECT_TRUE(kv.verify(&error)) << error;
    const traffic::TrafficSummary summary = kv.summary();
    EXPECT_EQ(summary.executed, summary.scheduled);
    // The tail was served on time: well within the 1 ms SLO, not a gap late.
    EXPECT_LT(summary.phases.back().p99_us, 20'000.0);
    // The parked workers ran at most the request they held when the level
    // dropped (and, forwarded, one released return), so tid 0 served the
    // tail.
    const std::vector<std::uint64_t> after = pool.per_worker_completed();
    for (int tid = 1; tid < kWaitWorkers; ++tid) {
      EXPECT_LE(after[tid] - before[tid], 1u) << "tid " << tid;
    }
  }
}

// No run_task call returns without executing a request while the schedule
// still has requests to dispatch (the pool counts every return as a task),
// and every scheduled request executes exactly once.
TEST(KvArrivalWait, EveryTaskExecutesARequest) {
  for (const char* curve : {"constant:rate=2000,seconds=0.5",
                            "constant:rate=400000,seconds=0.1"}) {
    SCOPED_TRACE(curve);
    traffic::TrafficConfig config = small_config();
    config.curve = curve;
    stm::Runtime rt;
    traffic::KvTrafficWorkload kv(rt, traffic::build_schedule(config));
    WatchedKv watched(kv, /*forward_release=*/true);
    runtime::MalleablePool pool(rt, watched,
                                {kWaitWorkers, kWaitWorkers, 7});
    ASSERT_TRUE(wait_for([&] { return kv.done(); }, milliseconds(60000)));
    pool.stop();
    EXPECT_EQ(watched.phantoms(), 0u);
    const traffic::TrafficSummary summary = kv.summary();
    EXPECT_EQ(summary.executed, summary.scheduled);
    std::string error;
    EXPECT_TRUE(kv.verify(&error)) << error;
  }
}

// --- listing agreement -----------------------------------------------------

TEST(Listing, FormatsSortedDeduplicatedNames) {
  EXPECT_EQ(util::format_name_list({"b", "a", "b", "c"}), "a\nb\nc\n");
  EXPECT_EQ(util::format_name_list({}), "");
}

TEST(Listing, RegistriesRoundTripThroughTheSharedPrinter) {
  // Controllers: every printed name must build through the factory.
  control::PolicyConfig policy_config;
  policy_config.contexts = 4;
  policy_config.allocator = std::make_shared<control::CentralAllocator>(4);
  for (const auto name : control::known_policies()) {
    EXPECT_NO_THROW(control::make_controller(name, policy_config)) << name;
  }
  // Backends: every printed name must parse back to its kind.
  for (const auto kind : stm::known_backends()) {
    const auto parsed = stm::parse_backend(stm::backend_name(kind));
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(*parsed, kind);
  }
  // Mixes: every printed name must resolve in the mix registry.
  // Named: mix_views points into these strings until the last check.
  const std::vector<std::string> mixes = traffic::known_mixes();
  std::vector<std::string_view> mix_views;
  for (const auto& name : mixes) {
    EXPECT_NO_THROW(traffic::mix_by_name(name));
    mix_views.emplace_back(name);
  }
  // And the rendered listing is sorted + newline-terminated.
  const std::string rendered = util::format_name_list(mix_views);
  std::vector<std::string_view> sorted = mix_views;
  std::sort(sorted.begin(), sorted.end());
  std::string expected;
  for (const auto name : sorted) {
    expected += name;
    expected += '\n';
  }
  EXPECT_EQ(rendered, expected);
}

TEST(TrafficReport, VerifyErrorWithControlCharactersRoundTrips) {
  // A multi-line verifier message is escaped, never dropped, and a long
  // one is never truncated: the report stays valid JSON and the error
  // parses back byte for byte.
  std::string long_error = "balance mismatch at";
  for (int key = 0; long_error.size() < 320; ++key) {
    long_error += " key " + std::to_string(key) + "\t(+100)";
  }
  for (const std::string& error :
       {std::string("balance mismatch\nat key 7"), long_error}) {
    traffic::RunResult run;
    run.policy = "fixed:2";
    run.backend = "norec";
    run.verify_error = error;
    const std::string report =
        traffic::format_traffic_report(traffic::TrafficConfig{}, {run});
    const std::string key = "\"verify_error\": ";
    const auto at = report.find(key);
    ASSERT_NE(at, std::string::npos) << report;
    telemetry::jsonutil::Cursor cursor{report, at + key.size()};
    std::string parsed;
    ASSERT_TRUE(cursor.parse_string(&parsed)) << cursor.error;
    EXPECT_EQ(parsed, run.verify_error);
    // The rest of the run line follows the string intact.
    EXPECT_NE(report.find("\"makespan_s\"", cursor.pos), std::string::npos)
        << report;
  }
}

}  // namespace
}  // namespace rubic
