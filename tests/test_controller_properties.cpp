// Property tests over every controller: under arbitrary (fuzzed) throughput
// sequences, levels must stay within bounds, never be NaN-poisoned, and
// honour each policy's step-size contract. Parameterized across policies
// and fuzz seeds.
#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>

#include "src/control/contention.hpp"
#include "src/control/factory.hpp"
#include "src/control/rubic.hpp"
#include "src/util/rng.hpp"

namespace rubic::control {
namespace {

// The policy name is held inline, not in a std::string. gtest prints a
// param that has no operator<< as a dump of its bytes, and gtest_discover_tests
// puts that dump in the ctest test name; a std::string's heap pointer made
// the name change from run to run under address-space randomization.
struct FuzzParam {
  std::array<char, 32> policy{};
  std::uint64_t seed = 0;
};

class ControllerFuzz : public ::testing::TestWithParam<FuzzParam> {};

TEST_P(ControllerFuzz, LevelsAlwaysWithinBoundsUnderArbitraryFeedback) {
  const std::string policy = GetParam().policy.data();
  const std::uint64_t seed = GetParam().seed;
  PolicyConfig config;
  config.contexts = 64;
  config.allocator = std::make_shared<CentralAllocator>(64);
  config.allocator->register_process();
  auto controller = make_controller(policy, config);
  util::Xoshiro256 rng(seed);

  int level = controller->initial_level();
  EXPECT_GE(level, 1);
  EXPECT_LE(level, config.effective_pool());
  for (int round = 0; round < 5000; ++round) {
    // Adversarial feedback: spikes, zeros, plateaus, slow drifts.
    double throughput;
    switch (rng.below(5)) {
      case 0: throughput = 0.0; break;
      case 1: throughput = 1e12 * rng.uniform(); break;
      case 2: throughput = 100.0; break;  // plateau
      case 3: throughput = rng.uniform(); break;
      default: throughput = 1e6 * (1.0 + 0.3 * rng.normal()); break;
    }
    if (throughput < 0) throughput = 0;
    const int next = controller->on_sample(throughput);
    EXPECT_GE(next, 1) << policy << " round " << round;
    EXPECT_LE(next, config.effective_pool()) << policy << " round " << round;
    level = next;
  }
  // reset() must restore a usable state.
  controller->reset();
  EXPECT_GE(controller->on_sample(1.0), 1);
}

TEST_P(ControllerFuzz, ResetMakesRunsReproducible) {
  const std::string policy = GetParam().policy.data();
  const std::uint64_t seed = GetParam().seed;
  PolicyConfig config;
  config.contexts = 64;
  config.allocator = std::make_shared<CentralAllocator>(64);
  config.allocator->register_process();
  auto controller = make_controller(policy, config);

  auto run_once = [&] {
    std::vector<int> levels;
    util::Xoshiro256 rng(seed ^ 0xfeed);
    for (int round = 0; round < 500; ++round) {
      levels.push_back(controller->on_sample(1e6 * rng.uniform()));
    }
    return levels;
  };
  const auto first = run_once();
  controller->reset();
  const auto second = run_once();
  EXPECT_EQ(first, second) << policy << " is stateful across reset()";
}

std::vector<FuzzParam> fuzz_matrix() {
  std::vector<FuzzParam> params;
  for (const char* policy :
       {"rubic", "ebs", "aiad", "f2c2", "aimd", "greedy", "equalshare"}) {
    for (std::uint64_t seed : {1ull, 2ull, 3ull}) {
      FuzzParam param;
      std::strncpy(param.policy.data(), policy, param.policy.size() - 1);
      param.seed = seed;
      params.push_back(param);
    }
  }
  return params;
}

INSTANTIATE_TEST_SUITE_P(
    Matrix, ControllerFuzz, ::testing::ValuesIn(fuzz_matrix()),
    [](const auto& param_info) {
      return std::string(param_info.param.policy.data()) + "_seed" +
             std::to_string(param_info.param.seed);
    });

// RUBIC-specific structural properties under fuzz.

TEST(RubicProperties, StepContractUnderFuzz) {
  RubicController c(LevelBounds{1, 128});
  util::Xoshiro256 rng(99);
  int level = c.initial_level();
  double previous_sample = 0.0;
  for (int round = 0; round < 5000; ++round) {
    const double throughput = 1e6 * rng.uniform();
    const bool improvement = throughput >= previous_sample;
    const auto phase_before = c.growth_phase();
    const auto reduction_before = c.reduction_phase();
    const int next = c.on_sample(throughput);
    if (next < level) {
      // Decreases are exactly −2 (linear) or to ~αL (multiplicative),
      // modulo the level-1 clamp.
      const bool linear_step = next == std::max(1, level - 2);
      const bool md_step =
          next == std::max<int>(1, static_cast<int>(std::llround(
                                       c.params().alpha * level)));
      EXPECT_TRUE(linear_step || md_step)
          << "round " << round << ": " << level << " -> " << next;
    }
    (void)improvement;
    (void)phase_before;
    (void)reduction_before;
    level = next;
    // The controller nulls T_p after reductions, so track our own view
    // only loosely (we cannot observe T_p directly).
    previous_sample = throughput;
  }
  // dt_max is only non-zero while growing.
  EXPECT_GE(c.dt_max(), 0.0);
}

TEST(RubicProperties, LmaxOnlyMovesOnMultiplicativeDecrease) {
  RubicController c(LevelBounds{1, 128});
  util::Xoshiro256 rng(7);
  double l_max = c.l_max();
  for (int round = 0; round < 3000; ++round) {
    const auto reduction_before = c.reduction_phase();
    const int level_before = c.level();
    c.on_sample(1e6 * rng.uniform());
    if (c.l_max() != l_max) {
      EXPECT_EQ(reduction_before,
                RubicController::ReductionPhase::kMultiplicative)
          << "L_max changed outside an armed MD, round " << round;
      EXPECT_DOUBLE_EQ(c.l_max(), level_before)
          << "line 27: L_max records the level where the loss was seen";
      l_max = c.l_max();
    }
  }
}

}  // namespace
}  // namespace rubic::control
