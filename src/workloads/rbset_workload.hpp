// Red-Black-Tree set microbenchmark (paper §4.4 and §4.6).
//
// A tree pre-populated with `initial_size` elements drawn from a key range
// twice that size; each task performs one transaction that is a look-up with
// probability `lookup_pct`, otherwise an insert or a remove (equal split,
// keeping the expected size stable). The paper uses 64K elements / 98%
// look-ups for the scalability runs and a 100% look-up ("conflict-free")
// variant for the convergence experiment of Fig. 10.
#pragma once

#include <cstdint>
#include <memory>

#include "src/tds/rbtree.hpp"
#include "src/workloads/commit_tally.hpp"
#include "src/workloads/workload.hpp"

namespace rubic::workloads {

struct RbSetParams {
  std::int64_t initial_size = 64 * 1024;
  int lookup_pct = 98;        // remaining ops split between insert and erase
  std::uint64_t seed = 0xb07a11ce;

  static RbSetParams paper_default() { return {}; }
  static RbSetParams read_only() {
    RbSetParams p;
    p.lookup_pct = 100;
    return p;
  }
  // Small instance for unit tests.
  static RbSetParams tiny() {
    RbSetParams p;
    p.initial_size = 512;
    p.lookup_pct = 50;
    return p;
  }
};

class RbSetWorkload final : public Workload {
 public:
  // Populates the tree; must run before any worker starts (single-threaded,
  // uses its own registration on `rt`).
  RbSetWorkload(stm::Runtime& rt, RbSetParams params);

  std::string_view name() const override { return "rbset"; }
  void run_task(stm::TxnDesc& ctx, util::Xoshiro256& rng) override;
  // Tree invariants, and a walked size equal to the initial size plus the
  // committed inserts and erases every worker counted.
  bool verify(std::string* error = nullptr) override;

  const tds::RbTree& tree() const noexcept { return tree_; }
  // Updates made through this reference are not counted, so verify() then
  // reports a size mismatch (the tests' lost-update stand-in).
  tds::RbTree& tree() noexcept { return tree_; }
  std::int64_t key_range() const noexcept { return key_range_; }

 private:
  RbSetParams params_;
  std::int64_t key_range_;
  tds::RbTree tree_;
  CommitTally committed_;
};

}  // namespace rubic::workloads
