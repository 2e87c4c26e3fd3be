#include "src/workloads/commit_tally.hpp"

#include <memory>

#include "src/util/check.hpp"

namespace rubic::workloads {

CommitTally::~CommitTally() {
  for (auto& block : blocks_) delete block.load(std::memory_order_relaxed);
}

CommitTally::Block* CommitTally::publish_block(std::uint32_t ctx_id) {
  const std::size_t b = ctx_id / kSlotsPerBlock;
  RUBIC_CHECK_MSG(b < kBlocks, "commit tally: too many transaction contexts");
  auto fresh = std::make_unique<Block>();
  Block* expected = nullptr;
  // Another context of the same block may have installed it meanwhile.
  if (!blocks_[b].compare_exchange_strong(expected, fresh.get(),
                                          std::memory_order_acq_rel,
                                          std::memory_order_acquire)) {
    return expected;
  }
  return fresh.release();
}

std::int64_t CommitTally::total() const {
  std::int64_t sum = 0;
  for (const auto& block : blocks_) {
    const Block* b = block.load(std::memory_order_acquire);
    if (b == nullptr) continue;
    for (const auto& slot : b->slots) {
      sum += slot.value.load(std::memory_order_relaxed);
    }
  }
  return sum;
}

bool CommitTally::check(std::int64_t initial, std::size_t present,
                        std::string* error) const {
  const std::int64_t want = initial + total();
  if (static_cast<std::int64_t>(present) == want) return true;
  if (error != nullptr) {
    *error = "holds " + std::to_string(present) + " keys but the initial " +
             std::to_string(initial) +
             " plus committed inserts and erases make " + std::to_string(want);
  }
  return false;
}

}  // namespace rubic::workloads
