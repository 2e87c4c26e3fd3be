// Net size change committed by each transaction context.
//
// The rbset and synchro workloads check after a run that their structure
// holds exactly the initial keys plus every committed insert minus every
// committed erase, so an update the STM loses or applies twice shows up as
// a count mismatch. The structures keep no size word, so the workload
// counts: each context adds the results of its committed transactions to
// its own cache-line slot, keyed by ctx_id(). Only the owning thread writes
// a slot, with a plain load and store: the single-writer discipline of the
// pool's commit counters (paper §3.1), so the task path has no shared
// read-modify-write.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <string>

#include "src/stm/stm.hpp"
#include "src/util/cache_aligned.hpp"

namespace rubic::workloads {

class CommitTally {
 public:
  CommitTally() = default;
  ~CommitTally();

  CommitTally(const CommitTally&) = delete;
  CommitTally& operator=(const CommitTally&) = delete;

  // Adds `delta` to ctx's slot; only ctx's own thread may call this.
  void add(const stm::TxnDesc& ctx, std::int64_t delta) {
    std::atomic<std::int64_t>& slot = slot_of(ctx.ctx_id());
    slot.store(slot.load(std::memory_order_relaxed) + delta,
               std::memory_order_relaxed);
  }

  // --- quiescent helpers (the workers have stopped) ---

  std::int64_t total() const;
  // True if `present` keys are what `initial` plus every committed delta
  // makes; otherwise describes the mismatch in `error` (if given).
  bool check(std::int64_t initial, std::size_t present,
             std::string* error = nullptr) const;

 private:
  // Slots live in blocks allocated on a block's first use, so a runtime
  // may register up to kBlocks * kSlotsPerBlock contexts over its life.
  static constexpr std::size_t kSlotsPerBlock = 64;
  static constexpr std::size_t kBlocks = 64;
  struct Block {
    std::array<util::CacheAligned<std::atomic<std::int64_t>>, kSlotsPerBlock>
        slots{};
  };

  std::atomic<std::int64_t>& slot_of(std::uint32_t ctx_id) {
    Block* block = ctx_id / kSlotsPerBlock < kBlocks
                       ? blocks_[ctx_id / kSlotsPerBlock].load(
                             std::memory_order_acquire)
                       : nullptr;
    if (block == nullptr) block = publish_block(ctx_id);
    return block->slots[ctx_id % kSlotsPerBlock].value;
  }
  // Slow path: the first context of a block installs it.
  Block* publish_block(std::uint32_t ctx_id);

  std::array<std::atomic<Block*>, kBlocks> blocks_{};
};

}  // namespace rubic::workloads
