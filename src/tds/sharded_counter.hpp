// Key-sharded transactional size counter, shared by every TMap structure.
//
// A single size TVar is read and written by every successful insert and
// remove, so under an invisible-read STM any two concurrent updates
// conflict on it even when their keys are far apart. Here the count is
// split into shards, each a TVar on its own cache line (and so its own orec
// stripe), and an update touches only the shard its key hashes to: two
// updates of different keys collide on the counter only when their keys
// share a shard. size() sums every shard inside the transaction, so it
// stays exact and opaque; it just reads more words.
//
// Because a key always maps to the same shard, each shard equals the number
// of present keys that hash to it. check() tests exactly that, which is
// stronger than comparing the total.
//
// TQueue keeps its single counter on purpose: it is the library's
// deliberate hot spot.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "src/stm/stm.hpp"
#include "src/util/cache_aligned.hpp"

namespace rubic::tds {

class ShardedCounter {
 public:
  static constexpr std::size_t kDefaultShards = 16;

  // `shards` is rounded up to a power of two.
  explicit ShardedCounter(std::size_t shards = kDefaultShards);

  ShardedCounter(const ShardedCounter&) = delete;
  ShardedCounter& operator=(const ShardedCounter&) = delete;

  // Adds `delta` to the shard of `key`: one read and one write.
  void add(stm::Txn& tx, std::int64_t key, std::int64_t delta) {
    stm::TVar<std::int64_t>& shard = shards_[shard_of(key)].value;
    shard.write(tx, shard.read(tx) + delta);
  }
  // Exact total: reads every shard.
  std::int64_t sum(stm::Txn& tx) const;

  // Multiplicative hash of the key onto the shards.
  std::size_t shard_of(std::int64_t key) const noexcept {
    const std::uint64_t h =
        static_cast<std::uint64_t>(key) * 0xd1b54a32d192ed03ULL;
    // Two shifts, so that a single shard (shift_ == 64) maps to 0 without
    // an out-of-range shift.
    return static_cast<std::size_t>((h >> 1) >> (shift_ - 1));
  }
  std::size_t shard_count() const noexcept { return shards_.size(); }

  // --- quiescent helpers ---

  std::int64_t unsafe_sum() const;
  // `tally[i]` must hold the number of present keys with shard_of(key) ==
  // i. Returns true if every shard matches; otherwise names the first
  // mismatching shard in `error` (if given).
  bool check(const std::vector<std::int64_t>& tally,
             std::string* error = nullptr) const;

 private:
  std::vector<util::CacheAligned<stm::TVar<std::int64_t>>> shards_;
  int shift_;  // 64 - log2(shards)
};

}  // namespace rubic::tds
