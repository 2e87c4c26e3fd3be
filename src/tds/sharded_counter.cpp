#include "src/tds/sharded_counter.hpp"

#include <algorithm>
#include <bit>

namespace rubic::tds {

ShardedCounter::ShardedCounter(std::size_t shards)
    : shards_(std::bit_ceil(std::max<std::size_t>(shards, 1))),
      shift_(64 - std::countr_zero(shards_.size())) {}

std::int64_t ShardedCounter::sum(stm::Txn& tx) const {
  std::int64_t total = 0;
  for (const auto& shard : shards_) total += shard.value.read(tx);
  return total;
}

std::int64_t ShardedCounter::unsafe_sum() const {
  std::int64_t total = 0;
  for (const auto& shard : shards_) total += shard.value.unsafe_read();
  return total;
}

bool ShardedCounter::check(const std::vector<std::int64_t>& tally,
                           std::string* error) const {
  for (std::size_t i = 0; i < shards_.size(); ++i) {
    const std::int64_t counted = i < tally.size() ? tally[i] : 0;
    const std::int64_t stored = shards_[i].value.unsafe_read();
    if (stored != counted) {
      if (error != nullptr) {
        *error = "size shard " + std::to_string(i) + " holds " +
                 std::to_string(stored) + " but " + std::to_string(counted) +
                 " present keys hash to it";
      }
      return false;
    }
  }
  return true;
}

}  // namespace rubic::tds
