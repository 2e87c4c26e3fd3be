#include "src/workloads/rbset_workload.hpp"

#include "src/util/check.hpp"

namespace rubic::workloads {

RbSetWorkload::RbSetWorkload(stm::Runtime& rt, RbSetParams params)
    : params_(params), key_range_(params.initial_size * 2) {
  stm::TxnDesc& ctx = rt.register_thread();
  util::Xoshiro256 rng(params_.seed);
  std::int64_t inserted = 0;
  while (inserted < params_.initial_size) {
    const auto key = static_cast<std::int64_t>(
        rng.below(static_cast<std::uint64_t>(key_range_)));
    inserted += stm::atomically(
        ctx, [&](stm::Txn& tx) { return tree_.insert(tx, key, key * 2) ? 1 : 0; });
  }
}

void RbSetWorkload::run_task(stm::TxnDesc& ctx, util::Xoshiro256& rng) {
  const auto key = static_cast<std::int64_t>(
      rng.below(static_cast<std::uint64_t>(key_range_)));
  const auto roll = static_cast<int>(rng.below(100));
  if (roll < params_.lookup_pct) {
    stm::atomically(ctx, [&](stm::Txn& tx) { (void)tree_.contains(tx, key); });
  } else if ((roll - params_.lookup_pct) % 2 == 0) {
    const bool inserted = stm::atomically(
        ctx, [&](stm::Txn& tx) { return tree_.insert(tx, key, key * 2); });
    if (inserted) committed_.add(ctx, 1);
  } else {
    const bool erased = stm::atomically(
        ctx, [&](stm::Txn& tx) { return tree_.erase(tx, key); });
    if (erased) committed_.add(ctx, -1);
  }
}

bool RbSetWorkload::verify(std::string* error) {
  if (!tree_.check_invariants(error)) return false;
  if (std::string msg;
      !committed_.check(params_.initial_size, tree_.unsafe_size(), &msg)) {
    if (error != nullptr) *error = "rbset: tree " + msg;
    return false;
  }
  return true;
}

}  // namespace rubic::workloads
