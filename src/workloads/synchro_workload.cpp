#include "src/workloads/synchro_workload.hpp"

#include <stdexcept>

#include "src/stm/profiler.hpp"
#include "src/tds/harness.hpp"

namespace rubic::workloads {

namespace {

std::uint16_t op_label(const std::string& structure, const char* op) {
  return stm::profiler::intern_label("tds:" + structure + ":" + op);
}

}  // namespace

SynchroWorkload::SynchroWorkload(stm::Runtime& rt, SynchroParams params)
    : params_(std::move(params)) {
  if (params_.update_pct < 0 || params_.update_pct > 100 ||
      params_.scan_pct < 0 || params_.update_pct + params_.scan_pct > 100) {
    throw std::invalid_argument("synchro: update/scan percentages invalid");
  }
  if (params_.initial_size <= 0) {
    throw std::invalid_argument("synchro: initial_size must be positive");
  }
  if (params_.key_range <= 0) params_.key_range = params_.initial_size * 2;
  name_ = "synchro:" + params_.structure;
  tds::StructureConfig cfg;
  cfg.seed = params_.seed;
  // Size the hash table for the expected population.
  cfg.capacity_hint = static_cast<std::size_t>(params_.initial_size);
  map_ = tds::make_structure(params_.structure, cfg);
  label_lookup_ = op_label(params_.structure, "lookup");
  label_insert_ = op_label(params_.structure, "insert");
  label_remove_ = op_label(params_.structure, "remove");
  label_scan_ = op_label(params_.structure, "scan");
  stm::TxnDesc& ctx = rt.register_thread();
  tds::fill(*map_, ctx, static_cast<std::size_t>(params_.initial_size),
            params_.key_range, params_.seed);
}

void SynchroWorkload::run_task(stm::TxnDesc& ctx, util::Xoshiro256& rng) {
  const auto key = static_cast<std::int64_t>(
      rng.below(static_cast<std::uint64_t>(params_.key_range)));
  const auto roll = static_cast<int>(rng.below(100));
  if (roll < params_.update_pct) {
    if ((roll & 1) == 0) {
      const stm::profiler::ScopedTxnLabel label(label_insert_);
      const bool inserted = stm::atomically(ctx, [&](stm::Txn& tx) {
        return map_->insert(tx, key, tds::fill_value(key));
      });
      if (inserted) committed_.add(ctx, 1);
    } else {
      const stm::profiler::ScopedTxnLabel label(label_remove_);
      const bool removed = stm::atomically(
          ctx, [&](stm::Txn& tx) { return map_->remove(tx, key); });
      if (removed) committed_.add(ctx, -1);
    }
  } else if (roll < params_.update_pct + params_.scan_pct) {
    const stm::profiler::ScopedTxnLabel label(label_scan_);
    stm::atomically(ctx, [&](stm::Txn& tx) {
      (void)map_->range_scan(tx, key, key + kScanWidth,
                             [](std::int64_t, std::int64_t) {});
    });
  } else {
    const stm::profiler::ScopedTxnLabel label(label_lookup_);
    stm::atomically(ctx,
                    [&](stm::Txn& tx) { (void)map_->contains(tx, key); });
  }
}

bool SynchroWorkload::verify(std::string* error) {
  if (!map_->check_invariants(error)) return false;
  // Every surviving value must follow the fill convention — mixed workloads
  // only ever store fill_value(key).
  bool values_ok = true;
  std::int64_t bad_key = 0;
  map_->unsafe_for_each([&](std::int64_t k, std::int64_t v) {
    if (v != tds::fill_value(k)) {
      values_ok = false;
      bad_key = k;
    }
  });
  if (!values_ok) {
    if (error != nullptr) {
      *error = name_ + ": key " + std::to_string(bad_key) +
               " holds a value outside the fill convention";
    }
    return false;
  }
  if (std::string msg;
      !committed_.check(params_.initial_size, map_->unsafe_size(), &msg)) {
    if (error != nullptr) *error = name_ + ": structure " + msg;
    return false;
  }
  return true;
}

}  // namespace rubic::workloads
