// The closed-loop synchro task: one TMap operation inside stm::atomically.
//
// The structure is filled from the seed through the same public calls. On a
// traced task the body records where the task's time went: one
// "stm.aborted_attempt" span per aborted attempt (body, failed commit,
// rollback and backoff up to the next attempt), one "tds.<op>" span for the
// committed attempt's TMap call, and one "stm.commit" span from the end of
// that body until atomically() returns.
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "probes.hpp"
#include "src/tds/registry.hpp"
#include "src/tds/tmap.hpp"
#include "src/util/rng.hpp"

namespace perfbench {

namespace tds = rubic::tds;

struct SynchroSpec {
  const char* structure = "rbtree";
  std::int64_t key_range = 128;
  std::int64_t initial_size = 64;
  int update_pct = 0;  // half inserts, half removes
  int scan_pct = 0;    // range scans kScanWidth keys wide
  std::uint64_t seed = 1;
};

class SynchroTasks final : public workloads::Workload {
 public:
  static constexpr std::int64_t kScanWidth = 64;

  // Every stored value follows this convention; verify() checks it.
  static constexpr std::int64_t value_of(std::int64_t key) noexcept {
    return key * 2 + 1;
  }

  SynchroTasks(stm::Runtime& rt, const SynchroSpec& spec, Recorder& rec)
      : spec_(spec), rec_(rec) {
    tds::StructureConfig cfg;
    cfg.seed = spec.seed;
    cfg.capacity_hint = static_cast<std::size_t>(spec.initial_size);
    map_ = tds::make_structure(spec.structure, cfg);
    stm::TxnDesc& ctx = rt.register_thread();
    rubic::util::Xoshiro256 rng(spec.seed);
    std::int64_t size = 0;
    while (size < spec.initial_size) {
      const auto key = static_cast<std::int64_t>(
          rng.below(static_cast<std::uint64_t>(spec.key_range)));
      size += stm::atomically(ctx, [&](stm::Txn& tx) {
        return map_->insert(tx, key, value_of(key)) ? 1 : 0;
      });
    }
  }

  std::string_view name() const override { return "synchro"; }

  void run_task(stm::TxnDesc& ctx, rubic::util::Xoshiro256& rng) override {
    WorkerSlot& w = rec_.slot(ctx);
    const auto key = static_cast<std::int64_t>(
        rng.below(static_cast<std::uint64_t>(spec_.key_range)));
    const auto roll = static_cast<int>(rng.below(100));
    Op op = Op::kLookup;
    if (roll < spec_.update_pct) {
      op = (roll & 1) == 0 ? Op::kInsert : Op::kRemove;
    } else if (roll < spec_.update_pct + spec_.scan_pct) {
      op = Op::kScan;
    }

    std::int64_t result = 0;
    if (w.open_task == 0) {
      result = stm::atomically(
          ctx, [&](stm::Txn& tx) { return apply(tx, op, key); });
    } else {
      std::uint64_t attempt_start = 0;
      std::uint64_t body_end = 0;
      result = stm::atomically(ctx, [&](stm::Txn& tx) {
        const std::uint64_t start = now_ns();
        if (attempt_start != 0) {
          w.spans.push_back(
              {w.open_task, "stm.aborted_attempt", attempt_start, start});
        }
        attempt_start = start;
        const std::int64_t out = apply(tx, op, key);
        body_end = now_ns();
        return out;
      });
      const std::uint64_t committed = now_ns();
      w.spans.push_back({w.open_task,
                         kOpSpanNames[static_cast<std::size_t>(op)],
                         attempt_start, body_end});
      w.spans.push_back({w.open_task, "stm.commit", body_end, committed});
    }

    ++w.ops[static_cast<std::size_t>(op)];
    if (op == Op::kScan) {
      w.scan_keys += static_cast<std::uint64_t>(result);
    } else if (op != Op::kLookup) {
      w.size_delta += result;
    }
  }

  // Structure invariants, the value convention, and the size every
  // committed insert and remove adds up to.
  bool verify(std::string* error) override {
    if (!map_->check_invariants(error)) return false;
    bool values_ok = true;
    map_->unsafe_for_each([&](std::int64_t k, std::int64_t v) {
      values_ok = values_ok && v == value_of(k);
    });
    if (!values_ok) {
      if (error != nullptr) *error = "a value breaks the fill convention";
      return false;
    }
    std::int64_t want = spec_.initial_size;
    for (const WorkerSlot& w : rec_.slots()) want += w.size_delta;
    const auto got = static_cast<std::int64_t>(map_->unsafe_size());
    if (got != want) {
      if (error != nullptr) {
        *error = "size " + std::to_string(got) + " != " +
                 std::to_string(want) + " from committed inserts and removes";
      }
      return false;
    }
    return true;
  }

 private:
  // Insert: +1 if added. Remove: -1 if removed. Scan: keys visited.
  std::int64_t apply(stm::Txn& tx, Op op, std::int64_t key) const {
    switch (op) {
      case Op::kInsert:
        return map_->insert(tx, key, value_of(key)) ? 1 : 0;
      case Op::kRemove:
        return map_->remove(tx, key) ? -1 : 0;
      case Op::kScan:
        return static_cast<std::int64_t>(map_->range_scan(
            tx, key, key + kScanWidth, [](std::int64_t, std::int64_t) {}));
      case Op::kLookup:
        break;
    }
    return map_->contains(tx, key) ? 1 : 0;
  }

  const SynchroSpec spec_;
  Recorder& rec_;
  std::unique_ptr<tds::TMap> map_;
};

}  // namespace perfbench
