// Transactional skiplist (2PLSF TMSkipList shape, STM-mediated accesses).
//
// A sorted multi-level list with per-node TVar next-pointers: level 0 is a
// fully linked sorted list, higher levels are express lanes. Tower heights
// are drawn from a seeded geometric distribution keyed on (seed, key) — the
// same key always gets the same tower, so concurrent inserts never race on
// an RNG and every backend/thread count rebuilds an identical shape, which
// check_invariants exploits.
//
// Conflict footprint: an insert/remove writes the tower-height many
// predecessor links; a lookup reads O(log n) links on its descent.
// Compared to the red-black tree there are no rotations, so writers touch
// a localized column instead of a rebalancing path.
#pragma once

#include <cstdint>
#include <optional>
#include <string>

#include "src/tds/tmap.hpp"

namespace rubic::tds {

class TSkipList final : public TMap {
 public:
  explicit TSkipList(std::uint64_t seed = 0x51a9b0bcULL);
  ~TSkipList() override;

  std::string_view structure() const override { return "skiplist"; }
  bool ordered() const override { return true; }

  bool insert(stm::Txn& tx, std::int64_t key, std::int64_t value) override;
  bool remove(stm::Txn& tx, std::int64_t key) override;
  bool contains(stm::Txn& tx, std::int64_t key) const override;
  std::optional<std::int64_t> get(stm::Txn& tx,
                                  std::int64_t key) const override;
  std::size_t range_scan(stm::Txn& tx, std::int64_t lo, std::int64_t hi,
                         const ScanFn& fn) const override;
  std::int64_t size(stm::Txn& tx) const override;

  std::size_t unsafe_size() const override;
  void unsafe_for_each(const ScanFn& fn) const override;
  // Level-0 strictly ascending; every higher level a sorted subsequence of
  // level 0; tower heights match the seeded draw.
  bool check_invariants(std::string* error = nullptr) const override;

  // Deterministic tower height for `key` in [1, kMaxHeight]; exposed so
  // tests can pin the expected shape.
  int height_for(std::int64_t key) const noexcept;

  static constexpr int kMaxHeight = 20;

 private:
  struct Node {
    stm::TVar<std::int64_t> key;
    stm::TVar<std::int64_t> value;
    std::uint32_t height = 0;  // immutable after construction
    stm::TVar<Node*> next[kMaxHeight];
  };

  // Walks the express lanes down to level 0, recording the last node with
  // key < `key` at every level. Returns preds[0]->next[0] (first node with
  // key >= `key`, possibly null).
  Node* find_preds(stm::Txn& tx, std::int64_t key,
                   Node* preds[kMaxHeight]) const;

  Node* head_;  // sentinel tower of full height, key irrelevant
  std::uint64_t seed_;
};

}  // namespace rubic::tds
