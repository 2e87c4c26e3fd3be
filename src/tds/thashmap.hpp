// Transactional chained hash map (STAMP hashtable style).
//
// Fixed bucket array (no transactional resize — STAMP sizes its tables for
// the workload, and a resize inside a transaction would conflict with every
// concurrent operation), per-bucket singly-linked chains of heap nodes with
// TVar links. Distinct buckets never conflict, so the map scales until the
// key distribution says otherwise. There is no size word: one would
// serialize every insert/erase (the hot spot TQueue keeps deliberately), so
// size() walks every chain instead.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "src/stm/stm.hpp"
#include "src/util/check.hpp"

namespace rubic::tds {

class THashMap {
 public:
  // `buckets` is rounded up to a power of two.
  explicit THashMap(std::size_t buckets = 1024);
  ~THashMap();

  THashMap(const THashMap&) = delete;
  THashMap& operator=(const THashMap&) = delete;

  // --- transactional operations ---

  std::optional<std::int64_t> get(stm::Txn& tx, std::int64_t key) const;
  bool contains(stm::Txn& tx, std::int64_t key) const;
  // Inserts key→value; returns false (no change) if key exists.
  bool insert(stm::Txn& tx, std::int64_t key, std::int64_t value);
  // Inserts or overwrites; returns true if the key was new.
  bool put(stm::Txn& tx, std::int64_t key, std::int64_t value);
  bool erase(stm::Txn& tx, std::int64_t key);
  // Walks every chain: O(buckets + n) transactional reads.
  std::int64_t size(stm::Txn& tx) const;

  // --- quiescent helpers ---

  std::size_t unsafe_size() const;
  template <typename Fn>
  void unsafe_for_each(Fn&& fn) const {
    for (const auto& bucket : buckets_) {
      for (const Node* node = bucket.head.unsafe_read(); node != nullptr;
           node = node->next.unsafe_read()) {
        fn(node->key.unsafe_read(), node->value.unsafe_read());
      }
    }
  }
  // Every key in its bucket, no chain a cycle.
  bool check_invariants(std::string* error = nullptr) const;
  std::size_t bucket_count() const noexcept { return buckets_.size(); }

 private:
  struct Node {
    stm::TVar<std::int64_t> key;
    stm::TVar<std::int64_t> value;
    stm::TVar<Node*> next;
  };
  struct Bucket {
    stm::TVar<Node*> head;
  };

  std::size_t bucket_index(std::int64_t key) const noexcept {
    const auto h =
        static_cast<std::uint64_t>(key) * 0x9e3779b97f4a7c15ULL;
    return static_cast<std::size_t>(h >> shift_);
  }
  // Finds the node for key, or nullptr; in either case also reports the
  // predecessor's next-link for mutation.
  Node* find_node(stm::Txn& tx, std::int64_t key) const;

  std::vector<Bucket> buckets_;
  int shift_;  // 64 - log2(buckets)
};

}  // namespace rubic::tds
