// Transactional sorted singly-linked list (STAMP list_t style).
//
// The classic TM data structure: a sorted list with a head sentinel.
// Traversals read every link up to the target, so the read set grows with
// the key's position — long transactions, high conflict surface, the
// opposite scaling profile from THashMap. Genome's overlap chains and the
// paper's general "malleable TM application" discussion both assume this
// shape exists in the library.
#pragma once

#include <cstdint>
#include <optional>
#include <string>

#include "src/stm/stm.hpp"
#include "src/tds/tmap.hpp"

namespace rubic::tds {

class TList {
 public:
  TList();
  ~TList();

  TList(const TList&) = delete;
  TList& operator=(const TList&) = delete;

  // --- transactional operations ---

  bool contains(stm::Txn& tx, std::int64_t key) const;
  std::optional<std::int64_t> get(stm::Txn& tx, std::int64_t key) const;
  // Sorted insert; returns false if the key already exists.
  bool insert(stm::Txn& tx, std::int64_t key, std::int64_t value);
  bool erase(stm::Txn& tx, std::int64_t key);
  // Walks the whole list: O(n) transactional reads.
  std::int64_t size(stm::Txn& tx) const;
  // Visits every pair with lo <= key < hi in ascending key order and
  // returns the number visited: one walk to lo, then along the chain, so
  // O(position + k) transactional reads for k visited keys.
  std::size_t range_scan(stm::Txn& tx, std::int64_t lo, std::int64_t hi,
                         const ScanFn& fn) const;

  // --- quiescent helpers ---

  std::size_t unsafe_size() const;
  template <typename Fn>
  void unsafe_for_each(Fn&& fn) const {
    for (const Node* node = head_->next.unsafe_read(); node != nullptr;
         node = node->next.unsafe_read()) {
      fn(node->key.unsafe_read(), node->value.unsafe_read());
    }
  }
  // Strictly ascending keys (which also rules out a cycle).
  bool check_invariants(std::string* error = nullptr) const;

 private:
  struct Node {
    stm::TVar<std::int64_t> key;
    stm::TVar<std::int64_t> value;
    stm::TVar<Node*> next;
  };

  // Returns the last node with key < `key` (possibly the sentinel).
  Node* find_predecessor(stm::Txn& tx, std::int64_t key) const;

  Node* head_;  // sentinel, key irrelevant
};

}  // namespace rubic::tds
