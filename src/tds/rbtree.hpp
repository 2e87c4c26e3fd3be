// Transactional red-black tree (CLRS structure, STM-mediated accesses).
//
// This is simultaneously (a) the Red-Black-Tree microbenchmark of the paper
// (§4.4: 64K elements, 98% look-ups; §4.6: 100% read-only variant) and
// (b) the ordered-map substrate under the Vacation workload's relations,
// mirroring how STAMP builds vacation on its own rbtree.
//
// All node fields are TVars, so every traversal/rotation is fully covered by
// the STM's conflict detection; structural deletes reclaim nodes through the
// epoch-based tx_free, which keeps concurrent readers safe.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "src/stm/stm.hpp"
#include "src/tds/tmap.hpp"

namespace rubic::tds {

class RbTree {
 public:
  RbTree();
  ~RbTree();

  RbTree(const RbTree&) = delete;
  RbTree& operator=(const RbTree&) = delete;

  // --- transactional operations ---

  bool contains(stm::Txn& tx, std::int64_t key) const;
  std::optional<std::int64_t> get(stm::Txn& tx, std::int64_t key) const;
  // Inserts key→value; returns false (no change) if the key already exists.
  bool insert(stm::Txn& tx, std::int64_t key, std::int64_t value);
  // Updates an existing key; returns false if absent.
  bool update(stm::Txn& tx, std::int64_t key, std::int64_t value);
  // Removes key; returns false if absent.
  bool erase(stm::Txn& tx, std::int64_t key);
  // Walks the whole tree: O(n) transactional reads.
  std::int64_t size(stm::Txn& tx) const;

  // Smallest key >= key, if any (used by Vacation's resource queries).
  std::optional<std::int64_t> lower_bound_key(stm::Txn& tx,
                                              std::int64_t key) const;
  // Visits every pair with lo <= key < hi in ascending key order and
  // returns the number visited: one descent toward lo, then an in-order
  // walk, so O(log n + k) transactional reads for k visited keys.
  std::size_t range_scan(stm::Txn& tx, std::int64_t lo, std::int64_t hi,
                         const ScanFn& fn) const;

  // --- quiescent helpers (no concurrent transactions may run) ---

  // Walks the whole tree.
  std::size_t unsafe_size() const;
  // In-order visit of (key, value) pairs; quiescent use only.
  template <typename Fn>
  void unsafe_for_each(Fn&& fn) const {
    const Node* n = root_.unsafe_read();
    std::vector<const Node*> stack;
    while (!is_nil(n) || !stack.empty()) {
      while (!is_nil(n)) {
        stack.push_back(n);
        n = n->left.unsafe_read();
      }
      n = stack.back();
      stack.pop_back();
      fn(n->key.unsafe_read(), n->value.unsafe_read());
      n = n->right.unsafe_read();
    }
  }
  // Validates BST order, red-red absence, black-height balance, every
  // child's parent link and the untouched sentinel. On failure writes a
  // diagnostic to `error` (if given) and returns false.
  bool check_invariants(std::string* error = nullptr) const;

 private:
  struct Node {
    stm::TVar<std::int64_t> key;
    stm::TVar<std::int64_t> value;
    stm::TVar<Node*> left;
    stm::TVar<Node*> right;
    stm::TVar<Node*> parent;
    stm::TVar<std::uint64_t> color;  // kRed / kBlack
  };

  static constexpr std::uint64_t kBlack = 0;
  static constexpr std::uint64_t kRed = 1;
  // Frames of the in-order walks of range_scan and size. A valid red-black
  // tree over 64-bit keys is at most 2*log2(n+1) <= 128 nodes tall, and a
  // walk only stacks nodes of one root-to-leaf path, so running out of
  // frames means the transaction read an inconsistent snapshot.
  static constexpr std::size_t kMaxScanDepth = 128;

  Node* find_node(stm::Txn& tx, std::int64_t key) const;
  void rotate_left(stm::Txn& tx, Node* x);
  void rotate_right(stm::Txn& tx, Node* x);
  void insert_fixup(stm::Txn& tx, Node* z);
  // `xp` is x's parent, passed in because x may be the sentinel.
  void erase_fixup(stm::Txn& tx, Node* x, Node* xp);
  // Puts v in u's place and returns u's parent.
  Node* transplant(stm::Txn& tx, Node* u, Node* v);
  Node* minimum(stm::Txn& tx, Node* n) const;

  bool is_nil(const Node* n) const noexcept { return n == nil_; }

  // Shared black sentinel for every leaf and the root's parent. Its links
  // point at itself and none of its fields is written after construction,
  // so updates never conflict on it.
  Node* nil_;
  stm::TVar<Node*> root_;
};

}  // namespace rubic::tds
