// Transactional B+-tree (fixed fan-out, in-node key arrays through the STM).
//
// The natural index shape for the OLTP traffic workload: short trees, wide
// nodes, all leaves chained for range scans. Every in-node slot — key,
// value, child pointer, occupancy count — is its own TVar word, so an
// insert that shifts a node's key array writes a contiguous run of words in
// one orec-stripe neighbourhood while a reader descending through the same
// node reads the count plus a prefix of the keys: exactly the conflict
// granularity contrast (word-based vs node-based) the backend grid is meant
// to exercise (2PLSF's TMBTreeByRef is the by-reference counterpoint).
//
// Deletion is lazy: keys are removed from leaves but nodes are never merged
// or rebalanced, so structure-modifying writes happen only on the insert
// path (splits). Underfull — even empty — leaves are legal and covered by
// check_invariants; separator keys keep bounding their subtrees because
// removal never moves keys across nodes.
#pragma once

#include <cstdint>
#include <optional>
#include <string>

#include "src/tds/tmap.hpp"

namespace rubic::tds {

class TBTree final : public TMap {
 public:
  TBTree();
  ~TBTree() override;

  std::string_view structure() const override { return "btree"; }
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
  // In-node sorted order, separator bounds, uniform leaf depth and
  // leaf-chain order.
  bool check_invariants(std::string* error = nullptr) const override;

  // Maximum children per inner node; kFanout-1 keys per node.
  static constexpr int kFanout = 8;
  static constexpr int kMaxKeys = kFanout - 1;

 private:
  struct Node {
    std::uint32_t leaf = 1;  // immutable after construction
    stm::TVar<std::int64_t> count;          // live keys in this node
    stm::TVar<std::int64_t> keys[kMaxKeys];
    stm::TVar<std::int64_t> vals[kMaxKeys];  // leaf payloads
    stm::TVar<Node*> kids[kFanout];          // inner children
    stm::TVar<Node*> next;                   // leaf chain
  };

  // Split propagated to the parent: `right` is the new sibling, `sep` the
  // smallest key reachable under it (leaf) or the pushed-up median (inner).
  struct Split {
    Node* right = nullptr;
    std::int64_t sep = 0;
  };

  static Node* make_node(stm::Txn& tx, bool leaf);
  // Index of the child covering `key` in inner node `n`.
  static int child_index(stm::Txn& tx, const Node* n, std::int64_t key,
                         std::int64_t count);
  Node* descend_to_leaf(stm::Txn& tx, std::int64_t key) const;
  bool insert_rec(stm::Txn& tx, Node* n, std::int64_t key, std::int64_t value,
                  Split* out);

  stm::TVar<Node*> root_;
};

}  // namespace rubic::tds
