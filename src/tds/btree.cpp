#include "src/tds/btree.hpp"

#include <new>
#include <vector>

namespace rubic::tds {

using stm::Txn;

TBTree::TBTree() {
  auto* root = static_cast<Node*>(::operator new(sizeof(Node)));
  ::new (root) Node{};
  root->leaf = 1;
  root->count.unsafe_write(0);
  root->next.unsafe_write(nullptr);
  root_.unsafe_write(root);
}

TBTree::~TBTree() {
  // Quiescent teardown, iterative to survive deep (adversarial) trees.
  std::vector<Node*> stack;
  stack.push_back(root_.unsafe_read());
  while (!stack.empty()) {
    Node* n = stack.back();
    stack.pop_back();
    if (n->leaf == 0) {
      const auto count = n->count.unsafe_read();
      for (std::int64_t i = 0; i <= count; ++i) {
        stack.push_back(n->kids[i].unsafe_read());
      }
    }
    ::operator delete(n);
  }
}

TBTree::Node* TBTree::make_node(Txn& tx, bool leaf) {
  Node* n = tx.make<Node>();
  n->leaf = leaf ? 1 : 0;
  // Private until linked; fields may be initialized outside the write set.
  n->count.unsafe_write(0);
  n->next.unsafe_write(nullptr);
  return n;
}

int TBTree::child_index(Txn& tx, const Node* n, std::int64_t key,
                        std::int64_t count) {
  // kids[i] covers [keys[i-1], keys[i]); a key equal to a separator lives in
  // the right subtree.
  int i = 0;
  while (i < count && key >= n->keys[i].read(tx)) ++i;
  return i;
}

TBTree::Node* TBTree::descend_to_leaf(Txn& tx, std::int64_t key) const {
  Node* n = root_.read(tx);
  while (n->leaf == 0) {
    const std::int64_t count = n->count.read(tx);
    n = n->kids[child_index(tx, n, key, count)].read(tx);
  }
  return n;
}

bool TBTree::contains(Txn& tx, std::int64_t key) const {
  return get(tx, key).has_value();
}

std::optional<std::int64_t> TBTree::get(Txn& tx, std::int64_t key) const {
  const Node* leaf = descend_to_leaf(tx, key);
  const std::int64_t count = leaf->count.read(tx);
  for (std::int64_t i = 0; i < count; ++i) {
    const std::int64_t k = leaf->keys[i].read(tx);
    if (k == key) return leaf->vals[i].read(tx);
    if (k > key) break;
  }
  return std::nullopt;
}

bool TBTree::insert_rec(Txn& tx, Node* n, std::int64_t key,
                        std::int64_t value, Split* out) {
  const auto count = static_cast<int>(n->count.read(tx));
  if (n->leaf != 0) {
    int pos = 0;
    while (pos < count) {
      const std::int64_t k = n->keys[pos].read(tx);
      if (k == key) return false;
      if (k > key) break;
      ++pos;
    }
    if (count < kMaxKeys) {
      for (int i = count; i > pos; --i) {
        n->keys[i].write(tx, n->keys[i - 1].read(tx));
        n->vals[i].write(tx, n->vals[i - 1].read(tx));
      }
      n->keys[pos].write(tx, key);
      n->vals[pos].write(tx, value);
      n->count.write(tx, count + 1);
      return true;
    }
    // Leaf split: merge the new entry into a scratch array, keep the lower
    // half here, move the upper half to a fresh right sibling.
    std::int64_t ks[kMaxKeys + 1];
    std::int64_t vs[kMaxKeys + 1];
    for (int i = 0, j = 0; i < count; ++i, ++j) {
      if (j == pos) ++j;
      ks[j] = n->keys[i].read(tx);
      vs[j] = n->vals[i].read(tx);
    }
    ks[pos] = key;
    vs[pos] = value;
    constexpr int kTotal = kMaxKeys + 1;
    constexpr int kLeft = kTotal / 2;
    Node* right = make_node(tx, /*leaf=*/true);
    right->count.unsafe_write(kTotal - kLeft);
    for (int i = kLeft; i < kTotal; ++i) {
      right->keys[i - kLeft].unsafe_write(ks[i]);
      right->vals[i - kLeft].unsafe_write(vs[i]);
    }
    right->next.unsafe_write(n->next.read(tx));
    for (int i = 0; i < kLeft; ++i) {
      n->keys[i].write(tx, ks[i]);
      n->vals[i].write(tx, vs[i]);
    }
    n->count.write(tx, kLeft);
    n->next.write(tx, right);
    out->right = right;
    out->sep = ks[kLeft];
    return true;
  }

  const int pos = child_index(tx, n, key, count);
  Node* child = n->kids[pos].read(tx);
  Split cs;
  const bool inserted = insert_rec(tx, child, key, value, &cs);
  if (cs.right == nullptr) return inserted;
  if (count < kMaxKeys) {
    for (int i = count; i > pos; --i) {
      n->keys[i].write(tx, n->keys[i - 1].read(tx));
    }
    for (int i = count + 1; i > pos + 1; --i) {
      n->kids[i].write(tx, n->kids[i - 1].read(tx));
    }
    n->keys[pos].write(tx, cs.sep);
    n->kids[pos + 1].write(tx, cs.right);
    n->count.write(tx, count + 1);
    return inserted;
  }
  // Inner split: the median separator is pushed up, not kept.
  std::int64_t ks[kMaxKeys + 1];
  Node* cd[kFanout + 1];
  for (int i = 0, j = 0; i < count; ++i, ++j) {
    if (j == pos) ++j;
    ks[j] = n->keys[i].read(tx);
  }
  ks[pos] = cs.sep;
  for (int i = 0, j = 0; i <= count; ++i, ++j) {
    if (j == pos + 1) ++j;
    cd[j] = n->kids[i].read(tx);
  }
  cd[pos + 1] = cs.right;
  constexpr int kTotal = kMaxKeys + 1;  // keys in the scratch array
  constexpr int kLeft = kTotal / 2;     // keys kept on the left
  Node* right = make_node(tx, /*leaf=*/false);
  right->count.unsafe_write(kTotal - kLeft - 1);
  for (int i = kLeft + 1; i < kTotal; ++i) {
    right->keys[i - kLeft - 1].unsafe_write(ks[i]);
  }
  for (int i = kLeft + 1; i <= kTotal; ++i) {
    right->kids[i - kLeft - 1].unsafe_write(cd[i]);
  }
  for (int i = 0; i < kLeft; ++i) n->keys[i].write(tx, ks[i]);
  for (int i = 0; i <= kLeft; ++i) n->kids[i].write(tx, cd[i]);
  n->count.write(tx, kLeft);
  out->right = right;
  out->sep = ks[kLeft];
  return inserted;
}

bool TBTree::insert(Txn& tx, std::int64_t key, std::int64_t value) {
  Node* root = root_.read(tx);
  Split s;
  const bool inserted = insert_rec(tx, root, key, value, &s);
  if (s.right != nullptr) {
    Node* nr = make_node(tx, /*leaf=*/false);
    nr->count.unsafe_write(1);
    nr->keys[0].unsafe_write(s.sep);
    nr->kids[0].unsafe_write(root);
    nr->kids[1].unsafe_write(s.right);
    root_.write(tx, nr);
  }
  return inserted;
}

bool TBTree::remove(Txn& tx, std::int64_t key) {
  Node* leaf = descend_to_leaf(tx, key);
  const auto count = static_cast<int>(leaf->count.read(tx));
  int pos = -1;
  for (int i = 0; i < count; ++i) {
    const std::int64_t k = leaf->keys[i].read(tx);
    if (k == key) {
      pos = i;
      break;
    }
    if (k > key) break;
  }
  if (pos < 0) return false;
  for (int i = pos; i < count - 1; ++i) {
    leaf->keys[i].write(tx, leaf->keys[i + 1].read(tx));
    leaf->vals[i].write(tx, leaf->vals[i + 1].read(tx));
  }
  leaf->count.write(tx, count - 1);
  return true;
}

std::size_t TBTree::range_scan(Txn& tx, std::int64_t lo, std::int64_t hi,
                               const ScanFn& fn) const {
  const Node* leaf = descend_to_leaf(tx, lo);
  std::size_t visited = 0;
  while (leaf != nullptr) {
    const std::int64_t count = leaf->count.read(tx);
    for (std::int64_t i = 0; i < count; ++i) {
      const std::int64_t k = leaf->keys[i].read(tx);
      if (k < lo) continue;
      if (k >= hi) return visited;
      fn(k, leaf->vals[i].read(tx));
      ++visited;
    }
    leaf = leaf->next.read(tx);
  }
  return visited;
}

std::int64_t TBTree::size(Txn& tx) const {
  // Down the leftmost spine, then along the leaf chain.
  const Node* n = root_.read(tx);
  while (n->leaf == 0) n = n->kids[0].read(tx);
  std::int64_t total = 0;
  for (; n != nullptr; n = n->next.read(tx)) total += n->count.read(tx);
  return total;
}

std::size_t TBTree::unsafe_size() const {
  std::size_t count = 0;
  unsafe_for_each([&](std::int64_t, std::int64_t) { ++count; });
  return count;
}

void TBTree::unsafe_for_each(const ScanFn& fn) const {
  const Node* n = root_.unsafe_read();
  while (n->leaf == 0) n = n->kids[0].unsafe_read();
  for (; n != nullptr; n = n->next.unsafe_read()) {
    const std::int64_t count = n->count.unsafe_read();
    for (std::int64_t i = 0; i < count; ++i) {
      fn(n->keys[i].unsafe_read(), n->vals[i].unsafe_read());
    }
  }
}

bool TBTree::check_invariants(std::string* error) const {
  auto fail = [&](const std::string& msg) {
    if (error != nullptr) *error = "btree: " + msg;
    return false;
  };
  // Recursive bounded walk: every key within its separator bounds, in-node
  // keys sorted, uniform leaf depth, leaves collected left-to-right.
  std::vector<const Node*> leaves;
  int leaf_depth = -1;
  // Depth-first with an explicit left-to-right ordering for leaf collection.
  std::string msg;
  auto walk = [&](auto&& self, const Node* n, bool has_lo, std::int64_t lo,
                  bool has_hi, std::int64_t hi, int depth) -> bool {
    const auto count = static_cast<int>(n->count.unsafe_read());
    if (count < 0 || count > kMaxKeys) {
      msg = "node count " + std::to_string(count) + " out of range";
      return false;
    }
    std::int64_t prev = 0;
    for (int i = 0; i < count; ++i) {
      const std::int64_t k = n->keys[i].unsafe_read();
      if (i > 0 && prev >= k) {
        msg = "in-node keys not strictly ascending at " + std::to_string(k);
        return false;
      }
      if ((has_lo && k < lo) || (has_hi && k >= hi)) {
        msg = "key " + std::to_string(k) + " outside its separator bounds";
        return false;
      }
      prev = k;
    }
    if (n->leaf != 0) {
      if (leaf_depth < 0) leaf_depth = depth;
      if (depth != leaf_depth) {
        msg = "leaf depth " + std::to_string(depth) + " != " +
              std::to_string(leaf_depth);
        return false;
      }
      leaves.push_back(n);
      return true;
    }
    if (count == 0) {
      msg = "inner node with zero separators";
      return false;
    }
    for (int i = 0; i <= count; ++i) {
      const Node* child = n->kids[i].unsafe_read();
      if (child == nullptr) {
        msg = "null child pointer at slot " + std::to_string(i);
        return false;
      }
      const bool clo = i > 0 || has_lo;
      const std::int64_t vlo = i > 0 ? n->keys[i - 1].unsafe_read() : lo;
      const bool chi = i < count || has_hi;
      const std::int64_t vhi = i < count ? n->keys[i].unsafe_read() : hi;
      if (!self(self, child, clo, vlo, chi, vhi, depth + 1)) return false;
    }
    return true;
  };
  const Node* root = root_.unsafe_read();
  if (!walk(walk, root, false, 0, false, 0, 0)) return fail(msg);
  // Leaf chain must link exactly the in-order leaves.
  const Node* n = root;
  while (n->leaf == 0) n = n->kids[0].unsafe_read();
  std::size_t idx = 0;
  for (; n != nullptr; n = n->next.unsafe_read(), ++idx) {
    if (idx >= leaves.size() || leaves[idx] != n) {
      return fail("leaf chain does not match in-order leaves at index " +
                  std::to_string(idx));
    }
  }
  if (idx != leaves.size()) {
    return fail("leaf chain shorter than in-order leaf count");
  }
  return true;
}

}  // namespace rubic::tds
