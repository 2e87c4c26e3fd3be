#include "src/tds/rbtree.hpp"

#include <algorithm>
#include <vector>

#include "src/util/check.hpp"

namespace rubic::tds {

using stm::Txn;

RbTree::RbTree() {
  nil_ = static_cast<Node*>(::operator new(sizeof(Node)));
  ::new (nil_) Node{};
  nil_->key.unsafe_write(0);
  nil_->value.unsafe_write(0);
  nil_->left.unsafe_write(nil_);
  nil_->right.unsafe_write(nil_);
  nil_->parent.unsafe_write(nil_);
  nil_->color.unsafe_write(kBlack);
  root_.unsafe_write(nil_);
}

RbTree::~RbTree() {
  // Quiescent teardown: iterative post-order free without recursion (trees
  // hold 64K+ nodes in the paper's configuration).
  std::vector<Node*> stack;
  Node* root = root_.unsafe_read();
  if (!is_nil(root)) stack.push_back(root);
  while (!stack.empty()) {
    Node* n = stack.back();
    stack.pop_back();
    Node* l = n->left.unsafe_read();
    Node* r = n->right.unsafe_read();
    if (!is_nil(l)) stack.push_back(l);
    if (!is_nil(r)) stack.push_back(r);
    ::operator delete(n);
  }
  ::operator delete(nil_);
}

RbTree::Node* RbTree::find_node(Txn& tx, std::int64_t key) const {
  Node* n = root_.read(tx);
  while (!is_nil(n)) {
    const std::int64_t k = n->key.read(tx);
    if (key == k) return n;
    n = key < k ? n->left.read(tx) : n->right.read(tx);
  }
  return nullptr;
}

bool RbTree::contains(Txn& tx, std::int64_t key) const {
  return find_node(tx, key) != nullptr;
}

std::optional<std::int64_t> RbTree::get(Txn& tx, std::int64_t key) const {
  Node* n = find_node(tx, key);
  if (n == nullptr) return std::nullopt;
  return n->value.read(tx);
}

std::optional<std::int64_t> RbTree::lower_bound_key(Txn& tx,
                                                    std::int64_t key) const {
  Node* n = root_.read(tx);
  std::optional<std::int64_t> best;
  while (!is_nil(n)) {
    const std::int64_t k = n->key.read(tx);
    if (k == key) return k;
    if (k > key) {
      best = k;
      n = n->left.read(tx);
    } else {
      n = n->right.read(tx);
    }
  }
  return best;
}

std::size_t RbTree::range_scan(Txn& tx, std::int64_t lo, std::int64_t hi,
                               const ScanFn& fn) const {
  if (hi <= lo) return 0;
  // The stack holds the pending nodes with key >= lo whose left subtree is
  // done, smallest on top; a frame carries its key so each key is read
  // once. Visiting a node stacks the left spine of its right subtree, which
  // costs about four reads per visited key.
  struct Frame {
    Node* node;
    std::int64_t key;
  };
  Frame stack[kMaxScanDepth];
  std::size_t depth = 0;
  const auto push = [&](Node* n, std::int64_t k) {
    if (depth == kMaxScanDepth) tx.retry();
    stack[depth++] = {n, k};
  };
  // One descent toward lo, stacking every node the path passes on its left.
  for (Node* n = root_.read(tx); !is_nil(n);) {
    const std::int64_t k = n->key.read(tx);
    if (k < lo) {
      n = n->right.read(tx);
      continue;
    }
    push(n, k);
    if (k == lo) break;
    n = n->left.read(tx);
  }
  std::size_t visited = 0;
  std::int64_t last = lo;
  while (depth > 0) {
    const Frame f = stack[--depth];
    if (f.key >= hi) break;
    // Keys strictly ascend in any consistent snapshot; a repeat means a
    // doomed attempt whose walk could otherwise cycle.
    if (visited > 0 && f.key <= last) tx.retry();
    last = f.key;
    fn(f.key, f.node->value.read(tx));
    ++visited;
    for (Node* n = f.node->right.read(tx); !is_nil(n); n = n->left.read(tx)) {
      push(n, n->key.read(tx));
    }
  }
  return visited;
}

std::int64_t RbTree::size(Txn& tx) const {
  Node* stack[kMaxScanDepth];
  std::size_t depth = 0;
  std::int64_t count = 0;
  // In-order walk that reads only the child links.
  Node* n = root_.read(tx);
  while (true) {
    for (; !is_nil(n); n = n->left.read(tx)) {
      if (depth == kMaxScanDepth) tx.retry();
      stack[depth++] = n;
    }
    if (depth == 0) return count;
    ++count;
    n = stack[--depth]->right.read(tx);
  }
}

void RbTree::rotate_left(Txn& tx, Node* x) {
  Node* y = x->right.read(tx);
  Node* yl = y->left.read(tx);
  x->right.write(tx, yl);
  if (!is_nil(yl)) yl->parent.write(tx, x);
  Node* xp = x->parent.read(tx);
  y->parent.write(tx, xp);
  if (is_nil(xp)) {
    root_.write(tx, y);
  } else if (xp->left.read(tx) == x) {
    xp->left.write(tx, y);
  } else {
    xp->right.write(tx, y);
  }
  y->left.write(tx, x);
  x->parent.write(tx, y);
}

void RbTree::rotate_right(Txn& tx, Node* x) {
  Node* y = x->left.read(tx);
  Node* yr = y->right.read(tx);
  x->left.write(tx, yr);
  if (!is_nil(yr)) yr->parent.write(tx, x);
  Node* xp = x->parent.read(tx);
  y->parent.write(tx, xp);
  if (is_nil(xp)) {
    root_.write(tx, y);
  } else if (xp->right.read(tx) == x) {
    xp->right.write(tx, y);
  } else {
    xp->left.write(tx, y);
  }
  y->right.write(tx, x);
  x->parent.write(tx, y);
}

bool RbTree::insert(Txn& tx, std::int64_t key, std::int64_t value) {
  Node* parent = nil_;
  Node* cursor = root_.read(tx);
  while (!is_nil(cursor)) {
    parent = cursor;
    const std::int64_t k = cursor->key.read(tx);
    if (key == k) return false;
    cursor = key < k ? cursor->left.read(tx) : cursor->right.read(tx);
  }
  Node* z = tx.make<Node>();
  // Fresh node: initialize fields non-transactionally; the node becomes
  // visible to peers only through the transactional link below.
  z->key.unsafe_write(key);
  z->value.unsafe_write(value);
  z->left.unsafe_write(nil_);
  z->right.unsafe_write(nil_);
  z->parent.unsafe_write(parent);
  z->color.unsafe_write(kRed);
  if (is_nil(parent)) {
    root_.write(tx, z);
  } else if (key < parent->key.read(tx)) {
    parent->left.write(tx, z);
  } else {
    parent->right.write(tx, z);
  }
  insert_fixup(tx, z);
  return true;
}

bool RbTree::update(Txn& tx, std::int64_t key, std::int64_t value) {
  Node* n = find_node(tx, key);
  if (n == nullptr) return false;
  n->value.write(tx, value);
  return true;
}

void RbTree::insert_fixup(Txn& tx, Node* z) {
  while (true) {
    Node* zp = z->parent.read(tx);
    if (is_nil(zp) || zp->color.read(tx) != kRed) break;
    Node* zpp = zp->parent.read(tx);
    if (zp == zpp->left.read(tx)) {
      Node* uncle = zpp->right.read(tx);
      if (!is_nil(uncle) && uncle->color.read(tx) == kRed) {
        zp->color.write(tx, kBlack);
        uncle->color.write(tx, kBlack);
        zpp->color.write(tx, kRed);
        z = zpp;
      } else {
        if (z == zp->right.read(tx)) {
          z = zp;
          rotate_left(tx, z);
          zp = z->parent.read(tx);
          zpp = zp->parent.read(tx);
        }
        zp->color.write(tx, kBlack);
        zpp->color.write(tx, kRed);
        rotate_right(tx, zpp);
      }
    } else {
      Node* uncle = zpp->left.read(tx);
      if (!is_nil(uncle) && uncle->color.read(tx) == kRed) {
        zp->color.write(tx, kBlack);
        uncle->color.write(tx, kBlack);
        zpp->color.write(tx, kRed);
        z = zpp;
      } else {
        if (z == zp->left.read(tx)) {
          z = zp;
          rotate_right(tx, z);
          zp = z->parent.read(tx);
          zpp = zp->parent.read(tx);
        }
        zp->color.write(tx, kBlack);
        zpp->color.write(tx, kRed);
        rotate_left(tx, zpp);
      }
    }
  }
  Node* root = root_.read(tx);
  if (root->color.read(tx) != kBlack) root->color.write(tx, kBlack);
}

RbTree::Node* RbTree::transplant(Txn& tx, Node* u, Node* v) {
  Node* up = u->parent.read(tx);
  if (is_nil(up)) {
    root_.write(tx, v);
  } else if (u == up->left.read(tx)) {
    up->left.write(tx, v);
  } else {
    up->right.write(tx, v);
  }
  if (!is_nil(v)) v->parent.write(tx, up);
  return up;
}

RbTree::Node* RbTree::minimum(Txn& tx, Node* n) const {
  Node* l = n->left.read(tx);
  while (!is_nil(l)) {
    n = l;
    l = n->left.read(tx);
  }
  return n;
}

bool RbTree::erase(Txn& tx, std::int64_t key) {
  Node* z = find_node(tx, key);
  if (z == nullptr) return false;

  // x takes the place of the node that leaves its position and may be the
  // sentinel, so its parent xp is tracked here rather than stored in x
  // (the x_parent of libstdc++'s _Rb_tree_rebalance_for_erase).
  Node* y = z;
  std::uint64_t y_original_color = y->color.read(tx);
  Node* x;
  Node* xp;
  Node* zl = z->left.read(tx);
  Node* zr = z->right.read(tx);
  if (is_nil(zl) || is_nil(zr)) {
    x = is_nil(zl) ? zr : zl;
    xp = transplant(tx, z, x);
  } else {
    y = minimum(tx, zr);
    y_original_color = y->color.read(tx);
    x = y->right.read(tx);
    if (y == zr) {
      xp = y;
    } else {
      xp = transplant(tx, y, x);
      y->right.write(tx, zr);
      zr->parent.write(tx, y);
    }
    transplant(tx, z, y);
    y->left.write(tx, zl);
    zl->parent.write(tx, y);
    y->color.write(tx, z->color.read(tx));
  }
  if (y_original_color == kBlack) erase_fixup(tx, x, xp);
  tx.free(z);
  return true;
}

void RbTree::erase_fixup(Txn& tx, Node* x, Node* xp) {
  // A rotation at xp or at x's sibling keeps xp as x's parent, so xp moves
  // only when x moves up.
  while (x != root_.read(tx) && x->color.read(tx) == kBlack) {
    if (x == xp->left.read(tx)) {
      Node* w = xp->right.read(tx);
      if (w->color.read(tx) == kRed) {
        w->color.write(tx, kBlack);
        xp->color.write(tx, kRed);
        rotate_left(tx, xp);
        w = xp->right.read(tx);
      }
      if (w->left.read(tx)->color.read(tx) == kBlack &&
          w->right.read(tx)->color.read(tx) == kBlack) {
        w->color.write(tx, kRed);
        x = xp;
        xp = x->parent.read(tx);
      } else {
        if (w->right.read(tx)->color.read(tx) == kBlack) {
          w->left.read(tx)->color.write(tx, kBlack);
          w->color.write(tx, kRed);
          rotate_right(tx, w);
          w = xp->right.read(tx);
        }
        w->color.write(tx, xp->color.read(tx));
        xp->color.write(tx, kBlack);
        w->right.read(tx)->color.write(tx, kBlack);
        rotate_left(tx, xp);
        x = root_.read(tx);
      }
    } else {
      Node* w = xp->left.read(tx);
      if (w->color.read(tx) == kRed) {
        w->color.write(tx, kBlack);
        xp->color.write(tx, kRed);
        rotate_right(tx, xp);
        w = xp->left.read(tx);
      }
      if (w->right.read(tx)->color.read(tx) == kBlack &&
          w->left.read(tx)->color.read(tx) == kBlack) {
        w->color.write(tx, kRed);
        x = xp;
        xp = x->parent.read(tx);
      } else {
        if (w->left.read(tx)->color.read(tx) == kBlack) {
          w->right.read(tx)->color.write(tx, kBlack);
          w->color.write(tx, kRed);
          rotate_left(tx, w);
          w = xp->left.read(tx);
        }
        w->color.write(tx, xp->color.read(tx));
        xp->color.write(tx, kBlack);
        w->left.read(tx)->color.write(tx, kBlack);
        rotate_right(tx, xp);
        x = root_.read(tx);
      }
    }
  }
  if (x->color.read(tx) != kBlack) x->color.write(tx, kBlack);
}

std::size_t RbTree::unsafe_size() const {
  std::size_t count = 0;
  unsafe_for_each([&](std::int64_t, std::int64_t) { ++count; });
  return count;
}

bool RbTree::check_invariants(std::string* error) const {
  auto fail = [&](const std::string& msg) {
    if (error != nullptr) *error = msg;
    return false;
  };
  if (nil_->color.unsafe_read() != kBlack) return fail("sentinel is not black");
  if (nil_->left.unsafe_read() != nil_ || nil_->right.unsafe_read() != nil_ ||
      nil_->parent.unsafe_read() != nil_) {
    return fail("sentinel links were written");
  }
  // An empty tree's root is the (black) sentinel.
  Node* root = root_.unsafe_read();
  if (root->color.unsafe_read() != kBlack) return fail("root is not black");
  if (!is_nil(root) && root->parent.unsafe_read() != nil_) {
    return fail("root's parent is not the sentinel");
  }

  // Iterative DFS computing black heights and verifying order/colors.
  long expected_black_height = -1;
  // Black height is validated by walking to each nil leaf; to avoid
  // exponential revisits we compute it along the DFS path.
  struct PathFrame {
    const Node* node;
    int black_depth;
    std::int64_t lo, hi;
    bool has_lo, has_hi;
  };
  std::vector<PathFrame> dfs{{root, 0, 0, 0, false, false}};
  while (!dfs.empty()) {
    auto [n, bd, lo, hi, has_lo, has_hi] = dfs.back();
    dfs.pop_back();
    if (is_nil(n)) {
      if (expected_black_height < 0) expected_black_height = bd;
      if (bd != expected_black_height) return fail("black heights differ");
      continue;
    }
    const std::int64_t k = n->key.unsafe_read();
    if (has_lo && k <= lo) return fail("BST order violated (low bound)");
    if (has_hi && k >= hi) return fail("BST order violated (high bound)");
    const Node* l = n->left.unsafe_read();
    const Node* r = n->right.unsafe_read();
    if ((!is_nil(l) && l->parent.unsafe_read() != n) ||
        (!is_nil(r) && r->parent.unsafe_read() != n)) {
      return fail("child's parent link does not point back");
    }
    const bool red = n->color.unsafe_read() == kRed;
    if (red && ((!is_nil(l) && l->color.unsafe_read() == kRed) ||
                (!is_nil(r) && r->color.unsafe_read() == kRed))) {
      return fail("red node with red child");
    }
    const int child_bd = bd + (red ? 0 : 1);
    dfs.push_back({l, child_bd, lo, k, has_lo, true});
    dfs.push_back({r, child_bd, k, hi, true, has_hi});
  }
  return true;
}

}  // namespace rubic::tds
