#include "src/tds/skiplist.hpp"

#include <new>

namespace rubic::tds {

using stm::Txn;

namespace {

std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

}  // namespace

TSkipList::TSkipList(std::uint64_t seed) : seed_(seed) {
  head_ = static_cast<Node*>(::operator new(sizeof(Node)));
  ::new (head_) Node{};
  head_->key.unsafe_write(0);
  head_->value.unsafe_write(0);
  head_->height = kMaxHeight;
  for (int lvl = 0; lvl < kMaxHeight; ++lvl) {
    head_->next[lvl].unsafe_write(nullptr);
  }
}

TSkipList::~TSkipList() {
  // Quiescent teardown along level 0 (every node is linked there).
  Node* n = head_;
  while (n != nullptr) {
    Node* next = n->next[0].unsafe_read();
    ::operator delete(n);
    n = next;
  }
}

int TSkipList::height_for(std::int64_t key) const noexcept {
  std::uint64_t u = splitmix64(seed_ ^ static_cast<std::uint64_t>(key));
  int h = 1;
  while ((u & 1u) != 0 && h < kMaxHeight) {
    ++h;
    u >>= 1;
  }
  return h;
}

TSkipList::Node* TSkipList::find_preds(Txn& tx, std::int64_t key,
                                       Node* preds[kMaxHeight]) const {
  Node* x = head_;
  for (int lvl = kMaxHeight - 1; lvl >= 0; --lvl) {
    Node* n = x->next[lvl].read(tx);
    while (n != nullptr && n->key.read(tx) < key) {
      x = n;
      n = x->next[lvl].read(tx);
    }
    preds[lvl] = x;
  }
  return preds[0]->next[0].read(tx);
}

bool TSkipList::contains(Txn& tx, std::int64_t key) const {
  Node* preds[kMaxHeight];
  Node* n = find_preds(tx, key, preds);
  return n != nullptr && n->key.read(tx) == key;
}

std::optional<std::int64_t> TSkipList::get(Txn& tx, std::int64_t key) const {
  Node* preds[kMaxHeight];
  Node* n = find_preds(tx, key, preds);
  if (n == nullptr || n->key.read(tx) != key) return std::nullopt;
  return n->value.read(tx);
}

bool TSkipList::insert(Txn& tx, std::int64_t key, std::int64_t value) {
  Node* preds[kMaxHeight];
  Node* succ = find_preds(tx, key, preds);
  if (succ != nullptr && succ->key.read(tx) == key) return false;
  const int h = height_for(key);
  Node* node = tx.make<Node>();
  node->key.unsafe_write(key);
  node->value.unsafe_write(value);
  node->height = static_cast<std::uint32_t>(h);
  // The node is private until the predecessor links commit, so its own
  // fields can be initialized outside the write set (TQueue idiom).
  for (int lvl = 0; lvl < h; ++lvl) {
    node->next[lvl].unsafe_write(preds[lvl]->next[lvl].read(tx));
  }
  for (int lvl = 0; lvl < h; ++lvl) {
    preds[lvl]->next[lvl].write(tx, node);
  }
  return true;
}

bool TSkipList::remove(Txn& tx, std::int64_t key) {
  Node* preds[kMaxHeight];
  Node* victim = find_preds(tx, key, preds);
  if (victim == nullptr || victim->key.read(tx) != key) return false;
  const int h = static_cast<int>(victim->height);
  for (int lvl = 0; lvl < h; ++lvl) {
    preds[lvl]->next[lvl].write(tx, victim->next[lvl].read(tx));
  }
  tx.free(victim);
  return true;
}

std::size_t TSkipList::range_scan(Txn& tx, std::int64_t lo, std::int64_t hi,
                                  const ScanFn& fn) const {
  Node* preds[kMaxHeight];
  Node* n = find_preds(tx, lo, preds);
  std::size_t visited = 0;
  while (n != nullptr) {
    const std::int64_t k = n->key.read(tx);
    if (k >= hi) break;
    fn(k, n->value.read(tx));
    ++visited;
    n = n->next[0].read(tx);
  }
  return visited;
}

std::int64_t TSkipList::size(Txn& tx) const {
  std::int64_t count = 0;
  for (Node* n = head_->next[0].read(tx); n != nullptr;
       n = n->next[0].read(tx)) {
    ++count;
  }
  return count;
}

std::size_t TSkipList::unsafe_size() const {
  std::size_t count = 0;
  for (const Node* n = head_->next[0].unsafe_read(); n != nullptr;
       n = n->next[0].unsafe_read()) {
    ++count;
  }
  return count;
}

void TSkipList::unsafe_for_each(const ScanFn& fn) const {
  for (const Node* n = head_->next[0].unsafe_read(); n != nullptr;
       n = n->next[0].unsafe_read()) {
    fn(n->key.unsafe_read(), n->value.unsafe_read());
  }
}

bool TSkipList::check_invariants(std::string* error) const {
  auto fail = [&](const std::string& msg) {
    if (error != nullptr) *error = "skiplist: " + msg;
    return false;
  };
  // Level 0: strictly ascending keys, seeded tower heights.
  const Node* prev = nullptr;
  for (const Node* n = head_->next[0].unsafe_read(); n != nullptr;
       n = n->next[0].unsafe_read()) {
    const std::int64_t k = n->key.unsafe_read();
    if (prev != nullptr && prev->key.unsafe_read() >= k) {
      return fail("level-0 keys not strictly ascending at " +
                  std::to_string(k));
    }
    if (n->height == 0 || n->height > kMaxHeight) {
      return fail("node " + std::to_string(k) + " has height " +
                  std::to_string(n->height));
    }
    if (static_cast<int>(n->height) != height_for(k)) {
      return fail("node " + std::to_string(k) +
                  " tower height does not match the seeded draw");
    }
    prev = n;
  }
  // Higher levels: each is a sorted sub-list whose nodes all have
  // sufficient height (and are therefore present at every lower level too).
  for (int lvl = 1; lvl < kMaxHeight; ++lvl) {
    std::int64_t last = 0;
    bool first = true;
    for (const Node* n = head_->next[lvl].unsafe_read(); n != nullptr;
         n = n->next[lvl].unsafe_read()) {
      const std::int64_t k = n->key.unsafe_read();
      if (static_cast<int>(n->height) <= lvl) {
        return fail("node " + std::to_string(k) + " linked above its tower");
      }
      if (!first && last >= k) {
        return fail("level " + std::to_string(lvl) +
                    " keys not strictly ascending at " + std::to_string(k));
      }
      last = k;
      first = false;
    }
  }
  return true;
}

}  // namespace rubic::tds
