#include "src/tds/tlist.hpp"

namespace rubic::tds {

using stm::Txn;

TList::TList() {
  head_ = static_cast<Node*>(::operator new(sizeof(Node)));
  ::new (head_) Node{};
  head_->key.unsafe_write(INT64_MIN);
  head_->value.unsafe_write(0);
  head_->next.unsafe_write(nullptr);
}

TList::~TList() {
  Node* node = head_;
  while (node != nullptr) {
    Node* next = node->next.unsafe_read();
    ::operator delete(node);
    node = next;
  }
}

TList::Node* TList::find_predecessor(Txn& tx, std::int64_t key) const {
  Node* prev = head_;
  for (Node* node = prev->next.read(tx); node != nullptr;
       node = node->next.read(tx)) {
    if (node->key.read(tx) >= key) break;
    prev = node;
  }
  return prev;
}

bool TList::contains(Txn& tx, std::int64_t key) const {
  Node* prev = find_predecessor(tx, key);
  Node* node = prev->next.read(tx);
  return node != nullptr && node->key.read(tx) == key;
}

std::optional<std::int64_t> TList::get(Txn& tx, std::int64_t key) const {
  Node* prev = find_predecessor(tx, key);
  Node* node = prev->next.read(tx);
  if (node == nullptr || node->key.read(tx) != key) return std::nullopt;
  return node->value.read(tx);
}

bool TList::insert(Txn& tx, std::int64_t key, std::int64_t value) {
  Node* prev = find_predecessor(tx, key);
  Node* next = prev->next.read(tx);
  if (next != nullptr && next->key.read(tx) == key) return false;
  Node* node = tx.make<Node>();
  node->key.unsafe_write(key);
  node->value.unsafe_write(value);
  node->next.unsafe_write(next);
  prev->next.write(tx, node);
  return true;
}

bool TList::erase(Txn& tx, std::int64_t key) {
  Node* prev = find_predecessor(tx, key);
  Node* node = prev->next.read(tx);
  if (node == nullptr || node->key.read(tx) != key) return false;
  prev->next.write(tx, node->next.read(tx));
  tx.free(node);
  return true;
}

std::int64_t TList::size(Txn& tx) const {
  std::int64_t count = 0;
  for (Node* node = head_->next.read(tx); node != nullptr;
       node = node->next.read(tx)) {
    ++count;
  }
  return count;
}

std::size_t TList::range_scan(Txn& tx, std::int64_t lo, std::int64_t hi,
                              const ScanFn& fn) const {
  if (hi <= lo) return 0;
  std::size_t visited = 0;
  for (Node* node = find_predecessor(tx, lo)->next.read(tx); node != nullptr;
       node = node->next.read(tx)) {
    const std::int64_t key = node->key.read(tx);
    if (key >= hi) break;
    fn(key, node->value.read(tx));
    ++visited;
  }
  return visited;
}

std::size_t TList::unsafe_size() const {
  std::size_t count = 0;
  unsafe_for_each([&](std::int64_t, std::int64_t) { ++count; });
  return count;
}

bool TList::check_invariants(std::string* error) const {
  auto fail = [&](const std::string& msg) {
    if (error != nullptr) *error = msg;
    return false;
  };
  std::int64_t last_key = INT64_MIN;
  bool first = true;
  for (const Node* node = head_->next.unsafe_read(); node != nullptr;
       node = node->next.unsafe_read()) {
    const std::int64_t key = node->key.unsafe_read();
    if (!first && key <= last_key) return fail("keys not strictly ascending");
    first = false;
    last_key = key;
  }
  return true;
}

}  // namespace rubic::tds
