#include "src/tds/thashmap.hpp"

#include <algorithm>
#include <bit>
#include <string>

namespace rubic::tds {

using stm::Txn;

THashMap::THashMap(std::size_t buckets)
    : buckets_(std::bit_ceil(std::max<std::size_t>(buckets, 2))),
      shift_(64 - std::countr_zero(buckets_.size())) {}

THashMap::~THashMap() {
  for (const auto& bucket : buckets_) {
    Node* node = bucket.head.unsafe_read();
    while (node != nullptr) {
      Node* next = node->next.unsafe_read();
      ::operator delete(node);
      node = next;
    }
  }
}

THashMap::Node* THashMap::find_node(Txn& tx, std::int64_t key) const {
  const Bucket& bucket = buckets_[bucket_index(key)];
  for (Node* node = bucket.head.read(tx); node != nullptr;
       node = node->next.read(tx)) {
    if (node->key.read(tx) == key) return node;
  }
  return nullptr;
}

std::optional<std::int64_t> THashMap::get(Txn& tx, std::int64_t key) const {
  Node* node = find_node(tx, key);
  if (node == nullptr) return std::nullopt;
  return node->value.read(tx);
}

bool THashMap::contains(Txn& tx, std::int64_t key) const {
  return find_node(tx, key) != nullptr;
}

bool THashMap::insert(Txn& tx, std::int64_t key, std::int64_t value) {
  if (find_node(tx, key) != nullptr) return false;
  Bucket& bucket = buckets_[bucket_index(key)];
  Node* node = tx.make<Node>();
  node->key.unsafe_write(key);
  node->value.unsafe_write(value);
  node->next.unsafe_write(bucket.head.read(tx));
  bucket.head.write(tx, node);
  return true;
}

bool THashMap::put(Txn& tx, std::int64_t key, std::int64_t value) {
  if (Node* node = find_node(tx, key)) {
    node->value.write(tx, value);
    return false;
  }
  return insert(tx, key, value);
}

bool THashMap::erase(Txn& tx, std::int64_t key) {
  Bucket& bucket = buckets_[bucket_index(key)];
  Node* prev = nullptr;
  for (Node* node = bucket.head.read(tx); node != nullptr;
       node = node->next.read(tx)) {
    if (node->key.read(tx) == key) {
      Node* next = node->next.read(tx);
      if (prev == nullptr) {
        bucket.head.write(tx, next);
      } else {
        prev->next.write(tx, next);
      }
      tx.free(node);
      return true;
    }
    prev = node;
  }
  return false;
}

std::int64_t THashMap::size(Txn& tx) const {
  std::int64_t count = 0;
  for (const auto& bucket : buckets_) {
    for (Node* node = bucket.head.read(tx); node != nullptr;
         node = node->next.read(tx)) {
      ++count;
    }
  }
  return count;
}

std::size_t THashMap::unsafe_size() const {
  std::size_t count = 0;
  unsafe_for_each([&](std::int64_t, std::int64_t) { ++count; });
  return count;
}

bool THashMap::check_invariants(std::string* error) const {
  auto fail = [&](const std::string& msg) {
    if (error != nullptr) *error = msg;
    return false;
  };
  for (std::size_t b = 0; b < buckets_.size(); ++b) {
    // Floyd's tortoise moves one node for every two the walk moves, so on a
    // cycle the walk's next node eventually is the tortoise.
    const Node* tortoise = buckets_[b].head.unsafe_read();
    bool step = false;
    for (const Node* node = tortoise; node != nullptr;
         node = node->next.unsafe_read()) {
      if (bucket_index(node->key.unsafe_read()) != b) {
        return fail("key hashed to a different bucket than it lives in");
      }
      if (step) tortoise = tortoise->next.unsafe_read();
      step = !step;
      if (node->next.unsafe_read() == tortoise) {
        return fail("chain of bucket " + std::to_string(b) + " is a cycle");
      }
    }
  }
  return true;
}

}  // namespace rubic::tds
