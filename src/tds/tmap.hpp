// STM-generic ordered-map interface over TVar-based data structures.
//
// Every transactional container in the library (red-black tree, skiplist,
// B+-tree, hash map, sorted list) is reachable through this one interface so
// the Synchrobench-style driver, the shared stress/serializability suite and
// the fill/verify harness can sweep structure × backend without caring which
// concrete shape is underneath. All operations run inside a caller-provided
// transaction; quiescent helpers may only be used when no transactions are
// in flight.
//
// Keys and values are int64 words — the same TransactionalValue envelope the
// rest of the repo uses — so one TVar access per field keeps the conflict
// granularity of each structure visible to every backend.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <string_view>

#include "src/stm/stm.hpp"

namespace rubic::tds {

// Visitor for range scans and quiescent iteration.
using ScanFn = std::function<void(std::int64_t key, std::int64_t value)>;

class TMap {
 public:
  virtual ~TMap() = default;

  TMap() = default;
  TMap(const TMap&) = delete;
  TMap& operator=(const TMap&) = delete;

  // Registry name of the concrete structure ("rbtree", "skiplist", ...).
  virtual std::string_view structure() const = 0;
  // Ordered structures visit range scans in ascending key order; the hash
  // map degenerates to key-interval probes (see range_scan).
  virtual bool ordered() const = 0;

  // --- transactional operations ---

  // Inserts key→value; returns false (no change) if the key already exists.
  virtual bool insert(stm::Txn& tx, std::int64_t key, std::int64_t value) = 0;
  // Removes key; returns false if absent.
  virtual bool remove(stm::Txn& tx, std::int64_t key) = 0;
  virtual bool contains(stm::Txn& tx, std::int64_t key) const = 0;
  virtual std::optional<std::int64_t> get(stm::Txn& tx,
                                          std::int64_t key) const = 0;
  // Visits every pair with lo <= key < hi; returns the number visited.
  // Ordered structures visit in ascending key order. The (unordered) hash
  // map probes each key in [lo, hi) individually, so callers must keep the
  // interval small — the same contract the traffic stock-scan op uses.
  virtual std::size_t range_scan(stm::Txn& tx, std::int64_t lo,
                                 std::int64_t hi, const ScanFn& fn) const = 0;
  // Exact entry count. No structure keeps a size word, which every insert
  // and remove would have to write, so this walks the whole structure.
  virtual std::int64_t size(stm::Txn& tx) const = 0;

  // --- quiescent helpers (no concurrent transactions may run) ---

  virtual std::size_t unsafe_size() const = 0;
  virtual void unsafe_for_each(const ScanFn& fn) const = 0;
  // Structure-specific shape invariants. On failure writes a diagnostic to
  // `error` (if given) and returns false.
  virtual bool check_invariants(std::string* error = nullptr) const = 0;
};

// Set view over any TMap: membership only, values pinned to the key. This is
// the `TSet` face of the library — the Synchrobench driver and the rbset
// microbenchmark both treat maps this way.
class TSet {
 public:
  explicit TSet(TMap& map) noexcept : map_(&map) {}

  bool add(stm::Txn& tx, std::int64_t key) {
    return map_->insert(tx, key, key);
  }
  bool remove(stm::Txn& tx, std::int64_t key) { return map_->remove(tx, key); }
  bool contains(stm::Txn& tx, std::int64_t key) const {
    return map_->contains(tx, key);
  }
  std::int64_t size(stm::Txn& tx) const { return map_->size(tx); }
  TMap& map() noexcept { return *map_; }

 private:
  TMap* map_;
};

}  // namespace rubic::tds
