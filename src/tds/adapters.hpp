// TMap adapters over the pre-existing transactional containers.
//
// RbTree, THashMap and TList predate the TMap interface and keep their
// native APIs (Vacation, Genome, SSCA2 and the traffic service use them
// directly); these thin owners put them behind the shared interface so the
// Synchrobench driver and the stress suite sweep all five structures with
// one code path.
#pragma once

#include <cstdint>
#include <optional>
#include <string>

#include "src/tds/rbtree.hpp"
#include "src/tds/thashmap.hpp"
#include "src/tds/tlist.hpp"
#include "src/tds/tmap.hpp"

namespace rubic::tds {

class RbTreeMap final : public TMap {
 public:
  RbTreeMap() = default;

  std::string_view structure() const override { return "rbtree"; }
  bool ordered() const override { return true; }

  bool insert(stm::Txn& tx, std::int64_t key, std::int64_t value) override {
    return tree_.insert(tx, key, value);
  }
  bool remove(stm::Txn& tx, std::int64_t key) override {
    return tree_.erase(tx, key);
  }
  bool contains(stm::Txn& tx, std::int64_t key) const override {
    return tree_.contains(tx, key);
  }
  std::optional<std::int64_t> get(stm::Txn& tx,
                                  std::int64_t key) const override {
    return tree_.get(tx, key);
  }
  std::size_t range_scan(stm::Txn& tx, std::int64_t lo, std::int64_t hi,
                         const ScanFn& fn) const override {
    return tree_.range_scan(tx, lo, hi, fn);
  }
  std::int64_t size(stm::Txn& tx) const override { return tree_.size(tx); }

  std::size_t unsafe_size() const override { return tree_.unsafe_size(); }
  void unsafe_for_each(const ScanFn& fn) const override {
    tree_.unsafe_for_each(fn);
  }
  bool check_invariants(std::string* error = nullptr) const override {
    return tree_.check_invariants(error);
  }

  RbTree& tree() noexcept { return tree_; }

 private:
  RbTree tree_;
};

class HashMapMap final : public TMap {
 public:
  explicit HashMapMap(std::size_t buckets = 1024) : map_(buckets) {}

  std::string_view structure() const override { return "hashmap"; }
  bool ordered() const override { return false; }

  bool insert(stm::Txn& tx, std::int64_t key, std::int64_t value) override {
    return map_.insert(tx, key, value);
  }
  bool remove(stm::Txn& tx, std::int64_t key) override {
    return map_.erase(tx, key);
  }
  bool contains(stm::Txn& tx, std::int64_t key) const override {
    return map_.contains(tx, key);
  }
  std::optional<std::int64_t> get(stm::Txn& tx,
                                  std::int64_t key) const override {
    return map_.get(tx, key);
  }
  // Unordered: probes every key in [lo, hi) individually, so the interval
  // must stay small (the TMap contract documents this degeneration).
  std::size_t range_scan(stm::Txn& tx, std::int64_t lo, std::int64_t hi,
                         const ScanFn& fn) const override;
  std::int64_t size(stm::Txn& tx) const override { return map_.size(tx); }

  std::size_t unsafe_size() const override { return map_.unsafe_size(); }
  void unsafe_for_each(const ScanFn& fn) const override {
    map_.unsafe_for_each(fn);
  }
  bool check_invariants(std::string* error = nullptr) const override {
    return map_.check_invariants(error);
  }

  THashMap& hashmap() noexcept { return map_; }

 private:
  THashMap map_;
};

class ListMap final : public TMap {
 public:
  ListMap() = default;

  std::string_view structure() const override { return "list"; }
  bool ordered() const override { return true; }

  bool insert(stm::Txn& tx, std::int64_t key, std::int64_t value) override {
    return list_.insert(tx, key, value);
  }
  bool remove(stm::Txn& tx, std::int64_t key) override {
    return list_.erase(tx, key);
  }
  bool contains(stm::Txn& tx, std::int64_t key) const override {
    return list_.contains(tx, key);
  }
  std::optional<std::int64_t> get(stm::Txn& tx,
                                  std::int64_t key) const override {
    return list_.get(tx, key);
  }
  std::size_t range_scan(stm::Txn& tx, std::int64_t lo, std::int64_t hi,
                         const ScanFn& fn) const override {
    return list_.range_scan(tx, lo, hi, fn);
  }
  std::int64_t size(stm::Txn& tx) const override { return list_.size(tx); }

  std::size_t unsafe_size() const override { return list_.unsafe_size(); }
  void unsafe_for_each(const ScanFn& fn) const override {
    list_.unsafe_for_each(fn);
  }
  bool check_invariants(std::string* error = nullptr) const override {
    return list_.check_invariants(error);
  }

  TList& list() noexcept { return list_; }

 private:
  TList list_;
};

}  // namespace rubic::tds
