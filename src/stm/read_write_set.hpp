// Transaction-private read and write sets.
//
// The write set supports O(1) read-own-writes lookup via a generation-
// stamped open-addressing index over a dense entry vector; clearing between
// transactions is a single generation bump, so retry-heavy workloads (high
// parallelism past the scalability peak — exactly where RUBIC operates) pay
// no per-abort memset.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "src/stm/orec.hpp"
#include "src/util/check.hpp"

namespace rubic::stm {

struct ReadEntry {
  Orec* orec;
  LockWord seen;  // unlocked version word observed at read time
};

class ReadSet {
 public:
  void record(Orec* orec, LockWord seen) { entries_.push_back({orec, seen}); }
  void clear() noexcept { entries_.clear(); }
  bool empty() const noexcept { return entries_.empty(); }
  std::size_t size() const noexcept { return entries_.size(); }
  const std::vector<ReadEntry>& entries() const noexcept { return entries_; }

 private:
  std::vector<ReadEntry> entries_;
};

struct WriteEntry {
  std::uint64_t* addr;
  std::uint64_t value;
};

class WriteSet {
 public:
  WriteSet() { rebuild_index(kInitialBuckets); }

  // Returns the buffered value entry for addr, or nullptr.
  WriteEntry* find(const std::uint64_t* addr) noexcept {
    const std::size_t mask = buckets_.size() - 1;
    for (std::size_t b = hash(addr) & mask;; b = (b + 1) & mask) {
      Bucket& bk = buckets_[b];
      if (bk.generation != generation_) return nullptr;  // empty slot
      WriteEntry& e = entries_[bk.entry_index];
      if (e.addr == addr) return &e;
    }
  }

  // Inserts a new entry or updates the buffered value of an existing one.
  void put(std::uint64_t* addr, std::uint64_t value) {
    if (WriteEntry* e = find(addr)) {
      e->value = value;
      return;
    }
    entries_.push_back({addr, value});
    if ((entries_.size() + 1) * 2 > buckets_.size()) {
      rebuild_index(buckets_.size() * 2);
    } else {
      index_entry(entries_.size() - 1);
    }
  }

  void clear() noexcept {
    entries_.clear();
    // Generation bump invalidates every bucket in O(1). On wrap (never in
    // practice: 2^64 transactions) fall back to a full rebuild.
    if (++generation_ == 0) [[unlikely]] {
      generation_ = 1;
      rebuild_index(buckets_.size());
    }
  }

  bool empty() const noexcept { return entries_.empty(); }
  std::size_t size() const noexcept { return entries_.size(); }
  const std::vector<WriteEntry>& entries() const noexcept { return entries_; }

 private:
  static constexpr std::size_t kInitialBuckets = 64;

  struct Bucket {
    std::uint64_t generation = 0;
    std::uint32_t entry_index = 0;
  };

  static std::size_t hash(const std::uint64_t* addr) noexcept {
    return static_cast<std::size_t>(
        (reinterpret_cast<std::uintptr_t>(addr) >> 3) * 0x9e3779b97f4a7c15ULL);
  }

  void index_entry(std::size_t i) noexcept {
    const std::size_t mask = buckets_.size() - 1;
    for (std::size_t b = hash(entries_[i].addr) & mask;; b = (b + 1) & mask) {
      Bucket& bk = buckets_[b];
      if (bk.generation != generation_) {
        bk.generation = generation_;
        bk.entry_index = static_cast<std::uint32_t>(i);
        return;
      }
    }
  }

  void rebuild_index(std::size_t bucket_count) {
    RUBIC_CHECK((bucket_count & (bucket_count - 1)) == 0);
    buckets_.assign(bucket_count, Bucket{});
    if (generation_ == 0) generation_ = 1;
    for (std::size_t i = 0; i < entries_.size(); ++i) index_entry(i);
  }

  std::vector<WriteEntry> entries_;
  std::vector<Bucket> buckets_;
  std::uint64_t generation_ = 0;
};

// Value-based read log for the NOrec backend: the address and the exact
// value a read returned. Validation re-loads every address and compares
// values — no orec metadata involved, so an ABA overwrite that restores the
// observed value revalidates successfully (value-based validation is
// serializable regardless; see docs/stm.md).
struct ValueReadEntry {
  const std::uint64_t* addr;
  std::uint64_t value;
};

class ValueReadSet {
 public:
  void record(const std::uint64_t* addr, std::uint64_t value) {
    entries_.push_back({addr, value});
  }
  void clear() noexcept { entries_.clear(); }
  bool empty() const noexcept { return entries_.empty(); }
  std::size_t size() const noexcept { return entries_.size(); }
  const std::vector<ValueReadEntry>& entries() const noexcept {
    return entries_;
  }

 private:
  std::vector<ValueReadEntry> entries_;
};

// Orecs write-locked by the running transaction, with the version word each
// held before locking (needed both for abort rollback and for validating
// reads that hit a stripe we already own through a different address).
struct OwnedOrec {
  Orec* orec;
  LockWord pre_lock;
};

class OwnedSet {
 public:
  void record(Orec* orec, LockWord pre_lock) {
    entries_.push_back({orec, pre_lock});
  }

  // Pre-lock version of an orec we own. Linear scan: write sets in the
  // evaluated workloads are a handful of stripes, and this path only runs
  // for reads that alias an owned stripe at a different address.
  const OwnedOrec* find(const Orec* orec) const noexcept {
    for (const auto& e : entries_) {
      if (e.orec == orec) return &e;
    }
    return nullptr;
  }

  void clear() noexcept { entries_.clear(); }
  bool empty() const noexcept { return entries_.empty(); }
  std::size_t size() const noexcept { return entries_.size(); }
  const std::vector<OwnedOrec>& entries() const noexcept { return entries_; }

 private:
  std::vector<OwnedOrec> entries_;
};

}  // namespace rubic::stm
