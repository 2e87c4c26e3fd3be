// Synchrobench-style structure workload over any tds::TMap.
//
// One task = one transaction: a lookup, an insert, a remove or a short
// range scan against a pre-populated structure, with the op mix controlled
// by an update percentage (Synchrobench's -u) and a scan percentage.
// Updates split evenly between insert and remove so the expected size stays
// put. Every op runs under a "tds:<structure>:<op>" ScopedTxnLabel, so the
// contention profiler's /hotspots victim→owner pairs name the structure and
// the operation that collided.
//
// Registered as `synchro:<structure>` so rubic_colocate/rubic_soak can
// co-locate structure tenants; tools/rubic_synchro drives the same class
// across the full structure × backend × update × key-range × threads grid.
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "src/tds/registry.hpp"
#include "src/tds/tmap.hpp"
#include "src/workloads/commit_tally.hpp"
#include "src/workloads/workload.hpp"

namespace rubic::workloads {

struct SynchroParams {
  std::string structure = "skiplist";
  std::int64_t initial_size = 16 * 1024;
  // Key universe; defaults to 2 * initial_size like the rbset benchmark.
  std::int64_t key_range = 0;
  int update_pct = 20;  // split evenly between insert and remove
  int scan_pct = 0;     // short ordered scans (kScanWidth keys wide)
  std::uint64_t seed = 0x5c2a11ceULL;

  static SynchroParams defaults(std::string structure_name) {
    SynchroParams p;
    p.structure = std::move(structure_name);
    return p;
  }
  // Small instance for unit tests and smoke runs.
  static SynchroParams tiny(std::string structure_name) {
    SynchroParams p;
    p.structure = std::move(structure_name);
    p.initial_size = 512;
    p.update_pct = 50;
    p.scan_pct = 10;
    return p;
  }
};

class SynchroWorkload final : public Workload {
 public:
  // Key interval visited by one scan op (kept small so the hash map's
  // probe-based range_scan stays cheap).
  static constexpr std::int64_t kScanWidth = 64;

  // Builds and fills the structure; must run before workers start.
  SynchroWorkload(stm::Runtime& rt, SynchroParams params);

  std::string_view name() const override { return name_; }
  void run_task(stm::TxnDesc& ctx, util::Xoshiro256& rng) override;
  // Structure invariants, the fill value convention, and a walked size
  // equal to the initial size plus the committed inserts and removes every
  // worker counted.
  bool verify(std::string* error = nullptr) override;

  const tds::TMap& map() const noexcept { return *map_; }
  // Updates made through this reference are not counted, so verify() then
  // reports a size mismatch (the tests' lost-update stand-in).
  tds::TMap& map() noexcept { return *map_; }
  std::int64_t key_range() const noexcept { return params_.key_range; }
  const SynchroParams& params() const noexcept { return params_; }

 private:
  SynchroParams params_;
  std::string name_;
  std::unique_ptr<tds::TMap> map_;
  CommitTally committed_;
  std::uint16_t label_lookup_;
  std::uint16_t label_insert_;
  std::uint16_t label_remove_;
  std::uint16_t label_scan_;
};

}  // namespace rubic::workloads
