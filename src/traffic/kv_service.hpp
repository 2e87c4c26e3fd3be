// Open-loop transactional KV service workload.
//
// Plugs a precomputed arrival Schedule (arrival.hpp) into the malleable
// runtime's Workload interface: workers claim requests once their
// wall-clock arrival has passed, execute each as one transaction against a
// shared THashMap, and record enqueue→commit latency into per-phase
// histograms. While nothing is due, one worker holds the arrival timer and
// the others block (see run_task).
// Because arrivals are fixed up front, a server that cannot keep up grows a
// backlog and inflates latency — it never throttles the offered load — so
// SLO attainment is a fair comparison axis between parallelism controllers.
//
// Correctness checking (the load_generator.py design from the RocksDB
// stress suite, SNIPPETS.md #3, adapted to STM): balance transfers move
// value between account keys whose total must stay exactly zero, and every
// effectful request also increments its client's applied-count row and adds
// its sequence number to the client's checksum row *inside the same
// transaction*. verify() recomputes both from the executed schedule prefix
// — a lost effect, duplicated effect, or torn transaction under chaos shows
// up as a count or checksum mismatch even when the zero-sum total survives.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "src/stm/stm.hpp"
#include "src/telemetry/telemetry.hpp"
#include "src/traffic/arrival.hpp"
#include "src/util/rng.hpp"
#include "src/tds/btree.hpp"
#include "src/tds/thashmap.hpp"
#include "src/workloads/workload.hpp"

namespace rubic::traffic {

// Per-phase slice of the run report; quantiles are interpolated from the
// power-of-2 latency histogram (telemetry::quantile_from_buckets).
struct PhaseSummary {
  std::string name;
  double seconds = 0.0;
  double offered_rps = 0.0;       // scheduled / seconds
  std::uint64_t scheduled = 0;
  std::uint64_t completed = 0;
  std::uint64_t slo_ok = 0;
  double slo_attainment = 0.0;    // slo_ok / completed (0 when empty)
  double p50_us = 0.0;
  double p99_us = 0.0;
  double p999_us = 0.0;
  double mean_us = 0.0;
  std::uint64_t max_backlog = 0;  // peak (due − executed) seen in the phase
};

struct TrafficSummary {
  std::vector<PhaseSummary> phases;
  PhaseSummary overall;  // name "overall", bucket-merged across phases
  std::uint64_t scheduled = 0;
  std::uint64_t dispatched = 0;
  std::uint64_t executed = 0;
  std::uint64_t slo_us = 0;
};

class KvTrafficWorkload final : public workloads::Workload {
 public:
  // Populates the map (data keys, accounts, stock rows, district counters,
  // client verification rows) single-threaded through `rt`.
  KvTrafficWorkload(stm::Runtime& rt, Schedule schedule);

  std::string_view name() const override { return "kv-traffic"; }

  // One open-loop request: claim the next schedule index once it is due,
  // execute it transactionally, record latency + SLO. While the head
  // request is not due, one worker (the timer holder) sleeps toward its
  // arrival rounded up to a fixed window, so arrivals within a window share
  // one wake; the others block until a claimer falling behind pulls one in,
  // a short watchdog expires, or wake_waiters()/halt() releases them. Each
  // call executes exactly one request, except past the end of the schedule
  // (it parks briefly so surplus workers idle until done() flips) and after
  // wake_waiters() (it may return without one).
  void run_task(stm::TxnDesc& ctx, util::Xoshiro256& rng) override;

  // Sends workers blocked in run_task back to the pool.
  void wake_waiters() noexcept override;

  // All requests dispatched *and* executed.
  bool done() const override;

  // Zero-sum account invariant, per-client applied-count and sequence
  // checksums, order/insert row counts, and THashMap chain invariants.
  bool verify(std::string* error = nullptr) override;

  // Stops arrival waits (requests still execute immediately, each claim is
  // one fetch_add); for shutting a run down early without breaking the
  // executed accounting.
  void halt() noexcept;

  // Requests due by now but not yet executed (0 before the clock starts).
  std::uint64_t backlog_now() const;

  // Requests whose arrival is at or before `elapsed_ns` (the upper bound of
  // `elapsed_ns` over the sorted arrivals). Callers' clocks mostly move
  // forward, so the search starts from the last answer; thread-safe.
  std::uint64_t due_by(std::uint64_t elapsed_ns) const;

  TrafficSummary summary() const;

  const Schedule& schedule() const noexcept { return schedule_; }

  // Direct access to the shared map — for tests that tamper with state to
  // prove verify() catches it. Quiescent use only.
  tds::THashMap& map() noexcept { return map_; }

  // True when config index=btree routed the order table through the B+-tree.
  bool order_index_is_btree() const noexcept { return use_btree_; }
  // The order-table B+-tree (empty under index=hash). Quiescent use only.
  tds::TBTree& orders() noexcept { return orders_; }

 private:
  struct PhaseAgg {
    std::atomic<std::uint64_t> completed{0};
    std::atomic<std::uint64_t> slo_ok{0};
    std::atomic<std::uint64_t> max_backlog{0};
    telemetry::Histogram latency_us;
    // Global-registry mirrors (labels: mix, phase) — only touched when
    // telemetry is armed, so co-located runs surface SLO stats through the
    // normal scrape/merge pipeline without double-counting private stats.
    telemetry::Counter* requests_mirror = nullptr;
    telemetry::Counter* slo_ok_mirror = nullptr;
    telemetry::Histogram* latency_mirror = nullptr;
  };

  void populate(stm::Runtime& rt);
  void ensure_clock_started();
  std::uint64_t claim_due();
  void hold_timer(std::uint32_t epoch);
  void follow(std::uint32_t epoch);
  void wake_followers(int count) noexcept;
  void wait_until(std::uint64_t arrival_ns) const;
  void execute(stm::TxnDesc& ctx, const Request& req);
  void mark_applied(stm::Txn& tx, const Request& req);
  std::uint64_t elapsed_ns() const;

  Schedule schedule_;
  tds::THashMap map_;
  // TPC-C-lite order table under index=btree: new_order inserts land here
  // and order_scan walks the leaf chain; under index=hash both ops use map_.
  tds::TBTree orders_;
  bool use_btree_ = false;

  std::atomic<std::uint64_t> next_{0};      // dispatch cursor
  std::atomic<std::uint64_t> executed_{0};  // completed requests
  // Largest due_by() answer so far: a search hint that only moves forward.
  // due_by() is exact from any hint, so relaxed loads and stores suffice.
  mutable std::atomic<std::uint64_t> due_cursor_{0};
  std::atomic<bool> halted_{false};
  // Arrival wait (run_task): at most one worker holds the timer; followers
  // block on the futex word wake_seq_, which every wake bumps. sleepers_
  // counts them so a claimer skips the wake syscall when nobody sleeps;
  // wake_waiters() bumps release_epoch_ to send waiters back to the pool.
  std::atomic<bool> timer_held_{false};
  std::atomic<std::uint32_t> wake_seq_{0};
  std::atomic<std::uint32_t> sleepers_{0};
  std::atomic<std::uint32_t> release_epoch_{0};

  std::once_flag clock_once_;
  std::atomic<bool> clock_started_{false};
  std::chrono::steady_clock::time_point start_{};

  std::vector<std::unique_ptr<PhaseAgg>> phases_;
  std::vector<std::uint64_t> scheduled_per_phase_;
  telemetry::Gauge* backlog_mirror_ = nullptr;
};

}  // namespace rubic::traffic
