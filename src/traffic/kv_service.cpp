#include "src/traffic/kv_service.hpp"

#include <algorithm>
#include <array>
#include <climits>
#include <ctime>
#include <thread>
#include <unordered_map>

#if defined(__linux__)
#include <linux/futex.h>
#include <sys/prctl.h>
#include <sys/syscall.h>
#include <unistd.h>
#endif

#include "src/fault/fault.hpp"
#include "src/stm/profiler.hpp"
#include "src/util/check.hpp"

namespace rubic::traffic {
namespace {

using stm::Txn;

constexpr std::uint64_t kStockTouchesPerOrder = 2;
constexpr std::int64_t kInitialStock = 1'000'000;

// Arrival wait (docs/traffic.md "Arrival wait"). The timer holder sleeps
// toward the head request's arrival rounded up to a multiple of this window
// on the schedule's clock, so all arrivals inside one window share a wake.
constexpr std::uint64_t kArrivalWindowNs = 20'000;
// A follower re-checks on its own at most this long after the head request
// became due: the bound on the stall when the timer holder is descheduled
// or has parked at the pool gate.
constexpr std::chrono::microseconds kFollowerWatchdog{100};
// Longest single sleep, so halt() and wake_waiters() are seen within it.
constexpr std::chrono::milliseconds kSleepChunk{1};
// claim_due()'s answer when wake_waiters() released the caller.
constexpr std::uint64_t kReleased = UINT64_MAX;

static_assert(sizeof(std::atomic<std::uint32_t>) == sizeof(std::uint32_t) &&
              std::atomic<std::uint32_t>::is_always_lock_free);

// Blocks while `word` still holds `seen`, at most `timeout`.
void futex_wait(std::atomic<std::uint32_t>& word, std::uint32_t seen,
                std::chrono::nanoseconds timeout) {
#if defined(__linux__)
  const timespec ts{static_cast<time_t>(timeout.count() / 1'000'000'000),
                    static_cast<long>(timeout.count() % 1'000'000'000)};
  syscall(SYS_futex, reinterpret_cast<std::uint32_t*>(&word),
          FUTEX_WAIT_PRIVATE, seen, &ts, nullptr, 0);
#else
  if (word.load(std::memory_order_acquire) == seen) {
    std::this_thread::sleep_for(timeout);
  }
#endif
}

void futex_wake(std::atomic<std::uint32_t>& word, int count) {
#if defined(__linux__)
  syscall(SYS_futex, reinterpret_cast<std::uint32_t*>(&word),
          FUTEX_WAKE_PRIVATE, count, nullptr, nullptr, 0);
#else
  (void)word;
  (void)count;
#endif
}

// Linux stretches every timed sleep by the thread's timer slack, 50 µs by
// default: more than the window. Set it to 1 ns, once per thread.
void use_fine_timer_slack() {
#if defined(__linux__)
  thread_local bool set = false;
  if (!set) {
    set = true;
    prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
  }
#endif
}

std::int64_t client_count_key(std::uint32_t client) noexcept {
  return kClientBase + 2 * static_cast<std::int64_t>(client);
}
std::int64_t client_sum_key(std::uint32_t client) noexcept {
  return kClientBase + 2 * static_cast<std::int64_t>(client) + 1;
}

// Atomic max over a relaxed cell (per-phase peak backlog).
void update_max(std::atomic<std::uint64_t>& cell, std::uint64_t value) {
  std::uint64_t seen = cell.load(std::memory_order_relaxed);
  while (value > seen &&
         !cell.compare_exchange_weak(seen, value, std::memory_order_relaxed)) {
  }
}

}  // namespace

KvTrafficWorkload::KvTrafficWorkload(stm::Runtime& rt, Schedule schedule)
    : schedule_(std::move(schedule)),
      map_(static_cast<std::size_t>(
          schedule_.config.keys + schedule_.insert_keys +
          schedule_.config.accounts + kStockKeys + kDistricts +
          schedule_.order_rows + 2 * schedule_.config.clients)),
      use_btree_(schedule_.config.index == "btree") {
  const auto& curve_phases = schedule_.curve.phases();
  scheduled_per_phase_.assign(curve_phases.size(), 0);
  for (const Request& req : schedule_.requests) {
    ++scheduled_per_phase_[req.phase()];
  }
  phases_.reserve(curve_phases.size());
  for (std::size_t i = 0; i < curve_phases.size(); ++i) {
    auto agg = std::make_unique<PhaseAgg>();
    const telemetry::Labels labels = {{"mix", schedule_.config.mix},
                                      {"phase", curve_phases[i].name}};
    auto& reg = telemetry::registry();
    agg->requests_mirror =
        &reg.counter("rubic_traffic_requests_total", labels);
    agg->slo_ok_mirror = &reg.counter("rubic_traffic_slo_ok_total", labels);
    agg->latency_mirror = &reg.histogram("rubic_traffic_latency_us", labels);
    phases_.push_back(std::move(agg));
  }
  backlog_mirror_ = &telemetry::registry().gauge(
      "rubic_traffic_backlog", {{"mix", schedule_.config.mix}});

  populate(rt);
}

void KvTrafficWorkload::populate(stm::Runtime& rt) {
  stm::TxnDesc& ctx = rt.register_thread();
  std::vector<std::int64_t> keys;
  keys.reserve(schedule_.config.keys + schedule_.config.accounts +
               kStockKeys + kDistricts + 2 * schedule_.config.clients);
  for (std::uint64_t k = 0; k < schedule_.config.keys; ++k) {
    keys.push_back(static_cast<std::int64_t>(k));
  }
  for (std::uint64_t a = 0; a < schedule_.config.accounts; ++a) {
    keys.push_back(kAccountBase + static_cast<std::int64_t>(a));
  }
  for (std::uint64_t s = 0; s < kStockKeys; ++s) {
    keys.push_back(kStockBase + static_cast<std::int64_t>(s));
  }
  for (std::uint64_t d = 0; d < kDistricts; ++d) {
    keys.push_back(kDistrictBase + static_cast<std::int64_t>(d));
  }
  for (std::uint32_t c = 0; c < schedule_.config.clients; ++c) {
    keys.push_back(client_count_key(c));
    keys.push_back(client_sum_key(c));
  }
  // Batched population: one transaction per chunk keeps write sets small
  // while staying far faster than one transaction per key.
  constexpr std::size_t kBatch = 128;
  for (std::size_t at = 0; at < keys.size(); at += kBatch) {
    const std::size_t end = std::min(at + kBatch, keys.size());
    stm::atomically(ctx, [&](Txn& tx) {
      for (std::size_t i = at; i < end; ++i) {
        const std::int64_t key = keys[i];
        map_.put(tx, key, key >= kStockBase && key < kDistrictBase
                              ? kInitialStock
                              : 0);
      }
    });
  }
}

void KvTrafficWorkload::ensure_clock_started() {
  std::call_once(clock_once_, [this] {
    start_ = std::chrono::steady_clock::now();
    clock_started_.store(true, std::memory_order_release);
  });
}

std::uint64_t KvTrafficWorkload::elapsed_ns() const {
  if (!clock_started_.load(std::memory_order_acquire)) return 0;
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - start_)
          .count());
}

std::uint64_t KvTrafficWorkload::due_by(std::uint64_t elapsed_ns) const {
  // Gallop from the hint toward the answer, then binary-search the last
  // stride: O(log distance), and a single probe when the hint is current.
  const std::vector<Request>& reqs = schedule_.requests;
  const auto later = [](std::uint64_t elapsed, const Request& req) {
    return elapsed < req.arrival_ns();
  };
  const std::uint64_t hint = due_cursor_.load(std::memory_order_relaxed);
  std::uint64_t lo = hint;  // every arrival below lo is due
  std::uint64_t hi = hint;  // the arrival at hi (if any) is not
  if (hint > 0 && reqs[hint - 1].arrival_ns() > elapsed_ns) {
    // A clock behind the hint: search below it.
    hi = lo = hint - 1;
    for (std::uint64_t step = 1;
         lo > 0 && reqs[lo - 1].arrival_ns() > elapsed_ns; step *= 2) {
      hi = lo - 1;
      lo = hi > step ? hi - step : 0;
    }
  } else {
    for (std::uint64_t step = 1;
         hi < reqs.size() && reqs[hi].arrival_ns() <= elapsed_ns; step *= 2) {
      lo = hi + 1;
      hi = std::min<std::uint64_t>(reqs.size(), hi + step);
    }
  }
  const auto due = static_cast<std::uint64_t>(
      std::upper_bound(reqs.begin() + static_cast<std::ptrdiff_t>(lo),
                       reqs.begin() + static_cast<std::ptrdiff_t>(hi),
                       elapsed_ns, later) -
      reqs.begin());
  update_max(due_cursor_, due);
  return due;
}

std::uint64_t KvTrafficWorkload::backlog_now() const {
  const std::uint64_t due = due_by(elapsed_ns());
  const std::uint64_t executed = executed_.load(std::memory_order_acquire);
  return due > executed ? due - executed : 0;
}

void KvTrafficWorkload::wait_until(std::uint64_t arrival_ns) const {
  const auto target = start_ + std::chrono::nanoseconds(arrival_ns);
  while (!halted_.load(std::memory_order_acquire)) {
    const auto now = std::chrono::steady_clock::now();
    if (now >= target) return;
    const auto remain = target - now;
    std::this_thread::sleep_for(remain < kSleepChunk ? remain : kSleepChunk);
  }
}

void KvTrafficWorkload::wake_followers(int count) noexcept {
  wake_seq_.fetch_add(1, std::memory_order_seq_cst);
  if (sleepers_.load(std::memory_order_seq_cst) != 0) {
    futex_wake(wake_seq_, count);
  }
}

void KvTrafficWorkload::halt() noexcept {
  halted_.store(true, std::memory_order_seq_cst);
  wake_followers(INT_MAX);
}

void KvTrafficWorkload::wake_waiters() noexcept {
  release_epoch_.fetch_add(1, std::memory_order_seq_cst);
  wake_followers(INT_MAX);
}

std::uint64_t KvTrafficWorkload::claim_due() {
  const std::uint32_t epoch = release_epoch_.load(std::memory_order_acquire);
  use_fine_timer_slack();
  ensure_clock_started();
  const std::vector<Request>& reqs = schedule_.requests;
  for (;;) {
    const std::uint64_t head = next_.load(std::memory_order_seq_cst);
    const std::uint64_t now = elapsed_ns();
    if (head >= reqs.size() || reqs[head].arrival_ns() <= now ||
        halted_.load(std::memory_order_acquire)) {
      const std::uint64_t idx = next_.fetch_add(1, std::memory_order_seq_cst);
      if (idx + 1 == reqs.size()) {
        wake_followers(INT_MAX);  // the schedule is out: let them leave
      } else if (idx + 1 < reqs.size() &&
                 sleepers_.load(std::memory_order_seq_cst) != 0 &&
                 reqs[idx + 1].arrival_ns() + kArrivalWindowNs < now) {
        wake_followers(1);  // more than a window behind: pull one in
      }
      // A racing claimer can leave this one a request that is not due yet.
      if (idx < reqs.size() && reqs[idx].arrival_ns() > now) {
        wait_until(reqs[idx].arrival_ns());
      }
      return idx;
    }
    if (release_epoch_.load(std::memory_order_acquire) != epoch) {
      return kReleased;
    }
    if (!timer_held_.load(std::memory_order_relaxed) &&
        !timer_held_.exchange(true, std::memory_order_acquire)) {
      hold_timer(epoch);
    } else {
      follow(epoch);
    }
  }
}

void KvTrafficWorkload::hold_timer(std::uint32_t epoch) {
  const std::vector<Request>& reqs = schedule_.requests;
  for (;;) {
    const std::uint64_t head = next_.load(std::memory_order_relaxed);
    if (head >= reqs.size() || halted_.load(std::memory_order_acquire) ||
        release_epoch_.load(std::memory_order_acquire) != epoch) {
      break;
    }
    const std::uint64_t wake_ns =
        (reqs[head].arrival_ns() + kArrivalWindowNs - 1) / kArrivalWindowNs *
        kArrivalWindowNs;
    const auto remain = start_ + std::chrono::nanoseconds(wake_ns) -
                        std::chrono::steady_clock::now();
    if (remain <= std::chrono::steady_clock::duration::zero()) break;
    std::this_thread::sleep_for(remain < kSleepChunk ? remain : kSleepChunk);
  }
  timer_held_.store(false, std::memory_order_release);
}

void KvTrafficWorkload::follow(std::uint32_t epoch) {
  const std::vector<Request>& reqs = schedule_.requests;
  // Read the word before re-checking: a wake that lands after the checks
  // changes it, so the futex call returns at once instead of sleeping.
  const std::uint32_t seen = wake_seq_.load(std::memory_order_seq_cst);
  sleepers_.fetch_add(1, std::memory_order_seq_cst);
  // A claimer that read sleepers_ as 0 advanced next_ before this load, so
  // a request it would have pulled a follower in for is due here.
  const std::uint64_t head = next_.load(std::memory_order_seq_cst);
  const std::uint64_t now = elapsed_ns();
  if (head < reqs.size() && reqs[head].arrival_ns() > now &&
      timer_held_.load(std::memory_order_relaxed) &&
      !halted_.load(std::memory_order_acquire) &&
      release_epoch_.load(std::memory_order_acquire) == epoch) {
    const std::chrono::nanoseconds until_due(reqs[head].arrival_ns() - now);
    futex_wait(wake_seq_, seen,
               std::min<std::chrono::nanoseconds>(until_due, kSleepChunk) +
                   kFollowerWatchdog);
  }
  sleepers_.fetch_sub(1, std::memory_order_relaxed);
}

void KvTrafficWorkload::run_task(stm::TxnDesc& ctx, util::Xoshiro256&) {
  // A halted drain claims with one fetch_add and waits for nothing.
  const std::uint64_t idx = halted_.load(std::memory_order_acquire)
                                ? next_.fetch_add(1, std::memory_order_relaxed)
                                : claim_due();
  if (idx == kReleased) return;
  if (idx >= schedule_.requests.size()) {
    // Surplus worker past the end of the schedule: park briefly; done()
    // flips once the in-flight tail finishes and the pool stops pulling.
    std::this_thread::sleep_for(std::chrono::microseconds(500));
    return;
  }
  const Request& req = schedule_.requests[idx];
  ensure_clock_started();
  if (const fault::Fire f = fault::probe(fault::Site::kTrafficStall);
      f.fired) [[unlikely]] {
    std::this_thread::sleep_for(std::chrono::duration_cast<
                                std::chrono::steady_clock::duration>(
        std::chrono::duration<double, std::micro>(f.value)));
  }

  execute(ctx, req);

  const std::uint64_t now = elapsed_ns();
  const std::uint64_t arrival_ns = req.arrival_ns();
  const std::uint64_t latency_ns = now > arrival_ns ? now - arrival_ns : 0;
  const std::uint64_t latency_us = latency_ns / 1000;
  PhaseAgg& agg = *phases_[req.phase()];
  agg.latency_us.observe(latency_us);
  agg.completed.fetch_add(1, std::memory_order_relaxed);
  const bool within_slo = latency_us <= schedule_.config.slo_us;
  if (within_slo) agg.slo_ok.fetch_add(1, std::memory_order_relaxed);

  const std::uint64_t executed =
      1 + executed_.fetch_add(1, std::memory_order_acq_rel);
  const std::uint64_t due = due_by(now);
  update_max(agg.max_backlog, due > executed ? due - executed : 0);

  if (telemetry::armed()) {
    agg.requests_mirror->add(1);
    if (within_slo) agg.slo_ok_mirror->add(1);
    agg.latency_mirror->observe(latency_us);
    backlog_mirror_->set(
        static_cast<double>(due > executed ? due - executed : 0));
  }
}

bool KvTrafficWorkload::done() const {
  const std::uint64_t size = schedule_.requests.size();
  return next_.load(std::memory_order_acquire) >= size &&
         executed_.load(std::memory_order_acquire) >= size;
}

void KvTrafficWorkload::mark_applied(Txn& tx, const Request& req) {
  const std::int64_t ck = client_count_key(req.client());
  const std::int64_t sk = client_sum_key(req.client());
  map_.put(tx, ck, map_.get(tx, ck).value_or(0) + 1);
  map_.put(tx, sk,
           map_.get(tx, sk).value_or(0) + static_cast<std::int64_t>(req.seq()));
}

void KvTrafficWorkload::execute(stm::TxnDesc& ctx, const Request& req) {
  // Per-op contention-profiler labels ("kv:transfer" etc.): interned once
  // per process, then two thread-local stores per request. The profiler's
  // conflict-pair graph reports victim→owner edges at this granularity.
  static const std::array<std::uint16_t, kOpKindCount> kOpLabels = [] {
    std::array<std::uint16_t, kOpKindCount> ids{};
    for (std::size_t i = 0; i < kOpKindCount; ++i) {
      ids[i] = stm::profiler::intern_label(
          "kv:" + std::string(op_name(static_cast<OpKind>(i))));
    }
    return ids;
  }();
  const OpKind op = req.op();
  stm::profiler::ScopedTxnLabel txn_label(
      kOpLabels[static_cast<std::size_t>(op)]);
  const std::int64_t key = req.key();
  const std::int64_t key2 = req.key2();
  const std::int64_t aux = req.aux();
  const auto scan_len = static_cast<std::int64_t>(schedule_.scan_len(op));
  switch (op) {
    case OpKind::kRead:
      stm::atomically(ctx, [&](Txn& tx) { (void)map_.get(tx, key); });
      break;
    case OpKind::kUpdate:
      stm::atomically(ctx, [&](Txn& tx) {
        map_.put(tx, key, static_cast<std::int64_t>(req.seq()));
        mark_applied(tx, req);
      });
      break;
    case OpKind::kInsert:
      stm::atomically(ctx, [&](Txn& tx) {
        map_.insert(tx, key, static_cast<std::int64_t>(req.seq()));
        mark_applied(tx, req);
      });
      break;
    case OpKind::kScan: {
      const auto span = static_cast<std::int64_t>(schedule_.config.keys);
      stm::atomically(ctx, [&](Txn& tx) {
        for (std::int64_t i = 0; i < scan_len; ++i) {
          (void)map_.get(tx, (key + i) % span);
        }
      });
      break;
    }
    case OpKind::kRmw:
      stm::atomically(ctx, [&](Txn& tx) {
        map_.put(tx, key, map_.get(tx, key).value_or(0) + 1);
        mark_applied(tx, req);
      });
      break;
    case OpKind::kTransfer:
    case OpKind::kPayment:
      // Zero-sum move: the two writes always cancel, so the account total
      // is invariant under any serialization of transfers.
      stm::atomically(ctx, [&](Txn& tx) {
        map_.put(tx, key, map_.get(tx, key).value_or(0) - aux);
        map_.put(tx, key2, map_.get(tx, key2).value_or(0) + aux);
        mark_applied(tx, req);
      });
      break;
    case OpKind::kNewOrder:
      stm::atomically(ctx, [&](Txn& tx) {
        const std::int64_t oid = map_.get(tx, key).value_or(0);
        map_.put(tx, key, oid + 1);
        if (use_btree_) {
          orders_.insert(tx, key2, oid);
        } else {
          map_.insert(tx, key2, oid);
        }
        for (std::uint64_t i = 0; i < kStockTouchesPerOrder; ++i) {
          const std::int64_t stock =
              kStockBase +
              static_cast<std::int64_t>(
                  (static_cast<std::uint64_t>(aux) + i) % kStockKeys);
          map_.put(tx, stock, map_.get(tx, stock).value_or(0) - 1);
        }
        mark_applied(tx, req);
      });
      break;
    case OpKind::kStockScan:
      stm::atomically(ctx, [&](Txn& tx) {
        for (std::int64_t i = 0; i < scan_len; ++i) {
          const std::int64_t stock =
              kStockBase +
              static_cast<std::int64_t>(
                  (static_cast<std::uint64_t>(key) +
                   static_cast<std::uint64_t>(i)) %
                  kStockKeys);
          (void)map_.get(tx, stock);
        }
      });
      break;
    case OpKind::kOrderScan:
      // The op a real OLTP order table exists for: under index=btree one
      // ordered leaf-chain walk; under index=hash the same window degrades
      // to per-key probes (absent keys included) — the comparison the
      // --index flag is meant to expose.
      stm::atomically(ctx, [&](Txn& tx) {
        if (use_btree_) {
          (void)orders_.range_scan(tx, key, key + scan_len,
                                   [](std::int64_t, std::int64_t) {});
        } else {
          for (std::int64_t i = 0; i < scan_len; ++i) {
            (void)map_.get(tx, key + i);
          }
        }
      });
      break;
  }
}

bool KvTrafficWorkload::verify(std::string* error) {
  const auto fail = [error](std::string message) {
    if (error != nullptr) *error = std::move(message);
    return false;
  };

  if (std::string map_error; !map_.check_invariants(&map_error)) {
    return fail("thashmap: " + map_error);
  }
  if (std::string tree_error;
      use_btree_ && !orders_.check_invariants(&tree_error)) {
    return fail("order btree: " + tree_error);
  }

  // Quiescent scan of the whole map, bucketed by key namespace.
  std::int64_t balance_sum = 0;
  std::uint64_t account_rows = 0;
  std::uint64_t order_rows = 0;
  std::uint64_t data_rows = 0;
  std::unordered_map<std::int64_t, std::int64_t> client_rows;
  map_.unsafe_for_each([&](std::int64_t key, std::int64_t value) {
    if (key >= kClientBase) {
      client_rows.emplace(key, value);
    } else if (key >= kDistrictBase) {
      // district counters: consistency is covered by order-row counting
    } else if (key >= kStockBase) {
      // stock rows: drained by new_order; no standalone invariant
    } else if (key >= kOrderBase) {
      ++order_rows;  // stays 0 under index=btree: order rows live in orders_
    } else if (key >= kAccountBase) {
      balance_sum += value;
      ++account_rows;
    } else {
      ++data_rows;
    }
  });

  if (use_btree_) {
    if (order_rows != 0) {
      return fail("order rows leaked into the hash map under index=btree: " +
                  std::to_string(order_rows));
    }
    orders_.unsafe_for_each([&](std::int64_t key, std::int64_t) {
      if (key >= kOrderBase && key < kDistrictBase) ++order_rows;
    });
    if (order_rows != orders_.unsafe_size()) {
      return fail("order btree holds keys outside the order namespace");
    }
  }

  if (balance_sum != 0) {
    return fail("zero-sum violated: account balances sum to " +
                std::to_string(balance_sum) + " across " +
                std::to_string(account_rows) + " accounts");
  }
  if (account_rows != schedule_.config.accounts) {
    return fail("account rows lost: " + std::to_string(account_rows) +
                " present, " + std::to_string(schedule_.config.accounts) +
                " expected");
  }

  // Recompute expectations over the executed prefix. Dispatch hands out
  // indices in order and run_task always finishes its request, so after
  // quiescence exactly [0, min(next_, size)) must have taken effect.
  const std::uint64_t size = schedule_.requests.size();
  const std::uint64_t dispatched =
      std::min(next_.load(std::memory_order_acquire), size);
  const std::uint64_t executed = executed_.load(std::memory_order_acquire);
  if (executed != dispatched) {
    return fail("request accounting: dispatched " +
                std::to_string(dispatched) + " but executed " +
                std::to_string(executed));
  }

  std::vector<std::int64_t> want_count(schedule_.config.clients, 0);
  std::vector<std::int64_t> want_sum(schedule_.config.clients, 0);
  std::uint64_t want_orders = 0;
  std::uint64_t want_inserts = 0;
  for (std::uint64_t i = 0; i < dispatched; ++i) {
    const Request& req = schedule_.requests[i];
    const OpKind op = req.op();
    if (!op_writes(op)) continue;
    ++want_count[req.client()];
    want_sum[req.client()] += static_cast<std::int64_t>(req.seq());
    if (op == OpKind::kNewOrder) ++want_orders;
    if (op == OpKind::kInsert) ++want_inserts;
  }

  for (std::uint32_t c = 0; c < schedule_.config.clients; ++c) {
    const auto count_it = client_rows.find(client_count_key(c));
    const auto sum_it = client_rows.find(client_sum_key(c));
    const std::int64_t got_count =
        count_it == client_rows.end() ? -1 : count_it->second;
    const std::int64_t got_sum =
        sum_it == client_rows.end() ? -1 : sum_it->second;
    if (got_count != want_count[c]) {
      return fail("client " + std::to_string(c) + ": applied count " +
                  std::to_string(got_count) + ", expected " +
                  std::to_string(want_count[c]) +
                  " (lost or duplicated effect)");
    }
    if (got_sum != want_sum[c]) {
      return fail("client " + std::to_string(c) + ": sequence checksum " +
                  std::to_string(got_sum) + ", expected " +
                  std::to_string(want_sum[c]) +
                  " (lost or duplicated effect)");
    }
  }

  if (order_rows != want_orders) {
    return fail("order rows: " + std::to_string(order_rows) + " present, " +
                std::to_string(want_orders) + " expected");
  }
  if (data_rows != schedule_.config.keys + want_inserts) {
    return fail("data rows: " + std::to_string(data_rows) + " present, " +
                std::to_string(schedule_.config.keys + want_inserts) +
                " expected");
  }
  return true;
}

TrafficSummary KvTrafficWorkload::summary() const {
  TrafficSummary out;
  const std::uint64_t size = schedule_.requests.size();
  out.scheduled = size;
  out.dispatched = std::min(next_.load(std::memory_order_acquire), size);
  out.executed = executed_.load(std::memory_order_acquire);
  out.slo_us = schedule_.config.slo_us;

  std::vector<std::uint64_t> merged_buckets;
  std::uint64_t merged_sum = 0;
  const auto& curve_phases = schedule_.curve.phases();
  out.phases.reserve(curve_phases.size());
  for (std::size_t i = 0; i < curve_phases.size(); ++i) {
    const PhaseAgg& agg = *phases_[i];
    PhaseSummary phase;
    phase.name = curve_phases[i].name;
    phase.seconds = curve_phases[i].seconds;
    phase.scheduled = scheduled_per_phase_[i];
    phase.offered_rps =
        static_cast<double>(phase.scheduled) / curve_phases[i].seconds;
    phase.completed = agg.completed.load(std::memory_order_relaxed);
    phase.slo_ok = agg.slo_ok.load(std::memory_order_relaxed);
    phase.slo_attainment =
        phase.completed == 0
            ? 0.0
            : static_cast<double>(phase.slo_ok) /
                  static_cast<double>(phase.completed);
    phase.max_backlog = agg.max_backlog.load(std::memory_order_relaxed);
    const std::vector<std::uint64_t> buckets = agg.latency_us.buckets();
    phase.p50_us = telemetry::quantile_from_buckets(buckets, 0.50);
    phase.p99_us = telemetry::quantile_from_buckets(buckets, 0.99);
    phase.p999_us = telemetry::quantile_from_buckets(buckets, 0.999);
    const std::uint64_t count = agg.latency_us.count();
    phase.mean_us = count == 0 ? 0.0
                               : static_cast<double>(agg.latency_us.sum()) /
                                     static_cast<double>(count);
    if (buckets.size() > merged_buckets.size()) {
      merged_buckets.resize(buckets.size(), 0);
    }
    for (std::size_t b = 0; b < buckets.size(); ++b) {
      merged_buckets[b] += buckets[b];
    }
    merged_sum += agg.latency_us.sum();
    out.phases.push_back(std::move(phase));
  }

  PhaseSummary& overall = out.overall;
  overall.name = "overall";
  overall.seconds = schedule_.curve.total_seconds();
  for (const PhaseSummary& phase : out.phases) {
    overall.scheduled += phase.scheduled;
    overall.completed += phase.completed;
    overall.slo_ok += phase.slo_ok;
    overall.max_backlog = std::max(overall.max_backlog, phase.max_backlog);
  }
  overall.offered_rps =
      static_cast<double>(overall.scheduled) / overall.seconds;
  overall.slo_attainment =
      overall.completed == 0
          ? 0.0
          : static_cast<double>(overall.slo_ok) /
                static_cast<double>(overall.completed);
  overall.p50_us = telemetry::quantile_from_buckets(merged_buckets, 0.50);
  overall.p99_us = telemetry::quantile_from_buckets(merged_buckets, 0.99);
  overall.p999_us = telemetry::quantile_from_buckets(merged_buckets, 0.999);
  overall.mean_us = overall.completed == 0
                        ? 0.0
                        : static_cast<double>(merged_sum) /
                              static_cast<double>(overall.completed);
  return out;
}

}  // namespace rubic::traffic
