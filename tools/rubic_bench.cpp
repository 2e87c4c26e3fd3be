// rubic_bench — unified benchmark harness and perf-regression gate.
//
// One binary runs named suites of benchmarks with fixed seeds and emits a
// schema-versioned JSON result file (median/p95/min/mean over --reps
// repetitions, plus machine info and the git sha; written by
// src/telemetry/bench_results.hpp) that scripts/bench_compare.py diffs
// against a committed baseline (bench/baselines/). The CI perf job runs
// `--suite ci-fast` and fails the build on a >15% regression of any gated
// metric.
//
// Two kinds of metrics:
//   * ns/op micro-measurements (gate: true) — stable enough on a shared
//     runner, with the median over reps absorbing scheduler noise.
//   * wall-clock scenario throughputs (gate: false) — recorded for trend
//     plots and human eyes, never gated: co-located tasks/s on a busy CI
//     machine is not a regression signal.
//
// The headline number for the tracing layer (docs/tracing.md) is
// `runtime_overhead_disarmed_pct`: the throughput delta of a transactional
// task loop when every operation performs extra *disarmed* trace probes —
// the cost of compiling the tracing in and leaving it off.
//
// Run:  rubic_bench --suite ci-fast --out BENCH_results.json
//       rubic_bench --list
//       rubic_bench --suite all --reps 7 --trace-out bench_trace.json
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <string>
#include <thread>
#include <vector>

#include "src/control/rubic.hpp"
#include "src/runtime/process.hpp"
#include "src/stm/stm.hpp"
#include "src/telemetry/bench_results.hpp"
#include "src/telemetry/telemetry.hpp"
#include "src/trace/trace.hpp"
#include "src/traffic/traffic.hpp"
#include "src/util/cache_aligned.hpp"
#include "src/util/cli.hpp"
#include "src/util/rng.hpp"
#include "src/workloads/rbset_workload.hpp"
#include "src/tds/rbtree.hpp"
#include "src/tds/registry.hpp"

using namespace rubic;
using namespace std::chrono;

namespace {

double now_seconds() {
  return duration<double>(steady_clock::now().time_since_epoch()).count();
}

// --- individual benchmarks: each run returns one scalar sample ---

// Cost of the disarmed emit() probe: the number the "compiled in but off"
// contract rests on. One relaxed load + predictable branch per call.
double bench_trace_emit_disarmed_ns() {
  constexpr std::uint64_t kOps = 1 << 23;
  const double start = now_seconds();
  for (std::uint64_t i = 0; i < kOps; ++i) {
    trace::emit(trace::EventType::kTxnCommit, static_cast<std::uint32_t>(i));
  }
  return (now_seconds() - start) * 1e9 / static_cast<double>(kOps);
}

// Cost of an armed emit(): timestamp + slot store + release head store.
double bench_trace_emit_armed_ns() {
  constexpr std::uint64_t kOps = 1 << 21;
  trace::Tracer tracer;
  trace::Armed armed(tracer);
  const double start = now_seconds();
  for (std::uint64_t i = 0; i < kOps; ++i) {
    trace::emit(trace::EventType::kTxnCommit, static_cast<std::uint32_t>(i));
  }
  return (now_seconds() - start) * 1e9 / static_cast<double>(kOps);
}

// Cost of a disarmed telemetry site: one relaxed load of the armed flag
// plus a predictable branch — the contract the STM commit-path
// instrumentation rests on (src/telemetry/telemetry.hpp).
double bench_telemetry_count_disarmed_ns() {
  constexpr std::uint64_t kOps = 1 << 23;
  telemetry::Counter& counter =
      telemetry::registry().counter("bench_telemetry_probe_total");
  const double start = now_seconds();
  for (std::uint64_t i = 0; i < kOps; ++i) {
    if (telemetry::armed()) [[unlikely]] counter.add();
  }
  return (now_seconds() - start) * 1e9 / static_cast<double>(kOps);
}

// Cost of an armed counter increment: the flag load plus one relaxed
// fetch_add on this thread's stripe cell.
double bench_telemetry_count_armed_ns() {
  constexpr std::uint64_t kOps = 1 << 22;
  telemetry::Counter& counter =
      telemetry::registry().counter("bench_telemetry_probe_total");
  telemetry::Armed armed;
  const double start = now_seconds();
  for (std::uint64_t i = 0; i < kOps; ++i) {
    if (telemetry::armed()) [[unlikely]] counter.add();
  }
  return (now_seconds() - start) * 1e9 / static_cast<double>(kOps);
}

stm::Runtime& bench_runtime() {
  // Pinned to the orec backend: the gated stm_* metrics are the orec
  // hot-path regression gate and must not silently follow
  // RUBIC_STM_BACKEND; the micro_backend_compare suite covers the rest.
  static stm::Runtime runtime([] {
    stm::RuntimeConfig cfg;
    cfg.backend = stm::BackendKind::kOrecSwiss;
    return cfg;
  }());
  return runtime;
}

stm::TxnDesc& bench_ctx() {
  static thread_local stm::TxnDesc& ctx = bench_runtime().register_thread();
  return ctx;
}

double bench_stm_read_only_1_ns() {
  constexpr std::uint64_t kOps = 1 << 20;
  static stm::TVar<std::int64_t> x(42);
  auto& ctx = bench_ctx();
  std::int64_t sum = 0;
  const double start = now_seconds();
  for (std::uint64_t i = 0; i < kOps; ++i) {
    sum += stm::atomically(ctx, [&](stm::Txn& tx) { return x.read(tx); });
  }
  const double elapsed = now_seconds() - start;
  if (sum == -1) std::abort();  // defeat dead-code elimination
  return elapsed * 1e9 / static_cast<double>(kOps);
}

double bench_stm_write_1_ns() {
  constexpr std::uint64_t kOps = 1 << 19;
  static stm::TVar<std::int64_t> x(0);
  auto& ctx = bench_ctx();
  const double start = now_seconds();
  for (std::uint64_t i = 0; i < kOps; ++i) {
    stm::atomically(ctx, [&](stm::Txn& tx) {
      x.write(tx, static_cast<std::int64_t>(i));
    });
  }
  return (now_seconds() - start) * 1e9 / static_cast<double>(kOps);
}

// The read set grown to 16 words: the per-read cost beyond the 1-word
// transaction's fixed begin/commit overhead.
double bench_stm_read_only_16_ns() {
  constexpr std::uint64_t kOps = 1 << 18;
  std::vector<stm::TVar<std::int64_t>> vars(16);
  auto& ctx = bench_ctx();
  std::int64_t sum = 0;
  const double start = now_seconds();
  for (std::uint64_t i = 0; i < kOps; ++i) {
    sum += stm::atomically(ctx, [&](stm::Txn& tx) {
      std::int64_t total = 0;
      for (auto& v : vars) total += v.read(tx);
      return total;
    });
  }
  const double elapsed = now_seconds() - start;
  if (sum == -1) std::abort();  // defeat dead-code elimination
  return elapsed * 1e9 / static_cast<double>(kOps);
}

// Section 3.1's per-worker task counter: its single writer bumps it with a
// relaxed load and store; kRmw times the locked fetch_add it avoids.
template <bool kRmw>
double bench_counter_ns() {
  constexpr std::uint64_t kOps = 1 << 24;
  std::atomic<std::uint64_t> counter{0};
  const double start = now_seconds();
  for (std::uint64_t i = 0; i < kOps; ++i) {
    if constexpr (kRmw) {
      counter.fetch_add(1, std::memory_order_relaxed);
    } else {
      counter.store(counter.load(std::memory_order_relaxed) + 1,
                    std::memory_order_relaxed);
    }
  }
  const double elapsed = now_seconds() - start;
  if (counter.load() != kOps) std::abort();
  return elapsed * 1e9 / static_cast<double>(kOps);
}

tds::RbTree& bench_tree() {
  static tds::RbTree tree;
  static bool populated = [] {
    auto& ctx = bench_ctx();
    for (std::int64_t i = 0; i < 4096; ++i) {
      stm::atomically(ctx, [&](stm::Txn& tx) { tree.insert(tx, i * 2, i); });
    }
    return true;
  }();
  (void)populated;
  return tree;
}

double bench_stm_rbtree_lookup_ns() {
  constexpr std::uint64_t kOps = 1 << 17;
  auto& tree = bench_tree();
  auto& ctx = bench_ctx();
  std::int64_t key = 0;
  bool found = false;
  const double start = now_seconds();
  for (std::uint64_t i = 0; i < kOps; ++i) {
    key = (key + 101) % 8192;
    found ^= stm::atomically(
        ctx, [&](stm::Txn& tx) { return tree.contains(tx, key); });
  }
  const double elapsed = now_seconds() - start;
  if (found && key == -1) std::abort();
  return elapsed * 1e9 / static_cast<double>(kOps);
}

// --- malleable-runtime hot paths (micro_runtime_overhead suite) ---

// The worker's pool-gate check (Alg. 1 line 8): one acquire load of the
// level word and a compare, the whole syscall-free task-acquisition path.
double bench_pool_gate_check_ns() {
  constexpr std::uint64_t kOps = 1 << 24;
  alignas(util::kCacheLineSize) std::atomic<int> level{4};
  const int tid = 2;
  std::uint64_t active = 0;
  const double start = now_seconds();
  for (std::uint64_t i = 0; i < kOps; ++i) {
    active += tid < level.load(std::memory_order_acquire) ? 1 : 0;
  }
  const double elapsed = now_seconds() - start;
  if (active != kOps) std::abort();
  return elapsed * 1e9 / static_cast<double>(kOps);
}

// The monitor's throughput sample: summing 64 cache-line-padded per-worker
// counters, once per monitor period.
double bench_monitor_sample_64_ns() {
  constexpr std::uint64_t kOps = 1 << 18;
  std::vector<util::CacheAligned<std::atomic<std::uint64_t>>> counters(64);
  for (auto& counter : counters) counter.value.store(123);
  std::uint64_t total = 0;
  const double start = now_seconds();
  for (std::uint64_t i = 0; i < kOps; ++i) {
    for (auto& counter : counters) {
      total += counter.value.load(std::memory_order_relaxed);
    }
  }
  const double elapsed = now_seconds() - start;
  if (total != kOps * 64 * 123) std::abort();
  return elapsed * 1e9 / static_cast<double>(kOps);
}

// One full RUBIC decision round on a steadily rising throughput (x1.001
// per round; 2^19 rounds stay finite, about 1e227).
double bench_rubic_on_sample_ns() {
  constexpr std::uint64_t kOps = 1 << 19;
  control::RubicController controller(control::LevelBounds{1, 128});
  double throughput = 1000.0;
  std::int64_t levels = 0;
  const double start = now_seconds();
  for (std::uint64_t i = 0; i < kOps; ++i) {
    throughput *= 1.001;
    levels += controller.on_sample(throughput);
  }
  const double elapsed = now_seconds() - start;
  if (levels == -1) std::abort();
  return elapsed * 1e9 / static_cast<double>(kOps);
}

// --- cross-backend micro comparison (micro_backend_compare suite) ---
//
// Each bench builds a fresh runtime on the requested backend so orec and
// NOrec run the identical op sequence on identical state; setup (runtime
// construction, tree population, warm-up) is excluded from the timed
// region. Single-threaded and uncontended: these compare the protocols'
// instruction-path costs, not their conflict behaviour.

double bench_backend_read1_ns(stm::BackendKind backend) {
  constexpr std::uint64_t kOps = 1 << 18;
  stm::RuntimeConfig cfg;
  cfg.backend = backend;
  stm::Runtime rt(cfg);
  stm::TxnDesc& ctx = rt.register_thread();
  stm::TVar<std::int64_t> x(42);
  std::int64_t sum = 0;
  for (int i = 0; i < 1024; ++i) {  // warm-up
    sum += stm::atomically(ctx, [&](stm::Txn& tx) { return x.read(tx); });
  }
  const double start = now_seconds();
  for (std::uint64_t i = 0; i < kOps; ++i) {
    sum += stm::atomically(ctx, [&](stm::Txn& tx) { return x.read(tx); });
  }
  const double elapsed = now_seconds() - start;
  if (sum == -1) std::abort();  // defeat dead-code elimination
  return elapsed * 1e9 / static_cast<double>(kOps);
}

double bench_backend_write1_ns(stm::BackendKind backend) {
  constexpr std::uint64_t kOps = 1 << 17;
  stm::RuntimeConfig cfg;
  cfg.backend = backend;
  stm::Runtime rt(cfg);
  stm::TxnDesc& ctx = rt.register_thread();
  stm::TVar<std::int64_t> x(0);
  for (int i = 0; i < 1024; ++i) {  // warm-up
    stm::atomically(ctx, [&](stm::Txn& tx) { x.write(tx, i); });
  }
  const double start = now_seconds();
  for (std::uint64_t i = 0; i < kOps; ++i) {
    stm::atomically(ctx, [&](stm::Txn& tx) {
      x.write(tx, static_cast<std::int64_t>(i));
    });
  }
  return (now_seconds() - start) * 1e9 / static_cast<double>(kOps);
}

// Read-modify-write over 8 words: the mixed transaction shape where the
// protocols genuinely differ (orec: 8 orec loads + 8 lock acquisitions;
// NOrec: 8 value records + one sequence CAS).
double bench_backend_rmw8_ns(stm::BackendKind backend) {
  constexpr std::uint64_t kOps = 1 << 16;
  constexpr int kWords = 8;
  stm::RuntimeConfig cfg;
  cfg.backend = backend;
  stm::Runtime rt(cfg);
  stm::TxnDesc& ctx = rt.register_thread();
  std::vector<stm::TVar<std::int64_t>> words(kWords);
  const auto rmw = [&](stm::Txn& tx) {
    for (auto& w : words) w.write(tx, w.read(tx) + 1);
  };
  for (int i = 0; i < 256; ++i) {  // warm-up
    stm::atomically(ctx, rmw);
  }
  const double start = now_seconds();
  for (std::uint64_t i = 0; i < kOps; ++i) {
    stm::atomically(ctx, rmw);
  }
  return (now_seconds() - start) * 1e9 / static_cast<double>(kOps);
}

double bench_backend_rbtree_lookup_ns(stm::BackendKind backend) {
  constexpr std::uint64_t kOps = 1 << 15;
  stm::RuntimeConfig cfg;
  cfg.backend = backend;
  stm::Runtime rt(cfg);
  stm::TxnDesc& ctx = rt.register_thread();
  tds::RbTree tree;
  for (std::int64_t i = 0; i < 4096; ++i) {
    stm::atomically(ctx, [&](stm::Txn& tx) { tree.insert(tx, i * 2, i); });
  }
  std::int64_t key = 0;
  bool found = false;
  const double start = now_seconds();
  for (std::uint64_t i = 0; i < kOps; ++i) {
    key = (key + 101) % 8192;
    found ^= stm::atomically(
        ctx, [&](stm::Txn& tx) { return tree.contains(tx, key); });
  }
  const double elapsed = now_seconds() - start;
  if (found && key == -1) std::abort();
  return elapsed * 1e9 / static_cast<double>(kOps);
}

// The acceptance number: relative throughput cost of *disarmed* tracing on
// a representative transactional task. Loop A performs rb-tree lookup
// transactions (which already contain their intrinsic begin+commit probes);
// loop B adds exactly two more explicit disarmed probes per op — doubling
// the probe count per transaction. The relative slowdown of B therefore
// estimates the full disarmed instrumentation cost of A itself. Min over
// interleaved rounds is the noise estimator: the minimum is the run least
// disturbed by the scheduler, and interleaving cancels slow drift.
double bench_runtime_overhead_disarmed_pct() {
  constexpr std::uint64_t kOps = 1 << 15;
  constexpr int kRounds = 6;
  auto& tree = bench_tree();
  auto& ctx = bench_ctx();
  const auto loop = [&](bool extra_probes) {
    std::int64_t key = 0;
    bool found = false;
    const double start = now_seconds();
    for (std::uint64_t i = 0; i < kOps; ++i) {
      key = (key + 101) % 8192;
      found ^= stm::atomically(
          ctx, [&](stm::Txn& tx) { return tree.contains(tx, key); });
      if (extra_probes) {
        trace::emit(trace::EventType::kTxnBegin, 0, i);
        trace::emit(trace::EventType::kTxnCommit, 0, i);
      }
    }
    const double elapsed = now_seconds() - start;
    if (found && key == -1) std::abort();
    return elapsed;
  };
  double plain = loop(false);   // warm-up round, also seeds the minima
  double probed = loop(true);
  for (int round = 0; round < kRounds; ++round) {
    plain = std::min(plain, loop(false));
    probed = std::min(probed, loop(true));
  }
  return std::max(0.0, (probed - plain) / plain * 100.0);
}

// The telemetry acceptance number (same estimator as the trace one above):
// loop B adds two explicit *disarmed* telemetry probes per rb-tree lookup
// transaction, doubling the probe count the transaction's own begin/commit
// instrumentation already performs; the relative slowdown of B estimates
// the full disarmed telemetry cost of the transaction itself. The budget in
// docs/telemetry.md is <= 1% median.
double bench_stm_commit_telemetry_disarmed_pct() {
  constexpr std::uint64_t kOps = 1 << 15;
  constexpr int kRounds = 6;
  auto& tree = bench_tree();
  auto& ctx = bench_ctx();
  telemetry::Counter& counter =
      telemetry::registry().counter("bench_telemetry_probe_total");
  const auto loop = [&](bool extra_probes) {
    std::int64_t key = 0;
    bool found = false;
    const double start = now_seconds();
    for (std::uint64_t i = 0; i < kOps; ++i) {
      key = (key + 101) % 8192;
      found ^= stm::atomically(
          ctx, [&](stm::Txn& tx) { return tree.contains(tx, key); });
      if (extra_probes) {
        if (telemetry::armed()) [[unlikely]] counter.add();
        if (telemetry::armed()) [[unlikely]] counter.add();
      }
    }
    const double elapsed = now_seconds() - start;
    if (found && key == -1) std::abort();
    return elapsed;
  };
  double plain = loop(false);  // warm-up round, also seeds the minima
  double probed = loop(true);
  for (int round = 0; round < kRounds; ++round) {
    plain = std::min(plain, loop(false));
    probed = std::min(probed, loop(true));
  }
  return std::max(0.0, (probed - plain) / plain * 100.0);
}

// Armed counterpart: the same transaction loop with the registry live, so
// every commit pays the real striped-cell updates (counters, set-size and
// latency histograms). Arming is an observability action — this number is
// allowed to be visible, it is recorded for the docs, not gated.
double bench_stm_commit_telemetry_armed_pct() {
  constexpr std::uint64_t kOps = 1 << 15;
  constexpr int kRounds = 6;
  auto& tree = bench_tree();
  auto& ctx = bench_ctx();
  const auto loop = [&](bool armed_run) {
    if (armed_run) telemetry::arm();
    std::int64_t key = 0;
    bool found = false;
    const double start = now_seconds();
    for (std::uint64_t i = 0; i < kOps; ++i) {
      key = (key + 101) % 8192;
      found ^= stm::atomically(
          ctx, [&](stm::Txn& tx) { return tree.contains(tx, key); });
    }
    const double elapsed = now_seconds() - start;
    if (armed_run) telemetry::disarm();
    if (found && key == -1) std::abort();
    return elapsed;
  };
  double plain = loop(false);  // warm-up round, also seeds the minima
  double armed = loop(true);
  for (int round = 0; round < kRounds; ++round) {
    plain = std::min(plain, loop(false));
    armed = std::min(armed, loop(true));
  }
  return std::max(0.0, (armed - plain) / plain * 100.0);
}

// Cost of a disarmed profiler hook: one relaxed load of the armed flag
// plus a predictable branch — the contract the abort-path attribution
// sites rest on (src/stm/profiler.hpp).
double bench_profiler_record_disarmed_ns() {
  constexpr std::uint64_t kOps = 1 << 23;
  const double start = now_seconds();
  for (std::uint64_t i = 0; i < kOps; ++i) {
    if (stm::profiler::armed()) [[unlikely]] {
      stm::profiler::record(i & 1023, stm::BackendKind::kOrecSwiss,
                            stm::AbortCause::kWriteConflict,
                            stm::profiler::kUnlabeled,
                            stm::profiler::kUnlabeled);
    }
  }
  return (now_seconds() - start) * 1e9 / static_cast<double>(kOps);
}

// Cost of an armed record(): sampling check, open-addressed probe to this
// thread's slot, relaxed count bump. Rotating over 1024 stripes keeps the
// table warm without overflowing the probe window.
double bench_profiler_record_armed_ns() {
  constexpr std::uint64_t kOps = 1 << 21;
  stm::profiler::Armed armed;
  const double start = now_seconds();
  for (std::uint64_t i = 0; i < kOps; ++i) {
    if (stm::profiler::armed()) [[unlikely]] {
      stm::profiler::record(i & 1023, stm::BackendKind::kOrecSwiss,
                            stm::AbortCause::kWriteConflict,
                            stm::profiler::kUnlabeled,
                            stm::profiler::kUnlabeled);
    }
  }
  return (now_seconds() - start) * 1e9 / static_cast<double>(kOps);
}

// The profiler acceptance number (same estimator as the telemetry one
// above): loop B adds two explicit *disarmed* profiler probes per rb-tree
// lookup transaction — more than the transaction's own abort-path hooks
// ever execute on the commit path, since the profiler instruments aborts
// only. The relative slowdown of B bounds the disarmed profiler cost of
// the transaction itself; the budget in docs/observability.md is <= 1%
// median.
double bench_stm_commit_profiler_disarmed_pct() {
  constexpr std::uint64_t kOps = 1 << 15;
  constexpr int kRounds = 6;
  auto& tree = bench_tree();
  auto& ctx = bench_ctx();
  const auto loop = [&](bool extra_probes) {
    std::int64_t key = 0;
    bool found = false;
    const double start = now_seconds();
    for (std::uint64_t i = 0; i < kOps; ++i) {
      key = (key + 101) % 8192;
      found ^= stm::atomically(
          ctx, [&](stm::Txn& tx) { return tree.contains(tx, key); });
      if (extra_probes) {
        if (stm::profiler::armed()) [[unlikely]] {
          stm::profiler::record(i & 1023, stm::BackendKind::kOrecSwiss,
                                stm::AbortCause::kWriteConflict,
                                stm::profiler::kUnlabeled,
                                stm::profiler::kUnlabeled);
        }
        if (stm::profiler::armed()) [[unlikely]] {
          stm::profiler::record(i & 1023, stm::BackendKind::kOrecSwiss,
                                stm::AbortCause::kReadConflict,
                                stm::profiler::kUnlabeled,
                                stm::profiler::kUnlabeled);
        }
      }
    }
    const double elapsed = now_seconds() - start;
    if (found && key == -1) std::abort();
    return elapsed;
  };
  double plain = loop(false);  // warm-up round, also seeds the minima
  double probed = loop(true);
  for (int round = 0; round < kRounds; ++round) {
    plain = std::min(plain, loop(false));
    probed = std::min(probed, loop(true));
  }
  return std::max(0.0, (probed - plain) / plain * 100.0);
}

// --- transactional data-structure micro benches (micro_tds suite) ---

constexpr std::int64_t kSynchroBenchKeys = 1024;

// A structure holding keys 0..kSynchroBenchKeys-1, each mapped to itself.
std::unique_ptr<tds::TMap> prefilled_structure(std::string_view structure) {
  tds::StructureConfig cfg;
  cfg.capacity_hint = kSynchroBenchKeys;
  std::unique_ptr<tds::TMap> map = tds::make_structure(structure, cfg);
  auto& ctx = bench_ctx();
  for (std::int64_t k = 0; k < kSynchroBenchKeys; ++k) {
    stm::atomically(ctx, [&](stm::Txn& tx) { map->insert(tx, k, k); });
  }
  return map;
}

// One cell per tds structure: a single-threaded uncontended
// remove-then-insert pair over a prefilled instance on the orec backend —
// each structure's transactional write path end to end (skiplist tower
// unlink/relink, B+-tree in-node key-array shifts, rb-tree rebalance,
// bucket-chain splice, sorted-list splice). Uncontended and seeded, so the
// skiplist/btree cells are stable enough to gate in ci-fast.
double bench_synchro_rmw_ns(std::string_view structure) {
  constexpr std::uint64_t kOps = 1 << 14;  // one op = remove + insert
  constexpr std::int64_t kKeys = kSynchroBenchKeys;
  const std::unique_ptr<tds::TMap> map = prefilled_structure(structure);
  auto& ctx = bench_ctx();
  std::int64_t key = 0;
  const double start = now_seconds();
  for (std::uint64_t i = 0; i < kOps; ++i) {
    key = (key + 401) % kKeys;  // gcd(401, 1024) = 1: full-cycle walk
    stm::atomically(ctx, [&](stm::Txn& tx) {
      if (!map->remove(tx, key) || !map->insert(tx, key, key)) std::abort();
    });
  }
  const double elapsed = now_seconds() - start;
  if (key == -1) std::abort();
  return elapsed * 1e9 / static_cast<double>(kOps);
}

// One range scan per structure: a single-threaded 64-key window over the
// same prefilled 1024-key instance, sliding across the key space — the
// read-only scan path (in-order walk, list chain, leaf chain, level-0 chain,
// per-key hash probes). Recorded for cross-structure comparison, never gated.
double bench_synchro_scan_ns(std::string_view structure) {
  constexpr std::uint64_t kOps = 1 << 12;
  constexpr std::int64_t kWindow = 64;
  const std::unique_ptr<tds::TMap> map = prefilled_structure(structure);
  auto& ctx = bench_ctx();
  std::int64_t lo = 0;
  std::int64_t sum = 0;
  const double start = now_seconds();
  for (std::uint64_t i = 0; i < kOps; ++i) {
    lo = (lo + 401) % (kSynchroBenchKeys - kWindow);
    const std::size_t visited = stm::atomically(ctx, [&](stm::Txn& tx) {
      return map->range_scan(tx, lo, lo + kWindow,
                             [&](std::int64_t, std::int64_t v) { sum += v; });
    });
    if (visited != static_cast<std::size_t>(kWindow)) std::abort();
  }
  const double elapsed = now_seconds() - start;
  if (sum == -1) std::abort();
  return elapsed * 1e9 / static_cast<double>(kOps);
}

// --- traffic subsystem micro benches (micro_traffic suite) ---

// Cost of one YCSB zipfian draw at the production size/skew — paid once per
// generated request at schedule-build time.
double bench_traffic_zipf_sample_ns() {
  constexpr std::uint64_t kOps = 1 << 22;
  traffic::ZipfianSampler sampler(16384, 0.99);
  util::Xoshiro256 rng(7);
  std::uint64_t acc = 0;
  const double start = now_seconds();
  for (std::uint64_t i = 0; i < kOps; ++i) acc += sampler.sample(rng);
  const double elapsed = now_seconds() - start;
  if (acc == ~std::uint64_t{0}) std::abort();  // defeat dead-code elimination
  return elapsed * 1e9 / static_cast<double>(kOps);
}

// Per-request cost of precomputing an arrival schedule (Poisson inversion,
// op draw, key fill, request append). Allocation-inclusive by design — this
// is the real pre-run latency a traffic run pays.
double bench_traffic_arrival_gen_ns() {
  traffic::TrafficConfig config;
  config.mix = "ycsb-a";
  config.keys = 8192;
  config.accounts = 128;
  config.clients = 32;
  config.seed = 29;
  config.curve = "constant:rate=100000,seconds=1";
  const double start = now_seconds();
  const traffic::Schedule schedule = traffic::build_schedule(config);
  const double elapsed = now_seconds() - start;
  if (schedule.requests.empty()) std::abort();
  return elapsed * 1e9 / static_cast<double>(schedule.requests.size());
}

// Closed-loop per-request service cost on the orec backend: one thread
// drains a halted schedule (halt() skips the arrival waits) back-to-back,
// so the number is the KV transaction + verification bookkeeping itself,
// not open-loop idle time. Map population is excluded from the timed
// region.
double bench_traffic_kv_request_ns() {
  traffic::TrafficConfig config;
  config.mix = "ycsb-b";
  config.keys = 4096;
  config.accounts = 64;
  config.clients = 16;
  config.seed = 17;
  config.curve = "constant:rate=40000,seconds=1";
  stm::RuntimeConfig cfg;
  cfg.backend = stm::BackendKind::kOrecSwiss;
  stm::Runtime rt(cfg);
  traffic::KvTrafficWorkload workload(rt, traffic::build_schedule(config));
  const auto total =
      static_cast<double>(workload.schedule().requests.size());
  workload.halt();
  stm::TxnDesc& ctx = rt.register_thread();
  util::Xoshiro256 rng(23);
  const double start = now_seconds();
  while (!workload.done()) workload.run_task(ctx, rng);
  return (now_seconds() - start) * 1e9 / total;
}

// Scenario: one tuned process (RUBIC policy) on the rb-set microbenchmark.
// Wall-clock tasks/s — recorded, never gated.
double bench_tuned_process_tasks_per_s(milliseconds run_ms) {
  stm::Runtime rt;
  workloads::RbSetWorkload workload(rt, workloads::RbSetParams::tiny());
  control::RubicController controller(control::LevelBounds{1, 4});
  runtime::ProcessConfig config;
  config.pool.pool_size = 4;
  config.monitor.period = milliseconds(10);
  config.monitor.stm_runtime = &rt;
  runtime::TunedProcess process(rt, workload, controller, config);
  return process.run_for(run_ms).tasks_per_second;
}

// Scenario: two tuned processes co-located in one address space (each with
// its own STM runtime, pool and RUBIC controller) contending for the
// machine. Combined tasks/s — recorded, never gated.
double bench_colocate_pair_tasks_per_s(milliseconds run_ms) {
  struct Instance {
    stm::Runtime rt;
    workloads::RbSetWorkload workload{rt, workloads::RbSetParams::tiny()};
    control::RubicController controller{control::LevelBounds{1, 4}};
    double tasks_per_second = 0.0;
  };
  Instance a, b;
  const auto run_one = [run_ms](Instance& inst) {
    runtime::ProcessConfig config;
    config.pool.pool_size = 4;
    config.monitor.period = milliseconds(10);
    config.monitor.stm_runtime = &inst.rt;
    runtime::TunedProcess process(inst.rt, inst.workload, inst.controller,
                                  config);
    inst.tasks_per_second = process.run_for(run_ms).tasks_per_second;
  };
  std::thread tb(run_one, std::ref(b));
  run_one(a);
  tb.join();
  return a.tasks_per_second + b.tasks_per_second;
}

// --- harness ---

struct BenchDef {
  std::string name;
  std::string metric;  // unit label, e.g. "ns_per_op", "percent", "tasks_per_s"
  std::string better;  // "lower" | "higher"
  bool gate = false;   // feeds the CI regression gate (stable metrics only)
  bool scenario = false;  // armed under --trace-out (micro benches never are)
  std::function<double()> run;
};

std::vector<BenchDef> make_benches(milliseconds scenario_ms) {
  return {
      {"trace_emit_disarmed_ns", "ns_per_op", "lower", true, false,
       bench_trace_emit_disarmed_ns},
      {"trace_emit_armed_ns", "ns_per_op", "lower", true, false,
       bench_trace_emit_armed_ns},
      {"stm_read_only_1_ns", "ns_per_op", "lower", true, false,
       bench_stm_read_only_1_ns},
      {"stm_write_1_ns", "ns_per_op", "lower", true, false,
       bench_stm_write_1_ns},
      {"stm_rbtree_lookup_ns", "ns_per_op", "lower", true, false,
       bench_stm_rbtree_lookup_ns},
      // Section 4.5's "negligible overhead" primitives, recorded for
      // EXPERIMENTS.md and never gated.
      {"stm_read_only_16_ns", "ns_per_op", "lower", false, false,
       bench_stm_read_only_16_ns},
      {"counter_single_writer_ns", "ns_per_op", "lower", false, false,
       bench_counter_ns<false>},
      {"counter_atomic_rmw_ns", "ns_per_op", "lower", false, false,
       bench_counter_ns<true>},
      {"pool_gate_check_ns", "ns_per_op", "lower", false, false,
       bench_pool_gate_check_ns},
      {"monitor_sample_64_ns", "ns_per_op", "lower", false, false,
       bench_monitor_sample_64_ns},
      {"rubic_on_sample_ns", "ns_per_op", "lower", false, false,
       bench_rubic_on_sample_ns},
      {"runtime_overhead_disarmed_pct", "percent", "lower", false, false,
       bench_runtime_overhead_disarmed_pct},
      {"telemetry_count_disarmed_ns", "ns_per_op", "lower", true, false,
       bench_telemetry_count_disarmed_ns},
      {"telemetry_count_armed_ns", "ns_per_op", "lower", true, false,
       bench_telemetry_count_armed_ns},
      {"stm_commit_telemetry_disarmed_pct", "percent", "lower", false, false,
       bench_stm_commit_telemetry_disarmed_pct},
      {"stm_commit_telemetry_armed_pct", "percent", "lower", false, false,
       bench_stm_commit_telemetry_armed_pct},
      {"profiler_record_disarmed_ns", "ns_per_op", "lower", true, false,
       bench_profiler_record_disarmed_ns},
      {"profiler_record_armed_ns", "ns_per_op", "lower", true, false,
       bench_profiler_record_armed_ns},
      {"stm_commit_profiler_disarmed_pct", "percent", "lower", false, false,
       bench_stm_commit_profiler_disarmed_pct},
      // Cross-backend grid: the rmw8 numbers are gated for every engine (it
      // is each protocol's commit hot path end to end: reads, lock
      // acquisition, validation, write-back, release); the
      // read/write/lookup cells are recorded for cross-engine medians.
      {"backend_orec_read1_ns", "ns_per_op", "lower", false, false,
       [] { return bench_backend_read1_ns(stm::BackendKind::kOrecSwiss); }},
      {"backend_norec_read1_ns", "ns_per_op", "lower", false, false,
       [] { return bench_backend_read1_ns(stm::BackendKind::kNorec); }},
      {"backend_tl2_read1_ns", "ns_per_op", "lower", false, false,
       [] { return bench_backend_read1_ns(stm::BackendKind::kTl2); }},
      {"backend_orec_write1_ns", "ns_per_op", "lower", false, false,
       [] { return bench_backend_write1_ns(stm::BackendKind::kOrecSwiss); }},
      {"backend_norec_write1_ns", "ns_per_op", "lower", false, false,
       [] { return bench_backend_write1_ns(stm::BackendKind::kNorec); }},
      {"backend_tl2_write1_ns", "ns_per_op", "lower", false, false,
       [] { return bench_backend_write1_ns(stm::BackendKind::kTl2); }},
      {"backend_orec_rmw8_ns", "ns_per_op", "lower", true, false,
       [] { return bench_backend_rmw8_ns(stm::BackendKind::kOrecSwiss); }},
      {"backend_norec_rmw8_ns", "ns_per_op", "lower", false, false,
       [] { return bench_backend_rmw8_ns(stm::BackendKind::kNorec); }},
      {"backend_tl2_rmw8_ns", "ns_per_op", "lower", true, false,
       [] { return bench_backend_rmw8_ns(stm::BackendKind::kTl2); }},
      {"backend_orec_rbtree_lookup_ns", "ns_per_op", "lower", false, false,
       [] {
         return bench_backend_rbtree_lookup_ns(stm::BackendKind::kOrecSwiss);
       }},
      {"backend_norec_rbtree_lookup_ns", "ns_per_op", "lower", false, false,
       [] { return bench_backend_rbtree_lookup_ns(stm::BackendKind::kNorec); }},
      {"backend_tl2_rbtree_lookup_ns", "ns_per_op", "lower", false, false,
       [] { return bench_backend_rbtree_lookup_ns(stm::BackendKind::kTl2); }},
      // Per-structure RMW cells (src/tds/): the two new index structures
      // are gated — they are this PR's regression surface; the adapted
      // containers are recorded for cross-structure comparison.
      {"synchro_btree_rmw_ns", "ns_per_op", "lower", true, false,
       [] { return bench_synchro_rmw_ns("btree"); }},
      {"synchro_hashmap_rmw_ns", "ns_per_op", "lower", false, false,
       [] { return bench_synchro_rmw_ns("hashmap"); }},
      {"synchro_list_rmw_ns", "ns_per_op", "lower", false, false,
       [] { return bench_synchro_rmw_ns("list"); }},
      {"synchro_rbtree_rmw_ns", "ns_per_op", "lower", false, false,
       [] { return bench_synchro_rmw_ns("rbtree"); }},
      {"synchro_skiplist_rmw_ns", "ns_per_op", "lower", true, false,
       [] { return bench_synchro_rmw_ns("skiplist"); }},
      // Per-structure scan cells: recorded, not gated.
      {"synchro_btree_scan_ns", "ns_per_op", "lower", false, false,
       [] { return bench_synchro_scan_ns("btree"); }},
      {"synchro_hashmap_scan_ns", "ns_per_op", "lower", false, false,
       [] { return bench_synchro_scan_ns("hashmap"); }},
      {"synchro_list_scan_ns", "ns_per_op", "lower", false, false,
       [] { return bench_synchro_scan_ns("list"); }},
      {"synchro_rbtree_scan_ns", "ns_per_op", "lower", false, false,
       [] { return bench_synchro_scan_ns("rbtree"); }},
      {"synchro_skiplist_scan_ns", "ns_per_op", "lower", false, false,
       [] { return bench_synchro_scan_ns("skiplist"); }},
      // Traffic subsystem: the sampler and the closed-loop request costs
      // are stable single-threaded micro paths (gated); schedule
      // generation is allocation-heavy and only recorded.
      {"traffic_zipf_sample_ns", "ns_per_op", "lower", true, false,
       bench_traffic_zipf_sample_ns},
      {"traffic_arrival_gen_ns", "ns_per_op", "lower", false, false,
       bench_traffic_arrival_gen_ns},
      {"traffic_kv_request_ns", "ns_per_op", "lower", true, false,
       bench_traffic_kv_request_ns},
      {"tuned_process_tasks_per_s", "tasks_per_s", "higher", false, true,
       [scenario_ms] {
         return bench_tuned_process_tasks_per_s(scenario_ms);
       }},
      {"colocate_pair_tasks_per_s", "tasks_per_s", "higher", false, true,
       [scenario_ms] {
         return bench_colocate_pair_tasks_per_s(scenario_ms);
       }},
  };
}

// suite → bench-name membership. "all" means every bench.
std::vector<std::string> suite_members(const std::string& suite) {
  if (suite == "micro_stm_overhead") {
    return {"stm_read_only_1_ns",       "stm_write_1_ns",
            "stm_rbtree_lookup_ns",     "stm_read_only_16_ns",
            "counter_single_writer_ns", "counter_atomic_rmw_ns"};
  }
  if (suite == "micro_runtime_overhead") {
    return {"trace_emit_disarmed_ns", "trace_emit_armed_ns",
            "runtime_overhead_disarmed_pct", "pool_gate_check_ns",
            "monitor_sample_64_ns", "rubic_on_sample_ns",
            "tuned_process_tasks_per_s"};
  }
  if (suite == "colocate") {
    return {"colocate_pair_tasks_per_s"};
  }
  if (suite == "micro_telemetry_overhead") {
    return {"telemetry_count_disarmed_ns", "telemetry_count_armed_ns",
            "stm_commit_telemetry_disarmed_pct",
            "stm_commit_telemetry_armed_pct"};
  }
  if (suite == "micro_backend_compare") {
    // The full engine grid on identical single-threaded op sequences —
    // one (backend, op) cell per entry (ci-fast gates
    // backend_orec_rmw8_ns).
    return {"backend_orec_read1_ns",         "backend_norec_read1_ns",
            "backend_tl2_read1_ns",          "backend_orec_write1_ns",
            "backend_norec_write1_ns",       "backend_tl2_write1_ns",
            "backend_orec_rmw8_ns",          "backend_norec_rmw8_ns",
            "backend_tl2_rmw8_ns",           "backend_orec_rbtree_lookup_ns",
            "backend_norec_rbtree_lookup_ns", "backend_tl2_rbtree_lookup_ns"};
  }
  if (suite == "micro_profiler_overhead") {
    // Contention-profiler cost contract (src/stm/profiler.hpp): the
    // disarmed hook and the armed sample path, plus the commit-path
    // disarmed-delta acceptance percentage.
    return {"profiler_record_disarmed_ns", "profiler_record_armed_ns",
            "stm_commit_profiler_disarmed_pct"};
  }
  if (suite == "micro_tds") {
    // One RMW and one scan cell per data structure in src/tds/ (same op
    // sequence, same seed); docs/datastructures.md reads these side by side.
    return {"synchro_btree_rmw_ns",    "synchro_hashmap_rmw_ns",
            "synchro_list_rmw_ns",     "synchro_rbtree_rmw_ns",
            "synchro_skiplist_rmw_ns", "synchro_btree_scan_ns",
            "synchro_hashmap_scan_ns", "synchro_list_scan_ns",
            "synchro_rbtree_scan_ns",  "synchro_skiplist_scan_ns"};
  }
  if (suite == "micro_traffic") {
    // Traffic generator + KV service hot paths (src/traffic/).
    return {"traffic_zipf_sample_ns", "traffic_arrival_gen_ns",
            "traffic_kv_request_ns"};
  }
  if (suite == "ci-fast") {
    // The CI gate set: every gated micro metric plus the headline disarmed
    // overhead percentages, sized to finish in about a minute.
    return {"trace_emit_disarmed_ns", "trace_emit_armed_ns",
            "stm_read_only_1_ns", "stm_write_1_ns", "stm_rbtree_lookup_ns",
            "backend_orec_rmw8_ns", "backend_tl2_rmw8_ns",
            "runtime_overhead_disarmed_pct", "telemetry_count_disarmed_ns",
            "telemetry_count_armed_ns", "stm_commit_telemetry_disarmed_pct",
            "profiler_record_disarmed_ns", "profiler_record_armed_ns",
            "stm_commit_profiler_disarmed_pct",
            "synchro_skiplist_rmw_ns", "synchro_btree_rmw_ns",
            "traffic_zipf_sample_ns", "traffic_arrival_gen_ns",
            "traffic_kv_request_ns"};
  }
  return {};
}

}  // namespace

int main(int argc, char** argv) {
  try {
    util::Cli cli(argc, argv);
    const bool list = cli.get_bool("list");
    const std::string suite = cli.get_string("suite", "ci-fast");
    const int reps = static_cast<int>(cli.get_int("reps", 5));
    const int scenario_seconds =
        static_cast<int>(cli.get_int("scenario-seconds", 1));
    const std::string out_path =
        cli.get_string("out", "BENCH_results.json");
    const std::string trace_out = cli.get_string("trace-out", "");
    const std::string git_sha_flag = cli.get_string("git-sha", "");
    cli.check_unknown();

    auto benches = make_benches(seconds(scenario_seconds));
    if (list) {
      std::printf("suites: micro_stm_overhead micro_runtime_overhead "
                  "micro_telemetry_overhead micro_profiler_overhead "
                  "micro_backend_compare micro_tds micro_traffic colocate "
                  "ci-fast all\nbenches:\n");
      for (const auto& bench : benches) {
        std::printf("  %-32s %-12s better=%s gate=%s\n", bench.name.c_str(),
                    bench.metric.c_str(), bench.better.c_str(),
                    bench.gate ? "yes" : "no");
      }
      return 0;
    }
    if (reps < 1) {
      std::fprintf(stderr, "rubic_bench: --reps must be >= 1\n");
      return 2;
    }

    std::vector<const BenchDef*> selected;
    if (suite == "all") {
      for (const auto& bench : benches) selected.push_back(&bench);
    } else {
      for (const std::string& name : suite_members(suite)) {
        for (const auto& bench : benches) {
          if (bench.name == name) selected.push_back(&bench);
        }
      }
    }
    if (selected.empty()) {
      std::fprintf(stderr,
                   "rubic_bench: unknown suite '%s' (try --list)\n",
                   suite.c_str());
      return 2;
    }

    // --trace-out: record the scenario benches' timelines (micro benches
    // run disarmed — arming them would perturb exactly what they measure).
    trace::Tracer scenario_tracer;
    const bool tracing = !trace_out.empty();

    std::printf("rubic_bench suite=%s reps=%d\n", suite.c_str(), reps);
    std::vector<telemetry::BenchCell> cells;
    for (const BenchDef* def : selected) {
      telemetry::BenchCell cell{def->name, def->metric, def->better, def->gate,
                                {}};
      for (int rep = 0; rep < reps; ++rep) {
        if (tracing && def->scenario) trace::arm(scenario_tracer);
        cell.values.push_back(def->run());
        if (tracing && def->scenario) trace::disarm();
      }
      const telemetry::BenchSummary s = telemetry::summarize_reps(cell.values);
      std::printf("  %-32s median=%.4g p95=%.4g min=%.4g %s\n",
                  def->name.c_str(), s.median, s.p95, s.min,
                  def->metric.c_str());
      cells.push_back(std::move(cell));
    }

    const std::string git_sha = telemetry::resolve_git_sha(git_sha_flag);
    const std::string report =
        telemetry::format_bench_results(suite, reps, git_sha, cells);
    if (!trace::write_file(out_path, report)) {
      std::fprintf(stderr, "rubic_bench: failed to write %s\n",
                   out_path.c_str());
      return 1;
    }
    std::printf("wrote %s (git %s)\n", out_path.c_str(),
                git_sha.substr(0, 12).c_str());
    if (tracing) {
      const std::string doc = trace::to_chrome_trace(
          scenario_tracer, static_cast<std::int64_t>(getpid()), "rubic_bench");
      if (!trace::write_file(trace_out, doc)) {
        std::fprintf(stderr, "rubic_bench: failed to write %s\n",
                     trace_out.c_str());
        return 1;
      }
      std::printf("wrote %s\n", trace_out.c_str());
    }
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "rubic_bench: %s\n", e.what());
    return 2;
  }
}
