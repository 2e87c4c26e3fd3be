#include "src/runtime/monitor.hpp"

#include <pthread.h>
#include <sched.h>

#include <array>
#include <cmath>
#include <optional>
#include <string>
#include <vector>

#include "src/fault/fault.hpp"
#include "src/ipc/colocation_bus.hpp"
#include "src/telemetry/audit.hpp"
#include "src/telemetry/telemetry.hpp"
#include "src/trace/trace.hpp"

namespace rubic::runtime {

namespace {

// Best-effort priority raise. SCHED_RR needs privileges; failing that, the
// monitor still works — it just competes with the workers like any thread
// (acceptable here because it sleeps ~100% of the time).
bool try_raise_priority() {
  sched_param param{};
  param.sched_priority = 1;
  return pthread_setschedparam(pthread_self(), SCHED_RR, &param) == 0;
}

}  // namespace

Monitor::Monitor(MalleablePool& pool, control::Controller& controller,
                 MonitorConfig config)
    : pool_(pool),
      guard_(controller, control::LevelBounds{1, pool.pool_size()}),
      config_(config) {
  pool_.set_level(guard_.initial_level());
  thread_ = std::thread([this] { loop(); });
}

Monitor::~Monitor() { stop(); }

std::optional<RoundRecord> Monitor::latest() const {
  std::lock_guard<std::mutex> lock(latest_mutex_);
  return latest_;
}

void Monitor::stop() {
  stopping_.store(true, std::memory_order_release);
  // All callers funnel through the join so each of them returns only once
  // the monitor thread is actually gone (see the contract in monitor.hpp).
  std::lock_guard<std::mutex> lock(join_mutex_);
  if (thread_.joinable()) thread_.join();
}

void Monitor::loop() {
  if (config_.raise_priority) priority_raised_ = try_raise_priority();

  using Clock = std::chrono::steady_clock;
  std::uint64_t last_completed = pool_.total_completed();
  auto last_time = Clock::now();

  const bool use_contention_signal =
      config_.stm_runtime != nullptr && guard_.consumes_contention();
  // The STM's commit ratio is tracked whenever a runtime is attached: the
  // contention-signal controllers consume it, and the co-location bus
  // publishes it for cross-process observers either way.
  const bool track_stm = config_.stm_runtime != nullptr;
  stm::TxnStatsSnapshot last_stm;
  if (track_stm) last_stm = config_.stm_runtime->aggregate_stats();

  const auto period_ns =
      std::chrono::duration_cast<std::chrono::nanoseconds>(config_.period);

  // Backend adaptation: only when the policy is a BackendAdapter and an STM
  // runtime is wired. Candidate names are resolved to engine kinds once; an
  // unresolvable name (custom candidate list) is simply never applied.
  const bool adapt_backend = track_stm && guard_.adapts_backend();
  std::vector<std::optional<stm::BackendKind>> candidate_kinds;
  if (adapt_backend) {
    for (const std::string& name : *guard_.backend_candidates()) {
      candidate_kinds.push_back(stm::parse_backend(name));
    }
  }
  // Per-backend commit-latency snapshot (the histogram is labelled by
  // backend, so each engine accumulates separately), indexed by kind.
  std::array<std::uint64_t, 8> last_lat_count{};
  std::array<std::uint64_t, 8> last_lat_sum{};

  // The policy's phase, held across overrun rounds; trace events are
  // emitted on *changes* only.
  control::DecisionInfo phase = guard_.decision_info();

  while (!stopping_.load(std::memory_order_acquire)) {
    std::this_thread::sleep_for(config_.period);  // Alg. 2 line 3
    if (const fault::Fire f = fault::probe(fault::Site::kMonitorStall)) {
      // Injected tick stall: the monitor was preempted / descheduled.
      std::this_thread::sleep_for(std::chrono::duration<double, std::milli>(
          f.value < 0.0 ? 0.0 : f.value));
    }

    // --- measure -----------------------------------------------------------
    RoundRecord record;
    telemetry::AuditRecord& decision = record.decision;
    decision.round = rounds_.load(std::memory_order_relaxed);
    decision.prev = pool_.level();
    const auto now = Clock::now();
    record.tasks_completed = pool_.total_completed();
    record.duration =
        std::chrono::duration_cast<std::chrono::nanoseconds>(now - last_time);
    if (const fault::Fire f = fault::probe(fault::Site::kMonitorClockJump)) {
      // Injected clock jump: the round claims a scripted duration. Also the
      // determinism lever — with every round's duration scripted, the whole
      // trace is a pure function of the fault seed.
      record.duration = std::chrono::nanoseconds(
          f.value < 0.0 ? 0 : static_cast<std::int64_t>(f.value));
    }
    // Tasks per second over the *measured* period that just ended (commit-
    // rate analogue). Scaling by the nominal period would let an overrun
    // round report inflated tasks/sec.
    const double seconds =
        std::chrono::duration<double>(record.duration).count();
    const std::uint64_t tasks = record.tasks_completed - last_completed;
    record.throughput =
        seconds > 0.0 ? static_cast<double>(tasks) / seconds : 0.0;
    if (const fault::Fire f =
            fault::probe(fault::Site::kMonitorSampleCorrupt)) {
      record.throughput = f.value;
    }
    if (!std::isfinite(record.throughput) || record.throughput < 0.0) {
      // A corrupted sample carries no usable signal; 0.0 is the "no
      // progress" reading every policy already copes with.
      record.throughput = 0.0;
      decision.sanitized = true;
      sanitized_samples_.fetch_add(1, std::memory_order_acq_rel);
    }
    if (track_stm) {
      const stm::TxnStatsSnapshot now_stm =
          config_.stm_runtime->aggregate_stats();
      record.commits = now_stm.commits;
      record.aborts = now_stm.total_aborts();
      const std::uint64_t commits = record.commits - last_stm.commits;
      const std::uint64_t aborts = record.aborts - last_stm.total_aborts();
      last_stm = now_stm;
      if (commits + aborts != 0) {
        record.commit_ratio = static_cast<double>(commits) /
                              static_cast<double>(commits + aborts);
      }
    }
    decision.overrun =
        config_.overrun_factor > 0.0 &&
        record.duration > std::chrono::nanoseconds(static_cast<std::int64_t>(
                              config_.overrun_factor *
                              static_cast<double>(period_ns.count())));

    // --- decide: backend adaptation, then the level ------------------------
    // The order the audit replay mirrors; the two state machines are
    // independent. The signal is already finite here — the guard's
    // sanitization is a second line of defense — so the recorded values are
    // exactly what the adapter consumed, keeping replay byte-identical.
    if (adapt_backend && !decision.overrun) {
      decision.backend_valid = true;
      decision.backend_throughput = record.throughput;
      decision.backend_abort_rate = 1.0 - record.commit_ratio;
      const stm::BackendKind active = config_.stm_runtime->backend();
      if (telemetry::armed()) {
        telemetry::Histogram& latency = telemetry::registry().histogram(
            "rubic_stm_commit_latency_ns",
            {{"backend", std::string(stm::backend_name(active))}});
        const std::uint64_t count = latency.count();
        const std::uint64_t sum = latency.sum();
        const std::size_t slot = static_cast<std::size_t>(active) & 7;
        const std::uint64_t delta_count = count - last_lat_count[slot];
        const std::uint64_t delta_sum = sum - last_lat_sum[slot];
        last_lat_count[slot] = count;
        last_lat_sum[slot] = sum;
        if (delta_count > 0) {
          decision.backend_commit_lat_ns = static_cast<double>(delta_sum) /
                                           static_cast<double>(delta_count);
        }
      }
      const auto desired = static_cast<std::size_t>(guard_.on_backend_signal(
          {decision.backend_throughput, decision.backend_abort_rate,
           decision.backend_commit_lat_ns}));
      decision.backend = (*guard_.backend_candidates())[desired];
      const std::optional<stm::BackendKind> kind = candidate_kinds[desired];
      if (kind.has_value() && *kind != active) {
        // Fence the pool at a task boundary and retarget the runtime. A
        // still-active foreign context (a thread outside this pool mid-
        // transaction) makes try_set_backend refuse; the adapter re-asks
        // next round.
        pool_.run_quiesced([&] {
          decision.backend_switched =
              config_.stm_runtime->try_set_backend(*kind);
        });
        if (decision.backend_switched) {
          backend_switches_.fetch_add(1, std::memory_order_acq_rel);
          trace::emit(trace::EventType::kBackendSwitch,
                      static_cast<std::uint32_t>(active),
                      static_cast<std::uint64_t>(*kind));
          if (telemetry::armed()) [[unlikely]] {
            static telemetry::Counter& switches_total =
                telemetry::registry().counter("rubic_backend_switches_total");
            switches_total.add();
          }
        }
      }
    }
    if (track_stm) {
      record.backend = static_cast<int>(config_.stm_runtime->backend());
    }
    // The audit input is exactly what the guard was fed (post-monitor
    // sanitization), so an offline replay re-runs the identical decision.
    // On an overrun round the controller was skipped; the record carries
    // the discarded measurement for the human reader.
    decision.used_commit_ratio = use_contention_signal;
    decision.input =
        use_contention_signal ? record.commit_ratio : record.throughput;
    if (decision.overrun) {
      // The measurement covers a window the controller never asked about
      // (the monitor was starved); feeding it would punish the current
      // level for the scheduler's sins. Log, hold the level, move on.
      overrun_rounds_.fetch_add(1, std::memory_order_acq_rel);
      decision.next = decision.prev;
    } else if (use_contention_signal) {
      decision.next = guard_.on_commit_ratio(decision.input);
    } else {
      decision.next = guard_.on_sample(decision.input);
    }
    pool_.set_level(decision.next);
    trace::emit(trace::EventType::kMonitorRound,
                (decision.sanitized ? 1u : 0u) | (decision.overrun ? 2u : 0u),
                decision.round, record.throughput);
    if (!decision.overrun) {
      trace::emit(trace::EventType::kLevelDecision,
                  static_cast<std::uint32_t>(decision.prev),
                  static_cast<std::uint64_t>(decision.next), record.throughput);
      const control::DecisionInfo info = guard_.decision_info();
      if (info.valid && (!phase.valid || info.phase != phase.phase)) {
        trace::emit(trace::EventType::kPhaseChange, info.phase,
                    phase.valid ? phase.phase : ~std::uint64_t{0}, info.aux);
      }
      phase = info;
      if (info.valid) {
        decision.phase_valid = true;
        decision.phase = info.phase;
        decision.phase_name = std::string(info.phase_name);
        decision.aux = info.aux;
      }
    }
    record.phase = phase;

    last_completed = record.tasks_completed;
    last_time = now;
    publish(std::move(record));
    const std::uint64_t done =
        rounds_.fetch_add(1, std::memory_order_acq_rel) + 1;
    if (config_.max_rounds != 0 && done >= config_.max_rounds) break;
  }
}

void Monitor::publish(RoundRecord&& record) {
  const telemetry::AuditRecord& decision = record.decision;
  if (config_.audit != nullptr) config_.audit->append(decision);
  if (telemetry::armed()) [[unlikely]] {
    telemetry::Registry& reg = telemetry::registry();
    static telemetry::Counter& rounds_total =
        reg.counter("rubic_monitor_rounds_total");
    static telemetry::Counter& sanitized_total =
        reg.counter("rubic_monitor_sanitized_samples_total");
    static telemetry::Counter& overrun_total =
        reg.counter("rubic_monitor_overrun_rounds_total");
    static telemetry::Histogram& round_duration =
        reg.histogram("rubic_monitor_round_duration_ns");
    rounds_total.add();
    if (decision.sanitized) sanitized_total.add();
    if (decision.overrun) overrun_total.add();
    round_duration.observe(static_cast<std::uint64_t>(record.duration.count()));
  }
  if (config_.bus != nullptr) {
    ipc::SlotSample sample;
    sample.level = decision.next;
    sample.throughput = record.throughput;
    sample.commit_ratio = record.commit_ratio;
    sample.tasks_completed = record.tasks_completed;
    sample.commits = record.commits;
    sample.aborts = record.aborts;
    sample.backend = record.backend;
    config_.bus->publish(sample);
  }
  elapsed_ += record.duration;
  level_sum_ += decision.next;
  if (config_.record_trace) {
    trace_.push_back(MonitorSample{elapsed_, record.throughput, decision.next});
  }
  std::lock_guard<std::mutex> lock(latest_mutex_);
  latest_ = std::move(record);
}

}  // namespace rubic::runtime
