// Contention profiler (DESIGN: observability layer, conflict attribution).
//
// The telemetry counters say *how often* transactions abort and the tracer
// says *when*; this layer says *where and against whom*: which orec stripe
// (or NOrec sequence generation), which transaction label, which abort
// cause, which backend. That is the structure the co-location pathologies
// live in — a handful of hot stripes can collapse a whole level sweep —
// and the sensor the adaptive backend controller's scoring needs.
//
// Attribution model:
//   * Every engine conflict site notes (stripe id, owner label) on the
//     victim descriptor just before it throws (TxnDesc::note_conflict);
//     the shared TxnDesc::rollback(AbortCause) epilogue turns the note into
//     one sample. Causes that carry no conflict site (doomed, user_retry,
//     fault_injected) record the kNoStripe sentinel.
//   * Stripe identity is the orec-table index for orec_swiss/tl2 and
//     the global sequence generation for NOrec (which has no per-stripe
//     metadata — the generation names the writing commit that invalidated
//     the snapshot).
//   * Transaction labels are small interned ids; workloads mark their
//     transaction sites with ScopedTxnLabel ("kv:transfer", "rbset:insert")
//     and the profiler reports victim→owner label pairs — the conflict
//     graph of "The Transactional Conflict Problem" at label granularity.
//
// Concurrency design (same discipline as src/trace/ rings):
//   * Samples go into per-thread open-addressed tables with exactly one
//     writer — the aborting thread. A slot insert is a release store of the
//     key after plain payload stores; count bumps are relaxed. No RMW, no
//     locks on the sample path; a full probe window bumps a dropped
//     counter instead of evicting.
//   * snapshot() reads live tables (acquire on keys) — a consistent-enough
//     statistical view, like a telemetry scrape. For exact totals disarm
//     and quiesce first.
//   * Sampling: record every 2^k-th abort per thread (ProfilerConfig);
//     contended runs can shed cost without losing the hotspot shape.
//
// Cost contract (same as src/fault/, src/trace/, src/telemetry/): with the
// profiler disarmed every hook is one relaxed atomic load and one
// predictable branch, and the per-word STM fast paths are untouched — the
// hooks live only on abort paths. Gate: micro_profiler_overhead.
#pragma once

#include <atomic>
#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "src/stm/backend/backend.hpp"
#include "src/stm/stats.hpp"

namespace rubic::stm {
class TxnDesc;
}

namespace rubic::stm::profiler {

// Stripe sentinel for samples with no conflict site (doomed, user_retry,
// fault_injected) — rendered as null in JSON.
inline constexpr std::uint64_t kNoStripe = ~std::uint64_t{0};

// Label id 0 is reserved for "unlabeled" (renders as the empty string).
inline constexpr std::uint16_t kUnlabeled = 0;

namespace detail {
// The one word every hook loads. false (the steady state) = disarmed.
extern std::atomic<bool> g_armed;
}  // namespace detail

inline bool armed() noexcept {
  return detail::g_armed.load(std::memory_order_relaxed);
}

struct ProfilerConfig {
  // Record every Nth abort per thread; rounded up to a power of two.
  // 1 = record every abort.
  std::uint32_t sample_every = 1;
};

// Arms the profiler process-wide and starts a fresh sample window (previous
// samples are discarded). Contract mirrors src/trace/: arm before the
// instrumented threads abort, disarm and quiesce before reading exact
// totals. Arming is an observability action and need not be fast.
void arm(ProfilerConfig config = {});
void disarm() noexcept;

// RAII arming for tests and tools.
class Armed {
 public:
  explicit Armed(ProfilerConfig config = {}) noexcept { arm(config); }
  ~Armed() { disarm(); }
  Armed(const Armed&) = delete;
  Armed& operator=(const Armed&) = delete;
};

// --- transaction labels ---

// Interns `name` and returns its id (stable for the process lifetime).
// Returns kUnlabeled once the (bounded) label space is exhausted. Takes a
// mutex — intern at setup time and cache the id, not per transaction.
std::uint16_t intern_label(std::string_view name);

// Inverse of intern_label ("" for kUnlabeled and unknown ids).
std::string label_name(std::uint16_t id);

// The calling thread's current label, stamped onto every transaction it
// begins while the profiler is armed.
std::uint16_t current_label() noexcept;
void set_current_label(std::uint16_t id) noexcept;

// Scoped label for a transaction site. The id form is the hot-path one
// (intern once, construct per call — two thread-local stores); the
// string_view form interns and is for setup-time convenience.
class ScopedTxnLabel {
 public:
  explicit ScopedTxnLabel(std::uint16_t id) noexcept : prev_(current_label()) {
    set_current_label(id);
  }
  explicit ScopedTxnLabel(std::string_view name) noexcept
      : ScopedTxnLabel(intern_label(name)) {}
  ~ScopedTxnLabel() { set_current_label(prev_); }
  ScopedTxnLabel(const ScopedTxnLabel&) = delete;
  ScopedTxnLabel& operator=(const ScopedTxnLabel&) = delete;

 private:
  std::uint16_t prev_;
};

// --- sample path ---

// Records one conflict sample (subject to per-thread sampling). Called by
// TxnDesc::rollback via record_abort; exposed directly for tests and the
// overhead bench. Feeds rubic_contention_samples_total{backend,cause} when
// telemetry is also armed.
void record(std::uint64_t stripe, BackendKind backend, AbortCause cause,
            std::uint16_t victim_label, std::uint16_t owner_label) noexcept;

// The rollback hook: consumes the descriptor's conflict note (stripe +
// owner label set by the engine conflict site), emits a trace::kConflict
// event when a tracer is armed, and records the sample. Caller gates on
// armed().
void record_abort(TxnDesc& d, AbortCause cause) noexcept;

// --- snapshot / export ---

// One aggregated sample bucket: (stripe, backend, cause, victim, owner)
// with its sample count. Backend/cause/labels are canonical tokens so rows
// merge across processes regardless of enum values.
struct SampleRow {
  std::uint64_t stripe = kNoStripe;  // kNoStripe = no conflict site
  std::string backend;
  std::string cause;
  std::string victim;  // label of the aborted transaction ("" = unlabeled)
  std::string owner;   // label of the lock owner it hit ("" = unknown)
  std::uint64_t count = 0;

  bool operator==(const SampleRow&) const = default;
};

struct ContentionSnapshot {
  std::uint64_t ts_ns = 0;  // CLOCK_MONOTONIC at snapshot time (0 if unset)
  std::uint32_t sample_every = 1;
  std::uint64_t sampled = 0;  // samples recorded into the tables
  std::uint64_t dropped = 0;  // samples lost to full probe windows
  // Sorted by count descending, then by key ascending (deterministic).
  std::vector<SampleRow> rows;
};

// Aggregates the live per-thread tables (see concurrency note above).
ContentionSnapshot snapshot();

// --- derived views (computed from rows, not stored) ---

// Top-K hottest stripes: rows grouped by (stripe, backend), with per-cause
// and per-victim-label breakdowns. Rows without a stripe are excluded.
struct Hotspot {
  std::uint64_t stripe = 0;
  std::string backend;
  std::uint64_t total = 0;
  std::vector<std::pair<std::string, std::uint64_t>> causes;  // sorted desc
  std::vector<std::pair<std::string, std::uint64_t>> labels;  // sorted desc
};
std::vector<Hotspot> hotspots(const ContentionSnapshot& snap,
                              std::size_t top_k = 16);

// Conflict-pair graph: victim label → owner label edges with sample counts,
// sorted by count descending (top-K). "" marks unlabeled/unknown ends.
struct ConflictEdge {
  std::string victim;
  std::string owner;
  std::uint64_t count = 0;

  bool operator==(const ConflictEdge&) const = default;
};
std::vector<ConflictEdge> conflict_pairs(const ContentionSnapshot& snap,
                                         std::size_t top_k = 32);

// --- JSON (deterministic: identical snapshots → identical bytes) ---

inline constexpr std::string_view kJsonSchema = "rubic-contention/v1";

// Schema-versioned document: header + raw rows (the mergeable data) +
// derived hotspots/pairs views (capped at top_k) for human and endpoint
// consumption. scripts/check_telemetry.py validates the shape.
std::string to_json(const ContentionSnapshot& snap, std::size_t top_k = 16);

// Parses the header and rows of a to_json() document (derived views are
// recomputable and ignored). Returns false (with a diagnostic in *error,
// if non-null) on malformed input or a schema mismatch.
bool parse_json(std::string_view text, ContentionSnapshot* out,
                std::string* error = nullptr);

// Cross-process aggregation: rows sum by (stripe, backend, cause, victim,
// owner); sampled/dropped sum; ts_ns and sample_every take the max.
ContentionSnapshot merge(std::span<const ContentionSnapshot> snaps);

}  // namespace rubic::stm::profiler
