// Controller decision audit log + offline replay (DESIGN: observability).
//
// Every monitor round is one control-loop decision: a measured input
// (throughput or STM commit ratio), the level the pool was running at, the
// level the policy answered, and the policy's self-reported phase
// (Controller::decision_info() — RUBIC's CIMD growth/reduction state,
// paper Alg. 2). This module records that tuple to a deterministic JSONL
// stream and re-drives the decision sequence offline: replay constructs the
// same policy from the recorded configuration, feeds it the recorded
// inputs, and asserts the recorded outputs — turning any audit log into a
// regression oracle for every control::known_policies() policy, and a
// per-round explanation of *why* the level moved.
//
// Determinism contract: inputs are recorded exactly as handed to the
// ControllerGuard (post-monitor sanitization), rendered with %.17g so the
// double round-trips bit-exactly; the replay wraps the rebuilt policy in
// the same guard with the same bounds, so sanitization and clamping re-run
// identically. Two caveats, documented in docs/telemetry.md: a recording
// made with controller fault injection (kControllerThrow /
// kControllerGarbage) replays the *un*-faulted policy and will mismatch by
// design, and the bus-backed cross-process EqualShare variant depends on
// live peer state that no offline replay can reconstruct (the factory
// "equalshare" with a CentralAllocator replays fine).
#pragma once

#include <cstdint>
#include <mutex>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace rubic::telemetry {

inline constexpr std::string_view kAuditSchema = "rubic-audit/v1";

// Everything replay needs to rebuild the recorded controller: the policy
// name and the control::PolicyConfig knobs that shape its behaviour, plus
// the guard's level bounds. `seed` is provenance only (the workload seed of
// the recorded run); `processes` sizes the CentralAllocator for the
// factory-built "equalshare" policy.
struct AuditMeta {
  std::string policy;
  int min_level = 1;
  int max_level = 64;
  int contexts = 64;
  int pool = 0;  // PolicyConfig::pool_size (0 = the 2x-contexts default)
  double aimd_alpha = 0.5;
  int processes = 1;
  std::uint64_t seed = 0;
  // STM concurrency-control backend the run used (stm::backend_name);
  // empty in logs written before the field existed.
  std::string stm_backend;
  // Backend candidate universe of an adaptive policy, in index order (the
  // recorded desired-backend indexes point into it). Empty for plain
  // policies and in logs written before the field existed; replay then
  // falls back to control::default_backend_candidates().
  std::vector<std::string> backend_candidates;

  bool operator==(const AuditMeta&) const = default;
};

// One monitor round. `used_commit_ratio` selects which guard entry point
// the input was fed to (on_commit_ratio vs on_sample). On an overrun round
// the controller was never consulted (input carries the discarded
// measurement; next == prev by construction).
struct AuditRecord {
  std::uint64_t round = 0;
  int prev = 0;
  int next = 0;
  bool used_commit_ratio = false;
  double input = 0.0;
  bool overrun = false;
  bool sanitized = false;
  // decision_info() after the round, when the policy published one.
  bool phase_valid = false;
  std::uint32_t phase = 0;
  std::string phase_name;
  double aux = 0.0;
  // Backend-adaptation sub-record, present only when the policy is a
  // control::BackendAdapter and the round consulted it. The three signal
  // fields are exactly what the guard was fed (post-sanitization), so
  // `backend` — the *desired* candidate name the adapter answered — is a
  // pure function of the recorded history and replay re-derives it.
  // `backend_switched` reports whether the runtime actually applied the
  // switch that round (informational: a busy context can defer it).
  bool backend_valid = false;
  std::string backend;
  bool backend_switched = false;
  double backend_throughput = 0.0;
  double backend_abort_rate = 0.0;
  double backend_commit_lat_ns = 0.0;

  bool operator==(const AuditRecord&) const = default;
};

// Collects records from the monitor thread; readers drain after the run
// (same quiesce-then-read contract as the tracer). Appends are mutex-light:
// one uncontended lock per monitor round (~per measurement period).
class AuditLog {
 public:
  explicit AuditLog(AuditMeta meta = {}) : meta_(std::move(meta)) {}

  AuditLog(const AuditLog&) = delete;
  AuditLog& operator=(const AuditLog&) = delete;

  void set_meta(AuditMeta meta);
  void append(const AuditRecord& record);

  AuditMeta meta() const;
  std::vector<AuditRecord> records() const;
  std::size_t size() const;

 private:
  mutable std::mutex mutex_;
  AuditMeta meta_;
  std::vector<AuditRecord> records_;
};

// --- serialization (deterministic: identical logs → identical bytes) ---

// One JSON object per line: a header carrying the schema + AuditMeta,
// then one line per record, in round order.
std::string to_jsonl(const AuditMeta& meta,
                     std::span<const AuditRecord> records);
std::string to_jsonl(const AuditLog& log);

// Parses a to_jsonl() stream. Returns false (diagnostic in *error, if
// non-null) on malformed input, a schema mismatch, or a missing header.
bool parse_audit(std::string_view text, AuditMeta* meta,
                 std::vector<AuditRecord>* records,
                 std::string* error = nullptr);

// --- replay ---

struct ReplayRound {
  AuditRecord recorded;
  int replayed_next = 0;
  bool match = false;
  // What the rebuilt policy reported for this round (for explanations).
  bool phase_valid = false;
  std::string phase_name;
  // Backend the rebuilt adapter desired this round (adaptive policies);
  // a name differing from recorded.backend fails the round's match.
  std::string replayed_backend;
};

struct ReplayResult {
  bool ok = false;          // every round matched (and the log was sane)
  std::string error;        // non-empty when the replay could not even run
  std::uint64_t rounds = 0;
  std::uint64_t mismatches = 0;
  std::vector<ReplayRound> detail;  // one entry per record, in order
};

// Rebuilds meta.policy via control::make_controller + ControllerGuard and
// re-drives it over the records. A round matches when the replayed level
// equals the recorded `next` (overrun rounds must hold: next == prev).
ReplayResult replay_audit(const AuditMeta& meta,
                          std::span<const AuditRecord> records);

// Human-readable per-round explanation of a replay ("round 12: 4 -> 6 on
// throughput 1523.7 [cubic growth] OK"), one line per round plus a verdict
// line — what tools/rubic_replay prints.
std::string explain_replay(const AuditMeta& meta, const ReplayResult& result);

}  // namespace rubic::telemetry
