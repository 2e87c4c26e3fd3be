// Concurrency-control backend selection.
//
// The STM runtime supports multiple concurrency-control protocols behind
// the unchanged TxnDesc/Runtime API. Which one a Runtime uses is fixed at
// construction via RuntimeConfig::backend; the process default (used by
// global_runtime() and every default-constructed RuntimeConfig) can be
// overridden with the RUBIC_STM_BACKEND environment variable, so the whole
// test suite can be replayed against a different engine without touching a
// single call site.
#pragma once

#include <cstdint>
#include <optional>
#include <string_view>
#include <vector>

namespace rubic::stm {

enum class BackendKind : std::uint8_t {
  // Orec-based SwissTM/TL2 hybrid: global version clock, per-stripe
  // ownership records, invisible reads with timestamp extension,
  // encounter-time or commit-time write locking, pluggable contention
  // management. The original engine of this repo.
  kOrecSwiss,
  // NOrec: one global sequence lock, value-based read-set validation,
  // write-back at commit. No orecs, no per-stripe metadata; writing
  // commits are fully serialized by the sequence lock.
  kNorec,
  // TL2 (Dice, Shalev & Shavit): pure commit-time locking over the same
  // orec table and global version clock as orec_swiss, but with the
  // canonical speculative-read fast path — a read aborts immediately on a
  // locked or too-new stripe (no timestamp extension, no encounter-time
  // locks, no contention-manager waiting). Shortest lock hold times of the
  // write-back engines.
  kTl2,
};

// Canonical token, used by CLI flags, telemetry labels, JSON reports and
// the audit-log header.
std::string_view backend_name(BackendKind kind) noexcept;

// Inverse of backend_name; nullopt for unknown tokens.
std::optional<BackendKind> parse_backend(std::string_view name) noexcept;

// All selectable backends, in display order.
std::vector<BackendKind> known_backends();

// Process-wide default: RUBIC_STM_BACKEND if set (the process aborts with a
// message on an unknown value — a silently ignored typo would invalidate a
// whole cross-backend experiment), kOrecSwiss otherwise. The environment is
// read once and cached.
BackendKind default_backend();

}  // namespace rubic::stm
