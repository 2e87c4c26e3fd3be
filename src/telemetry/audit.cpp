#include "src/telemetry/audit.hpp"

#include <cmath>
#include <exception>
#include <memory>
#include <utility>

#include "src/control/factory.hpp"
#include "src/control/guard.hpp"
#include "src/telemetry/json.hpp"

namespace rubic::telemetry {

using jsonutil::append_double;
using jsonutil::append_escaped;
using jsonutil::append_i64;
using jsonutil::append_quoted;
using jsonutil::append_u64;
using jsonutil::Cursor;

// --- AuditLog --------------------------------------------------------------

void AuditLog::set_meta(AuditMeta meta) {
  std::lock_guard<std::mutex> lock(mutex_);
  meta_ = std::move(meta);
}

void AuditLog::append(const AuditRecord& record) {
  std::lock_guard<std::mutex> lock(mutex_);
  records_.push_back(record);
}

AuditMeta AuditLog::meta() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return meta_;
}

std::vector<AuditRecord> AuditLog::records() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return records_;
}

std::size_t AuditLog::size() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return records_.size();
}

// --- serialization ---------------------------------------------------------

namespace {

void append_header(std::string& out, const AuditMeta& meta) {
  out += "{\"schema\":\"";
  out += kAuditSchema;
  out += "\",\"policy\":\"";
  append_escaped(out, meta.policy);
  out += "\",\"min_level\":";
  append_i64(out, meta.min_level);
  out += ",\"max_level\":";
  append_i64(out, meta.max_level);
  out += ",\"contexts\":";
  append_i64(out, meta.contexts);
  out += ",\"pool\":";
  append_i64(out, meta.pool);
  out += ",\"aimd_alpha\":";
  append_double(out, meta.aimd_alpha);
  out += ",\"processes\":";
  append_i64(out, meta.processes);
  out += ",\"seed\":";
  append_u64(out, meta.seed);
  if (!meta.stm_backend.empty()) {
    out += ",\"stm_backend\":\"";
    append_escaped(out, meta.stm_backend);
    out += '"';
  }
  if (!meta.backend_candidates.empty()) {
    out += ",\"backend_candidates\":[";
    for (std::size_t i = 0; i < meta.backend_candidates.size(); ++i) {
      if (i != 0) out += ',';
      append_quoted(out, meta.backend_candidates[i]);
    }
    out += ']';
  }
  out += "}\n";
}

void append_record(std::string& out, const AuditRecord& record) {
  out += "{\"round\":";
  append_u64(out, record.round);
  out += ",\"prev\":";
  append_i64(out, record.prev);
  out += ",\"next\":";
  append_i64(out, record.next);
  out += ",\"kind\":\"";
  out += record.used_commit_ratio ? "commit_ratio" : "throughput";
  out += "\",\"input\":";
  append_double(out, record.input);
  out += ",\"overrun\":";
  out += record.overrun ? "true" : "false";
  out += ",\"sanitized\":";
  out += record.sanitized ? "true" : "false";
  out += ",\"phase\":";
  if (record.phase_valid) {
    out += "{\"id\":";
    append_u64(out, record.phase);
    out += ",\"name\":\"";
    append_escaped(out, record.phase_name);
    out += "\",\"aux\":";
    append_double(out, record.aux);
    out += '}';
  } else {
    out += "null";
  }
  // Conditional key: pre-adaptation logs stay byte-identical.
  if (record.backend_valid) {
    out += ",\"backend\":{\"name\":\"";
    append_escaped(out, record.backend);
    out += "\",\"switched\":";
    out += record.backend_switched ? "true" : "false";
    out += ",\"throughput\":";
    append_double(out, record.backend_throughput);
    out += ",\"abort_rate\":";
    append_double(out, record.backend_abort_rate);
    out += ",\"commit_lat_ns\":";
    append_double(out, record.backend_commit_lat_ns);
    out += '}';
  }
  out += "}\n";
}

bool parse_header(Cursor& cur, AuditMeta* meta) {
  if (!cur.consume('{')) return false;
  bool have_schema = false;
  bool first = true;
  while (!cur.peek('}')) {
    if (!first && !cur.consume(',')) return false;
    first = false;
    std::string key;
    if (!cur.parse_string(&key) || !cur.consume(':')) return false;
    if (key == "schema") {
      std::string schema;
      if (!cur.parse_string(&schema)) return false;
      if (schema != kAuditSchema) {
        return cur.fail("schema mismatch: got '" + schema + "', want '" +
                        std::string(kAuditSchema) + "'");
      }
      have_schema = true;
    } else if (key == "policy") {
      if (!cur.parse_string(&meta->policy)) return false;
    } else if (key == "min_level") {
      if (!cur.parse_int(&meta->min_level)) return false;
    } else if (key == "max_level") {
      if (!cur.parse_int(&meta->max_level)) return false;
    } else if (key == "contexts") {
      if (!cur.parse_int(&meta->contexts)) return false;
    } else if (key == "pool") {
      if (!cur.parse_int(&meta->pool)) return false;
    } else if (key == "aimd_alpha") {
      if (!cur.parse_double(&meta->aimd_alpha)) return false;
    } else if (key == "processes") {
      if (!cur.parse_int(&meta->processes)) return false;
    } else if (key == "seed") {
      if (!cur.parse_u64(&meta->seed)) return false;
    } else if (key == "stm_backend") {
      if (!cur.parse_string(&meta->stm_backend)) return false;
    } else if (key == "backend_candidates") {
      if (!cur.consume('[')) return false;
      while (!cur.peek(']')) {
        if (!meta->backend_candidates.empty() && !cur.consume(',')) {
          return false;
        }
        std::string name;
        if (!cur.parse_string(&name)) return false;
        meta->backend_candidates.push_back(std::move(name));
      }
      if (!cur.consume(']')) return false;
    } else {
      return cur.fail("unknown header key '" + key + "'");
    }
  }
  if (!cur.consume('}')) return false;
  if (!have_schema) return cur.fail("header missing schema");
  if (meta->policy.empty()) return cur.fail("header missing policy");
  return true;
}

bool parse_record(Cursor& cur, AuditRecord* record) {
  if (!cur.consume('{')) return false;
  bool first = true;
  while (!cur.peek('}')) {
    if (!first && !cur.consume(',')) return false;
    first = false;
    std::string key;
    if (!cur.parse_string(&key) || !cur.consume(':')) return false;
    if (key == "round") {
      if (!cur.parse_u64(&record->round)) return false;
    } else if (key == "prev") {
      if (!cur.parse_int(&record->prev)) return false;
    } else if (key == "next") {
      if (!cur.parse_int(&record->next)) return false;
    } else if (key == "kind") {
      std::string kind;
      if (!cur.parse_string(&kind)) return false;
      if (kind == "commit_ratio") {
        record->used_commit_ratio = true;
      } else if (kind == "throughput") {
        record->used_commit_ratio = false;
      } else {
        return cur.fail("unknown input kind '" + kind + "'");
      }
    } else if (key == "input") {
      if (!cur.parse_double(&record->input)) return false;
    } else if (key == "overrun") {
      if (!cur.parse_bool(&record->overrun)) return false;
    } else if (key == "sanitized") {
      if (!cur.parse_bool(&record->sanitized)) return false;
    } else if (key == "phase") {
      if (cur.peek('n')) {
        if (!cur.parse_null()) return false;
        record->phase_valid = false;
      } else {
        if (!cur.consume('{')) return false;
        record->phase_valid = true;
        bool first_phase = true;
        while (!cur.peek('}')) {
          if (!first_phase && !cur.consume(',')) return false;
          first_phase = false;
          std::string phase_key;
          if (!cur.parse_string(&phase_key) || !cur.consume(':')) return false;
          if (phase_key == "id") {
            std::uint64_t id = 0;
            if (!cur.parse_u64(&id)) return false;
            record->phase = static_cast<std::uint32_t>(id);
          } else if (phase_key == "name") {
            if (!cur.parse_string(&record->phase_name)) return false;
          } else if (phase_key == "aux") {
            if (!cur.parse_double(&record->aux)) return false;
          } else {
            return cur.fail("unknown phase key '" + phase_key + "'");
          }
        }
        if (!cur.consume('}')) return false;
      }
    } else if (key == "backend") {
      if (!cur.consume('{')) return false;
      record->backend_valid = true;
      bool first_backend = true;
      while (!cur.peek('}')) {
        if (!first_backend && !cur.consume(',')) return false;
        first_backend = false;
        std::string backend_key;
        if (!cur.parse_string(&backend_key) || !cur.consume(':')) return false;
        if (backend_key == "name") {
          if (!cur.parse_string(&record->backend)) return false;
        } else if (backend_key == "switched") {
          if (!cur.parse_bool(&record->backend_switched)) return false;
        } else if (backend_key == "throughput") {
          if (!cur.parse_double(&record->backend_throughput)) return false;
        } else if (backend_key == "abort_rate") {
          if (!cur.parse_double(&record->backend_abort_rate)) return false;
        } else if (backend_key == "commit_lat_ns") {
          if (!cur.parse_double(&record->backend_commit_lat_ns)) return false;
        } else {
          return cur.fail("unknown backend key '" + backend_key + "'");
        }
      }
      if (!cur.consume('}')) return false;
    } else {
      return cur.fail("unknown record key '" + key + "'");
    }
  }
  return cur.consume('}');
}

}  // namespace

std::string to_jsonl(const AuditMeta& meta,
                     std::span<const AuditRecord> records) {
  std::string out;
  append_header(out, meta);
  for (const AuditRecord& record : records) append_record(out, record);
  return out;
}

std::string to_jsonl(const AuditLog& log) {
  const std::vector<AuditRecord> records = log.records();
  return to_jsonl(log.meta(), records);
}

bool parse_audit(std::string_view text, AuditMeta* meta,
                 std::vector<AuditRecord>* records, std::string* error) {
  Cursor cur{text};
  auto report = [&](bool ok) {
    if (!ok && error != nullptr) {
      *error = cur.error.empty() ? "malformed audit log" : cur.error;
    }
    return ok;
  };
  AuditMeta parsed_meta;
  if (!parse_header(cur, &parsed_meta)) return report(false);
  std::vector<AuditRecord> parsed_records;
  while (!cur.at_end()) {
    AuditRecord record;
    if (!parse_record(cur, &record)) return report(false);
    parsed_records.push_back(std::move(record));
  }
  *meta = std::move(parsed_meta);
  *records = std::move(parsed_records);
  return true;
}

// --- replay ----------------------------------------------------------------

ReplayResult replay_audit(const AuditMeta& meta,
                          std::span<const AuditRecord> records) {
  ReplayResult result;
  control::PolicyConfig config;
  config.contexts = meta.contexts;
  config.pool_size = meta.pool;
  config.aimd_alpha = meta.aimd_alpha;
  // Adaptive policies start their backend search from the backend the run
  // booted on; replay must seed the same starting index.
  config.initial_backend = meta.stm_backend;
  config.backend_candidates = meta.backend_candidates;
  if (meta.policy == "equalshare") {
    // The factory-built EqualShare consults a CentralAllocator; the share
    // is a pure function of (contexts, processes), both recorded.
    config.allocator =
        std::make_shared<control::CentralAllocator>(meta.contexts);
    const int processes = meta.processes > 0 ? meta.processes : 1;
    for (int i = 0; i < processes; ++i) config.allocator->register_process();
  }
  std::unique_ptr<control::Controller> inner;
  try {
    inner = control::make_controller(meta.policy, config);
  } catch (const std::exception& e) {
    result.error = e.what();
    return result;
  }
  control::ControllerGuard guard(
      std::move(inner),
      control::LevelBounds{meta.min_level, meta.max_level});

  int level = guard.initial_level();
  result.ok = true;
  for (const AuditRecord& record : records) {
    ReplayRound round;
    round.recorded = record;
    if (record.overrun) {
      // The monitor never consulted the controller: the level must hold.
      round.replayed_next = level;
      round.match = record.next == record.prev && record.next == level;
    } else {
      // Backend signal first, mirroring the monitor's round order (the two
      // state machines are independent; the shared order keeps the logs
      // readable).
      if (record.backend_valid) {
        if (!guard.adapts_backend()) {
          round.match = false;
        } else {
          control::BackendSignal signal;
          signal.throughput = record.backend_throughput;
          signal.abort_rate = record.backend_abort_rate;
          signal.commit_lat_ns = record.backend_commit_lat_ns;
          const int desired = guard.on_backend_signal(signal);
          round.replayed_backend =
              (*guard.backend_candidates())[static_cast<std::size_t>(desired)];
        }
      }
      const int next = record.used_commit_ratio
                           ? guard.on_commit_ratio(record.input)
                           : guard.on_sample(record.input);
      const control::DecisionInfo info = guard.decision_info();
      round.phase_valid = info.valid;
      round.phase_name = std::string(info.phase_name);
      round.replayed_next = next;
      round.match = next == record.next;
      if (record.backend_valid && round.replayed_backend != record.backend) {
        round.match = false;
      }
      level = next;
    }
    if (!round.match) {
      ++result.mismatches;
      result.ok = false;
    }
    ++result.rounds;
    result.detail.push_back(std::move(round));
  }
  return result;
}

std::string explain_replay(const AuditMeta& meta,
                           const ReplayResult& result) {
  std::string out;
  out += "policy=" + meta.policy;
  out += " bounds=[" + std::to_string(meta.min_level) + "," +
         std::to_string(meta.max_level) + "]";
  out += " contexts=" + std::to_string(meta.contexts);
  out += " pool=" + std::to_string(meta.pool);
  out += " seed=" + std::to_string(meta.seed);
  out += "\n";
  if (!result.error.empty()) {
    out += "replay failed: " + result.error + "\n";
    return out;
  }
  for (const ReplayRound& round : result.detail) {
    const AuditRecord& rec = round.recorded;
    out += "round " + std::to_string(rec.round) + ": " +
           std::to_string(rec.prev) + " -> " + std::to_string(rec.next);
    out += rec.used_commit_ratio ? " on commit_ratio " : " on throughput ";
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.6g", rec.input);
    out += buf;
    if (rec.overrun) out += " [overrun: level held]";
    if (rec.sanitized) out += " [sanitized sample]";
    if (rec.phase_valid) out += " [" + rec.phase_name + "]";
    if (rec.backend_valid) {
      out += " [backend " + rec.backend;
      if (rec.backend_switched) out += " switched";
      out += "]";
    }
    if (round.match) {
      out += " OK";
    } else {
      out += " MISMATCH (replayed " + std::to_string(round.replayed_next);
      if (round.phase_valid) out += ", " + round.phase_name;
      if (rec.backend_valid && round.replayed_backend != rec.backend) {
        out += ", backend " +
               (round.replayed_backend.empty() ? std::string("<none>")
                                               : round.replayed_backend);
      }
      out += ")";
    }
    out += "\n";
  }
  out += std::to_string(result.rounds) + " rounds, " +
         std::to_string(result.mismatches) + " mismatches: ";
  out += result.ok ? "REPLAY OK\n" : "REPLAY FAILED\n";
  return out;
}

}  // namespace rubic::telemetry
