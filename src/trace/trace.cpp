#include "src/trace/trace.hpp"

#include <time.h>

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <limits>

#include "src/telemetry/json.hpp"

namespace rubic::trace {

namespace detail {
std::atomic<Tracer*> g_tracer{nullptr};
}  // namespace detail

namespace {

using telemetry::jsonutil::append_escaped;

constexpr std::string_view kEventNames[kEventTypeCount] = {
    "txn_begin",      "txn_commit",   "txn_abort",
    "level_decision", "phase_change", "pool_resize",
    "monitor_round",  "bus_publish",  "bus_read",
    "backend_switch", "conflict",
};

// Registration generations: one per arm() call, process-wide, so a cached
// ring pointer from a previous armed window can never be used against the
// wrong (or a destroyed) tracer.
std::atomic<std::uint64_t> g_generation{0};

std::size_t round_up_pow2(std::size_t n) {
  std::size_t p = 1;
  while (p < n) p <<= 1;
  return p;
}

void append_u64(std::string& out, std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "%" PRIu64, v);
  out += buf;
}

// Deterministic double rendering: %.17g round-trips every finite double to
// the identical byte sequence; non-finite values become null so every line
// stays valid JSON.
void append_double(std::string& out, double v) {
  if (!std::isfinite(v)) {
    out += "null";
    return;
  }
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  out += buf;
}

}  // namespace

std::string_view event_name(EventType type) noexcept {
  const auto index = static_cast<std::size_t>(type);
  return index < kEventTypeCount ? kEventNames[index] : "?";
}

std::uint64_t monotonic_ns() noexcept {
  timespec ts{};
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<std::uint64_t>(ts.tv_sec) * 1'000'000'000ULL +
         static_cast<std::uint64_t>(ts.tv_nsec);
}

// One ring per emitting thread per armed window. Single writer (the owner
// thread); the head counter is the only cross-thread word and the drain
// side only reads it after the writers quiesced (see the class contract).
struct Tracer::Ring {
  Ring(std::uint16_t tid_in, std::size_t capacity)
      : tid(tid_in), slots(capacity) {}
  const std::uint16_t tid;
  std::vector<Event> slots;
  std::atomic<std::uint64_t> head{0};  // total events ever written
};

namespace {
struct ThreadSlot {
  std::uint64_t generation = 0;
  Tracer::Ring* ring = nullptr;
};
thread_local ThreadSlot t_slot;
}  // namespace

Tracer::Tracer(TracerConfig config)
    : capacity_(round_up_pow2(std::max<std::size_t>(config.ring_capacity, 2))) {
}

Tracer::~Tracer() = default;

Tracer::Ring* Tracer::ring_for_current_thread() noexcept {
  if (t_slot.ring != nullptr && t_slot.generation == generation_) {
    return t_slot.ring;
  }
  std::lock_guard<std::mutex> lock(registry_mutex_);
  // tid is a uint16 in the 32-byte record; a process with >64k emitting
  // threads in one armed window loses the surplus rather than corrupting.
  if (rings_.size() >= 0xFFFF) return nullptr;
  rings_.push_back(std::make_unique<Ring>(
      static_cast<std::uint16_t>(rings_.size()), capacity_));
  t_slot.generation = generation_;
  t_slot.ring = rings_.back().get();
  return t_slot.ring;
}

void Tracer::record(EventType type, std::uint32_t a, std::uint64_t b,
                    double value) noexcept {
  record_at(monotonic_ns(), type, a, b, value);
}

void Tracer::record_at(std::uint64_t ts_ns, EventType type, std::uint32_t a,
                       std::uint64_t b, double value) noexcept {
  Ring* ring = ring_for_current_thread();
  if (ring == nullptr) return;
  const std::uint64_t head = ring->head.load(std::memory_order_relaxed);
  Event& slot = ring->slots[head & (capacity_ - 1)];
  slot.ts_ns = ts_ns;
  slot.type = static_cast<std::uint16_t>(type);
  slot.tid = ring->tid;
  slot.a = a;
  slot.b = b;
  slot.value = value;
  ring->head.store(head + 1, std::memory_order_release);
}

std::vector<Tracer::ThreadTrace> Tracer::drain() const {
  std::lock_guard<std::mutex> lock(registry_mutex_);
  std::vector<ThreadTrace> out;
  out.reserve(rings_.size());
  for (const auto& ring : rings_) {
    ThreadTrace trace;
    trace.tid = ring->tid;
    trace.written = ring->head.load(std::memory_order_acquire);
    const std::uint64_t held = std::min<std::uint64_t>(trace.written, capacity_);
    trace.dropped = trace.written - held;
    trace.events.reserve(held);
    for (std::uint64_t i = trace.written - held; i < trace.written; ++i) {
      trace.events.push_back(ring->slots[i & (capacity_ - 1)]);
    }
    out.push_back(std::move(trace));
  }
  return out;
}

std::vector<Event> Tracer::merged() const {
  std::vector<Event> all;
  for (const ThreadTrace& trace : drain()) {
    all.insert(all.end(), trace.events.begin(), trace.events.end());
  }
  // Stable: same-timestamp events keep ring registration order, so the
  // merge of a fixed event set is deterministic.
  std::stable_sort(all.begin(), all.end(),
                   [](const Event& x, const Event& y) {
                     return x.ts_ns != y.ts_ns ? x.ts_ns < y.ts_ns
                                               : x.tid < y.tid;
                   });
  return all;
}

std::uint64_t Tracer::total_written() const {
  std::uint64_t total = 0;
  for (const ThreadTrace& trace : drain()) total += trace.written;
  return total;
}

std::uint64_t Tracer::total_dropped() const {
  std::uint64_t total = 0;
  for (const ThreadTrace& trace : drain()) total += trace.dropped;
  return total;
}

int Tracer::threads() const {
  std::lock_guard<std::mutex> lock(registry_mutex_);
  return static_cast<int>(rings_.size());
}

void arm(Tracer& tracer) noexcept {
  tracer.generation_ = g_generation.fetch_add(1, std::memory_order_relaxed) + 1;
  detail::g_tracer.store(&tracer, std::memory_order_release);
}

void disarm() noexcept {
  detail::g_tracer.store(nullptr, std::memory_order_release);
}

// --- exporters ---

std::string to_jsonl(const std::vector<Event>& events) {
  std::string out;
  out.reserve(events.size() * 80);
  for (const Event& e : events) {
    out += "{\"ts_ns\":";
    append_u64(out, e.ts_ns);
    out += ",\"type\":\"";
    out += event_name(static_cast<EventType>(e.type));
    out += "\",\"tid\":";
    append_u64(out, e.tid);
    out += ",\"a\":";
    append_u64(out, e.a);
    out += ",\"b\":";
    append_u64(out, e.b);
    out += ",\"value\":";
    append_double(out, e.value);
    out += "}\n";
  }
  return out;
}

std::string to_jsonl(const Tracer& tracer) { return to_jsonl(tracer.merged()); }

namespace {

// Finds `"key":` and returns the character position just past the colon,
// or npos. The exporter emits a fixed key set, so this stays trivial.
std::size_t value_pos(std::string_view line, std::string_view key) {
  std::string needle;
  needle.reserve(key.size() + 3);
  needle.push_back('"');
  needle.append(key);
  needle.append("\":");
  const std::size_t at = line.find(needle);
  return at == std::string_view::npos ? std::string_view::npos
                                      : at + needle.size();
}

bool parse_u64_field(std::string_view line, std::string_view key,
                     std::uint64_t* out) {
  const std::size_t at = value_pos(line, key);
  if (at == std::string_view::npos || at >= line.size()) return false;
  char* end = nullptr;
  const std::string text(line.substr(at, 24));
  const std::uint64_t v = std::strtoull(text.c_str(), &end, 10);
  if (end == text.c_str()) return false;
  *out = v;
  return true;
}

}  // namespace

bool parse_jsonl_line(std::string_view line, Event* out) {
  if (out == nullptr || line.empty() || line.front() != '{' ||
      line.back() != '}') {
    return false;
  }
  Event e;
  std::uint64_t u = 0;
  if (!parse_u64_field(line, "ts_ns", &e.ts_ns)) return false;
  if (!parse_u64_field(line, "tid", &u) || u > 0xFFFF) return false;
  e.tid = static_cast<std::uint16_t>(u);
  if (!parse_u64_field(line, "a", &u) || u > 0xFFFFFFFFULL) return false;
  e.a = static_cast<std::uint32_t>(u);
  if (!parse_u64_field(line, "b", &e.b)) return false;

  const std::size_t type_at = value_pos(line, "type");
  if (type_at == std::string_view::npos || type_at >= line.size() ||
      line[type_at] != '"') {
    return false;
  }
  const std::size_t type_end = line.find('"', type_at + 1);
  if (type_end == std::string_view::npos) return false;
  const std::string_view name = line.substr(type_at + 1, type_end - type_at - 1);
  bool known = false;
  for (std::size_t i = 0; i < kEventTypeCount; ++i) {
    if (kEventNames[i] == name) {
      e.type = static_cast<std::uint16_t>(i);
      known = true;
      break;
    }
  }
  if (!known) return false;

  const std::size_t value_at = value_pos(line, "value");
  if (value_at == std::string_view::npos || value_at >= line.size()) {
    return false;
  }
  if (line.compare(value_at, 4, "null") == 0) {
    e.value = std::numeric_limits<double>::quiet_NaN();
  } else {
    char* end = nullptr;
    const std::string text(line.substr(value_at, 32));
    e.value = std::strtod(text.c_str(), &end);
    if (end == text.c_str()) return false;
  }
  *out = e;
  return true;
}

namespace {

void append_chrome_common(std::string& out, std::string_view name,
                          std::string_view phase, std::uint64_t ts_ns,
                          std::int64_t pid, std::uint32_t tid) {
  out += "{\"name\":\"";
  append_escaped(out, name);
  out += "\",\"ph\":\"";
  out += phase;
  out += "\",\"ts\":";
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.3f",
                static_cast<double>(ts_ns) / 1000.0);  // Chrome ts is in µs
  out += buf;
  out += ",\"pid\":";
  char pid_buf[24];
  std::snprintf(pid_buf, sizeof pid_buf, "%lld",
                static_cast<long long>(pid));
  out += pid_buf;
  out += ",\"tid\":";
  append_u64(out, tid);
}

}  // namespace

std::string to_chrome_events(const Tracer& tracer, std::int64_t pid,
                             std::string_view process_name) {
  std::string out;
  // Metadata first: one named track per process, one per emitting thread.
  out += "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":";
  {
    char buf[24];
    std::snprintf(buf, sizeof buf, "%lld", static_cast<long long>(pid));
    out += buf;
  }
  out += ",\"args\":{\"name\":\"";
  append_escaped(out, process_name);
  out += "\"}}\n";
  for (const Tracer::ThreadTrace& trace : tracer.drain()) {
    append_chrome_common(out, "thread_name", "M", 0, pid, trace.tid);
    out += ",\"args\":{\"name\":\"thread-";
    append_u64(out, trace.tid);
    out += "\"}}\n";
  }

  for (const Event& e : tracer.merged()) {
    const auto type = static_cast<EventType>(e.type);
    switch (type) {
      case EventType::kPoolResize:
        // Counter track: the parallelism level over time, per process.
        append_chrome_common(out, "level", "C", e.ts_ns, pid, 0);
        out += ",\"args\":{\"level\":";
        append_u64(out, e.b);
        out += "}}\n";
        break;
      case EventType::kMonitorRound:
        append_chrome_common(out, "throughput", "C", e.ts_ns, pid, 0);
        out += ",\"args\":{\"throughput\":";
        append_double(out, std::isfinite(e.value) ? e.value : 0.0);
        out += "}}\n";
        if (e.a != 0) {  // sanitized or overrun round: flag it on the track
          append_chrome_common(out, "monitor_anomaly", "i", e.ts_ns, pid,
                               e.tid);
          out += ",\"s\":\"p\",\"args\":{\"flags\":";
          append_u64(out, e.a);
          out += ",\"round\":";
          append_u64(out, e.b);
          out += "}}\n";
        }
        break;
      default:
        append_chrome_common(out, event_name(type), "i", e.ts_ns, pid, e.tid);
        out += ",\"s\":\"t\",\"args\":{\"a\":";
        append_u64(out, e.a);
        out += ",\"b\":";
        append_u64(out, e.b);
        out += ",\"v\":";
        append_double(out, e.value);
        out += "}}\n";
        break;
    }
  }
  return out;
}

std::string to_chrome_trace(const Tracer& tracer, std::int64_t pid,
                            std::string_view process_name) {
  return merge_chrome_fragments({to_chrome_events(tracer, pid, process_name)});
}

std::string merge_chrome_fragments(const std::vector<std::string>& fragments) {
  std::string out = "{\"traceEvents\":[\n";
  bool first = true;
  for (const std::string& fragment : fragments) {
    std::size_t start = 0;
    while (start < fragment.size()) {
      std::size_t end = fragment.find('\n', start);
      if (end == std::string::npos) end = fragment.size();
      const std::string_view line(fragment.data() + start, end - start);
      start = end + 1;
      // A child killed mid-write leaves a truncated tail; complete JSON
      // objects are one per line, so anything else is skippable noise.
      if (line.empty() || line.front() != '{' || line.back() != '}') continue;
      if (!first) out += ",\n";
      out += line;
      first = false;
    }
  }
  out += "\n]}\n";
  return out;
}

bool write_file(const std::string& path, std::string_view contents) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  bool ok = contents.empty() ||
            std::fwrite(contents.data(), 1, contents.size(), f) ==
                contents.size();
  if (std::fclose(f) != 0) ok = false;
  return ok;
}

}  // namespace rubic::trace
