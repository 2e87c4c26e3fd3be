#include "src/stm/profiler.hpp"

#include <algorithm>
#include <map>
#include <memory>
#include <mutex>
#include <tuple>
#include <utility>

#include "src/stm/txn_desc.hpp"
#include "src/telemetry/json.hpp"
#include "src/telemetry/telemetry.hpp"
#include "src/trace/trace.hpp"

namespace rubic::stm::profiler {

namespace detail {
std::atomic<bool> g_armed{false};
}  // namespace detail

namespace {

// One aggregation slot. Payload fields are plain: they are written exactly
// once by the owning thread before the key's release store publishes them,
// and never change afterwards (a 64-bit mixed key standing in for the full
// tuple — a key collision between distinct tuples is possible in principle
// but negligible at these table sizes, and costs one misattributed bucket,
// not corruption).
struct Slot {
  std::atomic<std::uint64_t> key{0};  // 0 = empty; published with release
  std::atomic<std::uint64_t> count{0};
  std::uint64_t stripe = 0;
  std::uint16_t victim = 0;
  std::uint16_t owner = 0;
  std::uint8_t backend = 0;
  std::uint8_t cause = 0;
};

struct ThreadTable {
  static constexpr std::size_t kSlotsLog2 = 12;
  static constexpr std::size_t kSlots = std::size_t{1} << kSlotsLog2;
  static constexpr std::size_t kProbeLimit = 16;

  std::vector<Slot> slots{kSlots};
  std::atomic<std::uint64_t> sampled{0};
  std::atomic<std::uint64_t> dropped{0};
  std::uint64_t skip = 0;  // owner-thread only: sampling phase

  void reset() noexcept {
    for (Slot& s : slots) {
      s.key.store(0, std::memory_order_relaxed);
      s.count.store(0, std::memory_order_relaxed);
    }
    sampled.store(0, std::memory_order_relaxed);
    dropped.store(0, std::memory_order_relaxed);
    skip = 0;
  }
};

struct Global {
  std::mutex mutex;
  // Tables live for the process lifetime (a thread-local pointer must never
  // dangle); arm() moves them to the pool and re-registration reuses them.
  std::vector<std::unique_ptr<ThreadTable>> active;
  std::vector<std::unique_ptr<ThreadTable>> pool;
  std::vector<std::string> labels{""};  // id 0 = unlabeled
  std::uint32_t sample_mask = 0;        // record when (skip & mask) == 0
};

Global& global() {
  static Global* g = new Global;  // leaked: outlives every worker thread
  return *g;
}

// Registration generations: one per arm() call, so a cached table pointer
// from a previous armed window is never written into the wrong window.
std::atomic<std::uint64_t> g_generation{0};
std::atomic<std::uint32_t> g_sample_mask{0};

struct LocalRef {
  ThreadTable* table = nullptr;
  std::uint64_t generation = 0;
};
thread_local LocalRef t_local;
thread_local std::uint16_t t_label = kUnlabeled;

ThreadTable* local_table() noexcept {
  const std::uint64_t gen = g_generation.load(std::memory_order_acquire);
  if (t_local.table != nullptr && t_local.generation == gen) {
    return t_local.table;
  }
  Global& g = global();
  std::lock_guard<std::mutex> lock(g.mutex);
  if (g_generation.load(std::memory_order_relaxed) != gen) {
    // Re-armed while we waited; register on the next sample instead.
    return nullptr;
  }
  std::unique_ptr<ThreadTable> table;
  if (!g.pool.empty()) {
    table = std::move(g.pool.back());
    g.pool.pop_back();
    table->reset();
  } else {
    table = std::make_unique<ThreadTable>();
  }
  t_local.table = table.get();
  t_local.generation = gen;
  g.active.push_back(std::move(table));
  return t_local.table;
}

std::uint64_t mix_key(std::uint64_t stripe, std::uint8_t backend,
                      std::uint8_t cause, std::uint16_t victim,
                      std::uint16_t owner) noexcept {
  std::uint64_t h = stripe;
  h ^= (std::uint64_t{backend} << 40) | (std::uint64_t{cause} << 32) |
       (std::uint64_t{victim} << 16) | owner;
  // splitmix64 finalizer: full-avalanche so adjacent stripes spread.
  h += 0x9e3779b97f4a7c15ULL;
  h = (h ^ (h >> 30)) * 0xbf58476d1ce4e5b9ULL;
  h = (h ^ (h >> 27)) * 0x94d049bb133111ebULL;
  h ^= h >> 31;
  return h != 0 ? h : 1;
}

// Registry references for the sample-path counters, resolved once (first
// armed sample per backend) and cached — same pattern as StmTelemetry in
// txn_desc.cpp. The sample path is already an abort cold path, but it must
// still never touch the registry lock.
struct ContentionTelemetry {
  telemetry::Counter* samples[static_cast<std::size_t>(AbortCause::kCount)];

  static ContentionTelemetry make(BackendKind backend) {
    ContentionTelemetry t{};
    telemetry::Registry& reg = telemetry::registry();
    for (std::size_t i = 0; i < static_cast<std::size_t>(AbortCause::kCount);
         ++i) {
      const auto cause = static_cast<AbortCause>(i);
      t.samples[i] = &reg.counter(
          "rubic_contention_samples_total",
          {{"backend", std::string(backend_name(backend))},
           {"cause", std::string(abort_cause_name(cause))}});
    }
    return t;
  }

  static ContentionTelemetry& get(BackendKind backend) {
    switch (backend) {
      case BackendKind::kNorec: {
        static ContentionTelemetry norec = make(BackendKind::kNorec);
        return norec;
      }
      case BackendKind::kTl2: {
        static ContentionTelemetry tl2 = make(BackendKind::kTl2);
        return tl2;
      }
      default: {
        static ContentionTelemetry orec = make(BackendKind::kOrecSwiss);
        return orec;
      }
    }
  }
};

std::uint32_t round_up_pow2(std::uint32_t v) noexcept {
  if (v <= 1) return 1;
  std::uint32_t p = 1;
  while (p < v && p < (std::uint32_t{1} << 31)) p <<= 1;
  return p;
}

using RowKey = std::tuple<std::uint64_t, std::string, std::string, std::string,
                          std::string>;

RowKey key_of(const SampleRow& r) {
  return {r.stripe, r.backend, r.cause, r.victim, r.owner};
}

// Shared by snapshot() and merge(): deterministic row order — hottest
// first, ties by key so identical data yields identical bytes.
void sort_rows(std::vector<SampleRow>& rows) {
  std::sort(rows.begin(), rows.end(),
            [](const SampleRow& a, const SampleRow& b) {
              if (a.count != b.count) return a.count > b.count;
              return key_of(a) < key_of(b);
            });
}

std::vector<SampleRow> rows_from_counts(std::map<RowKey, std::uint64_t>& by) {
  std::vector<SampleRow> rows;
  rows.reserve(by.size());
  for (auto& [key, count] : by) {
    SampleRow r;
    r.stripe = std::get<0>(key);
    r.backend = std::get<1>(key);
    r.cause = std::get<2>(key);
    r.victim = std::get<3>(key);
    r.owner = std::get<4>(key);
    r.count = count;
    rows.push_back(std::move(r));
  }
  sort_rows(rows);
  return rows;
}

// Sorted-desc breakdown of a name → count map (shared by hotspots()).
std::vector<std::pair<std::string, std::uint64_t>> breakdown(
    std::map<std::string, std::uint64_t>& by) {
  std::vector<std::pair<std::string, std::uint64_t>> out(by.begin(), by.end());
  std::sort(out.begin(), out.end(), [](const auto& a, const auto& b) {
    if (a.second != b.second) return a.second > b.second;
    return a.first < b.first;
  });
  return out;
}

}  // namespace

void arm(ProfilerConfig config) {
  Global& g = global();
  std::lock_guard<std::mutex> lock(g.mutex);
  // Fresh window: retire the active tables into the pool (reset happens at
  // reuse) and invalidate every cached thread-local pointer.
  for (auto& t : g.active) g.pool.push_back(std::move(t));
  g.active.clear();
  g.sample_mask = round_up_pow2(config.sample_every) - 1;
  g_sample_mask.store(g.sample_mask, std::memory_order_relaxed);
  g_generation.fetch_add(1, std::memory_order_release);
  detail::g_armed.store(true, std::memory_order_release);
}

void disarm() noexcept {
  detail::g_armed.store(false, std::memory_order_release);
}

std::uint16_t intern_label(std::string_view name) {
  Global& g = global();
  std::lock_guard<std::mutex> lock(g.mutex);
  for (std::size_t i = 0; i < g.labels.size(); ++i) {
    if (g.labels[i] == name) return static_cast<std::uint16_t>(i);
  }
  if (g.labels.size() > 0xffff) return kUnlabeled;  // label space exhausted
  g.labels.emplace_back(name);
  return static_cast<std::uint16_t>(g.labels.size() - 1);
}

std::string label_name(std::uint16_t id) {
  Global& g = global();
  std::lock_guard<std::mutex> lock(g.mutex);
  return id < g.labels.size() ? g.labels[id] : std::string();
}

std::uint16_t current_label() noexcept { return t_label; }

void set_current_label(std::uint16_t id) noexcept { t_label = id; }

void record(std::uint64_t stripe, BackendKind backend, AbortCause cause,
            std::uint16_t victim_label, std::uint16_t owner_label) noexcept {
  if (!armed()) return;
  ThreadTable* t = local_table();
  if (t == nullptr) return;
  const std::uint32_t mask = g_sample_mask.load(std::memory_order_relaxed);
  if ((t->skip++ & mask) != 0) return;
  if (telemetry::armed()) {
    ContentionTelemetry::get(backend)
        .samples[static_cast<std::size_t>(cause)]
        ->add();
  }
  const std::uint64_t key =
      mix_key(stripe, static_cast<std::uint8_t>(backend),
              static_cast<std::uint8_t>(cause), victim_label, owner_label);
  std::size_t idx = key & (ThreadTable::kSlots - 1);
  for (std::size_t probe = 0; probe < ThreadTable::kProbeLimit;
       ++probe, idx = (idx + 1) & (ThreadTable::kSlots - 1)) {
    Slot& s = t->slots[idx];
    const std::uint64_t k = s.key.load(std::memory_order_acquire);
    if (k == key) {
      s.count.fetch_add(1, std::memory_order_relaxed);
      t->sampled.fetch_add(1, std::memory_order_relaxed);
      return;
    }
    if (k == 0) {
      // Single writer per table: no CAS needed, the release store below is
      // the publication point for the payload.
      s.stripe = stripe;
      s.victim = victim_label;
      s.owner = owner_label;
      s.backend = static_cast<std::uint8_t>(backend);
      s.cause = static_cast<std::uint8_t>(cause);
      s.count.store(1, std::memory_order_relaxed);
      s.key.store(key, std::memory_order_release);
      t->sampled.fetch_add(1, std::memory_order_relaxed);
      return;
    }
  }
  t->dropped.fetch_add(1, std::memory_order_relaxed);
}

void record_abort(TxnDesc& d, AbortCause cause) noexcept {
  // Conflict causes carry the engine's note; the rest (doomed, user_retry,
  // fault_injected) have no single conflict site and record the sentinel.
  const bool conflict_cause = cause == AbortCause::kReadConflict ||
                              cause == AbortCause::kWriteConflict ||
                              cause == AbortCause::kValidationFailed;
  const auto note = d.profiler_note();
  const bool use_note = conflict_cause && note.valid;
  const std::uint64_t stripe = use_note ? note.stripe : kNoStripe;
  const std::uint16_t owner = use_note ? note.owner : kUnlabeled;
  trace::emit(trace::EventType::kConflict, d.ctx_id(), stripe,
              static_cast<double>(static_cast<std::uint8_t>(cause)));
  record(stripe, d.backend(), cause, d.profiler_label(), owner);
}

ContentionSnapshot snapshot() {
  ContentionSnapshot out;
  out.ts_ns = trace::monotonic_ns();
  Global& g = global();
  std::map<RowKey, std::uint64_t> by;
  {
    std::lock_guard<std::mutex> lock(g.mutex);
    out.sample_every = g.sample_mask + 1;
    for (const auto& t : g.active) {
      out.sampled += t->sampled.load(std::memory_order_relaxed);
      out.dropped += t->dropped.load(std::memory_order_relaxed);
      for (const Slot& s : t->slots) {
        if (s.key.load(std::memory_order_acquire) == 0) continue;
        const std::uint64_t count = s.count.load(std::memory_order_relaxed);
        if (count == 0) continue;
        SampleRow r;
        r.stripe = s.stripe;
        r.backend = std::string(
            backend_name(static_cast<BackendKind>(s.backend)));
        r.cause = std::string(
            abort_cause_name(static_cast<AbortCause>(s.cause)));
        r.victim = s.victim < g.labels.size() ? g.labels[s.victim]
                                              : std::string();
        r.owner = s.owner < g.labels.size() ? g.labels[s.owner]
                                            : std::string();
        by[key_of(r)] += count;
      }
    }
  }
  out.rows = rows_from_counts(by);
  return out;
}

std::vector<Hotspot> hotspots(const ContentionSnapshot& snap,
                              std::size_t top_k) {
  struct Agg {
    std::uint64_t total = 0;
    std::map<std::string, std::uint64_t> causes;
    std::map<std::string, std::uint64_t> labels;
  };
  std::map<std::pair<std::uint64_t, std::string>, Agg> by;
  for (const SampleRow& r : snap.rows) {
    if (r.stripe == kNoStripe) continue;
    Agg& a = by[{r.stripe, r.backend}];
    a.total += r.count;
    a.causes[r.cause] += r.count;
    a.labels[r.victim] += r.count;
  }
  std::vector<Hotspot> out;
  out.reserve(by.size());
  for (auto& [key, agg] : by) {
    Hotspot h;
    h.stripe = key.first;
    h.backend = key.second;
    h.total = agg.total;
    h.causes = breakdown(agg.causes);
    h.labels = breakdown(agg.labels);
    out.push_back(std::move(h));
  }
  std::sort(out.begin(), out.end(), [](const Hotspot& a, const Hotspot& b) {
    if (a.total != b.total) return a.total > b.total;
    if (a.stripe != b.stripe) return a.stripe < b.stripe;
    return a.backend < b.backend;
  });
  if (out.size() > top_k) out.resize(top_k);
  return out;
}

std::vector<ConflictEdge> conflict_pairs(const ContentionSnapshot& snap,
                                         std::size_t top_k) {
  std::map<std::pair<std::string, std::string>, std::uint64_t> by;
  for (const SampleRow& r : snap.rows) {
    by[{r.victim, r.owner}] += r.count;
  }
  std::vector<ConflictEdge> out;
  out.reserve(by.size());
  for (auto& [key, count] : by) {
    out.push_back({key.first, key.second, count});
  }
  std::sort(out.begin(), out.end(),
            [](const ConflictEdge& a, const ConflictEdge& b) {
              if (a.count != b.count) return a.count > b.count;
              if (a.victim != b.victim) return a.victim < b.victim;
              return a.owner < b.owner;
            });
  if (out.size() > top_k) out.resize(top_k);
  return out;
}

std::string to_json(const ContentionSnapshot& snap, std::size_t top_k) {
  using telemetry::jsonutil::append_escaped;
  using telemetry::jsonutil::append_u64;
  std::string out;
  out += "{\n  \"schema\": \"";
  out += kJsonSchema;
  out += "\",\n  \"ts_ns\": ";
  append_u64(out, snap.ts_ns);
  out += ",\n  \"sample_every\": ";
  append_u64(out, snap.sample_every);
  out += ",\n  \"sampled\": ";
  append_u64(out, snap.sampled);
  out += ",\n  \"dropped\": ";
  append_u64(out, snap.dropped);
  out += ",\n  \"rows\": [";
  for (std::size_t i = 0; i < snap.rows.size(); ++i) {
    const SampleRow& r = snap.rows[i];
    out += i == 0 ? "\n" : ",\n";
    out += "    {\"stripe\": ";
    if (r.stripe == kNoStripe) {
      out += "null";
    } else {
      append_u64(out, r.stripe);
    }
    out += ", \"backend\": \"";
    append_escaped(out, r.backend);
    out += "\", \"cause\": \"";
    append_escaped(out, r.cause);
    out += "\", \"victim\": \"";
    append_escaped(out, r.victim);
    out += "\", \"owner\": \"";
    append_escaped(out, r.owner);
    out += "\", \"count\": ";
    append_u64(out, r.count);
    out += "}";
  }
  out += snap.rows.empty() ? "],\n" : "\n  ],\n";
  out += "  \"hotspots\": [";
  const std::vector<Hotspot> hot = hotspots(snap, top_k);
  for (std::size_t i = 0; i < hot.size(); ++i) {
    const Hotspot& h = hot[i];
    out += i == 0 ? "\n" : ",\n";
    out += "    {\"stripe\": ";
    append_u64(out, h.stripe);
    out += ", \"backend\": \"";
    append_escaped(out, h.backend);
    out += "\", \"total\": ";
    append_u64(out, h.total);
    out += ", \"causes\": [";
    for (std::size_t j = 0; j < h.causes.size(); ++j) {
      if (j != 0) out += ", ";
      out += "{\"cause\": \"";
      append_escaped(out, h.causes[j].first);
      out += "\", \"count\": ";
      append_u64(out, h.causes[j].second);
      out += "}";
    }
    out += "], \"labels\": [";
    for (std::size_t j = 0; j < h.labels.size(); ++j) {
      if (j != 0) out += ", ";
      out += "{\"label\": \"";
      append_escaped(out, h.labels[j].first);
      out += "\", \"count\": ";
      append_u64(out, h.labels[j].second);
      out += "}";
    }
    out += "]}";
  }
  out += hot.empty() ? "],\n" : "\n  ],\n";
  out += "  \"pairs\": [";
  const std::vector<ConflictEdge> pairs = conflict_pairs(snap, top_k);
  for (std::size_t i = 0; i < pairs.size(); ++i) {
    out += i == 0 ? "\n" : ",\n";
    out += "    {\"victim\": \"";
    append_escaped(out, pairs[i].victim);
    out += "\", \"owner\": \"";
    append_escaped(out, pairs[i].owner);
    out += "\", \"count\": ";
    append_u64(out, pairs[i].count);
    out += "}";
  }
  out += pairs.empty() ? "]\n}\n" : "\n  ]\n}\n";
  return out;
}

bool parse_json(std::string_view text, ContentionSnapshot* out,
                std::string* error) {
  telemetry::jsonutil::Cursor c{text};
  ContentionSnapshot snap;
  const auto fail = [&](const std::string& message) {
    if (error != nullptr) {
      *error = c.error.empty() ? message : c.error;
    }
    return false;
  };
  const auto expect_key = [&](std::string_view key) {
    std::string name;
    if (!c.parse_string(&name)) return false;
    if (name != key) return c.fail("expected key \"" + std::string(key) + "\"");
    return c.consume(':');
  };
  if (!c.consume('{')) return fail("not a JSON object");
  std::string schema;
  if (!expect_key("schema") || !c.parse_string(&schema)) {
    return fail("missing schema");
  }
  if (schema != kJsonSchema) {
    return fail("schema mismatch: \"" + schema + "\"");
  }
  std::uint64_t sample_every = 1;
  if (!c.consume(',') || !expect_key("ts_ns") || !c.parse_u64(&snap.ts_ns) ||
      !c.consume(',') || !expect_key("sample_every") ||
      !c.parse_u64(&sample_every) || !c.consume(',') ||
      !expect_key("sampled") || !c.parse_u64(&snap.sampled) ||
      !c.consume(',') || !expect_key("dropped") ||
      !c.parse_u64(&snap.dropped)) {
    return fail("bad header");
  }
  snap.sample_every = static_cast<std::uint32_t>(sample_every);
  if (!c.consume(',') || !expect_key("rows") || !c.consume('[')) {
    return fail("missing rows");
  }
  if (!c.peek(']')) {
    for (;;) {
      SampleRow r;
      if (!c.consume('{') || !expect_key("stripe")) return fail("bad row");
      if (c.peek('n')) {
        if (!c.parse_null()) return fail("bad stripe");
        r.stripe = kNoStripe;
      } else if (!c.parse_u64(&r.stripe)) {
        return fail("bad stripe");
      }
      if (!c.consume(',') || !expect_key("backend") ||
          !c.parse_string(&r.backend) || !c.consume(',') ||
          !expect_key("cause") || !c.parse_string(&r.cause) ||
          !c.consume(',') || !expect_key("victim") ||
          !c.parse_string(&r.victim) || !c.consume(',') ||
          !expect_key("owner") || !c.parse_string(&r.owner) ||
          !c.consume(',') || !expect_key("count") || !c.parse_u64(&r.count) ||
          !c.consume('}')) {
        return fail("bad row");
      }
      snap.rows.push_back(std::move(r));
      if (c.peek(']')) break;
      if (!c.consume(',')) return fail("bad rows array");
    }
  }
  if (!c.consume(']')) return fail("unterminated rows");
  // The derived hotspots/pairs sections are recomputable from the rows and
  // intentionally not parsed.
  *out = std::move(snap);
  return true;
}

ContentionSnapshot merge(std::span<const ContentionSnapshot> snaps) {
  ContentionSnapshot out;
  std::map<RowKey, std::uint64_t> by;
  for (const ContentionSnapshot& s : snaps) {
    out.ts_ns = std::max(out.ts_ns, s.ts_ns);
    out.sample_every = std::max(out.sample_every, s.sample_every);
    out.sampled += s.sampled;
    out.dropped += s.dropped;
    for (const SampleRow& r : s.rows) by[key_of(r)] += r.count;
  }
  out.rows = rows_from_counts(by);
  return out;
}

}  // namespace rubic::stm::profiler
