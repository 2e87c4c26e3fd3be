#include "src/telemetry/telemetry.hpp"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <stdexcept>

#include "src/fault/fault.hpp"
#include "src/telemetry/json.hpp"
#include "src/trace/trace.hpp"

namespace rubic::telemetry {

namespace detail {

std::atomic<bool> g_armed{false};

unsigned stripe_of_current_thread() noexcept {
  static std::atomic<unsigned> next_stripe{0};
  thread_local const unsigned stripe =
      next_stripe.fetch_add(1, std::memory_order_relaxed);
  return stripe;
}

}  // namespace detail

void arm() noexcept { detail::g_armed.store(true, std::memory_order_release); }

void disarm() noexcept {
  detail::g_armed.store(false, std::memory_order_release);
}

std::string_view metric_type_name(MetricType type) noexcept {
  switch (type) {
    case MetricType::kCounter:
      return "counter";
    case MetricType::kGauge:
      return "gauge";
    case MetricType::kHistogram:
      return "histogram";
  }
  return "?";
}

// --- Histogram aggregation -------------------------------------------------

std::uint64_t Histogram::count() const noexcept {
  std::uint64_t total = 0;
  for (const auto& stripe : stripes_) {
    total += stripe.value.count.load(std::memory_order_relaxed);
  }
  return total;
}

std::uint64_t Histogram::sum() const noexcept {
  std::uint64_t total = 0;
  for (const auto& stripe : stripes_) {
    total += stripe.value.sum.load(std::memory_order_relaxed);
  }
  return total;
}

std::vector<std::uint64_t> Histogram::buckets() const {
  std::vector<std::uint64_t> out(kHistogramBuckets, 0);
  for (const auto& stripe : stripes_) {
    for (std::size_t i = 0; i < kHistogramBuckets; ++i) {
      out[i] += stripe.value.buckets[i].load(std::memory_order_relaxed);
    }
  }
  while (!out.empty() && out.back() == 0) out.pop_back();
  return out;
}

double Histogram::quantile(double q) const {
  const std::vector<std::uint64_t> snapshot = buckets();
  return quantile_from_buckets(snapshot, q);
}

double quantile_from_buckets(std::span<const std::uint64_t> buckets,
                             double q) noexcept {
  if (q < 0.0 || std::isnan(q)) q = 0.0;
  if (q > 1.0) q = 1.0;
  std::uint64_t count = 0;
  for (const std::uint64_t n : buckets) count += n;
  if (count == 0) return 0.0;
  // Target rank in (0, count]: the q-fraction of the mass, with q = 0
  // pinned to the first sample so quantile(0) is the observed minimum's
  // bucket floor, not an extrapolation below it.
  const double target =
      std::max(1.0, q * static_cast<double>(count));
  double cumulative = 0.0;
  for (std::size_t i = 0; i < buckets.size(); ++i) {
    const double in_bucket = static_cast<double>(buckets[i]);
    if (in_bucket == 0.0) continue;
    if (cumulative + in_bucket >= target) {
      const double lower = static_cast<double>(
          i == 0 ? 0 : std::uint64_t{1} << (i - 1));
      const double upper = static_cast<double>(bucket_upper_bound(i));
      const double fraction = (target - cumulative) / in_bucket;
      return lower + fraction * (upper - lower);
    }
    cumulative += in_bucket;
  }
  // Unreachable for consistent inputs; be defensive about concurrent
  // updates between the count pass and the walk.
  return static_cast<double>(
      bucket_upper_bound(buckets.empty() ? 0 : buckets.size() - 1));
}

// --- Registry --------------------------------------------------------------

namespace {

Labels sorted_labels(Labels labels) {
  std::sort(labels.begin(), labels.end());
  return labels;
}

}  // namespace

Registry::Entry& Registry::find_or_create(std::string_view name,
                                          Labels&& labels, MetricType type) {
  Labels sorted = sorted_labels(std::move(labels));
  std::lock_guard<std::mutex> lock(mutex_);
  for (auto& entry : entries_) {
    if (entry->name == name && entry->labels == sorted) {
      if (entry->type != type) {
        throw std::logic_error(
            "telemetry: metric '" + std::string(name) +
            "' re-registered as " + std::string(metric_type_name(type)) +
            " but is a " + std::string(metric_type_name(entry->type)));
      }
      return *entry;
    }
  }
  auto entry = std::make_unique<Entry>();
  entry->name = std::string(name);
  entry->labels = std::move(sorted);
  entry->type = type;
  switch (type) {
    case MetricType::kCounter:
      entry->counter = std::make_unique<Counter>();
      break;
    case MetricType::kGauge:
      entry->gauge = std::make_unique<Gauge>();
      break;
    case MetricType::kHistogram:
      entry->histogram = std::make_unique<Histogram>();
      break;
  }
  entries_.push_back(std::move(entry));
  return *entries_.back();
}

Counter& Registry::counter(std::string_view name, Labels labels) {
  return *find_or_create(name, std::move(labels), MetricType::kCounter)
              .counter;
}

Gauge& Registry::gauge(std::string_view name, Labels labels) {
  return *find_or_create(name, std::move(labels), MetricType::kGauge).gauge;
}

Histogram& Registry::histogram(std::string_view name, Labels labels) {
  return *find_or_create(name, std::move(labels), MetricType::kHistogram)
              .histogram;
}

void Registry::add_collector(std::function<void()> collector) {
  std::lock_guard<std::mutex> lock(mutex_);
  collectors_.push_back(std::move(collector));
}

std::size_t Registry::metric_count() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return entries_.size();
}

Snapshot Registry::snapshot() const {
  // Collectors run outside the lock: they typically (re-)register gauges,
  // which needs the registry mutex itself.
  std::vector<std::function<void()>> collectors;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    collectors = collectors_;
  }
  for (const auto& collector : collectors) collector();

  Snapshot snapshot;
  snapshot.ts_ns = trace::monotonic_ns();
  std::lock_guard<std::mutex> lock(mutex_);
  snapshot.metrics.reserve(entries_.size());
  for (const auto& entry : entries_) {
    MetricSnapshot metric;
    metric.name = entry->name;
    metric.labels = entry->labels;
    metric.type = entry->type;
    switch (entry->type) {
      case MetricType::kCounter:
        metric.value_u64 = entry->counter->value();
        break;
      case MetricType::kGauge:
        metric.value = entry->gauge->value();
        break;
      case MetricType::kHistogram:
        metric.count = entry->histogram->count();
        metric.sum = entry->histogram->sum();
        metric.buckets = entry->histogram->buckets();
        break;
    }
    snapshot.metrics.push_back(std::move(metric));
  }
  std::sort(snapshot.metrics.begin(), snapshot.metrics.end(),
            [](const MetricSnapshot& a, const MetricSnapshot& b) {
              if (a.name != b.name) return a.name < b.name;
              return a.labels < b.labels;
            });
  return snapshot;
}

// --- process-wide registry + default collectors ----------------------------

namespace {

// Mirrors the armed fault plan's per-site hit/fire counts into gauges at
// scrape time. The fault layer stays telemetry-free (no dependency cycle);
// the gauges appear on the first scrape that observes an armed plan and
// keep their last values after disarm.
void collect_fault_sites(Registry& reg) {
  fault::Plan* plan = fault::armed();
  if (plan == nullptr) return;
  for (std::size_t i = 0; i < fault::kSiteCount; ++i) {
    const auto site = static_cast<fault::Site>(i);
    const std::string site_label(fault::site_name(site));
    reg.gauge("rubic_fault_site_hits", {{"site", site_label}})
        .set(static_cast<double>(plan->hits(site)));
    reg.gauge("rubic_fault_site_fires", {{"site", site_label}})
        .set(static_cast<double>(plan->fires(site)));
  }
}

}  // namespace

Registry& registry() {
  // Leaked on purpose: instrumentation sites may scrape/update during late
  // static destruction; a heap singleton sidesteps destruction order.
  static Registry* instance = [] {
    auto* reg = new Registry();
    reg->add_collector([reg] { collect_fault_sites(*reg); });
    return reg;
  }();
  return *instance;
}

// --- serialization helpers -------------------------------------------------

namespace {

using jsonutil::append_double;
using jsonutil::append_escaped;
using jsonutil::append_u64;
using jsonutil::Cursor;

void append_metric_json(std::string& out, const MetricSnapshot& metric) {
  out += "{\"name\":\"";
  append_escaped(out, metric.name);
  out += "\",\"labels\":{";
  bool first = true;
  for (const auto& [key, value] : metric.labels) {
    if (!first) out += ',';
    first = false;
    out += '"';
    append_escaped(out, key);
    out += "\":\"";
    append_escaped(out, value);
    out += '"';
  }
  out += "},\"type\":\"";
  out += metric_type_name(metric.type);
  out += '"';
  switch (metric.type) {
    case MetricType::kCounter:
      out += ",\"value\":";
      append_u64(out, metric.value_u64);
      break;
    case MetricType::kGauge:
      out += ",\"value\":";
      append_double(out, metric.value);
      break;
    case MetricType::kHistogram:
      out += ",\"count\":";
      append_u64(out, metric.count);
      out += ",\"sum\":";
      append_u64(out, metric.sum);
      out += ",\"buckets\":[";
      for (std::size_t i = 0; i < metric.buckets.size(); ++i) {
        if (i != 0) out += ',';
        append_u64(out, metric.buckets[i]);
      }
      out += ']';
      break;
  }
  out += '}';
}

}  // namespace

// --- JSON exporter ---------------------------------------------------------

std::string to_json(const Snapshot& snapshot, JsonStyle style) {
  const bool pretty = style == JsonStyle::kPretty;
  std::string out;
  out += "{\"schema\":\"";
  out += kJsonSchema;
  out += "\",\"ts_ns\":";
  append_u64(out, snapshot.ts_ns);
  out += ",\"metrics\":[";
  for (std::size_t i = 0; i < snapshot.metrics.size(); ++i) {
    if (i != 0) out += ',';
    if (pretty) out += '\n';
    append_metric_json(out, snapshot.metrics[i]);
  }
  if (pretty && !snapshot.metrics.empty()) out += '\n';
  out += "]}";
  if (pretty) out += '\n';
  return out;
}

std::string to_json_metrics(const Snapshot& snapshot,
                            std::string_view indent) {
  if (snapshot.metrics.empty()) return "[]";
  std::string out = "[";
  for (std::size_t i = 0; i < snapshot.metrics.size(); ++i) {
    if (i != 0) out += ',';
    out += '\n';
    out += indent;
    out += "  ";
    append_metric_json(out, snapshot.metrics[i]);
  }
  out += '\n';
  out += indent;
  out += ']';
  return out;
}

// --- Prometheus text exposition --------------------------------------------

namespace {

// Prometheus metric names are [a-zA-Z_:][a-zA-Z0-9_:]*; anything else is
// folded to '_' so a registry name can never produce an invalid line.
std::string prometheus_name(std::string_view name) {
  std::string out;
  out.reserve(name.size());
  for (char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_' || c == ':';
    out += ok ? c : '_';
  }
  if (out.empty() || (out[0] >= '0' && out[0] <= '9')) out.insert(0, "_");
  return out;
}

void append_prometheus_label_value(std::string& out, std::string_view value) {
  for (char c : value) {
    switch (c) {
      case '\\':
        out += "\\\\";
        break;
      case '"':
        out += "\\\"";
        break;
      case '\n':
        out += "\\n";
        break;
      default:
        out += c;
    }
  }
}

// Renders {k="v",...} plus an optional trailing le="..." label.
void append_prometheus_labels(std::string& out, const Labels& labels,
                              std::string_view le = {}) {
  if (labels.empty() && le.empty()) return;
  out += '{';
  bool first = true;
  for (const auto& [key, value] : labels) {
    if (!first) out += ',';
    first = false;
    out += prometheus_name(key);
    out += "=\"";
    append_prometheus_label_value(out, value);
    out += '"';
  }
  if (!le.empty()) {
    if (!first) out += ',';
    out += "le=\"";
    out += le;
    out += '"';
  }
  out += '}';
}

void append_prometheus_double(std::string& out, double value) {
  if (std::isnan(value)) {
    out += "NaN";
  } else if (std::isinf(value)) {
    out += value > 0 ? "+Inf" : "-Inf";
  } else {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.17g", value);
    out += buf;
  }
}

}  // namespace

std::string to_prometheus(const Snapshot& snapshot) {
  std::string out;
  std::string last_family;
  for (const MetricSnapshot& metric : snapshot.metrics) {
    const std::string family = prometheus_name(metric.name);
    if (family != last_family) {
      out += "# HELP " + family + " rubic telemetry metric\n";
      out += "# TYPE " + family + ' ';
      out += metric_type_name(metric.type);
      out += '\n';
      last_family = family;
    }
    switch (metric.type) {
      case MetricType::kCounter:
        out += family;
        append_prometheus_labels(out, metric.labels);
        out += ' ';
        append_u64(out, metric.value_u64);
        out += '\n';
        break;
      case MetricType::kGauge:
        out += family;
        append_prometheus_labels(out, metric.labels);
        out += ' ';
        append_prometheus_double(out, metric.value);
        out += '\n';
        break;
      case MetricType::kHistogram: {
        std::uint64_t cumulative = 0;
        for (std::size_t i = 0; i < metric.buckets.size(); ++i) {
          cumulative += metric.buckets[i];
          char le[24];
          std::snprintf(le, sizeof(le), "%llu",
                        static_cast<unsigned long long>(
                            bucket_upper_bound(i)));
          out += family + "_bucket";
          append_prometheus_labels(out, metric.labels, le);
          out += ' ';
          append_u64(out, cumulative);
          out += '\n';
        }
        out += family + "_bucket";
        append_prometheus_labels(out, metric.labels, "+Inf");
        out += ' ';
        append_u64(out, metric.count);
        out += '\n';
        out += family + "_sum";
        append_prometheus_labels(out, metric.labels);
        out += ' ';
        append_u64(out, metric.sum);
        out += '\n';
        out += family + "_count";
        append_prometheus_labels(out, metric.labels);
        out += ' ';
        append_u64(out, metric.count);
        out += '\n';
        break;
      }
    }
  }
  return out;
}

// --- JSON parser -----------------------------------------------------------

namespace {

bool parse_metric(Cursor& cur, MetricSnapshot* metric) {
  if (!cur.consume('{')) return false;
  bool have_type = false;
  double number = 0.0;
  std::uint64_t number_u64 = 0;
  bool number_is_u64 = false;
  bool have_value = false;
  bool first = true;
  while (!cur.peek('}')) {
    if (!first && !cur.consume(',')) return false;
    first = false;
    std::string key;
    if (!cur.parse_string(&key) || !cur.consume(':')) return false;
    if (key == "name") {
      if (!cur.parse_string(&metric->name)) return false;
    } else if (key == "labels") {
      if (!cur.consume('{')) return false;
      bool first_label = true;
      while (!cur.peek('}')) {
        if (!first_label && !cur.consume(',')) return false;
        first_label = false;
        std::string label_key, label_value;
        if (!cur.parse_string(&label_key) || !cur.consume(':') ||
            !cur.parse_string(&label_value)) {
          return false;
        }
        metric->labels.emplace_back(std::move(label_key),
                                    std::move(label_value));
      }
      if (!cur.consume('}')) return false;
    } else if (key == "type") {
      std::string type;
      if (!cur.parse_string(&type)) return false;
      if (type == "counter") {
        metric->type = MetricType::kCounter;
      } else if (type == "gauge") {
        metric->type = MetricType::kGauge;
      } else if (type == "histogram") {
        metric->type = MetricType::kHistogram;
      } else {
        return cur.fail("unknown metric type '" + type + "'");
      }
      have_type = true;
    } else if (key == "value") {
      if (!cur.parse_number(&number, &number_u64, &number_is_u64)) {
        return false;
      }
      have_value = true;
    } else if (key == "count") {
      if (!cur.parse_u64(&metric->count)) return false;
    } else if (key == "sum") {
      if (!cur.parse_u64(&metric->sum)) return false;
    } else if (key == "buckets") {
      if (!cur.consume('[')) return false;
      bool first_bucket = true;
      while (!cur.peek(']')) {
        if (!first_bucket && !cur.consume(',')) return false;
        first_bucket = false;
        std::uint64_t bucket = 0;
        if (!cur.parse_u64(&bucket)) return false;
        metric->buckets.push_back(bucket);
      }
      if (!cur.consume(']')) return false;
    } else {
      return cur.fail("unknown metric key '" + key + "'");
    }
  }
  if (!cur.consume('}')) return false;
  if (metric->name.empty()) return cur.fail("metric missing name");
  if (!have_type) return cur.fail("metric missing type");
  if (metric->type == MetricType::kCounter) {
    if (!have_value || !number_is_u64) {
      return cur.fail("counter missing integer value");
    }
    metric->value_u64 = number_u64;
  } else if (metric->type == MetricType::kGauge) {
    if (!have_value) return cur.fail("gauge missing value");
    metric->value = number;
  }
  return true;
}

}  // namespace

bool parse_json_snapshot(std::string_view text, Snapshot* out,
                         std::string* error) {
  Cursor cur{text};
  Snapshot snapshot;
  bool have_schema = false;
  auto report = [&](bool ok) {
    if (!ok && error != nullptr) {
      *error = cur.error.empty() ? "malformed telemetry snapshot" : cur.error;
    }
    return ok;
  };
  if (!cur.consume('{')) return report(false);
  bool first = true;
  while (!cur.peek('}')) {
    if (!first && !cur.consume(',')) return report(false);
    first = false;
    std::string key;
    if (!cur.parse_string(&key) || !cur.consume(':')) return report(false);
    if (key == "schema") {
      std::string schema;
      if (!cur.parse_string(&schema)) return report(false);
      if (schema != kJsonSchema) {
        cur.fail("schema mismatch: got '" + schema + "', want '" +
                 std::string(kJsonSchema) + "'");
        return report(false);
      }
      have_schema = true;
    } else if (key == "ts_ns") {
      if (!cur.parse_u64(&snapshot.ts_ns)) return report(false);
    } else if (key == "metrics") {
      if (!cur.consume('[')) return report(false);
      bool first_metric = true;
      while (!cur.peek(']')) {
        if (!first_metric && !cur.consume(',')) return report(false);
        first_metric = false;
        MetricSnapshot metric;
        if (!parse_metric(cur, &metric)) return report(false);
        snapshot.metrics.push_back(std::move(metric));
      }
      if (!cur.consume(']')) return report(false);
    } else {
      cur.fail("unknown snapshot key '" + key + "'");
      return report(false);
    }
  }
  if (!cur.consume('}')) return report(false);
  if (!have_schema) {
    cur.fail("missing schema field");
    return report(false);
  }
  *out = std::move(snapshot);
  return true;
}

// --- merge -----------------------------------------------------------------

Snapshot merge_snapshots(std::span<const Snapshot> snapshots) {
  std::map<std::pair<std::string, Labels>, MetricSnapshot> merged;
  Snapshot out;
  for (const Snapshot& snapshot : snapshots) {
    out.ts_ns = std::max(out.ts_ns, snapshot.ts_ns);
    for (const MetricSnapshot& metric : snapshot.metrics) {
      auto key = std::make_pair(metric.name, metric.labels);
      auto [it, inserted] = merged.emplace(std::move(key), metric);
      if (inserted) continue;
      MetricSnapshot& acc = it->second;
      // A type clash across processes means two different programs used the
      // same name; keep the first and leave the clash visible per-process.
      if (acc.type != metric.type) continue;
      switch (metric.type) {
        case MetricType::kCounter:
          acc.value_u64 += metric.value_u64;
          break;
        case MetricType::kGauge:
          acc.value += metric.value;
          break;
        case MetricType::kHistogram:
          acc.count += metric.count;
          acc.sum += metric.sum;
          if (acc.buckets.size() < metric.buckets.size()) {
            acc.buckets.resize(metric.buckets.size(), 0);
          }
          for (std::size_t i = 0; i < metric.buckets.size(); ++i) {
            acc.buckets[i] += metric.buckets[i];
          }
          break;
      }
    }
  }
  out.metrics.reserve(merged.size());
  for (auto& [key, metric] : merged) out.metrics.push_back(std::move(metric));
  return out;
}

// --- Scraper ---------------------------------------------------------------

Scraper::Scraper(Registry& source, ScraperConfig config)
    : source_(source), config_(std::move(config)) {
  thread_ = std::thread([this] {
    std::unique_lock<std::mutex> lock(mutex_);
    while (!stopping_) {
      if (cv_.wait_for(lock, config_.period, [this] { return stopping_; })) {
        break;
      }
      lock.unlock();
      append_snapshot();
      lock.lock();
    }
  });
}

Scraper::~Scraper() { stop(); }

void Scraper::stop() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (stopping_ && !thread_.joinable()) return;
    stopping_ = true;
  }
  cv_.notify_all();
  if (thread_.joinable()) {
    thread_.join();
    // One final scrape so short runs always leave at least one snapshot.
    append_snapshot();
  }
}

bool Scraper::append_snapshot() {
  std::string line = to_json(source_.snapshot(), JsonStyle::kCompact);
  line += '\n';
  std::FILE* file = std::fopen(config_.path.c_str(), "ab");
  if (file == nullptr) return false;
  const bool wrote =
      std::fwrite(line.data(), 1, line.size(), file) == line.size();
  const bool closed = std::fclose(file) == 0;
  if (wrote && closed) {
    scrapes_.fetch_add(1, std::memory_order_release);
    return true;
  }
  return false;
}

}  // namespace rubic::telemetry
