#include "src/traffic/arrival.hpp"

#include <charconv>
#include <cmath>
#include <optional>
#include <stdexcept>

#include "src/traffic/keydist.hpp"
#include "src/util/rng.hpp"

namespace rubic::traffic {
namespace {

[[noreturn]] void bad_config(std::string_view what) {
  throw std::invalid_argument("bad traffic config: " + std::string(what));
}

std::uint64_t parse_u64(std::string_view text, std::string_view key) {
  std::uint64_t value = 0;
  const auto [ptr, ec] =
      std::from_chars(text.data(), text.data() + text.size(), value);
  if (ec != std::errc{} || ptr != text.data() + text.size()) {
    bad_config(std::string(key) + " wants an unsigned integer, got '" +
               std::string(text) + "'");
  }
  return value;
}

double parse_f64(std::string_view text, std::string_view key) {
  double value = 0.0;
  const auto [ptr, ec] =
      std::from_chars(text.data(), text.data() + text.size(), value);
  if (ec != std::errc{} || ptr != text.data() + text.size()) {
    bad_config(std::string(key) + " wants a number, got '" +
               std::string(text) + "'");
  }
  return value;
}

// Either distribution behind one sampling call so the schedule builder
// doesn't branch per request. The zipfian zeta precompute is O(keys), so a
// uniform run never pays it.
class KeySampler {
 public:
  KeySampler(const TrafficConfig& config) : uniform_(config.keys) {
    if (config.dist == "zipfian") {
      zipfian_.emplace(config.keys, config.theta);
    } else if (config.dist != "uniform") {
      bad_config("dist must be zipfian or uniform, got '" + config.dist +
                 "'");
    }
  }

  std::uint64_t sample(util::Xoshiro256& rng) const noexcept {
    return zipfian_ ? zipfian_->sample(rng) : uniform_.sample(rng);
  }

 private:
  UniformSampler uniform_;
  std::optional<ZipfianSampler> zipfian_;
};

// Narrows a namespace-relative key into the packed Request. Config checks
// bound every drawn key; only the fresh insert keys and order rows grow
// with the run.
std::uint32_t relative_key(std::uint64_t key) {
  if (key > kMaxRelativeKey) {
    bad_config("insert keys or order rows pass 2^32");
  }
  return static_cast<std::uint32_t>(key);
}

// Largest aux values: payment amounts and new_order stock indices.
static_assert(500 <= Request::kMaxAux && kStockKeys - 1 <= Request::kMaxAux);

}  // namespace

TrafficConfig parse_traffic_config(std::string_view spec) {
  TrafficConfig config;
  while (!spec.empty()) {
    const std::size_t sep = spec.find(';');
    const std::string_view field =
        sep == std::string_view::npos ? spec : spec.substr(0, sep);
    spec = sep == std::string_view::npos ? std::string_view{}
                                         : spec.substr(sep + 1);
    if (field.empty()) continue;
    const std::size_t eq = field.find('=');
    if (eq == std::string_view::npos) {
      bad_config("expected key=value, got '" + std::string(field) + "'");
    }
    const std::string_view key = field.substr(0, eq);
    const std::string_view value = field.substr(eq + 1);
    if (key == "mix") {
      config.mix = std::string(value);
    } else if (key == "dist") {
      config.dist = std::string(value);
    } else if (key == "theta") {
      config.theta = parse_f64(value, key);
    } else if (key == "keys") {
      config.keys = parse_u64(value, key);
    } else if (key == "accounts") {
      config.accounts = parse_u64(value, key);
    } else if (key == "clients") {
      config.clients = static_cast<std::uint32_t>(parse_u64(value, key));
    } else if (key == "scan_len") {
      config.scan_len = parse_u64(value, key);
    } else if (key == "seed") {
      config.seed = parse_u64(value, key);
    } else if (key == "curve") {
      config.curve = std::string(value);
    } else if (key == "slo_ms") {
      config.slo_us = static_cast<std::uint64_t>(
          parse_f64(value, key) * 1000.0);
    } else if (key == "slo_us") {
      config.slo_us = parse_u64(value, key);
    } else if (key == "index") {
      config.index = std::string(value);
    } else {
      bad_config("unknown key '" + std::string(key) +
                 "' (known: mix dist theta keys accounts clients scan_len "
                 "seed curve slo_ms slo_us index)");
    }
  }
  return config;
}

std::size_t schedule_reserve(const RateCurve& curve) noexcept {
  double expected = 0.0;
  for (const Phase& phase : curve.phases()) {
    expected += RateCurve::mean_rate(phase) * phase.seconds;
  }
  // Capped just past what a schedule holds (build_schedule then throws),
  // which also keeps an infinite or NaN rate out of the cast.
  const double cap = static_cast<double>(kMaxRelativeKey) + 1.0;
  const double bound = std::ceil(expected + 6.0 * std::sqrt(expected)) + 64;
  return static_cast<std::size_t>(bound <= cap ? bound : cap);
}

Schedule build_schedule(const TrafficConfig& config) {
  if (config.keys == 0) bad_config("keys must be > 0");
  if (config.keys > kMaxRelativeKey) bad_config("keys must be < 2^32");
  if (config.clients == 0) bad_config("clients must be > 0");
  if (config.clients > kMaxClients) bad_config("clients must be <= 65535");
  if (config.accounts < 2 * kWarehouseAccounts) {
    bad_config("accounts must be >= 8");
  }
  if (config.accounts > kMaxRelativeKey) {
    bad_config("accounts must be < 2^32");
  }
  if (config.scan_len == 0) bad_config("scan_len must be > 0");
  if (config.index != "hash" && config.index != "btree") {
    bad_config("index must be hash or btree, got '" + config.index + "'");
  }

  const OpMix& mix = mix_by_name(config.mix);  // throws on unknown mix
  Schedule schedule{config, RateCurve::parse(config.curve), {}, 0, 0};
  const RateCurve& curve = schedule.curve;
  if (curve.phases().size() > kMaxPhases) {
    bad_config("curve has more than 65536 phases");
  }
  const double total = curve.total_seconds();
  if (!(total * 1e9 < static_cast<double>(kMaxArrivalNs))) {
    bad_config("curve is longer than 2^48 ns (~78 h)");
  }
  // Every request adds at most one insert key or order row, so a schedule
  // under 2^32 requests keeps both counters in range too.
  const std::size_t reserve = schedule_reserve(curve);
  if (reserve > kMaxRelativeKey) {
    bad_config("curve offers too many requests (a schedule holds fewer "
               "than 2^32)");
  }

  util::Xoshiro256 rng(config.seed);
  const KeySampler sampler(config);
  std::vector<std::uint32_t> next_seq(config.clients, 1);
  schedule.requests.reserve(reserve);

  // Piecewise inversion: exponential gaps at the instantaneous rate, with
  // zero-rate stretches skipped to the next phase boundary. Rates change
  // slowly relative to the gap length, so sampling at the left endpoint is
  // an adequate approximation of the nonhomogeneous process.
  double t = 0.0;
  while (t < total) {
    const double rate = curve.rate_at(t);
    if (rate <= 1e-9) {
      const std::size_t phase = curve.phase_index_at(t);
      if (phase + 1 >= curve.phases().size()) break;
      double boundary = 0.0;
      for (std::size_t i = 0; i <= phase; ++i) {
        boundary += curve.phases()[i].seconds;
      }
      t = boundary;
      continue;
    }
    t += -std::log1p(-rng.uniform()) / rate;
    if (t >= total) break;

    // Keep the draw order below: a config must keep yielding the same
    // requests (Arrival.StreamMatchesTheHistoricalDigest pins the stream).
    const auto arrival_ns = static_cast<std::uint64_t>(t * 1e9);
    const std::size_t phase = curve.phase_index_at(t);
    const auto client = static_cast<std::uint32_t>(rng.below(config.clients));
    const std::uint32_t seq = next_seq[client]++;
    const OpKind op = mix.pick(rng.uniform());
    std::uint64_t key = 0;
    std::uint64_t key2 = 0;
    std::uint64_t aux = 0;
    switch (op) {
      case OpKind::kRead:
      case OpKind::kUpdate:
      case OpKind::kRmw:
      case OpKind::kScan:
        key = sampler.sample(rng);
        break;
      case OpKind::kInsert:
        key = config.keys + schedule.insert_keys++;
        break;
      case OpKind::kTransfer:
        key = rng.below(config.accounts);
        key2 = rng.below(config.accounts - 1);
        if (key2 >= key) ++key2;
        aux = 1 + rng.below(100);
        break;
      case OpKind::kPayment:
        key = kWarehouseAccounts +
              rng.below(config.accounts - kWarehouseAccounts);
        key2 = rng.below(kWarehouseAccounts);
        aux = 1 + rng.below(500);
        break;
      case OpKind::kNewOrder:
        key = rng.below(kDistricts);
        key2 = schedule.order_rows++;
        aux = rng.below(kStockKeys);
        break;
      case OpKind::kStockScan:
        key = rng.below(kStockKeys);
        break;
      case OpKind::kOrderScan:
        // Window over the order rows created so far — recent orders when
        // the draw lands near the tail, a miss-heavy scan early in the run.
        key = rng.below(schedule.order_rows + 1);
        break;
    }
    schedule.requests.emplace_back(
        arrival_ns, phase, client, seq, op, relative_key(key),
        relative_key(key2), static_cast<std::uint32_t>(aux));
  }
  return schedule;
}

}  // namespace rubic::traffic
