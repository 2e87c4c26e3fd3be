// Precomputed open-loop arrival schedules.
//
// The generator inverts a seeded nonhomogeneous Poisson process over the
// run's RateCurve before any worker starts: every request's arrival time,
// client, operation, and keys are fixed up front. Dispatch then only waits
// for the wall clock to reach each precomputed arrival — when the server
// falls behind, requests queue (backlog grows, latency inflates) instead of
// the generator quietly slowing down, which is the property that makes SLO
// comparisons between controllers honest. Two runs with the same
// TrafficConfig produce bit-identical schedules.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "src/traffic/mix.hpp"
#include "src/traffic/rate_curve.hpp"

namespace rubic::traffic {

// Key-space layout inside the one transactional hash map. Data keys live at
// [0, keys); everything else sits in disjoint high namespaces so the mixes
// can share the map without colliding.
inline constexpr std::int64_t kAccountBase = std::int64_t{1} << 40;
inline constexpr std::int64_t kOrderBase = std::int64_t{2} << 40;
inline constexpr std::int64_t kStockBase = std::int64_t{3} << 40;
inline constexpr std::int64_t kDistrictBase = std::int64_t{4} << 40;
inline constexpr std::int64_t kClientBase = std::int64_t{5} << 40;

inline constexpr std::uint64_t kStockKeys = 1024;   // contended stock rows
inline constexpr std::uint64_t kDistricts = 16;     // new-order counters
inline constexpr std::uint64_t kWarehouseAccounts = 4;  // payment sinks
inline constexpr std::uint64_t kStockScanLen = 8;
inline constexpr std::uint64_t kOrderScanLen = 16;  // order rows per scan

struct TrafficConfig {
  std::string mix = "ycsb-b";
  std::string dist = "zipfian";  // zipfian | uniform
  double theta = 0.99;           // zipfian skew, in (0, 1)
  std::uint64_t keys = 16384;    // pre-populated data keys
  std::uint64_t accounts = 256;  // zero-sum balance accounts (>= 8)
  std::uint32_t clients = 64;    // logical request sources
  std::uint64_t scan_len = 16;   // keys touched by a YCSB scan
  std::uint64_t seed = 1;
  std::string curve = "constant:rate=2000,seconds=5";
  std::uint64_t slo_us = 10000;  // per-request latency budget
  // Backing for the TPC-C-lite order table: "hash" keeps order rows in the
  // shared hash map; "btree" routes them through a transactional B+-tree
  // (src/tds/btree.hpp) so order_scan walks a real leaf chain instead of
  // probing per key.
  std::string index = "hash";
};

// Parses the ';'-separated key=value grammar used by rubic_colocate's
// "traffic:..." workload spec, e.g.
//   mix=ycsb-a;curve=flash:base=500,spike=4000,seconds=6;keys=8192
// (';' as the field separator lets curve specs keep their ',' and ':').
// Unknown keys and malformed values throw std::invalid_argument.
TrafficConfig parse_traffic_config(std::string_view spec);

// Packed-layout limits (see Request); build_schedule rejects configs past
// them with std::invalid_argument.
inline constexpr std::uint64_t kMaxClients = 65535;
inline constexpr std::uint64_t kMaxRelativeKey = 0xFFFF'FFFF;  // 32-bit keys
inline constexpr std::uint64_t kMaxPhases = 65536;
inline constexpr std::uint64_t kMaxArrivalNs = (std::uint64_t{1} << 48) - 1;

// One precomputed request, packed into 24 bytes: the schedule of a
// million-request run is the open-loop run's largest allocation. Keys are
// stored relative to their op's namespace and rebuilt by key()/key2():
//   read/update/rmw: key = data key
//   insert:          key = fresh data key (never pre-populated)
//   scan:            key = start data key
//   transfer:        key = source account, key2 = destination, aux = amount
//   payment:         key = customer account, key2 = warehouse, aux = amount
//   new_order:       key = district counter, key2 = fresh order row,
//                    aux = first stock index (two consecutive rows RMWed)
//   stock_scan:      key = first stock index
//   order_scan:      key = first order-row key
// Scan lengths are constant per op (Schedule::scan_len).
class Request {
 public:
  static constexpr std::uint64_t kMaxAux = 0xFFF;  // 12 bits beside the op

  // `key`/`key2` are namespace-relative; `phase`, `client` and `aux` must
  // be within kMaxPhases, kMaxClients and kMaxAux.
  Request(std::uint64_t arrival_ns, std::size_t phase, std::uint32_t client,
          std::uint32_t seq, OpKind op, std::uint32_t key,
          std::uint32_t key2, std::uint32_t aux) noexcept
      : arrival_phase_(arrival_ns | (static_cast<std::uint64_t>(phase)
                                     << kArrivalBits)),
        seq_(seq),
        key_(key),
        key2_(key2),
        client_(static_cast<std::uint16_t>(client)),
        op_aux_(static_cast<std::uint16_t>(static_cast<std::uint32_t>(op) |
                                           (aux << kOpBits))) {}

  std::uint64_t arrival_ns() const noexcept {
    return arrival_phase_ & kMaxArrivalNs;
  }
  // Index into the curve's phases.
  std::size_t phase() const noexcept {
    return static_cast<std::size_t>(arrival_phase_ >> kArrivalBits);
  }
  std::uint32_t client() const noexcept { return client_; }
  std::uint32_t seq() const noexcept { return seq_; }  // per client, from 1
  OpKind op() const noexcept {
    return static_cast<OpKind>(op_aux_ & ((1u << kOpBits) - 1));
  }
  // The map keys the service touches, namespace included (0 when unused).
  std::int64_t key() const noexcept { return key_base(op()) + key_; }
  std::int64_t key2() const noexcept { return key2_base(op()) + key2_; }
  std::int64_t aux() const noexcept { return op_aux_ >> kOpBits; }

 private:
  static constexpr unsigned kArrivalBits = 48;
  static constexpr unsigned kOpBits = 4;
  static_assert(kOpKindCount <= (1u << kOpBits));

  static constexpr std::int64_t key_base(OpKind op) noexcept {
    switch (op) {
      case OpKind::kTransfer:
      case OpKind::kPayment:
        return kAccountBase;
      case OpKind::kNewOrder:
        return kDistrictBase;
      case OpKind::kOrderScan:
        return kOrderBase;
      default:
        return 0;
    }
  }
  static constexpr std::int64_t key2_base(OpKind op) noexcept {
    switch (op) {
      case OpKind::kTransfer:
      case OpKind::kPayment:
        return kAccountBase;
      case OpKind::kNewOrder:
        return kOrderBase;
      default:
        return 0;
    }
  }

  std::uint64_t arrival_phase_ = 0;  // arrival_ns below bit 48, phase above
  std::uint32_t seq_ = 0;
  std::uint32_t key_ = 0;
  std::uint32_t key2_ = 0;
  std::uint16_t client_ = 0;
  std::uint16_t op_aux_ = 0;  // op in the low kOpBits, aux above
};
static_assert(sizeof(Request) <= 24, "a Request must stay 24 bytes or less");

struct Schedule {
  TrafficConfig config;
  RateCurve curve;
  std::vector<Request> requests;  // nondecreasing arrival_ns
  std::uint64_t insert_keys = 0;  // fresh data keys consumed by kInsert
  std::uint64_t order_rows = 0;   // fresh order rows consumed by kNewOrder

  // Keys one scan-shaped request reads: config.scan_len for kScan, the
  // fixed TPC-C-lite lengths for kStockScan/kOrderScan, 0 otherwise.
  std::uint64_t scan_len(OpKind op) const noexcept {
    switch (op) {
      case OpKind::kScan:
        return config.scan_len;
      case OpKind::kStockScan:
        return kStockScanLen;
      case OpKind::kOrderScan:
        return kOrderScanLen;
      default:
        return 0;
    }
  }
};

// Requests build_schedule reserves room for, so the schedule is allocated
// once: the curve's integral (exact for linear ramps) plus a 6-sigma Poisson
// margin. Reserved pages that are never written cost no resident memory;
// a run past the margin regrows the vector as usual.
std::size_t schedule_reserve(const RateCurve& curve) noexcept;

// Deterministic per config (the seed covers arrivals, clients, ops, and
// keys). Throws std::invalid_argument on bad mix/dist/curve or out-of-range
// sizing (accounts < 8, clients == 0, keys == 0, scan_len == 0), and on
// configs the packed Request cannot hold: clients > kMaxClients; keys,
// accounts, insert keys or order rows past kMaxRelativeKey; more than
// kMaxPhases phases, a curve longer than kMaxArrivalNs, or a curve whose
// schedule_reserve() passes kMaxRelativeKey.
Schedule build_schedule(const TrafficConfig& config);

}  // namespace rubic::traffic
