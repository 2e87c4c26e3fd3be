// JSON rendering for traffic runs (tools/rubic_traffic): the native
// "rubic-traffic-report/v1" document — config echo plus one entry per
// controller run with per-phase p50/p99/p999, SLO-attainment fractions and
// verification status. The tool's --bench-out projection of the same runs
// goes through the shared bench-results writer
// (src/telemetry/bench_results.hpp).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "src/traffic/kv_service.hpp"

namespace rubic::traffic {

inline constexpr std::string_view kReportSchema = "rubic-traffic-report/v1";

// One controller's run over the shared schedule.
struct RunResult {
  std::string policy;
  std::string backend;
  TrafficSummary summary;
  double makespan_s = 0.0;  // wall time to drain the schedule
  bool completed = false;   // drained before the tool's timeout
  bool verified = false;
  std::string verify_error;
  double mean_level = 0.0;
  int final_level = 0;
  std::uint64_t commits = 0;
  std::uint64_t aborts = 0;
};

std::string format_traffic_report(const TrafficConfig& config,
                                  const std::vector<RunResult>& runs);

}  // namespace rubic::traffic
