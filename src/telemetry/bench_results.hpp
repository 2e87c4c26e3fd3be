// The one writer of `rubic-bench-results/v1` documents.
//
// rubic_bench (micro cells and scenarios), rubic_synchro (the Synchrobench
// grid) and rubic_traffic --bench-out (per-policy latency and SLO cells)
// all emit the same schema, which scripts/bench_compare.py and
// scripts/check_backend_grid.py consume; this module owns the cell type,
// the per-cell summary, the git-sha discovery and the document layout so
// the three cannot drift. Layout (docs/benchmarks.md): schema, suite, reps,
// git_sha, a machine block, then one line per cell with median/p95/min/mean
// and the raw per-rep values, every number printed with %.6g.
#pragma once

#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace rubic::telemetry {

inline constexpr std::string_view kBenchResultsSchema =
    "rubic-bench-results/v1";

// One result cell: a named metric measured once per repetition.
struct BenchCell {
  std::string name;
  std::string metric;  // unit label, e.g. "ns_per_op", "percent", "tasks_per_s"
  std::string better;  // "lower" | "higher"
  bool gate = false;   // feeds the CI regression gate (stable metrics only)
  std::vector<double> values;  // one per rep
};

struct BenchSummary {
  double median = 0.0, p95 = 0.0, min = 0.0, mean = 0.0;
};

// Median (mean of the middle pair for an even count), nearest-rank p95,
// min and mean of one cell's repetitions; all zero for no values.
BenchSummary summarize_reps(std::span<const double> values);

struct MachineInfo {
  unsigned nproc = 0;
  std::string system, release, arch;  // uname(2)
  std::string build_type;             // CMAKE_BUILD_TYPE of this library
};

MachineInfo this_machine();

// Best-effort git sha: `flag` (the tools' --git-sha) if non-empty, then
// $GITHUB_SHA, then .git/HEAD searched upward a few levels (the binaries
// usually run from build/), else "unknown".
std::string resolve_git_sha(const std::string& flag);

std::string format_bench_results(std::string_view suite, int reps,
                                 std::string_view git_sha,
                                 const std::vector<BenchCell>& cells,
                                 const MachineInfo& machine = this_machine());

}  // namespace rubic::telemetry
