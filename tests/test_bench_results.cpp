// The shared rubic-bench-results/v1 writer (src/telemetry/bench_results.hpp):
// pinned bytes, the per-cell summary, escaping, and git-sha discovery.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/telemetry/bench_results.hpp"

namespace {

using rubic::telemetry::BenchCell;
using rubic::telemetry::BenchSummary;
using rubic::telemetry::MachineInfo;
using rubic::telemetry::format_bench_results;
using rubic::telemetry::resolve_git_sha;
using rubic::telemetry::summarize_reps;

const MachineInfo kMachine{4, "Linux", "6.1.0-test", "x86_64",
                           "RelWithDebInfo"};
const std::string kSha = "0123456789abcdef0123456789abcdef01234567";

// These bytes are what rubic_bench wrote for the same cells before the
// writer was shared: key order, indentation and %.6g numbers are a schema
// contract with scripts/bench_compare.py and the committed baselines.
TEST(BenchResults, GoldenBytesMatchTheRubicBenchLayout) {
  const std::vector<BenchCell> cells = {
      {"trace_emit_disarmed_ns", "ns_per_op", "lower", true,
       {0.412345678, 0.40001, 0.5}},
      {"runtime_overhead_disarmed_pct", "percent", "lower", false,
       {0.0, 1.25, 0.333333333}},
      {"tuned_process_tasks_per_s", "tasks_per_s", "higher", false,
       {1234567.89, 987654.321, 1e-7}},
  };
  const std::string expected = R"({
  "schema": "rubic-bench-results/v1",
  "suite": "ci-fast",
  "reps": 3,
  "git_sha": "0123456789abcdef0123456789abcdef01234567",
  "machine": {"nproc": 4, "system": "Linux", "release": "6.1.0-test", "arch": "x86_64", "build_type": "RelWithDebInfo"},
  "results": [
    {"name": "trace_emit_disarmed_ns", "metric": "ns_per_op", "better": "lower", "gate": true, "median": 0.412346, "p95": 0.5, "min": 0.40001, "mean": 0.437452, "values": [0.412346, 0.40001, 0.5]},
    {"name": "runtime_overhead_disarmed_pct", "metric": "percent", "better": "lower", "gate": false, "median": 0.333333, "p95": 1.25, "min": 0, "mean": 0.527778, "values": [0, 1.25, 0.333333]},
    {"name": "tuned_process_tasks_per_s", "metric": "tasks_per_s", "better": "higher", "gate": false, "median": 987654, "p95": 1.23457e+06, "min": 1e-07, "mean": 740741, "values": [1.23457e+06, 987654, 1e-07]}
  ]
}
)";
  EXPECT_EQ(format_bench_results("ci-fast", 3, kSha, cells, kMachine),
            expected);
}

// rubic_traffic --bench-out: two policy runs, four one-value cells each.
// The bytes are the traffic projection's earlier output plus the machine
// block every writer now emits.
TEST(BenchResults, TrafficProjectionOfTwoRuns) {
  std::vector<BenchCell> cells;
  const auto add_run = [&](const std::string& policy, double p50, double p99,
                           double p999, double slo) {
    const std::string prefix = "traffic_" + policy + "_";
    cells.push_back({prefix + "p50_us", "us", "lower", false, {p50}});
    cells.push_back({prefix + "p99_us", "us", "lower", false, {p99}});
    cells.push_back({prefix + "p999_us", "us", "lower", false, {p999}});
    cells.push_back(
        {prefix + "slo_attainment", "fraction", "higher", false, {slo}});
  };
  add_run("rubic", 12.5, 250.25, 1234.5, 0.99875);
  add_run("fixed:4", 13.0, 312.0, 4021.75, 0.9125);
  const std::string expected = R"({
  "schema": "rubic-bench-results/v1",
  "suite": "traffic:ycsb-a",
  "reps": 1,
  "git_sha": "0123456789abcdef0123456789abcdef01234567",
  "machine": {"nproc": 4, "system": "Linux", "release": "6.1.0-test", "arch": "x86_64", "build_type": "RelWithDebInfo"},
  "results": [
    {"name": "traffic_rubic_p50_us", "metric": "us", "better": "lower", "gate": false, "median": 12.5, "p95": 12.5, "min": 12.5, "mean": 12.5, "values": [12.5]},
    {"name": "traffic_rubic_p99_us", "metric": "us", "better": "lower", "gate": false, "median": 250.25, "p95": 250.25, "min": 250.25, "mean": 250.25, "values": [250.25]},
    {"name": "traffic_rubic_p999_us", "metric": "us", "better": "lower", "gate": false, "median": 1234.5, "p95": 1234.5, "min": 1234.5, "mean": 1234.5, "values": [1234.5]},
    {"name": "traffic_rubic_slo_attainment", "metric": "fraction", "better": "higher", "gate": false, "median": 0.99875, "p95": 0.99875, "min": 0.99875, "mean": 0.99875, "values": [0.99875]},
    {"name": "traffic_fixed:4_p50_us", "metric": "us", "better": "lower", "gate": false, "median": 13, "p95": 13, "min": 13, "mean": 13, "values": [13]},
    {"name": "traffic_fixed:4_p99_us", "metric": "us", "better": "lower", "gate": false, "median": 312, "p95": 312, "min": 312, "mean": 312, "values": [312]},
    {"name": "traffic_fixed:4_p999_us", "metric": "us", "better": "lower", "gate": false, "median": 4021.75, "p95": 4021.75, "min": 4021.75, "mean": 4021.75, "values": [4021.75]},
    {"name": "traffic_fixed:4_slo_attainment", "metric": "fraction", "better": "higher", "gate": false, "median": 0.9125, "p95": 0.9125, "min": 0.9125, "mean": 0.9125, "values": [0.9125]}
  ]
}
)";
  EXPECT_EQ(format_bench_results("traffic:ycsb-a", 1, kSha, cells, kMachine),
            expected);
}

TEST(BenchResults, SummaryOfAnOddRepCount) {
  const BenchSummary s = summarize_reps(std::vector<double>{3.0, 1.0, 2.0});
  EXPECT_DOUBLE_EQ(s.median, 2.0);
  EXPECT_DOUBLE_EQ(s.p95, 3.0);  // index 0.95 * 3 + 0.5 -> 3, clamped to 2
  EXPECT_DOUBLE_EQ(s.min, 1.0);
  EXPECT_DOUBLE_EQ(s.mean, 2.0);

  std::vector<double> twenty;
  for (int i = 20; i >= 1; --i) twenty.push_back(i);
  twenty.push_back(0.5);  // 21 values: 0.5, 1..20
  const BenchSummary t = summarize_reps(twenty);
  EXPECT_DOUBLE_EQ(t.median, 10.0);
  EXPECT_DOUBLE_EQ(t.p95, 20.0);  // 0.95 * 21 + 0.5 -> index 20
  EXPECT_DOUBLE_EQ(t.min, 0.5);
}

TEST(BenchResults, SummaryOfAnEvenRepCount) {
  const BenchSummary s =
      summarize_reps(std::vector<double>{4.0, 1.0, 3.0, 2.0});
  EXPECT_DOUBLE_EQ(s.median, 2.5);  // mean of the middle pair
  EXPECT_DOUBLE_EQ(s.p95, 4.0);
  EXPECT_DOUBLE_EQ(s.min, 1.0);
  EXPECT_DOUBLE_EQ(s.mean, 2.5);

  std::vector<double> forty;
  for (int i = 1; i <= 40; ++i) forty.push_back(i);
  const BenchSummary t = summarize_reps(forty);
  EXPECT_DOUBLE_EQ(t.median, 20.5);
  EXPECT_DOUBLE_EQ(t.p95, 39.0);  // 0.95 * 40 + 0.5 -> index 38 holds 39
}

TEST(BenchResults, SingleValueAndEmptySummaries) {
  const BenchSummary one = summarize_reps(std::vector<double>{7.25});
  EXPECT_DOUBLE_EQ(one.median, 7.25);
  EXPECT_DOUBLE_EQ(one.p95, 7.25);
  EXPECT_DOUBLE_EQ(one.min, 7.25);
  EXPECT_DOUBLE_EQ(one.mean, 7.25);
  const BenchSummary none = summarize_reps(std::vector<double>{});
  EXPECT_DOUBLE_EQ(none.median, 0.0);
  EXPECT_DOUBLE_EQ(none.mean, 0.0);
}

TEST(BenchResults, NamesAndHeaderStringsAreEscaped) {
  const std::vector<BenchCell> cells = {
      {"bad\"name\x01\\", "ns_per_op", "lower", false, {1.0}}};
  const MachineInfo machine{1, "Lin\"ux", "r\n1", "x86_64", "Debug"};
  const std::string doc =
      format_bench_results("suite\t1", 1, "sha\"", cells, machine);
  EXPECT_NE(doc.find(R"("name": "bad\"name\u0001\\")"), std::string::npos)
      << doc;
  EXPECT_NE(doc.find(R"("suite": "suite\t1")"), std::string::npos) << doc;
  EXPECT_NE(doc.find(R"("git_sha": "sha\"")"), std::string::npos) << doc;
  EXPECT_NE(doc.find(R"("system": "Lin\"ux", "release": "r\n1")"),
            std::string::npos)
      << doc;
}

TEST(BenchResults, EmptyCellListIsAValidDocument) {
  const std::string doc = format_bench_results("none", 1, kSha, {}, kMachine);
  EXPECT_NE(doc.find("\"results\": [\n  ]\n}\n"), std::string::npos) << doc;
}

TEST(BenchResults, GitShaFlagWinsOverDiscovery) {
  EXPECT_EQ(resolve_git_sha("cafef00d"), "cafef00d");
  EXPECT_FALSE(resolve_git_sha("").empty());  // env, .git/HEAD or "unknown"
}

TEST(BenchResults, MachineBlockDescribesThisBuild) {
  const MachineInfo machine = rubic::telemetry::this_machine();
  EXPECT_FALSE(machine.system.empty());
  EXPECT_FALSE(machine.arch.empty());
  const std::string doc = format_bench_results("x", 1, kSha, {});
  EXPECT_NE(doc.find("\"build_type\": \"" + machine.build_type + "\""),
            std::string::npos)
      << doc;
}

}  // namespace
