#include "src/telemetry/bench_results.hpp"

#include <sys/utsname.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <thread>

#include "src/telemetry/json.hpp"

namespace rubic::telemetry {
namespace {

using jsonutil::append_quoted;

void append_g6(std::string& out, double value) {
  char buffer[32];
  std::snprintf(buffer, sizeof buffer, "%.6g", value);
  out += buffer;
}

std::string read_first_line(const std::string& path) {
  std::string line;
  if (std::FILE* f = std::fopen(path.c_str(), "r")) {
    char buffer[256] = {0};
    if (std::fgets(buffer, sizeof buffer, f) != nullptr) {
      line = buffer;
      while (!line.empty() && (line.back() == '\n' || line.back() == '\r')) {
        line.pop_back();
      }
    }
    std::fclose(f);
  }
  return line;
}

std::string discover_git_sha() {
  if (const char* env = std::getenv("GITHUB_SHA"); env != nullptr && *env) {
    return env;
  }
  std::string prefix;
  for (int depth = 0; depth < 4; ++depth) {
    const std::string head = read_first_line(prefix + ".git/HEAD");
    if (!head.empty()) {
      if (head.rfind("ref: ", 0) == 0) {
        const std::string sha =
            read_first_line(prefix + ".git/" + head.substr(5));
        return sha.empty() ? "unknown" : sha;
      }
      return head;
    }
    prefix += "../";
  }
  return "unknown";
}

}  // namespace

BenchSummary summarize_reps(std::span<const double> values) {
  BenchSummary s;
  if (values.empty()) return s;
  std::vector<double> sorted(values.begin(), values.end());
  std::sort(sorted.begin(), sorted.end());
  const std::size_t n = sorted.size();
  s.min = sorted.front();
  s.median =
      n % 2 == 1 ? sorted[n / 2] : 0.5 * (sorted[n / 2 - 1] + sorted[n / 2]);
  const auto p95_index =
      static_cast<std::size_t>(0.95 * static_cast<double>(n) + 0.5);
  s.p95 = sorted[std::min(p95_index, n - 1)];
  double sum = 0.0;
  for (double v : sorted) sum += v;
  s.mean = sum / static_cast<double>(n);
  return s;
}

MachineInfo this_machine() {
  utsname uts{};
  uname(&uts);
  return {std::thread::hardware_concurrency(), uts.sysname, uts.release,
          uts.machine, RUBIC_BUILD_TYPE};
}

std::string resolve_git_sha(const std::string& flag) {
  return flag.empty() ? discover_git_sha() : flag;
}

std::string format_bench_results(std::string_view suite, int reps,
                                 std::string_view git_sha,
                                 const std::vector<BenchCell>& cells,
                                 const MachineInfo& machine) {
  std::string out = "{\n  \"schema\": ";
  append_quoted(out, kBenchResultsSchema);
  out += ",\n  \"suite\": ";
  append_quoted(out, suite);
  out += ",\n  \"reps\": " + std::to_string(reps);
  out += ",\n  \"git_sha\": ";
  append_quoted(out, git_sha);
  out += ",\n  \"machine\": {\"nproc\": " + std::to_string(machine.nproc);
  out += ", \"system\": ";
  append_quoted(out, machine.system);
  out += ", \"release\": ";
  append_quoted(out, machine.release);
  out += ", \"arch\": ";
  append_quoted(out, machine.arch);
  out += ", \"build_type\": ";
  append_quoted(out, machine.build_type);
  out += "},\n  \"results\": [\n";
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const BenchCell& cell = cells[i];
    const BenchSummary s = summarize_reps(cell.values);
    out += "    {\"name\": ";
    append_quoted(out, cell.name);
    out += ", \"metric\": ";
    append_quoted(out, cell.metric);
    out += ", \"better\": ";
    append_quoted(out, cell.better);
    out += cell.gate ? ", \"gate\": true" : ", \"gate\": false";
    out += ", \"median\": ";
    append_g6(out, s.median);
    out += ", \"p95\": ";
    append_g6(out, s.p95);
    out += ", \"min\": ";
    append_g6(out, s.min);
    out += ", \"mean\": ";
    append_g6(out, s.mean);
    out += ", \"values\": [";
    for (std::size_t v = 0; v < cell.values.size(); ++v) {
      if (v) out += ", ";
      append_g6(out, cell.values[v]);
    }
    out += "]}";
    out += i + 1 < cells.size() ? ",\n" : "\n";
  }
  out += "  ]\n}\n";
  return out;
}

}  // namespace rubic::telemetry
