#include "src/traffic/report.hpp"

#include <cstdio>

#include "src/telemetry/json.hpp"

namespace rubic::traffic {
namespace {

using telemetry::jsonutil::append_quoted;
using telemetry::jsonutil::escaped;

void append_phase(std::string& out, const PhaseSummary& phase,
                  const char* indent, bool last) {
  char buffer[512];
  std::snprintf(
      buffer, sizeof buffer,
      "%s{\"name\": \"%s\", \"seconds\": %.3f, \"offered_rps\": %.1f, "
      "\"scheduled\": %llu, \"completed\": %llu, \"slo_ok\": %llu, "
      "\"slo_attainment\": %.4f, \"p50_us\": %.1f, \"p99_us\": %.1f, "
      "\"p999_us\": %.1f, \"mean_us\": %.1f, \"max_backlog\": %llu}%s\n",
      indent, escaped(phase.name).c_str(), phase.seconds,
      phase.offered_rps, static_cast<unsigned long long>(phase.scheduled),
      static_cast<unsigned long long>(phase.completed),
      static_cast<unsigned long long>(phase.slo_ok), phase.slo_attainment,
      phase.p50_us, phase.p99_us, phase.p999_us, phase.mean_us,
      static_cast<unsigned long long>(phase.max_backlog), last ? "" : ",");
  out += buffer;
}

}  // namespace

std::string format_traffic_report(const TrafficConfig& config,
                                  const std::vector<RunResult>& runs) {
  char buffer[512];
  std::string out = "{\n";
  std::snprintf(
      buffer, sizeof buffer,
      "  \"schema\": \"%.*s\",\n"
      "  \"tool\": \"rubic_traffic\",\n"
      "  \"config\": {\"mix\": \"%s\", \"dist\": \"%s\", \"theta\": %.3f, "
      "\"keys\": %llu, \"accounts\": %llu, \"clients\": %u, "
      "\"scan_len\": %llu, \"seed\": %llu, \"slo_us\": %llu, "
      "\"curve\": \"%s\"},\n"
      "  \"runs\": [\n",
      static_cast<int>(kReportSchema.size()), kReportSchema.data(),
      escaped(config.mix).c_str(), escaped(config.dist).c_str(),
      config.theta, static_cast<unsigned long long>(config.keys),
      static_cast<unsigned long long>(config.accounts), config.clients,
      static_cast<unsigned long long>(config.scan_len),
      static_cast<unsigned long long>(config.seed),
      static_cast<unsigned long long>(config.slo_us),
      escaped(config.curve).c_str());
  out += buffer;

  for (std::size_t i = 0; i < runs.size(); ++i) {
    const RunResult& run = runs[i];
    const TrafficSummary& s = run.summary;
    // The strings are unbounded (a verifier message can run to any
    // length): they are appended, only the numeric tail goes through the
    // fixed buffer.
    out += "    {\"policy\": ";
    append_quoted(out, run.policy);
    out += ", \"backend\": ";
    append_quoted(out, run.backend);
    out += ", \"completed\": ";
    out += run.completed ? "true" : "false";
    out += ", \"verified\": ";
    out += run.verified ? "true" : "false";
    out += ", \"verify_error\": ";
    append_quoted(out, run.verify_error);
    out += ",\n";
    std::snprintf(
        buffer, sizeof buffer,
        "     \"makespan_s\": %.3f, \"scheduled\": %llu, "
        "\"dispatched\": %llu, \"executed\": %llu, \"mean_level\": %.2f, "
        "\"final_level\": %d, \"commits\": %llu, \"aborts\": %llu,\n",
        run.makespan_s, static_cast<unsigned long long>(s.scheduled),
        static_cast<unsigned long long>(s.dispatched),
        static_cast<unsigned long long>(s.executed), run.mean_level,
        run.final_level, static_cast<unsigned long long>(run.commits),
        static_cast<unsigned long long>(run.aborts));
    out += buffer;
    out += "     \"overall\":\n";
    append_phase(out, s.overall, "      ", true);
    out += "     ,\"phases\": [\n";
    for (std::size_t p = 0; p < s.phases.size(); ++p) {
      append_phase(out, s.phases[p], "      ", p + 1 == s.phases.size());
    }
    out += "    ]}";
    out += i + 1 < runs.size() ? ",\n" : "\n";
  }
  out += "  ]\n}\n";
  return out;
}

}  // namespace rubic::traffic
