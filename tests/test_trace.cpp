// Tests for the event-tracing layer (src/trace/): ring semantics (overflow
// drops oldest, exact drop counters), the disarmed fast path, concurrent
// writers (the TSan CI job runs this binary), byte-stable deterministic
// exporters, the JSONL round trip, and end-to-end integration with the
// malleable runtime (pool resizes and monitor rounds land in the trace).
#include "src/trace/trace.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <cmath>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "src/control/rubic.hpp"
#include "src/runtime/process.hpp"
#include "src/stm/stm.hpp"
#include "src/telemetry/json.hpp"
#include "src/workloads/rbset_workload.hpp"

namespace rubic::trace {
namespace {

using namespace std::chrono_literals;

std::vector<Event> events_of(const Tracer& tracer) { return tracer.merged(); }

int count_type(const std::vector<Event>& events, EventType type) {
  int n = 0;
  for (const Event& e : events) {
    if (e.type == static_cast<std::uint16_t>(type)) ++n;
  }
  return n;
}

TEST(TraceDisarmed, EmitIsANoop) {
  ASSERT_EQ(armed(), nullptr);
  // Nothing to observe beyond "does not crash / does not allocate a ring":
  emit(EventType::kTxnCommit, 1, 2, 3.0);
  emit_at(42, EventType::kTxnAbort, 1, 2, 3.0);
  ASSERT_EQ(armed(), nullptr);
}

TEST(TraceRing, RecordsEventFields) {
  Tracer tracer;
  Armed armed_window(tracer);
  emit_at(120, EventType::kPoolResize, 1, 4, 0.0);
  emit_at(130, EventType::kMonitorRound, 0, 7, 2500.5);
  const auto events = events_of(tracer);
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].ts_ns, 120u);
  EXPECT_EQ(events[0].type, static_cast<std::uint16_t>(EventType::kPoolResize));
  EXPECT_EQ(events[0].a, 1u);
  EXPECT_EQ(events[0].b, 4u);
  EXPECT_EQ(events[1].value, 2500.5);
  EXPECT_EQ(tracer.threads(), 1);
  EXPECT_EQ(tracer.total_written(), 2u);
  EXPECT_EQ(tracer.total_dropped(), 0u);
}

TEST(TraceRing, OverflowDropsOldestAndCountsDrops) {
  Tracer tracer(TracerConfig{.ring_capacity = 8});
  ASSERT_EQ(tracer.ring_capacity(), 8u);
  Armed armed_window(tracer);
  for (std::uint64_t i = 0; i < 20; ++i) {
    emit_at(i, EventType::kTxnCommit, static_cast<std::uint32_t>(i), i, 0.0);
  }
  const auto traces = tracer.drain();
  ASSERT_EQ(traces.size(), 1u);
  EXPECT_EQ(traces[0].written, 20u);
  EXPECT_EQ(traces[0].dropped, 12u);
  ASSERT_EQ(traces[0].events.size(), 8u);
  // The ring is a sliding window over the newest records: 12..19 survive,
  // oldest first.
  for (std::uint64_t i = 0; i < 8; ++i) {
    EXPECT_EQ(traces[0].events[i].ts_ns, 12 + i);
    EXPECT_EQ(traces[0].events[i].b, 12 + i);
  }
  EXPECT_EQ(tracer.total_dropped(), 12u);
}

TEST(TraceRing, CapacityRoundsUpToPowerOfTwo) {
  Tracer tracer(TracerConfig{.ring_capacity = 100});
  EXPECT_EQ(tracer.ring_capacity(), 128u);
}

TEST(TraceConcurrent, ManyWritersOneRingEach) {
  constexpr int kThreads = 4;
  constexpr std::uint64_t kPerThread = 20'000;
  Tracer tracer;  // default capacity 16384 < kPerThread: drops expected
  {
    Armed armed_window(tracer);
    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([t] {
        for (std::uint64_t i = 0; i < kPerThread; ++i) {
          emit(EventType::kTxnCommit, static_cast<std::uint32_t>(t), i,
               static_cast<double>(i));
        }
      });
    }
    for (auto& thread : threads) thread.join();
  }
  EXPECT_EQ(tracer.threads(), kThreads);
  EXPECT_EQ(tracer.total_written(), kThreads * kPerThread);
  const auto traces = tracer.drain();
  ASSERT_EQ(traces.size(), static_cast<std::size_t>(kThreads));
  for (const auto& trace : traces) {
    EXPECT_EQ(trace.written, kPerThread);
    EXPECT_EQ(trace.dropped, kPerThread - tracer.ring_capacity());
    ASSERT_EQ(trace.events.size(), tracer.ring_capacity());
    // Per-ring writes are the thread's own, in order, newest kept.
    const std::uint32_t owner = trace.events.front().a;
    for (std::size_t i = 0; i < trace.events.size(); ++i) {
      EXPECT_EQ(trace.events[i].a, owner);
      EXPECT_EQ(trace.events[i].b, kPerThread - tracer.ring_capacity() + i);
    }
  }
}

TEST(TraceExport, JsonlIsByteStableAcrossTracers) {
  const auto feed = [](Tracer& tracer) {
    Armed armed_window(tracer);
    emit_at(1000, EventType::kTxnBegin, 3, 1, 0.0);
    emit_at(1500, EventType::kTxnCommit, 3, 17, 0.0);
    emit_at(2000, EventType::kLevelDecision, 1, 2, 1234.5);
    emit_at(2500, EventType::kPhaseChange, 2, 0, 7.25);
  };
  Tracer one, two;
  feed(one);
  feed(two);
  EXPECT_EQ(to_jsonl(one), to_jsonl(two));
  EXPECT_EQ(to_chrome_trace(one, 42, "p0"), to_chrome_trace(two, 42, "p0"));
  // The line format itself is part of the contract (docs/tracing.md).
  std::istringstream lines(to_jsonl(one));
  std::string line;
  ASSERT_TRUE(std::getline(lines, line));
  EXPECT_EQ(line,
            "{\"ts_ns\":1000,\"type\":\"txn_begin\",\"tid\":0,"
            "\"a\":3,\"b\":1,\"value\":0}");
}

TEST(TraceExport, JsonlRoundTripsEveryEvent) {
  Tracer tracer;
  {
    Armed armed_window(tracer);
    emit_at(10, EventType::kTxnBegin, 1, 1, 0.0);
    emit_at(20, EventType::kTxnAbort, 1, 3, -1.5);
    emit_at(30, EventType::kMonitorRound, 3, 9, 1e9);
    emit_at(40, EventType::kBusRead, 2, (5ull << 16) | 1, 2.0);
    emit_at(50, EventType::kBusPublish, 4, 77,
            std::numeric_limits<double>::quiet_NaN());  // renders as null
  }
  const auto original = events_of(tracer);
  std::istringstream lines(to_jsonl(tracer));
  std::string line;
  std::vector<Event> parsed;
  while (std::getline(lines, line)) {
    Event event;
    ASSERT_TRUE(parse_jsonl_line(line, &event)) << line;
    parsed.push_back(event);
  }
  ASSERT_EQ(parsed.size(), original.size());
  for (std::size_t i = 0; i < parsed.size(); ++i) {
    EXPECT_EQ(parsed[i].ts_ns, original[i].ts_ns);
    EXPECT_EQ(parsed[i].type, original[i].type);
    EXPECT_EQ(parsed[i].tid, original[i].tid);
    EXPECT_EQ(parsed[i].a, original[i].a);
    EXPECT_EQ(parsed[i].b, original[i].b);
    if (std::isnan(original[i].value)) {
      EXPECT_TRUE(std::isnan(parsed[i].value));
    } else {
      EXPECT_EQ(parsed[i].value, original[i].value);
    }
  }
}

TEST(TraceExport, ParserRejectsMalformedLines) {
  Event event;
  EXPECT_FALSE(parse_jsonl_line("", &event));
  EXPECT_FALSE(parse_jsonl_line("not json", &event));
  EXPECT_FALSE(parse_jsonl_line("{\"ts_ns\":1}", &event));
  EXPECT_FALSE(parse_jsonl_line(
      "{\"ts_ns\":1,\"type\":\"no_such_event\",\"tid\":0,\"a\":0,\"b\":0,"
      "\"value\":0}",
      &event));
  // Truncated mid-write (a killed child's last line):
  EXPECT_FALSE(parse_jsonl_line(
      "{\"ts_ns\":1,\"type\":\"txn_begin\",\"tid\":0,\"a\":0,\"b\"", &event));
}

TEST(TraceExport, ChromeTraceHasCounterTracksAndMetadata) {
  Tracer tracer;
  {
    Armed armed_window(tracer);
    emit_at(1'000'000, EventType::kPoolResize, 1, 4, 0.0);
    emit_at(2'000'000, EventType::kMonitorRound, 0, 1, 5000.0);
    emit_at(3'000'000, EventType::kMonitorRound, 2, 2, 0.0);  // overrun round
  }
  const std::string trace_json = to_chrome_trace(tracer, 1234, "rbset/rubic");
  EXPECT_NE(trace_json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(trace_json.find("\"process_name\""), std::string::npos);
  EXPECT_NE(trace_json.find("\"rbset/rubic\""), std::string::npos);
  // Level and throughput become counter tracks; the overrun round raises an
  // anomaly instant event on top of its counter sample.
  EXPECT_NE(trace_json.find("\"name\":\"level\",\"ph\":\"C\""),
            std::string::npos);
  EXPECT_NE(trace_json.find("\"name\":\"throughput\",\"ph\":\"C\""),
            std::string::npos);
  EXPECT_NE(trace_json.find("\"monitor_anomaly\""), std::string::npos);
  EXPECT_NE(trace_json.find("\"pid\":1234"), std::string::npos);
}

TEST(TraceExport, ProcessNameWithControlCharactersRoundTrips) {
  // A control character in a process name is escaped, never dropped: the
  // metadata event stays valid JSON and parses back to the original name.
  Tracer tracer;
  const std::string name = "rbset\trubic";
  const std::string trace_json = to_chrome_trace(tracer, 7, name);
  const std::string key = "\"args\":{\"name\":";
  const auto at = trace_json.find(key);
  ASSERT_NE(at, std::string::npos) << trace_json;
  telemetry::jsonutil::Cursor cursor{trace_json, at + key.size()};
  std::string parsed;
  ASSERT_TRUE(cursor.parse_string(&parsed)) << cursor.error;
  EXPECT_EQ(parsed, name);
}

TEST(TraceExport, MergeSkipsTruncatedFragmentTails) {
  const std::string whole =
      "{\"name\":\"a\",\"ph\":\"i\"}\n{\"name\":\"b\",\"ph\":\"i\"}\n";
  const std::string truncated = "{\"name\":\"c\",\"ph\":\"i\"}\n{\"name\":\"d";
  const std::string merged = merge_chrome_fragments({whole, truncated, ""});
  EXPECT_NE(merged.find("\"a\""), std::string::npos);
  EXPECT_NE(merged.find("\"b\""), std::string::npos);
  EXPECT_NE(merged.find("\"c\""), std::string::npos);
  EXPECT_EQ(merged.find("\"d\""), std::string::npos);
  // Exactly the three whole events survive.
  std::size_t events = 0;
  for (std::size_t pos = merged.find("\"ph\""); pos != std::string::npos;
       pos = merged.find("\"ph\"", pos + 1)) {
    ++events;
  }
  EXPECT_EQ(events, 3u);
}

TEST(TraceRearm, NewGenerationRegistersFreshRings) {
  Tracer tracer;
  {
    Armed first(tracer);
    emit_at(1, EventType::kTxnBegin, 0, 0, 0.0);
  }
  {
    Armed second(tracer);
    emit_at(2, EventType::kTxnBegin, 0, 0, 0.0);
  }
  // Same thread, two armed windows: two rings, both drained.
  EXPECT_EQ(tracer.threads(), 2);
  EXPECT_EQ(tracer.total_written(), 2u);
}

// End-to-end: a real tuned run must leave monitor rounds, level decisions
// and STM commits in the trace — the Perfetto story the tentpole promises.
TEST(TraceIntegration, TunedProcessLeavesATimeline) {
  Tracer tracer;
  stm::Runtime rt;
  workloads::RbSetWorkload workload(rt, workloads::RbSetParams::tiny());
  control::RubicController controller(control::LevelBounds{1, 4});
  runtime::ProcessConfig config;
  config.pool.pool_size = 4;
  config.monitor.period = 5ms;
  config.monitor.stm_runtime = &rt;
  {
    Armed armed_window(tracer);
    runtime::TunedProcess process(rt, workload, controller, config);
    const runtime::RunReport report = process.run_for(400ms);
    EXPECT_GT(report.tasks_completed, 0u);
  }  // run_for stopped monitor and pool: writers are quiesced
  const auto events = events_of(tracer);
  EXPECT_GT(count_type(events, EventType::kMonitorRound), 0);
  EXPECT_GT(count_type(events, EventType::kLevelDecision), 0);
  EXPECT_GT(count_type(events, EventType::kPoolResize), 0);
  EXPECT_GT(count_type(events, EventType::kTxnCommit), 0);
  // The initial set_level(initial_level) plus RUBIC's climb from level 1 on
  // a live workload guarantee at least one resize; monitor rounds and level
  // decisions must be 1:1 on a run with no overruns forced.
  std::string error;
  EXPECT_TRUE(workload.verify(&error)) << error;
}

}  // namespace
}  // namespace rubic::trace
