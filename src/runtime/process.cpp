#include "src/runtime/process.hpp"

#include <thread>

namespace rubic::runtime {

TunedProcess::TunedProcess(stm::Runtime& rt, workloads::Workload& workload,
                           control::Controller& controller,
                           ProcessConfig config)
    : rt_(rt), workload_(workload) {
  pool_ = std::make_unique<MalleablePool>(rt, workload, config.pool);
  monitor_ = std::make_unique<Monitor>(*pool_, controller, config.monitor);
}

RunReport TunedProcess::finalize_report(
    std::chrono::steady_clock::time_point start,
    std::uint64_t completed_before) {
  monitor_->stop();
  const std::uint64_t completed_after = pool_->total_completed();
  pool_->stop();
  const double seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();

  RunReport report;
  report.tasks_completed = completed_after - completed_before;
  report.seconds = seconds;
  report.tasks_per_second =
      seconds > 0 ? static_cast<double>(report.tasks_completed) / seconds : 0;
  report.final_level = pool_->level();
  report.monitor_rounds = monitor_->rounds();
  report.mean_level = monitor_->mean_level();
  report.trace = monitor_->trace();
  report.stm_stats = rt_.aggregate_stats();
  return report;
}

RunReport TunedProcess::run_for(std::chrono::milliseconds duration) {
  const auto start = std::chrono::steady_clock::now();
  const std::uint64_t completed_before = pool_->total_completed();
  std::this_thread::sleep_for(duration);
  return finalize_report(start, completed_before);
}

RunReport TunedProcess::run_to_completion(std::chrono::milliseconds timeout,
                                          bool* completed) {
  using Clock = std::chrono::steady_clock;
  const auto start = Clock::now();
  const auto deadline = start + timeout;
  const std::uint64_t completed_before = pool_->total_completed();
  bool finished = false;
  while (Clock::now() < deadline) {
    if (workload_.done()) {
      finished = true;
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  if (completed != nullptr) *completed = finished;
  return finalize_report(start, completed_before);
}

}  // namespace rubic::runtime
