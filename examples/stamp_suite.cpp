// Mini-STAMP driver: runs every workload in the registry under one tuning
// policy, prints a results table, and verifies each workload's invariants —
// a one-command demonstration that the whole stack (STM, containers,
// workloads, malleable runtime, controllers) composes. The suite contents
// come from workloads::known_workloads(), the same discovery path the
// rubic_colocate launcher uses, so a workload added to the registry shows
// up here automatically.
//
// Run:  ./stamp_suite [--seconds-each 1] [--pool 8] [--policy rubic]
//                     [--stm-backend orec_swiss|norec|tl2]
//       ./stamp_suite --list-workloads / --list-controllers / --list-backends
#include <chrono>
#include <cstdio>
#include <memory>
#include <string_view>
#include <vector>

#include "src/control/factory.hpp"
#include "src/runtime/process.hpp"
#include "src/util/cli.hpp"
#include "src/util/listing.hpp"
#include "src/workloads/registry.hpp"

int main(int argc, char** argv) {
  using namespace rubic;
  util::Cli cli(argc, argv);
  const auto seconds_each = cli.get_int("seconds-each", 1);
  const auto pool_size = static_cast<int>(cli.get_int("pool", 8));
  const auto policy = cli.get_string("policy", "rubic");
  const auto backend_flag = cli.get_string("stm-backend", "");
  const bool list_workloads = cli.get_bool("list-workloads");
  const bool list_controllers = cli.get_bool("list-controllers");
  const bool list_backends = cli.get_bool("list-backends");
  cli.check_unknown();

  if (list_workloads || list_controllers || list_backends) {
    // Same shared renderer as rubic_colocate/rubic_sim/rubic_traffic —
    // sorted, deduplicated, byte-identical across binaries per registry.
    if (list_workloads) {
      util::print_name_list(workloads::known_workloads());
    }
    if (list_controllers) {
      util::print_name_list(control::known_policies());
    }
    if (list_backends) {
      std::vector<std::string_view> names;
      for (const auto k : stm::known_backends()) {
        names.push_back(stm::backend_name(k));
      }
      util::print_name_list(std::move(names));
    }
    return 0;
  }
  stm::BackendKind backend = stm::default_backend();
  if (!backend_flag.empty()) {
    const auto parsed = stm::parse_backend(backend_flag);
    if (!parsed) {
      std::fprintf(stderr, "unknown --stm-backend '%s' (try --list-backends)\n",
                   backend_flag.c_str());
      return 2;
    }
    backend = *parsed;
  }
  if (!control::policy_known(policy)) {
    std::fprintf(stderr, "unknown controller '%s' (try --list-controllers)\n",
                 policy.c_str());
    return 2;
  }

  std::printf("%-15s %14s %10s %12s %12s  %s\n", "workload", "tasks/s",
              "mean lvl", "commits", "aborts", "verified");
  bool all_ok = true;
  for (const auto& name : workloads::known_workloads()) {
    stm::RuntimeConfig stm_config;
    stm_config.backend = backend;
    stm::Runtime rt(stm_config);
    auto workload = workloads::make_workload(name, rt);
    control::PolicyConfig policy_config;
    policy_config.contexts = pool_size;
    policy_config.pool_size = pool_size;
    policy_config.initial_backend = std::string(stm::backend_name(backend));
    if (policy == "equalshare") {
      policy_config.allocator =
          std::make_shared<control::CentralAllocator>(pool_size);
      policy_config.allocator->register_process();
    }
    auto controller = control::make_controller(policy, policy_config);
    runtime::ProcessConfig config;
    config.pool.pool_size = pool_size;
    // Wired unconditionally: contention-signal policies feed on the commit
    // ratio, and "adaptive" additionally retargets this runtime's backend
    // online.
    config.monitor.stm_runtime = &rt;
    runtime::TunedProcess process(rt, *workload, *controller, config);
    const auto report =
        process.run_for(std::chrono::milliseconds(1000 * seconds_each));
    std::string error;
    const bool ok = workload->verify(&error);
    all_ok = all_ok && ok;
    std::printf("%-15.*s %14.0f %10.1f %12llu %12llu  %s\n",
                static_cast<int>(name.size()), name.data(),
                report.tasks_per_second, report.mean_level,
                static_cast<unsigned long long>(report.stm_stats.commits),
                static_cast<unsigned long long>(
                    report.stm_stats.total_aborts()),
                ok ? "OK" : ("FAIL: " + error).c_str());
  }
  return all_ok ? 0 : 1;
}
