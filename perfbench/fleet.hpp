// Seeded fleet generator for the service benchmark.
//
// Each workload is generated from the benchmark seed as a workload JSON
// document, the same format `mlcd batch` reads, so the program under test
// sees only what service::parse_workload makes of generated input. The
// composition of every fleet is stratified (fixed counts per method,
// model and scenario) and the seed varies the job seeds, the tenants, the
// admission order and, outside bo_fleet, the constraint values. That keeps
// the amount of work per fleet close across seeds, so seed-to-seed spread
// stays small.
//
//   bo_fleet         the paper's traffic: HeterBO (a share with a
//                    fidelity ladder) and its baselines; GP fits and
//                    acquisition scans dominate.
//   contended_fleet  1024 cheap exhaustive/random jobs over 8 tenants with
//                    recurring (model, seed) pairs, a per-tenant quota and
//                    a capacity pool far below lanes x max_nodes; the
//                    service core dominates.
//   durable_fleet    probe-heavy exhaustive/random jobs with unique seeds
//                    under a batch journal directory, low-rate chaos and a
//                    few SLO-capped jobs; every probe is an fsync'd write.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

#include "service/scheduler.hpp"

namespace perfbench {

/// Scheduler lanes every fleet runs on.
inline constexpr int kLanes = 4;

struct FleetPlan {
  /// The generated workload document (input to service::parse_workload).
  std::string workload_json;
  /// Lanes, capacity pool, tenant quota and cache sharing. The journal
  /// directory is left empty: the caller owns the temp directory.
  mlcd::service::SchedulerOptions options;
  /// Runs under a batch journal directory and is resumed after each run.
  bool durable = false;
};

/// Generates fleet `name` from `seed`. Throws std::invalid_argument for an
/// unknown name.
FleetPlan make_fleet(std::string_view name, std::uint64_t seed);

}  // namespace perfbench
