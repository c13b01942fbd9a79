// Lane-scaling gate: jobs/sec of the multi-tenant scheduler at 1, 2, 4
// and 16 lanes on two fleets.
//
// The service's contracts (per-job reports identical at every lane
// count, parks, steals, cache hits, crash recovery and batch-log cost)
// are deterministic and live in ctest (ServiceStress.*,
// ShardedSchedulerStress.*, DurableBatch.*, ChaosService.*). What is
// left here is wall time, which only a quiet host with enough cores can
// judge, so the three gates apply only where the hardware has >= 4
// threads:
//   * the BO fleet (12 HeterBO jobs, 3 tenants, shared cache on,
//     unlimited capacity) runs >= 1.5x the 1-lane jobs/sec at 4 lanes;
//   * the sharded fleet (128 exhaustive jobs, 8 tenants, a 6-node pool
//     so sessions park and idle lanes steal) runs > 1.0x the 1-lane
//     jobs/sec at 4 lanes,
//   * and idles < 35% of its lane time at 16 lanes.
// Each point is the fastest of kTrials runs (the least noisy reading
// on a shared machine; a run takes milliseconds). Exits 1 on a failed
// gate.
//
// Usage:
//   bench_lane_scaling
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <limits>
#include <map>
#include <string>
#include <thread>

#include "mlcd/mlcd.hpp"
#include "service/batch_report.hpp"
#include "service/scheduler.hpp"
#include "service/workload.hpp"

namespace {

using namespace mlcd;
using Clock = std::chrono::steady_clock;

constexpr int kLanes[] = {1, 2, 4, 16};
constexpr int kTrials = 5;

/// The BO fleet: three tenants running four searches each. Tenants share
/// (model, seed) pairs, the recurring-job shape, so later jobs take
/// their early probes from the shared cache.
service::Workload bo_fleet() {
  const char* tenants[] = {"acme", "bits", "cord"};
  const char* models[] = {"alexnet", "resnet", "char_rnn", "alexnet"};
  service::Workload workload;
  for (int t = 0; t < 3; ++t) {
    for (int j = 0; j < 4; ++j) {
      service::JobSpec spec;
      spec.tenant = tenants[t];
      spec.name = std::string(tenants[t]) + "-" + models[j] + "-" +
                  std::to_string(j);
      spec.request.model = models[j];
      spec.request.seed = 40 + static_cast<std::uint64_t>(j);  // shared
      spec.request.max_nodes = 12;
      // A small catalog leaves HeterBO probe budget for BO steps past
      // its one-probe-per-type init.
      spec.request.instance_types = {"c5.xlarge",   "c5.4xlarge",
                                     "c5.24xlarge", "c5n.4xlarge",
                                     "p2.xlarge",   "p3.2xlarge"};
      if (j % 2 == 0) {
        spec.request.requirements.deadline_hours = 0.4 + 0.2 * j + 0.05 * t;
      } else {
        spec.request.requirements.budget_dollars = 140.0 + 30.0 * j + 5.0 * t;
      }
      workload.jobs.push_back(std::move(spec));
    }
  }
  return workload;
}

/// The sharded fleet: 128 cheap exhaustive searches over 8 tenants, so
/// claims, parks and steals rather than probe compute dominate. Every
/// 16th job repeats a (model, seed) pair to keep cross-job cache hits.
service::Workload sharded_fleet() {
  const char* models[] = {"alexnet", "resnet", "char_rnn"};
  service::Workload workload;
  for (int j = 0; j < 128; ++j) {
    service::JobSpec spec;
    spec.tenant = "t" + std::to_string(j % 8);
    spec.name = spec.tenant + "-" + models[j % 3] + "-" + std::to_string(j);
    spec.request.model = models[j % 3];
    spec.request.search_method = "exhaustive";
    spec.request.seed = 900 + static_cast<std::uint64_t>(j % 120);
    spec.request.max_nodes = 6;
    spec.request.instance_types = {"c5.xlarge", "c5.4xlarge", "p2.xlarge"};
    spec.request.requirements.deadline_hours = 24.0;
    workload.jobs.push_back(std::move(spec));
  }
  return workload;
}

struct Point {
  double seconds = std::numeric_limits<double>::infinity();
  service::BatchReport report;  ///< of the fastest trial
};

/// Best-of-kTrials run of `workload` at every lane count of kLanes,
/// printed as one table.
std::map<int, Point> lane_series(const char* title,
                                 const service::Workload& workload,
                                 service::SchedulerOptions options) {
  const system::Mlcd mlcd;
  std::map<int, Point> series;
  for (const int lanes : kLanes) {
    options.threads = lanes;
    const service::Scheduler scheduler(mlcd, options);
    Point& point = series[lanes];
    for (int t = 0; t < kTrials; ++t) {
      const Clock::time_point start = Clock::now();
      service::BatchReport report = scheduler.run(workload);
      const double secs =
          std::chrono::duration<double>(Clock::now() - start).count();
      if (secs < point.seconds) {
        point.seconds = secs;
        point.report = std::move(report);
      }
    }
  }
  const double jobs = static_cast<double>(workload.jobs.size());
  std::printf("%s (%d jobs, best of %d):\n", title,
              static_cast<int>(workload.jobs.size()), kTrials);
  std::printf("  %5s %10s %10s %8s %10s %8s %8s\n", "lanes", "seconds",
              "jobs/s", "speedup", "lane_idle", "steals", "parks");
  for (const auto& [lanes, point] : series) {
    std::printf("  %5d %10.4f %10.1f %7.2fx %10.3f %8lld %8d\n", lanes,
                point.seconds, jobs / point.seconds,
                series.at(1).seconds / point.seconds,
                point.report.lane_idle_fraction(),
                static_cast<long long>(point.report.lane_steals),
                point.report.total_session_parks());
  }
  return series;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc > 1) {
    std::fprintf(stderr, "usage: %s\n", argv[0]);
    return 2;
  }
  // Shared cache on, unlimited capacity: the pure scheduling axis.
  const std::map<int, Point> bo = lane_series("BO fleet", bo_fleet(), {});
  service::SchedulerOptions pressured;
  pressured.capacity_nodes = 6;  // == every job's max_nodes
  pressured.tenant_max_jobs = 4;
  const std::map<int, Point> sharded =
      lane_series("sharded fleet, 6-node pool", sharded_fleet(), pressured);

  const double bo_speedup = bo.at(1).seconds / bo.at(4).seconds;
  const double sharded_speedup = sharded.at(1).seconds / sharded.at(4).seconds;
  const double idle_16 = sharded.at(16).report.lane_idle_fraction();
  const int hardware =
      static_cast<int>(std::max(1u, std::thread::hardware_concurrency()));
  if (hardware < 4) {
    std::printf("%d hardware thread(s): the scaling gates need >= 4; "
                "skipped\n",
                hardware);
    return 0;
  }
  bool ok = true;
  const auto gate = [&ok](bool pass, const char* what, double value,
                          const char* bound) {
    std::printf("  %-38s %6.2f  %s  %s\n", what, value, bound,
                pass ? "pass" : "FAIL");
    ok = ok && pass;
  };
  std::printf("gates:\n");
  gate(bo_speedup >= 1.5, "BO fleet speedup at 4 lanes", bo_speedup,
       ">= 1.5");
  gate(sharded_speedup > 1.0, "sharded fleet speedup at 4 lanes",
       sharded_speedup, "> 1.0");
  gate(idle_16 < 0.35, "sharded fleet lane idle at 16 lanes", idle_16,
       "< 0.35");
  std::puts(ok ? "gate passed" : "gate FAILED");
  return ok ? 0 : 1;
}
