// Multi-tenant fleet scheduling through the service API (PR 4).
//
// An MLaaS region never sees one search at a time: many tenants submit
// deployment searches against the same catalog, and their probes overlap
// massively — every HeterBO run opens with the same per-type init
// probes. This example builds a small two-tenant workload in code,
// schedules it twice (serial, then 4 scheduler lanes with a capacity
// pool and per-tenant quotas), and shows the two properties the service
// guarantees:
//
//   1. Reuse: identical probes are measured once; later jobs take them
//      from the shared cache and only the first tenant is billed.
//   2. Determinism: every job's result is bit-identical across both
//      schedules — and to running that job alone.
//
// Build & run:
//   cmake -B build -G Ninja && cmake --build build
//   ./build/examples/batch_fleet
//
// The same workload shape ships as JSON for the CLI (one command line):
//   ./build/src/cli/mlcd batch examples/workloads/deadline_fleet.json
//       --threads 4 --capacity 40 --tenant-quota 2
#include <cstdio>
#include <string>

#include "service/scheduler.hpp"
#include "service/workload.hpp"

int main() {
  using namespace mlcd;

  // Two tenants, four jobs. The tenants train the same models with the
  // same seeds (a common fleet pattern: shared base configs), differing
  // only in their deadline/budget terms — exactly the shape the shared
  // probe cache exploits.
  service::Workload workload;
  for (const char* tenant : {"acme", "bits"}) {
    service::JobSpec resnet;
    resnet.tenant = tenant;
    resnet.name = std::string(tenant) + "-resnet";
    resnet.request.model = "resnet";
    resnet.request.seed = 7;
    resnet.request.max_nodes = 16;
    resnet.request.requirements.deadline_hours =
        (resnet.tenant == "acme") ? 24.0 : 36.0;
    workload.jobs.push_back(resnet);

    service::JobSpec alexnet;
    alexnet.tenant = tenant;
    alexnet.name = std::string(tenant) + "-alexnet";
    alexnet.request.model = "alexnet";
    alexnet.request.seed = 9;
    alexnet.request.max_nodes = 16;
    alexnet.request.requirements.budget_dollars =
        (alexnet.tenant == "acme") ? 120.0 : 180.0;
    workload.jobs.push_back(alexnet);
  }

  const system::Mlcd mlcd;

  // Schedule 1: serial baseline.
  service::SchedulerOptions serial;
  const service::BatchReport first =
      service::Scheduler(mlcd, serial).run(workload);

  // Schedule 2: 4 lanes, a 32-node capacity pool, one running job per
  // tenant at a time.
  service::SchedulerOptions fleet;
  fleet.threads = 4;
  fleet.capacity_nodes = 32;
  fleet.tenant_max_jobs = 1;
  const service::BatchReport second =
      service::Scheduler(mlcd, fleet).run(workload);

  std::fputs(second.render().c_str(), stdout);

  // Property 1: the fleet reused measurements across tenants.
  std::printf(
      "\ncross-job probe reuse: %d probes served from the shared cache "
      "(%lld distinct measurements for %lld probe requests)\n",
      second.total_cache_hits(),
      static_cast<long long>(second.cache.inserts),
      static_cast<long long>(second.cache.lookups));

  // Property 2: concurrency, quotas, capacity waits, and cache hits are
  // all trace-neutral — each job's report is bit-identical between the
  // two schedules (and to a solo `mlcd.deploy` of the same request).
  bool identical = true;
  for (std::size_t i = 0; i < workload.jobs.size(); ++i) {
    identical = identical && first.jobs[i].ok && second.jobs[i].ok &&
                first.jobs[i].report.to_json() ==
                    second.jobs[i].report.to_json();
  }
  std::printf("serial vs fleet reports bit-identical: %s\n",
              identical ? "yes" : "NO — determinism bug!");
  return identical ? 0 : 1;
}
