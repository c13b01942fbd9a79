// Tests for src/service: workload parsing, the shared probe cache, the
// capacity pool, the multi-tenant scheduler, and the subsystem's hard
// invariant — every job's batch-mode RunReport is bit-identical to the
// solo run of the same JobSpec, at any scheduler thread count.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "journal/journal.hpp"
#include "mlcd/mlcd.hpp"
#include "profiler/fidelity.hpp"
#include "search/pareto.hpp"
#include "search/search_result.hpp"
#include "search/trace_io.hpp"
#include "service/batch_journal.hpp"
#include "service/batch_report.hpp"
#include "service/chaos.hpp"
#include "service/dispatch.hpp"
#include "service/probe_cache.hpp"
#include "service/scheduler.hpp"
#include "service/workload.hpp"
#include "util/json.hpp"

namespace mlcd::service {
namespace {

// ---------------------------------------------------------------- workload

TEST(Workload, ParsesFullDocument) {
  const Workload w = parse_workload(R"({
    "schema_version": 1,
    "jobs": [
      {"name": "a", "tenant": "acme", "model": "resnet",
       "deadline_hours": 24, "seed": 7, "max_nodes": 10,
       "method": "conv-bo", "use_spot": true, "threads": 2,
       "journal": "a.mlcdj"},
      {"name": "b", "model": "alexnet", "budget_dollars": 120.5}
    ]
  })");
  ASSERT_EQ(w.jobs.size(), 2u);
  const JobSpec& a = w.jobs[0];
  EXPECT_EQ(a.name, "a");
  EXPECT_EQ(a.tenant, "acme");
  EXPECT_EQ(a.request.model, "resnet");
  EXPECT_EQ(a.request.search_method, "conv-bo");
  EXPECT_EQ(a.request.seed, 7u);
  EXPECT_EQ(a.request.max_nodes, 10);
  EXPECT_EQ(a.request.threads, 2);
  EXPECT_TRUE(a.request.use_spot);
  EXPECT_EQ(a.request.journal_path, "a.mlcdj");
  ASSERT_TRUE(a.request.requirements.deadline_hours.has_value());
  EXPECT_DOUBLE_EQ(*a.request.requirements.deadline_hours, 24.0);
  EXPECT_FALSE(a.request.requirements.budget_dollars.has_value());
  // Defaults: tenant = name, method = heterbo, seed = 1.
  const JobSpec& b = w.jobs[1];
  EXPECT_EQ(b.tenant, "b");
  EXPECT_EQ(b.request.search_method, "heterbo");
  EXPECT_EQ(b.request.seed, 1u);
  ASSERT_TRUE(b.request.requirements.budget_dollars.has_value());
  EXPECT_DOUBLE_EQ(*b.request.requirements.budget_dollars, 120.5);
}

TEST(Workload, RejectsBadDocuments) {
  EXPECT_THROW(parse_workload("not json"), std::invalid_argument);
  EXPECT_THROW(parse_workload("[]"), std::invalid_argument);
  EXPECT_THROW(parse_workload(R"({"jobs": []})"), std::invalid_argument);
  EXPECT_THROW(parse_workload(R"({"schema_version": 99, "jobs": [
      {"name": "a", "model": "resnet"}]})"),
               std::invalid_argument);
  // Missing / empty name, missing model.
  EXPECT_THROW(parse_workload(R"({"jobs": [{"model": "resnet"}]})"),
               std::invalid_argument);
  EXPECT_THROW(
      parse_workload(R"({"jobs": [{"name": "", "model": "resnet"}]})"),
      std::invalid_argument);
  EXPECT_THROW(parse_workload(R"({"jobs": [{"name": "a"}]})"),
               std::invalid_argument);
  // Duplicate names.
  EXPECT_THROW(parse_workload(R"({"jobs": [
      {"name": "a", "model": "resnet"},
      {"name": "a", "model": "alexnet"}]})"),
               std::invalid_argument);
  // Out-of-range numbers.
  EXPECT_THROW(parse_workload(R"({"jobs": [
      {"name": "a", "model": "resnet", "deadline_hours": -1}]})"),
               std::invalid_argument);
  EXPECT_THROW(parse_workload(R"({"jobs": [
      {"name": "a", "model": "resnet", "seed": 1.5}]})"),
               std::invalid_argument);
  EXPECT_THROW(parse_workload(R"({"jobs": [
      {"name": "a", "model": "resnet", "max_nodes": 0}]})"),
               std::invalid_argument);
  // The retired probe-cache stripe knob.
  EXPECT_THROW(parse_workload(R"({"cache_stripes": 16, "jobs": [
      {"name": "a", "model": "resnet"}]})"),
               std::invalid_argument);
  // Unknown scheduler mode.
  EXPECT_THROW(parse_workload(R"({"scheduler": "fifo", "jobs": [
      {"name": "a", "model": "resnet"}]})"),
               std::invalid_argument);
  // The only mode and its legacy alias still parse.
  for (const char* mode : {"sharded", "probe"}) {
    EXPECT_NO_THROW(parse_workload(std::string(R"({"scheduler": ")") + mode +
                                   R"(", "jobs": [
        {"name": "a", "model": "resnet"}]})"))
        << mode;
  }
}

TEST(Workload, ParsesSloAndChaos) {
  const Workload w = parse_workload(R"({
    "chaos": {"seed": 42, "lane_crash_rate": 0.1, "revocation_rate": 0.05,
              "probe_loss_rate": 1.0, "stall_rate": 0},
    "jobs": [
      {"name": "a", "model": "resnet", "deadline_hours": 24,
       "slo_deadline_hours": 12, "slo_budget_dollars": 80,
       "slo_max_probes": 9}
    ]
  })");
  EXPECT_EQ(w.chaos.seed, 42u);
  EXPECT_DOUBLE_EQ(w.chaos.lane_crash_rate, 0.1);
  EXPECT_DOUBLE_EQ(w.chaos.revocation_rate, 0.05);
  EXPECT_DOUBLE_EQ(w.chaos.probe_loss_rate, 1.0);
  EXPECT_DOUBLE_EQ(w.chaos.stall_rate, 0.0);
  EXPECT_TRUE(w.chaos.enabled());
  const SloPolicy& slo = w.jobs[0].slo;
  EXPECT_TRUE(slo.enabled());
  EXPECT_DOUBLE_EQ(slo.deadline_hours, 12.0);
  EXPECT_DOUBLE_EQ(slo.budget_dollars, 80.0);
  EXPECT_EQ(slo.max_probes, 9);
  // Absent => SLO disabled, fault-free chaos environment.
  const Workload plain =
      parse_workload(R"({"jobs": [{"name": "a", "model": "resnet"}]})");
  EXPECT_FALSE(plain.chaos.enabled());
  EXPECT_FALSE(plain.jobs[0].slo.enabled());
}

TEST(Workload, RejectsBadSloAndChaos) {
  const auto reject = [](const std::string& doc) {
    EXPECT_THROW(parse_workload(doc), std::invalid_argument) << doc;
  };
  // SLO numbers share the dollars/hours contract: finite, > 0.
  reject(R"({"jobs": [{"name": "a", "model": "resnet",
             "slo_deadline_hours": -1}]})");
  reject(R"({"jobs": [{"name": "a", "model": "resnet",
             "slo_budget_dollars": 0}]})");
  reject(R"({"jobs": [{"name": "a", "model": "resnet",
             "slo_deadline_hours": 1e999}]})");  // non-finite after strtod
  reject(R"({"jobs": [{"name": "a", "model": "resnet",
             "slo_max_probes": 0}]})");
  reject(R"({"jobs": [{"name": "a", "model": "resnet",
             "slo_max_probes": 2.5}]})");
  // Chaos: object with finite rates in [0, 1], non-negative integer seed.
  reject(R"({"chaos": 3, "jobs": [{"name": "a", "model": "resnet"}]})");
  reject(R"({"chaos": {"lane_crash_rate": 1.5},
             "jobs": [{"name": "a", "model": "resnet"}]})");
  reject(R"({"chaos": {"revocation_rate": -0.1},
             "jobs": [{"name": "a", "model": "resnet"}]})");
  reject(R"({"chaos": {"stall_rate": 1e999},
             "jobs": [{"name": "a", "model": "resnet"}]})");
  reject(R"({"chaos": {"seed": -1},
             "jobs": [{"name": "a", "model": "resnet"}]})");
  reject(R"({"chaos": {"seed": 1.5},
             "jobs": [{"name": "a", "model": "resnet"}]})");
}

TEST(Workload, RejectsTheRetiredFailureRateAlias) {
  // The scalar failure_rate alias was removed with the ProbeRequest
  // redesign; an old workload document must fail loudly with migration
  // guidance, not silently drop a chaos knob.
  try {
    parse_workload(R"({"jobs": [
        {"name": "a", "model": "resnet", "failure_rate": 0.2}]})");
    FAIL() << "retired 'failure_rate' key was accepted";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("'failure_rate' was removed"), std::string::npos)
        << what;
    EXPECT_NE(what.find("launch_failure_per_node"), std::string::npos)
        << what;
  }
  // The removed scheduler modes fail the same way: a fleet file pinning
  // one must not silently run under the sharded scheduler.
  for (const char* mode : {"central", "job"}) {
    try {
      parse_workload(std::string(R"({"scheduler": ")") + mode + R"(", "jobs": [
          {"name": "a", "model": "resnet"}]})");
      FAIL() << "removed scheduler mode '" << mode << "' was accepted";
    } catch (const std::invalid_argument& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find("was removed"), std::string::npos) << what;
      EXPECT_NE(what.find(mode), std::string::npos) << what;
    }
  }
}

TEST(Workload, ParsesTheFidelityLadder) {
  const Workload w = parse_workload(R"({
    "jobs": [
      {"name": "a", "model": "resnet", "deadline_hours": 24,
       "fidelity_rungs": "0.5:1,0.25:2", "fidelity_max_bias": 0.2,
       "fidelity_max_noise": 0.04},
      {"name": "b", "model": "resnet", "deadline_hours": 24}
    ]
  })");
  const profiler::FidelityOptions& fid =
      w.jobs[0].request.profiler_options.fidelity;
  ASSERT_TRUE(fid.enabled());
  ASSERT_EQ(fid.rungs.size(), 2u);
  EXPECT_DOUBLE_EQ(fid.rungs[0].sample_fraction, 0.5);
  EXPECT_EQ(fid.rungs[0].iteration_tier, 1);
  EXPECT_DOUBLE_EQ(fid.rungs[1].sample_fraction, 0.25);
  EXPECT_EQ(fid.rungs[1].iteration_tier, 2);
  EXPECT_DOUBLE_EQ(fid.max_speed_bias, 0.2);
  EXPECT_DOUBLE_EQ(fid.max_extra_noise, 0.04);
  // Absent => ladder disabled (the single-fidelity engine).
  EXPECT_FALSE(w.jobs[1].request.profiler_options.fidelity.enabled());

  // Malformed ladders are rejected with the job named.
  try {
    parse_workload(R"({"jobs": [
        {"name": "a", "model": "resnet", "fidelity_rungs": "1:0"}]})");
    FAIL() << "full-fidelity rung was accepted";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("fidelity ladder"), std::string::npos) << what;
    EXPECT_NE(what.find("a"), std::string::npos) << what;
  }
  EXPECT_THROW(parse_workload(R"({"jobs": [
      {"name": "a", "model": "resnet", "fidelity_max_bias": 1.5}]})"),
               std::invalid_argument);
}

TEST(Workload, LoadReadsFileAndReportsMissing) {
  const std::string path =
      (std::filesystem::temp_directory_path() / "mlcd_wl_test.json")
          .string();
  {
    std::ofstream f(path);
    f << R"({"jobs": [{"name": "a", "model": "resnet"}]})";
  }
  const Workload w = load_workload(path);
  EXPECT_EQ(w.jobs.size(), 1u);
  std::remove(path.c_str());
  EXPECT_THROW(load_workload(path), std::runtime_error);
}

// -------------------------------------------------------------- ProbeCache

profiler::ProbeKey key_of(std::uint64_t substrate, std::uint64_t history,
                          int index, std::size_t type, int nodes) {
  profiler::ProbeKey key;
  key.substrate = substrate;
  key.history = history;
  key.probe_index = index;
  key.type_index = type;
  key.nodes = nodes;
  return key;
}

TEST(ProbeCache, MissInsertHit) {
  ProbeCache cache;
  const profiler::ProbeKey key = key_of(1, 2, 3, 4, 5);
  EXPECT_FALSE(cache.lookup(key).has_value());

  journal::ProbeRecord record;
  record.type_index = 4;
  record.nodes = 5;
  record.measured_speed = 123.5;
  EXPECT_TRUE(cache.insert(key, record));
  const auto hit = cache.lookup(key);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->nodes, 5);
  EXPECT_DOUBLE_EQ(hit->measured_speed, 123.5);

  // Any key component distinguishes entries.
  EXPECT_FALSE(cache.lookup(key_of(9, 2, 3, 4, 5)).has_value());
  EXPECT_FALSE(cache.lookup(key_of(1, 9, 3, 4, 5)).has_value());
  EXPECT_FALSE(cache.lookup(key_of(1, 2, 9, 4, 5)).has_value());

  const ProbeCache::Stats stats = cache.stats();
  EXPECT_EQ(stats.lookups, 5);
  EXPECT_EQ(stats.hits, 1);
  EXPECT_EQ(stats.inserts, 1);
  EXPECT_EQ(stats.size, 1u);
}

TEST(ProbeCache, FirstWriterWins) {
  ProbeCache cache;
  const profiler::ProbeKey key = key_of(1, 2, 3, 4, 5);
  journal::ProbeRecord first;
  first.measured_speed = 1.0;
  journal::ProbeRecord second;
  second.measured_speed = 2.0;
  EXPECT_TRUE(cache.insert(key, first));
  EXPECT_FALSE(cache.insert(key, second));
  EXPECT_DOUBLE_EQ(cache.lookup(key)->measured_speed, 1.0);
  EXPECT_EQ(cache.stats().rejected, 1);
}

// ------------------------------------------------------------ CapacityPool
// The pool half of CapacityQueue: occupancy, its peak, and the requests
// it refuses outright.

TEST(CapacityPool, UnlimitedTracksOccupancyOnly) {
  CapacityQueue pool(0);
  ASSERT_TRUE(pool.admit_or_park(0, 100, 0, nullptr));
  EXPECT_EQ(pool.in_use(), 100);
  ASSERT_TRUE(pool.admit_or_park(1, 50, 0, nullptr));
  EXPECT_EQ(pool.peak_in_use(), 150);
  EXPECT_TRUE(pool.release_and_sweep(100).empty());
  EXPECT_TRUE(pool.release_and_sweep(50).empty());
  EXPECT_EQ(pool.in_use(), 0);
  EXPECT_EQ(pool.parked(), 0u);
}

TEST(CapacityPool, RejectsImpossibleRequests) {
  CapacityQueue pool(10);
  EXPECT_THROW(pool.admit_or_park(0, 0, 0, nullptr), std::invalid_argument);
  EXPECT_THROW(pool.admit_or_park(0, -1, 0, nullptr), std::invalid_argument);
  EXPECT_THROW(pool.admit_or_park(0, 11, 0, nullptr), std::invalid_argument);
  EXPECT_THROW(pool.park(0, 0, 0, nullptr), std::invalid_argument);
  EXPECT_THROW(pool.park(0, 11, 0, nullptr), std::invalid_argument);
  EXPECT_EQ(pool.in_use(), 0);
  EXPECT_EQ(pool.parked(), 0u);
}

// Admission never blocks: a probe that does not fit parks until running
// probes return their nodes.
TEST(CapacityPool, QueuesUntilCapacityFrees) {
  CapacityQueue queue(10);
  ASSERT_TRUE(queue.admit_or_park(0, 8, 0, nullptr));
  EXPECT_EQ(queue.in_use(), 8);

  int parks = 0;
  // Job 1 needs 5 beside the 8: it parks instead of being admitted.
  EXPECT_FALSE(queue.admit_or_park(1, 5, 2, [&] { ++parks; }));
  EXPECT_EQ(parks, 1);
  EXPECT_EQ(queue.parked(), 1u);
  EXPECT_EQ(queue.in_use(), 8);

  const auto resumed = queue.release_and_sweep(8);
  ASSERT_EQ(resumed.size(), 1u);
  EXPECT_EQ(resumed[0].job, 1u);
  EXPECT_EQ(resumed[0].owner_lane, 2u);
  EXPECT_GE(resumed[0].waited_seconds, 0.0);
  EXPECT_EQ(queue.parked(), 0u);
  EXPECT_EQ(queue.in_use(), 5);  // the resumed grant is already held
  EXPECT_EQ(queue.peak_in_use(), 8);
  queue.release_and_sweep(5);
  EXPECT_EQ(queue.in_use(), 0);
}

TEST(CapacityPool, FifoWakeOrderSurvivesReleaseAndRevoke) {
  CapacityQueue queue(10);
  ASSERT_TRUE(queue.admit_or_park(0, 10, 0, nullptr));
  ASSERT_FALSE(queue.admit_or_park(1, 6, 0, nullptr));
  ASSERT_FALSE(queue.admit_or_park(2, 5, 0, nullptr));

  // Freeing 5 nodes would fit job 2 but not the head's 6: nobody is
  // restaged, and a fitting newcomer must park rather than overtake —
  // so must a spot-revoked session, which re-admits behind all of them.
  EXPECT_TRUE(queue.release_and_sweep(5).empty());
  EXPECT_FALSE(queue.admit_or_park(3, 1, 0, nullptr));
  EXPECT_TRUE(queue.park(4, 1, 0, nullptr).empty());
  EXPECT_EQ(queue.parked(), 4u);

  // Freeing the rest restages job 1 alone (6 + 5 still exceeds the
  // pool, so job 2 keeps waiting behind it)...
  auto resumed = queue.release_and_sweep(5);
  ASSERT_EQ(resumed.size(), 1u);
  EXPECT_EQ(resumed[0].job, 1u);

  // ... and job 1's own release restages jobs 2, 3 and 4 in park order.
  resumed = queue.release_and_sweep(6);
  ASSERT_EQ(resumed.size(), 3u);
  EXPECT_EQ(resumed[0].job, 2u);
  EXPECT_EQ(resumed[1].job, 3u);
  EXPECT_EQ(resumed[2].job, 4u);
  EXPECT_EQ(queue.parked(), 0u);
  EXPECT_EQ(queue.in_use(), 7);
  queue.release_and_sweep(7);
  EXPECT_EQ(queue.in_use(), 0);
}

TEST(CapacityPool, TryAcquireNeverBlocksAndNeverOvertakes) {
  CapacityQueue pool(10);
  EXPECT_TRUE(pool.admit_or_park(0, 6, 0, nullptr));
  EXPECT_TRUE(pool.admit_or_park(1, 4, 0, nullptr));
  // Would exceed the pool: parked, not blocked on.
  EXPECT_FALSE(pool.admit_or_park(2, 5, 0, nullptr));
  EXPECT_EQ(pool.in_use(), 10);
  // A 1-node probe behind it parks too, even once 6 nodes are free...
  EXPECT_FALSE(pool.admit_or_park(3, 1, 0, nullptr));
  // ... and the release hands the freed nodes to both, in park order.
  const auto resumed = pool.release_and_sweep(6);
  ASSERT_EQ(resumed.size(), 2u);
  EXPECT_EQ(resumed[0].job, 2u);
  EXPECT_EQ(resumed[1].job, 3u);
  EXPECT_EQ(pool.in_use(), 10);
  pool.release_and_sweep(4);
  pool.release_and_sweep(5);
  pool.release_and_sweep(1);
  EXPECT_EQ(pool.in_use(), 0);
  EXPECT_EQ(pool.peak_in_use(), 10);

  CapacityQueue unlimited(0);
  EXPECT_TRUE(unlimited.admit_or_park(0, 1000, 0, nullptr));
  EXPECT_EQ(unlimited.in_use(), 1000);
  unlimited.release_and_sweep(1000);
}

TEST(CapacityPool, OverReleaseClampsToOccupancy) {
  CapacityQueue pool(10);
  ASSERT_TRUE(pool.admit_or_park(0, 3, 0, nullptr));
  pool.release_and_sweep(10);
  EXPECT_EQ(pool.in_use(), 0);
  // A second release of a grant already returned reclaims nothing.
  pool.release_and_sweep(3);
  EXPECT_EQ(pool.in_use(), 0);
  // The pool is healthy afterwards: the full capacity is available.
  EXPECT_TRUE(pool.admit_or_park(1, 10, 0, nullptr));
  pool.release_and_sweep(10);
  // Negative releases are ignored outright.
  ASSERT_TRUE(pool.admit_or_park(2, 2, 0, nullptr));
  pool.release_and_sweep(-5);
  EXPECT_EQ(pool.in_use(), 2);
  EXPECT_EQ(pool.peak_in_use(), 10);
}

// --------------------------------------------------------------- Scheduler

Workload small_fleet() {
  // Two tenants sharing (model, seed) pairs so the probe cache has
  // cross-job identical prefixes to reuse; scenarios differ per job.
  return parse_workload(R"({
    "jobs": [
      {"name": "acme-resnet", "tenant": "acme", "model": "resnet",
       "deadline_hours": 24, "seed": 7, "max_nodes": 10},
      {"name": "beta-resnet", "tenant": "beta", "model": "resnet",
       "deadline_hours": 30, "seed": 7, "max_nodes": 10},
      {"name": "acme-alexnet", "tenant": "acme", "model": "alexnet",
       "budget_dollars": 150, "seed": 9, "max_nodes": 10},
      {"name": "beta-alexnet", "tenant": "beta", "model": "alexnet",
       "budget_dollars": 200, "seed": 9, "max_nodes": 10}
    ]
  })");
}

TEST(Scheduler, RejectsBadOptionsAndWorkloads) {
  const system::Mlcd mlcd;
  SchedulerOptions negative;
  negative.capacity_nodes = -1;
  EXPECT_THROW(Scheduler(mlcd, negative), std::invalid_argument);
  negative.capacity_nodes = 0;
  negative.tenant_max_jobs = -1;
  EXPECT_THROW(Scheduler(mlcd, negative), std::invalid_argument);

  const Scheduler scheduler(mlcd, {});
  EXPECT_THROW(scheduler.run(Workload{}), std::invalid_argument);

  // Admission control: a job that could probe beyond the whole pool is
  // refused up front (it would wedge the FIFO capacity queue).
  SchedulerOptions tight;
  tight.capacity_nodes = 5;
  const Scheduler guarded(mlcd, tight);
  EXPECT_THROW(guarded.run(small_fleet()), std::invalid_argument);
}

TEST(Scheduler, PerJobFailuresDoNotAbortTheBatch) {
  const system::Mlcd mlcd;
  const Workload workload = parse_workload(R"({
    "jobs": [
      {"name": "good", "model": "resnet", "deadline_hours": 24, "seed": 3,
       "max_nodes": 8},
      {"name": "bad-model", "model": "no-such-model"},
      {"name": "bad-method", "model": "resnet", "method": "no-such"}
    ]
  })");
  const Scheduler scheduler(mlcd, {});
  const BatchReport report = scheduler.run(workload);
  ASSERT_EQ(report.jobs.size(), 3u);
  EXPECT_TRUE(report.jobs[0].ok);
  EXPECT_FALSE(report.jobs[1].ok);
  EXPECT_EQ(report.jobs[1].error_code, "unknown_model");
  EXPECT_FALSE(report.jobs[2].ok);
  EXPECT_EQ(report.jobs[2].error_code, "unknown_method");
  EXPECT_EQ(report.succeeded(), 1);
}

TEST(Scheduler, SharesProbesAndBillsFirstTenantOnly) {
  const system::Mlcd mlcd;
  SchedulerOptions options;  // serial: deterministic claim order
  const Scheduler scheduler(mlcd, options);
  const BatchReport report = scheduler.run(small_fleet());
  ASSERT_EQ(report.jobs.size(), 4u);
  for (const JobOutcome& job : report.jobs) ASSERT_TRUE(job.ok) << job.name;

  // Serial order runs acme-resnet first: it publishes, beta-resnet (same
  // model+seed, different deadline) reuses the shared prefix.
  EXPECT_EQ(report.jobs[0].stats.cache_hits, 0);
  EXPECT_GT(report.jobs[0].stats.cache_publishes, 0);
  EXPECT_GT(report.jobs[1].stats.cache_hits, 0);
  EXPECT_GT(report.jobs[1].stats.reused_probe_cost, 0.0);
  EXPECT_GT(report.total_cache_hits(), 0);
  EXPECT_GT(report.cache.hits, 0);
  EXPECT_EQ(report.cache.hits, report.total_cache_hits());
  // Fleet-level: reused probes were measured once; the cache never holds
  // more records than were published.
  EXPECT_GT(report.cache.inserts, 0);
  EXPECT_EQ(report.cache.size, static_cast<std::size_t>(report.cache.inserts));
}

TEST(Scheduler, NoShareModeStillProducesIdenticalReports) {
  const system::Mlcd mlcd;
  SchedulerOptions shared;
  SchedulerOptions isolated;
  isolated.share_probes = false;
  const BatchReport a = Scheduler(mlcd, shared).run(small_fleet());
  const BatchReport b = Scheduler(mlcd, isolated).run(small_fleet());
  ASSERT_EQ(a.jobs.size(), b.jobs.size());
  EXPECT_EQ(b.total_cache_hits(), 0);
  EXPECT_EQ(b.cache.lookups, 0);
  for (std::size_t i = 0; i < a.jobs.size(); ++i) {
    EXPECT_EQ(a.jobs[i].report.to_json(), b.jobs[i].report.to_json())
        << a.jobs[i].name;
  }
}

// The tentpole invariant, small scale: batch == solo, bytes, at several
// scheduler thread counts. (The 32-job version below stresses it.)
TEST(Scheduler, BatchReportsAreBitIdenticalToSoloRuns) {
  const system::Mlcd mlcd;
  const Workload workload = small_fleet();

  std::vector<std::string> solo;
  for (const JobSpec& spec : workload.jobs) {
    const system::DeployResult result = mlcd.deploy(spec.request);
    ASSERT_TRUE(result.ok()) << spec.name;
    solo.push_back(result.report().to_json());
  }

  for (const int threads : {1, 4}) {
    SchedulerOptions options;
    options.threads = threads;
    options.capacity_nodes = 24;
    options.tenant_max_jobs = 1;
    const BatchReport report = Scheduler(mlcd, options).run(workload);
    ASSERT_EQ(report.jobs.size(), solo.size());
    for (std::size_t i = 0; i < solo.size(); ++i) {
      ASSERT_TRUE(report.jobs[i].ok);
      EXPECT_EQ(report.jobs[i].report.to_json(), solo[i])
          << "threads=" << threads << " job=" << report.jobs[i].name;
    }
    EXPECT_LE(report.peak_tenant_jobs, 1);
    EXPECT_LE(report.peak_capacity_nodes, 24);
  }
}

// A job's "threads" request field is echoed and has no other effect: a
// scheduled batch at 2 lanes produces the same RunReports whether every
// job asks for 4 scan threads or 1, apart from request.threads itself.
TEST(Scheduler, RequestThreadsIsEchoedAndTraceNeutral) {
  const system::Mlcd mlcd;
  SchedulerOptions options;
  options.threads = 2;
  const auto run_with = [&](int job_threads) {
    Workload workload = small_fleet();
    workload.jobs[2].request.search_method = "conv-bo";
    for (JobSpec& spec : workload.jobs) spec.request.threads = job_threads;
    return Scheduler(mlcd, options).run(workload);
  };
  const BatchReport wide = run_with(4);
  const BatchReport narrow = run_with(1);
  ASSERT_EQ(wide.jobs.size(), narrow.jobs.size());
  for (std::size_t i = 0; i < wide.jobs.size(); ++i) {
    ASSERT_TRUE(wide.jobs[i].ok) << wide.jobs[i].name;
    ASSERT_TRUE(narrow.jobs[i].ok) << narrow.jobs[i].name;
    const util::JsonValue doc = util::parse_json(wide.jobs[i].report.to_json());
    EXPECT_EQ(doc.at("request").at("threads").as_number(), 4.0)
        << wide.jobs[i].name;
    system::RunReport echoed = wide.jobs[i].report;
    echoed.request.threads = 1;
    EXPECT_EQ(echoed.to_json(), narrow.jobs[i].report.to_json())
        << wide.jobs[i].name;
  }
}

// A ladder-enabled job rides the batch scheduler unchanged: its report
// stays bit-identical to the solo run, its fidelity counters land in the
// per-job stats, and a ladder-free neighbor in the same batch reports
// zero reduced-rung probes.
TEST(Scheduler, MixedFidelityJobsMatchSoloAndCountRungs) {
  const system::Mlcd mlcd;
  const Workload workload = parse_workload(R"({
    "jobs": [
      {"name": "ladder", "model": "resnet", "budget_dollars": 150,
       "seed": 7, "max_nodes": 8, "instance_types": ["c5.xlarge",
       "c5.4xlarge"], "fidelity_rungs": "0.5:1,0.25:2"},
      {"name": "plain", "model": "resnet", "budget_dollars": 150,
       "seed": 7, "max_nodes": 8, "instance_types": ["c5.xlarge",
       "c5.4xlarge"]}
    ]
  })");

  std::vector<std::string> solo;
  for (const JobSpec& spec : workload.jobs) {
    const system::DeployResult result = mlcd.deploy(spec.request);
    ASSERT_TRUE(result.ok()) << spec.name;
    solo.push_back(result.report().to_json());
  }

  const BatchReport report = Scheduler(mlcd, {}).run(workload);
  ASSERT_EQ(report.jobs.size(), 2u);
  for (std::size_t i = 0; i < report.jobs.size(); ++i) {
    ASSERT_TRUE(report.jobs[i].ok) << report.jobs[i].name;
    EXPECT_EQ(report.jobs[i].report.to_json(), solo[i])
        << report.jobs[i].name;
  }
  // Same model+seed, but the ladder job's probe sequence diverges at the
  // first reduced-rung probe — the shared cache must not leak anything
  // across the fidelity boundary.
  EXPECT_GT(report.jobs[0].stats.low_fidelity_probes, 0);
  EXPECT_GT(report.jobs[0].stats.full_fidelity_probes, 0);
  EXPECT_EQ(report.jobs[1].stats.low_fidelity_probes, 0);
  EXPECT_GT(report.jobs[1].stats.full_fidelity_probes, 0);
  EXPECT_EQ(report.total_low_fidelity_probes(),
            report.jobs[0].stats.low_fidelity_probes);

  // The fleet JSON carries the v4 fidelity totals.
  const util::JsonValue doc = util::parse_json(report.to_json());
  EXPECT_EQ(doc.at("fidelity").at("low_fidelity_probes").as_number(),
            report.total_low_fidelity_probes());
}

// The probe-granularity tentpole's observable: under real capacity
// pressure, sessions *park* — they leave their lane mid-search and
// resume later — instead of blocking the lane. Exhaustive searchers keep
// all lanes issuing live probes of 1..8 nodes back-to-back, so an
// 8-node pool is persistently contended.
TEST(Scheduler, ParksSessionsInsteadOfBlockingLanes) {
  const system::Mlcd mlcd;
  const Workload workload = parse_workload(R"({
    "jobs": [
      {"name": "a", "tenant": "t1", "model": "resnet",
       "deadline_hours": 24, "seed": 11, "max_nodes": 8,
       "method": "exhaustive"},
      {"name": "b", "tenant": "t2", "model": "resnet",
       "deadline_hours": 24, "seed": 12, "max_nodes": 8,
       "method": "exhaustive"},
      {"name": "c", "tenant": "t3", "model": "alexnet",
       "deadline_hours": 24, "seed": 13, "max_nodes": 8,
       "method": "exhaustive"},
      {"name": "d", "tenant": "t4", "model": "alexnet",
       "deadline_hours": 24, "seed": 14, "max_nodes": 8,
       "method": "exhaustive"}
    ]
  })");
  SchedulerOptions parked_mode;
  parked_mode.threads = 4;
  parked_mode.capacity_nodes = 8;
  parked_mode.share_probes = false;  // every probe live: maximal pressure

  const BatchReport parked = Scheduler(mlcd, parked_mode).run(workload);

  ASSERT_EQ(parked.jobs.size(), 4u);
  // Sessions parked (lanes were freed).
  EXPECT_GT(parked.total_session_parks(), 0);
  EXPECT_LE(parked.peak_capacity_nodes, 8);

  for (std::size_t i = 0; i < 4; ++i) {
    ASSERT_TRUE(parked.jobs[i].ok) << parked.jobs[i].name;
    const JobStats& stats = parked.jobs[i].stats;
    EXPECT_EQ(stats.capacity_stalls, stats.session_parks);
    // Parked time accrues off-lane: lane occupancy never exceeds the
    // job's wall time, and parked jobs spent real time off their lane.
    EXPECT_LE(stats.lane_busy_seconds, stats.run_seconds + 1e-6);
    if (stats.session_parks > 0) {
      EXPECT_GT(stats.capacity_stall_seconds, 0.0);
    }
  }
}

// -------------------------------------------- service-level chaos & SLO

TEST(ChaosInjector, RollsAreDeterministicAndSeeded) {
  ChaosOptions options;
  options.seed = 7;
  options.lane_crash_rate = 0.5;
  ChaosOptions reseeded = options;
  reseeded.seed = 8;
  const ChaosInjector a(options);
  const ChaosInjector b(options);
  const ChaosInjector c(reseeded);
  const std::uint64_t key = ChaosInjector::job_key("job-a");
  const std::uint64_t other = ChaosInjector::job_key("job-b");
  int faults = 0;
  int divergences = 0;
  for (int step = 0; step < 128; ++step) {
    const ChaosFault fault = a.roll(key, step);
    // Pure function of (seed, job, step): independent instances agree.
    EXPECT_EQ(fault, b.roll(key, step)) << step;
    EXPECT_TRUE(fault == ChaosFault::kNone ||
                fault == ChaosFault::kLaneCrash);
    if (fault != ChaosFault::kNone) ++faults;
    if (fault != c.roll(key, step) || fault != a.roll(other, step)) {
      ++divergences;
    }
  }
  // Rate 0.5 fires often but not always; other seeds / jobs decorrelate.
  EXPECT_GT(faults, 16);
  EXPECT_LT(faults, 112);
  EXPECT_GT(divergences, 0);

  // Re-admission backoff is positive, capped, and deterministic.
  const double backoff = a.revocation_backoff_hours(key, 0);
  EXPECT_GT(backoff, 0.0);
  EXPECT_DOUBLE_EQ(backoff, b.revocation_backoff_hours(key, 0));

  // A fault-free configuration never rolls anything.
  const ChaosInjector quiet(ChaosOptions{});
  for (int step = 0; step < 32; ++step) {
    EXPECT_EQ(quiet.roll(key, step), ChaosFault::kNone);
  }

  // Rates outside [0, 1] are rejected up front.
  ChaosOptions bad;
  bad.probe_loss_rate = 1.5;
  EXPECT_THROW(bad.validate(), std::invalid_argument);
  bad.probe_loss_rate = -0.5;
  EXPECT_THROW(bad.validate(), std::invalid_argument);
}

/// Seed for the chaos sweep: CI varies it (MLCD_CHAOS_SEED) to prove the
/// recovery machinery is not tuned to one lucky fault schedule.
std::uint64_t chaos_seed_from_env() {
  const char* env = std::getenv("MLCD_CHAOS_SEED");
  if (env == nullptr || *env == '\0') return 20260808ull;
  return std::strtoull(env, nullptr, 10);
}

/// Everything except the replay bookkeeping must survive a lane crash:
/// the re-staged session's trace carries the same probes, measurements,
/// and cumulative accounting as the solo run — only the `replayed`
/// flags (and the replayed_probes counter) record that a crash happened.
void expect_equal_modulo_replay(const search::SearchResult& got,
                                const search::SearchResult& solo) {
  ASSERT_EQ(got.trace.size(), solo.trace.size());
  for (std::size_t i = 0; i < got.trace.size(); ++i) {
    const search::ProbeStep& g = got.trace[i];
    const search::ProbeStep& s = solo.trace[i];
    EXPECT_EQ(g.deployment.type_index, s.deployment.type_index) << i;
    EXPECT_EQ(g.deployment.nodes, s.deployment.nodes) << i;
    EXPECT_EQ(g.failed, s.failed) << i;
    EXPECT_EQ(g.feasible, s.feasible) << i;
    EXPECT_DOUBLE_EQ(g.measured_speed, s.measured_speed) << i;
    EXPECT_DOUBLE_EQ(g.profile_hours, s.profile_hours) << i;
    EXPECT_DOUBLE_EQ(g.profile_cost, s.profile_cost) << i;
    EXPECT_DOUBLE_EQ(g.cum_profile_hours, s.cum_profile_hours) << i;
    EXPECT_DOUBLE_EQ(g.cum_profile_cost, s.cum_profile_cost) << i;
    EXPECT_EQ(g.reason, s.reason) << i;
    EXPECT_EQ(g.attempts, s.attempts) << i;
  }
  EXPECT_EQ(got.found, solo.found);
  EXPECT_EQ(got.best.type_index, solo.best.type_index);
  EXPECT_EQ(got.best.nodes, solo.best.nodes);
  EXPECT_DOUBLE_EQ(got.profile_hours, solo.profile_hours);
  EXPECT_DOUBLE_EQ(got.profile_cost, solo.profile_cost);
  EXPECT_DOUBLE_EQ(got.training_hours, solo.training_hours);
  EXPECT_DOUBLE_EQ(got.training_cost, solo.training_cost);
}

Workload one_job(const std::string& chaos) {
  return parse_workload(R"({
    "chaos": )" + chaos + R"(,
    "jobs": [{"name": "solo", "model": "resnet", "deadline_hours": 24,
              "seed": 7, "max_nodes": 10}]
  })");
}

// probe_loss_rate = 1: every live result envelope is dropped after
// execution and recovered from the write-ahead record image. The
// recovery is invisible — the report is byte-identical to the solo run,
// nothing was re-executed, nothing marked replayed.
TEST(ChaosService, LostResultsRecoverBitIdenticallyFromRecordImages) {
  const system::Mlcd mlcd;
  const Workload workload =
      one_job(R"({"seed": 5, "probe_loss_rate": 1.0})");
  const std::string solo =
      mlcd.deploy(workload.jobs[0].request).report().to_json();
  const BatchReport report = Scheduler(mlcd, {}).run(workload);
  ASSERT_TRUE(report.jobs[0].ok);
  EXPECT_EQ(report.jobs[0].report.to_json(), solo);
  const JobStats& stats = report.jobs[0].stats;
  EXPECT_EQ(stats.probe_losses,
            static_cast<int>(report.jobs[0].report.result.trace.size()));
  EXPECT_EQ(report.jobs[0].report.result.replayed_probes, 0);
  EXPECT_EQ(report.total_probe_losses(), stats.probe_losses);
}

// stall_rate = 1: the session loses a lane turn at every step boundary
// (at most once per step — stalls never re-roll), and none of it shows
// in the job's own accounting.
TEST(ChaosService, SchedulerStallsOnlyCostLaneTurns) {
  const system::Mlcd mlcd;
  const Workload workload = one_job(R"({"seed": 5, "stall_rate": 1.0})");
  const std::string solo =
      mlcd.deploy(workload.jobs[0].request).report().to_json();
  const BatchReport report = Scheduler(mlcd, {}).run(workload);
  ASSERT_TRUE(report.jobs[0].ok);
  EXPECT_EQ(report.jobs[0].report.to_json(), solo);
  EXPECT_EQ(report.jobs[0].stats.scheduler_stalls,
            static_cast<int>(report.jobs[0].report.result.trace.size()));
}

// revocation_rate = 1: every capacity grant is spot-revoked as its probe
// launches. The session parks, re-enters through the FIFO, and the probe
// runs on re-admission; the backoff is billed at the service level while
// the job's own clock and meter stay solo-identical.
TEST(ChaosService, RevocationsParkAndElasticallyReadmit) {
  const system::Mlcd mlcd;
  const Workload workload =
      one_job(R"({"seed": 5, "revocation_rate": 1.0})");
  const std::string solo =
      mlcd.deploy(workload.jobs[0].request).report().to_json();
  for (const int capacity : {0, 10}) {  // unlimited and tight pools
    SchedulerOptions options;
    options.capacity_nodes = capacity;
    const BatchReport report = Scheduler(mlcd, options).run(workload);
    ASSERT_TRUE(report.jobs[0].ok) << "capacity=" << capacity;
    EXPECT_EQ(report.jobs[0].report.to_json(), solo);
    const JobStats& stats = report.jobs[0].stats;
    const int live_probes =
        static_cast<int>(report.jobs[0].report.result.trace.size());
    EXPECT_EQ(stats.grant_revocations, live_probes);
    EXPECT_GE(stats.session_parks, stats.grant_revocations);
    EXPECT_GT(stats.chaos_backoff_hours, 0.0);
    EXPECT_EQ(report.total_revocations(), stats.grant_revocations);
  }
}

// Lane crashes on a journaled job: the session is re-staged through its
// own write-ahead journal — the same path a process crash resumes from.
// Zero probes are re-executed: the journal holds exactly one record per
// trace step (a re-execution would have appended duplicates), and every
// measurement and cumulative dollar matches the solo run.
TEST(ChaosService, LaneCrashRestagesFromJournalWithZeroReExecution) {
  const system::Mlcd mlcd;
  const std::string journal_path =
      (std::filesystem::temp_directory_path() / "mlcd_chaos_crash.mlcdj")
          .string();
  std::remove(journal_path.c_str());
  Workload workload = one_job(R"({"seed": 3, "lane_crash_rate": 0.3})");
  workload.jobs[0].request.journal_path = journal_path;

  system::JobRequest solo_request = workload.jobs[0].request;
  solo_request.journal_path.clear();  // journals are trace-neutral
  const system::DeployResult solo = mlcd.deploy(solo_request);
  ASSERT_TRUE(solo.ok());

  const BatchReport report = Scheduler(mlcd, {}).run(workload);
  ASSERT_TRUE(report.jobs[0].ok);
  EXPECT_GT(report.jobs[0].stats.lane_crashes, 0);
  EXPECT_GT(report.jobs[0].report.result.replayed_probes, 0);
  expect_equal_modulo_replay(report.jobs[0].report.result,
                             solo.report().result);

  const journal::JournalContents contents =
      journal::read_journal(journal_path);
  EXPECT_EQ(contents.probes.size(),
            report.jobs[0].report.result.trace.size());
  std::remove(journal_path.c_str());
}

// Lane crashes on a journal-less job: the replacement session is rebuilt
// from the crashed session's in-memory ask/tell state (replay-record
// images), with the same zero-re-execution guarantee.
TEST(ChaosService, LaneCrashRestagesFromAskTellStateWithoutJournal) {
  const system::Mlcd mlcd;
  const Workload workload =
      one_job(R"({"seed": 3, "lane_crash_rate": 0.3})");
  const system::DeployResult solo = mlcd.deploy(workload.jobs[0].request);
  ASSERT_TRUE(solo.ok());
  const BatchReport report = Scheduler(mlcd, {}).run(workload);
  ASSERT_TRUE(report.jobs[0].ok);
  EXPECT_GT(report.jobs[0].stats.lane_crashes, 0);
  EXPECT_GT(report.jobs[0].report.result.replayed_probes, 0);
  expect_equal_modulo_replay(report.jobs[0].report.result,
                             solo.report().result);
}

// A job crashed more than once replays a prefix at every re-stage, and
// JobStats::crash_replayed_probes sums them all: exactly the steps at
// which the seeded chaos stream crashed the session (a crash at step s
// replays the s steps before it), whether the session re-stages from its
// own journal or from its in-memory trace. SearchResult::replayed_probes
// keeps counting the last re-stage only.
TEST(ChaosService, CrashReplayCountsEveryRestagedPrefix) {
  const system::Mlcd mlcd;
  const std::string journal_path =
      (std::filesystem::temp_directory_path() / "mlcd_chaos_prefixes.mlcdj")
          .string();
  for (const bool journaled : {false, true}) {
    std::remove(journal_path.c_str());
    Workload workload = one_job(R"({"seed": 3, "lane_crash_rate": 0.3})");
    if (journaled) workload.jobs[0].request.journal_path = journal_path;
    const BatchReport report = Scheduler(mlcd, {}).run(workload);
    ASSERT_TRUE(report.jobs[0].ok) << "journaled=" << journaled;
    const JobStats& stats = report.jobs[0].stats;
    const search::SearchResult& result = report.jobs[0].report.result;

    const ChaosInjector chaos(workload.chaos);
    const std::uint64_t key = ChaosInjector::job_key(workload.jobs[0].name);
    int crashes = 0;
    int prefixes = 0;
    int last_prefix = 0;
    for (int step = 0; step < static_cast<int>(result.trace.size());
         ++step) {
      if (chaos.roll(key, step) != ChaosFault::kLaneCrash) continue;
      ++crashes;
      prefixes += step;
      last_prefix = step;
    }
    ASSERT_GE(crashes, 2) << "journaled=" << journaled;
    EXPECT_EQ(stats.lane_crashes, crashes) << "journaled=" << journaled;
    EXPECT_EQ(stats.crash_replayed_probes, prefixes)
        << "journaled=" << journaled;
    EXPECT_EQ(result.replayed_probes, last_prefix)
        << "journaled=" << journaled;
    EXPECT_GT(stats.crash_replayed_probes, result.replayed_probes)
        << "journaled=" << journaled;
  }
  std::remove(journal_path.c_str());
}

TEST(ChaosService, SloBreachFinalizesWithBestKnownDeployment) {
  const system::Mlcd mlcd;
  const Workload workload = parse_workload(R"({
    "jobs": [
      {"name": "capped", "model": "resnet", "deadline_hours": 24,
       "seed": 7, "max_nodes": 10, "slo_max_probes": 4},
      {"name": "free", "model": "resnet", "deadline_hours": 24,
       "seed": 7, "max_nodes": 10}
    ]
  })");
  const std::string solo =
      mlcd.deploy(workload.jobs[1].request).report().to_json();
  SchedulerOptions options;
  options.share_probes = false;  // the capped job must stop on its own
  const BatchReport report = Scheduler(mlcd, options).run(workload);

  // The breach is not an error: the session was finalized through the
  // safe-mode path with the best deployment known at the cutoff.
  const JobOutcome& capped = report.jobs[0];
  ASSERT_TRUE(capped.ok);
  EXPECT_EQ(capped.slo, SloBreach::kProbes);
  EXPECT_EQ(capped.report.result.trace.size(), 4u);
  EXPECT_TRUE(capped.report.result.found);
  EXPECT_EQ(report.slo_exceeded_count(), 1);

  // ... and it never leaks onto its neighbours: the uncapped job is
  // still bit-identical to its solo run.
  ASSERT_TRUE(report.jobs[1].ok);
  EXPECT_EQ(report.jobs[1].slo, SloBreach::kNone);
  EXPECT_EQ(report.jobs[1].report.to_json(), solo);
}

TEST(ChaosService, SloDeadlineAndBudgetBreachesAreTyped) {
  const system::Mlcd mlcd;
  const Workload workload = parse_workload(R"({
    "jobs": [
      {"name": "late", "model": "resnet", "deadline_hours": 24,
       "seed": 7, "max_nodes": 10, "slo_deadline_hours": 0.001},
      {"name": "broke", "model": "resnet", "deadline_hours": 24,
       "seed": 7, "max_nodes": 10, "slo_budget_dollars": 0.001}
    ]
  })");
  SchedulerOptions options;
  options.share_probes = false;
  const BatchReport report = Scheduler(mlcd, options).run(workload);
  ASSERT_TRUE(report.jobs[0].ok);
  EXPECT_EQ(report.jobs[0].slo, SloBreach::kDeadline);
  EXPECT_EQ(report.jobs[0].report.result.trace.size(), 1u);
  ASSERT_TRUE(report.jobs[1].ok);
  EXPECT_EQ(report.jobs[1].slo, SloBreach::kBudget);
  EXPECT_EQ(report.jobs[1].report.result.trace.size(), 1u);
  EXPECT_EQ(report.slo_exceeded_count(), 2);
}

// ------------------------------------------------- seeded chaos sweep
//
// The tentpole's soak: a multi-tenant fleet under all four fault kinds
// at once, driven by a seed CI rotates via MLCD_CHAOS_SEED. Asserts the
// full recovery contract: nobody fails, reserve/quota/budget invariants
// hold, jobs untouched by crashes stay bit-identical to their solo
// runs, crash-restaged jobs re-execute zero probes, and the whole
// chaotic batch is deterministic across thread counts and repeats.

Workload chaos_fleet(std::uint64_t seed) {
  static constexpr const char* kModels[] = {"alexnet", "resnet",
                                            "char_rnn"};
  static constexpr const char* kMethods[] = {"heterbo", "heterbo",
                                             "conv-bo", "cherrypick"};
  Workload workload;
  workload.chaos.seed = seed;
  workload.chaos.lane_crash_rate = 0.08;
  workload.chaos.revocation_rate = 0.06;
  workload.chaos.probe_loss_rate = 0.06;
  workload.chaos.stall_rate = 0.05;
  for (int t = 0; t < 3; ++t) {
    for (int j = 0; j < 4; ++j) {
      JobSpec spec;
      spec.tenant = "tenant-" + std::to_string(t);
      spec.name = spec.tenant + "-job-" + std::to_string(j);
      spec.request.model = kModels[j % 3];
      spec.request.search_method = kMethods[j % 4];
      spec.request.seed = static_cast<std::uint64_t>(100 + j);
      spec.request.max_nodes = 10;
      if (j % 2 == 0) {
        spec.request.requirements.deadline_hours = 18.0 + j;
      } else {
        spec.request.requirements.budget_dollars = 150.0 + 25.0 * j;
      }
      workload.jobs.push_back(std::move(spec));
    }
  }
  return workload;
}

/// The deterministic face of one job's outcome: everything that must be
/// bit-identical across runs and thread counts of the same chaotic
/// workload (wall-clock stats and cache-timing counters excluded).
std::string deterministic_signature(const JobOutcome& job) {
  std::ostringstream out;
  out.precision(17);
  out << job.name << '|' << job.ok << '|' << job.error_code << '|'
      << job.stats.lane_crashes << '|' << job.stats.grant_revocations
      << '|' << job.stats.probe_losses << '|'
      << job.stats.scheduler_stalls << '|'
      << job.stats.chaos_backoff_hours << '|'
      << slo_breach_name(job.slo) << '|' << job.report.to_json();
  return out.str();
}

TEST(ChaosService, SeededSweepRecoversEveryTenantDeterministically) {
  const std::uint64_t seed = chaos_seed_from_env();
  const system::Mlcd mlcd;
  const Workload workload = chaos_fleet(seed);

  std::vector<std::string> solo_json;
  std::vector<system::RunReport> solo_reports;
  for (const JobSpec& spec : workload.jobs) {
    const system::DeployResult result = mlcd.deploy(spec.request);
    ASSERT_TRUE(result.ok()) << spec.name;
    solo_json.push_back(result.report().to_json());
    solo_reports.push_back(result.report());
  }

  std::vector<std::string> reference;
  for (const int threads : {1, 4, 4}) {  // repeat 4 to catch race luck
    SchedulerOptions options;
    options.threads = threads;
    options.capacity_nodes = 16;
    options.tenant_max_jobs = 2;
    const BatchReport report = Scheduler(mlcd, options).run(workload);
    ASSERT_EQ(report.jobs.size(), workload.jobs.size());
    EXPECT_EQ(report.chaos.seed, seed);

    int crashed_jobs = 0;
    for (std::size_t i = 0; i < report.jobs.size(); ++i) {
      const JobOutcome& job = report.jobs[i];
      // Chaos at these rates must never fail a job: every fault kind is
      // absorbed and recovered from.
      ASSERT_TRUE(job.ok) << job.name << " [" << job.error_code
                          << "]: " << job.error_message;
      EXPECT_EQ(job.slo, SloBreach::kNone);
      // Budget invariant: recovery never pushes a job over its own
      // scenario constraints (its simulated accounting is untouched).
      EXPECT_TRUE(
          job.report.result.meets_constraints(job.report.scenario))
          << job.name;
      if (job.stats.lane_crashes == 0) {
        // Jobs no crash touched — including ones that absorbed
        // revocations, losses, and stalls — are bit-identical to solo.
        EXPECT_EQ(job.report.to_json(), solo_json[i])
            << "threads=" << threads << " job=" << job.name;
        EXPECT_EQ(job.report.result.replayed_probes, 0) << job.name;
      } else {
        // Crash-restaged jobs differ only in replay bookkeeping:
        // same probes, same measurements, same money — zero
        // re-executions.
        ++crashed_jobs;
        EXPECT_GT(job.report.result.replayed_probes, 0) << job.name;
        expect_equal_modulo_replay(job.report.result,
                                   solo_reports[i].result);
      }
    }

    // The sweep must actually exercise every fault kind (rates and
    // trace lengths are sized so this holds for any seed).
    EXPECT_GT(report.total_lane_crashes(), 0);
    EXPECT_GT(report.total_revocations(), 0);
    EXPECT_GT(report.total_probe_losses(), 0);
    EXPECT_GT(report.total_scheduler_stalls(), 0);
    EXPECT_GT(crashed_jobs, 0);

    // Reserve and quota invariants under churn.
    EXPECT_LE(report.peak_capacity_nodes, 16);
    EXPECT_LE(report.peak_tenant_jobs, 2);
    EXPECT_GE(report.makespan_seconds, 0.0);

    // Same workload + same chaos_seed => bit-identical deterministic
    // outcomes, at any thread count, every run.
    std::vector<std::string> signature;
    signature.reserve(report.jobs.size());
    for (const JobOutcome& job : report.jobs) {
      signature.push_back(deterministic_signature(job));
    }
    if (reference.empty()) {
      reference = std::move(signature);
    } else {
      for (std::size_t i = 0; i < reference.size(); ++i) {
        EXPECT_EQ(signature[i], reference[i])
            << "threads=" << threads << " job=" << report.jobs[i].name;
      }
    }
  }
}

// --------------------------------------------- crash recovery under load
//
// The contended fleet: six exhaustive searches probing back-to-back
// through an 8-node pool with the shared cache off, so every probe
// launches live and sessions park. A lane-crash rate of 2e-4 per step
// compounds over ~500 probes a session to a ~10% crash probability per
// session.

Workload contended_chaos_fleet() {
  static constexpr const char* kModels[] = {"resnet", "alexnet"};
  Workload workload;
  workload.chaos.seed = 20260808;
  workload.chaos.lane_crash_rate = 2e-4;
  for (int j = 0; j < 6; ++j) {
    JobSpec spec;
    spec.tenant = "t" + std::to_string(j);
    spec.name = spec.tenant + "-" + kModels[j % 2];
    spec.request.model = kModels[j % 2];
    spec.request.search_method = "exhaustive";
    spec.request.seed = 100 + static_cast<std::uint64_t>(j);
    spec.request.max_nodes = 8;
    spec.request.requirements.deadline_hours = 24.0;
    workload.jobs.push_back(std::move(spec));
  }
  return workload;
}

SchedulerOptions contended_options(int threads) {
  SchedulerOptions options;
  options.threads = threads;
  options.capacity_nodes = 8;  // == every job's max_nodes
  options.share_probes = false;
  return options;
}

struct RecoveryWork {
  int replayed_steps = 0;
  int trace_steps = 0;
};

RecoveryWork recovery_work(const BatchReport& report) {
  RecoveryWork work;
  for (const JobOutcome& job : report.jobs) {
    EXPECT_TRUE(job.ok) << job.name << ": " << job.error_message;
    work.replayed_steps += job.stats.crash_replayed_probes;
    work.trace_steps += static_cast<int>(job.report.result.trace.size());
  }
  return work;
}

// What crash recovery costs is replay, never a probe: re-staging the
// crashed sessions (every re-stage of every job, counted by
// JobStats::crash_replayed_probes) replays under a quarter of the fleet's
// trace steps,
// the same count at 1 and 4 lanes, and a durable run of the same batch
// logs exactly one probe record per trace step (none measured twice).
TEST(ChaosService, ContendedCrashRecoveryReplaysUnderAQuarterOfTheTrace) {
  const system::Mlcd mlcd;
  const Workload workload = contended_chaos_fleet();
  std::vector<RecoveryWork> runs;
  for (const int threads : {1, 4}) {
    const BatchReport report =
        Scheduler(mlcd, contended_options(threads)).run(workload);
    EXPECT_GT(report.total_lane_crashes(), 0) << "threads=" << threads;
    runs.push_back(recovery_work(report));
  }
  const RecoveryWork& work = runs[0];
  EXPECT_GT(work.replayed_steps, 0);
  EXPECT_LT(work.replayed_steps, 0.25 * work.trace_steps)
      << work.replayed_steps << " replayed of " << work.trace_steps;
  EXPECT_EQ(runs[1].replayed_steps, work.replayed_steps);
  EXPECT_EQ(runs[1].trace_steps, work.trace_steps);

  const std::string dir =
      (std::filesystem::path(testing::TempDir()) / "mlcd_contended_chaos")
          .string();
  std::filesystem::remove_all(dir);
  SchedulerOptions durable = contended_options(4);
  durable.journal_dir = dir;
  const BatchReport report = Scheduler(mlcd, durable).run(workload);
  EXPECT_EQ(recovery_work(report).replayed_steps, work.replayed_steps);
  const BatchManifestContents log = read_manifest(dir + "/batch.mlcdb");
  ASSERT_EQ(log.jobs.size(), report.jobs.size());
  for (std::size_t i = 0; i < report.jobs.size(); ++i) {
    EXPECT_EQ(log.jobs[i].probe_spans.size(),
              report.jobs[i].report.result.trace.size())
        << report.jobs[i].name;
  }
  std::filesystem::remove_all(dir);
}

// ------------------------------------------------------------ BatchReport

TEST(BatchReport, JsonRoundTripsUnderTheSchema) {
  const system::Mlcd mlcd;
  SchedulerOptions options;
  options.threads = 2;
  options.capacity_nodes = 30;
  options.tenant_max_jobs = 2;
  const BatchReport report = Scheduler(mlcd, options).run(small_fleet());

  const util::JsonValue doc = util::parse_json(report.to_json());
  EXPECT_EQ(doc.at("schema_version").as_number(),
            BatchReport::kJsonSchemaVersion);
  EXPECT_EQ(doc.at("scheduler").at("threads").as_number(), 2);
  EXPECT_EQ(doc.at("scheduler").at("capacity_nodes").as_number(), 30);
  EXPECT_GE(doc.at("scheduler").at("makespan_seconds").as_number(), 0.0);
  EXPECT_GE(doc.at("probe_cache").at("hits").as_number(), 0.0);
  const auto& jobs = doc.at("jobs").as_array();
  ASSERT_EQ(jobs.size(), report.jobs.size());
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    EXPECT_EQ(jobs[i].at("name").as_string(), report.jobs[i].name);
    EXPECT_EQ(jobs[i].at("tenant").as_string(), report.jobs[i].tenant);
    ASSERT_TRUE(jobs[i].at("ok").as_bool());
    EXPECT_GE(jobs[i].at("stats").at("cache_hits").as_number(), 0.0);
    // The embedded document is a full RunReport under its own schema.
    // Ladder-free jobs keep emitting the byte-identical v3 document.
    const util::JsonValue& embedded = jobs[i].at("report");
    EXPECT_EQ(embedded.at("schema_version").as_number(), 3);
    EXPECT_TRUE(embedded.at("result").at("found").as_bool());
    // ... and its bytes are exactly the solo document's bytes.
    EXPECT_EQ(report.jobs[i].report.to_json(),
              mlcd.deploy(small_fleet().jobs[i].request).report().to_json());
  }
}

// Schema round-trip: the chaos/SLO (v3), fidelity (v4), and durable-
// batch (v5) additions land in their own keys and every v2 key is
// byte-for-byte where a v2 reader expects it.
TEST(BatchReport, V3JsonCarriesChaosSloAndKeepsV2Keys) {
  const system::Mlcd mlcd;
  Workload workload = parse_workload(R"({
    "chaos": {"seed": 11, "probe_loss_rate": 1.0},
    "jobs": [
      {"name": "lossy", "model": "resnet", "deadline_hours": 24,
       "seed": 7, "max_nodes": 10},
      {"name": "capped", "model": "alexnet", "budget_dollars": 150,
       "seed": 9, "max_nodes": 10, "slo_max_probes": 3}
    ]
  })");
  SchedulerOptions options;
  options.threads = 2;
  options.capacity_nodes = 20;
  const BatchReport report = Scheduler(mlcd, options).run(workload);
  ASSERT_EQ(report.succeeded(), 2);

  const util::JsonValue doc = util::parse_json(report.to_json());
  EXPECT_EQ(doc.at("schema_version").as_number(), 6);

  // v5: resume counters are always emitted (zero for a fresh batch) and
  // the degraded-manifest keys are sparse (absent while healthy).
  EXPECT_EQ(doc.at("scheduler").at("resumed_jobs").as_number(), 0);
  EXPECT_EQ(doc.at("scheduler").at("replayed_reports").as_number(), 0);
  EXPECT_FALSE(doc.at("scheduler").contains("batch_journal_degraded"));

  // v4: fleet fidelity totals (zero low-fidelity probes here — no job
  // in this workload enables a ladder).
  const util::JsonValue& fidelity = doc.at("fidelity");
  EXPECT_EQ(fidelity.at("low_fidelity_probes").as_number(), 0);
  EXPECT_EQ(fidelity.at("full_fidelity_probes").as_number(),
            report.total_full_fidelity_probes());
  EXPECT_GT(report.total_full_fidelity_probes(), 0);

  // v3: batch-level chaos environment (the reproducibility handle).
  const util::JsonValue& scheduler = doc.at("scheduler");
  EXPECT_EQ(scheduler.at("chaos_seed").as_number(), 11);
  const util::JsonValue& chaos = scheduler.at("chaos");
  EXPECT_TRUE(chaos.at("enabled").as_bool());
  EXPECT_DOUBLE_EQ(chaos.at("probe_loss_rate").as_number(), 1.0);
  EXPECT_DOUBLE_EQ(chaos.at("lane_crash_rate").as_number(), 0.0);

  // v3: fleet fault totals.
  const util::JsonValue& faults = doc.at("faults");
  EXPECT_EQ(faults.at("probe_losses").as_number(),
            report.total_probe_losses());
  EXPECT_EQ(faults.at("lane_crashes").as_number(), 0);
  EXPECT_EQ(faults.at("grant_revocations").as_number(), 0);
  EXPECT_EQ(faults.at("scheduler_stalls").as_number(), 0);
  EXPECT_EQ(faults.at("slo_exceeded").as_number(), 1);
  EXPECT_GT(report.total_probe_losses(), 0);

  // v3: per-job fault counters and the typed SLO object.
  const auto& jobs = doc.at("jobs").as_array();
  ASSERT_EQ(jobs.size(), 2u);
  const util::JsonValue& lossy = jobs[0].at("stats");
  EXPECT_EQ(lossy.at("probe_losses").as_number(),
            report.jobs[0].stats.probe_losses);
  EXPECT_EQ(lossy.at("lane_crashes").as_number(), 0);
  EXPECT_EQ(lossy.at("grant_revocations").as_number(), 0);
  EXPECT_EQ(lossy.at("scheduler_stalls").as_number(), 0);
  EXPECT_DOUBLE_EQ(lossy.at("chaos_backoff_hours").as_number(), 0.0);
  EXPECT_FALSE(jobs[0].at("slo").at("exceeded").as_bool());
  EXPECT_EQ(jobs[0].at("slo").at("code").as_string(), "");
  EXPECT_EQ(jobs[0].at("slo").at("breach").as_string(), "none");
  EXPECT_TRUE(jobs[1].at("slo").at("exceeded").as_bool());
  EXPECT_EQ(jobs[1].at("slo").at("code").as_string(), "slo_exceeded");
  EXPECT_EQ(jobs[1].at("slo").at("breach").as_string(), "probes");

  // Every key a v2 reader consumes is still present and typed the same.
  EXPECT_EQ(scheduler.at("threads").as_number(), 2);
  EXPECT_EQ(scheduler.at("capacity_nodes").as_number(), 20);
  EXPECT_TRUE(scheduler.at("probe_granularity").as_bool());
  EXPECT_GE(scheduler.at("makespan_seconds").as_number(), 0.0);
  EXPECT_GE(scheduler.at("lane_idle_fraction").as_number(), 0.0);
  EXPECT_GE(doc.at("probe_cache").at("hits").as_number(), 0.0);
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    EXPECT_TRUE(jobs[i].at("ok").as_bool());
    EXPECT_GE(jobs[i].at("stats").at("session_parks").as_number(), 0.0);
    EXPECT_GE(jobs[i].at("stats").at("lane_busy_seconds").as_number(),
              0.0);
    EXPECT_EQ(jobs[i].at("stats").at("low_fidelity_probes").as_number(),
              0);
    EXPECT_GT(jobs[i].at("stats").at("full_fidelity_probes").as_number(),
              0);
    // Ladder-free jobs keep emitting the byte-identical v3 RunReport.
    EXPECT_EQ(jobs[i].at("report").at("schema_version").as_number(), 3);
  }
}

TEST(BatchReport, FailedJobsCarryTypedErrors) {
  const system::Mlcd mlcd;
  const Workload workload = parse_workload(
      R"({"jobs": [{"name": "nope", "model": "no-such-model"}]})");
  const BatchReport report = Scheduler(mlcd, {}).run(workload);
  const util::JsonValue doc = util::parse_json(report.to_json());
  const util::JsonValue& job = doc.at("jobs").at(std::size_t{0});
  EXPECT_FALSE(job.at("ok").as_bool());
  EXPECT_EQ(job.at("error").at("code").as_string(), "unknown_model");
  EXPECT_FALSE(job.contains("report"));
  EXPECT_NE(report.render().find("FAILED"), std::string::npos);
}

// ------------------------------------------------- trace_io / pareto rides

TEST(BatchReport, TraceRoundTripMatchesSolo) {
  const system::Mlcd mlcd;
  const Workload workload = small_fleet();
  const BatchReport batch = Scheduler(mlcd, {}).run(workload);
  ASSERT_TRUE(batch.jobs[1].ok);

  const JobSpec& spec = workload.jobs[1];
  const system::DeployResult solo = mlcd.deploy(spec.request);
  ASSERT_TRUE(solo.ok());

  const cloud::DeploymentSpace space(
      mlcd.cloud().catalog(), spec.request.max_nodes,
      cloud::Market::kOnDemand);
  const auto tmp = std::filesystem::temp_directory_path();
  const std::string from_batch = (tmp / "mlcd_batch_trace.csv").string();
  const std::string from_solo = (tmp / "mlcd_solo_trace.csv").string();
  search::save_trace_csv(from_batch, batch.jobs[1].report.result, space);
  search::save_trace_csv(from_solo, solo.report().result, space);

  const auto slurp = [](const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    std::ostringstream buffer;
    buffer << in.rdbuf();
    return buffer.str();
  };
  EXPECT_EQ(slurp(from_batch), slurp(from_solo));

  // And the warm-start loader reads the batch-produced trace back.
  const std::vector<search::WarmStartPoint> points =
      search::load_warm_start_csv(from_batch, mlcd.cloud().catalog());
  EXPECT_EQ(points.size(), batch.jobs[1].report.result.trace.size());
  std::remove(from_batch.c_str());
  std::remove(from_solo.c_str());
}

TEST(BatchReport, ParetoFrontMatchesSolo) {
  const system::Mlcd mlcd;
  const Workload workload = parse_workload(R"({
    "jobs": [{"name": "front", "model": "resnet", "method": "pareto",
              "deadline_hours": 24, "seed": 5, "max_nodes": 10}]
  })");
  const BatchReport batch = Scheduler(mlcd, {}).run(workload);
  ASSERT_TRUE(batch.jobs[0].ok);
  const system::DeployResult solo = mlcd.deploy(workload.jobs[0].request);
  ASSERT_TRUE(solo.ok());

  const perf::TrainingPerfModel& perf = mlcd.cloud().perf_model();
  const search::ParetoSearcher searcher(perf);
  const cloud::DeploymentSpace space(mlcd.cloud().catalog(), 10,
                                     cloud::Market::kOnDemand);
  const double samples =
      mlcd.zoo().models()[*mlcd.zoo().find_model("resnet")].samples_to_train;
  const auto batch_front =
      searcher.front_of(batch.jobs[0].report.result, space, samples);
  const auto solo_front =
      searcher.front_of(solo.report().result, space, samples);
  ASSERT_EQ(batch_front.size(), solo_front.size());
  ASSERT_FALSE(batch_front.empty());
  for (std::size_t i = 0; i < batch_front.size(); ++i) {
    EXPECT_EQ(batch_front[i].deployment.type_index,
              solo_front[i].deployment.type_index);
    EXPECT_EQ(batch_front[i].deployment.nodes, solo_front[i].deployment.nodes);
    EXPECT_DOUBLE_EQ(batch_front[i].training_hours,
                     solo_front[i].training_hours);
    EXPECT_DOUBLE_EQ(batch_front[i].training_cost,
                     solo_front[i].training_cost);
  }
}

// ------------------------------------------------------- 32-job stress run

Workload stress_fleet() {
  // 4 tenants x 8 jobs. Tenants deliberately mirror each other's
  // (model, seed) pairs so identical probe prefixes recur fleet-wide,
  // while scenarios and methods vary per job.
  static constexpr const char* kModels[] = {"alexnet", "resnet", "char_rnn"};
  static constexpr const char* kMethods[] = {"heterbo", "heterbo", "conv-bo",
                                             "cherrypick"};
  Workload workload;
  for (int t = 0; t < 4; ++t) {
    for (int j = 0; j < 8; ++j) {
      JobSpec spec;
      spec.tenant = "tenant-" + std::to_string(t);
      spec.name = spec.tenant + "-job-" + std::to_string(j);
      spec.request.model = kModels[j % 3];
      spec.request.search_method = kMethods[j % 4];
      spec.request.seed = static_cast<std::uint64_t>(100 + j);
      spec.request.max_nodes = 10;
      if (j % 2 == 0) {
        spec.request.requirements.deadline_hours = 18.0 + j;
      } else {
        spec.request.requirements.budget_dollars = 150.0 + 25.0 * j;
      }
      workload.jobs.push_back(std::move(spec));
    }
  }
  return workload;
}

TEST(ServiceStress, ThirtyTwoJobsBitIdenticalWithQuotaAndCapacity) {
  const system::Mlcd mlcd;
  const Workload workload = stress_fleet();

  std::vector<std::string> solo;
  solo.reserve(workload.jobs.size());
  for (const JobSpec& spec : workload.jobs) {
    const system::DeployResult result = mlcd.deploy(spec.request);
    ASSERT_TRUE(result.ok()) << spec.name;
    solo.push_back(result.report().to_json());
  }

  for (const int threads : {1, 4}) {
    SchedulerOptions options;
    options.threads = threads;
    options.capacity_nodes = 16;  // forces queueing under contention
    options.tenant_max_jobs = 2;
    const BatchReport report = Scheduler(mlcd, options).run(workload);

    ASSERT_EQ(report.jobs.size(), workload.jobs.size());
    for (std::size_t i = 0; i < solo.size(); ++i) {
      ASSERT_TRUE(report.jobs[i].ok) << report.jobs[i].name;
      // The hard invariant: bit-identical to the solo run — trace,
      // accounting, chosen deployment, every byte.
      ASSERT_EQ(report.jobs[i].report.to_json(), solo[i])
          << "threads=" << threads << " job=" << report.jobs[i].name;
    }

    // Quota and capacity invariants, from observed high-water marks.
    EXPECT_LE(report.peak_tenant_jobs, 2);
    EXPECT_GE(report.peak_tenant_jobs, 1);
    EXPECT_LE(report.peak_capacity_nodes, 16);

    // Cross-job reuse must actually happen: 4 tenants mirror each
    // other's substrates, so at minimum the mirrored jobs' full probe
    // sequences are served from the cache.
    EXPECT_GT(report.total_cache_hits(), 0);
    EXPECT_EQ(report.cache.hits, report.total_cache_hits());
    // Each distinct probe is inserted once however the lanes interleave
    // (a racing duplicate's insert is refused), so the insert count is
    // a property of the fleet. Hits are not: a lookup that races the
    // probe still in flight misses and measures it again.
    EXPECT_EQ(report.cache.inserts, 187);

    // Per-tenant constraint safety under contention: the solo-identity
    // proven above already implies it, but assert the user-facing form
    // too — no job exceeded its own scenario bounds.
    for (const JobOutcome& job : report.jobs) {
      EXPECT_TRUE(job.report.result.meets_constraints(job.report.scenario))
          << job.name;
    }

    // Makespan sanity: wall-clock stats exist and capacity stalls (if
    // any) were charged to scheduler time, not to any job's simulated
    // clock (the solo-identity assertions above would have caught that).
    EXPECT_GE(report.makespan_seconds, 0.0);
  }
}

}  // namespace
}  // namespace mlcd::service
