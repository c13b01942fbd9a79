// Sharded service core: JobClaims / CapacityQueue / dispatcher units
// plus the seeded 16-lane stress suite.
//
// The units pin the three-way lock split's contracts in isolation: the
// lowest-index-under-quota claim discipline, the capacity queue's strict
// no-overtake FIFO (alone and under concurrent lanes), and the sharded
// dispatcher's owner-front/thief-back stealing and no-idle-with-work
// wakeup protocol. The stress tests then drive the real Scheduler over
// a 200-session fleet at 16 lanes and assert the service's one
// non-negotiable: per-job RunReports bit-identical across lane counts
// and dispatcher implementations, under capacity parks and steals.
// CI runs this binary under TSan (the service-stress job).
#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <string>
#include <thread>
#include <vector>

#include "mlcd/mlcd.hpp"
#include "service/batch_report.hpp"
#include "service/dispatch.hpp"
#include "service/scheduler.hpp"
#include "service/workload.hpp"

namespace {

using namespace mlcd;
using service::CapacityQueue;
using service::JobClaims;
using service::kNoJob;
using service::ShardedDispatcher;

// ------------------------------------------------------------ JobClaims

TEST(JobClaims, ClaimsLowestIndexFirst) {
  JobClaims claims({"a", "b", "c"}, 0);
  EXPECT_EQ(claims.try_claim(), 0u);
  EXPECT_EQ(claims.try_claim(), 1u);
  EXPECT_EQ(claims.try_claim(), 2u);
  EXPECT_EQ(claims.try_claim(), kNoJob);
}

TEST(JobClaims, QuotaBlocksATenantButNotOthers) {
  // Jobs 0,1,3 belong to tenant a (quota 2); job 2 to tenant b.
  JobClaims claims({"a", "a", "b", "a"}, 2);
  EXPECT_EQ(claims.try_claim(), 0u);
  EXPECT_EQ(claims.try_claim(), 1u);
  // a is at quota: the claim skips job 3 but still serves b's job 2.
  EXPECT_EQ(claims.try_claim(), 2u);
  EXPECT_EQ(claims.try_claim(), kNoJob);
  claims.finished(0);
  EXPECT_EQ(claims.try_claim(), 3u);
  EXPECT_EQ(claims.peak_tenant(), 2);
}

TEST(JobClaims, RunningBoundBlocksFreshClaimsUntilAFinish) {
  // Five jobs of five tenants, at most two running at once.
  JobClaims claims({"a", "b", "c", "d", "e"}, 0, 2);
  EXPECT_EQ(claims.try_claim(), 0u);
  EXPECT_EQ(claims.try_claim(), 1u);
  EXPECT_EQ(claims.try_claim(), kNoJob);  // at the bound, not out of jobs
  EXPECT_EQ(claims.try_claim(), kNoJob);
  claims.finished(1);
  EXPECT_EQ(claims.try_claim(), 2u);
  EXPECT_EQ(claims.try_claim(), kNoJob);
  claims.finished(0);
  claims.finished(2);
  EXPECT_EQ(claims.try_claim(), 3u);
  EXPECT_EQ(claims.try_claim(), 4u);
  EXPECT_EQ(claims.try_claim(), kNoJob);
  EXPECT_EQ(claims.peak_running(), 2);
  EXPECT_FALSE(claims.done());
}

TEST(JobClaims, DoneOnlyWhenEveryJobFinished) {
  JobClaims claims({"a", "b"}, 0);
  claims.try_claim();
  claims.try_claim();
  EXPECT_FALSE(claims.done());
  claims.finished(0);
  EXPECT_FALSE(claims.done());
  claims.finished(1);
  EXPECT_TRUE(claims.done());
}

// ------------------------------------------------------------ ParkQueue
// The parked-FIFO half of CapacityQueue.

TEST(ParkQueue, FastPathAdmitsWithoutParking) {
  CapacityQueue queue(10);
  int parks = 0;
  EXPECT_TRUE(queue.admit_or_park(0, 4, 0, [&] { ++parks; }));
  EXPECT_EQ(queue.parked(), 0u);
  EXPECT_EQ(queue.in_use(), 4);
  EXPECT_EQ(parks, 0);
}

TEST(ParkQueue, NothingOvertakesAParkedSession) {
  CapacityQueue queue(8);
  ASSERT_TRUE(queue.admit_or_park(0, 6, 0, nullptr));  // A holds 6
  int parks = 0;
  const auto on_park = [&] { ++parks; };
  // B needs 4, only 2 free: parks.
  EXPECT_FALSE(queue.admit_or_park(1, 4, 1, on_park));
  // C needs 1 and 2 nodes ARE free — but B is parked ahead, so C must
  // park behind it (strict FIFO, no overtaking).
  EXPECT_FALSE(queue.admit_or_park(2, 1, 2, on_park));
  EXPECT_EQ(queue.parked(), 2u);
  EXPECT_EQ(parks, 2);

  // A's release restages B then C, in park order, grants pre-acquired.
  const auto resumed = queue.release_and_sweep(6);
  ASSERT_EQ(resumed.size(), 2u);
  EXPECT_EQ(resumed[0].job, 1u);
  EXPECT_EQ(resumed[0].owner_lane, 1u);
  EXPECT_EQ(resumed[1].job, 2u);
  EXPECT_EQ(resumed[1].owner_lane, 2u);
  EXPECT_EQ(queue.parked(), 0u);
  // The sweep acquired 4 + 1 of the 8: a 3-node probe still fits, a
  // 1-node one after it does not.
  EXPECT_EQ(queue.in_use(), 5);
  EXPECT_TRUE(queue.admit_or_park(3, 3, 0, on_park));
  EXPECT_FALSE(queue.admit_or_park(4, 1, 0, on_park));
  EXPECT_EQ(parks, 3);
}

TEST(ParkQueue, SweepStopsAtTheFirstProbeTooLarge) {
  CapacityQueue queue(6);
  ASSERT_TRUE(queue.admit_or_park(0, 6, 0, nullptr));
  ASSERT_FALSE(queue.admit_or_park(1, 5, 0, nullptr));
  ASSERT_FALSE(queue.admit_or_park(2, 1, 0, nullptr));
  // Releasing 3 is not enough for the 5-node head: head-of-line
  // blocking is the contract — the 1-node probe behind it must wait.
  EXPECT_TRUE(queue.release_and_sweep(3).empty());
  const auto resumed = queue.release_and_sweep(3);
  ASSERT_EQ(resumed.size(), 2u);
  EXPECT_EQ(resumed[0].job, 1u);
  EXPECT_EQ(resumed[1].job, 2u);
}

TEST(ParkQueue, ParkRevokedRestagesItselfWhenThePoolIsFree) {
  CapacityQueue queue(6);
  int parks = 0;
  // Nothing else holds the pool: the revoked session parks and is swept
  // straight back out with its grant re-acquired.
  const auto resumed = queue.park(0, 4, 3, [&] { ++parks; });
  ASSERT_EQ(resumed.size(), 1u);
  EXPECT_EQ(resumed[0].job, 0u);
  EXPECT_EQ(resumed[0].owner_lane, 3u);
  EXPECT_EQ(parks, 1);
  EXPECT_EQ(queue.parked(), 0u);
  EXPECT_EQ(queue.in_use(), 4);  // the re-acquired 4 of 6 held
}

TEST(ParkQueue, ParkRevokedIsAPureParkUnderContention) {
  CapacityQueue queue(6);
  ASSERT_TRUE(queue.admit_or_park(0, 4, 0, nullptr));  // A holds 4
  // B's revocation cannot re-acquire (only 2 free): pure park.
  EXPECT_TRUE(queue.park(1, 4, 1, nullptr).empty());
  EXPECT_EQ(queue.parked(), 1u);
  const auto resumed = queue.release_and_sweep(4);
  ASSERT_EQ(resumed.size(), 1u);
  EXPECT_EQ(resumed[0].job, 1u);
}

// Four lanes admit, park (the spot-revocation path) and release against
// one small pool at once, each lane settling whatever its releases
// sweep out, the way ProbeBatch lanes do. The queue's one mutex is all
// that orders them: occupancy never passes the pool, every parked
// session is swept out exactly once — after its on_park ran — and the
// queue drains to empty.
TEST(CapacityQueue, ConcurrentLanesKeepCapacityAndResumeEachParkOnce) {
  constexpr int kCapacity = 6;
  constexpr std::size_t kLanes = 4;
  constexpr std::size_t kJobsPerLane = 2000;
  constexpr std::size_t kJobs = kLanes * kJobsPerLane;
  CapacityQueue queue(kCapacity);

  std::vector<int> nodes(kJobs);
  for (std::size_t j = 0; j < kJobs; ++j) {
    nodes[j] = 1 + static_cast<int>((j * 7 + j / kJobsPerLane) % 4);
  }
  // Written by on_park under the queue lock, read by whichever lane
  // sweeps the session out: plain memory, so TSan checks the ordering.
  std::vector<char> on_park_ran(kJobs, 0);
  std::vector<std::atomic<int>> resumes(kJobs);
  std::atomic<int> held{0};
  std::atomic<int> over_capacity{0};
  std::atomic<int> resumed_unparked{0};
  std::atomic<int> parks{0};

  const auto run_lane = [&](std::size_t lane) {
    std::vector<CapacityQueue::Resumed> pending;
    // Holds a grant of `n` nodes for a moment, then returns it.
    const auto hold_and_release = [&](int n) {
      if (held.fetch_add(n) + n > kCapacity) ++over_capacity;
      if (queue.in_use() > kCapacity) ++over_capacity;
      std::this_thread::yield();
      held.fetch_sub(n);
      for (const auto& r : queue.release_and_sweep(n)) pending.push_back(r);
    };
    const auto settle = [&](std::vector<CapacityQueue::Resumed> swept) {
      pending.insert(pending.end(), swept.begin(), swept.end());
      while (!pending.empty()) {
        const CapacityQueue::Resumed r = pending.back();
        pending.pop_back();
        if (on_park_ran[r.job] == 0) ++resumed_unparked;
        resumes[r.job].fetch_add(1);
        hold_and_release(nodes[r.job]);
      }
    };
    for (std::size_t k = 0; k < kJobsPerLane; ++k) {
      const std::size_t job = lane * kJobsPerLane + k;
      const auto on_park = [&, job] {
        on_park_ran[job] = 1;
        ++parks;
      };
      if (k % 5 == 4) {
        settle(queue.park(job, nodes[job], lane, on_park));
      } else if (queue.admit_or_park(job, nodes[job], lane, on_park)) {
        hold_and_release(nodes[job]);
        settle({});
      }
    }
  };
  {
    std::vector<std::jthread> lanes;
    for (std::size_t lane = 0; lane < kLanes; ++lane) {
      lanes.emplace_back(run_lane, lane);
    }
  }

  EXPECT_EQ(over_capacity.load(), 0);
  EXPECT_EQ(resumed_unparked.load(), 0);
  EXPECT_GT(parks.load(), 0);
  int resumed = 0;
  for (std::size_t j = 0; j < kJobs; ++j) {
    EXPECT_EQ(resumes[j].load(), on_park_ran[j]) << "job " << j;
    resumed += resumes[j].load();
  }
  EXPECT_EQ(resumed, parks.load());
  EXPECT_EQ(queue.in_use(), 0);
  EXPECT_EQ(queue.parked(), 0u);
  EXPECT_LE(queue.peak_in_use(), kCapacity);
  EXPECT_GT(queue.peak_in_use(), 0);
}

// ---------------------------------------------------- ShardedDispatcher

TEST(ShardedDispatcher, OwnerPopsFrontThiefStealsBack) {
  JobClaims claims({"a", "b", "c", "d"}, 0);
  for (int i = 0; i < 4; ++i) claims.try_claim();
  ShardedDispatcher dispatcher(2, &claims);
  dispatcher.enqueue(0, 0);
  dispatcher.enqueue(1, 0);
  dispatcher.enqueue(2, 0);
  EXPECT_EQ(dispatcher.queued(), 3u);

  // Lane 0 drains its own queue from the front...
  EXPECT_EQ(dispatcher.next_job(0), 0u);
  // ...while an empty lane steals from the victim's back.
  EXPECT_EQ(dispatcher.next_job(1), 2u);
  EXPECT_EQ(dispatcher.steals(), 1);
  EXPECT_EQ(dispatcher.next_job(0), 1u);
  EXPECT_EQ(dispatcher.queued(), 0u);

  for (std::size_t i = 0; i < 4; ++i) claims.finished(i);
  dispatcher.on_job_finished();
  EXPECT_EQ(dispatcher.next_job(0), kNoJob);
  EXPECT_EQ(dispatcher.next_job(1), kNoJob);
}

TEST(ShardedDispatcher, QueuedSessionsBeatFreshClaims) {
  JobClaims claims({"a", "b"}, 0);
  ASSERT_EQ(claims.try_claim(), 0u);
  ShardedDispatcher dispatcher(1, &claims);
  dispatcher.enqueue(0, 0);
  // Job 1 is claimable, but the queued session 0 may hold an acquired
  // capacity grant — it must be drained first.
  EXPECT_EQ(dispatcher.next_job(0), 0u);
  EXPECT_EQ(dispatcher.next_job(0), 1u);  // now the fresh claim
  claims.finished(0);
  claims.finished(1);
  dispatcher.on_job_finished();
  EXPECT_EQ(dispatcher.next_job(0), kNoJob);
}

// The no-idle-with-work invariant under real threads: 16 lanes chew
// through 200 sessions, each session re-queued to a rotating owner lane
// twice before finishing (so cross-lane enqueues, steals, and idle
// wakeups all fire). A watcher thread continuously asserts that the
// dispatcher never has every lane asleep while sessions sit queued.
TEST(ShardedDispatcher, NoLaneIdlesWhileWorkIsQueued) {
  constexpr std::size_t kLanes = 16;
  constexpr std::size_t kJobs = 200;
  std::vector<std::string> tenants;
  for (std::size_t i = 0; i < kJobs; ++i) {
    tenants.push_back("t" + std::to_string(i % 8));
  }
  JobClaims claims(std::move(tenants), 0);
  ShardedDispatcher dispatcher(kLanes, &claims);

  std::vector<std::atomic<int>> drives(kJobs);
  for (auto& d : drives) d.store(0);
  std::atomic<bool> violation{false};
  std::atomic<bool> stop_watch{false};

  std::thread watcher([&] {
    while (!stop_watch.load(std::memory_order_acquire)) {
      // sleeping_lanes() is read before queued(): a racing enqueue can
      // only make this check conservative (it bumps queued_ first and
      // then wakes sleepers), never a false positive.
      if (dispatcher.sleeping_lanes() == static_cast<int>(kLanes) &&
          dispatcher.queued() > 0) {
        violation.store(true, std::memory_order_release);
      }
      std::this_thread::yield();
    }
  });

  std::vector<std::thread> lanes;
  for (std::size_t lane = 0; lane < kLanes; ++lane) {
    lanes.emplace_back([&, lane] {
      for (;;) {
        const std::size_t job = dispatcher.next_job(lane);
        if (job == kNoJob) return;
        const int done = drives[job].fetch_add(1) + 1;
        if (done < 3) {
          // Rotate the owner so resumes land on foreign lanes.
          dispatcher.enqueue(job, (job + static_cast<std::size_t>(done)) %
                                      kLanes);
        } else {
          claims.finished(job);
          dispatcher.on_job_finished();
        }
      }
    });
  }
  for (auto& t : lanes) t.join();
  stop_watch.store(true, std::memory_order_release);
  watcher.join();

  EXPECT_FALSE(violation.load());
  for (std::size_t i = 0; i < kJobs; ++i) {
    EXPECT_EQ(drives[i].load(), 3) << "job " << i;
  }
  EXPECT_EQ(dispatcher.queued(), 0u);
  EXPECT_EQ(dispatcher.sleeping_lanes(), 0);
}

// ------------------------------------------------------- scheduler stress

/// The stress fleet: 200 cheap exhaustive searches over 8 tenants with
/// distinct seeds (every probe launches live, which is what contends
/// the pool). Deployment spaces are small so the suite stays fast under
/// TSan.
service::Workload stress_fleet(std::size_t jobs) {
  const char* models[] = {"alexnet", "resnet", "char_rnn"};
  service::Workload workload;
  for (std::size_t j = 0; j < jobs; ++j) {
    service::JobSpec spec;
    spec.tenant = "t" + std::to_string(j % 8);
    spec.name = spec.tenant + "-" + std::to_string(j);
    spec.request.model = models[j % 3];
    spec.request.search_method = "exhaustive";
    spec.request.seed = 3000 + static_cast<std::uint64_t>(j);
    spec.request.max_nodes = 4;
    spec.request.instance_types = {"c5.xlarge", "c5.4xlarge", "p2.xlarge"};
    spec.request.requirements.deadline_hours = 24.0;
    workload.jobs.push_back(std::move(spec));
  }
  return workload;
}

service::BatchReport run_fleet(const system::Mlcd& mlcd,
                               const service::Workload& workload,
                               int threads) {
  service::SchedulerOptions options;
  options.threads = threads;
  options.capacity_nodes = 4;  // == max_nodes: any overlap parks
  options.tenant_max_jobs = 3;
  return service::Scheduler(mlcd, options).run(workload);
}

TEST(ShardedSchedulerStress, SixteenLanesBitIdenticalToSerial) {
  const service::Workload workload = stress_fleet(200);
  const system::Mlcd mlcd;

  const service::BatchReport serial = run_fleet(mlcd, workload, 1);
  for (std::size_t i = 0; i < workload.jobs.size(); ++i) {
    ASSERT_TRUE(serial.jobs[i].ok) << workload.jobs[i].name;
  }
  service::BatchReport wide;
  for (const int lanes : {2, 4, 16}) {
    wide = run_fleet(mlcd, workload, lanes);
    ASSERT_EQ(wide.jobs.size(), workload.jobs.size());
    for (std::size_t i = 0; i < workload.jobs.size(); ++i) {
      ASSERT_TRUE(wide.jobs[i].ok) << workload.jobs[i].name;
      EXPECT_EQ(wide.jobs[i].report.to_json(),
                serial.jobs[i].report.to_json())
          << lanes << "-lane sharded diverged on " << workload.jobs[i].name;
    }
  }

  // The 16-lane fleet must actually have contended: a pool sized to one
  // probe forces parks, and parked sessions resume through owner-lane
  // queues that other lanes steal from.
  EXPECT_GT(wide.total_session_parks(), 0);
  EXPECT_GT(wide.lane_steals, 0);
  EXPECT_GT(wide.cache.stripes, 1);
}

// Park/resume FIFO accounting must survive lane migration: every
// capacity stall a job suffers is booked exactly once (in the on_park
// callback, before the entry becomes sweepable), so stall counts agree
// with parks at any lane count even when a different lane resumes the
// session.
TEST(ShardedSchedulerStress, StallAccountingMatchesParksAcrossLaneCounts) {
  const service::Workload workload = stress_fleet(60);
  const system::Mlcd mlcd;
  for (const int threads : {2, 16}) {
    const service::BatchReport report =
        run_fleet(mlcd, workload, threads);
    std::int64_t stalls = 0;
    int parks = 0;
    for (const auto& job : report.jobs) {
      ASSERT_TRUE(job.ok);
      stalls += job.stats.capacity_stalls;
      parks += job.stats.session_parks;
    }
    EXPECT_EQ(stalls, parks) << "threads=" << threads;
  }
}

}  // namespace
