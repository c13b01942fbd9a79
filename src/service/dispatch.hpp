// Probe-granularity dispatch: job claims, the parked-session FIFO, and
// the per-lane run queues with work stealing (service layer).
//
// PR 4/5's scheduler funneled every probe-granularity decision — claim
// a fresh job, pick up a resumed session, park for capacity, finish —
// through one batch-wide mutex, which the PR-4 service gate showed
// turning into negative scaling (jobs/sec *shrinking* with lanes). This
// header splits that mutex three ways, each piece sized to what it
// actually guards:
//
//   * JobClaims — fresh-job claiming and tenant quotas. Touched once
//     per job lifetime (claim + finish), never per probe, so a single
//     small mutex is fine.
//   * ParkQueue — the capacity-blocked session FIFO. The hot admission
//     path (cache miss, pool has room, nobody parked) never takes its
//     lock: an atomic emptiness count gates a lock-free
//     CapacityPool::try_acquire. The lock is only taken to actually
//     park or to sweep parked sessions back out — both inherently
//     off the fast path.
//   * ShardedDispatcher — which session a free lane drives next. Every
//     lane owns a deque (own lock, own cache line) and steals from a
//     victim when empty.
//
// Determinism: none of this machinery touches session state — it only
// decides *which lane* drives a session next, and sessions are safe to
// migrate between lanes (search::SearchSession's driver token makes the
// handoff explicit). Per-job RunReports therefore stay bit-identical
// across lane counts and steal schedules, which the committed golden
// suite pins.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <limits>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "service/capacity.hpp"

namespace mlcd::service {

/// Sentinel "no job" index (the dispatcher returns it when the batch is
/// done; JobClaims returns it when nothing is claimable right now).
inline constexpr std::size_t kNoJob = std::numeric_limits<std::size_t>::max();

/// Fresh-job claiming and per-tenant quota accounting. One small mutex,
/// taken once per job lifetime (claim + finish) — never per probe.
class JobClaims {
 public:
  /// `tenants[i]` is job i's tenant; `tenant_max_jobs` <= 0 = unlimited.
  /// `max_running` > 0 caps the jobs running at once across all tenants.
  JobClaims(std::vector<std::string> tenants, int tenant_max_jobs,
            int max_running = 0);

  /// Claims the lowest-index unclaimed job whose tenant is under quota
  /// and counts it running; kNoJob when every unclaimed job is
  /// quota-blocked (or none remain). Never blocks.
  std::size_t try_claim();

  /// Marks job i finished: frees its tenant's quota slot and advances
  /// the completion count. The caller is responsible for waking idle
  /// lanes afterwards (ShardedDispatcher::on_job_finished).
  void finished(std::size_t job);

  /// Every job has finished. Lock-free (the dispatcher's idle loops
  /// poll it).
  bool done() const noexcept {
    return completed_.load(std::memory_order_acquire) == tenants_.size();
  }

  std::size_t total() const noexcept { return tenants_.size(); }
  int peak_tenant() const;
  /// High-water mark of jobs running at once (<= `max_running` when set).
  int peak_running() const;

 private:
  const std::vector<std::string> tenants_;
  const int quota_;
  const int max_running_;
  mutable std::mutex mutex_;
  int running_ = 0;
  std::vector<bool> claimed_;
  std::unordered_map<std::string, int> tenant_running_;
  int peak_tenant_ = 0;
  int peak_running_ = 0;
  std::atomic<std::size_t> completed_{0};
};

/// The capacity-blocked session FIFO with a lock-light admission path.
///
/// Strict FIFO is the contract: parked sessions are restaged in park
/// order, and a session never parks behind capacity that a sweep could
/// already have granted it. The *admission* fast path, though, is
/// allowed to linearize at its CapacityPool::try_acquire: a probe that
/// races a concurrent first park may be admitted as-if it arrived just
/// before the park. Once anything is parked (the atomic count is
/// nonzero) every admission serializes through the queue lock and
/// strictly refuses to overtake — the steady-state discipline is
/// exactly PR 5's, minus the lock on the uncontended path.
class ParkQueue {
 public:
  /// A swept session: its capacity grant is already acquired; the
  /// caller stages the gate and routes it to `owner_lane`'s run queue.
  struct Resumed {
    std::size_t job = 0;
    std::size_t owner_lane = 0;
    double waited_seconds = 0.0;  ///< wall time spent parked
  };

  /// Admission decision for one pending probe. Returns true with the
  /// nodes acquired (the caller stages the grant and keeps driving), or
  /// false with the session parked FIFO. `on_park` runs under the queue
  /// lock *before* the entry becomes sweepable — the only window where
  /// the caller can still touch the job's stats without racing the lane
  /// that will later resume it.
  bool admit_or_park(CapacityPool& pool, std::size_t job, int nodes,
                     std::size_t owner_lane,
                     const std::function<void()>& on_park);

  /// The spot-revocation park: the session parks first, *then* its
  /// grant is revoked, so the subsequent sweep can restage this very
  /// session when nothing else holds the pool (elastic re-admission
  /// through the same FIFO as every capacity wait). Only reclaims when
  /// nothing is parked ahead and the grant is actually re-acquirable;
  /// otherwise the revocation is a pure park. Returns the swept
  /// sessions to restage (possibly including `job` itself).
  std::vector<Resumed> park_revoked(CapacityPool& pool, std::size_t job,
                                    int nodes, std::size_t owner_lane,
                                    const std::function<void()>& on_park);

  /// Returns `nodes` to the pool (release or revoke) and restages as
  /// many parked sessions (FIFO) as now fit, each with its grant
  /// already acquired. Called after every finished probe.
  std::vector<Resumed> release_and_sweep(CapacityPool& pool, int nodes);
  std::vector<Resumed> revoke_and_sweep(CapacityPool& pool, int nodes);

  /// Lock-free: parked-session count (the admission fast-path gate).
  std::size_t parked() const noexcept {
    return parked_count_.load(std::memory_order_seq_cst);
  }

 private:
  using Clock = std::chrono::steady_clock;

  struct Parked {
    std::size_t job;
    int nodes;               ///< capacity the pending probe needs
    std::size_t owner_lane;  ///< lane whose queue the resume routes to
    Clock::time_point since;
  };

  std::vector<Resumed> sweep_locked(CapacityPool& pool);

  mutable std::mutex mutex_;
  std::deque<Parked> queue_;
  /// queue_.size(), readable without the lock. seq_cst so the admission
  /// fast path and a concurrent first park order against the pool's
  /// token operations (see admit_or_park).
  std::atomic<std::size_t> parked_count_{0};
};

/// Per-lane run queues with work stealing. Each lane owns a deque on
/// its own cache line: it pops its own work from the front, steals from
/// a victim's back when empty (classic owner-front/thief-back
/// discipline, one victim scan), and claims a fresh job only when no
/// queued session exists anywhere — queued sessions may carry acquired
/// capacity grants, so draining them first keeps the pool honest.
///
/// Idle protocol: a lane with nothing to do parks on one batch-wide
/// condition variable behind a generation counter. Every enqueue bumps
/// the generation (so no wakeup is ever missed) but takes the idle
/// mutex only on this cold path — the probe hot path (cache hit or
/// fast-path admission) never enqueues and never touches it. A lane
/// about to park re-checks the atomic queued-session count under the
/// idle mutex and rescans instead of sleeping when work raced in: no
/// lane ever idles while any run queue is non-empty, which the 16-lane
/// stress test asserts at barrier checkpoints via sleeping_lanes() /
/// queued(). Fresh jobs come from the shared JobClaims.
class ShardedDispatcher {
 public:
  /// `before_idle`, when set, runs before a lane with nothing to do goes
  /// idle; returning true (it may have made work runnable) rescans
  /// instead. A durable batch commits its staged log records there.
  ShardedDispatcher(std::size_t lanes, JobClaims* claims,
                    std::function<bool()> before_idle = {});

  /// Blocks until a session is runnable on `lane` (its own queue, a
  /// steal, or a fresh claim) or the batch is done (returns kNoJob).
  std::size_t next_job(std::size_t lane);

  /// Routes a runnable session to `owner_lane`'s queue (park-resume,
  /// crash re-stage, stall requeue). Any lane may call this for any
  /// session; the queue lock hands the session state off to whichever
  /// lane pops it.
  void enqueue(std::size_t job, std::size_t owner_lane);

  /// Wakes idle lanes after JobClaims::finished: freed quota slots may
  /// make fresh jobs claimable, and the last finish must let every lane
  /// observe done() and exit.
  void on_job_finished();

  /// Sessions taken from another lane's queue.
  std::int64_t steals() const noexcept {
    return steals_.load(std::memory_order_relaxed);
  }

  /// Lanes currently parked on the idle condition variable. With
  /// queued(), the stress test's barrier-checkpoint invariant: when
  /// every lane sleeps and no external enqueuer is live, queued() must
  /// be 0.
  int sleeping_lanes() const noexcept {
    return sleepers_.load(std::memory_order_seq_cst);
  }
  /// Sessions sitting in run queues right now (all lanes).
  std::size_t queued() const noexcept {
    return queued_.load(std::memory_order_seq_cst);
  }

 private:
  /// One lane's run queue, alone on its cache line so owner pops and
  /// thief steals on different lanes never false-share.
  struct alignas(64) Lane {
    std::mutex mutex;
    std::deque<std::size_t> queue;
  };

  // unique_ptr elements: Lane is neither movable nor copyable.
  std::vector<std::unique_ptr<Lane>> lanes_;
  JobClaims* claims_;
  std::function<bool()> before_idle_;

  /// Total sessions across all lane queues. seq_cst: pairs with the
  /// pre-park re-check (an enqueuer bumps this before it reads
  /// sleepers_; a parking lane bumps sleepers_ — under the idle mutex —
  /// before it re-reads this; at least one side always sees the other).
  std::atomic<std::size_t> queued_{0};
  std::atomic<std::int64_t> steals_{0};
  std::atomic<int> sleepers_{0};

  std::mutex idle_mutex_;
  std::condition_variable idle_cv_;
  std::uint64_t generation_ = 0;  ///< guarded by idle_mutex_
};

}  // namespace mlcd::service
