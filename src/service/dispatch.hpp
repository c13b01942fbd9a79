// Probe-granularity dispatch: job claims, the capacity queue, and the
// per-lane run queues with work stealing (service layer).
//
// An earlier scheduler funneled every probe-granularity decision — claim
// a fresh job, pick up a resumed session, park for capacity, finish —
// through one batch-wide mutex, which its service gate showed turning
// into negative scaling (jobs/sec *shrinking* with lanes). This
// header splits that mutex three ways, each piece sized to what it
// actually guards:
//
//   * JobClaims — fresh-job claiming and tenant quotas. Touched once
//     per job lifetime (claim + finish), never per probe, so a single
//     small mutex is fine.
//   * CapacityQueue — the shared simulated-node pool and the FIFO of
//     sessions parked on it. One mutex guards occupancy, its peak and
//     the parked deque, so "does this probe fit, and is anyone waiting
//     ahead of it" is one decision. Cache hits never reach it.
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

/// The shared simulated-node pool and the FIFO of sessions waiting on
/// it (service layer).
///
/// A real MLaaS region does not have infinite machines: the fleet's
/// in-flight probes draw their nodes from one shared pool. A probe that
/// does not fit right now is never blocked on: its session parks here
/// and is restaged once running probes release enough capacity.
///
/// Strict FIFO is the contract: parked sessions are restaged in park
/// order, a probe never overtakes a parked one (even when it would fit),
/// and a sweep stops at the first head that does not fit. Everything
/// happens under one mutex, so between calls either nothing is parked
/// or the head does not fit.
///
/// Capacity waits are *real wall-clock* scheduler time. They are never
/// charged to a job's simulated profiling clock or billing meter — a
/// queued cluster bills nothing until it launches — which is exactly
/// what keeps a job's trace and constraint accounting bit-identical to
/// its solo run (docs/service.md).
class CapacityQueue {
 public:
  /// A swept session: its capacity grant is already acquired; the
  /// caller stages the gate and routes it to `owner_lane`'s run queue.
  struct Resumed {
    std::size_t job = 0;
    std::size_t owner_lane = 0;
    double waited_seconds = 0.0;  ///< wall time spent parked
  };

  /// `capacity_nodes` <= 0 means unlimited (every probe is admitted;
  /// occupancy and its peak are still tracked). The scheduler validates
  /// workloads against a finite pool at admission, so a too-large probe
  /// can never wedge the FIFO.
  explicit CapacityQueue(int capacity_nodes);

  /// Admission decision for one pending probe. Returns true with the
  /// nodes acquired (the caller stages the grant and keeps driving), or
  /// false with the session parked FIFO. `on_park` runs under the lock
  /// *before* the entry becomes sweepable — the only window where the
  /// caller can still touch the job's stats without racing the lane
  /// that will later resume it. Throws std::invalid_argument when
  /// `nodes` is non-positive or exceeds a finite pool outright.
  bool admit_or_park(std::size_t job, int nodes, std::size_t owner_lane,
                     const std::function<void()>& on_park);

  /// The spot-revocation path: the session parks at the tail, then the
  /// queue is swept, so the revoked session re-admits behind every
  /// earlier-parked one — and at once when nothing is parked ahead and
  /// its nodes fit. Returns the swept sessions to restage (possibly
  /// including `job` itself). Throws like admit_or_park.
  std::vector<Resumed> park(std::size_t job, int nodes,
                            std::size_t owner_lane,
                            const std::function<void()>& on_park);

  /// Returns `nodes` to the pool and restages as many parked sessions
  /// (FIFO) as now fit, each with its grant already acquired. Called
  /// after every finished probe. Occupancy never drops below zero: a
  /// release of more than is in use reclaims only what is.
  std::vector<Resumed> release_and_sweep(int nodes);

  /// Sessions parked right now.
  std::size_t parked() const;
  /// Nodes occupied by in-flight probes right now.
  int in_use() const;
  /// High-water mark of concurrently occupied nodes.
  int peak_in_use() const;

 private:
  using Clock = std::chrono::steady_clock;

  struct Parked {
    std::size_t job;
    int nodes;               ///< capacity the pending probe needs
    std::size_t owner_lane;  ///< lane whose queue the resume routes to
    Clock::time_point since;
  };

  void validate(int nodes) const;
  /// Takes `nodes` when they fit right now; the caller holds mutex_.
  bool try_acquire_locked(int nodes);
  std::vector<Resumed> sweep_locked();

  const int capacity_;  ///< 0 = unlimited
  mutable std::mutex mutex_;
  int in_use_ = 0;
  int peak_ = 0;
  std::deque<Parked> queue_;
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
/// admission) never enqueues and never touches it. A lane
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
