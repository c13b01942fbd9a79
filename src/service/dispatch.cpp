#include "service/dispatch.hpp"

#include <utility>

namespace mlcd::service {

namespace {

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

}  // namespace

// --------------------------------------------------------------------
// JobClaims
// --------------------------------------------------------------------

JobClaims::JobClaims(std::vector<std::string> tenants, int tenant_max_jobs,
                     int max_running)
    : tenants_(std::move(tenants)),
      quota_(tenant_max_jobs),
      max_running_(max_running),
      claimed_(tenants_.size(), false) {}

std::size_t JobClaims::try_claim() {
  std::lock_guard<std::mutex> lock(mutex_);
  if (max_running_ > 0 && running_ >= max_running_) return kNoJob;
  for (std::size_t i = 0; i < claimed_.size(); ++i) {
    if (claimed_[i]) continue;
    int& running = tenant_running_[tenants_[i]];
    if (quota_ > 0 && running >= quota_) {
      continue;  // quota-blocked; later jobs may still be eligible
    }
    claimed_[i] = true;
    ++running;
    ++running_;
    peak_tenant_ = peak_tenant_ < running ? running : peak_tenant_;
    peak_running_ = peak_running_ < running_ ? running_ : peak_running_;
    return i;
  }
  return kNoJob;
}

void JobClaims::finished(std::size_t job) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    --tenant_running_[tenants_[job]];
    --running_;
  }
  completed_.fetch_add(1, std::memory_order_acq_rel);
}

int JobClaims::peak_tenant() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return peak_tenant_;
}

int JobClaims::peak_running() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return peak_running_;
}

// --------------------------------------------------------------------
// ParkQueue
// --------------------------------------------------------------------

bool ParkQueue::admit_or_park(CapacityPool& pool, std::size_t job, int nodes,
                              std::size_t owner_lane,
                              const std::function<void()>& on_park) {
  // Fast path: nobody parked, so there is no FIFO to respect — a
  // lock-free try_acquire decides. A first park racing this admission
  // resolves at the try_acquire's linearization point: success means
  // this probe admitted as-if it arrived just before the park.
  if (parked_count_.load(std::memory_order_seq_cst) == 0 &&
      pool.try_acquire(nodes)) {
    return true;
  }
  // Slow path: serialize against sweeps. The emptiness re-check and the
  // acquire happen under the lock, so once sessions are parked nothing
  // ever overtakes them.
  std::lock_guard<std::mutex> lock(mutex_);
  if (queue_.empty() && pool.try_acquire(nodes)) return true;
  queue_.push_back(Parked{job, nodes, owner_lane, Clock::now()});
  parked_count_.store(queue_.size(), std::memory_order_seq_cst);
  if (on_park) on_park();
  return false;
}

std::vector<ParkQueue::Resumed> ParkQueue::park_revoked(
    CapacityPool& pool, std::size_t job, int nodes, std::size_t owner_lane,
    const std::function<void()>& on_park) {
  std::lock_guard<std::mutex> lock(mutex_);
  // Only reclaim a grant the pool could re-issue right now with nothing
  // parked ahead — otherwise the revocation is a pure park and the
  // nodes were never this session's to return.
  const bool reclaimed = queue_.empty() && pool.try_acquire(nodes);
  queue_.push_back(Parked{job, nodes, owner_lane, Clock::now()});
  parked_count_.store(queue_.size(), std::memory_order_seq_cst);
  if (on_park) on_park();
  if (!reclaimed) return {};
  // Park *before* revoking so the sweep can restage this very session
  // when nothing else holds the pool.
  pool.revoke(nodes);
  return sweep_locked(pool);
}

std::vector<ParkQueue::Resumed> ParkQueue::release_and_sweep(
    CapacityPool& pool, int nodes) {
  pool.release(nodes);
  std::lock_guard<std::mutex> lock(mutex_);
  return sweep_locked(pool);
}

std::vector<ParkQueue::Resumed> ParkQueue::revoke_and_sweep(
    CapacityPool& pool, int nodes) {
  pool.revoke(nodes);
  std::lock_guard<std::mutex> lock(mutex_);
  return sweep_locked(pool);
}

std::vector<ParkQueue::Resumed> ParkQueue::sweep_locked(CapacityPool& pool) {
  std::vector<Resumed> resumed;
  while (!queue_.empty()) {
    const Parked& head = queue_.front();
    if (!pool.try_acquire(head.nodes)) break;
    resumed.push_back(
        Resumed{head.job, head.owner_lane, seconds_since(head.since)});
    queue_.pop_front();
  }
  if (!resumed.empty()) {
    parked_count_.store(queue_.size(), std::memory_order_seq_cst);
  }
  return resumed;
}

// --------------------------------------------------------------------
// ShardedDispatcher
// --------------------------------------------------------------------

ShardedDispatcher::ShardedDispatcher(std::size_t lanes, JobClaims* claims,
                                     std::function<bool()> before_idle)
    : claims_(claims), before_idle_(std::move(before_idle)) {
  lanes_.reserve(lanes == 0 ? 1 : lanes);
  for (std::size_t i = 0; i < (lanes == 0 ? 1 : lanes); ++i) {
    lanes_.push_back(std::make_unique<Lane>());
  }
}

std::size_t ShardedDispatcher::next_job(std::size_t lane) {
  Lane& own = *lanes_[lane % lanes_.size()];
  for (;;) {
    if (claims_->done()) return kNoJob;
    // 1. Own queue, front (the owner end).
    {
      std::lock_guard<std::mutex> lock(own.mutex);
      if (!own.queue.empty()) {
        const std::size_t job = own.queue.front();
        own.queue.pop_front();
        queued_.fetch_sub(1, std::memory_order_seq_cst);
        return job;
      }
    }
    // 2. Steal from a victim's back. Queued sessions may carry acquired
    // capacity grants, so draining them beats claiming fresh work; the
    // atomic count skips the scan entirely when every queue is empty.
    if (queued_.load(std::memory_order_seq_cst) > 0) {
      for (std::size_t k = 1; k < lanes_.size(); ++k) {
        Lane& victim = *lanes_[(lane + k) % lanes_.size()];
        std::lock_guard<std::mutex> lock(victim.mutex);
        if (victim.queue.empty()) continue;
        const std::size_t job = victim.queue.back();
        victim.queue.pop_back();
        queued_.fetch_sub(1, std::memory_order_seq_cst);
        steals_.fetch_add(1, std::memory_order_relaxed);
        return job;
      }
    }
    // 3. Fresh job.
    {
      const std::size_t fresh = claims_->try_claim();
      if (fresh != kNoJob) return fresh;
    }
    if (before_idle_ && before_idle_()) continue;
    // 4. Idle. The generation counter closes the scan-to-park window:
    // anything enqueued or finished after `gen` was captured bumps it,
    // so the wait predicate sees the change even if the notify fired
    // before this lane parked.
    std::unique_lock<std::mutex> idle(idle_mutex_);
    const std::uint64_t gen = generation_;
    sleepers_.fetch_add(1, std::memory_order_seq_cst);
    if (queued_.load(std::memory_order_seq_cst) > 0 || claims_->done()) {
      // Work (or the batch end) raced in while we prepared to park:
      // rescan instead of idling with a non-empty run queue somewhere.
      sleepers_.fetch_sub(1, std::memory_order_seq_cst);
      continue;
    }
    idle_cv_.wait(idle,
                  [&] { return generation_ != gen || claims_->done(); });
    sleepers_.fetch_sub(1, std::memory_order_seq_cst);
  }
}

void ShardedDispatcher::enqueue(std::size_t job, std::size_t owner_lane) {
  Lane& lane = *lanes_[owner_lane % lanes_.size()];
  {
    std::lock_guard<std::mutex> lock(lane.mutex);
    lane.queue.push_back(job);
  }
  // seq_cst bump *before* the sleeper check: pairs with the parking
  // lane's sleepers_-then-queued_ sequence so at least one side always
  // observes the other (no lane parks while this session sits queued).
  queued_.fetch_add(1, std::memory_order_seq_cst);
  if (sleepers_.load(std::memory_order_seq_cst) > 0) {
    {
      std::lock_guard<std::mutex> idle(idle_mutex_);
      ++generation_;
    }
    idle_cv_.notify_all();
  }
}

void ShardedDispatcher::on_job_finished() {
  // Always bump: freed quota slots can make fresh jobs claimable, and
  // the final finish must propagate done() to every parked lane.
  {
    std::lock_guard<std::mutex> idle(idle_mutex_);
    ++generation_;
  }
  idle_cv_.notify_all();
}

}  // namespace mlcd::service
