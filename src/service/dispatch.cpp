#include "service/dispatch.hpp"

#include <algorithm>
#include <stdexcept>
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
// CapacityQueue
// --------------------------------------------------------------------

CapacityQueue::CapacityQueue(int capacity_nodes)
    : capacity_(capacity_nodes > 0 ? capacity_nodes : 0) {}

void CapacityQueue::validate(int nodes) const {
  if (nodes <= 0) {
    throw std::invalid_argument("CapacityQueue: non-positive node count");
  }
  if (capacity_ > 0 && nodes > capacity_) {
    throw std::invalid_argument(
        "CapacityQueue: probe of " + std::to_string(nodes) +
        " nodes exceeds the pool of " + std::to_string(capacity_) +
        " (the scheduler should have rejected this workload)");
  }
}

bool CapacityQueue::try_acquire_locked(int nodes) {
  if (capacity_ > 0 && in_use_ + nodes > capacity_) return false;
  in_use_ += nodes;
  peak_ = std::max(peak_, in_use_);
  return true;
}

bool CapacityQueue::admit_or_park(std::size_t job, int nodes,
                                  std::size_t owner_lane,
                                  const std::function<void()>& on_park) {
  validate(nodes);
  std::lock_guard<std::mutex> lock(mutex_);
  // Nothing parked ahead and the nodes fit: admitted. Otherwise the
  // probe parks at the tail — it never overtakes a parked session.
  if (queue_.empty() && try_acquire_locked(nodes)) return true;
  queue_.push_back(Parked{job, nodes, owner_lane, Clock::now()});
  if (on_park) on_park();
  return false;
}

std::vector<CapacityQueue::Resumed> CapacityQueue::park(
    std::size_t job, int nodes, std::size_t owner_lane,
    const std::function<void()>& on_park) {
  validate(nodes);
  std::lock_guard<std::mutex> lock(mutex_);
  queue_.push_back(Parked{job, nodes, owner_lane, Clock::now()});
  if (on_park) on_park();
  return sweep_locked();
}

std::vector<CapacityQueue::Resumed> CapacityQueue::release_and_sweep(
    int nodes) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (nodes > 0) in_use_ -= std::min(nodes, in_use_);
  return sweep_locked();
}

std::vector<CapacityQueue::Resumed> CapacityQueue::sweep_locked() {
  std::vector<Resumed> resumed;
  while (!queue_.empty()) {
    const Parked& head = queue_.front();
    if (!try_acquire_locked(head.nodes)) break;
    resumed.push_back(
        Resumed{head.job, head.owner_lane, seconds_since(head.since)});
    queue_.pop_front();
  }
  return resumed;
}

std::size_t CapacityQueue::parked() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return queue_.size();
}

int CapacityQueue::in_use() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return in_use_;
}

int CapacityQueue::peak_in_use() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return peak_;
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
