#include "service/capacity.hpp"

#include <functional>
#include <stdexcept>
#include <string>
#include <thread>

namespace mlcd::service {

namespace {

void validate_request(int nodes, int capacity) {
  if (nodes <= 0) {
    throw std::invalid_argument("CapacityPool: non-positive node count");
  }
  if (capacity > 0 && nodes > capacity) {
    throw std::invalid_argument(
        "CapacityPool: probe of " + std::to_string(nodes) +
        " nodes exceeds the pool of " + std::to_string(capacity) +
        " (the scheduler should have rejected this workload)");
  }
}

}  // namespace

CapacityPool::CapacityPool(int capacity_nodes)
    : capacity_(capacity_nodes > 0 ? capacity_nodes : 0) {
  // Spread the tokens across the stripes up front (remainder to the low
  // stripes) so concurrent gatherers start out on disjoint cache lines.
  const int per = capacity_ / kTokenStripes;
  int rem = capacity_ % kTokenStripes;
  for (TokenStripe& stripe : stripes_) {
    stripe.tokens.store(per + (rem > 0 ? 1 : 0), std::memory_order_relaxed);
    if (rem > 0) --rem;
  }
}

std::size_t CapacityPool::home_stripe() const noexcept {
  // A thread keeps returning tokens to — and gathering first from — the
  // same stripe, so steady-state traffic from different lanes stays on
  // different cache lines.
  return std::hash<std::thread::id>{}(std::this_thread::get_id()) &
         static_cast<std::size_t>(kTokenStripes - 1);
}

bool CapacityPool::gather(int nodes) noexcept {
  const std::size_t home = home_stripe();
  int taken = 0;
  for (int i = 0; i < kTokenStripes && taken < nodes; ++i) {
    TokenStripe& stripe =
        stripes_[(home + static_cast<std::size_t>(i)) &
                 static_cast<std::size_t>(kTokenStripes - 1)];
    int cur = stripe.tokens.load(std::memory_order_relaxed);
    while (cur > 0) {
      const int take = cur < nodes - taken ? cur : nodes - taken;
      if (stripe.tokens.compare_exchange_weak(cur, cur - take,
                                              std::memory_order_acq_rel,
                                              std::memory_order_relaxed)) {
        taken += take;
        break;
      }
    }
  }
  if (taken == nodes) return true;
  if (taken > 0) scatter(taken);
  return false;
}

void CapacityPool::scatter(int nodes) noexcept {
  stripes_[home_stripe()].tokens.fetch_add(nodes, std::memory_order_acq_rel);
}

void CapacityPool::note_acquired(int nodes) noexcept {
  const int now = in_use_.fetch_add(nodes, std::memory_order_relaxed) + nodes;
  int peak = peak_.load(std::memory_order_relaxed);
  while (now > peak &&
         !peak_.compare_exchange_weak(peak, now, std::memory_order_relaxed)) {
  }
}

int CapacityPool::clamp_release(int nodes) noexcept {
  if (nodes <= 0) return 0;
  // CAS loop so concurrent releases can never drive occupancy negative:
  // each release reclaims at most what is actually in use at its
  // linearization point (the reserve-safe arithmetic the revoke ledger
  // depends on).
  int cur = in_use_.load(std::memory_order_relaxed);
  while (true) {
    const int reclaimed = nodes < cur ? nodes : cur;
    if (reclaimed <= 0) return 0;
    if (in_use_.compare_exchange_weak(cur, cur - reclaimed,
                                      std::memory_order_acq_rel,
                                      std::memory_order_relaxed)) {
      return reclaimed;
    }
  }
}

bool CapacityPool::try_acquire(int nodes) {
  validate_request(nodes, capacity_);
  if (capacity_ == 0) {  // unlimited pool: only track occupancy
    note_acquired(nodes);
    return true;
  }
  if (gather(nodes)) {
    note_acquired(nodes);
    return true;
  }
  // Shortfall. Either the pool is genuinely full, or concurrent
  // gatherers fragmented each other (each transiently holding partial
  // token sets that sum to enough for one of them). One serialized
  // retry under the pool mutex settles it: every failed gatherer
  // returns its partials *before* queueing here, so the last contender
  // through this section sees the true free-token count — a serialized
  // failure therefore means a real holder exists, and liveness rides on
  // that holder's eventual release.
  std::lock_guard<std::mutex> lock(mutex_);
  if (!gather(nodes)) return false;
  note_acquired(nodes);
  return true;
}

void CapacityPool::release(int nodes) noexcept {
  const int reclaimed = clamp_release(nodes);
  if (capacity_ > 0 && reclaimed > 0) scatter(reclaimed);
}

void CapacityPool::revoke(int nodes) noexcept {
  // Same reserve-safe arithmetic as release(): occupancy can never go
  // negative. The revocation ledger only counts nodes that were
  // actually in use: a revoke that races a release (or a stray
  // double-revoke) reclaims nothing and must not inflate the stats —
  // revoked_nodes_ would otherwise drift past what the pool ever held.
  const int reclaimed = clamp_release(nodes);
  if (reclaimed > 0) {
    if (capacity_ > 0) scatter(reclaimed);
    revocations_.fetch_add(1, std::memory_order_relaxed);
    revoked_nodes_.fetch_add(reclaimed, std::memory_order_relaxed);
  }
}

int CapacityPool::in_use() const noexcept {
  return in_use_.load(std::memory_order_relaxed);
}

int CapacityPool::peak_in_use() const noexcept {
  return peak_.load(std::memory_order_relaxed);
}

std::int64_t CapacityPool::revocations() const noexcept {
  return revocations_.load(std::memory_order_relaxed);
}

int CapacityPool::revoked_nodes() const noexcept {
  return revoked_nodes_.load(std::memory_order_relaxed);
}

}  // namespace mlcd::service
