// Global simulated-node capacity pool (service layer).
//
// A real MLaaS region does not have infinite machines: the fleet's
// in-flight probes draw their nodes from one shared pool. A probe that
// does not fit right now is refused, never blocked: the scheduler parks
// its session in its own FIFO (service/dispatch.hpp) and restages it
// once running probes release enough capacity.
//
// try_acquire is lock-free on the uncontended path: the pool's tokens
// live in cache-line-aligned atomic stripes, and an acquire gathers
// from its home stripe first, then steals from the others (bounded: one
// full scan), falling back to one mutex-serialized consolidation retry
// so two concurrent gatherers can never fragment each other into a
// spurious refusal (see capacity.cpp for the liveness argument).
//
// Capacity waits are *real wall-clock* scheduler time. They are never
// charged to a job's simulated profiling clock or billing meter — a
// queued cluster bills nothing until it launches — which is exactly what
// keeps a job's trace and constraint accounting bit-identical to its
// solo run (docs/service.md).
#pragma once

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <mutex>

namespace mlcd::service {

/// Non-blocking counting semaphore over simulated nodes with a striped
/// lock-free fast path.
class CapacityPool {
 public:
  /// Token stripes the capacity is spread over (power of two). Small
  /// enough that a full gather scan stays cheap, large enough that
  /// concurrent releases/acquires of different lanes rarely collide on
  /// one cache line.
  static constexpr int kTokenStripes = 8;

  /// `capacity_nodes` <= 0 means unlimited (every acquire succeeds
  /// immediately); otherwise try_acquire(n) requires n <= capacity_nodes
  /// — the scheduler validates workloads against this at admission so a
  /// too-large probe can never wedge the park queue.
  explicit CapacityPool(int capacity_nodes);

  /// Takes `nodes` when they fit *right now*, returns false otherwise
  /// without taking anything. Lock-free on the uncontended path (atomic
  /// stripe gather with stealing); takes the pool mutex only for the one
  /// serialized consolidation retry after a contended shortfall. The
  /// scheduler uses this to decide run-vs-park without ever blocking a
  /// lane; FIFO fairness is its park queue's job. Throws
  /// std::invalid_argument when `nodes` is non-positive or exceeds the
  /// pool outright.
  bool try_acquire(int nodes);

  /// Returns capacity acquired earlier. Lock-free, never blocks.
  void release(int nodes) noexcept;

  /// Reserve-safe reclamation of a spot-revoked grant. Every grant
  /// handed out by this pool is revocable: the scheduler — not the
  /// holder — decides when simulated spot capacity is taken back.
  /// Returns the nodes exactly like release() (occupancy never
  /// underflows) and additionally counts the revocation, so chaotic
  /// batches can audit how much capacity churned. Only nodes actually
  /// in use are counted: a revoke after the grant was already released
  /// (or a double-revoke) reclaims nothing and leaves the ledger
  /// untouched. Never blocks.
  void revoke(int nodes) noexcept;

  int capacity_nodes() const noexcept { return capacity_; }
  /// Nodes occupied by in-flight probes right now.
  int in_use() const noexcept;
  /// High-water mark of concurrent occupied nodes.
  int peak_in_use() const noexcept;
  /// Spot revocations absorbed / total nodes reclaimed through them.
  std::int64_t revocations() const noexcept;
  int revoked_nodes() const noexcept;

 private:
  /// One token stripe, alone on its cache line so lanes returning and
  /// gathering tokens on different stripes never false-share.
  struct alignas(64) TokenStripe {
    std::atomic<int> tokens{0};
  };

  /// Takes up to `nodes` tokens across the stripes (home stripe first,
  /// then stealing from the rest in one bounded scan). On shortfall
  /// every taken token is returned and false comes back — all-or-
  /// nothing from the caller's point of view.
  bool gather(int nodes) noexcept;

  /// Returns `nodes` tokens to the stripes (spread from the caller's
  /// home stripe).
  void scatter(int nodes) noexcept;

  std::size_t home_stripe() const noexcept;

  /// Bumps occupancy and the peak high-water mark (CAS max).
  void note_acquired(int nodes) noexcept;

  /// Atomically clamps occupancy at zero; returns the nodes actually
  /// reclaimed (the release()/revoke() reserve-safe arithmetic).
  int clamp_release(int nodes) noexcept;

  const int capacity_;
  std::array<TokenStripe, kTokenStripes> stripes_;

  std::atomic<int> in_use_{0};
  std::atomic<int> peak_{0};
  std::atomic<std::int64_t> revocations_{0};
  std::atomic<int> revoked_nodes_{0};

  /// Serializes try_acquire's consolidation retry.
  std::mutex mutex_;
};

}  // namespace mlcd::service
