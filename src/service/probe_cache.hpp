// Shared cross-job probe cache (service layer).
//
// A fleet of concurrent searches probes the same deployment catalog —
// HeterBO alone opens every run with one single-node probe per instance
// type — so the service measures each distinct probe once and serves
// every later identical request from this cache. "Identical" is decided
// by profiler::ProbeKey, which fingerprints every input of the probe
// computation (substrate + full prior probe history); see
// profiler/probe_gate.hpp for why a key match implies a bit-identical
// outcome, which is what keeps batch traces equal to solo traces.
//
// The map is sharded into kStripes stripes keyed by the ProbeKey hash:
// concurrent lanes looking up or publishing *different* keys take
// different stripe mutexes, so the cache stops being the fleet-wide
// serialization point it was as a single-mutex map. Sharding is
// invisible to the replay semantics — which stripe a key lands on never
// changes what record a lookup returns — and the ProbeGate contract is
// untouched.
//
// Records are stored as journal::ProbeRecord measurement images (the
// same representation crash-resume replays), first writer wins, and the
// stripes only ever grow — entries are immutable once published, so a
// hit can be copied out under a short per-stripe lock with no coherence
// protocol. Counters are relaxed atomics (per stripe) aggregated at
// stats() time: hot-path bumps never contend, and a stats() racing live
// lookups reads a recent — not torn — snapshot.
#pragma once

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <optional>
#include <unordered_map>

#include "journal/journal.hpp"
#include "profiler/probe_gate.hpp"

namespace mlcd::service {

/// Thread-safe, grow-only map from probe identity to measured outcome,
/// sharded over independently locked stripes.
class ProbeCache {
 public:
  /// Stripe count (a power of two: the low hash bits pick the stripe).
  static constexpr int kStripes = 16;

  struct Stats {
    std::int64_t lookups = 0;
    std::int64_t hits = 0;
    std::int64_t inserts = 0;   ///< records accepted (first writer)
    std::int64_t rejected = 0;  ///< publish lost the first-writer race
    std::size_t size = 0;
    int stripes = 0;            ///< stripe count the cache ran with
    /// Largest stripe's record count divided by the mean stripe record
    /// count (1.0 = perfectly balanced; 0 while the cache is empty).
    /// A hash that funnels keys into few stripes shows up here long
    /// before it shows up as lock contention.
    double max_stripe_imbalance = 0.0;
  };

  /// The record published under `key`, if any.
  std::optional<journal::ProbeRecord> lookup(const profiler::ProbeKey& key);

  /// Publishes a measurement; first writer wins (a concurrent duplicate
  /// is dropped — by the ProbeKey contract it holds identical bytes).
  /// Returns true when this call inserted the record.
  bool insert(const profiler::ProbeKey& key,
              const journal::ProbeRecord& record);

  /// Aggregated across stripes. Safe to call while lanes are live: the
  /// counters are relaxed atomics, so the snapshot is recent and
  /// untorn, just not a cross-stripe linearization point.
  Stats stats() const;

 private:
  struct Stripe {
    mutable std::mutex mutex;
    std::unordered_map<profiler::ProbeKey, journal::ProbeRecord,
                       profiler::ProbeKeyHash>
        records;
    // Relaxed: each is an independent event counter; stats() only needs
    // a recent sum, never cross-counter ordering.
    std::atomic<std::int64_t> lookups{0};
    std::atomic<std::int64_t> hits{0};
    std::atomic<std::int64_t> inserts{0};
    std::atomic<std::int64_t> rejected{0};
  };

  Stripe& stripe_for(const profiler::ProbeKey& key);

  std::array<Stripe, kStripes> stripes_;
};

}  // namespace mlcd::service
