#include "service/probe_cache.hpp"

namespace mlcd::service {

static_assert((ProbeCache::kStripes & (ProbeCache::kStripes - 1)) == 0,
              "the stripe index is a mask of the key hash");

ProbeCache::Stripe& ProbeCache::stripe_for(const profiler::ProbeKey& key) {
  // The low bits of ProbeKeyHash pick the stripe; the map inside the
  // stripe re-hashes with the same function, which is fine — a stripe's
  // keys share only their low bits, not their full hash.
  return stripes_[profiler::ProbeKeyHash{}(key) & (kStripes - 1)];
}

std::optional<journal::ProbeRecord> ProbeCache::lookup(
    const profiler::ProbeKey& key) {
  Stripe& stripe = stripe_for(key);
  stripe.lookups.fetch_add(1, std::memory_order_relaxed);
  std::lock_guard<std::mutex> lock(stripe.mutex);
  const auto it = stripe.records.find(key);
  if (it == stripe.records.end()) return std::nullopt;
  stripe.hits.fetch_add(1, std::memory_order_relaxed);
  return it->second;
}

bool ProbeCache::insert(const profiler::ProbeKey& key,
                        const journal::ProbeRecord& record) {
  Stripe& stripe = stripe_for(key);
  bool inserted = false;
  {
    std::lock_guard<std::mutex> lock(stripe.mutex);
    inserted = stripe.records.emplace(key, record).second;
  }
  if (inserted) {
    stripe.inserts.fetch_add(1, std::memory_order_relaxed);
  } else {
    stripe.rejected.fetch_add(1, std::memory_order_relaxed);
  }
  return inserted;
}

ProbeCache::Stats ProbeCache::stats() const {
  Stats out;
  out.stripes = kStripes;
  std::size_t largest = 0;
  for (const Stripe& stripe : stripes_) {
    out.lookups += stripe.lookups.load(std::memory_order_relaxed);
    out.hits += stripe.hits.load(std::memory_order_relaxed);
    out.inserts += stripe.inserts.load(std::memory_order_relaxed);
    out.rejected += stripe.rejected.load(std::memory_order_relaxed);
    std::size_t size = 0;
    {
      std::lock_guard<std::mutex> lock(stripe.mutex);
      size = stripe.records.size();
    }
    out.size += size;
    largest = size > largest ? size : largest;
  }
  if (out.size > 0) {
    const double mean = static_cast<double>(out.size) /
                        static_cast<double>(kStripes);
    out.max_stripe_imbalance = static_cast<double>(largest) / mean;
  }
  return out;
}

}  // namespace mlcd::service
