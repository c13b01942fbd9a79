// Process-wide resource probes: peak RSS and a thread-safe allocation
// counter.
//
// perfbench reads both for its peak_rss_mb and alloc.* metrics, and the
// allocation guards in the tests count operator new calls with them.
// Peak RSS comes from VmHWM (getrusage as the fallback); allocation
// counts come from replacement global operator new/delete
// (alloc_hook.cpp) bumping relaxed atomics — cheap enough to stay on
// for a whole benchmark run, exact enough to be deterministic for
// deterministic workloads.
//
// The hook is opt-in per binary: link `mlcd_obs_alloc` (an interface
// library that compiles alloc_hook.cpp into the consumer) and
// alloc_hook_active() turns true. Binaries that skip it still build and
// run; alloc_counters() just reports zeros.
#pragma once

#include <atomic>
#include <cstdint>

namespace mlcd::obs {

/// Cumulative allocation totals since process start.
struct AllocCounters {
  std::uint64_t allocations = 0;  ///< operator new calls
  std::uint64_t bytes = 0;        ///< sum of requested sizes
};

/// Current process-wide totals. Zeros when the hook is not linked.
AllocCounters alloc_counters();

/// True when alloc_hook.cpp is compiled into this binary (so
/// alloc_counters() actually counts).
bool alloc_hook_active();

/// Peak resident set size of this process image, bytes: VmHWM from
/// /proc/self/status, falling back to getrusage's ru_maxrss where that
/// line is absent. 0 when the platform cannot report either.
std::uint64_t peak_rss_bytes();

namespace detail {

/// Storage the replacement operator new/delete increments. Defined in
/// resource.cpp so it exists in every binary; alloc_hook.cpp flips
/// `linked` from a namespace-scope initializer when compiled in.
struct AllocStorage {
  std::atomic<std::uint64_t> allocations{0};
  std::atomic<std::uint64_t> bytes{0};
  std::atomic<bool> linked{false};
};

AllocStorage& alloc_storage() noexcept;

inline void note_alloc(std::size_t size) noexcept {
  AllocStorage& s = alloc_storage();
  s.allocations.fetch_add(1, std::memory_order_relaxed);
  s.bytes.fetch_add(static_cast<std::uint64_t>(size),
                    std::memory_order_relaxed);
}

}  // namespace detail

}  // namespace mlcd::obs
