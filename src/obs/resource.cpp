#include "obs/resource.hpp"

#include <cstdio>

#include <sys/resource.h>

namespace mlcd::obs {

namespace detail {

AllocStorage& alloc_storage() noexcept {
  // Function-local so operator new calls during early static
  // initialization find constructed atomics. Atomics allocate nothing,
  // so this never recurses into the hook.
  static AllocStorage storage;
  return storage;
}

}  // namespace detail

AllocCounters alloc_counters() {
  const detail::AllocStorage& s = detail::alloc_storage();
  AllocCounters c;
  c.allocations = s.allocations.load(std::memory_order_relaxed);
  c.bytes = s.bytes.load(std::memory_order_relaxed);
  return c;
}

bool alloc_hook_active() {
  return detail::alloc_storage().linked.load(std::memory_order_relaxed);
}

std::uint64_t peak_rss_bytes() {
  // VmHWM starts afresh at exec. ru_maxrss survives exec, so a binary
  // launched by a larger process (a python3 script, say) would report
  // its parent's peak; it is only the fallback.
  if (std::FILE* status = std::fopen("/proc/self/status", "r")) {
    char line[256];
    unsigned long long kb = 0;
    bool found = false;
    while (!found && std::fgets(line, sizeof line, status) != nullptr) {
      found = std::sscanf(line, "VmHWM: %llu kB", &kb) == 1;
    }
    std::fclose(status);
    if (found) return static_cast<std::uint64_t>(kb) * 1024;
  }
  struct rusage usage {};
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0;
  // Linux reports ru_maxrss in kilobytes.
  return static_cast<std::uint64_t>(usage.ru_maxrss) * 1024;
}

}  // namespace mlcd::obs
