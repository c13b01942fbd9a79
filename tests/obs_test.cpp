// Resource probe tests: the peak-RSS reading and the allocation
// counter that perfbench reports as peak_rss_mb and alloc.*.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include <unistd.h>

#include "obs/resource.hpp"

namespace {

using namespace mlcd;

/// VmHWM from /proc/self/status, bytes; -1 when the line is absent.
long long vm_hwm_bytes() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    long long kb = 0;
    if (std::sscanf(line.c_str(), "VmHWM: %lld kB", &kb) == 1) {
      return kb * 1024;
    }
  }
  return -1;
}

TEST(ObsResource, PeakRssIsThisImagesHighWaterMark) {
  // ru_maxrss would carry the peak of whatever process exec'd this
  // binary; VmHWM starts afresh at exec. Bracket the call so a page the
  // read itself faults in cannot fail the comparison.
  const long long before = vm_hwm_bytes();
  if (before < 0) GTEST_SKIP() << "no VmHWM in /proc/self/status";
  const auto peak = static_cast<long long>(obs::peak_rss_bytes());
  const long long after = vm_hwm_bytes();
  const long long page = ::sysconf(_SC_PAGESIZE);
  EXPECT_GE(peak + page, before);
  EXPECT_LE(peak, after + page);
}

TEST(ObsResource, AllocCounterIsThreadSafeUnderThreadPool) {
  ASSERT_TRUE(obs::alloc_hook_active());
  constexpr std::size_t kTasks = 2000;
  constexpr std::size_t kBytes = 1024;

  constexpr std::size_t kThreads = 4;

  const obs::AllocCounters before = obs::alloc_counters();
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([t] {
      for (std::size_t i = t * kTasks / kThreads;
           i < (t + 1) * kTasks / kThreads; ++i) {
        volatile char* p = new char[kBytes];
        p[0] = static_cast<char>(i);
        delete[] const_cast<char*>(p);
      }
    });
  }
  for (std::thread& thread : threads) thread.join();

  // Concurrent counting must lose nothing: starting the threads
  // allocates too, so the delta is a floor, not an equality.
  const obs::AllocCounters after = obs::alloc_counters();
  EXPECT_GE(after.allocations - before.allocations, kTasks);
  EXPECT_GE(after.bytes - before.bytes, kTasks * kBytes);
}

}  // namespace
