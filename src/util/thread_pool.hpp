// Fixed-size worker pool for deterministic data-parallel loops.
//
// The service scheduler runs its job lanes on this pool (one chunk per
// lane, see service/scheduler.cpp), and the profiler's probe watchdog
// uses run_with_deadline. The contract parallel_for keeps:
//
//   * parallel_for splits [0, n) into contiguous chunks with a fixed
//     partitioning rule — no work stealing, no dynamic scheduling — so
//     every index is processed exactly once, by exactly one chunk.
//   * Workers write per-element results into disjoint slots of a
//     pre-sized buffer. Element i's value never depends on which thread
//     computed it or on how many threads exist.
//   * Any cross-element reduction (argmax, sum, sort) happens after
//     parallel_for returns, serially, in index order.
//
// Under these rules the output is bitwise independent of thread count,
// which the ThreadPoolTest cases in tests/fastpath_test.cpp enforce.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace mlcd::util {

class ThreadPool {
 public:
  /// Pool with `threads` execution lanes (the calling thread counts as
  /// one, so `threads - 1` workers are spawned). `threads <= 1` runs
  /// everything inline. `threads == 0` is clamped to 1.
  explicit ThreadPool(int threads = 1);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  int thread_count() const noexcept { return thread_count_; }

  /// Invokes fn(begin, end) over contiguous chunks covering [0, n) and
  /// blocks until all chunks finish. Chunk c is [c*n/k, (c+1)*n/k) with
  /// k = thread_count(). The first exception thrown by fn is rethrown on
  /// the caller after the batch drains. Not reentrant: fn must not call
  /// parallel_for on the same pool.
  ///
  /// Safe to call from multiple threads on a shared pool: concurrent
  /// submissions serialize (one batch at a time, FIFO by mutex order).
  /// Chunking depends only on (n, thread_count), so sharing keeps the
  /// determinism contract above.
  void parallel_for(std::size_t n,
                    const std::function<void(std::size_t, std::size_t)>& fn);

  /// std::thread::hardware_concurrency() with a floor of 1.
  static int hardware_threads();

  /// Runs `task` with a real wall-clock deadline: returns true when the
  /// task finished within `timeout_seconds`, false when the deadline
  /// expired first. `timeout_seconds <= 0` runs the task inline (no
  /// deadline, always true). A task that misses its deadline is
  /// *abandoned*, not cancelled — its helper thread keeps running to
  /// completion in the background, so the task must exclusively own all
  /// state it touches (share nothing with the caller); the profiler's
  /// probe watchdog hands each attempt a self-contained state block for
  /// exactly this reason. Exceptions from a task that finished in time
  /// are rethrown on the caller; exceptions after abandonment are
  /// swallowed with the thread.
  static bool run_with_deadline(std::function<void()> task,
                                double timeout_seconds);

 private:
  void worker_loop();
  /// Claims and runs chunks of the current batch until none remain.
  void run_chunks();

  int thread_count_ = 1;
  std::vector<std::thread> helpers_;

  /// Held for the full span of one parallel_for batch (submission through
  /// completion) so concurrent submitters on a shared pool serialize.
  /// Always acquired before mutex_; workers never take it.
  std::mutex submit_mutex_;
  std::mutex mutex_;
  std::condition_variable work_cv_;
  std::condition_variable done_cv_;
  bool stop_ = false;

  // Current batch, valid while job_ != nullptr.
  const std::function<void(std::size_t, std::size_t)>* job_ = nullptr;
  std::size_t job_n_ = 0;
  std::size_t chunk_count_ = 0;
  std::size_t next_chunk_ = 0;
  std::size_t completed_chunks_ = 0;
  std::uint64_t generation_ = 0;
  std::exception_ptr error_;
};

}  // namespace mlcd::util
