#include "util/thread_pool.hpp"

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <memory>
#include <utility>

namespace mlcd::util {

ThreadPool::ThreadPool(int threads)
    : thread_count_(std::max(1, threads)) {
  helpers_.reserve(static_cast<std::size_t>(thread_count_ - 1));
  for (int i = 1; i < thread_count_; ++i) {
    helpers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stop_ = true;
  }
  work_cv_.notify_all();
  for (std::thread& w : helpers_) w.join();
}

int ThreadPool::hardware_threads() {
  return std::max(1u, std::thread::hardware_concurrency());
}

bool ThreadPool::run_with_deadline(std::function<void()> task,
                                   double timeout_seconds) {
  if (timeout_seconds <= 0.0) {
    task();
    return true;
  }
  struct Shared {
    std::mutex mutex;
    std::condition_variable cv;
    bool done = false;
    bool abandoned = false;
    std::exception_ptr error;
  };
  auto shared = std::make_shared<Shared>();
  // Detached on purpose: a hung task would otherwise hang the join. The
  // helper signals through the shared block, which outlives both sides.
  std::thread([shared, task = std::move(task)] {
    std::exception_ptr error;
    try {
      task();
    } catch (...) {
      error = std::current_exception();
    }
    std::lock_guard<std::mutex> lock(shared->mutex);
    shared->done = true;
    if (!shared->abandoned) shared->error = error;
    shared->cv.notify_all();
  }).detach();

  std::unique_lock<std::mutex> lock(shared->mutex);
  const auto deadline =
      std::chrono::steady_clock::now() +
      std::chrono::duration_cast<std::chrono::steady_clock::duration>(
          std::chrono::duration<double>(timeout_seconds));
  if (!shared->cv.wait_until(lock, deadline, [&] { return shared->done; })) {
    shared->abandoned = true;
    return false;
  }
  if (shared->error) std::rethrow_exception(shared->error);
  return true;
}

void ThreadPool::parallel_for(
    std::size_t n, const std::function<void(std::size_t, std::size_t)>& fn) {
  if (n == 0) return;
  if (thread_count_ == 1) {
    fn(0, n);
    return;
  }
  // One batch at a time: a second submitter waits here, not on corrupted
  // batch state.
  std::lock_guard<std::mutex> submit_lock(submit_mutex_);
  {
    std::lock_guard<std::mutex> lock(mutex_);
    job_ = &fn;
    job_n_ = n;
    // Never more chunks than elements, so tiny batches skip empty ranges.
    chunk_count_ = std::min<std::size_t>(
        static_cast<std::size_t>(thread_count_), n);
    next_chunk_ = 0;
    completed_chunks_ = 0;
    error_ = nullptr;
    ++generation_;
  }
  work_cv_.notify_all();
  run_chunks();  // the calling thread is one of the lanes

  std::unique_lock<std::mutex> lock(mutex_);
  done_cv_.wait(lock, [this] { return completed_chunks_ == chunk_count_; });
  job_ = nullptr;
  if (error_) {
    std::exception_ptr e = error_;
    error_ = nullptr;
    lock.unlock();
    std::rethrow_exception(e);
  }
}

void ThreadPool::worker_loop() {
  std::uint64_t seen_generation = 0;
  for (;;) {
    {
      std::unique_lock<std::mutex> lock(mutex_);
      work_cv_.wait(lock, [&] {
        return stop_ || (job_ != nullptr && generation_ != seen_generation);
      });
      if (stop_) return;
      seen_generation = generation_;
    }
    run_chunks();
  }
}

void ThreadPool::run_chunks() {
  for (;;) {
    std::size_t chunk;
    std::size_t n;
    std::size_t chunks;
    const std::function<void(std::size_t, std::size_t)>* job;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      if (job_ == nullptr || next_chunk_ >= chunk_count_) return;
      chunk = next_chunk_++;
      n = job_n_;
      chunks = chunk_count_;
      job = job_;
    }
    const std::size_t begin = chunk * n / chunks;
    const std::size_t end = (chunk + 1) * n / chunks;
    try {
      if (begin < end) (*job)(begin, end);
    } catch (...) {
      std::lock_guard<std::mutex> lock(mutex_);
      if (!error_) error_ = std::current_exception();
    }
    {
      std::lock_guard<std::mutex> lock(mutex_);
      if (++completed_chunks_ == chunk_count_) done_cv_.notify_all();
    }
  }
}

}  // namespace mlcd::util
