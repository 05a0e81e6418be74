#pragma once
// Fixed-size worker pool with a shared task queue, plus a parallel_for built
// on top of it. Experiments in the harness are embarrassingly parallel
// (independent seeded runs), so a simple FIFO pool is sufficient; tasks must
// not throw across the pool boundary unless the caller collects the
// exception through the returned future.
//
// parallel_for hands out work by dynamic block claiming: each call enqueues
// at most one claimer task per worker, and every claimer repeatedly takes
// the next `grain` indices from a shared atomic cursor until the range is
// exhausted. A slow iteration therefore delays only its own claimer; the
// others keep draining the range, so loops whose per-index cost varies by
// orders of magnitude (run_study's task list mixes millisecond random-search
// experiments with BO GP ones of up to a second) keep every worker busy.
// `grain` is the claim size: uniform-cost loops over many cheap indices
// pass a larger one so they pay one atomic per block rather than per index.
//
// parallel_for is safe to nest: when called from inside a worker of the
// same pool it degrades to an inline sequential loop instead of enqueueing
// claimers the (fully occupied) pool could never schedule — the classic
// nested fork-join deadlock. Single-worker pools, and ranges that fit in
// one claim, also run inline, skipping queue traffic entirely.

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <future>
#include <mutex>
#include <thread>
#include <vector>

#include "common/thread_annotations.hpp"

namespace repro {

class ThreadPool {
 public:
  /// Create a pool with `threads` workers (0 = hardware concurrency).
  explicit ThreadPool(std::size_t threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  [[nodiscard]] std::size_t size() const noexcept { return workers_.size(); }

  /// True when the calling thread is one of this pool's workers.
  [[nodiscard]] bool on_worker_thread() const noexcept;

  /// Enqueue a task; the future reports its result or exception.
  template <typename F>
  [[nodiscard]] std::future<std::invoke_result_t<F>> submit(F&& fn) {
    using R = std::invoke_result_t<F>;
    auto task = std::make_shared<std::packaged_task<R()>>(std::forward<F>(fn));
    std::future<R> result = task->get_future();
    {
      MutexLock lock(mutex_);
      queue_.emplace_back([task] { (*task)(); });
    }
    cv_.notify_one();
    return result;
  }

  /// Enqueue a batch of tasks under one lock with one wakeup broadcast.
  /// Exceptions must be handled inside the tasks themselves.
  void submit_batch(std::vector<std::function<void()>> tasks);

  /// Process-wide shared pool (created lazily, sized to hardware concurrency).
  static ThreadPool& global();

 private:
  void worker_loop();

  std::vector<std::thread> workers_;
  Mutex mutex_;
  std::condition_variable cv_;
  std::deque<std::function<void()>> queue_ GUARDED_BY(mutex_);
  bool stopping_ GUARDED_BY(mutex_) = false;
};

/// Run body(i) for i in [begin, end) across the pool, blocking until done.
/// Claimer tasks take blocks of `grain` consecutive indices (0 counts as 1)
/// from a shared cursor until none are left; the caller waits until every
/// claimer has finished. Runs inline when nested inside a worker of the
/// same pool, when the pool has a single worker, or when the range fits in
/// one block. The first exception thrown by `body` is rethrown on the
/// caller; the block that threw is abandoned, every other block still runs.
void parallel_for(ThreadPool& pool, std::size_t begin, std::size_t end,
                  const std::function<void(std::size_t)>& body, std::size_t grain = 1);

/// Convenience overload on the global pool.
void parallel_for(std::size_t begin, std::size_t end,
                  const std::function<void(std::size_t)>& body, std::size_t grain = 1);

}  // namespace repro
