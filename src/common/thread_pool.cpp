#include "common/thread_pool.hpp"

#include <algorithm>
#include <atomic>

namespace repro {

namespace {
/// Pool whose worker is executing on this thread (nullptr on non-workers).
thread_local const ThreadPool* t_worker_pool = nullptr;
}  // namespace

ThreadPool::ThreadPool(std::size_t threads) {
  if (threads == 0) {
    threads = std::max<std::size_t>(1, std::thread::hardware_concurrency());
  }
  workers_.reserve(threads);
  for (std::size_t i = 0; i < threads; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  // Shutdown handoff: the flag flips under the lock, the broadcast happens
  // outside it, and workers drain the remaining queue before exiting — a
  // worker that wakes between the unlock and the join re-checks both
  // `stopping_` and the queue under the lock, so no task is dropped.
  {
    MutexLock lock(mutex_);
    stopping_ = true;
  }
  cv_.notify_all();
  for (auto& worker : workers_) worker.join();
}

bool ThreadPool::on_worker_thread() const noexcept { return t_worker_pool == this; }

void ThreadPool::worker_loop() {
  t_worker_pool = this;
  for (;;) {
    std::function<void()> task;
    {
      MutexLock lock(mutex_);
      while (!stopping_ && queue_.empty()) cv_.wait(lock.native());
      if (queue_.empty()) {
        if (stopping_) return;
        continue;
      }
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    task();
  }
}

void ThreadPool::submit_batch(std::vector<std::function<void()>> tasks) {
  if (tasks.empty()) return;
  {
    MutexLock lock(mutex_);
    for (auto& task : tasks) queue_.emplace_back(std::move(task));
  }
  cv_.notify_all();
}

ThreadPool& ThreadPool::global() {
  static ThreadPool pool;
  return pool;
}

void parallel_for(ThreadPool& pool, std::size_t begin, std::size_t end,
                  const std::function<void(std::size_t)>& body, std::size_t grain) {
  if (begin >= end) return;
  const std::size_t n = end - begin;
  grain = std::max<std::size_t>(1, grain);
  const std::size_t blocks = n / grain + (n % grain != 0 ? 1 : 0);
  const std::size_t claimers = std::min(pool.size(), blocks);
  // Inline when parallelism cannot help: one claimer adds only queue
  // latency, and a nested call from one of this pool's own workers would
  // block a worker on claimers that are queued behind other blocked workers.
  if (claimers <= 1 || pool.on_worker_thread()) {
    for (std::size_t i = begin; i < end; ++i) body(i);
    return;
  }

  // One shared cursor and one completion latch for the whole call: the
  // batch costs a single queue lock and a single broadcast, and each block
  // costs one relaxed fetch_add. The cursor counts offsets from `begin`;
  // it overshoots `n` by at most claimers * grain, and grain < n here.
  struct Shared {
    std::atomic<std::size_t> cursor{0};
    std::atomic<std::size_t> remaining;
    std::mutex mutex;
    std::condition_variable done;
    std::exception_ptr first_error;
  };
  auto shared = std::make_shared<Shared>();
  shared->remaining.store(claimers, std::memory_order_relaxed);

  const auto claim = [begin, n, grain, &body, shared] {
    for (;;) {
      const std::size_t lo = shared->cursor.fetch_add(grain, std::memory_order_relaxed);
      if (lo >= n) break;
      const std::size_t hi = std::min(n, lo + grain);
      try {
        for (std::size_t i = lo; i < hi; ++i) body(begin + i);
      } catch (...) {
        std::lock_guard lock(shared->mutex);
        if (!shared->first_error) shared->first_error = std::current_exception();
      }
    }
    if (shared->remaining.fetch_sub(1, std::memory_order_acq_rel) == 1) {
      std::lock_guard lock(shared->mutex);
      shared->done.notify_all();
    }
  };
  pool.submit_batch(std::vector<std::function<void()>>(claimers, claim));

  std::unique_lock lock(shared->mutex);
  shared->done.wait(lock, [&] {
    return shared->remaining.load(std::memory_order_acquire) == 0;
  });
  if (shared->first_error) std::rethrow_exception(shared->first_error);
}

void parallel_for(std::size_t begin, std::size_t end,
                  const std::function<void(std::size_t)>& body, std::size_t grain) {
  parallel_for(ThreadPool::global(), begin, end, body, grain);
}

}  // namespace repro
