#include "hpcgpt/support/thread_pool.hpp"

#include <algorithm>
#include <atomic>
#include <exception>

namespace hpcgpt {

namespace {

// The pool (if any) whose worker_loop owns the current thread.
thread_local const ThreadPool* current_pool = nullptr;

// Depth of ParallelInlineGuard scopes alive on the current thread.
thread_local int inline_region_depth = 0;

}  // namespace

bool ThreadPool::on_worker_thread() const noexcept {
  return current_pool == this;
}

bool ThreadPool::inline_region_active() noexcept {
  return inline_region_depth > 0;
}

ParallelInlineGuard::ParallelInlineGuard() { ++inline_region_depth; }

ParallelInlineGuard::~ParallelInlineGuard() { --inline_region_depth; }

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
  {
    std::lock_guard lock(mutex_);
    stopping_ = true;
  }
  available_.notify_all();
  for (auto& worker : workers_) worker.join();
}

void ThreadPool::worker_loop() {
  current_pool = this;
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock lock(mutex_);
      available_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stopping_ and drained
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    task();
  }
}

ThreadPool& ThreadPool::global() {
  static ThreadPool pool;
  return pool;
}

void parallel_for(ThreadPool& pool, std::size_t begin, std::size_t end,
                  const std::function<void(std::size_t)>& body,
                  std::size_t grain) {
  if (begin >= end) return;
  if (ThreadPool::inline_region_active()) {
    // An outer engine owns this thread's parallelism (see
    // ParallelInlineGuard): run the whole range here.
    for (std::size_t i = begin; i < end; ++i) body(i);
    return;
  }
  if (pool.on_worker_thread()) {
    // Nested parallel region issued from one of this pool's own workers:
    // run inline. Submitting and waiting here could deadlock — every
    // worker might be blocked inside this wait with the chunks queued
    // behind them.
    for (std::size_t i = begin; i < end; ++i) body(i);
    return;
  }
  const std::size_t total = end - begin;
  const std::size_t max_chunks =
      std::max<std::size_t>(1, total / std::max<std::size_t>(1, grain));
  const std::size_t chunks = std::min(pool.size(), max_chunks);
  if (chunks <= 1) {
    for (std::size_t i = begin; i < end; ++i) body(i);
    return;
  }

  std::atomic<bool> failed{false};
  std::exception_ptr first_error;
  std::mutex error_mutex;
  const std::size_t per_chunk = (total + chunks - 1) / chunks;
  auto run_chunk = [&](std::size_t lo, std::size_t hi) {
    try {
      for (std::size_t i = lo; i < hi && !failed.load(); ++i) body(i);
    } catch (...) {
      std::lock_guard lock(error_mutex);
      if (!failed.exchange(true)) first_error = std::current_exception();
    }
  };

  // Chunks 1.. go to the pool; chunk 0 runs right here. The caller would
  // otherwise sit idle in the wait below, and its chunk starts without
  // the wake-up latency a sleeping worker pays.
  std::vector<std::future<void>> pending;
  pending.reserve(chunks - 1);
  for (std::size_t c = 1; c < chunks; ++c) {
    const std::size_t lo = begin + c * per_chunk;
    const std::size_t hi = std::min(end, lo + per_chunk);
    if (lo >= hi) break;
    pending.push_back(pool.submit([&, lo, hi] { run_chunk(lo, hi); }));
  }
  {
    // The caller's chunk follows the workers' rule for nested regions:
    // they run inline, so it never waits on tasks queued behind its own.
    ParallelInlineGuard guard;
    run_chunk(begin, std::min(end, begin + per_chunk));
  }
  for (auto& f : pending) f.wait();
  if (first_error) std::rethrow_exception(first_error);
}

}  // namespace hpcgpt
