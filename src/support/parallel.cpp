#include "support/parallel.hpp"

#include <atomic>
#include <exception>
#include <utility>

#include "obs/trace.hpp"
#include "support/check.hpp"

namespace support {

int resolve_thread_count(int requested) {
  if (requested > 0) return requested;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<int>(hw);
}

ThreadPool::ThreadPool(int threads) {
  const int n = resolve_thread_count(threads);
  workers_.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::unique_lock<std::mutex> lock(mutex_);
    stopping_ = true;
  }
  work_available_.notify_all();
  for (std::thread& worker : workers_) worker.join();
}

void ThreadPool::submit(std::function<void()> job) {
  SM_REQUIRE(job != nullptr, "ThreadPool::submit requires a callable job");
  // Capture the submitting thread's trace context so spans opened inside
  // the job land in the same request tree (serve request → engine job →
  // kernel sweep stays one trace across the pool hop). Observe-only: the
  // wrapper changes nothing about when or where the job runs.
  const obs::TraceContext context = obs::current_context();
  {
    std::unique_lock<std::mutex> lock(mutex_);
    SM_REQUIRE(!stopping_, "ThreadPool::submit after shutdown began");
    queue_.push_back([context, job = std::move(job)] {
      const obs::ContextScope scope(context);
      job();
    });
  }
  work_available_.notify_one();
}

void ThreadPool::wait_idle() {
  std::unique_lock<std::mutex> lock(mutex_);
  idle_.wait(lock, [this] { return queue_.empty() && active_ == 0; });
}

void ThreadPool::worker_loop() {
  for (;;) {
    std::function<void()> job;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      work_available_.wait(lock,
                           [this] { return stopping_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stopping_ and drained
      job = std::move(queue_.front());
      queue_.pop_front();
      ++active_;
    }
    job();
    {
      std::unique_lock<std::mutex> lock(mutex_);
      --active_;
      if (queue_.empty() && active_ == 0) idle_.notify_all();
    }
  }
}

void parallel_for(std::size_t n, int threads,
                  const std::function<void(std::size_t)>& fn) {
  SM_REQUIRE(fn != nullptr, "parallel_for requires a callable body");
  if (n == 0) return;
  const int workers = resolve_thread_count(threads);
  if (workers <= 1 || n == 1) {
    for (std::size_t i = 0; i < n; ++i) fn(i);
    return;
  }

  ThreadPool pool(static_cast<int>(
      std::min<std::size_t>(static_cast<std::size_t>(workers), n)));
  parallel_for(pool, n, fn);
}

void parallel_for(ThreadPool& pool, std::size_t n,
                  const std::function<void(std::size_t)>& fn) {
  SM_REQUIRE(fn != nullptr, "parallel_for requires a callable body");
  if (n == 0) return;
  if (pool.num_threads() <= 1 || n == 1) {
    for (std::size_t i = 0; i < n; ++i) fn(i);
    return;
  }

  std::vector<std::exception_ptr> errors(n);
  {
    std::atomic<std::size_t> next{0};
    const int jobs = static_cast<int>(std::min<std::size_t>(
        static_cast<std::size_t>(pool.num_threads()), n));
    for (int w = 0; w < jobs; ++w) {
      pool.submit([&] {
        for (;;) {
          const std::size_t i = next.fetch_add(1);
          if (i >= n) return;
          try {
            fn(i);
          } catch (...) {
            errors[i] = std::current_exception();
          }
        }
      });
    }
    pool.wait_idle();
  }
  for (const std::exception_ptr& error : errors) {
    if (error) std::rethrow_exception(error);
  }
}

}  // namespace support
