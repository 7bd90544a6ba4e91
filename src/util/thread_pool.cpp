#include "util/thread_pool.hpp"

#include <exception>

#include "util/expect.hpp"

namespace nptsn {

ThreadPool::ThreadPool(int num_threads) {
  NPTSN_EXPECT(num_threads >= 1, "thread pool needs at least one thread");
  threads_.reserve(static_cast<std::size_t>(num_threads));
  for (int i = 0; i < num_threads; ++i) {
    threads_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard lock(mutex_);
    stop_ = true;
  }
  cv_.notify_all();
  for (auto& t : threads_) t.join();
}

void ThreadPool::worker_loop() {
  while (true) {
    std::function<void()> task;
    {
      std::unique_lock lock(mutex_);
      cv_.wait(lock, [this] { return stop_ || !queue_.empty(); });
      if (stop_ && queue_.empty()) return;
      task = std::move(queue_.front());
      queue_.pop();
    }
    task();
  }
}

void ThreadPool::parallel_for(int n, const std::function<void(int)>& task) {
  NPTSN_EXPECT(n >= 0, "parallel_for requires n >= 0");
  if (n == 0) return;

  // One slot per task index: every exception is captured, and after the
  // barrier the lowest-index one is rethrown. Which task's error surfaces is
  // therefore a function of the input alone, never of thread scheduling —
  // a retrying caller (the trainer's rollback loop) sees the same failure on
  // every attempt, and tests can assert on the propagated message.
  std::vector<std::exception_ptr> errors(static_cast<std::size_t>(n));
  // The barrier lives on this stack frame, so the last task must be done
  // with it before the waiter can observe completion and return: the
  // decrement and the notify both happen under done_mutex. A decrement
  // outside the lock would let the waiter see zero, return, and destroy the
  // mutex and condition variable while the last task still has to lock them.
  int remaining = n;
  std::mutex done_mutex;
  std::condition_variable done_cv;

  {
    std::lock_guard lock(mutex_);
    for (int i = 0; i < n; ++i) {
      queue_.emplace([&, i] {
        try {
          task(i);
        } catch (...) {
          errors[static_cast<std::size_t>(i)] = std::current_exception();
        }
        std::lock_guard dlock(done_mutex);
        if (--remaining == 0) done_cv.notify_all();
      });
    }
  }
  cv_.notify_all();

  std::unique_lock lock(done_mutex);
  done_cv.wait(lock, [&] { return remaining == 0; });
  for (const std::exception_ptr& error : errors) {
    if (error) std::rethrow_exception(error);
  }
}

}  // namespace nptsn
