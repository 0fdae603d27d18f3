#include "common/thread_pool.h"

#include <algorithm>

namespace privapprox {

ThreadPool::ThreadPool(size_t num_threads) {
  num_threads = std::max<size_t>(1, num_threads);
  workers_.reserve(num_threads);
  for (size_t i = 0; i < num_threads; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  for (auto& worker : workers_) {
    worker.join();
  }
}

std::future<void> ThreadPool::Submit(std::function<void()> task) {
  std::packaged_task<void()> packaged(std::move(task));
  std::future<void> future = packaged.get_future();
  {
    std::lock_guard<std::mutex> lock(mu_);
    queue_.push_back(std::move(packaged));
  }
  cv_.notify_one();
  return future;
}

void ThreadPool::ParallelFor(size_t count,
                             const std::function<void(size_t, size_t)>& body) {
  if (count == 0) {
    return;
  }
  const size_t num_chunks =
      std::min(count, std::max<size_t>(1, workers_.size()));
  if (num_chunks == 1) {
    body(0, count);
    return;
  }
  const size_t chunk = (count + num_chunks - 1) / num_chunks;
  std::vector<std::future<void>> futures;
  futures.reserve(num_chunks - 1);
  size_t begin = 0;
  for (; begin + chunk < count; begin += chunk) {
    futures.push_back(
        Submit([&body, begin, chunk] { body(begin, begin + chunk); }));
  }
  // The caller runs the last chunk instead of idling until it is done. Wait
  // for every chunk before rethrowing: chunks capture `body` by reference,
  // so returning while any are still queued or running would let them race
  // the caller's frame unwinding. The first exception wins.
  std::exception_ptr first_error;
  try {
    body(begin, count);
  } catch (...) {
    first_error = std::current_exception();
  }
  for (auto& future : futures) {
    try {
      future.get();
    } catch (...) {
      if (!first_error) {
        first_error = std::current_exception();
      }
    }
  }
  if (first_error) {
    std::rethrow_exception(first_error);
  }
}

void ThreadPool::Wait() {
  std::unique_lock<std::mutex> lock(mu_);
  idle_cv_.wait(lock, [this] { return queue_.empty() && in_flight_ == 0; });
}

void ThreadPool::WorkerLoop() {
  for (;;) {
    std::packaged_task<void()> task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [this] { return stop_ || !queue_.empty(); });
      if (stop_ && queue_.empty()) {
        return;
      }
      task = std::move(queue_.front());
      queue_.pop_front();
      ++in_flight_;
    }
    task();
    {
      std::lock_guard<std::mutex> lock(mu_);
      --in_flight_;
    }
    idle_cv_.notify_all();
  }
}

}  // namespace privapprox
