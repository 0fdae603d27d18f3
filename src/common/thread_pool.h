// Fixed-size worker pool used by the broker, the dataflow engine, and the
// scalability benchmarks (Fig 8 sweeps worker counts to model scale-up).

#ifndef PRIVAPPROX_COMMON_THREAD_POOL_H_
#define PRIVAPPROX_COMMON_THREAD_POOL_H_

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <future>
#include <mutex>
#include <thread>
#include <vector>

namespace privapprox {

class ThreadPool {
 public:
  explicit ThreadPool(size_t num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  size_t num_threads() const { return workers_.size(); }

  // Enqueues a task; returns a future for its completion.
  std::future<void> Submit(std::function<void()> task);

  // Partitions [0, count) into contiguous chunks, runs `body(begin, end)` on
  // the pool, and blocks until all chunks finish. The calling thread runs
  // the last chunk itself; everything runs inline if the pool has one thread
  // or count is 1.
  void ParallelFor(size_t count, const std::function<void(size_t, size_t)>& body);

  // Blocks until the queue is empty and all in-flight tasks are done.
  void Wait();

 private:
  void WorkerLoop();

  std::vector<std::thread> workers_;
  std::deque<std::packaged_task<void()>> queue_;
  std::mutex mu_;
  std::condition_variable cv_;
  std::condition_variable idle_cv_;
  size_t in_flight_ = 0;
  bool stop_ = false;
};

}  // namespace privapprox

#endif  // PRIVAPPROX_COMMON_THREAD_POOL_H_
