// Fixed-size thread pool.
//
// Runs the reactor-mode HTTP server's handlers (one logical worker per
// in-flight request, like Tomcat's connector pool in the paper's portal
// scenario).
#pragma once

#include <condition_variable>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace wsc::util {

class ThreadPool {
 public:
  explicit ThreadPool(std::size_t num_threads);

  /// Joins all workers after draining queued tasks.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueue a task; throws wsc::Error after shutdown() has been called.
  void submit(std::function<void()> task);

  /// Stop accepting tasks, finish what is queued, join workers.  Idempotent.
  void shutdown();

  std::size_t size() const noexcept { return workers_.size(); }

 private:
  void worker_loop();

  std::mutex mu_;
  std::condition_variable cv_;
  std::deque<std::function<void()>> queue_;
  std::vector<std::thread> workers_;
  bool stopping_ = false;
};

}  // namespace wsc::util
