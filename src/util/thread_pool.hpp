#pragma once

// A small fixed-size thread pool. The virtual GPU device (src/gpu) uses a
// dedicated pool as its SM/worker substrate, executing stream-ordered
// operations concurrently. The per-subdomain host loops (the paper's
// "subdomains are handled by threads" model) do not use it: they run
// through feti::parallel_for in util/parallel.hpp, the one OpenMP site. So
// this pool intentionally stays simple: FIFO queue, condition-variable
// wakeup, no work stealing.

#include <condition_variable>
#include <deque>
#include <functional>
#include <future>
#include <mutex>
#include <thread>
#include <vector>

namespace feti {

class ThreadPool {
 public:
  /// Spawns `threads` workers (>=1).
  explicit ThreadPool(int threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  [[nodiscard]] int size() const { return static_cast<int>(workers_.size()); }

  /// Enqueue a task; returns a future for its completion.
  template <typename F>
  auto submit(F&& f) -> std::future<std::invoke_result_t<F>> {
    using R = std::invoke_result_t<F>;
    auto task =
        std::make_shared<std::packaged_task<R()>>(std::forward<F>(f));
    std::future<R> fut = task->get_future();
    {
      std::lock_guard<std::mutex> lock(mutex_);
      if (stopping_) throw std::runtime_error("ThreadPool is shut down");
      queue_.emplace_back([task] { (*task)(); });
    }
    cv_.notify_one();
    return fut;
  }

  /// Static-chunked parallel for over [begin, end). Blocks until done.
  /// Exceptions from the body are rethrown on the calling thread.
  void parallel_for(long begin, long end,
                    const std::function<void(long)>& body);

 private:
  void worker_loop();

  std::vector<std::thread> workers_;
  std::deque<std::function<void()>> queue_;
  std::mutex mutex_;
  std::condition_variable cv_;
  bool stopping_ = false;
};

}  // namespace feti
