#include "common/parallel.h"

#include <algorithm>
#include <atomic>
#include <cstdlib>

namespace uldp {

namespace {

// Set while a thread is executing pool items; nested ParallelFor calls on
// such a thread run inline instead of re-entering the scheduler.
thread_local bool t_inside_pool = false;

}  // namespace

/// One ParallelFor call, held on its caller's stack. Indices are claimed
/// with next.fetch_add(1); `workers` counts the workers that joined the
/// call and have not yet left it.
struct ThreadPool::Loop {
  const std::function<void(size_t)>* fn;
  size_t n;
  std::atomic<size_t> next{0};
  std::atomic<int> workers{0};

  void Run() {
    for (size_t i; (i = next.fetch_add(1, std::memory_order_relaxed)) < n;) {
      (*fn)(i);
    }
  }
};

ThreadPool::ThreadPool(int num_threads)
    : num_threads_(num_threads > 0 ? num_threads : DefaultThreadCount()) {
  const size_t workers = static_cast<size_t>(num_threads_ - 1);
  threads_.reserve(workers);
  for (size_t i = 0; i < workers; ++i) {
    threads_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  wake_cv_.notify_all();
  for (std::thread& t : threads_) t.join();
}

int ThreadPool::DefaultThreadCount() {
  if (const char* env = std::getenv("ULDP_THREADS")) {
    int v = std::atoi(env);
    if (v >= 1) return v;
  }
  unsigned hc = std::thread::hardware_concurrency();
  return hc == 0 ? 1 : static_cast<int>(hc);
}

ThreadPool& ThreadPool::Global() {
  static ThreadPool* pool = new ThreadPool(DefaultThreadCount());
  return *pool;
}

void ThreadPool::WorkerLoop() {
  t_inside_pool = true;
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    wake_cv_.wait(lock, [this] { return stop_ || !loops_.empty(); });
    if (stop_) return;
    // Join under the lock, while the loop is listed: its caller unlists it
    // under the same lock before waiting for `workers` to drain.
    Loop* loop = loops_.front();
    loop->workers.fetch_add(1, std::memory_order_relaxed);
    lock.unlock();
    loop->Run();
    lock.lock();
    // Every index is claimed: unlist the loop so idle workers move on to
    // the next call instead of rejoining this one.
    loops_.erase(std::remove(loops_.begin(), loops_.end(), loop),
                 loops_.end());
    // The last touch of the caller-owned Loop; it may return right after.
    loop->workers.fetch_sub(1, std::memory_order_release);
  }
}

void ThreadPool::ParallelFor(size_t n, const std::function<void(size_t)>& fn) {
  if (n == 0) return;
  if (num_threads_ <= 1 || n == 1 || threads_.empty() || t_inside_pool) {
    for (size_t i = 0; i < n; ++i) fn(i);
    return;
  }

  Loop loop{&fn, n};
  {
    std::lock_guard<std::mutex> lock(mu_);
    loops_.push_back(&loop);
  }
  wake_cv_.notify_all();

  // The caller works too, on its own indices only.
  t_inside_pool = true;
  loop.Run();
  t_inside_pool = false;
  {
    std::lock_guard<std::mutex> lock(mu_);
    loops_.erase(std::remove(loops_.begin(), loops_.end(), &loop),
                 loops_.end());
  }
  // No worker can join any more; wait (on this core) for those still
  // finishing an item. Their release pairs with this acquire, so every
  // item's writes are visible on return.
  while (loop.workers.load(std::memory_order_acquire) > 0) {
    std::this_thread::yield();
  }
}

}  // namespace uldp
