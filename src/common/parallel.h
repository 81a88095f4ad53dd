// Self-scheduling thread pool backing the federated round engine and the
// private weighting protocol. Parallelism never changes results: callers
// pair every work item with a deterministic Rng::Fork substream and reduce
// outputs in index order, so an N-thread run is bitwise identical to a
// serial one. The thread count is a pure performance knob.

#ifndef ULDP_COMMON_PARALLEL_H_
#define ULDP_COMMON_PARALLEL_H_

#include <condition_variable>
#include <cstddef>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace uldp {

/// Fixed-size pool of `num_threads - 1` worker threads plus the calling
/// thread. Every index is claimed one at a time from its call's shared
/// counter, so uneven per-item costs (e.g. silos with very different
/// record counts) balance automatically.
class ThreadPool {
 public:
  /// `num_threads` <= 0 resolves via DefaultThreadCount(). A pool of 1
  /// spawns no threads and runs everything inline on the caller.
  explicit ThreadPool(int num_threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Runs fn(i) for every i in [0, n), blocking until all iterations
  /// finish. The calling thread participates in the work. Iterations may
  /// execute in any order on any thread, so fn must be data-race free
  /// across indices and must not throw. Nested calls from inside a worker
  /// run their iterations inline (serially) to avoid deadlock.
  ///
  /// The caller only ever runs items of its own call, so a call finishes
  /// even while every worker is blocked inside another call's item:
  /// concurrent calls on one pool (the process-wide Global() pool shared
  /// by in-process parties included) never wait on each other's progress.
  void ParallelFor(size_t n, const std::function<void(size_t)>& fn);

  int num_threads() const { return num_threads_; }

  /// ULDP_THREADS environment variable (>= 1) if set, otherwise
  /// std::thread::hardware_concurrency() (min 1).
  static int DefaultThreadCount();

  /// Process-wide pool sized DefaultThreadCount(), created on first use.
  static ThreadPool& Global();

 private:
  struct Loop;

  void WorkerLoop();

  int num_threads_;
  std::vector<std::thread> threads_;
  std::mutex mu_;  // guards loops_ and stop_
  std::condition_variable wake_cv_;
  std::vector<Loop*> loops_;  // calls that may have unclaimed indices
  bool stop_ = false;
};

/// Resolves a thread-count knob to a pool: the process-wide Global() pool
/// for auto (<= 0), else a privately owned pool of the requested size.
/// Shared by every component exposing a num_threads setting so the
/// resolution rule lives in one place.
class PoolHandle {
 public:
  explicit PoolHandle(int num_threads)
      : owned_(num_threads > 0 ? std::make_unique<ThreadPool>(num_threads)
                               : nullptr),
        pool_(owned_ != nullptr ? owned_.get() : &ThreadPool::Global()) {}

  ThreadPool* operator->() const { return pool_; }
  ThreadPool& operator*() const { return *pool_; }

 private:
  std::unique_ptr<ThreadPool> owned_;
  ThreadPool* pool_;
};

}  // namespace uldp

#endif  // ULDP_COMMON_PARALLEL_H_
