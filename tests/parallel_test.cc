#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdlib>
#include <mutex>
#include <thread>
#include <vector>

#include "common/parallel.h"
#include "common/rng.h"

namespace uldp {
namespace {

// --- Rng::Fork substreams ----------------------------------------------------

std::vector<uint64_t> Draw(Rng rng, int n) {
  std::vector<uint64_t> out(n);
  for (auto& v : out) v = rng.NextUint64();
  return out;
}

TEST(RngForkTest, SameCountersSameStream) {
  Rng root(42);
  EXPECT_EQ(Draw(root.Fork(3, 1, 7), 16), Draw(root.Fork(3, 1, 7), 16));
}

TEST(RngForkTest, DifferentCountersDifferentStreams) {
  Rng root(42);
  auto base = Draw(root.Fork(1, 2, 3), 16);
  EXPECT_NE(base, Draw(root.Fork(1, 2, 4), 16));
  EXPECT_NE(base, Draw(root.Fork(1, 3, 3), 16));
  EXPECT_NE(base, Draw(root.Fork(2, 2, 3), 16));
  EXPECT_NE(base, Draw(root.Fork(1, 2, kRngStreamNoise), 16));
}

TEST(RngForkTest, IndependentOfParentDrawState) {
  // Fork is a pure function of the constructor seed, not the engine state
  // — the property that makes parallel scheduling deterministic.
  Rng a(7);
  auto before = Draw(a.Fork(5, 6), 16);
  for (int i = 0; i < 100; ++i) a.NextUint64();
  EXPECT_EQ(before, Draw(a.Fork(5, 6), 16));
}

TEST(RngForkTest, DifferentRootSeedsDifferentStreams) {
  Rng a(1), b(2);
  EXPECT_NE(Draw(a.Fork(0, 0, 0), 16), Draw(b.Fork(0, 0, 0), 16));
}

TEST(RngForkTest, ForkOfForkIsDeterministic) {
  Rng root(9);
  Rng child = root.Fork(1, 2);
  EXPECT_EQ(Draw(child.Fork(3), 8), Draw(root.Fork(1, 2).Fork(3), 8));
}

TEST(RngForkTest, SubstreamGaussiansLookIndependent) {
  // Crude independence check: correlation between adjacent substreams'
  // Gaussian draws is small.
  Rng root(11);
  const int n = 4000;
  double sum_xy = 0, sum_x = 0, sum_y = 0, sum_xx = 0, sum_yy = 0;
  for (int i = 0; i < n; ++i) {
    Rng a = root.Fork(0, 0, static_cast<uint64_t>(i));
    Rng b = root.Fork(0, 0, static_cast<uint64_t>(i) + 1);
    double x = a.Gaussian(), y = b.Gaussian();
    sum_x += x;
    sum_y += y;
    sum_xy += x * y;
    sum_xx += x * x;
    sum_yy += y * y;
  }
  double cov = sum_xy / n - (sum_x / n) * (sum_y / n);
  double var_x = sum_xx / n - (sum_x / n) * (sum_x / n);
  double var_y = sum_yy / n - (sum_y / n) * (sum_y / n);
  double corr = cov / std::sqrt(var_x * var_y);
  EXPECT_LT(std::abs(corr), 0.06);
  EXPECT_LT(std::abs(sum_x / n), 0.06);
}

// --- ThreadPool --------------------------------------------------------------

TEST(ThreadPoolTest, ParallelForCoversEveryIndexOnce) {
  ThreadPool pool(4);
  for (size_t n : {0u, 1u, 3u, 17u, 1000u}) {
    std::vector<std::atomic<int>> hits(n);
    for (auto& h : hits) h = 0;
    pool.ParallelFor(n, [&](size_t i) { hits[i].fetch_add(1); });
    for (size_t i = 0; i < n; ++i) EXPECT_EQ(hits[i].load(), 1) << i;
  }
}

TEST(ThreadPoolTest, SingleThreadPoolRunsInline) {
  ThreadPool pool(1);
  EXPECT_EQ(pool.num_threads(), 1);
  std::vector<size_t> order;
  pool.ParallelFor(8, [&](size_t i) { order.push_back(i); });
  // Inline execution preserves index order (no worker threads exist).
  ASSERT_EQ(order.size(), 8u);
  for (size_t i = 0; i < 8; ++i) EXPECT_EQ(order[i], i);
}

TEST(ThreadPoolTest, NestedParallelForDoesNotDeadlock) {
  ThreadPool pool(4);
  std::atomic<int> total{0};
  pool.ParallelFor(8, [&](size_t) {
    pool.ParallelFor(8, [&](size_t) { total.fetch_add(1); });
  });
  EXPECT_EQ(total.load(), 64);
}

TEST(ThreadPoolTest, UnevenWorkCompletes) {
  ThreadPool pool(4);
  std::atomic<long> sum{0};
  pool.ParallelFor(64, [&](size_t i) {
    long local = 0;
    // Index-dependent cost, so per-index claiming has something to balance.
    for (size_t k = 0; k < (i % 8 + 1) * 10000; ++k) local += (long)k % 7;
    sum.fetch_add(local % 1000 + static_cast<long>(i));
  });
  EXPECT_GT(sum.load(), 0);
}

TEST(ThreadPoolTest, BlockedItemsCannotStallAConcurrentCall) {
  // Call A's items block until call B has returned, and B runs on the same
  // pool while every thread is inside an A item. B's caller must finish B
  // on its own; a caller that picked up A's items would block in one of
  // them and never return. Every wait is bounded, so a regression fails
  // here by name instead of hanging the suite.
  ThreadPool pool(4);
  const auto kWait = std::chrono::seconds(10);
  std::mutex mu;
  std::condition_variable cv;
  int a_started = 0;
  bool b_returned = false;
  std::atomic<int> timeouts{0};
  std::atomic<int> a_done{0};
  std::thread a([&] {
    pool.ParallelFor(32, [&](size_t) {
      std::unique_lock<std::mutex> lock(mu);
      ++a_started;
      cv.notify_all();
      if (!cv.wait_for(lock, kWait, [&] { return b_returned; })) {
        timeouts.fetch_add(1);
      }
      a_done.fetch_add(1);
    });
  });
  {
    std::unique_lock<std::mutex> lock(mu);
    if (!cv.wait_for(lock, kWait,
                     [&] { return a_started >= pool.num_threads(); })) {
      timeouts.fetch_add(1);
    }
  }
  std::atomic<int> b_items{0};
  pool.ParallelFor(16, [&](size_t) { b_items.fetch_add(1); });
  {
    std::lock_guard<std::mutex> lock(mu);
    b_returned = true;
  }
  cv.notify_all();
  a.join();
  EXPECT_EQ(timeouts.load(), 0);
  EXPECT_EQ(b_items.load(), 16);
  EXPECT_EQ(a_done.load(), 32);
}

TEST(ThreadPoolTest, SequentialCallsReuseWorkers) {
  ThreadPool pool(3);
  std::atomic<int> count{0};
  for (int rep = 0; rep < 50; ++rep) {
    pool.ParallelFor(10, [&](size_t) { count.fetch_add(1); });
  }
  EXPECT_EQ(count.load(), 500);
}

TEST(ThreadPoolTest, DefaultThreadCountHonorsEnv) {
  setenv("ULDP_THREADS", "3", 1);
  EXPECT_EQ(ThreadPool::DefaultThreadCount(), 3);
  setenv("ULDP_THREADS", "0", 1);  // invalid -> hardware fallback
  EXPECT_GE(ThreadPool::DefaultThreadCount(), 1);
  unsetenv("ULDP_THREADS");
  EXPECT_GE(ThreadPool::DefaultThreadCount(), 1);
}

TEST(ThreadPoolTest, DeterministicReductionInIndexOrder) {
  // The engine's pattern: parallel map into slots, serial reduce in index
  // order — bitwise identical across thread counts.
  auto run = [](int threads) {
    ThreadPool pool(threads);
    Rng root(123);
    std::vector<double> slot(257);
    pool.ParallelFor(slot.size(), [&](size_t i) {
      Rng sub = root.Fork(0, static_cast<uint64_t>(i));
      slot[i] = sub.Gaussian() * 1e6 + sub.Uniform();
    });
    double acc = 0.0;
    for (double v : slot) acc += v;  // fixed order
    return acc;
  };
  double serial = run(1);
  EXPECT_EQ(serial, run(2));
  EXPECT_EQ(serial, run(4));
  EXPECT_EQ(serial, run(8));
}

}  // namespace
}  // namespace uldp
