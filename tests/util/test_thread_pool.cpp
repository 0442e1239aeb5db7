#include "nbclos/util/thread_pool.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <mutex>
#include <numeric>
#include <string>
#include <vector>

#include "nbclos/util/check.hpp"

namespace nbclos {
namespace {

TEST(ThreadPool, RefusesCountsAboveTheCapBeforeStartingThreads) {
  // The check runs before the first worker starts, so an absurd count
  // costs nothing; the message names both the count and the cap.
  try {
    ThreadPool pool(ThreadPool::kMaxThreads + 1);
    FAIL() << "a pool of " << pool.thread_count() << " threads started";
  } catch (const precondition_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("257"), std::string::npos) << what;
    EXPECT_NE(what.find("256"), std::string::npos) << what;
  }
  EXPECT_THROW(ThreadPool(std::size_t{1} << 40), precondition_error);
  // 0 asks for the hardware's count, clamped into [1, kMaxThreads].
  const ThreadPool automatic(0);
  EXPECT_GE(automatic.thread_count(), 1U);
  EXPECT_LE(automatic.thread_count(), ThreadPool::kMaxThreads);
}

TEST(ThreadPool, RunsSubmittedTasks) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.thread_count(), 4U);
  std::atomic<int> counter{0};
  for (int i = 0; i < 100; ++i) {
    pool.submit([&counter] { counter.fetch_add(1); });
  }
  pool.wait_idle();
  EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPool, ParallelForCoversRangeExactlyOnce) {
  ThreadPool pool(3);
  std::vector<std::atomic<int>> hits(1000);
  pool.parallel_for(0, hits.size(),
                    [&hits](std::size_t i) { hits[i].fetch_add(1); });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, ParallelForEmptyRangeIsNoop) {
  ThreadPool pool(2);
  std::atomic<int> counter{0};
  pool.parallel_for(5, 5, [&counter](std::size_t) { counter.fetch_add(1); });
  EXPECT_EQ(counter.load(), 0);
}

TEST(ThreadPool, ParallelChunksPartitionIsContiguousAndComplete) {
  ThreadPool pool(4);
  std::mutex mu;
  std::vector<std::pair<std::size_t, std::size_t>> chunks;
  pool.parallel_chunks(10, 110,
                       [&](std::size_t, std::size_t lo, std::size_t hi) {
                         const std::scoped_lock lock(mu);
                         chunks.emplace_back(lo, hi);
                       });
  std::sort(chunks.begin(), chunks.end());
  ASSERT_FALSE(chunks.empty());
  EXPECT_EQ(chunks.front().first, 10U);
  EXPECT_EQ(chunks.back().second, 110U);
  for (std::size_t i = 1; i < chunks.size(); ++i) {
    EXPECT_EQ(chunks[i].first, chunks[i - 1].second);
  }
}

TEST(ThreadPool, ChunkCountNeverExceedsWorkOrThreads) {
  ThreadPool pool(8);
  std::atomic<int> chunk_count{0};
  pool.parallel_chunks(0, 3, [&](std::size_t, std::size_t, std::size_t) {
    chunk_count.fetch_add(1);
  });
  EXPECT_EQ(chunk_count.load(), 3);
}

TEST(ThreadPool, WaitIdleWithNoTasksReturns) {
  ThreadPool pool(2);
  pool.wait_idle();  // must not hang
  SUCCEED();
}

TEST(ThreadPool, ParallelSumMatchesSequential) {
  ThreadPool pool(4);
  constexpr std::size_t kN = 100'000;
  std::vector<std::uint64_t> partial(pool.thread_count(), 0);
  pool.parallel_chunks(1, kN + 1,
                       [&](std::size_t chunk, std::size_t lo, std::size_t hi) {
                         std::uint64_t sum = 0;
                         for (std::size_t i = lo; i < hi; ++i) sum += i;
                         partial[chunk] = sum;
                       });
  const auto total =
      std::accumulate(partial.begin(), partial.end(), std::uint64_t{0});
  EXPECT_EQ(total, std::uint64_t{kN} * (kN + 1) / 2);
}

}  // namespace
}  // namespace nbclos
