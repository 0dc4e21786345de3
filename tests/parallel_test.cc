#include "common/parallel.h"

#include <sched.h>

#include <atomic>
#include <numeric>
#include <stdexcept>
#include <string>
#include <vector>

#include <gtest/gtest.h>

namespace dbsherlock::common {
namespace {

TEST(EffectiveParallelismTest, ZeroMeansHardwareConcurrencyAtLeastOne) {
  EXPECT_GE(EffectiveParallelism(0), 1u);
}

TEST(EffectiveParallelismTest, ZeroFollowsTheAffinityMask) {
  cpu_set_t saved;
  ASSERT_EQ(sched_getaffinity(0, sizeof(saved), &saved), 0);
  EXPECT_EQ(EffectiveParallelism(0),
            static_cast<size_t>(CPU_COUNT(&saved)));
  // Pin the calling thread to one CPU it may already use: lanes follow.
  int cpu = 0;
  while (!CPU_ISSET(cpu, &saved)) ++cpu;
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cpu, &one);
  ASSERT_EQ(sched_setaffinity(0, sizeof(one), &one), 0);
  size_t pinned = EffectiveParallelism(0);
  ASSERT_EQ(sched_setaffinity(0, sizeof(saved), &saved), 0);
  EXPECT_EQ(pinned, 1u);
}

TEST(EffectiveParallelismTest, ExplicitValuesPassThrough) {
  EXPECT_EQ(EffectiveParallelism(1), 1u);
  EXPECT_EQ(EffectiveParallelism(7), 7u);
}

TEST(ParallelForTest, EmptyRangeNeverInvokes) {
  std::atomic<int> calls{0};
  ParallelFor(0, [&](size_t) { ++calls; }, 4);
  EXPECT_EQ(calls.load(), 0);
}

TEST(ParallelForTest, SerialPathRunsInIndexOrder) {
  std::vector<size_t> order;
  ParallelFor(16, [&](size_t i) { order.push_back(i); }, 1);
  std::vector<size_t> expected(16);
  std::iota(expected.begin(), expected.end(), 0);
  EXPECT_EQ(order, expected);
}

TEST(ParallelForTest, EveryIndexRunsExactlyOnce) {
  constexpr size_t kN = 1000;
  std::vector<std::atomic<int>> hits(kN);
  ParallelFor(kN, [&](size_t i) { ++hits[i]; }, 4);
  for (size_t i = 0; i < kN; ++i) EXPECT_EQ(hits[i].load(), 1) << i;
}

TEST(ParallelForTest, FewerItemsThanLanes) {
  std::vector<std::atomic<int>> hits(3);
  ParallelFor(3, [&](size_t i) { ++hits[i]; }, 8);
  for (size_t i = 0; i < 3; ++i) EXPECT_EQ(hits[i].load(), 1) << i;
}

TEST(ParallelForTest, SingleItemRunsOnCaller) {
  std::atomic<int> calls{0};
  ParallelFor(1, [&](size_t) { ++calls; }, 8);
  EXPECT_EQ(calls.load(), 1);
}

TEST(ParallelForTest, PropagatesExceptionSerial) {
  EXPECT_THROW(ParallelFor(
                   4,
                   [&](size_t i) {
                     if (i == 2) throw std::runtime_error("boom");
                   },
                   1),
               std::runtime_error);
}

TEST(ParallelForTest, PropagatesExceptionParallel) {
  EXPECT_THROW(ParallelFor(
                   64,
                   [&](size_t i) {
                     if (i == 11) throw std::runtime_error("boom");
                   },
                   4),
               std::runtime_error);
}

TEST(ParallelForTest, RethrowsLowestRecordedIndex) {
  // Index 0 always throws before the abandon flag can suppress its chunk,
  // so the deterministic lowest-index rule must surface "0".
  try {
    ParallelFor(
        256, [&](size_t i) { throw std::runtime_error(std::to_string(i)); },
        4);
    FAIL() << "expected an exception";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "0");
  }
}

TEST(ParallelForTest, PoolSurvivesAFailedRun) {
  EXPECT_THROW(
      ParallelFor(32, [](size_t) { throw std::runtime_error("boom"); }, 4),
      std::runtime_error);
  std::atomic<int> calls{0};
  ParallelFor(32, [&](size_t) { ++calls; }, 4);
  EXPECT_EQ(calls.load(), 32);
}

TEST(ParallelForTest, NestedCallsComplete) {
  std::vector<std::atomic<int>> hits(8 * 8);
  ParallelFor(
      8,
      [&](size_t outer) {
        ParallelFor(8, [&](size_t inner) { ++hits[outer * 8 + inner]; }, 4);
      },
      4);
  for (size_t i = 0; i < hits.size(); ++i) EXPECT_EQ(hits[i].load(), 1) << i;
}

TEST(ParallelRunnerTest, LanesFollowTheConstructorArgument) {
  EXPECT_GE(ParallelRunner(0).lanes(), 1u);  // hardware concurrency
  EXPECT_EQ(ParallelRunner(1).lanes(), 1u);
  EXPECT_EQ(ParallelRunner(4).lanes(), 4u);
}

TEST(ParallelRunnerTest, ReusedHandleRunsEveryIndexEachTime) {
  ParallelRunner runner(4);
  for (int round = 0; round < 3; ++round) {
    std::vector<std::atomic<int>> hits(64);
    runner.Run(hits.size(), [&](size_t i) { ++hits[i]; });
    for (size_t i = 0; i < hits.size(); ++i) {
      EXPECT_EQ(hits[i].load(), 1) << "round " << round << " index " << i;
    }
  }
}

TEST(ParallelRunnerTest, SerialRunnerPreservesIndexOrder) {
  ParallelRunner runner(1);
  std::vector<size_t> order;
  runner.Run(16, [&](size_t i) { order.push_back(i); });
  ASSERT_EQ(order.size(), 16u);
  for (size_t i = 0; i < order.size(); ++i) EXPECT_EQ(order[i], i);
}

TEST(ParallelRunnerTest, ExceptionDoesNotPoisonTheHandle) {
  ParallelRunner runner(4);
  EXPECT_THROW(
      runner.Run(32, [](size_t) { throw std::runtime_error("boom"); }),
      std::runtime_error);
  std::atomic<int> calls{0};
  runner.Run(32, [&](size_t) { ++calls; });
  EXPECT_EQ(calls.load(), 32);
}

TEST(ParallelMapTest, ResultsInIndexOrder) {
  std::vector<size_t> out =
      ParallelMap(100, [](size_t i) { return i * i; }, 4);
  ASSERT_EQ(out.size(), 100u);
  for (size_t i = 0; i < out.size(); ++i) EXPECT_EQ(out[i], i * i);
}

TEST(ParallelMapTest, SerialAndParallelAgree) {
  auto fn = [](size_t i) { return 3.5 * static_cast<double>(i) + 1.0; };
  EXPECT_EQ(ParallelMap(257, fn, 1), ParallelMap(257, fn, 4));
}

TEST(ThreadPoolTest, SubmittedTasksRun) {
  ThreadPool pool(2);
  EXPECT_EQ(pool.num_threads(), 2u);
  std::atomic<int> done{0};
  for (int i = 0; i < 10; ++i) {
    pool.Submit([&] { ++done; });
  }
  while (done.load() < 10) std::this_thread::yield();
  EXPECT_EQ(done.load(), 10);
}

TEST(ThreadPoolTest, EnsureAtLeastGrowsButNeverShrinks) {
  ThreadPool pool(1);
  pool.EnsureAtLeast(3);
  EXPECT_EQ(pool.num_threads(), 3u);
  pool.EnsureAtLeast(2);
  EXPECT_EQ(pool.num_threads(), 3u);
}

}  // namespace
}  // namespace dbsherlock::common
