// WorkerPool: the library's one thread model (infer/thread_pool.h). Pins the static
// item -> participant partition, the caller-as-participant-0 rule, the per-call check-in
// across many back-to-back calls, first-error-by-participant rethrow, and the
// zero-allocation contract once the pool is constructed.

#include "qnet/infer/thread_pool.h"

#include <atomic>
#include <chrono>
#include <stdexcept>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "support/counting_allocator.h"

namespace qnet {
namespace {

using qnet_testing::AllocationCount;

TEST(WorkerPool, ResolveThreadCountMapsZeroToHardware) {
  EXPECT_EQ(ResolveThreadCount(3), 3u);
  EXPECT_GE(ResolveThreadCount(0), 1u);
  EXPECT_EQ(WorkerPool(0).NumThreads(), 1u);
}

TEST(WorkerPool, ItemsRunOnParticipantItemModThreads) {
  constexpr std::size_t kThreads = 3;
  constexpr std::size_t kItems = 11;
  WorkerPool pool(kThreads);
  ASSERT_EQ(pool.NumThreads(), kThreads);
  std::vector<std::thread::id> ran_on(kItems);
  pool.Run(kItems, [&](std::size_t i) { ran_on[i] = std::this_thread::get_id(); });
  EXPECT_EQ(ran_on[0], std::this_thread::get_id());  // the caller is participant 0
  for (std::size_t i = 0; i < kItems; ++i) {
    EXPECT_EQ(ran_on[i], ran_on[i % kThreads]) << "item " << i;
    if (i > 0 && i < kThreads) {
      EXPECT_NE(ran_on[i], std::this_thread::get_id()) << "item " << i;
    }
  }
  EXPECT_NE(ran_on[1], ran_on[2]);
}

TEST(WorkerPool, TenThousandBackToBackRunsEachCoverEveryItemOnce) {
  constexpr std::size_t kMaxItems = 7;
  WorkerPool pool(4);
  std::vector<int> visits(kMaxItems, 0);  // each slot written by exactly one participant
  std::vector<int> expected(kMaxItems, 0);
  for (int call = 0; call < 10000; ++call) {
    // Item counts vary call to call (zero, fewer items than threads, more), so a worker
    // that read a stale item count would skip or repeat an item.
    const std::size_t items = static_cast<std::size_t>(call) % (kMaxItems + 1);
    pool.Run(items, [&](std::size_t i) { ++visits[i]; });
    for (std::size_t i = 0; i < items; ++i) {
      ++expected[i];
    }
  }
  EXPECT_EQ(visits, expected);
}

TEST(WorkerPool, RethrowsTheFirstErrorByParticipantIndex) {
  WorkerPool pool(3);
  std::vector<int> ran(9, 0);
  const auto work = [&](std::size_t i) {
    ran[i] = 1;
    if (i == 2) {
      throw std::runtime_error("participant 2");
    }
    if (i == 1) {
      // Participant 1 fails last in time; its error still wins by index.
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
      throw std::runtime_error("participant 1");
    }
  };
  try {
    pool.Run(ran.size(), work);
    FAIL() << "expected a rethrow";
  } catch (const std::runtime_error& error) {
    EXPECT_STREQ(error.what(), "participant 1");
  }
  // A participant stops at its first error; the others run their whole share.
  EXPECT_EQ(ran, (std::vector<int>{1, 1, 1, 1, 0, 0, 1, 0, 0}));
  // The pool survives a failed call, and a clean call does not rethrow an old error.
  std::atomic<int> count{0};
  pool.Run(6, [&](std::size_t) { count.fetch_add(1); });
  EXPECT_EQ(count.load(), 6);
}

TEST(WorkerPool, SingleThreadRunsOnTheCallerAsAPlainLoop) {
  WorkerPool pool(1);
  EXPECT_EQ(pool.NumThreads(), 1u);
  const std::thread::id caller = std::this_thread::get_id();
  std::vector<std::size_t> order;
  pool.Run(5, [&](std::size_t i) {
    EXPECT_EQ(std::this_thread::get_id(), caller);
    order.push_back(i);
  });
  EXPECT_EQ(order, (std::vector<std::size_t>{0, 1, 2, 3, 4}));
  EXPECT_THROW(pool.Run(2, [](std::size_t) { throw std::runtime_error("inline"); }),
               std::runtime_error);
}

TEST(WorkerPool, RunAllocatesNothingAfterWarmUp) {
  for (const std::size_t threads : {1u, 2u, 4u}) {
    WorkerPool pool(threads);
    std::vector<double> out(16, 0.0);
    const auto work = [&](std::size_t i) { out[i] += static_cast<double>(i); };
    pool.Run(out.size(), work);  // warm-up
    const std::size_t before = AllocationCount();
    for (int call = 0; call < 200; ++call) {
      pool.Run(out.size(), work);
    }
    EXPECT_EQ(AllocationCount(), before) << "threads=" << threads;
    EXPECT_EQ(out[3], 3.0 * 201);
  }
}

}  // namespace
}  // namespace qnet
