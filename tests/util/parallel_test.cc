#include "chameleon/util/parallel.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <limits>
#include <mutex>
#include <set>
#include <thread>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

namespace chameleon {
namespace {

TEST(EffectiveThreadsTest, PositiveRequestIsHonored) {
  EXPECT_EQ(EffectiveThreads(1), 1);
  EXPECT_EQ(EffectiveThreads(8), 8);
}

TEST(EffectiveThreadsTest, NonPositiveFallsBackToHardware) {
  EXPECT_GE(EffectiveThreads(0), 1);
  EXPECT_GE(EffectiveThreads(-3), 1);
}

TEST(NumBlocksTest, RoundsUp) {
  EXPECT_EQ(NumBlocks(0, 4), 0u);
  EXPECT_EQ(NumBlocks(1, 4), 1u);
  EXPECT_EQ(NumBlocks(4, 4), 1u);
  EXPECT_EQ(NumBlocks(5, 4), 2u);
  EXPECT_EQ(NumBlocks(8, 4), 2u);
}

TEST(ParallelForBlocksTest, EveryIndexVisitedExactlyOnce) {
  constexpr std::size_t kN = 1003;
  std::vector<std::atomic<int>> visits(kN);
  ParallelForBlocks(kN, 17, 8,
                    [&](std::size_t /*block*/, std::size_t begin,
                        std::size_t end) {
                      for (std::size_t i = begin; i < end; ++i) {
                        visits[i].fetch_add(1, std::memory_order_relaxed);
                      }
                    });
  for (std::size_t i = 0; i < kN; ++i) {
    EXPECT_EQ(visits[i].load(), 1) << "index " << i;
  }
}

TEST(ParallelForBlocksTest, BlockBoundariesIndependentOfWorkerCount) {
  constexpr std::size_t kN = 259;
  constexpr std::size_t kBlock = 32;
  const auto collect = [&](int threads) {
    std::mutex mu;
    std::set<std::tuple<std::size_t, std::size_t, std::size_t>> triples;
    ParallelForBlocks(kN, kBlock, threads,
                      [&](std::size_t block, std::size_t begin,
                          std::size_t end) {
                        const std::lock_guard<std::mutex> lock(mu);
                        triples.insert({block, begin, end});
                      });
    return triples;
  };
  const auto serial = collect(1);
  const auto parallel = collect(8);
  EXPECT_EQ(serial, parallel);
  EXPECT_EQ(serial.size(), NumBlocks(kN, kBlock));
  // The final block is the short tail.
  EXPECT_TRUE(serial.count({8, 256, 259}));
}

TEST(ParallelForBlocksTest, EmptyRangeNeverInvokes) {
  bool invoked = false;
  ParallelForBlocks(0, 16, 4,
                    [&](std::size_t, std::size_t, std::size_t) {
                      invoked = true;
                    });
  EXPECT_FALSE(invoked);
}

TEST(ParallelForBlocksTest, MoreThreadsThanBlocksIsFine) {
  std::atomic<std::size_t> total{0};
  ParallelForBlocks(10, 100, 16,
                    [&](std::size_t, std::size_t begin, std::size_t end) {
                      total.fetch_add(end - begin);
                    });
  EXPECT_EQ(total.load(), 10u);
}

TEST(ParallelForBlocksTest, ZeroBlockSizeNeverInvokes) {
  bool invoked = false;
  ParallelForBlocks(100, 0, 4,
                    [&](std::size_t, std::size_t, std::size_t) {
                      invoked = true;
                    });
  EXPECT_FALSE(invoked);
}

/// Collects the distinct thread ids that ran callbacks, and whether the
/// calling thread was one of them.
std::set<std::thread::id> RunAndCollectThreadIds(std::size_t n,
                                                 std::size_t block_size,
                                                 int threads) {
  std::mutex mu;
  std::set<std::thread::id> ids;
  ParallelForBlocks(n, block_size, threads,
                    [&](std::size_t, std::size_t, std::size_t) {
                      const std::lock_guard<std::mutex> lock(mu);
                      ids.insert(std::this_thread::get_id());
                    });
  return ids;
}

TEST(ParallelForBlocksTest, SmallRangesRunInlineDespiteThreadRequest) {
  // 512 items sit under the ~1024-item minimum grain: even an explicit
  // --threads=8 must not spawn workers (the regression this guards:
  // thread startup dwarfing the actual work).
  const WorkerPlan plan = PlanWorkers(512, 32, 8);
  EXPECT_EQ(plan.workers, 1u);
  EXPECT_EQ(plan.clamp, WorkerClamp::kGrain);
  const std::set<std::thread::id> ids = RunAndCollectThreadIds(512, 32, 8);
  ASSERT_EQ(ids.size(), 1u);
  EXPECT_EQ(*ids.begin(), std::this_thread::get_id());
}

std::size_t Hardware() {
  return std::max(1u, std::thread::hardware_concurrency());
}

/// Distinct thread ids that ran blocks. Each block waits (up to 5 s) for
/// a second thread to show up, so a region that spawned workers is seen
/// to use them however fast the caller drains.
std::set<std::thread::id> RunAndAwaitSecondThread(std::size_t n,
                                                  std::size_t block_size,
                                                  int threads,
                                                  std::size_t work_per_item) {
  std::mutex mu;
  std::condition_variable cv;
  std::set<std::thread::id> ids;
  ParallelForBlocks(
      n, block_size, threads,
      [&](std::size_t, std::size_t, std::size_t) {
        std::unique_lock<std::mutex> lock(mu);
        ids.insert(std::this_thread::get_id());
        cv.notify_all();
        cv.wait_for(lock, std::chrono::seconds(5),
                    [&] { return ids.size() >= 2; });
      },
      work_per_item);
  return ids;
}

TEST(ParallelForBlocksTest, WorkHintFansOutFewCostlyItems) {
  // 512 items that each cost ~1024 units of work (a sampled world over
  // |E| edges, say) are 512k units: the grain no longer binds.
  const WorkerPlan plan = PlanWorkers(512, 8, 8, 1024);
  EXPECT_EQ(plan.requested, 8u);
  EXPECT_EQ(plan.workers, std::min<std::size_t>(8, Hardware()));
  if (Hardware() < 2) GTEST_SKIP() << "one hardware thread";
  const std::set<std::thread::id> ids = RunAndAwaitSecondThread(512, 8, 8,
                                                                1024);
  EXPECT_GE(ids.size(), 2u);
}

TEST(PlanWorkersTest, ClampNamesTheBindingLimit) {
  const std::size_t hw = Hardware();
  // The explicit request is the smallest limit.
  EXPECT_EQ(PlanWorkers(1 << 20, 64, 1).clamp, WorkerClamp::kRequest);
  // One block: nothing for a second worker to claim.
  const WorkerPlan one_block = PlanWorkers(100, 100, 8);
  EXPECT_EQ(one_block.workers, 1u);
  EXPECT_EQ(one_block.clamp, WorkerClamp::kBlocks);
  // 2048 work units: two workers' worth of grain.
  const WorkerPlan grain = PlanWorkers(2048, 64, 64);
  EXPECT_EQ(grain.workers, std::min<std::size_t>(2, hw));
  EXPECT_EQ(grain.clamp,
            hw >= 2 ? WorkerClamp::kGrain : WorkerClamp::kHardware);
  // Far more workers asked for than there are cores.
  const WorkerPlan hardware = PlanWorkers(1 << 24, 64, 100000);
  EXPECT_EQ(hardware.workers, hw);
  EXPECT_EQ(hardware.clamp, WorkerClamp::kHardware);
  // A default request nothing narrows.
  const WorkerPlan fallback = PlanWorkers(1 << 24, 64, 0);
  EXPECT_EQ(fallback.workers, fallback.requested);
  EXPECT_EQ(fallback.clamp, WorkerClamp::kNone);
}

TEST(PlanWorkersTest, WorkProductSaturates) {
  const std::size_t max = std::numeric_limits<std::size_t>::max();
  const WorkerPlan plan = PlanWorkers(max / 2, 1, 2, max);
  EXPECT_EQ(plan.workers, std::min<std::size_t>(2, Hardware()));
  // A zero hint counts as one unit per item.
  EXPECT_EQ(PlanWorkers(512, 8, 8, 0).workers, 1u);
}

TEST(PlanWorkersTest, ClampNames) {
  EXPECT_EQ(WorkerClampName(WorkerClamp::kNone), "none");
  EXPECT_EQ(WorkerClampName(WorkerClamp::kRequest), "request");
  EXPECT_EQ(WorkerClampName(WorkerClamp::kBlocks), "blocks");
  EXPECT_EQ(WorkerClampName(WorkerClamp::kGrain), "grain");
  EXPECT_EQ(WorkerClampName(WorkerClamp::kHardware), "hardware");
}

TEST(ParallelForBlocksTest, SingleBlockRunsInline) {
  const std::set<std::thread::id> ids = RunAndCollectThreadIds(10, 100, 8);
  ASSERT_EQ(ids.size(), 1u);
  EXPECT_EQ(*ids.begin(), std::this_thread::get_id());
}

TEST(ParallelForBlocksTest, WorkerCountClampedToHardwareConcurrency) {
  // A request far above the core count must clamp: the caller plus the
  // spawned workers total at most hardware_concurrency threads.
  const std::size_t hw =
      std::thread::hardware_concurrency() == 0
          ? 1
          : std::thread::hardware_concurrency();
  const std::set<std::thread::id> ids =
      RunAndCollectThreadIds(1 << 16, 256, 64);
  EXPECT_LE(ids.size(), hw);
  EXPECT_GE(ids.size(), 1u);
}

}  // namespace
}  // namespace chameleon
