// Parallel-region telemetry: the instrumented ParallelForBlocks path
// must not change results — per-block partial sums reduced in block
// order stay bit-identical with instrumentation on or off and across
// worker counts — while recording per-region aggregates. The fork case
// checks the crash-path contract: SIGINT in the middle of a region
// still flushes a well-formed partial `parallel_region` record.

#include "chameleon/obs/parallel_stats.h"

#include <sys/types.h>
#include <sys/wait.h>

#include <cmath>
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>
#include <unistd.h>

#include "chameleon/obs/obs.h"
#include "chameleon/obs/sink.h"
#include "chameleon/util/parallel.h"

namespace chameleon::obs {
namespace {

/// Per-block partial sums reduced in block order: the canonical pattern
/// parallel.h documents for worker-count-independent floating point.
double BlockOrderedSum(std::size_t n, std::size_t block_size, int threads) {
  std::vector<double> partials(NumBlocks(n, block_size), 0.0);
  ParallelForBlocks(n, block_size, threads,
                    [&](std::size_t block, std::size_t begin,
                        std::size_t end) {
                      double sum = 0.0;
                      for (std::size_t i = begin; i < end; ++i) {
                        sum += std::sqrt(static_cast<double>(i) + 0.25) *
                               1.0000001;
                      }
                      partials[block] = sum;
                    });
  double total = 0.0;
  for (const double p : partials) total += p;
  return total;
}

TEST(ParallelStatsTest, OutputBitIdenticalAcrossInstrumentationAndWorkers) {
  constexpr std::size_t kN = 40000;
  constexpr std::size_t kBlock = 512;

  SetEnabledForTesting(false);
  const double reference = BlockOrderedSum(kN, kBlock, 1);
  for (const bool enabled : {false, true}) {
    SetEnabledForTesting(enabled);
    for (const int threads : {1, 2, 3, 8}) {
      const double sum = BlockOrderedSum(kN, kBlock, threads);
      // Bitwise equality, not a tolerance: the block boundaries (and so
      // the reduction order) must not depend on telemetry or workers.
      EXPECT_EQ(sum, reference)
          << "enabled=" << enabled << " threads=" << threads;
    }
  }
  SetEnabledForTesting(false);
}

TEST(ParallelStatsTest, StatsHelpersComputeExpectedRatios) {
  ParallelRegionStats stats;
  stats.per_worker = {{.busy_ns = 300, .blocks = 3, .hw = {}},
                      {.busy_ns = 100, .blocks = 1, .hw = {}}};
  stats.workers = 2;
  stats.wall_ns = 250;
  EXPECT_EQ(stats.BusyTotalNanos(), 400u);
  // Per-worker max(0, wall - busy): worker 0 overran the wall (clamped
  // to 0), worker 1 idled 150 ns.
  EXPECT_EQ(stats.IdleTotalNanos(), 150u);
  // max busy 300 / mean busy 200.
  EXPECT_DOUBLE_EQ(stats.Imbalance(), 1.5);
  // busy total / wall.
  EXPECT_DOUBLE_EQ(stats.Speedup(), 1.6);
  EXPECT_DOUBLE_EQ(stats.Efficiency(), 0.8);
}

TEST(ParallelStatsTest, RecordNamesTheBindingClamp) {
  ParallelRegionStats stats;
  stats.name = "phase/a";
  stats.items = 512;
  stats.block_size = 8;
  stats.blocks = 64;
  stats.requested = 8;
  stats.workers = 1;
  stats.clamp = WorkerClampName(WorkerClamp::kGrain);
  stats.per_worker.resize(1);
  const std::string line = FormatParallelRegionRecord(stats);
  EXPECT_EQ(JsonlStringField(line, "clamp"), "grain");
  EXPECT_EQ(JsonlNumberField(line, "workers"), 1.0);
  EXPECT_EQ(JsonlNumberField(line, "requested"), 8.0);
}

#if CHAMELEON_OBS_ENABLED
// Aggregates need the compiled-in instrumentation; with obs off the
// region runs the plain path and records nothing (covered below).
TEST(ParallelStatsTest, InstrumentedRegionFeedsAggregates) {
  SetEnabledForTesting(true);
  ResetParallelRegionAggregates();
  const std::uint64_t before = ParallelRegionsRecorded();

  // No span open, so the region lands under the "(no_span)" name.
  BlockOrderedSum(8192, 256, 2);

  EXPECT_EQ(ParallelRegionsRecorded(), before + 1);
  const std::vector<ParallelRegionAggregate> aggs =
      ParallelRegionAggregates();
  ASSERT_EQ(aggs.size(), 1u);
  EXPECT_EQ(aggs[0].name, "(no_span)");
  EXPECT_EQ(aggs[0].regions, 1u);
  EXPECT_EQ(aggs[0].blocks, NumBlocks(8192, 256));
  EXPECT_GT(aggs[0].wall_ns, 0u);
  EXPECT_GT(aggs[0].busy_ns, 0u);
  EXPECT_GE(aggs[0].max_imbalance, 1.0);

  ResetParallelRegionAggregates();
  EXPECT_TRUE(ParallelRegionAggregates().empty());
  SetEnabledForTesting(false);
}
#endif  // CHAMELEON_OBS_ENABLED

TEST(ParallelStatsTest, DormantRegionRecordsNothing) {
  SetEnabledForTesting(false);
  ResetParallelRegionAggregates();
  const std::uint64_t before = ParallelRegionsRecorded();
  BlockOrderedSum(8192, 256, 2);
  EXPECT_EQ(ParallelRegionsRecorded(), before);
  EXPECT_TRUE(ParallelRegionAggregates().empty());
}

#if CHAMELEON_OBS_ENABLED

std::vector<std::string> ReadLines(const std::string& path) {
  std::ifstream in(path);
  std::vector<std::string> lines;
  for (std::string line; std::getline(in, line);) lines.push_back(line);
  return lines;
}

TEST(ParallelStatsTest, SigintMidRegionFlushesPartialRecord) {
  const std::string path =
      testing::TempDir() + "/parallel_partial_sigint.jsonl";
  std::remove(path.c_str());

  // The child signals region entry through a pipe so the parent kills it
  // while blocks are still outstanding, never before the region starts.
  int ready_pipe[2] = {-1, -1};
  ASSERT_EQ(pipe(ready_pipe), 0);
  std::fflush(nullptr);
  const pid_t pid = fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    close(ready_pipe[0]);
    ObsOptions options;
    options.metrics_out = path;
    options.read_env = false;
    if (!InitObservability(options).ok()) _exit(97);
    ParallelForBlocks(
        1 << 16, 1 << 10, 2,
        [&](std::size_t block, std::size_t, std::size_t) {
          if (block == 0) {
            const char byte = 'r';
            static_cast<void>(write(ready_pipe[1], &byte, 1));
          }
          usleep(20'000);  // 64 blocks x 20 ms: plenty of mid-region time
        });
    _exit(98);  // the signal must interrupt the region
  }
  close(ready_pipe[1]);
  char byte = 0;
  ASSERT_EQ(read(ready_pipe[0], &byte, 1), 1);
  close(ready_pipe[0]);
  usleep(50'000);
  ASSERT_EQ(kill(pid, SIGINT), 0);
  int status = 0;
  waitpid(pid, &status, 0);
  ASSERT_TRUE(WIFSIGNALED(status));
  EXPECT_EQ(WTERMSIG(status), SIGINT);

  std::string partial;
  for (const std::string& line : ReadLines(path)) {
    if (JsonlStringField(line, "type") == "parallel_region" &&
        line.find("\"partial\":true") != std::string::npos) {
      partial = line;
    }
  }
  ASSERT_FALSE(partial.empty())
      << "no partial parallel_region record flushed on SIGINT";
  EXPECT_EQ(JsonlNumberField(partial, "items"), 1 << 16);
  EXPECT_EQ(JsonlNumberField(partial, "blocks"), 64);
  const auto done = JsonlNumberField(partial, "blocks_done");
  ASSERT_TRUE(done.has_value());
  EXPECT_GE(*done, 1.0);
  EXPECT_LT(*done, 64.0);
  EXPECT_TRUE(JsonlNumberField(partial, "wall_ns").has_value());
  EXPECT_TRUE(JsonlNumberField(partial, "workers").has_value());
  EXPECT_TRUE(JsonlStringField(partial, "clamp").has_value());
}

#endif  // CHAMELEON_OBS_ENABLED

}  // namespace
}  // namespace chameleon::obs
