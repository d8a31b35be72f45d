// Progress reporting of a Monte Carlo loop: the stderr line written by
// obs::LogProgress and the total/ETA a ConvergenceTracker carries on its
// estimator_progress records and progress line.

#include <cstdio>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "chameleon/obs/convergence.h"
#include "chameleon/obs/obs.h"
#include "chameleon/obs/sink.h"

namespace chameleon::obs {
namespace {

std::size_t CountOccurrences(const std::string& text,
                             const std::string& needle) {
  std::size_t n = 0;
  for (std::size_t at = text.find(needle); at != std::string::npos;
       at = text.find(needle, at + needle.size())) {
    ++n;
  }
  return n;
}

ConvergenceOptions QuietOptions() {
  ConvergenceOptions options;
  options.use_global_sink = false;
  return options;
}

TEST(LogProgressTest, LineCarriesCountPercentRateAndEta) {
  testing::internal::CaptureStderr();
  LogProgress("test/loop", 250, 1000, /*elapsed_s=*/0.5, /*final=*/false);
  const std::string err = testing::internal::GetCapturedStderr();
  // 250 in 0.5 s is 500/s; 750 left at that rate is 1.5 s.
  EXPECT_NE(err.find("[test/loop] 250/1000 (25.0%), 500/s, ETA 1.5s"),
            std::string::npos)
      << err;
  EXPECT_EQ(CountOccurrences(err, "\n"), 1u) << err;
}

TEST(LogProgressTest, FinalLineReportsElapsedInsteadOfEta) {
  testing::internal::CaptureStderr();
  LogProgress("test/loop", 1000, 1000, /*elapsed_s=*/2.0, /*final=*/true);
  const std::string err = testing::internal::GetCapturedStderr();
  EXPECT_NE(err.find("[test/loop] 1000/1000 (100.0%), 500/s, finished in "
                     "2.00s"),
            std::string::npos)
      << err;
  EXPECT_EQ(err.find("ETA"), std::string::npos) << err;
}

TEST(LogProgressTest, UnknownTotalHasNoPercentOrEta) {
  testing::internal::CaptureStderr();
  LogProgress("test/open", 7, 0, /*elapsed_s=*/1.0, /*final=*/false);
  const std::string err = testing::internal::GetCapturedStderr();
  EXPECT_NE(err.find("[test/open] 7, 7/s"), std::string::npos) << err;
  EXPECT_EQ(err.find('%'), std::string::npos) << err;
  EXPECT_EQ(err.find("ETA"), std::string::npos) << err;
}

TEST(TrackerProgressTest, InertWithoutSinkOrEnabledObservability) {
  ASSERT_FALSE(Enabled());
  ConvergenceOptions options = QuietOptions();
  options.min_samples = 1;  // every doubling would be a checkpoint
  options.total = 1000;
  options.log = true;  // logging waits for obs to be enabled
  testing::internal::CaptureStderr();
  {
    ConvergenceTracker tracker("test/inert", options);
    for (int i = 0; i < 1000; ++i) tracker.Add(1.0);
    tracker.Finish(/*stopped_early=*/false);
    EXPECT_EQ(tracker.emit_count(), 0u);
  }
  EXPECT_EQ(testing::internal::GetCapturedStderr(), "");
}

TEST(TrackerProgressTest, RecordsCarryTotalAndEta) {
  MemorySink sink;
  ConvergenceOptions options = QuietOptions();
  options.sink = &sink;
  options.min_samples = 16;
  options.total = 1000;
  options.min_emit_interval_nanos = ~std::uint64_t{0} / 2;
  ConvergenceTracker tracker("test/total", options);
  for (int i = 0; i < 600; ++i) tracker.Add(static_cast<double>(i % 3));
  EXPECT_EQ(tracker.Snapshot().total, 1000u);
  tracker.Finish(/*stopped_early=*/true);

  const std::vector<std::string> lines = sink.lines();
  ASSERT_EQ(lines.size(), 7u);  // checkpoints 16..512, then the final
  for (const std::string& line : lines) {
    EXPECT_EQ(JsonlNumberField(line, "total"), 1000.0) << line;
    ASSERT_TRUE(JsonlNumberField(line, "eta_s").has_value()) << line;
    EXPECT_GE(*JsonlNumberField(line, "eta_s"), 0.0) << line;
  }
  // A finished loop has nothing left to wait for, even when it stopped
  // short of its total.
  EXPECT_EQ(JsonlNumberField(lines.back(), "eta_s"), 0.0);
  EXPECT_EQ(JsonlNumberField(lines.back(), "samples"), 600.0);
  EXPECT_EQ(tracker.Snapshot().eta_s, 0.0);
}

// With observability on, the line is throttled like the records, and the
// final line is written regardless; checkpoints alone never log.
TEST(TrackerProgressTest, LogThrottlesToTheFinalLine) {
  const std::string path = testing::TempDir() + "/progress_log.jsonl";
  std::remove(path.c_str());
  ObsOptions obs_options;
  obs_options.metrics_out = path;
  obs_options.read_env = false;
  ASSERT_TRUE(InitObservability(obs_options).ok());

  ConvergenceOptions options = QuietOptions();
  options.min_samples = 1;
  options.total = 1000;
  options.log = true;
  options.min_emit_interval_nanos = ~std::uint64_t{0} / 2;
  testing::internal::CaptureStderr();
  {
    ConvergenceTracker tracker("test/log", options);
    for (int i = 0; i < 1000; ++i) tracker.Add(1.0);
    tracker.Finish(/*stopped_early=*/false);
    // Finish is idempotent: no second final line.
    tracker.Finish(/*stopped_early=*/false);
  }
  const std::string err = testing::internal::GetCapturedStderr();
  ShutdownObservability();
  std::remove(path.c_str());

  EXPECT_EQ(CountOccurrences(err, "[test/log]"), 1u) << err;
  EXPECT_NE(err.find("[test/log] 1000/1000 (100.0%)"), std::string::npos)
      << err;
  EXPECT_NE(err.find("finished in"), std::string::npos) << err;
  EXPECT_EQ(err.find("ETA"), std::string::npos) << err;
}

}  // namespace
}  // namespace chameleon::obs
