#include "harness.h"

#include <sys/wait.h>

#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

namespace chameleon::bench {
namespace {

BenchResult MakeResult(const std::string& name, double median_ns,
                       double mad_ns) {
  BenchResult r;
  r.name = name;
  r.median_ns = median_ns;
  r.mad_ns = mad_ns;
  r.mean_ns = median_ns;
  r.min_ns = median_ns;
  r.max_ns = median_ns;
  r.iterations = 100;
  r.reps = 5;
  return r;
}

BenchSuite MakeSuite(std::vector<BenchResult> results) {
  BenchSuite suite;
  suite.schema = std::string(kBenchSchema);
  suite.suite = "test";
  suite.benchmarks = std::move(results);
  return suite;
}

TEST(StatsTest, MedianHandlesOddEvenAndEmpty) {
  EXPECT_DOUBLE_EQ(Median({}), 0.0);
  EXPECT_DOUBLE_EQ(Median({7.0}), 7.0);
  EXPECT_DOUBLE_EQ(Median({3.0, 1.0, 2.0}), 2.0);
  EXPECT_DOUBLE_EQ(Median({4.0, 1.0, 3.0, 2.0}), 2.5);
}

TEST(StatsTest, MadIsRobustToOutliers) {
  const std::vector<double> values = {10.0, 10.0, 10.0, 10.0, 1000.0};
  const double median = Median(values);
  EXPECT_DOUBLE_EQ(median, 10.0);
  // One wild outlier does not move the MAD off zero deviation.
  EXPECT_DOUBLE_EQ(MedianAbsDeviation(values, median), 0.0);
  EXPECT_DOUBLE_EQ(MedianAbsDeviation({1.0, 2.0, 3.0}, 2.0), 1.0);
}

TEST(MeasureTest, CalibratesAndReportsSaneStats) {
  BenchOptions options = BenchOptions::Quick();
  options.reps = 3;
  options.min_rep_seconds = 0.001;
  int calls = 0;
  const BenchResult result = MeasureBenchmark(
      "probe",
      [&calls](BenchContext& context) {
        ++calls;
        volatile std::uint64_t acc = 0;
        for (std::uint64_t i = 0; i < context.iterations(); ++i) acc = acc + i;
        static_cast<void>(acc);
        context.SetItemsPerIteration(2);
      },
      options);
  EXPECT_GT(calls, 0);
  EXPECT_EQ(result.name, "probe");
  EXPECT_GE(result.iterations, 1u);
  EXPECT_EQ(result.reps, 3);
  EXPECT_GT(result.median_ns, 0.0);
  EXPECT_LE(result.min_ns, result.median_ns);
  EXPECT_GE(result.max_ns, result.median_ns);
  EXPECT_GT(result.items_per_sec, 0.0);  // 2 items/iter declared
}

TEST(BenchFileTest, WriteLoadRoundTrip) {
  const std::string path = testing::TempDir() + "/bench_roundtrip.json";
  std::remove(path.c_str());
  const std::vector<BenchResult> results = {MakeResult("alpha", 120.5, 2.5),
                                            MakeResult("beta", 99000.0, 10.0)};
  BenchOptions options;
  ASSERT_TRUE(WriteBenchFile(path, "core", results, options).ok());

  const Result<BenchSuite> loaded = LoadBenchFile(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->schema, kBenchSchema);
  EXPECT_EQ(loaded->suite, "core");
  EXPECT_FALSE(loaded->quick);
  EXPECT_FALSE(loaded->git_sha.empty());
  ASSERT_EQ(loaded->benchmarks.size(), 2u);
  EXPECT_EQ(loaded->benchmarks[0].name, "alpha");
  EXPECT_DOUBLE_EQ(loaded->benchmarks[0].median_ns, 120.5);
  EXPECT_DOUBLE_EQ(loaded->benchmarks[0].mad_ns, 2.5);
  EXPECT_EQ(loaded->benchmarks[0].iterations, 100u);
  EXPECT_EQ(loaded->benchmarks[1].name, "beta");
  EXPECT_DOUBLE_EQ(loaded->benchmarks[1].median_ns, 99000.0);
}

TEST(BenchFileTest, QuickModeIsStamped) {
  const std::string path = testing::TempDir() + "/bench_quick.json";
  ASSERT_TRUE(WriteBenchFile(path, "core", {MakeResult("a", 1.0, 0.0)},
                             BenchOptions::Quick())
                  .ok());
  const Result<BenchSuite> loaded = LoadBenchFile(path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_TRUE(loaded->quick);
}

TEST(BenchFileTest, RejectsForeignFiles) {
  const std::string path = testing::TempDir() + "/bench_foreign.json";
  std::FILE* f = std::fopen(path.c_str(), "w");
  ASSERT_NE(f, nullptr);
  std::fputs("{\"something\":\"else\"}\n", f);
  std::fclose(f);
  EXPECT_FALSE(LoadBenchFile(path).ok());
  EXPECT_FALSE(LoadBenchFile(testing::TempDir() + "/does_not_exist.json").ok());
}

TEST(DiffTest, IdenticalSuitesHaveNoRegressions) {
  const BenchSuite suite = MakeSuite(
      {MakeResult("a", 100.0, 1.0), MakeResult("b", 5000.0, 50.0)});
  const DiffReport report = CompareBenchSuites(suite, suite, DiffOptions());
  EXPECT_EQ(report.regressions, 0);
  EXPECT_EQ(report.improvements, 0);
  ASSERT_EQ(report.entries.size(), 2u);
  for (const DiffEntry& e : report.entries) {
    EXPECT_EQ(e.verdict, DiffVerdict::kUnchanged);
    EXPECT_DOUBLE_EQ(e.ratio, 1.0);
  }
}

TEST(DiffTest, DetectsInjectedTwoTimesSlowdown) {
  const BenchSuite baseline = MakeSuite(
      {MakeResult("a", 100.0, 1.0), MakeResult("b", 5000.0, 50.0)});
  const BenchSuite current = MakeSuite(
      {MakeResult("a", 100.0, 1.0), MakeResult("b", 10000.0, 50.0)});
  const DiffReport report = CompareBenchSuites(baseline, current,
                                               DiffOptions());
  EXPECT_EQ(report.regressions, 1);
  ASSERT_EQ(report.entries.size(), 2u);
  EXPECT_EQ(report.entries[0].verdict, DiffVerdict::kUnchanged);
  EXPECT_EQ(report.entries[1].verdict, DiffVerdict::kRegression);
  EXPECT_DOUBLE_EQ(report.entries[1].ratio, 2.0);
}

TEST(DiffTest, NoiseFloorSuppressesJitteryRegressions) {
  // 20% slower, but the MAD noise floor (3 x 400 = 1200 > delta 1000)
  // swallows it: noisy benchmarks cannot fail CI on jitter.
  const BenchSuite baseline = MakeSuite({MakeResult("n", 5000.0, 400.0)});
  const BenchSuite current = MakeSuite({MakeResult("n", 6000.0, 400.0)});
  const DiffReport report = CompareBenchSuites(baseline, current,
                                               DiffOptions());
  EXPECT_EQ(report.regressions, 0);
  EXPECT_EQ(report.entries[0].verdict, DiffVerdict::kUnchanged);

  // The same delta with tight MADs is a real regression.
  const BenchSuite tight_base = MakeSuite({MakeResult("n", 5000.0, 10.0)});
  const BenchSuite tight_cur = MakeSuite({MakeResult("n", 6000.0, 10.0)});
  EXPECT_EQ(
      CompareBenchSuites(tight_base, tight_cur, DiffOptions()).regressions, 1);
}

TEST(DiffTest, ImprovementsAndMembershipChangesAreNotFailures) {
  const BenchSuite baseline = MakeSuite(
      {MakeResult("faster", 1000.0, 5.0), MakeResult("removed", 50.0, 1.0)});
  const BenchSuite current = MakeSuite(
      {MakeResult("faster", 500.0, 5.0), MakeResult("added", 70.0, 1.0)});
  const DiffReport report = CompareBenchSuites(baseline, current,
                                               DiffOptions());
  EXPECT_EQ(report.regressions, 0);
  EXPECT_EQ(report.improvements, 1);
  ASSERT_EQ(report.entries.size(), 3u);
  EXPECT_EQ(report.entries[0].verdict, DiffVerdict::kImprovement);
  EXPECT_EQ(report.entries[1].verdict, DiffVerdict::kOnlyBaseline);
  EXPECT_EQ(report.entries[2].verdict, DiffVerdict::kOnlyCurrent);
}

TEST(DiffTest, FormatReportMentionsEveryVerdict) {
  const BenchSuite baseline = MakeSuite({MakeResult("slow", 100.0, 1.0)});
  const BenchSuite current = MakeSuite({MakeResult("slow", 300.0, 1.0)});
  const DiffOptions options;
  const DiffReport report = CompareBenchSuites(baseline, current, options);
  const std::string text = FormatDiffReport(report, options);
  EXPECT_NE(text.find("REGRESSED"), std::string::npos);
  EXPECT_NE(text.find("1 regression(s)"), std::string::npos);
  EXPECT_NE(text.find("slow"), std::string::npos);
}

// The overhead gates' dual rule, fed per-repetition wall times of 1000
// iterations each.
constexpr std::uint64_t kGateIterations = 1000;

TEST(OverheadTest, UnderBudgetPasses) {
  const OverheadVerdict v =
      JudgeOverhead({1.00e6, 1.01e6, 0.99e6, 1.00e6, 1.00e6},
                    {1.01e6, 1.02e6, 1.00e6, 1.01e6, 1.01e6},
                    kGateIterations, 0.02);
  EXPECT_TRUE(v.pass);
  EXPECT_NEAR(v.overhead, 0.01, 1e-9);
}

TEST(OverheadTest, OverBudgetInsideNoiseFloorPasses) {
  // 10% over a 2% budget, but the MAD is 10% of the median: 3x MAD
  // (300 ns/iter) swallows the 100 ns/iter delta.
  const OverheadVerdict v =
      JudgeOverhead({1.0e6, 1.2e6, 0.8e6, 1.1e6, 0.9e6},
                    {1.1e6, 1.3e6, 0.9e6, 1.2e6, 1.0e6}, kGateIterations,
                    0.02);
  EXPECT_NEAR(v.overhead, 0.10, 1e-9);
  EXPECT_NEAR(v.noise_ns, 300.0, 1e-6);
  EXPECT_TRUE(v.pass);
}

TEST(OverheadTest, OverBudgetAboveNoiseFloorFails) {
  const OverheadVerdict v =
      JudgeOverhead({1.00e6, 1.00e6, 1.01e6, 0.99e6, 1.00e6},
                    {1.05e6, 1.05e6, 1.06e6, 1.04e6, 1.05e6},
                    kGateIterations, 0.02);
  EXPECT_NEAR(v.overhead, 0.05, 1e-9);
  EXPECT_FALSE(v.pass);
}

TEST(OverheadTest, RowsArePerIteration) {
  const OverheadVerdict v = JudgeOverhead(
      {2.0e6, 4.0e6, 3.0e6}, {3.0e6, 3.0e6, 3.0e6}, kGateIterations, 0.02);
  EXPECT_EQ(v.bare.iterations, kGateIterations);
  EXPECT_EQ(v.bare.reps, 3);
  EXPECT_DOUBLE_EQ(v.bare.median_ns, 3000.0);
  EXPECT_DOUBLE_EQ(v.bare.mad_ns, 1000.0);
  EXPECT_DOUBLE_EQ(v.bare.min_ns, 2000.0);
  EXPECT_DOUBLE_EQ(v.bare.max_ns, 4000.0);
  EXPECT_DOUBLE_EQ(v.bare.mean_ns, 3000.0);
  EXPECT_DOUBLE_EQ(v.instrumented.mad_ns, 0.0);
}

/// An arm whose "wall time" is exactly `ns_per_iteration` per iteration,
/// logging every repetition it reports.
OverheadArm SyntheticArm(double ns_per_iteration, std::vector<double>* log) {
  return [ns_per_iteration, log](std::uint64_t iterations) {
    const double ns = ns_per_iteration * static_cast<double>(iterations);
    log->push_back(ns);
    return ns;
  };
}

TEST(OverheadTest, MeasureCalibratesAndWritesPerIterationRows) {
  std::vector<double> bare_log;
  std::vector<double> instrumented_log;
  OverheadCheck check;
  check.bare_name = "BM_Bare";
  check.instrumented_name = "BM_Instrumented";
  check.bare = SyntheticArm(100.0, &bare_log);
  check.instrumented = SyntheticArm(101.0, &instrumented_log);
  check.budget = 0.02;
  const OverheadVerdict v = MeasureOverhead(check, 5);
  EXPECT_TRUE(v.pass);
  EXPECT_EQ(v.bare.name, "BM_Bare");
  EXPECT_EQ(v.instrumented.name, "BM_Instrumented");
  EXPECT_DOUBLE_EQ(v.bare.median_ns, 100.0);
  EXPECT_DOUBLE_EQ(v.instrumented.median_ns, 101.0);
  // Calibrated to ~150 ms repetitions, and the per-iteration median times
  // the iteration count reproduces each timed repetition's wall time.
  ASSERT_EQ(instrumented_log.size(), 5u);
  const double rep_ns = bare_log.back();
  EXPECT_GE(rep_ns, 75e6);
  EXPECT_LE(rep_ns, 300e6);
  EXPECT_DOUBLE_EQ(v.bare.median_ns * static_cast<double>(v.bare.iterations),
                   rep_ns);
  EXPECT_DOUBLE_EQ(
      v.instrumented.median_ns * static_cast<double>(v.bare.iterations),
      instrumented_log.back());
}

TEST(OverheadTest, InjectedTwoTimesSlowdownFails) {
  std::vector<double> bare_log;
  std::vector<double> instrumented_log;
  OverheadCheck check;
  check.bare = SyntheticArm(100.0, &bare_log);
  check.instrumented = SyntheticArm(200.0, &instrumented_log);
  check.budget = 0.05;
  const OverheadVerdict v = MeasureOverhead(check, 3);
  EXPECT_FALSE(v.pass);
  EXPECT_DOUBLE_EQ(v.overhead, 1.0);
}

/// Exit code and stdout of chameleon_overhead_gate run with `args`.
std::pair<int, std::string> RunGate(const std::string& args) {
  std::string out;
  const std::string command = std::string(OVERHEAD_GATE_BIN) + args;
  std::FILE* pipe = popen((command + " 2>/dev/null").c_str(), "r");
  if (pipe == nullptr) return {-1, out};
  char buffer[4096];
  std::size_t n = 0;
  while ((n = std::fread(buffer, 1, sizeof(buffer), pipe)) > 0) {
    out.append(buffer, n);
  }
  const int status = pclose(pipe);
  return {WIFEXITED(status) ? WEXITSTATUS(status) : -1, out};
}

TEST(OverheadGateBinaryTest, UnknownGateIsAUsageError) {
  EXPECT_EQ(RunGate(" --gate=nope").first, 2);
  EXPECT_EQ(RunGate("").first, 2);
}

TEST(OverheadGateBinaryTest, ListNamesAllSixGates) {
  const auto [code, out] = RunGate(" --list");
  EXPECT_EQ(code, 0);
  for (const char* gate :
       {"obs_dormant", "profiler", "flight", "parallel", "hw", "heap"}) {
    EXPECT_NE(out.find(std::string(gate) + " "), std::string::npos) << gate;
  }
}

TEST(RegistryTest, RegistrationOrderIsPreservedAndFilterable) {
  // bench_core registers via CHAMELEON_BENCHMARK at static init; this
  // test binary registers its own entries here.
  RegisterBenchmark("reg_order_first", [](BenchContext&) {});
  RegisterBenchmark("reg_order_second", [](BenchContext&) {});
  const std::vector<std::string> names = RegisteredBenchmarkNames();
  std::ptrdiff_t first = -1;
  std::ptrdiff_t second = -1;
  for (std::size_t i = 0; i < names.size(); ++i) {
    if (names[i] == "reg_order_first") first = static_cast<std::ptrdiff_t>(i);
    if (names[i] == "reg_order_second") second = static_cast<std::ptrdiff_t>(i);
  }
  ASSERT_NE(first, -1);
  ASSERT_NE(second, -1);
  EXPECT_LT(first, second);

  BenchOptions options = BenchOptions::Quick();
  options.reps = 1;
  options.min_rep_seconds = 1e-6;
  options.filter = "reg_order_first";
  const std::vector<BenchResult> results = RunRegisteredBenchmarks(options);
  ASSERT_EQ(results.size(), 1u);
  EXPECT_EQ(results[0].name, "reg_order_first");
}

}  // namespace
}  // namespace chameleon::bench
