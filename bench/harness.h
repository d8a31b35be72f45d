#ifndef CHAMELEON_BENCH_HARNESS_H_
#define CHAMELEON_BENCH_HARNESS_H_

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "chameleon/util/status.h"

/// \file harness.h
/// Self-contained benchmark harness behind the repo's perf-regression
/// workflow:
///
///   chameleon_bench_core --out=BENCH_core.json        # this harness
///   chameleon_bench_diff BENCH_old.json BENCH_new.json  # gate
///
/// Each registered benchmark is calibrated (iterations doubled until one
/// repetition exceeds `min_rep_seconds`), warmed up, then timed for
/// `reps` repetitions; the reported statistic is the median ns/iteration
/// with the median absolute deviation (MAD) as the robust noise measure
/// the diff gate uses. The canonical `BENCH_<suite>.json` embeds the
/// same build/host provenance as a RunManifest so a number can always be
/// traced to the exact SHA + compiler + host that produced it.
///
/// Deliberately not google-benchmark: the regression gate must build
/// everywhere the library builds, with zero optional deps.

namespace chameleon::bench {

/// Passed to the benchmark function: run the measured operation exactly
/// `iterations()` times. Optionally declare per-iteration item counts
/// (edges sampled, worlds evaluated) for a throughput column.
class BenchContext {
 public:
  explicit BenchContext(std::uint64_t iterations) : iterations_(iterations) {}

  std::uint64_t iterations() const { return iterations_; }

  void SetItemsPerIteration(std::uint64_t items) {
    items_per_iteration_ = items;
  }
  std::uint64_t items_per_iteration() const { return items_per_iteration_; }

 private:
  std::uint64_t iterations_;
  std::uint64_t items_per_iteration_ = 0;
};

using BenchFn = std::function<void(BenchContext&)>;

/// Keeps `value` observable so the compiler cannot delete the measured
/// computation as dead code.
template <typename T>
inline void DoNotOptimize(T const& value) {
  asm volatile("" : : "r,m"(value) : "memory");
}

struct BenchOptions {
  /// Timed repetitions (median/MAD come from these).
  int reps = 9;
  /// Untimed repetitions before measuring (cache/branch warmup).
  int warmup_reps = 2;
  /// Calibration target: one repetition must run at least this long.
  double min_rep_seconds = 0.05;
  /// Substring filter on benchmark names; empty runs everything.
  std::string filter;

  /// CI quick mode: fewer reps, shorter calibration target.
  static BenchOptions Quick() {
    BenchOptions options;
    options.reps = 5;
    options.warmup_reps = 1;
    options.min_rep_seconds = 0.01;
    return options;
  }
};

struct BenchResult {
  std::string name;
  std::uint64_t iterations = 0;  ///< per timed repetition
  int reps = 0;
  double median_ns = 0.0;  ///< per-iteration, median over reps
  double mad_ns = 0.0;     ///< median absolute deviation over reps
  double mean_ns = 0.0;
  double min_ns = 0.0;
  double max_ns = 0.0;
  double items_per_sec = 0.0;  ///< 0 when the benchmark declared no items
};

/// Median / MAD of `values` (copied; empty input yields 0).
double Median(std::vector<double> values);
double MedianAbsDeviation(const std::vector<double>& values, double median);

// --------------------------------------------------------------------------
// Overhead gates (chameleon_overhead_gate): instrumented vs bare arm.
// --------------------------------------------------------------------------

/// One arm of an overhead gate: runs the measured loop `iterations`
/// times and returns the wall nanoseconds it took. Arms time themselves
/// so per-repetition setup (starting a profiler) stays outside the
/// measurement.
using OverheadArm = std::function<double(std::uint64_t iterations)>;

struct OverheadCheck {
  std::string bare_name;          ///< BENCH row of the uninstrumented arm
  std::string instrumented_name;  ///< BENCH row of the instrumented arm
  OverheadArm bare;
  OverheadArm instrumented;
  double budget = 0.0;  ///< max relative overhead (0.02 = 2%)
};

struct OverheadVerdict {
  BenchResult bare;          ///< per-iteration stats, like every BENCH row
  BenchResult instrumented;  ///< per-iteration stats
  double overhead = 0.0;     ///< median delta / bare median
  double noise_ns = 0.0;     ///< 3x the larger MAD, per iteration
  bool pass = true;
};

/// The dual rule over alternating repetitions of both arms, each sample
/// the wall ns of one `iterations`-long repetition: fail only when the
/// overhead exceeds `budget` AND the median delta exceeds 3x the larger
/// MAD (jitter inside the noise floor is not overhead). Row names are
/// left empty.
OverheadVerdict JudgeOverhead(const std::vector<double>& bare_rep_ns,
                              const std::vector<double>& instrumented_rep_ns,
                              std::uint64_t iterations, double budget);

/// Calibrates the iteration count on the bare arm to ~150 ms per
/// repetition, times `reps` alternating bare/instrumented repetitions
/// (slow drift biases both arms equally), and judges them.
OverheadVerdict MeasureOverhead(const OverheadCheck& check, int reps);

/// Registry. Registration order is preserved; duplicate names are a
/// programming error and abort at registration time.
void RegisterBenchmark(std::string name, BenchFn fn);
std::vector<std::string> RegisteredBenchmarkNames();

/// Calibrates + measures one function (exposed for tests).
BenchResult MeasureBenchmark(std::string_view name, const BenchFn& fn,
                             const BenchOptions& options);

/// Runs every registered benchmark matching `options.filter`, logging one
/// line per benchmark to stderr.
std::vector<BenchResult> RunRegisteredBenchmarks(const BenchOptions& options);

/// The whole main() of a suite driver `tool`: parses --out (default
/// BENCH_<suite>.json), --quick, --reps, --filter and --list, runs the
/// registered benchmarks and writes them as suite `suite`. `summary` is
/// the --help headline. Exit 0 written, 1 nothing matched or the write
/// failed, 2 a usage error.
int RunSuiteMain(int argc, char** argv, std::string_view tool,
                 std::string_view suite, std::string_view summary);

/// A parsed (or about-to-be-written) BENCH_<suite>.json.
struct BenchSuite {
  std::string schema;  ///< "chameleon-bench-v1"
  std::string suite;   ///< e.g. "core"
  std::string git_sha;
  std::string git_describe;
  std::string hostname;  ///< from the "host" provenance block ("" pre-dates)
  std::int64_t cpus = 0;  ///< 0 when the file pre-dates the host block
  bool quick = false;
  std::vector<BenchResult> benchmarks;
};

inline constexpr std::string_view kBenchSchema = "chameleon-bench-v1";

/// Canonical BENCH JSON: pretty header with build/host provenance, one
/// benchmark object per line (which is what LoadBenchFile parses).
std::string BenchSuiteToJson(std::string_view suite,
                             const std::vector<BenchResult>& results,
                             const BenchOptions& options);

Status WriteBenchFile(const std::string& path, std::string_view suite,
                      const std::vector<BenchResult>& results,
                      const BenchOptions& options);

Result<BenchSuite> LoadBenchFile(const std::string& path);

// --------------------------------------------------------------------------
// Regression diffing (chameleon_bench_diff).
// --------------------------------------------------------------------------

struct DiffOptions {
  /// Relative slowdown that counts as a regression (0.10 = 10%).
  double rel_threshold = 0.10;
  /// Noise floor: the absolute delta must also exceed
  /// `mad_mult * max(baseline MAD, current MAD)`.
  double mad_mult = 3.0;
};

enum class DiffVerdict {
  kUnchanged,
  kImprovement,
  kRegression,
  kOnlyBaseline,  ///< benchmark disappeared (warning, not a failure)
  kOnlyCurrent,   ///< new benchmark (no baseline to compare)
};

struct DiffEntry {
  std::string name;
  double baseline_ns = 0.0;
  double current_ns = 0.0;
  double ratio = 0.0;  ///< current/baseline; 0 when either side is missing
  /// The noise floor this comparison used:
  /// `mad_mult * max(baseline MAD, current MAD)`. 0 when either side is
  /// missing. Surfaced in failure messages so a CI regression verdict is
  /// self-explanatory without rerunning locally.
  double noise_ns = 0.0;
  DiffVerdict verdict = DiffVerdict::kUnchanged;
};

struct DiffReport {
  std::vector<DiffEntry> entries;  ///< baseline order, new names appended
  int regressions = 0;
  int improvements = 0;
};

DiffReport CompareBenchSuites(const BenchSuite& baseline,
                              const BenchSuite& current,
                              const DiffOptions& options);

/// Human-readable table, one line per entry plus a verdict summary.
std::string FormatDiffReport(const DiffReport& report,
                             const DiffOptions& options);

}  // namespace chameleon::bench

/// Registers `fn` (a `void(chameleon::bench::BenchContext&)`) under its
/// own name at static-init time.
#define CHAMELEON_BENCHMARK(fn)                                  \
  [[maybe_unused]] static const bool chameleon_bench_reg_##fn =  \
      (::chameleon::bench::RegisterBenchmark(#fn, fn), true)

#endif  // CHAMELEON_BENCH_HARNESS_H_
