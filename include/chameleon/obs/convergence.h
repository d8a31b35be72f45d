#ifndef CHAMELEON_OBS_CONVERGENCE_H_
#define CHAMELEON_OBS_CONVERGENCE_H_

#include <cstdint>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "chameleon/obs/sink.h"
#include "chameleon/util/common.h"
#include "chameleon/util/stats.h"
#include "chameleon/util/status.h"

/// \file convergence.h
/// The one progress reporter of a Monte Carlo loop. A ConvergenceTracker
/// accumulates samples through the shared Welford implementation
/// (util/stats.h), maintains a confidence-interval half-width — Wilson
/// score for Bernoulli reliability indicators, normal approximation
/// otherwise — and answers ShouldStop() against two opt-in stopping
/// rules: an absolute CI half-width target and a relative-error bound.
/// Periodic `estimator_progress` JSONL records flow through the record
/// sink:
///
///   {"type":"estimator_progress","label":"reliability/two_terminal",
///    "t_ms":...,"samples":N,"mean":...,"stddev":...,"ci_halfwidth":...,
///    "rel_err":...,"rate_per_s":...,"total":T,"eta_s":...}
///                                           — plus "final":true and
///    "stopped_early":bool on the record written by Finish().
///
/// Emission policy: a record is written whenever the sample count crosses
/// a geometric checkpoint (min_samples, then doubling) or the time
/// throttle elapses. The checkpoints guarantee that any run long enough
/// to converge leaves several records with visibly shrinking half-widths
/// (hw ~ 1/sqrt(n) drops ~29% per doubling) even when it finishes in
/// milliseconds. Each emission is also the watchdog's flight-recorder
/// `kCheckpoint` pulse (label, samples, total) and, with `log`, a stderr
/// progress line (at most one per throttle interval, plus the final one).
///
/// Live trackers register themselves in a process-global table consumed
/// by the /statusz page; all mutable state is mutex-guarded so the status
/// server thread can snapshot mid-run.

namespace chameleon::obs {

/// Normal quantile of every 95% confidence interval the estimators
/// report.
inline constexpr double kConfidenceZ = 1.96;

/// Normal-approximation CI half-width: z * sqrt(variance / n).
/// Returns 0 for n == 0.
double NormalCiHalfwidth(double variance, std::uint64_t n, double z);

/// Wilson score interval half-width for a Bernoulli proportion with
/// `successes` hits out of `n` trials. Better behaved than the Wald
/// interval near p = 0 or 1 — exactly where high-reliability estimates
/// live. Returns 0 for n == 0.
double WilsonCiHalfwidth(std::uint64_t successes, std::uint64_t n, double z);

/// The stopping rule every estimator applies to a CI half-width `hw`
/// around `mean`: true when hw <= target_ci_halfwidth, or when
/// hw <= max_rel_err * |mean| with a non-zero mean (a rule at 0 is off).
bool MeetsStoppingRule(double hw, double mean, double target_ci_halfwidth,
                       double max_rel_err);

struct ConvergenceOptions {
  /// Stop once the CI half-width falls to this value (0 = rule off).
  double target_ci_halfwidth = 0.0;
  /// Stop once half-width <= max_rel_err * |mean| (0 = rule off).
  double max_rel_err = 0.0;
  /// No stopping decision before this many samples.
  std::uint64_t min_samples = 100;
  /// Treat samples as Bernoulli indicators (Wilson half-width).
  bool bernoulli = false;
  /// Most samples the loop takes, for percentage and ETA (0 = unknown).
  std::uint64_t total = 0;
  /// Log the throttled progress line while observability is enabled.
  bool log = false;
  /// Time throttle for periodic emission between geometric checkpoints,
  /// and for the progress line.
  std::uint64_t min_emit_interval_nanos = 500'000'000;
  /// Explicit sink; when null and `use_global_sink`, the process-global
  /// sink is used (if observability is enabled).
  RecordSink* sink = nullptr;
  bool use_global_sink = true;
};

/// Point-in-time view of a tracker, for /statusz and tests.
struct ConvergenceSnapshot {
  std::string label;
  std::uint64_t samples = 0;
  double mean = 0.0;
  double stddev = 0.0;
  double ci_halfwidth = 0.0;
  /// ci_halfwidth / |mean|; 0 when the mean is 0.
  double rel_err = 0.0;
  double rate_per_s = 0.0;
  /// options.total (0 = unknown).
  std::uint64_t total = 0;
  /// Seconds left at the current rate (0 once finished or unknown).
  double eta_s = 0.0;
  bool finished = false;
  bool stopped_early = false;
};

class ConvergenceTracker {
 public:
  explicit ConvergenceTracker(std::string_view label,
                              ConvergenceOptions options = {});
  ~ConvergenceTracker();
  CHAMELEON_DISALLOW_COPY_AND_ASSIGN(ConvergenceTracker);

  /// Records one sample; with options.bernoulli, a non-zero sample is a
  /// success for the Wilson half-width.
  void Add(double x);

  /// Records one Bernoulli indicator (Add of 1 or 0).
  void AddBernoulli(bool success) { Add(success ? 1.0 : 0.0); }

  /// True when a stopping rule is configured, min_samples is met, and
  /// the current half-width satisfies the target or relative-error rule.
  bool ShouldStop() const;

  /// True when either stopping rule is configured.
  bool has_stopping_rule() const {
    return options_.target_ci_halfwidth > 0.0 || options_.max_rel_err > 0.0;
  }

  ConvergenceSnapshot Snapshot() const;

  /// Emits the final estimator_progress record and progress line
  /// (idempotent; the destructor calls Finish(false) if nobody did) and
  /// publishes the convergence gauges so the stopping decision lands in
  /// run_summary.
  void Finish(bool stopped_early);

  /// Number of estimator_progress records written (throttle tests).
  std::uint64_t emit_count() const;

 private:
  ConvergenceSnapshot SnapshotLocked() const;
  void MaybeEmitLocked();
  void EmitLocked();

  const std::string label_;
  ConvergenceOptions options_;
  const std::uint64_t start_nanos_;

  mutable std::mutex mu_;
  RunningStats stats_;
  std::uint64_t successes_ = 0;
  std::uint64_t next_checkpoint_;
  std::uint64_t last_emit_nanos_ = 0;
  std::uint64_t last_log_nanos_ = 0;
  std::uint64_t emit_count_ = 0;
  bool finished_ = false;
  bool stopped_early_ = false;
};

/// Snapshots of every live (constructed, not yet destroyed) tracker in
/// the process, for the /statusz convergence table.
std::vector<ConvergenceSnapshot> LiveConvergenceSnapshots();

/// Publishes the `convergence/<label>/{samples,mean,ci_halfwidth,
/// rate_per_s,early_stop}` gauges of every live tracker into the global
/// registry (used by the /metricsz handler so mid-run scrapes see current
/// convergence state). Finish() writes the same set for its tracker.
void PublishConvergenceGauges();

/// Logs the one stderr progress line of a Monte Carlo loop, for the
/// tracker and for loops with their own rounds (relevance):
///   [label] done/total (pct%), rate/s, ETA es
/// ending ", finished in Xs" instead when final; no total part when the
/// total is 0 (unknown).
void LogProgress(std::string_view label, std::uint64_t done,
                 std::uint64_t total, double elapsed_s, bool final);

/// InvalidArgument unless a stopping-rule target is finite and >= 0
/// (0 = off); anything else would silently switch the rule off.
Status ValidateStoppingTarget(std::string_view name, double value);

}  // namespace chameleon::obs

#endif  // CHAMELEON_OBS_CONVERGENCE_H_
