#include "chameleon/obs/convergence.h"

#include <algorithm>
#include <cmath>

#include "chameleon/obs/flight_recorder.h"
#include "chameleon/obs/obs.h"
#include "chameleon/util/logging.h"
#include "chameleon/util/string_util.h"
#include "chameleon/util/timer.h"

namespace chameleon::obs {
namespace {

/// Live-tracker table for /statusz. Leaked on purpose (like the obs
/// lifecycle globals) so trackers destroyed during process teardown never
/// race a destructed mutex.
std::mutex& TrackersMu() {
  static std::mutex* mu = new std::mutex();
  return *mu;
}

std::vector<ConvergenceTracker*>& Trackers() {
  static auto* trackers = new std::vector<ConvergenceTracker*>();
  return *trackers;
}

double RatePerSecond(std::uint64_t done, double elapsed_s) {
  return elapsed_s > 0.0 ? static_cast<double>(done) / elapsed_s : 0.0;
}

double EtaSeconds(std::uint64_t done, std::uint64_t total, double rate) {
  return total > done && rate > 0.0 ? static_cast<double>(total - done) / rate
                                    : 0.0;
}

/// The one gauge set of a tracker, for Finish() and /metricsz scrapes.
/// Gauge writes go through the same runtime gate as the CHOBS_* macros.
void SetGauges(const ConvergenceSnapshot& s) {
  if (!Enabled()) return;
  MetricsRegistry& metrics = GlobalMetrics();
  const std::string prefix = "convergence/" + s.label;
  metrics.SetGauge(prefix + "/samples", static_cast<double>(s.samples));
  metrics.SetGauge(prefix + "/mean", s.mean);
  metrics.SetGauge(prefix + "/ci_halfwidth", s.ci_halfwidth);
  metrics.SetGauge(prefix + "/rate_per_s", s.rate_per_s);
  metrics.SetGauge(prefix + "/early_stop", s.stopped_early ? 1.0 : 0.0);
}

}  // namespace

double NormalCiHalfwidth(double variance, std::uint64_t n, double z) {
  if (n == 0) return 0.0;
  return z * std::sqrt(std::max(0.0, variance) / static_cast<double>(n));
}

double WilsonCiHalfwidth(std::uint64_t successes, std::uint64_t n, double z) {
  if (n == 0) return 0.0;
  const double nd = static_cast<double>(n);
  const double p = static_cast<double>(successes) / nd;
  const double z2 = z * z;
  const double radicand = p * (1.0 - p) / nd + z2 / (4.0 * nd * nd);
  return z * std::sqrt(radicand) / (1.0 + z2 / nd);
}

bool MeetsStoppingRule(double hw, double mean, double target_ci_halfwidth,
                       double max_rel_err) {
  if (target_ci_halfwidth > 0.0 && hw <= target_ci_halfwidth) return true;
  const double magnitude = std::abs(mean);
  return max_rel_err > 0.0 && magnitude > 0.0 &&
         hw <= max_rel_err * magnitude;
}

ConvergenceTracker::ConvergenceTracker(std::string_view label,
                                       ConvergenceOptions options)
    : label_(label),
      options_(options),
      start_nanos_(MonotonicNanos()),
      next_checkpoint_(std::max<std::uint64_t>(options.min_samples, 1)) {
  if (options_.sink == nullptr && options_.use_global_sink && Enabled()) {
    options_.sink = GlobalSink();
  }
  // Logging is tied to the global enable switch so an uninstrumented run
  // stays silent.
  options_.log = options_.log && Enabled();
  // First time-throttled emission (and progress line) waits a full
  // interval; the first checkpoint emission still fires at min_samples.
  last_emit_nanos_ = last_log_nanos_ = start_nanos_;
  const std::lock_guard<std::mutex> lock(TrackersMu());
  Trackers().push_back(this);
}

ConvergenceTracker::~ConvergenceTracker() {
  {
    const std::lock_guard<std::mutex> lock(TrackersMu());
    std::vector<ConvergenceTracker*>& trackers = Trackers();
    trackers.erase(std::remove(trackers.begin(), trackers.end(), this),
                   trackers.end());
  }
  Finish(/*stopped_early=*/false);
}

void ConvergenceTracker::Add(double x) {
  const std::lock_guard<std::mutex> lock(mu_);
  stats_.Add(x);
  if (options_.bernoulli && x != 0.0) ++successes_;
  MaybeEmitLocked();
}

bool ConvergenceTracker::ShouldStop() const {
  if (!has_stopping_rule()) return false;
  const std::lock_guard<std::mutex> lock(mu_);
  const std::uint64_t n = stats_.count();
  if (n < options_.min_samples || n < 2) return false;
  const double hw = options_.bernoulli
                        ? WilsonCiHalfwidth(successes_, n, kConfidenceZ)
                        : NormalCiHalfwidth(stats_.variance(), n, kConfidenceZ);
  return MeetsStoppingRule(hw, stats_.mean(), options_.target_ci_halfwidth,
                           options_.max_rel_err);
}

ConvergenceSnapshot ConvergenceTracker::SnapshotLocked() const {
  ConvergenceSnapshot snapshot;
  snapshot.label = label_;
  snapshot.samples = stats_.count();
  snapshot.mean = stats_.mean();
  snapshot.stddev = stats_.stddev();
  snapshot.ci_halfwidth =
      options_.bernoulli
          ? WilsonCiHalfwidth(successes_, snapshot.samples, kConfidenceZ)
          : NormalCiHalfwidth(stats_.variance(), snapshot.samples,
                              kConfidenceZ);
  snapshot.rel_err = snapshot.mean != 0.0
                         ? snapshot.ci_halfwidth / std::abs(snapshot.mean)
                         : 0.0;
  const double elapsed_s =
      static_cast<double>(MonotonicNanos() - start_nanos_) * 1e-9;
  snapshot.rate_per_s = RatePerSecond(snapshot.samples, elapsed_s);
  snapshot.total = options_.total;
  snapshot.eta_s = finished_ ? 0.0
                             : EtaSeconds(snapshot.samples, options_.total,
                                          snapshot.rate_per_s);
  snapshot.finished = finished_;
  snapshot.stopped_early = stopped_early_;
  return snapshot;
}

ConvergenceSnapshot ConvergenceTracker::Snapshot() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return SnapshotLocked();
}

void ConvergenceTracker::MaybeEmitLocked() {
  if (options_.sink == nullptr && !options_.log) return;
  const std::uint64_t n = stats_.count();
  const bool checkpoint = n >= next_checkpoint_;
  while (next_checkpoint_ <= n) next_checkpoint_ *= 2;
  const std::uint64_t now = MonotonicNanos();
  if (!checkpoint &&
      now - last_emit_nanos_ < options_.min_emit_interval_nanos) {
    return;
  }
  last_emit_nanos_ = now;
  EmitLocked();
}

void ConvergenceTracker::EmitLocked() {
  if (options_.sink == nullptr && !options_.log) return;
  const ConvergenceSnapshot s = SnapshotLocked();
  // Estimator checkpoints feed the flight recorder / watchdog activity
  // pulse (lock-free; mu_ being held here is irrelevant to it).
  CHOBS_FLIGHT_EVENT(kCheckpoint, label_, s.samples, s.total);
  if (options_.sink != nullptr) {
    std::string line = StrFormat(
        "{\"type\":\"estimator_progress\",\"label\":\"%s\",\"t_ms\":%llu,"
        "\"samples\":%llu,\"mean\":%.9g,\"stddev\":%.9g,"
        "\"ci_halfwidth\":%.9g,\"rel_err\":%.9g,\"rate_per_s\":%.1f,"
        "\"total\":%llu,\"eta_s\":%.2f",
        JsonEscape(label_).c_str(),
        static_cast<unsigned long long>(WallUnixMillis()),
        static_cast<unsigned long long>(s.samples), s.mean, s.stddev,
        s.ci_halfwidth, s.rel_err, s.rate_per_s,
        static_cast<unsigned long long>(s.total), s.eta_s);
    if (s.finished) {
      line += StrFormat(",\"final\":true,\"stopped_early\":%s",
                        s.stopped_early ? "true" : "false");
    }
    line += '}';
    options_.sink->Write(line);
    ++emit_count_;
  }
  if (!options_.log) return;
  const std::uint64_t now = MonotonicNanos();
  if (!s.finished &&
      now - last_log_nanos_ < options_.min_emit_interval_nanos) {
    return;
  }
  last_log_nanos_ = now;
  LogProgress(label_, s.samples, s.total,
              static_cast<double>(now - start_nanos_) * 1e-9, s.finished);
}

void ConvergenceTracker::Finish(bool stopped_early) {
  ConvergenceSnapshot s;
  {
    const std::lock_guard<std::mutex> lock(mu_);
    if (finished_) return;
    finished_ = true;
    stopped_early_ = stopped_early;
    EmitLocked();
    s = SnapshotLocked();
  }
  // Final gauges record the stopping decision in the next snapshot /
  // run_summary.
  SetGauges(s);
}

std::uint64_t ConvergenceTracker::emit_count() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return emit_count_;
}

std::vector<ConvergenceSnapshot> LiveConvergenceSnapshots() {
  const std::lock_guard<std::mutex> lock(TrackersMu());
  std::vector<ConvergenceSnapshot> snapshots;
  snapshots.reserve(Trackers().size());
  for (const ConvergenceTracker* tracker : Trackers()) {
    snapshots.push_back(tracker->Snapshot());
  }
  return snapshots;
}

void PublishConvergenceGauges() {
  if (!Enabled()) return;
  for (const ConvergenceSnapshot& s : LiveConvergenceSnapshots()) {
    SetGauges(s);
  }
}

void LogProgress(std::string_view label, std::uint64_t done,
                 std::uint64_t total, double elapsed_s, bool final) {
  const double rate = RatePerSecond(done, elapsed_s);
  std::string text =
      StrFormat("[%.*s] %llu", static_cast<int>(label.size()), label.data(),
                static_cast<unsigned long long>(done));
  if (total > 0) {
    text += StrFormat("/%llu (%.1f%%)", static_cast<unsigned long long>(total),
                      100.0 * static_cast<double>(done) /
                          static_cast<double>(total));
  }
  text += StrFormat(", %.0f/s", rate);
  if (final) {
    text += StrFormat(", finished in %.2fs", elapsed_s);
  } else if (total > 0) {
    text += StrFormat(", ETA %.1fs", EtaSeconds(done, total, rate));
  }
  CH_LOG(Info) << text;
}

Status ValidateStoppingTarget(std::string_view name, double value) {
  if (std::isfinite(value) && value >= 0.0) return Status::OK();
  return Status::InvalidArgument(
      StrFormat("%.*s must be finite and >= 0 (got %g)",
                static_cast<int>(name.size()), name.data(), value));
}

}  // namespace chameleon::obs
