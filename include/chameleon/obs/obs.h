#ifndef CHAMELEON_OBS_OBS_H_
#define CHAMELEON_OBS_OBS_H_

#include <cstdint>
#include <string>
#include <string_view>

#include "chameleon/obs/metrics.h"
#include "chameleon/obs/sink.h"
#include "chameleon/obs/trace.h"
#include "chameleon/util/status.h"

/// \file obs.h
/// Umbrella header and process lifecycle for the observability layer.
///
/// Enablement has two levels:
///  * Compile time: the CMake option CHAMELEON_OBS sets
///    CHAMELEON_OBS_ENABLED; when 0, every CHOBS_* macro expands to a
///    no-op and instrumented code carries zero cost.
///  * Run time: instrumentation is compiled in but dormant (one relaxed
///    atomic load per macro hit) until InitObservability() configures a
///    sink — from the `--metrics_out=` flag or the CHAMELEON_METRICS
///    environment variable.
///
/// Typical tool main():
///   obs::ObsOptions opts;
///   opts.metrics_out = flags.GetString("metrics_out");
///   CH_CHECK(obs::InitObservability(opts).ok());
///   ... run phases, obs::EmitSnapshot("phase_name") after each ...
///   obs::ShutdownObservability();   // writes the final run_summary

#ifndef CHAMELEON_OBS_ENABLED
#define CHAMELEON_OBS_ENABLED 1
#endif

namespace chameleon::obs {

struct ObsOptions {
  /// JSONL output path. Empty: fall back to $CHAMELEON_METRICS (when
  /// `read_env`); still empty: observability stays disabled.
  std::string metrics_out;
  bool read_env = true;
  /// Open per-thread hardware counter groups (perf_event_open) and
  /// attribute deltas to spans. When the kernel refuses (paranoid,
  /// seccomp, no PMU) or this is false, the run carries exactly one
  /// hw_counters_unavailable record instead. CHAMELEON_HW_COUNTERS
  /// overrides: off|0|false, emulate, perf, auto.
  bool hw_counters = true;
};

/// Configures the global sink/tracer and flips the runtime switch.
/// Calling it again tears the previous run down (final summary included)
/// and starts a new one. Returns IoError when the sink path is not
/// writable; the process is left disabled in that case.
///
/// The first successful init also installs abnormal-termination hooks
/// (atexit + SIGINT/SIGTERM) that write the final run_summary and flush
/// the sink, so a killed Monte Carlo run still leaves a usable partial
/// record. A signal-triggered summary carries a `"signal":N` field and
/// the process still dies by that signal afterwards.
Status InitObservability(const ObsOptions& options = {});

/// Emits the "run_summary" record (total wall time + full metrics
/// snapshot), flushes the sink, and disables the runtime switch.
/// No-op when disabled.
void ShutdownObservability();

/// Finalizes the run exactly as the termination hooks do on a fatal
/// signal: stops the status server, watchdog, and profiler, dumps the
/// flight recorder, then writes a run_summary annotated with
/// `signal_number` (>= 0). Idempotent (the first finalizer wins). The
/// crash handler calls this after its `crash` record; normal code wants
/// ShutdownObservability() instead.
void FinalizeRunForSignal(int signal_number);

/// Runtime switch; one relaxed atomic load.
bool Enabled();

/// The registry behind the CHOBS_* macros (always usable, even when
/// disabled — tests drive it directly).
MetricsRegistry& GlobalMetrics();

/// Global tracer / sink; null until InitObservability() succeeds.
Tracer* GlobalTracer();
RecordSink* GlobalSink();

/// Writes a labelled full-registry snapshot record to the sink. Call at
/// phase boundaries. No-op when disabled.
void EmitSnapshot(std::string_view label);

/// Monotonic timestamp of the most recent InitObservability(); 0 when no
/// run was ever initialized. Feeds the /statusz uptime line.
std::uint64_t RunStartNanos();

/// Test hook: flips the runtime switch without touching sink/tracer.
void SetEnabledForTesting(bool enabled);

}  // namespace chameleon::obs

// ---------------------------------------------------------------------------
// Instrumentation macros. Library code uses these, never the classes
// directly, so a -DCHAMELEON_OBS=OFF build compiles instrumentation out.
// ---------------------------------------------------------------------------

#if CHAMELEON_OBS_ENABLED

/// Adds `delta` to counter `name` (no-op while disabled).
#define CHOBS_COUNT(name, delta)                              \
  do {                                                        \
    if (::chameleon::obs::Enabled()) {                        \
      ::chameleon::obs::GlobalMetrics().Count((name), (delta)); \
    }                                                         \
  } while (0)

/// Sets gauge `name` (no-op while disabled).
#define CHOBS_GAUGE(name, value)                                   \
  do {                                                             \
    if (::chameleon::obs::Enabled()) {                             \
      ::chameleon::obs::GlobalMetrics().SetGauge((name), (value)); \
    }                                                              \
  } while (0)

/// Records a latency observation (no-op while disabled).
#define CHOBS_OBSERVE(name, nanos)                                 \
  do {                                                             \
    if (::chameleon::obs::Enabled()) {                             \
      ::chameleon::obs::GlobalMetrics().Observe((name), (nanos));  \
    }                                                              \
  } while (0)

/// Declares an RAII trace span named `var` on the global tracer.
#define CHOBS_SPAN(var, ...) ::chameleon::obs::TraceSpan var{__VA_ARGS__}

#else  // !CHAMELEON_OBS_ENABLED

#define CHOBS_COUNT(name, delta) \
  do {                           \
  } while (0)
#define CHOBS_GAUGE(name, value) \
  do {                           \
  } while (0)
#define CHOBS_OBSERVE(name, nanos) \
  do {                             \
  } while (0)
#define CHOBS_SPAN(var, ...) \
  [[maybe_unused]] ::chameleon::obs::NullSpan var {}

#endif  // CHAMELEON_OBS_ENABLED

#endif  // CHAMELEON_OBS_OBS_H_
