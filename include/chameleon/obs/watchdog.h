#ifndef CHAMELEON_OBS_WATCHDOG_H_
#define CHAMELEON_OBS_WATCHDOG_H_

/// Stall watchdog: a background thread that watches every live span's
/// activity pulse — span opens/closes and estimator progress
/// checkpoints all land in the flight recorder, so "progress" means
/// "this thread recorded a flight event recently". When the innermost
/// span on some thread sits idle past the configured interval, the
/// watchdog emits one `watchdog_stall` JSONL record for the stall
/// onset; if `abort_after_seconds` is set and the stall persists that
/// much longer, it raises SIGABRT so the crash handler turns the hung
/// run into a full forensics dump (backtrace + ring tails) instead of
/// an eternal silent hang.
///
/// The same per-phase liveness view backs the status server's /healthz
/// endpoint: HTTP 200 with a per-phase table while everything moves,
/// 503 once any phase stalls.

#include <cstdint>
#include <string>
#include <vector>

#include "chameleon/obs/sink.h"
#include "chameleon/util/status.h"

namespace chameleon {
namespace obs {

struct WatchdogOptions {
  /// A phase with no activity for this long is stalled. Must be > 0.
  double stall_seconds = 30.0;
  /// Once a stall persists this much longer than stall_seconds, raise
  /// SIGABRT (0 = never abort, just keep reporting).
  double abort_after_seconds = 0.0;
  /// Poll cadence; 0 picks stall_seconds / 4, clamped to [50 ms, 1 s].
  double poll_interval_seconds = 0.0;
  /// Records go here; null means the process-global sink at emit time.
  RecordSink* sink = nullptr;
};

/// Starts the singleton watchdog thread. InvalidArgument on a
/// non-positive stall interval, FailedPrecondition when already
/// running.
Status StartGlobalWatchdog(const WatchdogOptions& options = {});

/// Stops and joins the watchdog thread; no-op when not running.
/// FinalizeRun calls this before writing the run_summary.
void StopGlobalWatchdog();

bool WatchdogRunning();

/// Liveness of one phase: the innermost open span on one thread.
struct PhaseHealth {
  std::string path;            ///< span path
  std::uint32_t tid = 0;       ///< owning thread index
  double open_seconds = 0.0;   ///< how long the span has been open
  double idle_seconds = 0.0;   ///< since the thread's last activity
  bool stalled = false;        ///< idle_seconds > the stall threshold
};

/// Current per-phase liveness, judged against the running watchdog's
/// stall threshold (or WatchdogOptions{}.stall_seconds when the
/// watchdog is off). Usable any time; /healthz renders this.
std::vector<PhaseHealth> WatchdogPhaseHealth();

/// Plain-text /healthz body: watchdog state + one line per phase,
/// ending with "overall: OK" or "overall: STALLED".
std::string HealthzText();

}  // namespace obs
}  // namespace chameleon

#endif  // CHAMELEON_OBS_WATCHDOG_H_
