#include "cli.h"

#include <cstdint>
#include <cstdio>
#include <cstdlib>

#include "chameleon/obs/heap_profiler.h"
#include "chameleon/obs/obs.h"
#include "chameleon/obs/profiler.h"
#include "chameleon/obs/status_server.h"
#include "chameleon/obs/watchdog.h"
#include "chameleon/util/string_util.h"

namespace chameleon::cli {
namespace {

/// Output paths of the running StartRun session, for FinishRun's
/// summary lines.
std::string& ProfileOut() {
  static std::string path;
  return path;
}
std::string& HeapProfileOut() {
  static std::string path;
  return path;
}

void WarnIfFailed(const Status& status, const char* what) {
  if (!status.ok()) {
    std::fprintf(stderr, "warning: %s disabled: %s\n", what,
                 status.ToString().c_str());
  }
}

}  // namespace

std::optional<int> ParseCommandLine(
    FlagSet& flags, std::string_view tool, int argc, char** argv,
    std::initializer_list<std::string_view> count_flags) {
  flags.AddBool("version", false, "print build provenance and exit");
  flags.AddBool("help", false, "show usage");
  Status s = flags.Parse(argc - 1, argv + 1);
  for (const std::string_view name : count_flags) {
    if (s.ok() && flags.GetInt64(name) < 0) {
      s = Status::InvalidArgument(StrFormat(
          "--%.*s must be >= 0 (got %lld)", static_cast<int>(name.size()),
          name.data(), static_cast<long long>(flags.GetInt64(name))));
    }
  }
  if (!s.ok()) {
    std::fprintf(stderr, "error: %s\n%s", s.ToString().c_str(),
                 flags.Usage().c_str());
    return 2;
  }
  if (flags.GetBool("help")) {
    std::fprintf(stdout, "%s", flags.Usage().c_str());
    return 0;
  }
  if (flags.GetBool("version")) {
    std::fprintf(stdout, "%s", obs::VersionString(tool).c_str());
    return 0;
  }
  return std::nullopt;
}

std::string FlagOrFirstPositional(const FlagSet& flags,
                                  std::string_view name) {
  const std::string& value = flags.GetString(name);
  if (value.empty() && !flags.positional().empty()) {
    return flags.positional().front();
  }
  return value;
}

Status WriteTextFile(const std::string& path, const std::string& text) {
  std::FILE* file = std::fopen(path.c_str(), "w");
  if (file == nullptr) {
    return Status::IoError("cannot open " + path + " for writing");
  }
  const std::size_t written = std::fwrite(text.data(), 1, text.size(), file);
  const int close_rc = std::fclose(file);
  if (written != text.size() || close_rc != 0) {
    return Status::IoError("short write to " + path);
  }
  return Status::OK();
}

void AddRunFlags(FlagSet& flags) {
  flags.AddString("metrics_out", "",
                  "JSONL metrics/trace sink (also: $CHAMELEON_METRICS)");
  flags.AddBool("hw_counters", true,
                "attribute hardware counters (perf_event_open) to spans; "
                "degrades to a hw_counters_unavailable note when the "
                "kernel refuses");
  flags.AddString("profile", "",
                  "sample CPU for the whole run and write folded collapsed "
                  "stacks (flamegraph.pl input) to this path");
  flags.AddInt64("profile_hz", 99, "sampling frequency per CPU-second");
  flags.AddString("heap_profile", "",
                  "sample heap allocations for the whole run, emit "
                  "heap_profile records, and write folded collapsed "
                  "stacks (flamegraph.pl input) to this path");
  flags.AddInt64("heap_sample_bytes",
                 static_cast<std::int64_t>(obs::kDefaultHeapSampleBytes),
                 "mean bytes between heap samples (smaller = finer "
                 "attribution, more overhead)");
  flags.AddDouble("watchdog_stall_seconds", 0.0,
                  "emit a watchdog_stall record when a phase makes no "
                  "progress for this long (0 = watchdog off)");
  flags.AddDouble("watchdog_abort_after", 0.0,
                  "SIGABRT (-> crash forensics dump) once a stall persists "
                  "this many seconds past --watchdog_stall_seconds (0 = "
                  "never abort)");
}

Status StartRun(const FlagSet& flags, const obs::RunManifest& manifest,
                std::int64_t statusz_port) {
  // Crash forensics before anything heavy runs: a SIGSEGV from here on
  // leaves a `crash` record + flight-recorder dump in the JSONL stream
  // (or at least a symbolized backtrace on stderr).
  WarnIfFailed(obs::InstallCrashForensics(), "crash forensics");

  ProfileOut() = flags.GetString("profile");
  HeapProfileOut() = flags.GetString("heap_profile");
  const double watchdog_stall = flags.GetDouble("watchdog_stall_seconds");

  obs::ObsOptions obs_options;
  obs_options.metrics_out = flags.GetString("metrics_out");
  obs_options.hw_counters = flags.GetBool("hw_counters");
  if (obs_options.metrics_out.empty() &&
      (statusz_port >= 0 || !ProfileOut().empty() ||
       !HeapProfileOut().empty() || watchdog_stall > 0.0) &&
      std::getenv("CHAMELEON_METRICS") == nullptr) {
    // The status server, the profilers and the watchdog render from the
    // live obs registries, which only run when a sink exists; a
    // discarded stream keeps them live without forcing the user to pick
    // a metrics path.
    obs_options.metrics_out = "/dev/null";
  }
  CHAMELEON_RETURN_IF_ERROR(obs::InitObservability(obs_options));

  if (statusz_port >= 0) {
    obs::StatusServerOptions server_options;
    server_options.port = static_cast<int>(statusz_port);
    CHAMELEON_RETURN_IF_ERROR(obs::StartGlobalStatusServer(server_options));
    std::fprintf(stderr, "statusz: http://127.0.0.1:%d/statusz\n",
                 obs::GlobalStatusServer()->port());
  }
  if (watchdog_stall > 0.0) {
    obs::WatchdogOptions watchdog_options;
    watchdog_options.stall_seconds = watchdog_stall;
    watchdog_options.abort_after_seconds =
        flags.GetDouble("watchdog_abort_after");
    WarnIfFailed(obs::StartGlobalWatchdog(watchdog_options), "watchdog");
  }
  // An OBS=OFF build, a sanitizer build or a non-Linux host still runs,
  // just without the profile; FinalizeRun notes why in the stream.
  if (!ProfileOut().empty()) {
    obs::ProfilerOptions profiler_options;
    profiler_options.hz = static_cast<int>(flags.GetInt64("profile_hz"));
    profiler_options.folded_out = ProfileOut();
    WarnIfFailed(obs::StartGlobalProfiler(profiler_options), "profiler");
  }
  if (!HeapProfileOut().empty()) {
    obs::HeapProfilerOptions heap_options;
    heap_options.sample_bytes =
        static_cast<std::size_t>(flags.GetInt64("heap_sample_bytes"));
    heap_options.folded_out = HeapProfileOut();
    WarnIfFailed(obs::StartHeapProfiler(heap_options), "heap profiler");
  }
  obs::EmitRunManifest(manifest);
  return Status::OK();
}

void FinishRun() {
  if (obs::ProfilerRunning()) {
    // Explicit stop (FinalizeRun would also do it) so the sample count
    // lands on stdout next to the tool's results.
    if (Result<obs::ProfileReport> profile = obs::StopGlobalProfiler();
        profile.ok()) {
      std::fprintf(stdout, "profile: %llu samples (%llu dropped) -> %s\n",
                   static_cast<unsigned long long>(profile->samples),
                   static_cast<unsigned long long>(profile->dropped),
                   ProfileOut().c_str());
    } else {
      std::fprintf(stderr, "warning: profiler stop failed: %s\n",
                   profile.status().ToString().c_str());
    }
  }
  if (obs::HeapProfilerActive()) {
    // Snapshot only — FinalizeRun (inside ShutdownObservability) emits
    // the heap_profile records and stops the sampler, so stopping here
    // would replace them with an "unavailable" note.
    const obs::HeapProfileReport heap =
        obs::SnapshotHeapProfile(/*symbolize=*/false);
    std::fprintf(stdout,
                 "heap: %llu samples, est peak %.2f MiB, exact cum "
                 "%.2f MiB -> %s\n",
                 static_cast<unsigned long long>(heap.samples),
                 static_cast<double>(heap.est_peak_bytes) / 1048576.0,
                 static_cast<double>(heap.exact_cum_bytes) / 1048576.0,
                 HeapProfileOut().c_str());
  }
  obs::ShutdownObservability();
}

}  // namespace chameleon::cli
