// Converts a chameleon metrics JSONL stream into Chrome trace-event JSON
// loadable by chrome://tracing and https://ui.perfetto.dev:
//
//   chameleon_mc_reliability --metrics_out=run.jsonl ...
//   chameleon_trace_export run.jsonl run.trace.json
//
// Spans become "X" complete events on the monotonic timeline (one track
// per thread), snapshots become instant markers, estimator progress
// records become counter tracks, and the run manifest names the process
// and lands in the trace's otherData.

#include <cstdio>
#include <optional>

#include "chameleon/obs/run_context.h"
#include "chameleon/obs/trace_export.h"
#include "chameleon/util/flags.h"
#include "cli.h"

namespace chameleon {
namespace {

int Run(int argc, char** argv) {
  FlagSet flags(
      "chameleon_trace_export: convert a metrics JSONL stream to Chrome "
      "trace-event JSON (chrome://tracing, ui.perfetto.dev)\n"
      "usage: chameleon_trace_export <metrics.jsonl> <out.trace.json>");
  if (const std::optional<int> exit_code =
          cli::ParseCommandLine(flags, "chameleon_trace_export", argc, argv)) {
    return *exit_code;
  }
  if (flags.positional().size() != 2) {
    std::fprintf(stderr,
                 "error: expected <metrics.jsonl> <out.trace.json>\n%s",
                 flags.Usage().c_str());
    return 2;
  }
  static_cast<void>(obs::InstallCrashForensics());

  const Result<obs::TraceExportStats> stats = obs::ExportChromeTrace(
      flags.positional()[0], flags.positional()[1]);
  if (!stats.ok()) {
    std::fprintf(stderr, "error: %s\n", stats.status().ToString().c_str());
    return 1;
  }
  std::fprintf(stdout,
               "wrote %s: %zu spans, %zu snapshots, %zu progress events%s"
               "%s\n",
               flags.positional()[1].c_str(), stats->spans, stats->snapshots,
               stats->progress,
               stats->saw_manifest ? ", manifest" : ", no manifest",
               stats->skipped_lines > 0 ? " (some lines skipped)" : "");
  if (stats->skipped_lines > 0) {
    std::fprintf(stderr, "warning: skipped %zu non-record lines\n",
                 stats->skipped_lines);
  }
  return 0;
}

}  // namespace
}  // namespace chameleon

int main(int argc, char** argv) { return chameleon::Run(argc, argv); }
