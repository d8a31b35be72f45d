// Tails a chameleon metrics JSONL stream and renders live progress: one
// line per estimator progress record, ending with the run summary. Point
// it at the file a long Monte Carlo run is writing:
//
//   chameleon_mc_reliability --worlds=100000000 --metrics_out=run.jsonl &
//   chameleon_watch run.jsonl
//   [reliability/two_terminal] n=2097152 mean=0.2513 ci_halfwidth=0.000587 (1.3e+06/s) 2097152/100000000 (2.1%) ETA 75.3s
//   ...
//   run finished: wall 32188.4 ms
//
// Follows the file until a run_summary record arrives (or forever with a
// stream that never finishes — interrupt with Ctrl-C). --once renders the
// current contents, prints a final convergence table, and exits; use it
// on completed runs and in scripts.

#include <chrono>
#include <cstdio>
#include <fstream>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "chameleon/obs/run_context.h"
#include "chameleon/obs/sink.h"
#include "chameleon/util/flags.h"
#include "chameleon/util/status.h"
#include "chameleon/util/string_util.h"
#include "cli.h"

namespace chameleon {
namespace {

bool Flag(std::string_view line, std::string_view key) {
  return obs::JsonlBoolField(line, key).value_or(false);
}

struct WatchState {
  std::map<std::string, std::string> last_estimator_line;
  std::set<std::string> unknown_types_noted;
  std::size_t records = 0;
  bool summary_seen = false;
  double wall_ms = 0.0;
};

/// Renders one JSONL record as a human line; empty string for record
/// types the watcher does not surface (spans, snapshots). Unknown types
/// are forward-compatible passthrough: they count toward the record
/// total and produce one stderr note per type, never a per-record
/// warning — newer writers may emit records this build has never heard
/// of.
std::string RenderRecord(const std::string& line, WatchState* state) {
  const auto type = obs::JsonlStringField(line, "type");
  if (!type.has_value()) return "";
  ++state->records;
  if (!obs::IsKnownRecordType(*type)) {
    if (state->unknown_types_noted.insert(*type).second) {
      std::fprintf(stderr,
                   "note: passing through unknown record type \"%s\"\n",
                   type->c_str());
    }
    return "";
  }
  if (*type == "manifest") {
    const auto tool = obs::JsonlStringField(line, "tool");
    const auto describe = obs::JsonlStringField(line, "git_describe");
    return StrFormat("watching %s (%s)\n", tool.value_or("?").c_str(),
                     describe.value_or("unknown build").c_str());
  }
  if (*type == "estimator_progress") {
    const auto label = obs::JsonlStringField(line, "label");
    const double samples =
        obs::JsonlNumberField(line, "samples").value_or(0.0);
    const double mean = obs::JsonlNumberField(line, "mean").value_or(0.0);
    const double hw =
        obs::JsonlNumberField(line, "ci_halfwidth").value_or(0.0);
    const double rate =
        obs::JsonlNumberField(line, "rate_per_s").value_or(0.0);
    const double total = obs::JsonlNumberField(line, "total").value_or(0.0);
    const double eta = obs::JsonlNumberField(line, "eta_s").value_or(0.0);
    std::string text =
        StrFormat("[%s] n=%.0f mean=%.6g ci_halfwidth=%.4g (%.3g/s)",
                  label.value_or("?").c_str(), samples, mean, hw, rate);
    if (total > 0.0) {
      text += StrFormat(" %.0f/%.0f (%.1f%%)", samples, total,
                        100.0 * samples / total);
    }
    if (eta > 0.0) text += StrFormat(" ETA %.1fs", eta);
    if (Flag(line, "final")) {
      text += Flag(line, "stopped_early") ? " [stopped early]" : " [done]";
    }
    state->last_estimator_line[label.value_or("?")] = text;
    return text + "\n";
  }
  if (*type == "status_server") {
    const auto address = obs::JsonlStringField(line, "address");
    const double port = obs::JsonlNumberField(line, "port").value_or(0.0);
    return StrFormat("statusz live at http://%s:%.0f/statusz\n",
                     address.value_or("127.0.0.1").c_str(), port);
  }
  if (*type == "graph_summary") {
    const auto origin = obs::JsonlStringField(line, "origin");
    const double nodes = obs::JsonlNumberField(line, "nodes").value_or(0.0);
    const double edges = obs::JsonlNumberField(line, "edges").value_or(0.0);
    const double mean_p =
        obs::JsonlNumberField(line, "mean_p").value_or(0.0);
    return StrFormat("graph %s: %.0f nodes, %.0f edges, mean p %.3f\n",
                     origin.value_or("?").c_str(), nodes, edges, mean_p);
  }
  if (*type == "profile") {
    const double samples =
        obs::JsonlNumberField(line, "samples").value_or(0.0);
    const double hz = obs::JsonlNumberField(line, "hz").value_or(0.0);
    const double dropped =
        obs::JsonlNumberField(line, "dropped").value_or(0.0);
    return StrFormat(
        "profile captured: %.0f samples at %.0f Hz (%.0f dropped)\n",
        samples, hz, dropped);
  }
  if (*type == "privacy_check") {
    const double k = obs::JsonlNumberField(line, "k").value_or(0.0);
    const double eps = obs::JsonlNumberField(line, "eps").value_or(0.0);
    const double eps_hat =
        obs::JsonlNumberField(line, "eps_hat").value_or(0.0);
    const double vertices =
        obs::JsonlNumberField(line, "vertices").value_or(0.0);
    const double not_obf =
        obs::JsonlNumberField(line, "not_obfuscated").value_or(0.0);
    const bool obfuscated = Flag(line, "obfuscated");
    return StrFormat(
        "(k=%.4g, eps=%.4g)-obfuscation %s: eps_hat=%.6g "
        "(%.0f/%.0f vertices exposed)\n",
        k, eps, obfuscated ? "SATISFIED" : "VIOLATED", eps_hat, not_obf,
        vertices);
  }
  if (*type == "anonymize_attempt") {
    const auto method = obs::JsonlStringField(line, "method");
    const auto phase = obs::JsonlStringField(line, "phase");
    const double level = obs::JsonlNumberField(line, "level").value_or(0.0);
    const double attempt =
        obs::JsonlNumberField(line, "attempt").value_or(0.0);
    const double sigma = obs::JsonlNumberField(line, "sigma").value_or(0.0);
    const double eps_hat =
        obs::JsonlNumberField(line, "eps_hat").value_or(0.0);
    const bool success = Flag(line, "success");
    return StrFormat(
        "%s %s level %.0f attempt %.0f: sigma=%.4g -> eps_hat=%.4g %s\n",
        method.value_or("?").c_str(), phase.value_or("?").c_str(), level,
        attempt, sigma, eps_hat, success ? "OK" : "failed");
  }
  if (*type == "sigma_search") {
    const auto method = obs::JsonlStringField(line, "method");
    const auto phase = obs::JsonlStringField(line, "phase");
    const double level = obs::JsonlNumberField(line, "level").value_or(0.0);
    const double sigma = obs::JsonlNumberField(line, "sigma").value_or(0.0);
    const double best =
        obs::JsonlNumberField(line, "best_sigma").value_or(0.0);
    const bool success = Flag(line, "success");
    if (phase.has_value() && *phase == "final") {
      return StrFormat("%s sigma search done: best sigma=%.4g (%s)\n",
                       method.value_or("?").c_str(), best,
                       success ? "feasible" : "infeasible");
    }
    return StrFormat("%s sigma search [%s] level %.0f: sigma=%.4g %s "
                     "(best %.4g)\n",
                     method.value_or("?").c_str(),
                     phase.value_or("?").c_str(), level, sigma,
                     success ? "succeeded" : "failed", best);
  }
  if (*type == "relevance_progress") {
    const auto label = obs::JsonlStringField(line, "label");
    const double worlds =
        obs::JsonlNumberField(line, "worlds").value_or(0.0);
    const double total =
        obs::JsonlNumberField(line, "total_worlds").value_or(0.0);
    const double mean_err =
        obs::JsonlNumberField(line, "mean_err").value_or(0.0);
    const double rel_err =
        obs::JsonlNumberField(line, "rel_err").value_or(0.0);
    const bool final_row = Flag(line, "final");
    return StrFormat(
        "relevance %s: %.0f/%.0f worlds, mean ERR %.4g, rel err %.4g%s\n",
        label.value_or("?").c_str(), worlds, total, mean_err, rel_err,
        final_row ? " [final]" : "");
  }
  if (*type == "crash") {
    const auto name = obs::JsonlStringField(line, "signal_name");
    const double signal =
        obs::JsonlNumberField(line, "signal").value_or(0.0);
    const auto addr = obs::JsonlStringField(line, "fault_addr");
    const auto span = obs::JsonlStringField(line, "span_path");
    std::string text = StrFormat("CRASH: %s (signal %.0f)",
                                 name.value_or("?").c_str(), signal);
    if (addr.has_value()) text += StrFormat(" at %s", addr->c_str());
    if (span.has_value()) text += StrFormat(" in span %s", span->c_str());
    const std::size_t frames =
        obs::JsonlStringArrayField(line, "frames")
            .value_or(std::vector<std::string>{})
            .size();
    text += StrFormat(" — %zu frames, run obs_dump for the backtrace",
                      frames);
    return text + "\n";
  }
  if (*type == "watchdog_stall") {
    const auto path = obs::JsonlStringField(line, "path");
    const double idle_ms =
        obs::JsonlNumberField(line, "idle_ms").value_or(0.0);
    const double stall_s =
        obs::JsonlNumberField(line, "stall_seconds").value_or(0.0);
    const bool aborting = Flag(line, "aborting");
    return StrFormat("WATCHDOG: %s idle %.1fs (threshold %.1fs)%s\n",
                     path.value_or("?").c_str(), idle_ms * 1e-3, stall_s,
                     aborting ? " — aborting the run" : "");
  }
  if (*type == "flight_event_dump") {
    const double threads =
        obs::JsonlNumberField(line, "threads").value_or(0.0);
    const double events =
        obs::JsonlNumberField(line, "events").value_or(0.0);
    return StrFormat(
        "flight recorder dumped: %.0f events across %.0f threads (see "
        "obs_dump for the tail)\n",
        events, threads);
  }
  if (*type == "parallel_region") {
    const auto name = obs::JsonlStringField(line, "name");
    const double workers =
        obs::JsonlNumberField(line, "workers").value_or(0.0);
    const double requested =
        obs::JsonlNumberField(line, "requested").value_or(0.0);
    const double wall_ns =
        obs::JsonlNumberField(line, "wall_ns").value_or(0.0);
    if (Flag(line, "partial")) {
      const double done =
          obs::JsonlNumberField(line, "blocks_done").value_or(0.0);
      const double blocks =
          obs::JsonlNumberField(line, "blocks").value_or(0.0);
      return StrFormat(
          "parallel %s INTERRUPTED: %.0f/%.0f blocks done on %.0f workers\n",
          name.value_or("?").c_str(), done, blocks, workers);
    }
    const double speedup =
        obs::JsonlNumberField(line, "speedup").value_or(0.0);
    const double efficiency =
        obs::JsonlNumberField(line, "efficiency").value_or(0.0);
    const double imbalance =
        obs::JsonlNumberField(line, "imbalance").value_or(0.0);
    const auto clamp = obs::JsonlStringField(line, "clamp");
    return StrFormat(
        "parallel %s: %.0f/%.0f workers%s, %.2f ms, speedup %.2fx "
        "(eff %.0f%%, imbalance %.2f)\n",
        name.value_or("?").c_str(), workers, requested,
        clamp.has_value() ? (" (clamp " + *clamp + ")").c_str() : "",
        wall_ns * 1e-6, speedup, efficiency * 100.0, imbalance);
  }
  if (*type == "mutex_wait") {
    const auto name = obs::JsonlStringField(line, "name");
    const double wait_ns =
        obs::JsonlNumberField(line, "wait_ns").value_or(0.0);
    const double long_waits =
        obs::JsonlNumberField(line, "long_waits").value_or(0.0);
    return StrFormat(
        "LOCK WAIT: mutex %s blocked a thread for %.2f ms "
        "(long wait #%.0f)\n",
        name.value_or("?").c_str(), wait_ns * 1e-6, long_waits);
  }
  if (*type == "hw_counters") {
    const auto path = obs::JsonlStringField(line, "path");
    const auto cls = obs::JsonlStringField(line, "class");
    const double ipc = obs::JsonlNumberField(line, "ipc").value_or(0.0);
    const double cmr =
        obs::JsonlNumberField(line, "cache_miss_rate").value_or(0.0);
    const double spans =
        obs::JsonlNumberField(line, "spans").value_or(0.0);
    return StrFormat(
        "hw %s: ipc %.2f, cache miss %.1f%% over %.0f spans [%s]\n",
        path.value_or("?").c_str(), ipc, cmr * 100.0, spans,
        cls.value_or("unknown").c_str());
  }
  if (*type == "hw_counters_unavailable") {
    const auto reason = obs::JsonlStringField(line, "reason");
    return StrFormat("hw counters unavailable: %s\n",
                     reason.value_or("?").c_str());
  }
  if (*type == "heap_profile") {
    const auto span = obs::JsonlStringField(line, "span_path");
    const double cum =
        obs::JsonlNumberField(line, "cum_bytes").value_or(0.0);
    const double live =
        obs::JsonlNumberField(line, "live_bytes").value_or(0.0);
    const double samples =
        obs::JsonlNumberField(line, "samples").value_or(0.0);
    return StrFormat(
        "heap %s: cum %.2f MiB, live %.1f KiB over %.0f samples%s\n",
        span.value_or("?").c_str(), cum / 1048576.0, live / 1024.0,
        samples, Flag(line, "allowlisted") ? " [allowlisted]" : "");
  }
  if (*type == "heap_timeline") {
    const double samples =
        obs::JsonlNumberField(line, "samples").value_or(0.0);
    const double est_peak =
        obs::JsonlNumberField(line, "est_peak_bytes").value_or(0.0);
    const double exact_cum =
        obs::JsonlNumberField(line, "exact_cum_bytes").value_or(0.0);
    return StrFormat(
        "heap profile: %.0f samples, est peak %.2f MiB, exact cum "
        "%.2f MiB (see obs_dump --heap)\n",
        samples, est_peak / 1048576.0, exact_cum / 1048576.0);
  }
  if (*type == "heap_profiler_unavailable") {
    const auto reason = obs::JsonlStringField(line, "reason");
    return StrFormat("heap profiler unavailable: %s\n",
                     reason.value_or("?").c_str());
  }
  if (*type == "run_summary") {
    state->summary_seen = true;
    state->wall_ms = obs::JsonlNumberField(line, "wall_ms").value_or(0.0);
    std::string text = StrFormat("run finished: wall %.1f ms", state->wall_ms);
    if (const auto signal = obs::JsonlNumberField(line, "signal");
        signal.has_value()) {
      text += StrFormat(" (killed by signal %.0f)", *signal);
    }
    return text + "\n";
  }
  return "";  // span, snapshot
}

void PrintConvergenceSummary(const WatchState& state) {
  if (state.last_estimator_line.empty()) return;
  std::printf("\nfinal estimator state:\n");
  for (const auto& [label, text] : state.last_estimator_line) {
    std::printf("  %s\n", text.c_str());
  }
}

int Watch(const std::string& path, bool once, std::int64_t interval_ms) {
  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "error: cannot open %s\n", path.c_str());
    return 1;
  }
  WatchState state;
  std::string line;
  for (;;) {
    for (;;) {
      // Remember where this line starts: if the file currently ends
      // mid-line (the writer is between write() and the newline),
      // getline would consume the fragment and the remainder appended
      // before the next poll would parse as a separate garbage record.
      // Rewind to the fragment start instead and re-read it whole.
      const std::istream::pos_type line_start = in.tellg();
      if (!std::getline(in, line)) break;
      if (in.eof() && !once) {
        in.clear();
        in.seekg(line_start);
        break;
      }
      const std::string text = RenderRecord(line, &state);
      if (!text.empty()) {
        std::fputs(text.c_str(), stdout);
        std::fflush(stdout);
      }
    }
    if (once || state.summary_seen) break;
    // EOF: clear the stream state and poll for appended lines.
    in.clear();
    std::this_thread::sleep_for(std::chrono::milliseconds(interval_ms));
  }
  if (once) {
    PrintConvergenceSummary(state);
    if (!state.summary_seen) {
      std::printf("(no run_summary yet — run still in flight?)\n");
    }
  }
  if (state.records == 0) {
    std::fprintf(stderr,
                 "%s: no chameleon obs records found (is it a metrics "
                 "JSONL?)\n",
                 path.c_str());
    return 1;
  }
  return 0;
}

int Run(int argc, char** argv) {
  FlagSet flags(
      "chameleon_watch: tail a metrics JSONL stream and render live "
      "progress");
  flags.AddString("input", "", "metrics JSONL path (or first positional)");
  flags.AddBool("once", false,
                "render current contents + convergence summary, then exit");
  flags.AddInt64("interval_ms", 500, "poll interval while following");
  if (const std::optional<int> exit_code =
          cli::ParseCommandLine(flags, "chameleon_watch", argc, argv)) {
    return *exit_code;
  }
  const std::string path = cli::FlagOrFirstPositional(flags, "input");
  if (path.empty()) {
    std::fprintf(stderr, "error: no input file\n%s", flags.Usage().c_str());
    return 2;
  }
  const std::int64_t interval_ms = flags.GetInt64("interval_ms");
  if (interval_ms <= 0) {
    std::fprintf(stderr, "error: --interval_ms must be positive\n");
    return 2;
  }
  static_cast<void>(obs::InstallCrashForensics());
  return Watch(path, flags.GetBool("once"), interval_ms);
}

}  // namespace
}  // namespace chameleon

int main(int argc, char** argv) { return chameleon::Run(argc, argv); }
