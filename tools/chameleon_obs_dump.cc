// Pretty-prints a chameleon metrics JSONL file (produced via
// --metrics_out= or $CHAMELEON_METRICS):
//
//   $ chameleon_obs_dump run.jsonl
//   manifest: chameleon_mc_reliability v0-3-g7904802 on vm (seed rng:2018)
//   phase                      calls    total ms    self ms     cpu ms ...
//   reliability/two_terminal       1     812.440      0.540    811.020 ...
//   ...
//   critical path: reliability/two_terminal > sample_worlds (811.900 ms)
//
// The report leads with any crash backtrace, then the per-phase table
// ("self" is total minus the time attributed to nested phases; "cpu" is
// thread CPU time from the span's resource sample) and the critical path.
// One section follows per record family present: estimator convergence,
// graphs, privacy checks, reliability relevance, sigma search, anonymize
// attempts, parallel regions, mutex waits, watchdog stalls, the flight
// recorder tail, and profile/hw/heap hints. The run summary's counters and
// process rusage close it. --flame, --hw and --heap print the profiler,
// hardware-counter and heap-site tables instead.
//
// Load groups the record lines by type and each section reads its fields
// from the lines it renders; only spans, estimator progress, parallel
// regions and mutex waits are aggregated while loading.

#include <algorithm>
#include <array>
#include <cstdio>
#include <fstream>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "chameleon/obs/run_context.h"
#include "chameleon/obs/sink.h"
#include "chameleon/obs/trace.h"
#include "chameleon/util/flags.h"
#include "chameleon/util/status.h"
#include "chameleon/util/string_util.h"
#include "cli.h"

namespace chameleon {
namespace {

struct PhaseAggregate {
  std::uint64_t calls = 0;
  double total_ns = 0.0;
  double self_ns = 0.0;  ///< computed after loading: total - direct children
  double cpu_ns = 0.0;
  double max_ns = 0.0;
};

/// Last-seen state of one estimator's `estimator_progress` stream.
struct ConvergenceRow {
  double samples = 0.0;
  double mean = 0.0;
  double ci_halfwidth = 0.0;
  double rel_err = 0.0;
  double rate_per_s = 0.0;
  bool final_seen = false;
  bool stopped_early = false;
  std::size_t records = 0;
};

/// Aggregate of "parallel_region" records sharing one index-stripped
/// region name (loop iterations fold together, like the phase table).
struct ParallelRegionDumpAgg {
  std::uint64_t regions = 0;
  std::uint64_t partials = 0;  ///< "partial":true records (signal exits)
  double wall_ns = 0.0;
  double busy_ns = 0.0;
  double idle_ns = 0.0;
  double overhead_ns = 0.0;  ///< spawn + join
  double workers = 0.0;      ///< last seen
  double requested = 0.0;    ///< last seen
  std::string clamp = "-";   ///< last seen binding limit; "-" when absent
  double max_imbalance = 0.0;
};

/// Aggregate of "mutex_wait" records (long lock waits) per mutex name.
struct MutexWaitDumpAgg {
  std::uint64_t records = 0;
  double max_wait_ns = 0.0;
  double sum_wait_ns = 0.0;  ///< across the reported long waits
};

struct DumpResult {
  std::map<std::string, PhaseAggregate> phases;
  std::map<std::string, ConvergenceRow> estimators;
  std::map<std::string, ParallelRegionDumpAgg> parallel_regions;
  std::map<std::string, MutexWaitDumpAgg> mutex_waits;
  /// Raw lines of every other known record type, by type, in stream
  /// order; each report section reads its fields from these.
  std::map<std::string, std::vector<std::string>, std::less<>> lines;
  /// Distinct record types this build does not recognize (forward-compat
  /// passthrough: counted, mentioned once each on stderr, never fatal).
  std::map<std::string, std::size_t> unknown_types;
  std::size_t typed_records = 0;  ///< every record with a "type" field

  const std::vector<std::string>& Lines(std::string_view type) const {
    static const std::vector<std::string> kNone;
    const auto it = lines.find(type);
    return it == lines.end() ? kNone : it->second;
  }
};

double Num(std::string_view line, std::string_view key) {
  return obs::JsonlNumberField(line, key).value_or(0.0);
}

std::string Str(std::string_view line, std::string_view key,
                const char* fallback = "?") {
  return obs::JsonlStringField(line, key).value_or(fallback);
}

bool Flag(std::string_view line, std::string_view key) {
  return obs::JsonlBoolField(line, key).value_or(false);
}

std::vector<std::string> Strings(std::string_view line, std::string_view key) {
  return obs::JsonlStringArrayField(line, key)
      .value_or(std::vector<std::string>{});
}

/// The `"name":number` entries of a flat object value, in order; entries
/// whose value is not a number are skipped.
std::vector<std::pair<std::string, double>> NumberEntries(
    std::string_view line, std::string_view key) {
  std::vector<std::pair<std::string, double>> out;
  const std::string_view object =
      obs::JsonlObjectField(line, key).value_or("");
  std::size_t i = 0;
  while ((i = object.find('"', i)) != std::string_view::npos) {
    const std::size_t key_end = object.find('"', i + 1);
    if (key_end == std::string_view::npos) break;
    std::string name(object.substr(i + 1, key_end - i - 1));
    if (const auto value = obs::JsonlNumberField(object.substr(i), name)) {
      out.emplace_back(std::move(name), *value);
    }
    i = object.find(',', key_end);
  }
  return out;
}

/// The nearest *present* ancestor of `path` in `phases` ("" when none):
/// a gap in the hierarchy (e.g. `a/b/x/y` with no `a/b/x` span) still
/// reaches `a/b`.
std::string NearestAncestor(const std::map<std::string, PhaseAggregate>& phases,
                            std::string path) {
  for (std::size_t slash = path.rfind('/'); slash != std::string::npos;
       slash = path.rfind('/')) {
    path.resize(slash);
    if (phases.count(path) > 0) return path;
  }
  return "";
}

/// Self time: a phase's total minus the time attributed to nested phases
/// (clamped at 0 — overlapping spans can over-subtract). Each phase
/// charges its nearest present ancestor.
void ComputeSelfTimes(std::map<std::string, PhaseAggregate>* phases) {
  std::map<std::string, double> children_ns;
  for (const auto& [path, agg] : *phases) {
    const std::string ancestor = NearestAncestor(*phases, path);
    if (!ancestor.empty()) children_ns[ancestor] += agg.total_ns;
  }
  for (auto& [path, agg] : *phases) {
    agg.self_ns = std::max(0.0, agg.total_ns - children_ns[path]);
  }
}

Result<DumpResult> Load(const std::string& path) {
  std::ifstream in(path);
  if (!in) return Status::IoError("cannot open " + path);
  DumpResult out;
  std::string line;
  while (std::getline(in, line)) {
    const auto type = obs::JsonlStringField(line, "type");
    if (!type.has_value()) continue;
    ++out.typed_records;
    if (!obs::IsKnownRecordType(*type)) {
      ++out.unknown_types[*type];
    } else if (*type == "span") {
      const auto span_path = obs::JsonlStringField(line, "path");
      const auto dur = obs::JsonlNumberField(line, "dur_ns");
      if (!span_path.has_value() || !dur.has_value()) continue;
      PhaseAggregate& agg = out.phases[*span_path];
      ++agg.calls;
      agg.total_ns += *dur;
      agg.cpu_ns += Num(line, "cpu_ns");
      agg.max_ns = std::max(agg.max_ns, *dur);
    } else if (*type == "estimator_progress") {
      const auto label = obs::JsonlStringField(line, "label");
      if (!label.has_value()) continue;
      ConvergenceRow& row = out.estimators[*label];
      ++row.records;
      row.samples = Num(line, "samples");
      row.mean = Num(line, "mean");
      row.ci_halfwidth = Num(line, "ci_halfwidth");
      row.rel_err = Num(line, "rel_err");
      row.rate_per_s = Num(line, "rate_per_s");
      if (Flag(line, "final")) {
        row.final_seen = true;
        row.stopped_early = Flag(line, "stopped_early");
      }
    } else if (*type == "parallel_region") {
      const auto name = obs::JsonlStringField(line, "name");
      if (!name.has_value()) continue;
      ParallelRegionDumpAgg& agg =
          out.parallel_regions[obs::StripPathIndices(*name)];
      if (Flag(line, "partial")) {
        ++agg.partials;
        continue;
      }
      ++agg.regions;
      agg.wall_ns += Num(line, "wall_ns");
      agg.busy_ns += Num(line, "busy_total_ns");
      agg.idle_ns += Num(line, "idle_total_ns");
      agg.overhead_ns += Num(line, "spawn_ns") + Num(line, "join_ns");
      agg.workers = Num(line, "workers");
      agg.requested = Num(line, "requested");
      agg.clamp = Str(line, "clamp", "-");
      agg.max_imbalance = std::max(agg.max_imbalance, Num(line, "imbalance"));
    } else if (*type == "mutex_wait") {
      const auto name = obs::JsonlStringField(line, "name");
      if (!name.has_value()) continue;
      MutexWaitDumpAgg& agg = out.mutex_waits[*name];
      ++agg.records;
      const double wait = Num(line, "wait_ns");
      agg.max_wait_ns = std::max(agg.max_wait_ns, wait);
      agg.sum_wait_ns += wait;
    } else {
      out.lines[*type].push_back(line);
    }
  }
  ComputeSelfTimes(&out.phases);
  return out;
}

void PrintManifest(const std::string& line) {
  std::string text = "manifest: " + Str(line, "tool");
  if (const auto describe = obs::JsonlStringField(line, "git_describe")) {
    text += " " + *describe;
  }
  if (const auto hostname = obs::JsonlStringField(line, "hostname")) {
    text += " on " + *hostname;
  }
  // Seeds live in a flat `"seeds":{"name":value,...}` object.
  const std::string_view seeds =
      obs::JsonlObjectField(line, "seeds").value_or("{}");
  if (seeds.size() > 2) {
    std::string cleaned;
    for (const char c : seeds.substr(1, seeds.size() - 2)) {
      if (c != '"') cleaned += c;
    }
    text += " (seed " + cleaned + ")";
  }
  std::printf("%s\n", text.c_str());
}

/// Walks the phase tree from the heaviest root, always descending into
/// the child with the largest total. Parentage is "nearest present
/// ancestor", matching ComputeSelfTimes.
void PrintCriticalPath(const std::map<std::string, PhaseAggregate>& phases) {
  std::map<std::string, std::string> parent;
  for (const auto& [path, agg] : phases) {
    std::string ancestor = NearestAncestor(phases, path);
    if (!ancestor.empty()) parent[path] = std::move(ancestor);
  }

  std::string current;
  double best = -1.0;
  for (const auto& [path, agg] : phases) {
    if (parent.count(path) == 0 && agg.total_ns > best) {
      best = agg.total_ns;
      current = path;
    }
  }
  if (current.empty()) return;

  std::string text = current;
  while (true) {
    std::string next;
    double next_best = -1.0;
    for (const auto& [path, agg] : phases) {
      const auto it = parent.find(path);
      if (it != parent.end() && it->second == current &&
          agg.total_ns > next_best) {
        next_best = agg.total_ns;
        next = path;
      }
    }
    if (next.empty()) break;
    text += " > " + next.substr(current.size() + 1);
    current = next;
  }
  std::printf("\ncritical path: %s (%.3f ms)\n", text.c_str(),
              phases.at(current).total_ns * 1e-6);
}

/// The records of `lines` ordered by `key(line)` descending, cut to `top`
/// (0 = all).
template <typename Key>
std::vector<const std::string*> TopBy(const std::vector<std::string>& lines,
                                      Key key, std::int64_t top) {
  std::vector<std::pair<double, const std::string*>> keyed;
  for (const std::string& line : lines) keyed.emplace_back(key(line), &line);
  std::sort(keyed.begin(), keyed.end(),
            [](const auto& a, const auto& b) { return a.first > b.first; });
  if (top > 0 && static_cast<std::size_t>(top) < keyed.size()) {
    keyed.resize(static_cast<std::size_t>(top));
  }
  std::vector<const std::string*> out;
  for (const auto& [k, line] : keyed) out.push_back(line);
  return out;
}

void PrintReport(const DumpResult& dump, const std::string& sort_key,
                 std::int64_t top) {
  const std::vector<std::string>& manifests = dump.Lines("manifest");
  if (!manifests.empty()) PrintManifest(manifests.front());

  // Crash forensics lead the report: a dead run's backtrace is the first
  // thing a triager needs, before any timing table.
  const std::vector<std::string>& crashes = dump.Lines("crash");
  for (const std::string& line : crashes) {
    std::printf("\nCRASH: %s (signal %.0f) on tid %.0f",
                Str(line, "signal_name").c_str(), Num(line, "signal"),
                Num(line, "tid"));
    const std::string fault_addr = Str(line, "fault_addr", "");
    if (!fault_addr.empty()) std::printf(" at %s", fault_addr.c_str());
    const std::string span_path = Str(line, "span_path", "");
    if (!span_path.empty()) std::printf(" in span %s", span_path.c_str());
    std::printf("\n");
    const std::vector<std::string> frames = Strings(line, "frames");
    for (std::size_t i = 0; i < frames.size(); ++i) {
      std::printf("  #%zu %s\n", i, frames[i].c_str());
    }
  }
  if (!crashes.empty()) std::printf("\n");

  std::vector<std::pair<std::string, PhaseAggregate>> rows(
      dump.phases.begin(), dump.phases.end());
  if (sort_key == "total") {
    std::sort(rows.begin(), rows.end(), [](const auto& a, const auto& b) {
      return a.second.total_ns > b.second.total_ns;
    });
  } else if (sort_key == "self") {
    std::sort(rows.begin(), rows.end(), [](const auto& a, const auto& b) {
      return a.second.self_ns > b.second.self_ns;
    });
  } else if (sort_key == "calls") {
    std::sort(rows.begin(), rows.end(), [](const auto& a, const auto& b) {
      return a.second.calls > b.second.calls;
    });
  }  // "path": keep map order
  if (top > 0 && static_cast<std::size_t>(top) < rows.size()) {
    rows.resize(static_cast<std::size_t>(top));
  }

  // The last run summary carrying wall_ms times the run; -1 when none.
  double run_wall_ms = -1.0;
  for (const std::string& line : dump.Lines("run_summary")) {
    run_wall_ms = obs::JsonlNumberField(line, "wall_ms").value_or(run_wall_ms);
  }
  std::size_t width = 5;
  for (const auto& [path, agg] : rows) width = std::max(width, path.size());
  // Without a run summary, attribute against the largest span total.
  double run_ns = run_wall_ms * 1e6;
  if (run_ns <= 0.0) {
    for (const auto& [path, agg] : rows) {
      run_ns = std::max(run_ns, agg.total_ns);
    }
  }

  std::printf("%-*s %8s %11s %10s %10s %10s %6s\n", static_cast<int>(width),
              "phase", "calls", "total ms", "self ms", "cpu ms", "max ms",
              "%run");
  for (const auto& [path, agg] : rows) {
    std::printf("%-*s %8llu %11.3f %10.3f %10.3f %10.3f %6.1f\n",
                static_cast<int>(width), path.c_str(),
                static_cast<unsigned long long>(agg.calls),
                agg.total_ns * 1e-6, agg.self_ns * 1e-6, agg.cpu_ns * 1e-6,
                agg.max_ns * 1e-6,
                run_ns > 0.0 ? 100.0 * agg.total_ns / run_ns : 0.0);
  }

  PrintCriticalPath(dump.phases);

  if (!dump.estimators.empty()) {
    std::printf("\nestimator convergence:\n");
    std::size_t ewidth = 9;
    for (const auto& [label, row] : dump.estimators) {
      ewidth = std::max(ewidth, label.size());
    }
    std::printf("%-*s %10s %12s %12s %9s %12s\n", static_cast<int>(ewidth),
                "estimator", "samples", "mean", "ci half-w", "rel err",
                "samples/s");
    for (const auto& [label, row] : dump.estimators) {
      std::printf("%-*s %10.0f %12.6g %12.4g %9.4f %12.0f%s\n",
                  static_cast<int>(ewidth), label.c_str(), row.samples,
                  row.mean, row.ci_halfwidth, row.rel_err, row.rate_per_s,
                  row.final_seen
                      ? (row.stopped_early ? "  [stopped early]" : "")
                      : "  [in flight]");
    }
  }

  const std::vector<std::string>& graphs = dump.Lines("graph_summary");
  if (!graphs.empty()) {
    std::printf("\ngraphs loaded:\n");
    std::size_t gwidth = 6;
    for (const std::string& line : graphs) {
      gwidth = std::max(gwidth, Str(line, "origin").size());
    }
    std::printf("%-*s %10s %10s %9s %8s %12s %7s\n",
                static_cast<int>(gwidth), "origin", "nodes", "edges",
                "mean deg", "max deg", "sum p", "mean p");
    for (const std::string& line : graphs) {
      std::printf("%-*s %10.0f %10.0f %9.2f %8.0f %12.2f %7.3f\n",
                  static_cast<int>(gwidth), Str(line, "origin").c_str(),
                  Num(line, "nodes"), Num(line, "edges"),
                  Num(line, "mean_degree"), Num(line, "max_degree"),
                  Num(line, "sum_p"), Num(line, "mean_p"));
    }
  }

  const std::vector<std::string>& checks = dump.Lines("privacy_check");
  if (!checks.empty()) {
    std::printf("\nprivacy checks:\n");
    std::printf("%10s %10s %10s %9s %10s %10s %10s  %s\n", "k", "eps",
                "eps_hat", "verdict", "exposed", "min bits", "mean bits",
                "adversary");
    for (const std::string& line : checks) {
      std::printf("%10.4g %10.4g %10.4g %9s %10.0f %10.4g %10.4g  %s\n",
                  Num(line, "k"), Num(line, "eps"), Num(line, "eps_hat"),
                  Flag(line, "obfuscated") ? "OK" : "VIOLATED",
                  Num(line, "not_obfuscated"), Num(line, "min_entropy_bits"),
                  Num(line, "mean_entropy_bits"),
                  Str(line, "adversary").c_str());
    }
  }

  const std::vector<std::string>& relevance = dump.Lines("relevance_progress");
  if (!relevance.empty()) {
    std::printf("\nreliability relevance:\n");
    for (const std::string& line : relevance) {
      // Final rows only, plus the latest checkpoint of a run in flight.
      const bool final_row = Flag(line, "final");
      if (!final_row && &line != &relevance.back()) continue;
      std::printf("  %s: %.0f/%.0f worlds, mean ERR %.4g, max ERR %.4g, "
                  "world mass %.4g, ci ±%.4g (rel %.4g)%s\n",
                  Str(line, "label").c_str(), Num(line, "worlds"),
                  Num(line, "total_worlds"), Num(line, "mean_err"),
                  Num(line, "max_err"), Num(line, "mean_world_mass"),
                  Num(line, "ci_halfwidth"), Num(line, "rel_err"),
                  final_row ? (Flag(line, "stopped_early") ? "  [stopped early]"
                                                           : "")
                            : "  [in flight]");
    }
  }

  const std::vector<std::string>& levels = dump.Lines("sigma_search");
  if (!levels.empty()) {
    std::printf("\nsigma search:\n");
    std::printf("%-8s %-8s %5s %10s %10s %7s %10s %8s %10s\n", "method",
                "phase", "level", "sigma", "eps_hat", "result", "attempts",
                "bracket", "best sigma");
    for (const std::string& line : levels) {
      const double lo = Num(line, "lo");
      const double hi = Num(line, "hi");
      std::printf("%-8s %-8s %5.0f %10.4g %10.4g %7s %10.0f %8s %10.4g\n",
                  Str(line, "method").c_str(), Str(line, "phase").c_str(),
                  Num(line, "level"), Num(line, "sigma"),
                  Num(line, "eps_hat"), Flag(line, "success") ? "ok" : "fail",
                  Num(line, "attempts"),
                  hi > 0.0 ? StrFormat("%.3g..%.3g", lo, hi).c_str() : "-",
                  Num(line, "best_sigma"));
    }
  }

  const std::vector<std::string>& attempts = dump.Lines("anonymize_attempt");
  if (!attempts.empty()) {
    // Per-method rollup: the per-level detail already lives in the
    // sigma-search table above.
    std::map<std::string, std::array<double, 4>> by_method;
    for (const std::string& line : attempts) {
      auto& agg = by_method[Str(line, "method")];
      agg[0] += 1.0;
      agg[1] += Flag(line, "success") ? 1.0 : 0.0;
      agg[2] += Num(line, "wall_ms");
      agg[3] = std::max(agg[3], Num(line, "perturbed_edges"));
    }
    std::printf("\nanonymize attempts:\n");
    for (const auto& [method, agg] : by_method) {
      std::printf("  %s: %.0f attempts (%.0f succeeded), %.0f edges "
                  "perturbed at most, %.1f ms total\n",
                  method.c_str(), agg[0], agg[1], agg[3], agg[2]);
    }
  }

  if (!dump.parallel_regions.empty()) {
    std::printf("\nparallel regions:\n");
    std::size_t pwidth = 6;
    for (const auto& [name, agg] : dump.parallel_regions) {
      pwidth = std::max(pwidth, name.size());
    }
    std::printf("%-*s %8s %7s %-8s %11s %8s %6s %9s %11s\n",
                static_cast<int>(pwidth), "region", "regions", "workers",
                "clamp", "wall ms", "speedup", "eff", "imbalance",
                "overhead ms");
    for (const auto& [name, agg] : dump.parallel_regions) {
      const double speedup =
          agg.wall_ns > 0.0 ? agg.busy_ns / agg.wall_ns : 1.0;
      const double efficiency =
          agg.workers > 0.0 ? speedup / agg.workers : 1.0;
      std::printf("%-*s %8llu %4.0f/%-2.0f %-8s %11.3f %7.2fx %5.1f%% "
                  "%9.2f %11.3f%s\n",
                  static_cast<int>(pwidth), name.c_str(),
                  static_cast<unsigned long long>(agg.regions), agg.workers,
                  agg.requested, agg.clamp.c_str(), agg.wall_ns * 1e-6,
                  speedup,
                  efficiency * 100.0, agg.max_imbalance,
                  agg.overhead_ns * 1e-6,
                  agg.partials > 0 ? "  [+partial]" : "");
    }
  }

  if (!dump.mutex_waits.empty()) {
    std::printf("\nlong mutex waits:\n");
    std::size_t mwidth = 5;
    for (const auto& [name, agg] : dump.mutex_waits) {
      mwidth = std::max(mwidth, name.size());
    }
    std::printf("%-*s %8s %12s %12s\n", static_cast<int>(mwidth), "mutex",
                "waits", "max ms", "total ms");
    for (const auto& [name, agg] : dump.mutex_waits) {
      std::printf("%-*s %8llu %12.3f %12.3f\n", static_cast<int>(mwidth),
                  name.c_str(), static_cast<unsigned long long>(agg.records),
                  agg.max_wait_ns * 1e-6, agg.sum_wait_ns * 1e-6);
    }
  }

  const std::vector<std::string>& stalls = dump.Lines("watchdog_stall");
  if (!stalls.empty()) {
    std::printf("\nwatchdog stalls:\n");
    std::size_t swidth = 5;
    for (const std::string& line : stalls) {
      swidth = std::max(swidth, Str(line, "path").size());
    }
    std::printf("%-*s %5s %12s %12s\n", static_cast<int>(swidth), "phase",
                "tid", "idle ms", "open ms");
    for (const std::string& line : stalls) {
      std::printf("%-*s %5.0f %12.0f %12.0f%s\n", static_cast<int>(swidth),
                  Str(line, "path").c_str(), Num(line, "tid"),
                  Num(line, "idle_ms"), Num(line, "open_ms"),
                  Flag(line, "aborting") ? "  [aborted]" : "");
    }
  }

  const std::vector<std::string>& flights = dump.Lines("flight_event_dump");
  if (!flights.empty()) {
    // The top-level summary fields precede the per-ring objects in the
    // record, so first-occurrence field lookup reads the totals.
    const std::string& last = flights.back();
    std::printf("\nflight recorder (%.0f threads, %.0f events kept of "
                "%.0f recorded, %.0f overwritten), most recent last:\n",
                Num(last, "threads"), Num(last, "events"),
                Num(last, "recorded"), Num(last, "dropped"));
    for (const std::string& event : Strings(last, "tail")) {
      std::printf("  %s\n", event.c_str());
    }
  }

  const std::vector<std::string>& profiles = dump.Lines("profile");
  if (!profiles.empty()) {
    const std::string& last = profiles.back();
    std::printf("\nprofile: %.0f samples at %.0f Hz over %.1f ms "
                "(%.0f dropped); rerun with --flame for the span table\n",
                Num(last, "samples"), Num(last, "hz"),
                Num(last, "duration_ms"), Num(last, "dropped"));
  }

  const std::vector<std::string>& hw = dump.Lines("hw_counters");
  const std::vector<std::string>& hw_off =
      dump.Lines("hw_counters_unavailable");
  if (!hw.empty()) {
    std::printf("\nhw counters: %zu span path(s) via %s backend; rerun "
                "with --hw for the bottleneck table\n",
                hw.size(), Str(hw.front(), "backend").c_str());
  } else if (!hw_off.empty()) {
    std::printf("\nhw counters unavailable: %s\n",
                Str(hw_off.front(), "reason").c_str());
  }

  const std::vector<std::string>& sites = dump.Lines("heap_profile");
  const std::vector<std::string>& timelines = dump.Lines("heap_timeline");
  const std::vector<std::string>& heap_off =
      dump.Lines("heap_profiler_unavailable");
  if (!sites.empty() || !timelines.empty()) {
    std::printf("\nheap profile: %zu site(s), %.0f samples; rerun with "
                "--heap for the allocation table\n",
                sites.size(),
                timelines.empty() ? 0.0 : Num(timelines.back(), "samples"));
  } else if (!heap_off.empty()) {
    std::printf("\nheap profiler unavailable: %s\n",
                Str(heap_off.front(), "reason").c_str());
  }

  const std::vector<std::string>& summaries = dump.Lines("run_summary");
  std::vector<std::pair<std::string, double>> counters;
  for (const std::string& line : summaries) {
    for (auto& entry : NumberEntries(line, "counters")) {
      counters.push_back(std::move(entry));
    }
  }
  if (!counters.empty()) {
    std::printf("\nrun summary counters:\n");
    std::size_t cwidth = 5;
    for (const auto& [name, value] : counters) {
      cwidth = std::max(cwidth, name.size());
    }
    for (const auto& [name, value] : counters) {
      std::printf("  %-*s %15.0f\n", static_cast<int>(cwidth), name.c_str(),
                  value);
    }
  }
  if (!summaries.empty()) {
    const std::string& last = summaries.back();
    const auto user = obs::JsonlNumberField(last, "user_cpu_ms");
    const auto rss = obs::JsonlNumberField(last, "max_rss_kb");
    if (user.has_value() || rss.has_value()) {
      std::printf("\nprocess rusage: user %.1f ms, system %.1f ms, "
                  "peak rss %.0f kb\n",
                  user.value_or(0.0), Num(last, "system_cpu_ms"),
                  rss.value_or(0.0));
    }
  }
  if (run_wall_ms >= 0.0) {
    std::uint64_t span_records = 0;
    for (const auto& [path, agg] : dump.phases) span_records += agg.calls;
    std::size_t estimator_records = 0;
    for (const auto& [label, row] : dump.estimators) {
      estimator_records += row.records;
    }
    std::printf("\nrun wall time: %.3f ms  (%llu spans, %zu snapshots, "
                "%zu estimator records)\n",
                run_wall_ms, static_cast<unsigned long long>(span_records),
                dump.Lines("snapshot").size(), estimator_records);
  }
}

/// The --flame view: per-span self-CPU sample table from the last
/// "profile" record (the whole-run capture when --profile was used).
int PrintFlame(const DumpResult& dump, std::int64_t top) {
  const std::vector<std::string>& profiles = dump.Lines("profile");
  if (profiles.empty()) {
    std::fprintf(stderr,
                 "no profile records found (rerun the tool with "
                 "--profile=profile.folded)\n");
    return 1;
  }
  const std::string& capture = profiles.back();
  const double samples_total = Num(capture, "samples");
  std::printf("profile: %.0f samples at %.0f Hz over %.1f ms (%.0f dropped)\n",
              samples_total, Num(capture, "hz"), Num(capture, "duration_ms"),
              Num(capture, "dropped"));

  std::vector<std::pair<std::string, double>> rows =
      NumberEntries(capture, "spans");
  std::sort(rows.begin(), rows.end(),
            [](const auto& a, const auto& b) { return a.second > b.second; });
  if (top > 0 && static_cast<std::size_t>(top) < rows.size()) {
    rows.resize(static_cast<std::size_t>(top));
  }
  std::size_t width = 9;
  for (const auto& [path, samples] : rows) {
    width = std::max(width, path.size());
  }
  std::printf("%-*s %10s %6s\n", static_cast<int>(width), "span path",
              "samples", "%cpu");
  for (const auto& [path, samples] : rows) {
    std::printf("%-*s %10.0f %6.1f\n", static_cast<int>(width), path.c_str(),
                samples,
                samples_total > 0.0 ? 100.0 * samples / samples_total : 0.0);
  }
  return 0;
}

/// The --hw view: the per-span-path hardware-counter table from the
/// run's "hw_counters" records, hottest (most cycles) first, with the
/// toplev-lite bottleneck class the writer assigned.
int PrintHw(const DumpResult& dump, std::int64_t top) {
  const std::vector<std::string>& hw = dump.Lines("hw_counters");
  if (hw.empty()) {
    const std::vector<std::string>& off =
        dump.Lines("hw_counters_unavailable");
    if (!off.empty()) {
      std::fprintf(stderr, "hw counters unavailable: %s\n",
                   Str(off.front(), "reason").c_str());
    } else {
      std::fprintf(stderr,
                   "no hw_counters records found (rerun the tool with "
                   "--hw_counters=true, or set CHAMELEON_HW_COUNTERS="
                   "emulate where perf events are blocked)\n");
    }
    return 1;
  }
  const std::vector<const std::string*> rows = TopBy(
      hw, [](const std::string& line) { return Num(line, "cycles"); }, top);
  std::printf("hw counters (%s backend):\n",
              Str(*rows.front(), "backend").c_str());
  std::size_t width = 9;
  for (const std::string* row : rows) {
    width = std::max(width, Str(*row, "path").size());
  }
  std::printf("%-*s %8s %10s %10s %6s %10s %11s %s\n",
              static_cast<int>(width), "span path", "spans", "cycles",
              "instrs", "ipc", "cache miss", "branch miss", "class");
  for (const std::string* row : rows) {
    std::printf("%-*s %8.0f %10.3g %10.3g %6.2f %9.1f%% %10.2f%% %s\n",
                static_cast<int>(width), Str(*row, "path").c_str(),
                Num(*row, "spans"), Num(*row, "cycles"),
                Num(*row, "instructions"), Num(*row, "ipc"),
                100.0 * Num(*row, "cache_miss_rate"),
                100.0 * Num(*row, "branch_miss_rate"),
                Str(*row, "class", "unknown").c_str());
  }
  return 0;
}

/// The --heap view: "who owns the heap at peak?" — the per-site sampled
/// allocation table from the run's "heap_profile" records, sorted by
/// `sort` (cum | live | peak | leak), biggest first, with the process-
/// wide timeline headline on top.
int PrintHeap(const DumpResult& dump, const std::string& sort_key,
              std::int64_t top) {
  const std::vector<std::string>& sites = dump.Lines("heap_profile");
  const std::vector<std::string>& timelines = dump.Lines("heap_timeline");
  if (sites.empty() && timelines.empty()) {
    const std::vector<std::string>& off =
        dump.Lines("heap_profiler_unavailable");
    if (!off.empty()) {
      std::fprintf(stderr, "heap profiler unavailable: %s\n",
                   Str(off.front(), "reason").c_str());
    } else {
      std::fprintf(stderr,
                   "no heap_profile records found (rerun the tool with "
                   "--heap_profile=heap.folded)\n");
    }
    return 1;
  }

  if (!timelines.empty()) {
    const std::string& t = timelines.back();
    std::printf("heap profile: %.0f samples over %.1f ms at 1/%.0f bytes "
                "(%.0f dropped, %.0f sites)\n",
                Num(t, "samples"), Num(t, "duration_ms"),
                Num(t, "sample_bytes"), Num(t, "dropped"), Num(t, "sites"));
    std::printf("  estimated: cum %.3f MiB, live-at-end %.3f MiB, "
                "peak %.3f MiB\n",
                Num(t, "est_cum_bytes") / 1048576.0,
                Num(t, "est_live_bytes") / 1048576.0,
                Num(t, "est_peak_bytes") / 1048576.0);
    std::printf("  exact:     cum %.3f MiB across %.0f allocations\n",
                Num(t, "exact_cum_bytes") / 1048576.0,
                Num(t, "exact_cum_allocs"));
    // The RSS trajectory: every "rss_kb" inside the points array.
    std::size_t points = 0;
    double last_rss_kb = 0.0;
    double peak_rss_kb = 0.0;
    const std::string_view line = t;
    const std::string_view rest =
        line.substr(std::min(line.find("\"points\":["), line.size()));
    for (std::size_t i = rest.find("\"rss_kb\":"); i != std::string::npos;
         i = rest.find("\"rss_kb\":", i + 1)) {
      if (const auto rss = obs::JsonlNumberField(rest.substr(i), "rss_kb")) {
        ++points;
        last_rss_kb = *rss;
        peak_rss_kb = std::max(peak_rss_kb, *rss);
      }
    }
    if (points > 0) {
      std::printf("  rss: last %.0f kb, peak %.0f kb over %zu timeline "
                  "points\n",
                  last_rss_kb, peak_rss_kb, points);
    }
  }
  if (sites.empty()) {
    std::printf("(no per-site records — the run allocated less than one "
                "sampling interval)\n");
    return 0;
  }

  const std::string key = sort_key == "live" || sort_key == "peak" ||
                                  sort_key == "leak"
                              ? sort_key + "_bytes"
                              : "cum_bytes";
  const std::vector<const std::string*> rows = TopBy(
      sites, [&key](const std::string& line) { return Num(line, key); }, top);
  std::size_t width = 9;
  for (const std::string* row : rows) {
    width = std::max(width, Str(*row, "span_path").size());
  }
  std::printf("\n%-*s %8s %12s %10s %12s %12s %12s\n",
              static_cast<int>(width), "span path", "samples", "cum MiB",
              "allocs", "live KiB", "peak KiB", "leak KiB");
  for (const std::string* row : rows) {
    std::printf("%-*s %8.0f %12.3f %10.0f %12.1f %12.1f %12.1f%s\n",
                static_cast<int>(width), Str(*row, "span_path").c_str(),
                Num(*row, "samples"), Num(*row, "cum_bytes") / 1048576.0,
                Num(*row, "cum_allocs"), Num(*row, "live_bytes") / 1024.0,
                Num(*row, "peak_bytes") / 1024.0,
                Num(*row, "leak_bytes") / 1024.0,
                Flag(*row, "allowlisted") ? "  [allowlisted]" : "");
    // The innermost non-allocator frame names the allocating code; one
    // line keeps the table scannable while still answering "who".
    for (const std::string& frame : Strings(*row, "frames")) {
      if (frame.compare(0, 12, "operator_new") == 0 ||
          frame.compare(0, 12, "operator new") == 0) {
        continue;
      }
      std::printf("%-*s   ^ %s\n", static_cast<int>(width), "",
                  frame.c_str());
      break;
    }
  }
  return 0;
}

int Run(int argc, char** argv) {
  FlagSet flags(
      "chameleon_obs_dump: per-phase timing table from a metrics JSONL "
      "file");
  flags.AddString("input", "", "metrics JSONL path (or first positional)");
  flags.AddString("sort", "total", "row order: total | self | calls | path");
  flags.AddInt64("top", 0, "show only the top N phases (0 = all)");
  flags.AddBool("flame", false,
                "print the per-span self-CPU sample table from the last "
                "profiler capture instead of the timing report");
  flags.AddBool("hw", false,
                "print the per-span-path hardware-counter bottleneck "
                "table instead of the timing report");
  flags.AddBool("heap", false,
                "print the sampled heap-allocation site table instead of "
                "the timing report (sort with --heap_sort)");
  flags.AddString("heap_sort", "cum",
                  "heap table order: cum | live | peak | leak");
  if (const std::optional<int> exit_code =
          cli::ParseCommandLine(flags, "chameleon_obs_dump", argc, argv)) {
    return *exit_code;
  }
  const std::string path = cli::FlagOrFirstPositional(flags, "input");
  if (path.empty()) {
    std::fprintf(stderr, "error: no input file\n%s", flags.Usage().c_str());
    return 2;
  }

  static_cast<void>(obs::InstallCrashForensics());

  const Result<DumpResult> dump = Load(path);
  if (!dump.ok()) {
    std::fprintf(stderr, "error: %s\n", dump.status().ToString().c_str());
    return 1;
  }
  if (flags.GetBool("flame")) {
    return PrintFlame(*dump, flags.GetInt64("top"));
  }
  if (flags.GetBool("hw")) {
    return PrintHw(*dump, flags.GetInt64("top"));
  }
  if (flags.GetBool("heap")) {
    return PrintHeap(*dump, flags.GetString("heap_sort"),
                     flags.GetInt64("top"));
  }
  // Forward-compat: one debug note per distinct unrecognized type. A
  // stream written by a newer tool still dumps — whatever this build
  // understands is rendered, the rest passes through.
  for (const auto& [type, count] : dump->unknown_types) {
    std::fprintf(stderr,
                 "note: passing through %zu record(s) of unknown type "
                 "\"%s\"\n",
                 count, type.c_str());
  }
  if (dump->typed_records == 0) {
    std::fprintf(stderr,
                 "%s: no chameleon obs records found (is it a metrics "
                 "JSONL?)\n",
                 path.c_str());
    return 1;
  }
  PrintReport(*dump, flags.GetString("sort"), flags.GetInt64("top"));
  return 0;
}

}  // namespace
}  // namespace chameleon

int main(int argc, char** argv) { return chameleon::Run(argc, argv); }
