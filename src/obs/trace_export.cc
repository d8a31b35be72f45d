#include "chameleon/obs/trace_export.h"

#include <fstream>
#include <set>

#include "chameleon/obs/sink.h"
#include "chameleon/util/string_util.h"

namespace chameleon::obs {
namespace {

std::string LastPathSegment(const std::string& path) {
  const std::size_t slash = path.rfind('/');
  return slash == std::string::npos ? path : path.substr(slash + 1);
}

void AppendNumberArg(std::string& args, const std::string& line,
                     std::string_view key) {
  const auto value = JsonlNumberField(line, key);
  if (!value.has_value()) return;
  if (args.back() != '{') args += ',';
  args += StrFormat("\"%s\":%.0f", std::string(key).c_str(), *value);
}

}  // namespace

std::string ChromeTraceFromJsonlLines(const std::vector<std::string>& lines,
                                      TraceExportStats* stats_out) {
  TraceExportStats stats;

  // Pass 1: wall-to-monotonic offset (µs) from the first span carrying
  // both clocks, so wall-only records (snapshots, estimator progress)
  // land on the same timeline as the monotonic span timestamps.
  double wall_offset_us = 0.0;
  bool have_offset = false;
  std::string manifest_line;
  for (const std::string& line : lines) {
    const auto type = JsonlStringField(line, "type");
    if (!type.has_value()) continue;
    if (!have_offset && *type == "span") {
      const auto mono = JsonlNumberField(line, "mono_ns");
      const auto wall = JsonlNumberField(line, "t_ms");
      if (mono.has_value() && wall.has_value()) {
        wall_offset_us = *mono / 1e3 - *wall * 1e3;
        have_offset = true;
      }
    }
    if (manifest_line.empty() && *type == "manifest") manifest_line = line;
  }
  const auto wall_to_ts = [&](double wall_ms) {
    return wall_ms * 1e3 + wall_offset_us;
  };

  std::string events;
  std::set<unsigned> tids;
  const auto append_event = [&events](std::string&& event) {
    if (!events.empty()) events += ",\n";
    events += event;
  };

  for (const std::string& line : lines) {
    const auto type = JsonlStringField(line, "type");
    if (!type.has_value()) {
      if (!StripWhitespace(line).empty()) ++stats.skipped_lines;
      continue;
    }
    if (*type == "span") {
      const auto path = JsonlStringField(line, "path");
      const auto dur = JsonlNumberField(line, "dur_ns");
      if (!path.has_value() || !dur.has_value()) {
        ++stats.skipped_lines;
        continue;
      }
      ++stats.spans;
      const auto mono = JsonlNumberField(line, "mono_ns");
      const auto wall = JsonlNumberField(line, "t_ms");
      const double ts_us = mono.has_value()
                               ? *mono / 1e3
                               : wall_to_ts(wall.value_or(0.0));
      const auto tid =
          static_cast<unsigned>(JsonlNumberField(line, "tid").value_or(0.0));
      tids.insert(tid);

      std::string args = StrFormat("{\"path\":\"%s\"",
                                   JsonEscape(*path).c_str());
      for (const std::string_view key :
           {"cpu_ns", "max_rss_kb", "minflt", "majflt", "allocs",
            "alloc_bytes"}) {
        AppendNumberArg(args, line, key);
      }
      // Re-embed the span's counters object verbatim.
      if (const auto counters = JsonlObjectField(line, "counters")) {
        args += ",\"counters\":" + std::string(*counters);
      }
      args += '}';

      append_event(StrFormat(
          "{\"name\":\"%s\",\"cat\":\"span\",\"ph\":\"X\",\"ts\":%.3f,"
          "\"dur\":%.3f,\"pid\":1,\"tid\":%u,\"args\":%s}",
          JsonEscape(LastPathSegment(*path)).c_str(), ts_us, *dur / 1e3, tid,
          args.c_str()));
    } else if (*type == "snapshot") {
      ++stats.snapshots;
      const auto label = JsonlStringField(line, "label");
      const auto wall = JsonlNumberField(line, "t_ms");
      append_event(StrFormat(
          "{\"name\":\"snapshot:%s\",\"cat\":\"snapshot\",\"ph\":\"i\","
          "\"ts\":%.3f,\"pid\":1,\"tid\":0,\"s\":\"p\"}",
          JsonEscape(label.value_or("")).c_str(),
          wall_to_ts(wall.value_or(0.0))));
    } else if (*type == "estimator_progress") {
      ++stats.progress;
      const auto label = JsonlStringField(line, "label");
      const auto wall = JsonlNumberField(line, "t_ms");
      const auto samples = JsonlNumberField(line, "samples");
      append_event(StrFormat(
          "{\"name\":\"%s\",\"cat\":\"progress\",\"ph\":\"C\",\"ts\":%.3f,"
          "\"pid\":1,\"args\":{\"samples\":%.0f}}",
          JsonEscape(label.value_or("")).c_str(),
          wall_to_ts(wall.value_or(0.0)), samples.value_or(0.0)));
    } else if (*type == "manifest") {
      stats.saw_manifest = true;
    }
    // snapshot/run_summary metric payloads stay in the JSONL; obs_dump
    // renders those.
  }

  // Metadata: process name from the manifest, one named track per tid.
  std::string process_name = "chameleon";
  if (!manifest_line.empty()) {
    const auto tool = JsonlStringField(manifest_line, "tool");
    const auto describe = JsonlStringField(manifest_line, "git_describe");
    if (tool.has_value()) process_name = "chameleon " + *tool;
    if (describe.has_value()) process_name += " (" + *describe + ")";
  }
  append_event(StrFormat(
      "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,"
      "\"args\":{\"name\":\"%s\"}}",
      JsonEscape(process_name).c_str()));
  for (const unsigned tid : tids) {
    append_event(StrFormat(
        "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":%u,"
        "\"args\":{\"name\":\"%s\"}}",
        tid, tid <= 1 ? "main" : StrFormat("worker %u", tid).c_str()));
  }

  std::string other_data = "{";
  if (!manifest_line.empty()) {
    for (const std::string_view key :
         {"tool", "git_sha", "git_describe", "hostname"}) {
      const auto value = JsonlStringField(manifest_line, key);
      if (!value.has_value()) continue;
      if (other_data.back() != '{') other_data += ',';
      other_data += StrFormat("\"%s\":\"%s\"", std::string(key).c_str(),
                              JsonEscape(*value).c_str());
    }
  }
  other_data += '}';

  std::string out = "{\"traceEvents\":[\n";
  out += events;
  out += "\n],\"displayTimeUnit\":\"ms\",\"otherData\":";
  out += other_data;
  out += "}\n";
  if (stats_out != nullptr) *stats_out = stats;
  return out;
}

Result<TraceExportStats> ExportChromeTrace(const std::string& input_jsonl,
                                           const std::string& output_json) {
  std::ifstream in(input_jsonl);
  if (!in) return Status::IoError("cannot open " + input_jsonl);
  std::vector<std::string> lines;
  for (std::string line; std::getline(in, line);) {
    lines.push_back(std::move(line));
  }

  TraceExportStats stats;
  const std::string trace = ChromeTraceFromJsonlLines(lines, &stats);
  if (stats.spans == 0) {
    return Status::NotFound("no span records in " + input_jsonl +
                            " (is it a chameleon metrics JSONL?)");
  }

  std::ofstream out(output_json);
  if (!out) return Status::IoError("cannot open " + output_json);
  out << trace;
  if (!out.good()) return Status::IoError("write failed: " + output_json);
  return stats;
}

}  // namespace chameleon::obs
