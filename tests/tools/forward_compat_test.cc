// Forward-compatibility contract of the JSONL readers (ISSUE 5): a
// metrics stream written by a newer library — containing record types
// this build has never heard of — must still render through
// chameleon_obs_dump and chameleon_watch. Unknown types pass through
// with one debug note per type, count toward the record total, and are
// never a per-record warning or an error. Drives the real tool binaries
// (paths injected by CMake) over crafted streams.

#include <sys/wait.h>

#include <array>
#include <chrono>
#include <cstddef>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "chameleon/obs/sink.h"

namespace chameleon {
namespace {

struct RunResult {
  int exit_code = -1;
  std::string stdout_text;
  std::string stderr_text;
};

/// Runs `command`, capturing stdout via popen and stderr via a temp
/// file redirection.
RunResult RunCommand(const std::string& command) {
  RunResult result;
  const std::string stderr_path = testing::TempDir() + "/fc_stderr.txt";
  const std::string full = command + " 2>" + stderr_path;
  std::FILE* pipe = popen(full.c_str(), "r");
  if (pipe == nullptr) return result;
  std::array<char, 4096> buffer;
  std::size_t n = 0;
  while ((n = fread(buffer.data(), 1, buffer.size(), pipe)) > 0) {
    result.stdout_text.append(buffer.data(), n);
  }
  const int status = pclose(pipe);
  result.exit_code = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  std::ifstream err(stderr_path);
  result.stderr_text.assign(std::istreambuf_iterator<char>(err),
                            std::istreambuf_iterator<char>());
  std::remove(stderr_path.c_str());
  return result;
}

std::size_t CountOccurrences(const std::string& text,
                             const std::string& needle) {
  std::size_t count = 0;
  for (std::size_t pos = text.find(needle); pos != std::string::npos;
       pos = text.find(needle, pos + needle.size())) {
    ++count;
  }
  return count;
}

std::string WriteStream(const std::string& name, const std::string& body) {
  const std::string path = testing::TempDir() + "/" + name;
  std::ofstream out(path);
  out << body;
  return path;
}

/// A stream mixing known records, a privacy_check, and three records of
/// a type from "the future".
std::string MixedStream() {
  return
      "{\"type\":\"manifest\",\"tool\":\"future_tool\","
      "\"git_describe\":\"v9\"}\n"
      "{\"type\":\"privacy_check\",\"t_ms\":1,\"k\":8,\"eps\":0.05,"
      "\"eps_hat\":0.1111,\"obfuscated\":false,\"vertices\":9,"
      "\"not_obfuscated\":1,\"min_entropy_bits\":0,"
      "\"mean_entropy_bits\":2.67,\"distinct_omegas\":2,"
      "\"adversary\":\"expected_degree\",\"threads\":1,\"wall_ms\":0.1}\n"
      "{\"type\":\"relevance_progress\",\"t_ms\":1,"
      "\"label\":\"anonymize/relevance\",\"worlds\":200,"
      "\"total_worlds\":200,\"mean_err\":3.25,\"max_err\":20,"
      "\"mean_world_mass\":11.5,\"ci_halfwidth\":0.4,\"rel_err\":0.123,"
      "\"final\":true,\"stopped_early\":false}\n"
      "{\"type\":\"anonymize_attempt\",\"t_ms\":1,\"method\":\"RSME\","
      "\"phase\":\"expand\",\"level\":0,\"attempt\":0,\"sigma\":0.05,"
      "\"success\":false,\"eps_hat\":0.25,\"not_obfuscated\":2,"
      "\"vertices\":9,\"perturbed_edges\":4,\"excluded\":1,"
      "\"wall_ms\":0.2}\n"
      "{\"type\":\"sigma_search\",\"t_ms\":2,\"method\":\"RSME\","
      "\"phase\":\"final\",\"level\":3,\"sigma\":0.2,\"lo\":0.1,"
      "\"hi\":0.2,\"success\":true,\"eps_hat\":0.04,\"attempts\":5,"
      "\"best_sigma\":0.1875}\n"
      "{\"type\":\"quantum_flux\",\"t_ms\":2,\"q\":1}\n"
      "{\"type\":\"quantum_flux\",\"t_ms\":3,\"q\":2}\n"
      "{\"type\":\"quantum_flux\",\"t_ms\":4,\"q\":3}\n"
      "{\"type\":\"hw_counters\",\"t_ms\":4,\"path\":\"privacy/obf_check\","
      "\"backend\":\"emulated\",\"spans\":2,\"cycles\":3000000,"
      "\"instructions\":3750000,\"cache_refs\":234375,"
      "\"cache_misses\":29296,\"branch_misses\":14648,"
      "\"stalled_backend\":750000,\"task_clock_ns\":1000000,"
      "\"ipc\":1.25,\"cache_miss_rate\":0.125,"
      "\"branch_miss_rate\":0.003906,\"class\":\"balanced\"}\n"
      "{\"type\":\"run_summary\",\"t_ms\":5,\"wall_ms\":12.5}\n";
}

TEST(ObsDumpForwardCompatTest, UnknownTypesPassThroughWithOneNote) {
  const std::string path = WriteStream("fc_mixed.jsonl", MixedStream());
  const RunResult result = RunCommand(std::string(OBS_DUMP_BIN) + " " + path);
  EXPECT_EQ(result.exit_code, 0) << result.stderr_text;
  // One note for three records of the unknown type — never per record.
  EXPECT_EQ(CountOccurrences(result.stderr_text, "quantum_flux"), 1u)
      << result.stderr_text;
  EXPECT_NE(result.stderr_text.find("unknown type"), std::string::npos);
  // The privacy_check record renders.
  EXPECT_NE(result.stdout_text.find("privacy checks:"), std::string::npos)
      << result.stdout_text;
  EXPECT_NE(result.stdout_text.find("VIOLATED"), std::string::npos);
  // The anonymization records are known types: rendered, never noted
  // as unknown.
  EXPECT_NE(result.stdout_text.find("sigma search:"), std::string::npos)
      << result.stdout_text;
  EXPECT_NE(result.stdout_text.find("anonymize attempts:"),
            std::string::npos)
      << result.stdout_text;
  EXPECT_NE(result.stdout_text.find("reliability relevance:"),
            std::string::npos)
      << result.stdout_text;
  EXPECT_EQ(result.stderr_text.find("sigma_search"), std::string::npos)
      << result.stderr_text;
  EXPECT_EQ(result.stderr_text.find("anonymize_attempt"), std::string::npos);
  EXPECT_EQ(result.stderr_text.find("relevance_progress"),
            std::string::npos);
  // hw_counters is a known type: rendered (as the --hw hint), never in
  // the unknown-type notes.
  EXPECT_EQ(result.stderr_text.find("hw_counters"), std::string::npos)
      << result.stderr_text;
  EXPECT_NE(result.stdout_text.find("hw counters:"), std::string::npos)
      << result.stdout_text;
  std::remove(path.c_str());
}

TEST(ObsDumpForwardCompatTest, HwViewRendersBottleneckTable) {
  const std::string path = WriteStream("fc_hw.jsonl", MixedStream());
  const RunResult result =
      RunCommand(std::string(OBS_DUMP_BIN) + " --hw " + path);
  EXPECT_EQ(result.exit_code, 0) << result.stderr_text;
  EXPECT_NE(result.stdout_text.find("privacy/obf_check"), std::string::npos)
      << result.stdout_text;
  EXPECT_NE(result.stdout_text.find("balanced"), std::string::npos);
  EXPECT_NE(result.stdout_text.find("emulated"), std::string::npos);
  std::remove(path.c_str());
}

TEST(ObsDumpForwardCompatTest, HwViewExplainsUnavailableCounters) {
  const std::string path = WriteStream(
      "fc_hw_unavail.jsonl",
      "{\"type\":\"hw_counters_unavailable\",\"t_ms\":1,"
      "\"reason\":\"perf_event_paranoid\"}\n"
      "{\"type\":\"run_summary\",\"t_ms\":2,\"wall_ms\":1.0}\n");
  const RunResult result =
      RunCommand(std::string(OBS_DUMP_BIN) + " --hw " + path);
  // No table to print is still an error exit, but the reason is relayed
  // instead of the generic rerun hint.
  EXPECT_EQ(result.exit_code, 1);
  EXPECT_NE(result.stderr_text.find("perf_event_paranoid"),
            std::string::npos)
      << result.stderr_text;
  std::remove(path.c_str());
}

TEST(ObsDumpForwardCompatTest, OnlyUnknownTypesIsNotAnError) {
  const std::string path = WriteStream(
      "fc_unknown.jsonl",
      "{\"type\":\"quantum_flux\",\"t_ms\":1}\n"
      "{\"type\":\"tachyon_burst\",\"t_ms\":2}\n");
  const RunResult result = RunCommand(std::string(OBS_DUMP_BIN) + " " + path);
  // Typed records exist, so this is a valid (if empty-looking) stream.
  EXPECT_EQ(result.exit_code, 0) << result.stderr_text;
  EXPECT_EQ(CountOccurrences(result.stderr_text, "quantum_flux"), 1u);
  EXPECT_EQ(CountOccurrences(result.stderr_text, "tachyon_burst"), 1u);
  std::remove(path.c_str());
}

TEST(ObsDumpForwardCompatTest, StreamWithNoTypedRecordsStillFails) {
  const std::string path =
      WriteStream("fc_garbage.jsonl", "not json at all\n{\"a\":1}\n");
  const RunResult result = RunCommand(std::string(OBS_DUMP_BIN) + " " + path);
  EXPECT_EQ(result.exit_code, 1);
  EXPECT_NE(result.stderr_text.find("no chameleon obs records"),
            std::string::npos);
  std::remove(path.c_str());
}

TEST(WatchForwardCompatTest, UnknownTypesPassThroughWithOneNote) {
  const std::string path = WriteStream("fc_watch.jsonl", MixedStream());
  const RunResult result =
      RunCommand(std::string(WATCH_BIN) + " --once " + path);
  EXPECT_EQ(result.exit_code, 0) << result.stderr_text;
  EXPECT_EQ(CountOccurrences(result.stderr_text, "quantum_flux"), 1u)
      << result.stderr_text;
  // privacy_check renders as a human line; the summary closes the run.
  EXPECT_NE(result.stdout_text.find("obfuscation VIOLATED"),
            std::string::npos)
      << result.stdout_text;
  // The anonymization records render as one-liners, never as unknown.
  EXPECT_NE(result.stdout_text.find("sigma search done"), std::string::npos)
      << result.stdout_text;
  EXPECT_NE(result.stdout_text.find("RSME expand level 0"),
            std::string::npos)
      << result.stdout_text;
  EXPECT_NE(result.stdout_text.find("relevance anonymize/relevance"),
            std::string::npos)
      << result.stdout_text;
  EXPECT_EQ(result.stderr_text.find("sigma_search"), std::string::npos)
      << result.stderr_text;
  EXPECT_NE(result.stdout_text.find("run finished"), std::string::npos);
  // hw_counters renders as the one-line ipc/cache-miss note, not as an
  // unknown type.
  EXPECT_EQ(result.stderr_text.find("hw_counters"), std::string::npos)
      << result.stderr_text;
  EXPECT_NE(result.stdout_text.find("hw privacy/obf_check"),
            std::string::npos)
      << result.stdout_text;
  std::remove(path.c_str());
}

TEST(WatchForwardCompatTest, CrashFrameCountIgnoresBracketsInFrames) {
  // A bracket inside a frame name must not end the frames array.
  const std::string path = WriteStream(
      "fc_crash_frames.jsonl",
      "{\"type\":\"crash\",\"t_ms\":1,\"signal\":11,"
      "\"signal_name\":\"SIGSEGV\",\"tid\":1,\"frames\":[\"f0\","
      "\"std::vector<int>::operator[](unsigned long)\",\"f2\",\"main\"]}\n");
  const RunResult watch =
      RunCommand(std::string(WATCH_BIN) + " --once " + path);
  EXPECT_EQ(watch.exit_code, 0) << watch.stderr_text;
  EXPECT_NE(watch.stdout_text.find("— 4 frames"), std::string::npos)
      << watch.stdout_text;
  const RunResult dump = RunCommand(std::string(OBS_DUMP_BIN) + " " + path);
  EXPECT_EQ(dump.exit_code, 0) << dump.stderr_text;
  EXPECT_NE(dump.stdout_text.find(
                "  #1 std::vector<int>::operator[](unsigned long)\n"
                "  #2 f2\n  #3 main\n"),
            std::string::npos)
      << dump.stdout_text;
  std::remove(path.c_str());
}

/// One record of a known type and the line that shows it rendered by
/// each reader; nullptr where that reader deliberately shows nothing for
/// the type (watch skips spans and snapshots; obs_dump has no status
/// line; the two "unavailable" notes give way to the records they stand
/// in for, so KnownUnavailableNotesRender covers them).
struct KnownRecord {
  const char* type;
  const char* record;
  const char* dump_headline;
  const char* watch_headline;
};

const std::vector<KnownRecord>& KnownRecords() {
  static const std::vector<KnownRecord> records = {
      {"manifest",
       R"({"type":"manifest","tool":"all_types","git_describe":"v1",)"
       R"("hostname":"h","seeds":{"rng":7}})",
       "manifest: all_types v1 on h (seed rng:7)",
       "watching all_types (v1)"},
      {"span",
       R"({"type":"span","path":"phase/a","tid":1,"t_ms":1,)"
       R"("mono_ns":1000,"dur_ns":2000000,"cpu_ns":1000000})",
       "critical path: phase/a (2.000 ms)", nullptr},
      {"snapshot",
       R"({"type":"snapshot","label":"s","t_ms":1,"metrics":{}})",
       "1 snapshots", nullptr},
      {"estimator_progress",
       R"({"type":"estimator_progress","label":"est","t_ms":1,)"
       R"("samples":100,"mean":0.5,"stddev":0.1,"ci_halfwidth":0.01,)"
       R"("rel_err":0.02,"rate_per_s":1000,"final":true,)"
       R"("stopped_early":true})",
       "estimator convergence:", "[est] n=100 mean=0.5"},
      {"status_server",
       R"({"type":"status_server","t_ms":1,"address":"127.0.0.1",)"
       R"("port":8080})",
       nullptr, "statusz live at http://127.0.0.1:8080/statusz"},
      {"graph_summary",
       R"({"type":"graph_summary","t_ms":1,"origin":"g.edges",)"
       R"("nodes":10,"edges":20,"mean_degree":4,"max_degree":6,)"
       R"("sum_p":10,"mean_p":0.5,"deg_hist_log2":[0,1]})",
       "graphs loaded:", "graph g.edges: 10 nodes, 20 edges"},
      {"profile",
       R"({"type":"profile","t_ms":1,"hz":99,"duration_ms":10,)"
       R"("samples":4,"dropped":0,"folded_out":"p.folded",)"
       R"("spans":{"phase/a":3,"phase/b":1}})",
       "profile: 4 samples at 99 Hz", "profile captured: 4 samples"},
      {"privacy_check",
       R"({"type":"privacy_check","t_ms":1,"k":8,"eps":0.05,)"
       R"("eps_hat":0.1111,"obfuscated":false,"vertices":9,)"
       R"("not_obfuscated":1,"min_entropy_bits":0,)"
       R"("mean_entropy_bits":2.67,"distinct_omegas":2,)"
       R"("adversary":"expected_degree","threads":1,"wall_ms":0.1})",
       "privacy checks:", "obfuscation VIOLATED"},
      {"crash",
       R"({"type":"crash","t_ms":1,"signal":11,"signal_name":"SIGSEGV",)"
       R"("si_code":1,"fault_addr":"0x0","tid":1,"span_path":"phase/a",)"
       R"("frames":["f0","f1"],"rusage":{}})",
       "CRASH: SIGSEGV (signal 11) on tid 1 at 0x0 in span phase/a",
       "CRASH: SIGSEGV (signal 11) at 0x0 in span phase/a — 2 frames"},
      {"flight_event_dump",
       R"({"type":"flight_event_dump","t_ms":1,"signal":11,"threads":1,)"
       R"("events":2,"recorded":2,"dropped":0,"tail":["e1","e2"],)"
       R"("rings":[]})",
       "flight recorder (1 threads, 2 events",
       "flight recorder dumped: 2 events"},
      {"watchdog_stall",
       R"({"type":"watchdog_stall","t_ms":1,"path":"phase/a","tid":1,)"
       R"("idle_ms":5000,"open_ms":6000,"stall_seconds":5,)"
       R"("aborting":false})",
       "watchdog stalls:", "WATCHDOG: phase/a idle 5.0s"},
      {"parallel_region",
       R"({"type":"parallel_region","name":"phase/a","t_ms":1,"items":10,)"
       R"("block_size":5,"blocks":2,"requested":2,"workers":2,)"
       R"("wall_ns":1000,"spawn_ns":10,"join_ns":10,"busy_ns":[900,800],)"
       R"("blocks_claimed":[1,1],"busy_total_ns":1700,)"
       R"("idle_total_ns":300,"imbalance":1.06,"speedup":1.7,)"
       R"("efficiency":0.85})",
       "parallel regions:", "parallel phase/a: 2/2 workers"},
      {"mutex_wait",
       R"({"type":"mutex_wait","name":"mu","t_ms":1,"tid":1,)"
       R"("wait_ns":20000000,"contended":1,"long_waits":1,)"
       R"("total_wait_ns":20000000})",
       "long mutex waits:", "LOCK WAIT: mutex mu"},
      {"hw_counters",
       R"({"type":"hw_counters","t_ms":4,"path":"privacy/obf_check",)"
       R"("backend":"emulated","spans":2,"cycles":3000000,)"
       R"("instructions":3750000,"cache_refs":234375,)"
       R"("cache_misses":29296,"branch_misses":14648,)"
       R"("stalled_backend":750000,"task_clock_ns":1000000,"ipc":1.25,)"
       R"("cache_miss_rate":0.125,"branch_miss_rate":0.003906,)"
       R"("class":"balanced"})",
       "hw counters: 1 span path(s) via emulated backend",
       "hw privacy/obf_check: ipc 1.25"},
      {"hw_counters_unavailable",
       R"({"type":"hw_counters_unavailable","t_ms":1,"reason":"no PMU"})",
       nullptr, "hw counters unavailable: no PMU"},
      {"heap_profile",
       R"({"type":"heap_profile","t_ms":1,"span_path":"phase/a",)"
       R"("samples":3,"cum_bytes":3145728,"cum_allocs":30,)"
       R"("live_bytes":1024,"live_allocs":1,"peak_bytes":2048,)"
       R"("leak_bytes":0,"allowlisted":false,"sample_bytes":4096,)"
       R"("scale":1,"frames":["operator_new","alloc_site"]})",
       "heap profile: 1 site(s)", "heap phase/a: cum 3.00 MiB"},
      {"heap_timeline",
       R"({"type":"heap_timeline","t_ms":1,"sample_bytes":4096,)"
       R"("duration_ms":10,"samples":3,"dropped":0,"sites":1,)"
       R"("est_cum_bytes":3145728,"est_cum_allocs":30,)"
       R"("est_live_bytes":1024,"est_peak_bytes":2097152,)"
       R"("exact_cum_bytes":3000000,"exact_cum_allocs":29,)"
       R"("points":[{"mono_ns":1,"live_bytes":0,"cum_bytes":0,)"
       R"("cum_allocs":0,"rss_kb":100}]})",
       "1 site(s), 3 samples", "heap profile: 3 samples, est peak 2.00 MiB"},
      {"heap_profiler_unavailable",
       R"({"type":"heap_profiler_unavailable","t_ms":1,)"
       R"("reason":"not requested"})",
       nullptr, "heap profiler unavailable: not requested"},
      {"relevance_progress",
       R"({"type":"relevance_progress","t_ms":1,)"
       R"("label":"anonymize/relevance","worlds":200,)"
       R"("total_worlds":200,"mean_err":3.25,"max_err":20,)"
       R"("mean_world_mass":11.5,"ci_halfwidth":0.4,"rel_err":0.123,)"
       R"("final":true,"stopped_early":false})",
       "reliability relevance:", "relevance anonymize/relevance: 200/200"},
      {"anonymize_attempt",
       R"({"type":"anonymize_attempt","t_ms":1,"method":"RSME",)"
       R"("phase":"expand","level":0,"attempt":0,"sigma":0.05,)"
       R"("success":false,"eps_hat":0.25,"not_obfuscated":2,)"
       R"("vertices":9,"perturbed_edges":4,"excluded":1,"wall_ms":0.2})",
       "anonymize attempts:", "RSME expand level 0 attempt 0"},
      {"sigma_search",
       R"({"type":"sigma_search","t_ms":2,"method":"RSME",)"
       R"("phase":"final","level":3,"sigma":0.2,"lo":0.1,"hi":0.2,)"
       R"("success":true,"eps_hat":0.04,"attempts":5,)"
       R"("best_sigma":0.1875})",
       "sigma search:", "RSME sigma search done: best sigma=0.1875"},
      {"run_summary",
       R"({"type":"run_summary","t_ms":9,"wall_ms":12.5,)"
       R"("rusage":{"user_cpu_ms":1.5,"system_cpu_ms":0.5,)"
       R"("max_rss_kb":1000,"minflt":1,"majflt":0},)"
       R"("metrics":{"counters":{"c/one":3},"gauges":{}}})",
       "run wall time: 12.500 ms", "run finished: wall 12.5 ms"},
  };
  return records;
}

TEST(KnownRecordTypesTest, EveryKnownTypeRendersInBothReaders) {
  // The crafted stream covers the whole list, so a type added to
  // kRecordTypes without a rendering case fails here.
  std::set<std::string> covered;
  std::string body;
  for (const KnownRecord& known : KnownRecords()) {
    covered.insert(known.type);
    EXPECT_EQ(obs::JsonlStringField(known.record, "type"),
              std::optional<std::string>(known.type));
    body += std::string(known.record) + "\n";
  }
  for (const std::string_view type : obs::kRecordTypes) {
    EXPECT_EQ(covered.count(std::string(type)), 1u) << type;
  }
  EXPECT_EQ(covered.size(), obs::kRecordTypes.size());

  const std::string path = WriteStream("fc_all_types.jsonl", body);
  const RunResult dump = RunCommand(std::string(OBS_DUMP_BIN) + " " + path);
  const RunResult watch =
      RunCommand(std::string(WATCH_BIN) + " --once " + path);
  EXPECT_EQ(dump.exit_code, 0) << dump.stderr_text;
  EXPECT_EQ(watch.exit_code, 0) << watch.stderr_text;
  EXPECT_EQ(dump.stderr_text.find("unknown"), std::string::npos)
      << dump.stderr_text;
  EXPECT_EQ(watch.stderr_text.find("unknown"), std::string::npos)
      << watch.stderr_text;
  for (const KnownRecord& known : KnownRecords()) {
    if (known.dump_headline != nullptr) {
      EXPECT_NE(dump.stdout_text.find(known.dump_headline), std::string::npos)
          << known.type << "\n" << dump.stdout_text;
    }
    if (known.watch_headline != nullptr) {
      EXPECT_NE(watch.stdout_text.find(known.watch_headline),
                std::string::npos)
          << known.type << "\n" << watch.stdout_text;
    }
  }
  std::remove(path.c_str());
}

TEST(KnownRecordTypesTest, ParallelRegionClampRendersAndIsOptional) {
  // A `clamp` names the limit that set the worker count; streams written
  // before the field existed still render, with "-" in its column.
  const std::string region =
      R"("t_ms":1,"items":512,"block_size":8,"blocks":64,"requested":8,)"
      R"("workers":1,)";
  const std::string tail =
      R"("wall_ns":1000,"spawn_ns":0,"join_ns":0,"busy_ns":[1000],)"
      R"("blocks_claimed":[64],"busy_total_ns":1000,"idle_total_ns":0,)"
      R"("imbalance":1,"speedup":1,"efficiency":1})";
  const std::string path = WriteStream(
      "fc_clamp.jsonl",
      R"({"type":"parallel_region","name":"phase/new",)" + region +
          R"("clamp":"grain",)" + tail + "\n" +
          R"({"type":"parallel_region","name":"phase/old",)" + region +
          tail + "\n");
  const RunResult dump = RunCommand(std::string(OBS_DUMP_BIN) + " " + path);
  EXPECT_EQ(dump.exit_code, 0) << dump.stderr_text;
  std::istringstream lines(dump.stdout_text);
  std::string new_row;
  std::string old_row;
  for (std::string line; std::getline(lines, line);) {
    if (line.rfind("phase/new ", 0) == 0) new_row = line;
    if (line.rfind("phase/old ", 0) == 0) old_row = line;
  }
  EXPECT_NE(dump.stdout_text.find("clamp"), std::string::npos)
      << dump.stdout_text;
  EXPECT_NE(new_row.find(" 1/8  grain "), std::string::npos)
      << dump.stdout_text;
  EXPECT_NE(old_row.find(" 1/8  - "), std::string::npos) << dump.stdout_text;
  const RunResult watch =
      RunCommand(std::string(WATCH_BIN) + " --once " + path);
  EXPECT_EQ(watch.exit_code, 0) << watch.stderr_text;
  EXPECT_NE(watch.stdout_text.find("parallel phase/new: 1/8 workers (clamp "
                                   "grain)"),
            std::string::npos)
      << watch.stdout_text;
  EXPECT_NE(watch.stdout_text.find("parallel phase/old: 1/8 workers, "),
            std::string::npos)
      << watch.stdout_text;
  std::remove(path.c_str());
}

TEST(KnownRecordTypesTest, KnownUnavailableNotesRender) {
  const std::string path = WriteStream(
      "fc_unavailable.jsonl",
      "{\"type\":\"hw_counters_unavailable\",\"t_ms\":1,"
      "\"reason\":\"no PMU\"}\n"
      "{\"type\":\"heap_profiler_unavailable\",\"t_ms\":1,"
      "\"reason\":\"not requested\"}\n");
  const RunResult dump = RunCommand(std::string(OBS_DUMP_BIN) + " " + path);
  EXPECT_EQ(dump.exit_code, 0) << dump.stderr_text;
  EXPECT_NE(dump.stdout_text.find("hw counters unavailable: no PMU"),
            std::string::npos)
      << dump.stdout_text;
  EXPECT_NE(dump.stdout_text.find("heap profiler unavailable: not requested"),
            std::string::npos)
      << dump.stdout_text;
  const RunResult heap =
      RunCommand(std::string(OBS_DUMP_BIN) + " --heap " + path);
  EXPECT_EQ(heap.exit_code, 1);
  EXPECT_NE(heap.stderr_text.find("heap profiler unavailable: not requested"),
            std::string::npos)
      << heap.stderr_text;
  std::remove(path.c_str());
}

/// First token of each row of the table whose header line starts with
/// `header`, up to the next blank line; continuation lines (which start
/// with a space) are skipped.
std::vector<std::string> TableRows(const std::string& text,
                                   const std::string& header) {
  std::vector<std::string> rows;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line) && line.rfind(header, 0) != 0) {
  }
  while (std::getline(in, line) && !line.empty()) {
    if (line.front() != ' ') rows.push_back(line.substr(0, line.find(' ')));
  }
  return rows;
}

/// Three phases whose order differs by total, self time, calls and path:
/// totals alpha 10 ms > alpha/beta 6 ms > gamma 3 ms; self alpha/beta
/// 6 ms > alpha 4 ms > gamma 3 ms; calls gamma 3 > 1 = 1.
std::string ViewsStream() {
  std::string body =
      "{\"type\":\"span\",\"path\":\"alpha/beta\",\"dur_ns\":6000000}\n"
      "{\"type\":\"span\",\"path\":\"alpha\",\"dur_ns\":10000000}\n";
  for (int i = 0; i < 3; ++i) {
    body += "{\"type\":\"span\",\"path\":\"gamma\",\"dur_ns\":1000000}\n";
  }
  body +=
      "{\"type\":\"profile\",\"hz\":99,\"duration_ms\":10,\"samples\":9,"
      "\"dropped\":0,\"spans\":{\"alpha\":1,\"gamma\":5,\"alpha/beta\":3}}\n";
  // Sites ordered x z y by cum, y z x by live, z x y by peak, y x z by
  // leak.
  const char* sites[][5] = {{"heap/x", "3145728", "1024", "2048", "2048"},
                            {"heap/y", "1048576", "3072", "1024", "3072"},
                            {"heap/z", "2097152", "2048", "3072", "1024"}};
  for (const auto& site : sites) {
    body += std::string("{\"type\":\"heap_profile\",\"span_path\":\"") +
            site[0] + "\",\"samples\":1,\"cum_bytes\":" + site[1] +
            ",\"live_bytes\":" + site[2] + ",\"peak_bytes\":" + site[3] +
            ",\"leak_bytes\":" + site[4] +
            ",\"frames\":[\"operator_new\",\"site_of_" + site[0] + "\"]}\n";
  }
  return body;
}

TEST(ObsDumpViewsTest, SortOrdersAndTopCut) {
  const std::string path = WriteStream("fc_views.jsonl", ViewsStream());
  const std::string dump = std::string(OBS_DUMP_BIN) + " --top=2 ";
  const std::vector<std::pair<std::string, std::vector<std::string>>> sorts =
      {{"total", {"alpha", "alpha/beta"}},
       {"self", {"alpha/beta", "alpha"}},
       {"path", {"alpha", "alpha/beta"}}};
  for (const auto& [key, expected] : sorts) {
    const RunResult result = RunCommand(dump + "--sort=" + key + " " + path);
    EXPECT_EQ(result.exit_code, 0) << result.stderr_text;
    EXPECT_EQ(TableRows(result.stdout_text, "phase "), expected)
        << key << "\n" << result.stdout_text;
  }
  // alpha and alpha/beta tie on calls; only the leader is fixed.
  const RunResult calls = RunCommand(dump + "--sort=calls " + path);
  EXPECT_EQ(calls.exit_code, 0) << calls.stderr_text;
  const std::vector<std::string> rows = TableRows(calls.stdout_text, "phase ");
  ASSERT_EQ(rows.size(), 2u) << calls.stdout_text;
  EXPECT_EQ(rows[0], "gamma");

  const RunResult flame = RunCommand(dump + "--flame " + path);
  EXPECT_EQ(flame.exit_code, 0) << flame.stderr_text;
  EXPECT_NE(flame.stdout_text.find("profile: 9 samples at 99 Hz"),
            std::string::npos)
      << flame.stdout_text;
  EXPECT_EQ(TableRows(flame.stdout_text, "span path"),
            (std::vector<std::string>{"gamma", "alpha/beta"}))
      << flame.stdout_text;
  std::remove(path.c_str());
}

TEST(ObsDumpViewsTest, HeapSortOrders) {
  const std::string path = WriteStream("fc_heap_views.jsonl", ViewsStream());
  const std::vector<std::pair<std::string, std::vector<std::string>>> sorts =
      {{"cum", {"heap/x", "heap/z", "heap/y"}},
       {"live", {"heap/y", "heap/z", "heap/x"}},
       {"peak", {"heap/z", "heap/x", "heap/y"}},
       {"leak", {"heap/y", "heap/x", "heap/z"}}};
  for (const auto& [key, expected] : sorts) {
    const RunResult result = RunCommand(std::string(OBS_DUMP_BIN) +
                                        " --heap --heap_sort=" + key + " " +
                                        path);
    EXPECT_EQ(result.exit_code, 0) << result.stderr_text;
    EXPECT_EQ(TableRows(result.stdout_text, "span path"), expected)
        << key << "\n" << result.stdout_text;
    // The allocator frame is skipped; the allocating site is named.
    EXPECT_NE(result.stdout_text.find("^ site_of_heap/x"), std::string::npos)
        << result.stdout_text;
    EXPECT_EQ(result.stdout_text.find("^ operator_new"), std::string::npos);
  }
  const RunResult top = RunCommand(std::string(OBS_DUMP_BIN) +
                                   " --heap --heap_sort=peak --top=2 " + path);
  EXPECT_EQ(TableRows(top.stdout_text, "span path"),
            (std::vector<std::string>{"heap/z", "heap/x"}))
      << top.stdout_text;
  std::remove(path.c_str());
}

/// Exit codes as documented: obs_dump and watch exit 0 on any stream
/// holding a typed record; neither may crash or trip a sanitizer.
void ExpectBothReadersSurvive(const std::string& name,
                              const std::string& body) {
  const std::string path = WriteStream(name, body);
  for (const std::string& command :
       {std::string(OBS_DUMP_BIN) + " " + path,
        std::string(WATCH_BIN) + " --once " + path}) {
    const RunResult result = RunCommand(command);
    EXPECT_EQ(result.exit_code, 0) << command << "\n" << result.stderr_text;
    EXPECT_EQ(result.stderr_text.find("Sanitizer"), std::string::npos)
        << command << "\n" << result.stderr_text;
    EXPECT_EQ(result.stderr_text.find("runtime error"), std::string::npos)
        << command << "\n" << result.stderr_text;
  }
  std::remove(path.c_str());
}

TEST(HostileJsonlTest, TruncatedLastLine) {
  ExpectBothReadersSurvive(
      "fc_truncated.jsonl",
      "{\"type\":\"span\",\"path\":\"a\",\"dur_ns\":1000}\n"
      "{\"type\":\"crash\",\"t_ms\":1,\"signal\":11,\"signal_name\":"
      "\"SIGSEGV\",\"frames\":[\"f0\",\"f1");
}

TEST(HostileJsonlTest, UnterminatedStringInsideFrames) {
  ExpectBothReadersSurvive(
      "fc_unterminated.jsonl",
      "{\"type\":\"crash\",\"t_ms\":1,\"signal\":11,\"signal_name\":"
      "\"SIGSEGV\",\"frames\":[\"f0\",\"bad\\\"]}\n"
      "{\"type\":\"heap_profile\",\"span_path\":\"a\",\"frames\":[\"x\\\"]}\n"
      "{\"type\":\"flight_event_dump\",\"threads\":1,\"tail\":[\"e\\\"]}\n");
}

TEST(HostileJsonlTest, TwoRecordsOnOneLine) {
  ExpectBothReadersSurvive(
      "fc_run_together.jsonl",
      "{\"type\":\"span\",\"path\":\"a\",\"dur_ns\":1000}"
      "{\"type\":\"progress\",\"label\":\"l\",\"done\":1}\n"
      "{\"type\":\"run_summary\",\"wall_ms\":1}"
      "{\"type\":\"run_summary\",\"wall_ms\":2}\n");
}

TEST(HostileJsonlTest, OverflowingNumbers) {
  ExpectBothReadersSurvive(
      "fc_overflow.jsonl",
      "{\"type\":\"span\",\"path\":\"a\",\"dur_ns\":1e400,\"cpu_ns\":1e400}\n"
      "{\"type\":\"span\",\"path\":\"b\",\"dur_ns\":1e300,\"cpu_ns\":1e300}\n"
      "{\"type\":\"estimator_progress\",\"label\":\"e\",\"samples\":1e400,"
      "\"final\":true}\n"
      "{\"type\":\"estimator_progress\",\"label\":\"f\",\"samples\":1e300}\n"
      "{\"type\":\"crash\",\"signal\":1e300,\"tid\":1e400,\"frames\":[]}\n"
      "{\"type\":\"heap_timeline\",\"samples\":1e400,"
      "\"points\":[{\"rss_kb\":1e400},{\"rss_kb\":1e300}]}\n"
      "{\"type\":\"run_summary\",\"wall_ms\":1e400,"
      "\"metrics\":{\"counters\":{\"a\":1e400,\"b\":1e300}}}\n");
}

TEST(WatchFollowTest, RecordSplitAcrossWritesRendersOnceWhole) {
  const std::string path = WriteStream(
      "fc_follow.jsonl",
      "{\"type\":\"manifest\",\"tool\":\"follow\",\"git_describe\":\"v1\"}\n");
  const std::string stderr_path = testing::TempDir() + "/fc_follow_err.txt";
  // Bounded so a watcher that never sees the summary fails instead of
  // hanging the suite.
  std::FILE* pipe = popen(("timeout 30 " + std::string(WATCH_BIN) +
                           " --interval_ms=20 " + path + " 2>" + stderr_path)
                              .c_str(),
                          "r");
  ASSERT_NE(pipe, nullptr);
  // The watcher flushes each rendered line, so reading the manifest line
  // means it is following the file.
  std::array<char, 4096> buffer;
  ASSERT_NE(std::fgets(buffer.data(), buffer.size(), pipe), nullptr);
  std::string output = buffer.data();
  EXPECT_EQ(output, "watching follow (v1)\n");

  const std::string record =
      "{\"type\":\"privacy_check\",\"t_ms\":1,\"k\":8,\"eps\":0.05,"
      "\"eps_hat\":0.1111,\"obfuscated\":false,\"vertices\":9,"
      "\"not_obfuscated\":1}\n";
  const std::size_t cut = record.find("0.1111") + 3;  // mid-number
  const auto append = [&path](const std::string& text) {
    std::ofstream out(path, std::ios::app);
    out << text;
  };
  append(record.substr(0, cut));
  // Several poll intervals with the file ending mid-record.
  std::this_thread::sleep_for(std::chrono::milliseconds(300));
  append(record.substr(cut));
  append("{\"type\":\"run_summary\",\"t_ms\":2,\"wall_ms\":3.5}\n");

  std::size_t n = 0;
  while ((n = fread(buffer.data(), 1, buffer.size(), pipe)) > 0) {
    output.append(buffer.data(), n);
  }
  const int status = pclose(pipe);
  ASSERT_TRUE(WIFEXITED(status)) << output;
  EXPECT_EQ(WEXITSTATUS(status), 0) << output;
  EXPECT_EQ(output,
            "watching follow (v1)\n"
            "(k=8, eps=0.05)-obfuscation VIOLATED: eps_hat=0.1111 "
            "(1/9 vertices exposed)\n"
            "run finished: wall 3.5 ms\n");
  std::remove(stderr_path.c_str());
  std::remove(path.c_str());
}

TEST(ToolSmokeTest, ObfCheckClassifiesCommittedFixtures) {
  // The CLI end of the CI smoke: both committed fixtures run through
  // the real binary and land on the expected verdicts.
  const std::string dir = CHAMELEON_EXAMPLES_DIR;
  const RunResult good = RunCommand(std::string(OBF_CHECK_BIN) +
                                    " --k=8 --eps=0.05 " + dir +
                                    "/graphs/cycle_obfuscated.edges");
  EXPECT_EQ(good.exit_code, 0) << good.stderr_text;
  EXPECT_NE(good.stdout_text.find("SATISFIED"), std::string::npos)
      << good.stdout_text;

  const RunResult bad = RunCommand(std::string(OBF_CHECK_BIN) +
                                   " --k=8 --eps=0.05 " + dir +
                                   "/graphs/star_not_obfuscated.edges");
  EXPECT_EQ(bad.exit_code, 0) << bad.stderr_text;
  EXPECT_NE(bad.stdout_text.find("VIOLATED"), std::string::npos)
      << bad.stdout_text;

  // Usage errors exit 2.
  const RunResult usage = RunCommand(std::string(OBF_CHECK_BIN));
  EXPECT_EQ(usage.exit_code, 2);
  // Runtime errors (missing graph) exit 1.
  const RunResult missing =
      RunCommand(std::string(OBF_CHECK_BIN) + " /nonexistent.edges");
  EXPECT_EQ(missing.exit_code, 1);
}

}  // namespace
}  // namespace chameleon
