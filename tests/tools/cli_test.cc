// The front-door contract every binary shares through tools/cli: --help
// lists exactly the binary's flags, --version names the tool, an unknown
// flag is a usage error (exit 2). The golden flag lists lock the option
// surface: adding or dropping a flag must change this file. Also pins the
// shared run session: --profile without a metrics sink still writes the
// folded profile. Drives the real binaries (paths injected by CMake).

#include <sys/wait.h>

#include <array>
#include <cctype>
#include <cstddef>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "chameleon/graph/generators.h"
#include "chameleon/graph/io.h"
#include "chameleon/util/rng.h"

namespace chameleon {
namespace {

struct RunResult {
  int exit_code = -1;
  std::string stdout_text;
  std::string stderr_text;
};

/// Runs `command` without $CHAMELEON_METRICS, capturing stdout via popen
/// and stderr via a temp file redirection.
RunResult RunCommand(const std::string& command) {
  RunResult result;
  const std::string stderr_path = testing::TempDir() + "/cli_stderr.txt";
  const std::string full =
      "env -u CHAMELEON_METRICS " + command + " 2>" + stderr_path;
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

struct Binary {
  const char* tool;
  const char* path;
  std::set<std::string> flags;
};

/// The flags cli::AddRunFlags registers on the three pipeline tools.
std::set<std::string> WithRunFlags(std::set<std::string> flags) {
  flags.insert({"metrics_out", "hw_counters", "profile", "profile_hz",
                "heap_profile", "heap_sample_bytes", "watchdog_stall_seconds",
                "watchdog_abort_after"});
  return flags;
}

const std::vector<Binary>& Binaries() {
  static const auto* binaries = new std::vector<Binary>{
      {"chameleon_anonymize", ANONYMIZE_BIN,
       WithRunFlags({"adversary", "bandwidth", "candidate_fraction", "eps",
                     "err_worlds", "graph", "help", "k", "method", "out",
                     "refine", "result", "seed", "sigma_init", "sigma_max",
                     "threads", "trials", "version", "white_noise"})},
      {"chameleon_obf_check", OBF_CHECK_BIN,
       WithRunFlags({"adversary", "bandwidth", "csv", "eps", "graph", "help",
                     "k", "kernel", "out", "threads", "version"})},
      {"chameleon_mc_reliability", MC_RELIABILITY_BIN,
       WithRunFlags({"avg_degree", "connected_pairs", "graph", "help",
                     "max_rel_err", "min_samples", "nodes", "p_max", "p_min",
                     "seed", "source", "statusz_port", "target",
                     "target_ci_halfwidth", "threads", "version", "worlds"})},
      {"chameleon_scaling", SCALING_BIN,
       {"avg_degree", "eps", "help", "hw_counters", "k", "mc_worlds",
        "metrics_out", "nodes", "out", "p_max", "p_min", "reps", "seed",
        "threads", "threads_list", "version", "workload"}},
      {"chameleon_obs_dump", OBS_DUMP_BIN,
       {"flame", "heap", "heap_sort", "help", "hw", "input", "sort", "top",
        "version"}},
      {"chameleon_watch", WATCH_BIN,
       {"help", "input", "interval_ms", "once", "version"}},
      {"chameleon_trace_export", TRACE_EXPORT_BIN, {"help", "version"}},
      {"chameleon_bench_diff", BENCH_DIFF_BIN,
       {"help", "mad_mult", "threshold", "version"}},
      {"chameleon_bench_core", BENCH_CORE_BIN,
       {"filter", "help", "list", "out", "quick", "reps", "version"}},
      {"chameleon_bench_privacy", BENCH_PRIVACY_BIN,
       {"filter", "help", "list", "out", "quick", "reps", "version"}},
      {"chameleon_bench_anonymize", BENCH_ANONYMIZE_BIN,
       {"filter", "help", "list", "out", "quick", "reps", "version"}},
      {"chameleon_overhead_gate", OVERHEAD_GATE_BIN,
       {"gate", "help", "list", "out", "reps", "version"}},
  };
  return *binaries;
}

/// Flag names in a FlagSet::Usage() table: every "  --name" line.
std::set<std::string> UsageFlags(const std::string& usage) {
  std::set<std::string> flags;
  std::istringstream lines(usage);
  for (std::string line; std::getline(lines, line);) {
    if (line.rfind("  --", 0) != 0) continue;
    std::size_t end = 4;
    while (end < line.size() &&
           (std::isalnum(static_cast<unsigned char>(line[end])) != 0 ||
            line[end] == '_')) {
      ++end;
    }
    flags.insert(line.substr(4, end - 4));
  }
  return flags;
}

TEST(CliTest, HelpListsExactlyTheBinarysFlags) {
  for (const Binary& binary : Binaries()) {
    SCOPED_TRACE(binary.tool);
    const RunResult run = RunCommand(std::string(binary.path) + " --help");
    EXPECT_EQ(run.exit_code, 0);
    EXPECT_EQ(UsageFlags(run.stdout_text), binary.flags);
  }
}

TEST(CliTest, VersionNamesTheTool) {
  for (const Binary& binary : Binaries()) {
    SCOPED_TRACE(binary.tool);
    const RunResult run =
        RunCommand(std::string(binary.path) + " --version");
    EXPECT_EQ(run.exit_code, 0);
    EXPECT_NE(run.stdout_text.find(binary.tool), std::string::npos)
        << run.stdout_text;
  }
}

TEST(CliTest, UnknownFlagIsAUsageError) {
  for (const Binary& binary : Binaries()) {
    SCOPED_TRACE(binary.tool);
    const RunResult run =
        RunCommand(std::string(binary.path) + " --no_such_flag");
    EXPECT_EQ(run.exit_code, 2);
    EXPECT_NE(run.stderr_text.find("error:"), std::string::npos)
        << run.stderr_text;
  }
}

TEST(CliTest, NegativeCountIsAUsageError) {
  // Each of these used to wrap to 2^64 when cast to std::size_t: a run
  // until killed, a bad_alloc abort, or a silently ignored rule. The
  // timeout bounds the old hang; the check now stops them at the door.
  const std::string graph_path = testing::TempDir() + "/cli_neg.edges";
  Rng rng(7);
  const Result<graph::UncertainGraph> graph =
      graph::RandomUncertainGraph(200, 4.0, 0.1, 0.9, rng);
  ASSERT_TRUE(graph.ok());
  ASSERT_TRUE(graph::WriteEdgeList(*graph, graph_path).ok());
  const std::string anonymize = std::string(ANONYMIZE_BIN) +
                                " --graph=" + graph_path +
                                " --k=20 --eps=0.01";
  const std::string mc = std::string(MC_RELIABILITY_BIN) + " --nodes=20";
  const std::string scaling =
      std::string(SCALING_BIN) + " --workload=mc_reliability --reps=1";
  const std::pair<std::string, std::string> cases[] = {
      {mc, "--worlds=-5"},         {mc, "--nodes=-5"},
      {mc, "--min_samples=-1"},    {anonymize, "--err_worlds=-1"},
      {anonymize, "--trials=-1"},  {anonymize, "--refine=-1"},
      {scaling, "--nodes=-5"},     {scaling, "--mc_worlds=-1"},
  };
  for (const auto& [command, flag] : cases) {
    SCOPED_TRACE(command + " " + flag);
    const RunResult run = RunCommand("timeout 10 " + command + " " + flag);
    EXPECT_EQ(run.exit_code, 2);
    const std::string name = flag.substr(0, flag.find('='));
    EXPECT_NE(run.stderr_text.find("error: InvalidArgument: " + name +
                                   " must be >= 0"),
              std::string::npos)
        << run.stderr_text;
    EXPECT_NE(run.stderr_text.find("  " + name + " "), std::string::npos)
        << "no usage table in:\n" << run.stderr_text;
  }
  std::remove(graph_path.c_str());
}

/// True when every line of a folded-stacks file is "<frames> <count>"
/// with a positive count, and there is at least one line.
bool IsFoldedProfile(const std::string& text) {
  std::istringstream lines(text);
  std::size_t parsed = 0;
  for (std::string line; std::getline(lines, line);) {
    const std::size_t space = line.rfind(' ');
    if (space == std::string::npos || space == 0) return false;
    const std::string count = line.substr(space + 1);
    if (count.empty() || count.find_first_not_of("0123456789") !=
                             std::string::npos ||
        std::stoull(count) == 0) {
      return false;
    }
    ++parsed;
  }
  return parsed > 0;
}

TEST(CliTest, ProfileWithoutMetricsSinkWritesFoldedStacks) {
  // The profiler samples only threads inside spans, and spans only run
  // with a live sink; --profile alone must still get one. The graph is
  // big enough (O(n^2) uniqueness) for ~0.2 s of CPU per run.
  const std::string graph_path = testing::TempDir() + "/cli_er5k.edges";
  Rng rng(2018);
  const Result<graph::UncertainGraph> graph =
      graph::RandomUncertainGraph(5000, 8.0, 0.1, 0.9, rng);
  ASSERT_TRUE(graph.ok());
  ASSERT_TRUE(graph::WriteEdgeList(*graph, graph_path).ok());

  for (const std::string tool : {ANONYMIZE_BIN, OBF_CHECK_BIN}) {
    SCOPED_TRACE(tool);
    const std::string folded = testing::TempDir() + "/cli_profile.folded";
    std::remove(folded.c_str());
    const RunResult run =
        RunCommand(tool + " --graph=" + graph_path +
                   " --k=20 --eps=0.01 --profile_hz=999 --profile=" + folded);
    EXPECT_EQ(run.exit_code, 0) << run.stderr_text;
    if (run.stderr_text.find("warning: profiler disabled") !=
        std::string::npos) {
      // OBS=OFF build or a host without per-thread CPU timers.
      GTEST_SKIP() << run.stderr_text;
    }
    EXPECT_NE(run.stdout_text.find("profile: "), std::string::npos)
        << run.stdout_text;
    std::ifstream in(folded);
    const std::string text((std::istreambuf_iterator<char>(in)),
                           std::istreambuf_iterator<char>());
    EXPECT_TRUE(IsFoldedProfile(text)) << "folded file:\n" << text;
    std::remove(folded.c_str());
  }
  std::remove(graph_path.c_str());
}

}  // namespace
}  // namespace chameleon
