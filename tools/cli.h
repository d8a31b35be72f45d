#ifndef CHAMELEON_TOOLS_CLI_H_
#define CHAMELEON_TOOLS_CLI_H_

#include <cstdint>
#include <initializer_list>
#include <optional>
#include <string>
#include <string_view>

#include "chameleon/obs/run_context.h"
#include "chameleon/util/flags.h"
#include "chameleon/util/status.h"

/// \file cli.h
/// The start-up every command-line binary shares, written once:
///
///   FlagSet flags("chameleon_x: ...");
///   flags.Add...(...);                    // the tool's own flags
///   cli::AddRunFlags(flags);              // pipeline tools only
///   if (auto code = cli::ParseCommandLine(flags, "chameleon_x", argc, argv))
///     return *code;
///   ... validate, build the RunManifest ...
///   if (Status s = cli::StartRun(flags, manifest); !s.ok()) { ...; return 1; }
///   ... the run ...
///   cli::FinishRun();
///
/// Exit codes follow one convention across the tools: 0 success, 1 a
/// runtime error, 2 a usage error.

namespace chameleon::cli {

/// Registers --help and --version, then parses argv[1..argc). Returns the
/// exit code when the process should stop here: 2 after printing
/// "error: ..." and the usage on a parse error or a negative value of
/// one of the int64 `count_flags` (sizes and counts the tool casts to
/// std::size_t), 0 after printing the usage (--help) or
/// `obs::VersionString(tool)` (--version). nullopt means carry on.
std::optional<int> ParseCommandLine(
    FlagSet& flags, std::string_view tool, int argc, char** argv,
    std::initializer_list<std::string_view> count_flags = {});

/// The string flag `name`, or the first positional argument when that
/// flag is empty ("" when neither is given).
std::string FlagOrFirstPositional(const FlagSet& flags,
                                  std::string_view name);

/// Writes `text` to `path`, replacing the file. IoError on an open,
/// short-write or close failure.
Status WriteTextFile(const std::string& path, const std::string& text);

/// Registers the observability flags every pipeline tool takes:
/// --metrics_out, --hw_counters, --profile, --profile_hz, --heap_profile,
/// --heap_sample_bytes, --watchdog_stall_seconds, --watchdog_abort_after.
void AddRunFlags(FlagSet& flags);

/// Starts one instrumented run from the AddRunFlags flags, in order:
/// crash forensics; the sink (a profile, heap profile, watchdog or
/// status server asked for without --metrics_out or $CHAMELEON_METRICS
/// gets a discarded /dev/null sink, because all four read the live obs
/// registries); the status server when `statusz_port` >= 0; the
/// watchdog, CPU profiler and heap profiler; then `manifest` as the
/// stream's first record. Failing to start one of the three samplers is
/// a warning on stderr. Returns the error when the sink cannot be opened
/// or the status server cannot bind.
Status StartRun(const FlagSet& flags, const obs::RunManifest& manifest,
                std::int64_t statusz_port = -1);

/// Ends a StartRun run: stops the CPU profiler and prints its
/// "profile: ..." line, prints the "heap: ..." line of a running heap
/// profiler, then shuts observability down (run_summary, flush).
void FinishRun();

}  // namespace chameleon::cli

#endif  // CHAMELEON_TOOLS_CLI_H_
