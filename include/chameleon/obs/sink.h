#ifndef CHAMELEON_OBS_SINK_H_
#define CHAMELEON_OBS_SINK_H_

#include <array>
#include <cstdio>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "chameleon/obs/timed_mutex.h"
#include "chameleon/util/common.h"
#include "chameleon/util/status.h"

/// \file sink.h
/// JSONL record sinks plus the readers' side of the record stream. Every
/// record is one flat JSON object per line with a "type" field; the
/// types the library's writers emit are listed in kRecordTypes, and
/// DESIGN.md §7 ("JSONL record catalogue") documents each type's fields.
/// Writers format the line; sinks only append and are thread-safe.
///
/// Readers (chameleon_obs_dump, chameleon_watch) treat a "type" that
/// IsKnownRecordType rejects as forward-compatible passthrough: the
/// record counts toward the stream total and is mentioned once per type
/// in a debug note, never warned about per record.

namespace chameleon::obs {

class RecordSink {
 public:
  virtual ~RecordSink() = default;

  /// Appends one record. `line` must be a complete JSON object without a
  /// trailing newline.
  virtual void Write(std::string_view line) = 0;
  virtual void Flush() {}
};

/// Buffered, mutex-guarded JSONL file sink. Writer contention is itself
/// telemetry: the guard is a TimedMutex (wait histogram + flight events
/// on long waits) constructed with emit_records=false, since emitting a
/// `mutex_wait` record would re-enter this sink under its own lock.
class JsonlFileSink : public RecordSink {
 public:
  static Result<std::unique_ptr<JsonlFileSink>> Open(const std::string& path);
  ~JsonlFileSink() override;
  CHAMELEON_DISALLOW_COPY_AND_ASSIGN(JsonlFileSink);

  void Write(std::string_view line) override;
  void Flush() override;

  const std::string& path() const { return path_; }

 private:
  JsonlFileSink(std::FILE* file, std::string path);

  TimedMutex mu_{"sink/jsonl",
                 TimedMutex::Options{.long_wait_nanos = 10'000'000,
                                     .emit_records = false}};
  std::FILE* file_;
  std::string path_;
};

/// In-memory sink for tests.
class MemorySink : public RecordSink {
 public:
  void Write(std::string_view line) override {
    const std::lock_guard<std::mutex> lock(mu_);
    lines_.emplace_back(line);
  }

  std::vector<std::string> lines() const {
    const std::lock_guard<std::mutex> lock(mu_);
    return lines_;
  }

 private:
  mutable std::mutex mu_;
  std::vector<std::string> lines_;
};

/// Every record type the library's writers emit.
inline constexpr std::array<std::string_view, 22> kRecordTypes = {
    "manifest", "span", "snapshot", "estimator_progress", "status_server",
    "graph_summary", "profile", "privacy_check", "crash",
    "flight_event_dump", "watchdog_stall", "parallel_region", "mutex_wait",
    "hw_counters", "hw_counters_unavailable", "heap_profile",
    "heap_timeline", "heap_profiler_unavailable", "relevance_progress",
    "anonymize_attempt", "sigma_search", "run_summary"};

/// True when `type` is one of kRecordTypes.
bool IsKnownRecordType(std::string_view type);

/// Minimal field extraction from the library's own flat JSONL records
/// (used by tests and the tools; not a general JSON parser). Each reader
/// finds the first `"key":` outside a string literal, at any nesting
/// level, and returns nullopt when `key` is absent or its value is not
/// of the reader's JSON type. An unterminated string or object reads as
/// absent.
std::optional<std::string> JsonlStringField(std::string_view line,
                                            std::string_view key);
std::optional<double> JsonlNumberField(std::string_view line,
                                       std::string_view key);
std::optional<bool> JsonlBoolField(std::string_view line,
                                   std::string_view key);
/// The strings of an array value (`"key":["a","b"]`), unescaped like
/// JsonlStringField. Brackets inside the strings do not end the array.
/// A truncated array yields the strings completed before the cut; the
/// strings stop at the first element that is not a string.
std::optional<std::vector<std::string>> JsonlStringArrayField(
    std::string_view line, std::string_view key);
/// The raw text of an object value (`"key":{...}`), braces included,
/// matched to its own closing brace (braces inside strings do not
/// count). A view into `line`.
std::optional<std::string_view> JsonlObjectField(std::string_view line,
                                                 std::string_view key);

}  // namespace chameleon::obs

#endif  // CHAMELEON_OBS_SINK_H_
