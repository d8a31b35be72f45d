#include "chameleon/obs/sink.h"

#include <algorithm>
#include <cstdlib>
#include <utility>

#include "chameleon/util/string_util.h"

namespace chameleon::obs {

Result<std::unique_ptr<JsonlFileSink>> JsonlFileSink::Open(
    const std::string& path) {
  std::FILE* file = std::fopen(path.c_str(), "w");
  if (file == nullptr) {
    return Status::IoError("cannot open metrics sink: " + path);
  }
  return std::unique_ptr<JsonlFileSink>(new JsonlFileSink(file, path));
}

JsonlFileSink::JsonlFileSink(std::FILE* file, std::string path)
    : file_(file), path_(std::move(path)) {}

JsonlFileSink::~JsonlFileSink() {
  const std::lock_guard<TimedMutex> lock(mu_);
  if (file_ != nullptr) std::fclose(file_);
}

void JsonlFileSink::Write(std::string_view line) {
  const std::lock_guard<TimedMutex> lock(mu_);
  if (file_ == nullptr) return;
  std::fwrite(line.data(), 1, line.size(), file_);
  std::fputc('\n', file_);
}

void JsonlFileSink::Flush() {
  const std::lock_guard<TimedMutex> lock(mu_);
  if (file_ != nullptr) std::fflush(file_);
}

namespace {

/// Finds the byte range of the value for `"key":` at any nesting level,
/// skipping matches inside string literals. Good enough for the flat
/// records this library emits.
std::optional<std::size_t> FindValueStart(std::string_view line,
                                          std::string_view key) {
  const std::string needle = "\"" + std::string(key) + "\":";
  bool in_string = false;
  bool escaped = false;
  for (std::size_t i = 0; i < line.size(); ++i) {
    const char c = line[i];
    if (escaped) {
      escaped = false;
      continue;
    }
    if (c == '\\') {
      escaped = true;
      continue;
    }
    if (c == '"') {
      // Candidate key match must begin at this quote, outside a string.
      if (!in_string && line.substr(i, needle.size()) == needle) {
        return i + needle.size();
      }
      in_string = !in_string;
    }
  }
  return std::nullopt;
}

/// Start of the value for `key` when it begins with `open`.
std::optional<std::size_t> FindValueOpening(std::string_view line,
                                            std::string_view key,
                                            char open) {
  const auto start = FindValueStart(line, key);
  if (!start.has_value() || *start >= line.size() || line[*start] != open) {
    return std::nullopt;
  }
  return start;
}

/// Reads the string literal whose opening quote is at `quote`. Returns the
/// unescaped text and the index just past the closing quote, or nullopt
/// when the line ends inside the string.
std::optional<std::pair<std::string, std::size_t>> ReadString(
    std::string_view line, std::size_t quote) {
  std::string out;
  bool escaped = false;
  for (std::size_t i = quote + 1; i < line.size(); ++i) {
    const char c = line[i];
    if (escaped) {
      switch (c) {
        case 'n':
          out += '\n';
          break;
        case 't':
          out += '\t';
          break;
        case 'r':
          out += '\r';
          break;
        default:
          out += c;
      }
      escaped = false;
      continue;
    }
    if (c == '\\') {
      escaped = true;
      continue;
    }
    if (c == '"') return std::make_pair(std::move(out), i + 1);
    out += c;
  }
  return std::nullopt;
}

}  // namespace

bool IsKnownRecordType(std::string_view type) {
  return std::find(kRecordTypes.begin(), kRecordTypes.end(), type) !=
         kRecordTypes.end();
}

std::optional<std::string> JsonlStringField(std::string_view line,
                                            std::string_view key) {
  const auto start = FindValueOpening(line, key, '"');
  if (!start.has_value()) return std::nullopt;
  auto read = ReadString(line, *start);
  if (!read.has_value()) return std::nullopt;
  return std::move(read->first);
}

std::optional<double> JsonlNumberField(std::string_view line,
                                       std::string_view key) {
  const auto start = FindValueStart(line, key);
  if (!start.has_value() || *start >= line.size()) return std::nullopt;
  std::size_t end = *start;
  while (end < line.size() &&
         (std::string_view("+-.eE0123456789").find(line[end]) !=
          std::string_view::npos)) {
    ++end;
  }
  if (end == *start) return std::nullopt;
  const Result<double> parsed = ParseDouble(line.substr(*start, end - *start));
  if (!parsed.ok()) return std::nullopt;
  return *parsed;
}

std::optional<bool> JsonlBoolField(std::string_view line,
                                   std::string_view key) {
  const auto start = FindValueStart(line, key);
  if (!start.has_value()) return std::nullopt;
  const std::string_view value = line.substr(*start);
  if (value.substr(0, 4) == "true") return true;
  if (value.substr(0, 5) == "false") return false;
  return std::nullopt;
}

std::optional<std::vector<std::string>> JsonlStringArrayField(
    std::string_view line, std::string_view key) {
  const auto start = FindValueOpening(line, key, '[');
  if (!start.has_value()) return std::nullopt;
  std::vector<std::string> out;
  std::size_t i = *start + 1;
  while (i < line.size() && line[i] != ']') {
    if (line[i] == ',' || line[i] == ' ') {
      ++i;
      continue;
    }
    if (line[i] != '"') break;
    auto read = ReadString(line, i);
    if (!read.has_value()) break;
    out.push_back(std::move(read->first));
    i = read->second;
  }
  return out;
}

std::optional<std::string_view> JsonlObjectField(std::string_view line,
                                                 std::string_view key) {
  const auto start = FindValueOpening(line, key, '{');
  if (!start.has_value()) return std::nullopt;
  int depth = 0;
  bool in_string = false;
  bool escaped = false;
  for (std::size_t i = *start; i < line.size(); ++i) {
    const char c = line[i];
    if (escaped) {
      escaped = false;
      continue;
    }
    if (c == '\\') {
      escaped = true;
      continue;
    }
    if (c == '"') in_string = !in_string;
    if (in_string) continue;
    if (c == '{') ++depth;
    if (c == '}' && --depth == 0) return line.substr(*start, i - *start + 1);
  }
  return std::nullopt;
}

}  // namespace chameleon::obs
