#include "chameleon/obs/sink.h"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include <gtest/gtest.h>

namespace chameleon::obs {
namespace {

TEST(JsonlFieldTest, ExtractsStringsAndNumbers) {
  const std::string line =
      R"({"type":"span","path":"a/b","t_ms":1700000000123,"dur_ns":4567,)"
      R"("ratio":0.25,"note":"has \"quotes\" and , commas"})";
  EXPECT_EQ(*JsonlStringField(line, "type"), "span");
  EXPECT_EQ(*JsonlStringField(line, "path"), "a/b");
  EXPECT_EQ(*JsonlNumberField(line, "dur_ns"), 4567.0);
  EXPECT_EQ(*JsonlNumberField(line, "ratio"), 0.25);
  EXPECT_FALSE(JsonlStringField(line, "missing").has_value());
  EXPECT_FALSE(JsonlNumberField(line, "missing").has_value());
}

TEST(JsonlFieldTest, KeyInsideStringValueIsNotAMatch) {
  const std::string line = R"({"note":"dur_ns inside text","dur_ns":7})";
  EXPECT_EQ(*JsonlNumberField(line, "dur_ns"), 7.0);
}

TEST(JsonlFieldTest, ReadsBooleans) {
  const std::string line =
      R"({"note":"\"final\":true","final":false,"partial":true,"n":1})";
  EXPECT_EQ(JsonlBoolField(line, "final"), std::optional<bool>(false));
  EXPECT_EQ(JsonlBoolField(line, "partial"), std::optional<bool>(true));
  EXPECT_FALSE(JsonlBoolField(line, "n").has_value());
  EXPECT_FALSE(JsonlBoolField(line, "missing").has_value());
}

TEST(JsonlFieldTest, StringArrayIgnoresBracketsInsideStrings) {
  const std::string line =
      R"j({"frames":["f0","std::vector<int>::operator[](unsigned long)",)j"
      R"("say \"hi\"","main"],"tid":3})";
  const auto frames = JsonlStringArrayField(line, "frames");
  ASSERT_TRUE(frames.has_value());
  EXPECT_EQ(*frames,
            (std::vector<std::string>{
                "f0", "std::vector<int>::operator[](unsigned long)",
                "say \"hi\"", "main"}));
  EXPECT_EQ(*JsonlNumberField(line, "tid"), 3.0);
  EXPECT_TRUE(JsonlStringArrayField(R"({"a":[]})", "a")->empty());
  EXPECT_FALSE(JsonlStringArrayField(line, "tid").has_value());
  EXPECT_FALSE(JsonlStringArrayField(line, "missing").has_value());
}

TEST(JsonlFieldTest, ObjectIsBraceMatched) {
  const std::string line =
      R"({"counters":{"a":1,"b}":2,"nested":{"c":3}},"after":{"d":4}})";
  EXPECT_EQ(JsonlObjectField(line, "counters"),
            std::optional<std::string_view>(
                R"({"a":1,"b}":2,"nested":{"c":3}})"));
  EXPECT_EQ(JsonlObjectField(line, "nested"),
            std::optional<std::string_view>(R"({"c":3})"));
  EXPECT_FALSE(JsonlObjectField(R"({"a":1})", "a").has_value());
  EXPECT_FALSE(JsonlObjectField(line, "missing").has_value());
}

// Each reader on a line cut short mid-record: what is complete still
// reads, what the cut left open reads as absent, and nothing reads past
// the end of the line.
TEST(JsonlFieldTest, TruncatedLinesReadAsAbsent) {
  EXPECT_FALSE(JsonlStringField(R"({"type":"cra)", "type").has_value());
  EXPECT_FALSE(JsonlStringField(R"({"type":)", "type").has_value());
  EXPECT_FALSE(JsonlNumberField(R"({"dur_ns":)", "dur_ns").has_value());
  EXPECT_FALSE(JsonlNumberField(R"({"dur_ns":1e400})", "dur_ns").has_value());
  EXPECT_FALSE(JsonlBoolField(R"({"final":tr)", "final").has_value());
  EXPECT_FALSE(JsonlBoolField(R"({"final":)", "final").has_value());
  EXPECT_EQ(*JsonlStringArrayField(R"({"frames":["f0","f1)", "frames"),
            std::vector<std::string>{"f0"});
  EXPECT_EQ(*JsonlStringArrayField(R"({"frames":["f0","bad\"]})", "frames"),
            std::vector<std::string>{"f0"});
  EXPECT_TRUE(JsonlStringArrayField(R"({"frames":[)", "frames")->empty());
  EXPECT_FALSE(JsonlObjectField(R"({"seeds":{"rng":7)", "seeds").has_value());
  EXPECT_FALSE(
      JsonlObjectField(R"({"seeds":{"rng":"}\"})", "seeds").has_value());
}

TEST(RecordTypesTest, ListsEachWriterTypeOnce) {
  EXPECT_EQ(kRecordTypes.size(), 22u);
  for (const std::string_view type : kRecordTypes) {
    EXPECT_TRUE(IsKnownRecordType(type)) << type;
    EXPECT_EQ(std::count(kRecordTypes.begin(), kRecordTypes.end(), type), 1)
        << type;
  }
  EXPECT_FALSE(IsKnownRecordType("quantum_flux"));
  // Retired: estimator_progress carries a loop's progress.
  EXPECT_FALSE(IsKnownRecordType("progress"));
  EXPECT_FALSE(IsKnownRecordType(""));
  EXPECT_FALSE(IsKnownRecordType("span "));
}

TEST(MemorySinkTest, KeepsLinesInOrder) {
  MemorySink sink;
  sink.Write(R"({"type":"a"})");
  sink.Write(R"({"type":"b"})");
  const std::vector<std::string> lines = sink.lines();
  ASSERT_EQ(lines.size(), 2u);
  EXPECT_EQ(*JsonlStringField(lines[0], "type"), "a");
  EXPECT_EQ(*JsonlStringField(lines[1], "type"), "b");
}

TEST(JsonlFileSinkTest, GoldenRecordStructure) {
  const std::string path = testing::TempDir() + "/chameleon_sink_test.jsonl";
  {
    auto sink = JsonlFileSink::Open(path);
    ASSERT_TRUE(sink.ok());
    (*sink)->Write(
        R"({"type":"span","path":"reliability/two_terminal","dur_ns":100})");
    (*sink)->Write(R"({"type":"run_summary","wall_ms":12})");
    (*sink)->Flush();
  }  // destructor closes the file

  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::vector<std::string> lines;
  for (std::string line; std::getline(in, line);) lines.push_back(line);
  ASSERT_EQ(lines.size(), 2u);
  // Every line is a complete object with the expected fields.
  EXPECT_EQ(lines[0].front(), '{');
  EXPECT_EQ(lines[0].back(), '}');
  EXPECT_EQ(*JsonlStringField(lines[0], "type"), "span");
  EXPECT_EQ(*JsonlStringField(lines[0], "path"), "reliability/two_terminal");
  EXPECT_EQ(*JsonlNumberField(lines[0], "dur_ns"), 100.0);
  EXPECT_EQ(*JsonlStringField(lines[1], "type"), "run_summary");
  EXPECT_EQ(*JsonlNumberField(lines[1], "wall_ms"), 12.0);
  std::remove(path.c_str());
}

TEST(JsonlFileSinkTest, UnwritablePathFails) {
  const auto sink = JsonlFileSink::Open("/nonexistent/dir/out.jsonl");
  ASSERT_FALSE(sink.ok());
  EXPECT_EQ(sink.status().code(), StatusCode::kIoError);
}

}  // namespace
}  // namespace chameleon::obs
