// Progress reporting of every Monte Carlo loop, read back from a live
// JSONL stream: each reliability estimator reports through exactly one
// estimator_progress label whose final record carries the loop's total
// and ETA, relevance reports through its relevance_progress records, no
// retired `progress` record appears, and every record type written is
// one the readers know. The stderr progress line is checked too: it
// names the estimator's label and carries no acceptance rate.

#include <cstdio>
#include <fstream>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "chameleon/anonymize/relevance.h"
#include "chameleon/graph/generators.h"
#include "chameleon/obs/obs.h"
#include "chameleon/reliability/reliability.h"
#include "chameleon/util/rng.h"

namespace chameleon {
namespace {

TEST(McProgressStreamTest, OneProgressRecordStreamPerLoop) {
  const std::string path = testing::TempDir() + "/mc_progress_stream.jsonl";
  std::remove(path.c_str());
  obs::ObsOptions obs_options;
  obs_options.metrics_out = path;
  obs_options.read_env = false;
  ASSERT_TRUE(obs::InitObservability(obs_options).ok());

  Rng graph_rng(11);
  const Result<graph::UncertainGraph> g =
      graph::RandomUncertainGraph(60, 3.0, 0.1, 0.9, graph_rng);
  ASSERT_TRUE(g.ok());
  rel::MonteCarloOptions mc;
  mc.worlds = 3000;
  mc.heartbeat = true;
  Rng rng(2018);
  testing::internal::CaptureStderr();
  ASSERT_TRUE(rel::EstimateTwoTerminalReliability(*g, 0, 1, mc, rng).ok());
  ASSERT_TRUE(
      rel::EstimatePairSetReliability(*g, {{0, 1}, {4, 5}}, mc, rng).ok());
  mc.max_rel_err = 0.02;  // one early-stopping loop
  const Result<rel::ConnectedPairsEstimate> pairs =
      rel::ExpectedConnectedPairs(*g, mc, rng);
  ASSERT_TRUE(pairs.ok());
  anonymize::RelevanceOptions relevance;
  relevance.worlds = 128;
  relevance.threads = 1;
  ASSERT_TRUE(anonymize::EstimateRelevance(*g, relevance).ok());
  const std::string log = testing::internal::GetCapturedStderr();
  obs::ShutdownObservability();

  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::map<std::string, std::vector<std::string>> estimator_records;
  std::size_t relevance_records = 0;
  for (std::string line; std::getline(in, line);) {
    const auto type = obs::JsonlStringField(line, "type");
    ASSERT_TRUE(type.has_value()) << line;
    EXPECT_TRUE(obs::IsKnownRecordType(*type)) << line;
    EXPECT_NE(*type, "progress") << line;
    if (*type == "estimator_progress") {
      estimator_records[*obs::JsonlStringField(line, "label")].push_back(line);
    } else if (*type == "relevance_progress") {
      ++relevance_records;
    }
  }
  std::remove(path.c_str());

  // One label per loop: no second "<label>/sample_worlds" reporter.
  ASSERT_EQ(estimator_records.size(), 3u);
  EXPECT_GE(relevance_records, 1u);
  for (const char* label :
       {"reliability/two_terminal", "reliability/pair_set",
        "reliability/connected_pairs"}) {
    SCOPED_TRACE(label);
    ASSERT_EQ(estimator_records.count(label), 1u);
    const std::vector<std::string>& records = estimator_records[label];
    for (const std::string& record : records) {
      EXPECT_EQ(obs::JsonlNumberField(record, "total"), 3000.0) << record;
      EXPECT_TRUE(obs::JsonlNumberField(record, "eta_s").has_value())
          << record;
    }
    const std::string& last = records.back();
    EXPECT_EQ(obs::JsonlBoolField(last, "final"), true) << last;
    EXPECT_EQ(obs::JsonlNumberField(last, "eta_s"), 0.0) << last;
    // Each loop logs its final line under the tracker's label.
    EXPECT_NE(log.find(std::string("[") + label + "] "), std::string::npos)
        << log;
  }
  const std::string& early = estimator_records["reliability/connected_pairs"]
                                 .back();
  EXPECT_EQ(obs::JsonlBoolField(early, "stopped_early"), true);
  EXPECT_EQ(obs::JsonlNumberField(early, "samples"),
            static_cast<double>(pairs->worlds));
  EXPECT_NE(log.find("[anonymize/relevance] 128/128 (100.0%)"),
            std::string::npos)
      << log;
  EXPECT_EQ(log.find("accept"), std::string::npos) << log;
  EXPECT_EQ(log.find("/sample_worlds]"), std::string::npos) << log;
}

}  // namespace
}  // namespace chameleon
