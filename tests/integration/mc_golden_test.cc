// Fixed-seed outputs of the Monte Carlo estimators, held bit for bit: the
// three reliability estimators (fixed-count and early-stop runs) and the
// reused-sampling relevance estimator's per-edge ERR vector. Each
// reliability case also pins the caller's generator's next draw, so a
// change to how many worlds are drawn, in what order, or where the loop
// stops fails here even when the estimate happens to agree. Doubles are
// written as hex-float literals so the comparison is exact.

#include <cstdint>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "chameleon/anonymize/relevance.h"
#include "chameleon/graph/generators.h"
#include "chameleon/reliability/reliability.h"
#include "chameleon/util/rng.h"

namespace chameleon {
namespace {

using graph::UncertainGraph;

constexpr std::uint64_t kSeed = 2018;

UncertainGraph Er(NodeId nodes, double avg_degree, std::uint64_t seed) {
  Rng rng(seed);
  Result<UncertainGraph> g =
      graph::RandomUncertainGraph(nodes, avg_degree, 0.1, 0.9, rng);
  EXPECT_TRUE(g.ok());
  return *std::move(g);
}

/// 60 nodes, 90 edges.
const UncertainGraph& Er60() {
  static const auto* g = new UncertainGraph(Er(60, 3.0, 11));
  return *g;
}

rel::MonteCarloOptions Options(std::size_t worlds, double target_ci_halfwidth,
                               double max_rel_err) {
  rel::MonteCarloOptions options;
  options.worlds = worlds;
  options.heartbeat = false;
  options.target_ci_halfwidth = target_ci_halfwidth;
  options.max_rel_err = max_rel_err;
  return options;
}

/// One run's stopping rules and its recorded outputs.
struct Case {
  const char* name;
  std::size_t worlds;
  double target_ci_halfwidth;
  double max_rel_err;
  // Recorded outputs.
  std::size_t sampled;
  bool stopped_early;
  std::uint64_t next_draw;
};

TEST(McGoldenTest, TwoTerminal) {
  struct TwoTerminalCase {
    Case run;
    double reliability;
    double ci_halfwidth;
  };
  const TwoTerminalCase cases[] = {
      {{"fixed", 3000, 0.0, 0.0, 3000, false, 0xba4232838789914ull},
       0x1.189374bc6a7fp-1,
       0x1.239bac27a44efp-6},
      {{"max_rel_err", 200000, 0.0, 0.05, 1344, true, 0x283ff0beebc6f4abull},
       0x1.10c30c30c30c3p-1,
       0x1.b469604fe11b6p-6},
      {{"target_hw", 200000, 0.02, 0.0, 2381, true, 0xfcfa776f6f7e21abull},
       0x1.159c703fa68b9p-1,
       0x1.479dd0fb1215ap-6},
  };
  for (const TwoTerminalCase& c : cases) {
    SCOPED_TRACE(c.run.name);
    Rng rng(kSeed);
    const Result<rel::ReliabilityEstimate> e =
        rel::EstimateTwoTerminalReliability(
            Er60(), 0, 1,
            Options(c.run.worlds, c.run.target_ci_halfwidth,
                    c.run.max_rel_err),
            rng);
    ASSERT_TRUE(e.ok());
    EXPECT_EQ(e->reliability, c.reliability);
    EXPECT_EQ(e->ci_halfwidth, c.ci_halfwidth);
    EXPECT_EQ(e->worlds, c.run.sampled);
    EXPECT_EQ(e->stopped_early, c.run.stopped_early);
    EXPECT_EQ(rng(), c.run.next_draw);
  }
}

TEST(McGoldenTest, PairSet) {
  struct PairSetCase {
    Case run;
    bool no_pairs;
    std::vector<double> reliability;
    double max_ci_halfwidth;
  };
  const std::vector<std::pair<NodeId, NodeId>> pairs = {
      {0, 1}, {2, 3}, {4, 5}, {6, 7}};
  // Pair (2, 3) is never connected, so the relative-error rule can never
  // cover it and that run uses every world.
  const PairSetCase cases[] = {
      {{"fixed", 2000, 0.0, 0.0, 2000, false, 0x6c3f309e7d73ceacull},
       false,
       {0x1.12b020c49ba5ep-1, 0x0p+0, 0x1.3851eb851eb85p-2,
        0x1.4bc6a7ef9db23p-2},
       0x1.65bb12c32c825p-6},
      {{"target_hw", 100000, 0.02, 0.0, 2384, true, 0x7619a2b86237430aull},
       false,
       {0x1.15e7f24149e11p-1, 0x0p+0, 0x1.36fad87bb4671p-2,
        0x1.444b98e9aa181p-2},
       0x1.4760dc180e939p-6},
      {{"max_rel_err", 100000, 0.0, 0.05, 100000, false,
        0xabb9d9e5847198bull},
       false,
       {0x1.1216c61522a6fp-1, 0x0p+0, 0x1.3db76b3bb83cfp-2,
        0x1.41672324c8366p-2},
       0x1.952c5c9de247fp-9},
      {{"no_pairs", 10, 0.02, 0.0, 10, false, 0x6ea76188033205ceull},
       true,
       {},
       0.0},
  };
  for (const PairSetCase& c : cases) {
    SCOPED_TRACE(c.run.name);
    Rng rng(kSeed);
    const Result<rel::PairSetEstimate> e = rel::EstimatePairSetReliability(
        Er60(), c.no_pairs ? std::vector<std::pair<NodeId, NodeId>>{} : pairs,
        Options(c.run.worlds, c.run.target_ci_halfwidth, c.run.max_rel_err),
        rng);
    ASSERT_TRUE(e.ok());
    EXPECT_EQ(e->reliability, c.reliability);
    EXPECT_EQ(e->max_ci_halfwidth, c.max_ci_halfwidth);
    EXPECT_EQ(e->worlds, c.run.sampled);
    EXPECT_EQ(e->stopped_early, c.run.stopped_early);
    EXPECT_EQ(rng(), c.run.next_draw);
  }
}

TEST(McGoldenTest, ConnectedPairs) {
  struct ConnectedPairsCase {
    Case run;
    double expected_pairs;
    double stddev;
    double ci_halfwidth;
  };
  const ConnectedPairsCase cases[] = {
      {{"fixed", 1000, 0.0, 0.0, 1000, false, 0x35b4b71cee6c9a3full},
       0x1.6b5b851eb851cp+9,
       0x1.e817c5ca8135fp+7,
       0x1.e4097528f392ep+3},
      {{"max_rel_err", 100000, 0.0, 0.01, 4192, true, 0xb0d32902d127bfa2ull},
       0x1.71a40fa232d16p+9,
       0x1.e86a2a4e1d816p+7,
       0x1.d9224cfd2a8c8p+2},
      {{"target_hw", 100000, 5.0, 0.0, 9246, true, 0xf755a7a70257682cull},
       0x1.708a6203a79e4p+9,
       0x1.ea92e45238ccap+7,
       0x1.3ffce1fca9282p+2},
  };
  for (const ConnectedPairsCase& c : cases) {
    SCOPED_TRACE(c.run.name);
    Rng rng(kSeed);
    const Result<rel::ConnectedPairsEstimate> e = rel::ExpectedConnectedPairs(
        Er60(),
        Options(c.run.worlds, c.run.target_ci_halfwidth, c.run.max_rel_err),
        rng);
    ASSERT_TRUE(e.ok());
    EXPECT_EQ(e->expected_pairs, c.expected_pairs);
    EXPECT_EQ(e->stddev, c.stddev);
    EXPECT_EQ(e->ci_halfwidth, c.ci_halfwidth);
    EXPECT_EQ(e->worlds, c.run.sampled);
    EXPECT_EQ(e->stopped_early, c.run.stopped_early);
    EXPECT_EQ(rng(), c.run.next_draw);
  }
}

TEST(McGoldenTest, RelevanceErrVector) {
  struct RelevanceCase {
    const char* name;
    std::size_t worlds;
    double max_rel_err;
    // Recorded outputs.
    std::size_t sampled;
    bool stopped_early;
    double mean_world_mass;
    std::vector<double> err;
  };
  const RelevanceCase cases[] = {
      {"fixed", 256, 0.0, 256, false, 0x1.5260000000001p+5,
       {0x1.3f05397829cbcp+3, 0x1.cc13521cfb2b8p+1, 0x1.7a10f421e843dp+2,
        0x1.109d89d89d89ep+2, 0x1.875075075075p+1, 0x1.f097b425ed098p+2,
        0x1.a6p+2, 0x1.392840670b454p+3, 0x1.7586fb586fb58p+2,
        0x1.ee23b88ee23b9p+1, 0x1.af7bdef7bdef8p+1, 0x1.37315233ab731p+2,
        0x1.0ec4ec4ec4ec5p+1, 0x1.514c1bacf914cp+1, 0x1.b507507507507p+0}},
      {"max_rel_err", 100000, 0.1, 128, true, 0x1.52ap+5,
       {0x1.46102b1da461p+3, 0x1.b249249249249p+1, 0x1.7128cfc4a33f1p+2,
        0x1.1729729729729p+2, 0x1.78p+1, 0x1.ebe82fa0be83p+2,
        0x1.9310572620ae5p+2, 0x1.359999999999ap+3, 0x1.65f75270d0457p+2,
        0x1.de38e38e38e39p+1, 0x1.ecccccccccccdp+1, 0x1.30c30c30c30c3p+2,
        0x1.3p+1, 0x1.6906906906907p+1, 0x1.d12073615a241p+0}},
  };
  const UncertainGraph g = Er(12, 2.5, 5);  // 15 edges
  for (const RelevanceCase& c : cases) {
    SCOPED_TRACE(c.name);
    anonymize::RelevanceOptions options;
    options.worlds = c.worlds;
    options.seed = kSeed;
    options.threads = 2;
    options.max_rel_err = c.max_rel_err;
    options.heartbeat = false;
    const Result<anonymize::EdgeRelevance> r =
        anonymize::EstimateRelevance(g, options);
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(r->err, c.err);
    EXPECT_EQ(r->mean_world_mass, c.mean_world_mass);
    EXPECT_EQ(r->worlds, c.sampled);
    EXPECT_EQ(r->stopped_early, c.stopped_early);
  }
}

}  // namespace
}  // namespace chameleon
